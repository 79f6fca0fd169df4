//! Incast: the many-to-one datacenter traffic pattern.
//!
//! A fan-in of `workers` senders each transfers a fixed block
//! (`bytes_per_worker`) to one aggregator, all starting together; the
//! synchronized burst slams the aggregator's switch port and — under
//! drop-tail with loss-based congestion control — collapses into
//! retransmission timeouts (TCP incast). A round repeats after a fixed
//! barrier gap, optionally with a small per-worker jitter so rounds
//! don't phase-lock perfectly.
//!
//! Each [`IncastSource`] is one worker's view: it emits `FlowPlan`s of
//! exactly `bytes_per_worker` bytes. The *first* flow starts after only
//! the worker's jitter; later flows wait out the round gap (measured
//! from the previous flow's completion, as with the on/off model) plus
//! a fresh jitter draw. Jitter draws are keyed on `(seed, round)` via
//! [`SeedRng::fork_indexed`], so a worker's round-`k` offset never
//! depends on how other streams were consumed — reruns and
//! cross-scheme comparisons see identical arrivals.

use serde::Serialize;

use crate::onoff::{FlowPlan, OnOffSource};
use crate::rng::SeedRng;

/// Configuration of a synchronized incast fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IncastConfig {
    /// Number of workers fanning in to the aggregator.
    pub workers: u32,
    /// Bytes each worker sends per round (one flow).
    pub bytes_per_worker: u64,
    /// Rounds each worker performs (the harness maps this to the
    /// sender's `max_flows`; the source itself keeps producing plans).
    pub rounds: u64,
    /// Barrier gap between a worker's rounds, seconds (from the previous
    /// flow's completion to the next request).
    pub round_gap_secs: f64,
    /// Maximum uniform per-flow start jitter, seconds. Zero keeps the
    /// bursts perfectly synchronized.
    pub jitter_secs: f64,
}

/// One worker's flow plans in an incast fan-in.
#[derive(Debug)]
pub struct IncastSource {
    cfg: IncastConfig,
    rng: SeedRng,
    next_round: u64,
}

impl IncastSource {
    /// The source for one worker; `rng` should already be forked per
    /// worker (e.g. `root.fork_indexed("worker", i)`).
    pub fn new(cfg: IncastConfig, rng: SeedRng) -> Self {
        assert!(cfg.bytes_per_worker >= 1, "zero-byte incast blocks");
        IncastSource {
            cfg,
            rng,
            next_round: 0,
        }
    }

    /// The plan for this worker's next round.
    pub fn next_flow(&mut self) -> FlowPlan {
        let round = self.next_round;
        self.next_round += 1;
        let jitter_secs = if self.cfg.jitter_secs > 0.0 {
            self.rng.fork_indexed("round", round).unit() * self.cfg.jitter_secs
        } else {
            0.0
        };
        let gap_secs = if round == 0 {
            jitter_secs
        } else {
            self.cfg.round_gap_secs.max(0.0) + jitter_secs
        };
        FlowPlan {
            bytes: self.cfg.bytes_per_worker,
            off_ns: (gap_secs * 1e9).min(1.8e19) as u64,
        }
    }
}

/// Any of the crate's flow-plan generators, as one pluggable source.
///
/// Transport endpoints take `impl Into<FlowSource>`, so call sites keep
/// passing a concrete [`OnOffSource`] or [`IncastSource`] directly.
#[derive(Debug)]
pub enum FlowSource {
    /// The paper's on/off model ([`crate::onoff`]).
    OnOff(OnOffSource),
    /// A synchronized incast fan-in worker.
    Incast(IncastSource),
}

impl FlowSource {
    /// The plan for the next connection.
    pub fn next_flow(&mut self) -> FlowPlan {
        match self {
            FlowSource::OnOff(s) => s.next_flow(),
            FlowSource::Incast(s) => s.next_flow(),
        }
    }
}

impl From<OnOffSource> for FlowSource {
    fn from(s: OnOffSource) -> Self {
        FlowSource::OnOff(s)
    }
}

impl From<IncastSource> for FlowSource {
    fn from(s: IncastSource) -> Self {
        FlowSource::Incast(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classic incast probe: `workers` senders, 64 KB blocks, ten
    /// rounds, 10 ms barrier gaps, no jitter.
    fn fan_in(workers: u32) -> IncastConfig {
        IncastConfig {
            workers,
            bytes_per_worker: 64 * 1024,
            rounds: 10,
            round_gap_secs: 0.01,
            jitter_secs: 0.0,
        }
    }

    #[test]
    fn fixed_blocks_every_round() {
        let cfg = fan_in(8);
        let mut s = IncastSource::new(cfg, SeedRng::new(3));
        for round in 0..20 {
            let p = s.next_flow();
            assert_eq!(p.bytes, 64 * 1024, "round {round}");
        }
    }

    #[test]
    fn no_jitter_means_perfect_synchrony() {
        let cfg = fan_in(4);
        // Different per-worker seeds, identical plans: the burst is
        // synchronized by construction.
        let mut a = IncastSource::new(cfg, SeedRng::new(1).fork_indexed("worker", 0));
        let mut b = IncastSource::new(cfg, SeedRng::new(1).fork_indexed("worker", 3));
        for _ in 0..10 {
            assert_eq!(a.next_flow(), b.next_flow());
        }
        // First flow starts immediately; later rounds wait the gap.
        let mut c = IncastSource::new(cfg, SeedRng::new(7));
        assert_eq!(c.next_flow().off_ns, 0);
        assert_eq!(c.next_flow().off_ns, 10_000_000);
    }

    #[test]
    fn jitter_is_bounded_and_reproducible() {
        let cfg = IncastConfig {
            jitter_secs: 0.002,
            ..fan_in(4)
        };
        let a: Vec<FlowPlan> = {
            let mut s = IncastSource::new(cfg, SeedRng::new(5));
            (0..50).map(|_| s.next_flow()).collect()
        };
        let b: Vec<FlowPlan> = {
            let mut s = IncastSource::new(cfg, SeedRng::new(5));
            (0..50).map(|_| s.next_flow()).collect()
        };
        assert_eq!(a, b);
        assert!(a[0].off_ns <= 2_000_000);
        for p in &a[1..] {
            assert!(p.off_ns >= 10_000_000 && p.off_ns <= 12_000_000);
        }
    }

    #[test]
    fn flow_source_dispatches_to_either_model() {
        let incast: FlowSource = IncastSource::new(fan_in(2), SeedRng::new(1)).into();
        let onoff: FlowSource =
            OnOffSource::new(crate::onoff::OnOffConfig::fig2(), SeedRng::new(1)).into();
        let mut incast = incast;
        let mut onoff = onoff;
        assert_eq!(incast.next_flow().bytes, 64 * 1024);
        assert!(onoff.next_flow().bytes >= 1);
    }
}
