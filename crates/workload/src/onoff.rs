//! The paper's on/off traffic model (§2.2).
//!
//! Each sender alternates between an *on* period — a fresh connection that
//! transfers an exponentially-distributed number of bytes — and an *off*
//! period of exponentially-distributed duration. Workload level is varied
//! by the number of senders, the mean connection length, and the mean off
//! time (e.g. Figure 2a/2b use mean 500 KB on / 2 s off).

use serde::Serialize;

use crate::dist::{Constant, Exponential, Sample};
use crate::rng::SeedRng;

/// The plan for one on-period connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPlan {
    /// Bytes to transfer in this connection (at least one segment's worth).
    pub bytes: u64,
    /// Idle gap *before* this connection starts, in nanoseconds.
    pub off_ns: u64,
}

/// Configuration of one sender's on/off process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OnOffConfig {
    /// Mean bytes per on-period connection.
    pub mean_on_bytes: f64,
    /// Mean off-period duration, seconds. Zero means back-to-back flows.
    pub mean_off_secs: f64,
    /// If true, sizes/gaps are the means exactly (long-running-flow mode,
    /// used by Figure 2c); otherwise both are exponential.
    pub deterministic: bool,
}

impl OnOffConfig {
    /// The Figure 2a/2b workload: exponential, 500 KB mean on, 2 s mean off.
    pub fn fig2() -> Self {
        OnOffConfig {
            mean_on_bytes: 500_000.0,
            mean_off_secs: 2.0,
            deterministic: false,
        }
    }

    /// The Table 3 workload: exponential, 100 KB mean on, 0.5 s mean off.
    pub fn table3() -> Self {
        OnOffConfig {
            mean_on_bytes: 100_000.0,
            mean_off_secs: 0.5,
            deterministic: false,
        }
    }

    /// A single effectively-infinite connection (Figure 2c long-running
    /// flows): `bytes` is made enormous and there is no off period.
    pub fn long_running() -> Self {
        OnOffConfig {
            mean_on_bytes: 1e15,
            mean_off_secs: 0.0,
            deterministic: true,
        }
    }
}

/// Draws successive [`FlowPlan`]s for one sender.
///
/// Each flow's draws come from an independent stream forked from the
/// source's seed and keyed on the flow index
/// ([`SeedRng::fork_indexed`]`("flow", k)`), never from one shared
/// sequential stream: flow `k`'s size and gap depend only on
/// `(seed, k)`, so a change in how many draws earlier flows consumed —
/// or in the seed-derivation of any *other* stream — cannot shift them.
/// That keeps workload arrivals comparable across schemes and across
/// code changes (the same property [`SeedRng::fork`] gives experiments).
#[derive(Debug)]
pub struct OnOffSource {
    on_bytes: Dist,
    off_secs: Dist,
    rng: SeedRng,
    next_index: u64,
    /// Fraction of the mean off time used to stagger the very first start.
    initial_stagger: f64,
}

#[derive(Debug)]
enum Dist {
    Exp(Exponential),
    Const(Constant),
}

impl Dist {
    fn sample(&self, rng: &mut SeedRng) -> f64 {
        match self {
            Dist::Exp(d) => d.sample(rng),
            Dist::Const(d) => d.sample(rng),
        }
    }
}

impl OnOffSource {
    /// A source following `cfg`, drawing from `rng`.
    ///
    /// The first flow starts after a uniform stagger in `[0, mean_off]`
    /// (or in `[0, 100ms]` when there is no off period) so simultaneous
    /// senders don't phase-lock at t = 0 — ns-2 experiments use random
    /// start times for the same reason.
    pub fn new(cfg: OnOffConfig, rng: SeedRng) -> Self {
        let on_bytes = if cfg.deterministic {
            Dist::Const(Constant(cfg.mean_on_bytes))
        } else {
            Dist::Exp(Exponential::with_mean(cfg.mean_on_bytes))
        };
        let off_secs = if cfg.mean_off_secs <= 0.0 {
            Dist::Const(Constant(0.0))
        } else if cfg.deterministic {
            Dist::Const(Constant(cfg.mean_off_secs))
        } else {
            Dist::Exp(Exponential::with_mean(cfg.mean_off_secs))
        };
        let initial_stagger = rng.fork("stagger").unit();
        OnOffSource {
            on_bytes,
            off_secs,
            rng,
            next_index: 0,
            initial_stagger,
        }
    }

    /// The plan for the next connection.
    pub fn next_flow(&mut self) -> FlowPlan {
        let index = self.next_index;
        self.next_index += 1;
        let flow_rng = self.rng.fork_indexed("flow", index);
        let off_secs = if index == 0 {
            let base = match &self.off_secs {
                Dist::Exp(d) => d.mean().unwrap_or(0.0),
                Dist::Const(c) => c.0,
            };
            let window = if base > 0.0 { base } else { 0.1 };
            self.initial_stagger * window
        } else {
            self.off_secs.sample(&mut flow_rng.fork("off"))
        };
        let bytes = self.on_bytes.sample(&mut flow_rng.fork("bytes")).max(1.0);
        FlowPlan {
            bytes: bytes.min(1.8e19) as u64,
            off_ns: (off_secs * 1e9).min(1.8e19) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_source_matches_means() {
        let cfg = OnOffConfig::fig2();
        let mut src = OnOffSource::new(cfg, SeedRng::new(1));
        let n = 20_000;
        let mut bytes = 0f64;
        let mut off = 0f64;
        src.next_flow(); // skip the staggered first flow
        for _ in 0..n {
            let p = src.next_flow();
            bytes += p.bytes as f64;
            off += p.off_ns as f64 / 1e9;
        }
        let mb = bytes / n as f64;
        let mo = off / n as f64;
        assert!((mb - 500_000.0).abs() / 500_000.0 < 0.03, "mean bytes {mb}");
        assert!((mo - 2.0).abs() / 2.0 < 0.03, "mean off {mo}");
    }

    #[test]
    fn first_flow_staggered_within_mean_off() {
        for seed in 0..20 {
            let mut src = OnOffSource::new(OnOffConfig::fig2(), SeedRng::new(seed));
            let p = src.next_flow();
            assert!(p.off_ns <= 2_000_000_000, "stagger {} > mean off", p.off_ns);
        }
    }

    #[test]
    fn long_running_is_one_huge_flow() {
        let mut src = OnOffSource::new(OnOffConfig::long_running(), SeedRng::new(2));
        let p = src.next_flow();
        assert!(p.bytes > 1_000_000_000_000, "bytes {}", p.bytes);
        assert!(p.off_ns <= 100_000_000); // stagger at most 100 ms
        let p2 = src.next_flow();
        assert_eq!(p2.off_ns, 0);
    }

    #[test]
    fn deterministic_sources_reproduce() {
        let a: Vec<FlowPlan> = {
            let mut s = OnOffSource::new(OnOffConfig::table3(), SeedRng::new(9));
            (0..50).map(|_| s.next_flow()).collect()
        };
        let b: Vec<FlowPlan> = {
            let mut s = OnOffSource::new(OnOffConfig::table3(), SeedRng::new(9));
            (0..50).map(|_| s.next_flow()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn flow_draws_keyed_on_flow_id_not_draw_order() {
        // Flow k's size depends only on (seed, k). The two configs below
        // share the on-size distribution but consume different numbers of
        // off draws (exponential vs constant-zero gaps); with one shared
        // sequential stream the byte sizes would diverge from flow 1 on.
        let mut gaps = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 500_000.0,
                mean_off_secs: 2.0,
                deterministic: false,
            },
            SeedRng::new(77),
        );
        let mut back_to_back = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 500_000.0,
                mean_off_secs: 0.0,
                deterministic: false,
            },
            SeedRng::new(77),
        );
        for k in 0..50 {
            assert_eq!(
                gaps.next_flow().bytes,
                back_to_back.next_flow().bytes,
                "flow {k} size shifted with the off distribution"
            );
        }
    }

    #[test]
    fn bytes_always_at_least_one() {
        let mut src = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 1.0,
                mean_off_secs: 0.001,
                deterministic: false,
            },
            SeedRng::new(4),
        );
        for _ in 0..1000 {
            assert!(src.next_flow().bytes >= 1);
        }
    }
}
