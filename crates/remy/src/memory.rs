//! The controller's "memory": the congestion signals Remy conditions on.
//!
//! Following *TCP ex Machina* (Winstein & Balakrishnan, SIGCOMM '13), a
//! Remy sender summarizes its observations into a small feature vector,
//! updated on every ACK:
//!
//! * `ack_ewma` — EWMA of the interarrival time between ACKs,
//! * `send_ewma` — EWMA of the interarrival time between the *send* times
//!   of the packets being acknowledged (echoed timestamps),
//! * `rtt_ratio` — the latest RTT over the connection minimum.
//!
//! Phi's extension (§2.2.4 of the five-computers paper) adds a fourth
//! dimension: the **shared bottleneck utilization** `u`, delivered either
//! live (ideal) or frozen at connection start (practical). A plain Remy
//! sender has no feed and sees `u = 0`, so trained rules that condition on
//! `u` simply never fire for it.

use phi_sim::time::Time;
use phi_tcp::cc::AckEvent;

/// Number of memory dimensions (ack EWMA, send EWMA, RTT ratio, shared u).
pub const DIMS: usize = 4;

/// Normalization bounds for each dimension (raw value mapped to [0, 1]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBounds {
    /// Max ACK interarrival considered, ms.
    pub ack_ewma_ms: f64,
    /// Max send interarrival considered, ms.
    pub send_ewma_ms: f64,
    /// Max RTT ratio considered.
    pub rtt_ratio: f64,
}

impl Default for MemoryBounds {
    fn default() -> Self {
        MemoryBounds {
            ack_ewma_ms: 400.0,
            send_ewma_ms: 400.0,
            rtt_ratio: 4.0,
        }
    }
}

/// The feature vector, in raw units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Memory {
    /// EWMA of ACK interarrival, ms.
    pub ack_ewma_ms: f64,
    /// EWMA of acked-send interarrival, ms.
    pub send_ewma_ms: f64,
    /// Latest RTT / min RTT.
    pub rtt_ratio: f64,
    /// Shared bottleneck utilization in [0, 1] (0 without a feed).
    pub util: f64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            ack_ewma_ms: 0.0,
            send_ewma_ms: 0.0,
            rtt_ratio: 1.0,
            util: 0.0,
        }
    }
}

impl Memory {
    /// Normalize to the unit hypercube under `bounds` (clamped).
    pub fn normalized(&self, bounds: &MemoryBounds) -> [f64; DIMS] {
        [
            (self.ack_ewma_ms / bounds.ack_ewma_ms).clamp(0.0, 1.0),
            (self.send_ewma_ms / bounds.send_ewma_ms).clamp(0.0, 1.0),
            // rtt_ratio starts at 1; map [1, bound] → [0, 1].
            ((self.rtt_ratio - 1.0) / (bounds.rtt_ratio - 1.0)).clamp(0.0, 1.0),
            self.util.clamp(0.0, 1.0),
        ]
    }
}

/// Tracks memory across the ACK stream of one connection.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    memory: Memory,
    last_ack_at: Option<Time>,
    last_sent_at: Option<Time>,
    alpha: f64,
}

impl MemoryTracker {
    /// A fresh tracker (EWMA gain 1/8, as in Remy).
    pub fn new() -> Self {
        MemoryTracker {
            memory: Memory::default(),
            last_ack_at: None,
            last_sent_at: None,
            alpha: 0.125,
        }
    }

    /// Current memory.
    pub fn memory(&self) -> Memory {
        self.memory
    }

    /// Reset for a new connection.
    pub fn reset(&mut self) {
        *self = MemoryTracker::new();
    }

    /// Fold in one ACK.
    pub fn on_ack(&mut self, ev: &AckEvent) {
        if let Some(prev) = self.last_ack_at {
            let gap = ev.now.saturating_since(prev).as_millis_f64();
            self.memory.ack_ewma_ms += self.alpha * (gap - self.memory.ack_ewma_ms);
        }
        self.last_ack_at = Some(ev.now);

        if ev.sent_at > Time::ZERO {
            if let Some(prev) = self.last_sent_at {
                let gap = ev.sent_at.saturating_since(prev).as_millis_f64();
                self.memory.send_ewma_ms += self.alpha * (gap - self.memory.send_ewma_ms);
            }
            self.last_sent_at = Some(ev.sent_at);
        }

        if let (Some(rtt), Some(min)) = (ev.rtt, ev.min_rtt) {
            if min.as_nanos() > 0 {
                self.memory.rtt_ratio = rtt.as_millis_f64() / min.as_millis_f64();
            }
        }

        if let Some(u) = ev.shared_util {
            self.memory.util = u.clamp(0.0, 1.0);
        }
    }
}

impl Default for MemoryTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_sim::time::Dur;

    fn ack(now_ms: u64, sent_ms: u64, rtt_ms: u64, min_ms: u64, util: Option<f64>) -> AckEvent {
        AckEvent {
            now: Time::from_millis(now_ms),
            rtt: Some(Dur::from_millis(rtt_ms)),
            min_rtt: Some(Dur::from_millis(min_ms)),
            newly_acked: 1,
            sent_at: Time::from_millis(sent_ms),
            shared_util: util,
            ece: false,
        }
    }

    #[test]
    fn ewmas_track_interarrivals() {
        let mut t = MemoryTracker::new();
        t.on_ack(&ack(100, 10, 90, 90, None));
        // First ack: no interarrival yet.
        assert_eq!(t.memory().ack_ewma_ms, 0.0);
        t.on_ack(&ack(116, 26, 90, 90, None));
        // Gap 16 ms, alpha 1/8: ewma = 2.
        assert!((t.memory().ack_ewma_ms - 2.0).abs() < 1e-9);
        assert!((t.memory().send_ewma_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_ratio_updates() {
        let mut t = MemoryTracker::new();
        t.on_ack(&ack(100, 10, 180, 150, None));
        assert!((t.memory().rtt_ratio - 1.2).abs() < 1e-9);
        t.on_ack(&ack(200, 110, 150, 150, None));
        assert!((t.memory().rtt_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn util_only_moves_with_a_feed() {
        let mut t = MemoryTracker::new();
        t.on_ack(&ack(100, 10, 150, 150, None));
        assert_eq!(t.memory().util, 0.0);
        t.on_ack(&ack(200, 110, 150, 150, Some(0.73)));
        assert!((t.memory().util - 0.73).abs() < 1e-12);
        // Absent feed leaves the last value (frozen).
        t.on_ack(&ack(300, 210, 150, 150, None));
        assert!((t.memory().util - 0.73).abs() < 1e-12);
    }

    #[test]
    fn normalization_clamps_to_unit_cube() {
        let m = Memory {
            ack_ewma_ms: 1000.0, // above the 400 ms bound
            send_ewma_ms: 200.0,
            rtt_ratio: 2.5,
            util: 1.7,
        };
        let n = m.normalized(&MemoryBounds::default());
        assert_eq!(n[0], 1.0);
        assert!((n[1] - 0.5).abs() < 1e-12);
        assert!((n[2] - 0.5).abs() < 1e-12);
        assert_eq!(n[3], 1.0);
        for v in n {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut t = MemoryTracker::new();
        t.on_ack(&ack(100, 10, 180, 150, Some(0.5)));
        t.on_ack(&ack(120, 30, 180, 150, Some(0.5)));
        t.reset();
        let m = t.memory();
        assert_eq!(m.ack_ewma_ms, 0.0);
        assert_eq!(m.rtt_ratio, 1.0);
        assert_eq!(m.util, 0.0);
    }
}
