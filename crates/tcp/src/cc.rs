//! The congestion-control interface.
//!
//! A [`CongestionControl`] owns the sending policy of one connection: a
//! window (in segments) and optionally a pacing gap (Remy-style schemes
//! control both). The transport machinery in [`crate::sender`] feeds it
//! acknowledgment, loss, and timeout events and obeys the resulting
//! window/pacing; retransmission logic itself is transport business and
//! stays out of this trait.
//!
//! [`AckEvent::shared_util`] is Phi's entry point: when a session hook
//! supplies a shared bottleneck-utilization estimate (from the context
//! server, or from the ideal oracle), it rides along with every ACK so
//! that context-aware controllers like Remy-Phi can react to it.

use phi_sim::time::{Dur, Time};

/// Everything a controller may want to know about an arriving ACK.
#[derive(Debug, Clone)]
pub struct AckEvent {
    /// Current simulated time.
    pub now: Time,
    /// RTT sample for the acked segment, if one was measurable
    /// (Karn's rule: none for retransmitted segments).
    pub rtt: Option<Dur>,
    /// Smallest RTT observed on this connection so far.
    pub min_rtt: Option<Dur>,
    /// Segments newly acknowledged cumulatively by this ACK.
    pub newly_acked: u64,
    /// Time the acked segment was sent (echoed by the receiver).
    pub sent_at: Time,
    /// Shared bottleneck utilization from Phi, when available, in [0, 1].
    pub shared_util: Option<f64>,
    /// True when the ACK carried an ECN Echo: the receiver saw a
    /// Congestion-Experienced mark on the acked segment. Always false
    /// unless the path's switches mark and the controller opted in via
    /// [`CongestionControl::ecn_capable`].
    pub ece: bool,
}

/// A loss detected via duplicate ACKs (entry into fast recovery).
#[derive(Debug, Clone, Copy)]
pub struct LossEvent {
    /// Current simulated time.
    pub now: Time,
}

/// The sending policy of one connection.
pub trait CongestionControl {
    /// A fresh connection is starting at `now`. Controllers reset all
    /// transient state here (each on-period is a fresh connection, §2.2.1).
    fn on_flow_start(&mut self, now: Time);

    /// Current congestion window, in segments (≥ 1).
    fn window(&self) -> f64;

    /// Current pacing gap between sends, if the scheme paces.
    /// `None` means pure window-based clocking.
    fn intersend(&self) -> Option<Dur> {
        None
    }

    /// An ACK advanced the cumulative acknowledgment.
    fn on_ack(&mut self, ev: &AckEvent);

    /// Packet loss inferred from duplicate ACKs; called once per recovery
    /// episode (at most one window reduction per round trip).
    fn on_loss(&mut self, ev: &LossEvent);

    /// The retransmission timer fired.
    fn on_rto(&mut self, now: Time);

    /// Whether the sender should mark outgoing segments ECN-Capable
    /// Transport (ECT), inviting switches to mark instead of drop.
    /// Default false; DCTCP overrides to true.
    fn ecn_capable(&self) -> bool {
        false
    }

    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;
}

/// A fixed-window controller, useful for tests and for generating
/// deterministic load (it never reacts to anything).
#[derive(Debug, Clone)]
pub struct FixedWindow {
    window: f64,
}

impl FixedWindow {
    /// A controller that always reports `window` segments.
    pub fn new(window: f64) -> Self {
        assert!(window >= 1.0, "window must be at least one segment");
        FixedWindow { window }
    }
}

impl CongestionControl for FixedWindow {
    fn on_flow_start(&mut self, _now: Time) {}
    fn window(&self) -> f64 {
        self.window
    }
    fn on_ack(&mut self, _ev: &AckEvent) {}
    fn on_loss(&mut self, _ev: &LossEvent) {}
    fn on_rto(&mut self, _now: Time) {}
    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_never_moves() {
        let mut cc = FixedWindow::new(10.0);
        cc.on_flow_start(Time::ZERO);
        assert_eq!(cc.window(), 10.0);
        cc.on_ack(&AckEvent {
            now: Time::from_secs(1),
            rtt: Some(Dur::from_millis(100)),
            min_rtt: Some(Dur::from_millis(100)),
            newly_acked: 5,
            sent_at: Time::ZERO,
            shared_util: None,
            ece: false,
        });
        cc.on_loss(&LossEvent {
            now: Time::from_secs(2),
        });
        cc.on_rto(Time::from_secs(3));
        assert_eq!(cc.window(), 10.0);
        assert_eq!(cc.intersend(), None);
        assert_eq!(cc.name(), "fixed");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn fixed_window_rejects_tiny() {
        FixedWindow::new(0.5);
    }
}
