//! DCTCP (Data Center TCP, SIGCOMM '10) congestion control.
//!
//! DCTCP turns the *extent* of congestion into a proportional window
//! cut. Switches mark ECN-capable packets whose queue exceeds a step
//! threshold `K`; the receiver echoes the marks; the sender maintains
//!
//! ```text
//! α ← (1 − g)·α + g·F
//! ```
//!
//! where `F` is the fraction of acknowledged segments marked over the
//! last observation window (≈ one RTT), and cuts
//!
//! ```text
//! cwnd ← cwnd · (1 − α/2)
//! ```
//!
//! once per window in which any mark arrived. A fully congested path
//! (`α = 1`) halves like Reno; a lightly congested one shaves a few
//! percent — which is what keeps incast fan-ins at high goodput with
//! tiny queues while Cubic/NewReno saw-tooth into shared-buffer
//! collapse. Loss handling (dup-ACK and RTO) stays NewReno-like:
//! marks are the common signal, loss the last resort.

use phi_sim::time::{Dur, Time};

use crate::cc::{AckEvent, CongestionControl, LossEvent};

/// DCTCP parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DctcpParams {
    /// Initial congestion window, segments.
    pub init_window: f64,
    /// Initial slow-start threshold, segments.
    pub init_ssthresh: f64,
    /// EWMA gain `g` for the marked-fraction estimate (paper value 1/16).
    pub g: f64,
}

impl Default for DctcpParams {
    fn default() -> Self {
        DctcpParams {
            init_window: 2.0,
            init_ssthresh: 65_536.0,
            g: 0.0625,
        }
    }
}

/// The DCTCP controller.
#[derive(Debug, Clone)]
pub struct Dctcp {
    params: DctcpParams,
    cwnd: f64,
    ssthresh: f64,
    /// EWMA of the marked fraction.
    alpha: f64,
    /// Segments acked in the current observation window.
    acked: u64,
    /// Of those, segments whose ACK carried an ECN Echo.
    marked: u64,
    /// When the current observation window closes.
    window_end: Time,
    losses: u64,
}

/// Observation-window length when no RTT sample exists yet.
const FALLBACK_WINDOW: Dur = Dur::from_millis(10);

impl Dctcp {
    /// A DCTCP controller with the given parameters.
    pub fn new(params: DctcpParams) -> Self {
        assert!(params.init_window >= 1.0);
        assert!(params.g > 0.0 && params.g <= 1.0, "g must be in (0, 1]");
        Dctcp {
            params,
            cwnd: params.init_window,
            ssthresh: params.init_ssthresh,
            alpha: 0.0,
            acked: 0,
            marked: 0,
            window_end: Time::ZERO,
            losses: 0,
        }
    }

    /// Current marked-fraction estimate α ∈ [0, 1].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Loss events (dup-ACK episodes and RTOs) on the current flow.
    pub fn loss_events(&self) -> u64 {
        self.losses
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Close the observation window: fold the marked fraction into α and
    /// apply at most one proportional decrease per window.
    fn roll_window(&mut self, ev: &AckEvent) {
        if self.acked > 0 {
            let f = self.marked as f64 / self.acked as f64;
            self.alpha = (1.0 - self.params.g) * self.alpha + self.params.g * f;
            if self.marked > 0 {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(2.0);
                self.ssthresh = self.cwnd;
            }
        }
        self.acked = 0;
        self.marked = 0;
        let span = ev.rtt.or(ev.min_rtt).unwrap_or(FALLBACK_WINDOW);
        self.window_end = ev.now + span;
    }
}

impl CongestionControl for Dctcp {
    fn on_flow_start(&mut self, _now: Time) {
        let p = self.params;
        *self = Dctcp::new(p);
    }

    fn window(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.acked += ev.newly_acked;
        if ev.ece {
            self.marked += ev.newly_acked;
            // A mark ends slow start immediately: queues are already at
            // the threshold, growing exponentially past it defeats the
            // point of early signalling.
            if self.in_slow_start() {
                self.ssthresh = self.cwnd;
            }
        } else if self.in_slow_start() {
            self.cwnd = (self.cwnd + ev.newly_acked as f64).min(self.ssthresh.max(self.cwnd));
        } else {
            // Reno-style additive increase between marks.
            self.cwnd += ev.newly_acked as f64 / self.cwnd;
        }
        if ev.now >= self.window_end {
            self.roll_window(ev);
        }
    }

    fn on_loss(&mut self, _ev: &LossEvent) {
        self.losses += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now: Time) {
        self.losses += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    fn ecn_capable(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, newly: u64, ece: bool) -> AckEvent {
        AckEvent {
            now: Time::from_millis(now_ms),
            rtt: Some(Dur::from_millis(1)),
            min_rtt: Some(Dur::from_millis(1)),
            newly_acked: newly,
            sent_at: Time::ZERO,
            shared_util: None,
            ece,
        }
    }

    #[test]
    fn is_ecn_capable_and_named() {
        let d = Dctcp::new(DctcpParams::default());
        assert!(d.ecn_capable());
        assert_eq!(d.name(), "dctcp");
    }

    #[test]
    fn unmarked_acks_grow_like_reno() {
        let mut d = Dctcp::new(DctcpParams {
            init_ssthresh: 8.0,
            ..DctcpParams::default()
        });
        d.on_flow_start(Time::ZERO);
        d.on_ack(&ack(2, 2, false)); // slow start: 2 -> 4
        d.on_ack(&ack(4, 4, false)); // 4 -> 8, leaves slow start
        assert!(!d.in_slow_start());
        let w = d.window();
        d.on_ack(&ack(6, 8, false)); // one window acked: +1
        assert!((d.window() - (w + 1.0)).abs() < 1e-9);
        assert_eq!(d.alpha(), 0.0);
    }

    #[test]
    fn fully_marked_window_converges_toward_halving() {
        let mut d = Dctcp::new(DctcpParams {
            init_ssthresh: 4.0, // leave slow start quickly
            ..DctcpParams::default()
        });
        d.on_flow_start(Time::ZERO);
        // Every ACK marked: F = 1 each window, so α → 1 and the per-
        // window cut approaches 1/2.
        for i in 1..=400u64 {
            d.on_ack(&ack(i * 2, 4, true));
        }
        assert!(d.alpha() > 0.9, "alpha {} should approach 1", d.alpha());
        assert_eq!(d.marked, d.acked, "every acked segment was marked");
    }

    #[test]
    fn light_marking_cuts_gently() {
        let heavy = run_marked(8, 8); // every segment marked
        let light = run_marked(8, 1); // 1-in-8 marked
        assert!(
            light > heavy,
            "light marking ({light}) must retain more window than heavy ({heavy})"
        );
    }

    fn run_marked(per_window: u64, marked: u64) -> f64 {
        let mut d = Dctcp::new(DctcpParams {
            init_ssthresh: 16.0,
            ..DctcpParams::default()
        });
        d.on_flow_start(Time::ZERO);
        for i in 1..=200u64 {
            for j in 0..per_window {
                d.on_ack(&ack(i * 2, 1, j < marked));
            }
        }
        d.window()
    }

    #[test]
    fn loss_still_halves_and_rto_resets() {
        let mut d = Dctcp::new(DctcpParams::default());
        d.on_flow_start(Time::ZERO);
        for i in 1..=4 {
            d.on_ack(&ack(i, 4, false));
        }
        let w = d.window();
        d.on_loss(&LossEvent { now: Time::ZERO });
        assert!((d.window() - (w / 2.0).max(2.0)).abs() < 1e-9);
        d.on_rto(Time::ZERO);
        assert_eq!(d.window(), 1.0);
        assert_eq!(d.loss_events(), 2);
    }

    #[test]
    fn flow_start_resets_alpha() {
        let mut d = Dctcp::new(DctcpParams::default());
        d.on_flow_start(Time::ZERO);
        for i in 1..=50 {
            d.on_ack(&ack(i * 2, 2, true));
        }
        assert!(d.alpha() > 0.0);
        d.on_flow_start(Time::from_secs(1));
        assert_eq!(d.alpha(), 0.0);
        assert_eq!((d.acked, d.marked), (0, 0));
    }
}
