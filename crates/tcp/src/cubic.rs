//! TCP Cubic (Ha, Rhee & Xu; RFC 8312), with the three knobs the paper
//! tunes from shared knowledge (Table 1/Table 2):
//!
//! * `init_window` — ns-2's `windowInit_`, the initial congestion window;
//! * `init_ssthresh` — ns-2's `initial_ssthresh`, where slow start ends
//!   (RFC 5681 says "arbitrarily high"; the ns-2 default is 65 K segments);
//! * `beta` — the paper's β, where **(1 − β) is the multiplicative
//!   decrease factor** applied on loss (ns-2 default β = 0.2, i.e. the
//!   window shrinks to 80 %). Note this is the complement of RFC 8312's
//!   `beta_cubic`, which *is* the decrease factor.
//!
//! The growth law is the standard cubic function
//! `W(t) = C·(t − K)³ + W_max` with the TCP-friendly region and optional
//! fast convergence.

use phi_sim::time::{Dur, Time};
use serde::{Deserialize, Serialize};

use crate::cc::{AckEvent, CongestionControl, LossEvent};

/// Tunable Cubic parameters (the subject of the paper's §2.2 experiments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CubicParams {
    /// Initial congestion window, segments (`windowInit_`).
    pub init_window: f64,
    /// Initial slow-start threshold, segments (`initial_ssthresh`).
    pub init_ssthresh: f64,
    /// β: the window shrinks to `(1 − β)·cwnd` on loss.
    pub beta: f64,
    /// Cubic scaling constant C (segments/s³). RFC 8312 value 0.4.
    pub c: f64,
    /// Enable fast convergence (release bandwidth to newcomers faster).
    pub fast_convergence: bool,
    /// Enable the TCP-friendly (AIMD-tracking) region.
    pub tcp_friendly: bool,
    /// Pace new data at ~1.25·cwnd/srtt instead of sending ack-clocked
    /// bursts. A small window emitted as one back-to-back burst into a
    /// near-full drop-tail queue tends to lose *every* segment at once
    /// (no duplicate ACKs, only an RTO can recover); spreading the
    /// window over the RTT lets each segment see an independent queue
    /// state. Off by default to preserve classic ack-clocked behaviour.
    pub pace: bool,
}

impl Default for CubicParams {
    /// The ns-2 defaults of Table 1: `initial_ssthresh` = 65 536 segments,
    /// `windowInit_` = 2 segments, β = 0.2.
    fn default() -> Self {
        CubicParams {
            init_window: 2.0,
            init_ssthresh: 65_536.0,
            beta: 0.2,
            c: 0.4,
            fast_convergence: true,
            tcp_friendly: true,
            pace: false,
        }
    }
}

impl CubicParams {
    /// Defaults with the three tuned knobs overridden — the shape Phi's
    /// policy table hands out.
    pub fn tuned(init_window: f64, init_ssthresh: f64, beta: f64) -> Self {
        let p = CubicParams {
            init_window,
            init_ssthresh,
            beta,
            ..CubicParams::default()
        };
        p.validate();
        p
    }

    /// The same parameters with pacing enabled.
    pub fn paced(mut self) -> Self {
        self.pace = true;
        self
    }

    fn validate(&self) {
        assert!(self.init_window >= 1.0, "init_window must be >= 1 segment");
        assert!(
            self.init_ssthresh >= 2.0,
            "init_ssthresh must be >= 2 segments"
        );
        assert!(
            self.beta > 0.0 && self.beta < 1.0,
            "beta must be in (0, 1); got {}",
            self.beta
        );
        assert!(self.c > 0.0, "C must be positive");
    }
}

/// TCP Cubic congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    params: CubicParams,
    cwnd: f64,
    ssthresh: f64,
    /// W_max: window size at the last loss.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<Time>,
    /// K: time for the cubic to return to W_max, seconds.
    k: f64,
    /// Window at the start of the epoch (origin of the cubic curve).
    w_epoch: f64,
    /// AIMD estimate for the TCP-friendly region, segments.
    w_est: f64,
    /// Smoothed RTT estimate for the friendly region, seconds.
    srtt: f64,
    /// Count of loss events (for reporting).
    losses: u64,
}

impl Cubic {
    /// A Cubic controller with the given parameters.
    pub fn new(params: CubicParams) -> Self {
        params.validate();
        Cubic {
            params,
            cwnd: params.init_window,
            ssthresh: params.init_ssthresh,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_epoch: 0.0,
            w_est: 0.0,
            srtt: 0.1,
            losses: 0,
        }
    }

    /// The parameters this controller runs with.
    pub fn params(&self) -> &CubicParams {
        &self.params
    }

    /// Current slow-start threshold, segments.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Loss events seen on the current flow.
    pub fn loss_events(&self) -> u64 {
        self.losses
    }

    fn enter_epoch(&mut self, now: Time) {
        self.epoch_start = Some(now);
        if self.cwnd < self.w_max {
            // K: time to grow back to w_max from the current window.
            self.k = ((self.w_max - self.cwnd) / self.params.c).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = self.cwnd;
        }
        self.w_epoch = self.cwnd;
        self.w_est = self.cwnd;
    }

    fn cubic_target(&self, t: f64) -> f64 {
        self.params.c * (t - self.k).powi(3) + self.w_max
    }

    fn reduce(&mut self, _now: Time) {
        self.losses += 1;
        let decrease = 1.0 - self.params.beta;
        if self.params.fast_convergence && self.cwnd < self.w_max {
            // The flow is shrinking: release the slot faster.
            self.w_max = self.cwnd * (2.0 - self.params.beta) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.ssthresh = (self.cwnd * decrease).max(2.0);
        self.cwnd = self.ssthresh;
        self.epoch_start = None;
    }
}

impl CongestionControl for Cubic {
    fn on_flow_start(&mut self, _now: Time) {
        let p = self.params;
        *self = Cubic::new(p);
    }

    fn window(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    fn intersend(&self) -> Option<Dur> {
        if !self.params.pace {
            return None;
        }
        // Linux-style pacing gains: 2x in slow start (the window doubles
        // per RTT, so a slower pace would become the limiting clock) and
        // 1.25x in congestion avoidance.
        let gain = if self.in_slow_start() { 2.0 } else { 1.25 };
        let rate = gain * self.window() / self.srtt.max(1e-6);
        Some(Dur::from_secs_f64(1.0 / rate))
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if let Some(rtt) = ev.rtt {
            let s = rtt.as_secs_f64();
            self.srtt = 0.875 * self.srtt + 0.125 * s;
        }
        let acked = ev.newly_acked as f64;
        if self.in_slow_start() {
            // Slow start: one segment per acked segment, up to ssthresh.
            self.cwnd = (self.cwnd + acked).min(self.ssthresh.max(self.cwnd));
            if !self.in_slow_start() {
                self.epoch_start = None; // transition to CA next ack
            }
            return;
        }
        if self.epoch_start.is_none() {
            self.enter_epoch(ev.now);
        }
        let t = (ev.now - self.epoch_start.expect("set above")).as_secs_f64();
        // Target one RTT ahead, per RFC 8312 §4.1.
        let target = self.cubic_target(t + self.srtt);
        if target > self.cwnd {
            // Approach the target over roughly one window of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd * acked;
        } else {
            // Max-probing plateau: crawl forward.
            self.cwnd += 0.01 * acked / self.cwnd;
        }
        if self.params.tcp_friendly {
            // AIMD estimate W_est with equivalent loss response: grows by
            // 3β/(2−β) per RTT (RFC 8312 §4.2 with β = 1 − beta_cubic).
            let aimd_gain = 3.0 * self.params.beta / (2.0 - self.params.beta);
            self.w_est += aimd_gain * acked / self.cwnd;
            if self.w_est > self.cwnd {
                self.cwnd = self.w_est;
            }
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        self.reduce(ev.now);
    }

    fn on_rto(&mut self, _now: Time) {
        self.losses += 1;
        let decrease = 1.0 - self.params.beta;
        self.ssthresh = (self.cwnd * decrease).max(2.0);
        self.w_max = self.cwnd;
        // RFC 5681: the loss window is one segment.
        self.cwnd = 1.0;
        self.epoch_start = None;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_sim::time::Dur;

    fn ack(now_ms: u64, newly: u64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(now_ms),
            rtt: Some(Dur::from_millis(100)),
            min_rtt: Some(Dur::from_millis(100)),
            newly_acked: newly,
            sent_at: Time::ZERO,
            shared_util: None,
            ece: false,
        }
    }

    #[test]
    fn defaults_match_table1() {
        let p = CubicParams::default();
        assert_eq!(p.init_window, 2.0);
        assert_eq!(p.init_ssthresh, 65_536.0);
        assert_eq!(p.beta, 0.2);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Cubic::new(CubicParams::default());
        c.on_flow_start(Time::ZERO);
        assert_eq!(c.window(), 2.0);
        // Acking a full window in slow start doubles it.
        c.on_ack(&ack(100, 2));
        assert_eq!(c.window(), 4.0);
        c.on_ack(&ack(200, 4));
        assert_eq!(c.window(), 8.0);
        assert!(c.in_slow_start());
    }

    #[test]
    fn small_ssthresh_caps_slow_start() {
        let mut c = Cubic::new(CubicParams::tuned(2.0, 8.0, 0.2));
        c.on_flow_start(Time::ZERO);
        c.on_ack(&ack(100, 2)); // 4
        c.on_ack(&ack(200, 4)); // 8 = ssthresh: slow start over
        assert_eq!(c.window(), 8.0);
        assert!(!c.in_slow_start());
        // Further acks use cubic growth, far slower than doubling.
        c.on_ack(&ack(300, 8));
        assert!(c.window() < 16.0);
        assert!(c.window() >= 8.0);
    }

    #[test]
    fn loss_multiplies_window_by_one_minus_beta() {
        let mut c = Cubic::new(CubicParams::tuned(2.0, 16.0, 0.3));
        c.on_flow_start(Time::ZERO);
        c.on_ack(&ack(100, 2));
        c.on_ack(&ack(200, 4));
        c.on_ack(&ack(300, 8));
        let before = c.window();
        c.on_loss(&LossEvent {
            now: Time::from_millis(400),
        });
        let after = c.window();
        assert!((after - before * 0.7).abs() < 1e-9, "{before} -> {after}");
        assert_eq!(c.loss_events(), 1);
    }

    #[test]
    fn larger_beta_backs_off_harder() {
        let run = |beta: f64| {
            let mut c = Cubic::new(CubicParams::tuned(2.0, 64.0, beta));
            c.on_flow_start(Time::ZERO);
            for i in 1..=6 {
                c.on_ack(&ack(i * 100, 1 << i.min(5)));
            }
            c.on_loss(&LossEvent {
                now: Time::from_secs(1),
            });
            c.window()
        };
        assert!(run(0.8) < run(0.2));
    }

    #[test]
    fn cubic_growth_is_concave_then_convex() {
        // After a loss, growth should decelerate approaching w_max (concave)
        // and accelerate past it (convex).
        let mut c = Cubic::new(CubicParams {
            tcp_friendly: false,
            ..CubicParams::tuned(2.0, 4.0, 0.3)
        });
        c.on_flow_start(Time::ZERO);
        // Leave slow start quickly, grow a while, then lose.
        c.on_ack(&ack(100, 2));
        for i in 2..40 {
            c.on_ack(&ack(i * 100, 4));
        }
        c.on_loss(&LossEvent {
            now: Time::from_secs(4),
        });
        let w_max = c.w_max;
        let w_loss = c.window();
        // Sample the window every 100 ms for 8 s after the loss.
        let mut samples = Vec::new();
        for i in 0..80u64 {
            c.on_ack(&ack(4_000 + (i + 1) * 100, 4));
            samples.push(c.window());
        }
        // Concave approach: growth over the first second beats growth over
        // the second-to-last second *below* w_max.
        let below: Vec<usize> = (0..80).filter(|&i| samples[i] < w_max).collect();
        assert!(below.len() > 20, "should spend a while below w_max");
        let last_below = *below.last().unwrap();
        let early_growth = samples[9] - samples[0];
        let late_growth = samples[last_below] - samples[last_below - 9];
        assert!(
            early_growth > late_growth,
            "concave region: early {early_growth} vs late {late_growth}"
        );
        // Convex region: once past w_max, growth accelerates again.
        if last_below + 20 < samples.len() {
            let just_after = samples[last_below + 10] - samples[last_below + 1];
            let further = samples[last_below + 19] - samples[last_below + 10];
            assert!(
                further > just_after,
                "convex region: {further} vs {just_after}"
            );
        }
        // The window eventually exceeds its post-loss value substantially.
        assert!(samples.last().unwrap() > &w_loss);
    }

    #[test]
    fn rto_collapses_to_one_segment() {
        let mut c = Cubic::new(CubicParams::default());
        c.on_flow_start(Time::ZERO);
        c.on_ack(&ack(100, 2));
        c.on_ack(&ack(200, 4));
        c.on_rto(Time::from_millis(300));
        assert_eq!(c.window(), 1.0);
        assert!((c.ssthresh() - 8.0 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn flow_start_resets_state() {
        let mut c = Cubic::new(CubicParams::tuned(4.0, 32.0, 0.2));
        c.on_flow_start(Time::ZERO);
        c.on_ack(&ack(100, 4));
        c.on_loss(&LossEvent {
            now: Time::from_millis(200),
        });
        c.on_flow_start(Time::from_secs(10));
        assert_eq!(c.window(), 4.0);
        assert_eq!(c.ssthresh(), 32.0);
        assert_eq!(c.loss_events(), 0);
        assert!(c.in_slow_start());
    }

    #[test]
    fn fast_convergence_lowers_wmax_when_shrinking() {
        let mk = |fast| {
            let mut c = Cubic::new(CubicParams {
                fast_convergence: fast,
                tcp_friendly: false,
                ..CubicParams::tuned(2.0, 4.0, 0.2)
            });
            c.on_flow_start(Time::ZERO);
            c.on_ack(&ack(100, 2));
            c.on_ack(&ack(200, 2)); // leaves slow start at 4
                                    // First loss establishes w_max = 4.
            c.on_loss(&LossEvent {
                now: Time::from_millis(300),
            });
            // Second loss while still below the old w_max.
            c.on_loss(&LossEvent {
                now: Time::from_millis(400),
            });
            c.w_max
        };
        assert!(mk(true) < mk(false));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn params_validated() {
        Cubic::new(CubicParams::tuned(2.0, 64.0, 1.5));
    }
}
