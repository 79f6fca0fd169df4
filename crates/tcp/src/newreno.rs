//! TCP NewReno (RFC 5681/6582) congestion control — the classic AIMD
//! baseline the related-work section contrasts Cubic against, and a
//! reference point for the TCP-friendliness tests in `phi-core`.

use phi_sim::time::Time;

use crate::cc::{AckEvent, CongestionControl, LossEvent};

/// NewReno parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewRenoParams {
    /// Initial congestion window, segments.
    pub init_window: f64,
    /// Initial slow-start threshold, segments.
    pub init_ssthresh: f64,
    /// Multiplicative-decrease numerator: window shrinks to `decrease`·cwnd
    /// on loss (classic value 0.5).
    pub decrease: f64,
    /// Additive increase per RTT in congestion avoidance, segments
    /// (classic value 1.0). Values > 1 emulate an ensemble of flows
    /// (MulTCP-style weighting, used by `phi-core`'s prioritizer).
    pub increase: f64,
}

impl Default for NewRenoParams {
    fn default() -> Self {
        NewRenoParams {
            init_window: 2.0,
            init_ssthresh: 65_536.0,
            decrease: 0.5,
            increase: 1.0,
        }
    }
}

/// TCP NewReno.
#[derive(Debug, Clone)]
pub struct NewReno {
    params: NewRenoParams,
    cwnd: f64,
    ssthresh: f64,
    losses: u64,
}

impl NewReno {
    /// A NewReno controller with the given parameters.
    pub fn new(params: NewRenoParams) -> Self {
        assert!(params.init_window >= 1.0);
        assert!(params.decrease > 0.0 && params.decrease < 1.0);
        assert!(params.increase > 0.0);
        NewReno {
            params,
            cwnd: params.init_window,
            ssthresh: params.init_ssthresh,
            losses: 0,
        }
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Loss events seen on the current flow.
    pub fn loss_events(&self) -> u64 {
        self.losses
    }
}

impl CongestionControl for NewReno {
    fn on_flow_start(&mut self, _now: Time) {
        let p = self.params;
        *self = NewReno::new(p);
    }

    fn window(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        let acked = ev.newly_acked as f64;
        if self.in_slow_start() {
            self.cwnd = (self.cwnd + acked).min(self.ssthresh.max(self.cwnd));
        } else {
            // `increase` segments per RTT == increase/cwnd per acked segment.
            self.cwnd += self.params.increase * acked / self.cwnd;
        }
    }

    fn on_loss(&mut self, _ev: &LossEvent) {
        self.losses += 1;
        self.ssthresh = (self.cwnd * self.params.decrease).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now: Time) {
        self.losses += 1;
        self.ssthresh = (self.cwnd * self.params.decrease).max(2.0);
        self.cwnd = 1.0;
    }

    fn name(&self) -> &'static str {
        "newreno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_sim::time::Dur;

    fn ack(newly: u64) -> AckEvent {
        AckEvent {
            now: Time::from_millis(100),
            rtt: Some(Dur::from_millis(50)),
            min_rtt: Some(Dur::from_millis(50)),
            newly_acked: newly,
            sent_at: Time::ZERO,
            shared_util: None,
            ece: false,
        }
    }

    #[test]
    fn slow_start_then_linear() {
        let mut r = NewReno::new(NewRenoParams {
            init_ssthresh: 8.0,
            ..NewRenoParams::default()
        });
        r.on_flow_start(Time::ZERO);
        r.on_ack(&ack(2)); // 4
        r.on_ack(&ack(4)); // 8 -> leaves slow start
        assert!(!r.in_slow_start());
        let w = r.window();
        r.on_ack(&ack(8)); // one full window acked: +1 segment
        assert!((r.window() - (w + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn halves_on_loss() {
        let mut r = NewReno::new(NewRenoParams::default());
        r.on_flow_start(Time::ZERO);
        for _ in 0..4 {
            r.on_ack(&ack(4));
        }
        let w = r.window();
        r.on_loss(&LossEvent { now: Time::ZERO });
        assert!((r.window() - w / 2.0).abs() < 1e-9);
        assert_eq!(r.loss_events(), 1);
    }

    #[test]
    fn weighted_increase_is_faster() {
        let grow = |inc: f64| {
            let mut r = NewReno::new(NewRenoParams {
                init_ssthresh: 2.0, // start in congestion avoidance
                increase: inc,
                ..NewRenoParams::default()
            });
            r.on_flow_start(Time::ZERO);
            for _ in 0..100 {
                r.on_ack(&ack(2));
            }
            r.window()
        };
        assert!(grow(4.0) > grow(1.0));
    }

    #[test]
    fn rto_back_to_one() {
        let mut r = NewReno::new(NewRenoParams::default());
        r.on_flow_start(Time::ZERO);
        r.on_ack(&ack(2));
        r.on_rto(Time::ZERO);
        assert_eq!(r.window(), 1.0);
    }
}
