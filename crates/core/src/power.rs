//! The network power metric and the paper's loss-extended variant.
//!
//! Power (Giessler et al., via Kleinrock) is `P = r / d` — throughput over
//! delay. The paper extends it with the packet loss rate `l`, giving
//! `P_l = r·(1 − l) / d`, and optimizes `P_l` for Cubic and `log(P)` for
//! Remy (matching the Remy paper's objective).

use phi_tcp::report::RunMetrics;

/// Which objective an experiment optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `P = r / d` — classic network power.
    Power,
    /// `P_l = r (1 − l) / d` — the paper's loss-extended power (Cubic runs).
    PowerLoss,
    /// `log r − log d` — Remy's objective, `log(P)`.
    LogPower,
}

/// Classic network power `r / d`, with `r` in Mbit/s and `d` in ms.
pub fn power(throughput_mbps: f64, delay_ms: f64) -> f64 {
    if delay_ms <= 0.0 {
        return 0.0;
    }
    throughput_mbps / delay_ms
}

/// The paper's loss-extended power `r (1 − l) / d`.
pub fn power_loss(throughput_mbps: f64, delay_ms: f64, loss_rate: f64) -> f64 {
    power(throughput_mbps, delay_ms) * (1.0 - loss_rate.clamp(0.0, 1.0))
}

/// Remy's objective `log(P) = log r − log d` (natural log; zero-guarded).
pub fn log_power(throughput_mbps: f64, delay_ms: f64) -> f64 {
    const FLOOR: f64 = 1e-9;
    throughput_mbps.max(FLOOR).ln() - delay_ms.max(FLOOR).ln()
}

/// The delay a run's power metric divides by: the mean RTT experienced by
/// flows when RTT samples exist, else base RTT plus bottleneck queueing.
pub fn effective_delay_ms(m: &RunMetrics, base_rtt_ms: f64) -> f64 {
    if m.mean_rtt_ms > 0.0 {
        m.mean_rtt_ms
    } else {
        base_rtt_ms + m.queueing_delay_ms
    }
}

/// Score a run under the chosen objective.
pub fn score(objective: Objective, m: &RunMetrics, base_rtt_ms: f64) -> f64 {
    let d = effective_delay_ms(m, base_rtt_ms);
    match objective {
        Objective::Power => power(m.throughput_mbps, d),
        Objective::PowerLoss => power_loss(m.throughput_mbps, d, m.loss_rate),
        Objective::LogPower => log_power(m.throughput_mbps, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(tput: f64, rtt: f64, queue: f64, loss: f64) -> RunMetrics {
        RunMetrics {
            throughput_mbps: tput,
            queueing_delay_ms: queue,
            loss_rate: loss,
            mean_rtt_ms: rtt,
            utilization: 0.5,
            flows_completed: 10,
            flows_aborted: 0,
            bytes: 1,
        }
    }

    #[test]
    fn power_basics() {
        assert_eq!(power(10.0, 100.0), 0.1);
        assert_eq!(power(10.0, 0.0), 0.0);
    }

    #[test]
    fn loss_discounts_power() {
        let no_loss = power_loss(10.0, 100.0, 0.0);
        let lossy = power_loss(10.0, 100.0, 0.04);
        assert!((no_loss - 0.1).abs() < 1e-12);
        assert!((lossy - 0.096).abs() < 1e-12);
        // Loss clamped to [0, 1].
        assert_eq!(power_loss(10.0, 100.0, 2.0), 0.0);
    }

    #[test]
    fn log_power_is_log_of_power() {
        let lp = log_power(8.0, 160.0);
        assert!((lp - (8.0f64.ln() - 160.0f64.ln())).abs() < 1e-12);
        // Monotone: higher throughput better, higher delay worse.
        assert!(log_power(9.0, 160.0) > lp);
        assert!(log_power(8.0, 170.0) < lp);
    }

    #[test]
    fn effective_delay_prefers_measured_rtt() {
        let m = metrics(5.0, 170.0, 20.0, 0.0);
        assert_eq!(effective_delay_ms(&m, 150.0), 170.0);
        let m = metrics(5.0, 0.0, 20.0, 0.0);
        assert_eq!(effective_delay_ms(&m, 150.0), 170.0);
    }

    #[test]
    fn score_dispatches() {
        let m = metrics(10.0, 200.0, 0.0, 0.5);
        assert!((score(Objective::Power, &m, 150.0) - 0.05).abs() < 1e-12);
        assert!((score(Objective::PowerLoss, &m, 150.0) - 0.025).abs() < 1e-12);
        assert!(
            (score(Objective::LogPower, &m, 150.0) - (10.0f64.ln() - 200.0f64.ln())).abs() < 1e-12
        );
    }

    #[test]
    fn better_network_state_scores_higher() {
        // Same throughput, less queueing => higher P_l.
        let good = metrics(8.0, 155.0, 5.0, 0.0001);
        let bad = metrics(8.0, 190.0, 40.0, 0.039);
        assert!(
            score(Objective::PowerLoss, &good, 150.0) > score(Objective::PowerLoss, &bad, 150.0)
        );
    }
}
