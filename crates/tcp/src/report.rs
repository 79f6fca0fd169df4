//! Per-flow reports and per-run aggregate metrics.
//!
//! The paper's figures plot, per run: aggregate **throughput** computed
//! only over on-times (bits transferred / on-time), bottleneck **queueing
//! delay**, and **packet loss rate**. [`FlowReport`] carries what one
//! connection experienced; [`RunMetrics`] aggregates a whole experiment.

use phi_sim::packet::FlowId;
use phi_sim::stats::OnlineStats;
use phi_sim::time::{Dur, Time};
use serde::Serialize;

/// What one completed connection experienced, as reported by its sender.
/// This is also exactly the record a Phi sender reports to the context
/// server when the connection ends (§2.2.2).
#[derive(Debug, Clone, Serialize)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Application bytes transferred.
    pub bytes: u64,
    /// Segments transferred (excluding retransmissions).
    pub segments: u64,
    /// Connection start (first send).
    pub start: Time,
    /// Connection end (all data acked).
    pub end: Time,
    /// Smallest RTT sample, if any.
    pub min_rtt: Option<Dur>,
    /// Mean RTT over samples, milliseconds.
    pub mean_rtt_ms: f64,
    /// Number of RTT samples taken.
    pub rtt_samples: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Retransmission-timeout episodes.
    pub timeouts: u64,
    /// Fast-recovery episodes (triple-duplicate-ACK losses).
    pub recoveries: u64,
    /// True if the sender gave up on this flow after hitting its
    /// consecutive-RTO cap (the path was unreachable); `bytes` then
    /// reflects what was delivered before the abort.
    pub aborted: bool,
    /// Times the connection resumed making progress after two or more
    /// consecutive RTO backoffs — i.e. the path healed and the sender
    /// restarted from idle instead of aborting.
    pub idle_restarts: u64,
}

impl FlowReport {
    /// On-time of this connection.
    pub fn duration(&self) -> Dur {
        self.end.saturating_since(self.start)
    }

    /// Goodput in bits/s over the connection's on-time.
    pub fn throughput_bps(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / d
        }
    }

    /// Mean queueing delay inferred from RTT inflation over `base_rtt`, ms.
    pub fn rtt_inflation_ms(&self, base_rtt: Dur) -> f64 {
        (self.mean_rtt_ms - base_rtt.as_millis_f64()).max(0.0)
    }
}

/// Aggregate metrics for one experiment run, in the units the paper plots.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunMetrics {
    /// Mean per-connection throughput over on-times, Mbit/s.
    pub throughput_mbps: f64,
    /// Mean queueing delay at the bottleneck, milliseconds.
    pub queueing_delay_ms: f64,
    /// Packet loss rate at the bottleneck, fraction in [0, 1].
    pub loss_rate: f64,
    /// Mean RTT experienced across flows, milliseconds.
    pub mean_rtt_ms: f64,
    /// Bottleneck utilization over the run, fraction in [0, 1].
    pub utilization: f64,
    /// Completed connections (aborted flows are excluded).
    pub flows_completed: u64,
    /// Flows the sender aborted after exhausting its RTO budget.
    pub flows_aborted: u64,
    /// Total bytes delivered by completed connections.
    pub bytes: u64,
}

impl RunMetrics {
    /// Aggregate flow reports plus bottleneck-link observations.
    ///
    /// `queueing_delay_ms`, `loss_rate`, and `utilization` come from the
    /// bottleneck link; throughput is the mean of per-connection on-time
    /// throughputs (the paper's "throughput = bits transferred / ontime").
    pub fn from_reports(
        reports: &[FlowReport],
        queueing_delay_ms: f64,
        loss_rate: f64,
        utilization: f64,
    ) -> RunMetrics {
        let mut tput = OnlineStats::new();
        let mut rtt = OnlineStats::new();
        let mut bytes = 0u64;
        let mut aborted = 0u64;
        for r in reports {
            // Aborted flows died on an unreachable path; their (mostly
            // zero) throughput would poison the mean the paper plots, so
            // they are counted separately and excluded from the averages.
            if r.aborted {
                aborted += 1;
                continue;
            }
            if r.duration().is_zero() {
                continue;
            }
            tput.push(r.throughput_bps() / 1e6);
            if r.rtt_samples > 0 {
                rtt.push(r.mean_rtt_ms);
            }
            bytes += r.bytes;
        }
        RunMetrics {
            throughput_mbps: tput.mean(),
            queueing_delay_ms,
            loss_rate,
            mean_rtt_ms: rtt.mean(),
            utilization,
            flows_completed: reports.len() as u64 - aborted,
            flows_aborted: aborted,
            bytes,
        }
    }

    /// Mean of several runs' metrics (the paper averages across n = 8 runs).
    pub fn mean_of(runs: &[RunMetrics]) -> RunMetrics {
        assert!(!runs.is_empty(), "cannot average zero runs");
        let n = runs.len() as f64;
        RunMetrics {
            throughput_mbps: runs.iter().map(|r| r.throughput_mbps).sum::<f64>() / n,
            queueing_delay_ms: runs.iter().map(|r| r.queueing_delay_ms).sum::<f64>() / n,
            loss_rate: runs.iter().map(|r| r.loss_rate).sum::<f64>() / n,
            mean_rtt_ms: runs.iter().map(|r| r.mean_rtt_ms).sum::<f64>() / n,
            utilization: runs.iter().map(|r| r.utilization).sum::<f64>() / n,
            flows_completed: (runs.iter().map(|r| r.flows_completed).sum::<u64>() as f64 / n)
                .round() as u64,
            flows_aborted: (runs.iter().map(|r| r.flows_aborted).sum::<u64>() as f64 / n).round()
                as u64,
            bytes: (runs.iter().map(|r| r.bytes).sum::<u64>() as f64 / n).round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bytes: u64, secs: u64, mean_rtt_ms: f64) -> FlowReport {
        FlowReport {
            flow: FlowId(1),
            bytes,
            segments: bytes / 1448,
            start: Time::from_secs(1),
            end: Time::from_secs(1 + secs),
            min_rtt: Some(Dur::from_millis(150)),
            mean_rtt_ms,
            rtt_samples: 10,
            retransmits: 0,
            timeouts: 0,
            recoveries: 0,
            aborted: false,
            idle_restarts: 0,
        }
    }

    #[test]
    fn throughput_is_bits_over_ontime() {
        let r = report(1_000_000, 2, 160.0);
        assert!((r.throughput_bps() - 4_000_000.0).abs() < 1.0);
        assert_eq!(r.duration(), Dur::from_secs(2));
    }

    #[test]
    fn rtt_inflation_clamps_at_zero() {
        let r = report(1000, 1, 140.0);
        assert_eq!(r.rtt_inflation_ms(Dur::from_millis(150)), 0.0);
        let r = report(1000, 1, 170.0);
        assert!((r.rtt_inflation_ms(Dur::from_millis(150)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn run_metrics_aggregates() {
        let reports = vec![report(1_000_000, 1, 160.0), report(2_000_000, 1, 180.0)];
        let m = RunMetrics::from_reports(&reports, 12.5, 0.01, 0.6);
        assert!((m.throughput_mbps - 12.0).abs() < 1e-9); // (8 + 16)/2
        assert!((m.mean_rtt_ms - 170.0).abs() < 1e-9);
        assert_eq!(m.flows_completed, 2);
        assert_eq!(m.bytes, 3_000_000);
        assert_eq!(m.queueing_delay_ms, 12.5);
    }

    #[test]
    fn mean_of_runs() {
        let a = RunMetrics {
            throughput_mbps: 1.0,
            queueing_delay_ms: 10.0,
            loss_rate: 0.0,
            mean_rtt_ms: 150.0,
            utilization: 0.4,
            flows_completed: 10,
            flows_aborted: 2,
            bytes: 100,
        };
        let b = RunMetrics {
            throughput_mbps: 3.0,
            queueing_delay_ms: 20.0,
            loss_rate: 0.02,
            mean_rtt_ms: 170.0,
            utilization: 0.6,
            flows_completed: 20,
            flows_aborted: 4,
            bytes: 300,
        };
        let m = RunMetrics::mean_of(&[a, b]);
        assert!((m.throughput_mbps - 2.0).abs() < 1e-12);
        assert!((m.queueing_delay_ms - 15.0).abs() < 1e-12);
        assert!((m.loss_rate - 0.01).abs() < 1e-12);
        assert_eq!(m.flows_completed, 15);
        assert_eq!(m.flows_aborted, 3);
    }

    #[test]
    fn aborted_flows_excluded_from_throughput_mean() {
        let healthy = report(1_000_000, 2, 160.0); // 4 Mbit/s
        let mut dead = report(2_000, 40, 0.0); // crawled, then died
        dead.aborted = true;
        dead.rtt_samples = 0;
        let m = RunMetrics::from_reports(&[healthy, dead], 0.0, 0.0, 0.5);
        assert!((m.throughput_mbps - 4.0).abs() < 1e-9, "{m:?}");
        assert_eq!(m.flows_completed, 1);
        assert_eq!(m.flows_aborted, 1);
        assert_eq!(m.bytes, 1_000_000, "aborted bytes excluded from total");
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn mean_of_empty_panics() {
        RunMetrics::mean_of(&[]);
    }
}
