//! The per-path performance database.
//!
//! §3.5: "the large volume of aggregate network performance data available
//! even within a single cloud provider would … enable effective
//! performance prediction." [`PerfDb`] is that aggregate: per destination
//! path (subnet), rotating-epoch sketches of throughput, RTT, loss, and
//! jitter, fed by connection reports and queried by predictors.
//!
//! Freshness is handled by epoch rotation: observations land in the
//! current epoch; queries merge the current and previous epochs, so the
//! answer always reflects roughly the last one-to-two epochs of traffic
//! (the "network weather", not last month's climate).

use std::collections::HashMap;

use crate::sketch::LogHistogram;

/// A path identifier (e.g. destination /24), matching
/// `phi_core::PathKey`'s representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u64);

/// One connection's contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfObservation {
    /// Achieved throughput, Mbit/s.
    pub throughput_mbps: f64,
    /// Mean RTT, ms.
    pub rtt_ms: f64,
    /// Loss rate in [0, 1].
    pub loss: f64,
    /// Delay variation (jitter), ms.
    pub jitter_ms: f64,
}

/// Per-path, per-epoch sketch bundle.
#[derive(Debug, Clone)]
struct PathEpoch {
    throughput: LogHistogram,
    rtt: LogHistogram,
    jitter: LogHistogram,
    loss_sum: f64,
    count: u64,
}

impl PathEpoch {
    fn new() -> Self {
        PathEpoch {
            throughput: LogHistogram::for_throughput_mbps(),
            rtt: LogHistogram::for_latency_ms(),
            jitter: LogHistogram::for_latency_ms(),
            loss_sum: 0.0,
            count: 0,
        }
    }

    fn record(&mut self, obs: &PerfObservation) {
        self.throughput.record(obs.throughput_mbps);
        self.rtt.record(obs.rtt_ms);
        self.jitter.record(obs.jitter_ms.max(0.1));
        self.loss_sum += obs.loss.clamp(0.0, 1.0);
        self.count += 1;
    }
}

/// A merged two-epoch view for queries.
#[derive(Debug, Clone)]
pub struct PathView {
    /// Throughput distribution, Mbit/s.
    pub throughput: LogHistogram,
    /// RTT distribution, ms.
    pub rtt: LogHistogram,
    /// Jitter distribution, ms.
    pub jitter: LogHistogram,
    /// Mean loss rate.
    pub mean_loss: f64,
    /// Observations behind the view.
    pub count: u64,
}

/// The performance database.
#[derive(Debug, Clone)]
pub struct PerfDb {
    epoch_ns: u64,
    current_epoch: u64,
    paths: HashMap<PathId, (PathEpoch, PathEpoch)>, // (current, previous)
}

impl PerfDb {
    /// A database rotating epochs every `epoch_ns` nanoseconds.
    pub fn new(epoch_ns: u64) -> Self {
        assert!(epoch_ns > 0);
        PerfDb {
            epoch_ns,
            current_epoch: 0,
            paths: HashMap::new(),
        }
    }

    fn rotate_to(&mut self, epoch: u64) {
        if epoch == self.current_epoch {
            return;
        }
        if epoch == self.current_epoch + 1 {
            for (cur, prev) in self.paths.values_mut() {
                std::mem::swap(cur, prev);
                cur.throughput.clear();
                cur.rtt.clear();
                cur.jitter.clear();
                cur.loss_sum = 0.0;
                cur.count = 0;
            }
        } else {
            // Jumped multiple epochs: everything is stale.
            self.paths.clear();
        }
        self.current_epoch = epoch;
    }

    /// Record an observation for `path` at absolute time `now_ns`.
    pub fn record(&mut self, path: PathId, now_ns: u64, obs: &PerfObservation) {
        let epoch = now_ns / self.epoch_ns;
        if epoch < self.current_epoch {
            return; // late report from a closed epoch: drop
        }
        self.rotate_to(epoch);
        let (cur, _) = self
            .paths
            .entry(path)
            .or_insert_with(|| (PathEpoch::new(), PathEpoch::new()));
        cur.record(obs);
    }

    /// The merged current+previous view for `path` at `now_ns`, if any
    /// fresh observations exist.
    pub fn view(&mut self, path: PathId, now_ns: u64) -> Option<PathView> {
        let epoch = now_ns / self.epoch_ns;
        if epoch > self.current_epoch {
            self.rotate_to(epoch);
        }
        let (cur, prev) = self.paths.get(&path)?;
        let count = cur.count + prev.count;
        if count == 0 {
            return None;
        }
        let mut throughput = cur.throughput.clone();
        throughput.merge(&prev.throughput);
        let mut rtt = cur.rtt.clone();
        rtt.merge(&prev.rtt);
        let mut jitter = cur.jitter.clone();
        jitter.merge(&prev.jitter);
        Some(PathView {
            throughput,
            rtt,
            jitter,
            mean_loss: (cur.loss_sum + prev.loss_sum) / count as f64,
            count,
        })
    }

    /// Number of tracked paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000_000_000;

    fn obs(tput: f64, rtt: f64) -> PerfObservation {
        PerfObservation {
            throughput_mbps: tput,
            rtt_ms: rtt,
            loss: 0.01,
            jitter_ms: 5.0,
        }
    }

    #[test]
    fn record_and_view() {
        let mut db = PerfDb::new(HOUR);
        for i in 0..100 {
            db.record(PathId(1), i * 1_000_000, &obs(8.0, 160.0));
        }
        let v = db.view(PathId(1), 100_000_000).unwrap();
        assert_eq!(v.count, 100);
        assert!((v.throughput.quantile(0.5).unwrap() - 8.0).abs() < 0.5);
        assert!((v.mean_loss - 0.01).abs() < 1e-9);
        assert!(db.view(PathId(2), 0).is_none());
    }

    #[test]
    fn epoch_rotation_keeps_two_epochs() {
        let mut db = PerfDb::new(HOUR);
        db.record(PathId(1), 0, &obs(2.0, 100.0)); // epoch 0
        db.record(PathId(1), HOUR + 1, &obs(8.0, 100.0)); // epoch 1
        let v = db.view(PathId(1), HOUR + 2).unwrap();
        assert_eq!(v.count, 2); // both epochs visible
        db.record(PathId(1), 2 * HOUR + 1, &obs(8.0, 100.0)); // epoch 2
        let v = db.view(PathId(1), 2 * HOUR + 2).unwrap();
        assert_eq!(v.count, 2, "epoch 0 must have aged out");
    }

    #[test]
    fn long_silence_clears_everything() {
        let mut db = PerfDb::new(HOUR);
        db.record(PathId(1), 0, &obs(2.0, 100.0));
        // 10 epochs later.
        assert!(db.view(PathId(1), 10 * HOUR).is_none());
    }

    #[test]
    fn late_reports_dropped() {
        let mut db = PerfDb::new(HOUR);
        db.record(PathId(1), 2 * HOUR, &obs(5.0, 100.0)); // epoch 2
        db.record(PathId(1), 1, &obs(99.0, 1.0)); // stale epoch 0: ignored
        let v = db.view(PathId(1), 2 * HOUR + 1).unwrap();
        assert_eq!(v.count, 1);
        assert!(v.throughput.quantile(0.5).unwrap() < 10.0);
    }

    #[test]
    fn paths_are_independent() {
        let mut db = PerfDb::new(HOUR);
        db.record(PathId(1), 0, &obs(1.0, 300.0));
        db.record(PathId(2), 0, &obs(50.0, 20.0));
        let a = db.view(PathId(1), 1).unwrap();
        let b = db.view(PathId(2), 1).unwrap();
        assert!(a.rtt.quantile(0.5).unwrap() > b.rtt.quantile(0.5).unwrap());
        assert_eq!(db.path_count(), 2);
    }
}
