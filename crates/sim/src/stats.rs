//! Running statistics used by links and exposed to observers.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::time::{Dur, Time};

/// Incremental mean / min / max / variance over f64 samples (Welford).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Busy-fraction of a link over a sliding window of recent history.
///
/// Records the intervals during which the link was transmitting and
/// reports the fraction of the trailing `window` that was busy. This is
/// the "up-to-the-minute bottleneck utilization" oracle that
/// Remy-Phi-ideal consumes (paper Section 2.2.4).
#[derive(Debug, Clone)]
pub struct RollingUtil {
    window: Dur,
    /// Closed busy periods, oldest first; back-to-back serializations
    /// share one.
    intervals: VecDeque<(Time, Time)>,
    /// Sum of the full (unclipped) lengths of `intervals`, nanoseconds.
    /// Maintained as intervals close and expire, so a query never scans
    /// the whole deque: it subtracts the few intervals that aged out
    /// since the last update and clips at most one straddler.
    busy_ns: u64,
    /// The busy period begun last, `(start, known end)`, until `end_busy`;
    /// it reads exactly even when closed late.
    open: Option<(Time, Time)>,
}

impl RollingUtil {
    /// Track busy fraction over the trailing `window`.
    pub fn new(window: Dur) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        RollingUtil {
            window,
            intervals: VecDeque::new(),
            busy_ns: 0,
            open: None,
        }
    }

    /// The link started transmitting at `start`, busy until `end`.
    pub fn begin_busy(&mut self, start: Time, end: Time) {
        debug_assert!(self.open.is_none(), "begin_busy while already busy");
        self.open = Some((start, end));
    }

    /// The link finished transmitting at `t`. A serialization that began
    /// where the last busy period ended extends it, so a backlogged link
    /// holds one interval per busy period, not one per packet.
    pub fn end_busy(&mut self, t: Time) {
        if let Some((start, _)) = self.open.take() {
            match self.intervals.back_mut() {
                Some((_, end)) if *end == start => *end = t,
                _ => self.intervals.push_back((start, t)),
            }
            self.busy_ns += (t - start).as_nanos();
        }
        self.expire(t);
    }

    fn expire(&mut self, now: Time) {
        let horizon = now - self.window;
        while let Some(&(start, end)) = self.intervals.front() {
            if end <= horizon {
                self.busy_ns -= (end - start).as_nanos();
                self.intervals.pop_front();
            } else {
                break;
            }
        }
    }

    /// Busy fraction of the window ending at `now`, in [0, 1].
    ///
    /// O(1) amortized: starts from the running sum and corrects only at
    /// the deque's front — intervals that aged out entirely since the
    /// last `end_busy` (usually none on an active link) plus at most one
    /// interval straddling the horizon.
    pub fn utilization(&self, now: Time) -> f64 {
        let horizon = now - self.window;
        let mut busy_ns = self.busy_ns;
        for &(start, end) in &self.intervals {
            if end <= horizon {
                busy_ns -= (end - start).as_nanos();
            } else {
                if start < horizon {
                    busy_ns -= (horizon - start).as_nanos();
                }
                break;
            }
        }
        if let Some((start, end)) = self.open {
            let s = if start > horizon { start } else { horizon };
            let e = if end < now { end } else { now };
            if e > s {
                busy_ns += (e - s).as_nanos();
            }
        }
        // Before a full window has elapsed, normalize by elapsed time so
        // early readings are not biased low.
        let denom = if now.as_nanos() < self.window.as_nanos() {
            now.as_nanos().max(1)
        } else {
            self.window.as_nanos()
        };
        (busy_ns as f64 / denom as f64).min(1.0)
    }
}

/// Cumulative per-link counters, reported at the end of an experiment and
/// readable by agents mid-run (the ideal-oracle path).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped at the queue (drop-tail losses).
    pub dropped: u64,
    /// Packets fully transmitted.
    pub transmitted: u64,
    /// Bytes fully transmitted.
    pub bytes_transmitted: u64,
    /// Total time the transmitter was busy.
    pub busy: Dur,
    /// Per-packet wait between enqueue and transmission start, seconds.
    pub queue_wait: OnlineStats,
    /// Time-weighted integral of queued bytes (for mean occupancy).
    pub byte_time_integral: f64,
    /// Last instant the occupancy integral was advanced.
    pub last_change: Time,
}

impl LinkStats {
    pub(crate) fn new() -> Self {
        LinkStats {
            enqueued: 0,
            dropped: 0,
            transmitted: 0,
            bytes_transmitted: 0,
            busy: Dur::ZERO,
            queue_wait: OnlineStats::new(),
            byte_time_integral: 0.0,
            last_change: Time::ZERO,
        }
    }

    pub(crate) fn advance_occupancy(&mut self, now: Time, queued_bytes: u64) {
        let dt = now.saturating_since(self.last_change).as_secs_f64();
        self.byte_time_integral += dt * queued_bytes as f64;
        self.last_change = now;
    }

    /// Fraction of packet arrivals that were dropped.
    pub fn loss_rate(&self) -> f64 {
        let offered = self.enqueued + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }

    /// Mean transmitter utilization over `elapsed` of simulated time.
    pub fn utilization(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
        }
    }

    /// Mean queue occupancy in bytes over `elapsed` of simulated time.
    pub fn mean_queue_bytes(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.byte_time_integral / elapsed.as_secs_f64()
        }
    }

    /// Mean per-packet queueing delay in seconds.
    pub fn mean_queue_wait(&self) -> f64 {
        self.queue_wait.mean()
    }

    /// Achieved throughput in bits/s over `elapsed`.
    pub fn throughput_bps(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes_transmitted as f64 * 8.0 / elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn rolling_util_full_busy() {
        let mut u = RollingUtil::new(Dur::from_millis(10));
        u.begin_busy(Time::ZERO, Time::from_millis(10));
        u.end_busy(Time::from_millis(10));
        assert!((u.utilization(Time::from_millis(10)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rolling_util_half_busy() {
        let mut u = RollingUtil::new(Dur::from_millis(10));
        // Busy 0-5ms, idle 5-10ms.
        u.begin_busy(Time::ZERO, Time::from_millis(5));
        u.end_busy(Time::from_millis(5));
        let got = u.utilization(Time::from_millis(10));
        assert!((got - 0.5).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn rolling_util_expires_old_intervals() {
        let mut u = RollingUtil::new(Dur::from_millis(10));
        u.begin_busy(Time::ZERO, Time::from_millis(10));
        u.end_busy(Time::from_millis(10));
        // 20ms later the busy period has aged out entirely.
        assert_eq!(u.utilization(Time::from_millis(30)), 0.0);
    }

    #[test]
    fn rolling_util_counts_open_interval() {
        let mut u = RollingUtil::new(Dur::from_millis(10));
        u.begin_busy(Time::from_millis(95), Time::from_millis(105));
        let got = u.utilization(Time::from_millis(100));
        assert!((got - 0.5).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn rolling_util_open_past_its_end_reads_as_closed() {
        let mut open = RollingUtil::new(Dur::from_millis(10));
        open.begin_busy(Time::from_millis(1), Time::from_millis(3));
        open.end_busy(Time::from_millis(3));
        open.begin_busy(Time::from_millis(8), Time::from_millis(14));
        let mut closed = open.clone();
        closed.end_busy(Time::from_millis(14));
        // Up to, at and past the end; past the horizon of either interval.
        for ms in [14, 15, 17, 19, 20, 23, 24, 30] {
            let now = Time::from_millis(ms);
            let (o, c) = (open.utilization(now), closed.utilization(now));
            assert_eq!(o.to_bits(), c.to_bits(), "t = {ms} ms: {o} vs {c}");
        }
        // Before its end the open interval counts up to now.
        let got = open.utilization(Time::from_millis(10));
        assert!((got - 0.4).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn rolling_util_holds_one_interval_per_busy_period() {
        let mut u = RollingUtil::new(Dur::from_millis(10));
        // A backlog: 1 000 serializations of 12 µs, back to back.
        for i in 0..1_000 {
            let start = Time::from_micros(12 * i);
            u.begin_busy(start, start + Dur::from_micros(12));
            u.end_busy(start + Dur::from_micros(12));
        }
        assert_eq!(u.intervals.len(), 1);
        // An idle gap starts a second period.
        u.begin_busy(Time::from_micros(12_001), Time::from_micros(12_013));
        u.end_busy(Time::from_micros(12_013));
        assert_eq!(u.intervals.len(), 2);
    }

    #[test]
    fn rolling_util_early_normalization() {
        let mut u = RollingUtil::new(Dur::from_secs(1));
        u.begin_busy(Time::ZERO, Time::from_millis(5));
        u.end_busy(Time::from_millis(5));
        // Only 10ms have elapsed; 5ms busy of 10ms elapsed = 0.5, not 0.005.
        let got = u.utilization(Time::from_millis(10));
        assert!((got - 0.5).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn link_stats_derived_metrics() {
        let mut s = LinkStats::new();
        s.enqueued = 90;
        s.dropped = 10;
        s.bytes_transmitted = 1_000_000;
        s.busy = Dur::from_millis(500);
        assert!((s.loss_rate() - 0.1).abs() < 1e-12);
        assert!((s.utilization(Dur::from_secs(1)) - 0.5).abs() < 1e-12);
        assert!((s.throughput_bps(Dur::from_secs(1)) - 8e6).abs() < 1e-6);
        assert_eq!(s.utilization(Dur::ZERO), 0.0);
    }

    #[test]
    fn occupancy_integral() {
        let mut s = LinkStats::new();
        // 1000 bytes queued for 2 seconds then 0 for 2 seconds.
        s.advance_occupancy(Time::from_secs(2), 1000);
        s.advance_occupancy(Time::from_secs(4), 0);
        assert!((s.mean_queue_bytes(Dur::from_secs(4)) - 500.0).abs() < 1e-9);
    }
}
