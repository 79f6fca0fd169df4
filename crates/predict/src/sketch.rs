//! A compact quantile sketch: log-bucketed histogram.
//!
//! Performance prediction needs per-path distributions (throughput, RTT,
//! loss) maintained over millions of observations with bounded memory.
//! We use a logarithmically-bucketed histogram (HdrHistogram's idea):
//! values are binned with a fixed *relative* resolution, so quantile
//! queries have bounded relative error (`growth − 1`, e.g. 5 %) across
//! many orders of magnitude, with a few hundred buckets.

/// Log-bucketed histogram over positive values.
///
/// ```
/// use phi_predict::LogHistogram;
///
/// let mut h = LogHistogram::for_latency_ms();
/// for rtt in [12.0, 15.0, 11.0, 140.0, 13.0] {
///     h.record(rtt);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((12.0..=15.0).contains(&p50));
/// assert_eq!(h.count(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    min_value: f64,
    growth: f64,
    log_growth: f64,
    counts: Vec<u64>,
    total: u64,
    /// Values below `min_value` (counted in bucket 0 conceptually).
    underflow: u64,
    sum: f64,
}

impl LogHistogram {
    /// A histogram resolving `[min_value, max_value]` with relative error
    /// `rel_err` (bucket boundaries grow by `1 + rel_err`).
    pub fn new(min_value: f64, max_value: f64, rel_err: f64) -> Self {
        assert!(min_value > 0.0 && max_value > min_value, "bad value range");
        assert!(
            rel_err > 0.0 && rel_err < 1.0,
            "relative error must be in (0, 1)"
        );
        let growth = 1.0 + rel_err;
        let buckets = ((max_value / min_value).ln() / growth.ln()).ceil() as usize + 1;
        LogHistogram {
            min_value,
            growth,
            log_growth: growth.ln(),
            counts: vec![0; buckets],
            total: 0,
            underflow: 0,
            sum: 0.0,
        }
    }

    /// A default sketch for millisecond-scale latencies (0.1 ms – 100 s).
    pub fn for_latency_ms() -> Self {
        LogHistogram::new(0.1, 100_000.0, 0.05)
    }

    /// A default sketch for throughput in Mbit/s (1 kbit/s – 100 Gbit/s).
    pub fn for_throughput_mbps() -> Self {
        LogHistogram::new(0.001, 100_000.0, 0.05)
    }

    fn bucket_of(&self, value: f64) -> Option<usize> {
        if value < self.min_value {
            return None;
        }
        let idx = ((value / self.min_value).ln() / self.log_growth) as usize;
        Some(idx.min(self.counts.len() - 1))
    }

    /// Representative (geometric-mid) value of bucket `idx`.
    fn bucket_value(&self, idx: usize) -> f64 {
        self.min_value * self.growth.powf(idx as f64 + 0.5)
    }

    /// Record one observation (non-finite or non-positive values are
    /// counted as underflow).
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if value.is_finite() {
            self.sum += value.max(0.0);
        }
        match self.bucket_of(if value.is_finite() { value } else { -1.0 }) {
            Some(idx) => self.counts[idx] += 1,
            None => self.underflow += 1,
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of recorded (finite) values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), with the sketch's relative error.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.total as f64 - 1.0)).round() as u64;
        let mut seen = self.underflow;
        if rank < seen {
            return Some(self.min_value);
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank < seen {
                return Some(self.bucket_value(idx));
            }
        }
        Some(self.bucket_value(self.counts.len() - 1))
    }

    /// Merge another histogram with identical configuration.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "config mismatch");
        assert!(
            (self.min_value - other.min_value).abs() < f64::EPSILON
                && (self.growth - other.growth).abs() < f64::EPSILON,
            "config mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.underflow += other.underflow;
        self.sum += other.sum;
    }

    /// Drop all observations.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.underflow = 0;
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LogHistogram::new(1.0, 100_000.0, 0.05);
        // 1..=10_000 uniformly.
        for i in 1..=10_000 {
            h.record(f64::from(i));
        }
        for &(q, exact) in &[(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).unwrap();
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.08, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new(1.0, 1000.0, 0.05);
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn underflow_and_garbage_handled() {
        let mut h = LogHistogram::new(1.0, 1000.0, 0.05);
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
        // All landed in underflow; quantiles pin to min_value.
        assert_eq!(h.quantile(0.5), Some(1.0));
    }

    #[test]
    fn overflow_clamps_to_top_bucket() {
        let mut h = LogHistogram::new(1.0, 100.0, 0.1);
        h.record(1e9);
        let q = h.quantile(1.0).unwrap();
        assert!((100.0..150.0).contains(&q), "q = {q}");
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::for_latency_ms();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = LogHistogram::new(1.0, 10_000.0, 0.05);
        let mut b = LogHistogram::new(1.0, 10_000.0, 0.05);
        let mut whole = LogHistogram::new(1.0, 10_000.0, 0.05);
        for i in 1..=1000 {
            let v = f64::from(i);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for &q in &[0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = LogHistogram::for_throughput_mbps();
        h.record(10.0);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "config mismatch")]
    fn merge_rejects_mismatched_config() {
        let mut a = LogHistogram::new(1.0, 100.0, 0.05);
        let b = LogHistogram::new(1.0, 200.0, 0.05);
        a.merge(&b);
    }
}
