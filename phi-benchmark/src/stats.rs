//! Small statistics and digest helpers shared by every workload.

/// FNV-1a, 64-bit, fed with `u64` words: the `result_digest` of a run is
/// this hash over every exact count and every simulated-time statistic
/// (as raw bits), so a speed-only change must leave it untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The low 48 bits of a digest: the largest slice of it a JSON number
/// (an `f64`) carries exactly, so it can travel as a metric value.
pub fn digest48(d: u64) -> f64 {
    (d & ((1 << 48) - 1)) as f64
}

/// Sorts `xs` and returns the value at quantile `q` (nearest rank on the
/// sorted sample, `q` in `[0, 1]`). `None` on an empty sample.
pub fn percentile(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * (xs.len() - 1) as f64).round() as usize;
    Some(xs[rank])
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check of this benchmark is computed with.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |k: usize| {
        // 1-based rank k(n+1)/4, clamped to a segment of the sample; the
        // remainder is taken after clamping, so short samples extrapolate
        // exactly as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summary of repeated measurements of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(xs: &[f64]) -> Spread {
        let (q1, q3) = quartiles(xs);
        Spread {
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(xs),
            q3,
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// benchmark's bounds are calibrated against.
    pub fn iqr_frac(&self) -> f64 {
        self.frac(self.q3 - self.q1)
    }

    /// Full range as a share of the median.
    pub fn range_frac(&self) -> f64 {
        self.frac(self.max - self.min)
    }

    fn frac(&self, distance: f64) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            distance / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&mut xs, 0.0), Some(1.0));
        assert_eq!(percentile(&mut xs, 0.5), Some(51.0));
        assert_eq!(percentile(&mut xs, 0.99), Some(99.0));
        assert_eq!(percentile(&mut xs, 1.0), Some(100.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25] extrapolates;
        // with two points the cut stays on the segment's line.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Spread::of(&[10.0, 11.0, 9.0, 10.0, 10.0]);
        assert_eq!(s.median, 10.0);
        assert_eq!((s.min, s.max), (9.0, 11.0));
        assert!((s.range_frac() - 0.2).abs() < 1e-12);
        assert!((s.iqr_frac() - 0.1).abs() < 1e-12);
        assert_eq!(Spread::of(&[0.0, 0.0]).iqr_frac(), 0.0);
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let d = |ws: &[u64]| {
            let mut d = Digest::default();
            for &w in ws {
                d.u64(w);
            }
            d.value()
        };
        assert_eq!(d(&[1, 2, 3]), d(&[1, 2, 3]));
        assert_ne!(d(&[1, 2, 3]), d(&[1, 3, 2]));
        assert_ne!(d(&[1, 2, 3]), d(&[1, 2]));
        assert_ne!(
            Digest::default().f64(0.0).value(),
            Digest::default().f64(-0.0).value()
        );
        assert_eq!(digest48(u64::MAX), ((1u64 << 48) - 1) as f64);
    }
}
