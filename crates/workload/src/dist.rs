//! Sampling distributions used by workload generators.
//!
//! The paper's traffic model draws on-period sizes and off-period durations
//! from exponential distributions (§2.2); the telemetry experiments need a
//! heavy-tailed (Zipf) destination popularity and Pareto-ish flow sizes.
//! All samplers are implemented from first principles (inverse transform /
//! alias-free CDF search) over a [`SeedRng`] so results are reproducible.

use serde::{Deserialize, Serialize};

use crate::rng::SeedRng;

/// A real-valued distribution that can be sampled.
pub trait Sample {
    /// Draw one sample.
    fn sample(&self, rng: &mut SeedRng) -> f64;

    /// The distribution's mean, if finite.
    fn mean(&self) -> Option<f64>;
}

/// Exponential distribution with the given mean (rate = 1/mean).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// An exponential with mean `mean` (> 0).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Exponential { mean }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SeedRng) -> f64 {
        // Inverse transform; 1-u keeps the argument strictly positive.
        let u = rng.unit();
        -self.mean * (1.0 - u).ln()
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Bounded Pareto distribution (heavy-tailed flow sizes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundedPareto {
    /// Shape parameter alpha (> 0).
    pub alpha: f64,
    /// Lower bound (> 0).
    pub lo: f64,
    /// Upper bound (> lo).
    pub hi: f64,
}

impl BoundedPareto {
    /// A bounded Pareto on `[lo, hi]` with shape `alpha`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo, "invalid Pareto params");
        BoundedPareto { alpha, lo, hi }
    }
}

impl Sample for BoundedPareto {
    fn sample(&self, rng: &mut SeedRng) -> f64 {
        let u = rng.unit();
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        let la = l.powf(a);
        let ha = h.powf(a);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a)
    }

    fn mean(&self) -> Option<f64> {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        if (a - 1.0).abs() < 1e-12 {
            // alpha = 1: mean = ln(h/l) * l*h/(h-l)
            Some((h / l).ln() * l * h / (h - l))
        } else {
            let num = l.powf(a) / (1.0 - (l / h).powf(a));
            Some(num * (a / (a - 1.0)) * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0)))
        }
    }
}

/// A degenerate distribution: always the same value (useful in tests and
/// for "long-running connection" workloads).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constant(pub f64);

impl Sample for Constant {
    fn sample(&self, _rng: &mut SeedRng) -> f64 {
        self.0
    }
    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Sampling is by binary search over the precomputed CDF: O(log n) per
/// draw, exact, and deterministic.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf over `n` ranks with exponent `s` (s = 1.0 is classic Zipf;
    /// larger `s` is more skewed).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s > 0.0, "exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no ranks (never: the constructor requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `0..n` (rank 0 is most popular).
    pub fn sample_rank(&self, rng: &mut SeedRng) -> usize {
        let u = rng.unit();
        // partition_point returns the first index with cdf > u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = SeedRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(500_000.0);
        let m = sample_mean(&d, 1, 50_000);
        assert!(
            (m - 500_000.0).abs() / 500_000.0 < 0.02,
            "sample mean {m} too far from 500000"
        );
    }

    #[test]
    fn exponential_is_positive_and_memoryless_shape() {
        let d = Exponential::with_mean(1.0);
        let mut rng = SeedRng::new(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        // P(X > 1) should be about e^-1 = 0.3679.
        let frac = samples.iter().filter(|&&x| x > 1.0).count() as f64 / n as f64;
        assert!((frac - 0.3679).abs() < 0.015, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_nonpositive_mean() {
        Exponential::with_mean(0.0);
    }

    #[test]
    fn bounded_pareto_within_bounds() {
        let d = BoundedPareto::new(1.2, 1_000.0, 1_000_000.0);
        let mut rng = SeedRng::new(3);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((1_000.0..=1_000_000.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn bounded_pareto_mean_close_to_analytic() {
        let d = BoundedPareto::new(1.5, 10.0, 10_000.0);
        let analytic = d.mean().unwrap();
        let m = sample_mean(&d, 4, 200_000);
        assert!(
            (m - analytic).abs() / analytic < 0.05,
            "sample {m} vs analytic {analytic}"
        );
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(7.0);
        let mut rng = SeedRng::new(5);
        assert_eq!(d.sample(&mut rng), 7.0);
        assert_eq!(d.mean(), Some(7.0));
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SeedRng::new(6);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[99]);
        // Classic Zipf: rank-0 frequency about 1/H_1000 = 13.4%.
        let f0 = counts[0] as f64 / 100_000.0;
        assert!((f0 - z.pmf(0)).abs() < 0.01, "f0 {f0} pmf {}", z.pmf(0));
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.3);
        let total: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sample_always_in_range() {
        let z = Zipf::new(3, 0.8);
        let mut rng = SeedRng::new(7);
        for _ in 0..10_000 {
            assert!(z.sample_rank(&mut rng) < 3);
        }
    }
}
