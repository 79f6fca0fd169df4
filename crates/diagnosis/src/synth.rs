//! Synthetic request-volume telemetry with injectable outages.
//!
//! Substitutes for the production telemetry behind Figure 5: per-slice
//! Poisson request counts around a diurnal mean, with slice popularity
//! spread over services, ASes, and metros, and an optional injected
//! unreachability event (a multiplicative drop on the slices matching a
//! predicate over a time window) — the ground truth the detector and
//! localizer are scored against.

use phi_workload::SeedRng;

use crate::series::{SliceKey, SlicedSeries};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Services to simulate.
    pub services: u32,
    /// Client ASes.
    pub asns: u32,
    /// Metros.
    pub metros: u32,
    /// Bin width, seconds.
    pub bin_secs: u64,
    /// Bins per day (diurnal period).
    pub bins_per_day: usize,
    /// Days of data.
    pub days: usize,
    /// Mean requests per bin for the *largest* slice.
    pub base_rate: f64,
    /// Diurnal amplitude as a fraction of the mean (0..1).
    pub diurnal_amplitude: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            services: 2,
            asns: 6,
            metros: 4,
            bin_secs: 300, // 5-minute bins
            bins_per_day: 288,
            days: 4,
            base_rate: 2_000.0,
            diurnal_amplitude: 0.5,
        }
    }
}

/// An injected ground-truth outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Affected AS (client ISP).
    pub asn: u32,
    /// Affected metro.
    pub metro: u32,
    /// First affected bin.
    pub start_bin: usize,
    /// One past the last affected bin.
    pub end_bin: usize,
    /// Fraction of traffic lost, in (0, 1].
    pub severity: f64,
}

impl Outage {
    /// True if `key` is in the blast radius.
    pub fn hits(&self, key: &SliceKey) -> bool {
        key.asn == self.asn && key.metro == self.metro
    }

    /// Outage duration in bins.
    pub fn duration_bins(&self) -> usize {
        self.end_bin - self.start_bin
    }
}

/// Generate a sliced telemetry series, optionally with an outage.
pub fn generate(cfg: &TelemetryConfig, outage: Option<&Outage>, rng: &mut SeedRng) -> SlicedSeries {
    let n_bins = cfg.bins_per_day * cfg.days;
    let mut sliced = SlicedSeries::new(cfg.bin_secs, n_bins);
    for service in 0..cfg.services {
        for asn in 0..cfg.asns {
            for metro in 0..cfg.metros {
                let key = SliceKey {
                    service,
                    asn,
                    metro,
                };
                // Stable per-slice popularity in (0.2, 1.0]: bigger ASes and
                // metros carry more traffic.
                let popularity = 1.0 / (1.0 + 0.3 * f64::from(asn) + 0.2 * f64::from(metro));
                let mut slice_rng = rng.fork_indexed(
                    "slice",
                    u64::from(service) << 32 | u64::from(asn) << 16 | u64::from(metro),
                );
                for t in 0..n_bins {
                    let phase = (t % cfg.bins_per_day) as f64 / cfg.bins_per_day as f64;
                    let diurnal =
                        1.0 + cfg.diurnal_amplitude * (2.0 * std::f64::consts::PI * phase).sin();
                    let mut lambda = cfg.base_rate * popularity * diurnal;
                    if let Some(o) = outage {
                        if o.hits(&key) && (o.start_bin..o.end_bin).contains(&t) {
                            lambda *= 1.0 - o.severity;
                        }
                    }
                    let count = poisson(lambda.max(0.0), &mut slice_rng);
                    sliced.add(key, t as u64 * cfg.bin_secs, count);
                }
            }
        }
    }
    sliced
}

/// Poisson sample: Knuth's method for small λ, normal approximation above.
fn poisson(lambda: f64, rng: &mut SeedRng) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.unit();
            if p <= limit {
                return k as f64;
            }
            k += 1;
            if k > 1_000 {
                return lambda; // numeric safety net
            }
        }
    }
    // Box–Muller normal approximation N(λ, λ).
    let u1 = rng.unit().max(1e-12);
    let u2 = rng.unit();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (lambda + lambda.sqrt() * z).max(0.0).round()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TelemetryConfig {
        TelemetryConfig {
            services: 1,
            asns: 3,
            metros: 2,
            bin_secs: 300,
            bins_per_day: 24,
            days: 3,
            base_rate: 1_000.0,
            diurnal_amplitude: 0.4,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_cfg();
        let a = generate(&cfg, None, &mut SeedRng::new(1));
        let b = generate(&cfg, None, &mut SeedRng::new(1));
        assert_eq!(a.total().bins, b.total().bins);
    }

    #[test]
    fn diurnal_pattern_visible_in_total() {
        let cfg = small_cfg();
        let s = generate(&cfg, None, &mut SeedRng::new(2));
        let total = s.total();
        // Mean of peak-phase bins vs trough-phase bins across days.
        let peak_phase = cfg.bins_per_day / 4;
        let trough_phase = 3 * cfg.bins_per_day / 4;
        let mut peak = 0.0;
        let mut trough = 0.0;
        for d in 0..cfg.days {
            peak += total.bins[d * cfg.bins_per_day + peak_phase];
            trough += total.bins[d * cfg.bins_per_day + trough_phase];
        }
        assert!(
            peak > 1.5 * trough,
            "diurnal shape missing: peak {peak} trough {trough}"
        );
    }

    #[test]
    fn outage_reduces_only_target_slices() {
        let cfg = small_cfg();
        let outage = Outage {
            asn: 1,
            metro: 0,
            start_bin: 50,
            end_bin: 60,
            severity: 0.9,
        };
        let with = generate(&cfg, Some(&outage), &mut SeedRng::new(3));
        let without = generate(&cfg, None, &mut SeedRng::new(3));

        let hit_key = SliceKey {
            service: 0,
            asn: 1,
            metro: 0,
        };
        let ok_key = SliceKey {
            service: 0,
            asn: 0,
            metro: 0,
        };
        let hit_with = with.series(&hit_key).unwrap().window_sum(50, 60);
        let hit_without = without.series(&hit_key).unwrap().window_sum(50, 60);
        assert!(
            hit_with < 0.3 * hit_without,
            "outage not applied: {hit_with} vs {hit_without}"
        );
        let ok_with = with.series(&ok_key).unwrap().window_sum(50, 60);
        let ok_without = without.series(&ok_key).unwrap().window_sum(50, 60);
        assert!(
            (ok_with - ok_without).abs() < 0.2 * ok_without.max(1.0),
            "healthy slice perturbed: {ok_with} vs {ok_without}"
        );
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = SeedRng::new(4);
        for &lambda in &[0.5, 5.0, 20.0, 100.0, 5000.0] {
            let n = 5_000;
            let mean: f64 = (0..n).map(|_| poisson(lambda, &mut rng)).sum::<f64>() / n as f64;
            let tol = (lambda / n as f64).sqrt() * 5.0 + 0.05 * lambda;
            assert!(
                (mean - lambda).abs() < tol.max(0.2),
                "λ={lambda}: mean {mean}"
            );
        }
        assert_eq!(poisson(0.0, &mut rng), 0.0);
    }
}
