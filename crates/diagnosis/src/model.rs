//! The seasonal baseline model.
//!
//! Request volume is strongly diurnal, so "anomalous departure" must be
//! judged against the expected level *for that time of day*. The model is
//! deliberately robust and simple: for each phase of the seasonal period
//! (e.g. each 5-minute slot of the day), the baseline is the **median**
//! of the observations at that phase across training days, and the scale
//! is the **MAD** (median absolute deviation, scaled to estimate σ).
//! Medians make the model immune to outages in the training window.

use crate::series::TimeSeries;

/// A fitted seasonal baseline.
#[derive(Debug, Clone)]
pub struct SeasonalModel {
    /// Bins per seasonal period (e.g. one day).
    pub period: usize,
    /// Baseline level per phase.
    pub level: Vec<f64>,
    /// Robust scale per phase (MAD × 1.4826, floored).
    pub scale: Vec<f64>,
}

/// MAD-to-σ consistency constant for the normal distribution.
const MAD_SIGMA: f64 = 1.4826;

/// Floor on the scale so flat series don't produce infinite z-scores.
fn scale_floor(level: f64) -> f64 {
    // Poisson-ish: fluctuations of a count level x are at least ~sqrt(x).
    (level.max(1.0)).sqrt().max(1.0)
}

impl SeasonalModel {
    /// Fit on the first `train_bins` bins of `series` with seasonal
    /// `period` (in bins). `train_bins` should cover ≥ 2 periods.
    pub fn fit(series: &TimeSeries, period: usize, train_bins: usize) -> SeasonalModel {
        assert!(period > 0, "period must be positive");
        let train = train_bins.min(series.len());
        assert!(
            train >= 2 * period,
            "need at least two periods of training data ({train} bins < {})",
            2 * period
        );
        let mut level = vec![0.0; period];
        let mut scale = vec![0.0; period];
        let mut scratch = Vec::new();
        for phase in 0..period {
            scratch.clear();
            let mut t = phase;
            while t < train {
                scratch.push(series.bins[t]);
                t += period;
            }
            let med = median(&mut scratch);
            level[phase] = med;
            for v in scratch.iter_mut() {
                *v = (*v - med).abs();
            }
            let mad = median(&mut scratch);
            scale[phase] = (mad * MAD_SIGMA).max(scale_floor(med));
        }
        SeasonalModel {
            period,
            level,
            scale,
        }
    }

    /// Expected level at bin `t`.
    pub fn expected(&self, t: usize) -> f64 {
        self.level[t % self.period]
    }

    /// Robust z-score of observation `x` at bin `t` (negative = below
    /// expectation).
    pub fn zscore(&self, t: usize, x: f64) -> f64 {
        let phase = t % self.period;
        (x - self.level[phase]) / self.scale[phase]
    }

    /// Z-scores for a full series.
    pub fn zscores(&self, series: &TimeSeries) -> Vec<f64> {
        series
            .bins
            .iter()
            .enumerate()
            .map(|(t, &x)| self.zscore(t, x))
            .collect()
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal_series(days: usize, period: usize, amplitude: f64) -> TimeSeries {
        let mut ts = TimeSeries::zeros(300, days * period);
        for t in 0..ts.len() {
            let phase = (t % period) as f64 / period as f64;
            ts.bins[t] = 1000.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        }
        ts
    }

    #[test]
    fn baseline_learns_the_diurnal_shape() {
        let period = 48;
        let ts = diurnal_series(5, period, 400.0);
        let m = SeasonalModel::fit(&ts, period, 3 * period);
        // Peak phase vs trough phase.
        let peak = m.expected(period / 4);
        let trough = m.expected(3 * period / 4);
        assert!(peak > 1300.0, "peak {peak}");
        assert!(trough < 700.0, "trough {trough}");
        // A normal observation scores near zero; a halved one scores low.
        assert!(m.zscore(period / 4, peak).abs() < 0.5);
        assert!(m.zscore(period / 4, peak * 0.5) < -3.0);
    }

    #[test]
    fn median_baseline_resists_training_outliers() {
        let period = 24;
        let mut ts = diurnal_series(5, period, 0.0); // flat 1000
                                                     // Corrupt one training day with an outage.
        for t in period..2 * period {
            ts.bins[t] = 0.0;
        }
        let m = SeasonalModel::fit(&ts, period, 5 * period);
        // Median of {1000, 0, 1000, 1000, 1000} = 1000: outage ignored.
        assert!((m.expected(3) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn scale_floor_prevents_infinite_z() {
        let period = 4;
        let ts = diurnal_series(3, period, 0.0); // perfectly flat: MAD = 0
        let m = SeasonalModel::fit(&ts, period, 2 * period);
        let z = m.zscore(0, 900.0);
        assert!(z.is_finite());
        // Floor is sqrt(1000) ≈ 31.6 → z ≈ -3.16.
        assert!((-4.0..-2.5).contains(&z), "z = {z}");
    }

    #[test]
    #[should_panic(expected = "two periods")]
    fn fit_requires_enough_history() {
        let ts = diurnal_series(1, 48, 100.0);
        SeasonalModel::fit(&ts, 48, 48);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [1.0, 9.0]), 5.0);
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
    }
}
