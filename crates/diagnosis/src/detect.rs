//! Unreachability-event detection: sustained negative departures from the
//! seasonal baseline.
//!
//! A single low bin is noise; an unreachability event (Figure 5 shows one
//! lasting ~2 hours) is a *run* of bins whose robust z-score stays below a
//! threshold. The detector scans a z-score sequence and emits maximal
//! qualifying runs, requiring a minimum length to suppress flapping.

use crate::model::SeasonalModel;
use crate::series::TimeSeries;

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Z-score below which a bin is anomalous (negative).
    pub z_threshold: f64,
    /// Minimum consecutive anomalous bins to declare an event.
    pub min_run: usize,
    /// Bins of grace: a run survives up to this many non-anomalous bins
    /// inside it (handles partial recovery blips).
    pub max_gap: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            z_threshold: -3.0,
            min_run: 3,
            max_gap: 1,
        }
    }
}

/// A detected unreachability event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// First anomalous bin (inclusive).
    pub start_bin: usize,
    /// Last anomalous bin (inclusive).
    pub end_bin: usize,
    /// Mean z-score over the event.
    pub mean_z: f64,
    /// Fraction of expected volume missing over the event, in [0, 1].
    pub deficit_fraction: f64,
}

impl AnomalyEvent {
    /// Event duration in bins.
    pub fn duration_bins(&self) -> usize {
        self.end_bin - self.start_bin + 1
    }

    /// Event duration in seconds given the series' bin width.
    pub fn duration_secs(&self, bin_secs: u64) -> u64 {
        self.duration_bins() as u64 * bin_secs
    }
}

/// Scan `series` against `model` and return detected events.
pub fn detect(
    series: &TimeSeries,
    model: &SeasonalModel,
    cfg: &DetectorConfig,
) -> Vec<AnomalyEvent> {
    let z = model.zscores(series);
    let mut events = Vec::new();
    let mut run_start: Option<usize> = None;
    let mut last_bad = 0usize;

    let flush = |events: &mut Vec<AnomalyEvent>,
                 start: usize,
                 end: usize,
                 z: &[f64],
                 series: &TimeSeries| {
        let len = end - start + 1;
        if len < cfg.min_run {
            return;
        }
        let mean_z = z[start..=end].iter().sum::<f64>() / len as f64;
        let mut expected = 0.0;
        let mut actual = 0.0;
        for t in start..=end {
            expected += model.expected(t);
            actual += series.bins[t];
        }
        let deficit_fraction = if expected > 0.0 {
            ((expected - actual) / expected).clamp(0.0, 1.0)
        } else {
            0.0
        };
        events.push(AnomalyEvent {
            start_bin: start,
            end_bin: end,
            mean_z,
            deficit_fraction,
        });
    };

    for (t, &score) in z.iter().enumerate() {
        let bad = score <= cfg.z_threshold;
        match (run_start, bad) {
            (None, true) => {
                run_start = Some(t);
                last_bad = t;
            }
            (Some(_), true) => last_bad = t,
            (Some(start), false) => {
                if t - last_bad > cfg.max_gap {
                    flush(&mut events, start, last_bad, &z, series);
                    run_start = None;
                }
            }
            (None, false) => {}
        }
    }
    if let Some(start) = run_start {
        flush(&mut events, start, last_bad, &z, series);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_series_with_outage(n: usize, outage: std::ops::Range<usize>, level: f64) -> TimeSeries {
        let mut ts = TimeSeries::zeros(300, n);
        for t in 0..n {
            ts.bins[t] = if outage.contains(&t) { level } else { 1000.0 };
        }
        ts
    }

    fn model_for(ts: &TimeSeries, period: usize) -> SeasonalModel {
        SeasonalModel::fit(ts, period, ts.len())
    }

    #[test]
    fn detects_a_clean_outage_with_bounds() {
        // 3 days of 24 bins; outage on day 3 bins 56..62 (drop to 10%).
        let ts = flat_series_with_outage(72, 56..62, 100.0);
        let model = model_for(&ts, 24);
        let events = detect(&ts, &model, &DetectorConfig::default());
        assert_eq!(events.len(), 1, "events: {events:?}");
        let e = events[0];
        assert_eq!(e.start_bin, 56);
        assert_eq!(e.end_bin, 61);
        assert_eq!(e.duration_bins(), 6);
        assert_eq!(e.duration_secs(300), 1800);
        assert!(e.mean_z < -3.0);
        assert!((e.deficit_fraction - 0.9).abs() < 0.02);
    }

    #[test]
    fn short_blips_are_ignored() {
        let ts = flat_series_with_outage(72, 60..62, 0.0); // 2 bins < min_run 3
        let model = model_for(&ts, 24);
        let events = detect(&ts, &model, &DetectorConfig::default());
        assert!(events.is_empty(), "got {events:?}");
    }

    #[test]
    fn gap_tolerance_merges_runs() {
        let mut ts = flat_series_with_outage(72, 50..60, 0.0);
        ts.bins[55] = 1000.0; // one recovered bin inside the outage
        let model = model_for(&ts, 24);
        let events = detect(&ts, &model, &DetectorConfig::default());
        assert_eq!(events.len(), 1, "gap should not split: {events:?}");
        assert_eq!(events[0].start_bin, 50);
        assert_eq!(events[0].end_bin, 59);
    }

    #[test]
    fn larger_gap_splits_runs() {
        let mut ts = flat_series_with_outage(96, 50..70, 0.0);
        ts.bins[58] = 1000.0;
        ts.bins[59] = 1000.0;
        ts.bins[60] = 1000.0; // 3-bin recovery > max_gap 1
        let model = model_for(&ts, 24);
        let events = detect(&ts, &model, &DetectorConfig::default());
        assert_eq!(events.len(), 2, "got {events:?}");
    }

    #[test]
    fn healthy_series_has_no_events() {
        let ts = flat_series_with_outage(72, 0..0, 0.0);
        let model = model_for(&ts, 24);
        assert!(detect(&ts, &model, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn event_at_series_end_is_flushed() {
        let ts = flat_series_with_outage(72, 66..72, 0.0);
        let model = model_for(&ts, 24);
        let events = detect(&ts, &model, &DetectorConfig::default());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end_bin, 71);
    }
}
