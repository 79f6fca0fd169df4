//! Coarse localization of a detected event (the Figure 5 punchline:
//! "an unreachability event … localized to an ISP network in a metro").
//!
//! Given a detected window, we measure each slice's *deficit* (expected
//! minus actual volume) and search for the simplest dimensional
//! description that explains the bulk of it: first single dimension
//! values (all of AS 7922 down?), then pairs (AS 7922 × Seattle?), then
//! full slices. A candidate qualifies when it captures most of the total
//! deficit *and* its own traffic dropped substantially — the second
//! condition rejects "big but healthy" slices that dominate volume.

use crate::detect::AnomalyEvent;
use crate::model::SeasonalModel;
use crate::series::{Dimension, SliceKey, SlicedSeries};

/// A dimensional description of the affected population.
#[derive(Debug, Clone, PartialEq)]
pub struct Localization {
    /// The constrained dimensions, e.g. `[(Asn, 7922), (Metro, 3)]`.
    pub constraints: Vec<(Dimension, u32)>,
    /// Fraction of the total deficit this description captures.
    pub deficit_share: f64,
    /// Relative drop within the described population, in [0, 1].
    pub drop_fraction: f64,
}

impl Localization {
    /// True if `key` matches this description.
    pub fn matches(&self, key: &SliceKey) -> bool {
        self.constraints.iter().all(|&(d, v)| key.get(d) == v)
    }
}

/// Localizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct LocalizerConfig {
    /// Minimum share of the total deficit a description must capture.
    pub min_deficit_share: f64,
    /// Minimum relative drop within the described population.
    pub min_drop_fraction: f64,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        LocalizerConfig {
            min_deficit_share: 0.8,
            min_drop_fraction: 0.5,
        }
    }
}

/// Localize `event` over the sliced data. Models are fit per slice with
/// the same period/training window used for detection.
pub fn localize(
    sliced: &SlicedSeries,
    event: &AnomalyEvent,
    period: usize,
    train_bins: usize,
    cfg: &LocalizerConfig,
) -> Option<Localization> {
    // Per-slice deficits over the event window.
    let mut deficits: Vec<(SliceKey, f64, f64)> = Vec::new(); // (key, expected, actual)
    for key in sliced.keys() {
        let series = sliced.series(key).expect("key from keys()");
        let model = SeasonalModel::fit(series, period, train_bins);
        let mut expected = 0.0;
        let mut actual = 0.0;
        for t in event.start_bin..=event.end_bin {
            expected += model.expected(t);
            actual += series.bins[t];
        }
        deficits.push((*key, expected, actual));
    }
    let total_deficit: f64 = deficits.iter().map(|(_, e, a)| (e - a).max(0.0)).sum();
    if total_deficit <= 0.0 {
        return None;
    }

    let score = |constraints: &[(Dimension, u32)]| -> Localization {
        let mut expected = 0.0;
        let mut actual = 0.0;
        for (key, e, a) in &deficits {
            if constraints.iter().all(|&(d, v)| key.get(d) == v) {
                expected += e;
                actual += a;
            }
        }
        let deficit = (expected - actual).max(0.0);
        Localization {
            constraints: constraints.to_vec(),
            deficit_share: deficit / total_deficit,
            drop_fraction: if expected > 0.0 {
                (deficit / expected).clamp(0.0, 1.0)
            } else {
                0.0
            },
        }
    };

    let qualifies = |l: &Localization| {
        l.deficit_share >= cfg.min_deficit_share && l.drop_fraction >= cfg.min_drop_fraction
    };

    let dims = [Dimension::Service, Dimension::Asn, Dimension::Metro];

    // Level 1: single-dimension descriptions, most-explaining first.
    let mut singles: Vec<Localization> = Vec::new();
    for &d in &dims {
        for v in sliced.values_of(d) {
            singles.push(score(&[(d, v)]));
        }
    }
    singles.sort_by(|a, b| b.deficit_share.total_cmp(&a.deficit_share));
    if let Some(best) = singles.iter().find(|l| qualifies(l)) {
        return Some(best.clone());
    }

    // Level 2: dimension pairs.
    let mut pairs: Vec<Localization> = Vec::new();
    for i in 0..dims.len() {
        for j in (i + 1)..dims.len() {
            for v1 in sliced.values_of(dims[i]) {
                for v2 in sliced.values_of(dims[j]) {
                    pairs.push(score(&[(dims[i], v1), (dims[j], v2)]));
                }
            }
        }
    }
    pairs.sort_by(|a, b| b.deficit_share.total_cmp(&a.deficit_share));
    if let Some(best) = pairs.iter().find(|l| qualifies(l)) {
        return Some(best.clone());
    }

    // Level 3: the single worst slice, if it qualifies.
    let mut full: Vec<Localization> = deficits
        .iter()
        .map(|(k, _, _)| {
            score(&[
                (Dimension::Service, k.service),
                (Dimension::Asn, k.asn),
                (Dimension::Metro, k.metro),
            ])
        })
        .collect();
    full.sort_by(|a, b| b.deficit_share.total_cmp(&a.deficit_share));
    full.into_iter().find(|l| qualifies(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect, DetectorConfig};

    const PERIOD: usize = 24;
    const DAYS: usize = 4;
    const N: usize = PERIOD * DAYS;

    /// Build sliced data where `hit(key)` slices lose `severity` of their
    /// traffic during the last-day window 80..88.
    fn build(hit: impl Fn(&SliceKey) -> bool, severity: f64) -> SlicedSeries {
        let mut s = SlicedSeries::new(300, N);
        for service in 1..=2u32 {
            for asn in [100, 200, 300] {
                for metro in [1, 2] {
                    let key = SliceKey {
                        service,
                        asn,
                        metro,
                    };
                    for t in 0..N {
                        let mut level = 1000.0;
                        if (80..88).contains(&t) && hit(&key) {
                            level *= 1.0 - severity;
                        }
                        s.add(key, t as u64 * 300, level);
                    }
                }
            }
        }
        s
    }

    fn event_for(s: &SlicedSeries) -> AnomalyEvent {
        let total = s.total();
        let model = SeasonalModel::fit(&total, PERIOD, 3 * PERIOD);
        let events = detect(&total, &model, &DetectorConfig::default());
        assert_eq!(events.len(), 1, "expected one aggregate event");
        events[0]
    }

    #[test]
    fn localizes_single_asn_outage() {
        let s = build(|k| k.asn == 200, 0.95);
        let e = event_for(&s);
        let loc = localize(&s, &e, PERIOD, 3 * PERIOD, &LocalizerConfig::default())
            .expect("should localize");
        assert_eq!(loc.constraints, vec![(Dimension::Asn, 200)]);
        assert!(loc.deficit_share > 0.9);
        assert!(loc.drop_fraction > 0.9);
    }

    #[test]
    fn localizes_asn_times_metro_outage() {
        // The Figure 5 case: an ISP in one metro.
        let s = build(|k| k.asn == 100 && k.metro == 2, 0.95);
        let e = event_for(&s);
        let loc = localize(&s, &e, PERIOD, 3 * PERIOD, &LocalizerConfig::default())
            .expect("should localize");
        assert_eq!(loc.constraints.len(), 2, "expected a pair: {loc:?}");
        assert!(loc.constraints.contains(&(Dimension::Asn, 100)));
        assert!(loc.constraints.contains(&(Dimension::Metro, 2)));
    }

    #[test]
    fn service_specific_issue_found() {
        // §1's example: VoIP unreliable, file hosting fine.
        let s = build(|k| k.service == 2, 0.9);
        let e = event_for(&s);
        let loc = localize(&s, &e, PERIOD, 3 * PERIOD, &LocalizerConfig::default())
            .expect("should localize");
        assert_eq!(loc.constraints, vec![(Dimension::Service, 2)]);
    }

    #[test]
    fn no_deficit_no_localization() {
        let s = build(|_| false, 0.0);
        // Construct a fake event window with no deficit behind it.
        let e = AnomalyEvent {
            start_bin: 80,
            end_bin: 87,
            mean_z: -1.0,
            deficit_fraction: 0.0,
        };
        assert!(localize(&s, &e, PERIOD, 3 * PERIOD, &LocalizerConfig::default()).is_none());
    }

    #[test]
    fn localization_matches_keys() {
        let loc = Localization {
            constraints: vec![(Dimension::Asn, 100), (Dimension::Metro, 2)],
            deficit_share: 1.0,
            drop_fraction: 1.0,
        };
        assert!(loc.matches(&SliceKey {
            service: 9,
            asn: 100,
            metro: 2
        }));
        assert!(!loc.matches(&SliceKey {
            service: 9,
            asn: 100,
            metro: 3
        }));
    }
}
