//! Mapping congestion context → recommended Cubic parameters.
//!
//! This is the "globally shared knowledge" of §2.2.1 in executable form: a
//! table keyed by utilization level whose entries are the parameter
//! settings found optimal for that level. Phi senders look up the context
//! at connection start and draw their `windowInit_` / `initial_ssthresh` /
//! `β` from this table; the table itself is produced offline by
//! [`crate::optimizer`] sweeps (or hand-seeded with
//! [`PolicyTable::reference`] for quick starts).

use phi_tcp::cubic::CubicParams;
use phi_tcp::hook::ContextSnapshot;

/// One row: applies when utilization ≤ `max_util`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyEntry {
    /// Upper edge of this utilization bucket (inclusive).
    pub max_util: f64,
    /// Parameters to use in this bucket.
    pub params: CubicParams,
}

/// The utilization-bucketed parameter policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    entries: Vec<PolicyEntry>,
    /// Used when utilization exceeds every bucket edge.
    fallback: CubicParams,
}

impl PolicyTable {
    /// Build a table from bucket entries (sorted by `max_util` here) and a
    /// fallback for utilizations above every edge.
    pub fn new(mut entries: Vec<PolicyEntry>, fallback: CubicParams) -> Self {
        assert!(
            entries.iter().all(|e| (0.0..=1.0).contains(&e.max_util)),
            "bucket edges must lie in [0, 1]"
        );
        entries.sort_by(|a, b| a.max_util.total_cmp(&b.max_util));
        PolicyTable { entries, fallback }
    }

    /// The parameters recommended for `ctx`.
    pub fn params_for(&self, ctx: &ContextSnapshot) -> CubicParams {
        for e in &self.entries {
            if ctx.utilization <= e.max_util {
                return e.params;
            }
        }
        self.fallback
    }

    /// Number of buckets (excluding the fallback).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no buckets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The rows of the table.
    pub fn entries(&self) -> &[PolicyEntry] {
        &self.entries
    }

    /// A hand-seeded reference policy embodying the qualitative findings
    /// of §2.2.1:
    ///
    /// * low utilization → aggressive start (large `windowInit_`), but a
    ///   bounded `initial_ssthresh` so slow start does not overshoot into
    ///   the queue;
    /// * high utilization → conservative start (small windows/thresholds);
    /// * saturated, long-running regimes → a sharper back-off (larger β).
    ///
    /// Sweeps in `exp_fig2` regenerate a data-driven version of this table;
    /// this constant one exists so examples and tests don't need to run a
    /// sweep first.
    pub fn reference() -> Self {
        PolicyTable::new(
            vec![
                PolicyEntry {
                    max_util: 0.4,
                    params: CubicParams::tuned(32.0, 128.0, 0.2),
                },
                PolicyEntry {
                    max_util: 0.7,
                    params: CubicParams::tuned(16.0, 64.0, 0.2),
                },
                PolicyEntry {
                    max_util: 0.9,
                    params: CubicParams::tuned(4.0, 32.0, 0.3),
                },
            ],
            CubicParams::tuned(2.0, 16.0, 0.6),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(util: f64) -> ContextSnapshot {
        ContextSnapshot {
            utilization: util,
            queue_ms: 0.0,
            competing: 4,
        }
    }

    #[test]
    fn buckets_select_by_utilization() {
        let t = PolicyTable::reference();
        let low = t.params_for(&ctx(0.2));
        let mid = t.params_for(&ctx(0.6));
        let high = t.params_for(&ctx(0.85));
        let sat = t.params_for(&ctx(0.99));
        assert!(low.init_window > mid.init_window);
        assert!(mid.init_window > high.init_window);
        assert!(sat.beta > low.beta);
        assert!(low.init_ssthresh < CubicParams::default().init_ssthresh);
    }

    #[test]
    fn entries_sorted_even_if_given_unsorted() {
        let t = PolicyTable::new(
            vec![
                PolicyEntry {
                    max_util: 0.9,
                    params: CubicParams::tuned(2.0, 16.0, 0.2),
                },
                PolicyEntry {
                    max_util: 0.3,
                    params: CubicParams::tuned(32.0, 128.0, 0.2),
                },
            ],
            CubicParams::default(),
        );
        assert_eq!(t.params_for(&ctx(0.1)).init_window, 32.0);
        assert_eq!(t.params_for(&ctx(0.5)).init_window, 2.0);
    }

    #[test]
    fn fallback_used_above_all_edges() {
        let t = PolicyTable::new(
            vec![PolicyEntry {
                max_util: 0.5,
                params: CubicParams::tuned(32.0, 128.0, 0.2),
            }],
            CubicParams::tuned(2.0, 8.0, 0.7),
        );
        assert_eq!(t.params_for(&ctx(0.95)).beta, 0.7);
    }

    #[test]
    fn an_empty_table_answers_table1() {
        let t = PolicyTable::new(Vec::new(), CubicParams::default());
        assert!(t.is_empty());
        assert_eq!(t.params_for(&ctx(0.5)), CubicParams::default());
    }

    #[test]
    #[should_panic(expected = "bucket edges")]
    fn rejects_out_of_range_edges() {
        PolicyTable::new(
            vec![PolicyEntry {
                max_util: 1.5,
                params: CubicParams::default(),
            }],
            CubicParams::default(),
        );
    }
}
