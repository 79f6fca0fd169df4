//! Parameter sweeps and the leave-one-out stability analysis.
//!
//! §2.2.1 of the paper: for each workload level, sweep the three Cubic
//! parameters over the Table 2 ranges, score each setting with the
//! loss-extended power metric `P_l`, and call the argmax "optimal". The
//! Figure 3 analysis then checks the gains are not a statistical fluke:
//! the best setting *from one run* must transfer to the other `n − 1`
//! runs nearly as well as each run's own optimum.

use phi_tcp::cubic::CubicParams;
use phi_tcp::report::RunMetrics;
use serde::Serialize;

use crate::harness::{provision_cubic, run_experiment, ExperimentSpec};
use crate::policy::{PolicyEntry, PolicyTable};
use crate::power::{score, Objective};
use crate::runpool::{derive_seed, RunPool};

/// The parameter grid to sweep (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// `windowInit_` values, segments.
    pub init_window: Vec<f64>,
    /// `initial_ssthresh` values, segments.
    pub init_ssthresh: Vec<f64>,
    /// β values.
    pub beta: Vec<f64>,
}

fn geometric(lo: f64, hi: f64, factor: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut x = lo;
    while x <= hi * (1.0 + 1e-9) {
        v.push(x);
        x *= factor;
    }
    v
}

impl SweepSpec {
    /// The full Table 2 grid: 2–256 (×2) for both window parameters and
    /// 0.1–0.9 (+0.1) for β — 8 × 8 × 9 = 576 settings.
    pub fn paper() -> Self {
        SweepSpec {
            init_window: geometric(2.0, 256.0, 2.0),
            init_ssthresh: geometric(2.0, 256.0, 2.0),
            beta: (1..=9).map(|i| i as f64 / 10.0).collect(),
        }
    }

    /// A reduced grid for the short-flow regimes, where β has no effect
    /// (§2.2.1: "modifying β does not have an impact because each
    /// connection tends to be relatively short"): sweep the two window
    /// parameters at the default β.
    pub fn short_flow() -> Self {
        SweepSpec {
            init_window: geometric(2.0, 256.0, 2.0),
            init_ssthresh: geometric(2.0, 256.0, 2.0),
            beta: vec![0.2],
        }
    }

    /// The long-running-flow grid (Figure 2c): β only.
    pub fn beta_only() -> Self {
        SweepSpec {
            init_window: vec![2.0],
            init_ssthresh: vec![65_536.0],
            beta: (1..=9).map(|i| i as f64 / 10.0).collect(),
        }
    }

    /// A small grid for CI-speed smoke runs.
    pub fn quick() -> Self {
        SweepSpec {
            init_window: vec![2.0, 16.0, 128.0],
            init_ssthresh: vec![8.0, 64.0],
            beta: vec![0.2],
        }
    }

    /// All parameter combinations in the grid.
    pub fn combos(&self) -> Vec<CubicParams> {
        let mut out =
            Vec::with_capacity(self.init_window.len() * self.init_ssthresh.len() * self.beta.len());
        for &b in &self.beta {
            for &ss in &self.init_ssthresh {
                for &iw in &self.init_window {
                    out.push(CubicParams::tuned(iw, ss, b));
                }
            }
        }
        out
    }
}

/// Metrics of one parameter setting across the sweep's runs.
#[derive(Debug, Clone, Serialize)]
pub struct SweepOutcome {
    /// The setting.
    pub params: CubicParams,
    /// Per-run metrics (same seeds for every setting).
    pub runs: Vec<RunMetrics>,
    /// Mean metrics across runs.
    pub mean: RunMetrics,
    /// Mean objective score across runs.
    pub score: f64,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Outcomes for each grid point, in grid order.
    pub outcomes: Vec<SweepOutcome>,
    /// The ns-2 default setting, scored under the same runs.
    pub default: SweepOutcome,
    /// Objective used.
    pub objective: Objective,
    /// Base RTT used in scoring, ms.
    pub base_rtt_ms: f64,
}

impl SweepResult {
    /// The best (argmax mean score) grid point.
    pub fn best(&self) -> &SweepOutcome {
        self.outcomes
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .expect("sweep has at least one outcome")
    }

    /// Multiplicative improvement of the best point over the default.
    pub fn gain(&self) -> f64 {
        if self.default.score <= 0.0 {
            f64::INFINITY
        } else {
            self.best().score / self.default.score
        }
    }
}

/// Sweep `grid` over `n_runs` repetitions of `spec`, scoring with
/// `objective`. All senders in a run share one parameter setting — the
/// §2.2.1 simplified setting. Every grid point replays the identical
/// workloads (same seeds), so comparisons are paired.
///
/// Runs on the [`RunPool::from_env`] pool (`PHI_JOBS` workers).
pub fn sweep_cubic(
    spec: &ExperimentSpec,
    grid: &SweepSpec,
    n_runs: usize,
    objective: Objective,
) -> SweepResult {
    sweep_cubic_on(&RunPool::from_env(), spec, grid, n_runs, objective)
}

/// [`sweep_cubic`] on an explicit pool.
///
/// The unit of parallelism is one `(setting, run)` pair — the finest
/// independent grain — so even a single-setting sweep with many runs, or
/// a many-setting sweep with one run, saturates the pool. Run `i` of
/// every setting uses [`derive_seed`]`(spec.seed, i)`, which both keeps
/// the sweep paired (identical workloads across settings) and makes the
/// result bit-identical for any worker count.
pub fn sweep_cubic_on(
    pool: &RunPool,
    spec: &ExperimentSpec,
    grid: &SweepSpec,
    n_runs: usize,
    objective: Objective,
) -> SweepResult {
    assert!(n_runs >= 1, "need at least one run");
    let base = spec.base_rtt_ms();
    // The grid points plus, as a final pseudo-point, the ns-2 default.
    let mut settings = grid.combos();
    settings.push(CubicParams::default());

    let metrics: Vec<RunMetrics> = pool.run(settings.len() * n_runs, |j| {
        let params = settings[j / n_runs];
        let mut s = spec.clone();
        s.seed = derive_seed(spec.seed, (j % n_runs) as u64);
        run_experiment(&s, provision_cubic(params)).metrics
    });

    let mut outcomes: Vec<SweepOutcome> = settings
        .iter()
        .zip(metrics.chunks(n_runs))
        .map(|(&params, runs)| {
            let runs = runs.to_vec();
            let mean = RunMetrics::mean_of(&runs);
            let s = runs.iter().map(|m| score(objective, m, base)).sum::<f64>() / runs.len() as f64;
            SweepOutcome {
                params,
                runs,
                mean,
                score: s,
            }
        })
        .collect();
    let default = outcomes.pop().expect("default setting evaluated");
    SweepResult {
        outcomes,
        default,
        objective,
        base_rtt_ms: base,
    }
}

/// One row of the Figure 3 analysis (for held-out run `run`).
#[derive(Debug, Clone, Copy)]
pub struct LeaveOneOutRow {
    /// The run whose optimum was transferred.
    pub run: usize,
    /// Mean score of the *default* setting on the other runs.
    pub default_score: f64,
    /// Mean score, on the other runs, of the setting that was optimal for
    /// this run ("common" setting in the paper's wording).
    pub transferred_score: f64,
    /// Mean over the other runs of each run's own best score (the
    /// per-run "optimal" upper reference).
    pub oracle_score: f64,
}

/// The Figure 3 stability analysis over a completed sweep.
pub fn leave_one_out(result: &SweepResult) -> Vec<LeaveOneOutRow> {
    let n_runs = result.default.runs.len();
    assert!(n_runs >= 2, "leave-one-out needs at least two runs");
    let base = result.base_rtt_ms;
    let obj = result.objective;

    // score_matrix[combo][run]
    let score_matrix: Vec<Vec<f64>> = result
        .outcomes
        .iter()
        .map(|o| o.runs.iter().map(|m| score(obj, m, base)).collect())
        .collect();
    let default_scores: Vec<f64> = result
        .default
        .runs
        .iter()
        .map(|m| score(obj, m, base))
        .collect();

    (0..n_runs)
        .map(|held| {
            // Best combo judged on the held run alone.
            let best_combo = (0..score_matrix.len())
                .max_by(|&a, &b| score_matrix[a][held].total_cmp(&score_matrix[b][held]))
                .expect("non-empty grid");
            let others: Vec<usize> = (0..n_runs).filter(|&j| j != held).collect();
            let mean_over = |f: &dyn Fn(usize) -> f64| {
                others.iter().map(|&j| f(j)).sum::<f64>() / others.len() as f64
            };
            LeaveOneOutRow {
                run: held,
                default_score: mean_over(&|j| default_scores[j]),
                transferred_score: mean_over(&|j| score_matrix[best_combo][j]),
                oracle_score: mean_over(&|j| {
                    score_matrix
                        .iter()
                        .map(|row| row[j])
                        .fold(f64::NEG_INFINITY, f64::max)
                }),
            }
        })
        .collect()
}

/// Build a [`PolicyTable`] from per-utilization-level sweep winners: each
/// `(observed utilization, best params)` pair becomes a bucket whose edge
/// is the midpoint to the next level.
pub fn policy_from_sweeps(mut levels: Vec<(f64, CubicParams)>) -> PolicyTable {
    assert!(!levels.is_empty(), "need at least one level");
    levels.sort_by(|a, b| a.0.total_cmp(&b.0));
    let fallback = levels.last().expect("non-empty").1;
    let entries = levels
        .windows(2)
        .map(|w| PolicyEntry {
            max_util: (w[0].0 + w[1].0) / 2.0,
            params: w[0].1,
        })
        .collect();
    PolicyTable::new(entries, fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_sim::time::Dur;
    use phi_workload::OnOffConfig;

    #[test]
    fn paper_grid_matches_table2() {
        let g = SweepSpec::paper();
        assert_eq!(
            g.init_window,
            vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
        );
        assert_eq!(g.init_ssthresh.len(), 8);
        assert_eq!(g.beta.len(), 9);
        assert!((g.beta[0] - 0.1).abs() < 1e-12);
        assert!((g.beta[8] - 0.9).abs() < 1e-12);
        assert_eq!(g.combos().len(), 576);
    }

    #[test]
    fn combos_cover_the_grid() {
        let g = SweepSpec::quick();
        let combos = g.combos();
        assert_eq!(combos.len(), 6);
        assert!(combos
            .iter()
            .any(|p| p.init_window == 128.0 && p.init_ssthresh == 8.0));
        // Non-tuned fields keep their defaults.
        assert!(combos.iter().all(|p| p.c == CubicParams::default().c));
    }

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            3,
            OnOffConfig {
                mean_on_bytes: 150_000.0,
                mean_off_secs: 0.8,
                deterministic: false,
            },
            Dur::from_secs(12),
            7,
        );
        spec.dumbbell.bottleneck_bps = 8_000_000;
        spec.dumbbell.rtt = Dur::from_millis(60);
        spec
    }

    #[test]
    fn sweep_produces_paired_runs_and_a_best() {
        let spec = tiny_spec();
        let grid = SweepSpec {
            init_window: vec![2.0, 32.0],
            init_ssthresh: vec![16.0],
            beta: vec![0.2],
        };
        let res = sweep_cubic(&spec, &grid, 2, Objective::PowerLoss);
        assert_eq!(res.outcomes.len(), 2);
        assert!(res.outcomes.iter().all(|o| o.runs.len() == 2));
        let best = res.best();
        assert!(best.score >= res.outcomes[0].score);
        assert!(best.score >= res.outcomes[1].score);
        assert!(best.score.is_finite());
    }

    #[test]
    fn leave_one_out_bounds() {
        let spec = tiny_spec();
        let grid = SweepSpec {
            init_window: vec![2.0, 16.0, 64.0],
            init_ssthresh: vec![16.0, 64.0],
            beta: vec![0.2],
        };
        let res = sweep_cubic(&spec, &grid, 3, Objective::PowerLoss);
        let rows = leave_one_out(&res);
        assert_eq!(rows.len(), 3);
        for row in rows {
            // Oracle ≥ transferred by construction (both averaged over the
            // same held-out runs; the oracle picks per-run maxima).
            assert!(
                row.oracle_score >= row.transferred_score - 1e-12,
                "oracle {} < transferred {}",
                row.oracle_score,
                row.transferred_score
            );
        }
    }

    #[test]
    fn policy_from_sweeps_buckets_and_falls_back() {
        let t = policy_from_sweeps(vec![
            (0.3, CubicParams::tuned(32.0, 128.0, 0.2)),
            (0.7, CubicParams::tuned(8.0, 32.0, 0.2)),
            (0.99, CubicParams::tuned(2.0, 16.0, 0.6)),
        ]);
        assert_eq!(t.len(), 2);
        let at = |u: f64| {
            t.params_for(&phi_tcp::hook::ContextSnapshot {
                utilization: u,
                queue_ms: 0.0,
                competing: 1,
            })
        };
        assert_eq!(at(0.2).init_window, 32.0);
        assert_eq!(at(0.6).init_window, 8.0);
        assert_eq!(at(0.95).beta, 0.6);
    }

    #[test]
    #[should_panic(expected = "at least two runs")]
    fn loo_needs_two_runs() {
        let spec = tiny_spec();
        let grid = SweepSpec {
            init_window: vec![2.0],
            init_ssthresh: vec![16.0],
            beta: vec![0.2],
        };
        let res = sweep_cubic(&spec, &grid, 1, Objective::PowerLoss);
        leave_one_out(&res);
    }
}
