//! Supervised, resumable sweep execution.
//!
//! Ties the three robustness layers together into one front door for
//! long parameter sweeps:
//!
//! * **Panic isolation** — each cell runs under
//!   [`RunPool::run_supervised`]: a panicking run is retried with the
//!   *same* seed (a deterministic simulator must fail identically; a
//!   diverging retry is flagged as a determinism bug) and quarantined
//!   after the retry budget, without sinking healthy sibling cells.
//! * **Run budgets** — a cell whose spec carries an
//!   [`ExperimentSpec::budget`] terminates gracefully at its cap; the
//!   partial result is kept, tagged, and **excluded from aggregation**
//!   (the same discipline [`RunMetrics::from_reports`] applies to
//!   aborted flows: partial data must not poison the means the paper
//!   plots).
//! * **Durable journal** — every *completed* cell is appended to a
//!   [`Journal`] before the sweep moves on; an interrupted sweep
//!   resumes by replaying the journal and re-running only the missing
//!   cells. Replayed metrics are bit-exact (f64s round-trip via
//!   `to_bits`), so the [`SweepReport::fingerprint`] of a resumed sweep
//!   equals that of an uninterrupted one — for any `PHI_JOBS` worker
//!   count, since cells are index-addressed either way.
//!
//! Terminated and quarantined cells are deliberately *not* journaled:
//! on resume they run again, so a transient cause (an environmental
//! panic) gets a fresh chance while a deterministic one (an event
//! budget, a bug) reproduces evidence.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use phi_sim::engine::BudgetExceeded;
use phi_tcp::report::RunMetrics;
use phi_workload::fnv1a;

use crate::harness::{ExperimentSpec, RunResult};
use crate::journal::{Journal, RunRecord};
use crate::runpool::{derive_seed, RunFailure, RunOutcome, RunPool};

/// How a supervised sweep runs its cells.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Same-seed retries per panicking cell before quarantine. `0`
    /// quarantines on the first panic; the retry exists to distinguish
    /// deterministic failures (identical replay) from environmental
    /// ones, not to paper over bugs.
    pub retries: u32,
    /// Journal path. `None` runs unjournaled (no resume); `Some` opens
    /// or creates the journal, replays completed cells, and appends
    /// each newly completed cell durably.
    pub journal: Option<PathBuf>,
}

impl SupervisorConfig {
    /// No retries, no journal — supervision is then just panic
    /// isolation.
    pub fn new() -> Self {
        SupervisorConfig::default()
    }

    /// Set the same-seed retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Journal completed cells to `path` and resume from it if present.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }
}

/// Hash of a sweep's base spec, used to key journal records so a
/// journal replayed against a *different* sweep configuration is
/// ignored rather than trusted. Hashing the `Debug` rendering keeps
/// every spec field in scope without a serializer dependency; any
/// field change (including a new defaulted field) re-keys the sweep,
/// which errs on the side of re-running.
pub fn spec_hash(spec: &ExperimentSpec) -> u64 {
    fnv1a(0, format!("{spec:?}").as_bytes())
}

/// One cell that ran to its deadline (or was replayed from the journal).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedCell {
    /// Cell index in `0..cells`.
    pub index: usize,
    /// The derived seed the cell executed with.
    pub seed: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// The cell's metrics.
    pub metrics: RunMetrics,
    /// FNV-1a fingerprint of the cell's journal record — identical
    /// whether the cell ran fresh or was replayed.
    pub fingerprint: u64,
    /// `true` if this cell was replayed from the journal instead of
    /// executed.
    pub resumed: bool,
}

/// One cell cut short by its run budget: partial data, kept for
/// inspection, excluded from aggregation, not journaled (it re-runs on
/// resume).
#[derive(Debug, Clone, PartialEq)]
pub struct TerminatedCell {
    /// Cell index in `0..cells`.
    pub index: usize,
    /// The derived seed the cell executed with.
    pub seed: u64,
    /// Which budget cap hit.
    pub reason: BudgetExceeded,
    /// Metrics over the portion simulated before the cap.
    pub metrics: RunMetrics,
}

/// What a supervised sweep produced.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Total cells the sweep was asked to run.
    pub cells: usize,
    /// [`spec_hash`] of the base spec (what journal records are keyed
    /// by).
    pub spec_hash: u64,
    /// Cells that completed (fresh or resumed), in index order.
    pub completed: Vec<CompletedCell>,
    /// Cells terminated by their run budget, in index order.
    pub terminated: Vec<TerminatedCell>,
    /// Cells whose every attempt panicked, in index order.
    pub quarantined: Vec<RunFailure>,
    /// Failure records of cells that panicked and then *succeeded* on a
    /// same-seed retry — each one is evidence of nondeterminism and
    /// deserves a bug report even though the cell's result is kept.
    pub flaky: Vec<RunFailure>,
    /// Journal append errors (I/O problems journaling a completed
    /// cell). Non-fatal: the sweep's results are unaffected, but the
    /// affected cells will re-run on resume.
    pub journal_errors: Vec<String>,
}

impl SweepReport {
    /// Mean metrics over the **completed** cells only.
    ///
    /// Terminated and quarantined cells are excluded by construction —
    /// the sweep-level mirror of [`RunMetrics::from_reports`] excluding
    /// aborted flows from its means: partial or absent data must not
    /// drag averages toward zero. `None` when no cell completed.
    pub fn mean_metrics(&self) -> Option<RunMetrics> {
        if self.completed.is_empty() {
            return None;
        }
        let metrics: Vec<RunMetrics> = self.completed.iter().map(|c| c.metrics.clone()).collect();
        Some(RunMetrics::mean_of(&metrics))
    }

    /// FNV-1a digest over the completed cells' `(index, fingerprint)`
    /// pairs in index order: the sweep's bit-identity witness. Equal
    /// across worker counts and across kill-and-resume.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.completed.len() * 16);
        for c in &self.completed {
            bytes.extend_from_slice(&(c.index as u64).to_le_bytes());
            bytes.extend_from_slice(&c.fingerprint.to_le_bytes());
        }
        fnv1a(0, &bytes)
    }

    /// `true` when nothing went wrong: every cell completed, no panics
    /// (not even flaky ones), no journal trouble.
    pub fn is_clean(&self) -> bool {
        self.completed.len() == self.cells
            && self.quarantined.is_empty()
            && self.flaky.is_empty()
            && self.journal_errors.is_empty()
    }
}

fn completed_cell(index: usize, rec: RunRecord, resumed: bool) -> CompletedCell {
    CompletedCell {
        index,
        seed: rec.seed,
        events: rec.events,
        fingerprint: rec.fingerprint(),
        metrics: rec.metrics,
        resumed,
    }
}

/// What one supervised cell produced, before report folding.
enum Cell {
    Resumed(RunRecord),
    Fresh(RunRecord),
    Terminated {
        seed: u64,
        reason: BudgetExceeded,
        metrics: RunMetrics,
    },
}

/// Run `n` cells of `spec` under supervision on `pool`; cell `i` runs
/// `run(i, spec-with-seed-i)` where the seed is
/// [`derive_seed`]`(spec.seed, i)` — the same addressing as
/// [`crate::harness::run_repeated_on`], so supervision changes *what
/// survives*, never *what runs*.
///
/// The only fallible part is opening the journal; everything after —
/// panics, budget terminations, even journal append errors — is
/// captured in the [`SweepReport`] instead of aborting the sweep.
pub fn run_supervised_with<F>(
    pool: &RunPool,
    spec: &ExperimentSpec,
    n: usize,
    cfg: &SupervisorConfig,
    run: F,
) -> io::Result<SweepReport>
where
    F: Fn(usize, &ExperimentSpec) -> RunResult + Sync,
{
    let hash = spec_hash(spec);
    let (journal, replay) = match &cfg.journal {
        Some(path) => {
            let (journal, recovery) = Journal::open(path)?;
            let mut map = HashMap::new();
            for rec in recovery.records {
                if rec.spec_hash == hash {
                    map.insert(rec.run_index, rec);
                }
            }
            (Some(Mutex::new(journal)), map)
        }
        None => (None, HashMap::new()),
    };
    let journal_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    let outcomes = pool.run_supervised(n, cfg.retries, |i| {
        if let Some(rec) = replay.get(&(i as u64)) {
            return Cell::Resumed(rec.clone());
        }
        let mut s = spec.clone();
        s.seed = derive_seed(spec.seed, i as u64);
        let result = run(i, &s);
        if let Some(reason) = result.terminated {
            return Cell::Terminated {
                seed: s.seed,
                reason,
                metrics: result.metrics,
            };
        }
        let record = RunRecord {
            run_index: i as u64,
            seed: s.seed,
            spec_hash: hash,
            events: result.events,
            metrics: result.metrics,
        };
        if let Some(journal) = &journal {
            // A poisoned mutex here can only mean a sibling panicked
            // while appending; recover the inner journal and keep
            // going — losing durability for one cell beats losing the
            // sweep.
            let mut journal = journal.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = journal.append(&record) {
                journal_errors
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(format!("cell {i}: {e}"));
            }
        }
        Cell::Fresh(record)
    });

    let mut report = SweepReport {
        cells: n,
        spec_hash: hash,
        ..SweepReport::default()
    };
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let cell = match outcome {
            RunOutcome::Done(cell) => cell,
            RunOutcome::Flaky { value, failure } => {
                report.flaky.push(failure);
                value
            }
            RunOutcome::Quarantined(failure) => {
                report.quarantined.push(failure);
                continue;
            }
        };
        match cell {
            Cell::Resumed(rec) => report.completed.push(completed_cell(i, rec, true)),
            Cell::Fresh(rec) => report.completed.push(completed_cell(i, rec, false)),
            Cell::Terminated {
                seed,
                reason,
                metrics,
            } => report.terminated.push(TerminatedCell {
                index: i,
                seed,
                reason,
                metrics,
            }),
        }
    }
    report.journal_errors = journal_errors
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextStore, StoreConfig};
    use phi_sim::engine::SchedStats;

    fn fake_metrics(i: usize) -> RunMetrics {
        RunMetrics {
            throughput_mbps: 1.0 + i as f64,
            queueing_delay_ms: 40.0,
            loss_rate: 0.01,
            mean_rtt_ms: 163.0,
            utilization: 0.7,
            flows_completed: 5,
            flows_aborted: 0,
            bytes: 1_000_000,
        }
    }

    fn fake_result(i: usize, terminated: Option<BudgetExceeded>) -> RunResult {
        RunResult {
            metrics: fake_metrics(i),
            per_sender: Vec::new(),
            partials: Vec::new(),
            base_rtt_ms: 150.0,
            store: ContextStore::new(StoreConfig::default()),
            events: 1_000 + i as u64,
            sched: SchedStats::default(),
            ha: None,
            terminated,
            switch_stats: None,
        }
    }

    fn base_spec() -> ExperimentSpec {
        ExperimentSpec::new(
            2,
            phi_workload::OnOffConfig {
                mean_on_bytes: 100_000.0,
                mean_off_secs: 0.5,
                deterministic: false,
            },
            phi_sim::time::Dur::from_secs(1),
            7,
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phi-supervise-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn quarantined_cells_do_not_sink_or_skew_the_sweep() {
        let pool = RunPool::new(4);
        let spec = base_spec();
        let report = run_supervised_with(&pool, &spec, 6, &SupervisorConfig::new(), |i, _| {
            if i == 3 {
                panic!("cell 3 always dies");
            }
            fake_result(i, None)
        })
        .expect("no journal, no io");
        assert_eq!(report.completed.len(), 5);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, 3);
        assert!(!report.quarantined[0].diverged, "same panic every attempt");
        // Mean covers exactly the five completed cells: 1+(1..=5 minus 3).
        let mean = report.mean_metrics().expect("some cells completed");
        let expect = (1.0 + 2.0 + 3.0 + 5.0 + 6.0) / 5.0;
        assert!((mean.throughput_mbps - expect).abs() < 1e-12);
        assert!(!report.is_clean());
    }

    #[test]
    fn terminated_cells_are_kept_but_excluded_from_means() {
        let pool = RunPool::serial();
        let spec = base_spec();
        let report = run_supervised_with(&pool, &spec, 4, &SupervisorConfig::new(), |i, _| {
            let reason = (i == 1).then_some(BudgetExceeded::Events);
            fake_result(i, reason)
        })
        .expect("no journal, no io");
        assert_eq!(report.completed.len(), 3);
        assert_eq!(report.terminated.len(), 1);
        assert_eq!(report.terminated[0].reason, BudgetExceeded::Events);
        let mean = report.mean_metrics().expect("cells completed");
        let expect = (1.0 + 3.0 + 4.0) / 3.0;
        assert!((mean.throughput_mbps - expect).abs() < 1e-12);
    }

    #[test]
    fn resume_replays_from_journal_without_re_running() {
        let path = tmp("resume.jnl");
        std::fs::remove_file(&path).ok();
        let pool = RunPool::new(2);
        let spec = base_spec();
        let cfg = SupervisorConfig::new().with_journal(&path);
        let first = run_supervised_with(&pool, &spec, 5, &cfg, |i, _| fake_result(i, None))
            .expect("journal open");
        assert!(first.is_clean());
        // Second pass: the run closure must never fire — every cell is
        // in the journal.
        let second = run_supervised_with(&pool, &spec, 5, &cfg, |i, _| -> RunResult {
            panic!("cell {i} should have been replayed, not re-run")
        })
        .expect("journal open");
        assert!(second.completed.iter().all(|c| c.resumed));
        assert_eq!(second.fingerprint(), first.fingerprint());
        assert_eq!(second.mean_metrics(), first.mean_metrics());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_from_a_different_spec_is_ignored() {
        let path = tmp("foreign.jnl");
        std::fs::remove_file(&path).ok();
        let pool = RunPool::serial();
        let spec = base_spec();
        let cfg = SupervisorConfig::new().with_journal(&path);
        run_supervised_with(&pool, &spec, 3, &cfg, |i, _| fake_result(i, None)).expect("first");
        // Same journal, different spec (seed differs → spec_hash differs):
        // nothing replays, all three re-run.
        let mut other = base_spec();
        other.seed = 999;
        let report = run_supervised_with(&pool, &other, 3, &cfg, |i, _| fake_result(i, None))
            .expect("second");
        assert!(report.completed.iter().all(|c| !c.resumed));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flaky_cells_keep_their_value_but_are_flagged() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let pool = RunPool::serial();
        let spec = base_spec();
        let attempts = AtomicU32::new(0);
        let report = run_supervised_with(
            &pool,
            &spec,
            2,
            &SupervisorConfig::new().with_retries(1),
            |i, _| {
                if i == 0 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("first attempt only");
                }
                fake_result(i, None)
            },
        )
        .expect("no journal, no io");
        assert_eq!(report.completed.len(), 2);
        assert_eq!(report.flaky.len(), 1);
        assert!(
            report.flaky[0].diverged,
            "retry succeeded where first panicked"
        );
        assert!(!report.is_clean());
    }
}
