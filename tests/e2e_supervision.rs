//! End-to-end tests of supervised, resumable sweep execution.
//!
//! Three contracts, exercised through the real experiment harness (not
//! synthetic run results):
//!
//! 1. **Panic isolation, full stack.** An agent hook that panics inside
//!    a run unwinds through the engine's dispatch loop, through
//!    `catch_unwind` in the run pool, and lands as a quarantined cell —
//!    while every healthy cell's metrics stay bit-identical to an
//!    unsupervised sweep.
//! 2. **Kill-and-resume bit-identity.** A sweep journal truncated
//!    mid-frame (simulating `kill -9` during an append) resumes to the
//!    same [`SweepReport::fingerprint`] as the uninterrupted sweep, for
//!    `PHI_JOBS`-style worker counts 1 and 4.
//! 3. **Budget exclusion.** A budget-terminated cell is kept, tagged,
//!    excluded from the sweep means, and — because terminated cells are
//!    not journaled — re-run on resume.

use std::path::PathBuf;

use phi::core::harness::{provision_cubic, run_repeated_on, ExperimentSpec, Provisioned};
use phi::core::journal::Journal;
use phi::core::runpool::RunPool;
use phi::core::supervise::{run_supervised_with, SupervisorConfig};
use phi::core::{run_experiment, RunResult};
use phi::sim::engine::{Ctx, RunBudget};
use phi::sim::time::{Dur, Time};
use phi::tcp::cubic::{Cubic, CubicParams};
use phi::tcp::hook::{ContextSnapshot, SessionHook};
use phi::workload::OnOffConfig;

fn quick_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        2,
        OnOffConfig {
            mean_on_bytes: 150_000.0,
            mean_off_secs: 0.6,
            deterministic: false,
        },
        Dur::from_secs(3),
        2718,
    );
    spec.dumbbell.bottleneck_bps = 6_000_000;
    spec.dumbbell.rtt = Dur::from_millis(50);
    spec
}

fn metrics_json(r: &phi::tcp::report::RunMetrics) -> String {
    serde_json::to_string(r).expect("metrics serialize")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phi-e2e-supervision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// A session hook that detonates on its first lookup — the e2e stand-in
/// for any bug that panics inside agent code mid-simulation.
struct ExplodingHook;

impl SessionHook for ExplodingHook {
    fn lookup(&mut self, _now: Time, _ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        panic!("injected hook panic (supervision e2e)");
    }
}

/// Cubic senders, except the first one carries the exploding hook.
fn provision_with_bomb() -> impl Fn(phi::core::harness::ProvisionCtx<'_>) -> Provisioned + Sync {
    |ctx| {
        let params = CubicParams::default();
        let hook: Box<dyn SessionHook> = if ctx.index == 0 {
            Box::new(ExplodingHook)
        } else {
            Box::new(phi::tcp::hook::NoHook)
        };
        Provisioned {
            factory: Box::new(move |_| Box::new(Cubic::new(params))),
            hook,
        }
    }
}

/// Contract 1: a panicking agent inside one cell of a parallel sweep is
/// quarantined without sinking the sweep, and the healthy cells are
/// bit-identical to an unsupervised reference sweep.
#[test]
fn agent_panic_in_parallel_run_quarantines_one_cell_only() {
    let spec = quick_spec();
    let n = 4;
    let bomb_cell = 2;

    let reference = run_repeated_on(
        &RunPool::new(4),
        &spec,
        n,
        provision_cubic(CubicParams::default()),
    );

    let report = run_supervised_with(
        &RunPool::new(4),
        &spec,
        n,
        &SupervisorConfig::new().with_retries(1),
        |i, s| {
            if i == bomb_cell {
                run_experiment(s, provision_with_bomb())
            } else {
                run_experiment(s, provision_cubic(CubicParams::default()))
            }
        },
    )
    .expect("no journal, no io");

    assert_eq!(report.quarantined.len(), 1, "exactly the bomb cell dies");
    assert_eq!(report.quarantined[0].index, bomb_cell);
    assert_eq!(
        report.quarantined[0].attempts, 2,
        "one retry before quarantine"
    );
    assert!(
        !report.quarantined[0].diverged,
        "a deterministic panic must reproduce identically on the same seed"
    );
    assert!(
        report.quarantined[0]
            .last_panic()
            .contains("injected hook panic"),
        "panic payload preserved through catch_unwind"
    );

    assert_eq!(report.completed.len(), n - 1);
    for cell in &report.completed {
        assert_eq!(
            metrics_json(&cell.metrics),
            metrics_json(&reference[cell.index].metrics),
            "healthy cell {} diverged under supervision",
            cell.index
        );
    }
    // The quarantined cell contributes nothing to the mean.
    let healthy: Vec<_> = reference
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != bomb_cell)
        .map(|(_, r)| r.metrics.clone())
        .collect();
    let expect = phi::tcp::report::RunMetrics::mean_of(&healthy);
    let got = report.mean_metrics().expect("cells completed");
    assert_eq!(metrics_json(&got), metrics_json(&expect));
}

/// Contract 2: kill-and-resume. Truncate the journal mid-frame and
/// resume with 1 and 4 workers; every resumed sweep fingerprints
/// identically to the uninterrupted one.
#[test]
fn killed_sweep_resumes_bit_identically_for_jobs_1_and_4() {
    let spec = quick_spec();
    let n = 6;
    let run = |_i: usize, s: &ExperimentSpec| -> RunResult {
        run_experiment(s, provision_cubic(CubicParams::default()))
    };

    // Uninterrupted reference sweep (journal only so cells get
    // journal-record fingerprints; fresh file each time).
    let ref_path = tmp("reference.jnl");
    std::fs::remove_file(&ref_path).ok();
    let reference = run_supervised_with(
        &RunPool::serial(),
        &spec,
        n,
        &SupervisorConfig::new().with_journal(&ref_path),
        run,
    )
    .expect("journal open");
    assert!(reference.is_clean());

    // "Kill" the reference sweep: keep the magic, three whole frames,
    // and half of the fourth — exactly what a SIGKILL mid-append leaves.
    let bytes = std::fs::read(&ref_path).expect("journal bytes");
    let frame_len = (bytes.len() - 8) / n;
    assert_eq!((bytes.len() - 8) % n, 0, "records frame uniformly");
    let torn_len = 8 + 3 * frame_len + frame_len / 2;

    for workers in [1usize, 4] {
        let path = tmp(&format!("resume-{workers}.jnl"));
        std::fs::write(&path, &bytes[..torn_len]).expect("write torn journal");

        let resumed = run_supervised_with(
            &RunPool::new(workers),
            &spec,
            n,
            &SupervisorConfig::new().with_journal(&path),
            run,
        )
        .expect("journal open");

        assert!(resumed.is_clean());
        assert_eq!(
            resumed.fingerprint(),
            reference.fingerprint(),
            "{workers}-worker resume diverged from the uninterrupted sweep"
        );
        let resumed_flags: Vec<bool> = resumed.completed.iter().map(|c| c.resumed).collect();
        assert_eq!(
            resumed_flags,
            vec![true, true, true, false, false, false],
            "cells 0..3 replay, the torn cell and everything after re-run"
        );
        assert_eq!(
            metrics_json(&resumed.mean_metrics().unwrap()),
            metrics_json(&reference.mean_metrics().unwrap()),
        );

        // After resume the journal is whole again: reopening replays
        // all n cells with no torn bytes.
        let (_, recovery) = Journal::open(&path).expect("reopen");
        assert_eq!(recovery.records.len(), n);
        assert_eq!(recovery.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&ref_path).ok();
}

/// Contract 3: a budget-terminated cell is tagged and excluded from the
/// means, is not journaled, and therefore re-runs (and completes) on
/// resume.
#[test]
fn budget_terminated_cell_is_excluded_then_rerun_on_resume() {
    let spec = quick_spec();
    let n = 3;
    let starved_cell = 1;
    let path = tmp("budget.jnl");
    std::fs::remove_file(&path).ok();
    let cfg = SupervisorConfig::new().with_journal(&path);

    // First pass: cell 1 runs under a tiny event budget and terminates.
    let first = run_supervised_with(&RunPool::serial(), &spec, n, &cfg, |i, s| {
        let mut s = s.clone();
        if i == starved_cell {
            s.budget = Some(RunBudget::events(200));
        }
        run_experiment(&s, provision_cubic(CubicParams::default()))
    })
    .expect("journal open");

    assert_eq!(first.terminated.len(), 1);
    assert_eq!(first.terminated[0].index, starved_cell);
    assert_eq!(
        first.terminated[0].reason,
        phi::sim::engine::BudgetExceeded::Events
    );
    assert_eq!(first.completed.len(), n - 1);

    // The mean covers exactly the two completed cells.
    let reference = run_repeated_on(
        &RunPool::serial(),
        &spec,
        n,
        provision_cubic(CubicParams::default()),
    );
    let healthy: Vec<_> = reference
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != starved_cell)
        .map(|(_, r)| r.metrics.clone())
        .collect();
    assert_eq!(
        metrics_json(&first.mean_metrics().unwrap()),
        metrics_json(&phi::tcp::report::RunMetrics::mean_of(&healthy)),
    );

    // Resume without the starvation: the terminated cell was not
    // journaled, so it re-runs (now unbudgeted) and completes; the
    // other two replay. The final sweep equals a clean 3-cell sweep.
    let second = run_supervised_with(&RunPool::serial(), &spec, n, &cfg, |_, s| {
        run_experiment(s, provision_cubic(CubicParams::default()))
    })
    .expect("journal open");
    assert!(second.is_clean());
    assert_eq!(second.completed.len(), n);
    let resumed_flags: Vec<bool> = second.completed.iter().map(|c| c.resumed).collect();
    assert_eq!(resumed_flags, vec![true, false, true]);
    let all: Vec<_> = reference.iter().map(|r| r.metrics.clone()).collect();
    assert_eq!(
        metrics_json(&second.mean_metrics().unwrap()),
        metrics_json(&phi::tcp::report::RunMetrics::mean_of(&all)),
    );
    std::fs::remove_file(&path).ok();
}

/// Supervision itself must not perturb determinism: the same sweep,
/// supervised, fingerprints identically for 1 and 4 workers.
#[test]
fn supervised_sweep_bit_identical_for_any_worker_count() {
    let spec = quick_spec();
    let cfg = SupervisorConfig::new();
    let run = |_i: usize, s: &ExperimentSpec| -> RunResult {
        run_experiment(s, provision_cubic(CubicParams::default()))
    };
    let serial =
        run_supervised_with(&RunPool::serial(), &spec, 4, &cfg, run).expect("no journal, no io");
    let parallel =
        run_supervised_with(&RunPool::new(4), &spec, 4, &cfg, run).expect("no journal, no io");
    assert_eq!(serial.fingerprint(), parallel.fingerprint());
    assert_eq!(
        metrics_json(&serial.mean_metrics().unwrap()),
        metrics_json(&parallel.mean_metrics().unwrap()),
    );
}
