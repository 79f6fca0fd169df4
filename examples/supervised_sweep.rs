//! Supervised sweep smoke: panic isolation, budgets, and resume in one
//! run. Doubles as the CI supervision smoke step.
//!
//! The script a robustness layer has to survive, compressed:
//!
//! 1. an 8-cell sweep where one cell's agent hook panics mid-simulation
//!    and another runs under a tiny event budget — the sweep must finish with 6 clean cells, one
//!    quarantined, one terminated, and sane aggregate metrics;
//! 2. the journal is then torn mid-frame, as a `kill -9` during an
//!    append would leave it, and the sweep re-runs without the injected
//!    failures — it must resume (not recompute) the surviving cells and
//!    converge to a clean 8/8 report.
//!
//! Exits non-zero on any violated expectation, so CI fails loudly.
//!
//! Run with: `cargo run --release --example supervised_sweep`

use phi::core::harness::{provision_cubic, ExperimentSpec, Provisioned};
use phi::core::supervise::{run_supervised_with, SupervisorConfig};
use phi::core::{run_experiment, RunPool};
use phi::sim::engine::{Ctx, RunBudget};
use phi::sim::time::{Dur, Time};
use phi::tcp::cubic::{Cubic, CubicParams};
use phi::tcp::hook::{ContextSnapshot, NoHook, SessionHook};
use phi::workload::OnOffConfig;

const CELLS: usize = 8;
const PANIC_CELL: usize = 3;
const STARVED_CELL: usize = 5;

struct ExplodingHook;

impl SessionHook for ExplodingHook {
    fn lookup(&mut self, _now: Time, _ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        panic!("injected panic (supervised_sweep smoke)");
    }
}

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        2,
        OnOffConfig {
            mean_on_bytes: 150_000.0,
            mean_off_secs: 0.6,
            deterministic: false,
        },
        Dur::from_secs(3),
        31415,
    );
    spec.dumbbell.bottleneck_bps = 6_000_000;
    spec.dumbbell.rtt = Dur::from_millis(50);
    spec
}

fn check(ok: bool, what: &str, failures: &mut u32) {
    if ok {
        println!("  ok: {what}");
    } else {
        println!("  FAIL: {what}");
        *failures += 1;
    }
}

fn main() {
    let mut failures = 0u32;
    let spec = spec();
    let pool = RunPool::from_env();
    let journal = std::env::temp_dir().join(format!(
        "phi-supervised-sweep-smoke-{}.jnl",
        std::process::id()
    ));
    std::fs::remove_file(&journal).ok();
    let cfg = SupervisorConfig::new()
        .with_retries(1)
        .with_journal(&journal);

    println!(
        "Pass 1: {CELLS} cells, cell {PANIC_CELL} panics in-sim, cell {STARVED_CELL} budget-capped"
    );
    let report = run_supervised_with(&pool, &spec, CELLS, &cfg, |i, s| {
        let mut s = s.clone();
        if i == STARVED_CELL {
            s.budget = Some(RunBudget::events(200));
        }
        run_experiment(&s, |ctx| {
            let hook: Box<dyn SessionHook> = if i == PANIC_CELL && ctx.index == 0 {
                Box::new(ExplodingHook)
            } else {
                Box::new(NoHook)
            };
            Provisioned {
                factory: Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                hook,
            }
        })
    })
    .expect("journal must open");

    check(
        report.completed.len() == CELLS - 2,
        "healthy cells all completed",
        &mut failures,
    );
    check(
        report.quarantined.len() == 1 && report.quarantined[0].index == PANIC_CELL,
        "panicking cell quarantined (siblings unharmed)",
        &mut failures,
    );
    check(
        report
            .quarantined
            .first()
            .is_some_and(|q| q.last_panic().contains("injected panic") && !q.diverged),
        "panic payload preserved, same-seed retry failed identically",
        &mut failures,
    );
    check(
        report.terminated.len() == 1 && report.terminated[0].index == STARVED_CELL,
        "budget-capped cell terminated gracefully",
        &mut failures,
    );
    let mean = report.mean_metrics();
    check(
        mean.as_ref()
            .is_some_and(|m| m.throughput_mbps.is_finite() && m.throughput_mbps > 0.0),
        "aggregation over completed cells only yields finite means",
        &mut failures,
    );
    if let Some(m) = &mean {
        println!(
            "  mean over {} completed cells: {:.2} Mbit/s, {:.2} ms queue, util {:.2}",
            report.completed.len(),
            m.throughput_mbps,
            m.queueing_delay_ms,
            m.utilization
        );
    }

    println!("Pass 2: tear the journal mid-frame, then resume without the injected failures");
    let bytes = std::fs::read(&journal).expect("journal bytes");
    let keep = bytes.len() - 20; // rip through the final frame's CRC
    std::fs::write(&journal, &bytes[..keep]).expect("tear journal");

    let resumed = run_supervised_with(&pool, &spec, CELLS, &cfg, |_, s| {
        run_experiment(s, provision_cubic(CubicParams::default()))
    })
    .expect("journal must reopen");

    check(resumed.is_clean(), "resumed sweep is clean", &mut failures);
    check(
        resumed.completed.len() == CELLS,
        "all cells present after resume",
        &mut failures,
    );
    let replayed = resumed.completed.iter().filter(|c| c.resumed).count();
    check(
        replayed == CELLS - 3,
        "exactly the journaled cells replayed (torn, panicked, starved re-ran)",
        &mut failures,
    );
    println!(
        "  {replayed}/{CELLS} cells replayed from the journal, fingerprint {:#018x}",
        resumed.fingerprint()
    );

    std::fs::remove_file(&journal).ok();
    if failures > 0 {
        println!("\n{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll supervision checks passed.");
}
