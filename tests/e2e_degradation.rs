//! The §2.2.2 degradation guarantee, end to end: Phi's context plane is
//! an *optimization*, never a dependency. When the plane is flapping or
//! entirely gone, Phi senders must degrade to their vanilla controllers
//! and deliver goodput within ε of the no-sharing baseline — and the
//! fault injection itself must be deterministic, so the degradation arms
//! stay bit-identical for any `RunPool` worker count (`PHI_JOBS=1` or N).

use phi::core::harness::{
    provision_cubic, provision_cubic_phi_faulty, run_experiment, run_repeated_on, ExperimentSpec,
};
use phi::core::runpool::RunPool;
use phi::core::{fault_counters, FaultPlan, PolicyTable, RunResult};
use phi::sim::time::Dur;
use phi::tcp::cubic::CubicParams;
use phi::workload::OnOffConfig;

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        4,
        OnOffConfig {
            mean_on_bytes: 200_000.0,
            mean_off_secs: 0.8,
            deterministic: false,
        },
        Dur::from_secs(15),
        4242,
    );
    spec.dumbbell.bottleneck_bps = 8_000_000;
    spec.dumbbell.rtt = Dur::from_millis(60);
    spec
}

/// Serialize everything observable about a run; JSON equality is byte
/// equality (floats print from their exact bits).
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(&(&r.metrics, &r.per_sender, &r.partials, r.events))
        .expect("run result serializes")
}

/// Total bytes delivered (completed flows + the partial at the deadline).
fn delivered(r: &RunResult) -> u64 {
    let done: u64 = r
        .per_sender
        .iter()
        .flatten()
        .map(|rep| rep.bytes)
        .sum::<u64>();
    let partial: u64 = r.partials.iter().flatten().map(|rep| rep.bytes).sum();
    done + partial
}

/// 100% lookup loss: every sender falls back to default parameters and
/// never touches the store — *exactly* what the no-sharing baseline does.
/// The run is not merely "within ε": it is bit-identical, because the
/// fault RNG is a side channel forked per sender (never the workload
/// streams) and a dropped lookup leaves no trace in the simulation.
#[test]
fn total_blackout_is_bit_identical_to_the_no_sharing_baseline() {
    let spec = spec();
    let baseline = run_experiment(&spec, provision_cubic(CubicParams::default()));
    let counters = fault_counters();
    let blackout = run_experiment(
        &spec,
        provision_cubic_phi_faulty(
            PolicyTable::reference(),
            FaultPlan::blackout(),
            counters.clone(),
        ),
    );

    assert!(
        baseline.metrics.flows_completed > 0,
        "baseline did nothing: {:?}",
        baseline.metrics
    );
    assert_eq!(
        fingerprint(&blackout),
        fingerprint(&baseline),
        "a dead context plane must leave no trace on the traffic"
    );
    // The acceptance bound, implied with ratio exactly 1.0.
    assert!(delivered(&blackout) as f64 >= 0.9 * delivered(&baseline) as f64);
    // The plane being *gone* also means the store never learned anything.
    assert_eq!(blackout.store.path_count(), 0, "store must stay empty");
    // ...because every lookup was attempted and lost, not because none
    // was made.
    let c = *counters.lock().unwrap();
    assert!(c.lookups_dropped > 0, "no lookup was dropped: {c:?}");
    assert_eq!(c.lookups_dropped, c.lookups, "a lookup got through: {c:?}");
}

/// A flapping plane (1 s up / 1 s down): some flows get context and tuned
/// parameters, the rest degrade to defaults mid-run. Goodput stays within
/// ε of the no-sharing baseline and every sender keeps completing flows.
#[test]
fn flapping_plane_degrades_gracefully() {
    let spec = spec();
    let baseline = run_experiment(&spec, provision_cubic(CubicParams::default()));

    let counters = fault_counters();
    let flapping = run_experiment(
        &spec,
        provision_cubic_phi_faulty(
            PolicyTable::reference(),
            FaultPlan::flapping(Dur::from_secs(1), Dur::from_secs(1)),
            counters.clone(),
        ),
    );

    // The square wave really cut both ways: lookups were attempted, some
    // died in a down-phase, some got through in an up-phase.
    let c = *counters.lock().unwrap();
    assert!(c.lookups > 0, "no lookups attempted: {c:?}");
    assert!(c.lookups_dropped > 0, "plane never went down: {c:?}");
    assert!(c.lookups_dropped < c.lookups, "plane never came up: {c:?}");

    // The degradation guarantee: no worse than 0.9x the no-sharing
    // baseline, and senders keep finishing flows throughout.
    let base_bytes = delivered(&baseline) as f64;
    let flap_bytes = delivered(&flapping) as f64;
    assert!(
        flap_bytes >= 0.9 * base_bytes,
        "flapping plane cost too much goodput: {flap_bytes:.0} vs baseline {base_bytes:.0}"
    );
    assert!(
        flapping.metrics.flows_completed as f64 >= 0.9 * baseline.metrics.flows_completed as f64,
        "flows stalled under flapping: {} vs {}",
        flapping.metrics.flows_completed,
        baseline.metrics.flows_completed
    );
    for (i, reports) in flapping.per_sender.iter().enumerate() {
        assert!(!reports.is_empty(), "sender {i} completed no flows");
    }
}

/// Independent 50 % loss through the public provisioner: some lookups
/// and some reports are lost, some of each get through, and every sender
/// keeps completing flows. No goodput bound is asserted — none has been
/// measured for this arm.
#[test]
fn lossy_plane_loses_some_of_each_and_every_sender_still_completes() {
    let counters = fault_counters();
    let lossy = run_experiment(
        &spec(),
        provision_cubic_phi_faulty(
            PolicyTable::reference(),
            FaultPlan::lossy(0.5),
            counters.clone(),
        ),
    );

    let c = *counters.lock().unwrap();
    assert!(c.lookups_dropped > 0, "no lookup was lost: {c:?}");
    assert!(
        c.lookups_dropped < c.lookups,
        "no lookup got through: {c:?}"
    );
    assert!(c.reports_dropped > 0, "no report was lost: {c:?}");
    assert!(
        c.reports_dropped < c.reports,
        "no report got through: {c:?}"
    );
    for (i, reports) in lossy.per_sender.iter().enumerate() {
        assert!(!reports.is_empty(), "sender {i} completed no flows");
    }
}

/// Fault injection is part of the deterministic surface: both degradation
/// arms must replay bit-for-bit under any worker count, exactly like every
/// other experiment (`RunPool::serial()` is `PHI_JOBS=1`; `RunPool::new(4)`
/// is `PHI_JOBS=4`).
#[test]
fn degradation_arms_bit_identical_for_any_worker_count() {
    let spec = spec();
    for plan in [
        FaultPlan::blackout(),
        FaultPlan::flapping(Dur::from_secs(1), Dur::from_secs(1)),
        FaultPlan::lossy(0.5),
    ] {
        let reference: Vec<String> = run_repeated_on(
            &RunPool::serial(),
            &spec,
            3,
            provision_cubic_phi_faulty(PolicyTable::reference(), plan, fault_counters()),
        )
        .iter()
        .map(fingerprint)
        .collect();
        for workers in [2, 4] {
            let got: Vec<String> = run_repeated_on(
                &RunPool::new(workers),
                &spec,
                3,
                provision_cubic_phi_faulty(PolicyTable::reference(), plan, fault_counters()),
            )
            .iter()
            .map(fingerprint)
            .collect();
            assert_eq!(
                got, reference,
                "{workers} workers diverged from serial under {plan:?}"
            );
        }
    }
}
