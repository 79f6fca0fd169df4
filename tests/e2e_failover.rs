//! High availability in the context plane, end to end: the primary
//! context server crashes mid-run, the backup takes over at epoch+1,
//! and the senders ride through the failover with bounded goodput cost.
//!
//! Three contracts are pinned here:
//!
//! 1. A *healthy* replicated plane ([`HaSpec::none`]) is bit-identical
//!    to the classic single shared store — replication is pure overhead
//!    bookkeeping, invisible to the traffic.
//! 2. A crash-and-failover run delivers at least 0.9x the goodput of the
//!    no-crash baseline (the §2.2.2 degradation guarantee, now under
//!    server loss rather than network loss).
//! 3. Crash injection is part of the deterministic surface: runs replay
//!    bit-for-bit for any `RunPool` worker count (`PHI_JOBS=1` vs
//!    `PHI_JOBS=4`), down to the FNV digest of the full result.

use phi::core::harness::{run_experiment, run_repeated_on, ExperimentSpec};
use phi::core::runpool::RunPool;
use phi::core::{provision_cubic_phi, HaSpec, PolicyTable, RunResult, ServerCrashPlan};
use phi::sim::time::Dur;
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

/// A mid-run primary crash: dies at t=5s, the crashed replica restarts
/// 2s later and resyncs from the new primary. The failover window is a
/// full second so the outage is visible in the counters.
fn crash_spec() -> ExperimentSpec {
    let mut spec = spec();
    spec.ha = Some(HaSpec {
        plan: ServerCrashPlan::crash_restart(Dur::from_secs(5), Dur::from_secs(2)),
        repl_lag: Dur::from_millis(50),
        failover_delay: Dur::from_secs(1),
    });
    spec
}

/// Serialize everything observable about a run — now *including* the HA
/// plane's report (epoch, crash counters, surviving-state digest), so a
/// nondeterminism bug in the crash plane itself cannot hide behind
/// identical traffic.
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(&(&r.metrics, &r.per_sender, &r.partials, r.events, &r.ha))
        .expect("run result serializes")
}

/// Total bytes delivered (completed flows + partials at the deadline).
fn delivered(r: &RunResult) -> u64 {
    let done: u64 = r.per_sender.iter().flatten().map(|rep| rep.bytes).sum();
    let partial: u64 = r.partials.iter().flatten().map(|rep| rep.bytes).sum();
    done + partial
}

/// FNV-1a over a byte stream (same digest the golden-trace tests use).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Contract 1: a replicated plane that never crashes is not merely
/// "close to" the classic shared store — it is bit-identical, because a
/// healthy plane's serving replica performs exactly the store operations
/// [`phi::core::PracticalHook`] would, and the crash RNG is a label-
/// derived fork that never touches the workload streams.
#[test]
fn healthy_replicated_plane_is_bit_identical_to_the_shared_store() {
    let classic = run_experiment(&spec(), provision_cubic_phi(PolicyTable::reference()));

    let mut ha_spec = spec();
    ha_spec.ha = Some(HaSpec::none());
    let replicated = run_experiment(&ha_spec, provision_cubic_phi(PolicyTable::reference()));

    assert!(
        classic.metrics.flows_completed > 0,
        "baseline did nothing: {:?}",
        classic.metrics
    );
    // Compare everything except the HA report (the classic run has none).
    let strip = |r: &RunResult| {
        serde_json::to_string(&(&r.metrics, &r.per_sender, &r.partials, r.events)).unwrap()
    };
    assert_eq!(
        strip(&replicated),
        strip(&classic),
        "a healthy replicated plane must be invisible to the traffic"
    );

    let ha = replicated.ha.expect("HA spec produces an HA report");
    assert_eq!(ha.epoch, 1, "no crash, no promotion");
    assert_eq!(ha.counters.crashes, 0);
    assert_eq!(ha.counters.failovers, 0);
    assert_eq!(ha.counters.lookups_dropped, 0);
    assert_eq!(ha.counters.reports_dropped, 0);
    assert_eq!(ha.counters.ops_lost, 0);
    assert!(ha.counters.lookups > 0, "senders never used the plane");
    assert!(ha.counters.reports > 0, "senders never reported back");
}

/// Contract 2: the primary dies mid-run, the backup is promoted at
/// epoch 2, and total goodput stays within 0.9x of the no-crash
/// baseline — the degradation window costs at most the failover delay
/// per affected sender, not the rest of the run.
#[test]
fn crash_mid_run_fails_over_with_bounded_goodput_cost() {
    let baseline = run_experiment(&spec(), provision_cubic_phi(PolicyTable::reference()));
    let crashed = run_experiment(&crash_spec(), provision_cubic_phi(PolicyTable::reference()));

    let ha = crashed.ha.expect("HA spec produces an HA report");
    assert_eq!(ha.counters.crashes, 1, "plan scripts exactly one crash");
    assert_eq!(ha.counters.failovers, 1, "backup must take over");
    assert_eq!(ha.epoch, 2, "promotion bumps the epoch");
    assert!(
        ha.counters.lookups_dropped + ha.counters.reports_dropped > 0,
        "a 1s failover window must be visible to some sender: {:?}",
        ha.counters
    );
    // Some senders still got context after the failover: the promoted
    // backup serves replicated state, not an empty store.
    assert!(
        ha.counters.lookups > ha.counters.lookups_dropped,
        "plane never answered: {:?}",
        ha.counters
    );

    let base_bytes = delivered(&baseline) as f64;
    let crash_bytes = delivered(&crashed) as f64;
    assert!(
        crash_bytes >= 0.9 * base_bytes,
        "failover cost too much goodput: {crash_bytes:.0} vs baseline {base_bytes:.0}"
    );
    assert!(
        crashed.metrics.flows_completed as f64 >= 0.9 * baseline.metrics.flows_completed as f64,
        "flows stalled across the failover: {} vs {}",
        crashed.metrics.flows_completed,
        baseline.metrics.flows_completed
    );
    for (i, reports) in crashed.per_sender.iter().enumerate() {
        assert!(!reports.is_empty(), "sender {i} completed no flows");
    }
}

/// Contract 3: crash injection replays bit-for-bit under any worker
/// count. `RunPool::serial()` is `PHI_JOBS=1`; `RunPool::new(4)` is
/// `PHI_JOBS=4`. The fingerprint includes the HA report, and the final
/// FNV digest over all runs is compared as a single value — the same
/// shape of check that pins the golden packet trace.
#[test]
fn failover_runs_bit_identical_for_any_worker_count() {
    let mut flap_spec = spec();
    flap_spec.ha = Some(HaSpec {
        plan: ServerCrashPlan::flapping(
            Dur::from_secs(3),
            Dur::from_millis(500),
            Dur::from_secs(2),
            3,
            0.5,
        ),
        repl_lag: Dur::from_millis(50),
        failover_delay: Dur::from_secs(1),
    });

    for spec in [crash_spec(), flap_spec] {
        let reference: Vec<String> = run_repeated_on(
            &RunPool::serial(),
            &spec,
            3,
            provision_cubic_phi(PolicyTable::reference()),
        )
        .iter()
        .map(fingerprint)
        .collect();
        let serial_digest = fnv1a(reference.iter().flat_map(|s| s.bytes().collect::<Vec<_>>()));

        // Distinct runs must be distinct (the seeds, and with them the
        // jittered crash windows, really differ per run index).
        assert!(
            reference.windows(2).any(|w| w[0] != w[1]),
            "all runs produced the same result: per-run seed derivation is broken"
        );

        for workers in [2, 4] {
            let got: Vec<String> = run_repeated_on(
                &RunPool::new(workers),
                &spec,
                3,
                provision_cubic_phi(PolicyTable::reference()),
            )
            .iter()
            .map(fingerprint)
            .collect();
            let digest = fnv1a(got.iter().flat_map(|s| s.bytes().collect::<Vec<_>>()));
            assert_eq!(
                got, reference,
                "{workers} workers diverged from serial under crash injection"
            );
            assert_eq!(
                digest, serial_digest,
                "{workers} workers changed the digest"
            );
        }
    }
}
