//! Determinism regression tests for the parallel experiment runner.
//!
//! The `RunPool` contract (ROADMAP: "experiments must be replayable
//! bit-for-bit") is that fanning independent runs across worker threads
//! changes *nothing* about the results: every run's RNG stream is derived
//! only from `(base_seed, run_index)`, and results merge in run order. A
//! scheduler-dependent leak — a shared counter, an RNG keyed on thread id,
//! a completion-order merge — would show up here as a diff between the
//! 1-worker and N-worker executions.

use phi::core::harness::{provision_cubic, run_repeated_on, ExperimentSpec};
use phi::core::optimizer::{sweep_cubic_on, SweepSpec};
use phi::core::power::Objective;
use phi::core::runpool::{derive_seed, RunPool};
use phi::core::RunResult;
use phi::sim::engine::Simulator;
use phi::sim::time::{Dur, Time};
use phi::sim::topology::{dumbbell, DumbbellSpec};
use phi::sim::trace::SharedTraceCollector;
use phi::tcp::cubic::{Cubic, CubicParams};
use phi::tcp::hook::NoHook;
use phi::tcp::receiver::TcpReceiver;
use phi::tcp::sender::{SenderConfig, TcpSender};
use phi::workload::{OnOffConfig, OnOffSource, SeedRng};

fn quick_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        3,
        OnOffConfig {
            mean_on_bytes: 200_000.0,
            mean_off_secs: 0.8,
            deterministic: false,
        },
        Dur::from_secs(12),
        9090,
    );
    spec.dumbbell.bottleneck_bps = 8_000_000;
    spec.dumbbell.rtt = Dur::from_millis(60);
    spec
}

/// Serialize everything observable about a run. JSON equality is byte
/// equality here: every float prints from its exact bits.
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(&(&r.metrics, &r.per_sender, &r.partials, r.events))
        .expect("run result serializes")
}

#[test]
fn repeated_runs_bit_identical_for_any_worker_count() {
    let spec = quick_spec();
    let reference: Vec<String> = run_repeated_on(
        &RunPool::serial(),
        &spec,
        5,
        provision_cubic(CubicParams::default()),
    )
    .iter()
    .map(fingerprint)
    .collect();

    for workers in [2, 4, 8] {
        let got: Vec<String> = run_repeated_on(
            &RunPool::new(workers),
            &spec,
            5,
            provision_cubic(CubicParams::default()),
        )
        .iter()
        .map(fingerprint)
        .collect();
        assert_eq!(got, reference, "{workers} workers diverged from serial");
    }
}

#[test]
fn sweep_bit_identical_and_same_best_for_any_worker_count() {
    let spec = quick_spec();
    let grid = SweepSpec {
        init_window: vec![2.0, 32.0],
        init_ssthresh: vec![16.0],
        beta: vec![0.2],
    };
    let serial = sweep_cubic_on(&RunPool::serial(), &spec, &grid, 2, Objective::PowerLoss);
    let parallel = sweep_cubic_on(&RunPool::new(4), &spec, &grid, 2, Objective::PowerLoss);

    assert_eq!(
        serde_json::to_string(&serial.best().params).unwrap(),
        serde_json::to_string(&parallel.best().params).unwrap(),
        "parallel sweep picked a different winner"
    );
    assert_eq!(
        serial.best().score.to_bits(),
        parallel.best().score.to_bits()
    );
    assert_eq!(
        serde_json::to_string(&serial.outcomes).unwrap(),
        serde_json::to_string(&parallel.outcomes).unwrap(),
    );
    assert_eq!(
        serde_json::to_string(&serial.default.runs).unwrap(),
        serde_json::to_string(&parallel.default.runs).unwrap(),
    );
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One full dumbbell simulation under a derived seed, digested down to a
/// single hash over its complete packet trace (every enqueue, drop,
/// transmission, and delivery, with timestamps).
fn traced_run_digest(base_seed: u64, run_index: u64) -> u64 {
    let mut spec = DumbbellSpec::paper(2);
    spec.bottleneck_bps = 5_000_000;
    spec.rtt = Dur::from_millis(40);
    let net = dumbbell(&spec);
    let mut sim = Simulator::new(net.topology.clone());
    let root = SeedRng::new(derive_seed(base_seed, run_index));
    for i in 0..2 {
        let mut cfg = SenderConfig::new(net.receivers[i], 80, 10);
        cfg.flow_id_base = (i as u64) << 32;
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 120_000.0,
                mean_off_secs: 0.5,
                deterministic: false,
            },
            root.fork_indexed("sender", i as u64),
        );
        sim.add_agent(
            net.senders[i],
            10,
            Box::new(TcpSender::new(
                cfg,
                source,
                Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                Box::new(NoHook),
            )),
        );
        sim.add_agent(net.receivers[i], 80, Box::new(TcpReceiver::new()));
    }
    let (tracer, events) = SharedTraceCollector::new();
    sim.set_tracer(tracer);
    sim.run_until(Time::from_secs_f64(4.0));

    // While we have a mid-flight simulator in hand: the packet-conservation
    // invariant must hold here too, not just in the engine's unit tests.
    let census = sim.packet_census();
    assert!(census.conserved(), "census leaks packets: {census:?}");
    assert!(census.injected > 0, "nothing simulated");

    let digest = fnv1a(
        events
            .borrow()
            .iter()
            .flat_map(|ev| format!("{ev:?}\n").into_bytes()),
    );
    digest
}

#[test]
fn trace_digests_bit_identical_for_any_worker_count() {
    const BASE: u64 = 777;
    const RUNS: usize = 4;
    let serial = RunPool::serial().run(RUNS, |i| traced_run_digest(BASE, i as u64));
    // Distinct runs must be distinct traces (the seeds really differ)...
    assert!(
        serial.windows(2).any(|w| w[0] != w[1]),
        "all runs produced the same trace: seed derivation is broken"
    );
    // ...and any worker count reproduces them exactly.
    for workers in [2, 4] {
        let parallel = RunPool::new(workers).run(RUNS, |i| traced_run_digest(BASE, i as u64));
        assert_eq!(parallel, serial, "{workers} workers changed a trace");
    }
}

/// Wall-clock speedup of the quick sweep grid: 4 workers vs 1. Ignored by
/// default (timing assertions are load-sensitive); run explicitly with
/// `cargo test --test e2e_parallel -- --ignored`.
#[test]
#[ignore = "wall-clock benchmark: needs >= 4 idle cores"]
fn sweep_speedup_with_four_workers() {
    let mut spec = quick_spec();
    spec.duration = Dur::from_secs(20);
    let grid = SweepSpec::quick();

    let t0 = std::time::Instant::now();
    let serial = sweep_cubic_on(&RunPool::serial(), &spec, &grid, 2, Objective::PowerLoss);
    let serial_time = t0.elapsed();

    let t1 = std::time::Instant::now();
    let parallel = sweep_cubic_on(&RunPool::new(4), &spec, &grid, 2, Objective::PowerLoss);
    let parallel_time = t1.elapsed();

    // Same answer...
    assert_eq!(
        serde_json::to_string(&serial.best().params).unwrap(),
        serde_json::to_string(&parallel.best().params).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&serial.outcomes).unwrap(),
        serde_json::to_string(&parallel.outcomes).unwrap()
    );
    // ...at least twice as fast (quick grid = 6 combos + default, 2 runs
    // each = 14 independent jobs; 4 workers give an ideal 4x).
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "4 workers only {speedup:.2}x faster ({serial_time:?} -> {parallel_time:?})"
    );
}

/// One multihop (parking-lot) scenario digested to a single FNV hash over
/// its complete packet trace, plus coarse delivery counters. The values
/// are pinned: a scheduler-ordering bug anywhere in the engine fails this
/// test loudly instead of silently shifting every downstream metric.
#[test]
fn multihop_trace_digest_matches_pinned_golden() {
    use phi::sim::queue::Capacity;
    use phi::sim::topology::{parking_lot, ParkingLotSpec};

    let spec = ParkingLotSpec {
        hops: 3,
        backbone_bps: 10_000_000,
        hop_delay: Dur::from_millis(5),
        capacity: Capacity::Packets(50),
        access_bps: 100_000_000,
    };
    let lot = parking_lot(&spec);
    let mut sim = Simulator::new(lot.topology.clone());
    let root = SeedRng::new(4242);
    let mut pairs = vec![lot.long_path];
    pairs.extend(lot.cross.iter().copied());
    let mut senders = Vec::new();
    for (i, (src, dst)) in pairs.iter().enumerate() {
        let mut cfg = SenderConfig::new(*dst, 80, 10);
        cfg.flow_id_base = (i as u64) << 32;
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 150_000.0,
                mean_off_secs: 0.3,
                deterministic: false,
            },
            root.fork_indexed("sender", i as u64),
        );
        senders.push(sim.add_agent(
            *src,
            10,
            Box::new(TcpSender::new(
                cfg,
                source,
                Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                Box::new(NoHook),
            )),
        ));
        sim.add_agent(*dst, 80, Box::new(TcpReceiver::new()));
    }
    let (tracer, events) = SharedTraceCollector::new();
    sim.set_tracer(tracer);
    sim.run_until(Time::from_secs(3));

    let census = sim.packet_census();
    assert!(census.conserved(), "census leaks packets: {census:?}");

    let events = events.borrow();
    // Every op is recorded when it happens, `Transmit` at dequeue (ns-2's
    // `-`): the trace is time-ordered.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    let digest = fnv1a(
        events
            .iter()
            .flat_map(|ev| format!("{ev:?}\n").into_bytes()),
    );
    let delivered: u64 = census.delivered;
    let injected: u64 = census.injected;
    let long_bytes: u64 = sim
        .agent_as::<TcpSender>(senders[0])
        .unwrap()
        .reports()
        .iter()
        .map(|r| r.bytes)
        .sum();
    println!("GOLDEN digest={digest:#018x} injected={injected} delivered={delivered} long_bytes={long_bytes}");

    // The counters are pinned since the pre-tiered-scheduler engine; the
    // digest was re-pinned when the link clock went lazy (`Transmit` and
    // fault-plane ops moved to dequeue, same-instant events may swap).
    // Any engine change that alters packet-level behavior must be caught
    // here, not downstream.
    const GOLDEN_DIGEST: u64 = 0x6b29_0ace_d3f7_5512;
    const GOLDEN_INJECTED: u64 = 5243;
    const GOLDEN_DELIVERED: u64 = 4950;
    const GOLDEN_LONG_BYTES: u64 = 344_105;
    assert_eq!(digest, GOLDEN_DIGEST, "packet trace diverged from golden");
    assert_eq!(injected, GOLDEN_INJECTED);
    assert_eq!(delivered, GOLDEN_DELIVERED);
    assert_eq!(long_bytes, GOLDEN_LONG_BYTES);
}
