//! MB — Criterion micro-benchmarks of the hot paths.
//!
//! These measure the implementation itself (not the paper's results):
//! the simulator's event throughput, the context-server codec, the
//! quantile sketch, and the whisker-tree lookup — the operations that
//! bound how large an experiment or how busy a context server can get.
//!
//! The `engine` module is the perf trajectory for the event engine: it
//! runs a fixed multihop blast scenario plus an end-to-end Cubic
//! experiment, prints events/sec and ns/event, and (in full mode) writes
//! `BENCH_engine.json` at the repo root so successive PRs can compare
//! against each other. `--test` runs a reduced-scale smoke pass for CI.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use std::rc::Rc;

use phi_core::context::{ContextStore, FlowSummary, PathKey, StoreConfig};
use phi_core::harness::{provision_cubic, run_experiment, ExperimentSpec};
use phi_core::wire::{encode, Decoder, Message, MAX_BATCH_ITEMS};
use phi_predict::LogHistogram;
use phi_remy::{Action, WhiskerTree};
use phi_sim::time::Dur;
use phi_tcp::CubicParams;
use phi_workload::{OnOffConfig, SeedRng};

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function("dumbbell_4x5s_cubic", |b| {
        b.iter(|| {
            let spec = ExperimentSpec::new(
                4,
                OnOffConfig {
                    mean_on_bytes: 200_000.0,
                    mean_off_secs: 0.5,
                    deterministic: false,
                },
                Dur::from_secs(5),
                42,
            );
            let r = run_experiment(&spec, provision_cubic(CubicParams::default()));
            criterion::black_box(r.events)
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let summary = FlowSummary {
        bytes: 1_000_000,
        duration_ns: 2_000_000_000,
        mean_rtt_ms: 163.0,
        min_rtt_ms: 150.0,
        retransmits: 2,
        timeouts: 0,
    };
    // A report on the wire: a batch of one.
    let report = Message::BatchReport(vec![(PathKey(42), summary)]);
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_report", |b| {
        b.iter(|| criterion::black_box(encode(&report)))
    });
    let frame = encode(&report);
    g.bench_function("decode_report", |b| {
        b.iter_batched(
            Decoder::new,
            |mut d| {
                d.extend(&frame);
                criterion::black_box(d.next().expect("decode"))
            },
            BatchSize::SmallInput,
        )
    });
    // The frame both ctx workloads of phi-benchmark send: a full batch,
    // through one long-lived decoder as on a connection.
    let batch = Message::BatchReport(
        (0..MAX_BATCH_ITEMS as u64)
            .map(|i| (PathKey(i), summary))
            .collect(),
    );
    g.throughput(Throughput::Elements(MAX_BATCH_ITEMS as u64));
    g.bench_function("encode_batch_1024", |b| {
        b.iter(|| criterion::black_box(encode(&batch)))
    });
    let frame = encode(&batch);
    let mut d = Decoder::new();
    g.bench_function("decode_batch_1024", |b| {
        b.iter(|| {
            d.extend(&frame);
            criterion::black_box(d.next().expect("decode"))
        })
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("context_store");
    let summary = |duration_ns| FlowSummary {
        bytes: 500_000,
        duration_ns,
        mean_rtt_ms: 160.0,
        min_rtt_ms: 150.0,
        retransmits: 0,
        timeouts: 0,
    };
    g.bench_function("lookup_report_cycle", |b| {
        let mut store = ContextStore::new(StoreConfig::default());
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000_000;
            store.lookup(PathKey(1), t);
            store.report(PathKey(1), t + 500_000, &summary(400_000));
        })
    });
    // A busy path: 10⁵ reports in the 10 s window, one every 100 µs, with
    // durations from 0.2 s to 20 s so that about half of a window's
    // reports began before it did. Capacity is learned, as in every
    // simulated run, so the report asks for the rate too.
    g.bench_function("lookup_report_cycle_deep_window", |b| {
        let mut store = ContextStore::new(StoreConfig::default());
        let mut n = 0u64;
        let mut cycle = |lookup: bool| {
            n += 1;
            let t = n * 100_000;
            if lookup {
                store.lookup(PathKey(1), t);
            }
            store.report(
                PathKey(1),
                t + 50_000,
                &summary(200_000_000 * (1 + n % 100)),
            );
        };
        for _ in 0..100_000 {
            cycle(false);
        }
        b.iter(|| cycle(true))
    });
    // `phi-benchmark`'s `ctx_hot_lookup` seen from one of its paths: 40 000
    // reports in a 1 s window, flows of 50 ms–2 s so that a quarter of
    // them have yet to begin at the window's edge, capacity configured so
    // a report asks nothing, and one question per 128 reports. The row is
    // the whole cycle: 128 reports and the lookup that takes them in.
    g.bench_function("hot_path_128_reports_1_lookup", |b| {
        let mut store = ContextStore::new(StoreConfig {
            window_ns: 1_000_000_000,
            capacity_bps: Some(4e9),
            ..StoreConfig::default()
        });
        let mut rng = SeedRng::new(11);
        let mut t = 0u64;
        let mut cycle = || {
            for _ in 0..128 {
                t += 25_000;
                let dur = rng.range_u64(50_000_000, 2_000_000_000);
                store.report(PathKey(1), t, &summary(dur));
            }
            store.lookup(PathKey(1), t)
        };
        for _ in 0..2 * 40_000 / 128 {
            cycle();
        }
        b.iter(&mut cycle)
    });
    g.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.throughput(Throughput::Elements(1));
    g.bench_function("log_histogram_record", |b| {
        let mut h = LogHistogram::for_latency_ms();
        let mut rng = SeedRng::new(7);
        b.iter(|| h.record(criterion::black_box(rng.range_f64(0.5, 5_000.0))))
    });
    g.bench_function("log_histogram_quantile", |b| {
        let mut h = LogHistogram::for_latency_ms();
        let mut rng = SeedRng::new(7);
        for _ in 0..100_000 {
            h.record(rng.range_f64(0.5, 5_000.0));
        }
        b.iter(|| criterion::black_box(h.quantile(0.95)))
    });
    g.finish();
}

fn bench_whiskers(c: &mut Criterion) {
    let mut g = c.benchmark_group("whisker_tree");
    let mut tree = WhiskerTree::single(Action::initial());
    for _ in 0..5 {
        // Split the first whisker repeatedly to build a 6-rule tree.
        tree.split(0);
    }
    let tree = Rc::new(tree);
    let mut rng = SeedRng::new(9);
    g.throughput(Throughput::Elements(1));
    g.bench_function("lookup_6_rules", |b| {
        b.iter(|| {
            let p = [rng.unit(), rng.unit(), rng.unit(), rng.unit()];
            criterion::black_box(tree.index_of(&p))
        })
    });
    g.finish();
}

/// Engine perf trajectory: fixed scenarios timed wall-clock, with the
/// results persisted to `BENCH_engine.json` for cross-PR comparison.
mod engine {
    use std::any::Any;
    use std::time::Instant;

    use phi_core::harness::{provision_cubic, run_experiment, ExperimentSpec};
    use phi_sim::engine::{packet_to, Agent, Ctx, SchedStats, Simulator};
    use phi_sim::packet::{FlowId, NodeId, Packet};
    use phi_sim::queue::Capacity;
    use phi_sim::time::Dur;
    use phi_sim::topology::{parking_lot, ParkingLotSpec};
    use phi_tcp::CubicParams;
    use phi_workload::OnOffConfig;

    /// Fires a timer every `gap`, sending one packet per firing — the
    /// TxEnd/Deliver/Timer mix the engine sees from any paced source.
    struct Pump {
        peer: NodeId,
        peer_port: u16,
        port: u16,
        remaining: u32,
        size: u32,
        gap: Dur,
        flow: FlowId,
    }

    impl Agent for Pump {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(Dur::ZERO, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                let mut p = packet_to(self.peer, self.peer_port, self.port, self.flow, self.size);
                p.seq = u64::from(self.remaining);
                ctx.send(p);
                ctx.set_timer_after(self.gap, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts deliveries.
    #[derive(Default)]
    struct Drain {
        received: u64,
    }

    impl Agent for Drain {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
            self.received += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn blast_spec() -> ParkingLotSpec {
        ParkingLotSpec {
            hops: 4,
            backbone_bps: 50_000_000,
            hop_delay: Dur::from_millis(1),
            capacity: Capacity::Packets(100),
            access_bps: 1_000_000_000,
        }
    }

    fn blast_pump(i: usize, dst: NodeId, packets_per_source: u32) -> Box<Pump> {
        Box::new(Pump {
            peer: dst,
            peer_port: 80,
            port: 10,
            remaining: packets_per_source,
            size: 1000,
            gap: Dur::from_micros(20),
            flow: FlowId(i as u64),
        })
    }

    /// Multihop blast: a 4-hop parking lot with the long-path pair plus
    /// every cross pair pumping packets through the backbone. Exercises
    /// scheduling, multihop forwarding, port dispatch, drop-tail
    /// queueing, and timers — engine cost, not transport cost.
    fn blast(packets_per_source: u32) -> (u64, f64, SchedStats) {
        let lot = parking_lot(&blast_spec());
        let mut sim = Simulator::new(lot.topology.clone());
        let mut pairs = vec![lot.long_path];
        pairs.extend(lot.cross.iter().copied());
        for (i, (src, dst)) in pairs.iter().enumerate() {
            sim.add_agent(*src, 10, blast_pump(i, *dst, packets_per_source));
            sim.add_agent(*dst, 80, Box::<Drain>::default());
        }
        let t0 = Instant::now();
        sim.run_to_completion();
        let wall = t0.elapsed().as_secs_f64();
        (sim.events_processed(), wall, sim.sched_stats())
    }

    /// The blast with a run budget installed but set far out of
    /// reach: every event goes through the budgeted pop loop's checks
    /// without any cap ever firing, so (this row ÷ the un-budgeted row)
    /// is exactly the supervision overhead a budget-capped sweep pays.
    fn budgeted_blast(packets_per_source: u32) -> (u64, f64) {
        use phi_sim::engine::RunBudget;
        let lot = parking_lot(&blast_spec());
        let mut sim = Simulator::new(lot.topology.clone());
        let mut pairs = vec![lot.long_path];
        pairs.extend(lot.cross.iter().copied());
        for (i, (src, dst)) in pairs.iter().enumerate() {
            sim.add_agent(*src, 10, blast_pump(i, *dst, packets_per_source));
            sim.add_agent(*dst, 80, Box::<Drain>::default());
        }
        let mut budget = RunBudget::events(u64::MAX);
        budget.max_wall_ms = Some(u64::MAX);
        sim.set_budget(budget);
        let t0 = Instant::now();
        sim.run_to_completion();
        let wall = t0.elapsed().as_secs_f64();
        assert!(sim.termination().is_none(), "out-of-reach budget fired");
        (sim.events_processed(), wall)
    }

    /// End-to-end run: the full Cubic dumbbell experiment (workload, TCP
    /// with SACK recovery, context hooks) — where timer-flood reduction
    /// and dispatch cost show up at application level.
    fn e2e_cubic(duration: Dur) -> (u64, f64, SchedStats) {
        let spec = ExperimentSpec::new(
            4,
            OnOffConfig {
                mean_on_bytes: 200_000.0,
                mean_off_secs: 0.5,
                deterministic: false,
            },
            duration,
            42,
        );
        let t0 = Instant::now();
        let r = run_experiment(&spec, provision_cubic(CubicParams::default()));
        let wall = t0.elapsed().as_secs_f64();
        (r.events, wall, r.sched)
    }

    /// The same scenarios measured on `main` immediately before the
    /// tiered-scheduler engine landed (this container, release build,
    /// best of 5). The speedup columns compare against these.
    const BASELINE_BLAST_EPS: f64 = 7.751e6;
    const BASELINE_E2E_EPS: f64 = 6.106e6;

    pub fn run(quick: bool) {
        let (blast_packets, e2e_secs, iters) = if quick {
            (2_000, Dur::from_secs(1), 1)
        } else {
            (25_000, Dur::from_secs(5), 5)
        };

        let mut best_blast: Option<(u64, f64, SchedStats)> = None;
        for _ in 0..iters {
            let (events, wall, stats) = blast(blast_packets);
            if best_blast.is_none() || wall < best_blast.as_ref().unwrap().1 {
                best_blast = Some((events, wall, stats));
            }
        }
        let (blast_events, blast_wall, sched) = best_blast.unwrap();
        let eps = blast_events as f64 / blast_wall;
        let stale_ratio = sched.skipped_stale as f64 / sched.scheduled.max(1) as f64;
        println!(
            "engine/blast_multihop                    events: {blast_events}  wall: {:.1} ms  \
             thrpt: {:.3e} events/s  ({:.1} ns/event)  speedup vs main: {:.2}x",
            blast_wall * 1e3,
            eps,
            1e9 / eps,
            eps / BASELINE_BLAST_EPS,
        );
        println!(
            "engine/blast_multihop sched              peak pending: {}  overflowed: {}  \
             stale skipped: {} ({:.2}% of scheduled)",
            sched.peak_pending,
            sched.overflowed,
            sched.skipped_stale,
            stale_ratio * 100.0,
        );

        // Supervision overhead: identical workload, budgeted pop loop.
        let mut best_budgeted: Option<(u64, f64)> = None;
        for _ in 0..iters {
            let (events, wall) = budgeted_blast(blast_packets);
            if best_budgeted.is_none() || wall < best_budgeted.as_ref().unwrap().1 {
                best_budgeted = Some((events, wall));
            }
        }
        let (budgeted_events, budgeted_wall) = best_budgeted.unwrap();
        let budgeted_eps = budgeted_events as f64 / budgeted_wall;
        println!(
            "engine/blast_multihop budgeted           events: {budgeted_events}  wall: {:.1} ms  \
             thrpt: {:.3e} events/s  overhead vs un-budgeted: {:.1}%",
            budgeted_wall * 1e3,
            budgeted_eps,
            (eps / budgeted_eps - 1.0) * 100.0,
        );
        assert_eq!(
            budgeted_events, blast_events,
            "an out-of-reach budget must not change what runs"
        );

        let mut best_e2e: Option<(u64, f64, SchedStats)> = None;
        for _ in 0..iters {
            let (events, wall, stats) = e2e_cubic(e2e_secs);
            if best_e2e.is_none() || wall < best_e2e.as_ref().unwrap().1 {
                best_e2e = Some((events, wall, stats));
            }
        }
        let (e2e_events, e2e_wall, e2e_sched) = best_e2e.unwrap();
        let e2e_eps = e2e_events as f64 / e2e_wall;
        let e2e_stale_ratio = e2e_sched.skipped_stale as f64 / e2e_sched.scheduled.max(1) as f64;
        println!(
            "engine/e2e_dumbbell_cubic                events: {e2e_events}  wall: {:.1} ms  \
             thrpt: {:.3e} events/s  ({:.1} ns/event)  speedup vs main: {:.2}x",
            e2e_wall * 1e3,
            e2e_eps,
            1e9 / e2e_eps,
            e2e_eps / BASELINE_E2E_EPS,
        );
        println!(
            "engine/e2e_dumbbell_cubic sched          peak pending: {}  overflowed: {}  \
             stale skipped: {} ({:.2}% of scheduled)",
            e2e_sched.peak_pending,
            e2e_sched.overflowed,
            e2e_sched.skipped_stale,
            e2e_stale_ratio * 100.0,
        );

        if !quick {
            // Ratios print in scientific notation (`{:e}` — valid JSON):
            // fixed 5-decimal formatting used to round small nonzero
            // ratios down to a misleading literal `0.00000`.
            let json = format!(
                "{{\n  \"blast_multihop\": {{\n    \"events\": {blast_events},\n    \
                 \"wall_ms\": {:.3},\n    \"events_per_sec\": {eps:.1},\n    \
                 \"ns_per_event\": {:.2},\n    \"speedup_vs_main\": {:.3},\n    \
                 \"peak_pending\": {},\n    \"overflowed\": {},\n    \
                 \"stale_skip_ratio\": {stale_ratio:e}\n  }},\n  \
                 \"budgeted_blast_multihop\": {{\n    \"events\": {budgeted_events},\n    \
                 \"wall_ms\": {:.3},\n    \"events_per_sec\": {budgeted_eps:.1},\n    \
                 \"overhead_vs_unbudgeted\": {:e}\n  }},\n  \
                 \"e2e_dumbbell_cubic\": {{\n    \"events\": {e2e_events},\n    \
                 \"wall_ms\": {:.3},\n    \"events_per_sec\": {e2e_eps:.1},\n    \
                 \"ns_per_event\": {:.2},\n    \"speedup_vs_main\": {:.3},\n    \
                 \"peak_pending\": {},\n    \"overflowed\": {},\n    \
                 \"stale_skip_ratio\": {e2e_stale_ratio:e}\n  }},\n  \
                 \"baseline_main\": {{\n    \"blast_events_per_sec\": {BASELINE_BLAST_EPS:.1},\n    \
                 \"e2e_events_per_sec\": {BASELINE_E2E_EPS:.1}\n  }}\n}}\n",
                blast_wall * 1e3,
                1e9 / eps,
                eps / BASELINE_BLAST_EPS,
                sched.peak_pending,
                sched.overflowed,
                budgeted_wall * 1e3,
                eps / budgeted_eps - 1.0,
                e2e_wall * 1e3,
                1e9 / e2e_eps,
                e2e_eps / BASELINE_E2E_EPS,
                e2e_sched.peak_pending,
                e2e_sched.overflowed,
            );
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
            match std::fs::write(path, json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
    }
}

criterion_group!(
    benches,
    bench_simulator,
    bench_wire,
    bench_store,
    bench_sketch,
    bench_whiskers
);

fn main() {
    // Cargo passes `--bench`; CI's smoke step passes `--test` for a
    // reduced-scale pass that still executes every engine scenario.
    let quick = std::env::args().any(|a| a == "--test");
    engine::run(quick);
    if !quick {
        benches();
    }
}
