//! MB — Criterion micro-benchmarks of the hot paths.
//!
//! These measure the implementation itself (not the paper's results):
//! the context-server codec and store, the quantile sketch, and the
//! whisker-tree lookup — the operations that bound how busy a context
//! server can get.
//!
//! Sustained engine throughput is `phi-benchmark`'s job (`--workload
//! forward_multihop|dumbbell_cubic_phi`); the one engine pair kept here
//! is the pop loop with its budget checks armed against unarmed, which
//! has no twin there. `--test` checks that pair runs the same events and
//! stops.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use std::any::Any;
use std::rc::Rc;

use phi_core::context::{ContextStore, FlowSummary, PathKey, StoreConfig};
use phi_core::wire::{encode, Decoder, Message, MAX_BATCH_ITEMS};
use phi_predict::LogHistogram;
use phi_remy::{Action, WhiskerTree};
use phi_sim::engine::{packet_to, Agent, Ctx, RunBudget, Simulator};
use phi_sim::packet::{FlowId, NodeId, Packet};
use phi_sim::queue::Capacity;
use phi_sim::time::Dur;
use phi_sim::topology::{parking_lot, ParkingLotSpec};
use phi_workload::SeedRng;

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

/// Fires a timer every `gap`, sending one packet per firing — the
/// Deliver/Wake/Timer mix the engine sees from any paced source.
struct Pump {
    peer: NodeId,
    remaining: u32,
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
            let mut p = packet_to(self.peer, 80, 10, self.flow, 1000);
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

/// Swallows deliveries.
struct Drain;

impl Agent for Drain {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Multihop blast: a 4-hop parking lot with the long-path pair plus
/// every cross pair pumping packets through the backbone; returns the
/// events processed. With `budgeted`, a run budget is installed but set
/// far out of reach: every event pays the pop loop's armed event-count
/// and wall-clock checks without any cap ever firing, so (budgeted row ÷
/// un-budgeted row) is exactly the supervision overhead a budget-capped
/// sweep pays.
fn blast(packets_per_source: u32, budgeted: bool) -> u64 {
    let lot = parking_lot(&ParkingLotSpec {
        hops: 4,
        backbone_bps: 50_000_000,
        hop_delay: Dur::from_millis(1),
        capacity: Capacity::Packets(100),
        access_bps: 1_000_000_000,
    });
    let mut sim = Simulator::new(lot.topology.clone());
    let pairs = std::iter::once(lot.long_path).chain(lot.cross.iter().copied());
    for (i, (src, dst)) in pairs.enumerate() {
        let pump = Pump {
            peer: dst,
            remaining: packets_per_source,
            gap: Dur::from_micros(20),
            flow: FlowId(i as u64),
        };
        sim.add_agent(src, 10, Box::new(pump));
        sim.add_agent(dst, 80, Box::new(Drain));
    }
    if budgeted {
        let mut budget = RunBudget::events(u64::MAX);
        budget.max_wall_ms = Some(u64::MAX);
        sim.set_budget(budget);
    }
    sim.run_to_completion();
    assert!(sim.termination().is_none(), "out-of-reach budget fired");
    sim.events_processed()
}

fn bench_budget(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("blast_multihop", |b| b.iter(|| blast(25_000, false)));
    g.bench_function("blast_multihop_budgeted", |b| {
        b.iter(|| blast(25_000, true))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_budget,
    bench_wire,
    bench_store,
    bench_sketch,
    bench_whiskers
);

fn main() {
    // Cargo passes `--bench`; CI's smoke step passes `--test`, which
    // stops after the check.
    assert_eq!(
        blast(2_000, true),
        blast(2_000, false),
        "an out-of-reach budget must not change what runs"
    );
    if !std::env::args().any(|a| a == "--test") {
        benches();
    }
}
