//! §2.4 closed loop on a *simulated* network: script a link outage,
//! watch senders spiral into RTO backoff and abort, export what the
//! receivers saw through a sampled + lossy IPFIX pipeline, and let the
//! provider-side diagnosis plane detect the unreachability window and
//! name the failed link — without ever being told about it.
//!
//! This is the companion to `outage_diagnosis`, which drives the same
//! detector from *synthetic* telemetry. Here every record traces back to
//! an individual simulated packet.
//!
//! Run with: `cargo run --release --example unreachability`

use std::collections::HashMap;
use std::net::Ipv4Addr;

use phi::diagnosis::{
    detect, localize, sliced_from_collector, DetectorConfig, LocalizerConfig, SeasonalModel,
    SliceKey,
};
use phi::sim::engine::Simulator;
use phi::sim::faults::ImpairmentPlan;
use phi::sim::queue::Capacity;
use phi::sim::time::{Dur, Time};
use phi::sim::topology::TopologyBuilder;
use phi::sim::trace::{SharedTraceCollector, TraceOp};
use phi::tcp::cubic::{Cubic, CubicParams};
use phi::tcp::hook::NoHook;
use phi::tcp::receiver::TcpReceiver;
use phi::tcp::sender::{SenderConfig, TcpSender};
use phi::telemetry::{Collector, FlowKey, LossyExporter, Mode, Sampler};
use phi::workload::{OnOffConfig, OnOffSource, SeedRng};

const PAIRS: usize = 4;
const FAULTY: usize = 2;
const RUN_SECS: u64 = 2400;
const DOWN: u64 = 1200;
const UP: u64 = 1800;

fn main() {
    // --- Build: four client populations, each behind its own access
    //     link; a spine keeps the graph connected but carries nothing. ---
    let mut b = TopologyBuilder::new();
    let spine = b.add_node();
    let mut ends = Vec::new();
    let mut fwd_links = Vec::new();
    for _ in 0..PAIRS {
        let a = b.add_node();
        let z = b.add_node();
        let (f, _r) = b.add_duplex(
            a,
            z,
            1_000_000,
            Dur::from_millis(10),
            Capacity::Packets(100),
        );
        b.add_duplex(
            spine,
            a,
            1_000_000,
            Dur::from_millis(50),
            Capacity::Packets(100),
        );
        ends.push((a, z));
        fwd_links.push(f);
    }
    let mut sim = Simulator::new(b.build());

    // --- Script the fault: pair 2's data link dies for minutes 20–30. ---
    let plan = ImpairmentPlan::new().outage(Time::from_secs(DOWN), Time::from_secs(UP));
    sim.install_impairments(fwd_links[FAULTY], plan, &SeedRng::new(31337));
    println!(
        "ground truth: link {:?} down {}s..{}s (minutes {}..{})\n",
        fwd_links[FAULTY],
        DOWN,
        UP,
        DOWN / 60,
        UP / 60
    );

    let mut senders = Vec::new();
    let mut rx_nodes = Vec::new();
    for (i, &(a, z)) in ends.iter().enumerate() {
        let mut cfg = SenderConfig::new(z, 80, 10);
        cfg.flow_id_base = (i as u64) << 32;
        cfg.max_rto = Dur::from_secs(2);
        cfg.max_consecutive_rtos = Some(6);
        let source = OnOffSource::new(
            OnOffConfig {
                mean_on_bytes: 10_000.0,
                mean_off_secs: 1.0,
                deterministic: true,
            },
            SeedRng::new(1000 + i as u64),
        );
        senders.push(sim.add_agent(
            a,
            10,
            Box::new(TcpSender::new(
                cfg,
                source,
                Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
                Box::new(NoHook),
            )),
        ));
        sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
        rx_nodes.push(z);
    }

    let (tracer, events) = SharedTraceCollector::new();
    sim.set_tracer(tracer);
    sim.run_until(Time::from_secs(RUN_SECS));

    // --- What the endpoints experienced. ---
    let census = sim.packet_census();
    println!(
        "packet census: {} injected, {} delivered, {} blackholed (conserved: {})",
        census.injected,
        census.delivered,
        census.blackholed,
        census.conserved()
    );
    for (i, &s) in senders.iter().enumerate() {
        let s = sim.agent_as::<TcpSender>(s).unwrap();
        let aborted = s.reports().iter().filter(|r| r.aborted).count();
        let restarts: u64 = s.reports().iter().map(|r| r.idle_restarts).sum();
        println!(
            "  sender {i}: {} flows, {} aborted (path unreachable), {} idle restarts",
            s.reports().len(),
            aborted,
            restarts
        );
    }

    // --- §2.1 export path: receiver deliveries → 1-in-2 sampler →
    //     lossy exporter (5% transit loss) → bounded collector. ---
    let pair_of: HashMap<_, _> = rx_nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let minutes = (RUN_SECS / 60) as usize;
    let mut sampler = Sampler::new(2, Mode::Probabilistic, SeedRng::new(7));
    let mut exporter = LossyExporter::new(4096, 0.05, SeedRng::new(8));
    let mut collector = Collector::bounded(PAIRS * minutes + 16, 4096);
    let mut submits = 0u64;
    for ev in events.borrow().iter() {
        if ev.op != TraceOp::Deliver || ev.is_ack {
            continue;
        }
        let Some(&pair) = ev.node.as_ref().and_then(|n| pair_of.get(n)) else {
            continue;
        };
        let key = FlowKey {
            src_ip: Ipv4Addr::new(10, 0, pair as u8, 1),
            dst_ip: Ipv4Addr::new(203, 0, pair as u8, 10),
            src_port: (ev.flow & 0xffff) as u16,
            dst_port: 443,
            proto: 6,
        };
        if let Some(rec) = sampler.observe(key, ev.at.as_nanos() / 1_000_000, ev.size) {
            exporter.submit(rec);
            submits += 1;
            if submits.is_multiple_of(1000) {
                exporter.flush_into(&mut collector);
            }
        }
    }
    exporter.flush_into(&mut collector);
    let (observed, sampled) = sampler.counters();
    println!(
        "\ntelemetry: {observed} packets observed, {sampled} sampled, {} lost in transit, \
         {} shed at the exporter, {} records collected ({} dropped at the collector)",
        exporter.lost(),
        exporter.dropped(),
        collector.record_count(),
        collector.dropped_records()
    );

    // --- §3.4 diagnosis: the provider sees only per-(/24, minute) flow
    //     counts; the address plan maps each /24 to a client AS. ---
    let sliced = sliced_from_collector(&collector, 60, minutes, |id| SliceKey {
        service: 1,
        asn: 64_500 + u32::from(id.subnet.network().octets()[2]),
        metro: 1,
    });
    let total = sliced.total();
    let model = SeasonalModel::fit(&total, 5, 20);
    let cfg = DetectorConfig {
        z_threshold: -2.5,
        min_run: 3,
        max_gap: 1,
    };
    let anomalies = detect(&total, &model, &cfg);
    println!("\ndetected {} unreachability event(s):", anomalies.len());
    for e in &anomalies {
        println!(
            "  minutes {}..{}, mean z {:.1}, {:.0}% of expected volume missing",
            e.start_bin,
            e.end_bin + 1,
            e.mean_z,
            e.deficit_fraction * 100.0
        );
        match localize(&sliced, e, 5, 20, &LocalizerConfig::default()) {
            Some(loc) => {
                for (dim, val) in &loc.constraints {
                    println!(
                        "  localized: {dim:?} = {val} ({:.0}% of the deficit, {:.0}% of its own volume gone)",
                        loc.deficit_share * 100.0,
                        loc.drop_fraction * 100.0
                    );
                }
                let blamed = fwd_links[(loc.constraints[0].1 - 64_500) as usize];
                println!(
                    "  verdict: AS{} maps back to link {blamed:?} — ground truth {}",
                    loc.constraints[0].1,
                    if blamed == fwd_links[FAULTY] {
                        "recovered"
                    } else {
                        "MISSED"
                    }
                );
            }
            None => println!("  (no slice qualifies — event is unlocalizable)"),
        }
    }
}
