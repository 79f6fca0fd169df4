//! End-to-end network chaos: a scripted link outage flows through the
//! whole §2.4 loop — senders experience it (RTO spiral, abort verdicts),
//! the telemetry plane exports what the receivers saw (sampled, lossy,
//! bounded), and the diagnosis plane detects the unreachability window
//! and localizes it to the failed link.
//!
//! Also pins the degradation guarantee: a fault confined to one
//! sender/receiver pair leaves every other pair's flow reports
//! bit-identical to the no-fault baseline.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use phi::core::runpool::RunPool;
use phi::diagnosis::{
    detect, localize, sliced_from_collector, DetectorConfig, Dimension, LocalizerConfig,
    SeasonalModel, SliceKey,
};
use phi::sim::engine::Simulator;
use phi::sim::faults::{ImpairmentPlan, LossModel};
use phi::sim::packet::{AgentId, LinkId, NodeId};
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

/// Four disjoint sender→receiver pairs; a fault on pair `FAULTY`'s
/// forward (data) link cannot touch the other three by construction, so
/// any cross-pair diff is an engine bug.
const PAIRS: usize = 4;
const FAULTY: usize = 2;
const RUN_SECS: u64 = 2400; // 40 one-minute buckets
const OUTAGE_DOWN: u64 = 1200; // minute 20
const OUTAGE_UP: u64 = 1800; // minute 30

struct Fan {
    sim: Simulator,
    senders: Vec<AgentId>,
    rx_nodes: Vec<NodeId>,
    fwd_links: Vec<LinkId>,
}

fn fan(faulty: bool) -> Fan {
    let mut b = TopologyBuilder::new();
    let mut ends = Vec::new();
    let mut fwd_links = Vec::new();
    let spine = b.add_node();
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
        // Spine links satisfy strong connectivity but never carry pair
        // traffic: the direct link is always the shorter path.
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
    if faulty {
        let plan =
            ImpairmentPlan::new().outage(Time::from_secs(OUTAGE_DOWN), Time::from_secs(OUTAGE_UP));
        sim.install_impairments(fwd_links[FAULTY], plan, &SeedRng::new(31337));
    }
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
    Fan {
        sim,
        senders,
        rx_nodes,
        fwd_links,
    }
}

fn reports_json(sim: &Simulator, sender: AgentId) -> String {
    let s = sim.agent_as::<TcpSender>(sender).unwrap();
    serde_json::to_string(&s.reports()).expect("reports serialize")
}

#[test]
fn outage_detected_localized_and_others_bit_identical() {
    // --- No-fault baseline (reports only). ---
    let mut baseline = fan(false);
    baseline.sim.run_until(Time::from_secs(RUN_SECS));
    let baseline_reports: Vec<String> = baseline
        .senders
        .iter()
        .map(|&s| reports_json(&baseline.sim, s))
        .collect();

    // --- Faulty run, traced. ---
    let mut faulty = fan(true);
    let (tracer, events) = SharedTraceCollector::new();
    faulty.sim.set_tracer(tracer);
    faulty.sim.run_until(Time::from_secs(RUN_SECS));

    // The extended conservation law closes under the outage.
    let census = faulty.sim.packet_census();
    assert!(census.conserved(), "census leaks packets: {census:?}");
    assert!(census.blackholed > 0, "the outage never ate a packet");
    let fs = faulty.sim.fault_stats(faulty.fwd_links[FAULTY]);
    assert_eq!(fs.edges, 2, "one down edge, one up edge");
    assert_eq!(fs.blackholed, census.blackholed);

    // Degradation guarantee: unaffected pairs are bit-identical to the
    // no-fault baseline, down to every timestamp and RTT sample.
    for (i, base) in baseline_reports.iter().enumerate() {
        let got = reports_json(&faulty.sim, faulty.senders[i]);
        if i == FAULTY {
            assert_ne!(&got, base, "the fault changed nothing");
        } else {
            assert_eq!(
                &got, base,
                "pair {i} shares no link with the fault but diverged"
            );
        }
    }
    // No baseline flow aborted; the affected sender aborted repeatedly,
    // then recovered after the heal.
    for (i, json) in baseline_reports.iter().enumerate() {
        assert!(
            !json.contains("\"aborted\":true"),
            "baseline pair {i} aborted"
        );
    }
    let affected = faulty
        .sim
        .agent_as::<TcpSender>(faulty.senders[FAULTY])
        .unwrap();
    let aborted = affected.reports().iter().filter(|r| r.aborted).count();
    assert!(aborted >= 5, "expected an abort spiral, got {aborted}");
    let healed = affected
        .reports()
        .iter()
        .filter(|r| !r.aborted && r.start > Time::from_secs(OUTAGE_UP))
        .count();
    assert!(healed >= 10, "sender never recovered after heal: {healed}");
    assert!(
        affected.reports().iter().all(|r| r.aborted
            || !(Time::from_secs(OUTAGE_DOWN + 30)..Time::from_secs(OUTAGE_UP)).contains(&r.end)),
        "no flow can complete mid-outage"
    );

    // --- §2.1 telemetry: receivers' deliveries → sampler → lossy
    //     exporter → wire codec → bounded collector. ---
    let minutes = (RUN_SECS / 60) as usize;
    let pair_of: HashMap<NodeId, usize> = faulty
        .rx_nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    // Count-based (router-style) sampling. The fan's synchronized
    // deterministic flows used to phase-lock with the shared-counter
    // sampler and alias entire pairs away; per-flow wheels (seeded FNV
    // phase per flow key) sample every pair at exactly 1-in-N of its
    // own packets, so deterministic mode is now safe here.
    let mut sampler = Sampler::new(2, Mode::Deterministic, SeedRng::new(7));
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
    assert!(exporter.lost() > 0, "the lossy exporter lost nothing");
    assert_eq!(collector.dropped_records(), 0, "bounds sized to fit");
    assert!(collector.record_count() > 1000, "telemetry starved");

    // --- §3.4 diagnosis: collector buckets → sliced series → seasonal
    //     baseline → detect → localize. ---
    let sliced = sliced_from_collector(&collector, 60, minutes, |id| SliceKey {
        service: 1,
        asn: 64_500 + u32::from(id.subnet.network().octets()[2]),
        metro: 1,
    });
    assert_eq!(sliced.slice_count(), PAIRS);
    let total = sliced.total();
    let model = SeasonalModel::fit(&total, 5, 20);
    let cfg = DetectorConfig {
        z_threshold: -2.5,
        min_run: 3,
        max_gap: 1,
    };
    let anomalies = detect(&total, &model, &cfg);
    assert_eq!(anomalies.len(), 1, "expected one event: {anomalies:?}");
    let event = anomalies[0];
    let (down_min, up_min) = ((OUTAGE_DOWN / 60) as usize, (OUTAGE_UP / 60) as usize);
    assert!(
        (down_min..down_min + 2).contains(&event.start_bin),
        "detector missed the onset: {event:?}"
    );
    assert!(
        (up_min - 2..up_min + 1).contains(&event.end_bin),
        "detector missed the heal: {event:?}"
    );
    assert!(
        event.deficit_fraction > 0.15,
        "deficit too small: {event:?}"
    );

    let loc =
        localize(&sliced, &event, 5, 20, &LocalizerConfig::default()).expect("event must localize");
    let expect_asn = 64_500 + FAULTY as u32;
    assert_eq!(
        loc.constraints,
        vec![(Dimension::Asn, expect_asn)],
        "localization blamed the wrong population"
    );
    assert!(loc.drop_fraction > 0.9, "{loc:?}");
    // Close the loop: the named AS maps back to exactly the failed link.
    let blamed_link = faulty.fwd_links[(loc.constraints[0].1 - 64_500) as usize];
    assert_eq!(blamed_link, faulty.fwd_links[FAULTY]);
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

/// One heavily impaired TCP transfer, digested down to a hash over its
/// complete packet trace (including blackhole/corrupt/duplicate events).
fn impaired_run_digest() -> (u64, u64, u64) {
    let mut b = TopologyBuilder::new();
    let a = b.add_node();
    let z = b.add_node();
    let (fwd, _rev) = b.add_duplex(a, z, 2_000_000, Dur::from_millis(10), Capacity::Packets(50));
    let mut sim = Simulator::new(b.build());
    let plan = ImpairmentPlan::new()
        .flap(
            Time::from_millis(500),
            Time::from_millis(2500),
            Dur::from_millis(100),
            Dur::from_millis(150),
        )
        .loss(LossModel::GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.2,
            good_loss: 0.005,
            bad_loss: 0.5,
        })
        .corrupt(0.02)
        .duplicate(0.05)
        .reorder(0.2, Dur::from_millis(10));
    sim.install_impairments(fwd, plan, &SeedRng::new(4242));
    let mut cfg = SenderConfig::new(z, 80, 10);
    cfg.max_rto = Dur::from_secs(1);
    cfg.max_consecutive_rtos = Some(8);
    let source = OnOffSource::new(
        OnOffConfig {
            mean_on_bytes: 40_000.0,
            mean_off_secs: 0.3,
            deterministic: true,
        },
        SeedRng::new(5),
    );
    sim.add_agent(
        a,
        10,
        Box::new(TcpSender::new(
            cfg,
            source,
            Box::new(|_| Box::new(Cubic::new(CubicParams::default()))),
            Box::new(NoHook),
        )),
    );
    sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
    let (tracer, events) = SharedTraceCollector::new();
    sim.set_tracer(tracer);
    sim.run_until(Time::from_secs(4));

    let census = sim.packet_census();
    assert!(census.conserved(), "census leaks packets: {census:?}");
    let digest = fnv1a(
        events
            .borrow()
            .iter()
            .flat_map(|ev| format!("{ev:?}\n").into_bytes()),
    );
    (digest, census.delivered, census.blackholed)
}

/// The impairment pipeline's behavior is pinned: any change to fault
/// draw order, edge scheduling, or engine integration fails loudly here.
#[test]
fn impaired_trace_digest_matches_pinned_golden() {
    let (digest, delivered, blackholed) = impaired_run_digest();
    println!("GOLDEN digest={digest:#018x} delivered={delivered} blackholed={blackholed}");
    const GOLDEN_DIGEST: u64 = 0xc0cc_418d_ab8e_e5e3;
    const GOLDEN_DELIVERED: u64 = 122;
    const GOLDEN_BLACKHOLED: u64 = 17;
    assert_eq!(digest, GOLDEN_DIGEST, "impairment trace diverged");
    assert_eq!(delivered, GOLDEN_DELIVERED);
    assert_eq!(blackholed, GOLDEN_BLACKHOLED);
}

/// The chaos plane honors the `PHI_JOBS` contract: fanning impaired runs
/// across worker threads changes nothing.
#[test]
fn impaired_digests_bit_identical_for_any_worker_count() {
    let serial = RunPool::serial().run(3, |_| impaired_run_digest());
    for workers in [2, 4] {
        let parallel = RunPool::new(workers).run(3, |_| impaired_run_digest());
        assert_eq!(parallel, serial, "{workers} workers changed a trace");
    }
}
