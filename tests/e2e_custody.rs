//! The engine's handle-queueing drop-tail fast path and the public
//! by-value [`Discipline`] path are the same queue.
//!
//! `LinkQueue::drop_tail(c)` queues pool handles and never shows the
//! packet to anyone; `LinkQueue::custom(DropTail::new(c))` hands the
//! discipline a by-value copy while the engine keeps the packet's pool
//! slot — and the switch state riding on it — reserved until `take()`
//! gives the packet back. If that custody rule breaks (the slot is
//! released at `offer`, the returned packet is not written back, a
//! refused packet keeps its shared-buffer bytes), a run through the
//! public trait silently diverges from the fast path: PFC attribution is
//! lost, CE marks vanish, pauses never resume. These tests run whole
//! scenarios both ways and demand identical traces and ledgers.

use phi::sim::engine::{PacketCensus, SchedStats, Simulator};
use phi::sim::faults::{DownPolicy, ImpairmentPlan, LossModel};
use phi::sim::queue::{Capacity, DropTail, LinkQueue, ScriptedDrop};
use phi::sim::switch::{EcnSpec, PfcSpec, SwitchSpec, SwitchStats};
use phi::sim::time::{Dur, Time};
use phi::sim::topology::{dumbbell, Dumbbell, DumbbellSpec};
use phi::sim::trace::SharedTraceCollector;
use phi::tcp::{
    CcFactory, Cubic, CubicParams, Dctcp, DctcpParams, NoHook, SenderConfig, TcpReceiver, TcpSender,
};
use phi::workload::{
    fnv1a, FlowSource, IncastConfig, IncastSource, OnOffConfig, OnOffSource, SeedRng,
};

/// Everything two equivalent runs must agree on.
#[derive(Debug, PartialEq)]
struct Ledger {
    trace_digest: u64,
    trace_events: usize,
    census: PacketCensus,
    sched: SchedStats,
    switches: [SwitchStats; 2],
    /// `Simulator::switch_occupancy` of the two routers.
    switch_bytes: [(u64, u64); 2],
    bottleneck_drops: u64,
    live_packets: u64,
    end: Time,
}

/// How a scenario's link queues are built: the fast path, or the same
/// drop-tail behind the public trait.
type QueueOf = fn(Capacity) -> LinkQueue;

fn fast(c: Capacity) -> LinkQueue {
    LinkQueue::drop_tail(c)
}

fn by_value(c: Capacity) -> LinkQueue {
    LinkQueue::custom(DropTail::new(c))
}

fn attach_senders(
    sim: &mut Simulator,
    net: &Dumbbell,
    cc: fn() -> CcFactory,
    source: impl Fn(usize) -> FlowSource,
    max_flows: Option<u64>,
) {
    for i in 0..net.senders.len() {
        let mut cfg = SenderConfig::new(net.receivers[i], 80, 10);
        cfg.flow_id_base = (i as u64) << 32;
        cfg.max_flows = max_flows;
        let sender = TcpSender::new(cfg, source(i), cc(), Box::new(NoHook));
        sim.add_agent(net.senders[i], 10, Box::new(sender));
        sim.add_agent(net.receivers[i], 80, Box::new(TcpReceiver::new()));
    }
}

fn dctcp() -> CcFactory {
    Box::new(|_| Box::new(Dctcp::new(DctcpParams::default())))
}

fn cubic() -> CcFactory {
    Box::new(|_| Box::new(Cubic::new(CubicParams::default())))
}

fn run_and_close(mut sim: Simulator, net: &Dumbbell, until: Time) -> Ledger {
    let (tracer, events) = SharedTraceCollector::new();
    sim.set_tracer(tracer);
    sim.run_until(until);
    let census = sim.packet_census();
    assert!(census.conserved(), "census leaks packets: {census:?}");
    assert!(census.delivered > 0, "nothing simulated: {census:?}");
    let events = events.borrow();
    let trace_digest = events
        .iter()
        .fold(0, |h, ev| fnv1a(h, format!("{ev:?}").as_bytes()));
    Ledger {
        trace_digest,
        trace_events: events.len(),
        census,
        sched: sim.sched_stats(),
        switches: [
            sim.switch_stats(net.left_router),
            sim.switch_stats(net.right_router),
        ],
        switch_bytes: [
            sim.switch_occupancy(net.left_router),
            sim.switch_occupancy(net.right_router),
        ],
        bottleneck_drops: sim.link_stats(net.bottleneck).dropped,
        live_packets: sim.live_packets(),
        end: sim.now(),
    }
}

const POOL: u64 = 48_000;

/// A 12-way synchronized DCTCP fan-in through shared-buffer switches
/// with step ECN marking and PFC: admission marks packets in place,
/// attributes them to an ingress, and pauses the access links.
/// `bottleneck_queue` builds the switch egress the incast converges on.
fn pfc_incast(queue_of: QueueOf, bottleneck_queue: impl Fn(Capacity) -> LinkQueue) -> Ledger {
    let mut spec = DumbbellSpec::paper(12);
    spec.bottleneck_bps = 50_000_000;
    spec.access_bps = 400_000_000;
    spec.rtt = Dur::from_millis(2);
    let net = dumbbell(&spec);
    let routers = [net.left_router, net.right_router];
    let bottleneck = net.bottleneck;
    let mut sim = Simulator::with_disciplines(net.topology.clone(), |id, link| {
        // As in the experiment harness: behind a switch the shared pool
        // is the admission authority, so the inner FIFO gets its room.
        let capacity = if routers.contains(&link.from) {
            Capacity::Bytes(POOL)
        } else {
            link.capacity
        };
        if id == bottleneck {
            bottleneck_queue(capacity)
        } else {
            queue_of(capacity)
        }
    });
    let switch = SwitchSpec::shared(POOL)
        .with_alpha(8.0)
        .with_ecn(EcnSpec::step(9_000))
        .with_pfc(PfcSpec {
            xoff_bytes: 6_000,
            xon_bytes: 3_000,
            watchdog: Dur::from_millis(100),
        });
    for r in routers {
        sim.install_switch(r, switch);
    }
    let incast = IncastConfig {
        workers: 12,
        bytes_per_worker: 64 * 1024,
        rounds: 3,
        round_gap_secs: 0.005,
        jitter_secs: 0.0,
    };
    let root = SeedRng::new(7171);
    attach_senders(
        &mut sim,
        &net,
        dctcp,
        |i| IncastSource::new(incast, root.fork_indexed("worker", i as u64)).into(),
        Some(incast.rounds),
    );
    run_and_close(sim, &net, Time::MAX)
}

/// Cubic on/off pairs over a dumbbell whose bottleneck loses,
/// duplicates and reorders packets and goes down twice — once parking
/// nothing (Drop policy drains the queue through `take()`).
fn lossy_dumbbell(queue_of: QueueOf) -> Ledger {
    let mut spec = DumbbellSpec::paper(6);
    spec.bottleneck_bps = 8_000_000;
    spec.rtt = Dur::from_millis(40);
    spec.buffer_bdp_multiple = 0.5;
    let net = dumbbell(&spec);
    let mut sim = Simulator::with_disciplines(net.topology.clone(), |_, l| queue_of(l.capacity));
    let plan = ImpairmentPlan::new()
        .loss(LossModel::Bernoulli { p: 0.01 })
        .duplicate(0.02)
        .corrupt(0.005)
        .reorder(0.05, Dur::from_millis(3))
        .outage(Time::from_millis(900), Time::from_millis(1_000))
        .outage(Time::from_millis(2_400), Time::from_millis(2_450))
        .down_policy(DownPolicy::Drop);
    let root = SeedRng::new(99);
    sim.install_impairments(net.bottleneck, plan, &root);
    let workload = OnOffConfig {
        mean_on_bytes: 400_000.0,
        mean_off_secs: 0.1,
        deterministic: false,
    };
    attach_senders(
        &mut sim,
        &net,
        cubic,
        |i| OnOffSource::new(workload, root.fork_indexed("sender", i as u64)).into(),
        None,
    );
    run_and_close(sim, &net, Time::from_secs(4))
}

#[test]
fn pfc_incast_is_identical_through_the_public_discipline() {
    let fast_run = pfc_incast(fast, fast);
    let custom_run = pfc_incast(by_value, by_value);
    // The scenario must actually exercise what custody protects.
    let left = fast_run.switches[0];
    assert!(left.ecn_marked > 0, "no CE marks: {left:?}");
    assert!(left.pauses > 0, "no PFC pauses: {left:?}");
    assert_eq!(left.pauses, left.resumes, "{left:?}");
    assert_eq!(fast_run.live_packets, 0, "{:?}", fast_run.census);
    assert_eq!(fast_run.switch_bytes, [(0, 0); 2]);
    assert_eq!(fast_run, custom_run);
}

#[test]
fn lossy_dumbbell_is_identical_through_the_public_discipline() {
    let fast_run = lossy_dumbbell(fast);
    let custom_run = lossy_dumbbell(by_value);
    let c = fast_run.census;
    assert!(
        c.dropped > 0 && c.blackholed > 0 && c.duplicated > 0,
        "{c:?}"
    );
    assert!(c.outstanding() > 0, "stop mid-flight: {c:?}");
    assert_eq!(fast_run.live_packets, c.outstanding());
    assert_eq!(fast_run, custom_run);
}

#[test]
fn scripted_drops_on_a_pfc_egress_release_what_admission_took() {
    // The discipline refuses packets the shared buffer already admitted
    // and attributed to an ingress: each refusal must hand back exactly
    // those bytes, or the ingress stays charged and its pause never
    // resumes.
    let script: Vec<(u64, u64, u32)> = (0..12u64)
        .flat_map(|worker| [(worker << 32, 3, 1), (worker << 32, 20, 2)])
        .collect();
    let run = pfc_incast(fast, |c| {
        LinkQueue::custom(ScriptedDrop::new(DropTail::new(c), &script))
    });
    let left = run.switches[0];
    assert!(left.pauses > 0, "{left:?}");
    assert_eq!(left.pauses, left.resumes, "{left:?}");
    assert_eq!(run.switches[1].pauses, run.switches[1].resumes);
    assert_eq!(left.watchdog_fires, 0, "{left:?}");
    // The inner FIFO has the whole pool's room, so every drop on the
    // bottleneck is a shared-buffer rejection or a scripted refusal —
    // and every scripted refusal (12 workers × 3) happened.
    assert_eq!(run.bottleneck_drops - left.shared_drops, 36, "{left:?}");
    assert_eq!(run.live_packets, 0, "{:?}", run.census);
    assert_eq!(run.switch_bytes, [(0, 0); 2]);
}
