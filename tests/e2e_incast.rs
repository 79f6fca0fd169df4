//! End-to-end datacenter backpressure tests: incast collapse on a
//! shared-buffer switch, the DCTCP remedy, and PFC pause-storm recovery.
//!
//! Three acceptance properties for the backpressure plane:
//!
//! 1. **Incast collapse & the ECN remedy** — a synchronized fan-in
//!    through a small shared buffer collapses Cubic (pool rejections →
//!    synchronized loss → timeout-bound goodput) while DCTCP, fed the
//!    same switch's ECN marks, sustains at least **2×** Cubic's goodput.
//! 2. **Pause-storm watchdog** — a cyclic buffer dependency across a
//!    three-switch ring deadlocks a PFC fabric whose watchdog is
//!    effectively disabled; with a real watchdog period the cycle is
//!    detected and broken within a bounded sim-time window, the census
//!    still closes, and every destroyed packet is accounted as
//!    `pfc_dropped`.
//! 3. **Bit-identity** — all of it is deterministic: the harness run is
//!    fingerprint-identical for PHI_JOBS ∈ {1, 4}.

use std::any::Any;

use phi::core::harness::{
    provision_cubic, provision_dctcp, run_experiment, run_repeated_on, ExperimentSpec,
};
use phi::core::{RunPool, RunResult};
use phi::sim::engine::{packet_to, Agent, Ctx, PacketCensus, Simulator};
use phi::sim::packet::{FlowId, NodeId, Packet};
use phi::sim::queue::Capacity;
use phi::sim::switch::{EcnSpec, PfcSpec, SwitchSpec, SwitchStats};
use phi::sim::time::{Dur, Time};
use phi::sim::topology::{LinkSpec, TopologyBuilder};
use phi::tcp::cubic::CubicParams;
use phi::tcp::dctcp::DctcpParams;
use phi::workload::IncastConfig;

// ---------------------------------------------------------------------------
// (1) Incast collapse: Cubic vs DCTCP through the same shared buffer.
// ---------------------------------------------------------------------------

/// A 12-way synchronized fan-in through a shallow shared-buffer switch:
/// datacenter-ish rates and RTT, a pool a couple dozen packets deep, and
/// a DCTCP-style step marking threshold well below it.
fn incast_spec() -> ExperimentSpec {
    let workers = 12u32;
    let mut spec = ExperimentSpec::new(
        workers as usize,
        // Placeholder on/off config; the incast source replaces it.
        phi::workload::OnOffConfig::fig2(),
        Dur::from_secs(10),
        7171,
    );
    spec.dumbbell.bottleneck_bps = 50_000_000;
    spec.dumbbell.access_bps = 400_000_000;
    spec.dumbbell.rtt = Dur::from_millis(2);
    // One perfectly synchronized 64 KB-per-worker burst: the cohort
    // slow-starts in lockstep into the shallow pool, synchronized drops
    // strand flow tails with too few trailing segments for dup-ACK
    // recovery, and the victims eat (200 ms min) retransmission
    // timeouts while the bottleneck sits idle — the classic incast
    // failure mode.
    let incast = IncastConfig {
        workers,
        bytes_per_worker: 64 * 1024,
        rounds: 1,
        round_gap_secs: 0.0,
        jitter_secs: 0.0,
    };
    spec.with_switch(
        SwitchSpec::shared(48_000)
            .with_alpha(8.0)
            .with_ecn(EcnSpec::step(9_000)),
    )
    .with_incast(incast)
}

/// Incast goodput at the collapse point: total bytes over the fan-in's
/// makespan (first start to last completion). Stragglers stuck in RTO
/// dominate the makespan, so timeout collapse shows up here even when
/// early finishers post high per-flow rates.
fn goodput_mbps(r: &RunResult) -> f64 {
    let reports = r.per_sender.iter().flatten();
    let bytes: u64 = reports.clone().map(|f| f.bytes).sum();
    let t0 = reports.clone().map(|f| f.start).min().expect("flows ran");
    let t1 = reports.map(|f| f.end).max().expect("flows ran");
    bytes as f64 * 8.0 / (t1 - t0).as_secs_f64() / 1e6
}

#[test]
fn dctcp_sustains_2x_cubic_goodput_at_the_collapse_point() {
    let spec = incast_spec();

    let cubic = run_experiment(&spec, provision_cubic(CubicParams::default()));
    let dctcp = run_experiment(&spec, provision_dctcp(DctcpParams::default()));

    let [cl, cr] = cubic.switch_stats.expect("switch installed");
    let [dl, dr] = dctcp.switch_stats.expect("switch installed");

    // Cubic is not ECN-capable: it collapses the classic way, by
    // overflowing the shared pool. Not a single mark, plenty of drops.
    assert_eq!(cl.ecn_marked + cr.ecn_marked, 0, "Cubic must not be marked");
    assert!(
        cl.shared_drops > 0,
        "the fan-in must overflow the shared pool for Cubic: {cl:?}"
    );

    // DCTCP rides the marks instead of the drops.
    assert!(
        dl.ecn_marked > 0,
        "DCTCP must see ECN marks at the hot egress: {dl:?}"
    );
    assert!(dl.admitted > 0 && dr.admitted > 0, "both routers admit");

    // Both complete flows, but Cubic's victims strand the fan-in in
    // timeout territory while DCTCP finishes at line rate: ≥ 2×
    // makespan goodput at the collapse point (observed ≈ 3.9×).
    assert!(
        cubic.metrics.flows_completed > 0,
        "cubic: {:?}",
        cubic.metrics
    );
    assert!(
        dctcp.metrics.flows_completed > 0,
        "dctcp: {:?}",
        dctcp.metrics
    );
    let (c, d) = (goodput_mbps(&cubic), goodput_mbps(&dctcp));
    assert!(
        d >= 2.0 * c,
        "DCTCP must sustain ≥2× Cubic goodput under incast: dctcp {d:.3} Mbit/s \
         vs cubic {c:.3} Mbit/s"
    );
}

// ---------------------------------------------------------------------------
// (2) PFC pause storm: a cyclic buffer dependency on a 3-switch ring.
// ---------------------------------------------------------------------------

/// Fires `count` packets at a peer, one per `gap`.
struct Blaster {
    peer: NodeId,
    flow: FlowId,
    gap: Dur,
    remaining: u32,
}

impl Agent for Blaster {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(Dur::ZERO, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        ctx.send(packet_to(self.peer, 80, 1, self.flow, 1_000));
        ctx.set_timer_after(self.gap, 0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts arrivals.
#[derive(Default)]
struct Sink {
    got: u64,
}

impl Agent for Sink {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.got += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Everything observable about one triangle run.
struct TriangleRun {
    census: PacketCensus,
    stats: [SwitchStats; 3],
    delivered_per_sink: [u64; 3],
}

/// A three-switch one-way ring (s0→s1→s2→s0) with one host per switch
/// and three 2-ring-hop flows chasing each other around it:
/// h0→h2, h1→h0, h2→h1. Every ring link carries one flow that
/// terminates at the next switch's host and one that continues — the
/// textbook cyclic buffer dependency. PFC per ingress with `watchdog`
/// as the pause-storm period; a huge period approximates "no watchdog".
fn triangle(watchdog: Dur, horizon: Time) -> TriangleRun {
    let mut b = TopologyBuilder::new();
    let s: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
    let h: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
    // Slow one-way ring: the only route between non-adjacent hosts.
    for i in 0..3 {
        b.add_link(LinkSpec::new(
            s[i],
            s[(i + 1) % 3],
            5_000_000,
            Dur::from_millis(1),
            Capacity::Packets(10_000),
        ));
    }
    // Fast host access links (the deep host-side queue absorbs the
    // blaster while its uplink is paused).
    for i in 0..3 {
        b.add_duplex(
            h[i],
            s[i],
            1_000_000_000,
            Dur::from_micros(10),
            Capacity::Packets(10_000),
        );
    }
    let mut sim = Simulator::new(b.build());
    let spec = SwitchSpec::shared(400_000).with_pfc(PfcSpec {
        xoff_bytes: 25_000,
        xon_bytes: 10_000,
        watchdog,
    });
    for &sw in &s {
        sim.install_switch(sw, spec);
    }
    // Flow i: h[i] → h[(i + 2) % 3], i.e. two ring hops.
    let mut sinks = Vec::new();
    for i in 0..3usize {
        sim.add_agent(
            h[i],
            1,
            Box::new(Blaster {
                peer: h[(i + 2) % 3],
                flow: FlowId(i as u64 + 1),
                gap: Dur::from_micros(500),
                remaining: 400,
            }),
        );
        sinks.push(sim.add_agent(h[i], 80, Box::new(Sink::default())));
    }
    sim.run_until(horizon);
    let census = sim.packet_census();
    let stats = [
        sim.switch_stats(s[0]),
        sim.switch_stats(s[1]),
        sim.switch_stats(s[2]),
    ];
    let delivered_per_sink = [
        sim.agent_as::<Sink>(sinks[0]).expect("sink").got,
        sim.agent_as::<Sink>(sinks[1]).expect("sink").got,
        sim.agent_as::<Sink>(sinks[2]).expect("sink").got,
    ];
    TriangleRun {
        census,
        stats,
        delivered_per_sink,
    }
}

const HORIZON: Time = Time::from_secs(20);

#[test]
fn pfc_pause_cycle_deadlocks_without_the_watchdog() {
    // Watchdog period beyond the horizon ≈ no watchdog: the cyclic
    // dependency forms and the fabric wedges — packets still queued at
    // the horizon, nothing draining, not one watchdog fire.
    let wedged = triangle(Dur::from_secs(3_600), HORIZON);
    let pauses: u64 = wedged.stats.iter().map(|s| s.pauses).sum();
    let fires: u64 = wedged.stats.iter().map(|s| s.watchdog_fires).sum();
    assert!(
        pauses >= 3,
        "every switch must have paused an ingress: {:?}",
        wedged.stats
    );
    assert_eq!(fires, 0, "disabled watchdog must never fire");
    assert!(
        wedged.census.queued > 0,
        "the pause cycle must wedge traffic in queues: {:?}",
        wedged.census
    );
    assert!(wedged.census.paused_ns > 0, "links must have sat paused");
    assert!(wedged.census.conserved(), "census: {:?}", wedged.census);
}

#[test]
fn pfc_watchdog_breaks_the_pause_cycle_within_a_bounded_window() {
    let broken = triangle(Dur::from_millis(50), HORIZON);
    let fires: u64 = broken.stats.iter().map(|s| s.watchdog_fires).sum();
    let pauses: u64 = broken.stats.iter().map(|s| s.pauses).sum();
    let resumes: u64 = broken.stats.iter().map(|s| s.resumes).sum();
    let pfc_dropped: u64 = broken.stats.iter().map(|s| s.pfc_dropped).sum();

    assert!(pauses > 0, "the storm must form first: {:?}", broken.stats);
    assert!(
        fires >= 1,
        "the watchdog must detect the sustained pause: {:?}",
        broken.stats
    );
    assert!(
        pfc_dropped > 0,
        "breaking the cycle costs a census-accounted drain: {:?}",
        broken.stats
    );
    assert!(resumes > 0, "drained ingresses must force-resume");

    // Within the bounded window every injected packet reached a
    // terminal state: the fabric finished the workload instead of
    // wedging.
    assert_eq!(broken.census.queued, 0, "census: {:?}", broken.census);
    assert_eq!(broken.census.in_flight, 0, "census: {:?}", broken.census);
    assert!(broken.census.conserved(), "census: {:?}", broken.census);
    assert_eq!(
        broken.census.pfc_dropped, pfc_dropped,
        "census and per-switch accounting must agree"
    );
    assert!(broken.census.paused_ns > 0, "links must have sat paused");

    // And it made real forward progress. The storm re-forms and is
    // re-broken repeatedly while the blasters inject, so a substantial
    // share of the 1200 packets is drained — but unlike the wedged
    // fabric (27 delivered, everything else stuck), every sink keeps
    // receiving throughout (observed 119 per 400-packet flow, ≈ 13× the
    // wedged run's total).
    assert!(
        broken.census.delivered >= 300,
        "the fabric must keep moving traffic between storms: {:?}",
        broken.census
    );
    for (i, got) in broken.delivered_per_sink.iter().enumerate() {
        assert!(
            *got >= 100,
            "sink {i} must keep receiving across storm cycles, got {got} \
             (census {:?})",
            broken.census
        );
    }
}

// ---------------------------------------------------------------------------
// (3) Harness bit-identity: PHI_JOBS ∈ {1, 4}.
// ---------------------------------------------------------------------------

/// Serialize everything observable about a harness run (including the
/// per-switch backpressure stats). JSON equality is byte equality.
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(&(
        &r.metrics,
        &r.per_sender,
        &r.partials,
        r.events,
        &r.switch_stats,
    ))
    .expect("run result serializes")
}

#[test]
fn incast_run_is_bit_identical_for_jobs_1_and_4() {
    let spec = incast_spec();
    let serial = run_repeated_on(
        &RunPool::serial(),
        &spec,
        3,
        provision_dctcp(DctcpParams::default()),
    );
    let pooled = run_repeated_on(
        &RunPool::new(4),
        &spec,
        3,
        provision_dctcp(DctcpParams::default()),
    );
    assert_eq!(serial.len(), pooled.len());
    for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
        assert!(s.metrics.flows_completed > 0, "run {i} must carry load");
        assert_eq!(
            fingerprint(s),
            fingerprint(p),
            "run {i} diverged between PHI_JOBS=1 and PHI_JOBS=4"
        );
    }
}
