//! The three simulator workloads, each as a fixed scenario ("unit") that
//! is run untraced through the program's public entry points, or rebuilt
//! from public pieces with timing shims at every boundary.
//!
//! The seed feeds only input generation: pump gaps and phases
//! (`forward_multihop`), the on/off flow draws (`dumbbell_cubic_phi`),
//! the per-round start jitter (`incast_dctcp`).

use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use phi_core::context::{ContextStore, StoreConfig};
use phi_core::harness::{
    provision_cubic_phi, provision_dctcp, run_experiment, ExperimentSpec, ProvisionCtx,
    Provisioned, DUMBBELL_PATH,
};
use phi_core::hooks::shared;
use phi_core::policy::PolicyTable;
use phi_sim::engine::{packet_to, Agent, Ctx, PacketCensus, SchedStats, Simulator};
use phi_sim::packet::{FlowId, NodeId, Packet};
use phi_sim::queue::{Capacity, LinkQueue};
use phi_sim::switch::{EcnSpec, PfcSpec, SwitchSpec, SwitchStats};
use phi_sim::time::{Dur, Time};
use phi_sim::topology::{dumbbell, parking_lot, LinkSpec, ParkingLotSpec};
use phi_tcp::dctcp::DctcpParams;
use phi_tcp::hook::SessionHook;
use phi_tcp::receiver::TcpReceiver;
use phi_tcp::report::{FlowReport, RunMetrics};
use phi_tcp::sender::{CcFactory, SenderConfig, TcpSender};
use phi_workload::{FlowSource, IncastConfig, IncastSource, OnOffConfig, OnOffSource, SeedRng};

use crate::shims::{TimedAgent, TimedCc, TimedDiscipline, TimedHook, TimedTracer, TraceCounts};
use crate::span::{self, Call, Layer};
use crate::stats::Digest;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Bare forwarding on a 4-hop parking lot: engine + scheduler + queue.
    Forward,
    /// The paper's scenario: 64 Cubic-Phi pairs over a lossy dumbbell.
    Dumbbell,
    /// 32-way DCTCP incast through a shared-buffer switch with ECN + PFC.
    Incast,
}

/// Work in one unit (scale 1.0), sized to ≈ 0.13 s of host time on the
/// 2-core calibration box so that a 10 s run times ≈ 75 of them: the
/// fastest unit is only a steady statistic when there are many to pick
/// from. Traced runs use one long scenario (scale = `--seconds`).
const FORWARD_PACKETS_PER_SOURCE: f64 = 34_000.0;
const DUMBBELL_SIM_SECS: f64 = 12.0;
const INCAST_SIM_SECS: f64 = 16.0;

/// One scenario: a workload, the seed its inputs are generated from, and
/// a length multiplier (1.0 = one full unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    pub kind: SimKind,
    pub seed: u64,
    pub scale: f64,
}

/// Everything one run of a scenario produced. Every field except
/// `wall_s` is exact: it repeats bit for bit for the same scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub wall_s: f64,
    /// Fixed work the scenario represents: packets injected (forward) or
    /// simulated seconds (dumbbell, incast).
    pub work: f64,
    pub events: u64,
    pub sched: SchedStats,
    pub digest: u64,
    pub packets: u64,
    pub drop_ratio: f64,
    pub flows_completed: u64,
    pub segments: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub hook_lookups: u64,
    pub hook_reports: u64,
    pub switch: SwitchStats,
    pub utilization: f64,
    pub queue_wait_ms: f64,
    pub goodput_mbps: f64,
    /// Only where the benchmark owns the `Simulator` (forward, and any
    /// rebuilt run); `run_experiment` does not expose one.
    pub census: Option<PacketCensus>,
    pub terminated: bool,
    /// Traced runs only: deliveries and drops the packet tracer counted.
    pub traced: Option<(u64, u64)>,
}

impl Scenario {
    /// Run untraced through the public entry point (`Simulator` for
    /// forward, `run_experiment` for the other two).
    pub fn run(&self) -> SimOutcome {
        match self.kind {
            SimKind::Forward => run_forward(self, false),
            SimKind::Dumbbell | SimKind::Incast => {
                let spec = self.experiment_spec();
                let t0 = Instant::now();
                let r = match self.kind {
                    SimKind::Dumbbell => {
                        run_experiment(&spec, provision_cubic_phi(PolicyTable::reference()))
                    }
                    _ => run_experiment(&spec, provision_dctcp(DctcpParams::default())),
                };
                let wall_s = t0.elapsed().as_secs_f64();
                let (hook_lookups, hook_reports) = r.store.traffic_counters(DUMBBELL_PATH);
                summarize_experiment(ExperimentData {
                    wall_s,
                    sim_secs: spec.duration.as_secs_f64(),
                    metrics: r.metrics,
                    per_sender: r.per_sender,
                    partials: r.partials,
                    events: r.events,
                    sched: r.sched,
                    switch: r.switch_stats,
                    hook_lookups,
                    hook_reports,
                    census: None,
                    terminated: r.terminated.is_some(),
                    traced: None,
                })
            }
        }
    }

    /// Run the same scenario rebuilt from public pieces with a timing
    /// shim at every boundary. Call between `span::begin` and `span::end`.
    pub fn run_traced(&self) -> SimOutcome {
        match self.kind {
            SimKind::Forward => run_forward(self, true),
            SimKind::Dumbbell | SimKind::Incast => run_experiment_traced(self),
        }
    }

    fn experiment_spec(&self) -> ExperimentSpec {
        match self.kind {
            SimKind::Dumbbell => {
                let mut spec = ExperimentSpec::new(
                    64,
                    OnOffConfig {
                        mean_on_bytes: 100_000.0,
                        mean_off_secs: 0.1,
                        deterministic: false,
                    },
                    Dur::from_secs_f64(DUMBBELL_SIM_SECS * self.scale),
                    self.seed,
                );
                spec.dumbbell.bottleneck_bps = 100_000_000;
                spec.dumbbell.rtt = Dur::from_millis(40);
                // Half a BDP of buffer: ≈ 2 % loss, so SACK recovery and
                // RTOs run instead of a loss-free fast path.
                spec.dumbbell.buffer_bdp_multiple = 0.5;
                spec.store = StoreConfig {
                    capacity_bps: Some(spec.dumbbell.bottleneck_bps as f64),
                    ..StoreConfig::default()
                };
                spec
            }
            SimKind::Incast => {
                let sim_secs = INCAST_SIM_SECS * self.scale;
                let mut spec = ExperimentSpec::new(
                    32,
                    OnOffConfig::fig2(), // replaced by the incast source
                    Dur::from_secs_f64(sim_secs),
                    self.seed,
                );
                spec.dumbbell.bottleneck_bps = 50_000_000;
                spec.dumbbell.access_bps = 400_000_000;
                spec.dumbbell.rtt = Dur::from_millis(2);
                let incast = IncastConfig {
                    workers: 32,
                    bytes_per_worker: 64 * 1024,
                    // A round takes ≈ 0.35 s, so the simulated duration,
                    // not the round count, ends the run.
                    rounds: (sim_secs * 4.0).ceil() as u64 + 1,
                    round_gap_secs: 0.01,
                    jitter_secs: 0.0005,
                };
                spec.with_switch(
                    SwitchSpec::shared(48_000)
                        .with_alpha(8.0)
                        .with_ecn(EcnSpec::step(9_000))
                        // Low enough that a synchronized burst pauses its
                        // ingress; the watchdog only has to exist.
                        .with_pfc(PfcSpec {
                            xoff_bytes: 3_000,
                            xon_bytes: 1_500,
                            watchdog: Dur::from_millis(100),
                        }),
                )
                .with_incast(incast)
            }
            SimKind::Forward => unreachable!("forward_multihop has no ExperimentSpec"),
        }
    }
}

// --- forward_multihop ---------------------------------------------------

/// Fires a timer every `gap`, sending one packet per firing.
struct Pump {
    peer: NodeId,
    remaining: u32,
    gap: Dur,
    phase: Dur,
    flow: FlowId,
}

impl Agent for Pump {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(self.phase, 0);
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

/// The long path plus every cross pair pump 1 000-byte packets through a
/// 4-hop, 50 Mbit/s parking lot at ≈ 108 % of backbone capacity. Pump
/// and drain are the benchmark's own and are deliberately *not* wrapped:
/// all they do is call into the engine, so their time is engine time.
fn run_forward(sc: &Scenario, traced: bool) -> SimOutcome {
    let lot = parking_lot(&ParkingLotSpec {
        hops: 4,
        backbone_bps: 50_000_000,
        hop_delay: Dur::from_millis(1),
        capacity: Capacity::Packets(100),
        access_bps: 1_000_000_000,
    });
    let counts = Arc::new(TraceCounts::default());
    let mut sim = if traced {
        let mut sim = Simulator::with_disciplines(lot.topology.clone(), |_, l: &LinkSpec| {
            LinkQueue::custom(TimedDiscipline::drop_tail(l.capacity))
        });
        sim.set_tracer(Box::new(TimedTracer(counts.clone())));
        sim
    } else {
        Simulator::new(lot.topology.clone())
    };

    let packets = (FORWARD_PACKETS_PER_SOURCE * sc.scale).ceil().max(1.0) as u32;
    let root = SeedRng::new(sc.seed);
    let mut pairs = vec![lot.long_path];
    pairs.extend(lot.cross.iter().copied());
    let mut drains = Vec::with_capacity(pairs.len());
    for (i, (src, dst)) in pairs.iter().enumerate() {
        // Two sources share each backbone link, so 295 µs between
        // 1 000-byte packets offers ≈ 54 Mbit/s to a 50 Mbit/s link. The
        // ± 1 % keeps the work per packet the same across seeds; which
        // source loses at a full queue still depends on the phases, and
        // with it how much load reaches the later hops (4.4–7.4 % of all
        // packets dropped over sixty seeds).
        let mut rng = root.fork_indexed("pump", i as u64);
        let gap_ns = rng.range_u64(292_050, 297_951);
        let phase_ns = rng.range_u64(0, gap_ns);
        sim.add_agent(
            *src,
            10,
            Box::new(Pump {
                peer: *dst,
                remaining: packets,
                gap: Dur::from_nanos(gap_ns),
                phase: Dur::from_nanos(phase_ns),
                flow: FlowId(i as u64),
            }),
        );
        drains.push(sim.add_agent(*dst, 80, Box::<Drain>::default()));
    }

    let t0 = Instant::now();
    let end = if traced {
        span::span(Layer::Engine, Call::Run, || sim.run_to_completion())
    } else {
        sim.run_to_completion()
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let census = sim.packet_census();
    let sched = sim.sched_stats();
    let elapsed = end.saturating_since(Time::ZERO);
    let mut d = Digest::default();
    d.u64(sim.events_processed()).u64(end.as_nanos());
    digest_sched(&mut d, &sched);
    for v in [
        census.injected,
        census.delivered,
        census.dropped,
        census.undeliverable,
        census.queued,
        census.in_flight,
    ] {
        d.u64(v);
    }
    for &id in &drains {
        d.u64(sim.agent_as::<Drain>(id).expect("drain agent").received);
    }
    let (mut util, mut wait) = (0.0, 0.0);
    for &l in &lot.backbone {
        let ls = sim.link_stats(l);
        d.u64(ls.transmitted)
            .u64(ls.dropped)
            .u64(ls.busy.as_nanos());
        util += ls.utilization(elapsed) / lot.backbone.len() as f64;
        wait += ls.mean_queue_wait() * 1e3 / lot.backbone.len() as f64;
    }
    let goodput_mbps = census.delivered as f64 * 8_000.0 / elapsed.as_secs_f64().max(1e-12) / 1e6;
    d.f64(util).f64(wait).f64(goodput_mbps);

    SimOutcome {
        wall_s,
        work: census.injected as f64,
        events: sim.events_processed(),
        sched,
        digest: d.value(),
        packets: census.injected,
        drop_ratio: census.dropped as f64 / census.injected.max(1) as f64,
        flows_completed: 0,
        segments: 0,
        retransmits: 0,
        timeouts: 0,
        hook_lookups: 0,
        hook_reports: 0,
        switch: SwitchStats::default(),
        utilization: util,
        queue_wait_ms: wait,
        goodput_mbps,
        census: Some(census),
        terminated: sim.termination().is_some(),
        traced: traced.then(|| trace_counts(&counts)),
    }
}

fn trace_counts(c: &TraceCounts) -> (u64, u64) {
    (
        c.delivered.load(Ordering::Relaxed),
        c.dropped.load(Ordering::Relaxed),
    )
}

fn digest_sched(d: &mut Digest, s: &SchedStats) {
    for v in [
        s.scheduled,
        s.fired,
        s.skipped_stale,
        s.cancelled,
        s.overflowed,
        s.peak_pending,
        s.pending,
    ] {
        d.u64(v);
    }
}

// --- dumbbell_cubic_phi and incast_dctcp -----------------------------------

/// What either path through an experiment (the harness, or the traced
/// rebuild) hands to [`summarize_experiment`].
struct ExperimentData {
    wall_s: f64,
    sim_secs: f64,
    metrics: RunMetrics,
    per_sender: Vec<Vec<FlowReport>>,
    partials: Vec<Option<FlowReport>>,
    events: u64,
    sched: SchedStats,
    switch: Option<[SwitchStats; 2]>,
    hook_lookups: u64,
    hook_reports: u64,
    census: Option<PacketCensus>,
    terminated: bool,
    traced: Option<(u64, u64)>,
}

fn summarize_experiment(x: ExperimentData) -> SimOutcome {
    let mut d = Digest::default();
    d.u64(x.events);
    digest_sched(&mut d, &x.sched);
    let m = &x.metrics;
    d.f64(m.throughput_mbps)
        .f64(m.queueing_delay_ms)
        .f64(m.loss_rate)
        .f64(m.mean_rtt_ms)
        .f64(m.utilization)
        .u64(m.flows_completed)
        .u64(m.flows_aborted)
        .u64(m.bytes);
    let (mut segments, mut retransmits, mut timeouts) = (0u64, 0u64, 0u64);
    let all = x
        .per_sender
        .iter()
        .flatten()
        .chain(x.partials.iter().flatten());
    for r in all {
        d.u64(r.flow.0)
            .u64(r.bytes)
            .u64(r.segments)
            .u64(r.start.as_nanos())
            .u64(r.end.as_nanos())
            .u64(r.retransmits)
            .u64(r.timeouts)
            .u64(r.recoveries);
        segments += r.segments;
        retransmits += r.retransmits;
        timeouts += r.timeouts;
    }
    let mut switch = SwitchStats::default();
    for s in x.switch.iter().flatten() {
        switch.admitted += s.admitted;
        switch.shared_drops += s.shared_drops;
        switch.ecn_marked += s.ecn_marked;
        switch.pauses += s.pauses;
        switch.resumes += s.resumes;
        switch.watchdog_fires += s.watchdog_fires;
        switch.pfc_dropped += s.pfc_dropped;
    }
    for v in [
        switch.admitted,
        switch.shared_drops,
        switch.ecn_marked,
        switch.pauses,
        switch.resumes,
        switch.watchdog_fires,
        switch.pfc_dropped,
        x.hook_lookups,
        x.hook_reports,
    ] {
        d.u64(v);
    }
    // Completed flows only: bits the application got, over the whole run.
    let goodput_mbps = m.bytes as f64 * 8.0 / x.sim_secs.max(1e-12) / 1e6;
    SimOutcome {
        wall_s: x.wall_s,
        work: x.sim_secs,
        events: x.events,
        sched: x.sched,
        digest: d.value(),
        packets: 0,
        drop_ratio: m.loss_rate,
        flows_completed: m.flows_completed,
        segments,
        retransmits,
        timeouts,
        hook_lookups: x.hook_lookups,
        hook_reports: x.hook_reports,
        switch,
        utilization: m.utilization,
        queue_wait_ms: m.queueing_delay_ms,
        goodput_mbps,
        census: x.census,
        terminated: x.terminated,
        traced: x.traced,
    }
}

/// `run_experiment`'s serial packet path, rebuilt from the same public
/// pieces so that every boundary can carry a shim. It must reproduce the
/// harness's event count and result digest exactly — the traced run
/// checks that it does.
fn run_experiment_traced(sc: &Scenario) -> SimOutcome {
    let spec = sc.experiment_spec();
    let net = dumbbell(&spec.dumbbell);
    let routers = [net.left_router, net.right_router];
    let pool = spec.switch.map(|s| s.pool_bytes);
    let mut sim = Simulator::with_disciplines(net.topology.clone(), |_, link: &LinkSpec| {
        let capacity = match pool {
            // Switch-governed egress: the shared pool is the admission
            // authority, as in the harness.
            Some(pool) if routers.contains(&link.from) => Capacity::Bytes(pool),
            _ => link.capacity,
        };
        LinkQueue::custom(TimedDiscipline::drop_tail(capacity))
    });
    if let Some(sw) = spec.switch {
        sim.install_switch(net.left_router, sw);
        sim.install_switch(net.right_router, sw);
    }
    let counts = Arc::new(TraceCounts::default());
    sim.set_tracer(Box::new(TimedTracer(counts.clone())));

    let store = shared(ContextStore::new(spec.store));
    let root = SeedRng::new(spec.seed);
    let phi = provision_cubic_phi(PolicyTable::reference());
    let dctcp = provision_dctcp(DctcpParams::default());
    let mut sender_ids = Vec::with_capacity(spec.dumbbell.pairs);
    for i in 0..spec.dumbbell.pairs {
        let ctx = ProvisionCtx {
            index: i,
            net: &net,
            store: &store,
            path: DUMBBELL_PATH,
            rng: root.fork_indexed("provision", i as u64),
            ha: None,
        };
        let Provisioned {
            factory: mut inner,
            hook,
        } = match sc.kind {
            SimKind::Dumbbell => phi(ctx),
            _ => dctcp(ctx),
        };
        let factory: CcFactory = Box::new(move |snap| Box::new(TimedCc(inner(snap))));
        // DCTCP runs without a context hook; a shim around nothing would
        // only add spans.
        let hook: Box<dyn SessionHook> = match sc.kind {
            SimKind::Dumbbell => Box::new(TimedHook(hook)),
            _ => hook,
        };
        let mut cfg = SenderConfig::new(net.receivers[i], 80, 10);
        cfg.dupack_threshold = spec.dupack_threshold;
        cfg.flow_id_base = (i as u64) << 32;
        let source: FlowSource = match spec.incast {
            Some(incast) => {
                cfg.max_flows = Some(incast.rounds);
                IncastSource::new(incast, root.fork_indexed("worker", i as u64)).into()
            }
            None => OnOffSource::new(spec.workload, root.fork_indexed("sender", i as u64)).into(),
        };
        sender_ids.push(sim.add_agent(
            net.senders[i],
            10,
            TimedAgent::new(Layer::Sender, TcpSender::new(cfg, source, factory, hook)),
        ));
        sim.add_agent(
            net.receivers[i],
            80,
            TimedAgent::new(Layer::Receiver, TcpReceiver::new()),
        );
    }

    let deadline = Time::ZERO + spec.duration;
    let t0 = Instant::now();
    span::span(Layer::Engine, Call::Run, || sim.run_until(deadline));
    let wall_s = t0.elapsed().as_secs_f64();

    let sender = |id| sim.agent_as::<TcpSender>(id).expect("sender agent");
    let per_sender: Vec<Vec<FlowReport>> = sender_ids
        .iter()
        .map(|&id| sender(id).reports().to_vec())
        .collect();
    let partials: Vec<Option<FlowReport>> = sender_ids
        .iter()
        .map(|&id| sender(id).partial_report(deadline))
        .collect();
    let bn = sim.link_stats(net.bottleneck);
    let mut all: Vec<FlowReport> = per_sender.iter().flatten().cloned().collect();
    all.extend(partials.iter().flatten().cloned());
    let metrics = RunMetrics::from_reports(
        &all,
        bn.mean_queue_wait() * 1e3,
        bn.loss_rate(),
        bn.utilization(spec.duration),
    );
    let (hook_lookups, hook_reports) = store
        .lock()
        .expect("context store")
        .traffic_counters(DUMBBELL_PATH);
    summarize_experiment(ExperimentData {
        wall_s,
        sim_secs: spec.duration.as_secs_f64(),
        metrics,
        per_sender,
        partials,
        events: sim.events_processed(),
        sched: sim.sched_stats(),
        switch: spec.switch.map(|_| {
            [
                sim.switch_stats(net.left_router),
                sim.switch_stats(net.right_router),
            ]
        }),
        hook_lookups,
        hook_reports,
        census: Some(sim.packet_census()),
        terminated: sim.termination().is_some(),
        traced: Some(trace_counts(&counts)),
    })
}
