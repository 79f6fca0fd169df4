//! What the network did, pinned apart from how the engine got there.
//!
//! Each scenario runs once and digests (FNV-1a over `Debug` renderings,
//! which print every float from its exact bits) everything a user of the
//! simulator can observe: the packet census, every flow report and
//! partial, every field of every link's `LinkStats`, switch and fault
//! counters, the context store's traffic counters, each sink's receive
//! count, and what an ideal-oracle probe read mid-run. Event counts,
//! scheduler counters and packet traces are deliberately left out: an
//! engine may drop an event it does not need, or dispatch two events of
//! one nanosecond in the other order, without changing what the network
//! did. A change that moves one of these digests changed behaviour.
//!
//! The scenarios are the three `phi-benchmark` simulator shapes at
//! reduced scale, an impaired two-hop path under both down policies, the
//! three-switch PFC ring with its watchdog armed, and a probe agent that
//! reads the bottleneck's oracle (`link_utilization`, `link_queue_bytes`,
//! `link_stats`) every millisecond.

use std::any::Any;
use std::fmt::Debug;

use phi::core::context::{ContextStore, StoreConfig};
use phi::core::harness::{
    provision_cubic, provision_cubic_phi, provision_dctcp, ExperimentSpec, ProvisionCtx,
    Provisioned, DUMBBELL_PATH,
};
use phi::core::hooks::shared;
use phi::core::policy::PolicyTable;
use phi::sim::engine::{packet_to, Agent, Ctx, Simulator};
use phi::sim::faults::{DownPolicy, ImpairmentPlan, LossModel};
use phi::sim::packet::{AgentId, FlowId, LinkId, NodeId, Packet};
use phi::sim::queue::{Capacity, DisciplineSpec};
use phi::sim::switch::{EcnSpec, PfcSpec, SwitchSpec};
use phi::sim::time::{Dur, Time};
use phi::sim::topology::{dumbbell, parking_lot, LinkSpec, ParkingLotSpec, TopologyBuilder};
use phi::tcp::cubic::{Cubic, CubicParams};
use phi::tcp::dctcp::DctcpParams;
use phi::tcp::hook::NoHook;
use phi::tcp::receiver::TcpReceiver;
use phi::tcp::sender::{SenderConfig, TcpSender};
use phi::workload::{FlowSource, IncastConfig, IncastSource, OnOffConfig, OnOffSource, SeedRng};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Accumulates labelled `Debug` renderings of observables.
#[derive(Default)]
struct Obs(String);

impl Obs {
    fn add(&mut self, label: &str, value: impl Debug) -> &mut Self {
        self.0.push_str(&format!("{label}={value:?}\n"));
        self
    }

    /// The census, every link's stats and fault counters, and every
    /// switch's counters of `sim`.
    fn network(&mut self, sim: &Simulator) -> &mut Self {
        self.add("census", sim.packet_census());
        for i in 0..sim.topology().link_count() {
            let l = LinkId(i as u32);
            self.add("link", (l, sim.link_stats(l), sim.fault_stats(l)));
        }
        for n in 0..sim.topology().node_count() {
            self.add("switch", sim.switch_stats(NodeId(n as u32)));
        }
        self
    }

    /// Every completed report and the partial of each sender in `ids`.
    fn senders(&mut self, sim: &Simulator, ids: &[AgentId], now: Time) -> &mut Self {
        for &id in ids {
            let s = sim.agent_as::<TcpSender>(id).expect("sender agent");
            self.add("reports", s.reports())
                .add("partial", s.partial_report(now));
        }
        self
    }

    fn digest(&self, name: &str) -> u64 {
        let d = fnv1a(self.0.as_bytes());
        println!("OBSERVABLES {name} digest={d:#018x}");
        d
    }
}

/// Sends `remaining` 1000-byte packets to `peer`, one per `gap`, after
/// `phase`.
struct Pump {
    peer: NodeId,
    flow: FlowId,
    remaining: u32,
    gap: Dur,
    phase: Dur,
}

impl Agent for Pump {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(self.phase, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let mut p = packet_to(self.peer, 80, 1, self.flow, 1_000);
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

fn sink_count(sim: &Simulator, id: AgentId) -> u64 {
    sim.agent_as::<Sink>(id).expect("sink agent").got
}

/// Reads the ideal oracle of `link` every millisecond and renders what
/// it saw.
struct Probe {
    link: LinkId,
    seen: Obs,
}

impl Agent for Probe {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(Dur::from_millis(1), 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        let util = ctx.link_utilization(self.link);
        let queued = ctx.link_queue_bytes(self.link);
        let stats = ctx.link_stats(self.link).clone();
        self.seen.add("oracle", (ctx.now(), util, queued, stats));
        ctx.set_timer_after(Dur::from_millis(1), 0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `forward_multihop` at reduced scale: every pair of a 4-hop, 50 Mbit/s
/// parking lot pumps 1 000-byte packets at ≈ 108 % of backbone capacity,
/// run until the network drains.
#[test]
fn forward_multihop_observables_hold() {
    let lot = parking_lot(&ParkingLotSpec {
        hops: 4,
        backbone_bps: 50_000_000,
        hop_delay: Dur::from_millis(1),
        capacity: Capacity::Packets(100),
        access_bps: 1_000_000_000,
    });
    let mut sim = Simulator::new(lot.topology.clone());
    let root = SeedRng::new(21);
    let mut pairs = vec![lot.long_path];
    pairs.extend(lot.cross.iter().copied());
    let mut sinks = Vec::new();
    for (i, (src, dst)) in pairs.iter().enumerate() {
        let mut rng = root.fork_indexed("pump", i as u64);
        let gap = rng.range_u64(292_050, 297_951);
        sim.add_agent(
            *src,
            10,
            Box::new(Pump {
                peer: *dst,
                flow: FlowId(i as u64),
                remaining: 2_000,
                gap: Dur::from_nanos(gap),
                phase: Dur::from_nanos(rng.range_u64(0, gap)),
            }),
        );
        sinks.push(sim.add_agent(*dst, 80, Box::<Sink>::default()));
    }
    let end = sim.run_to_completion();
    let mut obs = Obs::default();
    obs.add("end", end).network(&sim);
    for &s in &sinks {
        obs.add("sink", sink_count(&sim, s));
    }
    assert_eq!(
        obs.digest("forward_multihop"),
        0xaf53_d18c_4246_cd83,
        "forward_multihop observables moved"
    );
}

/// `run_experiment`'s packet path rebuilt from public pieces (so every
/// link of the simulator stays readable), with an optional oracle probe
/// on the bottleneck. Returns the observables digest.
fn experiment(
    name: &str,
    spec: &ExperimentSpec,
    provision: impl Fn(ProvisionCtx<'_>) -> Provisioned,
    probe: bool,
) -> u64 {
    let net = dumbbell(&spec.dumbbell);
    let routers = [net.left_router, net.right_router];
    let pool = spec.switch.map(|s| s.pool_bytes);
    let mut sim =
        Simulator::with_disciplines(net.topology.clone(), |_, link: &LinkSpec| match pool {
            Some(pool) if routers.contains(&link.from) => {
                DisciplineSpec::DropTail.build(Capacity::Bytes(pool))
            }
            _ => DisciplineSpec::DropTail.build(link.capacity),
        });
    if let Some(sw) = spec.switch {
        sim.install_switch(net.left_router, sw);
        sim.install_switch(net.right_router, sw);
    }
    let store = shared(ContextStore::new(spec.store));
    let root = SeedRng::new(spec.seed);
    let mut senders = Vec::new();
    for i in 0..spec.dumbbell.pairs {
        let Provisioned { factory, hook } = provision(ProvisionCtx {
            index: i,
            net: &net,
            store: &store,
            path: DUMBBELL_PATH,
            rng: root.fork_indexed("provision", i as u64),
            ha: None,
        });
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
        senders.push(sim.add_agent(
            net.senders[i],
            10,
            Box::new(TcpSender::new(cfg, source, factory, hook)),
        ));
        sim.add_agent(net.receivers[i], 80, Box::new(TcpReceiver::new()));
    }
    let probe = probe.then(|| {
        let agent = Probe {
            link: net.bottleneck,
            seen: Obs::default(),
        };
        sim.add_agent(net.left_router, 999, Box::new(agent))
    });
    let deadline = Time::ZERO + spec.duration;
    sim.run_until(deadline);

    let flows: usize = senders
        .iter()
        .map(|&id| {
            sim.agent_as::<TcpSender>(id)
                .expect("sender")
                .reports()
                .len()
        })
        .sum();
    assert!(
        flows > spec.dumbbell.pairs,
        "{name}: only {flows} flows completed"
    );
    let mut obs = Obs::default();
    obs.network(&sim).senders(&sim, &senders, deadline);
    let traffic = store.lock().expect("store").traffic_counters(DUMBBELL_PATH);
    obs.add("store", traffic);
    if let Some(id) = probe {
        let p = sim.agent_as::<Probe>(id).expect("probe agent");
        assert!(p.seen.0.len() > 1_000, "the probe never ran");
        obs.add("probe", fnv1a(p.seen.0.as_bytes()));
    }
    obs.digest(name)
}

/// `dumbbell_cubic_phi` at reduced scale: 16 Cubic-Phi on/off pairs over
/// a 100 Mbit/s dumbbell with half a BDP of buffer, for 3 s.
#[test]
fn dumbbell_cubic_phi_observables_hold() {
    let mut spec = ExperimentSpec::new(
        16,
        OnOffConfig {
            mean_on_bytes: 100_000.0,
            mean_off_secs: 0.1,
            deterministic: false,
        },
        Dur::from_secs(3),
        22,
    );
    spec.dumbbell.bottleneck_bps = 100_000_000;
    spec.dumbbell.rtt = Dur::from_millis(40);
    spec.dumbbell.buffer_bdp_multiple = 0.5;
    spec.store = StoreConfig {
        capacity_bps: Some(100e6),
        ..StoreConfig::default()
    };
    let d = experiment(
        "dumbbell_cubic_phi",
        &spec,
        provision_cubic_phi(PolicyTable::reference()),
        false,
    );
    assert_eq!(d, 0xc5df_4fca_8ef9_5cf1, "dumbbell observables moved");
}

/// `incast_dctcp` at reduced scale: 32-way DCTCP incast through
/// shared-buffer routers with ECN marking and PFC, for 1.5 s.
#[test]
fn incast_dctcp_observables_hold() {
    let secs = 1.5;
    let spec = {
        let mut spec = ExperimentSpec::new(32, OnOffConfig::fig2(), Dur::from_secs_f64(secs), 23);
        spec.dumbbell.bottleneck_bps = 50_000_000;
        spec.dumbbell.access_bps = 400_000_000;
        spec.dumbbell.rtt = Dur::from_millis(2);
        spec.with_switch(
            SwitchSpec::shared(48_000)
                .with_alpha(8.0)
                .with_ecn(EcnSpec::step(9_000))
                .with_pfc(PfcSpec {
                    xoff_bytes: 3_000,
                    xon_bytes: 1_500,
                    watchdog: Dur::from_millis(100),
                }),
        )
        .with_incast(IncastConfig {
            workers: 32,
            bytes_per_worker: 64 * 1024,
            rounds: (secs * 4.0).ceil() as u64 + 1,
            round_gap_secs: 0.01,
            jitter_secs: 0.0005,
        })
    };
    let d = experiment(
        "incast_dctcp",
        &spec,
        provision_dctcp(DctcpParams::default()),
        false,
    );
    assert_eq!(d, 0xa228_1e03_ce97_f3a0, "incast observables moved");
}

/// The Remy-Phi-ideal oracle path: a probe reads the bottleneck's
/// utilization, queue and cumulative stats every millisecond while four
/// Cubic pairs load it.
#[test]
fn oracle_probe_reads_hold() {
    let workload = OnOffConfig {
        mean_on_bytes: 100_000.0,
        mean_off_secs: 0.2,
        deterministic: false,
    };
    let mut spec = ExperimentSpec::new(4, workload, Dur::from_secs(3), 24);
    spec.dumbbell.bottleneck_bps = 10_000_000;
    let d = experiment(
        "oracle_probe",
        &spec,
        provision_cubic(CubicParams::default()),
        true,
    );
    assert_eq!(d, 0xabf0_b47a_4606_843c, "oracle reads moved");
}

/// `e2e_faults`' impaired TCP transfer, moved one hop downstream: the
/// flapping, lossy, corrupting, duplicating, reordering link is the
/// second hop of a → r → z, under `policy`.
fn impaired_two_hop(policy: DownPolicy) -> u64 {
    let mut b = TopologyBuilder::new();
    let a = b.add_node();
    let r = b.add_node();
    let z = b.add_node();
    b.add_duplex(a, r, 10_000_000, Dur::from_millis(1), Capacity::Packets(50));
    let (fwd, _) = b.add_duplex(r, z, 2_000_000, Dur::from_millis(10), Capacity::Packets(50));
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
        .reorder(0.2, Dur::from_millis(10))
        .down_policy(policy);
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
    let sender = sim.add_agent(
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
    let deadline = Time::from_secs(4);
    sim.run_until(deadline);
    let mut obs = Obs::default();
    obs.network(&sim).senders(&sim, &[sender], deadline);
    let c = sim.packet_census();
    assert!(c.conserved(), "{c:?}");
    assert!(c.blackholed > 0 && c.duplicated > 0, "{c:?}");
    obs.digest(&format!("impaired_{policy:?}"))
}

#[test]
fn impaired_two_hop_observables_hold_under_both_down_policies() {
    let drop = impaired_two_hop(DownPolicy::Drop);
    let park = impaired_two_hop(DownPolicy::Park);
    assert_eq!(drop, 0xfacb_2411_ab57_2e13, "Drop-policy observables moved");
    assert_eq!(park, 0xdca5_79d9_dd24_3743, "Park-policy observables moved");
}

/// `e2e_incast`'s cyclic buffer dependency: a one-way three-switch ring,
/// two-ring-hop flows chasing each other, PFC with a 50 ms pause-storm
/// watchdog that keeps breaking the cycle.
#[test]
fn pfc_ring_with_watchdog_observables_hold() {
    let mut b = TopologyBuilder::new();
    let s: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
    let h: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
    for i in 0..3 {
        b.add_link(LinkSpec::new(
            s[i],
            s[(i + 1) % 3],
            5_000_000,
            Dur::from_millis(1),
            Capacity::Packets(10_000),
        ));
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
        watchdog: Dur::from_millis(50),
    });
    for &sw in &s {
        sim.install_switch(sw, spec);
    }
    let mut sinks = Vec::new();
    for i in 0..3 {
        sim.add_agent(
            h[i],
            1,
            Box::new(Pump {
                peer: h[(i + 2) % 3],
                flow: FlowId(i as u64 + 1),
                remaining: 400,
                gap: Dur::from_micros(500),
                phase: Dur::ZERO,
            }),
        );
        sinks.push(sim.add_agent(h[i], 80, Box::<Sink>::default()));
    }
    sim.run_until(Time::from_secs(20));
    let mut obs = Obs::default();
    obs.network(&sim);
    for &id in &sinks {
        obs.add("sink", sink_count(&sim, id));
    }
    let fires: u64 = s.iter().map(|&n| sim.switch_stats(n).watchdog_fires).sum();
    assert!(fires > 0, "the watchdog must break the cycle");
    assert_eq!(
        obs.digest("pfc_ring"),
        0xeae2_8ec5_6743_09f4,
        "PFC ring observables moved"
    );
}
