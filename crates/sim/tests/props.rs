//! Property-based invariants of the simulator's core data structures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use phi_sim::engine::{packet_to, Agent, Ctx, Simulator};
use phi_sim::faults::{DownPolicy, ImpairmentPlan, LossModel};
use phi_sim::packet::{Flags, FlowId, LinkId, NodeId, Packet, SackBlocks};
use phi_sim::queue::{Capacity, Discipline, DisciplineSpec, DropTail, Verdict};
use phi_sim::sched::TieredScheduler;
use phi_sim::stats::{OnlineStats, RollingUtil};
use phi_sim::time::{Dur, Time};
use phi_sim::topology::TopologyBuilder;
use phi_workload::SeedRng;

/// One step of an interleaved scheduler workload: schedule an event
/// `delta` nanoseconds past the current clock, pop unconditionally, or
/// pop against a bounded deadline.
#[derive(Debug, Clone, Copy)]
enum SchedOp {
    Push(u64),
    Pop,
    PopIf(u64),
}

fn sched_op() -> impl Strategy<Value = SchedOp> {
    prop_oneof![
        // Same-timestamp bursts and dense near-future traffic.
        (0u64..4).prop_map(SchedOp::Push),
        (0u64..1 << 21).prop_map(SchedOp::Push),
        // Far-future outliers, well beyond the wheel horizon
        // (1024 buckets x 2^17 ns ≈ 134 ms ≈ 2^27 ns).
        (1u64 << 26..1u64 << 40).prop_map(SchedOp::Push),
        Just(SchedOp::Pop),
        (0u64..1 << 28).prop_map(SchedOp::PopIf),
    ]
}

fn pkt(id: u64, size: u32) -> Packet {
    Packet {
        id,
        flow: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        src_port: 0,
        dst_port: 0,
        seq: id,
        ack: 0,
        flags: Flags::empty(),
        size,
        sent_at: Time::ZERO,
        echo: Time::ZERO,
        sack: SackBlocks::EMPTY,
    }
}

/// `RollingUtil::utilization` the slow way: the part of each busy
/// interval — every closed one ever recorded, and the open one — inside
/// the window ending at `now`, over the same denominator.
fn scan_util(window: Dur, closed: &[(Time, Time)], open: Option<(Time, Time)>, now: Time) -> f64 {
    let horizon = now - window;
    let busy_ns: u64 = closed
        .iter()
        .chain(&open)
        .map(|&(start, end)| {
            let (s, e) = (start.max(horizon), end.min(now));
            if e > s {
                (e - s).as_nanos()
            } else {
                0
            }
        })
        .sum();
    let denom = if now.as_nanos() < window.as_nanos() {
        now.as_nanos().max(1)
    } else {
        window.as_nanos()
    };
    (busy_ns as f64 / denom as f64).min(1.0)
}

/// Minimal traffic source for fault-plane properties: `count` packets of
/// 1000 bytes, one every `gap`.
struct Blaster {
    peer: NodeId,
    count: u32,
    gap: Dur,
    sent: u32,
}

impl Agent for Blaster {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer_after(Dur::ZERO, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.sent < self.count {
            let mut p = packet_to(self.peer, 2, 1, FlowId(1), 1000);
            p.seq = u64::from(self.sent);
            ctx.send(p);
            self.sent += 1;
            ctx.set_timer_after(self.gap, 0);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Records packet arrivals (seq, time).
#[derive(Default)]
struct Sink {
    received: Vec<(u64, Time)>,
}

impl Agent for Sink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.received.push((pkt.seq, ctx.now()));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn loss_model() -> impl Strategy<Value = LossModel> {
    prop_oneof![
        Just(LossModel::None),
        (0.0..0.4f64).prop_map(|p| LossModel::Bernoulli { p }),
        (0.01..0.3f64, 0.05..0.6f64, 0.0..0.05f64, 0.2..0.9f64).prop_map(
            |(p_enter_bad, p_exit_bad, good_loss, bad_loss)| LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                good_loss,
                bad_loss,
            }
        ),
    ]
}

/// Everything that parameterizes one random chaos scenario.
#[derive(Debug, Clone)]
struct ChaosCase {
    outages: Vec<(u64, u64)>, // (gap_ms, duration_ms), laid out left to right
    flap: Option<(u64, u64, u64, u64)>, // start_ms, len_ms, mean_down_ms, mean_up_ms
    loss: LossModel,
    corrupt: f64,
    duplicate: f64,
    reorder_p: f64,
    reorder_ms: u64,
    park: bool,
    seed: u64,
    count: u32,
    gap_us: u64,
}

fn chaos_case() -> impl Strategy<Value = ChaosCase> {
    (
        proptest::collection::vec((0u64..150, 1u64..120), 0..3),
        prop_oneof![
            Just(None),
            (0u64..200, 50u64..400, 5u64..40, 5u64..40).prop_map(Some),
        ],
        loss_model(),
        (0.0..0.3f64, 0.0..0.3f64, 0.0..0.5f64, 1u64..15),
        (any::<bool>(), any::<u64>(), 50u32..200, 200u64..2000),
    )
        .prop_map(
            |(outages, flap, loss, (corrupt, duplicate, reorder_p, reorder_ms), rest)| {
                let (park, seed, count, gap_us) = rest;
                ChaosCase {
                    outages,
                    flap,
                    loss,
                    corrupt,
                    duplicate,
                    reorder_p,
                    reorder_ms,
                    park,
                    seed,
                    count,
                    gap_us,
                }
            },
        )
}

fn build_plan(case: &ChaosCase) -> ImpairmentPlan {
    let mut plan = ImpairmentPlan::new()
        .loss(case.loss)
        .corrupt(case.corrupt)
        .duplicate(case.duplicate)
        .reorder(case.reorder_p, Dur::from_millis(case.reorder_ms))
        .down_policy(if case.park {
            DownPolicy::Park
        } else {
            DownPolicy::Drop
        });
    let mut t = 0u64;
    for &(gap, dur) in &case.outages {
        let down = t + gap + 1;
        let up = down + dur;
        plan = plan.outage(Time::from_millis(down), Time::from_millis(up));
        t = up;
    }
    if let Some((start, len, mean_down, mean_up)) = case.flap {
        plan = plan.flap(
            Time::from_millis(start),
            Time::from_millis(start + len),
            Dur::from_millis(mean_down),
            Dur::from_millis(mean_up),
        );
    }
    plan
}

/// Run one chaos case to completion, checking the extended conservation
/// law at intermediate stopping points along the way.
fn run_chaos(case: &ChaosCase) -> Result<(Vec<(u64, Time)>, String), CaseError> {
    let mut b = TopologyBuilder::new();
    let a = b.add_node();
    let z = b.add_node();
    b.add_duplex(a, z, 1_000_000, Dur::from_millis(2), Capacity::Packets(10));
    let mut sim = Simulator::new(b.build());
    sim.install_impairments(LinkId(0), build_plan(case), &SeedRng::new(case.seed));
    sim.add_agent(
        a,
        1,
        Box::new(Blaster {
            peer: z,
            count: case.count,
            gap: Dur::from_micros(case.gap_us),
            sent: 0,
        }),
    );
    let sink = sim.add_agent(z, 2, Box::<Sink>::default());
    for ms in [20u64, 90, 260] {
        sim.run_until(Time::from_millis(ms));
        let c = sim.packet_census();
        prop_assert!(c.conserved(), "mid-run t={ms}ms: {c:?}");
    }
    sim.run_to_completion();
    let c = sim.packet_census();
    prop_assert!(c.conserved(), "completion: {c:?}");
    prop_assert_eq!(c.queued + c.in_flight, 0, "packets stuck: {:?}", c);
    let s = sim.sched_stats();
    prop_assert!(s.conserved(), "scheduler leak: {s:?}");
    let received = sim.agent_as::<Sink>(sink).unwrap().received.clone();
    let fingerprint = format!("{c:?}/{:?}", sim.fault_stats(LinkId(0)));
    Ok((received, fingerprint))
}

proptest! {
    /// Any impairment plan, any seed: every packet is accounted for at
    /// every stopping point, and the whole run is bit-reproducible.
    #[test]
    fn arbitrary_impairments_conserve_and_reproduce(case in chaos_case()) {
        let (recv_a, print_a) = run_chaos(&case)?;
        let (recv_b, print_b) = run_chaos(&case)?;
        prop_assert_eq!(recv_a, recv_b, "same case diverged across reruns");
        prop_assert_eq!(print_a, print_b);
    }
}

proptest! {
    #[test]
    fn time_add_then_sub_roundtrips(base in 0u64..u64::MAX / 2, delta in 0u64..u64::MAX / 4) {
        let t = Time::from_nanos(base);
        let d = Dur::from_nanos(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    #[test]
    fn transmission_time_monotone(
        size_a in 1u32..100_000,
        extra in 1u32..100_000,
        rate in 1_000u64..100_000_000_000,
    ) {
        let small = Dur::transmission(size_a, rate);
        let large = Dur::transmission(size_a.saturating_add(extra), rate);
        prop_assert!(large >= small);
        // Faster link, same packet: no slower.
        let faster = Dur::transmission(size_a, rate.saturating_mul(2));
        prop_assert!(faster <= small);
    }

    #[test]
    fn droptail_never_exceeds_capacity(
        limit in 1usize..64,
        sizes in proptest::collection::vec(40u32..2000, 1..200),
    ) {
        let mut q = DropTail::new(Capacity::Packets(limit));
        for (i, &s) in sizes.iter().enumerate() {
            let _ = q.offer(pkt(i as u64, s), Time::from_nanos(i as u64));
            prop_assert!(q.len_packets() <= limit);
        }
    }

    #[test]
    fn droptail_byte_accounting_balances(
        cap_bytes in 1_000u64..100_000,
        sizes in proptest::collection::vec(40u32..3000, 1..200),
    ) {
        let mut q = DropTail::new(Capacity::Bytes(cap_bytes));
        let mut accepted = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            if q.offer(pkt(i as u64, s), Time::ZERO) == Verdict::Enqueued {
                accepted += u64::from(s);
            }
            prop_assert!(q.len_bytes() <= cap_bytes);
        }
        let mut drained = 0u64;
        while let Some((p, _)) = q.take() {
            drained += u64::from(p.size);
        }
        prop_assert_eq!(accepted, drained);
        prop_assert_eq!(q.len_bytes(), 0);
    }

    #[test]
    fn droptail_preserves_fifo_order(sizes in proptest::collection::vec(40u32..1500, 1..100)) {
        let mut q = DropTail::new(Capacity::Packets(sizes.len()));
        for (i, &s) in sizes.iter().enumerate() {
            prop_assert_eq!(q.offer(pkt(i as u64, s), Time::ZERO), Verdict::Enqueued);
        }
        let mut last = None;
        while let Some((p, _)) = q.take() {
            if let Some(prev) = last {
                prop_assert!(p.id > prev);
            }
            last = Some(p.id);
        }
    }

    /// Utilization, bit for bit, is the clipped busy time of every
    /// interval ever recorded over the same denominator: back-to-back
    /// busy periods (a zero gap, as on a backlogged link) included, read
    /// while a period is open, at its close, and after the gap behind it.
    #[test]
    fn rolling_util_is_a_scan_of_every_interval(
        window_ns in 1u64..20_000_000,
        busy_gaps in proptest::collection::vec(
            (1u64..10_000_000, prop_oneof![Just(0u64), 0u64..10_000_000]),
            1..120,
        ),
    ) {
        let window = Dur::from_nanos(window_ns);
        let mut u = RollingUtil::new(window);
        let mut closed: Vec<(Time, Time)> = Vec::new();
        let mut now = Time::ZERO;
        for (busy, idle) in busy_gaps {
            let end = now + Dur::from_nanos(busy);
            u.begin_busy(now, end);
            let open = (now, end);
            for at in [now + Dur::from_nanos(busy / 2), end] {
                let want = scan_util(window, &closed, Some(open), at);
                let got = u.utilization(at);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "open, at {}: {}", at, got);
            }
            u.end_busy(end);
            closed.push(open);
            now = end + Dur::from_nanos(idle);
            for at in [end, now] {
                let want = scan_util(window, &closed, None, at);
                let got = u.utilization(at);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "closed, at {}: {}", at, got);
            }
        }
    }

    #[test]
    fn online_stats_mean_within_min_max(xs in proptest::collection::vec(-1e12f64..1e12, 1..500)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = s.mean();
        prop_assert!(mean >= s.min().unwrap() - 1e-6);
        prop_assert!(mean <= s.max().unwrap() + 1e-6);
        prop_assert!(s.variance() >= 0.0);
    }

    /// Routes on a random ring-with-chords topology always reach their
    /// destination in at most |V| hops.
    #[test]
    fn routes_terminate_at_destination(
        n in 3usize..12,
        chords in proptest::collection::vec((0usize..12, 0usize..12), 0..8),
    ) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node()).collect();
        let cap = Capacity::Packets(4);
        for i in 0..n {
            b.add_duplex(nodes[i], nodes[(i + 1) % n], 1_000_000, Dur::from_millis(1), cap);
        }
        for (a, z) in chords {
            let (a, z) = (a % n, z % n);
            if a != z {
                b.add_duplex(nodes[a], nodes[z], 1_000_000, Dur::from_millis(1), cap);
            }
        }
        let t = b.build();
        for &src in &nodes {
            for &dst in &nodes {
                if src == dst {
                    continue;
                }
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    let link = t.next_hop(at, dst).expect("route exists");
                    at = t.link(link).to;
                    hops += 1;
                    prop_assert!(hops <= n, "routing loop from {src} to {dst}");
                }
            }
        }
    }

    /// The tiered scheduler is observationally identical to a plain
    /// binary heap ordered by `(time, insertion seq)`: every pop and
    /// deadline-bounded pop returns the same event in the same order,
    /// regardless of how pushes straddle the wheel horizon.
    #[test]
    fn tiered_scheduler_matches_reference_heap(
        ops in proptest::collection::vec(sched_op(), 1..500),
    ) {
        let mut tiered = TieredScheduler::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut next_seq = 0u64;
        for op in ops {
            match op {
                SchedOp::Push(delta) => {
                    let at = now.saturating_add(delta);
                    tiered.push(Time::from_nanos(at), next_seq);
                    model.push(Reverse((at, next_seq)));
                    next_seq += 1;
                }
                SchedOp::Pop => {
                    let got = tiered.pop();
                    let want = model.pop().map(|Reverse((at, seq))| (at, seq));
                    prop_assert_eq!(
                        got.map(|(t, s)| (t.as_nanos(), s)),
                        want,
                        "pop diverged at seq {}", next_seq
                    );
                    if let Some((at, _)) = want {
                        now = at;
                    }
                }
                SchedOp::PopIf(delta) => {
                    let deadline = now.saturating_add(delta);
                    let due = matches!(model.peek(), Some(Reverse((at, _))) if *at <= deadline);
                    let got = tiered.pop_if(Time::from_nanos(deadline));
                    let want = if due {
                        model.pop().map(|Reverse((at, seq))| (at, seq))
                    } else {
                        None
                    };
                    prop_assert_eq!(
                        got.map(|(t, s)| (t.as_nanos(), s)),
                        want,
                        "pop_if diverged at seq {}", next_seq
                    );
                    if let Some((at, _)) = want {
                        now = at;
                    }
                }
            }
            prop_assert_eq!(tiered.len(), model.len());
        }
        // Drain both to the end: the tails must agree event for event.
        while let Some(Reverse((at, seq))) = model.pop() {
            prop_assert_eq!(
                tiered.pop().map(|(t, s)| (t.as_nanos(), s)),
                Some((at, seq))
            );
        }
        prop_assert!(tiered.is_empty());
        prop_assert_eq!(tiered.counters().scheduled, next_seq);
    }

    #[test]
    fn sack_blocks_bounded_and_ordered_iteration(
        ranges in proptest::collection::vec((0u64..1000, 1u64..50), 0..6),
    ) {
        let mut sack = SackBlocks::EMPTY;
        let mut pushed = 0;
        for (start, len) in ranges {
            if sack.push(start, start + len) {
                pushed += 1;
            }
        }
        prop_assert!(sack.len() <= 3);
        prop_assert_eq!(sack.len(), pushed.min(3));
        for (s, e) in sack.iter() {
            prop_assert!(s < e);
        }
    }
}

// ---------------------------------------------------------------------------
// Backpressure-plane properties: shared-buffer admission and PFC census.
// ---------------------------------------------------------------------------

use phi_sim::switch::{PfcSpec, SharedBuffer, SwitchSpec};

/// One step of an interleaved shared-buffer workload.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// Offer `bytes` to `port` (modulo the port count).
    Admit { port: usize, bytes: u32 },
    /// Release the oldest admitted packet on `port`, if any.
    Release { port: usize },
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0usize..8, 1u32..20_000).prop_map(|(port, bytes)| PoolOp::Admit { port, bytes }),
        (0usize..8, 1u32..20_000).prop_map(|(port, bytes)| PoolOp::Admit { port, bytes }),
        (0usize..8).prop_map(|port| PoolOp::Release { port }),
    ]
}

proptest! {
    /// Dynamic-Threshold admission under any interleaving of arrivals
    /// and drains: total occupancy never exceeds the pool, the total
    /// always equals the sum of the per-port occupancies, and both
    /// ledgers track a reference model exactly.
    #[test]
    fn shared_buffer_never_exceeds_pool(
        pool in 1_000u64..200_000,
        alpha in 0.25f64..16.0,
        ports in 1usize..8,
        ops in proptest::collection::vec(pool_op(), 1..200),
    ) {
        let mut buf = SharedBuffer::new(pool, alpha, ports);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); ports];
        for op in ops {
            match op {
                PoolOp::Admit { port, bytes } => {
                    let port = port % ports;
                    if buf.try_admit(port, bytes) {
                        model[port].push(bytes);
                    }
                }
                PoolOp::Release { port } => {
                    let port = port % ports;
                    if !model[port].is_empty() {
                        let bytes = model[port].remove(0);
                        buf.release(port, bytes);
                    }
                }
            }
            let expect: u64 = model.iter().flatten().map(|&b| u64::from(b)).sum();
            prop_assert!(buf.total_bytes() <= pool, "pool overrun: {} > {pool}", buf.total_bytes());
            prop_assert_eq!(buf.total_bytes(), expect, "total diverged from model");
            let port_sum: u64 = (0..ports).map(|p| buf.port_bytes(p)).sum();
            prop_assert_eq!(port_sum, expect, "per-port ledger diverged");
            for (p, port_model) in model.iter().enumerate() {
                let want: u64 = port_model.iter().map(|&b| u64::from(b)).sum();
                prop_assert_eq!(buf.port_bytes(p), want, "port {} diverged", p);
            }
        }
    }
}

/// One PFC chain scenario: `count` packets blasted through a PFC switch
/// whose slow egress forces PAUSE/RESUME cycles on the ingress.
#[derive(Debug, Clone)]
struct PfcCase {
    count: u32,
    gap_us: u64,
    xoff: u64,
    xon_frac: f64,
    egress_bps: u64,
    watchdog_ms: Option<u64>,
    checkpoints: Vec<u64>,
}

fn pfc_case() -> impl Strategy<Value = PfcCase> {
    (
        50u32..400,
        50u64..500,
        4_000u64..40_000,
        0.1f64..1.0,
        1_000_000u64..20_000_000,
        prop_oneof![Just(None), (20u64..500).prop_map(Some)],
        proptest::collection::vec(1u64..5_000, 0..4),
    )
        .prop_map(
            |(count, gap_us, xoff, xon_frac, egress_bps, watchdog_ms, checkpoints)| PfcCase {
                count,
                gap_us,
                xoff,
                xon_frac,
                egress_bps,
                watchdog_ms,
                checkpoints,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any PAUSE/RESUME (and watchdog-drain) sequence conserves the
    /// packet census — at arbitrary mid-run checkpoints and at the
    /// drained end state, where every XOFF has been matched by an XON.
    #[test]
    fn pfc_pause_resume_sequences_conserve_census(case in pfc_case()) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let s = b.add_node();
        let z = b.add_node();
        b.add_duplex(a, s, 200_000_000, Dur::from_micros(20), Capacity::Packets(5_000));
        b.add_duplex(a, s, 200_000_000, Dur::from_micros(20), Capacity::Packets(5_000));
        b.add_duplex(s, z, case.egress_bps, Dur::from_micros(200), Capacity::Packets(5_000));
        let mut sim = Simulator::new(b.build());
        let xon = (case.xoff as f64 * case.xon_frac) as u64;
        let pfc = PfcSpec {
            xoff_bytes: case.xoff,
            xon_bytes: xon.min(case.xoff),
            watchdog: Dur::from_millis(case.watchdog_ms.unwrap_or(60_000)),
        };
        sim.install_switch(s, SwitchSpec::shared(1 << 20).with_pfc(pfc));
        sim.add_agent(a, 1, Box::new(Blaster {
            peer: z,
            count: case.count,
            gap: Dur::from_micros(case.gap_us),
            sent: 0,
        }));
        sim.add_agent(z, 2, Box::new(Sink::default()));

        // Census closes at every checkpoint, pause state included.
        let mut at = 0u64;
        for c in &case.checkpoints {
            at += c * 1_000; // µs steps
            sim.run_until(Time::from_nanos(at * 1_000));
            let census = sim.packet_census();
            prop_assert!(census.conserved(), "mid-run census leak: {census:?}");
        }

        sim.run_to_completion();
        let census = sim.packet_census();
        let stats = sim.switch_stats(s);
        prop_assert!(census.conserved(), "final census leak: {census:?}");
        prop_assert_eq!(census.queued, 0, "chain must drain: {:?}", census);
        prop_assert_eq!(census.in_flight, 0, "chain must drain: {:?}", census);
        prop_assert_eq!(
            census.injected,
            census.delivered + census.dropped + census.pfc_dropped,
            "terminal states must absorb every packet: {:?}",
            census
        );
        prop_assert_eq!(census.pfc_dropped, stats.pfc_dropped, "drain ledgers disagree");
        // Once drained, every pause has been matched by a resume.
        prop_assert_eq!(stats.pauses, stats.resumes, "unbalanced XOFF/XON: {:?}", stats);
        if stats.pauses > 0 {
            prop_assert!(census.paused_ns > 0, "paused links must accrue paused_ns");
        }
    }
}

/// A chaos plan on a switch egress, with the knobs that decide which of
/// the engine's packet-release paths run.
#[derive(Debug, Clone)]
struct PoolCase {
    chaos: ChaosCase,
    pfc: bool,
    red: bool,
    pool_bytes: u64,
}

fn pool_case() -> impl Strategy<Value = PoolCase> {
    (chaos_case(), any::<bool>(), any::<bool>(), 8_000u64..80_000).prop_map(
        |(chaos, pfc, red, pool_bytes)| PoolCase {
            chaos,
            pfc,
            red,
            pool_bytes,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packet-pool conservation: a pool slot is live exactly while its
    /// packet is queued or in flight, whichever way packets leave — agent
    /// delivery, queue drop (drop-tail or RED refusing after admission),
    /// switch rejection, every fault-plane fate including a down-edge
    /// drain of a switch egress, and duplication minting copies. After a
    /// drained run nothing is live and the switch holds no bytes.
    #[test]
    fn packet_pool_tracks_the_census_on_every_release_path(case in pool_case()) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let s = b.add_node();
        let z = b.add_node();
        b.add_duplex(a, s, 100_000_000, Dur::from_micros(50), Capacity::Packets(1_000));
        let (egress, _) = b.add_duplex(s, z, 2_000_000, Dur::from_millis(1), Capacity::Packets(12));
        let mut sim = Simulator::with_disciplines(b.build(), |id, spec| {
            if case.red && id == egress {
                DisciplineSpec::Red.build(spec.capacity)
            } else {
                DisciplineSpec::DropTail.build(spec.capacity)
            }
        });
        let mut spec = SwitchSpec::shared(case.pool_bytes).with_alpha(4.0);
        if case.pfc {
            spec = spec.with_pfc(PfcSpec {
                xoff_bytes: case.pool_bytes / 4,
                xon_bytes: case.pool_bytes / 8,
                watchdog: Dur::from_millis(300),
            });
        }
        sim.install_switch(s, spec);
        sim.install_impairments(egress, build_plan(&case.chaos), &SeedRng::new(case.chaos.seed));
        sim.add_agent(a, 1, Box::new(Blaster {
            peer: z,
            count: case.chaos.count,
            gap: Dur::from_micros(case.chaos.gap_us),
            sent: 0,
        }));
        sim.add_agent(z, 2, Box::new(Sink::default()));

        for ms in [20u64, 90, 260] {
            sim.run_until(Time::from_millis(ms));
            let c = sim.packet_census();
            prop_assert!(c.conserved(), "mid-run t={ms}ms: {c:?}");
            prop_assert_eq!(sim.live_packets(), c.outstanding(), "t={}ms: {:?}", ms, c);
        }
        sim.run_to_completion();
        let c = sim.packet_census();
        prop_assert!(c.conserved(), "completion: {c:?}");
        prop_assert_eq!(c.outstanding(), 0, "packets stuck: {:?}", c);
        prop_assert_eq!(sim.live_packets(), 0, "pool slots leaked: {:?}", c);
        prop_assert_eq!(sim.switch_occupancy(s), (0, 0), "switch bytes leaked");
        let stats = sim.switch_stats(s);
        prop_assert_eq!(stats.pauses, stats.resumes, "unbalanced XOFF/XON: {:?}", stats);
    }
}
