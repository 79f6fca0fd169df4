//! The TCP sender computed the plain way: the reference `TcpSender` is
//! tested against.
//!
//! A run through the engine writes down what the engine gave the sender
//! (every ACK and every timer call, with its instant) and what the sender
//! did: every segment it offered to its link, every call into its
//! congestion controller, and its flow reports. The model is a second
//! sender, fed the same ACKs and a controller built from the same recipe.
//! It keeps its own timers; a timer call in the record tells it only how
//! one instant's events are ordered (the engine pops them in push order,
//! which the model does not track). From those it must predict the rest.
//!
//! Its state is what RFC 6675 and RFC 6298 name, in plain containers: a
//! `BTreeSet` of SACKed segments, a `VecDeque` loss list of the holes
//! retransmitted this recovery episode, and `srtt`/`rttvar`. Every
//! estimate is a scan. Segment `s` of a flow is `[s·MSS, (s+1)·MSS)` of
//! its bytes; `una` is the cumulative ack and `next` the next segment to
//! send. The rules:
//!
//! * **Pipe** (RFC 6675): each segment in `[una, next)` above the highest
//!   SACKed one, plus each loss-list entry; with nothing SACKed, each
//!   duplicate ACK takes one off instead.
//! * **Sending**: while the pipe is below `max(⌊cwnd⌋, 1)`, plus one per
//!   duplicate ACK up to two outside recovery (limited transmit, RFC
//!   3042). In recovery, first the lowest hole below the highest SACKed
//!   segment that is neither SACKed nor on the loss list (NextSeg); then
//!   new data from `next`, stepping over SACKed segments (so go-back-N
//!   after an RTO skips what the receiver holds). A segment below the
//!   highest ever sent goes out marked `RETX` and counts as a
//!   retransmission. The last segment carries `FIN` and the remainder of
//!   the bytes; an ECN-capable controller's segments carry `ECT`.
//! * **Pacing**: with a gap from the controller, new data (not hole
//!   retransmissions) leaves no earlier than one gap after the last paced
//!   send. A send held back arms one timer at that instant; the gap is
//!   spent when the gate opens, even if stepping over SACKed segments
//!   then leaves nothing to send.
//! * **Loss detection**: an ACK whose cumulative ack equals `una`, with
//!   some segment at or above `una` sent before, is a duplicate (with
//!   none, there is nothing to retransmit). Outside recovery, when the larger of the duplicate count
//!   and the number of SACKed segments reaches the threshold, recovery
//!   starts: the threshold is `dupack_threshold`, or with fewer than
//!   `dupack_threshold + 1` segments in `[una, next)` one less than that
//!   count, and at least one (early retransmit, RFC 5827). Entry counts a
//!   recovery, tells the controller, sets the recovery point at
//!   `next − 1`, retransmits `una` and restarts the RTO. An ACK past the
//!   point ends the episode, and so does an RTO; the loss list empties.
//! * **Lost retransmissions**: on every ACK, a loss-list entry whose send
//!   frontier (one past the highest segment sent when it went out) is at
//!   or below the highest SACKed segment was itself lost: it leaves the
//!   list, so its hole is retransmitted again.
//! * **RTT** (RFC 6298, Karn): an ACK that advances `una`, does not carry
//!   `RETX` and echoes a send time after zero is a sample `r`. The first
//!   sets `srtt = r`, `rttvar = r/2`; later ones `rttvar = 3/4·rttvar +
//!   1/4·|srtt − r|` and `srtt = 7/8·srtt + 1/8·r`, each term floored to
//!   whole nanoseconds. `RTO = srtt + max(4·rttvar, 1 ms)`, at least
//!   200 ms and at most `max_rto`; before the first sample it is 1 s,
//!   whatever `max_rto` is.
//! * **RTO**: due one RTO after the flow starts, after every ACK that
//!   advances `una` and after recovery entry, each time with the RTO
//!   recomputed. When due: count a timeout, and end the flow aborted once
//!   `max_consecutive_rtos` fire with no advance between. Otherwise tell
//!   the controller, forget the duplicate ACKs and the recovery episode
//!   (not the SACKs), go back to `next = una`, double the RTO up to
//!   `max_rto`, and re-arm it. The first advance after two or more
//!   consecutive timeouts counts an idle restart.
//! * **Flows**: each flow is a fresh controller and connection, started
//!   after its plan's off time; its ACKs are ignored once it is over. A
//!   flow ends when `una` reaches its last segment, and the sender stops
//!   after `max_flows`.
//!
//! Used by `reference.rs` beside it and, through `#[path]`, by the root
//! package's `tests/tcp_reference.rs`, which tier-1 runs.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;
use std::rc::Rc;

use phi_sim::engine::{Agent, Ctx, Simulator};
use phi_sim::faults::{ImpairmentPlan, LossModel};
use phi_sim::packet::{wire, Flags, NodeId, Packet};
use phi_sim::queue::{Capacity, Discipline, DropTail, LinkQueue, ScriptedDrop, Verdict};
use phi_sim::time::{Dur, Time};
use phi_sim::topology::{LinkSpec, TopologyBuilder};
use phi_tcp::cc::{AckEvent, CongestionControl, FixedWindow, LossEvent};
use phi_tcp::cubic::{Cubic, CubicParams};
use phi_tcp::dctcp::{Dctcp, DctcpParams};
use phi_tcp::hook::NoHook;
use phi_tcp::newreno::{NewReno, NewRenoParams};
use phi_tcp::receiver::TcpReceiver;
use phi_tcp::report::FlowReport;
use phi_tcp::sender::{SenderConfig, TcpSender};
use phi_workload::{OnOffConfig, OnOffSource, SeedRng};

/// The RTO's floor, and its value before the first RTT sample.
const MIN_RTO: Dur = Dur::from_millis(200);
const FIRST_RTO: Dur = Dur::from_secs(1);

/// The tokens the sender arms its timers with.
const START: u64 = 0;
const RTO: u64 = 1;
const PACE: u64 = 2;

/// Where a run stops.
const UNTIL: Time = Time::from_secs(20);

/// A congestion controller recipe: each sender builds its own from it.
#[derive(Debug, Clone, Copy)]
pub enum Cc {
    Fixed(f64),
    Cubic(CubicParams),
    NewReno,
    Dctcp,
    Paced { window: f64, gap: Dur },
}

impl Cc {
    fn build(self) -> Box<dyn CongestionControl> {
        match self {
            Cc::Fixed(w) => Box::new(FixedWindow::new(w)),
            Cc::Cubic(p) => Box::new(Cubic::new(p)),
            Cc::NewReno => Box::new(NewReno::new(NewRenoParams::default())),
            Cc::Dctcp => Box::new(Dctcp::new(DctcpParams::default())),
            Cc::Paced { window, gap } => Box::new(Paced { window, gap }),
        }
    }
}

/// A fixed window that also paces, with a fixed gap.
struct Paced {
    window: f64,
    gap: Dur,
}

impl CongestionControl for Paced {
    fn on_flow_start(&mut self, _now: Time) {}
    fn window(&self) -> f64 {
        self.window
    }
    fn intersend(&self) -> Option<Dur> {
        Some(self.gap)
    }
    fn on_ack(&mut self, _ev: &AckEvent) {}
    fn on_loss(&mut self, _ev: &LossEvent) {}
    fn on_rto(&mut self, _now: Time) {}
    fn name(&self) -> &'static str {
        "paced"
    }
}

/// One call into a controller. An ACK is `(now, rtt, min_rtt,
/// newly_acked, sent_at, ece)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Start(Time),
    Ack(Time, Option<Dur>, Option<Dur>, u64, Time, bool),
    Loss(Time),
    Rto(Time),
}

/// A controller that writes down every call before passing it on.
struct Spy {
    cc: Box<dyn CongestionControl>,
    calls: Rc<RefCell<Vec<Call>>>,
}

impl CongestionControl for Spy {
    fn on_flow_start(&mut self, now: Time) {
        self.calls.borrow_mut().push(Call::Start(now));
        self.cc.on_flow_start(now);
    }
    fn window(&self) -> f64 {
        self.cc.window()
    }
    fn intersend(&self) -> Option<Dur> {
        self.cc.intersend()
    }
    fn on_ack(&mut self, ev: &AckEvent) {
        self.calls.borrow_mut().push(Call::Ack(
            ev.now,
            ev.rtt,
            ev.min_rtt,
            ev.newly_acked,
            ev.sent_at,
            ev.ece,
        ));
        self.cc.on_ack(ev);
    }
    fn on_loss(&mut self, ev: &LossEvent) {
        self.calls.borrow_mut().push(Call::Loss(ev.now));
        self.cc.on_loss(ev);
    }
    fn on_rto(&mut self, now: Time) {
        self.calls.borrow_mut().push(Call::Rto(now));
        self.cc.on_rto(now);
    }
    fn ecn_capable(&self) -> bool {
        self.cc.ecn_capable()
    }
    fn name(&self) -> &'static str {
        self.cc.name()
    }
}

/// One sender over a duplex link: its data link drops `script` and may
/// overflow and reorder, its ACK link follows `acks`.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub rate_bps: u64,
    pub delay: Dur,
    /// Delivery jitter of the data and the ACK link.
    pub jitter: [Dur; 2],
    /// The data link's queue.
    pub queue: Capacity,
    /// `(flow, seq, count)`: drop the first `count` copies of a segment.
    pub script: Vec<(u64, u64, u32)>,
    /// The ACK link's impairments.
    pub acks: ImpairmentPlan,
    /// The stream `acks` forks its draws from.
    pub seed: u64,
    pub cc: Cc,
    /// Sends to node 1, port 80, from port 10.
    pub cfg: SenderConfig,
    pub flows: OnOffConfig,
    /// The seed of the flow source.
    pub source: u64,
}

impl Scenario {
    /// A run of one to four flows of up to 150 segments (sometimes no
    /// flow cap), under one of five controllers, with a drop script, a
    /// shallow data queue now and then, jitter on either link, and ACK
    /// loss, duplication, reordering and outages.
    pub fn draw(rng: &mut SeedRng) -> Scenario {
        const MBPS: [u64; 5] = [2, 5, 10, 20, 50];
        let rate_bps = MBPS[rng.index(MBPS.len())] * 1_000_000;
        let delay = Dur::from_micros(500 * rng.range_u64(1, 61));
        let mut jitter = || {
            if rng.chance(0.3) {
                Dur::from_nanos(rng.range_u64(1, 5_000_000))
            } else {
                Dur::ZERO
            }
        };
        let jitter = [jitter(), jitter()];
        let queue = Capacity::Packets(if rng.chance(0.2) {
            rng.range_u64(2, 40) as usize
        } else {
            10_000
        });
        let segments = rng.range_u64(1, 151);
        let flows = OnOffConfig {
            mean_on_bytes: (segments * u64::from(wire::MSS) - rng.range_u64(0, 1448)) as f64,
            mean_off_secs: rng.range_f64(0.0, 0.2),
            deterministic: rng.chance(0.6),
        };
        let mut cfg = SenderConfig::new(NodeId(1), 80, 10);
        cfg.flow_id_base = rng.range_u64(0, 1000);
        cfg.max_flows = (!rng.chance(0.1)).then(|| rng.range_u64(1, 5));
        if !rng.chance(0.6) {
            cfg.dupack_threshold = rng.range_u64(1, 7) as u32;
        }
        const MAX_RTO_MS: [u64; 5] = [200, 500, 1_000, 3_000, 60_000];
        cfg.max_rto = Dur::from_millis(MAX_RTO_MS[rng.index(MAX_RTO_MS.len())]);
        cfg.max_consecutive_rtos = rng.chance(0.4).then(|| rng.range_u64(1, 9) as u32);
        let script = (0..rng.range_u64(0, 7))
            .map(|_| {
                let flow = cfg.flow_id_base + rng.range_u64(0, 3);
                (
                    flow,
                    rng.range_u64(0, segments + 1),
                    rng.range_u64(1, 4) as u32,
                )
            })
            .collect();
        let cc = match rng.index(6) {
            0 => Cc::Fixed(rng.range_f64(1.0, 40.0)),
            1 => Cc::Cubic(CubicParams::default()),
            2 => Cc::Cubic(CubicParams::tuned(
                rng.range_u64(1, 17) as f64,
                rng.range_u64(2, 65) as f64,
                rng.range_f64(0.2, 0.9),
            )),
            3 => Cc::NewReno,
            4 => Cc::Dctcp,
            _ => Cc::Paced {
                window: rng.range_f64(1.0, 60.0),
                gap: Dur::from_nanos(rng.range_u64(50_000, 5_000_000)),
            },
        };
        Scenario {
            rate_bps,
            delay,
            jitter,
            queue,
            script,
            acks: draw_ack_plan(rng),
            seed: rng.next_u64(),
            cc,
            cfg,
            flows,
            source: rng.next_u64(),
        }
    }

    fn source(&self) -> OnOffSource {
        OnOffSource::new(self.flows, SeedRng::new(self.source))
    }
}

fn draw_ack_plan(rng: &mut SeedRng) -> ImpairmentPlan {
    let mut plan = ImpairmentPlan::new();
    if rng.chance(0.6) {
        plan = plan.loss(LossModel::Bernoulli {
            p: rng.range_f64(0.0, 0.15),
        });
    }
    if rng.chance(0.2) {
        plan = plan.duplicate(rng.range_f64(0.0, 0.1));
    }
    if rng.chance(0.2) {
        plan = plan.reorder(
            rng.range_f64(0.0, 0.3),
            Dur::from_micros(rng.range_u64(1, 10_000)),
        );
    }
    if rng.chance(0.25) {
        let down = rng.range_u64(1, 2_000);
        let up = down + rng.range_u64(100, 8_000);
        plan = plan.outage(Time::from_millis(down), Time::from_millis(up));
    }
    plan
}

/// One segment as the sender offered it to its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    pub at: Time,
    pub flow: u64,
    pub seq: u64,
    pub flags: Flags,
    pub size: u32,
}

/// What the engine gave the sender, at the instant it did.
#[derive(Debug, Clone)]
pub enum Heard {
    Ack(Time, Packet),
    Timer(Time, u64),
}

/// What a sender did.
#[derive(Debug, Default)]
pub struct Outcome {
    pub sends: Vec<Sent>,
    /// Every RTO's instant, the aborting ones included.
    pub rtos: Vec<Time>,
    pub calls: Vec<Call>,
    /// Each finished flow's report, then the flow in progress at the end
    /// (if it delivered anything), as `{:?}` renders them.
    pub reports: Vec<String>,
}

/// What a run reached: the rules it exercised, as the model counts them,
/// and the ACKs the engine lost.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    pub fast_retransmits: u64,
    pub reopened: u64,
    /// RTOs whose timer ran on a doubled RTO.
    pub backed_off_rtos: u64,
    /// SACKed segments that go-back-N stepped over.
    pub skipped: u64,
    /// New segments sent only by limited transmit's allowance.
    pub limited: u64,
    /// Recoveries entered below `dupack_threshold`.
    pub early_retransmits: u64,
    pub acks_lost: u64,
    /// Segments a pacing timer released.
    pub paced: u64,
}

impl Coverage {
    pub fn add(&mut self, o: &Coverage) {
        self.fast_retransmits += o.fast_retransmits;
        self.reopened += o.reopened;
        self.backed_off_rtos += o.backed_off_rtos;
        self.skipped += o.skipped;
        self.limited += o.limited;
        self.early_retransmits += o.early_retransmits;
        self.acks_lost += o.acks_lost;
        self.paced += o.paced;
    }

    /// The behaviours never reached.
    pub fn missing(&self) -> Vec<&'static str> {
        [
            (self.fast_retransmits, "fast retransmit"),
            (self.reopened, "reopened lost retransmission"),
            (self.backed_off_rtos, "RTO with backoff"),
            (self.skipped, "go-back-N over SACKed segments"),
            (self.limited, "limited transmit"),
            (self.early_retransmits, "early retransmit"),
            (self.acks_lost, "ACK loss"),
            (self.paced, "paced send"),
        ]
        .into_iter()
        .filter_map(|(n, what)| (n == 0).then_some(what))
        .collect()
    }
}

/// Run `s` through the engine and the model: `Err` names the first
/// thing they disagree on, `Ok` says what the run reached.
pub fn check(s: &Scenario) -> Result<Coverage, String> {
    let (engine, heard, acks_lost) = run_engine(s);
    let (model, reached) = run_model(s, &heard);
    compare(&model, &engine)?;
    Ok(Coverage {
        acks_lost,
        ..reached
    })
}

pub fn compare(model: &Outcome, engine: &Outcome) -> Result<(), String> {
    first_difference("send", &model.sends, &engine.sends)?;
    first_difference("RTO", &model.rtos, &engine.rtos)?;
    first_difference("controller call", &model.calls, &engine.calls)?;
    first_difference("report", &model.reports, &engine.reports)
}

fn first_difference<T: PartialEq + Debug>(what: &str, m: &[T], e: &[T]) -> Result<(), String> {
    for i in 0..m.len().max(e.len()) {
        if m.get(i) != e.get(i) {
            return Err(format!(
                "{what} {i}: model {:?}, sender {:?}",
                m.get(i),
                e.get(i)
            ));
        }
    }
    Ok(())
}

/// The sender, with everything the engine gave it written down.
struct Recorder {
    sender: TcpSender,
    heard: Vec<Heard>,
}

impl Agent for Recorder {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.sender.start(ctx);
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.heard.push(Heard::Ack(ctx.now(), pkt.clone()));
        self.sender.on_packet(pkt, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.heard.push(Heard::Timer(ctx.now(), token));
        self.sender.on_timer(token, ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The data link's queue, writing down every segment offered to it.
#[derive(Debug)]
struct Tap {
    queue: ScriptedDrop<DropTail>,
    sent: Rc<RefCell<Vec<Sent>>>,
}

impl Discipline for Tap {
    fn offer(&mut self, pkt: Packet, now: Time) -> Verdict {
        self.sent.borrow_mut().push(Sent {
            at: now,
            flow: pkt.flow.0,
            seq: pkt.seq,
            flags: pkt.flags,
            size: pkt.size,
        });
        self.queue.offer(pkt, now)
    }
    fn take(&mut self) -> Option<(Packet, Time)> {
        self.queue.take()
    }
    fn len_packets(&self) -> usize {
        self.queue.len_packets()
    }
    fn len_bytes(&self) -> u64 {
        self.queue.len_bytes()
    }
    fn capacity(&self) -> Capacity {
        self.queue.capacity()
    }
}

/// What `TcpSender` did in `s`, what the engine gave it, and how many
/// ACKs the ACK link lost.
pub fn run_engine(s: &Scenario) -> (Outcome, Vec<Heard>, u64) {
    let mut b = TopologyBuilder::new();
    let (a, z) = (b.add_node(), b.add_node());
    let link = |from, to, jitter, capacity| LinkSpec {
        jitter,
        ..LinkSpec::new(from, to, s.rate_bps, s.delay, capacity)
    };
    let data = b.add_link(link(a, z, s.jitter[0], s.queue));
    let acks = b.add_link(link(z, a, s.jitter[1], Capacity::Packets(10_000)));
    let sent = Rc::new(RefCell::new(Vec::new()));
    let (tap, script) = (sent.clone(), s.script.clone());
    let mut sim = Simulator::with_disciplines(b.build(), move |id, spec| {
        if id == data {
            LinkQueue::custom(Tap {
                queue: ScriptedDrop::new(DropTail::new(spec.capacity), &script),
                sent: tap.clone(),
            })
        } else {
            LinkQueue::drop_tail(spec.capacity)
        }
    });
    sim.install_impairments(acks, s.acks.clone(), &SeedRng::new(s.seed));
    let calls = Rc::new(RefCell::new(Vec::new()));
    let (spy, cc) = (calls.clone(), s.cc);
    let sender = TcpSender::new(
        s.cfg.clone(),
        s.source(),
        Box::new(move |_| {
            Box::new(Spy {
                cc: cc.build(),
                calls: spy.clone(),
            })
        }),
        Box::new(NoHook),
    );
    let id = sim.add_agent(
        a,
        10,
        Box::new(Recorder {
            sender,
            heard: Vec::new(),
        }),
    );
    sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
    sim.run_until(UNTIL);

    let recorder = sim.agent_as::<Recorder>(id).expect("the recorder");
    let sender = &recorder.sender;
    let reports = sender.reports().to_vec();
    let calls = calls.take();
    let mut rtos: Vec<Time> = calls
        .iter()
        .filter_map(|c| match c {
            Call::Rto(at) => Some(*at),
            _ => None,
        })
        .chain(reports.iter().filter(|r| r.aborted).map(|r| r.end))
        .collect();
    rtos.sort();
    let outcome = Outcome {
        sends: sent.take(),
        rtos,
        calls,
        reports: reports
            .iter()
            .chain(&sender.partial_report(UNTIL))
            .map(|r| format!("{r:?}"))
            .collect(),
    };
    let lost = sim.fault_stats(acks).blackholed;
    (outcome, recorder.heard.clone(), lost)
}

/// What the model predicts the sender does in `s`, given what the engine
/// gave it, and what that reached.
pub fn run_model(s: &Scenario, heard: &[Heard]) -> (Outcome, Coverage) {
    let mut m = Model {
        s,
        source: s.source(),
        started: 0,
        pending: 0,
        start_at: None,
        conn: None,
        calls: Rc::new(RefCell::new(Vec::new())),
        out: Outcome::default(),
        reached: Coverage::default(),
    };
    m.schedule_next(Time::ZERO);
    for h in heard {
        let at = match h {
            Heard::Ack(at, _) | Heard::Timer(at, _) => *at,
        };
        // Whatever the model has due before this instant happens first.
        while let Some((due, token)) = m.due().filter(|&(due, _)| due < at) {
            m.fire(token, due);
        }
        match h {
            Heard::Ack(_, pkt) => m.on_ack(at, pkt),
            // The engine called a timer here: if the model has one of that
            // kind due now, it goes at this point of the instant.
            Heard::Timer(_, token) => {
                if m.timer(*token) == Some(at) {
                    m.fire(*token, at);
                }
            }
        }
    }
    while let Some((due, token)) = m.due().filter(|&(due, _)| due <= UNTIL) {
        m.fire(token, due);
    }
    if let Some(c) = m.conn.as_ref().filter(|c| c.una > 0) {
        let report = c.report(UNTIL.max(c.start), false);
        m.out.reports.push(format!("{report:?}"));
    }
    m.out.calls = m.calls.take();
    (m.out, m.reached)
}

struct Model<'a> {
    s: &'a Scenario,
    source: OnOffSource,
    started: u64,
    /// Bytes of the flow waiting to start.
    pending: u64,
    /// When it starts.
    start_at: Option<Time>,
    conn: Option<Conn>,
    calls: Rc<RefCell<Vec<Call>>>,
    out: Outcome,
    reached: Coverage,
}

/// One flow in progress.
struct Conn {
    flow: u64,
    cc: Box<dyn CongestionControl>,
    /// Segments and bytes to transfer.
    total: u64,
    bytes: u64,
    start: Time,
    una: u64,
    next: u64,
    /// One past the highest segment ever sent.
    sent: u64,
    /// Segments at or above `una` the receiver holds.
    sacked: BTreeSet<u64>,
    /// The loss list: holes retransmitted this recovery episode and not
    /// SACKed since, each with `sent` as it stood when it went out.
    lost: VecDeque<(u64, u64)>,
    /// The recovery point, in recovery.
    recovery: Option<u64>,
    dup_acks: u32,
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    /// The RTO was doubled and not recomputed since.
    backed_off: bool,
    rto_at: Time,
    min_rtt: Option<Dur>,
    rtt_sum_ms: f64,
    rtt_samples: u64,
    pace_next: Time,
    pace_at: Option<Time>,
    retransmits: u64,
    timeouts: u64,
    recoveries: u64,
    consecutive_rtos: u32,
    idle_restarts: u64,
}

impl Conn {
    fn high(&self) -> Option<u64> {
        self.sacked.last().copied()
    }

    fn pipe(&self) -> u64 {
        let high = self.high();
        let above = (self.una..self.next)
            .filter(|&seq| high.is_none_or(|h| seq > h))
            .count() as u64;
        let out = if high.is_none() {
            above.saturating_sub(u64::from(self.dup_acks))
        } else {
            above
        };
        out + self.lost.len() as u64
    }

    fn next_hole(&self) -> Option<u64> {
        let high = self.high().filter(|_| self.recovery.is_some())?;
        (self.una..high)
            .find(|seq| !self.sacked.contains(seq) && !self.lost.iter().any(|(l, _)| l == seq))
    }

    fn segment(&self, at: Time, seq: u64, retx: bool) -> Sent {
        let last = seq + 1 == self.total;
        let payload = if last {
            self.bytes - seq * u64::from(wire::MSS)
        } else {
            u64::from(wire::MSS)
        };
        let mut flags = Flags::empty();
        for (on, flag) in [
            (last, Flags::FIN),
            (retx, Flags::RETX),
            (self.cc.ecn_capable(), Flags::ECT),
        ] {
            if on {
                flags = flags.union(flag);
            }
        }
        Sent {
            at,
            flow: self.flow,
            seq,
            flags,
            size: payload as u32 + wire::HEADER_BYTES,
        }
    }

    fn computed_rto(&self, max_rto: Dur) -> Dur {
        match self.srtt {
            None => FIRST_RTO,
            Some(srtt) => (srtt + (self.rttvar * 4).max(Dur::from_millis(1)))
                .max(MIN_RTO)
                .min(max_rto),
        }
    }

    fn sample(&mut self, r: Dur) {
        let ns = |d: Dur| d.as_nanos();
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2;
            }
            Some(srtt) => {
                let err = ns(srtt).abs_diff(ns(r));
                self.rttvar = Dur::from_nanos(3 * ns(self.rttvar) / 4 + err / 4);
                self.srtt = Some(Dur::from_nanos(7 * ns(srtt) / 8 + ns(r) / 8));
            }
        }
        self.min_rtt = Some(self.min_rtt.map_or(r, |m| m.min(r)));
        self.rtt_sum_ms += r.as_millis_f64();
        self.rtt_samples += 1;
    }

    fn report(&self, end: Time, aborted: bool) -> FlowReport {
        FlowReport {
            flow: phi_sim::packet::FlowId(self.flow),
            bytes: (self.una * u64::from(wire::MSS)).min(self.bytes),
            segments: self.una,
            start: self.start,
            end,
            min_rtt: self.min_rtt,
            mean_rtt_ms: if self.rtt_samples > 0 {
                self.rtt_sum_ms / self.rtt_samples as f64
            } else {
                0.0
            },
            rtt_samples: self.rtt_samples,
            retransmits: self.retransmits,
            timeouts: self.timeouts,
            recoveries: self.recoveries,
            aborted,
            idle_restarts: self.idle_restarts,
        }
    }
}

impl Model<'_> {
    /// The model's timer of kind `token`, if armed.
    fn timer(&self, token: u64) -> Option<Time> {
        match token {
            START => self.start_at,
            RTO => self.conn.as_ref().map(|c| c.rto_at),
            PACE => self.conn.as_ref().and_then(|c| c.pace_at),
            _ => None,
        }
    }

    /// The earliest armed timer.
    fn due(&self) -> Option<(Time, u64)> {
        [START, RTO, PACE]
            .into_iter()
            .filter_map(|token| Some((self.timer(token)?, token)))
            .min()
    }

    fn fire(&mut self, token: u64, now: Time) {
        match token {
            START => self.begin(now),
            RTO => self.on_rto(now),
            _ => {
                if let Some(c) = self.conn.as_mut() {
                    c.pace_at = None;
                }
                self.send(now, true);
            }
        }
    }

    fn schedule_next(&mut self, now: Time) {
        if self.s.cfg.max_flows.is_some_and(|max| self.started >= max) {
            return;
        }
        let plan = self.source.next_flow();
        self.pending = plan.bytes;
        self.start_at = Some(now + Dur::from_nanos(plan.off_ns));
    }

    fn begin(&mut self, now: Time) {
        self.start_at = None;
        let mut cc: Box<dyn CongestionControl> = Box::new(Spy {
            cc: self.s.cc.build(),
            calls: self.calls.clone(),
        });
        cc.on_flow_start(now);
        let bytes = self.pending.max(1);
        self.conn = Some(Conn {
            flow: self.s.cfg.flow_id_base + self.started,
            cc,
            total: bytes.div_ceil(u64::from(wire::MSS)),
            bytes,
            start: now,
            una: 0,
            next: 0,
            sent: 0,
            sacked: BTreeSet::new(),
            lost: VecDeque::new(),
            recovery: None,
            dup_acks: 0,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: FIRST_RTO,
            backed_off: false,
            rto_at: now,
            min_rtt: None,
            rtt_sum_ms: 0.0,
            rtt_samples: 0,
            pace_next: now,
            pace_at: None,
            retransmits: 0,
            timeouts: 0,
            recoveries: 0,
            consecutive_rtos: 0,
            idle_restarts: 0,
        });
        self.started += 1;
        self.send(now, false);
        self.restart_rto(now);
    }

    fn restart_rto(&mut self, now: Time) {
        let c = self.conn.as_mut().expect("a flow in progress");
        c.rto = c.computed_rto(self.s.cfg.max_rto);
        c.backed_off = false;
        c.rto_at = now + c.rto;
    }

    fn finish(&mut self, now: Time, aborted: bool) {
        let c = self.conn.take().expect("a flow in progress");
        self.out
            .reports
            .push(format!("{:?}", c.report(now, aborted)));
        self.schedule_next(now);
    }

    fn retransmit(c: &mut Conn, out: &mut Outcome, now: Time, hole: u64) {
        c.retransmits += 1;
        c.lost.push_back((hole, c.sent));
        out.sends.push(c.segment(now, hole, true));
    }

    /// Send what the pipe, the loss list and pacing allow.
    fn send(&mut self, now: Time, paced: bool) {
        let Model {
            conn, out, reached, ..
        } = self;
        let Some(c) = conn.as_mut() else { return };
        loop {
            let window = c.cc.window().floor().max(1.0) as u64;
            let limited = if c.recovery.is_none() {
                u64::from(c.dup_acks.min(2))
            } else {
                0
            };
            let pipe = c.pipe();
            if pipe >= window + limited {
                return;
            }
            if let Some(hole) = c.next_hole() {
                Self::retransmit(c, out, now, hole);
                continue;
            }
            if c.next >= c.total {
                return;
            }
            if let Some(gap) = c.cc.intersend() {
                if c.pace_next > now {
                    c.pace_at.get_or_insert(c.pace_next);
                    return;
                }
                c.pace_next = now + gap;
            }
            while c.sacked.contains(&c.next) {
                c.next += 1;
                reached.skipped += 1;
            }
            if c.next >= c.total {
                return;
            }
            let seq = c.next;
            let retx = seq < c.sent;
            c.next += 1;
            c.sent = c.sent.max(c.next);
            c.retransmits += u64::from(retx);
            reached.limited += u64::from(pipe >= window);
            reached.paced += u64::from(paced);
            out.sends.push(c.segment(now, seq, retx));
        }
    }

    fn on_ack(&mut self, now: Time, pkt: &Packet) {
        let s = self.s;
        let cfg = &s.cfg;
        let Some(c) = self.conn.as_mut().filter(|c| c.flow == pkt.flow.0) else {
            return;
        };
        for (lo, hi) in pkt.sack.iter() {
            for seq in lo.max(c.una)..hi.min(c.sent) {
                if c.sacked.insert(seq) {
                    c.lost.retain(|&(hole, _)| hole != seq);
                }
            }
        }
        if let Some(high) = c.high() {
            let before = c.lost.len();
            c.lost.retain(|&(_, frontier)| frontier > high);
            self.reached.reopened += (before - c.lost.len()) as u64;
        }
        if pkt.ack > c.una {
            let newly = pkt.ack - c.una;
            c.dup_acks = 0;
            c.idle_restarts += u64::from(c.consecutive_rtos >= 2);
            c.consecutive_rtos = 0;
            c.una = pkt.ack;
            c.sacked = c.sacked.split_off(&pkt.ack);
            c.lost.retain(|&(hole, _)| hole >= pkt.ack);
            if c.recovery.is_some_and(|point| pkt.ack > point) {
                c.recovery = None;
                c.lost.clear();
            }
            c.next = c.next.max(pkt.ack);
            let rtt = (!pkt.is_retx() && pkt.echo > Time::ZERO).then(|| now - pkt.echo);
            if let Some(r) = rtt {
                c.sample(r);
            }
            c.cc.on_ack(&AckEvent {
                now,
                rtt,
                min_rtt: c.min_rtt,
                newly_acked: newly,
                sent_at: pkt.echo,
                shared_util: None,
                ece: pkt.flags.contains(Flags::ECE),
            });
            if c.una >= c.total {
                self.finish(now, false);
                return;
            }
            self.restart_rto(now);
        } else if pkt.ack == c.una && c.una < c.sent {
            c.dup_acks += 1;
            let outstanding = c.next - c.una;
            let threshold = if outstanding < u64::from(cfg.dupack_threshold) + 1 {
                outstanding.saturating_sub(1).max(1) as u32
            } else {
                cfg.dupack_threshold
            };
            let signal = c.dup_acks.max(c.sacked.len() as u32);
            if c.recovery.is_none() && signal >= threshold {
                self.reached.fast_retransmits += 1;
                self.reached.early_retransmits += u64::from(threshold < cfg.dupack_threshold);
                c.recoveries += 1;
                c.recovery = Some(c.next.saturating_sub(1));
                c.cc.on_loss(&LossEvent { now });
                let una = c.una;
                Self::retransmit(c, &mut self.out, now, una);
                self.restart_rto(now);
            }
        }
        self.send(now, false);
    }

    fn on_rto(&mut self, now: Time) {
        let s = self.s;
        let cfg = &s.cfg;
        let c = self.conn.as_mut().expect("a flow in progress");
        self.out.rtos.push(now);
        self.reached.backed_off_rtos += u64::from(c.backed_off);
        c.timeouts += 1;
        c.consecutive_rtos += 1;
        if cfg
            .max_consecutive_rtos
            .is_some_and(|cap| c.consecutive_rtos >= cap)
        {
            self.finish(now, true);
            return;
        }
        c.cc.on_rto(now);
        c.dup_acks = 0;
        c.recovery = None;
        c.lost.clear();
        c.next = c.una;
        c.rto = (c.rto * 2).min(cfg.max_rto);
        c.backed_off = true;
        c.rto_at = now + c.rto;
        self.send(now, false);
    }
}
