//! The simulator's links computed the plain way: the reference the
//! engine's lazy link clock and packet pool are tested against.
//!
//! One `BinaryHeap` of events ordered by time, then push order. Packets
//! travel by value. Every frame's end is an event of its own (`TxEnd`),
//! which counts the frame into the link's tallies when it ends. The model
//! covers drop-tail FIFO queues, serialization at the link rate,
//! propagation delay, per-packet jitter, and the fault plane of an
//! `ImpairmentPlan`: its edges and verdicts, drawn from the same `SeedRng`
//! streams in the documented order. Switches, ECN and PFC are not modelled.
//!
//! The rules, as the engine documents them:
//!
//! * A packet reaching a link on a downed link under `DownPolicy::Drop`
//!   is blackholed; otherwise the queue's occupancy integral is advanced
//!   and the packet is admitted or dropped by the queue's capacity.
//! * A link is free when its last frame has ended and no start is pending.
//!   An admitted packet starts at once on a free link. Otherwise the first
//!   packet to wait behind a frame schedules the start of the next one
//!   (`Next`) at the frame's end, and that start takes its place among the
//!   events of that instant by when it was scheduled: a frame that starts
//!   with packets behind it schedules it then; a frame that starts alone,
//!   when the first packet queues behind it. So a packet arriving at the
//!   instant a frame ends queues behind the waiting packets if `Next` was
//!   scheduled after the packet's arrival, and finds room freed if before.
//! * A frame's crossing is decided when it starts: its fault verdict, for
//!   the link state at its end (an edge at exactly that instant counts),
//!   and its arrival at the far end, at end + delay + jitter + the
//!   verdict's extra delay. A down or paused link starts nothing.
//! * A down edge under `DownPolicy::Drop` blackholes the whole queue; an
//!   up edge starts the next frame if the link is free.
//! * A packet sent to its own node, or reaching its destination on an
//!   unbound port, is undeliverable.
//! * A run stopped at a deadline moves the clock to the deadline and
//!   advances every occupancy integral to it, unless an event other than
//!   a frame's end fell on the deadline itself: then no integral moves.
//!
//! Used by `reference.rs` beside it and, through `#[path]`, by the root
//! package's `tests/sim_reference.rs`, which tier-1 runs.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use phi_sim::engine::{packet_to, Agent, Ctx, PacketCensus, Simulator};
use phi_sim::faults::{DownPolicy, FaultStats, ImpairmentPlan, LossModel};
use phi_sim::packet::{FlowId, LinkId, NodeId, Packet};
use phi_sim::queue::Capacity;
use phi_sim::stats::{LinkStats, OnlineStats};
use phi_sim::time::{Dur, Time};
use phi_sim::topology::{LinkSpec, TopologyBuilder};
use phi_sim::trace::{SharedTraceCollector, TraceOp};
use phi_workload::SeedRng;

/// Every node's injector listens here; nothing is sent to it.
const INJECT_PORT: u16 = 1;
/// Every node's sink.
const SINK_PORT: u16 = 2;
/// Bound on no node.
const UNBOUND_PORT: u16 = 3;
/// The last observation: past every event any scenario schedules.
const END: Time = Time::from_secs(100);

/// One packet to inject: `size` bytes from node `from` to `(to, port)`.
#[derive(Debug, Clone)]
pub struct Send {
    pub at: Time,
    pub from: usize,
    pub to: usize,
    pub port: u16,
    pub size: u32,
}

/// A line or tree of duplex links, impairment plans on some of them, and
/// packets injected on a schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub nodes: usize,
    pub links: Vec<LinkSpec>,
    /// `(link, plan)`, installed in this order.
    pub plans: Vec<(usize, ImpairmentPlan)>,
    /// The root stream the plans fork their link streams from.
    pub seed: u64,
    /// Grouped by `from` in node order: the order the injectors schedule
    /// them in.
    pub sends: Vec<Send>,
    /// Deadlines the run stops at and is observed, ascending; a last
    /// observation follows at [`END`].
    pub cuts: Vec<Time>,
}

impl Scenario {
    /// A scenario on grids coarse enough that events often coincide: frame
    /// ends, arrivals, edges and injections at one instant.
    pub fn draw(rng: &mut SeedRng) -> Scenario {
        let nodes = rng.range_u64(2, 7) as usize;
        let line = rng.chance(0.5);
        let mut links = Vec::new();
        for child in 1..nodes {
            let parent = if line {
                child - 1
            } else {
                rng.range_u64(0, child as u64) as usize
            };
            links.push(draw_link(rng, parent, child));
            links.push(draw_link(rng, child, parent));
        }
        let mut plans = Vec::new();
        for link in 0..links.len() {
            if rng.chance(0.35) {
                plans.push((link, draw_plan(rng)));
            }
        }
        let mut sends = Vec::new();
        let mut at = Time::ZERO;
        for _ in 0..rng.range_u64(10, 150) {
            // A third of the sends share the instant of the one before.
            if sends.is_empty() || !rng.chance(0.3) {
                at = grid(rng, 400);
            }
            let from = rng.range_u64(0, nodes as u64) as usize;
            let to = if rng.chance(0.1) {
                from
            } else {
                rng.range_u64(0, nodes as u64) as usize
            };
            let port = if rng.chance(0.9) {
                SINK_PORT
            } else {
                UNBOUND_PORT
            };
            const SIZES: [u32; 5] = [125, 250, 500, 1000, 1500];
            let size = match rng.range_u64(0, 6) as usize {
                5 => rng.range_u64(40, 1501) as u32,
                k => SIZES[k],
            };
            sends.push(Send {
                at,
                from,
                to,
                port,
                size,
            });
        }
        sends.sort_by_key(|s| s.from);
        let mut cuts: Vec<Time> = (0..rng.range_u64(0, 4)).map(|_| grid(rng, 600)).collect();
        cuts.sort_unstable();
        Scenario {
            nodes,
            links,
            plans,
            seed: rng.next_u64(),
            sends,
            cuts,
        }
    }
}

/// A multiple of 250 µs below `steps` of them.
fn grid(rng: &mut SeedRng, steps: u64) -> Time {
    Time::from_micros(250 * rng.range_u64(0, steps))
}

fn draw_link(rng: &mut SeedRng, from: usize, to: usize) -> LinkSpec {
    // 125 bytes take 1 ms at 1 Mbit/s; 3 Mbit/s gives uneven frames.
    const RATES: [u64; 5] = [1_000_000, 2_000_000, 3_000_000, 4_000_000, 10_000_000];
    let rate = RATES[rng.range_u64(0, 5) as usize];
    let delay = Dur::from_micros(250 * rng.range_u64(0, 21));
    let capacity = if rng.chance(0.5) {
        Capacity::Packets(rng.range_u64(1, 7) as usize)
    } else {
        Capacity::Bytes(125 * rng.range_u64(4, 33))
    };
    let jitter = if rng.chance(0.25) {
        Dur::from_nanos(rng.range_u64(1, 3_000_000))
    } else {
        Dur::ZERO
    };
    LinkSpec {
        jitter,
        ..LinkSpec::new(
            NodeId(from as u32),
            NodeId(to as u32),
            rate,
            delay,
            capacity,
        )
    }
}

fn draw_plan(rng: &mut SeedRng) -> ImpairmentPlan {
    let mut plan = ImpairmentPlan::new();
    let mut t = 0;
    for _ in 0..rng.range_u64(0, 3) {
        let down = t + rng.range_u64(1, 60);
        let up = down + rng.range_u64(1, 40);
        plan = plan.outage(Time::from_millis(down), Time::from_millis(up));
        t = up;
    }
    if rng.chance(0.3) {
        let start = grid(rng, 400);
        let len = Dur::from_millis(rng.range_u64(10, 150));
        let mean_down = Dur::from_millis(rng.range_u64(2, 20));
        let mean_up = Dur::from_millis(rng.range_u64(2, 20));
        plan = plan.flap(start, start + len, mean_down, mean_up);
    }
    plan = plan.loss(match rng.range_u64(0, 3) {
        0 => LossModel::None,
        1 => LossModel::Bernoulli {
            p: rng.range_f64(0.0, 0.3),
        },
        _ => LossModel::GilbertElliott {
            p_enter_bad: rng.range_f64(0.01, 0.3),
            p_exit_bad: rng.range_f64(0.05, 0.6),
            good_loss: rng.range_f64(0.0, 0.05),
            bad_loss: rng.range_f64(0.2, 0.9),
        },
    });
    if rng.chance(0.3) {
        plan = plan.corrupt(rng.range_f64(0.0, 0.2));
    }
    if rng.chance(0.3) {
        plan = plan.duplicate(rng.range_f64(0.0, 0.3));
    }
    if rng.chance(0.3) {
        let extra = Dur::from_micros(250 * rng.range_u64(0, 20));
        plan = plan.reorder(rng.range_f64(0.0, 0.5), extra);
    }
    plan.down_policy(if rng.chance(0.5) {
        DownPolicy::Drop
    } else {
        DownPolicy::Park
    })
}

/// How one copy of a packet ended. Links are named by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fate {
    Delivered(Time),
    Dropped(u32, Time),
    Blackholed(u32, Time),
    Corrupted(u32, Time),
    Undeliverable,
}

/// Everything a run shows, by the model or by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per packet id: the send it came from and its copies' fates, sorted.
    pub packets: Vec<(usize, Vec<Fate>)>,
    /// At each cut, then at [`END`]: the clock, the census and every
    /// link's `LinkStats`, rendered field by field.
    pub observed: Vec<(Time, PacketCensus, Vec<String>)>,
    /// Per link, at the end.
    pub faults: Vec<FaultStats>,
}

/// `Err` naming the first packet (by id) whose fates differ, else the
/// first observation or link that does.
pub fn compare(model: &Outcome, engine: &Outcome) -> Result<(), String> {
    let n = model.packets.len().max(engine.packets.len());
    for id in 0..n {
        let (m, e) = (model.packets.get(id), engine.packets.get(id));
        if m != e {
            return Err(format!(
                "packet {id} (send, fates): model {m:?}, engine {e:?}"
            ));
        }
    }
    for (k, (m, e)) in model.observed.iter().zip(&engine.observed).enumerate() {
        if m.0 != e.0 || m.1 != e.1 {
            return Err(format!(
                "observation {k}: model at {:?} {:?}, engine at {:?} {:?}",
                m.0, m.1, e.0, e.1
            ));
        }
        for (link, (ml, el)) in m.2.iter().zip(&e.2).enumerate() {
            if ml != el {
                return Err(format!(
                    "observation {k} at {:?}, link {link}: model {ml}, engine {el}",
                    m.0
                ));
            }
        }
    }
    if model.observed.len() != engine.observed.len() {
        return Err("observation counts differ".into());
    }
    for (link, (m, e)) in model.faults.iter().zip(&engine.faults).enumerate() {
        if m != e {
            return Err(format!("link {link} faults: model {m:?}, engine {e:?}"));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn render(
    enqueued: u64,
    dropped: u64,
    transmitted: u64,
    bytes: u64,
    busy: Dur,
    wait: &OnlineStats,
    integral: f64,
    last_change: Time,
) -> String {
    format!(
        "enqueued {enqueued} dropped {dropped} transmitted {transmitted} bytes {bytes} \
         busy {busy:?} wait {wait:?} integral {integral:?} last_change {last_change:?}"
    )
}

fn render_stats(s: &LinkStats) -> String {
    render(
        s.enqueued,
        s.dropped,
        s.transmitted,
        s.bytes_transmitted,
        s.busy,
        &s.queue_wait,
        s.byte_time_integral,
        s.last_change,
    )
}

// ---------------------------------------------------------------------
// The model.

#[derive(Debug, Clone, Copy)]
struct Pkt {
    id: u64,
    dst: usize,
    port: u16,
    size: u32,
}

enum Ev {
    Inject(usize),
    /// `pkt` reaches the far end of `link`.
    Arrive {
        pkt: Pkt,
        link: usize,
    },
    /// A frame of `size` bytes, `tx` long, ends on `link`.
    TxEnd {
        link: usize,
        size: u32,
        tx: Dur,
    },
    /// The next queued frame may start on `link`.
    Next {
        link: usize,
    },
    Edge {
        link: usize,
        up: bool,
    },
}

struct Entry {
    at: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    /// Reversed: the heap pops the earliest, then the first pushed.
    fn cmp(&self, other: &Entry) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum Verdict {
    Forward { extra: Dur, duplicate: bool },
    Blackhole,
    Corrupt,
}

struct Fault {
    plan: ImpairmentPlan,
    rng: SeedRng,
    /// Every edge, sorted by time, then down before up.
    edges: Vec<(Time, bool)>,
    up: bool,
    bad: bool,
    stats: FaultStats,
}

impl Fault {
    /// Outage edges, then the flapping regime's, drawn now from the link's
    /// stream: a period of `[0.5, 1.5)` × its mean, at least 1 ns, and a
    /// closing up edge at the regime's end.
    fn new(plan: ImpairmentPlan, mut rng: SeedRng) -> Fault {
        let mut edges = Vec::new();
        for w in &plan.outages {
            edges.push((w.down, false));
            edges.push((w.up, true));
        }
        if let Some(f) = plan.flapping {
            let (mut t, mut up) = (f.start, true);
            while t < f.end {
                edges.push((t, !up));
                up = !up;
                let mean = if up { f.mean_up } else { f.mean_down };
                t += mean
                    .mul_f64(rng.range_f64(0.5, 1.5))
                    .max(Dur::from_nanos(1));
            }
            edges.push((f.end, true));
        }
        edges.sort_unstable();
        Fault {
            plan,
            rng,
            edges,
            up: true,
            bad: false,
            stats: FaultStats::default(),
        }
    }

    /// The verdict on a frame ending at `end`: blackholed if the link is
    /// down then, else draws in the order loss, corruption, duplication,
    /// reordering, each only when enabled.
    fn verdict(&mut self, end: Time) -> Verdict {
        let due = self.edges.iter().take_while(|&&(t, _)| t <= end);
        if !due.last().is_none_or(|&(_, up)| up) {
            self.stats.blackholed += 1;
            return Verdict::Blackhole;
        }
        let lost = match self.plan.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => self.rng.chance(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                good_loss,
                bad_loss,
            } => {
                let leave = if self.bad { p_exit_bad } else { p_enter_bad };
                if self.rng.chance(leave) {
                    self.bad = !self.bad;
                }
                self.rng.chance(if self.bad { bad_loss } else { good_loss })
            }
        };
        if lost {
            self.stats.blackholed += 1;
            return Verdict::Blackhole;
        }
        if self.plan.corrupt > 0.0 && self.rng.chance(self.plan.corrupt) {
            self.stats.corrupted += 1;
            return Verdict::Corrupt;
        }
        let duplicate = self.plan.duplicate > 0.0 && self.rng.chance(self.plan.duplicate);
        self.stats.duplicated += u64::from(duplicate);
        let mut extra = Dur::ZERO;
        if let Some(r) = self.plan.reorder {
            if r.p > 0.0 && self.rng.chance(r.p) && !r.max_extra.is_zero() {
                extra = Dur::from_nanos(self.rng.range_u64(0, r.max_extra.as_nanos() + 1));
                self.stats.reordered += 1;
            }
        }
        Verdict::Forward { extra, duplicate }
    }
}

#[derive(Default)]
struct Tally {
    enqueued: u64,
    dropped: u64,
    transmitted: u64,
    bytes: u64,
    busy: Dur,
    wait: OnlineStats,
    integral: f64,
    last_change: Time,
}

struct Link {
    spec: LinkSpec,
    queue: VecDeque<(Pkt, Time)>,
    queued_bytes: u64,
    /// The end of the frame started last.
    busy_until: Time,
    /// A `Next` is scheduled.
    next: bool,
    fault: Option<Fault>,
    tally: Tally,
}

impl Link {
    fn advance(&mut self, now: Time) {
        let dt = now.saturating_since(self.tally.last_change).as_secs_f64();
        self.tally.integral += dt * self.queued_bytes as f64;
        self.tally.last_change = now;
    }

    fn free(&self, now: Time) -> bool {
        !self.next && self.busy_until <= now
    }

    fn down(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| !f.up)
    }

    fn admits(&self, size: u32) -> bool {
        match self.spec.capacity {
            Capacity::Packets(n) => self.queue.len() < n,
            Capacity::Bytes(n) => self.queued_bytes + u64::from(size) <= n,
        }
    }
}

/// The engine's per-packet jitter hash (SplitMix64 of the packet id).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Model<'a> {
    sends: &'a [Send],
    now: Time,
    heap: BinaryHeap<Entry>,
    pushed: u64,
    links: Vec<Link>,
    /// `route[at][dst]`: the link out of `at` toward `dst`.
    route: Vec<Vec<Option<usize>>>,
    /// Per packet id: its send and its copies' fates.
    packets: Vec<(usize, Vec<Fate>)>,
    delivered: u64,
    undeliverable: u64,
}

impl<'a> Model<'a> {
    fn new(s: &'a Scenario) -> Self {
        let mut links: Vec<Link> = s
            .links
            .iter()
            .map(|spec| Link {
                spec: spec.clone(),
                queue: VecDeque::new(),
                queued_bytes: 0,
                busy_until: Time::ZERO,
                next: false,
                fault: None,
                tally: Tally {
                    wait: OnlineStats::new(),
                    ..Tally::default()
                },
            })
            .collect();
        let mut model = Model {
            sends: &s.sends,
            now: Time::ZERO,
            heap: BinaryHeap::new(),
            pushed: 0,
            route: routes(s.nodes, &s.links),
            links: Vec::new(),
            packets: Vec::new(),
            delivered: 0,
            undeliverable: 0,
        };
        let root = SeedRng::new(s.seed);
        for (link, plan) in &s.plans {
            let fault = Fault::new(plan.clone(), root.fork_indexed("faults/link", *link as u64));
            for &(at, up) in &fault.edges {
                model.push(at, Ev::Edge { link: *link, up });
            }
            links[*link].fault = Some(fault);
        }
        model.links = links;
        for (i, send) in s.sends.iter().enumerate() {
            model.push(send.at, Ev::Inject(i));
        }
        model
    }

    fn push(&mut self, at: Time, ev: Ev) {
        self.heap.push(Entry {
            at,
            seq: self.pushed,
            ev,
        });
        self.pushed += 1;
    }

    fn fate(&mut self, pkt: Pkt, fate: Fate) {
        self.packets[pkt.id as usize].1.push(fate);
    }

    fn run_until(&mut self, deadline: Time) {
        while self.heap.peek().is_some_and(|e| e.at <= deadline) {
            let Entry { at, ev, .. } = self.heap.pop().expect("peeked");
            // A frame's end moves no clock: the engine keeps no event for it.
            if !matches!(ev, Ev::TxEnd { .. }) {
                self.now = at;
            }
            match ev {
                Ev::Inject(i) => self.inject(i),
                Ev::Arrive { pkt, link } => self.arrive(pkt, link),
                Ev::TxEnd { link, size, tx } => {
                    let t = &mut self.links[link].tally;
                    t.transmitted += 1;
                    t.bytes += u64::from(size);
                    t.busy += tx;
                }
                Ev::Next { link } => {
                    self.links[link].next = false;
                    self.kick(link);
                }
                Ev::Edge { link, up } => self.edge(link, up),
            }
        }
        if self.now < deadline {
            self.now = deadline;
            for link in &mut self.links {
                link.advance(deadline);
            }
        }
    }

    fn inject(&mut self, i: usize) {
        let send = &self.sends[i];
        let pkt = Pkt {
            id: self.packets.len() as u64,
            dst: send.to,
            port: send.port,
            size: send.size,
        };
        let from = send.from;
        self.packets.push((i, Vec::new()));
        self.forward(from, pkt);
    }

    fn forward(&mut self, at: usize, pkt: Pkt) {
        match self.route[at][pkt.dst] {
            Some(link) => self.offer(link, pkt),
            None => {
                self.undeliverable += 1;
                self.fate(pkt, Fate::Undeliverable);
            }
        }
    }

    fn arrive(&mut self, pkt: Pkt, link: usize) {
        let node = self.links[link].spec.to.0 as usize;
        if pkt.dst != node {
            return self.forward(node, pkt);
        }
        if pkt.port == SINK_PORT {
            self.delivered += 1;
            self.fate(pkt, Fate::Delivered(self.now));
        } else {
            self.undeliverable += 1;
            self.fate(pkt, Fate::Undeliverable);
        }
    }

    fn offer(&mut self, l: usize, pkt: Pkt) {
        let now = self.now;
        let link = &mut self.links[l];
        if let Some(f) = link.fault.as_mut() {
            if !f.up && f.plan.down_policy == DownPolicy::Drop {
                f.stats.blackholed += 1;
                return self.fate(pkt, Fate::Blackholed(l as u32, now));
            }
        }
        link.advance(now);
        if !link.admits(pkt.size) {
            link.tally.dropped += 1;
            return self.fate(pkt, Fate::Dropped(l as u32, now));
        }
        link.tally.enqueued += 1;
        link.queued_bytes += u64::from(pkt.size);
        link.queue.push_back((pkt, now));
        if link.free(now) {
            self.start(l);
        } else if !link.next {
            link.next = true;
            let at = link.busy_until;
            self.push(at, Ev::Next { link: l });
        }
    }

    fn kick(&mut self, l: usize) {
        let link = &self.links[l];
        if link.free(self.now) && !link.queue.is_empty() {
            self.start(l);
        }
    }

    /// Start the head of the queue, unless the link is down.
    fn start(&mut self, l: usize) {
        let now = self.now;
        let link = &mut self.links[l];
        if link.down() {
            return;
        }
        link.advance(now);
        let Some((pkt, since)) = link.queue.pop_front() else {
            return;
        };
        link.queued_bytes -= u64::from(pkt.size);
        let tx = Dur::transmission(pkt.size, link.spec.rate_bps);
        let end = now + tx;
        link.busy_until = end;
        link.tally
            .wait
            .push(now.saturating_since(since).as_secs_f64());
        let verdict = match link.fault.as_mut() {
            Some(f) => f.verdict(end),
            None => Verdict::Forward {
                extra: Dur::ZERO,
                duplicate: false,
            },
        };
        let mut delay = link.spec.delay;
        if !link.spec.jitter.is_zero() {
            delay += Dur::from_nanos(mix(pkt.id) % link.spec.jitter.as_nanos());
        }
        let waiting = !link.queue.is_empty();
        link.next = waiting;
        self.push(
            end,
            Ev::TxEnd {
                link: l,
                size: pkt.size,
                tx,
            },
        );
        if waiting {
            self.push(end, Ev::Next { link: l });
        }
        match verdict {
            Verdict::Forward { extra, duplicate } => {
                let at = end + delay + extra;
                self.push(at, Ev::Arrive { pkt, link: l });
                if duplicate {
                    self.push(at, Ev::Arrive { pkt, link: l });
                }
            }
            Verdict::Blackhole => self.fate(pkt, Fate::Blackholed(l as u32, now)),
            Verdict::Corrupt => self.fate(pkt, Fate::Corrupted(l as u32, now)),
        }
    }

    fn edge(&mut self, l: usize, up: bool) {
        let now = self.now;
        let link = &mut self.links[l];
        let f = link.fault.as_mut().expect("edges come from a plan");
        if f.up == up {
            return;
        }
        f.up = up;
        f.stats.edges += 1;
        if up {
            return self.kick(l);
        }
        if f.plan.down_policy != DownPolicy::Drop {
            return;
        }
        link.advance(now);
        let drained: Vec<Pkt> = link.queue.drain(..).map(|(pkt, _)| pkt).collect();
        link.queued_bytes = 0;
        let f = link.fault.as_mut().expect("checked above");
        f.stats.blackholed += drained.len() as u64;
        for pkt in drained {
            self.fate(pkt, Fate::Blackholed(l as u32, now));
        }
    }

    fn observe(&self) -> (Time, PacketCensus, Vec<String>) {
        let in_flight = self
            .heap
            .iter()
            .filter(|e| matches!(e.ev, Ev::Arrive { .. }))
            .count() as u64;
        let faults = self.links.iter().filter_map(|l| l.fault.as_ref());
        let sum = |f: fn(&FaultStats) -> u64| faults.clone().map(|x| f(&x.stats)).sum::<u64>();
        let census = PacketCensus {
            injected: self.packets.len() as u64,
            delivered: self.delivered,
            dropped: self.links.iter().map(|l| l.tally.dropped).sum(),
            undeliverable: self.undeliverable,
            corrupted: sum(|s| s.corrupted),
            duplicated: sum(|s| s.duplicated),
            blackholed: sum(|s| s.blackholed),
            pfc_dropped: 0,
            queued: self.links.iter().map(|l| l.queue.len() as u64).sum(),
            in_flight,
            ecn_marked: 0,
            paused_ns: 0,
        };
        let links = self
            .links
            .iter()
            .map(|l| {
                let t = &l.tally;
                render(
                    t.enqueued,
                    t.dropped,
                    t.transmitted,
                    t.bytes,
                    t.busy,
                    &t.wait,
                    t.integral,
                    t.last_change,
                )
            })
            .collect();
        (self.now, census, links)
    }
}

/// Breadth-first from every node: the first link of a shortest path to
/// every other (the only path, on a tree).
fn routes(nodes: usize, links: &[LinkSpec]) -> Vec<Vec<Option<usize>>> {
    (0..nodes)
        .map(|src| {
            let mut first = vec![None; nodes];
            let mut seen = vec![false; nodes];
            seen[src] = true;
            let mut frontier = VecDeque::from([(src, None)]);
            while let Some((at, via)) = frontier.pop_front() {
                for (id, l) in links.iter().enumerate() {
                    let to = l.to.0 as usize;
                    if l.from.0 as usize == at && !seen[to] {
                        seen[to] = true;
                        first[to] = via.or(Some(id));
                        frontier.push_back((to, first[to]));
                    }
                }
            }
            first
        })
        .collect()
}

/// Run `s` through the reference model.
pub fn run_model(s: &Scenario) -> Outcome {
    let mut model = Model::new(s);
    let mut observed = Vec::new();
    for &cut in s.cuts.iter().chain([&END]) {
        model.run_until(cut);
        observed.push(model.observe());
    }
    let mut packets = model.packets;
    for (_, fates) in &mut packets {
        fates.sort_unstable();
    }
    let faults = model
        .links
        .iter()
        .map(|l| l.fault.as_ref().map(|f| f.stats).unwrap_or_default())
        .collect();
    Outcome {
        packets,
        observed,
        faults,
    }
}

// ---------------------------------------------------------------------
// The engine, driven through its public API.

/// Sends its node's share of the scenario at the scheduled times, each
/// packet's `seq` naming its send, and logs the send order (which is the
/// packet id order).
struct Injector {
    sends: Vec<(usize, Send)>,
    log: Rc<RefCell<Vec<usize>>>,
}

impl Agent for Injector {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, send) in &self.sends {
            ctx.set_timer_at(send.at, *i as u64);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let send = &self
            .sends
            .iter()
            .find(|(i, _)| *i as u64 == token)
            .expect("a timer per send")
            .1;
        let mut p = packet_to(
            NodeId(send.to as u32),
            send.port,
            INJECT_PORT,
            FlowId(token),
            send.size,
        );
        p.seq = token;
        ctx.send(p);
        self.log.borrow_mut().push(token as usize);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Records `(packet id, arrival time)`.
#[derive(Default)]
struct Sink {
    received: Vec<(u64, Time)>,
}

impl Agent for Sink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.received.push((pkt.id, ctx.now()));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run `s` through the engine. A copy's fate comes from its sink (a
/// delivery) or the trace (a drop, blackhole or corruption); a copy with
/// neither after the drained run was undeliverable.
pub fn run_engine(s: &Scenario) -> Outcome {
    let mut b = TopologyBuilder::new();
    for _ in 0..s.nodes {
        b.add_node();
    }
    for spec in &s.links {
        b.add_link(spec.clone());
    }
    let mut sim = Simulator::new(b.build());
    let root = SeedRng::new(s.seed);
    for (link, plan) in &s.plans {
        sim.install_impairments(LinkId(*link as u32), plan.clone(), &root);
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sinks = Vec::new();
    for node in 0..s.nodes {
        let sends = s
            .sends
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, send)| send.from == node)
            .collect();
        let log = log.clone();
        let at = NodeId(node as u32);
        sim.add_agent(at, INJECT_PORT, Box::new(Injector { sends, log }));
        sinks.push(sim.add_agent(at, SINK_PORT, Box::<Sink>::default()));
    }
    let (tracer, trace) = SharedTraceCollector::new();
    sim.set_tracer(tracer);
    let mut observed = Vec::new();
    for &cut in s.cuts.iter().chain([&END]) {
        sim.run_until(cut);
        let links = (0..s.links.len())
            .map(|l| render_stats(sim.link_stats(LinkId(l as u32))))
            .collect();
        observed.push((sim.now(), sim.packet_census(), links));
    }
    assert_eq!(sim.sched_stats().pending, 0, "the run did not drain");
    let mut packets: Vec<(usize, Vec<Fate>)> = log
        .borrow()
        .iter()
        .map(|&send| (send, Vec::new()))
        .collect();
    let mut copies = vec![1usize; packets.len()];
    for e in trace.borrow().iter() {
        let id = e.packet_id as usize;
        let link = e.link.map_or(u32::MAX, |l| l.0);
        let fate = match e.op {
            TraceOp::Drop => Fate::Dropped(link, e.at),
            TraceOp::Blackhole => Fate::Blackholed(link, e.at),
            TraceOp::Corrupt => Fate::Corrupted(link, e.at),
            TraceOp::Duplicate => {
                copies[id] += 1;
                continue;
            }
            _ => continue,
        };
        packets[id].1.push(fate);
    }
    for &sink in &sinks {
        let sink = sim.agent_as::<Sink>(sink).expect("a sink");
        for &(id, at) in &sink.received {
            packets[id as usize].1.push(Fate::Delivered(at));
        }
    }
    for ((_, fates), copies) in packets.iter_mut().zip(copies) {
        while fates.len() < copies {
            fates.push(Fate::Undeliverable);
        }
        fates.sort_unstable();
    }
    let faults = (0..s.links.len())
        .map(|l| sim.fault_stats(LinkId(l as u32)))
        .collect();
    Outcome {
        packets,
        observed,
        faults,
    }
}
