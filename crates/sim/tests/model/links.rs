//! The simulator's links and shared-buffer switches computed the plain
//! way: the reference the engine's lazy link clock, packet pool and
//! switch accounting are tested against.
//!
//! One `BinaryHeap` of events ordered by time, then push order, except as
//! below. Packets travel by value. Every frame's end is an event of its
//! own (`TxEnd`), which counts the frame into the link's tallies and
//! starts the next. The model covers drop-tail FIFO queues, serialization
//! at the link rate, propagation delay, per-packet jitter, the fault plane
//! of an `ImpairmentPlan` (its edges and verdicts, drawn from the same
//! `SeedRng` streams in the documented order), and the `SwitchSpec` of
//! DESIGN.md's "Datacenter backpressure": DT admission, ECN marking, PFC
//! and its watchdog.
//!
//! The rules, as the engine documents them:
//!
//! * A packet reaching a link on a downed link under `DownPolicy::Drop`
//!   is blackholed; otherwise it is admitted or dropped by the switch it
//!   leaves, if any (below), then by the queue's capacity.
//! * An admitted packet starts at once on a link with no frame on the
//!   wire, and a frame's end starts the next after its instant's fault
//!   edges and before everything else there (frame ends in link id order).
//! * A frame's crossing is decided when it starts: its fault verdict, for
//!   the link state at its end (an edge at exactly that instant counts),
//!   and its arrival at the far end, at end + delay + jitter + the
//!   verdict's extra delay. A down or paused link starts nothing.
//! * A down edge under `DownPolicy::Drop` blackholes the whole queue; an
//!   up edge starts the next frame if the link is free.
//! * A packet sent to its own node, or reaching its destination on an
//!   unbound port, is undeliverable.
//!
//! And at a node with a switch, of `B` bytes pooled under DT parameter α:
//!
//! * A packet that is not blackholed is admitted to egress `i` iff
//!   `ΣQ + size ≤ B` and `q_i + size ≤ α(B − ΣQ)`, where `q_i` counts the
//!   bytes admitted to `i` and not yet released; a rejection is a drop on
//!   the egress link and a `shared_drops`. A packet's bytes are released
//!   when its frame starts, when the egress queue refuses it after
//!   admission, and when a down edge or the watchdog destroys it.
//! * An admitted ECT packet is CE-marked when `q_i` before it is at least
//!   the ECN maximum, or at least the minimum and
//!   `unit_hash(id ^ salt)` falls below the ramp's `(q_i − min) / (max − min)`.
//! * With PFC, an admitted packet's bytes are attributed to the link it
//!   arrived on (none for one sent at the switch). An ingress reaching
//!   XOFF bytes is paused, and falling to XON on a release resumes it;
//!   each PAUSE or RESUME takes effect at the ingress's transmitting end
//!   one propagation delay later, and every PAUSE arms a watchdog. Each
//!   frame is scheduled as soon as it is decided.
//! * A watchdog finding its ingress paused since its PAUSE drains the
//!   switch's egress queues, ascending link id, FIFO, until that ingress
//!   holds at most XON bytes (the victims are `pfc_dropped`), then
//!   resumes it and every other paused ingress at or below XON,
//!   ascending link id.
//!
//! Used by `reference.rs` beside it and, through `#[path]`, by the root
//! package's `tests/sim_reference.rs`, which tier-1 runs.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use phi_sim::engine::{packet_to, Agent, Ctx, PacketCensus, Simulator};
use phi_sim::faults::{DownPolicy, FaultStats, ImpairmentPlan, LossModel};
use phi_sim::packet::{Flags, FlowId, LinkId, NodeId, Packet};
use phi_sim::queue::Capacity;
use phi_sim::stats::{LinkStats, OnlineStats};
use phi_sim::switch::{EcnSpec, PfcSpec, SwitchSpec, SwitchStats};
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

/// One packet to inject: `size` bytes from node `from` to `(to, port)`,
/// ECN-capable if `ect`.
#[derive(Debug, Clone)]
pub struct Send {
    pub at: Time,
    pub from: usize,
    pub to: usize,
    pub port: u16,
    pub size: u32,
    pub ect: bool,
}

/// A network of links, impairment plans on some of them, switches on
/// some nodes, and packets injected on a schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub nodes: usize,
    pub links: Vec<LinkSpec>,
    /// `(link, plan)`, installed in this order.
    pub plans: Vec<(usize, ImpairmentPlan)>,
    /// `(node, spec)`: the shared-buffer switches.
    pub switches: Vec<(usize, SwitchSpec)>,
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
    /// A line or tree of duplex links on grids coarse enough that events
    /// often coincide: frame ends, arrivals, edges and injections at one
    /// instant. No switches.
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
            sends.push(draw_send(rng, at, from, to, false));
        }
        sends.sort_by_key(|s| s.from);
        let cuts = draw_cuts(rng);
        Scenario {
            nodes,
            links,
            plans,
            switches: Vec::new(),
            seed: rng.next_u64(),
            sends,
            cuts,
        }
    }

    /// A shared-buffer switch scenario on the grid buffer × α × ECN
    /// threshold × fan-in: either 2 to 6 hosts fanning in through one
    /// switch to one or two receivers, or a one-way ring of 2 to 4
    /// switches with a host on each. Every switch has the same spec; its
    /// egress queues hold the whole pool, or sometimes a few packets.
    /// Fewer links carry impairment plans than in [`Scenario::draw`].
    pub fn draw_switched(rng: &mut SeedRng) -> Scenario {
        let mut links = Vec::new();
        let (nodes, switches, senders, receivers): (usize, Vec<usize>, Vec<usize>, Vec<usize>) =
            if rng.chance(0.5) {
                // Switch 0, receivers 1.., then the senders.
                let receivers = rng.range_u64(1, 3) as usize;
                let nodes = 1 + receivers + rng.range_u64(2, 7) as usize;
                for host in 1..nodes {
                    links.push(draw_link(rng, host, 0));
                    links.push(draw_link(rng, 0, host));
                }
                (
                    nodes,
                    vec![0],
                    (1 + receivers..nodes).collect(),
                    (1..1 + receivers).collect(),
                )
            } else {
                // Switches 0..k, one way round; host k + i on switch i.
                let k = rng.range_u64(2, 5) as usize;
                for i in 0..k {
                    links.push(draw_link(rng, i, (i + 1) % k));
                }
                for i in 0..k {
                    links.push(draw_link(rng, k + i, i));
                    links.push(draw_link(rng, i, k + i));
                }
                let hosts: Vec<usize> = (k..2 * k).collect();
                (2 * k, (0..k).collect(), hosts.clone(), hosts)
            };
        let spec = draw_switch(rng);
        let shallow = rng.chance(0.3);
        for link in links.iter_mut() {
            if switches.contains(&(link.from.0 as usize)) {
                link.capacity = if shallow && rng.chance(0.5) {
                    Capacity::Packets(rng.range_u64(1, 4) as usize)
                } else {
                    Capacity::Bytes(spec.pool_bytes)
                };
            }
        }
        let mut plans = Vec::new();
        for link in 0..links.len() {
            if rng.chance(0.15) {
                plans.push((link, draw_plan(rng)));
            }
        }
        let pick =
            |rng: &mut SeedRng, from: &[usize]| from[rng.range_u64(0, from.len() as u64) as usize];
        let mut sends = Vec::new();
        let mut at = Time::ZERO;
        for _ in 0..rng.range_u64(10, 200) {
            // Bursts: half the sends share the instant of the one before.
            if sends.is_empty() || !rng.chance(0.5) {
                at = grid(rng, 400);
            }
            // Now and then a switch sends, or the traffic runs backwards.
            let (from, to) = if rng.chance(0.1) {
                (pick(rng, &switches), pick(rng, &receivers))
            } else if rng.chance(0.15) {
                (pick(rng, &receivers), pick(rng, &senders))
            } else {
                (pick(rng, &senders), pick(rng, &receivers))
            };
            let ect = rng.chance(0.7);
            sends.push(draw_send(rng, at, from, to, ect));
        }
        sends.sort_by_key(|s| s.from);
        let cuts = draw_cuts(rng);
        Scenario {
            nodes,
            links,
            plans,
            switches: switches.into_iter().map(|n| (n, spec)).collect(),
            seed: rng.next_u64(),
            sends,
            cuts,
        }
    }
}

fn draw_send(rng: &mut SeedRng, at: Time, from: usize, to: usize, ect: bool) -> Send {
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
    Send {
        at,
        from,
        to,
        port,
        size,
        ect,
    }
}

fn draw_cuts(rng: &mut SeedRng) -> Vec<Time> {
    let mut cuts: Vec<Time> = (0..rng.range_u64(0, 4)).map(|_| grid(rng, 600)).collect();
    cuts.sort_unstable();
    cuts
}

/// A multiple of 250 µs below `steps` of them.
fn grid(rng: &mut SeedRng, steps: u64) -> Time {
    Time::from_micros(250 * rng.range_u64(0, steps))
}

/// A pool of 1 000 to 12 000 bytes; α from 1/4 to 8; no ECN, a step or a
/// ramp; PFC on most, its watchdog on the 250 µs grid up to 25 ms, so
/// that long pauses reach it, not only deadlocks (the sends span 100 ms).
fn draw_switch(rng: &mut SeedRng) -> SwitchSpec {
    const ALPHAS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 8.0];
    let pool = 125 * rng.range_u64(8, 97);
    let mut spec = SwitchSpec::shared(pool).with_alpha(ALPHAS[rng.range_u64(0, 5) as usize]);
    match rng.range_u64(0, 3) {
        0 => {}
        1 => spec = spec.with_ecn(EcnSpec::step(125 * rng.range_u64(0, 40))),
        _ => {
            let min_bytes = 125 * rng.range_u64(0, 30);
            let max_bytes = min_bytes + 125 * rng.range_u64(1, 40);
            spec = spec.with_ecn(EcnSpec {
                min_bytes,
                max_bytes,
            });
        }
    }
    if rng.chance(0.6) {
        let xoff_bytes = 125 * rng.range_u64(1, 40);
        spec = spec.with_pfc(PfcSpec {
            xoff_bytes,
            xon_bytes: 125 * rng.range_u64(0, xoff_bytes / 125 + 1),
            watchdog: Dur::from_micros(250 * rng.range_u64(1, 101)),
        });
    }
    spec
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

/// How one copy of a packet ended. Links are named by index; a delivery
/// says whether the copy arrived CE-marked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fate {
    Delivered(Time, bool),
    Dropped(u32, Time),
    Blackholed(u32, Time),
    Corrupted(u32, Time),
    PfcDropped(u32, Time),
    Undeliverable,
    /// Still queued when the run ends: PFC holds its link.
    Stranded,
}

/// What a run shows at one stop.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    pub at: Time,
    pub census: PacketCensus,
    /// Every link's `LinkStats`, rendered field by field.
    pub links: Vec<String>,
    /// Every switch's counters, in node order.
    pub switches: Vec<SwitchStats>,
}

/// Everything a run shows, by the model or by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per packet id: the send it came from and its copies' fates, sorted.
    pub packets: Vec<(usize, Vec<Fate>)>,
    /// At each cut, then at [`END`].
    pub observed: Vec<Observation>,
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
        if m.at != e.at || m.census != e.census {
            return Err(format!(
                "observation {k}: model at {:?} {:?}, engine at {:?} {:?}",
                m.at, m.census, e.at, e.census
            ));
        }
        for (link, (ml, el)) in m.links.iter().zip(&e.links).enumerate() {
            if ml != el {
                return Err(format!(
                    "observation {k} at {:?}, link {link}: model {ml}, engine {el}",
                    m.at
                ));
            }
        }
        for (i, (ms, es)) in m.switches.iter().zip(&e.switches).enumerate() {
            if ms != es {
                return Err(format!(
                    "observation {k} at {:?}, switch {i}: model {ms:?}, engine {es:?}",
                    m.at
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

fn render(
    enqueued: u64,
    dropped: u64,
    transmitted: u64,
    bytes: u64,
    busy: Dur,
    wait: &OnlineStats,
) -> String {
    format!(
        "enqueued {enqueued} dropped {dropped} transmitted {transmitted} bytes {bytes} \
         busy {busy:?} wait {wait:?}"
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
    ect: bool,
    ce: bool,
}

enum Ev {
    Inject(usize),
    /// `pkt` reaches the far end of `link`.
    Arrive {
        pkt: Pkt,
        link: usize,
    },
    /// A PAUSE (`xoff`) or RESUME reaches `link`'s transmitting end.
    Pfc {
        link: usize,
        xoff: bool,
    },
    /// The watchdog armed by the PAUSE toward `link` numbered `epoch`.
    Watchdog {
        link: usize,
        epoch: u64,
    },
    /// A frame of `size` bytes, `tx` long, ends on `link`.
    TxEnd {
        link: usize,
        size: u32,
        tx: Dur,
    },
    Edge {
        link: usize,
        up: bool,
    },
}

/// An event and its place: by time, then edges, frame ends in ascending
/// link id, and the rest in push order.
struct Entry {
    key: (Time, u8, u64),
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    /// Reversed: the heap pops the least key first.
    fn cmp(&self, other: &Entry) -> Ordering {
        other.key.cmp(&self.key)
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
}

struct Link {
    spec: LinkSpec,
    /// Each packet with its arrival and, at a PFC switch, the link its
    /// bytes are attributed to.
    queue: VecDeque<(Pkt, Time, Option<usize>)>,
    queued_bytes: u64,
    /// A frame's `TxEnd` is pending.
    sending: bool,
    fault: Option<Fault>,
    /// Since when a PAUSE holds the link.
    paused: Option<Time>,
    /// Nanoseconds of the pauses that ended.
    paused_ns: u64,
    tally: Tally,
}

impl Link {
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

/// The salt of the engine's ECN draw.
const ECN_SALT: u64 = 0xEC4E_11AB_5EED_0001;

/// Whether an ECT packet `id` finding `queued` bytes at its egress is
/// marked: never below the minimum, always from the maximum, and in
/// between when `unit_hash(id ^ salt)` falls below the ramp.
fn marks(ecn: EcnSpec, queued: u64, id: u64) -> bool {
    if queued < ecn.min_bytes {
        return false;
    }
    if queued >= ecn.max_bytes {
        return true;
    }
    let p = (queued - ecn.min_bytes) as f64 / (ecn.max_bytes - ecn.min_bytes) as f64;
    let unit = (mix(id ^ ECN_SALT) >> 11) as f64 / (1u64 << 53) as f64;
    unit < p
}

/// A PAUSE or RESUME a switch owes the transmitting end of a link.
enum Edge {
    Xoff {
        link: usize,
        epoch: u64,
        watchdog: Dur,
    },
    Xon(usize),
}

/// One shared-buffer switch. Its tables are indexed by link id: `port`
/// by the links leaving the node, the rest by the links entering it.
struct Switch {
    spec: SwitchSpec,
    /// Bytes in the pool.
    total: u64,
    /// Bytes admitted to each egress and not yet released.
    port: Vec<u64>,
    /// Bytes attributed to each ingress.
    ingress: Vec<u64>,
    /// Whether a PAUSE toward each ingress is outstanding.
    paused: Vec<bool>,
    /// Each ingress's count of PAUSEs and RESUMEs: a PAUSE's count names
    /// its watchdog.
    epoch: Vec<u64>,
    stats: SwitchStats,
}

impl Switch {
    fn new(spec: SwitchSpec, links: usize) -> Switch {
        Switch {
            spec,
            total: 0,
            port: vec![0; links],
            ingress: vec![0; links],
            paused: vec![false; links],
            epoch: vec![0; links],
            stats: SwitchStats::default(),
        }
    }

    /// DT admission of `pkt`, arrived over `via`, to egress `l`: `None` on
    /// a rejection, else the link its bytes are attributed to and a PAUSE
    /// owed. May CE-mark `pkt`.
    fn admit(
        &mut self,
        l: usize,
        via: Option<usize>,
        pkt: &mut Pkt,
    ) -> Option<(Option<usize>, Option<Edge>)> {
        let size = u64::from(pkt.size);
        let queued = self.port[l];
        let room = self.spec.dt_alpha * (self.spec.pool_bytes - self.total) as f64;
        if self.total + size > self.spec.pool_bytes || (queued + size) as f64 > room {
            self.stats.shared_drops += 1;
            return None;
        }
        self.total += size;
        self.port[l] += size;
        self.stats.admitted += 1;
        if let Some(ecn) = self.spec.ecn {
            if pkt.ect && marks(ecn, queued, pkt.id) {
                pkt.ce = true;
                self.stats.ecn_marked += 1;
            }
        }
        let (Some(pfc), Some(v)) = (self.spec.pfc, via) else {
            return Some((None, None));
        };
        self.ingress[v] += size;
        if self.paused[v] || self.ingress[v] < pfc.xoff_bytes {
            return Some((Some(v), None));
        }
        self.paused[v] = true;
        self.epoch[v] += 1;
        self.stats.pauses += 1;
        let edge = Edge::Xoff {
            link: v,
            epoch: self.epoch[v],
            watchdog: pfc.watchdog,
        };
        Some((Some(v), Some(edge)))
    }

    /// Give back the bytes of a packet leaving egress `l`; the ingress
    /// they were attributed to, if any.
    fn detach(&mut self, l: usize, size: u32, ingress: Option<usize>) -> Option<usize> {
        let size = u64::from(size);
        self.port[l] -= size;
        self.total -= size;
        let v = ingress?;
        self.ingress[v] -= size;
        Some(v)
    }

    /// [`Switch::detach`], and the RESUME owed if its ingress fell to XON.
    fn release(&mut self, l: usize, size: u32, ingress: Option<usize>) -> Option<Edge> {
        let v = self.detach(l, size, ingress)?;
        let pfc = self.spec.pfc?;
        (self.paused[v] && self.ingress[v] <= pfc.xon_bytes).then(|| self.resume(v))
    }

    fn resume(&mut self, v: usize) -> Edge {
        self.paused[v] = false;
        self.epoch[v] += 1;
        self.stats.resumes += 1;
        Edge::Xon(v)
    }
}

struct Model<'a> {
    sends: &'a [Send],
    now: Time,
    heap: BinaryHeap<Entry>,
    pushed: u64,
    links: Vec<Link>,
    /// Per node, its switch.
    switches: Vec<Option<Switch>>,
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
                sending: false,
                fault: None,
                paused: None,
                paused_ns: 0,
                tally: Tally::default(),
            })
            .collect();
        let mut model = Model {
            sends: &s.sends,
            now: Time::ZERO,
            heap: BinaryHeap::new(),
            pushed: 0,
            route: routes(s.nodes, &s.links),
            links: Vec::new(),
            switches: (0..s.nodes).map(|_| None).collect(),
            packets: Vec::new(),
            delivered: 0,
            undeliverable: 0,
        };
        for &(node, spec) in &s.switches {
            model.switches[node] = Some(Switch::new(spec, s.links.len()));
        }
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
        let key = match ev {
            Ev::Edge { .. } => (at, 0, self.pushed),
            Ev::TxEnd { link, .. } => (at, 1, link as u64),
            _ => (at, 2, self.pushed),
        };
        self.heap.push(Entry { key, ev });
        self.pushed += 1;
    }

    fn fate(&mut self, pkt: Pkt, fate: Fate) {
        self.packets[pkt.id as usize].1.push(fate);
    }

    fn run_until(&mut self, deadline: Time) {
        while self.heap.peek().is_some_and(|e| e.key.0 <= deadline) {
            let Entry { key: (at, ..), ev } = self.heap.pop().expect("peeked");
            self.now = at;
            match ev {
                Ev::Inject(i) => self.inject(i),
                Ev::Arrive { pkt, link } => self.arrive(pkt, link),
                Ev::TxEnd { link, size, tx } => {
                    let l = &mut self.links[link];
                    l.sending = false;
                    l.tally.transmitted += 1;
                    l.tally.bytes += u64::from(size);
                    l.tally.busy += tx;
                    self.start(link);
                }
                Ev::Edge { link, up } => self.edge(link, up),
                Ev::Pfc { link, xoff } => self.pfc(link, xoff),
                Ev::Watchdog { link, epoch } => self.watchdog(link, epoch),
            }
        }
        self.now = deadline;
    }

    fn inject(&mut self, i: usize) {
        let send = &self.sends[i];
        let pkt = Pkt {
            id: self.packets.len() as u64,
            dst: send.to,
            port: send.port,
            size: send.size,
            ect: send.ect,
            ce: false,
        };
        let from = send.from;
        self.packets.push((i, Vec::new()));
        self.forward(from, pkt, None);
    }

    /// Route `pkt`, at node `at` after crossing `via`, onto its next link.
    fn forward(&mut self, at: usize, pkt: Pkt, via: Option<usize>) {
        match self.route[at][pkt.dst] {
            Some(link) => self.offer(link, pkt, via),
            None => {
                self.undeliverable += 1;
                self.fate(pkt, Fate::Undeliverable);
            }
        }
    }

    fn arrive(&mut self, pkt: Pkt, link: usize) {
        let node = self.links[link].spec.to.0 as usize;
        if pkt.dst != node {
            return self.forward(node, pkt, Some(link));
        }
        if pkt.port == SINK_PORT {
            self.delivered += 1;
            self.fate(pkt, Fate::Delivered(self.now, pkt.ce));
        } else {
            self.undeliverable += 1;
            self.fate(pkt, Fate::Undeliverable);
        }
    }

    fn offer(&mut self, l: usize, mut pkt: Pkt, via: Option<usize>) {
        let now = self.now;
        let link = &mut self.links[l];
        if let Some(f) = link.fault.as_mut() {
            if !f.up && f.plan.down_policy == DownPolicy::Drop {
                f.stats.blackholed += 1;
                return self.fate(pkt, Fate::Blackholed(l as u32, now));
            }
        }
        let node = link.spec.from.0 as usize;
        let mut ingress = None;
        if let Some(sw) = self.switches[node].as_mut() {
            let Some((admitted, edge)) = sw.admit(l, via, &mut pkt) else {
                self.links[l].tally.dropped += 1;
                return self.fate(pkt, Fate::Dropped(l as u32, now));
            };
            ingress = admitted;
            if let Some(e) = edge {
                self.emit(e);
            }
        }
        let link = &mut self.links[l];
        if link.admits(pkt.size) {
            link.tally.enqueued += 1;
            link.queued_bytes += u64::from(pkt.size);
            link.queue.push_back((pkt, now, ingress));
            self.start(l);
        } else {
            link.tally.dropped += 1;
            let edge = self.switches[node]
                .as_mut()
                .and_then(|sw| sw.release(l, pkt.size, ingress));
            self.fate(pkt, Fate::Dropped(l as u32, now));
            if let Some(e) = edge {
                self.emit(e);
            }
        }
    }

    /// Start the head of the queue, unless a frame is on the wire or the
    /// link is down or paused.
    fn start(&mut self, l: usize) {
        let now = self.now;
        let link = &mut self.links[l];
        if link.sending || link.down() || link.paused.is_some() {
            return;
        }
        let Some((pkt, since, ingress)) = link.queue.pop_front() else {
            return;
        };
        link.queued_bytes -= u64::from(pkt.size);
        let tx = Dur::transmission(pkt.size, link.spec.rate_bps);
        let end = now + tx;
        link.sending = true;
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
        let node = link.spec.from.0 as usize;
        self.push(
            end,
            Ev::TxEnd {
                link: l,
                size: pkt.size,
                tx,
            },
        );
        let edge = self.switches[node]
            .as_mut()
            .and_then(|sw| sw.release(l, pkt.size, ingress));
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
        if let Some(e) = edge {
            self.emit(e);
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
            return self.start(l);
        }
        if f.plan.down_policy != DownPolicy::Drop {
            return;
        }
        let drained: Vec<_> = link.queue.drain(..).collect();
        link.queued_bytes = 0;
        let f = link.fault.as_mut().expect("checked above");
        f.stats.blackholed += drained.len() as u64;
        let node = link.spec.from.0 as usize;
        let mut edges = Vec::new();
        for (pkt, _, ingress) in drained {
            if let Some(sw) = self.switches[node].as_mut() {
                edges.extend(sw.release(l, pkt.size, ingress));
            }
            self.fate(pkt, Fate::Blackholed(l as u32, now));
        }
        for e in edges {
            self.emit(e);
        }
    }

    /// Send a PAUSE or RESUME up its link; a PAUSE arms its watchdog.
    fn emit(&mut self, edge: Edge) {
        let now = self.now;
        match edge {
            Edge::Xoff {
                link,
                epoch,
                watchdog,
            } => {
                let at = now + self.links[link].spec.delay;
                self.push(at, Ev::Pfc { link, xoff: true });
                self.push(now + watchdog, Ev::Watchdog { link, epoch });
            }
            Edge::Xon(link) => {
                let at = now + self.links[link].spec.delay;
                self.push(at, Ev::Pfc { link, xoff: false });
            }
        }
    }

    /// A PAUSE or RESUME reaches `l`'s transmitting end.
    fn pfc(&mut self, l: usize, xoff: bool) {
        let now = self.now;
        let link = &mut self.links[l];
        match (xoff, link.paused) {
            (true, None) => link.paused = Some(now),
            (false, Some(since)) => {
                link.paused = None;
                link.paused_ns += now.saturating_since(since).as_nanos();
                self.start(l);
            }
            _ => {}
        }
    }

    fn watchdog(&mut self, v: usize, epoch: u64) {
        let now = self.now;
        let node = self.links[v].spec.to.0 as usize;
        let links = &mut self.links;
        let sw = self.switches[node]
            .as_mut()
            .expect("a PAUSE comes from a switch");
        if !sw.paused[v] || sw.epoch[v] != epoch {
            return;
        }
        sw.stats.watchdog_fires += 1;
        let xon = sw.spec.pfc.expect("a PAUSE comes with PFC").xon_bytes;
        let mut victims = Vec::new();
        'drain: for (e, link) in links.iter_mut().enumerate() {
            if link.spec.from.0 as usize != node {
                continue;
            }
            while sw.ingress[v] > xon {
                let Some((pkt, _, ingress)) = link.queue.pop_front() else {
                    continue 'drain;
                };
                link.queued_bytes -= u64::from(pkt.size);
                sw.detach(e, pkt.size, ingress);
                sw.stats.pfc_dropped += 1;
                victims.push((pkt, e));
            }
            break;
        }
        let mut edges = Vec::new();
        for (i, link) in links.iter().enumerate() {
            if link.spec.to.0 as usize == node && sw.paused[i] && (i == v || sw.ingress[i] <= xon) {
                edges.push(sw.resume(i));
            }
        }
        for (pkt, e) in victims {
            self.fate(pkt, Fate::PfcDropped(e as u32, now));
        }
        for e in edges {
            self.emit(e);
        }
    }

    fn observe(&self) -> Observation {
        let in_flight = self
            .heap
            .iter()
            .filter(|e| matches!(e.ev, Ev::Arrive { .. }))
            .count() as u64;
        let faults = self.links.iter().filter_map(|l| l.fault.as_ref());
        let sum = |f: fn(&FaultStats) -> u64| faults.clone().map(|x| f(&x.stats)).sum::<u64>();
        let switches: Vec<SwitchStats> = self.switches.iter().flatten().map(|s| s.stats).collect();
        let census = PacketCensus {
            injected: self.packets.len() as u64,
            delivered: self.delivered,
            dropped: self.links.iter().map(|l| l.tally.dropped).sum(),
            undeliverable: self.undeliverable,
            corrupted: sum(|s| s.corrupted),
            duplicated: sum(|s| s.duplicated),
            blackholed: sum(|s| s.blackholed),
            pfc_dropped: switches.iter().map(|s| s.pfc_dropped).sum(),
            queued: self.links.iter().map(|l| l.queue.len() as u64).sum(),
            in_flight,
            ecn_marked: switches.iter().map(|s| s.ecn_marked).sum(),
            paused_ns: self
                .links
                .iter()
                .map(|l| {
                    l.paused_ns
                        + l.paused
                            .map_or(0, |since| self.now.saturating_since(since).as_nanos())
                })
                .sum(),
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
                )
            })
            .collect();
        Observation {
            at: self.now,
            census,
            links,
            switches,
        }
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
    let stranded: Vec<Pkt> = model
        .links
        .iter()
        .flat_map(|l| l.queue.iter().map(|&(pkt, _, _)| pkt))
        .collect();
    for pkt in stranded {
        model.fate(pkt, Fate::Stranded);
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
        if send.ect {
            p.flags = Flags::ECT;
        }
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

/// Records `(packet id, arrival time, CE-marked)`.
#[derive(Default)]
struct Sink {
    received: Vec<(u64, Time, bool)>,
}

impl Agent for Sink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.received.push((pkt.id, ctx.now(), pkt.is_ce()));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run `s` through the engine. A copy's fate comes from its sink (a
/// delivery) or the trace (a drop, blackhole, corruption or watchdog
/// drain); a copy with neither after the drained run was undeliverable.
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
    for &(node, spec) in &s.switches {
        sim.install_switch(NodeId(node as u32), spec);
    }
    let mut switch_nodes: Vec<NodeId> = s.switches.iter().map(|&(n, _)| NodeId(n as u32)).collect();
    switch_nodes.sort_unstable();
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
        observed.push(Observation {
            at: sim.now(),
            census: sim.packet_census(),
            links: (0..s.links.len())
                .map(|l| render_stats(sim.link_stats(LinkId(l as u32))))
                .collect(),
            switches: switch_nodes.iter().map(|&n| sim.switch_stats(n)).collect(),
        });
    }
    assert_eq!(sim.sched_stats().pending, 0, "the run did not drain");
    let mut packets: Vec<(usize, Vec<Fate>)> = log
        .borrow()
        .iter()
        .map(|&send| (send, Vec::new()))
        .collect();
    let mut copies = vec![1usize; packets.len()];
    // Copies that reached their destination node, and packets traced at
    // all: one sent to its own node never is.
    let mut reached = vec![0usize; packets.len()];
    let mut traced = vec![false; packets.len()];
    for e in trace.borrow().iter() {
        let id = e.packet_id as usize;
        let link = e.link.map_or(u32::MAX, |l| l.0);
        traced[id] = true;
        let fate = match e.op {
            TraceOp::Drop => Fate::Dropped(link, e.at),
            TraceOp::Blackhole => Fate::Blackholed(link, e.at),
            TraceOp::Corrupt => Fate::Corrupted(link, e.at),
            TraceOp::PfcDrop => Fate::PfcDropped(link, e.at),
            TraceOp::Duplicate => {
                copies[id] += 1;
                continue;
            }
            TraceOp::Deliver => {
                reached[id] += 1;
                continue;
            }
            _ => continue,
        };
        packets[id].1.push(fate);
    }
    for &sink in &sinks {
        let sink = sim.agent_as::<Sink>(sink).expect("a sink");
        for &(id, at, ce) in &sink.received {
            packets[id as usize].1.push(Fate::Delivered(at, ce));
        }
    }
    for (id, (_, fates)) in packets.iter_mut().enumerate() {
        // Whatever reached its node and no sink is undeliverable; the
        // copies left are still queued.
        let received = fates
            .iter()
            .filter(|f| matches!(f, Fate::Delivered(..)))
            .count();
        let undeliverable = if traced[id] {
            reached[id] - received
        } else {
            1
        };
        fates.extend(std::iter::repeat_n(Fate::Undeliverable, undeliverable));
        let stranded = copies[id] - fates.len();
        fates.extend(std::iter::repeat_n(Fate::Stranded, stranded));
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
