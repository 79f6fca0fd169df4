//! The discrete-event simulation engine.
//!
//! Execution model:
//!
//! * A single event queue ordered by `(time, sequence)` — the sequence
//!   number makes simultaneous events fire in scheduling order, so runs
//!   are fully deterministic. The queue is a [`TieredScheduler`]: a
//!   bucketed calendar for the dense near-future band of
//!   Deliver/Wake/timer events with a binary-heap overflow for
//!   far-future events, popping in exactly the same total order a plain
//!   heap would (see `sched.rs`).
//! * **Links** do all store-and-forward work: a packet handed to a link is
//!   queued (or dropped, drop-tail), serialized at the link rate, then
//!   delivered to the far node after the propagation delay.
//! * **The link clock is lazy.** A packet's crossing is settled when it
//!   starts serializing (fault verdict as of `tx_end`, `Deliver` at
//!   `tx_end` + propagation); the end of serialization gets an event, a
//!   packet-less `Wake`, only when a packet waits behind it. A finished
//!   frame is counted into the link's stats on the next `begin_tx`, on
//!   every `run_until` return and on every [`Ctx::link_stats`] read.
//! * **Packets move by handle.** [`Ctx::send`] puts the packet in the
//!   engine's packet pool; from there to its terminal state (delivered,
//!   dropped, blackholed, …) events and link queues carry a 4-byte handle,
//!   the switch and the tracer read the packet in place, and it is copied
//!   out once, when [`Agent::on_packet`] takes it by value. An event is 16
//!   bytes and sits inline in the scheduler's entries. Every terminal
//!   state releases its handle; [`Simulator::packet_census`] checks (in
//!   debug builds) that live handles equal queued plus in-flight packets.
//! * **Agents** (transport endpoints, traffic sources…) live on nodes and
//!   are addressed by `(node, port)`. The engine calls [`Agent::on_packet`]
//!   when a packet reaches its destination node and port, and
//!   [`Agent::on_timer`] when a timer the agent set fires.
//!
//! Agents interact with the world exclusively through [`Ctx`], which can
//! send packets, set timers (and lazily cancel them via [`TimerHandle`]),
//! and read link statistics (the read access is the "ideal oracle" used
//! by Remy-Phi-ideal, paper §2.2.4).

use std::any::Any;
use std::sync::Mutex;
use std::time::Instant;

use phi_workload::SeedRng;
use serde::{Deserialize, Serialize};

use crate::faults::{DownPolicy, EgressVerdict, FaultStats, ImpairmentPlan, LinkFault};
use crate::packet::{splitmix64, AgentId, Flags, FlowId, LinkId, NodeId, Packet, SackBlocks};
use crate::queue::{LinkQueue, PacketPool, PktRef, Verdict};
use crate::sched::TieredScheduler;
use crate::stats::{LinkStats, RollingUtil};
use crate::switch::{AdmitOutcome, PfcEdge, SwitchSpec, SwitchState, SwitchStats};
use crate::time::{Dur, Time};
use crate::topology::Topology;
use crate::trace::{TraceEvent, TraceOp, Tracer};

/// A simulation participant attached to a node.
pub trait Agent: Any {
    /// Called once when the simulation starts.
    fn start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet addressed to this agent arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// A timer set via [`Ctx::set_timer_at`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// Downcast support, for retrieving agent state after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// One scheduled event. Packets stay in the [`PacketPool`]; an event
/// names its packet by handle, and anything derivable from a link (the
/// node at its far end) or kept in the timer slab (a timer's agent and
/// token) is left out, which keeps an event — stored inline in the
/// scheduler's entries — at 16 bytes.
#[derive(Debug)]
enum Event {
    /// A packet reached the far end of `via`, the link it travelled
    /// (which is also its switch ingress attribution).
    Deliver { pkt: PktRef, via: LinkId },
    /// The serialization on `link` ended with a packet queued behind it:
    /// start the next one. Scheduled only while the link has a backlog.
    Wake { link: LinkId },
    /// A PFC PAUSE (`xoff`) or RESUME frame arrives at the transmitting
    /// end of `link`.
    Pfc { link: LinkId, xoff: bool },
    /// A pause-storm watchdog armed by the switch at the far end of
    /// ingress `link` expires; `epoch` validates against the switch's
    /// pause state (a resume in the meantime makes the timer stale).
    PfcWatchdog { link: LinkId, epoch: u64 },
    /// An agent timer fired. `slot`/`gen` validate against the timer slab
    /// (which also holds the agent and token): a mismatch means the timer
    /// was cancelled (or superseded) after it was scheduled, and the
    /// event is skipped without touching the agent. `gen` stays 64-bit:
    /// a 32-bit generation would make a stale timer matchable after 2³²
    /// re-arms of one slot.
    Timer { slot: u32, gen: u64 },
    /// A precomputed link state transition from the fault plane: the link
    /// goes down (`up == false`) or heals (`up == true`).
    FaultEdge { link: LinkId, up: bool },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// A handle identifying one scheduled timer, returned by
/// [`Ctx::set_timer_at`] and accepted by [`Ctx::cancel_timer`].
///
/// Cancellation is *lazy*: the event stays in the queue, but its
/// generation no longer matches the slab's, so the engine discards it at
/// pop time instead of dispatching it. This makes cancel (and the
/// re-arm-instead-of-flood pattern in the TCP sender) O(1) with no queue
/// surgery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    gen: u64,
}

/// One pending timer: the generation validating it, and whom to call
/// with what when it fires.
#[derive(Debug)]
struct TimerSlot {
    gen: u64,
    token: u64,
    agent: AgentId,
}

/// Generation slots validating pending timers. A slot is live from
/// `alloc` until the matching event fires or is cancelled; either path
/// bumps the generation (invalidating any outstanding handle/event with
/// the old one) and returns the slot to the free list. Slot allocation
/// order is purely event-driven, so reuse is deterministic.
#[derive(Debug, Default)]
struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

impl TimerSlab {
    fn alloc(&mut self, agent: AgentId, token: u64) -> (u32, u64) {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.token = token;
                s.agent = agent;
                (slot, s.gen)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(TimerSlot {
                    gen: 0,
                    token,
                    agent,
                });
                (slot, 0)
            }
        }
    }

    /// Retire `(slot, gen)` if it is still live, returning the timer's
    /// agent and token; `None` means the handle (or event) was stale.
    fn retire(&mut self, slot: u32, gen: u64) -> Option<(AgentId, u64)> {
        let s = &mut self.slots[slot as usize];
        if s.gen == gen {
            s.gen += 1;
            self.free.push(slot);
            Some((s.agent, s.token))
        } else {
            None
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Runtime state of one link.
struct LinkState {
    queue: LinkQueue,
    /// End of the serialization begun last; free from then on unless
    /// `wake` (an [`Event::Wake`] at `tx_end`) is pending.
    tx_end: Time,
    /// That serialization's `(bytes, duration)` until it is settled.
    unsettled: Option<(u32, Dur)>,
    wake: bool,
    stats: LinkStats,
    rolling: RollingUtil,
    /// PFC: true while the downstream switch has this link paused. A
    /// paused link finishes the frame in flight but starts no new
    /// serialization (head-of-line blocking on everything queued).
    paused: bool,
    /// When the current pause began (valid while `paused`).
    paused_since: Time,
    /// Accumulated paused nanoseconds over closed pause intervals.
    paused_ns: u64,
    /// Chaos-plane state, when an [`ImpairmentPlan`] is installed. Boxed:
    /// the overwhelmingly common case is no faults, and the untouched
    /// pointer keeps `LinkState` small for the hot path.
    fault: Option<Box<LinkFault>>,
}

impl LinkState {
    /// Nothing serializing and no wake pending: an arrival may start
    /// transmitting at once.
    fn is_free(&self, now: Time) -> bool {
        !self.wake && self.tx_end <= now
    }

    /// Count the last serialization into `stats` and `rolling` if it
    /// ended by `now`: the same values as counting it at its end.
    fn settle(&mut self, now: Time) {
        let ended = self.tx_end <= now;
        if let Some((bytes, tx)) = self.unsettled.take_if(|_| ended) {
            self.stats.transmitted += 1;
            self.stats.bytes_transmitted += u64::from(bytes);
            self.stats.busy += tx;
            self.rolling.end_busy(self.tx_end);
        }
    }
}

/// Sentinel for "no agent bound" in the dense per-node port tables.
const NO_AGENT: AgentId = AgentId(u32::MAX);

/// Sentinel ingress for packets injected by a local agent (no inbound
/// link to attribute PFC accounting to). Never stored in an event.
const NO_LINK: LinkId = LinkId(u32::MAX);

/// Everything the engine owns except the agents themselves. Splitting this
/// out lets [`Ctx`] hold `&mut SimCore` while an agent (removed from the
/// agent table for the duration of its callback) runs.
struct SimCore {
    now: Time,
    queue: TieredScheduler<Event>,
    timers: TimerSlab,
    /// Every packet not yet in a terminal state; see [`PacketPool`].
    pool: PacketPool,
    topology: Topology,
    links: Vec<LinkState>,
    /// Shared-buffer switch state, indexed by node; `None` for hosts and
    /// plain (per-link-island) routers.
    switches: Vec<Option<Box<SwitchState>>>,
    /// Dense dispatch tables: `ports[node][port]` is the bound agent (or
    /// [`NO_AGENT`]). Replaces a per-delivery `HashMap<(NodeId, u16), _>`
    /// lookup with two array indexes; ports in use are small (well under
    /// 100), so the tables stay tiny.
    ports: Vec<Vec<AgentId>>,
    agent_nodes: Vec<NodeId>,
    /// Packets injected via [`Ctx::send`] so far; doubles as the next
    /// packet id.
    next_packet_id: u64,
    /// Packets that arrived for a (node, port) with no agent bound.
    pub undeliverable: u64,
    /// Packets consumed by a bound agent at their destination.
    delivered: u64,
    /// Events dispatched (stale timers are skipped, not fired).
    events_fired: u64,
    /// Timer events discarded at pop time because their generation no
    /// longer matched (cancelled or superseded).
    skipped_stale: u64,
    /// Successful [`Ctx::cancel_timer`] calls.
    cancelled: u64,
    tracer: Option<Box<dyn Tracer>>,
    /// Resource budget; [`RunBudget::UNLIMITED`] until one is installed.
    budget: RunBudget,
    /// Host time of the first pump under a wall-clock limit (watchdog
    /// base).
    wall_start: Option<Instant>,
    /// Set once a budget limit fires; the run stops dispatching and
    /// reports the reason through [`Simulator::termination`].
    terminated: Option<BudgetExceeded>,
}

/// Carcasses kept in the pool; beyond this, retiring schedulers
/// deallocate. Sized for a `RunPool`'s worth of concurrent sweeps.
const SCHED_POOL_LIMIT: usize = 16;

/// Recycled scheduler carcasses. Parameter sweeps and trainer rounds
/// build thousands of short-lived simulators; each would otherwise regrow
/// the calendar's bucket vectors and overflow heap from empty. A retiring
/// simulator parks its (cleared) scheduler and timer slab in a global
/// pool (a `Mutex`, touched once per simulator lifetime — never on the
/// event hot path). A cleared scheduler is logically identical to a
/// fresh one (sequence numbers, cursor, and counters all reset), so
/// pooling cannot perturb results.
static SCHED_POOL: Mutex<Vec<(TieredScheduler<Event>, TimerSlab)>> = Mutex::new(Vec::new());

fn recycled_scheduler() -> (TieredScheduler<Event>, TimerSlab) {
    SCHED_POOL
        .lock()
        .expect("scheduler pool poisoned")
        .pop()
        .unwrap_or_default()
}

impl Drop for SimCore {
    fn drop(&mut self) {
        let mut sched = std::mem::take(&mut self.queue);
        let mut timers = std::mem::take(&mut self.timers);
        sched.clear();
        timers.clear();
        let mut pool = SCHED_POOL.lock().expect("scheduler pool poisoned");
        if pool.len() < SCHED_POOL_LIMIT {
            pool.push((sched, timers));
        }
    }
}

impl SimCore {
    /// Show the pooled packet `h` to the tracer, in place.
    fn trace(&mut self, op: TraceOp, link: Option<LinkId>, node: Option<NodeId>, h: PktRef) {
        if let Some(t) = self.tracer.as_mut() {
            t.event(&TraceEvent::new(self.now, op, link, node, &self.pool[h]));
        }
    }

    fn schedule(&mut self, at: Time, event: Event) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Route packet `h` (which arrived at `at` over `via`) toward its
    /// destination; enqueue on the next link.
    fn forward(&mut self, at: NodeId, h: PktRef, via: LinkId) {
        let Some(link_id) = self.topology.next_hop(at, self.pool[h].dst) else {
            // Destination is this node but no agent consumed it, or routing
            // is impossible; count and drop.
            self.undeliverable += 1;
            self.pool.release(h);
            return;
        };
        self.enqueue_on_link(link_id, h, via);
    }

    /// Every exit that does not leave `h` queued on the link releases it.
    fn enqueue_on_link(&mut self, link_id: LinkId, h: PktRef, via: LinkId) {
        let now = self.now;
        let ls = &mut self.links[link_id.0 as usize];
        // A downed link with the Drop policy destroys arrivals outright;
        // under Park they queue normally and wait for the healing edge.
        if let Some(f) = ls.fault.as_deref_mut() {
            if !f.up && f.plan.down_policy == DownPolicy::Drop {
                f.stats.blackholed += 1;
                self.trace(TraceOp::Blackhole, Some(link_id), None, h);
                self.pool.release(h);
                return;
            }
        }
        // Shared-buffer admission, when the transmitting node is a
        // switch: Dynamic-Threshold rejection drops here (counted on the
        // egress link), acceptance may CE-mark the packet in place and
        // cross a PFC pause threshold.
        let from = self.topology.link(link_id).from;
        let mut pfc_edge = None;
        if let Some(sw) = self.switches[from.0 as usize].as_deref_mut() {
            match sw.admit(link_id, via, &mut self.pool[h]) {
                AdmitOutcome::Rejected => {
                    let ls = &mut self.links[link_id.0 as usize];
                    ls.stats.advance_occupancy(now, ls.queue.len_bytes());
                    ls.stats.dropped += 1;
                    self.trace(TraceOp::Drop, Some(link_id), None, h);
                    self.pool.release(h);
                    return;
                }
                AdmitOutcome::Admitted { ingress, edge } => {
                    self.pool.set_ingress(h, ingress);
                    pfc_edge = edge;
                }
            }
        }
        let ls = &mut self.links[link_id.0 as usize];
        ls.stats.advance_occupancy(now, ls.queue.len_bytes());
        match ls.queue.offer(h, &self.pool, now) {
            Verdict::Enqueued => {
                ls.stats.enqueued += 1;
                self.trace(TraceOp::Enqueue, Some(link_id), None, h);
                let ls = &mut self.links[link_id.0 as usize];
                if ls.is_free(now) {
                    self.begin_tx(link_id);
                } else if !ls.wake {
                    // The first packet waiting behind this frame.
                    ls.wake = true;
                    let at = ls.tx_end;
                    self.schedule(at, Event::Wake { link: link_id });
                }
            }
            Verdict::Dropped => {
                ls.stats.dropped += 1;
                // The inner queue refused a packet the shared buffer
                // admitted: give the pool its bytes back.
                if let Some(e) = self.switch_release(from, link_id, h) {
                    debug_assert!(pfc_edge.is_none());
                    pfc_edge = Some(e);
                }
                self.trace(TraceOp::Drop, Some(link_id), None, h);
                self.pool.release(h);
            }
        }
        if let Some(edge) = pfc_edge {
            self.emit_pfc(edge);
        }
    }

    /// Packet `h` leaves the queue of `link_id`, an egress of `from`: if
    /// `from` is a switch, return the packet's shared-buffer bytes and
    /// ingress attribution. Falling to the resume threshold un-pauses the
    /// ingress (the returned XON edge).
    fn switch_release(&mut self, from: NodeId, link_id: LinkId, h: PktRef) -> Option<PfcEdge> {
        let sw = self.switches[from.0 as usize].as_deref_mut()?;
        sw.release(link_id, self.pool[h].size, self.pool.ingress(h))
    }

    /// Start serializing the next queued packet, if the link may, and
    /// settle its whole crossing now (see the module docs).
    fn begin_tx(&mut self, link_id: LinkId) {
        let now = self.now;
        let spec = self.topology.link(link_id);
        let (rate, from, mut delay, jitter) = (spec.rate_bps, spec.from, spec.delay, spec.jitter);
        let ls = &mut self.links[link_id.0 as usize];
        debug_assert!(ls.is_free(now));
        // A downed link does not serialize: parked packets stay queued
        // until the healing edge calls `begin_tx` again.
        if ls.fault.as_deref().is_some_and(|f| !f.up) {
            return;
        }
        // A PFC-paused link holds its queue until the RESUME frame (or a
        // watchdog drain) arrives — head-of-line blocking by design.
        if ls.paused {
            return;
        }
        ls.stats.advance_occupancy(now, ls.queue.len_bytes());
        let Some((pkt, enqueued_at)) = ls.queue.take(&mut self.pool) else {
            return;
        };
        ls.settle(now);
        let (id, size) = (self.pool[pkt].id, self.pool[pkt].size);
        let tx = Dur::transmission(size, rate);
        let tx_end = now + tx;
        ls.tx_end = tx_end;
        ls.unsettled = Some((size, tx));
        ls.wake = ls.queue.len_packets() > 0;
        ls.rolling.begin_busy(now, tx_end);
        ls.stats
            .queue_wait
            .push(now.saturating_since(enqueued_at).as_secs_f64());
        // Fault draws happen in dequeue order on the link's own stream.
        let verdict = match ls.fault.as_deref_mut() {
            Some(f) => f.egress(tx_end),
            None => EgressVerdict::Forward {
                extra: Dur::ZERO,
                duplicate: false,
            },
        };
        if ls.wake {
            self.schedule(tx_end, Event::Wake { link: link_id });
        }
        // A switch releases shared-buffer bytes when serialization starts.
        let edge = self.switch_release(from, link_id, pkt);
        self.trace(TraceOp::Transmit, Some(link_id), None, pkt);
        if !jitter.is_zero() {
            // Deterministic per-packet jitter: splitmix64 of the packet id.
            delay += Dur::from_nanos(splitmix64(id) % jitter.as_nanos().max(1));
        }
        match verdict {
            EgressVerdict::Forward { extra, duplicate } => {
                let (at, via) = (tx_end + delay + extra, link_id);
                self.schedule(at, Event::Deliver { pkt, via });
                if duplicate {
                    let dup = self.pool.insert(self.pool[pkt].clone());
                    self.trace(TraceOp::Duplicate, Some(link_id), None, dup);
                    self.schedule(at, Event::Deliver { pkt: dup, via });
                }
            }
            EgressVerdict::Blackhole => {
                self.trace(TraceOp::Blackhole, Some(link_id), None, pkt);
                self.pool.release(pkt);
            }
            EgressVerdict::Corrupt => {
                self.trace(TraceOp::Corrupt, Some(link_id), None, pkt);
                self.pool.release(pkt);
            }
        }
        if let Some(e) = edge {
            self.emit_pfc(e);
        }
    }

    /// Start the next serialization if the link is free and has a
    /// backlog (a drain may have emptied it since a wake was scheduled).
    fn kick(&mut self, link_id: LinkId) {
        let ls = &self.links[link_id.0 as usize];
        if ls.is_free(self.now) && ls.queue.len_packets() > 0 {
            self.begin_tx(link_id);
        }
    }

    /// Execute a scheduled link up/down transition. Healing restarts
    /// transmission of parked packets; a down edge under the Drop policy
    /// drains the queue into the blackhole counter.
    fn on_fault_edge(&mut self, link_id: LinkId, up: bool) {
        let now = self.now;
        let ls = &mut self.links[link_id.0 as usize];
        let Some(f) = ls.fault.as_deref_mut() else {
            return;
        };
        if !f.apply_edge(up) {
            // Redundant edge (e.g. a flap regime ending while up).
            return;
        }
        if up {
            return self.kick(link_id);
        }
        if f.plan.down_policy != DownPolicy::Drop {
            return;
        }
        let from = self.topology.link(link_id).from;
        ls.stats.advance_occupancy(now, ls.queue.len_bytes());
        // On a switch egress the drained packets hold shared-buffer
        // bytes: release them like any other departure, and send the
        // RESUME an ingress falling to its threshold is owed.
        let mut edges = Vec::new();
        let mut killed = 0;
        while let Some((h, _)) = self.links[link_id.0 as usize].queue.take(&mut self.pool) {
            killed += 1;
            edges.extend(self.switch_release(from, link_id, h));
            self.trace(TraceOp::Blackhole, Some(link_id), None, h);
            self.pool.release(h);
        }
        let f = self.links[link_id.0 as usize].fault.as_deref_mut();
        f.expect("fault checked above").stats.blackholed += killed;
        for e in edges {
            self.emit_pfc(e);
        }
    }

    /// Turn a switch-produced pause-plane transition into scheduled
    /// events: the PAUSE/RESUME frame arrives at the transmitting end of
    /// the ingress link one propagation delay upstream, and every XOFF
    /// arms a watchdog at the emitting switch.
    fn emit_pfc(&mut self, edge: PfcEdge) {
        match edge {
            PfcEdge::Xoff {
                link,
                epoch,
                watchdog,
            } => {
                let delay = self.topology.link(link).delay;
                self.schedule(self.now + delay, Event::Pfc { link, xoff: true });
                self.schedule(self.now + watchdog, Event::PfcWatchdog { link, epoch });
            }
            PfcEdge::Xon { link } => {
                let delay = self.topology.link(link).delay;
                self.schedule(self.now + delay, Event::Pfc { link, xoff: false });
            }
        }
    }

    /// A PFC frame arrives at `link`'s transmitting end: gate (or
    /// restart) serialization and account paused time.
    fn on_pfc(&mut self, link_id: LinkId, xoff: bool) {
        let now = self.now;
        let ls = &mut self.links[link_id.0 as usize];
        if xoff {
            if !ls.paused {
                ls.paused = true;
                ls.paused_since = now;
            }
            return;
        }
        if !ls.paused {
            return;
        }
        ls.paused = false;
        ls.paused_ns += now.saturating_since(ls.paused_since).as_nanos();
        self.kick(link_id);
    }

    /// A pause-storm watchdog expires. If the ingress has been
    /// continuously paused since the XOFF that armed it (`epoch` still
    /// matches), the switch is in a sustained pause — possibly a cyclic
    /// buffer dependency that will never resolve on its own. Break it:
    /// drain this switch's egress queues (ascending link id, FIFO order)
    /// until the stuck ingress clears its resume threshold, counting the
    /// victims as `pfc_dropped`, then force-resume.
    fn on_pfc_watchdog(&mut self, link: LinkId, epoch: u64) {
        let now = self.now;
        let node = self.topology.link(link).to;
        // Disjoint field borrows: the drain alternates between switch
        // accounting, link queues and the packet pool.
        let switches = &mut self.switches;
        let links = &mut self.links;
        let tracer = &mut self.tracer;
        let pool = &mut self.pool;
        let Some(sw) = switches[node.0 as usize].as_deref_mut() else {
            return;
        };
        if !sw.watchdog_pending(link, epoch) {
            return;
        }
        sw.note_watchdog_fire();
        let xon = sw.spec.pfc.map_or(0, |p| p.xon_bytes);
        let egress: Vec<LinkId> = sw.egress_links().to_vec();
        'drain: for e in egress {
            loop {
                if sw.ingress_bytes(link) <= xon {
                    break 'drain;
                }
                let ls = &mut links[e.0 as usize];
                ls.stats.advance_occupancy(now, ls.queue.len_bytes());
                let Some((h, _)) = ls.queue.take(pool) else {
                    break;
                };
                sw.drain_release(e, pool[h].size, pool.ingress(h));
                if let Some(t) = tracer.as_mut() {
                    let ev = TraceEvent::new(now, TraceOp::PfcDrop, Some(e), None, &pool[h]);
                    t.event(&ev);
                }
                pool.release(h);
            }
        }
        let resumes = sw.watchdog_resumes(link);
        for edge in resumes {
            self.emit_pfc(edge);
        }
    }
}

/// The handle through which agents act on the simulation.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    agent: AgentId,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// The node this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send a packet from this agent's node. The engine assigns the unique
    /// packet id and stamps `sent_at`; routing starts immediately.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.id = self.core.next_packet_id;
        self.core.next_packet_id += 1;
        pkt.sent_at = self.core.now;
        pkt.src = self.node;
        let h = self.core.pool.insert(pkt);
        self.core.forward(self.node, h, NO_LINK);
    }

    /// Schedule [`Agent::on_timer`] with `token` at absolute time `at`.
    ///
    /// The returned [`TimerHandle`] can be passed to
    /// [`Ctx::cancel_timer`]; agents that never cancel can ignore it.
    pub fn set_timer_at(&mut self, at: Time, token: u64) -> TimerHandle {
        let at = at.max(self.core.now);
        let (slot, gen) = self.core.timers.alloc(self.agent, token);
        self.core.schedule(at, Event::Timer { slot, gen });
        TimerHandle { slot, gen }
    }

    /// Schedule [`Agent::on_timer`] with `token` after `delay`.
    pub fn set_timer_after(&mut self, delay: Dur, token: u64) -> TimerHandle {
        let at = self.now() + delay;
        self.set_timer_at(at, token)
    }

    /// Cancel a pending timer. Lazy: the event is discarded when popped,
    /// never dispatched. Returns false if the timer already fired or was
    /// already cancelled (both are harmless).
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        let live = self.core.timers.retire(handle.slot, handle.gen).is_some();
        if live {
            self.core.cancelled += 1;
        }
        live
    }

    /// Cumulative statistics of a link, as of now (ideal-oracle read access).
    pub fn link_stats(&mut self, link: LinkId) -> &LinkStats {
        let ls = &mut self.core.links[link.0 as usize];
        ls.settle(self.core.now);
        &ls.stats
    }

    /// Busy-fraction of a link over its rolling window (ideal oracle).
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        self.core.links[link.0 as usize]
            .rolling
            .utilization(self.core.now)
    }

    /// Bytes currently queued at a link.
    pub fn link_queue_bytes(&self, link: LinkId) -> u64 {
        self.core.links[link.0 as usize].queue.len_bytes()
    }
}

/// The simulator: topology + agents + event loop.
pub struct Simulator {
    core: SimCore,
    agents: Vec<Option<Box<dyn Agent>>>,
    started: bool,
}

/// Window over which links report rolling utilization to the ideal oracle.
pub const UTIL_WINDOW: Dur = Dur::from_millis(500);

impl Simulator {
    /// Create a simulator over `topology` with drop-tail queues on every
    /// link, per the link specs.
    pub fn new(topology: Topology) -> Self {
        Simulator::with_disciplines(topology, |_, spec| LinkQueue::drop_tail(spec.capacity))
    }

    /// Create a simulator with a custom queueing discipline per link.
    ///
    /// The factory receives each link's id and spec and returns the
    /// [`LinkQueue`] to install — [`LinkQueue::drop_tail`] for the
    /// devirtualized common case, or [`LinkQueue::custom`] for any other
    /// [`crate::queue::Discipline`] (e.g. [`crate::queue::Red`] on the
    /// bottleneck) — the hook behind the §3.1 incentives ablation.
    pub fn with_disciplines(
        topology: Topology,
        mut factory: impl FnMut(LinkId, &crate::topology::LinkSpec) -> LinkQueue,
    ) -> Self {
        let links = topology
            .links()
            .iter()
            .enumerate()
            .map(|(idx, spec)| LinkState {
                queue: factory(LinkId(idx as u32), spec),
                tx_end: Time::ZERO,
                unsettled: None,
                wake: false,
                stats: LinkStats::new(),
                rolling: RollingUtil::new(UTIL_WINDOW),
                paused: false,
                paused_since: Time::ZERO,
                paused_ns: 0,
                fault: None,
            })
            .collect();
        let (queue, timers) = recycled_scheduler();
        let ports = vec![Vec::new(); topology.node_count()];
        let switches = (0..topology.node_count()).map(|_| None).collect();
        Simulator {
            core: SimCore {
                now: Time::ZERO,
                queue,
                timers,
                pool: PacketPool::default(),
                topology,
                links,
                switches,
                ports,
                agent_nodes: Vec::new(),
                next_packet_id: 0,
                undeliverable: 0,
                delivered: 0,
                events_fired: 0,
                skipped_stale: 0,
                cancelled: 0,
                tracer: None,
                budget: RunBudget::UNLIMITED,
                wall_start: None,
                terminated: None,
            },
            agents: Vec::new(),
            started: false,
        }
    }

    /// Attach an agent to `node`, listening on `port`.
    ///
    /// # Panics
    /// Panics if `(node, port)` is already bound or the sim has started.
    pub fn add_agent(&mut self, node: NodeId, port: u16, agent: Box<dyn Agent>) -> AgentId {
        assert!(!self.started, "cannot add agents after start");
        let id = AgentId(self.agents.len() as u32);
        let table = &mut self.core.ports[node.0 as usize];
        if table.len() <= usize::from(port) {
            table.resize(usize::from(port) + 1, NO_AGENT);
        }
        assert!(
            table[usize::from(port)] == NO_AGENT,
            "({node}, :{port}) already bound"
        );
        table[usize::from(port)] = id;
        self.agents.push(Some(agent));
        self.core.agent_nodes.push(node);
        id
    }

    /// Install a fault-injection [`ImpairmentPlan`] on `link`.
    ///
    /// All randomness — flap durations and the per-packet loss,
    /// corruption, duplication, and reordering draws — comes from a
    /// stream forked off `root` as `fork_indexed("faults/link", link)`,
    /// so plans on different links are independent and the whole
    /// impairment trace is bit-reproducible for any worker count.
    /// Outage and flap edges are precomputed here and scheduled as
    /// engine events.
    ///
    /// # Panics
    /// Panics if the simulation has started or the link already has a
    /// plan installed.
    pub fn install_impairments(&mut self, link: LinkId, plan: ImpairmentPlan, root: &SeedRng) {
        assert!(!self.started, "install impairments before the run starts");
        let ls = &mut self.core.links[link.0 as usize];
        assert!(
            ls.fault.is_none(),
            "{link} already has an impairment plan installed"
        );
        let rng = root.fork_indexed("faults/link", u64::from(link.0));
        let (fault, edges) = LinkFault::new(plan, rng);
        ls.fault = Some(Box::new(fault));
        for (at, up) in edges {
            self.core.schedule(at, Event::FaultEdge { link, up });
        }
    }

    /// Install a shared-buffer switch model (DT admission, optional ECN
    /// marking and PFC backpressure) on `node`: every egress link of the
    /// node draws from one buffer pool, per [`SwitchSpec`].
    ///
    /// The inner link queues still apply their own capacity after
    /// admission; give them at least the pool's worth of room (the
    /// harness uses `Capacity::Bytes(pool_bytes)`) so the shared buffer
    /// is the only thing that rejects.
    ///
    /// # Panics
    /// Panics if the simulation has started, the node already has a
    /// switch, or the spec is invalid (zero pool, non-positive α,
    /// `xon > xoff`, zero watchdog).
    pub fn install_switch(&mut self, node: NodeId, spec: SwitchSpec) {
        assert!(!self.started, "install switches before the run starts");
        assert!(
            self.core.switches[node.0 as usize].is_none(),
            "{node} already has a switch installed"
        );
        let sw = SwitchState::new(node, spec, &self.core.topology);
        self.core.switches[node.0 as usize] = Some(Box::new(sw));
    }

    /// Per-switch backpressure counters, [`Simulator::fault_stats`]-style:
    /// all-zero when no switch is installed on `node`.
    pub fn switch_stats(&self, node: NodeId) -> SwitchStats {
        self.core.switches[node.0 as usize]
            .as_deref()
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// Per-link chaos-plane counters; all-zero when no plan is installed.
    pub fn fault_stats(&self, link: LinkId) -> FaultStats {
        self.core.links[link.0 as usize]
            .fault
            .as_deref()
            .map(|f| f.stats)
            .unwrap_or_default()
    }

    /// Whether `link` is currently up (always true without a plan).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.core.links[link.0 as usize]
            .fault
            .as_deref()
            .is_none_or(|f| f.up)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Total events dispatched so far (stale timers, skipped at pop time,
    /// are counted separately — see [`Simulator::sched_stats`]).
    pub fn events_processed(&self) -> u64 {
        self.core.events_fired
    }

    /// Scheduler-level accounting: how events moved through the tiered
    /// queue. The conservation identity
    /// `scheduled == fired + skipped_stale + pending`
    /// holds at every instant.
    pub fn sched_stats(&self) -> SchedStats {
        let c = self.core.queue.counters();
        SchedStats {
            scheduled: c.scheduled,
            fired: self.core.events_fired,
            skipped_stale: self.core.skipped_stale,
            cancelled: self.core.cancelled,
            overflowed: c.overflowed,
            peak_pending: c.peak_pending,
            pending: self.core.queue.len() as u64,
        }
    }

    /// Packets that reached a node with no agent bound to their port.
    pub fn undeliverable(&self) -> u64 {
        self.core.undeliverable
    }

    /// A point-in-time census of every packet the simulation created.
    ///
    /// The conservation invariant — every injected packet is in exactly
    /// one place — holds at any instant, mid-run or after completion:
    /// see [`PacketCensus::conserved`].
    pub fn packet_census(&self) -> PacketCensus {
        let mut in_flight = 0u64;
        for event in self.core.queue.iter() {
            if matches!(event, Event::Deliver { .. }) {
                in_flight += 1;
            }
        }
        let mut queued = 0u64;
        let mut dropped = 0u64;
        let mut corrupted = 0u64;
        let mut duplicated = 0u64;
        let mut blackholed = 0u64;
        let mut paused_ns = 0u64;
        for ls in &self.core.links {
            queued += ls.queue.len_packets() as u64;
            dropped += ls.stats.dropped;
            paused_ns += ls.paused_ns;
            if ls.paused {
                // Open pause interval: count it up to the current clock
                // so the census is point-in-time accurate mid-pause.
                paused_ns += self.core.now.saturating_since(ls.paused_since).as_nanos();
            }
            if let Some(f) = ls.fault.as_deref() {
                corrupted += f.stats.corrupted;
                duplicated += f.stats.duplicated;
                blackholed += f.stats.blackholed;
            }
        }
        let mut ecn_marked = 0u64;
        let mut pfc_dropped = 0u64;
        for sw in self.core.switches.iter().flatten() {
            ecn_marked += sw.stats.ecn_marked;
            pfc_dropped += sw.stats.pfc_dropped;
        }
        // Pool conservation: a handle is live exactly while its packet is
        // queued or in flight. A leaked (or doubly released) handle is
        // otherwise silent — it changes no result, only memory.
        debug_assert_eq!(
            self.live_packets(),
            queued + in_flight,
            "packet pool out of step with the census"
        );
        PacketCensus {
            injected: self.core.next_packet_id,
            delivered: self.core.delivered,
            dropped,
            undeliverable: self.core.undeliverable,
            corrupted,
            duplicated,
            blackholed,
            pfc_dropped,
            queued,
            in_flight,
            ecn_marked,
            paused_ns,
        }
    }

    /// Packets the engine currently holds (its packet pool's live slots):
    /// every packet not yet in a terminal state, so always
    /// [`PacketCensus::outstanding`] and 0 after a drained run.
    pub fn live_packets(&self) -> u64 {
        self.core.pool.live() as u64
    }

    /// Bytes the switch on `node` holds right now, as `(shared pool
    /// total, sum of the per-ingress PFC attributions)`; `(0, 0)` when no
    /// switch is installed. Both are 0 once every queue has drained.
    pub fn switch_occupancy(&self, node: NodeId) -> (u64, u64) {
        self.core.switches[node.0 as usize]
            .as_deref()
            .map_or((0, 0), SwitchState::occupancy)
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// Statistics of one link, as of [`Simulator::now`].
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.core.links[link.0 as usize].stats
    }

    /// Install a packet tracer (ns-2-style observation of every enqueue,
    /// drop, transmission, and delivery). Replaces any previous tracer.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.core.tracer = Some(tracer);
    }

    /// Borrow an agent for post-run inspection.
    ///
    /// ```ignore
    /// let sender: &TcpSender = sim.agent_as::<TcpSender>(id).unwrap();
    /// ```
    pub fn agent_as<T: Agent>(&self, id: AgentId) -> Option<&T> {
        self.agents[id.0 as usize]
            .as_deref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    fn with_agent(&mut self, id: AgentId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        let mut agent = self.agents[id.0 as usize]
            .take()
            .expect("agent re-entrancy is impossible: events are dispatched serially");
        let node = self.core.agent_nodes[id.0 as usize];
        let mut ctx = Ctx {
            core: &mut self.core,
            agent: id,
            node,
        };
        f(agent.as_mut(), &mut ctx);
        self.agents[id.0 as usize] = Some(agent);
    }

    /// Dispatch one popped event.
    #[inline(always)]
    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { pkt: h, via } => {
                self.core.events_fired += 1;
                let node = self.core.topology.link(via).to;
                let (dst, dst_port) = (self.core.pool[h].dst, self.core.pool[h].dst_port);
                if dst == node {
                    self.core.trace(TraceOp::Deliver, None, Some(node), h);
                    let agent = self
                        .core
                        .ports
                        .get(node.0 as usize)
                        .and_then(|t| t.get(usize::from(dst_port)))
                        .copied()
                        .filter(|&a| a != NO_AGENT);
                    match agent {
                        Some(agent) => {
                            self.core.delivered += 1;
                            // The one copy of the packet's life: the
                            // agent takes it by value.
                            let pkt = self.core.pool.take(h);
                            self.with_agent(agent, |a, ctx| a.on_packet(pkt, ctx));
                        }
                        None => {
                            self.core.undeliverable += 1;
                            self.core.pool.release(h);
                        }
                    }
                } else {
                    self.core.forward(node, h, via);
                }
            }
            Event::Wake { link } => {
                self.core.events_fired += 1;
                self.core.links[link.0 as usize].wake = false;
                self.core.kick(link);
            }
            Event::Timer { slot, gen } => match self.core.timers.retire(slot, gen) {
                Some((agent, token)) => {
                    self.core.events_fired += 1;
                    self.with_agent(agent, |a, ctx| a.on_timer(token, ctx));
                }
                None => self.core.skipped_stale += 1,
            },
            Event::FaultEdge { link, up } => {
                self.core.events_fired += 1;
                self.core.on_fault_edge(link, up);
            }
            Event::Pfc { link, xoff } => {
                self.core.events_fired += 1;
                self.core.on_pfc(link, xoff);
            }
            Event::PfcWatchdog { link, epoch } => {
                self.core.events_fired += 1;
                self.core.on_pfc_watchdog(link, epoch);
            }
        }
    }

    /// Square the links up on the way out of `run_until`: advance the
    /// clock to `upto` (so utilization denominators and occupancy
    /// integrals cover the span the run reached) and count every
    /// serialization that ended by then.
    fn square_up(&mut self, upto: Time) {
        let advance = self.core.now < upto && upto != Time::MAX;
        if advance {
            self.core.now = upto;
        }
        let now = self.core.now;
        for ls in &mut self.core.links {
            if advance {
                ls.stats.advance_occupancy(now, ls.queue.len_bytes());
            }
            ls.settle(now);
            let held = ls.wake || ls.paused || ls.fault.as_deref().is_some_and(|f| !f.up);
            debug_assert!(held || ls.queue.len_packets() == 0, "stalled backlog");
        }
    }

    /// Run until the event queue drains or `deadline` passes, whichever is
    /// first. Returns the time the run stopped.
    ///
    /// With a [`RunBudget`] installed the run may also stop early; the
    /// reason is readable from [`Simulator::termination`] and the clock is
    /// only squared up over the span actually covered. The limit checks
    /// follow every dispatch and never reorder one, so the events run (and
    /// every digest derived from them) cannot depend on whether a budget
    /// is installed.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        /// Wall-clock reads are amortized: one `Instant::now` per this
        /// many dispatched events.
        const WALL_CHECK_INTERVAL: u64 = 1024;
        if !self.started {
            self.started = true;
            for i in 0..self.agents.len() {
                self.with_agent(AgentId(i as u32), |agent, ctx| agent.start(ctx));
            }
        }
        if self.core.terminated.is_some() {
            return self.core.now;
        }
        let budget = self.core.budget;
        let cap = budget.sim_cap().filter(|&cap| cap < deadline);
        let upto = cap.unwrap_or(deadline);
        if budget.max_wall_ms.is_some() && self.core.wall_start.is_none() {
            self.core.wall_start = Some(Instant::now());
        }
        let mut since_check = 0u64;
        while let Some((at, event)) = self.core.queue.pop_if(upto) {
            self.core.now = at;
            self.dispatch(event);
            // Events / wall-clock: the run stops mid-flight; advancing the
            // clock further would count unsimulated span into occupancy
            // and utilization integrals.
            if let Some(max) = budget.max_events {
                if self.core.events_fired >= max {
                    self.core.terminated = Some(BudgetExceeded::Events);
                    break;
                }
            }
            if let Some(ms) = budget.max_wall_ms {
                since_check += 1;
                if since_check >= WALL_CHECK_INTERVAL {
                    since_check = 0;
                    let start = self.core.wall_start.expect("wall base set above");
                    if start.elapsed().as_millis() as u64 >= ms {
                        self.core.terminated = Some(BudgetExceeded::WallClock);
                        break;
                    }
                }
            }
        }
        let reached = self.core.terminated.is_none();
        if reached && cap.is_some() && self.core.queue.next_time().is_some_and(|t| t <= deadline) {
            // Events the caller asked for remain beyond the cap: the
            // sim-time budget bound.
            self.core.terminated = Some(BudgetExceeded::SimTime);
        }
        self.square_up(if reached { upto } else { self.core.now });
        self.core.now
    }

    /// Install a resource [`RunBudget`] enforced from the next pump on.
    /// Installing the unlimited budget is equivalent to never calling
    /// this. Replaces any previously installed budget; the wall-clock
    /// watchdog base is the first pump under a wall-clock limit.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.core.budget = budget;
    }

    /// Why the run terminated early, if a [`RunBudget`] limit fired.
    /// `None` means no budget bound (the run completed or is still
    /// resumable).
    pub fn termination(&self) -> Option<BudgetExceeded> {
        self.core.terminated
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) -> Time {
        self.run_until(Time::MAX)
    }
}

/// Where every packet the simulation ever created currently is.
///
/// Taken with [`Simulator::packet_census`]. A packet is *injected* when an
/// agent calls [`Ctx::send`] (or *duplicated* into existence by the fault
/// plane); from then on it is in exactly one terminal or transient state,
/// so [`PacketCensus::conserved`] must hold at every instant — it is the
/// engine's bookkeeping invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCensus {
    /// Packets created via [`Ctx::send`].
    pub injected: u64,
    /// Packets consumed by a bound agent at their destination.
    pub delivered: u64,
    /// Packets dropped at link queues (summed over links).
    pub dropped: u64,
    /// Packets that hit a routing dead-end or an unbound port.
    pub undeliverable: u64,
    /// Packets corrupted in transit by the fault plane and discarded at
    /// the link egress, as a failed checksum would be.
    pub corrupted: u64,
    /// Extra packet copies created by fault-plane duplication; each one
    /// also shows up downstream as delivered/dropped/… like an injection.
    pub duplicated: u64,
    /// Packets destroyed by the fault plane: killed by a downed link
    /// (arriving, queued, or mid-serialization) or by random loss.
    pub blackholed: u64,
    /// Packets destroyed by PFC pause-storm watchdog drains (summed over
    /// switches) — a terminal state, like `dropped`.
    pub pfc_dropped: u64,
    /// Packets sitting in link queues right now.
    pub queued: u64,
    /// Packets serializing on a link or propagating toward a node
    /// (scheduled `Deliver` events).
    pub in_flight: u64,
    /// Informational (not a packet state): packets CE-marked by switch
    /// ECN on admission. A marked packet continues toward delivery.
    pub ecn_marked: u64,
    /// Informational (not a packet state): nanoseconds links spent
    /// PFC-paused, summed over links, open intervals included.
    pub paused_ns: u64,
}

impl PacketCensus {
    /// Injected packets not yet in a terminal state.
    pub fn outstanding(&self) -> u64 {
        self.queued + self.in_flight
    }

    /// The conservation invariant, extended for the fault plane and the
    /// backpressure plane:
    /// `injected + duplicated == delivered + dropped + undeliverable
    ///  + corrupted + blackholed + pfc_dropped + queued + in_flight`.
    ///
    /// Duplication mints a packet copy mid-network, so copies join the
    /// injected side of the ledger; watchdog drains (`pfc_dropped`) are
    /// a terminal state like queue drops. `ecn_marked` and `paused_ns`
    /// are informational and deliberately outside the identity — a
    /// marked packet is still in exactly one of the states above. With
    /// no impairments or switches installed every extension term is zero
    /// and this reduces to the original law.
    pub fn conserved(&self) -> bool {
        self.injected + self.duplicated
            == self.delivered
                + self.dropped
                + self.undeliverable
                + self.corrupted
                + self.blackholed
                + self.pfc_dropped
                + self.queued
                + self.in_flight
    }
}

/// How events moved through the tiered scheduler, from
/// [`Simulator::sched_stats`].
///
/// Like [`PacketCensus`] for packets, these counters obey a conservation
/// identity — every scheduled event is eventually fired or skipped, or is
/// still pending: see [`SchedStats::conserved`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events ever pushed onto the queue.
    pub scheduled: u64,
    /// Events popped and dispatched.
    pub fired: u64,
    /// Timer events popped but discarded because their generation was
    /// stale (cancelled or superseded before firing).
    pub skipped_stale: u64,
    /// Successful [`Ctx::cancel_timer`] calls (each later surfaces as one
    /// `skipped_stale` pop).
    pub cancelled: u64,
    /// Events that took the far-future overflow heap at push time rather
    /// than the near-future calendar.
    pub overflowed: u64,
    /// High-water mark of pending events.
    pub peak_pending: u64,
    /// Events currently pending.
    pub pending: u64,
}

/// Resource budget for one run, enforced in the engine's pop loop. Every
/// limit is optional; the default budget is unlimited and an unlimited
/// budget arms no check, so runs without a budget replay bit-for-bit
/// against their historical digests.
///
/// A run that hits a limit stops *gracefully*: agents keep their state,
/// statistics and censuses stay conserved, and the caller reads the
/// reason from [`Simulator::termination`]. The first limit observed
/// wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunBudget {
    /// Stop after this many dispatched events (stale-timer skips do not
    /// count). Deterministic for a fixed engine configuration: the same
    /// run always terminates on the same event.
    #[serde(default)]
    pub max_events: Option<u64>,
    /// Cap the simulated span: the run never advances past
    /// `Time::ZERO + max_sim_time`, even if the caller's deadline is
    /// later. Deterministic.
    #[serde(default)]
    pub max_sim_time: Option<Dur>,
    /// Wall-clock watchdog, in milliseconds of host time since the first
    /// pump under it. Inherently nondeterministic (it measures the host,
    /// not the simulation); use it as a last-resort backstop against
    /// runaway scenarios, not as a reproducible limit.
    #[serde(default)]
    pub max_wall_ms: Option<u64>,
}

impl RunBudget {
    /// The budget that never binds (the default).
    pub const UNLIMITED: RunBudget = RunBudget {
        max_events: None,
        max_sim_time: None,
        max_wall_ms: None,
    };

    /// A budget limited only by dispatched-event count.
    pub fn events(max: u64) -> Self {
        RunBudget {
            max_events: Some(max),
            ..RunBudget::UNLIMITED
        }
    }

    /// A budget limited only by simulated time.
    pub fn sim_time(max: Dur) -> Self {
        RunBudget {
            max_sim_time: Some(max),
            ..RunBudget::UNLIMITED
        }
    }

    /// A budget limited only by host wall-clock time.
    pub fn wall_ms(max: u64) -> Self {
        RunBudget {
            max_wall_ms: Some(max),
            ..RunBudget::UNLIMITED
        }
    }

    /// The absolute sim-time ceiling, if a sim-time limit is set.
    pub(crate) fn sim_cap(&self) -> Option<Time> {
        self.max_sim_time.map(|d| Time::ZERO + d)
    }
}

/// Why a budgeted run terminated early (see [`RunBudget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetExceeded {
    /// [`RunBudget::max_events`] was reached.
    Events,
    /// [`RunBudget::max_sim_time`] was reached with events still pending
    /// inside the caller's deadline.
    SimTime,
    /// [`RunBudget::max_wall_ms`] elapsed on the host.
    WallClock,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetExceeded::Events => "event budget exceeded",
            BudgetExceeded::SimTime => "sim-time budget exceeded",
            BudgetExceeded::WallClock => "wall-clock budget exceeded",
        })
    }
}

impl SchedStats {
    /// The scheduler's conservation invariant:
    /// `scheduled == fired + skipped_stale + pending`.
    pub fn conserved(&self) -> bool {
        self.scheduled == self.fired + self.skipped_stale + self.pending
    }
}

/// Convenience constructor for packets sent by agents (the engine fills in
/// `id`, `src`, and `sent_at`).
pub fn packet_to(dst: NodeId, dst_port: u16, src_port: u16, flow: FlowId, size: u32) -> Packet {
    Packet {
        id: 0,
        flow,
        src: NodeId(u32::MAX), // overwritten by Ctx::send
        dst,
        src_port,
        dst_port,
        seq: 0,
        ack: 0,
        flags: Flags::empty(),
        size,
        sent_at: Time::ZERO,
        echo: Time::ZERO,
        sack: SackBlocks::EMPTY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Capacity;
    use crate::topology::TopologyBuilder;

    /// Sends `count` packets of `size` bytes to a peer, spaced by `gap`.
    struct Blaster {
        peer: NodeId,
        peer_port: u16,
        port: u16,
        count: u32,
        size: u32,
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
                let mut p = packet_to(self.peer, self.peer_port, self.port, FlowId(1), self.size);
                p.seq = u64::from(self.sent);
                ctx.send(p);
                self.sent += 1;
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

    /// Records every packet it receives with its arrival time.
    #[derive(Default)]
    struct Sink {
        received: Vec<(u64, Time)>,
    }

    impl Agent for Sink {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.received.push((pkt.seq, ctx.now()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_nodes(rate_bps: u64, delay: Dur, cap: Capacity) -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        b.add_duplex(a, z, rate_bps, delay, cap);
        (b.build(), a, z)
    }

    #[test]
    fn single_packet_latency_is_tx_plus_prop() {
        // 1000-byte packet at 1 Mbit/s = 8 ms tx; +2 ms prop = 10 ms.
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(10));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 1,
                size: 1000,
                gap: Dur::from_secs(1),
                sent: 0,
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_to_completion();
        let s = sim.agent_as::<Sink>(sink).unwrap();
        assert_eq!(s.received.len(), 1);
        assert_eq!(s.received[0].1, Time::from_millis(10));
    }

    #[test]
    fn back_to_back_packets_serialize() {
        // Two packets sent at t=0; the second must wait for the first's tx.
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(10));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 2,
                size: 1000,
                gap: Dur::ZERO,
                sent: 0,
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_to_completion();
        let s = sim.agent_as::<Sink>(sink).unwrap();
        assert_eq!(s.received.len(), 2);
        assert_eq!(s.received[0].1, Time::from_millis(10));
        assert_eq!(s.received[1].1, Time::from_millis(18)); // +8 ms serialization
                                                            // FIFO order.
        assert_eq!(s.received[0].0, 0);
        assert_eq!(s.received[1].0, 1);
    }

    #[test]
    fn droptail_loses_overflow_and_counts_it() {
        // Queue capacity 2 packets; 5 packets arrive while the first
        // serializes (tx = 8 ms each, arrivals every 1 ms).
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(2));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 5,
                size: 1000,
                gap: Dur::from_millis(1),
                sent: 0,
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_to_completion();
        let s = sim.agent_as::<Sink>(sink).unwrap();
        let link = crate::packet::LinkId(0);
        let stats = sim.link_stats(link);
        assert!(stats.dropped > 0, "expected drops, got none");
        assert_eq!(
            stats.enqueued + stats.dropped,
            5,
            "all offered packets accounted"
        );
        assert_eq!(s.received.len() as u64, stats.transmitted);
    }

    #[test]
    fn utilization_and_throughput_accounting() {
        let (t, a, z) = two_nodes(8_000_000, Dur::from_millis(1), Capacity::Packets(100));
        let mut sim = Simulator::new(t);
        // 100 packets of 1000 bytes = 800_000 bits = 0.1 s of tx at 8 Mbit/s.
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 100,
                size: 1000,
                gap: Dur::ZERO,
                sent: 0,
            }),
        );
        sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_until(Time::from_millis(200));
        let stats = sim.link_stats(crate::packet::LinkId(0));
        let elapsed = Dur::from_millis(200);
        assert!((stats.utilization(elapsed) - 0.5).abs() < 0.01);
        assert!((stats.throughput_bps(elapsed) - 4_000_000.0).abs() < 50_000.0);
        assert_eq!(stats.transmitted, 100);
    }

    #[test]
    fn undeliverable_packets_counted() {
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(10));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 99, // nothing bound on port 99
                port: 1,
                count: 3,
                size: 100,
                gap: Dur::ZERO,
                sent: 0,
            }),
        );
        sim.run_to_completion();
        assert_eq!(sim.undeliverable(), 3);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_binding_rejected() {
        let (t, a, _z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(1));
        let mut sim = Simulator::new(t);
        sim.add_agent(a, 1, Box::<Sink>::default());
        sim.add_agent(a, 1, Box::<Sink>::default());
    }

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(50));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 10,
                size: 1000,
                gap: Dur::from_millis(20),
                sent: 0,
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_until(Time::from_millis(50));
        let got_midway = sim.agent_as::<Sink>(sink).unwrap().received.len();
        assert!(got_midway > 0 && got_midway < 10, "got {got_midway}");
        sim.run_to_completion();
        assert_eq!(sim.agent_as::<Sink>(sink).unwrap().received.len(), 10);
    }

    #[test]
    fn jitter_reorders_but_delivers_everything() {
        use crate::topology::LinkSpec;
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        // Jitter (5 ms) far above the serialization gap (80 us): heavy
        // reordering is guaranteed, loss is impossible (huge queue).
        b.add_link(LinkSpec {
            jitter: Dur::from_millis(5),
            ..LinkSpec::new(
                a,
                z,
                100_000_000,
                Dur::from_millis(10),
                Capacity::Packets(10_000),
            )
        });
        b.add_link(LinkSpec::new(
            z,
            a,
            100_000_000,
            Dur::from_millis(10),
            Capacity::Packets(10_000),
        ));
        let mut sim = Simulator::new(b.build());
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 200,
                size: 1000,
                gap: Dur::from_micros(80),
                sent: 0,
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_to_completion();
        let s = sim.agent_as::<Sink>(sink).unwrap();
        assert_eq!(s.received.len(), 200, "jitter must not lose packets");
        let inversions = s.received.windows(2).filter(|w| w[1].0 < w[0].0).count();
        assert!(
            inversions > 10,
            "expected reordering, got {inversions} inversions"
        );
        // Determinism: the same run reorders identically.
        let rerun = {
            let mut b = TopologyBuilder::new();
            let a = b.add_node();
            let z = b.add_node();
            b.add_link(LinkSpec {
                jitter: Dur::from_millis(5),
                ..LinkSpec::new(
                    a,
                    z,
                    100_000_000,
                    Dur::from_millis(10),
                    Capacity::Packets(10_000),
                )
            });
            b.add_link(LinkSpec::new(
                z,
                a,
                100_000_000,
                Dur::from_millis(10),
                Capacity::Packets(10_000),
            ));
            let mut sim2 = Simulator::new(b.build());
            sim2.add_agent(
                a,
                1,
                Box::new(Blaster {
                    peer: z,
                    peer_port: 2,
                    port: 1,
                    count: 200,
                    size: 1000,
                    gap: Dur::from_micros(80),
                    sent: 0,
                }),
            );
            let sink2 = sim2.add_agent(z, 2, Box::<Sink>::default());
            sim2.run_to_completion();
            sim2.agent_as::<Sink>(sink2).unwrap().received.clone()
        };
        assert_eq!(s.received, rerun);
    }

    #[test]
    fn custom_disciplines_installed_per_link() {
        use crate::queue::Red;
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(10));
        // RED with thresholds far below the load: early drops must occur
        // where plain drop-tail (capacity 10_000) would accept everything.
        let mut sim = Simulator::with_disciplines(t, |id, spec| {
            if id.0 == 0 {
                LinkQueue::custom(Red::new(Capacity::Packets(10_000), 2.0, 6.0, 1.0))
            } else {
                LinkQueue::drop_tail(spec.capacity)
            }
        });
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 500,
                size: 1000,
                gap: Dur::ZERO,
                sent: 0,
            }),
        );
        sim.add_agent(z, 2, Box::<Sink>::default());
        sim.run_to_completion();
        let stats = sim.link_stats(crate::packet::LinkId(0));
        assert!(stats.dropped > 0, "RED should have dropped early");
        assert!(stats.transmitted > 0);
    }

    #[test]
    fn tracer_sees_full_packet_lifecycle() {
        use crate::trace::{SharedTraceCollector, TraceOp};
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(2));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 6,
                size: 1000,
                gap: Dur::from_micros(100), // bursts into the 2-packet queue
                sent: 0,
            }),
        );
        sim.add_agent(z, 2, Box::<Sink>::default());
        let (tracer, events) = SharedTraceCollector::new();
        sim.set_tracer(tracer);
        sim.run_to_completion();
        let events = events.borrow();
        let count = |op: TraceOp| events.iter().filter(|e| e.op == op).count() as u64;
        let stats = sim.link_stats(crate::packet::LinkId(0));
        assert_eq!(count(TraceOp::Enqueue), stats.enqueued);
        assert_eq!(count(TraceOp::Drop), stats.dropped);
        assert_eq!(count(TraceOp::Transmit), stats.transmitted);
        assert!(count(TraceOp::Drop) > 0, "queue of 2 must drop under burst");
        assert_eq!(count(TraceOp::Deliver), stats.transmitted);
        // Trace is time-ordered.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn census_conserves_packets_mid_run_and_at_completion() {
        // Tiny queue + fast arrivals: drops, queueing, and in-flight
        // packets all occur, so every census term is exercised.
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(5), Capacity::Packets(3));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 50,
                size: 1000,
                gap: Dur::from_millis(1),
                sent: 0,
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());

        // Stop mid-stream: some packets must still be queued or in flight.
        sim.run_until(Time::from_millis(20));
        let mid = sim.packet_census();
        assert!(mid.conserved(), "mid-run census leaks packets: {mid:?}");
        assert!(
            mid.outstanding() > 0,
            "expected packets in transit: {mid:?}"
        );
        let mid_sched = sim.sched_stats();
        assert!(
            mid_sched.conserved(),
            "mid-run scheduler leaks events: {mid_sched:?}"
        );

        sim.run_to_completion();
        let end = sim.packet_census();
        assert!(end.conserved(), "final census leaks packets: {end:?}");
        let end_sched = sim.sched_stats();
        assert!(
            end_sched.conserved(),
            "final scheduler census leaks events: {end_sched:?}"
        );
        assert_eq!(end_sched.pending, 0, "events stuck after drain");
        assert_eq!(end.outstanding(), 0, "packets stuck after drain: {end:?}");
        assert_eq!(end.injected, 50);
        assert!(end.dropped > 0, "queue of 3 must drop under this burst");
        let received = sim.agent_as::<Sink>(sink).unwrap().received.len() as u64;
        assert_eq!(end.delivered, received);
        assert_eq!(end.delivered + end.dropped, 50);
    }

    #[test]
    fn census_counts_undeliverable_as_terminal() {
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(10));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 99, // nothing bound on port 99
                port: 1,
                count: 3,
                size: 100,
                gap: Dur::ZERO,
                sent: 0,
            }),
        );
        sim.run_to_completion();
        let c = sim.packet_census();
        assert!(c.conserved(), "{c:?}");
        assert_eq!(c.undeliverable, 3);
        assert_eq!(c.delivered, 0);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn recycled_scheduler_carcasses_do_not_change_results() {
        // Back-to-back simulators on one thread hit the scheduler pool;
        // the second run must start from a logically fresh queue (empty,
        // sequence numbers and timer generations reset).
        let run = || {
            let (t, a, z) = two_nodes(2_000_000, Dur::from_millis(2), Capacity::Packets(5));
            let mut sim = Simulator::new(t);
            sim.add_agent(
                a,
                1,
                Box::new(Blaster {
                    peer: z,
                    peer_port: 2,
                    port: 1,
                    count: 80,
                    size: 900,
                    gap: Dur::from_micros(500),
                    sent: 0,
                }),
            );
            sim.add_agent(z, 2, Box::<Sink>::default());
            sim.run_to_completion();
            (sim.events_processed(), sim.packet_census())
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    /// Sends `bursts[i].1` back-to-back 1000-byte packets at `bursts[i].0`.
    struct Bursts {
        peer: NodeId,
        bursts: Vec<(Time, u32)>,
    }

    impl Agent for Bursts {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &(at, _)) in self.bursts.iter().enumerate() {
                ctx.set_timer_at(at, i as u64);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            for _ in 0..self.bursts[token as usize].1 {
                ctx.send(packet_to(self.peer, 2, 1, FlowId(1), 1000));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// host → switch (30 KB pool, α = 8) → 10 Mbit/s egress that is down
    /// (Drop policy) over 5–10 ms: a 20-packet burst at t = 0 is mostly
    /// still queued at the switch when the down edge drains it, and a
    /// 25-packet burst at t = 40 ms finds the queue empty.
    fn drained_switch_egress(pfc: Option<crate::switch::PfcSpec>) -> (Simulator, NodeId) {
        let mut b = TopologyBuilder::new();
        let host = b.add_node();
        let sw = b.add_node();
        let sink = b.add_node();
        let fast = Dur::from_micros(10);
        b.add_duplex(host, sw, 1_000_000_000, fast, Capacity::Packets(1_000));
        let (egress, _) = b.add_duplex(sw, sink, 10_000_000, fast, Capacity::Bytes(30_000));
        let mut sim = Simulator::new(b.build());
        let mut spec = SwitchSpec::shared(30_000).with_alpha(8.0);
        spec.pfc = pfc;
        sim.install_switch(sw, spec);
        let plan = ImpairmentPlan::new()
            .outage(Time::from_millis(5), Time::from_millis(10))
            .down_policy(DownPolicy::Drop);
        sim.install_impairments(egress, plan, &SeedRng::new(1));
        sim.add_agent(
            host,
            1,
            Box::new(Bursts {
                peer: sink,
                bursts: vec![(Time::ZERO, 20), (Time::from_millis(40), 25)],
            }),
        );
        sim.add_agent(sink, 2, Box::<Sink>::default());
        (sim, sw)
    }

    #[test]
    fn fault_drain_returns_shared_buffer_bytes() {
        let (mut sim, sw) = drained_switch_egress(None);
        sim.run_until(Time::from_millis(20));
        let mid = sim.packet_census();
        assert!(mid.blackholed >= 10, "the down edge must drain: {mid:?}");
        assert_eq!(mid.outstanding(), 0, "{mid:?}");
        assert_eq!(
            sim.switch_occupancy(sw),
            (0, 0),
            "drained packets still hold pool bytes"
        );
        sim.run_to_completion();
        let end = sim.packet_census();
        assert!(end.conserved(), "{end:?}");
        // The second burst fits an empty pool; leaked bytes would have
        // made Dynamic-Threshold admission reject part of it.
        assert_eq!(sim.switch_stats(sw).shared_drops, 0);
        assert_eq!(end.delivered + end.blackholed, 45, "{end:?}");
        assert_eq!(sim.switch_occupancy(sw), (0, 0));
    }

    #[test]
    fn fault_drain_resumes_a_paused_ingress() {
        let pfc = crate::switch::PfcSpec {
            xoff_bytes: 8_000,
            xon_bytes: 4_000,
            watchdog: Dur::from_secs(60),
        };
        let (mut sim, sw) = drained_switch_egress(Some(pfc));
        sim.run_to_completion();
        let end = sim.packet_census();
        let stats = sim.switch_stats(sw);
        assert!(end.conserved(), "{end:?}");
        assert!(stats.pauses > 0, "the first burst must pause the host");
        // The drain took the ingress below its resume threshold: it is
        // owed an XON there and then, not a watchdog rescue a minute on.
        assert_eq!(stats.pauses, stats.resumes, "{stats:?}");
        assert_eq!(stats.watchdog_fires, 0, "{stats:?}");
        assert_eq!(end.pfc_dropped, 0, "a fault drain is not a PFC drop");
        assert_eq!(end.delivered + end.blackholed, 45, "{end:?}");
        assert_eq!(sim.switch_occupancy(sw), (0, 0));
    }

    /// A 1 Mbit/s link (8 ms per 1000-byte frame, 2 ms propagation)
    /// carrying `bursts`, with `plan` installed on it.
    fn impaired_link(plan: ImpairmentPlan, bursts: Vec<(Time, u32)>) -> Simulator {
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(100));
        let mut sim = Simulator::new(t);
        sim.install_impairments(LinkId(0), plan, &SeedRng::new(3));
        sim.add_agent(a, 1, Box::new(Bursts { peer: z, bursts }));
        sim.add_agent(z, 2, Box::<Sink>::default());
        sim
    }

    fn outage(down_ms: u64, up_ms: u64) -> ImpairmentPlan {
        ImpairmentPlan::new().outage(Time::from_millis(down_ms), Time::from_millis(up_ms))
    }

    #[test]
    fn a_frame_whose_serialization_outlives_the_link_is_blackholed() {
        // Dequeued at 0 while the link is up; it fails at 5 ms, mid-frame.
        for policy in [DownPolicy::Drop, DownPolicy::Park] {
            let mut sim = impaired_link(outage(5, 50).down_policy(policy), vec![(Time::ZERO, 1)]);
            sim.run_to_completion();
            let c = sim.packet_census();
            assert!(c.conserved(), "{c:?}");
            assert_eq!((c.delivered, c.blackholed), (0, 1), "{policy:?}: {c:?}");
        }
        // A frame that ends before the edge gets through.
        let mut sim = impaired_link(outage(9, 50), vec![(Time::ZERO, 1)]);
        sim.run_to_completion();
        assert_eq!(sim.packet_census().delivered, 1);
    }

    #[test]
    fn an_edge_at_exactly_tx_end_decides_the_frame() {
        // The frame is on the wire over 0..8 ms. Edges are scheduled at
        // install, so one at exactly 8 ms is in force when it ends.
        let mut fails = impaired_link(outage(8, 20), vec![(Time::ZERO, 1)]);
        fails.run_to_completion();
        let c = fails.packet_census();
        assert_eq!((c.delivered, c.blackholed), (0, 1), "{c:?}");
        let mut heals = impaired_link(outage(3, 8), vec![(Time::ZERO, 1)]);
        heals.run_to_completion();
        let c = heals.packet_census();
        assert_eq!((c.delivered, c.blackholed), (1, 0), "{c:?}");
    }

    #[test]
    fn a_drop_drain_with_a_wake_pending_conserves_the_census() {
        // Three frames at 0: one on the wire until 8 ms, two queued behind
        // it with a wake pending at 8 ms. The link fails at 4 ms: the drain
        // takes the two, the frame on the wire was lost when it started,
        // and the wake finds an empty queue.
        let mut sim = impaired_link(outage(4, 50), vec![(Time::ZERO, 3)]);
        sim.run_until(Time::from_millis(6));
        let mid = sim.packet_census();
        assert!(mid.conserved(), "{mid:?}");
        assert_eq!((mid.queued, mid.in_flight, mid.blackholed), (0, 0, 3));
        sim.run_to_completion();
        let end = sim.packet_census();
        assert!(end.conserved(), "{end:?}");
        assert_eq!((end.delivered, end.blackholed), (0, 3), "{end:?}");
        assert_eq!(sim.link_stats(LinkId(0)).transmitted, 1);
        let s = sim.sched_stats();
        assert!(s.conserved() && s.pending == 0, "{s:?}");
    }

    /// Sends frame `i` (seq `i`, 1000 bytes) after `gaps[i]`.
    struct Paced {
        peer: NodeId,
        gaps: Vec<Dur>,
        sent: usize,
    }

    impl Agent for Paced {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(self.gaps[0], 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            let mut p = packet_to(self.peer, 2, 1, FlowId(1), 1000);
            p.seq = self.sent as u64;
            ctx.send(p);
            self.sent += 1;
            if let Some(&gap) = self.gaps.get(self.sent) {
                ctx.set_timer_after(gap, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn egress_draws_follow_serialization_order_on_the_link_stream() {
        // Bursts of 20 frames 2 ms apart (a backlog on an 8 ms/frame
        // link) alternate with 20 frames 12 ms apart (idle between
        // frames). The fault plane never touches the queue, so every frame
        // leaves when it would unimpaired, and replaying the link's stream
        // once per frame in FIFO order must predict every arrival.
        let gaps: Vec<Dur> = (0..300)
            .map(|i| Dur::from_millis(if (i / 20) % 2 == 0 { 2 } else { 12 }))
            .collect();
        let plan = ImpairmentPlan::new()
            .loss(crate::faults::LossModel::Bernoulli { p: 0.2 })
            .duplicate(0.1)
            .reorder(0.3, Dur::from_millis(5));
        let run = |plan: Option<&ImpairmentPlan>| {
            let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(100));
            let mut sim = Simulator::new(t);
            if let Some(plan) = plan {
                sim.install_impairments(LinkId(0), plan.clone(), &SeedRng::new(11));
            }
            let gaps = gaps.clone();
            sim.add_agent(
                a,
                1,
                Box::new(Paced {
                    peer: z,
                    gaps,
                    sent: 0,
                }),
            );
            let sink = sim.add_agent(z, 2, Box::<Sink>::default());
            sim.run_to_completion();
            let mut got = sim.agent_as::<Sink>(sink).unwrap().received.clone();
            got.sort_unstable();
            got
        };
        let clean = run(None);
        assert_eq!(clean.len(), 300);
        let rng = SeedRng::new(11).fork_indexed("faults/link", 0);
        let (mut fault, _) = LinkFault::new(plan.clone(), rng);
        let mut want = Vec::new();
        for &(seq, at) in &clean {
            if let EgressVerdict::Forward { extra, duplicate } = fault.egress(Time::ZERO) {
                want.push((seq, at + extra));
                if duplicate {
                    want.push((seq, at + extra));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(run(Some(&plan)), want);
        assert!(fault.stats.blackholed > 30 && fault.stats.duplicated > 10);
        assert!(fault.stats.reordered > 30);
    }

    #[test]
    fn link_stats_between_pumps_count_what_ended_by_now() {
        // Frames at 0, 20 and 40 ms, each 8 ms on the wire with nothing
        // queued behind it: no event ever marks a frame's end.
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(10));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count: 3,
                size: 1000,
                gap: Dur::from_millis(20),
                sent: 0,
            }),
        );
        sim.add_agent(z, 2, Box::<Sink>::default());
        let frame = Dur::from_millis(8);
        for (ms, ended) in [(5, 0), (8, 1), (15, 1), (25, 1), (28, 2), (60, 3)] {
            sim.run_until(Time::from_millis(ms));
            let s = sim.link_stats(LinkId(0));
            assert_eq!(s.transmitted, ended, "t = {ms} ms");
            assert_eq!(s.bytes_transmitted, ended * 1000, "t = {ms} ms");
            assert_eq!(s.busy, frame * ended, "t = {ms} ms");
        }
    }

    #[test]
    fn an_event_budget_stop_counts_the_serializations_ended_by_now() {
        use crate::trace::SharedTraceCollector;
        let mut sim = blast_sim(200);
        let (tracer, events) = SharedTraceCollector::new();
        sim.set_tracer(tracer);
        sim.set_budget(RunBudget::events(77));
        let now = sim.run_to_completion();
        assert_eq!(sim.termination(), Some(BudgetExceeded::Events));
        let frame = Dur::transmission(700, 5_000_000);
        let events = events.borrow();
        let started = events
            .iter()
            .filter(|e| e.op == TraceOp::Transmit && e.link == Some(LinkId(0)));
        let ended = started.filter(|e| e.at + frame <= now).count() as u64;
        assert!(ended > 10, "{ended}");
        let s = sim.link_stats(LinkId(0));
        assert_eq!(s.transmitted, ended);
        assert_eq!(s.busy, frame * ended);
    }

    /// Arms a timer far out, then cancels and re-arms it on each of a
    /// series of tick timers — the re-arm pattern the TCP sender uses for
    /// its RTO.
    struct Canceller {
        ticks: u32,
        armed: Option<TimerHandle>,
        long_fired: u32,
        cancels_ok: u32,
    }

    impl Agent for Canceller {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(Dur::from_millis(1), 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            match token {
                0 => {
                    if let Some(h) = self.armed.take() {
                        if ctx.cancel_timer(h) {
                            self.cancels_ok += 1;
                        }
                    }
                    self.armed = Some(ctx.set_timer_after(Dur::from_secs(5), 1));
                    if self.ticks > 0 {
                        self.ticks -= 1;
                        ctx.set_timer_after(Dur::from_millis(1), 0);
                    }
                }
                1 => self.long_fired += 1,
                _ => unreachable!(),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cancelled_timers_skip_without_dispatch() {
        let (t, a, _z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(1));
        let mut sim = Simulator::new(t);
        let id = sim.add_agent(
            a,
            1,
            Box::new(Canceller {
                ticks: 9,
                armed: None,
                long_fired: 0,
                cancels_ok: 0,
            }),
        );
        sim.run_to_completion();
        let agent = sim.agent_as::<Canceller>(id).unwrap();
        // 10 arms, 9 cancelled by the next tick, the last one fires.
        assert_eq!(agent.cancels_ok, 9);
        assert_eq!(agent.long_fired, 1);
        let s = sim.sched_stats();
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.cancelled, 9);
        assert_eq!(s.skipped_stale, 9);
        // 10 ticks + 10 long arms, minus the 9 cancelled pops.
        assert_eq!(s.fired, 11);
        // The 5-second arms sit far beyond the calendar horizon.
        assert!(s.overflowed >= 10, "{s:?}");
    }

    #[test]
    fn deterministic_event_counts() {
        let run = || {
            let (t, a, z) = two_nodes(5_000_000, Dur::from_millis(3), Capacity::Packets(7));
            let mut sim = Simulator::new(t);
            sim.add_agent(
                a,
                1,
                Box::new(Blaster {
                    peer: z,
                    peer_port: 2,
                    port: 1,
                    count: 200,
                    size: 700,
                    gap: Dur::from_micros(300),
                    sent: 0,
                }),
            );
            sim.add_agent(z, 2, Box::<Sink>::default());
            sim.run_to_completion();
            (
                sim.events_processed(),
                sim.link_stats(crate::packet::LinkId(0)).dropped,
            )
        };
        assert_eq!(run(), run());
    }

    fn blast_sim(count: u32) -> Simulator {
        let (t, a, z) = two_nodes(5_000_000, Dur::from_millis(3), Capacity::Packets(7));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Blaster {
                peer: z,
                peer_port: 2,
                port: 1,
                count,
                size: 700,
                gap: Dur::from_micros(300),
                sent: 0,
            }),
        );
        sim.add_agent(z, 2, Box::<Sink>::default());
        sim
    }

    #[test]
    fn event_budget_terminates_gracefully_and_conserves() {
        let mut sim = blast_sim(200);
        sim.set_budget(RunBudget::events(50));
        sim.run_to_completion();
        assert_eq!(sim.termination(), Some(BudgetExceeded::Events));
        assert_eq!(sim.events_processed(), 50);
        // Graceful stop: every ledger still balances mid-flight.
        assert!(sim.packet_census().conserved());
        assert!(sim.sched_stats().conserved());
        // Termination is sticky: further pumping is a no-op.
        let t = sim.now();
        sim.run_to_completion();
        assert_eq!(sim.events_processed(), 50);
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn event_budget_is_deterministic() {
        let run = || {
            let mut sim = blast_sim(200);
            sim.set_budget(RunBudget::events(77));
            sim.run_to_completion();
            (sim.now(), sim.events_processed(), sim.packet_census())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sim_time_budget_caps_the_clock() {
        let mut sim = blast_sim(200);
        sim.set_budget(RunBudget::sim_time(Dur::from_millis(10)));
        let end = sim.run_until(Time::from_secs(5));
        assert_eq!(end, Time::from_millis(10));
        assert_eq!(sim.termination(), Some(BudgetExceeded::SimTime));
        assert!(sim.packet_census().conserved());
    }

    #[test]
    fn sim_time_budget_beyond_the_run_never_fires() {
        // The workload drains long before the cap: no termination, and
        // the result matches the un-budgeted run exactly.
        let mut plain = blast_sim(20);
        plain.run_until(Time::from_secs(2));
        let mut capped = blast_sim(20);
        capped.set_budget(RunBudget::sim_time(Dur::from_secs(60)));
        capped.run_until(Time::from_secs(2));
        assert_eq!(capped.termination(), None);
        assert_eq!(capped.events_processed(), plain.events_processed());
        assert_eq!(capped.now(), plain.now());
    }

    #[test]
    fn unlimited_budget_is_inert() {
        let mut plain = blast_sim(2_000);
        plain.run_to_completion();
        // Long enough to pass the pop loop's amortized wall-clock check
        // (one per 1 024 events) more than once.
        assert!(plain.events_processed() > 2 * 1_024);
        // Unarmed, and armed with limits no run reaches: the second pays
        // every event-count and wall-clock check, and none may fire.
        let mut out_of_reach = RunBudget::events(u64::MAX);
        out_of_reach.max_wall_ms = Some(u64::MAX);
        for budget in [RunBudget::UNLIMITED, out_of_reach] {
            let mut budgeted = blast_sim(2_000);
            budgeted.set_budget(budget);
            budgeted.run_to_completion();
            assert_eq!(budgeted.termination(), None, "{budget:?}");
            assert_eq!(
                budgeted.events_processed(),
                plain.events_processed(),
                "{budget:?}"
            );
            assert_eq!(budgeted.now(), plain.now(), "{budget:?}");
            assert_eq!(
                budgeted.packet_census(),
                plain.packet_census(),
                "{budget:?}"
            );
        }
    }

    #[test]
    fn wall_clock_budget_eventually_stops_a_runaway() {
        // A self-perpetuating timer ping-pong never drains its queue; the
        // watchdog is the only thing that can stop it.
        struct Forever;
        impl Agent for Forever {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(Dur::ZERO, 0);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(Dur::from_nanos(1), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (t, a, _z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(4));
        let mut sim = Simulator::new(t);
        sim.add_agent(a, 1, Box::new(Forever));
        sim.set_budget(RunBudget::wall_ms(10));
        sim.run_to_completion();
        assert_eq!(sim.termination(), Some(BudgetExceeded::WallClock));
        assert!(sim.events_processed() > 0);
    }
}
