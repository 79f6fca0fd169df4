//! The discrete-event simulation engine: the event loop, agent dispatch
//! and timers.
//!
//! Execution model:
//!
//! * A single event queue ordered by `(time, sequence)` — the sequence
//!   number makes simultaneous events fire in scheduling order, so runs
//!   are fully deterministic. The queue is a [`TieredScheduler`]: a
//!   bucketed calendar for the dense near-future band of Deliver and
//!   timer events with a binary-heap overflow for far-future events,
//!   popping in exactly the same total order a plain heap would.
//! * **Links** do all store-and-forward work on a lazy clock: a packet's
//!   crossing is settled when it starts serializing, and a frame's end is
//!   no event: the run loop steps to it when a packet waits behind it
//!   (`link.rs`, with the fault plane's link edges). PFC pause frames and
//!   the watchdog's drain are in `pfc.rs`, beside the switch model; the
//!   packet census, the scheduler's counters and the run budget in
//!   `census.rs`.
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
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

use phi_workload::SeedRng;

pub use crate::census::{BudgetExceeded, PacketCensus, RunBudget, SchedStats};
use crate::faults::{FaultStats, ImpairmentPlan, LinkFault};
use crate::link::LinkState;
use crate::packet::{AgentId, Flags, FlowId, LinkId, NodeId, Packet, SackBlocks};
use crate::queue::{LinkQueue, PacketPool, PktRef};
use crate::sched::TieredScheduler;
use crate::stats::{LinkStats, RollingUtil};
use crate::switch::{SwitchSpec, SwitchState, SwitchStats};
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
pub(crate) enum Event {
    /// A packet reached the far end of `via`, the link it travelled
    /// (which is also its switch ingress attribution).
    Deliver { pkt: PktRef, via: LinkId },
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

/// Sentinel for "no agent bound" in the dense per-node port tables.
const NO_AGENT: AgentId = AgentId(u32::MAX);

/// Sentinel ingress for packets injected by a local agent (no inbound
/// link to attribute PFC accounting to). Never stored in an event.
const NO_LINK: LinkId = LinkId(u32::MAX);

/// Everything the engine owns except the agents themselves. Splitting this
/// out lets [`Ctx`] hold `&mut SimCore` while an agent (removed from the
/// agent table for the duration of its callback) runs.
pub(crate) struct SimCore {
    pub(crate) now: Time,
    pub(crate) queue: TieredScheduler<Event>,
    timers: TimerSlab,
    /// Every packet not yet in a terminal state; see [`PacketPool`].
    pub(crate) pool: PacketPool,
    pub(crate) topology: Topology,
    pub(crate) links: Vec<LinkState>,
    /// `(tx_end, link)` of each frame with packets waiting behind it, no
    /// event: `run_until` steps here, see [`SimCore::end_frames`].
    pub(crate) ending: BinaryHeap<Reverse<(Time, LinkId)>>,
    /// Shared-buffer switch state, indexed by node; `None` for hosts and
    /// plain (per-link-island) routers.
    pub(crate) switches: Vec<Option<Box<SwitchState>>>,
    /// Dense dispatch tables: `ports[node][port]` is the bound agent (or
    /// [`NO_AGENT`]). Replaces a per-delivery `HashMap<(NodeId, u16), _>`
    /// lookup with two array indexes; ports in use are small (well under
    /// 100), so the tables stay tiny.
    ports: Vec<Vec<AgentId>>,
    agent_nodes: Vec<NodeId>,
    /// Packets injected via [`Ctx::send`] so far; doubles as the next
    /// packet id.
    pub(crate) next_packet_id: u64,
    /// Packets that arrived for a (node, port) with no agent bound.
    pub(crate) undeliverable: u64,
    /// Packets consumed by a bound agent at their destination.
    pub(crate) delivered: u64,
    /// Events dispatched (stale timers are skipped, not fired).
    pub(crate) events_fired: u64,
    /// Timer events discarded at pop time because their generation no
    /// longer matched (cancelled or superseded).
    pub(crate) skipped_stale: u64,
    /// Successful [`Ctx::cancel_timer`] calls.
    pub(crate) cancelled: u64,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    /// Resource budget; [`RunBudget::UNLIMITED`] until one is installed.
    pub(crate) budget: RunBudget,
    /// Set once the budget fires; the run stops dispatching and reports
    /// the reason through [`Simulator::termination`].
    pub(crate) terminated: Option<BudgetExceeded>,
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
    pub(crate) fn trace(
        &mut self,
        op: TraceOp,
        link: Option<LinkId>,
        node: Option<NodeId>,
        h: PktRef,
    ) {
        if let Some(t) = self.tracer.as_mut() {
            t.event(&TraceEvent::new(self.now, op, link, node, &self.pool[h]));
        }
    }

    pub(crate) fn schedule(&mut self, at: Time, event: Event) {
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
    pub(crate) core: SimCore,
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
            .map(|(idx, spec)| {
                let queue = factory(LinkId(idx as u32), spec);
                LinkState::new(queue, RollingUtil::new(UTIL_WINDOW))
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
                ending: BinaryHeap::new(),
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
        !self.core.links[link.0 as usize].is_down()
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

    /// Square the links up on the way out of `run_until`: move the clock
    /// to `upto` (so utilization denominators cover the span the run
    /// reached) and count every serialization that ended by then.
    fn square_up(&mut self, upto: Time) {
        if self.core.now < upto && upto != Time::MAX {
            self.core.now = upto;
        }
        let now = self.core.now;
        for ls in &mut self.core.links {
            ls.settle(now);
            let held = ls.wake || ls.pause.paused || ls.is_down();
            debug_assert!(held || ls.queue.len_packets() == 0, "stalled backlog");
        }
    }

    /// Run until the event queue and the frame ends drain or `deadline`
    /// passes, whichever is first. Returns the time the run stopped.
    ///
    /// With a [`RunBudget`] installed the run may also stop early; the
    /// reason is readable from [`Simulator::termination`] and the clock is
    /// only squared up over the span actually covered. The limit check
    /// follows every dispatch and never reorders one, so the events run
    /// (and every digest derived from them) cannot depend on whether a
    /// budget is installed.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        if !self.started {
            self.started = true;
            for i in 0..self.agents.len() {
                self.with_agent(AgentId(i as u32), |agent, ctx| agent.start(ctx));
            }
        }
        if self.core.terminated.is_some() {
            return self.core.now;
        }
        let max_events = self.core.budget.max_events;
        loop {
            // Step to the first frame end, unless an event comes no later.
            let end = self.core.ending.peek().map(|e| e.0 .0);
            let end = end.filter(|&t| t <= deadline);
            let popped = self.core.queue.pop_if(end.unwrap_or(deadline));
            let Some(at) = popped.as_ref().map(|p| p.0).or(end) else {
                break;
            };
            self.core.now = at;
            // Frames ending now hand their links on first; edges outrank them.
            if !matches!(popped, Some((_, Event::FaultEdge { .. }))) {
                self.core.end_frames();
            }
            let Some((_, event)) = popped else { continue };
            self.dispatch(event);
            // The run stops mid-flight; advancing the clock further would
            // count unsimulated span into utilization.
            if max_events.is_some_and(|max| self.core.events_fired >= max) {
                self.core.terminated = Some(BudgetExceeded::Events);
                break;
            }
        }
        let reached = self.core.terminated.is_none();
        self.square_up(if reached { deadline } else { self.core.now });
        self.core.now
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) -> Time {
        self.run_until(Time::MAX)
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
    use crate::faults::{DownPolicy, EgressVerdict};
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
        assert_eq!(sim.packet_census().undeliverable, 3);
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
        // it, its end on `ending`. The link fails at 4 ms: the drain takes
        // the two, the frame on the wire was lost when it started, and the
        // frame end finds an empty queue.
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

    /// Sends frame `i` (seq `i`, 1000 bytes) at `sends[i].0`, by a timer
    /// set at `sends[i].1`, or at start.
    struct Script {
        peer: NodeId,
        sends: Vec<(Time, Option<Time>)>,
    }

    impl Agent for Script {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            // Frame `i` is sent on token `2i`; token `2i + 1` sets its timer.
            for (i, &(at, set_at)) in self.sends.iter().enumerate() {
                match set_at {
                    Some(set_at) => ctx.set_timer_at(set_at, 2 * i as u64 + 1),
                    None => ctx.set_timer_at(at, 2 * i as u64),
                };
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            if token % 2 == 1 {
                ctx.set_timer_at(self.sends[token as usize / 2].0, token - 1);
                return;
            }
            let mut p = packet_to(self.peer, 2, 1, FlowId(1), 1000);
            p.seq = token / 2;
            ctx.send(p);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_frame_end_goes_first_however_its_wake_was_scheduled() {
        // A frame takes 1 ms and the queue holds two. Frame 4 is sent at
        // 2 ms, as a frame ends with the queue full behind it, by a timer
        // set at 1.25 ms.
        let us = Time::from_micros;
        let run = |mut sends: Vec<(Time, Option<Time>)>| {
            sends.push((us(2000), Some(us(1250))));
            let (t, a, z) = two_nodes(8_000_000, Dur::from_millis(1), Capacity::Packets(2));
            let mut sim = Simulator::new(t);
            sim.add_agent(a, 1, Box::new(Script { peer: z, sends }));
            let sink = sim.add_agent(z, 2, Box::<Sink>::default());
            sim.run_to_completion();
            let got = &sim.agent_as::<Sink>(sink).unwrap().received;
            got.iter().find(|&&(seq, _)| seq == 4).map(|&(_, at)| at)
        };
        // The frame of 1–2 ms starts with frame 2 behind it, so `begin_tx`
        // puts its end on `ending` at 1 ms, before the timer is set.
        let behind = run(vec![
            (us(0), None),
            (us(0), None),
            (us(0), None),
            (us(1500), None),
        ]);
        // It starts alone, and the first of frames 2 and 3, queueing at
        // 1.5 ms, puts its end on `ending`, after the timer was set.
        let alone = run(vec![
            (us(0), None),
            (us(1000), None),
            (us(1500), None),
            (us(1500), None),
        ]);
        // Either way frame 2 starts at 2 ms and frame 4 queues behind
        // frame 3: on the wire over 4–5 ms, delivered at 6 ms.
        assert_eq!(behind, Some(us(6000)));
        assert_eq!(alone, behind);
    }

    type Trace = std::rc::Rc<std::cell::RefCell<Vec<TraceEvent>>>;

    /// `count` 1000-byte frames sent at 0 over a 1 Mbit/s link (8 ms a
    /// frame, 2 ms propagation), traced.
    fn backlog(count: u32) -> (Simulator, AgentId, Trace) {
        let (t, a, z) = two_nodes(1_000_000, Dur::from_millis(2), Capacity::Packets(100));
        let mut sim = Simulator::new(t);
        sim.add_agent(
            a,
            1,
            Box::new(Bursts {
                peer: z,
                bursts: vec![(Time::ZERO, count)],
            }),
        );
        let sink = sim.add_agent(z, 2, Box::<Sink>::default());
        let (tracer, trace) = crate::trace::SharedTraceCollector::new();
        sim.set_tracer(tracer);
        (sim, sink, trace)
    }

    fn transmits(trace: &Trace) -> usize {
        let trace = trace.borrow();
        trace.iter().filter(|e| e.op == TraceOp::Transmit).count()
    }

    #[test]
    fn a_frame_end_schedules_nothing() {
        let (mut sim, sink, _) = backlog(10);
        sim.run_to_completion();
        // One timer and ten `Deliver`s; the nine frame ends with a frame
        // waiting behind them are no events.
        let s = sim.sched_stats();
        assert_eq!((s.scheduled, s.fired, s.pending), (11, 11, 0), "{s:?}");
        let tx = Dur::from_millis(8);
        let want: Vec<(u64, Time)> = (1..=10u32)
            .map(|k| (0, Time::ZERO + tx * u64::from(k) + Dur::from_millis(2)))
            .collect();
        assert_eq!(sim.agent_as::<Sink>(sink).unwrap().received, want);
    }

    #[test]
    fn a_run_to_a_frame_end_starts_the_next_frame() {
        let started = |sim: &Simulator, trace: &Trace| {
            (transmits(trace), sim.core.links[0].queue.len_packets())
        };
        let end = Time::from_millis(8);
        let (mut sim, _, trace) = backlog(3);
        sim.run_until(end - Dur::from_nanos(1));
        assert_eq!(started(&sim, &trace), (1, 2));
        assert_eq!(sim.link_stats(LinkId(0)).transmitted, 0);
        sim.run_until(end);
        assert_eq!(sim.now(), end);
        assert_eq!(started(&sim, &trace), (2, 1));
        assert_eq!(sim.link_stats(LinkId(0)).transmitted, 1);
        // The same from a fresh run straight to the frame end.
        let (mut sim, _, trace) = backlog(3);
        sim.run_until(end);
        assert_eq!(started(&sim, &trace), (2, 1));
    }

    #[test]
    fn an_event_budget_counts_no_frame_end() {
        // The timer at 0, then deliveries at 10, 18 and 26 ms: four
        // events, with the frame ends of 8, 16 and 24 ms between them.
        let (mut sim, sink, trace) = backlog(10);
        sim.set_budget(RunBudget::events(4));
        assert_eq!(sim.run_to_completion(), Time::from_millis(26));
        assert_eq!(sim.termination(), Some(BudgetExceeded::Events));
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.agent_as::<Sink>(sink).unwrap().received.len(), 3);
        // Frames started at 0, 8, 16 and 24 ms; three of them ended.
        assert_eq!(transmits(&trace), 4);
        assert_eq!(sim.link_stats(LinkId(0)).transmitted, 3);
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
    fn unlimited_budget_is_inert() {
        let mut plain = blast_sim(2_000);
        plain.run_to_completion();
        // Unarmed, and armed with a limit no run reaches: the second pays
        // the event-count check after every dispatch, and it may not fire.
        for budget in [RunBudget::UNLIMITED, RunBudget::events(u64::MAX)] {
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
    fn an_event_budget_stops_a_runaway_on_the_same_event_every_run() {
        // A self-perpetuating timer chain never drains its queue; the
        // event cap stops it, one simulated nanosecond per event.
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
        let run = || {
            let (t, a, _z) = two_nodes(1_000_000, Dur::from_millis(1), Capacity::Packets(4));
            let mut sim = Simulator::new(t);
            sim.add_agent(a, 1, Box::new(Forever));
            sim.set_budget(RunBudget::events(10_000));
            let end = sim.run_to_completion();
            assert_eq!(sim.termination(), Some(BudgetExceeded::Events));
            (end, sim.events_processed(), sim.sched_stats())
        };
        let first = run();
        assert_eq!((first.0, first.1), (Time::from_nanos(9_999), 10_000));
        assert_eq!(first.2.pending, 1, "{:?}", first.2);
        assert_eq!(run(), first);
    }
}
