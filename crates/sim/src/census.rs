//! What a run counts and what may stop it: the packet census, the
//! scheduler's counters, and the run budget.

use serde::Serialize;

use crate::engine::{Event, Simulator};

/// Where every packet the simulation ever created currently is.
///
/// Taken with [`Simulator::packet_census`]. A packet is *injected* when an
/// agent calls [`crate::engine::Ctx::send`] (or *duplicated* into
/// existence by the fault plane); from then on it is in exactly one
/// terminal or transient state, so [`PacketCensus::conserved`] must hold
/// at every instant — it is the engine's bookkeeping invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCensus {
    /// Packets created via [`crate::engine::Ctx::send`].
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
    /// Successful [`crate::engine::Ctx::cancel_timer`] calls (each later
    /// surfaces as one `skipped_stale` pop).
    pub cancelled: u64,
    /// Events that took the far-future overflow heap at push time rather
    /// than the near-future calendar.
    pub overflowed: u64,
    /// High-water mark of pending events.
    pub peak_pending: u64,
    /// Events currently pending.
    pub pending: u64,
}

impl SchedStats {
    /// The scheduler's conservation invariant:
    /// `scheduled == fired + skipped_stale + pending`.
    pub fn conserved(&self) -> bool {
        self.scheduled == self.fired + self.skipped_stale + self.pending
    }
}

/// Resource budget for one run, enforced in the engine's pop loop. The
/// default budget is unlimited and arms no check, so runs without a
/// budget replay bit-for-bit against their historical digests.
///
/// A run that hits the limit stops *gracefully*: agents keep their state,
/// statistics and censuses stay conserved, and the caller reads the
/// reason from [`Simulator::termination`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RunBudget {
    /// Stop after this many dispatched events (stale-timer skips and frame
    /// ends, which are no events, do not count). Deterministic for a fixed
    /// engine configuration: the same run always stops on the same event.
    pub max_events: Option<u64>,
}

impl RunBudget {
    /// The budget that never binds (the default).
    pub const UNLIMITED: RunBudget = RunBudget { max_events: None };

    /// A budget limited by dispatched-event count.
    pub fn events(max: u64) -> Self {
        RunBudget {
            max_events: Some(max),
        }
    }
}

/// Why a budgeted run terminated early (see [`RunBudget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// [`RunBudget::max_events`] was reached.
    Events,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetExceeded::Events => "event budget exceeded",
        })
    }
}

impl Simulator {
    /// Scheduler-level accounting: how events moved through the tiered
    /// queue. The conservation identity
    /// `scheduled == fired + skipped_stale + pending`
    /// holds at every instant.
    pub fn sched_stats(&self) -> SchedStats {
        let core = &self.core;
        let c = core.queue.counters();
        SchedStats {
            scheduled: c.scheduled,
            fired: core.events_fired,
            skipped_stale: core.skipped_stale,
            cancelled: core.cancelled,
            overflowed: c.overflowed,
            peak_pending: c.peak_pending,
            pending: core.queue.len() as u64,
        }
    }

    /// A point-in-time census of every packet the simulation created.
    ///
    /// The conservation invariant — every injected packet is in exactly
    /// one place — holds at any instant, mid-run or after completion:
    /// see [`PacketCensus::conserved`].
    pub fn packet_census(&self) -> PacketCensus {
        let core = &self.core;
        let mut in_flight = 0u64;
        for event in core.queue.iter() {
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
        for ls in &core.links {
            queued += ls.queue.len_packets() as u64;
            dropped += ls.stats.dropped;
            paused_ns += ls.pause.paused_ns(core.now);
            if let Some(f) = ls.fault.as_deref() {
                corrupted += f.stats.corrupted;
                duplicated += f.stats.duplicated;
                blackholed += f.stats.blackholed;
            }
        }
        let mut ecn_marked = 0u64;
        let mut pfc_dropped = 0u64;
        for sw in core.switches.iter().flatten() {
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
            injected: core.next_packet_id,
            delivered: core.delivered,
            dropped,
            undeliverable: core.undeliverable,
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

    /// Install a resource [`RunBudget`] enforced from the next pump on.
    /// Installing the unlimited budget is equivalent to never calling
    /// this. Replaces any previously installed budget.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.core.budget = budget;
    }

    /// Why the run terminated early, if a [`RunBudget`] limit fired.
    /// `None` means no budget bound (the run completed or is still
    /// resumable).
    pub fn termination(&self) -> Option<BudgetExceeded> {
        self.core.terminated
    }
}
