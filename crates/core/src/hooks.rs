//! In-simulation session hooks: how senders talk to the shared context.
//!
//! Three levels of sharing, matching the paper's evaluation arms:
//!
//! * [`phi_tcp::hook::NoHook`] — unmodified senders; no sharing at all.
//! * [`PracticalHook`] — the §2.2.2 design: one lookup at connection
//!   start, one report at connection end, against either the run's shared
//!   store or its crash-injected [`HaPlane`]. The utilization the
//!   controller sees between those points is *frozen* at that lookup's
//!   answer (Remy-Phi-practical), and is absent when the lookup got none.
//! * [`IdealOracleHook`] — the idealized arm: every ACK carries the
//!   bottleneck's up-to-the-minute rolling utilization straight from the
//!   simulator (Remy-Phi-ideal / "up-to-the-minute link utilization").
//!
//! For testing the §2.2.2 failure contract there is also [`FaultyHook`],
//! a wrapper that injects context-plane faults (lost lookups and reports,
//! availability flapping) from a forked [`SeedRng`] stream. A sender whose
//! lookup was lost sees no context and no live utilization, so it runs as
//! vanilla TCP for that connection.

use std::sync::{Arc, Mutex};

use phi_sim::engine::Ctx;
use phi_sim::packet::LinkId;
use phi_sim::time::{Dur, Time};
use phi_tcp::hook::{ContextSnapshot, SessionHook};
use phi_tcp::report::FlowReport;
use phi_workload::SeedRng;

use crate::context::{ContextStore, FlowSummary, PathKey};
use crate::crash::HaPlane;

/// A context store shared by the senders of one simulation (single thread).
pub type SharedStore = Arc<Mutex<ContextStore>>;

/// Wrap a store for in-simulation sharing.
pub fn shared(store: ContextStore) -> SharedStore {
    Arc::new(Mutex::new(store))
}

/// Convert a transport-level flow report into the wire-level summary a
/// sender would transmit to the context server.
pub fn summarize(report: &FlowReport) -> FlowSummary {
    FlowSummary {
        bytes: report.bytes,
        duration_ns: report.duration().as_nanos(),
        mean_rtt_ms: report.mean_rtt_ms,
        min_rtt_ms: report.min_rtt.map(|d| d.as_millis_f64()).unwrap_or(0.0),
        retransmits: report.retransmits.min(u64::from(u32::MAX)) as u32,
        timeouts: report.timeouts.min(u64::from(u32::MAX)) as u32,
    }
}

/// Where a [`PracticalHook`] looks up and reports.
enum Plane {
    /// The run's always-up shared store.
    Store(SharedStore),
    /// The replicated plane, which answers nothing while failing over.
    Ha(HaPlane),
}

/// The practical Phi hook (§2.2.2): one lookup when a connection starts,
/// the utilization frozen at that lookup's answer until the connection
/// ends, one report at the end. A lookup the plane does not answer leaves
/// nothing frozen, so the sender runs that connection as vanilla TCP.
pub struct PracticalHook {
    plane: Plane,
    path: PathKey,
    frozen_util: Option<f64>,
}

impl PracticalHook {
    /// A hook for one sender on `path`, backed by `store`.
    pub fn new(store: SharedStore, path: PathKey) -> Self {
        PracticalHook {
            plane: Plane::Store(store),
            path,
            frozen_util: None,
        }
    }

    /// A hook for one sender on `path`, backed by the replicated `plane`.
    pub fn on_ha(plane: HaPlane, path: PathKey) -> Self {
        PracticalHook {
            plane: Plane::Ha(plane),
            path,
            frozen_util: None,
        }
    }
}

impl SessionHook for PracticalHook {
    fn lookup(&mut self, now: Time, _ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        let now_ns = now.as_nanos();
        let answer = match &self.plane {
            Plane::Store(store) => Some(
                store
                    .lock()
                    .expect("context store")
                    .lookup(self.path, now_ns),
            ),
            Plane::Ha(plane) => plane.lookup(self.path, now_ns),
        };
        self.frozen_util = answer.map(|s| s.utilization);
        answer
    }

    fn report(&mut self, report: &FlowReport, ctx: &mut Ctx<'_>) {
        let (now_ns, summary) = (ctx.now().as_nanos(), summarize(report));
        match &self.plane {
            Plane::Store(store) => {
                store
                    .lock()
                    .expect("context store")
                    .report(self.path, now_ns, &summary);
            }
            Plane::Ha(plane) => {
                plane.report(self.path, now_ns, &summary);
            }
        }
        self.frozen_util = None;
    }

    fn live_util(&self, _ctx: &Ctx<'_>) -> Option<f64> {
        // Between lookup and report, knowledge does not refresh: this is
        // precisely the staleness the practical design accepts.
        self.frozen_util
    }
}

/// The ideal oracle: context read straight off the bottleneck link.
pub struct IdealOracleHook {
    bottleneck: LinkId,
    /// Bottleneck rate (to convert queued bytes into milliseconds).
    rate_bps: u64,
    /// Competing-sender hint (the oracle arm doesn't track registrations).
    competing_hint: u32,
}

impl IdealOracleHook {
    /// An oracle reading `bottleneck` (of rate `rate_bps`).
    pub fn new(bottleneck: LinkId, rate_bps: u64, competing_hint: u32) -> Self {
        IdealOracleHook {
            bottleneck,
            rate_bps,
            competing_hint,
        }
    }

    fn snapshot(&self, ctx: &Ctx<'_>) -> ContextSnapshot {
        let queued_bytes = ctx.link_queue_bytes(self.bottleneck) as f64;
        let queue_ms = if self.rate_bps == 0 {
            0.0
        } else {
            queued_bytes * 8.0 / self.rate_bps as f64 * 1e3
        };
        ContextSnapshot {
            utilization: ctx.link_utilization(self.bottleneck),
            queue_ms,
            competing: self.competing_hint,
        }
    }
}

impl SessionHook for IdealOracleHook {
    fn lookup(&mut self, _now: Time, ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        Some(self.snapshot(ctx))
    }

    fn live_util(&self, ctx: &Ctx<'_>) -> Option<f64> {
        Some(ctx.link_utilization(self.bottleneck))
    }
}

/// A square-wave availability schedule: the context plane is reachable
/// for `up`, unreachable for `down`, repeating. Each hook's wave gets a
/// random phase so a fleet of senders doesn't fault in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flap {
    /// How long the plane stays reachable per cycle.
    pub up: Dur,
    /// How long the plane stays unreachable per cycle.
    pub down: Dur,
}

/// What can go wrong with the context plane, and how often.
///
/// All draws come from the [`SeedRng`] stream handed to
/// [`FaultyHook::new`] — a fork that no simulation event consumes — so
/// injecting faults never perturbs workload arrivals or transport
/// behaviour, only the context the senders see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a lookup is dropped outright (times out client-side).
    pub lookup_loss: f64,
    /// Probability a report is dropped (the store never hears it).
    pub report_loss: f64,
    /// Optional availability flapping; while down, every lookup and
    /// report is lost regardless of the probabilities above.
    pub flap: Option<Flap>,
}

impl FaultPlan {
    /// A healthy plane: no faults at all.
    pub fn none() -> Self {
        FaultPlan {
            lookup_loss: 0.0,
            report_loss: 0.0,
            flap: None,
        }
    }

    /// Total outage: every lookup and report is lost.
    pub fn blackout() -> Self {
        FaultPlan {
            lookup_loss: 1.0,
            report_loss: 1.0,
            ..FaultPlan::none()
        }
    }

    /// The plane cycles `up` reachable / `down` unreachable.
    pub fn flapping(up: Dur, down: Dur) -> Self {
        FaultPlan {
            flap: Some(Flap { up, down }),
            ..FaultPlan::none()
        }
    }

    /// Independent loss of lookups and reports with probability `p`.
    pub fn lossy(p: f64) -> Self {
        FaultPlan {
            lookup_loss: p,
            report_loss: p,
            ..FaultPlan::none()
        }
    }
}

/// Counters of injected faults, summed over every hook that holds the same
/// [`SharedFaultCounters`], so a test can assert the faults actually fired.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Lookups attempted.
    pub lookups: u64,
    /// Lookups lost (outage or random loss).
    pub lookups_dropped: u64,
    /// Reports attempted.
    pub reports: u64,
    /// Reports lost.
    pub reports_dropped: u64,
}

/// Fault counters shared by every hook that holds a clone: all senders of
/// a run, and every run of a sweep whose provisioner holds them (see
/// [`crate::provision_cubic_phi_faulty`]). On a multi-worker
/// [`crate::RunPool`] those runs count from several threads at once, so
/// the counters sit behind a lock.
pub type SharedFaultCounters = Arc<Mutex<FaultCounters>>;

/// Fresh counters for one run's [`FaultyHook`]s.
pub fn fault_counters() -> SharedFaultCounters {
    Arc::new(Mutex::new(FaultCounters::default()))
}

/// Injects context-plane faults between a sender and its real hook.
///
/// Wraps any [`SessionHook`] and makes its lookups and reports unreliable
/// per a [`FaultPlan`]: dropped at random, or blacked out by availability
/// flapping. Dropped operations never touch the inner hook (the store
/// never hears them), matching a client whose request timed out. After a
/// dropped lookup the live-utilization feed is empty, whatever the inner
/// hook still holds from an earlier connection.
pub struct FaultyHook<H> {
    inner: H,
    plan: FaultPlan,
    rng: SeedRng,
    /// Phase offset of this hook's flap wave, ns.
    phase_ns: u64,
    counters: SharedFaultCounters,
    /// The current connection's lookup was dropped.
    lookup_dropped: bool,
}

impl<H: SessionHook> FaultyHook<H> {
    /// Wrap `inner` with faults from `plan`, drawing from `rng` (fork it
    /// per sender, e.g. `ctx.rng.fork("faults")`, so fault draws never
    /// shift workload streams).
    pub fn new(inner: H, plan: FaultPlan, rng: SeedRng, counters: SharedFaultCounters) -> Self {
        let mut rng = rng;
        let phase_ns = match plan.flap {
            Some(f) => {
                let period = f.up.as_nanos().saturating_add(f.down.as_nanos()).max(1);
                rng.range_u64(0, period)
            }
            None => 0,
        };
        FaultyHook {
            inner,
            plan,
            rng,
            phase_ns,
            counters,
            lookup_dropped: false,
        }
    }

    /// Whether the flap schedule has the plane unreachable at `now`.
    fn plane_down(&self, now: Time) -> bool {
        match self.plan.flap {
            Some(f) => {
                let period = f.up.as_nanos().saturating_add(f.down.as_nanos());
                if period == 0 {
                    return false;
                }
                let pos = (now.as_nanos().wrapping_add(self.phase_ns)) % period;
                pos >= f.up.as_nanos()
            }
            None => false,
        }
    }
}

impl<H: SessionHook> SessionHook for FaultyHook<H> {
    fn lookup(&mut self, now: Time, ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        self.counters.lock().expect("fault counters").lookups += 1;
        self.lookup_dropped = self.plane_down(now) || self.rng.chance(self.plan.lookup_loss);
        if self.lookup_dropped {
            self.counters
                .lock()
                .expect("fault counters")
                .lookups_dropped += 1;
            return None;
        }
        self.inner.lookup(now, ctx)
    }

    fn report(&mut self, report: &FlowReport, ctx: &mut Ctx<'_>) {
        self.counters.lock().expect("fault counters").reports += 1;
        if self.plane_down(ctx.now()) || self.rng.chance(self.plan.report_loss) {
            self.counters
                .lock()
                .expect("fault counters")
                .reports_dropped += 1;
            return;
        }
        self.inner.report(report, ctx);
    }

    fn live_util(&self, ctx: &Ctx<'_>) -> Option<f64> {
        if self.lookup_dropped {
            None
        } else {
            self.inner.live_util(ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::StoreConfig;
    use phi_sim::engine::{Agent, Simulator};
    use phi_sim::packet::{FlowId, Packet};
    use phi_sim::time::Dur;
    use phi_sim::topology::TopologyBuilder;
    use std::any::Any;

    #[test]
    fn summarize_converts_units() {
        let r = FlowReport {
            flow: FlowId(1),
            bytes: 123_456,
            segments: 86,
            start: Time::from_secs(1),
            end: Time::from_secs(3),
            min_rtt: Some(Dur::from_millis(150)),
            mean_rtt_ms: 163.5,
            rtt_samples: 42,
            retransmits: 3,
            timeouts: 1,
            recoveries: 2,
            aborted: false,
            idle_restarts: 0,
        };
        let s = summarize(&r);
        assert_eq!(s.bytes, 123_456);
        assert_eq!(s.duration_ns, 2_000_000_000);
        assert!((s.min_rtt_ms - 150.0).abs() < 1e-9);
        assert!((s.mean_rtt_ms - 163.5).abs() < 1e-9);
        assert_eq!(s.retransmits, 3);
        assert_eq!(s.timeouts, 1);
    }

    /// A one-segment flow that never sampled an RTT.
    fn tiny_report() -> FlowReport {
        FlowReport {
            flow: FlowId(1),
            bytes: 10,
            segments: 1,
            start: Time::ZERO,
            end: Time::from_millis(1),
            min_rtt: None,
            mean_rtt_ms: 0.0,
            rtt_samples: 0,
            retransmits: 0,
            timeouts: 0,
            recoveries: 0,
            aborted: false,
            idle_restarts: 0,
        }
    }

    #[test]
    fn summarize_handles_missing_min_rtt() {
        assert_eq!(summarize(&tiny_report()).min_rtt_ms, 0.0);
    }

    /// Counts what reaches it; answers every lookup with `UTIL`, and its
    /// live feed always reads `UTIL`, as a frozen value never cleared would.
    #[derive(Default)]
    struct CountingHook {
        lookups: u64,
        reports: u64,
    }

    const UTIL: f64 = 0.25;

    impl SessionHook for CountingHook {
        fn lookup(&mut self, _now: Time, _ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
            self.lookups += 1;
            Some(ContextSnapshot {
                utilization: UTIL,
                queue_ms: 0.0,
                competing: 0,
            })
        }

        fn report(&mut self, _report: &FlowReport, _ctx: &mut Ctx<'_>) {
            self.reports += 1;
        }

        fn live_util(&self, _ctx: &Ctx<'_>) -> Option<f64> {
            Some(UTIL)
        }
    }

    /// Drives `OPS` lookups and `OPS` reports through a faulty hook (a
    /// `Ctx` only exists inside a running simulator).
    struct Driver {
        hook: FaultyHook<CountingHook>,
        answered: u64,
        live_util_follows: bool,
    }

    const OPS: u64 = 2_000;

    impl Agent for Driver {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let report = tiny_report();
            for _ in 0..OPS {
                let answer = self.hook.lookup(ctx.now(), ctx);
                self.answered += u64::from(answer.is_some());
                self.hook.report(&report, ctx);
                self.live_util_follows &= self.hook.live_util(ctx) == answer.map(|s| s.utilization);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// What `plan` did to `OPS` lookups and reports: the shared counters,
    /// then what the inner hook saw.
    fn drive(plan: FaultPlan) -> (FaultCounters, u64, u64) {
        let mut topo = TopologyBuilder::new();
        let node = topo.add_node();
        let mut sim = Simulator::new(topo.build());
        let counters = fault_counters();
        let id = sim.add_agent(
            node,
            1,
            Box::new(Driver {
                hook: FaultyHook::new(
                    CountingHook::default(),
                    plan,
                    SeedRng::new(7).fork("faults"),
                    counters.clone(),
                ),
                answered: 0,
                live_util_follows: true,
            }),
        );
        sim.run_until(Time::from_millis(1));
        let driver = sim.agent_as::<Driver>(id).expect("driver agent");
        let inner = &driver.hook.inner;
        assert_eq!(
            driver.answered, inner.lookups,
            "an answer the inner hook did not give"
        );
        assert!(
            driver.live_util_follows,
            "live_util is not the current lookup's answer"
        );
        let c = *counters.lock().expect("fault counters");
        (c, inner.lookups, inner.reports)
    }

    #[test]
    fn lossy_drops_about_p_and_dropped_operations_never_reach_the_inner_hook() {
        let (c, inner_lookups, inner_reports) = drive(FaultPlan::lossy(0.5));
        assert_eq!((c.lookups, c.reports), (OPS, OPS));
        for dropped in [c.lookups_dropped, c.reports_dropped] {
            assert!(
                (OPS * 2 / 5..=OPS * 3 / 5).contains(&dropped),
                "lossy(0.5) dropped {dropped} of {OPS}: {c:?}"
            );
        }
        assert_eq!(inner_lookups, OPS - c.lookups_dropped);
        assert_eq!(inner_reports, OPS - c.reports_dropped);

        let (c, inner_lookups, inner_reports) = drive(FaultPlan::none());
        assert_eq!((c.lookups_dropped, c.reports_dropped), (0, 0));
        assert_eq!((inner_lookups, inner_reports), (OPS, OPS));
    }

    #[test]
    fn shared_store_is_shared() {
        let store = shared(ContextStore::new(StoreConfig::default()));
        let a = PracticalHook::new(store.clone(), PathKey(1));
        let b = PracticalHook::new(store.clone(), PathKey(1));
        // Both hooks point at the same underlying store.
        store.lock().expect("context store").lookup(PathKey(1), 1);
        assert_eq!(
            store
                .lock()
                .expect("context store")
                .traffic_counters(PathKey(1))
                .0,
            1
        );
        drop((a, b));
    }
}
