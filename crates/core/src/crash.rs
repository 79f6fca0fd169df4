//! Deterministic server-crash injection for the in-sim context plane.
//!
//! [`crate::hooks::FaultyHook`] makes the *network between* a sender and
//! the context server unreliable; this module crashes the **server
//! itself**. [`HaPlane`] runs the replica state machine of
//! [`crate::server`] on simulated time — a primary, and a backup that
//! applies each delta `repl_lag` after it — and a seeded
//! [`ServerCrashPlan`] decides *when* the primary dies.
//!
//! All randomness comes from a forked [`SeedRng`] stream that no
//! simulation event consumes, and every crash window is materialized up
//! front, so a crash run replays bit-for-bit under any `PHI_JOBS` worker
//! count — the same discipline as [`crate::hooks::FaultPlan`] and
//! `phi_sim::faults::ImpairmentPlan`.
//!
//! During the failover window after a crash no replica answers: lookups
//! and reports are dropped, and a sender's
//! [`crate::hooks::PracticalHook`] freezes no context for that
//! connection, so it runs as vanilla TCP exactly as the §2.2.2 contract
//! requires. Deltas the backup had not
//! yet received when the primary died are **lost** — that is the real
//! cost of asynchronous replication, and [`CrashCounters::ops_lost`]
//! makes it observable. A restarted replica, or a backup more than the
//! log's 4 096 entries behind, is resynced by snapshot — and, as on the
//! wire, not while that snapshot would exceed one frame.

use std::cell::RefCell;
use std::rc::Rc;

use phi_sim::time::Dur;
use phi_tcp::hook::ContextSnapshot;
use phi_workload::{fnv1a, SeedRng};
use serde::{Deserialize, Serialize};

use crate::context::{ContextStore, FlowSummary, PathKey, StoreConfig};
use crate::replica::Replica;
use crate::wire::{Message, ReplOp, Role};

/// A repeating crash/restart cycle (the server-side analogue of
/// [`crate::hooks::Flap`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashFlap {
    /// When the first crash hits.
    pub first: Dur,
    /// How long the crashed replica stays down each cycle.
    pub down: Dur,
    /// Healthy time between a restart and the next crash.
    pub up: Dur,
    /// Number of crash cycles.
    pub cycles: u32,
    /// Fraction of `up` by which each cycle's start is randomly shifted
    /// (seeded draw; `0.0` = perfectly periodic).
    pub jitter: f64,
}

/// When the primary context server crashes (and restarts), scripted
/// and/or seeded — mirroring [`crate::hooks::FaultPlan`] /
/// `ImpairmentPlan`: declarative, serializable, deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerCrashPlan {
    /// Scripted outages: `(crash_at, down_for)`. The crashed replica
    /// restarts (as the new backup) `down_for` after the crash.
    pub outages: Vec<(Dur, Dur)>,
    /// Optional repeated crash/restart flapping.
    pub flap: Option<CrashFlap>,
}

impl ServerCrashPlan {
    /// No crashes: the plane behaves exactly like a healthy
    /// [`crate::hooks::PracticalHook`] store.
    pub fn none() -> Self {
        ServerCrashPlan {
            outages: Vec::new(),
            flap: None,
        }
    }

    /// Crash at `at` and never restart the crashed replica.
    pub fn crash_at(at: Dur) -> Self {
        ServerCrashPlan {
            outages: vec![(at, Dur::from_secs(u64::MAX / 2_000_000_000))],
            flap: None,
        }
    }

    /// Crash at `at`; the crashed replica restarts `down_for` later and
    /// rejoins as the backup (resynced from the new primary).
    pub fn crash_restart(at: Dur, down_for: Dur) -> Self {
        ServerCrashPlan {
            outages: vec![(at, down_for)],
            flap: None,
        }
    }

    /// Repeated crashes: first at `first`, each down `down`, healthy
    /// `up` between, `cycles` times, starts jittered by `jitter * up`.
    pub fn flapping(first: Dur, down: Dur, up: Dur, cycles: u32, jitter: f64) -> Self {
        ServerCrashPlan {
            outages: Vec::new(),
            flap: Some(CrashFlap {
                first,
                down,
                up,
                cycles,
                jitter,
            }),
        }
    }

    /// Expand the plan into sorted, merged, horizon-clipped outage
    /// windows `(crash_ns, restart_ns)`. Draw order is fixed (one draw
    /// per flap cycle), so the same plan + seed always yields the same
    /// windows no matter who else uses the parent RNG.
    pub fn materialize(&self, rng: &mut SeedRng, horizon: Dur) -> Vec<(u64, u64)> {
        let mut windows: Vec<(u64, u64)> = self
            .outages
            .iter()
            .map(|&(at, down)| {
                let s = at.as_nanos();
                (s, s.saturating_add(down.as_nanos()))
            })
            .collect();
        if let Some(f) = self.flap {
            let span = ((f.up.as_nanos() as f64) * f.jitter.clamp(0.0, 1.0)) as u64;
            let mut t = f.first.as_nanos();
            for _ in 0..f.cycles {
                let off = rng.range_u64(0, span.max(1));
                let start = t.saturating_add(off);
                windows.push((start, start.saturating_add(f.down.as_nanos())));
                t = start
                    .saturating_add(f.down.as_nanos())
                    .saturating_add(f.up.as_nanos());
            }
        }
        windows.sort_unstable();
        // Merge overlaps so one failover fires per outage period.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            if s >= horizon.as_nanos() {
                continue;
            }
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }
}

/// How the in-sim replicated plane behaves around crashes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HaSpec {
    /// When the primary dies.
    pub plan: ServerCrashPlan,
    /// Replication lag: a primary mutation reaches the backup this much
    /// later. Mutations younger than this at crash time are lost.
    pub repl_lag: Dur,
    /// Detection + promotion time: after a crash, no replica answers for
    /// this long (senders degrade to no context).
    pub failover_delay: Dur,
}

impl HaSpec {
    /// A healthy replicated plane that never crashes.
    pub fn none() -> Self {
        HaSpec {
            plan: ServerCrashPlan::none(),
            repl_lag: Dur::from_millis(50),
            failover_delay: Dur::from_millis(200),
        }
    }
}

/// What happened to the crashed-and-failed-over plane, for assertions
/// and run fingerprints.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashCounters {
    /// Primary crashes executed.
    pub crashes: u64,
    /// Failovers (backup promotions) — equals `crashes` in a 2-replica
    /// plane.
    pub failovers: u64,
    /// Lookups attempted against the plane.
    pub lookups: u64,
    /// Lookups dropped in a failover window.
    pub lookups_dropped: u64,
    /// Reports attempted.
    pub reports: u64,
    /// Reports dropped in a failover window.
    pub reports_dropped: u64,
    /// Replicated mutations lost because the primary died before the
    /// replication lag elapsed.
    pub ops_lost: u64,
}

#[derive(Debug)]
struct PlaneState {
    /// The one shard's primary, then its backup.
    replicas: [Replica; 2],
    /// The primary's log position the backup has applied; `None` while
    /// it has no baseline (restarted, awaiting its snapshot).
    acked: Option<u64>,
    /// Materialized `(crash_ns, restart_ns)` windows, sorted.
    windows: Vec<(u64, u64)>,
    next_window: usize,
    /// No replica answers before this time (failover in progress).
    down_until: u64,
    /// The crashed replica rejoins as backup at this time.
    resync_at: Option<u64>,
    lag_ns: u64,
    failover_ns: u64,
    counters: CrashCounters,
}

impl PlaneState {
    /// Deliver what the backup is due by `now`: each delta once
    /// `repl_lag` has passed since the primary applied it, and a
    /// snapshot whenever the backup has no baseline or fell behind the
    /// log (nothing while it is down).
    fn replicate(&mut self, now: u64) {
        if self.resync_at.is_some() {
            return;
        }
        let [primary, backup] = &mut self.replicas;
        while let Ok(Some((msg, seq))) = primary.next_frame(0, self.acked) {
            if let Message::Replicate {
                op: ReplOp::Lookup { now_ns, .. } | ReplOp::Report { now_ns, .. },
                ..
            } = msg
            {
                if now_ns.saturating_add(self.lag_ns) > now {
                    break;
                }
            }
            backup.serve(now, &msg);
            self.acked = Some(seq);
        }
        if let Some(acked) = self.acked {
            primary.prune(acked);
        }
    }

    /// Advance the plane's clock: finish due restarts, execute due
    /// crashes, and ship due replication.
    fn roll(&mut self, now: u64) {
        loop {
            // The earliest due event wins; loop until nothing is due.
            let resync_due = self.resync_at.filter(|&t| t <= now);
            let crash_due = self
                .windows
                .get(self.next_window)
                .filter(|&&(s, _)| s <= now)
                .copied();
            match (resync_due, crash_due) {
                (Some(r), crash) if crash.is_none_or(|(s, _)| r <= s) => self.resync_at = None,
                (_, Some((s, e))) => self.crash(s, e),
                _ => break, // nothing is due
            }
        }
        self.replicate(now);
    }

    /// The primary dies at `s` and will restart at `e`.
    fn crash(&mut self, s: u64, e: u64) {
        self.next_window += 1;
        self.counters.crashes += 1;
        // Deltas whose lag elapsed before the crash made it to the
        // backup; the younger ones die with the primary.
        self.replicate(s);
        let [primary, backup] = &mut self.replicas;
        self.counters.ops_lost += primary.unacked(self.acked);
        // The dead replica comes back as a backup, resynced from a
        // snapshot when it restarts; the backup takes over at epoch+1
        // once the failover window passes.
        let epoch = primary.epoch();
        primary.demote(epoch);
        backup.promote(epoch + 1);
        self.replicas.swap(0, 1);
        self.acked = None;
        self.counters.failovers += 1;
        self.down_until = self.down_until.max(s.saturating_add(self.failover_ns));
        self.resync_at = Some(e);
    }
}

/// The in-sim replicated context plane: the oracle-hook counterpart of
/// the real primary/backup [`crate::server::ContextServer`] pair.
///
/// Cheap to clone (shared interior), single-threaded — create one per
/// run and hand clones to each sender's
/// [`crate::hooks::PracticalHook::on_ha`].
#[derive(Debug, Clone)]
pub struct HaPlane {
    state: Rc<RefCell<PlaneState>>,
}

impl HaPlane {
    /// A plane whose two replicas start empty with `cfg`, crashing per
    /// `spec` over `horizon`. `rng` must be a dedicated fork (e.g.
    /// `root.fork("server-crash")`) so crash draws never shift workload
    /// or transport streams.
    pub fn new(cfg: StoreConfig, spec: &HaSpec, mut rng: SeedRng, horizon: Dur) -> Self {
        let windows = spec.plan.materialize(&mut rng, horizon);
        HaPlane {
            state: Rc::new(RefCell::new(PlaneState {
                replicas: [
                    Replica::new(ContextStore::new(cfg), 1, Role::Primary),
                    Replica::new(ContextStore::new(cfg), 1, Role::Backup),
                ],
                acked: Some(0),
                windows,
                next_window: 0,
                down_until: 0,
                resync_at: None,
                lag_ns: spec.repl_lag.as_nanos(),
                failover_ns: spec.failover_delay.as_nanos(),
                counters: CrashCounters::default(),
            })),
        }
    }

    /// Serve a lookup, or `None` while a failover is in progress.
    pub fn lookup(&self, path: PathKey, now_ns: u64) -> Option<ContextSnapshot> {
        let mut st = self.state.borrow_mut();
        st.roll(now_ns);
        st.counters.lookups += 1;
        if now_ns < st.down_until {
            st.counters.lookups_dropped += 1;
            return None;
        }
        match st.replicas[0].serve(now_ns, &Message::Lookup { path }) {
            Message::Context(snap) => Some(snap),
            _ => None,
        }
    }

    /// File a report; `false` means it was lost to a failover window.
    pub fn report(&self, path: PathKey, now_ns: u64, summary: &FlowSummary) -> bool {
        let mut st = self.state.borrow_mut();
        st.roll(now_ns);
        st.counters.reports += 1;
        if now_ns < st.down_until {
            st.counters.reports_dropped += 1;
            return false;
        }
        matches!(
            st.replicas[0].serve(now_ns, &Message::BatchReport(vec![(path, *summary)])),
            Message::ReportOk
        )
    }

    /// The current fencing epoch (1 + failovers so far).
    pub fn epoch(&self) -> u64 {
        self.state.borrow().replicas[0].epoch()
    }

    /// Injection/degradation counters.
    pub fn counters(&self) -> CrashCounters {
        self.state.borrow().counters
    }

    /// FNV-1a digest of the serving replica's snapshot blob — a compact,
    /// deterministic fingerprint of the surviving state.
    pub fn state_digest(&self) -> u64 {
        let st = self.state.borrow();
        let r = &st.replicas[0];
        fnv1a(0, &r.store().encode_snapshot(r.epoch()))
    }

    /// Summary for a run's [`HaReport`].
    pub fn report_summary(&self) -> HaReport {
        HaReport {
            epoch: self.epoch(),
            counters: self.counters(),
            state_digest: self.state_digest(),
        }
    }
}

/// The HA plane's contribution to a run's results (folded into run
/// fingerprints, so parallelism regressions in the crash machinery are
/// caught by the same bit-identity tests as everything else).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HaReport {
    /// Final epoch (1 = no failover happened).
    pub epoch: u64,
    /// What the plan injected and what it cost.
    pub counters: CrashCounters,
    /// FNV-1a digest of the surviving primary's snapshot blob.
    pub state_digest: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn rng() -> SeedRng {
        SeedRng::new(42).fork("server-crash")
    }

    fn summary(bytes: u64) -> FlowSummary {
        FlowSummary {
            bytes,
            duration_ns: SEC,
            mean_rtt_ms: 170.0,
            min_rtt_ms: 150.0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    fn spec(plan: ServerCrashPlan) -> HaSpec {
        HaSpec {
            plan,
            repl_lag: Dur::from_millis(100),
            failover_delay: Dur::from_millis(200),
        }
    }

    #[test]
    fn no_plan_behaves_like_a_healthy_store() {
        let plane = HaPlane::new(
            StoreConfig::default(),
            &spec(ServerCrashPlan::none()),
            rng(),
            Dur::from_secs(60),
        );
        let p = PathKey(1);
        assert!(plane.lookup(p, SEC).is_some());
        assert!(plane.report(p, 2 * SEC, &summary(1_000_000)));
        let snap = plane.lookup(p, 3 * SEC).expect("healthy plane answers");
        assert!(snap.utilization > 0.0 || snap.queue_ms > 0.0);
        assert_eq!(plane.epoch(), 1);
        assert_eq!(plane.counters().crashes, 0);
        assert_eq!(plane.counters().lookups_dropped, 0);
    }

    #[test]
    fn crash_bumps_epoch_and_drops_in_window() {
        let plane = HaPlane::new(
            StoreConfig::default(),
            &spec(ServerCrashPlan::crash_restart(
                Dur::from_secs(5),
                Dur::from_secs(2),
            )),
            rng(),
            Dur::from_secs(60),
        );
        let p = PathKey(1);
        assert!(plane.lookup(p, SEC).is_some());
        assert_eq!(plane.epoch(), 1);
        // Inside the failover window (crash at 5 s + 200 ms delay).
        assert!(plane.lookup(p, 5 * SEC + 50_000_000).is_none());
        assert_eq!(plane.epoch(), 2, "backup promoted at epoch+1");
        // After the window the new primary serves.
        assert!(plane.lookup(p, 6 * SEC).is_some());
        let c = plane.counters();
        assert_eq!(c.crashes, 1);
        assert_eq!(c.failovers, 1);
        assert_eq!(c.lookups_dropped, 1);
    }

    #[test]
    fn replicated_state_survives_the_crash() {
        let plane = HaPlane::new(
            StoreConfig::default(),
            &spec(ServerCrashPlan::crash_restart(
                Dur::from_secs(10),
                Dur::from_secs(1),
            )),
            rng(),
            Dur::from_secs(60),
        );
        let p = PathKey(7);
        // Mutations well before the crash: fully replicated (lag 100 ms).
        plane.lookup(p, SEC);
        plane.report(p, 2 * SEC, &summary(5_000_000));
        // This one is younger than the lag when the primary dies → lost.
        plane.lookup(p, 10 * SEC - 50_000_000);
        // Trigger the crash and serve from the backup.
        let snap = plane.lookup(p, 11 * SEC).expect("backup serves");
        assert_eq!(plane.epoch(), 2);
        assert_eq!(plane.counters().ops_lost, 1);
        // The replicated report's queue estimate survived the failover.
        assert!((snap.queue_ms - 20.0).abs() < 1e-9, "q = {}", snap.queue_ms);
        // The lost lookup's registration did not (1 competing would mean
        // the pre-crash registration leaked through).
        assert_eq!(snap.competing, 0);
    }

    #[test]
    fn flapping_crashes_repeatedly_and_deterministically() {
        let plan = ServerCrashPlan::flapping(
            Dur::from_secs(5),
            Dur::from_secs(1),
            Dur::from_secs(4),
            3,
            0.5,
        );
        let run = |seed: u64| {
            // Failover window longer than the probe cadence below, so
            // every crash provably drops at least one lookup or report.
            let ha = HaSpec {
                plan: plan.clone(),
                repl_lag: Dur::from_millis(100),
                failover_delay: Dur::from_secs(1),
            };
            let plane = HaPlane::new(
                StoreConfig::default(),
                &ha,
                SeedRng::new(seed).fork("server-crash"),
                Dur::from_secs(60),
            );
            let p = PathKey(1);
            let mut t = SEC;
            while t < 40 * SEC {
                plane.lookup(p, t);
                plane.report(p, t + SEC / 2, &summary(100_000));
                t += SEC;
            }
            (plane.epoch(), plane.counters(), plane.state_digest())
        };
        let (epoch, counters, digest) = run(42);
        assert_eq!(counters.crashes, 3);
        assert_eq!(epoch, 4);
        assert!(counters.lookups_dropped > 0 || counters.reports_dropped > 0);
        // Same seed → bit-identical outcome; different seed → different
        // jittered windows (the draw actually matters).
        assert_eq!(run(42), (epoch, counters, digest));
        let windows_a = plan.materialize(
            &mut SeedRng::new(1).fork("server-crash"),
            Dur::from_secs(60),
        );
        let windows_b = plan.materialize(
            &mut SeedRng::new(2).fork("server-crash"),
            Dur::from_secs(60),
        );
        assert_ne!(windows_a, windows_b, "jitter draws should differ by seed");
    }

    #[test]
    fn materialize_merges_overlaps_and_clips_horizon() {
        let plan = ServerCrashPlan {
            outages: vec![
                (Dur::from_secs(5), Dur::from_secs(4)),
                (Dur::from_secs(7), Dur::from_secs(4)), // overlaps the first
                (Dur::from_secs(90), Dur::from_secs(1)), // past horizon
            ],
            flap: None,
        };
        let w = plan.materialize(&mut rng(), Dur::from_secs(60));
        assert_eq!(w, vec![(5 * SEC, 11 * SEC)]);
    }

    #[test]
    fn restarted_replica_resyncs_and_survives_next_crash() {
        // Two crashes; between them the first victim restarts and must
        // carry the full state into the second failover.
        let plan = ServerCrashPlan {
            outages: vec![
                (Dur::from_secs(5), Dur::from_secs(1)),
                (Dur::from_secs(20), Dur::from_secs(1)),
            ],
            flap: None,
        };
        let plane = HaPlane::new(
            StoreConfig::default(),
            &spec(plan),
            rng(),
            Dur::from_secs(60),
        );
        let p = PathKey(3);
        plane.report(p, 2 * SEC, &summary(1_000_000)); // before crash 1
        plane.lookup(p, 8 * SEC); // after failover 1, on replica B
        plane.report(p, 9 * SEC, &summary(2_000_000));
        // After crash 2, replica A (restarted at 6 s, resynced) serves.
        let snap = plane.lookup(p, 22 * SEC).expect("second failover");
        assert_eq!(plane.epoch(), 3);
        assert_eq!(plane.counters().crashes, 2);
        // Replica A must know about the report filed while it was dead.
        assert!(snap.queue_ms > 0.0, "resynced replica lost state");
    }
}
