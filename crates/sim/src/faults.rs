//! Deterministic link fault injection — the chaos plane.
//!
//! An [`ImpairmentPlan`] installed on a link (via
//! [`crate::engine::Simulator::install_impairments`]) subjects every
//! packet crossing that link to a configurable fault model:
//!
//! * **Hard outages** — absolute down/up windows ([`OutageWindow`]).
//! * **Flapping** — alternating up/down periods with seeded random
//!   durations ([`Flapping`]).
//! * **Random loss** — Bernoulli or Gilbert–Elliott ([`LossModel`]).
//! * **Bit corruption** — the packet arrives damaged and is discarded at
//!   the link egress, as a failed checksum would be.
//! * **Duplication** — the packet is delivered twice.
//! * **Bounded reordering** — a random extra propagation delay up to a
//!   configured bound, letting later packets overtake.
//!
//! ## Determinism contract
//!
//! Every random draw comes from a per-link stream forked off the
//! experiment's root `SeedRng` (`fork_indexed("faults/link", link)`), so
//! installing a plan on one link never perturbs another link's stream,
//! and the whole impairment trace is bit-reproducible for any worker
//! count (`PHI_JOBS`). Flap edges are drawn *at install time* and
//! scheduled as engine events, so their randomness does not interleave
//! with per-packet draws. Per-packet draws happen in a fixed order
//! (loss → corruption → duplication → reordering) when a packet starts
//! serializing, in link-dequeue order, which the engine's total `(time,
//! seq)` event order makes deterministic; the verdict holds for the link
//! state at the serialization's end.
//!
//! The backpressure plane composes with this contract rather than
//! perturbing it: switch ECN marking (see [`crate::switch::EcnSpec`])
//! draws **nothing** from any `SeedRng` stream — its probabilistic band
//! hashes the packet id — and it happens at *admission* (enqueue),
//! while every per-packet fault draw happens at *egress* (dequeue), in
//! the fixed order above. So installing an
//! [`ImpairmentPlan`] on a link whose upstream switch also marks ECN
//! neither consumes from nor reorders the link's fault stream: the draw
//! order is pinned, and the combined fault + marking trace is
//! bit-identical across reruns (asserted by
//! `ecn_marking_does_not_perturb_fault_draws` in this module's tests).
//!
//! ## Accounting
//!
//! Packets destroyed by the chaos plane are counted per link in
//! [`FaultStats`] and roll up into the engine's
//! [`crate::engine::PacketCensus`] so the extended conservation law still
//! closes — see [`crate::engine::PacketCensus::conserved`].

use std::collections::VecDeque;

use phi_workload::SeedRng;

use crate::time::{Dur, Time};

/// One hard outage: the link goes down at `down` and heals at `up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// When the link fails.
    pub down: Time,
    /// When the link heals.
    pub up: Time,
}

/// Seeded link flapping: alternating up/down periods between `start` and
/// `end`, with each period's duration drawn uniformly from
/// `[0.5, 1.5] ×` the configured mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flapping {
    /// First down edge.
    pub start: Time,
    /// No more down edges at or after this instant (the link is forced up).
    pub end: Time,
    /// Mean duration of a down period.
    pub mean_down: Dur,
    /// Mean duration of an up period between flaps.
    pub mean_up: Dur,
}

/// Random per-packet loss at the link egress.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No random loss.
    #[default]
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss: the channel flips between a
    /// good and a bad state per packet, each state with its own loss
    /// probability.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_enter_bad: f64,
        /// P(bad → good) per packet.
        p_exit_bad: f64,
        /// Loss probability while good (usually ~0).
        good_loss: f64,
        /// Loss probability while bad (usually high).
        bad_loss: f64,
    },
}

/// Bounded random reordering: with probability `p` a packet's propagation
/// is stretched by a uniform extra delay in `[0, max_extra]`, letting
/// packets behind it overtake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reordering {
    /// Probability a packet is delayed.
    pub p: f64,
    /// Upper bound on the extra delay.
    pub max_extra: Dur,
}

/// What a downed link does with traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DownPolicy {
    /// Queued and arriving packets are destroyed (counted `blackholed`).
    #[default]
    Drop,
    /// Queued and arriving packets wait in the queue (subject to its
    /// normal capacity) and resume transmission when the link heals.
    /// Packets already serializing when the link fails are still lost.
    Park,
}

/// A per-link fault schedule plus per-packet impairment model.
///
/// Build with [`ImpairmentPlan::new`] and the chained setters, then
/// install with [`crate::engine::Simulator::install_impairments`]:
///
/// ```
/// use phi_sim::faults::{ImpairmentPlan, LossModel};
/// use phi_sim::time::{Dur, Time};
///
/// let plan = ImpairmentPlan::new()
///     .outage(Time::from_secs(60), Time::from_secs(100))
///     .loss(LossModel::Bernoulli { p: 0.01 })
///     .duplicate(0.001);
/// assert_eq!(plan.outages.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ImpairmentPlan {
    /// Hard outage windows, in ascending, non-overlapping order.
    pub outages: Vec<OutageWindow>,
    /// Optional flapping regime.
    pub flapping: Option<Flapping>,
    /// Random loss model.
    pub loss: LossModel,
    /// Per-packet corruption probability.
    pub corrupt: f64,
    /// Per-packet duplication probability.
    pub duplicate: f64,
    /// Optional bounded reordering.
    pub reorder: Option<Reordering>,
    /// What a downed link does with traffic.
    pub down_policy: DownPolicy,
}

impl ImpairmentPlan {
    /// An empty plan (no impairments).
    pub fn new() -> Self {
        ImpairmentPlan::default()
    }

    /// Add a hard outage window.
    ///
    /// # Panics
    /// Panics if the window is empty or overlaps/precedes an existing one.
    pub fn outage(mut self, down: Time, up: Time) -> Self {
        assert!(down < up, "outage window must have down < up");
        if let Some(last) = self.outages.last() {
            assert!(
                last.up <= down,
                "outage windows must be ordered and disjoint"
            );
        }
        self.outages.push(OutageWindow { down, up });
        self
    }

    /// Enable flapping between `start` and `end`.
    pub fn flap(mut self, start: Time, end: Time, mean_down: Dur, mean_up: Dur) -> Self {
        assert!(start < end, "flapping needs start < end");
        assert!(
            !mean_down.is_zero() && !mean_up.is_zero(),
            "flapping periods must be positive"
        );
        self.flapping = Some(Flapping {
            start,
            end,
            mean_down,
            mean_up,
        });
        self
    }

    /// Set the random loss model.
    pub fn loss(mut self, model: LossModel) -> Self {
        self.loss = model;
        self
    }

    /// Set the per-packet corruption probability.
    pub fn corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.corrupt = p;
        self
    }

    /// Set the per-packet duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.duplicate = p;
        self
    }

    /// Enable bounded reordering.
    pub fn reorder(mut self, p: f64, max_extra: Dur) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.reorder = Some(Reordering { p, max_extra });
        self
    }

    /// Set the down-link policy (drop or park).
    pub fn down_policy(mut self, policy: DownPolicy) -> Self {
        self.down_policy = policy;
        self
    }
}

/// Per-link chaos-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets destroyed by the fault plane: killed by a down link
    /// (queued, arriving, or mid-serialization) or by random loss.
    pub blackholed: u64,
    /// Packets corrupted in transit and discarded at the link egress.
    pub corrupted: u64,
    /// Extra packet copies created by duplication.
    pub duplicated: u64,
    /// Packets handed a reordering delay.
    pub reordered: u64,
    /// Down/up state transitions executed.
    pub edges: u64,
}

/// What the fault plane decided for one packet leaving the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EgressVerdict {
    /// Deliver; `extra` delays propagation, `duplicate` clones the packet.
    Forward {
        /// Extra propagation delay (reordering).
        extra: Dur,
        /// Deliver a second copy too.
        duplicate: bool,
    },
    /// Destroyed (down link or random loss).
    Blackhole,
    /// Corrupted in transit; discarded at egress.
    Corrupt,
}

/// Runtime fault state of one link: the plan, its private random stream,
/// and the counters.
#[derive(Debug)]
pub(crate) struct LinkFault {
    pub(crate) plan: ImpairmentPlan,
    rng: SeedRng,
    /// Current link state.
    pub(crate) up: bool,
    /// Scheduled state edges not yet applied, in firing order.
    pending: VecDeque<(Time, bool)>,
    /// Gilbert–Elliott channel state.
    ge_bad: bool,
    pub(crate) stats: FaultStats,
}

impl LinkFault {
    /// Build the runtime state and the full edge schedule (time, up)
    /// derived from outage windows and flapping draws. All flapping
    /// randomness is consumed here, at install time.
    pub(crate) fn new(plan: ImpairmentPlan, mut rng: SeedRng) -> (Self, Vec<(Time, bool)>) {
        let mut edges: Vec<(Time, bool)> = Vec::new();
        for w in &plan.outages {
            edges.push((w.down, false));
            edges.push((w.up, true));
        }
        if let Some(f) = plan.flapping {
            let mut t = f.start;
            let mut up = true;
            while t < f.end {
                edges.push((t, !up));
                up = !up;
                let mean = if up { f.mean_up } else { f.mean_down };
                let frac = rng.range_f64(0.5, 1.5);
                t += mean.mul_f64(frac).max(Dur::from_nanos(1));
            }
            // Force the link up when the flapping regime ends (redundant
            // up edges are no-ops at apply time).
            edges.push((f.end, true));
        }
        edges.sort_unstable();
        (
            LinkFault {
                plan,
                rng,
                up: true,
                pending: edges.iter().copied().collect(),
                ge_bad: false,
                stats: FaultStats::default(),
            },
            edges,
        )
    }

    /// Apply the next scheduled state edge. Returns false if redundant.
    pub(crate) fn apply_edge(&mut self, up: bool) -> bool {
        self.pending.pop_front();
        if self.up == up {
            return false;
        }
        self.up = up;
        self.stats.edges += 1;
        true
    }

    /// Decide the fate of one packet that finishes serializing at `at`,
    /// against the link state then: pending edges due by `at` count, one
    /// at exactly `at` included (edges are scheduled at install, so they
    /// fire first at their instant). Draw order is fixed (loss → corrupt
    /// → duplicate → reorder) so streams are reproducible; draws are only
    /// consumed for enabled features.
    pub(crate) fn egress(&mut self, at: Time) -> EgressVerdict {
        let due = self.pending.iter().take_while(|&&(t, _)| t <= at);
        if !due.last().map_or(self.up, |&(_, up)| up) {
            self.stats.blackholed += 1;
            return EgressVerdict::Blackhole;
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
                let flip = self
                    .rng
                    .chance(if self.ge_bad { p_exit_bad } else { p_enter_bad });
                if flip {
                    self.ge_bad = !self.ge_bad;
                }
                let p = if self.ge_bad { bad_loss } else { good_loss };
                self.rng.chance(p)
            }
        };
        if lost {
            self.stats.blackholed += 1;
            return EgressVerdict::Blackhole;
        }
        if self.plan.corrupt > 0.0 && self.rng.chance(self.plan.corrupt) {
            self.stats.corrupted += 1;
            return EgressVerdict::Corrupt;
        }
        let duplicate = self.plan.duplicate > 0.0 && self.rng.chance(self.plan.duplicate);
        if duplicate {
            self.stats.duplicated += 1;
        }
        let mut extra = Dur::ZERO;
        if let Some(r) = self.plan.reorder {
            if r.p > 0.0 && self.rng.chance(r.p) && !r.max_extra.is_zero() {
                extra = Dur::from_nanos(self.rng.range_u64(0, r.max_extra.as_nanos() + 1));
                self.stats.reordered += 1;
            }
        }
        EgressVerdict::Forward { extra, duplicate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SeedRng {
        SeedRng::new(7).fork_indexed("faults/link", 0)
    }

    #[test]
    fn outage_edges_scheduled_in_order() {
        let plan = ImpairmentPlan::new()
            .outage(Time::from_secs(1), Time::from_secs(2))
            .outage(Time::from_secs(5), Time::from_secs(6));
        let (_, edges) = LinkFault::new(plan, rng());
        assert_eq!(
            edges,
            vec![
                (Time::from_secs(1), false),
                (Time::from_secs(2), true),
                (Time::from_secs(5), false),
                (Time::from_secs(6), true),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "ordered and disjoint")]
    fn overlapping_outages_rejected() {
        let _ = ImpairmentPlan::new()
            .outage(Time::from_secs(1), Time::from_secs(3))
            .outage(Time::from_secs(2), Time::from_secs(4));
    }

    #[test]
    fn flap_edges_alternate_and_end_up() {
        let plan = ImpairmentPlan::new().flap(
            Time::from_secs(1),
            Time::from_secs(10),
            Dur::from_millis(500),
            Dur::from_millis(500),
        );
        let (_, edges) = LinkFault::new(plan, rng());
        assert!(edges.len() >= 4, "expected several flaps: {edges:?}");
        assert_eq!(edges[0], (Time::from_secs(1), false));
        let last = edges.last().unwrap();
        assert_eq!(*last, (Time::from_secs(10), true));
        assert!(edges.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn flap_edges_deterministic_per_seed() {
        let plan = || {
            ImpairmentPlan::new().flap(
                Time::ZERO,
                Time::from_secs(30),
                Dur::from_millis(200),
                Dur::from_millis(800),
            )
        };
        let (_, a) = LinkFault::new(plan(), rng());
        let (_, b) = LinkFault::new(plan(), rng());
        assert_eq!(a, b);
        let other = SeedRng::new(8).fork_indexed("faults/link", 0);
        let (_, c) = LinkFault::new(plan(), other);
        assert_ne!(a, c, "different seeds should flap differently");
    }

    #[test]
    fn bernoulli_loss_rate_matches() {
        let plan = ImpairmentPlan::new().loss(LossModel::Bernoulli { p: 0.2 });
        let (mut f, _) = LinkFault::new(plan, rng());
        let n: u32 = 20_000;
        let mut lost: u32 = 0;
        for _ in 0..n {
            if f.egress(Time::ZERO) == EgressVerdict::Blackhole {
                lost += 1;
            }
        }
        let frac = f64::from(lost) / f64::from(n);
        assert!((frac - 0.2).abs() < 0.02, "loss frac {frac}");
        assert_eq!(u64::from(lost), f.stats.blackholed);
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty() {
        let plan = ImpairmentPlan::new().loss(LossModel::GilbertElliott {
            p_enter_bad: 0.01,
            p_exit_bad: 0.2,
            good_loss: 0.0,
            bad_loss: 0.8,
        });
        let (mut f, _) = LinkFault::new(plan, rng());
        let outcomes: Vec<bool> = (0..50_000)
            .map(|_| f.egress(Time::ZERO) == EgressVerdict::Blackhole)
            .collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        assert!(losses > 500, "GE model never entered the bad state");
        // Burstiness: P(loss | previous loss) far above the marginal rate.
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        let marginal = losses as f64 / outcomes.len() as f64;
        assert!(
            cond > 2.0 * marginal,
            "losses not bursty: P(loss|loss)={cond:.3} vs marginal {marginal:.3}"
        );
    }

    #[test]
    fn downed_link_blackholes_everything() {
        let plan = ImpairmentPlan::new().outage(Time::ZERO, Time::from_secs(1));
        let (mut f, _) = LinkFault::new(plan, rng());
        assert!(f.apply_edge(false));
        assert!(!f.apply_edge(false), "redundant edge must be a no-op");
        for _ in 0..10 {
            assert_eq!(f.egress(Time::ZERO), EgressVerdict::Blackhole);
        }
        assert!(f.apply_edge(true));
        assert!(matches!(
            f.egress(Time::ZERO),
            EgressVerdict::Forward { .. }
        ));
        assert_eq!(f.stats.blackholed, 10);
        assert_eq!(f.stats.edges, 2);
    }

    #[test]
    fn corrupt_duplicate_reorder_draws_accounted() {
        let plan = ImpairmentPlan::new()
            .corrupt(0.1)
            .duplicate(0.1)
            .reorder(0.5, Dur::from_millis(5));
        let (mut f, _) = LinkFault::new(plan, rng());
        let mut corrupted = 0u64;
        let mut duplicated = 0u64;
        let mut reordered = 0u64;
        for _ in 0..10_000 {
            match f.egress(Time::ZERO) {
                EgressVerdict::Corrupt => corrupted += 1,
                EgressVerdict::Forward { extra, duplicate } => {
                    if duplicate {
                        duplicated += 1;
                    }
                    if !extra.is_zero() {
                        assert!(extra <= Dur::from_millis(5));
                        reordered += 1;
                    }
                }
                EgressVerdict::Blackhole => panic!("no loss configured"),
            }
        }
        assert_eq!(f.stats.corrupted, corrupted);
        assert_eq!(f.stats.duplicated, duplicated);
        assert!(corrupted > 500 && duplicated > 500 && reordered > 2000);
        assert!(f.stats.reordered >= reordered);
    }

    /// The backpressure/fault composition pin from the module docs: an
    /// impaired link whose upstream switch also marks ECN has a fixed
    /// per-packet draw order (marking hashes packet ids at admission,
    /// fault draws fire at egress), so reruns are bit-identical — and
    /// enabling the marking does not shift the link's fault stream at
    /// all.
    #[test]
    fn ecn_marking_does_not_perturb_fault_draws() {
        use std::any::Any;

        use crate::engine::{packet_to, Agent, Ctx, Simulator};
        use crate::packet::{Flags, FlowId, NodeId, Packet};
        use crate::queue::Capacity;
        use crate::switch::{EcnSpec, SwitchSpec};
        use crate::topology::TopologyBuilder;
        use crate::trace::SharedTraceCollector;

        /// Blasts ECT-flagged packets so switch ECN has something to mark.
        struct EctBlaster {
            peer: NodeId,
            remaining: u32,
        }
        impl Agent for EctBlaster {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer_after(Dur::ZERO, 0);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                let mut p = packet_to(self.peer, 80, 1, FlowId(9), 1_000);
                p.flags = Flags::ECT;
                ctx.send(p);
                ctx.set_timer_after(Dur::from_micros(200), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        /// Swallows arrivals.
        struct Null;
        impl Agent for Null {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        // a → r → z; the r→z hop is slow (queue builds at r, exercising
        // the ECN ramp) and impaired (loss, duplication, reordering).
        let run = |ecn: bool| {
            let mut b = TopologyBuilder::new();
            let a = b.add_node();
            let r = b.add_node();
            let z = b.add_node();
            b.add_duplex(
                a,
                r,
                100_000_000,
                Dur::from_micros(50),
                Capacity::Packets(1_000),
            );
            let (rz, _) = b.add_duplex(
                r,
                z,
                2_000_000,
                Dur::from_millis(1),
                Capacity::Packets(1_000),
            );
            let mut sim = Simulator::new(b.build());
            let mut spec = SwitchSpec::shared(200_000);
            if ecn {
                spec = spec.with_ecn(EcnSpec {
                    min_bytes: 2_000,
                    max_bytes: 40_000,
                });
            }
            sim.install_switch(r, spec);
            let plan = ImpairmentPlan::new()
                .loss(LossModel::Bernoulli { p: 0.05 })
                .duplicate(0.03)
                .reorder(0.2, Dur::from_millis(2));
            sim.install_impairments(rz, plan, &SeedRng::new(4242));
            let (tracer, events) = SharedTraceCollector::new();
            sim.set_tracer(tracer);
            sim.add_agent(
                a,
                1,
                Box::new(EctBlaster {
                    peer: z,
                    remaining: 400,
                }),
            );
            sim.add_agent(z, 80, Box::new(Null));
            sim.run_until(Time::from_secs(2));
            let trace: Vec<String> = events.borrow().iter().map(|ev| format!("{ev:?}")).collect();
            (
                trace,
                sim.packet_census(),
                sim.fault_stats(rz),
                sim.switch_stats(r),
            )
        };

        // Both planes actually engaged.
        let (trace, census, faults, switch) = run(true);
        assert!(switch.ecn_marked > 0, "the ramp must mark: {switch:?}");
        assert!(faults.blackholed > 0 && faults.duplicated > 0, "{faults:?}");
        assert!(census.conserved(), "census must close: {census:?}");

        // Rerun: bit-identical trace and accounting.
        let (trace2, census2, faults2, switch2) = run(true);
        assert_eq!(trace, trace2, "rerun must be bit-identical");
        assert_eq!(census, census2);
        assert_eq!(faults, faults2);
        assert_eq!(switch, switch2);

        // Marking consumes nothing from the fault stream: the same
        // packets meet the same draws with ECN off.
        let (_, census3, faults3, switch3) = run(false);
        assert_eq!(switch3.ecn_marked, 0);
        assert_eq!(faults, faults3, "ECN marking shifted the fault stream");
        assert_eq!(census.delivered, census3.delivered);
        assert_eq!(census.blackholed, census3.blackholed);
    }
}
