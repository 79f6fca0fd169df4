//! Shared-buffer switch model: Dynamic-Threshold admission, ECN marking,
//! and PFC backpressure with a pause-storm watchdog.
//!
//! The WAN scenarios in this repo treat every link queue as an island
//! with its own private buffer. Datacenter switches do not work that
//! way: all egress ports draw from **one shared buffer pool**, admission
//! is governed by the Dynamic-Threshold (DT) algorithm (Choudhury &
//! Hahne '98), congestion is signalled by **ECN marks** instead of (or
//! before) drops, and lossless fabrics add **PFC** PAUSE frames per
//! ingress — which introduces head-of-line blocking and, in the worst
//! case, cyclic buffer dependencies that deadlock the fabric. A
//! deterministic **watchdog** detects sustained pause and breaks the
//! cycle with a census-accounted drain, mirroring the pause-storm
//! watchdogs production fabrics deploy.
//!
//! Installing a [`SwitchSpec`] on a node (see
//! `Simulator::install_switch`) layers this model over the node's
//! egress link queues:
//!
//! * **DT admission** — a packet bound for egress port *i* is admitted
//!   iff `q_i + size ≤ α · (B − ΣQ)` and `ΣQ + size ≤ B`, where `B` is
//!   the pool and `ΣQ` the total occupancy. Rejections count as queue
//!   drops on the egress link (and as `shared_drops` in
//!   [`SwitchStats`]).
//! * **ECN marking** — on admission of an ECN-capable (`ECT`) packet,
//!   the egress queue length is compared against [`EcnSpec`]: below
//!   `min_bytes` never mark, above `max_bytes` always mark, in between
//!   mark with linearly rising probability (RED-style). A step marking
//!   threshold (DCTCP's `K`) is the degenerate `min == max` case.
//!   The probabilistic draw hashes the packet id, so marking is
//!   deterministic.
//! * **PFC** — per-ingress occupancy is tracked by attributing each
//!   admitted packet to the link it arrived on (the attribution rides
//!   on the packet's pool handle until its bytes are released). Crossing
//!   [`PfcSpec::xoff_bytes`] sends a PAUSE upstream (taking effect one
//!   propagation delay later); falling to [`PfcSpec::xon_bytes`]
//!   resumes. A paused link finishes the frame in flight but starts no
//!   new serialization — head-of-line blocking emerges naturally.
//! * **Watchdog** — every PAUSE arms a deterministic watchdog timer; if
//!   the ingress is still continuously paused when it fires (a pause
//!   storm or a cyclic buffer dependency), the switch drains its egress
//!   queues (ascending link id, FIFO order) until the stuck ingress
//!   clears its resume threshold, counts the victims as `pfc_dropped`,
//!   and force-resumes — bounding deadlock to one watchdog period.
//!
//! Determinism contract: admission, marking, pause edges, and watchdog
//! drains are pure functions of the (deterministic) event order and
//! packet contents.

use serde::Serialize;

use crate::packet::{unit_hash, LinkId, NodeId, Packet};
use crate::time::Dur;
use crate::topology::Topology;

/// ECN marking policy for one switch, in bytes of egress-queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EcnSpec {
    /// Queue depth below which arrivals are never marked.
    pub min_bytes: u64,
    /// Queue depth at or above which every ECT arrival is marked. With
    /// `min_bytes == max_bytes` this is a DCTCP-style step threshold.
    pub max_bytes: u64,
}

impl EcnSpec {
    /// A DCTCP-style step threshold: mark every ECT arrival that finds
    /// at least `k_bytes` queued at its egress port.
    pub fn step(k_bytes: u64) -> Self {
        EcnSpec {
            min_bytes: k_bytes,
            max_bytes: k_bytes,
        }
    }

    /// Whether an ECT packet arriving to `queued` bytes is marked.
    /// Deterministic: the in-between band hashes the packet id.
    pub fn marks(&self, queued: u64, pkt_id: u64) -> bool {
        if queued < self.min_bytes {
            return false;
        }
        if queued >= self.max_bytes {
            return true;
        }
        let p = (queued - self.min_bytes) as f64 / (self.max_bytes - self.min_bytes) as f64;
        unit_hash(pkt_id ^ ECN_SALT) < p
    }
}

/// PFC configuration for one switch (single priority class: each link
/// is one port/priority lane).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PfcSpec {
    /// Per-ingress occupancy at which a PAUSE is sent upstream.
    pub xoff_bytes: u64,
    /// Per-ingress occupancy at or below which a RESUME is sent.
    pub xon_bytes: u64,
    /// Continuous-pause duration after which the watchdog declares a
    /// pause storm (or deadlock cycle) and fires the drain.
    pub watchdog: Dur,
}

/// A shared-buffer switch installed on one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SwitchSpec {
    /// Total shared buffer pool, bytes, across all egress ports.
    pub pool_bytes: u64,
    /// Dynamic-Threshold α: an egress port may occupy at most
    /// `α · (pool − total occupancy)` bytes.
    pub dt_alpha: f64,
    /// ECN marking policy, if any.
    pub ecn: Option<EcnSpec>,
    /// PFC pause/resume policy, if any.
    pub pfc: Option<PfcSpec>,
}

impl SwitchSpec {
    /// A shared buffer of `pool_bytes` under DT admission with `α = 1`,
    /// no ECN, no PFC.
    pub fn shared(pool_bytes: u64) -> Self {
        SwitchSpec {
            pool_bytes,
            dt_alpha: 1.0,
            ecn: None,
            pfc: None,
        }
    }

    /// Builder: set the DT α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.dt_alpha = alpha;
        self
    }

    /// Builder: enable ECN marking.
    pub fn with_ecn(mut self, ecn: EcnSpec) -> Self {
        self.ecn = Some(ecn);
        self
    }

    /// Builder: enable PFC.
    pub fn with_pfc(mut self, pfc: PfcSpec) -> Self {
        self.pfc = Some(pfc);
        self
    }
}

/// Per-switch counters, `fault_stats()`-style: all-zero when nothing
/// noteworthy happened, readable mid-run or after completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SwitchStats {
    /// Packets admitted to the shared buffer.
    pub admitted: u64,
    /// Packets rejected by DT/pool admission (also counted as drops on
    /// the egress link).
    pub shared_drops: u64,
    /// ECT packets marked Congestion Experienced on admission.
    pub ecn_marked: u64,
    /// PAUSE (XOFF) frames sent upstream.
    pub pauses: u64,
    /// RESUME (XON) frames sent upstream.
    pub resumes: u64,
    /// Watchdog firings (pause storms / deadlock cycles broken).
    pub watchdog_fires: u64,
    /// Packets destroyed by watchdog drains.
    pub pfc_dropped: u64,
}

const ECN_SALT: u64 = 0xEC4E_11AB_5EED_0001;

/// The Dynamic-Threshold shared-buffer admission core: one pool, one
/// occupancy counter per egress port. Exposed publicly so property
/// tests can hammer the invariant (total occupancy never exceeds the
/// pool under any arrival/drain interleaving) without driving a full
/// simulation.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    pool: u64,
    alpha: f64,
    total: u64,
    ports: Vec<u64>,
}

impl SharedBuffer {
    /// A pool of `pool_bytes` shared by `ports` egress ports under DT
    /// parameter `alpha`.
    ///
    /// # Panics
    /// Panics if the pool is zero or `alpha` is not positive.
    pub fn new(pool_bytes: u64, alpha: f64, ports: usize) -> Self {
        assert!(pool_bytes > 0, "pool must be positive");
        assert!(alpha > 0.0, "DT alpha must be positive");
        SharedBuffer {
            pool: pool_bytes,
            alpha,
            total: 0,
            ports: vec![0; ports],
        }
    }

    /// Try to admit `bytes` to `port`: true and accounted on success,
    /// false (state unchanged) on a DT or pool rejection.
    pub fn try_admit(&mut self, port: usize, bytes: u32) -> bool {
        let bytes = u64::from(bytes);
        let free = self.pool - self.total;
        if self.total + bytes > self.pool {
            return false;
        }
        let threshold = self.alpha * free as f64;
        if (self.ports[port] + bytes) as f64 > threshold {
            return false;
        }
        self.total += bytes;
        self.ports[port] += bytes;
        true
    }

    /// Release `bytes` previously admitted to `port`.
    pub fn release(&mut self, port: usize, bytes: u32) {
        let bytes = u64::from(bytes);
        debug_assert!(self.ports[port] >= bytes && self.total >= bytes);
        self.ports[port] -= bytes;
        self.total -= bytes;
    }

    /// Total occupancy, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Occupancy of one port, bytes.
    pub fn port_bytes(&self, port: usize) -> u64 {
        self.ports[port]
    }

    /// The configured pool size, bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.pool
    }
}

/// A pause-plane transition produced by switch accounting; the engine
/// turns these into scheduled PAUSE/RESUME frames (one propagation
/// delay upstream) and watchdog timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PfcEdge {
    /// Send PAUSE upstream on `link` and arm the watchdog.
    Xoff {
        /// The ingress link to pause.
        link: LinkId,
        /// Epoch validating the matching watchdog timer.
        epoch: u64,
        /// Watchdog delay to arm.
        watchdog: Dur,
    },
    /// Send RESUME upstream on `link`.
    Xon {
        /// The ingress link to resume.
        link: LinkId,
    },
}

/// Outcome of offering a packet to switch admission.
pub(crate) enum AdmitOutcome {
    /// DT/pool rejection: the caller drops the packet.
    Rejected,
    /// Admitted (and accounted).
    Admitted {
        /// Index of the ingress the packet's bytes were attributed to,
        /// or [`NO_INGRESS`]. The caller keeps it with the packet (it
        /// rides on the packet's pool handle) and passes it back to
        /// [`SwitchState::release`].
        ingress: u32,
        /// A pause edge to emit, if admission crossed the threshold.
        edge: Option<PfcEdge>,
    },
}

/// Engine-side runtime state of one installed switch.
#[derive(Debug)]
pub(crate) struct SwitchState {
    pub(crate) spec: SwitchSpec,
    buffer: SharedBuffer,
    /// Egress links of this node, ascending id (port index order).
    egress: Vec<LinkId>,
    /// Link id → egress port index, dense over the topology's links
    /// ([`NO_PORT`] for links that do not leave this node).
    port_of: Vec<u32>,
    /// Ingress links of this node, ascending id.
    ingress: Vec<LinkId>,
    /// Link id → ingress index, dense over the topology's links
    /// ([`NO_INGRESS`] for links that do not enter this node).
    ing_of: Vec<u32>,
    /// Pooled bytes attributed to each ingress.
    ing_bytes: Vec<u64>,
    /// Whether an XOFF is outstanding toward each ingress.
    ing_paused: Vec<bool>,
    /// Per-ingress pause-edge counter: bumped on every XOFF and XON
    /// decision. The value at an XOFF is that pause's watchdog epoch.
    pause_seq: Vec<u64>,
    pub(crate) stats: SwitchStats,
}

/// "Not attributed to any ingress": the packet was injected by a local
/// agent, or the switch runs without PFC.
pub(crate) const NO_INGRESS: u32 = u32::MAX;
const NO_PORT: u32 = u32::MAX;

impl SwitchState {
    pub(crate) fn new(node: NodeId, spec: SwitchSpec, topology: &Topology) -> Self {
        if let Some(p) = &spec.pfc {
            assert!(
                p.xon_bytes <= p.xoff_bytes,
                "PFC resume threshold must not exceed the pause threshold"
            );
            assert!(!p.watchdog.is_zero(), "PFC watchdog must be positive");
        }
        let mut egress = Vec::new();
        let mut ingress = Vec::new();
        let mut port_of = vec![NO_PORT; topology.links().len()];
        let mut ing_of = vec![NO_INGRESS; topology.links().len()];
        for (idx, l) in topology.links().iter().enumerate() {
            if l.from == node {
                port_of[idx] = egress.len() as u32;
                egress.push(LinkId(idx as u32));
            }
            if l.to == node {
                ing_of[idx] = ingress.len() as u32;
                ingress.push(LinkId(idx as u32));
            }
        }
        let n_ing = ingress.len();
        SwitchState {
            buffer: SharedBuffer::new(spec.pool_bytes, spec.dt_alpha, egress.len()),
            spec,
            egress,
            port_of,
            ingress,
            ing_of,
            ing_bytes: vec![0; n_ing],
            ing_paused: vec![false; n_ing],
            pause_seq: vec![0; n_ing],
            stats: SwitchStats::default(),
        }
    }

    /// Offer `pkt` (bound for `egress`, having arrived on `via`) to DT
    /// admission. On success the packet is accounted (and possibly
    /// CE-marked in place) and an XOFF edge may be returned.
    pub(crate) fn admit(&mut self, egress: LinkId, via: LinkId, pkt: &mut Packet) -> AdmitOutcome {
        let port = self.port(egress);
        let queued = self.buffer.port_bytes(port);
        if !self.buffer.try_admit(port, pkt.size) {
            self.stats.shared_drops += 1;
            return AdmitOutcome::Rejected;
        }
        self.stats.admitted += 1;
        if let Some(ecn) = &self.spec.ecn {
            if pkt.is_ect() && ecn.marks(queued, pkt.id) {
                pkt.flags = pkt.flags.union(crate::packet::Flags::CE);
                self.stats.ecn_marked += 1;
            }
        }
        let mut ingress = NO_INGRESS;
        let mut edge = None;
        if let Some(pfc) = &self.spec.pfc {
            if let Some(i) = self.ingress_index(via) {
                ingress = i as u32;
                self.ing_bytes[i] += u64::from(pkt.size);
                if !self.ing_paused[i] && self.ing_bytes[i] >= pfc.xoff_bytes {
                    self.ing_paused[i] = true;
                    self.pause_seq[i] += 1;
                    self.stats.pauses += 1;
                    edge = Some(PfcEdge::Xoff {
                        link: self.ingress[i],
                        epoch: self.pause_seq[i],
                        watchdog: pfc.watchdog,
                    });
                }
            }
        }
        AdmitOutcome::Admitted { ingress, edge }
    }

    /// Port index of `egress`, which must leave this node.
    #[inline]
    fn port(&self, egress: LinkId) -> usize {
        let port = self.port_of[egress.0 as usize];
        debug_assert!(port != NO_PORT, "{egress} is not an egress of this switch");
        port as usize
    }

    /// Ingress index of `link`, if it enters this node (the engine's
    /// "no inbound link" sentinel is out of range and maps to `None`).
    #[inline]
    fn ingress_index(&self, link: LinkId) -> Option<usize> {
        match self.ing_of.get(link.0 as usize) {
            Some(&i) if i != NO_INGRESS => Some(i as usize),
            _ => None,
        }
    }

    /// Release `size` pooled bytes admitted on `egress` with attribution
    /// `ingress` (the packet started serializing, the egress queue
    /// refused it after admission, or a fault-plane drain destroyed it).
    /// May return an XON edge when the packet's ingress falls to the
    /// resume threshold.
    pub(crate) fn release(&mut self, egress: LinkId, size: u32, ingress: u32) -> Option<PfcEdge> {
        let i = self.detach(egress, size, ingress)?;
        let pfc = self.spec.pfc.as_ref()?;
        if self.ing_paused[i] && self.ing_bytes[i] <= pfc.xon_bytes {
            self.ing_paused[i] = false;
            self.pause_seq[i] += 1;
            self.stats.resumes += 1;
            return Some(PfcEdge::Xon {
                link: self.ingress[i],
            });
        }
        None
    }

    /// Give `size` bytes back to the pool and to their ingress
    /// attribution, returning the ingress index (if attributed).
    fn detach(&mut self, egress: LinkId, size: u32, ingress: u32) -> Option<usize> {
        let port = self.port(egress);
        self.buffer.release(port, size);
        if ingress == NO_INGRESS {
            return None;
        }
        let i = ingress as usize;
        self.ing_bytes[i] -= u64::from(size);
        Some(i)
    }

    /// Whether the watchdog timer `(link, epoch)` is still valid: the
    /// ingress has been continuously paused since the XOFF that armed it.
    pub(crate) fn watchdog_pending(&self, link: LinkId, epoch: u64) -> bool {
        self.ingress_index(link)
            .is_some_and(|i| self.ing_paused[i] && self.pause_seq[i] == epoch)
    }

    /// Count one watchdog firing (a pause storm declared).
    pub(crate) fn note_watchdog_fire(&mut self) {
        self.stats.watchdog_fires += 1;
    }

    /// Release accounting for a packet destroyed by a watchdog drain.
    pub(crate) fn drain_release(&mut self, egress: LinkId, size: u32, ingress: u32) {
        self.detach(egress, size, ingress);
        self.stats.pfc_dropped += 1;
    }

    /// After a watchdog drain: force-resume the stuck ingress and any
    /// other paused ingress now at or below the resume threshold.
    pub(crate) fn watchdog_resumes(&mut self, stuck: LinkId) -> Vec<PfcEdge> {
        let Some(pfc) = self.spec.pfc else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for i in 0..self.ingress.len() {
            if self.ing_paused[i]
                && (self.ingress[i] == stuck || self.ing_bytes[i] <= pfc.xon_bytes)
            {
                self.ing_paused[i] = false;
                self.pause_seq[i] += 1;
                self.stats.resumes += 1;
                out.push(PfcEdge::Xon {
                    link: self.ingress[i],
                });
            }
        }
        out
    }

    /// Pooled bytes attributed to ingress `link` (0 if not an ingress).
    pub(crate) fn ingress_bytes(&self, link: LinkId) -> u64 {
        self.ingress_index(link).map_or(0, |i| self.ing_bytes[i])
    }

    /// Bytes this switch holds right now: `(shared pool total, sum of
    /// the per-ingress attributions)`.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        (self.buffer.total_bytes(), self.ing_bytes.iter().sum())
    }

    /// Egress links of this switch, ascending id.
    pub(crate) fn egress_links(&self) -> &[LinkId] {
        &self.egress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dt_threshold_shrinks_as_pool_fills() {
        // α = 1, pool 10_000: an empty pool admits up to 5_000 per port
        // (threshold equals free space, which shrinks as you admit).
        let mut b = SharedBuffer::new(10_000, 1.0, 2);
        let mut admitted = 0u64;
        while b.try_admit(0, 1_000) {
            admitted += 1_000;
        }
        // q0 + 1000 > 1.0 * (10_000 - q0) first fails at q0 = 5_000.
        assert_eq!(admitted, 5_000);
        // The other port still gets a (smaller) share.
        assert!(b.try_admit(1, 1_000));
        assert!(b.total_bytes() <= b.pool_bytes());
    }

    #[test]
    fn dt_never_exceeds_pool_even_with_large_alpha() {
        let mut b = SharedBuffer::new(5_000, 64.0, 1);
        while b.try_admit(0, 999) {}
        assert!(b.total_bytes() <= 5_000);
        // Release makes room again.
        b.release(0, 999);
        assert!(b.try_admit(0, 999));
        assert!(b.total_bytes() <= 5_000);
    }

    #[test]
    fn ecn_step_marks_at_and_above_k() {
        let e = EcnSpec::step(30_000);
        assert!(!e.marks(29_999, 7));
        assert!(e.marks(30_000, 7));
        assert!(e.marks(1 << 40, 7));
    }

    #[test]
    fn ecn_ramp_is_deterministic_and_monotone_in_expectation() {
        let e = EcnSpec {
            min_bytes: 10_000,
            max_bytes: 50_000,
        };
        assert!(!e.marks(9_999, 1));
        assert!(e.marks(50_000, 1));
        let frac = |q: u64| (0..2_000u64).filter(|&id| e.marks(q, id)).count() as f64 / 2_000.0;
        let low = frac(15_000);
        let high = frac(45_000);
        assert!(
            low < high,
            "marking must rise with queue depth: {low} vs {high}"
        );
        // Re-evaluation gives bit-identical decisions.
        assert_eq!(
            (0..500u64)
                .map(|id| e.marks(20_000, id))
                .collect::<Vec<_>>(),
            (0..500u64)
                .map(|id| e.marks(20_000, id))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "resume threshold")]
    fn pfc_spec_validated_on_install() {
        use crate::queue::Capacity;
        use crate::topology::TopologyBuilder;
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        b.add_duplex(a, z, 1_000_000, Dur::from_millis(1), Capacity::Packets(100));
        let spec = SwitchSpec::shared(100_000).with_pfc(PfcSpec {
            xoff_bytes: 1_000,
            xon_bytes: 2_000, // invalid: xon > xoff
            watchdog: Dur::from_millis(10),
        });
        SwitchState::new(a, spec, &b.build());
    }
}
