//! Link queues and queueing disciplines.
//!
//! The Phi paper's incentives story (Sections 2.2.3, 3.1, 3.2) hinges on
//! the prevalence of **drop-tail FIFO** queueing: a flow is not insulated
//! from the queue other flows build. We therefore isolate the discipline
//! behind the [`Discipline`] trait so tests can demonstrate that property
//! and ablations can swap disciplines, but drop-tail FIFO is the default
//! used by every experiment, matching ns-2's `DropTail`.
//!
//! Inside the engine a queued packet is a 4-byte handle into the
//! `PacketPool` defined here, not the packet: [`LinkQueue`] queues
//! handles, and hands a by-value copy only to a custom [`Discipline`],
//! whose trait is unchanged.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::packet::{unit_hash, Packet};
use crate::switch::NO_INGRESS;
use crate::time::Time;

/// How much a queue may hold before dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Capacity {
    /// At most this many packets (ns-2 counts packets by default).
    Packets(usize),
    /// At most this many bytes.
    Bytes(u64),
}

impl Capacity {
    /// True if a queue currently holding (`pkts`, `bytes`) can accept a
    /// packet of `size` bytes without exceeding this capacity.
    pub fn admits(self, pkts: usize, bytes: u64, size: u32) -> bool {
        match self {
            Capacity::Packets(limit) => pkts < limit,
            Capacity::Bytes(limit) => bytes + u64::from(size) <= limit,
        }
    }
}

/// Verdict of a queueing discipline for an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Packet admitted to the queue.
    Enqueued,
    /// Packet dropped.
    Dropped,
}

/// A queueing discipline: decides admission and service order.
pub trait Discipline: core::fmt::Debug {
    /// Offer an arriving packet. Implementations either store it and return
    /// [`Verdict::Enqueued`] or refuse it and return [`Verdict::Dropped`].
    fn offer(&mut self, pkt: Packet, now: Time) -> Verdict;

    /// Remove the next packet to transmit, with the time it was enqueued.
    fn take(&mut self) -> Option<(Packet, Time)>;

    /// Packets currently queued.
    fn len_packets(&self) -> usize;

    /// Bytes currently queued.
    fn len_bytes(&self) -> u64;

    /// The configured capacity.
    fn capacity(&self) -> Capacity;
}

/// Classic drop-tail FIFO: admit until full, serve in arrival order.
#[derive(Debug)]
pub struct DropTail {
    capacity: Capacity,
    items: VecDeque<(Packet, Time)>,
    bytes: u64,
}

impl DropTail {
    /// A drop-tail queue with the given capacity.
    pub fn new(capacity: Capacity) -> Self {
        DropTail {
            capacity,
            items: VecDeque::new(),
            bytes: 0,
        }
    }
}

impl Discipline for DropTail {
    #[inline]
    fn offer(&mut self, pkt: Packet, now: Time) -> Verdict {
        if self.capacity.admits(self.items.len(), self.bytes, pkt.size) {
            self.bytes += u64::from(pkt.size);
            self.items.push_back((pkt, now));
            Verdict::Enqueued
        } else {
            Verdict::Dropped
        }
    }

    #[inline]
    fn take(&mut self) -> Option<(Packet, Time)> {
        let (pkt, at) = self.items.pop_front()?;
        self.bytes -= u64::from(pkt.size);
        Some((pkt, at))
    }

    #[inline]
    fn len_packets(&self) -> usize {
        self.items.len()
    }

    #[inline]
    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    fn capacity(&self) -> Capacity {
        self.capacity
    }
}

/// Handle of one packet in the engine's [`PacketPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PktRef(u32);

/// Where every packet lives from `Ctx::send` to its terminal state.
///
/// The engine's events and link queues carry a 4-byte [`PktRef`] instead
/// of the 128-byte [`Packet`]: the tracer and the switch read the packet
/// in place, and it is copied out once, when an agent takes it by value.
/// Freed slots are reused LIFO, so the pool stays as small (and as warm
/// in cache) as the peak number of packets in the network. Handle values
/// never reach any output, so slot reuse cannot perturb a run.
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slots: Vec<Packet>,
    /// Per-packet switch state riding on the handle: the PFC ingress a
    /// shared-buffer switch attributed the packet to when it admitted
    /// it. Written on every admission and read back on release, so a
    /// stale value from the slot's previous packet is never observed.
    ingress: Vec<u32>,
    free: Vec<u32>,
}

impl PacketPool {
    /// Pool `pkt`, returning its handle.
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> PktRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PktRef(i)
            }
            None => {
                self.slots.push(pkt);
                self.ingress.push(NO_INGRESS);
                PktRef((self.slots.len() - 1) as u32)
            }
        }
    }

    /// The packet reached a terminal state: free its slot.
    #[inline]
    pub(crate) fn release(&mut self, h: PktRef) {
        self.free.push(h.0);
    }

    /// Copy the packet out for its consumer and free the slot.
    #[inline]
    pub(crate) fn take(&mut self, h: PktRef) -> Packet {
        self.release(h);
        self.slots[h.0 as usize].clone()
    }

    /// The switch ingress attribution riding on `h`.
    #[inline]
    pub(crate) fn ingress(&self, h: PktRef) -> u32 {
        self.ingress[h.0 as usize]
    }

    /// Attach a switch ingress attribution to `h`.
    #[inline]
    pub(crate) fn set_ingress(&mut self, h: PktRef, ingress: u32) {
        self.ingress[h.0 as usize] = ingress;
    }

    /// Slots currently holding a packet.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl std::ops::Index<PktRef> for PacketPool {
    type Output = Packet;
    #[inline]
    fn index(&self, h: PktRef) -> &Packet {
        &self.slots[h.0 as usize]
    }
}

impl std::ops::IndexMut<PktRef> for PacketPool {
    #[inline]
    fn index_mut(&mut self, h: PktRef) -> &mut Packet {
        &mut self.slots[h.0 as usize]
    }
}

/// The queue installed on a link: either the ubiquitous drop-tail FIFO,
/// queueing packet handles inline with static dispatch, or any other
/// [`Discipline`] behind a trait object.
///
/// Every experiment in the paper runs drop-tail on every link (ns-2's
/// default), so the engine's per-packet offer/take calls sit on the
/// hottest path in the repo. [`LinkQueue::drop_tail`] keeps that case to
/// a 16-byte `(handle, size, enqueued_at)` ring entry — no vtable, no
/// packet copy — while [`LinkQueue::custom`] keeps RED, scripted-drop
/// fault injection, and any future discipline pluggable at full
/// fidelity: the discipline is handed the packet by value, exactly as
/// its trait says.
#[derive(Debug)]
pub struct LinkQueue(Inner);

#[derive(Debug)]
enum Inner {
    /// Drop-tail FIFO over handles (the fast path); same admission rule
    /// and service order as [`DropTail`].
    DropTail {
        capacity: Capacity,
        items: VecDeque<(PktRef, u32, Time)>,
        bytes: u64,
    },
    /// Any other discipline. It holds by-value copies; the engine keeps
    /// each queued packet's pool slot reserved (with the switch state
    /// riding on it) and lists `(packet id, handle)` here, in offer
    /// order, until the discipline gives the packet back.
    Custom {
        discipline: Box<dyn Discipline>,
        custody: VecDeque<(u64, PktRef)>,
    },
}

impl LinkQueue {
    /// A drop-tail queue of `capacity` (the devirtualized default).
    pub fn drop_tail(capacity: Capacity) -> Self {
        LinkQueue(Inner::DropTail {
            capacity,
            items: VecDeque::new(),
            bytes: 0,
        })
    }

    /// Wrap an arbitrary discipline.
    pub fn custom(discipline: impl Discipline + 'static) -> Self {
        LinkQueue(Inner::Custom {
            discipline: Box::new(discipline),
            custody: VecDeque::new(),
        })
    }

    /// Offer the pooled packet `h`. Either way the caller still owns the
    /// handle: on [`Verdict::Dropped`] it is the caller's to release.
    #[inline]
    pub(crate) fn offer(&mut self, h: PktRef, pool: &PacketPool, now: Time) -> Verdict {
        match &mut self.0 {
            Inner::DropTail {
                capacity,
                items,
                bytes,
            } => {
                let size = pool[h].size;
                if capacity.admits(items.len(), *bytes, size) {
                    *bytes += u64::from(size);
                    items.push_back((h, size, now));
                    Verdict::Enqueued
                } else {
                    Verdict::Dropped
                }
            }
            Inner::Custom {
                discipline,
                custody,
            } => {
                let pkt = pool[h].clone();
                let id = pkt.id;
                let verdict = discipline.offer(pkt, now);
                if verdict == Verdict::Enqueued {
                    custody.push_back((id, h));
                }
                verdict
            }
        }
    }

    /// Remove the next packet to transmit, with the time it was enqueued.
    ///
    /// A custom discipline returns a packet by value: it is matched to
    /// its reserved slot by packet id (the front of the custody list for
    /// every FIFO discipline) and written back over the slot, since a
    /// discipline may have marked it.
    #[inline]
    pub(crate) fn take(&mut self, pool: &mut PacketPool) -> Option<(PktRef, Time)> {
        match &mut self.0 {
            Inner::DropTail { items, bytes, .. } => {
                let (h, size, at) = items.pop_front()?;
                *bytes -= u64::from(size);
                Some((h, at))
            }
            Inner::Custom {
                discipline,
                custody,
            } => {
                let (pkt, at) = discipline.take()?;
                let pos = custody
                    .iter()
                    .position(|&(id, _)| id == pkt.id)
                    .expect("discipline returned a packet it was never offered");
                let (_, h) = custody.remove(pos).expect("position is in range");
                pool[h] = pkt;
                Some((h, at))
            }
        }
    }

    /// Packets currently queued.
    #[inline]
    pub fn len_packets(&self) -> usize {
        match &self.0 {
            Inner::DropTail { items, .. } => items.len(),
            Inner::Custom { discipline, .. } => discipline.len_packets(),
        }
    }

    /// Bytes currently queued.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        match &self.0 {
            Inner::DropTail { bytes, .. } => *bytes,
            Inner::Custom { discipline, .. } => discipline.len_bytes(),
        }
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> Capacity {
        match &self.0 {
            Inner::DropTail { capacity, .. } => *capacity,
            Inner::Custom { discipline, .. } => discipline.capacity(),
        }
    }
}

/// A serializable queueing-discipline choice, materialized per link.
///
/// [`LinkQueue`] holds trait objects and cannot travel inside an
/// experiment spec; this enum can, and a per-link factory closure turns
/// it into the queue with [`DisciplineSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisciplineSpec {
    /// Classic FIFO drop-tail (the engine default).
    DropTail,
    /// Gentle RED auto-tuned to the link's physical buffer (thresholds
    /// at 20% / 60% of the packet capacity, `max_p` 0.1).
    Red,
}

impl DisciplineSpec {
    /// Build the queue for a link of physical capacity `capacity`.
    ///
    /// Deterministic in its arguments.
    pub fn build(&self, capacity: Capacity) -> LinkQueue {
        let pkts = match capacity {
            Capacity::Packets(p) => p,
            Capacity::Bytes(b) => (b / 1500).max(5) as usize,
        };
        match *self {
            DisciplineSpec::DropTail => LinkQueue::drop_tail(capacity),
            DisciplineSpec::Red => LinkQueue::custom(Red::gentle(pkts)),
        }
    }
}

/// Random Early Detection (Floyd & Jacobson '93), the classic AQM
/// contrast to drop-tail: as the *average* queue grows between `min_th`
/// and `max_th`, arriving packets are dropped with rising probability,
/// desynchronizing flows and signalling congestion before the buffer is
/// full. Used by the incentives ablation (§3.1): early random drops give
/// aggressive senders less to gain from overrunning the queue.
///
/// Determinism: the drop decision hashes the packet id (splitmix64), so
/// RED runs are exactly reproducible like everything else in the
/// simulator.
#[derive(Debug)]
pub struct Red {
    capacity: Capacity,
    items: VecDeque<(Packet, Time)>,
    bytes: u64,
    /// EWMA of the queue length in packets.
    avg: f64,
    /// EWMA weight.
    w_q: f64,
    /// Minimum average-queue threshold (packets).
    min_th: f64,
    /// Maximum average-queue threshold (packets).
    max_th: f64,
    /// Drop probability at `max_th`.
    max_p: f64,
    /// Packets since the last early drop (for the spacing correction).
    since_drop: u64,
}

impl Red {
    /// A RED queue. `min_th`/`max_th` are in packets; `capacity` still
    /// bounds the physical buffer (forced drop when truly full).
    pub fn new(capacity: Capacity, min_th: f64, max_th: f64, max_p: f64) -> Self {
        assert!(min_th > 0.0 && max_th > min_th, "need 0 < min_th < max_th");
        assert!(max_p > 0.0 && max_p <= 1.0, "max_p must be in (0, 1]");
        Red {
            capacity,
            items: VecDeque::new(),
            bytes: 0,
            avg: 0.0,
            w_q: 0.002,
            min_th,
            max_th,
            max_p,
            since_drop: 0,
        }
    }

    /// Gentle defaults sized for a queue of `buffer_pkts` packets:
    /// thresholds at 20% and 60% of the buffer, max_p 0.1.
    pub fn gentle(buffer_pkts: usize) -> Self {
        let b = buffer_pkts.max(5) as f64;
        Red::new(Capacity::Packets(buffer_pkts), b * 0.2, b * 0.6, 0.1)
    }

    /// Current average queue estimate, packets.
    pub fn avg_queue(&self) -> f64 {
        self.avg
    }
}

impl Discipline for Red {
    fn offer(&mut self, pkt: Packet, now: Time) -> Verdict {
        // Update the average (classic RED EWMA on each arrival).
        self.avg += self.w_q * (self.items.len() as f64 - self.avg);

        // Physical overflow: forced drop.
        if !self.capacity.admits(self.items.len(), self.bytes, pkt.size) {
            self.since_drop = 0;
            return Verdict::Dropped;
        }

        // Early (probabilistic) drop between the thresholds.
        if self.avg >= self.max_th {
            self.since_drop = 0;
            return Verdict::Dropped;
        }
        if self.avg > self.min_th {
            let p_b = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th);
            // Spacing correction: p_a = p_b / (1 - count * p_b).
            let denom = (1.0 - self.since_drop as f64 * p_b).max(1e-9);
            let p_a = (p_b / denom).min(1.0);
            if unit_hash(pkt.id) < p_a {
                self.since_drop = 0;
                return Verdict::Dropped;
            }
            self.since_drop += 1;
        } else {
            self.since_drop = 0;
        }

        self.bytes += u64::from(pkt.size);
        self.items.push_back((pkt, now));
        Verdict::Enqueued
    }

    fn take(&mut self) -> Option<(Packet, Time)> {
        let (pkt, at) = self.items.pop_front()?;
        self.bytes -= u64::from(pkt.size);
        Some((pkt, at))
    }

    fn len_packets(&self) -> usize {
        self.items.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn capacity(&self) -> Capacity {
        self.capacity
    }
}

/// Fault injection: drops exactly the scripted occurrences of (flow, seq)
/// data segments, delegating everything else to an inner discipline.
///
/// `drops` maps (flow, seq) to how many arrivals of that segment to drop:
/// `1` kills the first transmission but lets a retransmission through;
/// `2` also kills the first retransmission, forcing deeper recovery.
/// ACKs are never scripted (they match on data segments only, by flag).
#[derive(Debug)]
pub struct ScriptedDrop<D: Discipline> {
    inner: D,
    drops: std::collections::HashMap<(u64, u64), u32>,
    scripted_drops: u64,
}

impl<D: Discipline> ScriptedDrop<D> {
    /// Wrap `inner`, dropping each `(flow, seq, count)` entry's first
    /// `count` arrivals.
    pub fn new(inner: D, script: &[(u64, u64, u32)]) -> Self {
        ScriptedDrop {
            inner,
            drops: script.iter().map(|&(f, s, c)| ((f, s), c)).collect(),
            scripted_drops: 0,
        }
    }

    /// Scripted drops executed so far.
    pub fn scripted_drops(&self) -> u64 {
        self.scripted_drops
    }
}

impl<D: Discipline> Discipline for ScriptedDrop<D> {
    fn offer(&mut self, pkt: Packet, now: Time) -> Verdict {
        if !pkt.is_ack() {
            if let Some(remaining) = self.drops.get_mut(&(pkt.flow.0, pkt.seq)) {
                if *remaining > 0 {
                    *remaining -= 1;
                    self.scripted_drops += 1;
                    return Verdict::Dropped;
                }
            }
        }
        self.inner.offer(pkt, now)
    }

    fn take(&mut self) -> Option<(Packet, Time)> {
        self.inner.take()
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn capacity(&self) -> Capacity {
        self.inner.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flags, FlowId, NodeId};

    fn pkt(id: u64, size: u32) -> Packet {
        Packet {
            id,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 0,
            dst_port: 0,
            seq: id,
            ack: 0,
            flags: Flags::empty(),
            size,
            sent_at: Time::ZERO,
            echo: Time::ZERO,
            sack: crate::packet::SackBlocks::EMPTY,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTail::new(Capacity::Packets(10));
        for i in 0..5 {
            assert_eq!(q.offer(pkt(i, 100), Time::from_nanos(i)), Verdict::Enqueued);
        }
        for i in 0..5 {
            let (p, at) = q.take().unwrap();
            assert_eq!(p.id, i);
            assert_eq!(at, Time::from_nanos(i));
        }
        assert!(q.take().is_none());
    }

    #[test]
    fn packet_capacity_drops_tail() {
        let mut q = DropTail::new(Capacity::Packets(2));
        assert_eq!(q.offer(pkt(0, 100), Time::ZERO), Verdict::Enqueued);
        assert_eq!(q.offer(pkt(1, 100), Time::ZERO), Verdict::Enqueued);
        assert_eq!(q.offer(pkt(2, 100), Time::ZERO), Verdict::Dropped);
        assert_eq!(q.len_packets(), 2);
        // Draining frees space again.
        q.take().unwrap();
        assert_eq!(q.offer(pkt(3, 100), Time::ZERO), Verdict::Enqueued);
    }

    #[test]
    fn byte_capacity_accounts_sizes() {
        let mut q = DropTail::new(Capacity::Bytes(250));
        assert_eq!(q.offer(pkt(0, 100), Time::ZERO), Verdict::Enqueued);
        assert_eq!(q.offer(pkt(1, 100), Time::ZERO), Verdict::Enqueued);
        // 100 more would exceed 250.
        assert_eq!(q.offer(pkt(2, 100), Time::ZERO), Verdict::Dropped);
        // ...but 50 fits exactly.
        assert_eq!(q.offer(pkt(3, 50), Time::ZERO), Verdict::Enqueued);
        assert_eq!(q.len_bytes(), 250);
        q.take().unwrap();
        assert_eq!(q.len_bytes(), 150);
    }

    #[test]
    fn scripted_drop_kills_exact_occurrences() {
        let mut q = ScriptedDrop::new(
            DropTail::new(Capacity::Packets(100)),
            &[(0, 2, 1), (0, 4, 2)],
        );
        // seq 2: first arrival dropped, second accepted.
        assert_eq!(q.offer(pkt(2, 100), Time::ZERO), Verdict::Dropped);
        assert_eq!(q.offer(pkt(2, 100), Time::ZERO), Verdict::Enqueued);
        // seq 4: first two arrivals dropped, third accepted.
        assert_eq!(q.offer(pkt(4, 100), Time::ZERO), Verdict::Dropped);
        assert_eq!(q.offer(pkt(4, 100), Time::ZERO), Verdict::Dropped);
        assert_eq!(q.offer(pkt(4, 100), Time::ZERO), Verdict::Enqueued);
        // Unscripted segments sail through.
        assert_eq!(q.offer(pkt(3, 100), Time::ZERO), Verdict::Enqueued);
        assert_eq!(q.scripted_drops(), 3);
    }

    #[test]
    fn scripted_drop_never_touches_acks() {
        let mut q = ScriptedDrop::new(DropTail::new(Capacity::Packets(100)), &[(0, 2, 5)]);
        let mut ack = pkt(2, 52);
        ack.flags = Flags::ACK;
        assert_eq!(q.offer(ack, Time::ZERO), Verdict::Enqueued);
        assert_eq!(q.scripted_drops(), 0);
    }

    #[test]
    fn red_empty_queue_never_early_drops() {
        let mut q = Red::new(Capacity::Packets(100), 5.0, 15.0, 0.1);
        for i in 0..5 {
            assert_eq!(q.offer(pkt(i, 100), Time::ZERO), Verdict::Enqueued);
            q.take().unwrap(); // drain immediately: avg stays ~0
        }
        assert!(q.avg_queue() < 1.0);
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let mut q = Red::new(Capacity::Packets(1_000), 5.0, 15.0, 0.5);
        // Fill without draining: the average climbs past min_th and early
        // drops must appear well before the physical limit.
        let mut dropped = 0;
        for i in 0..3_000u64 {
            if q.offer(pkt(i, 100), Time::ZERO) == Verdict::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "no early drops despite sustained overload");
        assert!(
            q.len_packets() < 1_000,
            "RED should not rely on the physical limit"
        );
        assert!(q.avg_queue() > 5.0);
    }

    #[test]
    fn red_hard_caps_at_physical_capacity() {
        let mut q = Red::new(Capacity::Packets(10), 50.0, 100.0, 0.01);
        // Thresholds far above capacity: only forced drops apply.
        let mut accepted = 0;
        for i in 0..50u64 {
            if q.offer(pkt(i, 100), Time::ZERO) == Verdict::Enqueued {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 10);
        assert_eq!(q.len_packets(), 10);
    }

    #[test]
    fn red_is_deterministic() {
        let run = || {
            let mut q = Red::gentle(50);
            let mut verdicts = Vec::new();
            for i in 0..500u64 {
                verdicts.push(q.offer(pkt(i, 100), Time::ZERO) == Verdict::Enqueued);
                if i % 3 == 0 {
                    q.take();
                }
            }
            verdicts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn byte_and_packet_accounting_consistent() {
        let mut q = DropTail::new(Capacity::Packets(100));
        let mut expect_bytes = 0u64;
        for i in 0..20 {
            let size = 40 + (i as u32) * 13;
            expect_bytes += u64::from(size);
            q.offer(pkt(i, size), Time::ZERO);
        }
        assert_eq!(q.len_packets(), 20);
        assert_eq!(q.len_bytes(), expect_bytes);
        while q.take().is_some() {}
        assert_eq!(q.len_bytes(), 0);
        assert_eq!(q.len_packets(), 0);
    }
}
