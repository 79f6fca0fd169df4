//! The lazy link clock and the fault plane's link edges.
//!
//! A packet handed to a link is queued (or dropped, drop-tail),
//! serialized at the link rate, then delivered to the far node after the
//! propagation delay. Its whole crossing is settled when it starts
//! serializing: the fault verdict as of `tx_end`, and a `Deliver` at
//! `tx_end` + propagation. The end of serialization is no event; when a
//! packet waits behind it, it goes on `SimCore::ending`, and the next frame
//! starts there before anything but a fault edge at that instant. A
//! finished frame is counted into the link's stats on the next `begin_tx`,
//! on every `run_until` return and on every `Ctx::link_stats` read.

use std::cmp::Reverse;

use crate::engine::{Event, SimCore};
use crate::faults::{DownPolicy, EgressVerdict, LinkFault};
use crate::packet::{splitmix64, LinkId};
use crate::pfc::Pause;
use crate::queue::{LinkQueue, PktRef, Verdict};
use crate::stats::{LinkStats, RollingUtil};
use crate::switch::AdmitOutcome;
use crate::time::{Dur, Time};
use crate::trace::TraceOp;

/// Runtime state of one link.
pub(crate) struct LinkState {
    pub(crate) queue: LinkQueue,
    /// End of the serialization begun last; free from then on unless
    /// `wake` (a packet waits, and `tx_end` is on `SimCore::ending`).
    tx_end: Time,
    /// That serialization's `(bytes, duration)` until it is settled.
    unsettled: Option<(u32, Dur)>,
    pub(crate) wake: bool,
    pub(crate) stats: LinkStats,
    pub(crate) rolling: RollingUtil,
    pub(crate) pause: Pause,
    /// Chaos-plane state, when an [`crate::faults::ImpairmentPlan`] is
    /// installed. Boxed: the overwhelmingly common case is no faults, and
    /// the untouched pointer keeps `LinkState` small for the hot path.
    pub(crate) fault: Option<Box<LinkFault>>,
}

impl LinkState {
    pub(crate) fn new(queue: LinkQueue, rolling: RollingUtil) -> Self {
        LinkState {
            queue,
            tx_end: Time::ZERO,
            unsettled: None,
            wake: false,
            stats: LinkStats::new(),
            rolling,
            pause: Pause::default(),
            fault: None,
        }
    }

    /// Nothing serializing and no frame end on `ending`: an arrival may
    /// start transmitting at once.
    pub(crate) fn is_free(&self, now: Time) -> bool {
        !self.wake && self.tx_end <= now
    }

    /// Count the last serialization into `stats` and `rolling` if it
    /// ended by `now`: the same values as counting it at its end.
    pub(crate) fn settle(&mut self, now: Time) {
        let ended = self.tx_end <= now;
        if let Some((bytes, tx)) = self.unsettled.take_if(|_| ended) {
            self.stats.transmitted += 1;
            self.stats.bytes_transmitted += u64::from(bytes);
            self.stats.busy += tx;
            self.rolling.end_busy(self.tx_end);
        }
    }

    /// Whether a fault plan has the link down.
    pub(crate) fn is_down(&self) -> bool {
        self.fault.as_deref().is_some_and(|f| !f.up)
    }
}

impl SimCore {
    /// Every exit that does not leave `h` queued on the link releases it.
    pub(crate) fn enqueue_on_link(&mut self, link_id: LinkId, h: PktRef, via: LinkId) {
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
        if let Some(sw) = self.switches[from.0 as usize].as_deref_mut() {
            match sw.admit(link_id, via, &mut self.pool[h]) {
                AdmitOutcome::Rejected => {
                    self.links[link_id.0 as usize].stats.dropped += 1;
                    self.trace(TraceOp::Drop, Some(link_id), None, h);
                    self.pool.release(h);
                    return;
                }
                AdmitOutcome::Admitted { ingress, edge } => {
                    self.pool.set_ingress(h, ingress);
                    self.emit_pfc(edge);
                }
            }
        }
        let ls = &mut self.links[link_id.0 as usize];
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
                    self.ending.push(Reverse((ls.tx_end, link_id)));
                }
            }
            Verdict::Dropped => {
                ls.stats.dropped += 1;
                // The inner queue refused a packet the shared buffer
                // admitted: give the pool its bytes back.
                let edge = self.switch_release(from, link_id, h);
                self.trace(TraceOp::Drop, Some(link_id), None, h);
                self.pool.release(h);
                self.emit_pfc(edge);
            }
        }
    }

    /// Hand every link whose frame has ended with packets waiting to its
    /// next packet, in ascending link id. The loop calls this at every
    /// frame end, before any event but a fault edge at that instant, so
    /// what happens there does not depend on when the end was pushed.
    #[inline]
    pub(crate) fn end_frames(&mut self) {
        while self.ending.peek().is_some_and(|e| e.0 .0 <= self.now) {
            let Reverse((_, link_id)) = self.ending.pop().expect("peeked");
            self.links[link_id.0 as usize].wake = false;
            self.begin_tx(link_id);
        }
    }

    /// Start serializing the next queued packet, if the link may, and
    /// settle its whole crossing now (see the module docs).
    pub(crate) fn begin_tx(&mut self, link_id: LinkId) {
        let now = self.now;
        let spec = self.topology.link(link_id);
        let (rate, from, mut delay, jitter) = (spec.rate_bps, spec.from, spec.delay, spec.jitter);
        let ls = &mut self.links[link_id.0 as usize];
        // Nothing starts while a frame is on the wire or the link is down
        // (parked packets stay queued until the healing edge) or paused (a
        // PFC pause holds the queue until the RESUME frame or a watchdog
        // drain: head-of-line blocking by design).
        if !ls.is_free(now) || ls.is_down() || ls.pause.paused {
            return;
        }
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
            self.ending.push(Reverse((tx_end, link_id)));
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
        self.emit_pfc(edge);
    }

    /// Execute a scheduled link up/down transition. Healing restarts
    /// transmission of parked packets; a down edge under the Drop policy
    /// drains the queue into the blackhole counter.
    pub(crate) fn on_fault_edge(&mut self, link_id: LinkId, up: bool) {
        let ls = &mut self.links[link_id.0 as usize];
        let Some(f) = ls.fault.as_deref_mut() else {
            return;
        };
        if !f.apply_edge(up) {
            // Redundant edge (e.g. a flap regime ending while up).
            return;
        }
        if up {
            return self.begin_tx(link_id);
        }
        if f.plan.down_policy != DownPolicy::Drop {
            return;
        }
        let from = self.topology.link(link_id).from;
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
        self.emit_pfc(edges);
    }
}
