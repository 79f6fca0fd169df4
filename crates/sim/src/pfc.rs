//! The engine's half of PFC: PAUSE and RESUME frames travelling upstream,
//! the pause state of each link's transmitting end, and the watchdog's
//! drain. The switch's half — thresholds, per-ingress attribution and
//! watchdog epochs — is in [`crate::switch`].

use crate::engine::{Event, SimCore};
use crate::packet::{LinkId, NodeId};
use crate::queue::PktRef;
use crate::switch::PfcEdge;
use crate::time::Time;
use crate::trace::{TraceEvent, TraceOp};

/// PFC state of one link's transmitting end. A paused link finishes the
/// frame in flight but starts no new serialization (head-of-line blocking
/// on everything queued).
#[derive(Debug, Default)]
pub(crate) struct Pause {
    /// True while the downstream switch has this link paused.
    pub(crate) paused: bool,
    /// When the current pause began (valid while `paused`).
    since: Time,
    /// Accumulated paused nanoseconds over closed pause intervals.
    closed_ns: u64,
}

impl Pause {
    /// Nanoseconds spent paused up to `now`, the open interval included.
    pub(crate) fn paused_ns(&self, now: Time) -> u64 {
        let open = if self.paused {
            now.saturating_since(self.since).as_nanos()
        } else {
            0
        };
        self.closed_ns + open
    }
}

impl SimCore {
    /// Packet `h` leaves the queue of `link_id`, an egress of `from`: if
    /// `from` is a switch, return the packet's shared-buffer bytes and
    /// ingress attribution. Falling to the resume threshold un-pauses the
    /// ingress (the returned XON edge).
    pub(crate) fn switch_release(
        &mut self,
        from: NodeId,
        link_id: LinkId,
        h: PktRef,
    ) -> Option<PfcEdge> {
        let sw = self.switches[from.0 as usize].as_deref_mut()?;
        sw.release(link_id, self.pool[h].size, self.pool.ingress(h))
    }

    /// Turn switch-produced pause-plane transitions, in the order they
    /// were decided, into scheduled events: each PAUSE/RESUME frame
    /// arrives at the transmitting end of its ingress link one propagation
    /// delay upstream, and every XOFF arms a watchdog at the emitting
    /// switch.
    pub(crate) fn emit_pfc(&mut self, edges: impl IntoIterator<Item = PfcEdge>) {
        for edge in edges {
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
    }

    /// A PFC frame arrives at `link`'s transmitting end: gate (or
    /// restart) serialization and account paused time.
    pub(crate) fn on_pfc(&mut self, link_id: LinkId, xoff: bool) {
        let now = self.now;
        let p = &mut self.links[link_id.0 as usize].pause;
        if xoff {
            if !p.paused {
                p.paused = true;
                p.since = now;
            }
            return;
        }
        if !p.paused {
            return;
        }
        p.paused = false;
        p.closed_ns += now.saturating_since(p.since).as_nanos();
        self.begin_tx(link_id);
    }

    /// A pause-storm watchdog expires. If the ingress has been
    /// continuously paused since the XOFF that armed it (`epoch` still
    /// matches), the switch is in a sustained pause — possibly a cyclic
    /// buffer dependency that will never resolve on its own. Break it:
    /// drain this switch's egress queues (ascending link id, FIFO order)
    /// until the stuck ingress clears its resume threshold, counting the
    /// victims as `pfc_dropped`, then force-resume.
    pub(crate) fn on_pfc_watchdog(&mut self, link: LinkId, epoch: u64) {
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
                let Some((h, _)) = links[e.0 as usize].queue.take(pool) else {
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
        self.emit_pfc(resumes);
    }
}
