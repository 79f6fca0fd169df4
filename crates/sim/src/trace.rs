//! Packet-level tracing, ns-2 style.
//!
//! A [`Tracer`] installed on the simulator observes every queue
//! admission, drop, transmission, and delivery. [`TraceWriter`] renders
//! the classic ns-2 trace line format (`+`/`d`/`-`/`r` operations) so
//! traces can be eyeballed or diffed; [`SharedTraceCollector`] buffers
//! events where the caller can read them, for programmatic assertions.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::packet::{LinkId, NodeId, Packet};
use crate::time::Time;

/// One observable packet event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Packet admitted to a link queue.
    Enqueue,
    /// Packet dropped at a link queue.
    Drop,
    /// Packet dequeued to serialize (ns-2's `-`); any fault verdict on
    /// it (`Blackhole`, `Corrupt`, `Duplicate`) is recorded with it.
    Transmit,
    /// Packet delivered to its destination node.
    Deliver,
    /// Packet destroyed by the fault plane (down link or random loss).
    Blackhole,
    /// Packet corrupted in transit and discarded at the link egress.
    Corrupt,
    /// An extra copy of the packet was created by the fault plane.
    Duplicate,
    /// Packet destroyed by a PFC pause-storm watchdog drain.
    PfcDrop,
}

/// A traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Time,
    /// What happened.
    pub op: TraceOp,
    /// The link involved (`None` for deliveries, which happen at nodes).
    pub link: Option<LinkId>,
    /// The node involved (deliveries only).
    pub node: Option<NodeId>,
    /// Packet identity fields (copied out; the packet itself moves on).
    pub packet_id: u64,
    /// Flow id.
    pub flow: u64,
    /// Sequence number.
    pub seq: u64,
    /// Wire size, bytes.
    pub size: u32,
    /// True for ACK packets.
    pub is_ack: bool,
}

impl TraceEvent {
    pub(crate) fn new(
        at: Time,
        op: TraceOp,
        link: Option<LinkId>,
        node: Option<NodeId>,
        pkt: &Packet,
    ) -> Self {
        TraceEvent {
            at,
            op,
            link,
            node,
            packet_id: pkt.id,
            flow: pkt.flow.0,
            seq: pkt.seq,
            size: pkt.size,
            is_ack: pkt.is_ack(),
        }
    }
}

/// Observes simulator packet events.
pub trait Tracer {
    /// One event; called synchronously from the event loop.
    fn event(&mut self, ev: &TraceEvent);
}

/// A collector whose buffer is shared with the caller, so events can be
/// inspected while (or after) the simulator owns the tracer half.
#[derive(Debug, Default)]
pub struct SharedTraceCollector {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl SharedTraceCollector {
    /// Returns the tracer to install and the shared buffer to read.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (Box<dyn Tracer>, Rc<RefCell<Vec<TraceEvent>>>) {
        let events = Rc::new(RefCell::new(Vec::new()));
        let tracer = SharedTraceCollector {
            events: events.clone(),
        };
        (Box::new(tracer), events)
    }
}

impl Tracer for SharedTraceCollector {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.borrow_mut().push(ev.clone());
    }
}

/// Renders ns-2-style trace lines into a growing string:
///
/// ```text
/// + 1.234567 l0 f3 seq 41 1500 tcp
/// d 1.234567 l0 f3 seq 42 1500 tcp
/// - 1.235367 l0 f3 seq 41 1500 tcp
/// r 1.310367 n5 f3 seq 41 1500 tcp
/// ```
#[derive(Debug, Default)]
pub struct TraceWriter {
    out: String,
}

impl TraceWriter {
    /// An empty writer.
    pub fn new() -> Self {
        TraceWriter::default()
    }

    /// The rendered trace so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

impl Tracer for TraceWriter {
    fn event(&mut self, ev: &TraceEvent) {
        let op = match ev.op {
            TraceOp::Enqueue => '+',
            TraceOp::Drop => 'd',
            TraceOp::Transmit => '-',
            TraceOp::Deliver => 'r',
            TraceOp::Blackhole => 'x',
            TraceOp::Corrupt => 'c',
            TraceOp::Duplicate => '2',
            TraceOp::PfcDrop => 'w',
        };
        let place = match (ev.link, ev.node) {
            (Some(l), _) => format!("{l}"),
            (None, Some(n)) => format!("{n}"),
            _ => "?".into(),
        };
        let kind = if ev.is_ack { "ack" } else { "tcp" };
        let _ = writeln!(
            self.out,
            "{op} {:.6} {place} f{} seq {} {} {kind}",
            ev.at.as_secs_f64(),
            ev.flow,
            ev.seq,
            ev.size,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flags, FlowId, SackBlocks};

    fn pkt(id: u64, ack: bool) -> Packet {
        Packet {
            id,
            flow: FlowId(3),
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 1,
            dst_port: 2,
            seq: 41,
            ack: 0,
            flags: if ack { Flags::ACK } else { Flags::empty() },
            size: 1500,
            sent_at: Time::ZERO,
            echo: Time::ZERO,
            sack: SackBlocks::EMPTY,
        }
    }

    #[test]
    fn writer_renders_ns2_style_lines() {
        let mut w = TraceWriter::new();
        let t = Time::from_millis(1_234);
        w.event(&TraceEvent::new(
            t,
            TraceOp::Enqueue,
            Some(LinkId(0)),
            None,
            &pkt(7, false),
        ));
        w.event(&TraceEvent::new(
            t,
            TraceOp::Deliver,
            None,
            Some(NodeId(5)),
            &pkt(7, true),
        ));
        let lines: Vec<&str> = w.as_str().lines().collect();
        assert_eq!(lines[0], "+ 1.234000 l0 f3 seq 41 1500 tcp");
        assert_eq!(lines[1], "r 1.234000 n5 f3 seq 41 1500 ack");
    }
}
