//! The receiving endpoint: cumulative acknowledgments with duplicate-ACK
//! generation on gaps, per classic TCP. One receiver agent serves the
//! (possibly many, sequential) flows of one sender.

use std::any::Any;
use std::collections::VecDeque;

use phi_sim::engine::{Agent, Ctx};
use phi_sim::packet::{wire, Flags, FlowId, IdMap, Packet, SackBlocks};
use phi_sim::time::Time;

/// Per-flow receive state.
#[derive(Debug, Default)]
struct RecvFlow {
    /// Next expected segment (cumulative ack value).
    expect: u64,
    /// Out-of-order segments held for reassembly: segment `expect + i`
    /// is held when `held[i]` is (never `held[0]`, the one expected).
    held: VecDeque<bool>,
    /// Duplicate data segments seen (spurious retransmissions).
    dup_data: u64,
    /// Sequence number of the FIN-marked final segment, once seen (the
    /// flag must survive out-of-order arrival and reassembly). The flow is
    /// finished once the cumulative ack passes it.
    fin_seq: Option<u64>,
}

/// A TCP-like receiver: acknowledges every arriving data segment with the
/// current cumulative ack, echoing the segment's send timestamp (and its
/// retransmission bit, so the sender can apply Karn's rule).
pub struct TcpReceiver {
    flows: IdMap<FlowId, RecvFlow>,
}

impl TcpReceiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        TcpReceiver {
            flows: IdMap::default(),
        }
    }

    /// Segments received in order for `flow` (the cumulative ack point).
    pub fn progress(&self, flow: FlowId) -> u64 {
        self.flows.get(&flow).map(|f| f.expect).unwrap_or(0)
    }

    /// True once `flow`'s FIN has been consumed in order.
    pub fn finished(&self, flow: FlowId) -> bool {
        let state = self.flows.get(&flow);
        state.is_some_and(|f| f.fin_seq.is_some_and(|fin| f.expect > fin))
    }

    /// Duplicate (already-delivered) data segments observed on `flow`.
    pub fn dup_data(&self, flow: FlowId) -> u64 {
        self.flows.get(&flow).map(|f| f.dup_data).unwrap_or(0)
    }
}

impl Default for TcpReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Agent for TcpReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.is_ack() {
            // We are a pure sink; stray ACKs are ignored.
            return;
        }
        let state = self.flows.entry(pkt.flow).or_default();
        if pkt.is_fin() {
            state.fin_seq = Some(pkt.seq);
        }

        if pkt.seq >= state.expect {
            let i = (pkt.seq - state.expect) as usize;
            if i >= state.held.len() {
                state.held.resize(i + 1, false);
            }
            state.held[i] = true;
            // Deliver the contiguous run this segment may have completed.
            while state.held.front() == Some(&true) {
                state.held.pop_front();
                state.expect += 1;
            }
        } else {
            state.dup_data += 1;
        }

        // Acknowledge immediately (no delayed ACKs: ns-2's Cubic experiments
        // run with per-segment acking, and delayed acks would only rescale
        // window growth uniformly across all schemes under test).
        let mut flags = Flags::ACK;
        if pkt.is_retx() {
            flags = flags.union(Flags::RETX);
        }
        // ECN: echo a switch's Congestion Experienced mark back to the
        // sender (per-packet, DCTCP-style — no latched ECE state, so the
        // sender sees the exact marked fraction).
        if pkt.is_ce() {
            flags = flags.union(Flags::ECE);
        }
        // SACK: report up to three contiguous out-of-order ranges above the
        // cumulative ack, lowest first (the holes the sender should fill
        // first come ahead of them).
        let mut sack = SackBlocks::EMPTY;
        let mut held = (state.expect..)
            .zip(&state.held)
            .filter_map(|(seq, &h)| h.then_some(seq))
            .peekable();
        while let Some(start) = held.next() {
            let mut end = start + 1;
            while held.next_if_eq(&end).is_some() {
                end += 1;
            }
            if !sack.push(start, end) {
                break;
            }
        }
        // At most three blocks (by their type), each starting above the
        // cumulative ack and above the end of the block before it:
        // ascending, disjoint and never adjacent.
        let mut floor = state.expect;
        for (start, end) in sack.iter() {
            debug_assert!(floor < start && start < end, "{sack:?} over {floor}");
            floor = end;
        }
        let ack = Packet {
            id: 0,
            flow: pkt.flow,
            src: ctx.node(),
            dst: pkt.src,
            src_port: pkt.dst_port,
            dst_port: pkt.src_port,
            seq: pkt.seq,
            ack: state.expect,
            flags,
            size: wire::ACK_BYTES,
            sent_at: Time::ZERO, // stamped by the engine
            echo: pkt.sent_at,
            sack,
        };
        ctx.send(ack);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_sim::engine::Simulator;
    use phi_sim::packet::NodeId;
    use phi_sim::queue::Capacity;
    use phi_sim::time::Dur;
    use phi_sim::topology::TopologyBuilder;

    /// Sends a scripted sequence of (seq, fin) data segments, recording acks.
    struct Script {
        peer: NodeId,
        sends: Vec<(u64, bool, bool)>, // (seq, fin, retx)
        acks: Vec<Packet>,
        next: usize,
    }

    impl Agent for Script {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(Dur::ZERO, 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
            if self.next < self.sends.len() {
                let (seq, fin, retx) = self.sends[self.next];
                self.next += 1;
                let mut flags = Flags::empty();
                if fin {
                    flags = flags.union(Flags::FIN);
                }
                if retx {
                    flags = flags.union(Flags::RETX);
                }
                let mut p = phi_sim::engine::packet_to(self.peer, 80, 10, FlowId(1), 1500);
                p.seq = seq;
                p.flags = flags;
                ctx.send(p);
                ctx.set_timer_after(Dur::from_millis(1), 0);
            }
        }
        fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx<'_>) {
            self.acks.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The acks `sends` draw, and flow 1's `(progress, finished,
    /// dup_data)` as the receiver reports them.
    fn run_script(sends: Vec<(u64, bool, bool)>) -> (Vec<Packet>, (u64, bool, u64)) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        b.add_duplex(
            a,
            z,
            1_000_000_000,
            Dur::from_micros(10),
            Capacity::Packets(1000),
        );
        let mut sim = Simulator::new(b.build());
        let script = sim.add_agent(
            a,
            10,
            Box::new(Script {
                peer: z,
                sends,
                acks: Vec::new(),
                next: 0,
            }),
        );
        let recv = sim.add_agent(z, 80, Box::new(TcpReceiver::new()));
        sim.run_to_completion();
        let acks = sim.agent_as::<Script>(script).unwrap().acks.clone();
        let r = sim.agent_as::<TcpReceiver>(recv).unwrap();
        let flow = FlowId(1);
        (acks, (r.progress(flow), r.finished(flow), r.dup_data(flow)))
    }

    #[test]
    fn in_order_delivery_acks_cumulatively() {
        let (acks, (progress, finished, _)) =
            run_script(vec![(0, false, false), (1, false, false), (2, true, false)]);
        assert_eq!(
            acks.iter().map(|a| a.ack).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(finished);
        assert_eq!(progress, 3);
    }

    #[test]
    fn gap_generates_duplicate_acks_then_jumps() {
        // Segment 1 lost: 0, 2, 3 arrive, then 1 retransmitted.
        let (acks, _) = run_script(vec![
            (0, false, false),
            (2, false, false),
            (3, true, false),
            (1, false, true),
        ]);
        // Acks: 1, then dup 1, dup 1, then jump to 4.
        assert_eq!(
            acks.iter().map(|a| a.ack).collect::<Vec<_>>(),
            vec![1, 1, 1, 4]
        );
        // The ack for the retransmitted segment echoes the RETX bit.
        assert!(acks[3].is_retx());
        assert!(!acks[0].is_retx());
    }

    #[test]
    fn spurious_retransmission_counted() {
        let (acks, (_, _, dup_data)) = run_script(vec![
            (0, false, false),
            (0, false, true), // duplicate of an already-delivered segment
            (1, true, false),
        ]);
        assert_eq!(
            acks.iter().map(|a| a.ack).collect::<Vec<_>>(),
            vec![1, 1, 2]
        );
        assert_eq!(dup_data, 1);
    }

    #[test]
    fn sack_reports_the_three_lowest_runs_above_the_ack() {
        // Segment 1 and the holes at 4, 6 and 10 are missing: four runs
        // wait above the cumulative ack, and only the lowest three fit.
        let mut sends: Vec<_> = [0, 2, 3, 5, 7, 8, 9, 11]
            .map(|seq| (seq, false, false))
            .to_vec();
        sends.push((1, false, true));
        let (acks, _) = run_script(sends);
        let blocks = |i: usize| acks[i].sack.iter().collect::<Vec<_>>();
        assert_eq!(blocks(0), vec![]);
        assert_eq!(blocks(6), vec![(2, 4), (5, 6), (7, 10)]);
        assert_eq!(blocks(7), vec![(2, 4), (5, 6), (7, 10)]);
        // The retransmitted 1 moves the ack to 4, and the fourth run in.
        assert_eq!(acks[8].ack, 4);
        assert_eq!(blocks(8), vec![(5, 6), (7, 10), (11, 12)]);
    }

    #[test]
    fn flows_are_isolated() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.progress(FlowId(9)), 0);
        assert!(!r.finished(FlowId(9)));
        r.flows.entry(FlowId(9)).or_default().expect = 5;
        assert_eq!(r.progress(FlowId(9)), 5);
        assert_eq!(r.progress(FlowId(10)), 0);
    }
}
