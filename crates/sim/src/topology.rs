//! Topology description and static routing.
//!
//! A topology is a directed graph of nodes and unidirectional links. Routes
//! are computed once, up front, as shortest paths by hop count (BFS per
//! destination) — the experiments in the paper all run on static topologies
//! where hop-count shortest paths are unique by construction.
//!
//! [`dumbbell`] builds the Figure 1 topology: N sender hosts and N receiver
//! hosts joined by a single bottleneck link whose buffer defaults to five
//! times the bandwidth-delay product, exactly as the paper configures ns-2.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::packet::{LinkId, NodeId};
use crate::queue::Capacity;
use crate::time::Dur;

/// Static description of one unidirectional link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Node the link transmits from.
    pub from: NodeId,
    /// Node the link delivers to.
    pub to: NodeId,
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: Dur,
    /// Queue capacity at the head of the link.
    pub capacity: Capacity,
    /// Maximum extra per-packet delay jitter. Each delivered packet gets a
    /// deterministic pseudo-random extra delay in `[0, jitter)` derived by
    /// hashing its packet id, so jittered runs stay reproducible. Non-zero
    /// jitter reorders packets (used by the §3.2 dup-ACK experiments).
    pub jitter: Dur,
}

impl LinkSpec {
    /// A link spec with no jitter.
    pub fn new(from: NodeId, to: NodeId, rate_bps: u64, delay: Dur, capacity: Capacity) -> Self {
        LinkSpec {
            from,
            to,
            rate_bps,
            delay,
            capacity,
            jitter: Dur::ZERO,
        }
    }
}

/// An immutable network topology with precomputed next-hop routes.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: usize,
    links: Vec<LinkSpec>,
    /// `routes[at * nodes + dst]` = link to take at node `at` toward `dst`.
    routes: Vec<Option<LinkId>>,
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: usize,
    links: Vec<LinkSpec>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes as u32);
        self.nodes += 1;
        id
    }

    /// Add a unidirectional link and return its id.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        assert!(
            (spec.from.0 as usize) < self.nodes && (spec.to.0 as usize) < self.nodes,
            "link endpoints must be existing nodes"
        );
        assert_ne!(spec.from, spec.to, "self-loops are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(spec);
        id
    }

    /// Add a symmetric pair of links between `a` and `b`.
    ///
    /// Returns `(a→b, b→a)`.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate_bps: u64,
        delay: Dur,
        capacity: Capacity,
    ) -> (LinkId, LinkId) {
        let fwd = self.add_link(LinkSpec::new(a, b, rate_bps, delay, capacity));
        let rev = self.add_link(LinkSpec::new(b, a, rate_bps, delay, capacity));
        (fwd, rev)
    }

    /// Compute routes and freeze the topology.
    ///
    /// # Panics
    /// Panics if the graph is disconnected when treated as directed — every
    /// node must be able to reach every other node, since the experiments
    /// assume full reachability.
    pub fn build(self) -> Topology {
        let nodes = self.nodes;
        let mut routes = vec![None; nodes * nodes];

        // Outgoing adjacency: for each node, links departing it.
        let mut out: Vec<Vec<(LinkId, NodeId)>> = vec![Vec::new(); nodes];
        for (idx, l) in self.links.iter().enumerate() {
            out[l.from.0 as usize].push((LinkId(idx as u32), l.to));
        }

        // BFS backwards from each destination over the reversed graph gives
        // shortest-path next hops. Equivalent and simpler: BFS forward from
        // every source. Node counts here are tiny (dumbbells), so O(V·E) is
        // more than fine.
        for src in 0..nodes {
            let mut dist = vec![usize::MAX; nodes];
            let mut first_link: Vec<Option<LinkId>> = vec![None; nodes];
            dist[src] = 0;
            let mut q = VecDeque::new();
            q.push_back(src);
            while let Some(at) = q.pop_front() {
                for &(lid, next) in &out[at] {
                    let n = next.0 as usize;
                    if dist[n] == usize::MAX {
                        dist[n] = dist[at] + 1;
                        first_link[n] = if at == src { Some(lid) } else { first_link[at] };
                        q.push_back(n);
                    }
                }
            }
            for dst in 0..nodes {
                if dst == src {
                    continue;
                }
                assert!(
                    dist[dst] != usize::MAX,
                    "node n{dst} unreachable from n{src}; topology must be strongly connected"
                );
                routes[src * nodes + dst] = first_link[dst];
            }
        }

        Topology {
            nodes,
            links: self.links,
            routes,
        }
    }
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The spec of a link.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    /// All link specs, indexed by `LinkId`.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The link a packet at `at` destined for `dst` should take.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if at == dst {
            return None;
        }
        self.routes[at.0 as usize * self.nodes + dst.0 as usize]
    }
}

/// Parameters for the Figure 1 dumbbell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DumbbellSpec {
    /// Number of sender/receiver host pairs.
    pub pairs: usize,
    /// Bottleneck rate, bits per second.
    pub bottleneck_bps: u64,
    /// End-to-end base (unloaded) round-trip time.
    pub rtt: Dur,
    /// Bottleneck buffer as a multiple of the bandwidth-delay product.
    pub buffer_bdp_multiple: f64,
    /// Access link rate, bits per second.
    pub access_bps: u64,
}

impl DumbbellSpec {
    /// The paper's Table 3 topology: 15 Mbit/s bottleneck, 150 ms RTT,
    /// buffer = 5 × BDP, 1 Gbit/s access links.
    pub fn paper(pairs: usize) -> Self {
        DumbbellSpec {
            pairs,
            bottleneck_bps: 15_000_000,
            rtt: Dur::from_millis(150),
            buffer_bdp_multiple: 5.0,
            access_bps: 1_000_000_000,
        }
    }

    /// Bandwidth-delay product of the bottleneck in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.bottleneck_bps as f64 * self.rtt.as_secs_f64() / 8.0) as u64
    }
}

/// A built dumbbell: the topology plus the ids experiments need.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// The network graph.
    pub topology: Topology,
    /// Host nodes on the sending side, one per pair.
    pub senders: Vec<NodeId>,
    /// Host nodes on the receiving side, one per pair.
    pub receivers: Vec<NodeId>,
    /// Left aggregation router.
    pub left_router: NodeId,
    /// Right aggregation router.
    pub right_router: NodeId,
    /// The bottleneck link (left router → right router).
    pub bottleneck: LinkId,
    /// The reverse-path link (right router → left router), carrying ACKs.
    pub reverse: LinkId,
}

/// Build the paper's dumbbell (Figure 1).
///
/// Per-pair access links run at `spec.access_bps` with negligible delay;
/// the base RTT is carried almost entirely by the bottleneck pair so that
/// `spec.rtt` is the unloaded round-trip between any sender/receiver pair.
/// The bottleneck buffer holds `buffer_bdp_multiple × BDP` bytes (Figure 1
/// uses 5×); access queues are deep enough never to drop.
pub fn dumbbell(spec: &DumbbellSpec) -> Dumbbell {
    assert!(spec.pairs > 0, "dumbbell needs at least one pair");
    let mut b = TopologyBuilder::new();

    let left_router = b.add_node();
    let right_router = b.add_node();

    // Tiny access delay, accounted for in the bottleneck delay below.
    let access_delay = Dur::from_micros(10);
    let one_way = spec.rtt / 2;
    let backbone_delay = one_way.saturating_sub(access_delay * 2);

    let buffer_bytes =
        ((spec.bdp_bytes() as f64) * spec.buffer_bdp_multiple).max(2.0 * 1500.0) as u64;
    let (bottleneck, reverse) = b.add_duplex(
        left_router,
        right_router,
        spec.bottleneck_bps,
        backbone_delay,
        Capacity::Bytes(buffer_bytes),
    );

    // Access queues: effectively unbounded (hosts pace themselves; losses
    // must happen at the bottleneck, as in the ns-2 setup).
    let access_cap = Capacity::Packets(1_000_000);
    let mut senders = Vec::with_capacity(spec.pairs);
    let mut receivers = Vec::with_capacity(spec.pairs);
    for _ in 0..spec.pairs {
        let s = b.add_node();
        let r = b.add_node();
        b.add_duplex(s, left_router, spec.access_bps, access_delay, access_cap);
        b.add_duplex(right_router, r, spec.access_bps, access_delay, access_cap);
        senders.push(s);
        receivers.push(r);
    }

    Dumbbell {
        topology: b.build(),
        senders,
        receivers,
        left_router,
        right_router,
        bottleneck,
        reverse,
    }
}

/// Parameters for a "parking lot" chain: R0 — R1 — … — Rn with hosts on
/// each router, the classic multi-bottleneck benchmark topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParkingLotSpec {
    /// Number of backbone links (routers = hops + 1).
    pub hops: usize,
    /// Rate of every backbone link, bits per second.
    pub backbone_bps: u64,
    /// One-way propagation delay per backbone link.
    pub hop_delay: Dur,
    /// Backbone queue capacity per link.
    pub capacity: Capacity,
    /// Access link rate, bits per second.
    pub access_bps: u64,
}

/// A built parking lot.
#[derive(Debug, Clone)]
pub struct ParkingLot {
    /// The network graph.
    pub topology: Topology,
    /// The backbone routers, in chain order.
    pub routers: Vec<NodeId>,
    /// Forward backbone links (`routers[i] → routers[i+1]`).
    pub backbone: Vec<LinkId>,
    /// End-to-end host pair: (source at router 0, sink at the last router).
    pub long_path: (NodeId, NodeId),
    /// Per-hop cross-traffic host pairs: `cross[i]` spans backbone link `i`.
    pub cross: Vec<(NodeId, NodeId)>,
}

/// Build a parking lot: one host pair spanning the whole chain plus one
/// single-hop cross-traffic pair per backbone link.
pub fn parking_lot(spec: &ParkingLotSpec) -> ParkingLot {
    assert!(spec.hops >= 2, "a parking lot needs at least two hops");
    let mut b = TopologyBuilder::new();
    let routers: Vec<NodeId> = (0..=spec.hops).map(|_| b.add_node()).collect();
    let mut backbone = Vec::with_capacity(spec.hops);
    for w in routers.windows(2) {
        let (fwd, _rev) =
            b.add_duplex(w[0], w[1], spec.backbone_bps, spec.hop_delay, spec.capacity);
        backbone.push(fwd);
    }
    let access_cap = Capacity::Packets(1_000_000);
    let access_delay = Dur::from_micros(100);
    let host = |b: &mut TopologyBuilder, r: NodeId| {
        let h = b.add_node();
        b.add_duplex(h, r, spec.access_bps, access_delay, access_cap);
        h
    };
    let long_src = host(&mut b, routers[0]);
    let long_dst = host(&mut b, routers[spec.hops]);
    let cross: Vec<(NodeId, NodeId)> = (0..spec.hops)
        .map(|i| {
            let s = host(&mut b, routers[i]);
            let d = host(&mut b, routers[i + 1]);
            (s, d)
        })
        .collect();
    ParkingLot {
        topology: b.build(),
        routers,
        backbone,
        long_path: (long_src, long_dst),
        cross,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, [NodeId; 3]) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let m = b.add_node();
        let c = b.add_node();
        let cap = Capacity::Packets(10);
        b.add_duplex(a, m, 1_000_000, Dur::from_millis(1), cap);
        b.add_duplex(m, c, 1_000_000, Dur::from_millis(1), cap);
        (b.build(), [a, m, c])
    }

    #[test]
    fn routes_follow_shortest_path() {
        let (t, [a, m, c]) = line3();
        // a -> c goes via the a->m link first.
        let l1 = t.next_hop(a, c).unwrap();
        assert_eq!(t.link(l1).from, a);
        assert_eq!(t.link(l1).to, m);
        // Then m -> c.
        let l2 = t.next_hop(m, c).unwrap();
        assert_eq!(t.link(l2).to, c);
        // No next hop at the destination itself.
        assert_eq!(t.next_hop(c, c), None);
    }

    #[test]
    fn routes_are_symmetric_on_duplex_line() {
        let (t, [a, _m, c]) = line3();
        let fwd = t.next_hop(a, c).unwrap();
        let rev = t.next_hop(c, a).unwrap();
        assert_eq!(t.link(fwd).from, a);
        assert_eq!(t.link(rev).from, c);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn disconnected_graph_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        let x = b.add_node();
        let y = b.add_node();
        // Only x <-> y are connected; `a` is isolated.
        b.add_duplex(x, y, 1_000, Dur::ZERO, Capacity::Packets(1));
        let _ = a;
        b.build();
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node();
        b.add_link(LinkSpec::new(a, a, 1, Dur::ZERO, Capacity::Packets(1)));
    }

    #[test]
    fn dumbbell_shape() {
        let spec = DumbbellSpec::paper(4);
        let d = dumbbell(&spec);
        assert_eq!(d.senders.len(), 4);
        assert_eq!(d.receivers.len(), 4);
        // 2 routers + 8 hosts.
        assert_eq!(d.topology.node_count(), 10);
        // 1 duplex backbone + 8 duplex access = 18 unidirectional links.
        assert_eq!(d.topology.link_count(), 18);

        // Every sender routes to every receiver over the bottleneck.
        for &s in &d.senders {
            for &r in &d.receivers {
                let l = d.topology.next_hop(s, r).unwrap();
                assert_eq!(d.topology.link(l).to, d.left_router);
                let l2 = d.topology.next_hop(d.left_router, r).unwrap();
                assert_eq!(l2, d.bottleneck);
            }
        }
        // ACK path uses the reverse link.
        let back = d.topology.next_hop(d.right_router, d.senders[0]).unwrap();
        assert_eq!(back, d.reverse);
    }

    #[test]
    fn dumbbell_buffer_is_bdp_multiple() {
        let spec = DumbbellSpec::paper(2);
        let d = dumbbell(&spec);
        let bdp = spec.bdp_bytes();
        // 15 Mbit/s * 0.150 s / 8 = 281_250 bytes.
        assert_eq!(bdp, 281_250);
        match d.topology.link(d.bottleneck).capacity {
            Capacity::Bytes(b) => assert_eq!(b, (bdp as f64 * 5.0) as u64),
            _ => panic!("bottleneck must be byte-limited"),
        }
    }

    #[test]
    fn parking_lot_routes_span_the_chain() {
        let spec = ParkingLotSpec {
            hops: 3,
            backbone_bps: 10_000_000,
            hop_delay: Dur::from_millis(10),
            capacity: Capacity::Packets(100),
            access_bps: 1_000_000_000,
        };
        let lot = parking_lot(&spec);
        assert_eq!(lot.routers.len(), 4);
        assert_eq!(lot.backbone.len(), 3);
        assert_eq!(lot.cross.len(), 3);
        // The long path's first backbone hop is backbone[0], then [1], [2].
        let (src, dst) = lot.long_path;
        let mut at = src;
        let mut backbone_hops = Vec::new();
        while at != dst {
            let l = lot.topology.next_hop(at, dst).expect("route");
            if lot.backbone.contains(&l) {
                backbone_hops.push(l);
            }
            at = lot.topology.link(l).to;
        }
        assert_eq!(backbone_hops, lot.backbone);
        // Cross pair i crosses exactly backbone link i.
        for (i, &(s, d)) in lot.cross.iter().enumerate() {
            let mut at = s;
            let mut crossed = Vec::new();
            while at != d {
                let l = lot.topology.next_hop(at, d).expect("route");
                if lot.backbone.contains(&l) {
                    crossed.push(l);
                }
                at = lot.topology.link(l).to;
            }
            assert_eq!(crossed, vec![lot.backbone[i]]);
        }
    }

    #[test]
    #[should_panic(expected = "at least two hops")]
    fn parking_lot_needs_hops() {
        parking_lot(&ParkingLotSpec {
            hops: 1,
            backbone_bps: 1,
            hop_delay: Dur::ZERO,
            capacity: Capacity::Packets(1),
            access_bps: 1,
        });
    }

    #[test]
    fn dumbbell_base_rtt_is_spec_rtt() {
        let spec = DumbbellSpec::paper(1);
        let d = dumbbell(&spec);
        // Sum of propagation delays sender->receiver->sender.
        let mut total = Dur::ZERO;
        let path = [
            d.topology.next_hop(d.senders[0], d.receivers[0]).unwrap(),
            d.topology.next_hop(d.left_router, d.receivers[0]).unwrap(),
            d.topology.next_hop(d.right_router, d.receivers[0]).unwrap(),
            d.topology.next_hop(d.receivers[0], d.senders[0]).unwrap(),
            d.topology.next_hop(d.right_router, d.senders[0]).unwrap(),
            d.topology.next_hop(d.left_router, d.senders[0]).unwrap(),
        ];
        for l in path {
            total += d.topology.link(l).delay;
        }
        assert_eq!(total, spec.rtt);
    }
}
