//! Packets and the identifiers used to address them.
//!
//! The simulator deals in whole packets. A [`Packet`] carries enough header
//! state for a TCP-like transport (sequence and acknowledgment numbers, a
//! flag byte, ports) plus simulator bookkeeping (a globally unique id and
//! the send timestamp, which stands in for a TCP timestamp option and lets
//! receivers echo exact send times for RTT measurement).

use core::fmt;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use serde::Serialize;

use crate::time::Time;

/// Identifies a node (host or router) within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a unidirectional link within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Identifies an agent registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub u32);

/// Identifies one transport-level flow (one on-period connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FlowId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Header flag bits, modelled on the TCP flag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags(pub u8);

impl Flags {
    /// Acknowledgment field is valid.
    pub const ACK: Flags = Flags(0b0001);
    /// Connection open.
    pub const SYN: Flags = Flags(0b0010);
    /// Connection close (last segment of a flow).
    pub const FIN: Flags = Flags(0b0100);
    /// Segment is a retransmission (simulator-side diagnostic bit).
    pub const RETX: Flags = Flags(0b1000);
    /// ECN-Capable Transport: the sender opts into ECN marking, so
    /// congested switches mark this packet instead of dropping it.
    pub const ECT: Flags = Flags(0b0001_0000);
    /// Congestion Experienced: set by a switch on an [`Flags::ECT`]
    /// packet whose egress queue crossed the marking threshold.
    pub const CE: Flags = Flags(0b0010_0000);
    /// ECN Echo: set by the receiver on the ACK of a [`Flags::CE`]-marked
    /// segment, carrying the congestion signal back to the sender.
    pub const ECE: Flags = Flags(0b0100_0000);

    /// The empty flag set.
    pub const fn empty() -> Flags {
        Flags(0)
    }

    /// True if every bit of `other` is set in `self`.
    pub const fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub const fn union(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }
}

/// Up to three SACK ranges riding on an acknowledgment, as segment-number
/// half-open intervals `[start, end)`. Three blocks matches what fits in a
/// standard TCP SACK option alongside timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    len: u8,
    blocks: [(u64, u64); 3],
}

impl SackBlocks {
    /// No SACK information.
    pub const EMPTY: SackBlocks = SackBlocks {
        len: 0,
        blocks: [(0, 0); 3],
    };

    /// Append a block; returns false (and drops it) when full.
    pub fn push(&mut self, start: u64, end: u64) -> bool {
        debug_assert!(start < end, "empty SACK block");
        if usize::from(self.len) == self.blocks.len() {
            return false;
        }
        self.blocks[usize::from(self.len)] = (start, end);
        self.len += 1;
        true
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the blocks.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..usize::from(self.len)].iter().copied()
    }
}

/// SplitMix64: the bit mixer behind every deterministic per-packet
/// decision (delivery jitter, RED drops, ECN marks), keyed by packet id.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`splitmix64`] of `x`, folded to a unit float in `[0, 1)`.
pub(crate) fn unit_hash(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// A hash table keyed by a `u64`-newtype id, hashed by [`IdHash`].
pub type IdMap<K, V> = HashMap<K, V, IdHash>;

/// The keyed hash of the per-report and per-segment tables: two
/// 64×64→128 multiply-folds per `u64`, where std's default runs SipHash.
///
/// Every table draws its own two keys from std's OS-seeded `RandomState`,
/// so ids a client chooses (a `PathKey` comes off the wire) cannot be
/// picked in advance to collide. One type is builder and hasher both:
/// building copies the keys and clears the state.
#[derive(Clone, Copy)]
pub struct IdHash {
    keys: [u64; 2],
    hash: u64,
}

impl Default for IdHash {
    fn default() -> Self {
        // The multiplying key is odd, so no draw can zero every hash.
        let seed = RandomState::new();
        let keys = [seed.hash_one(0u64), seed.hash_one(1u64) | 1];
        IdHash { keys, hash: 0 }
    }
}

impl fmt::Debug for IdHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("IdHash(..)") // the keys would hand out the collisions
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHash;

    fn build_hasher(&self) -> IdHash {
        IdHash { hash: 0, ..*self }
    }
}

impl Hasher for IdHash {
    /// aHash's fallback fold (the 128-bit `a·b`, high half xored onto low)
    /// twice: of the id xored with the first key by a fixed odd constant
    /// (π's fraction), then of that by the second key.
    fn write_u64(&mut self, x: u64) {
        let fold = |a: u64, b: u64| {
            let p = u128::from(a) * u128::from(b);
            (p as u64) ^ (p >> 64) as u64
        };
        let [k0, k1] = self.keys;
        self.hash = fold(fold(self.hash ^ x ^ k0, 0x243F_6A88_85A3_08D3), k1);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Conventional sizes, shared by the transport crates.
pub mod wire {
    /// Maximum segment size: TCP payload bytes per full-sized segment.
    pub const MSS: u32 = 1448;
    /// Combined IP + TCP header overhead per segment.
    pub const HEADER_BYTES: u32 = 52;
    /// Bytes on the wire for a full-sized data segment.
    pub const FULL_SEGMENT: u32 = MSS + HEADER_BYTES;
    /// Bytes on the wire for a bare acknowledgment.
    pub const ACK_BYTES: u32 = HEADER_BYTES;
}

/// A packet in flight.
///
/// Sequence and acknowledgment numbers are in units of *segments*, not
/// bytes: every data segment is `wire::MSS` payload bytes except possibly
/// the last of a flow, and numbering segments keeps the arithmetic in the
/// transport layer simple without changing any congestion behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique packet id, assigned by the simulator at send time.
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Source port (selects the agent on `src` that owns replies).
    pub src_port: u16,
    /// Destination port (selects the agent on `dst`).
    pub dst_port: u16,
    /// Segment sequence number (data) — index of this segment in the flow.
    pub seq: u64,
    /// Cumulative acknowledgment — next expected segment (valid with `ACK`).
    pub ack: u64,
    /// Header flags.
    pub flags: Flags,
    /// Size on the wire, bytes.
    pub size: u32,
    /// When the packet was handed to the simulator (stamped at send).
    pub sent_at: Time,
    /// Echoed send time of the segment this ACK acknowledges, for RTT
    /// estimation (a TCP timestamp option stand-in). Zero when unused.
    pub echo: Time,
    /// Selective-acknowledgment blocks (on ACKs).
    pub sack: SackBlocks,
}

impl Packet {
    /// True if the ACK flag is set.
    pub fn is_ack(&self) -> bool {
        self.flags.contains(Flags::ACK)
    }

    /// True if this is a retransmitted segment.
    pub fn is_retx(&self) -> bool {
        self.flags.contains(Flags::RETX)
    }

    /// True if this closes its flow.
    pub fn is_fin(&self) -> bool {
        self.flags.contains(Flags::FIN)
    }

    /// True if the sender declared this packet ECN-capable.
    pub fn is_ect(&self) -> bool {
        self.flags.contains(Flags::ECT)
    }

    /// True if a switch marked this packet Congestion Experienced.
    pub fn is_ce(&self) -> bool {
        self.flags.contains(Flags::CE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_ops() {
        let f = Flags::ACK.union(Flags::FIN);
        assert!(f.contains(Flags::ACK));
        assert!(f.contains(Flags::FIN));
        assert!(!f.contains(Flags::SYN));
        assert!(f.contains(Flags::empty()));
    }

    #[test]
    fn wire_constants_are_consistent() {
        assert_eq!(wire::FULL_SEGMENT, wire::MSS + wire::HEADER_BYTES);
        const { assert!(wire::ACK_BYTES < wire::FULL_SEGMENT) };
    }

    #[test]
    fn packet_predicates() {
        let mut p = Packet {
            id: 1,
            flow: FlowId(7),
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 10,
            dst_port: 80,
            seq: 3,
            ack: 0,
            flags: Flags::empty(),
            size: wire::FULL_SEGMENT,
            sent_at: Time::ZERO,
            echo: Time::ZERO,
            sack: SackBlocks::EMPTY,
        };
        assert!(!p.is_ack());
        p.flags = Flags::ACK.union(Flags::RETX);
        assert!(p.is_ack());
        assert!(p.is_retx());
        assert!(!p.is_fin());
    }

    #[test]
    fn id_hash_is_keyed_per_builder() {
        let (one, other) = (IdHash::default(), IdHash::default());
        let id = FlowId(42);
        assert_eq!(one.hash_one(id), one.hash_one(id), "repeatable");
        assert_ne!(
            one.hash_one(id),
            other.hash_one(id),
            "keys drawn per builder"
        );
        assert_eq!(format!("{one:?}"), "IdHash(..)");
    }

    /// A table indexes buckets by the hash's low bits and files a 7-bit
    /// tag from its top bits: on 65 536 ids of each shape, the low 16 bits
    /// must fill buckets about as a random function would (1 − 1/e ≈ 63 %)
    /// and every tag must occur. `PathKey` and `FlowId` hash alike, as
    /// their one `u64`: `low | i << shift` for `i` below 2¹⁶.
    #[test]
    fn id_hash_spreads_structured_ids() {
        for (shape, low, shift) in [
            ("sequential", 0, 0),
            ("differing above bit 32", 0x5EED_0000, 33),
            ("multiples of 2^16", 0, 16),
        ] {
            let build = IdHash::default();
            let mut buckets = vec![false; 1 << 16];
            let mut tags = [false; 128];
            for i in 0..1u64 << 16 {
                let h = build.hash_one(FlowId(low | i << shift));
                buckets[(h & 0xFFFF) as usize] = true;
                tags[(h >> 57) as usize] = true;
            }
            let filled = buckets.iter().filter(|&&b| b).count();
            assert!(filled * 10 >= 6 << 16, "{shape}: {filled} buckets");
            assert!(tags.iter().all(|&t| t), "{shape}: a tag never drawn");
        }
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(1).to_string(), "l1");
        assert_eq!(AgentId(2).to_string(), "a2");
        assert_eq!(FlowId(9).to_string(), "f9");
    }
}
