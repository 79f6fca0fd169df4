//! Flow records and keys, IPFIX style (RFC 7011 flavor, compact template).

use std::net::Ipv4Addr;

/// The classic transport 4-tuple plus protocol — the paper's flow
/// identity ("characterized by the number of unique 4-tuples
/// <Src Ip, Src Port, Dst Ip, Dst Port>").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source address.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP).
    pub proto: u8,
}

impl FlowKey {
    /// The /24 subnet of the destination — the paper's spatial
    /// aggregation granularity.
    pub fn dst_subnet(&self) -> Subnet24 {
        Subnet24::of(self.dst_ip)
    }
}

/// A /24 IPv4 subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Subnet24(pub u32);

impl Subnet24 {
    /// The /24 containing `ip`.
    pub fn of(ip: Ipv4Addr) -> Subnet24 {
        Subnet24(u32::from(ip) >> 8)
    }

    /// The subnet's network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.0 << 8)
    }
}

impl std::fmt::Display for Subnet24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/24", self.network())
    }
}

/// One exported record: a sampled packet's flow key plus counters, as an
/// IPFIX exporter would emit after sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpfixRecord {
    /// Flow identity.
    pub key: FlowKey,
    /// Export timestamp, milliseconds since exporter start.
    pub ts_ms: u64,
    /// Bytes represented by this record (sampled packet's length).
    pub bytes: u32,
    /// Packets represented (1 per sampled packet here).
    pub packets: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subnet_of_groups_by_upper_24_bits() {
        let a = Ipv4Addr::new(10, 1, 2, 3);
        let b = Ipv4Addr::new(10, 1, 2, 250);
        let c = Ipv4Addr::new(10, 1, 3, 3);
        assert_eq!(Subnet24::of(a), Subnet24::of(b));
        assert_ne!(Subnet24::of(a), Subnet24::of(c));
        assert_eq!(Subnet24::of(a).network(), Ipv4Addr::new(10, 1, 2, 0));
    }

    #[test]
    fn subnet_display() {
        let s = Subnet24::of(Ipv4Addr::new(192, 168, 7, 99));
        assert_eq!(s.to_string(), "192.168.7.0/24");
    }

    #[test]
    fn flow_key_subnet_uses_destination() {
        let k = FlowKey {
            src_ip: Ipv4Addr::new(1, 2, 3, 4),
            dst_ip: Ipv4Addr::new(5, 6, 7, 8),
            src_port: 443,
            dst_port: 50000,
            proto: 6,
        };
        assert_eq!(k.dst_subnet().network(), Ipv4Addr::new(5, 6, 7, 0));
    }
}
