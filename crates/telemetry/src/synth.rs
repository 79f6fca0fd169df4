//! Synthetic cloud-egress traffic (the production-trace substitute).
//!
//! The paper's §2.1 numbers come from a real provider's IPFIX data, which
//! we cannot have. What the analysis actually needs is the *shape* of CDN
//! egress: a heavy-tailed (Zipf) distribution of traffic over destination
//! /24s and flows whose packet counts are themselves skewed. This
//! generator produces a packet stream with exactly those properties,
//! deterministically from a seed, and feeds it through the identical
//! sampler → collector → analysis pipeline a production trace would take.

use std::net::Ipv4Addr;

use phi_workload::{BoundedPareto, Sample, SeedRng, Zipf};

use crate::record::FlowKey;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct EgressConfig {
    /// Number of destination /24 subnets the provider sends to.
    pub subnets: usize,
    /// Zipf exponent of subnet popularity (≈1 for CDN egress).
    pub popularity_exponent: f64,
    /// Total flows to generate.
    pub flows: usize,
    /// Pareto shape for per-flow packet counts.
    pub flow_size_alpha: f64,
    /// Minimum packets per flow.
    pub min_packets: f64,
    /// Maximum packets per flow.
    pub max_packets: f64,
    /// Trace duration, minutes.
    pub minutes: u64,
}

impl Default for EgressConfig {
    fn default() -> Self {
        EgressConfig {
            subnets: 500,
            popularity_exponent: 1.05,
            flows: 300_000,
            flow_size_alpha: 1.1,
            min_packets: 40.0,
            max_packets: 200_000.0,
            minutes: 10,
        }
    }
}

/// One synthetic flow: key, start, and packet schedule summary.
#[derive(Debug, Clone, Copy)]
pub struct SynthFlow {
    /// Flow identity.
    pub key: FlowKey,
    /// Start time, ms.
    pub start_ms: u64,
    /// Total packets.
    pub packets: u64,
    /// Gap between packets, ms (packets spread uniformly over the flow).
    pub gap_ms: f64,
}

impl SynthFlow {
    /// Iterate the flow's packet timestamps (ms).
    pub fn packet_times(&self) -> impl Iterator<Item = u64> + '_ {
        let start = self.start_ms;
        let gap = self.gap_ms;
        (0..self.packets).map(move |i| start + (i as f64 * gap) as u64)
    }
}

/// Generate the flow population.
pub fn generate_flows(cfg: &EgressConfig, rng: &mut SeedRng) -> Vec<SynthFlow> {
    assert!(cfg.subnets > 0 && cfg.flows > 0 && cfg.minutes > 0);
    let popularity = Zipf::new(cfg.subnets, cfg.popularity_exponent);
    let sizes = BoundedPareto::new(cfg.flow_size_alpha, cfg.min_packets, cfg.max_packets);
    let horizon_ms = cfg.minutes * 60_000;

    let mut flows = Vec::with_capacity(cfg.flows);
    for i in 0..cfg.flows {
        let rank = popularity.sample_rank(rng) as u32;
        // Map subnet rank onto 93.x.y.0/24-style space.
        let dst_subnet_base = 0x5d00_0000u32 + (rank << 8);
        let dst_ip = Ipv4Addr::from(dst_subnet_base + 1 + (i as u32 % 200));
        // A modest server fleet: source picked from ~4096 addresses
        // (cf. Netflix's ~4669 mapped servers).
        let server = rng.range_u64(0, 4096) as u32;
        let key = FlowKey {
            src_ip: Ipv4Addr::from(0x0a00_0000 + server),
            dst_ip,
            src_port: 443,
            dst_port: rng.range_u64(1024, 65536) as u16,
            proto: 6,
        };
        let packets = sizes.sample(rng).round().max(1.0) as u64;
        let start_ms = rng.range_u64(0, horizon_ms);
        // Spread the flow over up to a minute (or its packet count at
        // ~1 ms spacing, whichever is shorter).
        let duration_ms = (packets as f64).min(60_000.0);
        let gap_ms = duration_ms / packets as f64;
        flows.push(SynthFlow {
            key,
            start_ms,
            packets,
            gap_ms,
        });
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Subnet24;
    use std::collections::HashMap;

    fn small_cfg() -> EgressConfig {
        EgressConfig {
            subnets: 100,
            flows: 5_000,
            minutes: 5,
            ..EgressConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_cfg();
        let a = generate_flows(&cfg, &mut SeedRng::new(1));
        let b = generate_flows(&cfg, &mut SeedRng::new(1));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.packets, y.packets);
            assert_eq!(x.start_ms, y.start_ms);
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let cfg = small_cfg();
        let flows = generate_flows(&cfg, &mut SeedRng::new(2));
        let mut per_subnet: HashMap<Subnet24, usize> = HashMap::new();
        for f in &flows {
            *per_subnet.entry(f.key.dst_subnet()).or_default() += 1;
        }
        let mut counts: Vec<usize> = per_subnet.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Top subnet should dwarf the median subnet.
        let top = counts[0];
        let median = counts[counts.len() / 2];
        assert!(
            top > median * 5,
            "expected heavy tail, top {top} vs median {median}"
        );
    }

    #[test]
    fn packet_times_respect_start_and_count() {
        let f = SynthFlow {
            key: FlowKey {
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(93, 0, 0, 1),
                src_port: 443,
                dst_port: 2000,
                proto: 6,
            },
            start_ms: 1000,
            packets: 5,
            gap_ms: 10.0,
        };
        let times: Vec<u64> = f.packet_times().collect();
        assert_eq!(times, vec![1000, 1010, 1020, 1030, 1040]);
    }

    #[test]
    fn starts_within_horizon() {
        let cfg = small_cfg();
        let horizon = cfg.minutes * 60_000;
        for f in generate_flows(&cfg, &mut SeedRng::new(3)) {
            assert!(f.start_ms < horizon);
            assert!(f.packets >= 1);
        }
    }
}
