//! The §2.1 sharing-opportunity analysis.
//!
//! For every flow observed by the collector, count how many *other* flows
//! share its (destination /24, minute) bucket — the proxy for "shares the
//! WAN path". The paper reports, post-sampling: *"50% of the flows share
//! the WAN path with at least 5 other flows while 12% share it with at
//! least 100 other flows."* [`SharingCdf`] reproduces those statistics.

use crate::collector::Collector;

/// Distribution of per-flow sharing degree (number of *other* flows in
/// the same bucket).
#[derive(Debug, Clone)]
pub struct SharingCdf {
    /// Sorted sharing degrees, one entry per observed flow.
    degrees: Vec<u64>,
}

impl SharingCdf {
    /// Build from collector state.
    pub fn from_collector(c: &Collector) -> SharingCdf {
        let mut degrees = Vec::new();
        for (_, bucket) in c.buckets() {
            let n = bucket.flow_count() as u64;
            for _ in 0..n {
                degrees.push(n - 1);
            }
        }
        degrees.sort_unstable();
        SharingCdf { degrees }
    }

    /// Number of flow observations.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True if no flows were observed.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Fraction of flows sharing their bucket with at least `k` others.
    pub fn fraction_at_least(&self, k: u64) -> f64 {
        if self.degrees.is_empty() {
            return 0.0;
        }
        let below = self.degrees.partition_point(|&d| d < k);
        (self.degrees.len() - below) as f64 / self.degrees.len() as f64
    }

    /// The `q`-quantile of the sharing degree.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.degrees.is_empty() {
            return None;
        }
        let idx = ((self.degrees.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(self.degrees[idx])
    }

    /// The paper's two headline rows: (P[≥5 sharers], P[≥100 sharers]).
    pub fn paper_rows(&self) -> (f64, f64) {
        (self.fraction_at_least(5), self.fraction_at_least(100))
    }

    /// Series of `(k, fraction ≥ k)` suitable for plotting the CCDF.
    pub fn ccdf_series(&self, ks: &[u64]) -> Vec<(u64, f64)> {
        ks.iter().map(|&k| (k, self.fraction_at_least(k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FlowKey, IpfixRecord};
    use std::net::Ipv4Addr;

    fn rec(subnet_octet: u8, src_port: u16) -> IpfixRecord {
        IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(93, 184, subnet_octet, 7),
                src_port,
                dst_port: 50_000,
                proto: 6,
            },
            ts_ms: 0,
            bytes: 1500,
            packets: 1,
        }
    }

    fn collector_with(groups: &[usize]) -> Collector {
        // groups[i] = number of distinct flows in bucket i.
        let mut c = Collector::new();
        for (i, &n) in groups.iter().enumerate() {
            for p in 0..n {
                c.ingest(&rec(i as u8, p as u16));
            }
        }
        c
    }

    #[test]
    fn degrees_count_other_flows() {
        // One bucket of 3 flows, one of 1 flow.
        let c = collector_with(&[3, 1]);
        let cdf = SharingCdf::from_collector(&c);
        assert_eq!(cdf.len(), 4);
        // Three flows share with 2 others; one shares with 0.
        assert_eq!(cdf.fraction_at_least(1), 0.75);
        assert_eq!(cdf.fraction_at_least(2), 0.75);
        assert_eq!(cdf.fraction_at_least(3), 0.0);
        assert_eq!(cdf.quantile(0.0), Some(0));
        assert_eq!(cdf.quantile(1.0), Some(2));
    }

    #[test]
    fn fraction_at_least_zero_is_one() {
        let c = collector_with(&[2, 5, 1]);
        let cdf = SharingCdf::from_collector(&c);
        assert_eq!(cdf.fraction_at_least(0), 1.0);
    }

    #[test]
    fn empty_collector_is_safe() {
        let cdf = SharingCdf::from_collector(&Collector::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_least(5), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }

    #[test]
    fn ccdf_series_is_monotone_nonincreasing() {
        let c = collector_with(&[10, 6, 3, 1, 1, 1]);
        let cdf = SharingCdf::from_collector(&c);
        let series = cdf.ccdf_series(&[0, 1, 2, 5, 9]);
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }
}
