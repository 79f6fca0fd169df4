//! The centralized collector: spatio-temporal aggregation of sampled flows.
//!
//! §2.1 of the paper: "we … calculate the number of TCP flows … per minute
//! for each /24 subnet that the provider sends traffic to. Given this
//! compact spatio-temporal granularity (/24 subnet and 1-minute time
//! slice), we can reasonably expect all the flows to follow the same WAN
//! path." The collector builds exactly those buckets: distinct flow keys
//! per (destination /24, minute).

use std::collections::{HashMap, HashSet};

use crate::record::{FlowKey, IpfixRecord, Subnet24};

/// A spatio-temporal bucket id: (destination /24, minute index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BucketId {
    /// Destination subnet.
    pub subnet: Subnet24,
    /// Minute since collection start.
    pub minute: u64,
}

/// Aggregated contents of one bucket.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    flows: HashSet<FlowKey>,
    /// Sampled packets that fell into the bucket.
    pub packets: u64,
    /// Sampled bytes.
    pub bytes: u64,
}

impl Bucket {
    /// Distinct flows observed in this bucket.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The distinct flow keys.
    pub fn flows(&self) -> impl Iterator<Item = &FlowKey> {
        self.flows.iter()
    }
}

/// The collector.
///
/// An unbounded collector ([`Collector::new`]) keeps every bucket and
/// flow key it sees. A production collector cannot: [`Collector::bounded`]
/// caps both the number of buckets and the distinct flows per bucket, and
/// records that fall outside the caps are counted in
/// [`Collector::dropped_records`] rather than silently vanishing — the
/// diagnosis pipeline needs to know its input was thinned.
#[derive(Debug, Default)]
pub struct Collector {
    buckets: HashMap<BucketId, Bucket>,
    records: u64,
    dropped: u64,
    max_buckets: Option<usize>,
    max_flows_per_bucket: Option<usize>,
}

impl Collector {
    /// An empty, unbounded collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// An empty collector with explicit memory bounds: at most
    /// `max_buckets` spatio-temporal buckets and `max_flows_per_bucket`
    /// distinct flow keys per bucket.
    pub fn bounded(max_buckets: usize, max_flows_per_bucket: usize) -> Self {
        assert!(max_buckets > 0 && max_flows_per_bucket > 0);
        Collector {
            max_buckets: Some(max_buckets),
            max_flows_per_bucket: Some(max_flows_per_bucket),
            ..Collector::default()
        }
    }

    /// Ingest one exported record.
    pub fn ingest(&mut self, record: &IpfixRecord) {
        let id = BucketId {
            subnet: record.key.dst_subnet(),
            minute: record.ts_ms / 60_000,
        };
        if !self.buckets.contains_key(&id)
            && self
                .max_buckets
                .is_some_and(|cap| self.buckets.len() >= cap)
        {
            self.dropped += 1;
            return;
        }
        let b = self.buckets.entry(id).or_default();
        if !b.flows.contains(&record.key)
            && self
                .max_flows_per_bucket
                .is_some_and(|cap| b.flows.len() >= cap)
        {
            self.dropped += 1;
            return;
        }
        self.records += 1;
        b.flows.insert(record.key);
        b.packets += u64::from(record.packets);
        b.bytes += u64::from(record.bytes);
    }

    /// Ingest a whole batch.
    pub fn ingest_batch(&mut self, records: &[IpfixRecord]) {
        for r in records {
            self.ingest(r);
        }
    }

    /// Records ingested (accepted).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Records rejected by the capacity bounds. Every offered record is
    /// accounted for: `record_count() + dropped_records()` equals the
    /// number of `ingest` calls.
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Number of non-empty buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Iterate over buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (&BucketId, &Bucket)> {
        self.buckets.iter()
    }

    /// A specific bucket.
    pub fn bucket(&self, id: &BucketId) -> Option<&Bucket> {
        self.buckets.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(dst: Ipv4Addr, src_port: u16, ts_ms: u64) -> IpfixRecord {
        IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: dst,
                src_port,
                dst_port: 50_000,
                proto: 6,
            },
            ts_ms,
            bytes: 1500,
            packets: 1,
        }
    }

    #[test]
    fn buckets_split_by_subnet_and_minute() {
        let mut c = Collector::new();
        let a = Ipv4Addr::new(93, 184, 1, 5);
        let b = Ipv4Addr::new(93, 184, 2, 5);
        c.ingest(&rec(a, 1, 0)); // subnet A, minute 0
        c.ingest(&rec(a, 2, 59_999)); // subnet A, minute 0
        c.ingest(&rec(a, 3, 60_000)); // subnet A, minute 1
        c.ingest(&rec(b, 4, 0)); // subnet B, minute 0
        assert_eq!(c.bucket_count(), 3);
        let id = BucketId {
            subnet: Subnet24::of(a),
            minute: 0,
        };
        assert_eq!(c.bucket(&id).unwrap().flow_count(), 2);
    }

    #[test]
    fn duplicate_flow_counted_once() {
        let mut c = Collector::new();
        let dst = Ipv4Addr::new(93, 184, 1, 5);
        // Same 4-tuple sampled three times in the same minute.
        c.ingest(&rec(dst, 1, 100));
        c.ingest(&rec(dst, 1, 200));
        c.ingest(&rec(dst, 1, 300));
        let id = BucketId {
            subnet: Subnet24::of(dst),
            minute: 0,
        };
        let b = c.bucket(&id).unwrap();
        assert_eq!(b.flow_count(), 1);
        assert_eq!(b.packets, 3);
        assert_eq!(b.bytes, 4500);
        assert_eq!(c.record_count(), 3);
    }

    #[test]
    fn bucket_cap_drops_new_buckets_but_feeds_old_ones() {
        let mut c = Collector::bounded(2, 100);
        let a = Ipv4Addr::new(93, 184, 1, 5);
        let b = Ipv4Addr::new(93, 184, 2, 5);
        let z = Ipv4Addr::new(93, 184, 3, 5);
        c.ingest(&rec(a, 1, 0));
        c.ingest(&rec(b, 1, 0));
        c.ingest(&rec(z, 1, 0)); // third bucket: over the cap
        c.ingest(&rec(a, 2, 0)); // existing bucket: still accepted
        assert_eq!(c.bucket_count(), 2);
        assert_eq!(c.record_count(), 3);
        assert_eq!(c.dropped_records(), 1);
    }

    #[test]
    fn flow_cap_drops_new_flows_but_counts_repeat_samples() {
        let mut c = Collector::bounded(10, 2);
        let dst = Ipv4Addr::new(93, 184, 1, 5);
        c.ingest(&rec(dst, 1, 0));
        c.ingest(&rec(dst, 2, 0));
        c.ingest(&rec(dst, 3, 0)); // third distinct flow: dropped
        c.ingest(&rec(dst, 1, 100)); // repeat sample of a kept flow: fine
        let id = BucketId {
            subnet: Subnet24::of(dst),
            minute: 0,
        };
        let b = c.bucket(&id).unwrap();
        assert_eq!(b.flow_count(), 2);
        assert_eq!(b.packets, 3);
        assert_eq!(c.record_count() + c.dropped_records(), 4);
        assert_eq!(c.dropped_records(), 1);
    }

    #[test]
    fn unbounded_collector_never_drops() {
        let mut c = Collector::new();
        for i in 0..500 {
            c.ingest(&rec(
                Ipv4Addr::new(93, 184, (i % 256) as u8, 5),
                i as u16,
                0,
            ));
        }
        assert_eq!(c.dropped_records(), 0);
        assert_eq!(c.record_count(), 500);
    }

    #[test]
    fn batch_equals_sequential() {
        let records: Vec<IpfixRecord> = (0..20)
            .map(|i| rec(Ipv4Addr::new(93, 184, 1, 5), i, u64::from(i) * 1000))
            .collect();
        let mut a = Collector::new();
        a.ingest_batch(&records);
        let mut b = Collector::new();
        for r in &records {
            b.ingest(r);
        }
        assert_eq!(a.record_count(), b.record_count());
        assert_eq!(a.bucket_count(), b.bucket_count());
    }
}
