//! Property-based invariants of the telemetry codec and aggregation.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use proptest::prelude::*;

use phi_telemetry::codec::RECORD_SIZE;
use phi_telemetry::{
    decode_batch, encode_batch, BucketId, Collector, FlowKey, IpfixRecord, LossyExporter,
    SharingCdf,
};
use phi_workload::SeedRng;

fn arb_record() -> impl Strategy<Value = IpfixRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        0u64..1_000_000_000,
        any::<u32>(),
    )
        .prop_map(|(src, dst, sp, dp, proto, ts_ms, bytes)| IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::from(src),
                dst_ip: Ipv4Addr::from(dst),
                src_port: sp,
                dst_port: dp,
                proto,
            },
            ts_ms,
            bytes,
            packets: 1,
        })
}

/// Everything a collector holds, in a form that compares: its counters
/// and, per bucket, the flow set and the packet and byte totals.
#[derive(Debug, PartialEq)]
struct CollectorView {
    records: u64,
    buckets: usize,
    dropped: u64,
    contents: BTreeMap<BucketId, (BTreeSet<FlowKey>, u64, u64)>,
}

fn view(c: &Collector) -> CollectorView {
    CollectorView {
        records: c.record_count(),
        buckets: c.bucket_count(),
        dropped: c.dropped_records(),
        contents: c
            .buckets()
            .map(|(id, b)| (*id, (b.flows().copied().collect(), b.packets, b.bytes)))
            .collect(),
    }
}

/// A fresh collector, unbounded or with small caps so that some records
/// are dropped.
fn collector(bounds: Option<(usize, usize)>) -> Collector {
    match bounds {
        Some((buckets, flows)) => Collector::bounded(buckets, flows),
        None => Collector::new(),
    }
}

proptest! {
    /// A zero-loss exporter that is flushed before its staging buffer
    /// fills hands the collector exactly what direct ingestion would.
    #[test]
    fn zero_loss_exporter_is_the_identity(
        records in proptest::collection::vec(arb_record(), 0..300),
        capacity in 1usize..64,
        bounded in any::<bool>(),
        caps in (1usize..32, 1usize..8),
        seed in any::<u64>(),
    ) {
        let bounds = bounded.then_some(caps);
        let mut direct = collector(bounds);
        for r in &records {
            direct.ingest(r);
        }

        let mut shipped = collector(bounds);
        let mut exporter = LossyExporter::new(capacity, 0.0, SeedRng::new(seed));
        for (i, r) in records.iter().enumerate() {
            exporter.submit(*r);
            if (i + 1) % capacity == 0 {
                exporter.flush_into(&mut shipped);
            }
        }
        exporter.flush_into(&mut shipped);

        prop_assert_eq!(exporter.lost() + exporter.dropped(), 0);
        prop_assert_eq!(exporter.shipped(), records.len() as u64);
        prop_assert_eq!(view(&shipped), view(&direct));
    }

    #[test]
    fn codec_roundtrip_any_batch(records in proptest::collection::vec(arb_record(), 0..200)) {
        let bytes = encode_batch(&records).unwrap();
        prop_assert_eq!(decode_batch(&bytes).unwrap(), records);
    }

    #[test]
    fn decode_never_panics_on_garbage(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..256),
        small_count in any::<bool>(),
    ) {
        // Half the inputs claim at most ten records, so some of them decode.
        if small_count && bytes.len() >= 2 {
            bytes[0] = 0;
            bytes[1] %= 11;
        }
        // Ok or Err, never a panic; what is accepted re-encodes to the
        // bytes it was read from.
        if let Ok(read) = decode_batch(&bytes) {
            let used = 2 + read.len() * RECORD_SIZE;
            prop_assert_eq!(encode_batch(&read).unwrap(), &bytes[..used]);
        }
    }

    #[test]
    fn collector_counts_are_consistent(records in proptest::collection::vec(arb_record(), 0..300)) {
        let mut c = Collector::new();
        c.ingest_batch(&records);
        prop_assert_eq!(c.record_count(), records.len() as u64);
        let flows: usize = c.buckets().map(|(_, b)| b.flow_count()).sum();
        prop_assert!(flows <= records.len());
        let cdf = SharingCdf::from_collector(&c);
        prop_assert_eq!(cdf.len(), flows);
        let mut last = f64::INFINITY;
        for k in [0u64, 1, 2, 4, 8, 16, 32] {
            let f = cdf.fraction_at_least(k);
            prop_assert!(f <= last + 1e-12);
            prop_assert!((0.0..=1.0).contains(&f));
            last = f;
        }
    }
}
