//! Property-based invariants of the telemetry codec and aggregation.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use phi_telemetry::codec::RECORD_SIZE;
use phi_telemetry::{decode_batch, encode_batch, Collector, FlowKey, IpfixRecord, SharingCdf};

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

proptest! {
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
