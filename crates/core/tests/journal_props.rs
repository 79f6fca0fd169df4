//! Property-based invariants of the sweep-journal codec.
//!
//! The journal's whole job is surviving hostile endings: processes
//! killed mid-append, bit rot in the middle of the file, records from
//! future versions. These properties pin the recovery contract —
//! lossless roundtrip of what was written, torn tails truncated to the
//! last complete frame, and corruption quarantining exactly one record.
//! Beyond those, the wire model's six kinds of damage: whatever the bytes,
//! recovery neither panics nor asks for more memory than they could
//! hold records.

use proptest::prelude::*;

use phi_core::journal::{crc32, encode_frame, recover, RunRecord};
use phi_tcp::report::RunMetrics;
use phi_workload::fnv1a;

#[path = "model/counting.rs"]
mod counting;
use counting::counted;

#[path = "model/wire.rs"]
#[allow(dead_code)] // only its damage is used here
mod wire_model;
use wire_model::{damage, DAMAGES};

fn arb_metrics() -> impl Strategy<Value = RunMetrics> {
    (
        0.0f64..10_000.0,
        0.0f64..10_000.0,
        0.0f64..1.0,
        0.0f64..10_000.0,
        0.0f64..1.0,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(tput, queue, loss, rtt, util, completed, aborted, bytes)| RunMetrics {
                throughput_mbps: tput,
                queueing_delay_ms: queue,
                loss_rate: loss,
                mean_rtt_ms: rtt,
                utilization: util,
                flows_completed: completed,
                flows_aborted: aborted,
                bytes,
            },
        )
}

fn arb_record() -> impl Strategy<Value = RunRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        arb_metrics(),
    )
        .prop_map(|(run_index, seed, spec_hash, events, metrics)| RunRecord {
            run_index,
            seed,
            spec_hash,
            events,
            metrics,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every record written comes back bit-exactly, in order, with no
    /// quarantine and no torn bytes — for any record contents,
    /// including extreme f64s and u64s.
    #[test]
    fn roundtrip_is_lossless(records in collection::vec(arb_record(), 0..20)) {
        let bytes: Vec<u8> = records.iter().flat_map(encode_frame).collect();
        let rec = recover(&bytes);
        prop_assert_eq!(&rec.records, &records);
        prop_assert_eq!(rec.quarantined, 0);
        prop_assert_eq!(rec.torn_bytes, 0);
        // Fingerprints are a pure function of content.
        for r in &records {
            prop_assert_eq!(r.fingerprint(), fnv1a(0, &r.encode()));
        }
    }

    /// Cutting the stream anywhere loses at most the (single) frame the
    /// cut lands in: every frame wholly before the cut survives, and
    /// `valid_len` points exactly at its end, so an append after
    /// truncation continues a well-formed journal.
    #[test]
    fn truncation_recovers_the_whole_prefix(
        records in collection::vec(arb_record(), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let frames: Vec<Vec<u8>> = records.iter().map(encode_frame).collect();
        let bytes: Vec<u8> = frames.concat();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let rec = recover(&bytes[..cut]);
        // How many whole frames fit in the first `cut` bytes?
        let mut whole = 0usize;
        let mut end = 0usize;
        for f in &frames {
            if end + f.len() > cut {
                break;
            }
            end += f.len();
            whole += 1;
        }
        prop_assert_eq!(rec.records.len(), whole);
        prop_assert_eq!(&rec.records[..], &records[..whole]);
        prop_assert_eq!(rec.quarantined, 0);
        prop_assert_eq!(rec.valid_len(cut), end);
    }

    /// Flipping one byte inside a record's payload or CRC quarantines
    /// that record and only that record: every other record still
    /// decodes, in order. (Corrupting a length field is tail damage
    /// instead — framing below the flip is unrecoverable — so this
    /// property aims the flip strictly inside payload + CRC bytes.)
    #[test]
    fn payload_corruption_quarantines_one_record(
        records in collection::vec(arb_record(), 1..10),
        victim_frac in 0.0f64..1.0,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let frames: Vec<Vec<u8>> = records.iter().map(encode_frame).collect();
        let victim = ((frames.len() as f64) * victim_frac) as usize % frames.len();
        let start: usize = frames[..victim].iter().map(Vec::len).sum();
        // Skip the 4-byte length prefix; flip within payload + CRC.
        let span = frames[victim].len() - 4;
        let offset = 4 + (((span as f64) * offset_frac) as usize).min(span - 1);
        let mut bytes: Vec<u8> = frames.concat();
        bytes[start + offset] ^= flip;
        let rec = recover(&bytes);
        prop_assert_eq!(rec.quarantined, 1);
        prop_assert_eq!(rec.torn_bytes, 0);
        let survivors: Vec<&RunRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, r)| r)
            .collect();
        let recovered: Vec<&RunRecord> = rec.records.iter().collect();
        prop_assert_eq!(recovered, survivors);
    }

    /// Any of the wire model's damage kinds done to a journal's frames —
    /// a bit flipped, a cut, a run of its own bytes spliced in, a length
    /// or count inflated, noise behind a header — is recovered without a
    /// panic. Every record that comes back had a whole frame of its own,
    /// and the allocator is asked for at most four bytes per byte read
    /// (the records' `Vec` doubling), beyond room for the first eight.
    #[test]
    fn damaged_journal_is_recovered_without_panic_or_outsized_allocation(
        records in collection::vec(arb_record(), 1..10),
        (a, b) in (any::<u64>(), any::<u64>()),
    ) {
        let bytes: Vec<u8> = records.iter().flat_map(encode_frame).collect();
        let smallest_frame = 4 + records[0].encode().len() + 4;
        for kind in 0..DAMAGES {
            let spoiled = damage(&bytes, kind, a, b);
            let (rec, (_, asked)) = counted(|| recover(&spoiled));
            prop_assert!(
                rec.records.len() * smallest_frame <= spoiled.len(),
                "damage {}: {} records from {} bytes", kind, rec.records.len(), spoiled.len()
            );
            let room = 8 * std::mem::size_of::<RunRecord>();
            prop_assert!(
                asked <= 4 * spoiled.len() + room,
                "damage {}: {} bytes asked for {} read", kind, asked, spoiled.len()
            );
        }
    }

    /// The CRC actually detects every single-byte payload change (a
    /// property of CRC-32 worth pinning because the codec depends on
    /// it: Hamming distance ≥ 2 over any payload we frame).
    #[test]
    fn crc_detects_any_single_byte_flip(
        record in arb_record(),
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let payload = record.encode();
        let offset = (((payload.len() as f64) * offset_frac) as usize).min(payload.len() - 1);
        let mut mutated = payload.clone();
        mutated[offset] ^= flip;
        prop_assert!(crc32(&mutated) != crc32(&payload), "flip went undetected");
    }
}
