//! The context-store snapshot decoder, fed valid blobs spoiled by the
//! wire model's `damage` kinds (ROADMAP 3c): `ShardSnapshotSync` carries
//! such a blob from any peer.
//!
//! It may not panic: it answers `Ok` or a typed `SnapshotError`. What it
//! accepts must be what it would have written: a restored store's blob
//! restores to a store with the same blob.

use proptest::prelude::*;

use phi::core::context::{ContextStore, FlowSummary, PathKey, StoreConfig, SNAPSHOT_VERSION};

#[path = "../crates/core/tests/model/wire.rs"]
#[allow(dead_code)] // only its damage is used here
mod wire_model;
use wire_model::{arb_summary, damage, DAMAGES};

/// A snapshot blob of a store fed `reports` as `(path, gap, summary)`.
fn snapshot_blob(
    capacity_bps: Option<f64>,
    reports: &[(u64, u64, FlowSummary)],
    epoch: u64,
) -> Vec<u8> {
    let mut store = ContextStore::new(StoreConfig {
        window_ns: 1_000_000_000,
        capacity_bps,
        queue_alpha: 0.3,
    });
    let mut now = 0u64;
    for (i, &(path, gap, summary)) in reports.iter().enumerate() {
        now += gap;
        if i % 3 == 0 {
            store.lookup(PathKey(path), now);
        }
        store.report(PathKey(path), now, &summary);
    }
    store.encode_snapshot(epoch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_damaged_snapshot_is_restored_whole_or_refused(
        capacity_bps in prop_oneof![Just(None), (1e6f64..1e10).prop_map(Some)],
        reports in proptest::collection::vec((0u64..6, 0u64..400_000_000, arb_summary()), 0..24),
        epoch in any::<u64>(),
        (a, b) in (any::<u64>(), any::<u64>()),
    ) {
        let blob = snapshot_blob(capacity_bps, &reports, epoch);
        for kind in 0..DAMAGES {
            // The damage is frame-shaped: most kinds rewrite the leading
            // length field, which here is the version byte and the top of
            // the epoch. So each spoiled blob is also tried with its
            // version put back, to reach the decoder past that byte.
            let spoiled = damage(&blob, kind, a, b);
            let mut versioned = spoiled.clone();
            if let Some(version) = versioned.first_mut() {
                *version = SNAPSHOT_VERSION;
            }
            for spoiled in [spoiled, versioned] {
                if let Ok((store, epoch)) = ContextStore::decode_snapshot(&spoiled) {
                    let again = store.encode_snapshot(epoch);
                    let restored = ContextStore::decode_snapshot(&again)
                        .map(|(store, epoch)| store.encode_snapshot(epoch));
                    prop_assert!(
                        restored.as_ref() == Ok(&again),
                        "damage {kind} ({a}, {b}): the restored store does not survive its own blob"
                    );
                }
            }
        }
    }
}
