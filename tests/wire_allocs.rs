//! What the wire codec asks of the allocator, counted (ROADMAP 3b): the
//! numbers behind `core.wire.{encode,decode}_ns_per_report` that the box
//! cannot move.
//!
//! `wire::encode` allocates its frame once, at the frame's size, and
//! returns it; `wire::Decoder` reads a frame where it lies in its buffer,
//! so a decoded message costs only the `Vec` it carries. A copy creeping
//! back in — a buffer grown in steps, a frame copied out of the stream —
//! shows up here as a count, whatever the machine is doing.
//!
//! A context-store snapshot crosses the wire inside `ShardSnapshotSync`,
//! so its counts come from any peer: one inflated to `u32::MAX` is
//! refused, and what it cost stays under twice the blob.
//!
//! The store behind the codec is counted too (ROADMAP 1b), at a steady
//! rate once two windows have warmed it up: a report to a shallow path
//! nobody asks about allocates nothing, and on deep paths that are asked
//! about only the rate index's buckets of waiting starts allocate.

use phi::core::context::{ContextStore, FlowSummary, PathKey, SnapshotError, StoreConfig};
use phi::core::wire::{encode, Decoder, Message, MAX_BATCH_ITEMS};
use phi::tcp::hook::ContextSnapshot;
use phi::workload::SeedRng;

#[path = "../crates/core/tests/model/counting.rs"]
mod counting;
use counting::counted;

/// A full batch, as both ctx workloads of the benchmark send it.
fn full_batch() -> Message {
    let summary = FlowSummary {
        bytes: 1_000_000,
        duration_ns: 2_000_000_000,
        mean_rtt_ms: 163.0,
        min_rtt_ms: 150.0,
        retransmits: 2,
        timeouts: 0,
    };
    Message::BatchReport(
        (0..MAX_BATCH_ITEMS as u64)
            .map(|i| (PathKey(i), summary))
            .collect(),
    )
}

#[test]
fn a_full_batch_is_encoded_in_one_allocation_of_its_own_size() {
    let msg = full_batch();
    let (frame, asked) = counted(|| encode(&msg));
    // Length, version, type, count, then 48 bytes an item.
    assert_eq!(frame.len(), 4 + 2 + 2 + MAX_BATCH_ITEMS * 48);
    assert_eq!(asked, (1, frame.len()));
}

#[test]
fn a_warm_decoder_allocates_only_the_items_it_hands_out() {
    let msg = full_batch();
    let frame = encode(&msg);
    let mut decoder = Decoder::new();
    // The first frame sizes the decoder's buffer; from then on a frame is
    // copied into it and read where it lies.
    decoder.extend(&frame);
    assert_eq!(decoder.next().as_ref(), Ok(&msg));
    for _ in 0..3 {
        let (decoded, asked) = counted(|| {
            decoder.extend(&frame);
            decoder.next()
        });
        let items = std::mem::size_of::<(PathKey, FlowSummary)>();
        assert_eq!(asked, (1, MAX_BATCH_ITEMS * items));
        assert_eq!(decoded.as_ref(), Ok(&msg));
        assert_eq!(decoder.buffered(), 0);
    }
}

#[test]
fn a_lookup_exchange_allocates_once_per_frame_sent_and_never_to_read_one() {
    let request = Message::Lookup { path: PathKey(42) };
    let reply = Message::Context(ContextSnapshot {
        utilization: 0.42,
        queue_ms: 7.5,
        competing: 3,
    });
    // Server-side and client-side decoders, warmed as on a live connection.
    let (mut server, mut client) = (Decoder::new(), Decoder::new());
    server.extend(&encode(&request));
    client.extend(&encode(&reply));
    assert_eq!(
        (server.next(), client.next()),
        (Ok(request.clone()), Ok(reply.clone()))
    );
    for (msg, decoder) in [(&request, &mut server), (&reply, &mut client)] {
        let (frame, asked) = counted(|| encode(msg));
        assert!(asked.0 <= 1, "{msg:?} encoded in {} allocations", asked.0);
        let (decoded, asked) = counted(|| {
            decoder.extend(&frame);
            decoder.next()
        });
        assert_eq!(asked, (0, 0), "{msg:?} decoded");
        assert_eq!(decoded.as_ref(), Ok(msg));
    }
}

#[test]
fn a_snapshot_count_inflated_to_u32_max_is_refused_for_under_twice_the_blob() {
    let summary = FlowSummary {
        bytes: 500_000,
        duration_ns: 400_000_000,
        mean_rtt_ms: 160.0,
        min_rtt_ms: 150.0,
        retransmits: 1,
        timeouts: 0,
    };
    let mut store = ContextStore::new(StoreConfig::default());
    for i in 0..64u64 {
        store.report(PathKey(i % 4), (i + 1) * 1_000_000, &summary);
    }
    let blob = store.encode_snapshot(1);
    // Version, epoch, window, capacity flag (none) and EWMA weight, then
    // the path count. The first path: key, active count, report and
    // lookup counters, learned capacity, flags, the values they announce,
    // then its report count.
    let paths_at = 1 + 8 + 8 + 1 + 8;
    let flags = blob[paths_at + 4 + 36];
    let reports_at = paths_at + 4 + 37 + 8 * flags.count_ones() as usize;
    for at in [paths_at, reports_at] {
        let mut spoiled = blob.clone();
        spoiled[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let (decoded, (_, bytes)) = counted(|| ContextStore::decode_snapshot(&spoiled));
        assert_eq!(
            decoded.err(),
            Some(SnapshotError::Truncated),
            "count at {at}"
        );
        assert!(
            bytes < 2 * blob.len(),
            "count at {at}: {bytes} bytes asked for a {}-byte blob",
            blob.len()
        );
    }
}

/// The store's window in the counts below: a power of two, so that a
/// path's evenly spread reports land exactly one window apart.
const W: u64 = 1 << 30;

/// Windows `windows` of steady traffic: `depth` reports a window on each
/// of `paths` paths, round robin at even spacing, sizes and durations
/// (50 ms to 2 s, as in the benchmark) drawn from `rng`, and after every
/// `lookup_every`th report (never at 0) a lookup of the paths in turn.
/// Window `w` covers store time `(w + 1)·W .. (w + 2)·W`. Returns how
/// many reports it made.
fn steady(
    store: &mut ContextStore,
    rng: &mut SeedRng,
    windows: std::ops::Range<u64>,
    (paths, depth): (u64, u64),
    lookup_every: u64,
) -> u64 {
    let per_window = paths * depth;
    let mut made = 0;
    for w in windows {
        for i in 0..per_window {
            let (path, now) = (PathKey(i % paths), (w + 1) * W + i * (W / per_window));
            let summary = FlowSummary {
                bytes: rng.range_u64(20_000, 500_000),
                duration_ns: rng.range_u64(W / 20, 2 * W),
                mean_rtt_ms: 60.0,
                min_rtt_ms: 40.0,
                retransmits: rng.range_u64(0, 8) as u32,
                timeouts: 0,
            };
            store.report(path, now, &summary);
            made += 1;
            if lookup_every > 0 && made % lookup_every == 0 {
                store.lookup(PathKey(made / lookup_every % paths), now);
            }
        }
    }
    made
}

fn store() -> ContextStore {
    ContextStore::new(StoreConfig {
        window_ns: W,
        capacity_bps: Some(1e9),
        ..StoreConfig::default()
    })
}

#[test]
fn a_report_to_a_shallow_path_nobody_asks_about_allocates_nothing() {
    // `ctx_wide_ingest`'s shape: many paths, 16 reports deep.
    let shape = (1_024, 16);
    let (mut store, mut rng) = (store(), SeedRng::new(1).fork("shallow"));
    steady(&mut store, &mut rng, 0..2, shape, 0);
    let (reports, asked) = counted(|| steady(&mut store, &mut rng, 2..4, shape, 0));
    assert_eq!(reports, 2 * 1_024 * 16);
    assert_eq!(asked, (0, 0), "over {reports} reports");
}

#[test]
fn deep_paths_that_are_asked_about_allocate_only_index_buckets() {
    // `ctx_hot_lookup`'s shape at a tenth of its depth: four paths, each
    // looked up once every 128 of its reports. What is allocated is the
    // index's queue of waiting starts — a bucket `Vec` per 2²³ ns of
    // start time and path, grown as it is filed into, dropped once the
    // horizon has passed it: about one allocation per ten reports. The
    // deques have stopped growing.
    let shape = (4, 4_096);
    let (mut store, mut rng) = (store(), SeedRng::new(1).fork("deep"));
    steady(&mut store, &mut rng, 0..2, shape, 128);
    let (reports, asked) = counted(|| steady(&mut store, &mut rng, 2..4, shape, 128));
    assert_eq!(reports, 2 * 4 * 4_096);
    assert_eq!(asked, (3_386, 941_280), "over {reports} reports");
}
