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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use phi::core::context::{ContextStore, FlowSummary, PathKey, SnapshotError, StoreConfig};
use phi::core::wire::{encode, Decoder, Message, MAX_BATCH_ITEMS};
use phi::tcp::hook::ContextSnapshot;

thread_local! {
    /// Allocations (a `realloc` is one) this thread has made, and the
    /// bytes they asked for. Per thread: the harness runs tests side by
    /// side.
    static ASKED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        // `try_with`: the allocator outlives a thread's locals.
        let _ = ASKED.try_with(|asked| {
            let (calls, bytes) = asked.get();
            asked.set((calls + 1, bytes + size));
        });
    }
}

// SAFETY: every call is passed through to `System` unchanged; the counting
// beside it touches only a `Cell` in thread-local storage, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract, handed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract, handed on.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's contract, handed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, handed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, and the `(allocations, bytes)` this thread asked for
/// while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let (calls, bytes) = ASKED.with(Cell::get);
    let out = f();
    let (calls_after, bytes_after) = ASKED.with(Cell::get);
    (out, (calls_after - calls, bytes_after - bytes))
}

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
