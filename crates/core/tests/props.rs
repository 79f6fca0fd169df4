//! Property-based invariants of the context store and wire protocol.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use phi_core::context::{
    ContextStore, FlowSummary, PathKey, SnapshotError, StoreConfig, SNAPSHOT_VERSION,
};
use phi_core::server::{ClientConfig, ClientError, ContextClient};
use phi_core::shard::ShardedStore;
use phi_core::wire::{encode, DecodeError, Decoder, Message};
use phi_tcp::hook::ContextSnapshot;

mod model;
use model::ScanModel;

#[path = "model/twins.rs"]
mod twins;
use twins::Twins;

#[path = "model/wire.rs"]
mod wire_model;
use wire_model::{arb_batch_message, arb_message, arb_summary, damage, DAMAGES};

/// Frame type codes 1..=15 have been assigned (15 is the shard snapshot
/// sync); everything above is unknown and must decode as the
/// *recoverable* `BadType`.
const FIRST_UNKNOWN_TYPE: u8 = 16;

/// Codes retired since — never reassigned, so they decode like unknown
/// ones: the single-report frame and the whole-store snapshot sync.
const RETIRED_REPORT: u8 = 3;
const RETIRED_SNAPSHOT_SYNC: u8 = 11;

/// Type codes of the batch frames added after the original 1..=11 set —
/// the frames a pre-batch decoder must skip recoverably.
const BATCH_TYPES: std::ops::RangeInclusive<u8> = 12..=14;

/// Scripted context server for the client-pairing property. Replies to
/// `Lookup { path: p }` with a snapshot whose `queue_ms` encodes `p`, so
/// the client can prove each reply belongs to *its* request. Op `p` of
/// the script controls the reply: sleep past the client's deadline when
/// marked late, and write the frame in `chunk`-byte fragments.
fn scripted_server(
    ops: Vec<(bool, usize)>,
    late: Duration,
) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = stop.clone();
        let ops = Arc::new(ops);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let ops = ops.clone();
                        std::thread::spawn(move || scripted_handler(stream, &ops, late));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            }
        })
    };
    (addr, stop, accept)
}

fn scripted_handler(mut stream: TcpStream, ops: &[(bool, usize)], late: Duration) {
    let mut dec = Decoder::new();
    let mut buf = [0u8; 1024];
    loop {
        match dec.next() {
            Ok(Message::Lookup { path }) => {
                let (is_late, chunk) = ops.get(path.0 as usize).copied().unwrap_or((false, 1));
                if is_late {
                    std::thread::sleep(late);
                }
                let reply = encode(&Message::Context(ContextSnapshot {
                    utilization: 0.5,
                    queue_ms: path.0 as f64,
                    competing: 1,
                }));
                for piece in reply.chunks(chunk.max(1)) {
                    if stream.write_all(piece).is_err() {
                        return;
                    }
                    let _ = stream.flush();
                }
            }
            Ok(_) => return,
            Err(DecodeError::Incomplete) => match stream.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => dec.extend(&buf[..n]),
            },
            Err(_) => return,
        }
    }
}

/// Window of the rate-index properties below.
const W: u64 = 10_000_000_000;

/// One step of a rate-index trace, before its times are worked out:
/// `(kind, path, step, bytes, duration class, position in the class)`.
/// Kinds 0 and 1 report, 2 looks up, 3 peeks. Steps are mostly forward;
/// some stand still and some go back, as server threads that read the
/// clock before taking the lock make them. Durations cover nothing at
/// all, a sliver of the window, about the window, well over it, and
/// longer than time has run.
type RateStep = (u8, u64, i64, u64, u8, f64);

fn arb_rate_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RateStep>> {
    let step = prop_oneof![
        Just(0i64),
        1i64..1_000_000,
        10_000_000i64..1_000_000_000,
        (W / 2) as i64..(2 * W) as i64,
        -1_000_000_000i64..0,
    ];
    proptest::collection::vec(
        (
            0u8..4,
            0u64..3,
            step,
            1_000u64..50_000_000,
            0u8..5,
            0.0f64..1.0,
        ),
        len,
    )
}

/// A trace with its times worked out: `(kind, path, now, bytes, dur)`,
/// with `now` starting at `t0` and never below it.
fn rate_trace(steps: &[RateStep], t0: u64) -> Vec<(u8, u64, u64, u64, u64)> {
    let (mut now, mut latest) = (t0, t0);
    steps
        .iter()
        .map(|&(kind, path, step, bytes, class, at)| {
            now = now.saturating_add_signed(step).max(t0);
            latest = latest.max(now);
            let spread = |from: u64, width: u64| from + (at * width as f64) as u64;
            let dur = match class {
                0 => 0,
                1 => spread(100_000, W / 100),
                2 => spread(W / 2, W),
                3 => spread(2 * W, W),
                _ => spread(latest + 1, W),
            };
            (kind, path, now, bytes, dur)
        })
        .collect()
}

/// One step of a deep single-path trace, before its times are worked
/// out: `(kind, gap, bytes, duration class, position in the class)`.
/// Kinds 0–5 report, 6 looks up, 7 peeks.
type DeepStep = (u8, f64, u64, f64, f64);

/// Width of the rate index's buckets of waiting starts under [`W`]: the
/// window split into 256, rounded up to a power of two.
const BUCKET: u64 = 1 << 26;

/// A trace that keeps hundreds of reports waiting for the horizon on one
/// path, so the index's queue of them works in buckets (`arb_rate_steps`
/// rarely leaves it more than its one sorted run holds). In the form
/// `rate_step` takes: steps of up to 20 ms, now and then none, a step back, a
/// landing within a nanosecond of a bucket edge, an idle gap of many
/// buckets or of whole windows; durations of nothing, a sliver, anywhere
/// in the window, `W − ε` (a start in the horizon's own bucket), the
/// previous report's start exactly, and longer than the window or time.
fn deep_trace(steps: &[DeepStep]) -> Vec<(u8, u64, u64, u64, u64)> {
    let (mut now, mut latest, mut prev_start) = (0u64, 0u64, 0u64);
    // `x` of `lo..hi` mapped onto `from..from + width`.
    let within = |x: f64, lo: f64, hi: f64, from: u64, width: u64| {
        from + ((x - lo) / (hi - lo) * width as f64) as u64
    };
    steps
        .iter()
        .map(|&(kind, gap, bytes, class, at)| {
            now = match gap {
                g if g < 0.003 => now + within(g, 0.0, 0.003, W, 2 * W),
                g if g < 0.02 => now + within(g, 0.003, 0.02, 300_000_000, 2_700_000_000),
                g if g < 0.05 => (now / BUCKET + 1) * BUCKET - 1 + within(g, 0.02, 0.05, 0, 3),
                g if g < 0.10 => now,
                g if g < 0.13 => now.saturating_sub(within(g, 0.10, 0.13, 0, 50_000_000)),
                g => now + within(g, 0.13, 1.0, 1, 20_000_000),
            };
            latest = latest.max(now);
            let dur = match class {
                c if c < 0.05 => 0,
                c if c < 0.35 => within(at, 0.0, 1.0, 100_000, 100_000_000),
                c if c < 0.65 => within(at, 0.0, 1.0, 1, W),
                c if c < 0.80 => W - within(at, 0.0, 1.0, 0, BUCKET),
                c if c < 0.88 => latest.saturating_sub(prev_start).max(1),
                c if c < 0.96 => within(at, 0.0, 1.0, W, 2 * W),
                _ => within(at, 0.0, 1.0, latest + 1, W),
            };
            match kind {
                0..=5 => {
                    prev_start = latest.saturating_sub(dur);
                    (0, 0, now, bytes, dur)
                }
                6 => (2, 0, now, bytes, dur),
                _ => (3, 0, now, bytes, dur),
            }
        })
        .collect()
}

fn sized(bytes: u64, duration_ns: u64) -> FlowSummary {
    FlowSummary {
        bytes,
        duration_ns,
        mean_rtt_ms: 170.0,
        min_rtt_ms: 150.0,
        retransmits: 1,
        timeouts: 0,
    }
}

fn rate_cfg(capacity_bps: Option<f64>) -> StoreConfig {
    StoreConfig {
        window_ns: W,
        capacity_bps,
        queue_alpha: 0.3,
    }
}

/// Apply one trace step to `store` with its clock `shift` ahead of the
/// trace's; `Some(utilization)` if the step asked a question.
fn rate_step(
    store: &mut ContextStore,
    (kind, path, now, bytes, dur): (u8, u64, u64, u64, u64),
    shift: u64,
) -> Option<f64> {
    let (path, now) = (PathKey(path), now + shift);
    match kind {
        0 | 1 => {
            store.report(path, now, &sized(bytes, dur));
            None
        }
        2 => Some(store.lookup(path, now).utilization),
        _ => Some(store.peek(path, now).utilization),
    }
}

/// Feed `trace` to a pair of [`Twins`] under a `window`, asking one of
/// them more (drawn from `seed`), and tell them apart after every step
/// if anything can.
fn twins_agree(
    trace: &[(u8, u64, u64, u64, u64)],
    window: u64,
    capacity: Option<f64>,
    seed: u64,
) -> Result<(), String> {
    let cfg = StoreConfig {
        window_ns: window,
        ..rate_cfg(capacity)
    };
    let mut twins = Twins::new(cfg, seed, W);
    for &(kind, path, now, bytes, dur) in trace {
        let path = PathKey(path);
        match kind {
            0 | 1 => twins.report(path, now, &sized(bytes, dur)),
            2 => twins.lookup(path, now)?,
            _ => twins.peek(path, now)?,
        }
        twins.maybe_ask_more(now);
        twins.check(now)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Decoder` + `ContextClient` never deliver a mismatched reply, for
    /// any interleaving of on-time and past-deadline replies and any
    /// server-side fragmentation. Each reply encodes its request's path;
    /// an `Ok` whose payload names a different path would mean a stale
    /// reply got paired with a newer request (the pre-fix desync bug).
    /// After any failed call the connection must short-circuit with
    /// `Poisoned` — never touch the wire where the stale bytes live.
    #[test]
    fn client_never_pairs_a_reply_with_the_wrong_request(
        ops in proptest::collection::vec((any::<bool>(), 1usize..9), 1..6),
    ) {
        let late = Duration::from_millis(120);
        let cfg = ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_millis(40),
        };
        let (addr, stop, accept) = scripted_server(ops.clone(), late);
        let mut client = ContextClient::connect_with(addr, cfg).expect("connect");
        for (i, &(is_late, _)) in ops.iter().enumerate() {
            match client.lookup(PathKey(i as u64)) {
                Ok(snap) => {
                    prop_assert_eq!(
                        snap.queue_ms, i as f64,
                        "reply paired with the wrong request"
                    );
                    prop_assert!(!is_late, "a past-deadline reply was delivered");
                }
                Err(e) => {
                    prop_assert!(client.is_poisoned(), "failed call left conn usable: {}", e);
                    match client.lookup(PathKey(i as u64)) {
                        Err(ClientError::Poisoned) => {}
                        other => prop_assert!(
                            false,
                            "poisoned connection served a call: {:?}",
                            other.map(|s| s.queue_ms)
                        ),
                    }
                    client = ContextClient::connect_with(addr, cfg).expect("reconnect");
                }
            }
        }
        stop.store(true, Ordering::Release);
        accept.join().expect("accept thread");
    }

    #[test]
    fn wire_roundtrip_any_message(msg in arb_message()) {
        let frame = encode(&msg);
        let mut d = Decoder::new();
        d.extend(&frame);
        prop_assert_eq!(d.next().unwrap(), msg);
        prop_assert_eq!(d.next(), Err(DecodeError::Incomplete));
    }

    #[test]
    fn wire_roundtrip_survives_any_fragmentation(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        chunk in 1usize..17,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m));
        }
        let mut d = Decoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            d.extend(piece);
            loop {
                match d.next() {
                    Ok(m) => decoded.push(m),
                    Err(DecodeError::Incomplete) => break,
                    Err(e) => prop_assert!(false, "unexpected error {e}"),
                }
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// The optimised encoder writes, byte for byte, the frame the
    /// field-by-field model writes.
    #[test]
    fn wire_encode_is_the_models(msg in arb_message()) {
        let agrees = wire_model::encode_agrees(&msg);
        prop_assert!(agrees.is_ok(), "{}", agrees.unwrap_err());
    }

    /// A valid frame that was flipped, truncated, spliced, or had its
    /// length or count field inflated gets the same answer from the
    /// optimised decoder as from the model — the same message or the same
    /// error — and leaves the same bytes buffered, so the frame behind it
    /// is read from the same place. Neither panics.
    #[test]
    fn wire_decode_is_the_models_on_damaged_frames(
        msg in arb_message(),
        follower in arb_message(),
        kind in 0..DAMAGES,
        (a, b) in (any::<u64>(), any::<u64>()),
        piece in 1usize..200,
    ) {
        let mut stream = damage(&encode(&msg), kind, a, b);
        stream.extend_from_slice(&encode(&follower));
        let agrees = wire_model::decode_agrees(&stream, piece);
        prop_assert!(agrees.is_ok(), "damage {kind} ({a}, {b}) to {msg:?}: {}", agrees.unwrap_err());
    }

    /// The same for bytes that never were a frame.
    #[test]
    fn wire_decode_is_the_models_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        piece in 1usize..200,
    ) {
        let agrees = wire_model::decode_agrees(&bytes, piece);
        prop_assert!(agrees.is_ok(), "{}", agrees.unwrap_err());
    }

    /// Arbitrary garbage never panics the decoder: it yields either a
    /// message, an error, or a request for more bytes.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut d = Decoder::new();
        d.extend(&bytes);
        for _ in 0..64 {
            match d.next() {
                Ok(_) => {}
                Err(DecodeError::Incomplete) => break,
                Err(_) => break, // connection would be dropped here
            }
        }
    }

    /// Truncation at every point of a frame is a clean "feed me more
    /// bytes", never a panic or a spurious message — and completing the
    /// frame afterwards still yields the original message. This is the
    /// path a slow or half-closed TCP peer exercises constantly.
    #[test]
    fn truncated_frame_is_incomplete_then_completes(msg in arb_message()) {
        let frame = encode(&msg);
        // All prefixes for small frames; a uniform sample of ~64 for big
        // ones (PATHS frames reach a couple of KB).
        let stride = (frame.len() / 64).max(1);
        for cut in (0..frame.len()).step_by(stride) {
            let mut d = Decoder::new();
            d.extend(&frame[..cut]);
            prop_assert_eq!(d.next(), Err(DecodeError::Incomplete),
                "prefix of {} of {} bytes decoded", cut, frame.len());
            d.extend(&frame[cut..]);
            prop_assert_eq!(d.next().unwrap(), msg.clone(), "completion after cut {}", cut);
            prop_assert_eq!(d.next(), Err(DecodeError::Incomplete));
        }
    }

    /// A frame carrying the wrong protocol version is rejected as
    /// `BadVersion` for every message shape — including version bytes
    /// that alias a valid type code.
    #[test]
    fn wrong_version_rejected(msg in arb_message(), bad in any::<u8>()) {
        prop_assume!(bad != 1); // VERSION
        let mut frame = encode(&msg);
        frame[4] = bad; // [u32 len][u8 version][u8 type][payload]
        let mut d = Decoder::new();
        d.extend(&frame);
        prop_assert_eq!(d.next(), Err(DecodeError::BadVersion(bad)));
    }

    /// An unknown type code is rejected as `BadType` regardless of the
    /// payload that follows — and `BadType` is the one *recoverable*
    /// decode error: the unknown frame is consumed whole, so a message
    /// from a future protocol pipelined behind it still decodes. This is
    /// the wire-level forward-compatibility contract.
    #[test]
    fn unknown_type_rejected_and_recoverable(
        msg in arb_message(),
        follower in arb_message(),
        bad in prop_oneof![
            Just(RETIRED_REPORT),
            Just(RETIRED_SNAPSHOT_SYNC),
            FIRST_UNKNOWN_TYPE..=255,
        ],
    ) {
        let mut frame = encode(&msg);
        frame[5] = bad;
        let mut d = Decoder::new();
        d.extend(&frame);
        d.extend(&encode(&follower));
        match d.next() {
            Err(e @ DecodeError::BadType(t)) => {
                prop_assert_eq!(t, bad);
                prop_assert!(e.is_recoverable(), "BadType must be recoverable");
            }
            other => prop_assert!(false, "expected BadType, got {:?}", other),
        }
        // The stream is still frame-aligned: the follower decodes intact.
        prop_assert_eq!(d.next().unwrap(), follower);
    }

    /// Shortening the payload while keeping the length header honest
    /// yields `Malformed` (payload ends early) for every message with a
    /// payload — never a panic, never a bogus message. Type codes 4
    /// (REPORT_OK) and 6/1-style fixed shapes with empty tails are
    /// excluded by construction: we only cut frames that have payload
    /// bytes to lose.
    #[test]
    fn short_payload_with_honest_length_is_malformed(msg in arb_message(), drop in 1usize..9) {
        let full = encode(&msg);
        let payload_len = full.len() - 6; // after len+version+type
        prop_assume!(payload_len >= 1);
        let drop = drop.min(payload_len);
        let mut frame = full;
        frame.truncate(frame.len() - drop);
        // Rewrite the length header to match the shortened frame, so the
        // decoder sees a "complete" frame whose payload ends early.
        let new_len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&new_len.to_be_bytes());
        let mut d = Decoder::new();
        d.extend(&frame);
        match d.next() {
            Err(DecodeError::Malformed(_)) => {}
            other => prop_assert!(false, "expected Malformed, got {:?}", other),
        }
    }

    /// Store invariants under arbitrary interleavings of lookups/reports:
    /// utilization stays in [0,1], competing equals lookups minus reports
    /// (floored at zero), and time never has to move monotonically.
    #[test]
    fn store_invariants_under_interleaving(
        ops in proptest::collection::vec((any::<bool>(), 0u64..3, 0u64..100_000_000_000, arb_summary()), 1..200),
    ) {
        let mut store = ContextStore::new(StoreConfig {
            window_ns: 10_000_000_000,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        });
        let mut balance = [0i64; 3];
        for (is_lookup, path_idx, now, summary) in ops {
            let path = PathKey(path_idx);
            if is_lookup {
                let snap = store.lookup(path, now);
                prop_assert!((0.0..=1.0).contains(&snap.utilization));
                prop_assert!(snap.queue_ms >= 0.0 && snap.queue_ms.is_finite());
                prop_assert_eq!(i64::from(snap.competing), balance[path_idx as usize].max(0));
                balance[path_idx as usize] += 1;
            } else {
                store.report(path, now, &summary);
                balance[path_idx as usize] = (balance[path_idx as usize] - 1).max(0);
            }
        }
    }

    /// Snapshot/restore is lossless for any store state reachable through
    /// the public API, and the epoch tag survives verbatim: the restored
    /// store is `==` the original (same paths, same EWMA state, same
    /// recent-report ring), so a restarted server resumes mid-estimate.
    #[test]
    fn snapshot_roundtrip_any_store_state(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..5, 0u64..100_000_000_000, arb_summary()),
            0..120,
        ),
        epoch in any::<u64>(),
    ) {
        let mut store = ContextStore::new(StoreConfig {
            window_ns: 10_000_000_000,
            capacity_bps: None, // exercise learned capacity too
            queue_alpha: 0.3,
        });
        for (is_lookup, path_idx, now, summary) in ops {
            if is_lookup {
                store.lookup(PathKey(path_idx), now);
            } else {
                store.report(PathKey(path_idx), now, &summary);
            }
        }
        let blob = store.encode_snapshot(epoch);
        let (restored, got_epoch) = ContextStore::decode_snapshot(&blob)
            .expect("own snapshot must decode");
        prop_assert_eq!(got_epoch, epoch);
        prop_assert_eq!(&restored, &store, "restore lost state");
        // Determinism of the encoding itself: same state, same bytes.
        prop_assert_eq!(restored.encode_snapshot(epoch), blob);
    }

    /// Every store draws its own path-hash keys, so two stores keep the
    /// same paths in different orders. Fed the same ops they still give
    /// the same answers, stay `==`, list the same dashboard, and encode
    /// byte-identical snapshots.
    #[test]
    fn stores_keyed_apart_stay_identical(
        ops in proptest::collection::vec(
            (0u8..3, prop_oneof![0u64..64, any::<u64>()], 0u64..100_000_000_000, arb_summary()),
            0..200,
        ),
    ) {
        let cfg = rate_cfg(None);
        let (mut one, mut other) = (ContextStore::new(cfg), ContextStore::new(cfg));
        for (kind, path, now, summary) in ops {
            let path = PathKey(path);
            match kind {
                0 => {
                    one.report(path, now, &summary);
                    other.report(path, now, &summary);
                }
                1 => prop_assert_eq!(one.lookup(path, now), other.lookup(path, now)),
                _ => prop_assert_eq!(one.peek(path, now), other.peek(path, now)),
            }
        }
        prop_assert_eq!(&one, &other);
        prop_assert_eq!(one.encode_snapshot(1), other.encode_snapshot(1));
        prop_assert_eq!(one.snapshot(W), other.snapshot(W));
    }

    /// The rate index against the scan it replaced, bit for bit, on any
    /// interleaving of reports, lookups and peeks — timestamps equal,
    /// decreasing, leaping past the window and starting inside the first
    /// one; durations from nothing to longer than time has run; capacity
    /// known and learned.
    #[test]
    fn rate_index_matches_the_scan(steps in arb_rate_steps(1..250)) {
        for capacity in [Some(10_000_000.0), None] {
            let mut store = ContextStore::new(rate_cfg(capacity));
            let mut scan = ScanModel::new(W, capacity);
            for op in rate_trace(&steps, 0) {
                let (_, path, now, bytes, dur) = op;
                if let Some(u) = rate_step(&mut store, op, 0) {
                    prop_assert!((0.0..=1.0).contains(&u), "utilization {}", u);
                    let verdict = scan.check(path, now, u);
                    prop_assert!(verdict.is_ok(), "{:?} (capacity {:?})", verdict, capacity);
                } else {
                    scan.report(path, now, bytes, dur);
                }
            }
        }
    }

    /// The same against a deep window on one path, where the reports
    /// waiting for the horizon are kept in buckets of start time.
    #[test]
    fn rate_index_matches_the_scan_when_deep(
        steps in proptest::collection::vec(
            (0u8..8, 0.0f64..1.0, 1_000u64..50_000_000, 0.0f64..1.0, 0.0f64..1.0),
            400..1_500,
        ),
    ) {
        for capacity in [Some(10_000_000.0), None] {
            let mut store = ContextStore::new(rate_cfg(capacity));
            let mut scan = ScanModel::new(W, capacity);
            for op in deep_trace(&steps) {
                let (_, _, now, bytes, dur) = op;
                if let Some(u) = rate_step(&mut store, op, 0) {
                    prop_assert!((0.0..=1.0).contains(&u), "utilization {}", u);
                    let verdict = scan.check(0, now, u);
                    prop_assert!(verdict.is_ok(), "{:?} (capacity {:?})", verdict, capacity);
                } else {
                    scan.report(0, now, bytes, dur);
                }
            }
        }
    }

    /// Every answer is a function of what is in the window relative to
    /// now, not of where on the clock the window sits: the same trace
    /// run `k` windows later gives bit-identical `f64`s. (Replicas and
    /// the benchmark's "every unit repeats the first" rest on this.)
    #[test]
    fn rate_index_is_shift_invariant(
        steps in arb_rate_steps(1..250),
        k in 1u64..1_000_000,
    ) {
        for capacity in [Some(10_000_000.0), None] {
            let mut here = ContextStore::new(rate_cfg(capacity));
            let mut later = ContextStore::new(rate_cfg(capacity));
            // From one full window on, so both runs divide by the window.
            let trace = rate_trace(&steps, W);
            for &op in &trace {
                let (a, b) = (rate_step(&mut here, op, 0), rate_step(&mut later, op, k * W));
                prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "at {:?}", op);
            }
            let end = trace.last().expect("non-empty").2;
            let bits = |v: Vec<(PathKey, ContextSnapshot)>| -> Vec<(PathKey, u64)> {
                v.into_iter().map(|(p, c)| (p, c.utilization.to_bits())).collect()
            };
            prop_assert_eq!(bits(here.snapshot(end)), bits(later.snapshot(end + k * W)));
        }
    }

    /// Questions leave no trace: two stores fed the same reports and
    /// lookups, one of them given extra peeks at random points and
    /// times, stay indistinguishable after every step — on a few paths
    /// and on one deep one, capacity known and learned, under a window
    /// of nothing, of one nanosecond and of `W`.
    #[test]
    fn questions_leave_no_trace(
        steps in arb_rate_steps(1..250),
        deep in proptest::collection::vec(
            (0u8..8, 0.0f64..1.0, 1_000u64..50_000_000, 0.0f64..1.0, 0.0f64..1.0),
            300..900,
        ),
        seed in any::<u64>(),
    ) {
        for trace in [rate_trace(&steps, 0), deep_trace(&deep)] {
            for window in [0, 1, W] {
                for capacity in [Some(10_000_000.0), None] {
                    let verdict = twins_agree(&trace, window, capacity, seed);
                    prop_assert!(
                        verdict.is_ok(),
                        "{:?} (window {}, capacity {:?})", verdict, window, capacity
                    );
                }
            }
        }
    }

    /// The index is derived state: a store restored from a snapshot —
    /// which carries none — equals the original, answers every later
    /// question bit-identically, and still equals it afterwards, however
    /// many questions the original had been asked before.
    #[test]
    fn restored_store_answers_bit_identically(
        steps in arb_rate_steps(2..250),
        cut in 0.0f64..1.0,
    ) {
        for capacity in [Some(10_000_000.0), None] {
            let trace = rate_trace(&steps, 0);
            let (before, after) = trace.split_at((cut * trace.len() as f64) as usize);
            let mut store = ContextStore::new(rate_cfg(capacity));
            for &op in before {
                rate_step(&mut store, op, 0);
            }
            let (mut restored, _) = ContextStore::decode_snapshot(&store.encode_snapshot(1))
                .expect("own snapshot must decode");
            prop_assert_eq!(&restored, &store);
            for &op in after {
                let (a, b) = (rate_step(&mut store, op, 0), rate_step(&mut restored, op, 0));
                prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "at {:?}", op);
            }
            prop_assert_eq!(&restored, &store);
            prop_assert_eq!(restored.encode_snapshot(1), store.encode_snapshot(1));
        }
    }

    /// No input is too large: times, sizes and durations over the whole
    /// `u64` range (in any order) wrap inside the index instead of
    /// panicking, and what comes out is still a utilization.
    #[test]
    fn store_survives_the_whole_u64_range(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..2, any::<u64>(), any::<u64>(), any::<u64>()),
            1..80,
        ),
    ) {
        for capacity in [Some(10_000_000.0), None] {
            let mut store = ContextStore::new(rate_cfg(capacity));
            for &(kind, path, now, bytes, dur) in &ops {
                if let Some(u) = rate_step(&mut store, (kind + 1, path, now, bytes, dur), 0) {
                    prop_assert!((0.0..=1.0).contains(&u), "utilization {}", u);
                }
            }
        }
    }

    /// A snapshot from a *future* format version is a clean typed error —
    /// never a panic, never a silently misread store — no matter what the
    /// rest of the blob holds.
    #[test]
    fn future_snapshot_version_is_typed_error(
        version in (SNAPSHOT_VERSION + 1)..=255,
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut blob = vec![version];
        blob.extend_from_slice(&body);
        prop_assert_eq!(
            ContextStore::decode_snapshot(&blob),
            Err(SnapshotError::UnsupportedVersion(version))
        );
    }

    /// Truncating a valid snapshot anywhere past the version byte yields
    /// a typed error (`Truncated` or `Malformed`), never a panic and
    /// never a partially-restored store presented as success.
    #[test]
    fn truncated_snapshot_is_typed_error(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..3, 0u64..50_000_000_000, arb_summary()),
            1..40,
        ),
    ) {
        let mut store = ContextStore::new(StoreConfig::default());
        for (is_lookup, path_idx, now, summary) in ops {
            if is_lookup {
                store.lookup(PathKey(path_idx), now);
            } else {
                store.report(PathKey(path_idx), now, &summary);
            }
        }
        let blob = store.encode_snapshot(1);
        let stride = (blob.len() / 48).max(1);
        for cut in (1..blob.len()).step_by(stride) {
            match ContextStore::decode_snapshot(&blob[..cut]) {
                Err(SnapshotError::Truncated) | Err(SnapshotError::Malformed(_)) => {}
                Ok(_) => prop_assert!(
                    false,
                    "truncation at {} of {} decoded successfully",
                    cut,
                    blob.len()
                ),
                Err(e) => prop_assert!(false, "unexpected error at {}: {:?}", cut, e),
            }
        }
    }

    /// The sharding tentpole's correctness contract: a `ShardedStore`
    /// with any shard count is *observably equivalent* to the classic
    /// store for any interleaving of lookups and reports — identical
    /// snapshots returned to every query, identical counters, identical
    /// loss signals, identical dashboard views. Paths never interact in
    /// the store, so splitting the keyspace must be invisible.
    #[test]
    fn sharded_store_matches_classic_for_any_interleaving(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..16, 0u64..100_000_000_000, arb_summary()),
            1..200,
        ),
    ) {
        let cfg = StoreConfig {
            window_ns: 10_000_000_000,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        };
        for shards in [1usize, 4, 16] {
            let mut classic = ContextStore::new(cfg);
            let mut sharded = ShardedStore::new(cfg, shards);
            for &(is_lookup, path_idx, now, summary) in &ops {
                let path = PathKey(path_idx);
                if is_lookup {
                    prop_assert_eq!(
                        sharded.lookup(path, now),
                        classic.lookup(path, now),
                        "lookup diverged at {} shards",
                        shards
                    );
                } else {
                    sharded.report(path, now, &summary);
                    classic.report(path, now, &summary);
                }
                prop_assert_eq!(sharded.peek(path, now), classic.peek(path, now));
            }
            prop_assert_eq!(sharded.path_count(), classic.path_count());
            prop_assert_eq!(
                sharded.snapshot(100_000_000_000),
                classic.snapshot(100_000_000_000),
                "merged snapshot diverged at {} shards",
                shards
            );
            for p in 0..16u64 {
                let p = PathKey(p);
                prop_assert_eq!(sharded.loss_signal(p), classic.loss_signal(p));
                prop_assert_eq!(sharded.traffic_counters(p), classic.traffic_counters(p));
            }
        }
    }

    /// Forward compatibility of the batch extension: to a pre-batch
    /// decoder, type codes 12..=14 are exactly "unknown types" — the
    /// decoder never inspects an unknown frame's payload, so remapping a
    /// real batch frame's type code into today's unknown range *is* a
    /// pre-batch decoder seeing a batch frame. It must surface the
    /// recoverable `BadType` and stay frame-aligned: a message pipelined
    /// behind the batch still decodes intact, whatever the batch held
    /// (zero items, full items, any payload).
    #[test]
    fn batch_frames_skip_recoverably_on_a_pre_batch_decoder(
        batch in arb_batch_message(),
        follower in arb_message(),
    ) {
        let mut frame = encode(&batch);
        let batch_type = frame[5];
        prop_assert!(BATCH_TYPES.contains(&batch_type), "not a batch frame: {}", batch_type);
        let unknown = FIRST_UNKNOWN_TYPE + (batch_type - BATCH_TYPES.start());
        frame[5] = unknown;
        let mut d = Decoder::new();
        d.extend(&frame);
        d.extend(&encode(&follower));
        match d.next() {
            Err(e @ DecodeError::BadType(t)) => {
                prop_assert_eq!(t, unknown);
                prop_assert!(e.is_recoverable(), "pre-batch decoders must keep serving");
            }
            other => prop_assert!(false, "expected BadType, got {:?}", other),
        }
        prop_assert_eq!(d.next().unwrap(), follower, "stream desynchronized");
    }
}
