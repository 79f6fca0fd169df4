//! The wire codec written the plain way: the oracle `phi_core::wire` is
//! tested against.
//!
//! This is the codec as it stood before it was made to touch each frame
//! byte once — one `extend_from_slice` per field going out, a copy of the
//! payload and one bounds-checked read per field coming in — over a bare
//! `Vec<u8>`, so it shares neither the staged records, nor the in-place
//! reads, nor the `bytes` stand-in with the code under test. Every bound,
//! cap and error is the wire format's own and is kept.
//!
//! Below the model: the two comparisons ([`encode_agrees`],
//! [`decode_agrees`]), the damage done to valid frames ([`damage`]) and
//! the messages both are drawn over ([`arb_message`]). Used by `props.rs`
//! beside it and, through `#[path]`, by the root package's
//! `tests/wire_reference.rs`, which tier-1 runs.

use proptest::prelude::*;

use phi_core::context::{FlowSummary, PathKey};
use phi_core::wire::{
    self, DecodeError, Message, ReplOp, Role, MAX_BATCH_ITEMS, MAX_FRAME, MAX_SHARD_SNAPSHOT_BLOB,
    MAX_SNAPSHOT_PATHS, VERSION,
};
use phi_tcp::hook::ContextSnapshot;

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

fn put_ctx(out: &mut Vec<u8>, c: &ContextSnapshot) {
    out.extend_from_slice(&c.utilization.to_bits().to_be_bytes());
    out.extend_from_slice(&c.queue_ms.to_bits().to_be_bytes());
    out.extend_from_slice(&c.competing.to_be_bytes());
}

fn put_summary(out: &mut Vec<u8>, s: &FlowSummary) {
    out.extend_from_slice(&s.bytes.to_be_bytes());
    out.extend_from_slice(&s.duration_ns.to_be_bytes());
    out.extend_from_slice(&s.mean_rtt_ms.to_bits().to_be_bytes());
    out.extend_from_slice(&s.min_rtt_ms.to_bits().to_be_bytes());
    out.extend_from_slice(&s.retransmits.to_be_bytes());
    out.extend_from_slice(&s.timeouts.to_be_bytes());
}

/// `msg`'s frame, field by field.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut f = vec![0, 0, 0, 0, VERSION];
    let count = |f: &mut Vec<u8>, ty: u8, len: usize, cap: usize| {
        let n = len.min(cap);
        f.push(ty);
        f.extend_from_slice(&(n as u16).to_be_bytes());
        n
    };
    match msg {
        Message::Lookup { path } => {
            f.push(1);
            f.extend_from_slice(&path.0.to_be_bytes());
        }
        Message::Context(c) => {
            f.push(2);
            put_ctx(&mut f, c);
        }
        Message::ReportOk => f.push(4),
        Message::Error { code, message } => {
            f.push(5);
            f.extend_from_slice(&code.to_be_bytes());
            let mut len = message.len().min(512);
            while !message.is_char_boundary(len) {
                len -= 1;
            }
            f.extend_from_slice(&(len as u16).to_be_bytes());
            f.extend_from_slice(&message.as_bytes()[..len]);
        }
        Message::Snapshot { limit } => {
            f.push(6);
            f.extend_from_slice(&limit.to_be_bytes());
        }
        Message::Paths(paths) => {
            let n = count(&mut f, 7, paths.len(), MAX_SNAPSHOT_PATHS);
            for (key, ctx) in &paths[..n] {
                f.extend_from_slice(&key.0.to_be_bytes());
                put_ctx(&mut f, ctx);
            }
        }
        Message::EpochQuery => f.push(8),
        Message::Epoch { epoch, role } => {
            f.push(9);
            f.extend_from_slice(&epoch.to_be_bytes());
            f.push(match role {
                Role::Primary => 1,
                Role::Backup => 2,
            });
        }
        Message::Replicate { epoch, seq, op } => {
            f.push(10);
            f.extend_from_slice(&epoch.to_be_bytes());
            f.extend_from_slice(&seq.to_be_bytes());
            let (tag, path, now_ns, summary) = match op {
                ReplOp::Lookup { path, now_ns } => (1, path, now_ns, None),
                ReplOp::Report {
                    path,
                    now_ns,
                    summary,
                } => (2, path, now_ns, Some(summary)),
            };
            f.push(tag);
            f.extend_from_slice(&path.0.to_be_bytes());
            f.extend_from_slice(&now_ns.to_be_bytes());
            if let Some(summary) = summary {
                put_summary(&mut f, summary);
            }
        }
        Message::BatchReport(items) => {
            let n = count(&mut f, 12, items.len(), MAX_BATCH_ITEMS);
            for (path, summary) in &items[..n] {
                f.extend_from_slice(&path.0.to_be_bytes());
                put_summary(&mut f, summary);
            }
        }
        Message::BatchQuery(paths) => {
            let n = count(&mut f, 13, paths.len(), MAX_BATCH_ITEMS);
            for path in &paths[..n] {
                f.extend_from_slice(&path.0.to_be_bytes());
            }
        }
        Message::BatchReply(snaps) => {
            let n = count(&mut f, 14, snaps.len(), MAX_BATCH_ITEMS);
            for ctx in &snaps[..n] {
                put_ctx(&mut f, ctx);
            }
        }
        Message::ShardSnapshotSync { shard, epoch, blob } => {
            f.push(15);
            f.extend_from_slice(&shard.to_be_bytes());
            f.extend_from_slice(&epoch.to_be_bytes());
            assert!(blob.len() <= MAX_SHARD_SNAPSHOT_BLOB, "no frame holds it");
            f.extend_from_slice(&(blob.len() as u32).to_be_bytes());
            f.extend_from_slice(blob);
        }
    }
    let len = (f.len() - 4) as u32;
    f[..4].copy_from_slice(&len.to_be_bytes());
    f
}

/// A payload being read: every read is preceded by a [`Cursor::need`].
struct Cursor {
    payload: Vec<u8>,
    at: usize,
}

impl Cursor {
    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.payload.len() - self.at < n {
            return Err(DecodeError::Malformed("payload too short"));
        }
        Ok(())
    }
    fn take(&mut self, n: usize) -> Vec<u8> {
        self.at += n;
        self.payload[self.at - n..self.at].to_vec()
    }
    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }
    fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take(2).try_into().unwrap())
    }
    fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().unwrap())
    }
    fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().unwrap())
    }
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
    fn ctx(&mut self) -> ContextSnapshot {
        ContextSnapshot {
            utilization: self.f64(),
            queue_ms: self.f64(),
            competing: self.u32(),
        }
    }
    fn summary(&mut self) -> FlowSummary {
        FlowSummary {
            bytes: self.u64(),
            duration_ns: self.u64(),
            mean_rtt_ms: self.f64(),
            min_rtt_ms: self.f64(),
            retransmits: self.u32(),
            timeouts: self.u32(),
        }
    }
    /// The count that opens a PATHS or batch payload, and a check that
    /// `record` bytes for each of them follow.
    fn count(
        &mut self,
        cap: usize,
        over: &'static str,
        record: usize,
    ) -> Result<usize, DecodeError> {
        self.need(2)?;
        let n = self.u16() as usize;
        if n > cap {
            return Err(DecodeError::Malformed(over));
        }
        self.need(n * record)?;
        Ok(n)
    }
}

/// The streaming decoder: what it is fed, less the frames it has yielded
/// or rejected.
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

impl Decoder {
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    pub fn next(&mut self) -> Result<Message, DecodeError> {
        if self.buf.len() < 4 {
            return Err(DecodeError::Incomplete);
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if !(2..=MAX_FRAME).contains(&len) {
            return Err(DecodeError::Malformed("length out of bounds"));
        }
        if self.buf.len() < 4 + len {
            return Err(DecodeError::Incomplete);
        }
        // The frame leaves the stream before anything in it is looked at.
        let frame: Vec<u8> = self.buf.drain(..4 + len).collect();
        decode_payload(Cursor {
            payload: frame[4..].to_vec(),
            at: 0,
        })
    }
}

fn decode_payload(mut p: Cursor) -> Result<Message, DecodeError> {
    let version = p.u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    match p.u8() {
        1 => {
            p.need(8)?;
            Ok(Message::Lookup {
                path: PathKey(p.u64()),
            })
        }
        2 => {
            p.need(20)?;
            Ok(Message::Context(p.ctx()))
        }
        4 => Ok(Message::ReportOk),
        5 => {
            p.need(4)?;
            let code = p.u16();
            let len = p.u16() as usize;
            p.need(len)?;
            let message = String::from_utf8(p.take(len))
                .map_err(|_| DecodeError::Malformed("error message not utf-8"))?;
            Ok(Message::Error { code, message })
        }
        6 => {
            p.need(2)?;
            Ok(Message::Snapshot { limit: p.u16() })
        }
        7 => {
            let n = p.count(MAX_SNAPSHOT_PATHS, "too many paths", 28)?;
            Ok(Message::Paths(
                (0..n).map(|_| (PathKey(p.u64()), p.ctx())).collect(),
            ))
        }
        8 => Ok(Message::EpochQuery),
        9 => {
            p.need(9)?;
            let epoch = p.u64();
            let role = match p.u8() {
                1 => Role::Primary,
                2 => Role::Backup,
                _ => return Err(DecodeError::Malformed("unknown role")),
            };
            Ok(Message::Epoch { epoch, role })
        }
        10 => {
            p.need(17)?;
            let (epoch, seq) = (p.u64(), p.u64());
            let op = match p.u8() {
                1 => {
                    p.need(16)?;
                    ReplOp::Lookup {
                        path: PathKey(p.u64()),
                        now_ns: p.u64(),
                    }
                }
                2 => {
                    p.need(56)?;
                    ReplOp::Report {
                        path: PathKey(p.u64()),
                        now_ns: p.u64(),
                        summary: p.summary(),
                    }
                }
                _ => return Err(DecodeError::Malformed("unknown replication op")),
            };
            Ok(Message::Replicate { epoch, seq, op })
        }
        12 => {
            let n = p.count(MAX_BATCH_ITEMS, "batch too large", 48)?;
            Ok(Message::BatchReport(
                (0..n).map(|_| (PathKey(p.u64()), p.summary())).collect(),
            ))
        }
        13 => {
            let n = p.count(MAX_BATCH_ITEMS, "batch too large", 8)?;
            Ok(Message::BatchQuery(
                (0..n).map(|_| PathKey(p.u64())).collect(),
            ))
        }
        14 => {
            let n = p.count(MAX_BATCH_ITEMS, "batch too large", 20)?;
            Ok(Message::BatchReply((0..n).map(|_| p.ctx()).collect()))
        }
        15 => {
            p.need(16)?;
            let (shard, epoch) = (p.u32(), p.u64());
            let len = p.u32() as usize;
            if len > MAX_SHARD_SNAPSHOT_BLOB {
                return Err(DecodeError::Malformed("snapshot blob too large"));
            }
            p.need(len)?;
            let blob = p.take(len);
            Ok(Message::ShardSnapshotSync { shard, epoch, blob })
        }
        // 3 and 11 are retired and decode like any unassigned code.
        other => Err(DecodeError::BadType(other)),
    }
}

// ---------------------------------------------------------------------
// The comparisons
// ---------------------------------------------------------------------

/// `Err` unless `wire::encode` writes `msg` as the model does, byte for
/// byte.
pub fn encode_agrees(msg: &Message) -> Result<(), String> {
    let (got, want) = (wire::encode(msg), encode(msg));
    if got[..] == want[..] {
        return Ok(());
    }
    let at = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
    Err(format!(
        "{msg:?}: {} bytes against the model's {}, first difference at {at}",
        got.len(),
        want.len()
    ))
}

/// Whether two decoders answered alike. Messages are compared as their
/// `Debug` text and as the model's frame of them, not with `==`: damage
/// makes NaNs, which are unequal to themselves, and the frame holds their
/// bits.
fn alike(a: &Result<Message, DecodeError>, b: &Result<Message, DecodeError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => format!("{a:?}") == format!("{b:?}") && encode(a) == encode(b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// `Err` unless `wire::Decoder` and the model, fed `stream` in pieces of
/// `piece` bytes, answer every `next` alike — the same message or the same
/// error — and hold the same number of bytes after each. Both are driven
/// as a connection drives them: on past a message or a recoverable error,
/// and no further once the stream is lost.
pub fn decode_agrees(stream: &[u8], piece: usize) -> Result<(), String> {
    let (mut new, mut model) = (wire::Decoder::new(), Decoder::default());
    for fed in stream.chunks(piece.max(1)) {
        new.extend(fed);
        model.extend(fed);
        loop {
            let (got, want) = (new.next(), model.next());
            if !alike(&got, &want) || new.buffered() != model.buffered() {
                return Err(format!(
                    "{got:?} with {} bytes left, against the model's {want:?} with {}",
                    new.buffered(),
                    model.buffered()
                ));
            }
            match got {
                Ok(_) => {}
                Err(e) if e.is_recoverable() => {}
                Err(DecodeError::Incomplete) => break,
                Err(_) => return Ok(()),
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The damage
// ---------------------------------------------------------------------

/// Ways [`damage`] can spoil a frame.
pub const DAMAGES: u8 = 6;

/// A valid `frame`, spoiled in way `kind` (below [`DAMAGES`]) at places
/// picked by `a` and `b`.
pub fn damage(frame: &[u8], kind: u8, a: u64, b: u64) -> Vec<u8> {
    let mut f = frame.to_vec();
    let (a, b) = (a as usize, b as usize);
    // The length field says what the frame now holds.
    let relength = |f: &mut Vec<u8>| {
        if f.len() >= 4 {
            let len = (f.len() - 4) as u32;
            f[..4].copy_from_slice(&len.to_be_bytes());
        }
    };
    match kind {
        // One bit flipped, anywhere.
        0 => f[a % frame.len()] ^= 1 << (b % 8),
        // Cut short: as a stalled peer leaves it (the length promises
        // more), or with a length that owns up to it.
        1 => {
            f.truncate(a % frame.len());
            if b % 2 == 1 {
                relength(&mut f);
            }
        }
        // A run of its own bytes spliced in, the length adjusted or not.
        2 => {
            let from = a % frame.len();
            let run = frame[from..frame.len().min(from + 1 + b % 64)].to_vec();
            let at = (a / 7) % (frame.len() + 1);
            f.splice(at..at, run);
            if b % 2 == 1 {
                relength(&mut f);
            }
        }
        // The length field inflated: a little, to the bound, past it.
        3 => {
            let len = match b % 4 {
                0 => MAX_FRAME,
                1 => MAX_FRAME + 1,
                _ => frame.len() - 4 + 1 + a % 70_000,
            };
            f[..4].copy_from_slice(&(len as u32).to_be_bytes());
        }
        // The field that says how much follows inflated — a batch's item
        // count, an error's text length, a snapshot's blob length — in a
        // frame no longer than it was, or padded out to look the part.
        4 => {
            let (at, width) = match frame[5] {
                5 => (8, 2),
                15 => (18, 4),
                _ => (6, 2),
            };
            if f.len() >= at + width {
                let mut was = [0; 8];
                was[8 - width..].copy_from_slice(&f[at..at + width]);
                let most = u64::MAX >> (64 - 8 * width);
                let now = (u64::from_be_bytes(was) + 1 + a as u64 % 2_048).min(most);
                f[at..at + width].copy_from_slice(&now.to_be_bytes()[8 - width..]);
            }
            if b % 2 == 1 {
                f.resize(f.len() + (b / 2) % 4_096, 0xA5);
                relength(&mut f);
            }
        }
        // The payload replaced by noise behind an honest header.
        _ => {
            f.truncate(6);
            f.resize(6 + b % 300, 0);
            let mut noise = a as u64 ^ (b as u64).rotate_left(32);
            for byte in &mut f[6..] {
                noise = noise
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *byte = (noise >> 56) as u8;
            }
            relength(&mut f);
        }
    }
    f
}

// ---------------------------------------------------------------------
// The messages
// ---------------------------------------------------------------------

pub fn arb_summary() -> impl Strategy<Value = FlowSummary> {
    (
        0u64..u64::MAX / 2,
        0u64..u64::MAX / 2,
        0.0f64..10_000.0,
        0.0f64..10_000.0,
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |(bytes, duration_ns, mean_rtt_ms, min_rtt_ms, retransmits, timeouts)| FlowSummary {
                bytes,
                duration_ns,
                mean_rtt_ms,
                min_rtt_ms,
                retransmits,
                timeouts,
            },
        )
}

fn arb_snapshot() -> impl Strategy<Value = ContextSnapshot> {
    (0.0f64..1.0, 0.0f64..10_000.0, any::<u32>()).prop_map(|(u, q, n)| ContextSnapshot {
        utilization: u,
        queue_ms: q,
        competing: n,
    })
}

fn arb_role() -> impl Strategy<Value = Role> {
    prop_oneof![Just(Role::Primary), Just(Role::Backup)]
}

fn arb_replop() -> impl Strategy<Value = ReplOp> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(p, now_ns)| ReplOp::Lookup {
            path: PathKey(p),
            now_ns,
        }),
        (any::<u64>(), any::<u64>(), arb_summary()).prop_map(|(p, now_ns, summary)| {
            ReplOp::Report {
                path: PathKey(p),
                now_ns,
                summary,
            }
        }),
    ]
}

pub fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u64>().prop_map(|p| Message::Lookup { path: PathKey(p) }),
        arb_snapshot().prop_map(Message::Context),
        Just(Message::ReportOk),
        (any::<u16>(), "[ -~]{0,300}").prop_map(|(code, message)| Message::Error { code, message }),
        any::<u16>().prop_map(|limit| Message::Snapshot { limit }),
        proptest::collection::vec((any::<u64>(), arb_snapshot()), 0..40).prop_map(|entries| {
            Message::Paths(entries.into_iter().map(|(k, s)| (PathKey(k), s)).collect())
        }),
        Just(Message::EpochQuery),
        (any::<u64>(), arb_role()).prop_map(|(epoch, role)| Message::Epoch { epoch, role }),
        (any::<u64>(), any::<u64>(), arb_replop())
            .prop_map(|(epoch, seq, op)| Message::Replicate { epoch, seq, op }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..300)
        )
            .prop_map(|(shard, epoch, blob)| Message::ShardSnapshotSync {
                shard,
                epoch,
                blob
            }),
        arb_batch_message(),
    ]
}

/// The three batch frames (including the zero-item case — a legal,
/// if pointless, frame).
pub fn arb_batch_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        proptest::collection::vec((any::<u64>(), arb_summary()), 0..40).prop_map(|items| {
            Message::BatchReport(items.into_iter().map(|(p, s)| (PathKey(p), s)).collect())
        }),
        proptest::collection::vec(any::<u64>(), 0..60)
            .prop_map(|paths| Message::BatchQuery(paths.into_iter().map(PathKey).collect())),
        proptest::collection::vec(arb_snapshot(), 0..60).prop_map(Message::BatchReply),
    ]
}
