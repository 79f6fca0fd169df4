//! The context-server wire protocol.
//!
//! A deliberately minimal binary protocol — the whole point of the §2.2.2
//! design is that the context traffic is tiny (one lookup and one report
//! per connection), so the protocol is a handful of fixed-layout frames:
//!
//! ```text
//! frame    := u32 length (big-endian, of everything after itself)
//!             u8 version (= 1)
//!             u8 type
//!             payload
//! LOOKUP   (1): u64 path
//! CONTEXT  (2): f64 utilization, f64 queue_ms, u32 competing
//! (3)          : retired — the single-report frame; a report is a
//!               BATCH_REPORT of one
//! REPORT_OK(4): empty
//! ERROR    (5): u16 code, u16 len, utf-8 message
//! SNAPSHOT (6): u16 limit — dashboard query: the busiest paths
//! PATHS    (7): u16 count, count x (u64 path, f64 utilization,
//!               f64 queue_ms, u32 competing)
//! EPOCH_QUERY (8): empty — which epoch/role are you?
//! EPOCH    (9): u64 epoch, u8 role (1 = primary, 2 = backup)
//! REPLICATE(10): u64 epoch, u64 seq, u8 op tag, op payload
//!               (1 = LOOKUP: u64 path, u64 now_ns;
//!                2 = REPORT: u64 path, u64 now_ns, summary)
//! (11)         : retired — the whole-store snapshot sync; a one-shard
//!               server is shard 0 of SHARD_SNAPSHOT_SYNC
//! BATCH_REPORT (12): u16 count, count x (u64 path, summary) — many
//!               reports, one frame; answered by one REPORT_OK
//! (13), (14)   : retired — the read-only batch query and its reply; no
//!               sender used them, a sender reads a path with LOOKUP
//! SHARD_SNAPSHOT_SYNC (15): u32 shard, u64 epoch, u32 len, len
//!               snapshot-blob bytes — one shard's full state (blob
//!               format is versioned separately — see
//!               [`crate::context::ContextStore::encode_snapshot`]), so a
//!               restarted backup resyncs a primary shard by shard
//! summary      := u64 bytes, u64 duration_ns, f64 mean_rtt_ms,
//!               f64 min_rtt_ms, u32 retransmits, u32 timeouts
//! ```
//!
//! Codes 3, 11, 13 and 14 are *retired, never reassigned*: like any code
//! this build does not assign they decode as the recoverable
//! [`DecodeError::BadType`], so a server answers them `501` and keeps the
//! connection.
//!
//! BATCH_REPORT is *additive*: code 12 was unassigned before it existed,
//! and unknown type codes decode as the recoverable
//! [`DecodeError::BadType`], so a pre-batch peer skips it without
//! desynchronizing the stream. It amortizes per-frame codec and syscall
//! cost the same way the REPLICATE delta stream does — the per-item cost
//! of a 256-item batch is the item body plus 1/256th of a frame header.
//!
//! Framing follows the length-prefix pattern: the decoder accumulates
//! bytes and yields complete messages, tolerating any fragmentation the
//! transport introduces.

use phi_tcp::hook::ContextSnapshot;

use crate::context::{FlowSummary, PathKey};

/// Protocol version this implementation speaks.
pub const VERSION: u8 = 1;

/// Upper bound on a frame's length field; anything larger is malformed.
pub const MAX_FRAME: usize = 64 * 1024;

const TYPE_LOOKUP: u8 = 1;
const TYPE_CONTEXT: u8 = 2;
const TYPE_REPORT_OK: u8 = 4;
const TYPE_ERROR: u8 = 5;
const TYPE_SNAPSHOT: u8 = 6;
const TYPE_PATHS: u8 = 7;
const TYPE_EPOCH_QUERY: u8 = 8;
const TYPE_EPOCH: u8 = 9;
const TYPE_REPLICATE: u8 = 10;
const TYPE_BATCH_REPORT: u8 = 12;
const TYPE_SHARD_SNAPSHOT_SYNC: u8 = 15;

const OP_LOOKUP: u8 = 1;
const OP_REPORT: u8 = 2;

const ROLE_PRIMARY: u8 = 1;
const ROLE_BACKUP: u8 = 2;

/// Most paths a PATHS reply may carry (bounded by `MAX_FRAME`).
pub const MAX_SNAPSHOT_PATHS: usize = 1024;

/// Largest snapshot blob a SHARD_SNAPSHOT_SYNC frame may carry; the rest
/// of the frame (length, version, type, shard, epoch, blob length) needs
/// 22 bytes.
pub const MAX_SHARD_SNAPSHOT_BLOB: usize = MAX_FRAME - 22;

/// Most items a BATCH_REPORT frame may carry. An item is 48 bytes (path +
/// summary), so 1024 items is ~49 KB — comfortably inside [`MAX_FRAME`].
/// Encoders truncate to this bound; decoders reject counts beyond it as
/// malformed.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// Machine-readable codes carried by [`Message::Error`] frames.
///
/// The taxonomy mirrors HTTP where the analogy is exact, so codes stay
/// self-explanatory in traces: 4xx means "your frame was wrong, fix it
/// before retrying", 5xx means "the server cannot serve you right now,
/// back off". Clients treat [`code::OVERLOADED`] as a retryable failure
/// (the [`crate::server::ResilientClient`] backs off and may trip its
/// circuit breaker); all other codes poison nothing — the reply was a
/// well-formed frame and the connection stays usable.
pub mod code {
    /// The request was well-framed but semantically wrong (e.g. a reply
    /// type sent in the client → server direction).
    pub const BAD_REQUEST: u16 = 400;
    /// The frame could not be decoded; the connection is dropped after
    /// this error is sent (framing state is unrecoverable).
    pub const MALFORMED: u16 = 422;
    /// The request reached a deposed primary (or a backup): its epoch is
    /// stale and its context must not be trusted. Clients drop the
    /// connection and fail over to the next endpoint.
    pub const FENCED: u16 = 409;
    /// The frame was well-formed but this server does not implement the
    /// requested operation (e.g. an unknown-but-well-framed message type,
    /// or a snapshot blob from a future format version). The connection
    /// stays usable.
    pub const UNSUPPORTED: u16 = 501;
    /// The server is at its connection cap and sheds this connection
    /// before serving any request. Retry later, against another replica,
    /// or degrade to no context.
    pub const OVERLOADED: u16 = 503;
}

/// Which side of the replication pair a server is currently playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serves lookups/reports and streams deltas to backups.
    Primary,
    /// Applies replicated deltas; fences client requests with 409.
    Backup,
}

/// A replicated state mutation, exactly mirroring the two mutating
/// client requests so a backup's store replays the primary's history.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplOp {
    /// A sender registered on `path` at `now_ns`.
    Lookup {
        /// The path the sender registered on.
        path: PathKey,
        /// Server-side clock when the lookup was applied.
        now_ns: u64,
    },
    /// A sender on `path` finished and filed `summary` at `now_ns`.
    Report {
        /// The path the report is for.
        path: PathKey,
        /// Server-side clock when the report was applied.
        now_ns: u64,
        /// The finished flow's summary.
        summary: FlowSummary,
    },
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: what's the context for this path?
    Lookup {
        /// The path being asked about.
        path: PathKey,
    },
    /// Server → client: the context snapshot.
    Context(ContextSnapshot),
    /// Server → client: report accepted.
    ReportOk,
    /// Either direction: something went wrong.
    Error {
        /// Machine-readable code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: the busiest `limit` paths, please (dashboard).
    Snapshot {
        /// Maximum paths to return.
        limit: u16,
    },
    /// Server → client: per-path contexts, busiest first.
    Paths(Vec<(PathKey, ContextSnapshot)>),
    /// Client → server: which epoch and role are you serving at?
    EpochQuery,
    /// Server → client: current epoch and role.
    Epoch {
        /// Monotonically increasing fencing token.
        epoch: u64,
        /// Primary or backup.
        role: Role,
    },
    /// Primary → backup: one state delta, fenced by epoch.
    Replicate {
        /// The primary's epoch; stale epochs are rejected with 409.
        epoch: u64,
        /// Position in the primary's replication log (strictly increasing).
        seq: u64,
        /// The mutation itself.
        op: ReplOp,
    },
    /// Client → server: many finished connections in one frame. The
    /// server applies every item (in order) and answers with a single
    /// [`Message::ReportOk`], so a client that batches pays one
    /// round-trip per batch instead of one per report.
    BatchReport(Vec<(PathKey, FlowSummary)>),
    /// Primary → backup (or operator → restarted server): full state of
    /// *one shard* of a server (a one-shard server is shard 0).
    ShardSnapshotSync {
        /// Which shard the blob belongs to; the receiver routes it by
        /// index and rejects out-of-range shards with 400.
        shard: u32,
        /// The sender's epoch; stale epochs are rejected with 409.
        epoch: u64,
        /// Versioned snapshot blob for that shard's store — see
        /// [`crate::context::ContextStore::encode_snapshot`].
        blob: Vec<u8>,
    },
}

/// Decoding failures. [`DecodeError::Incomplete`] just means "feed me
/// more bytes"; [`DecodeError::BadType`] is *recoverable* — the unknown
/// frame was well-delimited and fully consumed, so the decoder stays
/// aligned and the connection stays usable (forward compatibility with
/// newer peers). Everything else is fatal for the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough buffered bytes for a full frame yet.
    Incomplete,
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Unknown message type. The frame is consumed whole; decoding may
    /// continue with the next frame.
    BadType(u8),
    /// Length field out of bounds or payload malformed.
    Malformed(&'static str),
}

impl DecodeError {
    /// `true` if the stream is still frame-aligned after this error and
    /// decoding may continue — i.e. the error names a frame we skipped,
    /// not a corrupted stream.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, DecodeError::BadType(_))
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "incomplete frame"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadType(t) => write!(f, "unknown message type {t}"),
            DecodeError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode a message into a self-contained frame.
///
/// Every frame byte is written once: the buffer is allocated at the
/// frame's size, a fixed-size record is staged as one array and appended
/// whole, and the buffer itself is returned. Panics on a snapshot blob over
/// [`MAX_SHARD_SNAPSHOT_BLOB`] rather than cut it: its producer,
/// `Replica::next_frame`, refuses to make one.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::with_capacity(frame_capacity(msg));
    // The length is patched in once the rest is written.
    frame.extend_from_slice(&[0, 0, 0, 0, VERSION]);
    match msg {
        Message::Lookup { path } => {
            frame.push(TYPE_LOOKUP);
            frame.extend_from_slice(&path.0.to_be_bytes());
        }
        Message::Context(c) => {
            frame.push(TYPE_CONTEXT);
            frame.extend_from_slice(&ctx_bytes(c));
        }
        Message::ReportOk => {
            frame.push(TYPE_REPORT_OK);
        }
        Message::Snapshot { limit } => {
            frame.push(TYPE_SNAPSHOT);
            frame.extend_from_slice(&limit.to_be_bytes());
        }
        Message::Paths(paths) => {
            frame.push(TYPE_PATHS);
            let n = paths.len().min(MAX_SNAPSHOT_PATHS);
            frame.extend_from_slice(&(n as u16).to_be_bytes());
            for (key, ctx) in &paths[..n] {
                frame.extend_from_slice(&key.0.to_be_bytes());
                frame.extend_from_slice(&ctx_bytes(ctx));
            }
        }
        Message::Error { code, message } => {
            frame.push(TYPE_ERROR);
            frame.extend_from_slice(&code.to_be_bytes());
            // Keep error frames small; 512 bytes of detail is plenty.
            let len = truncated_utf8_len(message, 512);
            frame.extend_from_slice(&(len as u16).to_be_bytes());
            frame.extend_from_slice(&message.as_bytes()[..len]);
        }
        Message::EpochQuery => {
            frame.push(TYPE_EPOCH_QUERY);
        }
        Message::Epoch { epoch, role } => {
            frame.push(TYPE_EPOCH);
            frame.extend_from_slice(&epoch.to_be_bytes());
            frame.push(match role {
                Role::Primary => ROLE_PRIMARY,
                Role::Backup => ROLE_BACKUP,
            });
        }
        Message::Replicate { epoch, seq, op } => {
            frame.push(TYPE_REPLICATE);
            frame.extend_from_slice(&epoch.to_be_bytes());
            frame.extend_from_slice(&seq.to_be_bytes());
            match op {
                ReplOp::Lookup { path, now_ns } => {
                    frame.push(OP_LOOKUP);
                    frame.extend_from_slice(&path.0.to_be_bytes());
                    frame.extend_from_slice(&now_ns.to_be_bytes());
                }
                ReplOp::Report {
                    path,
                    now_ns,
                    summary,
                } => {
                    frame.push(OP_REPORT);
                    frame.extend_from_slice(&path.0.to_be_bytes());
                    frame.extend_from_slice(&now_ns.to_be_bytes());
                    frame.extend_from_slice(&summary_bytes(summary));
                }
            }
        }
        Message::BatchReport(items) => {
            frame.push(TYPE_BATCH_REPORT);
            let n = items.len().min(MAX_BATCH_ITEMS);
            frame.extend_from_slice(&(n as u16).to_be_bytes());
            for (path, summary) in &items[..n] {
                let mut record = [0; REPORT_LEN];
                record[..8].copy_from_slice(&path.0.to_be_bytes());
                record[8..].copy_from_slice(&summary_bytes(summary));
                frame.extend_from_slice(&record);
            }
        }
        Message::ShardSnapshotSync { shard, epoch, blob } => {
            frame.push(TYPE_SHARD_SNAPSHOT_SYNC);
            frame.extend_from_slice(&shard.to_be_bytes());
            frame.extend_from_slice(&epoch.to_be_bytes());
            // Cutting would corrupt the snapshot; `next_frame` refuses it.
            assert!(blob.len() <= MAX_SHARD_SNAPSHOT_BLOB, "blob too large");
            frame.extend_from_slice(&(blob.len() as u32).to_be_bytes());
            frame.extend_from_slice(blob);
        }
    }
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    frame
}

/// What `encode` allocates for `msg`, once: the exact frame size where a
/// count or a blob decides it (the header, then a `u16` count or a shard,
/// an epoch and a blob length). Every other frame fits 64 bytes, bar an
/// ERROR with a long message, which grows.
fn frame_capacity(msg: &Message) -> usize {
    match msg {
        Message::Paths(paths) => 8 + paths.len().min(MAX_SNAPSHOT_PATHS) * (8 + CTX_LEN),
        Message::BatchReport(items) => 8 + items.len().min(MAX_BATCH_ITEMS) * REPORT_LEN,
        Message::ShardSnapshotSync { blob, .. } => 22 + blob.len(),
        _ => 64,
    }
}

/// Byte size of an encoded [`ContextSnapshot`].
const CTX_LEN: usize = 20;

fn ctx_bytes(c: &ContextSnapshot) -> [u8; CTX_LEN] {
    let mut raw = [0; CTX_LEN];
    raw[..8].copy_from_slice(&c.utilization.to_be_bytes());
    raw[8..16].copy_from_slice(&c.queue_ms.to_be_bytes());
    raw[16..].copy_from_slice(&c.competing.to_be_bytes());
    raw
}

/// The next `N` bytes of `p`, which the caller has checked it holds.
// Inlined, as the readers over it are, so that a loop over fixed-size
// records checks the record's length once, not once per field.
#[inline]
fn take<const N: usize>(p: &mut &[u8]) -> [u8; N] {
    let (head, rest) = p.split_first_chunk().expect("length checked");
    *p = rest;
    *head
}

#[inline]
fn get_path(p: &mut &[u8]) -> PathKey {
    PathKey(u64::from_be_bytes(take(p)))
}

#[inline]
fn get_ctx(p: &mut &[u8]) -> ContextSnapshot {
    ContextSnapshot {
        utilization: f64::from_be_bytes(take(p)),
        queue_ms: f64::from_be_bytes(take(p)),
        competing: u32::from_be_bytes(take(p)),
    }
}

/// Byte size of an encoded [`FlowSummary`].
const SUMMARY_LEN: usize = 40;

/// Byte size of a BATCH_REPORT item: the path, then the summary.
const REPORT_LEN: usize = 8 + SUMMARY_LEN;

fn summary_bytes(s: &FlowSummary) -> [u8; SUMMARY_LEN] {
    let mut raw = [0; SUMMARY_LEN];
    raw[..8].copy_from_slice(&s.bytes.to_be_bytes());
    raw[8..16].copy_from_slice(&s.duration_ns.to_be_bytes());
    raw[16..24].copy_from_slice(&s.mean_rtt_ms.to_be_bytes());
    raw[24..32].copy_from_slice(&s.min_rtt_ms.to_be_bytes());
    raw[32..36].copy_from_slice(&s.retransmits.to_be_bytes());
    raw[36..].copy_from_slice(&s.timeouts.to_be_bytes());
    raw
}

#[inline]
fn get_summary(p: &mut &[u8]) -> FlowSummary {
    FlowSummary {
        bytes: u64::from_be_bytes(take(p)),
        duration_ns: u64::from_be_bytes(take(p)),
        mean_rtt_ms: f64::from_be_bytes(take(p)),
        min_rtt_ms: f64::from_be_bytes(take(p)),
        retransmits: u32::from_be_bytes(take(p)),
        timeouts: u32::from_be_bytes(take(p)),
    }
}

/// Longest prefix length ≤ `max` that ends on a UTF-8 boundary.
fn truncated_utf8_len(s: &str, max: usize) -> usize {
    if s.len() <= max {
        return s.len();
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    end
}

/// Streaming decoder: feed bytes with [`Decoder::extend`], pull messages
/// with [`Decoder::next`].
#[derive(Debug, Default)]
pub struct Decoder {
    /// Bytes from the transport; the first `start` are consumed.
    buf: Vec<u8>,
    start: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Append raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Drop the consumed front before growing once it is half the
        // buffer, so a long-lived connection decodes in bounded memory and
        // moves each byte down at most once.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Try to decode the next complete message.
    #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
    pub fn next(&mut self) -> Result<Message, DecodeError> {
        let unread = &self.buf[self.start..];
        let Some((&len, frame)) = unread.split_first_chunk::<4>() else {
            return Err(DecodeError::Incomplete);
        };
        let len = u32::from_be_bytes(len) as usize;
        if !(2..=MAX_FRAME).contains(&len) {
            return Err(DecodeError::Malformed("length out of bounds"));
        }
        if frame.len() < len {
            return Err(DecodeError::Incomplete);
        }
        // Read in place, then consume the frame whole, whatever it held:
        // a payload error leaves the stream at the next frame.
        let decoded = decode_payload(&mut &frame[..len]);
        self.start += 4 + len;
        decoded
    }
}

fn decode_payload(p: &mut &[u8]) -> Result<Message, DecodeError> {
    let [version, ty] = take(p);
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    macro_rules! need {
        ($n:expr) => {
            if p.len() < $n {
                return Err(DecodeError::Malformed("payload too short"));
            }
        };
    }
    // The `u16` count that opens a PATHS or batch payload, bounded by
    // `$cap`, then that many `$len`-byte records, read where they lie.
    macro_rules! records {
        ($cap:expr, $over:literal, $len:expr) => {{
            need!(2);
            let n = u16::from_be_bytes(take(p)) as usize;
            if n > $cap {
                return Err(DecodeError::Malformed($over));
            }
            need!(n * $len);
            p[..n * $len].chunks_exact($len)
        }};
    }
    match ty {
        TYPE_LOOKUP => {
            need!(8);
            Ok(Message::Lookup { path: get_path(p) })
        }
        TYPE_CONTEXT => {
            need!(CTX_LEN);
            Ok(Message::Context(get_ctx(p)))
        }
        TYPE_REPORT_OK => Ok(Message::ReportOk),
        TYPE_SNAPSHOT => {
            need!(2);
            Ok(Message::Snapshot {
                limit: u16::from_be_bytes(take(p)),
            })
        }
        TYPE_PATHS => Ok(Message::Paths(
            records!(MAX_SNAPSHOT_PATHS, "too many paths", 8 + CTX_LEN)
                .map(|mut r| (get_path(&mut r), get_ctx(&mut r)))
                .collect(),
        )),
        TYPE_ERROR => {
            need!(4);
            let code = u16::from_be_bytes(take(p));
            let len = u16::from_be_bytes(take(p)) as usize;
            need!(len);
            let message = String::from_utf8(p[..len].to_vec())
                .map_err(|_| DecodeError::Malformed("error message not utf-8"))?;
            Ok(Message::Error { code, message })
        }
        TYPE_EPOCH_QUERY => Ok(Message::EpochQuery),
        TYPE_EPOCH => {
            need!(9);
            let epoch = u64::from_be_bytes(take(p));
            let role = match take(p) {
                [ROLE_PRIMARY] => Role::Primary,
                [ROLE_BACKUP] => Role::Backup,
                _ => return Err(DecodeError::Malformed("unknown role")),
            };
            Ok(Message::Epoch { epoch, role })
        }
        TYPE_REPLICATE => {
            need!(17);
            let epoch = u64::from_be_bytes(take(p));
            let seq = u64::from_be_bytes(take(p));
            let op = match take(p) {
                [OP_LOOKUP] => {
                    need!(16);
                    ReplOp::Lookup {
                        path: get_path(p),
                        now_ns: u64::from_be_bytes(take(p)),
                    }
                }
                [OP_REPORT] => {
                    need!(16 + SUMMARY_LEN);
                    ReplOp::Report {
                        path: get_path(p),
                        now_ns: u64::from_be_bytes(take(p)),
                        summary: get_summary(p),
                    }
                }
                _ => return Err(DecodeError::Malformed("unknown replication op")),
            };
            Ok(Message::Replicate { epoch, seq, op })
        }
        TYPE_BATCH_REPORT => Ok(Message::BatchReport(
            records!(MAX_BATCH_ITEMS, "batch too large", REPORT_LEN)
                .map(|mut r| (get_path(&mut r), get_summary(&mut r)))
                .collect(),
        )),
        TYPE_SHARD_SNAPSHOT_SYNC => {
            need!(16);
            let shard = u32::from_be_bytes(take(p));
            let epoch = u64::from_be_bytes(take(p));
            let len = u32::from_be_bytes(take(p)) as usize;
            if len > MAX_SHARD_SNAPSHOT_BLOB {
                return Err(DecodeError::Malformed("snapshot blob too large"));
            }
            need!(len);
            let blob = p[..len].to_vec();
            Ok(Message::ShardSnapshotSync { shard, epoch, blob })
        }
        other => Err(DecodeError::BadType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode(&msg);
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(d.next().unwrap(), msg);
        assert_eq!(d.next(), Err(DecodeError::Incomplete));
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::Lookup { path: PathKey(42) });
        roundtrip(Message::Context(ContextSnapshot {
            utilization: 0.73,
            queue_ms: 12.25,
            competing: 17,
        }));
        roundtrip(Message::ReportOk);
        roundtrip(Message::Snapshot { limit: 10 });
        roundtrip(Message::Paths(vec![
            (
                PathKey(1),
                ContextSnapshot {
                    utilization: 0.9,
                    queue_ms: 40.0,
                    competing: 12,
                },
            ),
            (
                PathKey(2),
                ContextSnapshot {
                    utilization: 0.1,
                    queue_ms: 0.5,
                    competing: 0,
                },
            ),
        ]));
        roundtrip(Message::Paths(Vec::new()));
        roundtrip(Message::Error {
            code: 404,
            message: "no such path".into(),
        });
        roundtrip(Message::EpochQuery);
        roundtrip(Message::Epoch {
            epoch: 7,
            role: Role::Primary,
        });
        roundtrip(Message::Epoch {
            epoch: u64::MAX,
            role: Role::Backup,
        });
        roundtrip(Message::Replicate {
            epoch: 3,
            seq: 1_000_000,
            op: ReplOp::Lookup {
                path: PathKey(9),
                now_ns: 123_456,
            },
        });
        roundtrip(Message::Replicate {
            epoch: 3,
            seq: 1_000_001,
            op: ReplOp::Report {
                path: PathKey(9),
                now_ns: 223_456,
                summary: FlowSummary {
                    bytes: 42,
                    duration_ns: 77,
                    mean_rtt_ms: 1.5,
                    min_rtt_ms: 1.0,
                    retransmits: 2,
                    timeouts: 0,
                },
            },
        });
        roundtrip(Message::ShardSnapshotSync {
            shard: 3,
            epoch: 12,
            blob: vec![0xCD; 1024],
        });
        roundtrip(Message::ShardSnapshotSync {
            shard: u32::MAX,
            epoch: 0,
            blob: Vec::new(),
        });
        roundtrip(Message::BatchReport(vec![
            (
                PathKey(5),
                FlowSummary {
                    bytes: 1_000,
                    duration_ns: 2_000,
                    mean_rtt_ms: 3.5,
                    min_rtt_ms: 3.0,
                    retransmits: 1,
                    timeouts: 0,
                },
            ),
            (
                PathKey(6),
                FlowSummary {
                    bytes: 9_999,
                    duration_ns: 8_888,
                    mean_rtt_ms: 7.5,
                    min_rtt_ms: 7.0,
                    retransmits: 0,
                    timeouts: 2,
                },
            ),
        ]));
        roundtrip(Message::BatchReport(Vec::new()));
    }

    #[test]
    fn full_size_batches_roundtrip_within_frame_bound() {
        let summary = FlowSummary {
            bytes: 1,
            duration_ns: 2,
            mean_rtt_ms: 3.0,
            min_rtt_ms: 4.0,
            retransmits: 5,
            timeouts: 6,
        };
        let report = Message::BatchReport(
            (0..MAX_BATCH_ITEMS as u64)
                .map(|i| (PathKey(i), summary))
                .collect(),
        );
        assert!(
            encode(&report).len() <= 4 + MAX_FRAME,
            "batch overflows a frame"
        );
        roundtrip(report);
    }

    #[test]
    fn over_cap_batches_truncate_on_encode_and_reject_on_decode() {
        // Encoding clamps to the cap, like PATHS does.
        let summary = FlowSummary {
            bytes: 1,
            duration_ns: 2,
            mean_rtt_ms: 3.0,
            min_rtt_ms: 4.0,
            retransmits: 5,
            timeouts: 6,
        };
        let report = Message::BatchReport(
            (0..2 * MAX_BATCH_ITEMS as u64)
                .map(|i| (PathKey(i), summary))
                .collect(),
        );
        let mut d = Decoder::new();
        d.extend(&encode(&report));
        match d.next().unwrap() {
            Message::BatchReport(items) => assert_eq!(items.len(), MAX_BATCH_ITEMS),
            other => panic!("unexpected {other:?}"),
        }
        // A hand-built frame claiming more items than the cap is rejected
        // before any allocation proportional to the claim.
        let over = (MAX_BATCH_ITEMS as u16 + 1).to_be_bytes();
        let frame = [0, 0, 0, 2 + 2, VERSION, TYPE_BATCH_REPORT, over[0], over[1]];
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(d.next(), Err(DecodeError::Malformed("batch too large")));
    }

    #[test]
    fn truncated_batch_payload_rejected() {
        // Claim 3 report items but supply only 2: the honest length
        // header makes this a complete frame whose payload ends early.
        let mut frame = vec![0, 0, 0, 2 + 2 + 2 * 48, VERSION, TYPE_BATCH_REPORT, 0, 3];
        frame.extend_from_slice(&[0u8; 2 * 48]);
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(d.next(), Err(DecodeError::Malformed("payload too short")));
    }

    #[test]
    fn batch_frames_skip_cleanly_on_a_pre_batch_decoder() {
        // A pre-batch decoder is this decoder with type 12 unassigned.
        // Its skip path never inspects the payload — it consumes `len`
        // bytes and reports the recoverable BadType — so rewriting a real
        // batch frame's type byte to a still-unassigned code reproduces
        // exactly what an old peer does with a batch frame: skip it whole
        // and keep decoding the pipelined traffic behind it.
        let batch = Message::BatchReport(vec![(
            PathKey(3),
            FlowSummary {
                bytes: 10,
                duration_ns: 20,
                mean_rtt_ms: 1.0,
                min_rtt_ms: 0.5,
                retransmits: 0,
                timeouts: 0,
            },
        )]);
        let mut frame = encode(&batch);
        frame[5] = 16; // first type code not assigned in this build
        let mut d = Decoder::new();
        d.extend(&frame);
        d.extend(&encode(&Message::ReportOk));
        let err = d.next().unwrap_err();
        assert_eq!(err, DecodeError::BadType(16));
        assert!(err.is_recoverable(), "old peers must survive batch frames");
        assert_eq!(d.next().unwrap(), Message::ReportOk, "stream desynced");
        assert_eq!(d.next(), Err(DecodeError::Incomplete));
    }

    #[test]
    fn error_code_values_are_stable() {
        assert_eq!(code::BAD_REQUEST, 400);
        assert_eq!(code::FENCED, 409);
        assert_eq!(code::MALFORMED, 422);
        assert_eq!(code::UNSUPPORTED, 501);
        assert_eq!(code::OVERLOADED, 503);
    }

    #[test]
    fn unknown_frame_type_is_recoverable() {
        // A well-delimited frame of an unknown (future) type must not
        // desync the stream: the decoder reports BadType, consumes the
        // frame whole, and yields the next pipelined message intact.
        // Version + type from the future + 11 payload bytes.
        let mut stream = vec![0, 0, 0, 2 + 11, VERSION, 200];
        stream.extend_from_slice(&[0xEE; 11]);
        stream.extend_from_slice(&encode(&Message::ReportOk));
        let mut d = Decoder::new();
        d.extend(&stream);
        let err = d.next().unwrap_err();
        assert_eq!(err, DecodeError::BadType(200));
        assert!(err.is_recoverable());
        assert_eq!(d.next().unwrap(), Message::ReportOk);
        assert_eq!(d.next(), Err(DecodeError::Incomplete));
    }

    #[test]
    fn fatal_decode_errors_are_not_recoverable() {
        assert!(!DecodeError::Incomplete.is_recoverable());
        assert!(!DecodeError::BadVersion(9).is_recoverable());
        assert!(!DecodeError::Malformed("x").is_recoverable());
    }

    #[test]
    fn oversized_shard_snapshot_blob_rejected() {
        // Hand-build a SHARD_SNAPSHOT_SYNC whose blob-length field
        // exceeds the bound; must be a clean typed error.
        let mut frame = vec![0, 0, 0, 2 + 16, VERSION, TYPE_SHARD_SNAPSHOT_SYNC];
        frame.extend_from_slice(&0u32.to_be_bytes()); // shard
        frame.extend_from_slice(&1u64.to_be_bytes()); // epoch
        frame.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes()); // blob length: too large
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(
            d.next(),
            Err(DecodeError::Malformed("snapshot blob too large"))
        );
    }

    #[test]
    #[should_panic(expected = "blob too large")]
    fn encode_refuses_to_cut_an_oversized_snapshot_blob() {
        // The largest blob fills a frame, and goes through whole.
        roundtrip(Message::ShardSnapshotSync {
            shard: 0,
            epoch: 1,
            blob: vec![0xAB; MAX_SHARD_SNAPSHOT_BLOB],
        });
        encode(&Message::ShardSnapshotSync {
            shard: 0,
            epoch: 1,
            blob: vec![0; MAX_SHARD_SNAPSHOT_BLOB + 1],
        });
    }

    #[test]
    fn shard_snapshot_sync_keeps_the_stream_aligned() {
        // The new frame is well-delimited like every other: pipelined
        // traffic behind it decodes intact. (An *old* peer skips it as
        // recoverable BadType — the `frame[5] = 16` rewrite in
        // `batch_frames_skip_cleanly_on_a_pre_batch_decoder` pins that
        // exact mechanism for codes a build doesn't know.)
        let frame = encode(&Message::ShardSnapshotSync {
            shard: 2,
            epoch: 9,
            blob: vec![0x11; 64],
        });
        let mut d = Decoder::new();
        d.extend(&frame);
        d.extend(&encode(&Message::ReportOk));
        match d.next() {
            Ok(Message::ShardSnapshotSync { shard, epoch, blob }) => {
                assert_eq!((shard, epoch, blob.len()), (2, 9, 64));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.next().unwrap(), Message::ReportOk);
    }

    #[test]
    fn decoder_handles_fragmentation() {
        let frame = encode(&Message::Lookup { path: PathKey(7) });
        let mut d = Decoder::new();
        for chunk in frame.chunks(3) {
            if d.buffered() + chunk.len() < frame.len() {
                d.extend(chunk);
                assert_eq!(d.next(), Err(DecodeError::Incomplete));
            } else {
                d.extend(chunk);
            }
        }
        assert_eq!(d.next().unwrap(), Message::Lookup { path: PathKey(7) });
    }

    #[test]
    fn decoder_handles_pipelined_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode(&Message::Lookup { path: PathKey(1) }));
        stream.extend_from_slice(&encode(&Message::ReportOk));
        stream.extend_from_slice(&encode(&Message::Lookup { path: PathKey(2) }));
        let mut d = Decoder::new();
        d.extend(&stream);
        assert_eq!(d.next().unwrap(), Message::Lookup { path: PathKey(1) });
        assert_eq!(d.next().unwrap(), Message::ReportOk);
        assert_eq!(d.next().unwrap(), Message::Lookup { path: PathKey(2) });
        assert_eq!(d.next(), Err(DecodeError::Incomplete));
    }

    #[test]
    fn a_long_lived_decoder_decodes_in_the_room_of_one_frame_and_a_half() {
        let msg = |k| Message::Lookup { path: PathKey(k) };
        let frame = |k| encode(&msg(k));
        let (one, half) = (frame(0).len(), frame(0).len() / 2);
        let mut d = Decoder::new();
        d.extend(&frame(0));
        d.extend(&frame(1)[..half]);
        let (at, cap) = (d.buf.as_ptr(), d.buf.capacity());
        // Each frame completes the half before it and brings half of the
        // next: the consumed front is dropped first, and the tail keeps its
        // order.
        for k in 1..100 {
            assert_eq!(d.next().unwrap(), msg(k - 1));
            d.extend(&frame(k)[half..]);
            d.extend(&frame(k + 1)[..half]);
            assert!(d.buf.len() <= one + half, "{} bytes held", d.buf.len());
        }
        assert_eq!((d.buf.as_ptr(), d.buf.capacity()), (at, cap));
    }

    #[test]
    fn bad_version_rejected() {
        let mut frame = encode(&Message::ReportOk);
        frame[4] = 9; // version byte
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(d.next(), Err(DecodeError::BadVersion(9)));
    }

    #[test]
    fn bad_type_rejected() {
        let mut frame = encode(&Message::ReportOk);
        frame[5] = 99; // type byte
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(d.next(), Err(DecodeError::BadType(99)));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut d = Decoder::new();
        d.extend(&(MAX_FRAME as u32 + 1).to_be_bytes());
        d.extend(&[VERSION, TYPE_REPORT_OK]);
        assert_eq!(
            d.next(),
            Err(DecodeError::Malformed("length out of bounds"))
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        // Claim a LOOKUP but supply only 4 of its 8 path bytes.
        let frame = [0, 0, 0, 2 + 4, VERSION, TYPE_LOOKUP, 0, 0, 0, 1];
        let mut d = Decoder::new();
        d.extend(&frame);
        assert_eq!(d.next(), Err(DecodeError::Malformed("payload too short")));
    }

    #[test]
    fn long_error_messages_truncate_not_panic() {
        let long = "x".repeat(100_000);
        let frame = encode(&Message::Error {
            code: 1,
            message: long,
        });
        // Must still be decodable (truncated to u16::MAX bytes).
        let mut d = Decoder::new();
        d.extend(&frame);
        match d.next().unwrap() {
            Message::Error { message, .. } => assert_eq!(message.len(), 512),
            other => panic!("unexpected {other:?}"),
        }
    }
}
