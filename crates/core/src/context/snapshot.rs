//! The store's snapshot codec: the whole store in a versioned binary
//! blob, and back.

use std::collections::VecDeque;

use phi_sim::packet::{IdHash, IdMap};

use super::{ContextStore, PathKey, PathState, StoreConfig};

impl ContextStore {
    /// Serialize the complete store state — configuration, every path's
    /// aggregates, registrations and counters — plus the server's
    /// `epoch`, into a versioned binary blob.
    ///
    /// Paths are written in key order, so the encoding is a pure
    /// function of the state: byte-identical stores produce
    /// byte-identical blobs (which is what lets e2e tests digest them).
    /// [`ContextStore::decode_snapshot`] inverts it losslessly.
    pub fn encode_snapshot(&self, epoch: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.paths.len() * 96);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&epoch.to_be_bytes());
        out.extend_from_slice(&self.cfg.window_ns.to_be_bytes());
        match self.cfg.capacity_bps {
            Some(cap) => {
                out.push(1);
                out.extend_from_slice(&cap.to_bits().to_be_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.cfg.queue_alpha.to_bits().to_be_bytes());

        let mut keys: Vec<PathKey> = self.paths.keys().copied().collect();
        keys.sort_unstable();
        out.extend_from_slice(&(keys.len() as u32).to_be_bytes());
        for key in keys {
            let st = &self.paths[&key];
            out.extend_from_slice(&key.0.to_be_bytes());
            out.extend_from_slice(&st.active.to_be_bytes());
            out.extend_from_slice(&st.reports.to_be_bytes());
            out.extend_from_slice(&st.lookups.to_be_bytes());
            out.extend_from_slice(&st.learned_capacity.to_bits().to_be_bytes());
            let flags = u8::from(st.queue_ms.is_some())
                | u8::from(st.min_rtt_ms.is_some()) << 1
                | u8::from(st.retx_ewma.is_some()) << 2;
            out.push(flags);
            for v in [st.queue_ms, st.min_rtt_ms, st.retx_ewma]
                .into_iter()
                .flatten()
            {
                out.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            let live = st.live(self.cfg.window_ns);
            out.extend_from_slice(&(live.len() as u32).to_be_bytes());
            for &(end, bytes, dur) in live {
                out.extend_from_slice(&end.to_be_bytes());
                out.extend_from_slice(&bytes.to_be_bytes());
                out.extend_from_slice(&dur.to_be_bytes());
            }
        }
        out
    }

    /// Restore a store (and the epoch it was snapshotted at) from a blob
    /// produced by [`ContextStore::encode_snapshot`].
    ///
    /// A blob from a *future* format version yields
    /// [`SnapshotError::UnsupportedVersion`] — a clean typed error, never
    /// a partially-applied store.
    pub fn decode_snapshot(blob: &[u8]) -> Result<(ContextStore, u64), SnapshotError> {
        let mut r = SnapReader { buf: blob, at: 0 };
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let epoch = r.u64()?;
        let window_ns = r.u64()?;
        let capacity_bps = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            _ => return Err(SnapshotError::Malformed("capacity flag")),
        };
        let queue_alpha = r.f64()?;
        let n_paths = r.u32()? as usize;
        // The count comes off the wire (`ShardSnapshotSync` carries a blob
        // from any peer): never allocate for more paths than the remaining
        // bytes could hold, at 41 bytes for a path with nothing optional.
        if r.remaining() < n_paths.saturating_mul(41) {
            return Err(SnapshotError::Truncated);
        }
        let mut paths = IdMap::with_capacity_and_hasher(n_paths, IdHash::default());
        for _ in 0..n_paths {
            let key = PathKey(r.u64()?);
            let active = r.u32()?;
            let reports = r.u64()?;
            let lookups = r.u64()?;
            let learned_capacity = r.f64()?;
            let flags = r.u8()?;
            if flags & !0b111 != 0 {
                return Err(SnapshotError::Malformed("unknown path flags"));
            }
            let queue_ms = if flags & 1 != 0 { Some(r.f64()?) } else { None };
            let min_rtt_ms = if flags & 2 != 0 { Some(r.f64()?) } else { None };
            let retx_ewma = if flags & 4 != 0 { Some(r.f64()?) } else { None };
            let n_recent = r.u32()? as usize;
            // Guard against a corrupt count asking for more entries than
            // the remaining bytes could possibly hold.
            if r.remaining() < n_recent.saturating_mul(24) {
                return Err(SnapshotError::Truncated);
            }
            // Ends are clamped as `report` clamps them: a blob from a
            // build that stored them as given must not hide an expired
            // report behind a live one.
            let mut recent = VecDeque::with_capacity(n_recent);
            let mut latest = 0;
            for _ in 0..n_recent {
                latest = r.u64()?.max(latest);
                recent.push_back((latest, r.u64()?, r.u64()?));
            }
            if paths
                .insert(
                    key,
                    PathState {
                        active,
                        recent,
                        queue_ms,
                        min_rtt_ms,
                        learned_capacity,
                        reports,
                        lookups,
                        retx_ewma,
                        clock: latest,
                        index: None,
                    },
                )
                .is_some()
            {
                return Err(SnapshotError::Malformed("duplicate path key"));
            }
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok((
            ContextStore {
                cfg: StoreConfig {
                    window_ns,
                    capacity_bps,
                    queue_alpha,
                },
                paths,
            },
            epoch,
        ))
    }
}

/// Version byte leading every snapshot blob. Independent of the wire
/// protocol version: the blob may be written to disk and restored by a
/// later build.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot blob could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob was written by a format version this build doesn't know.
    UnsupportedVersion(u8),
    /// The blob ends before the structure it promises.
    Truncated,
    /// A field holds an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Bounds-checked big-endian reader over a snapshot blob.
struct SnapReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl SnapReader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let end = self.at.checked_add(N).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.at..end]);
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_be_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_be_bytes(self.take::<8>()?))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(u64::from_be_bytes(self.take::<8>()?)))
    }
}
