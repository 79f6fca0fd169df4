//! Durable sweep journal: append-only, versioned, CRC-framed.
//!
//! A long parameter sweep is only as robust as its ability to survive the
//! process dying between runs. This module records each *completed* run
//! as one self-checking frame in an append-only file, so an interrupted
//! sweep resumes by replaying the journal and skipping the cells already
//! done — bit-identical to an uninterrupted sweep for any worker count
//! (see `supervise.rs`, which owns the resume logic).
//!
//! ## On-disk format
//!
//! ```text
//! file   := MAGIC frame*
//! frame  := len:u32le  payload:[u8; len]  crc:u32le   (crc = CRC-32/IEEE of payload)
//! payload:= version:u8  record fields, little-endian, f64 as to_bits
//! ```
//!
//! Design rules, in order of importance:
//!
//! 1. **A torn tail is not fatal.** A crash mid-append leaves a short or
//!    garbled final frame; recovery keeps every complete frame before it
//!    and truncates the rest. Nothing before the tear is ever lost.
//! 2. **A corrupt record quarantines only itself.** A frame whose CRC
//!    fails (bit rot, partial overwrite) but whose length field is intact
//!    is skipped, and scanning continues at the next frame.
//! 3. **Versioned payloads.** The payload leads with a version byte;
//!    unknown versions are quarantined like CRC failures, so a journal
//!    written by a newer build degrades gracefully instead of crashing.
//!
//! The codec is pure (`encode_frame` / [`recover`] work on byte slices)
//! so the recovery properties are proptestable without touching a
//! filesystem; [`Journal`] is the thin file layer on top.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use phi_tcp::report::RunMetrics;
use phi_workload::fnv1a;

/// File magic: identifies a sweep journal and its framing revision.
pub const MAGIC: [u8; 8] = *b"PHIJRNL1";

/// Version byte of the record payload encoding this build writes.
pub const RECORD_VERSION: u8 = 1;

/// Sanity bound on a frame's declared payload length. A length field
/// beyond this is treated as tail corruption (everything from it on is
/// truncated) rather than as an instruction to skip gigabytes.
pub const MAX_RECORD_BYTES: usize = 4096;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// classic zlib/Ethernet polynomial, implemented bitwise. The journal
/// appends at run granularity (milliseconds to minutes apart), so a
/// table-free implementation is more than fast enough and keeps the
/// codec dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One completed run, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The run's index in its sweep (also keys resume skipping).
    pub run_index: u64,
    /// The derived seed the run executed with.
    pub seed: u64,
    /// Hash of the sweep's base spec; resume ignores records whose spec
    /// hash differs (a journal can be shared across sweep configs).
    pub spec_hash: u64,
    /// Events the engine dispatched (a cheap execution fingerprint).
    pub events: u64,
    /// The run's aggregate metrics, bit-exact (f64s round-trip via
    /// `to_bits`).
    pub metrics: RunMetrics,
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The payload ended before the record did.
    Truncated,
    /// The leading version byte is not one this build understands.
    UnsupportedVersion(u8),
}

impl RunRecord {
    /// Serialize the payload (version byte + fields, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let m = &self.metrics;
        let mut out = Vec::with_capacity(1 + 12 * 8);
        out.push(RECORD_VERSION);
        for v in [self.run_index, self.seed, self.spec_hash, self.events] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for f in [
            m.throughput_mbps,
            m.queueing_delay_ms,
            m.loss_rate,
            m.mean_rtt_ms,
            m.utilization,
        ] {
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        for v in [m.flows_completed, m.flows_aborted, m.bytes] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decode a payload produced by [`RunRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<RunRecord, RecordError> {
        let (&version, mut rest) = payload.split_first().ok_or(RecordError::Truncated)?;
        if version != RECORD_VERSION {
            return Err(RecordError::UnsupportedVersion(version));
        }
        let mut u = || -> Result<u64, RecordError> {
            let (head, tail) = rest
                .split_first_chunk::<8>()
                .ok_or(RecordError::Truncated)?;
            rest = tail;
            Ok(u64::from_le_bytes(*head))
        };
        Ok(RunRecord {
            run_index: u()?,
            seed: u()?,
            spec_hash: u()?,
            events: u()?,
            metrics: RunMetrics {
                throughput_mbps: f64::from_bits(u()?),
                queueing_delay_ms: f64::from_bits(u()?),
                loss_rate: f64::from_bits(u()?),
                mean_rtt_ms: f64::from_bits(u()?),
                utilization: f64::from_bits(u()?),
                flows_completed: u()?,
                flows_aborted: u()?,
                bytes: u()?,
            },
        })
    }

    /// FNV-1a fingerprint of the encoded record — what the sweep report
    /// aggregates into its bit-identity digest.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(0, &self.encode())
    }
}

/// Wrap an encoded record in a `len | payload | crc` frame.
pub fn encode_frame(record: &RunRecord) -> Vec<u8> {
    let payload = record.encode();
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// What a journal scan recovered (see [`recover`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recovery {
    /// Every record whose frame and payload checked out, in file order.
    pub records: Vec<RunRecord>,
    /// Complete frames whose CRC or payload decode failed — quarantined
    /// individually; scanning continued past each.
    pub quarantined: u64,
    /// Bytes of torn tail (incomplete or length-corrupt final frame)
    /// dropped from the end of the scan region.
    pub torn_bytes: u64,
}

impl Recovery {
    /// Bytes of `bytes` (as passed to [`recover`]) holding valid frames:
    /// the append position after truncating the torn tail.
    pub fn valid_len(&self, total: usize) -> usize {
        total - self.torn_bytes as usize
    }
}

/// Scan the frame region of a journal (everything after [`MAGIC`]).
///
/// Recovery rules: an incomplete final frame — or a frame whose length
/// field is implausible (`0` or `> MAX_RECORD_BYTES`, which a scan
/// cannot distinguish from a torn write) — ends the scan and counts as
/// torn tail; a *complete* frame with a CRC mismatch or an undecodable
/// payload is quarantined alone and the scan continues behind it.
pub fn recover(bytes: &[u8]) -> Recovery {
    let mut out = Recovery::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(head) = bytes[pos..].first_chunk::<4>() else {
            break; // torn: not even a length field left
        };
        let len = u32::from_le_bytes(*head) as usize;
        if len == 0 || len > MAX_RECORD_BYTES {
            break; // torn or corrupt length: nothing behind it is framed
        }
        let Some(frame) = bytes.get(pos + 4..pos + 4 + len + 4) else {
            break; // torn: the frame runs off the end of the file
        };
        let (payload, crc_bytes) = frame.split_at(len);
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 crc bytes"));
        if crc == crc32(payload) {
            match RunRecord::decode(payload) {
                Ok(r) => out.records.push(r),
                Err(_) => out.quarantined += 1,
            }
        } else {
            out.quarantined += 1;
        }
        pos += 4 + len + 4;
    }
    out.torn_bytes = (bytes.len() - pos) as u64;
    out
}

/// The file layer: open/replay/append with torn-tail truncation.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Create (or truncate) a journal at `path` and write the header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let mut file = File::create(path.as_ref())?;
        file.write_all(&MAGIC)?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path: path.as_ref().to_path_buf(),
        })
    }

    /// Open a journal for resuming: replay every valid record, truncate
    /// any torn tail so appends land after the last valid frame, and
    /// position for appending. A missing file is created empty; a file
    /// with the wrong magic is refused (`InvalidData`) rather than
    /// silently overwritten.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Recovery)> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok((Journal::create(path)?, Recovery::default()));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a sweep journal (bad magic)", path.display()),
            ));
        }
        let recovery = recover(&bytes[MAGIC.len()..]);
        let valid_end = (MAGIC.len() + recovery.valid_len(bytes.len() - MAGIC.len())) as u64;
        file.set_len(valid_end)?;
        file.seek(SeekFrom::Start(valid_end))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            recovery,
        ))
    }

    /// Append one completed run's record, durably (flushed and synced
    /// before returning, so a crash after `append` never loses it).
    pub fn append(&mut self, record: &RunRecord) -> io::Result<()> {
        self.file.write_all(&encode_frame(record))?;
        self.file.sync_data()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> RunRecord {
        RunRecord {
            run_index: i,
            seed: 0x9E37_79B9 ^ i,
            spec_hash: 42,
            events: 1000 + i,
            metrics: RunMetrics {
                throughput_mbps: 1.5 + i as f64,
                queueing_delay_ms: 42.0,
                loss_rate: 0.01,
                mean_rtt_ms: 163.0,
                utilization: 0.7,
                flows_completed: 10 + i,
                flows_aborted: 0,
                bytes: 1_000_000 * (i + 1),
            },
        }
    }

    #[test]
    fn record_roundtrips_bit_exactly() {
        let r = record(3);
        let back = RunRecord::decode(&r.encode()).expect("decode");
        assert_eq!(back, r);
        assert_eq!(
            back.metrics.throughput_mbps.to_bits(),
            r.metrics.throughput_mbps.to_bits()
        );
    }

    #[test]
    fn unknown_version_is_rejected_not_misread() {
        let mut payload = record(0).encode();
        payload[0] = 99;
        assert_eq!(
            RunRecord::decode(&payload),
            Err(RecordError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn recover_handles_tear_and_corruption_independently() {
        let frames: Vec<u8> = (0..3).flat_map(|i| encode_frame(&record(i))).collect();
        // Clean scan.
        let rec = recover(&frames);
        assert_eq!(rec.records.len(), 3);
        assert_eq!((rec.quarantined, rec.torn_bytes), (0, 0));
        // Tear mid-final-frame: first two survive, tail dropped.
        let torn = &frames[..frames.len() - 5];
        let rec = recover(torn);
        assert_eq!(rec.records.len(), 2);
        assert!(rec.torn_bytes > 0);
        // Flip a payload byte of the middle frame: only it quarantines.
        let mut corrupt = frames.clone();
        let f0 = encode_frame(&record(0)).len();
        corrupt[f0 + 10] ^= 0xFF;
        let rec = recover(&corrupt);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(rec.records[0].run_index, 0);
        assert_eq!(rec.records[1].run_index, 2);
    }

    #[test]
    fn file_layer_survives_kill_and_resume() {
        let dir = std::env::temp_dir().join(format!("phi-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("sweep.jnl");
        {
            let mut j = Journal::create(&path).expect("create");
            j.append(&record(0)).expect("append");
            j.append(&record(1)).expect("append");
            // Simulate a crash mid-append of record 2.
            let mut raw = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("raw");
            let frame = encode_frame(&record(2));
            raw.write_all(&frame[..frame.len() / 2]).expect("tear");
        }
        let (mut j, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.records.len(), 2, "torn record dropped, prior kept");
        assert!(rec.torn_bytes > 0);
        // Appending after recovery lands cleanly where the tear was.
        j.append(&record(2)).expect("append after recovery");
        drop(j);
        let (_, rec) = Journal::open(&path).expect("reopen again");
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_journal_file_is_refused() {
        let dir = std::env::temp_dir().join(format!("phi-journal-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("not-a-journal");
        std::fs::write(&path, b"something else entirely").expect("write");
        let err = Journal::open(&path).expect_err("bad magic must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
