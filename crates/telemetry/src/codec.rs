//! Binary export format for flow records.
//!
//! Exporters ship records to the collector in fixed-layout 25-byte
//! entries inside length-counted batches:
//!
//! ```text
//! batch  := u16 count, count × record
//! record := u32 src_ip, u32 dst_ip, u16 src_port, u16 dst_port, u8 proto,
//!           u64 ts_ms, u32 bytes  (packets is implicitly 1)
//! ```
//!
//! This mirrors an IPFIX data set with a fixed template, without the
//! template-negotiation machinery the experiments don't need.

use std::net::Ipv4Addr;

use crate::record::{FlowKey, IpfixRecord};

/// Encoded size of one record.
pub const RECORD_SIZE: usize = 4 + 4 + 2 + 2 + 1 + 8 + 4;

/// Maximum records per batch (fits the u16 count).
pub const MAX_BATCH: usize = u16::MAX as usize;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Batch declared more records than bytes present.
    Truncated,
    /// Too many records for one batch.
    BatchTooLarge(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "batch truncated"),
            CodecError::BatchTooLarge(n) => write!(f, "batch of {n} exceeds {MAX_BATCH}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a batch of records.
pub fn encode_batch(records: &[IpfixRecord]) -> Result<Vec<u8>, CodecError> {
    if records.len() > MAX_BATCH {
        return Err(CodecError::BatchTooLarge(records.len()));
    }
    let mut out = Vec::with_capacity(2 + records.len() * RECORD_SIZE);
    out.extend_from_slice(&(records.len() as u16).to_be_bytes());
    for r in records {
        out.extend_from_slice(&r.key.src_ip.octets());
        out.extend_from_slice(&r.key.dst_ip.octets());
        out.extend_from_slice(&r.key.src_port.to_be_bytes());
        out.extend_from_slice(&r.key.dst_port.to_be_bytes());
        out.push(r.key.proto);
        out.extend_from_slice(&r.ts_ms.to_be_bytes());
        out.extend_from_slice(&r.bytes.to_be_bytes());
    }
    Ok(out)
}

/// Decode one batch.
pub fn decode_batch(mut buf: &[u8]) -> Result<Vec<IpfixRecord>, CodecError> {
    if buf.len() < 2 {
        return Err(CodecError::Truncated);
    }
    let count = u16::from_be_bytes(take(&mut buf)) as usize;
    if buf.len() < count * RECORD_SIZE {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::from(take::<4>(&mut buf)),
                dst_ip: Ipv4Addr::from(take::<4>(&mut buf)),
                src_port: u16::from_be_bytes(take(&mut buf)),
                dst_port: u16::from_be_bytes(take(&mut buf)),
                proto: u8::from_be_bytes(take(&mut buf)),
            },
            ts_ms: u64::from_be_bytes(take(&mut buf)),
            bytes: u32::from_be_bytes(take(&mut buf)),
            packets: 1,
        });
    }
    Ok(out)
}

/// The next `N` bytes of `buf`, which the caller has checked it holds.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_first_chunk().expect("length checked");
    *buf = rest;
    *head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u8) -> IpfixRecord {
        IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(10, 0, 0, i),
                dst_ip: Ipv4Addr::new(93, 184, i, 34),
                src_port: 443,
                dst_port: 50_000 + u16::from(i),
                proto: 6,
            },
            ts_ms: 1_234_567 + u64::from(i),
            bytes: 1500,
            packets: 1,
        }
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records: Vec<IpfixRecord> = (0..50).map(record).collect();
        let bytes = encode_batch(&records).unwrap();
        assert_eq!(bytes.len(), 2 + 50 * RECORD_SIZE);
        let back = decode_batch(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn the_layout_is_big_endian_in_field_order() {
        let bytes = encode_batch(&[record(1)]).unwrap();
        let want: [u8; 2 + RECORD_SIZE] = [
            0, 1, // count
            10, 0, 0, 1, // src_ip
            93, 184, 1, 34, // dst_ip
            0x01, 0xBB, // src_port 443
            0xC3, 0x51, // dst_port 50 001
            6,    // proto
            0, 0, 0, 0, 0, 0x12, 0xD6, 0x88, // ts_ms 1 234 568
            0, 0, 0x05, 0xDC, // bytes 1 500
        ];
        assert_eq!(bytes[..], want[..]);
        assert_eq!(decode_batch(&want).unwrap(), [record(1)]);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch(&[]).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn truncated_batch_detected() {
        let records: Vec<IpfixRecord> = (0..3).map(record).collect();
        let bytes = encode_batch(&records).unwrap();
        assert_eq!(
            decode_batch(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
        assert_eq!(decode_batch(&[1]), Err(CodecError::Truncated));
    }

    #[test]
    fn oversized_batch_rejected() {
        let records = vec![record(0); MAX_BATCH + 1];
        assert_eq!(
            encode_batch(&records),
            Err(CodecError::BatchTooLarge(MAX_BATCH + 1))
        );
    }
}
