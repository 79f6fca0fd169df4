//! The exporter → collector path: sampled flow records leave a router in
//! codec batches and are aggregated by the centralized collector.
//!
//! [`LossyExporter`] is that path, in process and deterministic: it keeps
//! the export path's loss semantics (transit loss and a bounded staging
//! buffer) and still sends every record through the wire codec.

use crate::codec::{decode_batch, encode_batch, MAX_BATCH};
use crate::collector::Collector;
use crate::record::IpfixRecord;

/// A deterministic, in-process exporter → collector path with loss.
///
/// Records sampled at a router may never reach the collector, and
/// experiments need that reproducibly. `LossyExporter` models it: each
/// submitted record survives an independent Bernoulli draw from a forked
/// [`phi_workload::SeedRng`] stream (transit loss), then a bounded staging buffer
/// (memory pressure), and flushes traverse the real wire codec
/// ([`encode_batch`]/[`decode_batch`]) into the collector. Same seed,
/// same records → bit-identical collector state.
pub struct LossyExporter {
    rng: phi_workload::SeedRng,
    loss_prob: f64,
    capacity: usize,
    pending: Vec<IpfixRecord>,
    lost: u64,
    dropped: u64,
    shipped: u64,
}

impl LossyExporter {
    /// A lossy exporter dropping each record with probability `loss_prob`,
    /// staging at most `capacity` records between flushes.
    pub fn new(capacity: usize, loss_prob: f64, rng: phi_workload::SeedRng) -> Self {
        assert!(capacity >= 1);
        assert!((0.0..=1.0).contains(&loss_prob));
        LossyExporter {
            rng,
            loss_prob,
            capacity,
            pending: Vec::new(),
            lost: 0,
            dropped: 0,
            shipped: 0,
        }
    }

    /// Submit one record. It may be lost in transit (counted in
    /// [`LossyExporter::lost`]) or shed by a full buffer (counted in
    /// [`LossyExporter::dropped`]).
    pub fn submit(&mut self, record: IpfixRecord) {
        if self.rng.chance(self.loss_prob) {
            self.lost += 1;
            return;
        }
        if self.pending.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.pending.push(record);
    }

    /// Drain the staging buffer into `collector` through the wire codec.
    pub fn flush_into(&mut self, collector: &mut Collector) {
        for chunk in self.pending.chunks(MAX_BATCH) {
            let wire = encode_batch(chunk).expect("chunked below MAX_BATCH");
            let records = decode_batch(&wire).expect("codec round-trip");
            collector.ingest_batch(&records);
            self.shipped += records.len() as u64;
        }
        self.pending.clear();
    }

    /// Records lost in transit.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Records shed by the bounded staging buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records delivered to the collector.
    pub fn shipped(&self) -> u64 {
        self.shipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FlowKey;
    use std::net::Ipv4Addr;

    fn rec(i: u32) -> IpfixRecord {
        IpfixRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::from(0x5db8_0000 + i),
                src_port: 443,
                dst_port: (1000 + i) as u16,
                proto: 6,
            },
            ts_ms: u64::from(i) * 100,
            bytes: 1500,
            packets: 1,
        }
    }

    #[test]
    fn lossy_exporter_accounts_for_every_record() {
        let mut c = Collector::new();
        let mut e = LossyExporter::new(64, 0.3, phi_workload::SeedRng::new(9));
        for i in 0..1000 {
            e.submit(rec(i));
            if i % 50 == 49 {
                e.flush_into(&mut c);
            }
        }
        e.flush_into(&mut c);
        assert_eq!(e.shipped() + e.lost() + e.dropped(), 1000);
        assert!(e.lost() > 200 && e.lost() < 400, "lost {}", e.lost());
        assert_eq!(c.record_count(), e.shipped());
    }

    #[test]
    fn lossy_exporter_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = Collector::new();
            let mut e = LossyExporter::new(16, 0.5, phi_workload::SeedRng::new(seed));
            for i in 0..200 {
                e.submit(rec(i));
                if i % 16 == 15 {
                    e.flush_into(&mut c);
                }
            }
            e.flush_into(&mut c);
            (e.shipped(), e.lost(), e.dropped(), c.record_count())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1, "different seeds, different losses");
    }

    #[test]
    fn lossy_exporter_sheds_when_buffer_fills() {
        let mut c = Collector::new();
        let mut e = LossyExporter::new(4, 0.0, phi_workload::SeedRng::new(1));
        for i in 0..10 {
            e.submit(rec(i)); // no flush: only 4 fit
        }
        assert_eq!(e.dropped(), 6);
        e.flush_into(&mut c);
        assert_eq!(e.shipped(), 4);
        assert_eq!(c.record_count(), 4);
    }
}
