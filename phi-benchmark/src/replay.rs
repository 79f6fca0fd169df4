//! The ctx workloads' end-to-end measurement: the request path of the
//! context plane, replayed on one thread without the socket.
//!
//! Every request takes the steps a served one takes — the client's
//! `wire::encode`, the server's `Decoder`, the sharded store
//! (`ShardedStore` routes by the same `shard_index` the server does), the
//! reply's encode, and the client's decode of it — in one thread and one
//! address space. What is left out is what this box cannot measure
//! steadily: the loopback socket, thread wake-ups and lock hand-offs. Ten
//! runs of the same binary over loopback read medians 1.7× apart minutes
//! later (see README); this replay moves like the simulator workloads do.
//! The real server under the same load is the traced run's business.
//!
//! A unit advances the store's clock by exactly one window and sends one
//! window's worth of reports, in the same order at the same offsets
//! every time. After the first unit (the fill, done in set-up) the store
//! at the end of a unit is therefore the store at its start shifted by
//! one window: every unit does identical work and gets identical replies.

use std::time::Instant;

use phi_core::context::{FlowSummary, PathKey};
use phi_core::shard::ShardedStore;
use phi_core::wire::{encode, Decoder, Message};

use crate::ctx::{reply_in_range, store_config, CtxInputs, CtxKind, SHARDS};
use crate::stats::Digest;

/// Paths walked, reports per path in the window, lookups per report frame.
///
/// * hot: the 4 hot paths, 40 000-deep windows, 2 lookups per 256-report
///   frame — one lookup per 128 reports, and the scan is ≈ 90 % of a unit.
/// * wide: 16 384 of the workload's paths, 16-deep windows, 1 lookup per
///   1 024-report frame — the lookups are ≈ 0.1 % of a unit. A quarter of
///   the keyspace is enough to miss the core's own caches on every
///   insert; with all 65 536 the ≈ 100 MB working set lived in the host's
///   shared last-level cache and the neighbours decided the result (ten
///   runs' interquartile spread was 15–19 % against 10–12 %).
const fn shape(kind: CtxKind) -> (usize, u64, u64) {
    match kind {
        CtxKind::HotLookup => (4, 40_000, 2),
        CtxKind::WideIngest => (16_384, 16, 1),
    }
}

/// One replayed unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitOutcome {
    pub wall_s: f64,
    pub lookups: u64,
    pub reports: u64,
    /// Replies that were malformed, of the wrong kind, or out of range.
    pub bad_replies: u64,
    /// Over every reply of the unit, in order.
    pub digest: u64,
}

pub struct Replay {
    inputs: CtxInputs,
    store: ShardedStore,
    /// Server-side and client-side decoders, as on a connection.
    server: Decoder,
    client: Decoder,
    units_done: u64,
    frames: u64,
    lookups_per_frame: u64,
    depth: u64,
}

impl Replay {
    pub fn new(kind: CtxKind, seed: u64) -> Replay {
        let (paths, depth, lookups_per_frame) = shape(kind);
        let mut inputs = CtxInputs::generate(kind, seed);
        inputs.paths.truncate(paths);
        for i in &mut inputs.lookup_order {
            *i %= paths as u32;
        }
        let frames = depth * inputs.paths.len() as u64 / inputs.batch as u64;
        Replay {
            store: ShardedStore::new(store_config(), SHARDS),
            server: Decoder::new(),
            client: Decoder::new(),
            units_done: 0,
            frames,
            lookups_per_frame,
            depth,
            inputs,
        }
    }

    /// What `work_per_s` counts for this workload in one unit.
    pub fn work_per_unit(&self) -> f64 {
        match self.inputs.kind {
            CtxKind::HotLookup => (self.frames * self.lookups_per_frame) as f64,
            CtxKind::WideIngest => (self.frames * self.inputs.batch as u64) as f64,
        }
    }

    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// One request and its reply through both codecs; `serve` is the
    /// server's part in between.
    fn exchange(
        &mut self,
        request: &Message,
        serve: impl FnOnce(&mut ShardedStore, Message) -> Message,
    ) -> Option<Message> {
        self.server.extend(&encode(request));
        let decoded = self.server.next().ok()?;
        let reply = serve(&mut self.store, decoded);
        self.client.extend(&encode(&reply));
        self.client.next().ok()
    }

    /// Replay one window of traffic.
    pub fn unit(&mut self) -> UnitOutcome {
        let window = store_config().window_ns;
        // Unit u covers store time (u + 1)·W .. (u + 2)·W.
        let base = (self.units_done + 1) * window;
        let mut items: Vec<(PathKey, FlowSummary)> = Vec::with_capacity(self.inputs.batch);
        let mut out = UnitOutcome {
            wall_s: 0.0,
            lookups: 0,
            reports: 0,
            bad_replies: 0,
            digest: 0,
        };
        let mut digest = Digest::default();
        let order_len = self.inputs.lookup_order.len() as u64;
        let t0 = Instant::now();
        for j in 0..self.frames {
            let now = base + window * j / self.frames;
            self.inputs.batch(j, &mut items);
            out.reports += items.len() as u64;
            // The copy is the client's: `ContextClient::report_batch` builds
            // its frame from `chunk.to_vec()`.
            let reply = self.exchange(&Message::BatchReport(items.clone()), |store, msg| {
                if let Message::BatchReport(got) = msg {
                    for (path, summary) in &got {
                        store.report(*path, now, summary);
                    }
                }
                Message::ReportOk
            });
            out.bad_replies += u64::from(reply != Some(Message::ReportOk));
            for l in 0..self.lookups_per_frame {
                let k = (j * self.lookups_per_frame + l) % order_len;
                let path = self.inputs.paths[self.inputs.lookup_order[k as usize] as usize];
                out.lookups += 1;
                let reply = self.exchange(&Message::Lookup { path }, |store, msg| match msg {
                    Message::Lookup { path } => Message::Context(store.lookup(path, now)),
                    _ => Message::ReportOk,
                });
                match reply {
                    // `queue_ms` is checked but not digested: it is an EWMA
                    // over all history, which only approaches the periodic
                    // state (0.7⁸ per unit on a wide path), while these two
                    // are exactly periodic from the fill on.
                    Some(Message::Context(snap)) if reply_in_range(&snap) => {
                        digest.f64(snap.utilization).u64(u64::from(snap.competing));
                    }
                    _ => out.bad_replies += 1,
                }
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out.digest = digest.value();
        self.units_done += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_after_the_fill_repeat_exactly() {
        let mut r = Replay::new(CtxKind::WideIngest, 5);
        let fill = r.unit();
        let (a, b) = (r.unit(), r.unit());
        assert_eq!(fill.bad_replies + a.bad_replies + b.bad_replies, 0);
        assert_eq!((a.lookups, a.reports), (b.lookups, b.reports));
        assert_eq!(a.reports, 16 * 16_384);
        assert_eq!(
            a.digest, b.digest,
            "a unit is the previous one shifted by a window"
        );
        assert_ne!(
            fill.digest, a.digest,
            "the fill starts from an empty window"
        );
        // Another seed, other inputs, other replies.
        let mut other = Replay::new(CtxKind::WideIngest, 6);
        other.unit();
        assert_ne!(other.unit().digest, a.digest);
    }
}
