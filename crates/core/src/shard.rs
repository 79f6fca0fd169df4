//! A sharded context store: N independent [`ContextStore`]s keyed by a
//! stable hash of the path.
//!
//! The paper's provider-run context plane fields reports from millions
//! of senders per domain; one store behind one lock serializes all of
//! them. Because paths are *independent* in the store (no estimate ever
//! reads across paths — pinned by `paths_are_independent` in
//! [`crate::context`]), the keyspace can be split into N shards that
//! never need to coordinate: each path maps to exactly one shard, so a
//! sharded store is observably equivalent to the classic store for any
//! interleaving of operations. That equivalence-by-construction is what
//! lets the server keep each shard as one `Mutex<Replica>` — its store,
//! log and fencing epoch behind one lock (`crates/core/src/server/`) —
//! without a cross-shard consistency protocol.
//!
//! The shard key is FNV-1a over the path id's big-endian bytes — the
//! same hash the run digests use: stable across platforms, processes,
//! and releases, so a path's shard assignment never moves when a
//! deployment restarts (moving keys between shards would split one
//! path's history across two EWMAs).

use phi_tcp::hook::ContextSnapshot;

use crate::context::{ContextStore, FlowSummary, PathKey, StoreConfig};

/// Stable shard assignment: FNV-1a of the path id's big-endian bytes,
/// reduced mod `shards`. `shards == 0` is treated as one shard.
///
/// Every component that routes by path — the sharded store and the
/// server's per-shard replication logs — uses this one function, so they
/// always agree on where a path lives.
pub fn shard_index(path: PathKey, shards: usize) -> usize {
    (phi_workload::fnv1a(0, &path.0.to_be_bytes()) % shards.max(1) as u64) as usize
}

/// N independent [`ContextStore`] shards behind one façade.
///
/// Mirrors the classic store's observable API exactly; every call routes
/// to [`shard_index`]`(path, N)` and delegates. A `ShardedStore::new(cfg, 1)`
/// is the classic store.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    shards: Vec<ContextStore>,
}

impl ShardedStore {
    /// A store split into `shards` independent shards (at least one),
    /// each configured with `cfg`.
    pub fn new(cfg: StoreConfig, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedStore {
            shards: (0..n).map(|_| ContextStore::new(cfg)).collect(),
        }
    }

    /// Which shard `path` lives on.
    pub fn shard_of(&self, path: PathKey) -> usize {
        shard_index(path, self.shards.len())
    }

    /// Serve a lookup from `path`'s shard (registers a competing flow,
    /// exactly like [`ContextStore::lookup`]).
    pub fn lookup(&mut self, path: PathKey, now_ns: u64) -> ContextSnapshot {
        let i = self.shard_of(path);
        self.shards[i].lookup(path, now_ns)
    }

    /// Read `path`'s context without registering a sender
    /// (`&mut` for the same reason as [`ContextStore::peek`]).
    pub fn peek(&mut self, path: PathKey, now_ns: u64) -> ContextSnapshot {
        let i = self.shard_of(path);
        self.shards[i].peek(path, now_ns)
    }

    /// Absorb an end-of-connection report into `path`'s shard.
    pub fn report(&mut self, path: PathKey, now_ns: u64, summary: &FlowSummary) {
        let i = self.shard_of(path);
        self.shards[i].report(path, now_ns, summary);
    }

    /// Retransmit-rate EWMA for `path`, if any reports arrived.
    pub fn loss_signal(&self, path: PathKey) -> Option<f64> {
        self.shards[self.shard_of(path)].loss_signal(path)
    }

    /// `(lookups, reports)` counters for `path`.
    pub fn traffic_counters(&self, path: PathKey) -> (u64, u64) {
        self.shards[self.shard_of(path)].traffic_counters(path)
    }

    /// Total number of known paths across all shards.
    pub fn path_count(&self) -> usize {
        self.shards.iter().map(|s| s.path_count()).sum()
    }

    /// All paths with their current context, merged across shards and
    /// ordered like [`ContextStore::snapshot`]: utilization descending,
    /// then key ascending — so operators see the same busiest-first view
    /// regardless of shard count.
    pub fn snapshot(&mut self, now_ns: u64) -> Vec<(PathKey, ContextSnapshot)> {
        let mut out: Vec<(PathKey, ContextSnapshot)> = self
            .shards
            .iter_mut()
            .flat_map(|s| s.snapshot(now_ns))
            .collect();
        out.sort_by(|(ka, a), (kb, b)| b.utilization.total_cmp(&a.utilization).then(ka.cmp(kb)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(bytes: u64) -> FlowSummary {
        FlowSummary {
            bytes,
            duration_ns: 1_000_000_000,
            mean_rtt_ms: 170.0,
            min_rtt_ms: 150.0,
            retransmits: 2,
            timeouts: 0,
        }
    }

    fn cfg() -> StoreConfig {
        StoreConfig {
            window_ns: 10_000_000_000,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        }
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        // Pinned values: the assignment is part of the deployment's
        // persistent state (snapshots, per-shard logs), so it must never
        // change across releases.
        let pinned = |n| {
            (0..8u64)
                .map(|p| shard_index(PathKey(p), n))
                .collect::<Vec<_>>()
        };
        assert_eq!(pinned(4), [1, 2, 3, 0, 1, 2, 3, 0]);
        assert_eq!(pinned(16), [5, 2, 15, 12, 9, 6, 3, 0]);
        // A power-of-two count reads only the hash's low bits, which do
        // not depend on the high bits of the multiplier; three reads all.
        assert_eq!(pinned(3), [1, 0, 2, 1, 0, 2, 1, 0]);
        for p in 0..1000u64 {
            for n in [1usize, 2, 4, 16] {
                assert!(shard_index(PathKey(p), n) < n);
            }
            assert_eq!(shard_index(PathKey(p), 1), 0);
            assert_eq!(shard_index(PathKey(p), 0), 0, "zero shards acts as one");
        }
    }

    #[test]
    fn shard_index_spreads_paths() {
        let n = 16;
        let mut seen = vec![0u32; n];
        for p in 0..4096u64 {
            seen[shard_index(PathKey(p), n)] += 1;
        }
        // FNV over sequential keys is not perfectly uniform, but every
        // shard must carry a meaningful share — no dead shards, no shard
        // with the whole keyspace.
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 64, "shard {i} nearly empty: {count}");
            assert!(count < 1024, "shard {i} overloaded: {count}");
        }
    }

    #[test]
    fn equivalent_to_classic_store_for_mixed_traffic() {
        let mut classic = ContextStore::new(cfg());
        let mut sharded = ShardedStore::new(cfg(), 4);
        for i in 0..200u64 {
            let path = PathKey(i % 7);
            let now = i * 50_000_000;
            if i % 3 == 0 {
                assert_eq!(sharded.lookup(path, now), classic.lookup(path, now));
            } else {
                sharded.report(path, now, &summary(100_000 + i));
                classic.report(path, now, &summary(100_000 + i));
            }
            assert_eq!(sharded.peek(path, now), classic.peek(path, now));
            assert_eq!(
                sharded.traffic_counters(path),
                classic.traffic_counters(path)
            );
            assert_eq!(sharded.loss_signal(path), classic.loss_signal(path));
        }
        assert_eq!(sharded.path_count(), classic.path_count());
        assert_eq!(
            sharded.snapshot(10_000_000_000),
            classic.snapshot(10_000_000_000)
        );
    }

    #[test]
    fn snapshot_merge_orders_busiest_first() {
        let mut sharded = ShardedStore::new(cfg(), 8);
        // Different report sizes → different utilizations across shards.
        for p in 0..20u64 {
            sharded.report(PathKey(p), 1_000_000_000, &summary(10_000 * (p + 1)));
        }
        let snap = sharded.snapshot(2_000_000_000);
        assert_eq!(snap.len(), 20);
        for w in snap.windows(2) {
            let (ka, a) = &w[0];
            let (kb, b) = &w[1];
            assert!(
                a.utilization > b.utilization || (a.utilization == b.utilization && ka.0 < kb.0),
                "snapshot out of order: {ka:?}={} then {kb:?}={}",
                a.utilization,
                b.utilization
            );
        }
    }
}
