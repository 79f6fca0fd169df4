//! Tier-1's check of the context store's windowed rate: a recorded op
//! list replayed through the public `ContextStore` API, every answer held
//! bit for bit against the scan in `crates/core/tests/model` (ROADMAP 4d — the
//! property tests beside that model run only under `--workspace`).
//!
//! The list is the benchmark's `ctx_hot_lookup` traffic in miniature —
//! durations of 50 ms to 2 s against a 1 s window, so most of a window's
//! reports straddle its edge — followed by the cases the rate index
//! treats specially. Times are plain numbers; nothing here reads a clock.

use phi::core::context::{ContextStore, FlowSummary, PathKey, StoreConfig};
use phi::workload::SeedRng;

#[path = "../crates/core/tests/model/mod.rs"]
mod model;
use model::ScanModel;

#[path = "../crates/core/tests/model/twins.rs"]
mod twins;
use twins::Twins;

const W: u64 = 1_000_000_000;
const PATHS: u64 = 3;

enum Op {
    Report(u64, u64, u64, u64),
    Lookup(u64, u64),
    Peek(u64, u64),
}

/// `reports` reports spread evenly over `from..to` and round-robin over
/// the paths, with a lookup of a random path after every eighth.
fn traffic(rng: &mut SeedRng, ops: &mut Vec<Op>, from: u64, to: u64, reports: u64) {
    for n in 0..reports {
        let (path, now) = (n % PATHS, from + (to - from) * n / reports);
        ops.push(Op::Report(
            path,
            now,
            rng.range_u64(20_000, 500_000),
            rng.range_u64(W / 20, 2 * W),
        ));
        if n % 8 == 7 {
            ops.push(Op::Lookup(rng.range_u64(0, PATHS), now));
        }
    }
}

fn recorded_ops() -> Vec<Op> {
    let mut rng = SeedRng::new(13).fork("ctx_reference");
    let mut ops = Vec::new();
    // Fill the first window from empty (answers divide by `now`, not W),
    // then run steadily for three more: 1 000 reports deep per path.
    traffic(&mut rng, &mut ops, 1, 4 * W, 12_000);
    // Monitoring reads between reports, and long after the last one:
    // reports leave the window with nobody reporting.
    for tenth in 0..15 {
        ops.push(Op::Peek(tenth % PATHS, 4 * W + tenth * W / 10));
    }
    // Traffic resumes after the idle gap, on stale windows.
    traffic(&mut rng, &mut ops, 6 * W, 7 * W, 600);
    // A burst at one instant; a writer and a reader that took their
    // timestamps before waiting for the lock; a question asked earlier
    // than the one before it.
    for _ in 0..50 {
        ops.push(Op::Report(0, 7 * W, 100_000, W / 3));
    }
    ops.push(Op::Report(0, 7 * W - 400_000, 250_000, W / 2));
    ops.push(Op::Lookup(0, 7 * W - 900_000));
    ops.push(Op::Peek(0, 7 * W + W / 2));
    ops.push(Op::Peek(0, 7 * W + W / 4));
    ops.push(Op::Lookup(0, 7 * W + W / 4));
    // Zero duration (adds nothing) and durations reaching back before
    // time began (a start below zero).
    ops.push(Op::Report(1, 7 * W + W / 4, 400_000, 0));
    ops.push(Op::Report(1, 7 * W + W / 3, 400_000, 9 * W));
    ops.push(Op::Report(2, 7 * W + W / 3, 400_000, u64::MAX));
    for path in 0..PATHS {
        ops.push(Op::Lookup(path, 7 * W + W / 2));
        ops.push(Op::Peek(path, 8 * W + W / 4));
    }
    bucket_edges(&mut ops, 9 * W);
    ops
}

/// The edges of the index's buckets of waiting starts — 2²² ns wide under
/// a 1 s window — on a path of its own, from `t0` on.
fn bucket_edges(ops: &mut Vec<Op>, t0: u64) {
    const B: u64 = 1 << 22;
    let path = PATHS;
    let edge = |k: u64| (t0 / B + 1 + k) * B;
    // Reports that end half a window on and start on, one before and one
    // after bucket edge `k`, each start twice over. The last one's end.
    let starts_around = |ops: &mut Vec<Op>, edges: std::ops::Range<u64>| {
        let mut end = 0;
        for k in edges {
            let starts = [edge(k) - 1, edge(k), edge(k) + 1, edge(k)];
            for (n, start) in (4 * k..).zip(starts) {
                end = t0 + W / 2 + n * 1_000;
                ops.push(Op::Report(path, end, 300_000, end - start));
            }
        }
        end
    };
    // Few enough to wait in one sorted run...
    let end = starts_around(ops, 0..7);
    ops.push(Op::Lookup(path, end));
    // ...then, mid-window, too many: the run is handed over to buckets.
    let end = starts_around(ops, 7..40);
    ops.push(Op::Peek(path, end));
    // The horizon lands one short of an edge, on it and one past it,
    // inside the run's own bucket and clean over the buckets between.
    for k in [0, 1, 6, 20] {
        for now in [edge(k) + W - 1, edge(k) + W, edge(k) + W + 1] {
            ops.push(Op::Peek(path, now));
        }
    }
    // Reports keep the window deep while it slides, questions or none.
    for n in 0..400 {
        let now = edge(21) + W + n * (W / 400);
        ops.push(Op::Report(path, now, 200_000, W / 20 + (n % 17) * (W / 18)));
        if n % 50 == 49 {
            ops.push(Op::Lookup(path, now));
        }
    }
    // Three windows of silence: every bucket drains at one question.
    let idle = edge(21) + 5 * W;
    ops.push(Op::Peek(path, idle));
    ops.push(Op::Report(path, idle + 1, 500_000, W / 2));
    ops.push(Op::Lookup(path, idle + B));
}

#[test]
fn store_answers_what_a_scan_of_the_window_answers() {
    let ops = recorded_ops();
    // The provider knows its capacity (`phi serve`, the benchmark), or
    // the store learns it as the largest rate seen (every simulated run).
    for capacity_bps in [Some(4e9), None] {
        let mut store = ContextStore::new(StoreConfig {
            window_ns: W,
            capacity_bps,
            ..StoreConfig::default()
        });
        let mut scan = ScanModel::new(W, capacity_bps);
        let (mut asked, mut busy) = (0, 0);
        for op in &ops {
            let (path, now, got) = match *op {
                Op::Report(path, now, bytes, duration_ns) => {
                    let summary = FlowSummary {
                        bytes,
                        duration_ns,
                        mean_rtt_ms: 60.0,
                        min_rtt_ms: 40.0,
                        retransmits: 0,
                        timeouts: 0,
                    };
                    store.report(PathKey(path), now, &summary);
                    scan.report(path, now, bytes, duration_ns);
                    continue;
                }
                Op::Lookup(path, now) => (path, now, store.lookup(PathKey(path), now)),
                Op::Peek(path, now) => (path, now, store.peek(PathKey(path), now)),
            };
            if let Err(why) = scan.check(path, now, got.utilization) {
                panic!("question {asked} (capacity {capacity_bps:?}): {why}");
            }
            asked += 1;
            busy += usize::from(got.utilization > 0.0 && got.utilization < 1.0);
        }
        // The comparison was of real numbers, not of zeros and ones.
        assert!(asked > 1_500 && busy > asked / 2, "{busy} of {asked}");
    }
}

/// The referee of `props.rs`'s `questions_leave_no_trace`, replayed from
/// a named seed: the traffic above, shorter — three windows of it, an
/// idle gap with monitoring reads, more of it, and the bucket edges —
/// fed to two stores, one of them asked more. After every step nothing
/// the store shows may tell the two apart.
#[test]
fn questions_leave_no_trace() {
    const SEED: u64 = 13;
    let mut rng = SeedRng::new(13).fork("questions_leave_no_trace");
    let mut ops = Vec::new();
    traffic(&mut rng, &mut ops, 1, 3 * W, 1_200);
    for tenth in 0..15 {
        ops.push(Op::Peek(tenth % PATHS, 3 * W + tenth * W / 10));
    }
    traffic(&mut rng, &mut ops, 5 * W, 6 * W, 300);
    bucket_edges(&mut ops, 7 * W);
    for window_ns in [0, 1, W] {
        for capacity_bps in [Some(4e9), None] {
            let cfg = StoreConfig {
                window_ns,
                capacity_bps,
                ..StoreConfig::default()
            };
            let mut twins = Twins::new(cfg, SEED, W);
            for (step, op) in ops.iter().enumerate() {
                let (verdict, now) = match *op {
                    Op::Report(path, now, bytes, duration_ns) => {
                        let summary = FlowSummary {
                            bytes,
                            duration_ns,
                            mean_rtt_ms: 60.0,
                            min_rtt_ms: 40.0,
                            retransmits: 1,
                            timeouts: 0,
                        };
                        twins.report(PathKey(path), now, &summary);
                        (Ok(()), now)
                    }
                    Op::Lookup(path, now) => (twins.lookup(PathKey(path), now), now),
                    Op::Peek(path, now) => (twins.peek(PathKey(path), now), now),
                };
                twins.maybe_ask_more(now);
                if let Err(why) = verdict.and_then(|()| twins.check(now)) {
                    panic!("step {step} (window {window_ns}, capacity {capacity_bps:?}): {why}");
                }
            }
        }
    }
}
