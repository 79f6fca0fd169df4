//! Isolated drives of single public functions, parameterised from what a
//! workload observed: the per-layer numbers no shim around a running
//! system can give (the scheduler and the shared buffer sit inside the
//! engine; the store, codec and transport sit inside the server).

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use phi_core::context::{ContextStore, PathKey};
use phi_core::server::{ContextClient, ContextServer, ServerConfig};
use phi_core::wire::{encode, Decoder, Message};
use phi_sim::sched::TieredScheduler;
use phi_sim::switch::SharedBuffer;
use phi_sim::time::Time;
use phi_tcp::hook::ContextSnapshot;
use phi_workload::SeedRng;

use crate::ctx::{store_config, CtxInputs, SHARDS};
use crate::stats::percentile;

fn per_op(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `TieredScheduler` under the classic hold model: keep `pending` events
/// queued, repeatedly pop the earliest and push it back a random
/// increment (0–1 ms, the spread of the engine's own timers and
/// transmissions) later. Returns ns per pop+push pair.
pub fn sched_hold_ns(pending: u64, seed: u64) -> f64 {
    const OPS: u64 = 2_000_000;
    let mut rng = SeedRng::new(seed).fork("sched-hold");
    let mut q: TieredScheduler<u64> = TieredScheduler::new();
    for i in 0..pending.max(1) {
        q.push(Time::from_nanos(rng.range_u64(0, 1_000_000)), i);
    }
    let t0 = Instant::now();
    for _ in 0..OPS {
        let (at, item) = q.pop().expect("hold model never drains");
        q.push(
            Time::from_nanos(at.as_nanos() + rng.range_u64(1, 1_000_000)),
            item,
        );
    }
    let ns = per_op(t0, OPS);
    black_box(q.len());
    ns
}

/// `SharedBuffer::try_admit` + `release` on the incast workload's pool
/// (48 KB, α = 8, one port per worker plus the uplink): full-size
/// segments arrive on random ports and leave in arrival order once the
/// pool holds 24 of them. Returns ns per admit+release pair.
pub fn switch_admit_ns(seed: u64) -> f64 {
    const OPS: u64 = 4_000_000;
    let mut rng = SeedRng::new(seed).fork("switch-admit");
    let mut buf = SharedBuffer::new(48_000, 8.0, 33);
    let mut held: VecDeque<usize> = VecDeque::new();
    let t0 = Instant::now();
    for _ in 0..OPS {
        let port = rng.index(33);
        if buf.try_admit(port, 1_500) {
            held.push_back(port);
        }
        if held.len() > 24 {
            buf.release(held.pop_front().expect("non-empty"), 1_500);
        }
    }
    let ns = per_op(t0, OPS);
    black_box(buf.total_bytes());
    ns
}

/// What a direct drive of `ContextStore` measured.
pub struct StoreDrive {
    pub ns_per_lookup: f64,
    pub ns_per_report: f64,
}

/// A `ContextStore` configured as the server's, filled to `depth`
/// reports per path over the workload's own keyspace, then looked up and
/// reported to directly — the store's share of a served request, without
/// lock, codec or socket.
pub fn store_drive(inputs: &CtxInputs, depth: f64) -> StoreDrive {
    let cfg = store_config();
    let window = cfg.window_ns;
    let mut store = ContextStore::new(cfg);
    let paths = &inputs.paths;
    let per_path = depth.round().max(1.0) as u64;
    let total = per_path * paths.len() as u64;
    // Fill the window evenly: report n lands at n/total of the window.
    for n in 0..total {
        let at = window / 2 + window * n / total;
        store.report(
            paths[(n % paths.len() as u64) as usize],
            at,
            &inputs.summaries[(n % inputs.summaries.len() as u64) as usize],
        );
    }
    let now = window / 2 + window;

    // Lookups scan the window: budget them by entries scanned.
    let lookups = (40_000_000 / per_path).clamp(2_000, 400_000);
    let t0 = Instant::now();
    for k in 0..lookups {
        let path = paths[inputs.lookup_order[k as usize % inputs.lookup_order.len()] as usize];
        black_box(store.lookup(path, now));
    }
    let ns_per_lookup = per_op(t0, lookups);

    // Reports keep arriving at the fill rate, so each one also prunes
    // about one expired entry and the depth stays where it was.
    let reports = 400_000u64;
    let t0 = Instant::now();
    for n in 0..reports {
        let m = total + n;
        store.report(
            paths[(m % paths.len() as u64) as usize],
            now + window * n / total,
            &inputs.summaries[(m % inputs.summaries.len() as u64) as usize],
        );
    }
    let ns_per_report = per_op(t0, reports);
    black_box(store.path_count());
    StoreDrive {
        ns_per_lookup,
        ns_per_report,
    }
}

/// What a direct drive of the wire codec measured.
pub struct WireDrive {
    pub encode_ns_per_report: f64,
    pub decode_ns_per_report: f64,
    pub bytes_per_report: f64,
    /// Encode + decode of a lookup request and of its reply: the four
    /// codec steps of one lookup exchange.
    pub lookup_codec_ns: f64,
}

pub fn wire_drive(inputs: &CtxInputs) -> WireDrive {
    // One frame as the workload sends it; ≈ 1.3 M reports each way.
    let mut items = Vec::new();
    inputs.batch(0, &mut items);
    let per_frame = items.len() as u64;
    let frames = 1_300_000 / per_frame;
    let msg = Message::BatchReport(items);
    let t0 = Instant::now();
    for _ in 0..frames {
        black_box(encode(black_box(&msg)));
    }
    let encode_ns_per_report = per_op(t0, frames * per_frame);

    let frame = encode(&msg);
    let mut dec = Decoder::new();
    let t0 = Instant::now();
    for _ in 0..frames {
        dec.extend(&frame);
        black_box(dec.next().expect("own frame decodes"));
    }
    let decode_ns_per_report = per_op(t0, frames * per_frame);

    let request = Message::Lookup {
        path: inputs.paths[0],
    };
    let reply = Message::Context(ContextSnapshot {
        utilization: 0.42,
        queue_ms: 7.5,
        competing: 3,
    });
    const EXCHANGES: u64 = 200_000;
    let t0 = Instant::now();
    for _ in 0..EXCHANGES {
        for m in [&request, &reply] {
            let f = encode(black_box(m));
            dec.extend(&f);
            black_box(dec.next().expect("own frame decodes"));
        }
    }
    WireDrive {
        encode_ns_per_report,
        decode_ns_per_report,
        bytes_per_report: frame.len() as f64 / per_frame as f64,
        lookup_codec_ns: per_op(t0, EXCHANGES),
    }
}

/// Median lookup round trip (µs) against an idle, empty server: the
/// floor that socket, thread wake-up and codec put under every lookup.
pub fn idle_rtt_us() -> std::io::Result<f64> {
    let server = ContextServer::start_sharded(
        "127.0.0.1:0",
        store_config(),
        ServerConfig::default(),
        SHARDS,
    )?;
    let mut client = ContextClient::connect(server.addr())?;
    let mut us = Vec::with_capacity(5_000);
    for k in 0..5_500u64 {
        let t0 = Instant::now();
        let ok = client.lookup(PathKey(1)).is_ok();
        let dt = t0.elapsed();
        if !ok {
            return Err(std::io::Error::other("idle lookup failed"));
        }
        // The first few hundred include connection and thread warm-up.
        if k >= 500 {
            us.push(dt.as_secs_f64() * 1e6);
        }
    }
    drop(client);
    server.shutdown();
    Ok(percentile(&mut us, 0.5).unwrap_or(0.0))
}
