//! End-to-end context service: simulation experience flowing through the
//! real TCP server.
//!
//! A dumbbell simulation produces genuine flow reports; those are shipped
//! to a live `ContextServer` through the wire protocol by concurrent
//! clients, and the resulting shared context is checked against what the
//! simulation actually experienced.

use std::time::Duration;

use phi::core::wire;
use phi::core::{
    provision_cubic, run_experiment, summarize, ClientError, ContextClient, ContextServer,
    ContextStore, ExperimentSpec, FlowSummary, PathKey, ResilienceConfig, ResilientClient,
    ServerConfig, StoreConfig, WriteBehindConfig,
};
use phi::sim::time::Dur;
use phi::tcp::CubicParams;
use phi::workload::OnOffConfig;

#[test]
fn simulation_reports_through_real_server_build_context() {
    // 1. Run a real simulation to get authentic flow reports.
    let mut spec = ExperimentSpec::new(
        4,
        OnOffConfig {
            mean_on_bytes: 400_000.0,
            mean_off_secs: 0.5,
            deterministic: false,
        },
        Dur::from_secs(20),
        123,
    );
    spec.dumbbell.bottleneck_bps = 10_000_000;
    spec.dumbbell.rtt = Dur::from_millis(100);
    let result = run_experiment(&spec, provision_cubic(CubicParams::default()));
    let reports: Vec<_> = result.per_sender.iter().flatten().collect();
    assert!(reports.len() >= 8, "need a meaningful report stream");

    // 2. Serve a store that knows the real capacity.
    let store = ContextStore::new(StoreConfig {
        window_ns: u64::MAX, // everything in-window: we replay history at once
        capacity_bps: Some(spec.dumbbell.bottleneck_bps as f64),
        queue_alpha: 0.3,
    });
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind");
    let addr = server.addr();
    let path = PathKey(42);

    // 3. Each simulated sender becomes a client thread replaying its flows.
    let chunks: Vec<Vec<phi::core::FlowSummary>> = result
        .per_sender
        .iter()
        .map(|rs| rs.iter().map(summarize).collect())
        .collect();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|summaries| {
            std::thread::spawn(move || {
                let mut client = ContextClient::connect(addr).expect("connect");
                for s in summaries {
                    client.lookup(path).expect("lookup");
                    client.report(path, s).expect("report");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // 4. The shared context reflects the simulation's reality.
    let mut observer = ContextClient::connect(addr).expect("connect");
    let ctx = observer.lookup(path).expect("lookup");
    assert!(
        ctx.utilization > 0.0,
        "server should have accumulated utilization"
    );
    // The sim ran ~100ms base RTT with queueing; RTT inflation must be
    // non-negative and bounded by something sane.
    assert!(
        ctx.queue_ms >= 0.0 && ctx.queue_ms < 1_000.0,
        "q = {}",
        ctx.queue_ms
    );
    // All report slots released; only the observer's lookup is active.
    assert_eq!(ctx.competing, 0);

    let stats = server.stats();
    let total_reports: u64 = reports.len() as u64;
    assert_eq!(
        stats.reports.load(std::sync::atomic::Ordering::Relaxed),
        total_reports
    );
    server.shutdown();
}

#[test]
fn server_survives_client_churn() {
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind");
    let addr = server.addr();

    // Waves of clients connecting, doing one op, disconnecting.
    for wave in 0..5u64 {
        let handles: Vec<_> = (0..4)
            .map(|i: u64| {
                std::thread::spawn(move || {
                    let mut c = ContextClient::connect(addr).expect("connect");
                    let snap = c.lookup(PathKey(wave * 10 + i)).expect("lookup");
                    assert_eq!(snap.competing, 0);
                    // Dropped without reporting: the server must tolerate it.
                })
            })
            .collect();
        for h in handles {
            h.join().expect("wave client");
        }
    }
    std::thread::sleep(Duration::from_millis(50));
    let stats = server.stats();
    assert_eq!(
        stats.connections.load(std::sync::atomic::Ordering::Relaxed),
        20
    );
    assert_eq!(stats.lookups.load(std::sync::atomic::Ordering::Relaxed), 20);
    server.shutdown();
}

#[test]
fn overloaded_server_sheds_with_error_frame_and_counts_rejections() {
    let store = ContextStore::new(StoreConfig::default());
    let server =
        ContextServer::start_with("127.0.0.1:0", store, ServerConfig { max_connections: 2 })
            .expect("bind");
    let addr = server.addr();

    // Fill the cap with two live clients; a completed lookup proves each
    // one's handler thread is running (not just sitting in the backlog).
    let mut parked: Vec<ContextClient> = (0..2)
        .map(|i| {
            let mut c = ContextClient::connect(addr).expect("connect");
            c.lookup(PathKey(i)).expect("lookup");
            c
        })
        .collect();

    // The third connection must be shed with the overload frame — a clean
    // protocol-level answer, not a hang and not a silent close.
    let mut spill = ContextClient::connect(addr).expect("tcp connect still accepted");
    match spill.lookup(PathKey(99)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(
                code,
                wire::code::OVERLOADED,
                "wrong code: {code} ({message})"
            );
        }
        other => panic!("expected overload error frame, got {other:?}"),
    }
    let rejected = server
        .stats()
        .rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(rejected, 1, "shed connection must bump the counter");

    // Overload is transient: once a slot frees, new clients are served.
    drop(parked.pop());
    let served = (0..50).find_map(|_| {
        std::thread::sleep(Duration::from_millis(20));
        let mut c = ContextClient::connect(addr).ok()?;
        c.lookup(PathKey(7)).ok()
    });
    assert!(
        served.is_some(),
        "server never recovered after load dropped"
    );

    drop(parked);
    server.shutdown();
}

fn summary(bytes: u64) -> FlowSummary {
    FlowSummary {
        bytes,
        duration_ns: 1_000_000_000,
        mean_rtt_ms: 170.0,
        min_rtt_ms: 150.0,
        retransmits: 1,
        timeouts: 0,
    }
}

fn server_reports(server: &ContextServer) -> u64 {
    server
        .stats()
        .reports
        .load(std::sync::atomic::Ordering::Relaxed)
}

/// The write-behind staleness bound, end to end against a live sharded
/// server: buffered reports stay client-side — invisible to every other
/// sender — until the count bound, the age bound, or an explicit flush
/// ships them, and after any of those they are visible server-side. A
/// report is never held longer than the bound allows.
///
/// `buffer_report` answers "nothing lost", not "flushed", so what was
/// shipped is read from the client's pending count and the server's
/// report counter.
#[test]
fn write_behind_reports_land_within_the_staleness_bound() {
    let server = ContextServer::start_sharded(
        "127.0.0.1:0",
        StoreConfig::default(),
        ServerConfig::default(),
        4,
    )
    .expect("bind");
    let mut client = ResilientClient::new(server.addr()).expect("resolve");
    // Count bound first, with an age bound no run reaches.
    client.set_write_behind(WriteBehindConfig {
        max_items: 8,
        max_age: Duration::from_secs(3600),
    });
    // Paths spread across shards: the flushed batch exercises the
    // group-by-shard path on the server, not just one shard's lock.
    let path = |i: u64| PathKey(i);

    // Count bound: seven reports sit in the buffer, invisible to the
    // server; the eighth crosses `max_items` and the whole batch lands.
    for i in 0..7u64 {
        assert!(client.buffer_report(path(i), summary(100_000)));
        assert_eq!(client.pending_reports(), i as usize + 1);
    }
    assert_eq!(server_reports(&server), 0, "buffered reports leaked early");
    assert!(client.buffer_report(path(7), summary(100_000)));
    assert_eq!(client.pending_reports(), 0);
    assert_eq!(
        server_reports(&server),
        8,
        "count-bound flush must land all"
    );

    // Age bound: a lone report older than `max_age` is shipped by the
    // next buffer call — the bound is on the *oldest* buffered report,
    // so nothing can be held past it while traffic keeps arriving.
    client.set_write_behind(WriteBehindConfig {
        max_items: 8,
        max_age: Duration::from_millis(150),
    });
    assert!(client.buffer_report(path(1), summary(50_000)));
    assert_eq!(client.pending_reports(), 1);
    std::thread::sleep(Duration::from_millis(200));
    assert!(client.buffer_report(path(2), summary(50_000)));
    assert_eq!(
        client.pending_reports(),
        0,
        "a report older than max_age must force the flush"
    );
    assert_eq!(server_reports(&server), 10);

    // Explicit flush: the staleness bound is an upper bound, not a delay —
    // a caller can always cut it to zero.
    assert!(client.buffer_report(path(3), summary(25_000)));
    assert_eq!(client.pending_reports(), 1);
    assert!(client.flush_reports());
    assert!(client.flush_reports(), "an empty flush loses nothing");
    assert_eq!(client.pending_reports(), 0);
    assert_eq!(server_reports(&server), 11);

    // And the landed reports are really in the stores: every reported
    // path answers with accumulated context through the batch-query path.
    let snaps = client
        .query_batch(&(0..8).map(path).collect::<Vec<_>>())
        .expect("batch query");
    assert_eq!(snaps.len(), 8);
    for (i, s) in snaps.iter().enumerate() {
        assert!(s.utilization > 0.0, "path {i} shows no context: {s:?}");
    }
    server.shutdown();
}

/// A dead plane costs buffered telemetry, never the data path: once the
/// server is gone, buffering keeps accepting reports, a triggered flush
/// reports the loss and empties the buffer, and after the circuit breaker
/// opens every call short-circuits without touching the network.
#[test]
fn dead_plane_write_behind_degrades_without_stalling() {
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind");
    let addr = server.addr();

    let mut cfg = ResilienceConfig {
        max_retries: 0,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(30),
        ..ResilienceConfig::default()
    };
    cfg.client.connect_timeout = Duration::from_millis(100);
    cfg.client.request_deadline = Duration::from_millis(100);
    let mut client = ResilientClient::with_config(addr, cfg).expect("resolve");
    client.set_write_behind(WriteBehindConfig {
        max_items: 4,
        max_age: Duration::from_secs(3600), // count bound only: timing-proof
    });

    // Healthy plane: a full buffer flushes and lands.
    for i in 0..4u64 {
        client.buffer_report(PathKey(i), summary(10_000));
    }
    assert_eq!(client.pending_reports(), 0);
    assert_eq!(server_reports(&server), 4);

    server.shutdown();

    // Dead plane: buffering itself never fails...
    for i in 0..3u64 {
        assert!(client.buffer_report(PathKey(i), summary(10_000)));
    }
    // ...the flush that hits the dead server reports the loss and drops
    // the batch — the buffer must not grow or retry into the future...
    assert!(
        !client.buffer_report(PathKey(3), summary(10_000)),
        "flush against a dead plane must report the loss"
    );
    assert_eq!(client.pending_reports(), 0, "dropped, not retained");

    // ...and with the breaker open, a full buffer cycle is pure CPU: no
    // connects, no timeouts, no stalls on the caller's path.
    assert!(client.breaker_open(), "one exhausted request must trip it");
    let before = client.stats().short_circuited;
    let start = std::time::Instant::now();
    for i in 0..400u64 {
        client.buffer_report(PathKey(i), summary(10_000));
    }
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "buffering against an open breaker stalled: {:?}",
        start.elapsed()
    );
    assert!(
        client.stats().short_circuited > before,
        "flushes should short-circuit, not touch the network"
    );
    assert_eq!(client.pending_reports() % 4, client.pending_reports());
    assert!(
        client.query_batch(&[PathKey(1)]).is_none(),
        "degrade to no context"
    );
    assert!(client.lookup(PathKey(1)).is_none());
}
