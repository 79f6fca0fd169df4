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
    ContextStore, ExperimentSpec, PathKey, ServerConfig, StoreConfig,
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
    // Every client was answered, and the server counts a connection at
    // accept and a lookup before it replies: nothing is left to wait for.
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
