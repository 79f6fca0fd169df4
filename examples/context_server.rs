//! A real Phi context server over TCP.
//!
//! Starts the threaded [`phi::core::ContextServer`] on a loopback port,
//! then runs a fleet of client "senders" (threads) that follow the
//! §2.2.2 protocol — look up the congestion context when a connection
//! starts, report the experience when it ends — and shows the shared
//! picture converging: utilization, queueing, and competing-sender counts
//! that no individual sender could see alone.
//!
//! Then the failure half of the contract: a server at its connection cap
//! sheds the overflow with a clean `OVERLOADED` error frame, and a
//! [`phi::core::ResilientClient`] pointed at a dead plane degrades to
//! "no context" — backoff, circuit breaker, no blocking — exactly what a
//! Phi sender maps to vanilla TCP defaults.
//!
//! Run with: `cargo run --release --example context_server`

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use phi::core::{
    wire, ClientConfig, ClientError, ContextClient, ContextServer, ContextStore, FlowSummary,
    HaOptions, PathKey, ResilienceConfig, ResilientClient, Role, ServerConfig, StoreConfig,
};

fn main() {
    // One path (think: one busy destination /24), capacity 100 Mbit/s.
    let path = PathKey(0xC0FFEE);
    let store = ContextStore::new(StoreConfig {
        window_ns: 2_000_000_000, // 2 s sliding window (demo timescale)
        capacity_bps: Some(100_000_000.0),
        queue_alpha: 0.3,
    });
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind context server");
    let addr = server.addr();
    println!("context server listening on {addr}\n");

    // A fleet of sender threads, each running a few "connections".
    let fleet: Vec<_> = (0..6)
        .map(|i: u64| {
            std::thread::spawn(move || {
                let mut client = ContextClient::connect(addr).expect("connect");
                for conn in 0..4u64 {
                    let ctx = client.lookup(path).expect("lookup");
                    // Pick aggressiveness from the shared context, like a
                    // Phi sender chooses Cubic parameters.
                    let aggressive = ctx.utilization < 0.5;
                    // "Transfer": pretend the connection ran for 150-400 ms
                    // moving 0.5-2 MB, busier when aggressive.
                    let bytes = if aggressive { 2_000_000 } else { 500_000 };
                    let dur_ms = 150 + 50 * i + 20 * conn;
                    std::thread::sleep(Duration::from_millis(dur_ms / 10)); // sped up
                    client
                        .report(
                            path,
                            FlowSummary {
                                bytes,
                                duration_ns: dur_ms * 1_000_000,
                                mean_rtt_ms: 150.0 + 8.0 * i as f64,
                                min_rtt_ms: 150.0,
                                retransmits: u32::from(!aggressive),
                                timeouts: 0,
                            },
                        )
                        .expect("report");
                }
            })
        })
        .collect();
    for t in fleet {
        t.join().expect("sender thread");
    }

    // An observer asks for the final "network weather".
    let mut observer = ContextClient::connect(addr).expect("connect");
    let ctx = observer.lookup(path).expect("lookup");
    println!("shared congestion context after the fleet ran:");
    println!("  utilization u  = {:.2}", ctx.utilization);
    println!("  queueing q     = {:.1} ms (RTT inflation)", ctx.queue_ms);
    println!(
        "  competing n    = {} (the observer's own lookup registered it)",
        ctx.competing
    );

    let stats = server.stats();
    println!(
        "\nserver counters: {} connections, {} lookups, {} reports, {} protocol errors",
        stats.connections.load(Ordering::Relaxed),
        stats.lookups.load(Ordering::Relaxed),
        stats.reports.load(Ordering::Relaxed),
        stats.protocol_errors.load(Ordering::Relaxed),
    );

    server.shutdown();
    println!("server shut down cleanly\n");

    overload_demo();
    degradation_demo();
    ha_demo();
}

/// A server at its connection cap answers the overflow with a protocol
/// error frame instead of hanging or silently closing.
fn overload_demo() {
    println!("-- overload: shedding past the connection cap --");
    let store = ContextStore::new(StoreConfig::default());
    let server =
        ContextServer::start_with("127.0.0.1:0", store, ServerConfig { max_connections: 2 })
            .expect("bind capped server");
    let addr = server.addr();

    // Two clients fill the cap and stay connected.
    let parked: Vec<ContextClient> = (0..2)
        .map(|i| {
            let mut c = ContextClient::connect(addr).expect("connect");
            c.lookup(PathKey(i)).expect("lookup");
            c
        })
        .collect();

    // The third is shed with a clean answer it can act on.
    let mut spill = ContextClient::connect(addr).expect("tcp connect");
    match spill.lookup(PathKey(9)) {
        Err(ClientError::Server { code, message }) if code == wire::code::OVERLOADED => {
            println!("  third client shed: code {code} ({message})");
        }
        other => println!("  unexpected: {other:?}"),
    }
    println!(
        "  server counted {} rejection(s)\n",
        server.stats().rejected.load(Ordering::Relaxed)
    );
    drop(parked);
    server.shutdown();
}

/// The §2.2.2 contract under a dead plane: every lookup degrades to
/// "no context" within its deadline, the breaker opens after repeated
/// failures, and short-circuited requests don't even touch the network.
fn degradation_demo() {
    println!("-- degradation: the plane dies, the sender must not --");
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind");
    let addr = server.addr();

    let mut client = ResilientClient::with_config(
        addr,
        ResilienceConfig {
            client: ClientConfig {
                connect_timeout: Duration::from_millis(100),
                request_deadline: Duration::from_millis(100),
            },
            max_retries: 1,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(250),
            ..ResilienceConfig::default()
        },
    )
    .expect("resolve");

    // Healthy plane: lookups answer.
    let healthy = client.lookup(PathKey(1)).is_some();
    println!("  plane up:   lookup answered = {healthy}");

    // Kill the plane mid-flight.
    server.shutdown();

    // Every call now degrades to None — bounded by deadline + backoff,
    // never an error the data path has to handle.
    for i in 0..4u64 {
        let ctx = client.lookup(PathKey(i));
        println!(
            "  plane down: lookup -> {:?}, breaker open = {}",
            ctx.map(|c| c.utilization),
            client.breaker_open()
        );
    }
    let s = client.stats();
    println!(
        "  stats: {} requests, {} degraded, {} breaker trip(s), {} short-circuited",
        s.requests, s.failures, s.breaker_trips, s.short_circuited
    );
    println!("  the sender keeps running on default parameters — vanilla TCP\n");
}

/// High availability: a primary replicates to a backup, crashes mid-run,
/// and the backup is promoted at epoch 2. Each sender's failover client
/// walks its endpoint list and resumes against *replicated* state; the
/// only cost is a per-sender degradation window (lookups answering "no
/// context") between the crash and the first successful failover.
fn ha_demo() {
    println!("-- high availability: primary crash, epoch-fenced failover --");
    let path = PathKey(0xC0FFEE);
    let store_cfg = StoreConfig {
        window_ns: 10_000_000_000,
        capacity_bps: Some(100_000_000.0),
        queue_alpha: 0.3,
    };

    // A backup at epoch 1 (fences all client traffic until promoted)...
    let backup = ContextServer::start_ha(
        "127.0.0.1:0",
        ContextStore::new(store_cfg),
        ServerConfig::default(),
        HaOptions {
            role: Role::Backup,
            ..HaOptions::default()
        },
    )
    .expect("bind backup");

    // ...and a primary streaming every mutation to it.
    let primary = ContextServer::start_ha(
        "127.0.0.1:0",
        ContextStore::new(store_cfg),
        ServerConfig::default(),
        HaOptions {
            backups: vec![backup.addr()],
            ..HaOptions::default()
        },
    )
    .expect("bind primary");
    let endpoints = vec![primary.addr(), backup.addr()];
    println!(
        "  primary {} (epoch {}), backup {} (fenced)",
        primary.addr(),
        primary.epoch(),
        backup.addr()
    );

    // Three senders, each with a failover client over [primary, backup],
    // looking up + reporting every few milliseconds and timing how long
    // lookups answered "no context".
    let start = Instant::now();
    let senders: Vec<_> = (0..3u64)
        .map(|i| {
            let endpoints = endpoints.clone();
            std::thread::spawn(move || {
                let mut client = ResilientClient::multi(
                    endpoints,
                    ResilienceConfig {
                        client: ClientConfig {
                            connect_timeout: Duration::from_millis(50),
                            request_deadline: Duration::from_millis(50),
                        },
                        max_retries: 1,
                        backoff_base: Duration::from_millis(2),
                        backoff_max: Duration::from_millis(10),
                        breaker_threshold: 4,
                        breaker_cooldown: Duration::from_millis(20),
                        ..ResilienceConfig::default()
                    },
                );
                let mut window: Option<(Duration, Duration)> = None; // (first miss, last miss)
                for _ in 0..60 {
                    match client.lookup(path) {
                        Some(_) => {
                            client.report(
                                path,
                                FlowSummary {
                                    bytes: 500_000 + 100_000 * i,
                                    duration_ns: 50_000_000,
                                    mean_rtt_ms: 160.0 + 5.0 * i as f64,
                                    min_rtt_ms: 150.0,
                                    retransmits: 0,
                                    timeouts: 0,
                                },
                            );
                        }
                        None => {
                            let t = start.elapsed();
                            let w = window.get_or_insert((t, t));
                            w.1 = t;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                (window, client.observed_epoch(), client.stats().fenced)
            })
        })
        .collect();

    // Let replication settle, then kill the primary mid-run and promote
    // the backup at a strictly greater epoch — the fencing token that
    // makes the deposed primary's replies unusable.
    std::thread::sleep(Duration::from_millis(150));
    primary.shutdown();
    println!("  primary crashed at t={:?}", start.elapsed());
    // Detection + promotion takes a while in real deployments; during
    // this window no replica answers and the senders run degraded.
    std::thread::sleep(Duration::from_millis(250));
    assert!(backup.promote(2), "promotion at epoch 2 must succeed");
    println!(
        "  backup promoted: epoch 1 -> {} at t={:?}",
        backup.epoch(),
        start.elapsed()
    );

    for (i, t) in senders.into_iter().enumerate() {
        let (window, epoch, fenced) = t.join().expect("sender thread");
        match window {
            Some((from, to)) => println!(
                "  sender {i}: degraded {:?} -> {:?} ({:?} without context), \
                 resumed at epoch {epoch}, {fenced} fenced reply(ies)",
                from,
                to,
                to - from
            ),
            None => println!("  sender {i}: never degraded, finished at epoch {epoch}"),
        }
    }

    // The promoted backup serves the *replicated* context, not an empty
    // store: the fleet's pre-crash reports survived the primary.
    let mut observer = ContextClient::connect(backup.addr()).expect("connect");
    let ctx = observer.lookup(path).expect("lookup");
    let stats = backup.stats();
    println!(
        "  promoted backup: u = {:.2} (replicated pre-crash state), \
         {} delta(s) applied, {} snapshot sync(s), {} fenced pre-promotion request(s)",
        ctx.utilization,
        stats.repl_applied.load(Ordering::Relaxed),
        stats.repl_syncs.load(Ordering::Relaxed),
        stats.fenced.load(Ordering::Relaxed),
    );
    backup.shutdown();
    println!("  failover complete — the plane outlived its primary");
}
