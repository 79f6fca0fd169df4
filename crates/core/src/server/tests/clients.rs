use phi_tcp::hook::ContextSnapshot;

use super::*;

/// Regression: a read timeout used to leave the reply to request N on
/// the wire, and the next `request()` silently paired it with request
/// N+1. With poisoning, the late reply can never be mispaired.
#[test]
fn late_reply_poisons_instead_of_mispairing() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Read request 1 fully, then stall past the client deadline.
        let mut d = Decoder::new();
        let mut buf = [0u8; 4096];
        loop {
            match d.next() {
                Ok(Message::Lookup { path }) => {
                    assert_eq!(path, PathKey(1));
                    break;
                }
                Ok(other) => panic!("unexpected request {other:?}"),
                Err(DecodeError::Incomplete) => {
                    let n = stream.read(&mut buf).expect("read");
                    assert!(n > 0, "client hung up early");
                    d.extend(&buf[..n]);
                }
                Err(e) => panic!("decode {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(400));
        // The reply to request 1 finally arrives — after the client
        // already gave up on it.
        stream
            .write_all(&encode(&Message::Context(ContextSnapshot {
                utilization: 0.111,
                queue_ms: 1.0,
                competing: 111,
            })))
            .expect("late reply");
        // Keep the connection open long enough for a (buggy) client
        // to read the stale reply.
        std::thread::sleep(Duration::from_millis(400));
    });

    let mut client = ContextClient::connect_with(addr, quick_config()).expect("connect");
    // Request 1 times out at its deadline.
    match client.lookup(PathKey(1)) {
        Err(ClientError::Deadline) => {}
        other => panic!("expected deadline, got {other:?}"),
    }
    assert!(client.is_poisoned());
    // Request 2 must NOT be paired with request 1's (now arriving)
    // reply; the pre-fix client returned Ok(utilization 0.111) here.
    let started = Instant::now();
    match client.lookup(PathKey(2)) {
        Err(ClientError::Poisoned) => {}
        Ok(snap) => panic!("request 2 got request 1's reply: {snap:?}"),
        other => panic!("expected poisoned, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "poisoned call must fail fast, took {:?}",
        started.elapsed()
    );
    server.join().expect("server thread");
}

/// Regression: the typed methods used to build the wrong-type error
/// outside `request()`, so it never poisoned — the caller was told
/// `Protocol` and the next call paired with whatever arrived next. An
/// `Error` frame and an unknown frame type are clean answers and must
/// leave the connection usable.
#[test]
fn mispaired_reply_poisons_but_error_and_unknown_frames_do_not() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let replies = [
            encode(&Message::Error {
                code: code::BAD_REQUEST,
                message: "no".into(),
            }),
            vec![0, 0, 0, 2, crate::wire::VERSION, 200], // a type from the future
            encode(&Message::ReportOk),                  // not what a lookup gets
        ];
        let mut d = Decoder::new();
        let mut buf = [0u8; 1024];
        for reply in &replies {
            loop {
                match d.next() {
                    Ok(Message::Lookup { .. }) => break,
                    Ok(other) => panic!("unexpected request {other:?}"),
                    Err(DecodeError::Incomplete) => {
                        let n = stream.read(&mut buf).expect("read");
                        assert!(n > 0, "client hung up early");
                        d.extend(&buf[..n]);
                    }
                    Err(e) => panic!("decode {e}"),
                }
            }
            stream.write_all(reply).expect("reply");
        }
        // A poisoned client sends nothing more: the next read is EOF.
        assert_eq!(
            stream.read(&mut buf).expect("read"),
            0,
            "request after poison"
        );
    });

    let mut client = ContextClient::connect_with(addr, quick_config()).expect("connect");
    match client.lookup(PathKey(1)) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::BAD_REQUEST),
        other => panic!("expected the server's 400, got {other:?}"),
    }
    assert!(!client.is_poisoned(), "an error frame is a clean reply");
    match client.lookup(PathKey(2)) {
        Err(ClientError::Unsupported(200)) => {}
        other => panic!("expected unsupported reply type, got {other:?}"),
    }
    assert!(
        !client.is_poisoned(),
        "a skipped frame leaves the stream aligned"
    );
    match client.lookup(PathKey(3)) {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(client.is_poisoned(), "a mispaired reply must poison");
    match client.lookup(PathKey(4)) {
        Err(ClientError::Poisoned) => {}
        other => panic!("expected poisoned, got {other:?}"),
    }
    drop(client);
    server.join().expect("server thread");
}

/// No client call blocks past its configured deadline — against a
/// server that accepts but never replies (read stall) and never reads
/// (write stall); the write timeout set at connect covers the latter.
#[test]
fn calls_are_bounded_by_the_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        // Accept and hold both connections open, reading and writing
        // nothing, until the test is done.
        let a = listener.accept().expect("accept");
        let b = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_millis(600));
        drop((a, b));
    });

    let cfg = quick_config();
    let mut c1 = ContextClient::connect_with(addr, cfg).expect("connect");
    assert!(
        c1.stream.write_timeout().unwrap().is_some(),
        "connect must set a write timeout"
    );
    let started = Instant::now();
    match c1.lookup(PathKey(7)) {
        Err(ClientError::Deadline) => {}
        other => panic!("expected deadline, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed >= cfg.request_deadline && elapsed < cfg.request_deadline * 3,
        "lookup returned in {elapsed:?} for a {:?} deadline",
        cfg.request_deadline
    );

    let mut c2 = ContextClient::connect_with(addr, cfg).expect("connect");
    let started = Instant::now();
    assert!(c2.report(PathKey(7), summary(1)).is_err());
    assert!(
        started.elapsed() < cfg.request_deadline * 3,
        "report blocked {:?}",
        started.elapsed()
    );
    silent.join().expect("silent server");
}

#[test]
fn resilient_client_degrades_then_recovers() {
    // Grab a port with no listener behind it.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let cfg = ResilienceConfig {
        client: quick_config(),
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(200),
        ..ResilienceConfig::default()
    };
    let mut rc = ResilientClient::with_config(addr, cfg).expect("resolve");

    // Failures degrade to "no context", never an error or a block.
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(rc.breaker_open(), "breaker should open after 2 failures");
    assert!(rc.stats().breaker_trips >= 1);

    // Open breaker short-circuits instantly.
    let started = Instant::now();
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(
        started.elapsed() < Duration::from_millis(20),
        "open breaker must not touch the network ({:?})",
        started.elapsed()
    );
    assert!(rc.stats().short_circuited >= 1);

    // A server comes up on the same port; after the cooldown the next
    // request probes, succeeds, and closes the breaker.
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start(addr, store).expect("rebind");
    std::thread::sleep(cfg.breaker_cooldown + Duration::from_millis(50));
    let snap = rc.lookup(PathKey(1)).expect("probe should succeed");
    assert_eq!(snap.competing, 0);
    assert!(!rc.breaker_open());
    assert!(rc.report(PathKey(1), summary(10_000)));
    server.shutdown();
}

#[test]
fn resilient_client_reconnects_across_server_restart() {
    let (server, addr) = start_server();
    let mut rc = ResilientClient::with_config(
        addr,
        ResilienceConfig {
            client: quick_config(),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(8),
            ..ResilienceConfig::default()
        },
    )
    .expect("resolve");
    assert!(rc.lookup(PathKey(5)).is_some());
    server.shutdown();

    // Server gone: degraded, not stuck.
    assert_eq!(rc.lookup(PathKey(5)), None);

    // Server back on the same port: the wrapper reconnects by itself.
    let store = ContextStore::new(StoreConfig::default());
    let revived = ContextServer::start(addr, store).expect("rebind");
    assert!(rc.lookup(PathKey(5)).is_some(), "should reconnect");
    assert!(rc.stats().connects >= 2, "stats: {:?}", rc.stats());
    revived.shutdown();
}

#[test]
fn resilient_client_fails_over_between_endpoints() {
    let (a, addr_a) = start_server();
    let (b, addr_b) = start_server();
    let mut rc = ResilientClient::multi(
        vec![addr_a, addr_b],
        ResilienceConfig {
            client: quick_config(),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..ResilienceConfig::default()
        },
    );
    assert!(rc.lookup(PathKey(1)).is_some());
    assert_eq!(rc.current_endpoint(), addr_a);

    // First endpoint dies: the same client keeps serving from the
    // second, within the same degraded-free request.
    a.shutdown();
    assert!(rc.lookup(PathKey(1)).is_some(), "failover should serve");
    assert_eq!(rc.current_endpoint(), addr_b);
    assert!(rc.stats().failovers >= 1, "stats: {:?}", rc.stats());
    b.shutdown();
}

#[test]
fn half_open_probe_failure_doubles_cooldown() {
    // A port with nothing behind it: every probe fails.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let cooldown = Duration::from_millis(50);
    let mut rc = ResilientClient::with_config(
        addr,
        ResilienceConfig {
            client: quick_config(),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            breaker_threshold: 1,
            breaker_cooldown: cooldown,
            breaker_cooldown_max: Duration::from_secs(30),
        },
    )
    .expect("resolve");

    // First failure trips the breaker at the base cooldown; the next
    // period is already scheduled to double.
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(rc.breaker_open());
    assert_eq!(rc.stats().breaker_trips, 1);
    assert_eq!(rc.current_cooldown(), cooldown * 2);

    // Past the cooldown the breaker goes half-open; the probe fails
    // against the dead port and re-opens for twice as long.
    std::thread::sleep(cooldown + Duration::from_millis(20));
    assert!(!rc.breaker_open(), "cooldown elapsed → half-open");
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.stats().probe_failures, 1);
    assert!(rc.breaker_open(), "failed probe re-opens");
    assert_eq!(rc.current_cooldown(), cooldown * 4);

    // While re-opened, requests short-circuit without touching the net.
    let started = Instant::now();
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(started.elapsed() < Duration::from_millis(20));
    assert!(rc.stats().short_circuited >= 1);
}

#[test]
fn half_open_probe_success_closes_and_resets_cooldown() {
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let cooldown = Duration::from_millis(100);
    let mut rc = ResilientClient::with_config(
        addr,
        ResilienceConfig {
            client: quick_config(),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            breaker_threshold: 1,
            breaker_cooldown: cooldown,
            breaker_cooldown_max: Duration::from_secs(30),
        },
    )
    .expect("resolve");

    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(rc.breaker_open());
    assert_eq!(rc.current_cooldown(), cooldown * 2, "doubling scheduled");

    // A server appears; the half-open probe succeeds, the breaker
    // closes, and the doubling streak resets to the base cooldown.
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start(addr, store).expect("rebind");
    std::thread::sleep(cooldown + Duration::from_millis(50));
    assert!(rc.lookup(PathKey(1)).is_some(), "probe should succeed");
    assert!(!rc.breaker_open());
    assert_eq!(rc.stats().probe_failures, 0);
    assert_eq!(rc.current_cooldown(), cooldown, "streak reset");
    server.shutdown();
}

/// A client on a healthy plane, with quick timeouts and short backoff.
fn resilient(addr: SocketAddr) -> ResilientClient {
    ResilientClient::with_config(
        addr,
        ResilienceConfig {
            client: quick_config(),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..ResilienceConfig::default()
        },
    )
    .expect("resolve")
}

/// Each trigger ships the buffer to a live server. The age bound at its
/// exact instant is `resilient::tests`' job; here a zero `max_age` makes
/// every report due as it is buffered, with no sleep.
#[test]
fn write_behind_flushes_on_count_and_age_and_demand() {
    let (server, addr) = start_server();
    let reports = || server.stats().reports.load(Ordering::Relaxed);
    let mut rc = resilient(addr);
    rc.set_write_behind(WriteBehindConfig {
        max_items: 3,
        max_age: Duration::from_secs(60),
    });

    // Count trigger: nothing is on the server until the 3rd report.
    assert!(rc.buffer_report(PathKey(1), summary(1_000)));
    assert!(rc.buffer_report(PathKey(1), summary(2_000)));
    assert_eq!(reports(), 0);
    assert_eq!(rc.pending_reports(), 2);
    assert!(rc.buffer_report(PathKey(1), summary(3_000)));
    assert_eq!(rc.pending_reports(), 0);
    assert_eq!(reports(), 3);

    // Age trigger: with a zero bound, the report is due at once.
    rc.set_write_behind(WriteBehindConfig {
        max_items: 3,
        max_age: Duration::ZERO,
    });
    assert!(rc.buffer_report(PathKey(2), summary(4_000)));
    assert_eq!(rc.pending_reports(), 0);
    assert_eq!(reports(), 4);

    // Explicit flush.
    rc.set_write_behind(WriteBehindConfig {
        max_items: 3,
        max_age: Duration::from_secs(60),
    });
    assert!(rc.buffer_report(PathKey(3), summary(6_000)));
    assert_eq!(rc.pending_reports(), 1);
    assert!(rc.flush_reports());
    assert!(rc.flush_reports(), "an empty flush loses nothing");
    assert_eq!(rc.pending_reports(), 0);
    assert_eq!(reports(), 5);
    server.shutdown();
}

#[test]
fn write_behind_drops_cleanly_when_the_plane_dies() {
    let (server, addr) = start_server();
    let mut rc = resilient(addr);
    rc.set_write_behind(WriteBehindConfig {
        max_items: 2,
        max_age: Duration::from_secs(60),
    });
    // Connected and buffering when the plane goes.
    assert!(rc.lookup(PathKey(1)).is_some());
    assert!(rc.buffer_report(PathKey(1), summary(1_000)));
    server.shutdown();

    // The triggered flush fails against the dead plane; the buffer is
    // dropped (degrade), never ballooned, and the call stays bounded.
    let started = Instant::now();
    assert!(!rc.buffer_report(PathKey(1), summary(2_000)), "flush lost");
    assert!(
        started.elapsed() < quick_config().request_deadline * 3,
        "flush must stay deadline-bounded, took {:?}",
        started.elapsed()
    );
    assert_eq!(rc.pending_reports(), 0, "failed flush must drop, not hold");
}

#[test]
fn resilient_write_behind_degrades_to_dropped_reports() {
    // A port with no listener: every flush fails fast or is
    // short-circuited by the breaker — never an error, never a stall.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let mut rc = ResilientClient::with_config(
        addr,
        ResilienceConfig {
            client: quick_config(),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(5),
            ..ResilienceConfig::default()
        },
    )
    .expect("resolve");
    rc.set_write_behind(WriteBehindConfig {
        max_items: 2,
        max_age: Duration::from_secs(60),
    });

    assert!(rc.buffer_report(PathKey(1), summary(1_000)), "buffered");
    assert!(!rc.buffer_report(PathKey(1), summary(2_000)), "flush lost");
    assert_eq!(rc.pending_reports(), 0);
    assert!(rc.breaker_open(), "failures still feed the breaker");

    // With the breaker open, further flushes short-circuit instantly.
    let started = Instant::now();
    assert!(rc.buffer_report(PathKey(1), summary(3_000)));
    assert!(!rc.buffer_report(PathKey(1), summary(4_000)));
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "open breaker must not touch the network ({:?})",
        started.elapsed()
    );
    assert!(rc.stats().short_circuited >= 1);
}

#[test]
fn write_behind_buffer_survives_orderly_shutdown() {
    // The bug this pins: reports buffered but not yet flushed were
    // silently lost when the client was dropped or closed before a
    // flush trigger fired.
    let (server, addr) = start_server();
    let reports = || server.stats().reports.load(Ordering::Relaxed);
    let wb = WriteBehindConfig {
        max_items: 100,
        max_age: Duration::from_secs(60),
    };

    // Drop path: the destructor ships the buffer.
    let mut rc = resilient(addr);
    rc.set_write_behind(wb);
    assert!(rc.buffer_report(PathKey(1), summary(1_000)));
    assert!(rc.buffer_report(PathKey(1), summary(2_000)));
    drop(rc);
    assert_eq!(reports(), 2);

    // Close path: same flush, but losses are observable.
    let mut rc = resilient(addr);
    rc.set_write_behind(wb);
    assert!(rc.buffer_report(PathKey(2), summary(3_000)));
    assert!(rc.close(), "close lost reports");
    assert_eq!(reports(), 3);
    server.shutdown();
}

#[test]
fn drop_flush_stays_bounded_against_a_dead_plane() {
    let (server, addr) = start_server();
    let mut rc = resilient(addr);
    rc.set_write_behind(WriteBehindConfig {
        max_items: 100,
        max_age: Duration::from_secs(60),
    });
    assert!(rc.lookup(PathKey(1)).is_some());
    assert!(rc.buffer_report(PathKey(1), summary(1_000)));
    server.shutdown();

    // The destructor's flush fails against the dead plane; it must
    // swallow the loss and return within the retry budget, not hang
    // teardown.
    let started = Instant::now();
    drop(rc);
    assert!(
        started.elapsed() < quick_config().request_deadline * 3,
        "drop flush must stay deadline-bounded, took {:?}",
        started.elapsed()
    );
}
