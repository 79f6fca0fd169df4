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

/// A port with no listener behind it.
fn dead_port() -> SocketAddr {
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    placeholder.local_addr().unwrap()
}

/// A client whose breaker trips on the first failed request and stays
/// open for `cooldown`. Zero makes each request after a trip the
/// half-open probe; an hour keeps the breaker open for the whole test.
/// The breaker's timing itself is tested at synthetic instants in
/// `resilient::tests`.
fn breaker_client(addr: SocketAddr, cooldown: Duration) -> ResilientClient {
    let cfg = ResilienceConfig {
        client: quick_config(),
        max_retries: 0,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        breaker_threshold: 1,
        breaker_cooldown: cooldown,
        breaker_cooldown_max: cooldown,
    };
    ResilientClient::with_config(addr, cfg).expect("resolve")
}

#[test]
fn resilient_client_degrades_then_recovers() {
    let addr = dead_port();
    // A zero cooldown: the request after the trip is the probe.
    let cfg = ResilienceConfig {
        client: quick_config(),
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        breaker_threshold: 2,
        breaker_cooldown: Duration::ZERO,
        ..ResilienceConfig::default()
    };
    let mut rc = ResilientClient::with_config(addr, cfg).expect("resolve");

    // Failures degrade to "no context", never an error or a block.
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.stats().breaker_trips, 1, "two failures trip it");

    // A server comes up on the same port; the half-open probe succeeds
    // and closes the breaker.
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start(addr, store).expect("rebind");
    let snap = rc.lookup(PathKey(1)).expect("probe should succeed");
    assert_eq!(snap.competing, 0);
    assert!(!rc.breaker_open());
    assert_eq!(rc.stats().probe_failures, 0);
    assert!(rc.report(PathKey(1), summary(10_000)));

    // Closed means the count starts over: one failure is under the
    // threshold again, not a failed probe.
    server.shutdown();
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.stats().breaker_trips, 1);
    assert_eq!(rc.stats().probe_failures, 0);
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
fn a_failed_probe_reopens_the_breaker() {
    let mut rc = breaker_client(dead_port(), Duration::ZERO);
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.stats().breaker_trips, 1);

    // Each later request is a half-open probe, and each fails against
    // the dead port; none is short-circuited.
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert_eq!(rc.lookup(PathKey(1)), None);
    let stats = rc.stats();
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.probe_failures, 2);
    assert_eq!(stats.failures, 3);
    assert_eq!(stats.short_circuited, 0);
}

#[test]
fn an_open_breaker_keeps_requests_off_the_network() {
    let addr = dead_port();
    let mut rc = breaker_client(addr, Duration::from_secs(3600));
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(rc.breaker_open());

    // The plane is back, but the breaker is open for an hour: requests
    // are answered "no context" and the server sees no connection.
    let store = ContextStore::new(StoreConfig::default());
    let server = ContextServer::start(addr, store).expect("rebind");
    assert_eq!(rc.lookup(PathKey(1)), None);
    assert!(!rc.report(PathKey(1), summary(1_000)));
    assert_eq!(rc.stats().short_circuited, 2);
    assert_eq!(rc.stats().failures, 1, "short-circuiting is not failing");
    assert_eq!(server.stats().connections.load(Ordering::Relaxed), 0);
    server.shutdown();
}
