//! Tests against real sockets and threads. Here: what every suite
//! starts from, and the server answering plain client traffic; `ha` is
//! fencing, replication and fail-over, `clients` the two clients against
//! planes that misbehave.

use std::net::TcpListener;

use super::*;
use crate::context::FlowSummary;

mod clients;
mod ha;

fn start_server() -> (ContextServer, SocketAddr) {
    let store = ContextStore::new(StoreConfig {
        window_ns: 10_000_000_000,
        capacity_bps: Some(10_000_000.0),
        queue_alpha: 0.3,
    });
    let server = ContextServer::start("127.0.0.1:0", store).expect("bind");
    let addr = server.addr();
    (server, addr)
}

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

impl ContextServer {
    /// Shard `shard`'s unpruned replication log (sequence + op), as a
    /// backup that started level would be handed it.
    fn repl_entries(&self, shard: usize) -> Vec<(u64, ReplOp)> {
        let r = self.shards[shard].lock();
        let mut entries = Vec::new();
        while let Ok(Some((Message::Replicate { seq, op, .. }, _))) =
            r.next_frame(shard as u32, Some(entries.len() as u64))
        {
            entries.push((seq, op));
        }
        entries
    }
}

impl ContextClient {
    /// Any frame out and the reply frame back (an error frame as
    /// [`ClientError::Server`]), to speak the replication stream by
    /// hand.
    fn request(&mut self, msg: &Message) -> Result<Message, ClientError> {
        self.ask(msg, Ok)
    }
}

fn quick_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_millis(150),
    }
}

fn start_ha_server(ha: HaOptions) -> (ContextServer, SocketAddr) {
    let store = ContextStore::new(StoreConfig::default());
    let server =
        ContextServer::start_ha("127.0.0.1:0", store, ServerConfig::default(), ha).expect("bind");
    let addr = server.addr();
    (server, addr)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn lookup_report_roundtrip() {
    let (server, addr) = start_server();
    let mut client = ContextClient::connect(addr).expect("connect");

    let c0 = client.lookup(PathKey(9)).expect("lookup");
    assert_eq!(c0.competing, 0);
    assert_eq!(c0.utilization, 0.0);

    // A second lookup sees the first as competing.
    let c1 = client.lookup(PathKey(9)).expect("lookup");
    assert_eq!(c1.competing, 1);

    client
        .report(PathKey(9), summary(1_000_000))
        .expect("report");
    let c2 = client.lookup(PathKey(9)).expect("lookup");
    // One reported (released), one still active, one new from c1's slot.
    assert_eq!(c2.competing, 1);
    assert!(c2.utilization > 0.0, "report should raise utilization");
    assert!((c2.queue_ms - 20.0).abs() < 1e-9);

    assert_eq!(server.stats().lookups.load(Ordering::Relaxed), 3);
    assert_eq!(server.stats().reports.load(Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn concurrent_clients_share_state() {
    let (server, addr) = start_server();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = ContextClient::connect(addr).expect("connect");
                c.lookup(PathKey(1)).expect("lookup");
                c.report(PathKey(1), summary(500_000)).expect("report");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let mut c = ContextClient::connect(addr).expect("connect");
    let snap = c.lookup(PathKey(1)).expect("lookup");
    // All four lookups were released by reports.
    assert_eq!(snap.competing, 0);
    assert!(snap.utilization > 0.0);
    assert_eq!(server.stats().reports.load(Ordering::Relaxed), 4);
    assert_eq!(server.stats().connections.load(Ordering::Relaxed), 5);
    server.shutdown();
}

#[test]
fn malformed_frame_gets_error_and_disconnect() {
    let (server, addr) = start_server();
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Garbage version byte.
    raw.write_all(&[0, 0, 0, 2, 77, 1]).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let mut d = Decoder::new();
    d.extend(&buf);
    match d.next().expect("error frame") {
        Message::Error { code: c, .. } => assert_eq!(c, code::MALFORMED),
        other => panic!("expected error, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors.load(Ordering::Relaxed), 1);
    server.shutdown();
}

#[test]
fn shutdown_joins_cleanly_with_open_connections() {
    let (server, addr) = start_server();
    let _idle = ContextClient::connect(addr).expect("connect");
    // Shut down while a client is connected but idle: must not hang.
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        start.elapsed()
    );
}

#[test]
fn snapshot_returns_busiest_paths_first() {
    let (server, addr) = start_server();
    let mut c = ContextClient::connect(addr).expect("connect");
    c.report(PathKey(1), summary(500_000)).expect("report");
    c.report(PathKey(2), summary(6_000_000)).expect("report");
    c.report(PathKey(3), summary(50_000)).expect("report");
    let top = c.snapshot(2).expect("snapshot");
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].0, PathKey(2), "busiest first: {top:?}");
    assert!(top[0].1.utilization >= top[1].1.utilization);
    let all = c.snapshot(100).expect("snapshot");
    assert_eq!(all.len(), 3);
    server.shutdown();
}

#[test]
fn paths_are_isolated_across_clients() {
    let (server, addr) = start_server();
    let mut a = ContextClient::connect(addr).expect("connect");
    let mut b = ContextClient::connect(addr).expect("connect");
    a.lookup(PathKey(1)).unwrap();
    a.report(PathKey(1), summary(2_000_000)).unwrap();
    let other = b.lookup(PathKey(2)).unwrap();
    assert_eq!(other.utilization, 0.0);
    assert_eq!(other.competing, 0);
    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_overload_frame() {
    let store = ContextStore::new(StoreConfig::default());
    let server =
        ContextServer::start_with("127.0.0.1:0", store, ServerConfig { max_connections: 1 })
            .expect("bind");
    let addr = server.addr();

    let mut kept = ContextClient::connect(addr).expect("connect");
    kept.lookup(PathKey(1)).expect("served under the cap");

    // Over the cap: the server answers one 503 frame and closes.
    let mut shed = ContextClient::connect_with(addr, quick_config()).expect("connect");
    match shed.lookup(PathKey(2)) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::OVERLOADED),
        other => panic!("expected overload error, got {other:?}"),
    }
    assert_eq!(server.stats().rejected.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats().connections.load(Ordering::Relaxed), 1);

    // Capacity frees up once the held connection's handler sees it
    // closed; until then a new connection may still be shed.
    drop(kept);
    wait_until("a slot freed by the closed connection", || {
        ContextClient::connect_with(addr, quick_config())
            .is_ok_and(|mut next| next.lookup(PathKey(3)).is_ok())
    });
    server.shutdown();
}

/// Type codes 3 (the single-report frame) and 11 (the whole-store
/// snapshot sync) are retired: to this build they are unassigned
/// codes like any other, answered `501` with the stream still aligned.
#[test]
fn retired_frame_types_get_501_and_the_connection_keeps_serving() {
    let (server, addr) = start_server();
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut d = Decoder::new();
    let mut reply_to = |frame: &[u8]| {
        raw.write_all(frame).expect("send");
        let mut buf = [0u8; 1024];
        loop {
            match d.next() {
                Ok(m) => return m,
                Err(DecodeError::Incomplete) => {
                    let n = raw.read(&mut buf).expect("read");
                    assert!(n > 0, "server hung up");
                    d.extend(&buf[..n]);
                }
                Err(e) => panic!("decode {e}"),
            }
        }
    };
    // The frames as the last build that spoke them laid them out.
    let mut report = vec![0, 0, 0, 50, crate::wire::VERSION, 3];
    report.extend_from_slice(&[0u8; 48]); // path + summary
    let mut sync = vec![0, 0, 0, 14, crate::wire::VERSION, 11];
    sync.extend_from_slice(&[0u8; 12]); // epoch + empty blob
    let mut query = vec![0, 0, 0, 12, crate::wire::VERSION, 13, 0, 1];
    query.extend_from_slice(&[0u8; 8]); // one path
    let mut reply = vec![0, 0, 0, 24, crate::wire::VERSION, 14, 0, 1];
    reply.extend_from_slice(&[0u8; 20]); // one context
    for (frame, ty) in [(report, 3), (sync, 11), (query, 13), (reply, 14)] {
        match reply_to(&frame) {
            Message::Error { code: c, message } => {
                assert_eq!(c, code::UNSUPPORTED);
                assert!(
                    message.contains(&ty.to_string()),
                    "names the type: {message}"
                );
            }
            other => panic!("expected 501 for retired type {ty}, got {other:?}"),
        }
    }
    match reply_to(&encode(&Message::Lookup { path: PathKey(1) })) {
        Message::Context(c) => assert_eq!(c.competing, 0),
        other => panic!("expected a context reply, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors.load(Ordering::Relaxed), 4);
    assert_eq!(server.stats().reports.load(Ordering::Relaxed), 0);
    server.shutdown();
}

/// The batching/HA seam: one `BatchReport` must leave exactly the
/// `ReplLog` deltas the same items sent as single frames leave — op
/// for op, in order — so a backup catching up via snapshot-then-delta
/// cannot tell (or lose) anything when primaries start batching.
#[test]
fn batched_report_logs_the_same_deltas_as_singles() {
    let (batch_srv, batch_addr) = start_server();
    let (single_srv, single_addr) = start_server();
    let items = vec![
        (PathKey(1), summary(1_000_000)),
        (PathKey(2), summary(2_000_000)),
        (PathKey(1), summary(3_000_000)),
    ];

    let mut cb = ContextClient::connect(batch_addr).expect("connect");
    cb.report_batch(&items).expect("batch report");
    // A zero-item batch is a legal no-op: acked, nothing counted or logged.
    cb.report_batch(&[]).expect("empty report");
    let mut cs = ContextClient::connect(single_addr).expect("connect");
    for &(p, s) in &items {
        cs.report(p, s).expect("single report");
    }

    // Identical deltas modulo the servers' own clocks: same length,
    // same sequence numbers, same ops carrying the same payloads.
    let strip = |entries: Vec<(u64, ReplOp)>| -> Vec<(u64, PathKey, FlowSummary)> {
        entries
            .into_iter()
            .map(|(seq, op)| match op {
                ReplOp::Report { path, summary, .. } => (seq, path, summary),
                other => panic!("batch must log reports, got {other:?}"),
            })
            .collect()
    };
    let a = strip(batch_srv.repl_entries(0));
    let b = strip(single_srv.repl_entries(0));
    assert_eq!(a.len(), 3);
    assert_eq!(a, b);
    assert_eq!(batch_srv.stats().reports.load(Ordering::Relaxed), 3);

    // And the stores agree on everything clock-independent.
    let (bst, _) =
        ContextStore::decode_snapshot(&batch_srv.shard_snapshot_blob(0)).expect("decode");
    let (sst, _) =
        ContextStore::decode_snapshot(&single_srv.shard_snapshot_blob(0)).expect("decode");
    for p in [PathKey(1), PathKey(2)] {
        assert_eq!(bst.traffic_counters(p), sst.traffic_counters(p));
        assert_eq!(bst.loss_signal(p), sst.loss_signal(p));
    }
    batch_srv.shutdown();
    single_srv.shutdown();
}

#[test]
fn sharded_server_routes_and_serves_every_shard() {
    let server = ContextServer::start_sharded(
        "127.0.0.1:0",
        StoreConfig::default(),
        ServerConfig::default(),
        4,
    )
    .expect("bind");
    assert_eq!(server.shard_count(), 4);
    let mut c = ContextClient::connect(server.addr()).expect("connect");

    // Traffic on paths covering all four shards.
    let paths: Vec<PathKey> = (0..32).map(PathKey).collect();
    let covered: std::collections::HashSet<usize> =
        paths.iter().map(|&p| shard_index(p, 4)).collect();
    assert_eq!(covered.len(), 4, "test paths must cover every shard");
    let items: Vec<(PathKey, FlowSummary)> = paths.iter().map(|&p| (p, summary(500_000))).collect();
    c.report_batch(&items).expect("batch report");

    // Every path is served by its shard and the merged dashboard sees
    // them all.
    for &p in &paths {
        assert!(c.lookup(p).expect("lookup").utilization > 0.0, "{p:?}");
    }
    let top = c.snapshot(100).expect("snapshot");
    assert_eq!(top.len(), 32);
    assert!(
        top.windows(2)
            .all(|w| w[0].1.utilization >= w[1].1.utilization),
        "merged snapshot must stay busiest-first"
    );
    assert_eq!(server.stats().reports.load(Ordering::Relaxed), 32);
    server.shutdown();
}
