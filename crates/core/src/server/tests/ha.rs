use super::*;

#[test]
fn epoch_query_reports_epoch_and_role() {
    let (server, addr) = start_ha_server(HaOptions {
        epoch: 7,
        ..HaOptions::default()
    });
    let mut c = ContextClient::connect(addr).expect("connect");
    assert_eq!(c.epoch().expect("epoch query"), (7, Role::Primary));
    assert_eq!(server.epoch(), 7);
    assert_eq!(server.role(), Role::Primary);
    server.shutdown();
}

#[test]
fn backup_fences_client_requests_with_409() {
    let (server, addr) = start_ha_server(HaOptions {
        role: Role::Backup,
        ..HaOptions::default()
    });
    let mut c = ContextClient::connect(addr).expect("connect");
    // Epoch queries are answered by any role (that's how probes work)…
    assert_eq!(c.epoch().expect("epoch query"), (1, Role::Backup));
    // …but context traffic is fenced: a backup's store may be stale.
    match c.lookup(PathKey(1)) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::FENCED),
        other => panic!("expected 409 FENCED, got {other:?}"),
    }
    match c.report(PathKey(1), summary(1_000)) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::FENCED),
        other => panic!("expected 409 FENCED, got {other:?}"),
    }
    assert_eq!(server.stats().fenced.load(Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn replication_streams_deltas_to_backup() {
    let (backup, backup_addr) = start_ha_server(HaOptions {
        role: Role::Backup,
        ..HaOptions::default()
    });
    let (primary, primary_addr) = start_ha_server(HaOptions {
        backups: vec![backup_addr],
        repl_client: quick_config(),
        ..HaOptions::default()
    });

    // A new link opens with a snapshot sync. Let it land first, or it
    // can carry the mutations below and leave the delta stream — what
    // this test is about — with fewer than two entries to apply.
    wait_until("the link's initial snapshot sync", || {
        backup.stats().repl_syncs.load(Ordering::Relaxed) >= 1
    });

    let mut c = ContextClient::connect(primary_addr).expect("connect");
    c.lookup(PathKey(4)).expect("lookup");
    c.report(PathKey(4), summary(2_000_000)).expect("report");

    // The delta stream carries both mutations to the backup.
    wait_until("backup to apply the deltas", || {
        let (store, _) = ContextStore::decode_snapshot(&backup.snapshot_blob())
            .expect("backup snapshot decodes");
        store.traffic_counters(PathKey(4)) == (1, 1)
    });
    let (bstore, bepoch) = ContextStore::decode_snapshot(&backup.snapshot_blob()).expect("decode");
    assert_eq!(bepoch, 1);
    assert!(bstore.loss_signal(PathKey(4)).is_some());
    assert!(primary.stats().repl_sent.load(Ordering::Relaxed) >= 2);
    assert!(backup.stats().repl_applied.load(Ordering::Relaxed) >= 2);
    primary.shutdown();
    backup.shutdown();
}

#[test]
fn backup_catches_up_via_snapshot_sync() {
    // Reserve a port for the backup, but don't start it yet.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let backup_addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let (primary, primary_addr) = start_ha_server(HaOptions {
        backups: vec![backup_addr],
        repl_client: quick_config(),
        ..HaOptions::default()
    });
    // State accumulates while the backup is down.
    let mut c = ContextClient::connect(primary_addr).expect("connect");
    c.lookup(PathKey(9)).expect("lookup");
    c.report(PathKey(9), summary(3_000_000)).expect("report");

    // The backup comes up late: a full snapshot must bring it level.
    let bstore = ContextStore::new(StoreConfig::default());
    let backup = ContextServer::start_ha(
        backup_addr,
        bstore,
        ServerConfig::default(),
        HaOptions {
            role: Role::Backup,
            ..HaOptions::default()
        },
    )
    .expect("bind backup");

    wait_until("snapshot sync to land", || {
        let (store, _) = ContextStore::decode_snapshot(&backup.snapshot_blob())
            .expect("backup snapshot decodes");
        store.traffic_counters(PathKey(9)) == (1, 1)
    });
    assert!(backup.stats().repl_syncs.load(Ordering::Relaxed) >= 1);
    primary.shutdown();
    backup.shutdown();
}

#[test]
fn sharded_backup_catches_up_via_shard_snapshot_sync() {
    // The bug this pins: before SHARD_SNAPSHOT_SYNC a multi-shard
    // server answered every SnapshotSync with 501, so a late-started
    // sharded backup could never be brought level. Two shards, one
    // path on each, backup started after the data exists.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let backup_addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let primary = ContextServer::start_sharded_ha(
        "127.0.0.1:0",
        StoreConfig::default(),
        ServerConfig::default(),
        2,
        HaOptions {
            backups: vec![backup_addr],
            repl_client: quick_config(),
            ..HaOptions::default()
        },
    )
    .expect("bind primary");

    // One path per shard, found by the same hash the router uses.
    let on_shard = |want: usize| {
        (0..64)
            .map(PathKey)
            .find(|&p| crate::shard::shard_index(p, 2) == want)
            .expect("a path landing on the shard")
    };
    let (p0, p1) = (on_shard(0), on_shard(1));
    let mut c = ContextClient::connect(primary.addr()).expect("connect");
    for p in [p0, p1] {
        c.lookup(p).expect("lookup");
        c.report(p, summary(2_000_000)).expect("report");
    }

    let backup = ContextServer::start_sharded_ha(
        backup_addr,
        StoreConfig::default(),
        ServerConfig::default(),
        2,
        HaOptions {
            role: Role::Backup,
            ..HaOptions::default()
        },
    )
    .expect("bind backup");

    wait_until("both shards to sync", || {
        [p0, p1].iter().all(|&p| {
            let s = crate::shard::shard_index(p, 2);
            let (store, _) = ContextStore::decode_snapshot(&backup.shard_snapshot_blob(s))
                .expect("backup shard snapshot decodes");
            store.traffic_counters(p) == (1, 1)
        })
    });
    assert!(backup.stats().repl_syncs.load(Ordering::Relaxed) >= 2);
    primary.shutdown();
    backup.shutdown();
}

#[test]
fn shard_snapshot_sync_rejects_out_of_range_shard() {
    let server = ContextServer::start_sharded(
        "127.0.0.1:0",
        StoreConfig::default(),
        ServerConfig::default(),
        2,
    )
    .expect("bind");
    let mut c = ContextClient::connect(server.addr()).expect("connect");
    let blob = server.shard_snapshot_blob(0);
    match c.sync_shard_snapshot(7, 2, blob) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::BAD_REQUEST),
        other => panic!("expected 400 for shard out of range, got {other:?}"),
    }
    // The stream stays aligned: the same connection still serves.
    c.lookup(PathKey(1)).expect("lookup after rejected sync");
    server.shutdown();
}

#[test]
fn a_snapshot_claiming_more_paths_than_it_holds_is_a_bad_request() {
    // Any peer can send a sync frame with a high epoch. One whose path
    // count is `u32::MAX` used to end the process in `with_capacity`.
    let (server, addr) = start_ha_server(HaOptions::default());
    let mut blob = ContextStore::new(StoreConfig::default()).encode_snapshot(9);
    let count_at = blob.len() - 4;
    blob[count_at..].copy_from_slice(&u32::MAX.to_be_bytes());
    let mut c = ContextClient::connect(addr).expect("connect");
    match c.sync_shard_snapshot(0, 9, blob) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::BAD_REQUEST),
        other => panic!("expected 400 for the oversized count, got {other:?}"),
    }
    // Nothing was applied, and the same connection still serves.
    assert_eq!(server.epoch_of(0), 1);
    assert_eq!(server.role_of(0), Role::Primary);
    c.lookup(PathKey(1))
        .expect("lookup after the rejected sync");
    server.shutdown();
}

/// An epoch the word cannot hold is turned away where it enters: from an
/// operator at start-up and at promotion, from a peer as a `400` that
/// leaves the shard and the connection as they were.
#[test]
fn an_epoch_beyond_the_fencing_word_is_refused_at_the_boundary() {
    let store = ContextStore::new(StoreConfig::default());
    let ha = HaOptions {
        epoch: MAX_EPOCH + 1,
        ..HaOptions::default()
    };
    let refused = ContextServer::start_ha("127.0.0.1:0", store, ServerConfig::default(), ha);
    assert_eq!(
        refused.err().map(|e| e.kind()),
        Some(std::io::ErrorKind::InvalidInput)
    );

    let (server, addr) = start_server();
    assert!(!server.promote(MAX_EPOCH + 1));
    let mut c = ContextClient::connect(addr).expect("connect");
    let blob = server.snapshot_blob();
    match c.sync_shard_snapshot(0, u64::MAX, blob) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::BAD_REQUEST),
        other => panic!("expected 400 for the oversized epoch, got {other:?}"),
    }
    assert_eq!((server.epoch(), server.role()), (1, Role::Primary));
    c.lookup(PathKey(1)).expect("lookup after the refused sync");
    server.shutdown();
}

/// An operator promoting while a peer's deltas arrive at nearby epochs,
/// through the public API. The bug this pins: a delta checked against the
/// old epoch overwrote a promotion that landed in between. Whatever the
/// interleaving, the server ends at or above its last successful
/// promotion, and the peer's connection still serves. The explorer in
/// `replica::tests` checks the same rule step by step.
#[test]
fn promotions_racing_a_peers_deltas_never_lower_the_epoch() {
    const ROUNDS: usize = 200;
    let (server, addr) = start_server();
    let mut c = ContextClient::connect(addr).expect("connect");
    let promoted = std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            for _ in 0..ROUNDS {
                let op = ReplOp::Lookup {
                    path: PathKey(1),
                    now_ns: 0,
                };
                let epoch = server.epoch() + 1;
                match c.request(&Message::Replicate { epoch, seq: 1, op }) {
                    Ok(_) | Err(ClientError::Server { .. }) => {} // accepted, or fenced
                    Err(e) => panic!("peer lost its connection: {e}"),
                }
            }
        });
        let mut promoted = 0;
        for _ in 0..ROUNDS {
            let epoch = server.epoch() + 2;
            if server.promote(epoch) {
                promoted = epoch;
            }
            std::thread::yield_now();
        }
        peer.join().expect("peer");
        promoted
    });
    assert!(promoted > 0, "no promotion ever landed");
    assert!(server.epoch() >= promoted, "epoch fell below {promoted}");
    assert!(server.promote(server.epoch() + 1));
    c.lookup(PathKey(1))
        .expect("the peer's connection still serves");
    server.shutdown();
}

/// A shard whose snapshot would not fit one frame is skipped on the link
/// and counted. The bug this pins: the blob was cut to size and sent, and
/// the backup answered `400` every pass, forever.
#[test]
fn an_oversized_shard_snapshot_is_skipped_not_truncated() {
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let backup_addr = placeholder.local_addr().unwrap();
    drop(placeholder);
    let (primary, primary_addr) = start_ha_server(HaOptions {
        backups: vec![backup_addr],
        repl_client: quick_config(),
        ..HaOptions::default()
    });
    // ≈ 3 000 reports in one path's window: a 72 KB snapshot.
    let items: Vec<_> = (0..3_000)
        .map(|i| (PathKey(5), summary(1_000 + i)))
        .collect();
    let mut c = ContextClient::connect(primary_addr).expect("connect");
    c.report_batch(&items).expect("reports");

    // The backup comes up late, so only a snapshot could bring it level.
    let backup = ContextServer::start_ha(
        backup_addr,
        ContextStore::new(StoreConfig::default()),
        ServerConfig::default(),
        HaOptions {
            role: Role::Backup,
            ..HaOptions::default()
        },
    )
    .expect("bind backup");
    wait_until("a few passes to skip the shard", || {
        primary.stats().repl_oversized.load(Ordering::Relaxed) >= 3
    });
    assert_eq!(backup.stats().protocol_errors.load(Ordering::Relaxed), 0);
    assert_eq!(backup.stats().repl_syncs.load(Ordering::Relaxed), 0);
    primary.shutdown();
    backup.shutdown();
}

#[test]
fn promotion_fences_the_deposed_primary() {
    let (backup, backup_addr) = start_ha_server(HaOptions {
        role: Role::Backup,
        ..HaOptions::default()
    });
    let (old_primary, old_addr) = start_ha_server(HaOptions {
        backups: vec![backup_addr],
        repl_client: quick_config(),
        ..HaOptions::default()
    });
    // A new link opens with a snapshot sync of whatever the primary
    // holds then. Let that (empty) one land first, so that the report
    // can only reach the backup as a delta, and wait for the delta.
    wait_until("the link's initial snapshot sync", || {
        backup.stats().repl_syncs.load(Ordering::Relaxed) >= 1
    });
    let mut c = ContextClient::connect(old_addr).expect("connect");
    c.report(PathKey(2), summary(1_000_000)).expect("report");
    wait_until("backup to apply the report", || {
        backup.stats().repl_applied.load(Ordering::Relaxed) >= 1
    });

    // Promotion demands a strictly greater epoch — the new epoch IS
    // the fence, so reusing the old one is rejected.
    assert!(!backup.promote(1), "equal epoch must not promote");
    assert!(backup.promote(2));
    assert!(!backup.promote(2), "stale re-promotion must fail");
    assert_eq!(backup.role(), Role::Primary);
    assert_eq!(backup.epoch(), 2);

    // The old primary discovers the higher epoch through its own
    // replication stream and deposes itself rather than split-brain.
    wait_until("old primary to self-depose", || {
        old_primary.role() == Role::Backup
    });
    match c.lookup(PathKey(2)) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::FENCED),
        other => panic!("deposed primary must fence, got {other:?}"),
    }

    // A failover client walks the endpoint list: the deposed primary
    // is rejected at the handshake, the promoted backup serves.
    let mut rc = ResilientClient::multi(
        vec![old_addr, backup_addr],
        ResilienceConfig {
            client: quick_config(),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..ResilienceConfig::default()
        },
    );
    let snap = rc.lookup(PathKey(2)).expect("promoted backup serves");
    assert!(snap.utilization > 0.0, "replicated state survived");
    assert_eq!(rc.observed_epoch(), 2);
    assert!(rc.stats().fenced >= 1, "stats: {:?}", rc.stats());
    assert_eq!(rc.current_endpoint(), backup_addr);
    old_primary.shutdown();
    backup.shutdown();
}

#[test]
fn snapshot_blob_restarts_at_a_greater_epoch() {
    let (server, addr) = start_ha_server(HaOptions {
        epoch: 3,
        ..HaOptions::default()
    });
    let mut c = ContextClient::connect(addr).expect("connect");
    c.lookup(PathKey(11)).expect("lookup");
    c.report(PathKey(11), summary(4_000_000)).expect("report");
    let blob = server.snapshot_blob();
    drop(c);
    server.shutdown();

    // Operator restart: restore the store from the blob and come back
    // at a strictly greater epoch so the old incarnation is fenced.
    let (restored, old_epoch) = ContextStore::decode_snapshot(&blob).expect("snapshot decodes");
    assert_eq!(old_epoch, 3);
    assert_eq!(restored.traffic_counters(PathKey(11)), (1, 1));
    let revived = ContextServer::start_ha(
        "127.0.0.1:0",
        restored,
        ServerConfig::default(),
        HaOptions {
            epoch: old_epoch + 1,
            ..HaOptions::default()
        },
    )
    .expect("restart");
    let mut c = ContextClient::connect(revived.addr()).expect("connect");
    assert_eq!(c.epoch().expect("epoch"), (4, Role::Primary));
    let snap = c.lookup(PathKey(11)).expect("lookup");
    assert!(snap.utilization > 0.0, "restored state lost");
    revived.shutdown();
}

#[test]
fn backup_fences_batch_frames_too() {
    let (server, addr) = start_ha_server(HaOptions {
        role: Role::Backup,
        ..HaOptions::default()
    });
    let mut c = ContextClient::connect(addr).expect("connect");
    match c.report_batch(&[(PathKey(1), summary(1_000))]) {
        Err(ClientError::Server { code: cd, .. }) => assert_eq!(cd, code::FENCED),
        other => panic!("expected 409 FENCED, got {other:?}"),
    }
    match c.query_batch(&[PathKey(1)]) {
        Err(ClientError::Server { code: cd, .. }) => assert_eq!(cd, code::FENCED),
        other => panic!("expected 409 FENCED, got {other:?}"),
    }
    assert_eq!(server.stats().reports.load(Ordering::Relaxed), 0);
    server.shutdown();
}

/// Per-shard epochs: deposing one shard (via a higher-epoch replica
/// delta for a path it owns) fences exactly that shard's paths; every
/// other shard keeps serving, and the health view turns conservative.
#[test]
fn sharded_server_fences_one_shard_independently() {
    let server = ContextServer::start_sharded(
        "127.0.0.1:0",
        StoreConfig::default(),
        ServerConfig::default(),
        4,
    )
    .expect("bind");
    let mut c = ContextClient::connect(server.addr()).expect("connect");

    let p_hit = PathKey(0);
    let s_hit = shard_index(p_hit, 4);
    let p_other = (1..64)
        .map(PathKey)
        .find(|&p| shard_index(p, 4) != s_hit)
        .expect("a path on another shard");

    c.lookup(p_hit).expect("served before the depose");
    c.lookup(p_other).expect("served before the depose");

    // A newer primary's delta for p_hit deposes only p_hit's shard.
    let reply = c
        .request(&Message::Replicate {
            epoch: 5,
            seq: 1,
            op: ReplOp::Lookup {
                path: p_hit,
                now_ns: 0,
            },
        })
        .expect("replicate");
    assert!(matches!(reply, Message::ReportOk), "got {reply:?}");

    assert_eq!(server.role_of(s_hit), Role::Backup);
    assert_eq!(server.epoch_of(s_hit), 5);
    match c.lookup(p_hit) {
        Err(ClientError::Server { code: cd, .. }) => assert_eq!(cd, code::FENCED),
        other => panic!("deposed shard must fence, got {other:?}"),
    }
    // The other shards never noticed.
    let s_other = shard_index(p_other, 4);
    assert_eq!(server.role_of(s_other), Role::Primary);
    assert_eq!(server.epoch_of(s_other), 1);
    c.lookup(p_other).expect("healthy shard keeps serving");

    // Health probes answer with the conservative whole-server view…
    assert_eq!(c.epoch().expect("epoch"), (1, Role::Backup));
    assert_eq!(server.role(), Role::Backup);
    // …and re-promoting just that shard restores full service.
    assert!(!server.promote_shard(s_hit, 5), "stale epoch must fail");
    assert!(server.promote_shard(s_hit, 6));
    c.lookup(p_hit).expect("served after shard promotion");
    assert_eq!(server.role(), Role::Primary);
    server.shutdown();
}
