//! The primary's side of replication: the per-shard log of mutations and
//! the thread that keeps every backup within one snapshot plus a tail of
//! deltas of it.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::client::acked;
use super::{ClientConfig, ClientError, ContextClient, ServerStats, ShardState};
use crate::wire::{code, Message, ReplOp, Role};

/// Entries the replication thread has not yet confirmed on every backup.
/// Appends happen *while the handler holds the store write lock*, so a
/// snapshot taken under the store read lock together with this lock is
/// consistent with a log position (`next_seq - 1`).
#[derive(Debug, Default)]
pub(super) struct ReplLog {
    next_seq: u64,
    pub(super) entries: VecDeque<(u64, ReplOp)>,
}

/// Entries kept before the oldest are dropped; a backup that has fallen
/// further behind than this is resynced with a full snapshot.
const MAX_REPL_LOG: usize = 4096;

impl ReplLog {
    pub(super) fn append(&mut self, op: ReplOp) {
        self.next_seq += 1;
        self.entries.push_back((self.next_seq, op));
        while self.entries.len() > MAX_REPL_LOG {
            self.entries.pop_front();
        }
    }

    /// Drop entries every synced backup has acknowledged.
    fn prune(&mut self, acked: u64) {
        while self.entries.front().is_some_and(|&(seq, _)| seq <= acked) {
            self.entries.pop_front();
        }
    }
}

/// State of one primary → backup replication link.
struct BackupLink {
    addr: SocketAddr,
    conn: Option<ContextClient>,
    /// Highest log seq this backup has acknowledged, per shard. `None`
    /// until that shard's full snapshot sync establishes a baseline.
    acked: Vec<Option<u64>>,
}

/// The primary's replication loop: keep every backup within one snapshot
/// plus a tail of deltas of every shard's live store. Runs until
/// shutdown; a backup's `409 FENCED` reply (or a heartbeat revealing a
/// newer epoch) deposes the affected shard — role := backup, so that
/// shard can never again feed clients stale context — while the other
/// shards keep replicating.
///
/// State syncs shard by shard (SHARD_SNAPSHOT_SYNC; a one-shard server is
/// shard 0), which requires the backup to be sharded identically — the
/// delta stream routes by path, so shard counts must agree end to end.
pub(super) fn replicate_to_backups(
    backups: &[SocketAddr],
    client_cfg: ClientConfig,
    shards: Arc<Vec<ShardState>>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
) {
    let n = shards.len();
    let mut links: Vec<BackupLink> = backups
        .iter()
        .map(|&addr| BackupLink {
            addr,
            conn: None,
            acked: vec![None; n],
        })
        .collect();

    while !shutdown.load(Ordering::Acquire) {
        if shards.iter().all(|s| s.ha.role() != Role::Primary) {
            // Deposed (or started as a backup) on every shard: nothing to
            // stream. Stay alive — a later `promote()` resumes.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        // Shards deposed during this pass; their baselines are cleared on
        // *every* link so a re-promotion starts with full resyncs.
        let mut deposed: Vec<usize> = Vec::new();
        'links: for link in &mut links {
            if link.conn.is_none() {
                link.conn = ContextClient::connect_with(link.addr, client_cfg).ok();
                link.acked = vec![None; n]; // new connection: new baseline
            }
            let Some(conn) = link.conn.as_mut() else {
                continue;
            };

            let mut sent_any = false;
            for (s, sh) in shards.iter().enumerate() {
                let (epoch, role) = sh.ha.get();
                if role != Role::Primary || deposed.contains(&s) {
                    continue;
                }
                while let Some((msg, seq)) = next_frame(sh, s as u32, epoch, link.acked[s]) {
                    match conn.ask(&msg, acked) {
                        Ok(()) => {
                            stats.repl_sent.fetch_add(1, Ordering::Relaxed);
                            link.acked[s] = Some(seq);
                            sent_any = true;
                        }
                        Err(ClientError::Server { code: c, .. }) if c == code::FENCED => {
                            sh.ha.demote(epoch);
                            deposed.push(s);
                            break;
                        }
                        // Anything else: the link is no good; the next
                        // pass reconnects and resyncs.
                        Err(_) => {
                            link.conn = None;
                            continue 'links;
                        }
                    }
                }
            }

            // Idle heartbeat: an EpochQuery reveals a promoted backup
            // even when no client traffic is generating deltas. The reply
            // carries the backup's most conservative (lowest) epoch, so
            // any primary shard below it has certainly been superseded.
            if !sent_any {
                match conn.epoch() {
                    Ok((theirs, _)) => {
                        for (s, sh) in shards.iter().enumerate() {
                            let (epoch, role) = sh.ha.get();
                            if role == Role::Primary && theirs > epoch && !deposed.contains(&s) {
                                sh.ha.demote(epoch);
                                deposed.push(s);
                            }
                        }
                    }
                    Err(ClientError::Server { .. }) => {}
                    Err(_) => link.conn = None,
                }
            }
        }

        for &s in &deposed {
            for link in &mut links {
                link.acked[s] = None;
            }
        }

        // Entries every live backup has confirmed are dead weight.
        for (s, sh) in shards.iter().enumerate() {
            if links.iter().all(|l| l.acked[s].is_some()) {
                if let Some(min_acked) = links.iter().filter_map(|l| l.acked[s]).min() {
                    sh.log.lock().prune(min_acked);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The next frame a backup that has acknowledged shard `shard` up to
/// `acked` needs, and the log position its acknowledgement will stand
/// for. A backup with no baseline — or one that fell behind the pruned
/// log — gets a full snapshot consistent with a log position: both locks
/// held while reading (the store read lock blocks mutators, which append
/// under the write lock). Otherwise the next delta, if there is one.
pub(super) fn next_frame(
    sh: &ShardState,
    shard: u32,
    epoch: u64,
    acked: Option<u64>,
) -> Option<(Message, u64)> {
    {
        let log = sh.log.lock();
        let oldest = log.entries.front().map(|&(seq, _)| seq);
        if let Some(acked) = acked.filter(|acked| oldest.is_none_or(|oldest| oldest <= acked + 1)) {
            // Sequence numbers are consecutive, so the delta after `acked`
            // is found by position: this lock is the one every report
            // takes, and a search under it is up to `MAX_REPL_LOG` long.
            let at = acked + 1 - oldest?;
            let (seq, op) = log.entries.get(at as usize)?.clone();
            return Some((Message::Replicate { epoch, seq, op }, seq));
        }
    }
    let st = sh.store.read();
    let log = sh.log.lock();
    let blob = st.encode_snapshot(epoch);
    let sync = Message::ShardSnapshotSync { shard, epoch, blob };
    Some((sync, log.next_seq))
}
