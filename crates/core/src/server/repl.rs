//! The primary's side of replication. What to send next is the replica's
//! answer (`Replica::next_frame`); this thread owns only the sockets, the
//! heartbeats and each link's baselines.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::client::acked;
use super::{ClientConfig, ClientError, ContextClient, ServerStats, Shard};
use crate::wire::{code, Role};

/// State of one primary → backup replication link.
struct BackupLink {
    addr: SocketAddr,
    conn: Option<ContextClient>,
    /// Per shard, the epoch and log position this backup has
    /// acknowledged. `None` until that shard's snapshot sync establishes
    /// a baseline; a baseline from another epoch is no baseline (a shard
    /// promoted again starts every link with a resync).
    acked: Vec<Option<(u64, u64)>>,
}

/// The log position an `acked` entry stands for at `epoch`.
fn baseline(acked: Option<(u64, u64)>, epoch: u64) -> Option<u64> {
    acked.filter(|&(e, _)| e == epoch).map(|(_, seq)| seq)
}

/// Keep every backup within one snapshot plus a tail of deltas of every
/// shard, until shutdown. A backup's `409 FENCED` reply (or a heartbeat
/// revealing a newer epoch) deposes the affected shard alone. State syncs
/// shard by shard, so a backup must be sharded identically: the delta
/// stream routes by path.
pub(super) fn replicate_to_backups(
    backups: &[SocketAddr],
    client_cfg: ClientConfig,
    shards: Arc<Vec<Shard>>,
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
        if shards.iter().all(|s| s.lock().role() != Role::Primary) {
            // Deposed (or started as a backup) on every shard: nothing to
            // stream. Stay alive — a later `promote()` resumes.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        'links: for link in &mut links {
            if link.conn.is_none() {
                link.conn = ContextClient::connect_with(link.addr, client_cfg).ok();
                link.acked = vec![None; n]; // new connection: new baseline
            }
            let Some(conn) = link.conn.as_mut() else {
                continue;
            };

            let mut sent_any = false;
            for (s, shard) in shards.iter().enumerate() {
                loop {
                    // The frame is built under the shard's lock and sent
                    // without it.
                    let (epoch, frame) = {
                        let r = shard.lock();
                        if r.role() != Role::Primary {
                            break;
                        }
                        let epoch = r.epoch();
                        (
                            epoch,
                            r.next_frame(s as u32, baseline(link.acked[s], epoch)),
                        )
                    };
                    let (msg, seq) = match frame {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        // One frame cannot carry this shard's snapshot:
                        // skip it on this link rather than ship a cut blob.
                        Err(_) => {
                            stats.repl_oversized.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    };
                    match conn.ask(&msg, acked) {
                        Ok(()) => {
                            stats.repl_sent.fetch_add(1, Ordering::Relaxed);
                            link.acked[s] = Some((epoch, seq));
                            sent_any = true;
                        }
                        Err(ClientError::Server { code: c, .. }) if c == code::FENCED => {
                            shard.lock().demote(epoch);
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
            // any primary shard it fences has certainly been superseded.
            if !sent_any {
                match conn.epoch() {
                    Ok((theirs, _)) => {
                        for shard in shards.iter() {
                            shard.lock().yield_to(theirs);
                        }
                    }
                    Err(ClientError::Server { .. }) => {}
                    Err(_) => link.conn = None,
                }
            }
        }

        // Entries every backup has confirmed at the shard's epoch are
        // dead weight.
        for (s, shard) in shards.iter().enumerate() {
            let mut r = shard.lock();
            let epoch = r.epoch();
            if let Some(seq) = links
                .iter()
                .map(|l| baseline(l.acked[s], epoch))
                .min()
                .flatten()
            {
                r.prune(seq);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
