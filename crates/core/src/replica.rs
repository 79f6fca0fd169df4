//! One shard's replica of the context plane, without I/O: its store, its
//! fencing epoch and role, and the log a primary streams to its backups.
//! The threaded [`crate::server`] drives one per shard from its sockets,
//! the in-sim [`crate::crash::HaPlane`] two on simulated time. Every move
//! that can raise an epoch asks the one fencing rule, [`Replica::beats`].

use std::collections::VecDeque;

use crate::context::{ContextStore, SnapshotError};
use crate::wire::{code, Message, ReplOp, Role, MAX_SHARD_SNAPSHOT_BLOB};

/// Largest epoch a replica serves at. The wire carries a `u64`; the top
/// bit is kept free so a restart's `epoch + 1` can never overflow. A
/// frame carrying a greater one is answered `400`.
pub(crate) const MAX_EPOCH: u64 = u64::MAX >> 1;

/// Entries a primary keeps before the oldest are dropped; a backup that
/// has fallen further behind than this is resynced with a snapshot.
const MAX_REPL_LOG: usize = 4096;

/// A primary's mutations, numbered consecutively from 1, that some backup
/// has not yet confirmed.
#[derive(Debug, Default)]
struct ReplLog {
    next_seq: u64,
    entries: VecDeque<(u64, ReplOp)>,
}

impl ReplLog {
    fn append(&mut self, op: ReplOp) {
        self.next_seq += 1;
        self.entries.push_back((self.next_seq, op));
        if self.entries.len() > MAX_REPL_LOG {
            self.entries.pop_front();
        }
    }
}

/// One shard's replica: the state, the `(epoch, role)` that fences it,
/// and — while primary — the log its backups are fed from.
#[derive(Debug)]
pub(crate) struct Replica {
    store: ContextStore,
    epoch: u64,
    role: Role,
    log: ReplLog,
}

impl Replica {
    /// A replica serving `store` at `epoch` in `role`.
    pub(crate) fn new(store: ContextStore, epoch: u64, role: Role) -> Self {
        Replica {
            store,
            epoch,
            role,
            log: ReplLog::default(),
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn role(&self) -> Role {
        self.role
    }

    pub(crate) fn store(&self) -> &ContextStore {
        &self.store
    }

    /// The fencing rule, the only place two epochs are compared: may
    /// `(epoch, role)` replace this replica's? A strictly newer epoch
    /// always may. An equal one only keeps a backup a backup (the next
    /// delta of the primary it already follows): promotion at the current
    /// epoch, and a second primary's state at it, both lose.
    pub(crate) fn beats(&self, epoch: u64, role: Role) -> bool {
        let keeps_backup = role == Role::Backup && self.role == Role::Backup;
        epoch <= MAX_EPOCH && (epoch > self.epoch || (epoch == self.epoch && keeps_backup))
    }

    /// Move to `(epoch, role)` iff that beats the current pair.
    fn advance(&mut self, epoch: u64, role: Role) -> bool {
        let won = self.beats(epoch, role);
        if won {
            (self.epoch, self.role) = (epoch, role);
        }
        won
    }

    /// Become primary at `epoch`, which must beat the current one.
    pub(crate) fn promote(&mut self, epoch: u64) -> bool {
        self.advance(epoch, Role::Primary)
    }

    /// Step down to backup iff still primary at `epoch` — the epoch of the
    /// frame a peer refused. A promotion since then is left alone.
    pub(crate) fn demote(&mut self, epoch: u64) -> bool {
        let hit = self.role == Role::Primary && self.epoch == epoch;
        if hit {
            self.role = Role::Backup;
        }
        hit
    }

    /// A peer serves at `epoch`: step down if a primary there would fence
    /// this one (how an idle primary learns of a promotion).
    pub(crate) fn yield_to(&mut self, epoch: u64) {
        if self.beats(epoch, Role::Primary) {
            self.role = Role::Backup;
        }
    }

    /// One `409 FENCED` reply, naming where this replica stands so the
    /// refused peer can tell "I'm stale" from "you're a backup".
    fn fenced(&self, why: &str) -> Message {
        let (epoch, role) = (self.epoch, self.role);
        error(
            code::FENCED,
            format!("{why} (serving epoch {epoch} as {role:?})"),
        )
    }

    /// Answer one request whose paths all route here. Client traffic is
    /// served only by a primary, which logs each mutation as it applies
    /// it, so a backup replaying the log replays the store; replication
    /// is served only past the fence.
    pub(crate) fn serve(&mut self, now_ns: u64, msg: &Message) -> Message {
        match msg {
            Message::Lookup { .. }
            | Message::BatchReport(_)
            | Message::BatchQuery(_)
            | Message::Snapshot { .. }
                if self.role != Role::Primary =>
            {
                self.fenced("client request refused")
            }
            &Message::Lookup { path } => {
                let snap = self.store.lookup(path, now_ns);
                self.log.append(ReplOp::Lookup { path, now_ns });
                Message::Context(snap)
            }
            Message::BatchReport(items) => {
                for &(path, summary) in items {
                    self.store.report(path, now_ns, &summary);
                    self.log.append(ReplOp::Report {
                        path,
                        now_ns,
                        summary,
                    });
                }
                Message::ReportOk
            }
            // Peeks never register competing flows, so nothing is logged.
            Message::BatchQuery(paths) => {
                Message::BatchReply(paths.iter().map(|&p| self.store.peek(p, now_ns)).collect())
            }
            &Message::Snapshot { limit } => {
                let mut paths = self.store.snapshot(now_ns);
                paths.truncate(usize::from(limit));
                Message::Paths(paths)
            }
            &(Message::Replicate { epoch, .. } | Message::ShardSnapshotSync { epoch, .. })
                if epoch > MAX_EPOCH =>
            {
                let why = format!("epoch {epoch} exceeds the largest fencing token {MAX_EPOCH}");
                error(code::BAD_REQUEST, why)
            }
            // A (possibly newer) primary's delta: adopt its epoch, stay or
            // become backup, apply. A deposed primary's is fenced, and so
            // is one at the epoch this replica is itself primary at; the
            // sender deposes itself on that reply.
            Message::Replicate { epoch, op, .. } => {
                if !self.advance(*epoch, Role::Backup) {
                    return self.fenced("replication from a stale epoch");
                }
                match *op {
                    ReplOp::Lookup { path, now_ns } => {
                        self.store.lookup(path, now_ns);
                    }
                    ReplOp::Report {
                        path,
                        now_ns,
                        ref summary,
                    } => self.store.report(path, now_ns, summary),
                }
                Message::ReportOk
            }
            // The fence is asked before the blob is decoded, so a stale
            // peer hears `409` whatever it sent.
            Message::ShardSnapshotSync { epoch, blob, .. } => {
                if !self.beats(*epoch, Role::Backup) {
                    return self.fenced("snapshot sync from a stale epoch");
                }
                match ContextStore::decode_snapshot(blob) {
                    Ok((restored, _blob_epoch)) => {
                        self.advance(*epoch, Role::Backup);
                        self.store = restored;
                        Message::ReportOk
                    }
                    Err(SnapshotError::UnsupportedVersion(v)) => error(
                        code::UNSUPPORTED,
                        format!("snapshot version {v} not supported"),
                    ),
                    Err(e) => error(code::BAD_REQUEST, format!("bad snapshot blob: {e}")),
                }
            }
            other => error(code::BAD_REQUEST, format!("unexpected message: {other:?}")),
        }
    }

    /// The next frame a backup that has confirmed this replica's log up
    /// to `acked` needs, and the log position its acknowledgement will
    /// stand for: the next delta, nothing when it is level, or — without
    /// a baseline, or behind the log — a snapshot of shard `shard` as of
    /// the newest entry. `Err(len)` when that snapshot would be `len`
    /// bytes, more than one frame carries: sending it would only teach the
    /// backup to answer `400`.
    pub(crate) fn next_frame(
        &self,
        shard: u32,
        acked: Option<u64>,
    ) -> Result<Option<(Message, u64)>, usize> {
        if let Some(acked) = acked {
            if acked == self.log.next_seq {
                return Ok(None);
            }
            // Sequence numbers are consecutive, so the delta after
            // `acked` is found by position.
            let oldest = self.log.entries.front().map_or(0, |&(seq, _)| seq);
            let at = (acked + 1).checked_sub(oldest);
            if let Some((seq, op)) = at.and_then(|at| self.log.entries.get(at as usize)) {
                let (epoch, seq, op) = (self.epoch, *seq, op.clone());
                return Ok(Some((Message::Replicate { epoch, seq, op }, seq)));
            }
        }
        let blob = self.store.encode_snapshot(self.epoch);
        if blob.len() > MAX_SHARD_SNAPSHOT_BLOB {
            return Err(blob.len());
        }
        let epoch = self.epoch;
        let sync = Message::ShardSnapshotSync { shard, epoch, blob };
        Ok(Some((sync, self.log.next_seq)))
    }

    /// Drop the entries every backup has confirmed.
    pub(crate) fn prune(&mut self, acked: u64) {
        let entries = &mut self.log.entries;
        while entries.front().is_some_and(|&(seq, _)| seq <= acked) {
            entries.pop_front();
        }
    }

    /// Mutations this replica applied that a backup at `acked` has not.
    pub(crate) fn unacked(&self, acked: Option<u64>) -> u64 {
        self.log.next_seq - acked.unwrap_or(0)
    }
}

/// An error frame.
pub(crate) fn error(code: u16, message: String) -> Message {
    Message::Error { code, message }
}

#[cfg(test)]
mod tests;
