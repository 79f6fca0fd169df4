use std::collections::HashMap;

use proptest::prelude::*;

use super::*;
use crate::context::{FlowSummary, PathKey, StoreConfig};

fn replica(epoch: u64, role: Role) -> Replica {
    Replica::new(ContextStore::new(StoreConfig::default()), epoch, role)
}

fn at(r: &Replica) -> (u64, Role) {
    (r.epoch(), r.role())
}

fn delta(epoch: u64) -> Message {
    let op = ReplOp::Lookup {
        path: PathKey(1),
        now_ns: 0,
    };
    Message::Replicate { epoch, seq: 1, op }
}

fn sync(epoch: u64) -> Message {
    let blob = ContextStore::new(StoreConfig::default()).encode_snapshot(epoch);
    Message::ShardSnapshotSync {
        shard: 0,
        epoch,
        blob,
    }
}

fn code_of(reply: &Message) -> Option<u16> {
    match reply {
        Message::Error { code, .. } => Some(*code),
        _ => None,
    }
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

/// The fencing rule in the orderings that used to go wrong when every
/// writer was check-then-store.
#[test]
fn fencing_word_only_moves_forward() {
    // A sync at 3 lands; a promotion decided at epoch 1 arrives late.
    let mut r = replica(1, Role::Primary);
    assert_eq!(r.serve(0, &sync(3)), Message::ReportOk);
    assert!(!r.promote(2), "promote(2) after a sync at 3");
    assert!(!r.promote(3), "promotion needs a newer epoch");
    assert_eq!(
        r.serve(0, &delta(3)),
        Message::ReportOk,
        "the followed primary's next delta"
    );
    assert_eq!(at(&r), (3, Role::Backup));

    // The replication thread read epoch 1, the operator promoted to 6,
    // then the thread's fenced reply arrives: nothing to step down from.
    let mut r = replica(1, Role::Primary);
    assert!(r.promote(6));
    assert!(!r.demote(1), "demote-at-1 after promote(6)");
    assert_eq!(at(&r), (6, Role::Primary));
    assert!(r.demote(6));
    assert!(!r.demote(6), "already a backup");
    assert_eq!(at(&r), (6, Role::Backup));

    // Two primaries at one epoch: the second one's state is fenced.
    let mut r = replica(4, Role::Primary);
    assert!(!r.beats(4, Role::Backup));
    assert_eq!(code_of(&r.serve(0, &sync(4))), Some(code::FENCED));
    assert_eq!(code_of(&r.serve(0, &delta(4))), Some(code::FENCED));
    assert_eq!(
        code_of(&r.serve(0, &delta(3))),
        Some(code::FENCED),
        "a deposed primary's delta"
    );
    assert_eq!(at(&r), (4, Role::Primary));

    // A heartbeat at the primary's own epoch is its follower; a newer one
    // is its successor.
    r.yield_to(4);
    assert_eq!(at(&r), (4, Role::Primary));
    r.yield_to(5);
    assert_eq!(at(&r), (4, Role::Backup));

    // MAX_EPOCH bounds the rule, and a frame past it is a bad request.
    assert!(!r.promote(MAX_EPOCH + 1));
    assert_eq!(
        code_of(&r.serve(0, &delta(MAX_EPOCH + 1))),
        Some(code::BAD_REQUEST)
    );
    assert_eq!(r.serve(0, &sync(MAX_EPOCH)), Message::ReportOk);
    assert_eq!(at(&r), (MAX_EPOCH, Role::Backup));
}

#[test]
fn a_backup_far_behind_is_handed_each_delta_in_turn() {
    // Lookups over a few paths: a long log, a small snapshot.
    let append = |r: &mut Replica, n: u64| {
        for k in 0..n {
            r.serve(
                k,
                &Message::Lookup {
                    path: PathKey(k % 8),
                },
            );
        }
    };
    let mut r = replica(3, Role::Primary);
    append(&mut r, 4_000);
    // What the backup is handed after acknowledging `acked`: the frame's
    // kind, and the position its next acknowledgement stands for.
    let handed = |r: &Replica, acked| match r.next_frame(0, acked) {
        Ok(Some((Message::Replicate { epoch: 3, seq, .. }, pos))) if seq == pos => {
            Some(("delta", pos))
        }
        Ok(Some((Message::ShardSnapshotSync { epoch: 3, .. }, pos))) => Some(("snapshot", pos)),
        Ok(None) => None,
        other => panic!("unexpected frame {other:?}"),
    };

    // 4 000 behind, nothing pruned: one delta per step, in order.
    for acked in 0..4_000 {
        assert_eq!(handed(&r, Some(acked)), Some(("delta", acked + 1)));
    }
    assert_eq!(handed(&r, Some(4_000)), None, "caught up: nothing to send");
    assert_eq!(
        handed(&r, None),
        Some(("snapshot", 4_000)),
        "no baseline yet"
    );

    // The log holds its newest 4 096 entries, so 1 000 more drop 1..=904
    // and the deltas no longer sit at their sequence numbers.
    append(&mut r, 1_000);
    for acked in [904, 905, 3_999, 4_998, 4_999] {
        assert_eq!(handed(&r, Some(acked)), Some(("delta", acked + 1)));
    }
    assert_eq!(handed(&r, Some(5_000)), None);
    assert_eq!(
        handed(&r, Some(903)),
        Some(("snapshot", 5_000)),
        "behind the log"
    );

    // Confirmed entries go; what is left is still handed out in turn.
    r.prune(4_998);
    assert_eq!(handed(&r, Some(4_998)), Some(("delta", 4_999)));
    assert_eq!(handed(&r, Some(4_000)), Some(("snapshot", 5_000)));
}

/// A shard whose snapshot does not fit one frame is refused by
/// `next_frame`, never cut to size, while its deltas still flow.
#[test]
fn a_snapshot_larger_than_a_frame_is_refused_not_cut() {
    let mut r = replica(1, Role::Primary);
    let items: Vec<_> = (0..3_000)
        .map(|i| (PathKey(7), summary(1_000 + i)))
        .collect();
    r.serve(1, &Message::BatchReport(items));
    match r.next_frame(0, None) {
        Err(len) => assert!(len > MAX_SHARD_SNAPSHOT_BLOB, "{len} bytes"),
        Ok(frame) => panic!("expected an oversized refusal, got {frame:?}"),
    }
    assert!(matches!(
        r.next_frame(0, Some(0)),
        Ok(Some((Message::Replicate { seq: 1, .. }, 1)))
    ));
}

// -- the interleaving explorer ---------------------------------------------
//
// Two or three replicas, driven the way the server drives them, over a
// seeded network. Links are connections: a primary sends one frame to
// a peer and waits for its reply before the next, as the replication
// thread does, and a frame on a connection arrives at most once, in
// order, or not at all. What the seed decides is everything else:
//
// * delay and reorder: which in-flight frame (of any link) lands next;
// * drop: a request or reply is lost, and the connection with it — the
//   sender reconnects and starts that peer over with a snapshot;
// * duplicate: a request lands but its reply is lost, so the receiver is
//   handed the same mutations again inside that snapshot;
// * client traffic at any replica; operator promotions at a replica's
//   own epoch, the one below it, or a fresh one (an operator who reuses
//   an epoch another replica holds is outside what a fence can catch);
//   self-demotions; crash and restart (a replica comes back empty, a
//   backup at the epoch it died at); and a stale peer's snapshot sync
//   (older epoch, or a second primary's).
//
// After every step: no replica's epoch has fallen; no two replicas are
// primary at one epoch, and no epoch has had client traffic accepted by
// two replicas; and every frame a backup acknowledged left it holding
// exactly the store its sender held at that log position.

/// Steps per case.
const STEPS: usize = 600;

/// A frame on the wire, on the connection of link `(from, to)` — a reply
/// travels back on the connection its request went out on.
struct Flight {
    from: usize,
    to: usize,
    conn: u64,
    msg: Message,
    /// For a request: the sender's epoch and log position, and the store
    /// it held at that position. `None` for a reply or a heartbeat.
    sent: Option<(u64, u64, ContextStore)>,
    reply: bool,
}

struct Node {
    replica: Replica,
    up: bool,
    incarnation: u64,
    /// Per peer: `(epoch, seq)` the peer has confirmed of this log.
    acked: Vec<Option<(u64, u64)>>,
    /// Per peer: a request out, its reply not yet back.
    waiting: Vec<bool>,
}

struct World {
    nodes: Vec<Node>,
    /// Connection generation per link `(sender, receiver)`.
    conn: Vec<Vec<u64>>,
    flights: Vec<Flight>,
    /// What each primary's store was at each log position:
    /// `(node, incarnation, epoch, seq)`.
    history: HashMap<(usize, u64, u64, u64), ContextStore>,
    /// Who accepted client traffic at each epoch.
    served_at: HashMap<u64, usize>,
    /// Highest epoch each node ever showed.
    seen: Vec<u64>,
    now: u64,
}

impl World {
    fn new(n: usize) -> Self {
        let nodes: Vec<Node> = (0..n)
            .map(|i| Node {
                replica: replica(1, if i == 0 { Role::Primary } else { Role::Backup }),
                up: true,
                incarnation: 0,
                acked: vec![None; n],
                waiting: vec![false; n],
            })
            .collect();
        let mut history = HashMap::new();
        history.insert((0, 0, 1, 0), nodes[0].replica.store().clone());
        World {
            nodes,
            conn: vec![vec![0; n]; n],
            flights: Vec::new(),
            history,
            served_at: HashMap::new(),
            seen: vec![1; n],
            now: 0,
        }
    }

    /// Break link `(from, to)`: what it carried is lost, and the sender
    /// starts the peer over on its next connection.
    fn break_link(&mut self, from: usize, to: usize) {
        self.conn[from][to] += 1;
        self.nodes[from].waiting[to] = false;
        self.nodes[from].acked[to] = None;
    }

    fn client(&mut self, i: usize, path: u64) {
        let msg = if path.is_multiple_of(3) {
            Message::Lookup {
                path: PathKey(path),
            }
        } else {
            Message::BatchReport(vec![(PathKey(path), summary(path * 1_000))])
        };
        let node = &mut self.nodes[i];
        if !node.up {
            return;
        }
        let reply = node.replica.serve(self.now, &msg);
        if code_of(&reply).is_none() {
            let r = &node.replica;
            let key = (i, node.incarnation, r.epoch(), r.unacked(None));
            self.history.insert(key, r.store().clone());
            self.served_at.entry(r.epoch()).or_insert(i);
        }
    }

    /// Node `i`, if primary, sends every idle link its next frame — or a
    /// heartbeat when the peer is level.
    fn drive(&mut self, i: usize) -> Result<(), String> {
        for j in 0..self.nodes.len() {
            let node = &self.nodes[i];
            if j == i || !node.up || !self.nodes[j].up || node.waiting[j] {
                continue;
            }
            let r = &node.replica;
            if r.role() != Role::Primary {
                return Ok(());
            }
            let epoch = r.epoch();
            let baseline = node.acked[j].filter(|&(e, _)| e == epoch).map(|(_, s)| s);
            let (msg, sent) = match r.next_frame(0, baseline) {
                Ok(Some((msg @ Message::ShardSnapshotSync { .. }, seq))) => {
                    (msg, Some((epoch, seq, r.store().clone())))
                }
                Ok(Some((msg, seq))) => {
                    let key = (i, node.incarnation, epoch, seq);
                    let Some(store) = self.history.get(&key) else {
                        return Err(format!("no history for delta {key:?}"));
                    };
                    (msg, Some((epoch, seq, store.clone())))
                }
                Ok(None) => (Message::EpochQuery, None),
                Err(len) => return Err(format!("a {len}-byte snapshot in the explorer")),
            };
            self.nodes[i].waiting[j] = true;
            self.flights.push(Flight {
                from: i,
                to: j,
                conn: self.conn[i][j],
                msg,
                sent,
                reply: false,
            });
        }
        Ok(())
    }

    /// Land flight `k`; `lose_reply` drops what it answers.
    fn deliver(&mut self, k: usize, lose_reply: bool) -> Result<(), String> {
        let f = self.flights.swap_remove(k);
        if f.conn != self.conn[f.from][f.to] {
            return Ok(()); // its connection is gone
        }
        if f.reply {
            self.answer(f);
            return Ok(());
        }
        let to = &mut self.nodes[f.to];
        let reply = match &f.msg {
            Message::EpochQuery => Message::Epoch {
                epoch: to.replica.epoch(),
                role: to.replica.role(),
            },
            msg => to.replica.serve(self.now, msg),
        };
        if let (Message::ReportOk, Some((_, seq, want))) = (&reply, &f.sent) {
            if to.replica.store() != want {
                return Err(format!(
                    "node {} acked {seq} of node {} holding another store",
                    f.to, f.from
                ));
            }
        }
        if lose_reply {
            self.break_link(f.from, f.to);
            return Ok(());
        }
        self.flights.push(Flight {
            msg: reply,
            reply: true,
            ..f
        });
        Ok(())
    }

    /// The primary's side of a reply, as the replication thread reads it.
    fn answer(&mut self, f: Flight) {
        let node = &mut self.nodes[f.from];
        node.waiting[f.to] = false;
        match (&f.msg, f.sent) {
            (Message::ReportOk, Some((epoch, seq, _))) => node.acked[f.to] = Some((epoch, seq)),
            (Message::Error { code: c, .. }, Some((epoch, ..))) if *c == code::FENCED => {
                node.replica.demote(epoch);
            }
            (&Message::Epoch { epoch, .. }, None) => node.replica.yield_to(epoch),
            _ => self.break_link(f.from, f.to),
        }
    }

    fn crash(&mut self, i: usize) {
        self.nodes[i].up = false;
        for j in 0..self.nodes.len() {
            self.break_link(i, j);
            self.break_link(j, i);
        }
    }

    fn restart(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        node.replica = replica(node.replica.epoch(), Role::Backup);
        node.up = true;
        node.incarnation += 1;
    }

    /// A peer that missed a promotion (or is a second primary at one
    /// epoch) offers its state: every such sync must be fenced.
    fn stale_sync(&mut self, from: usize, to: usize) -> Result<(), String> {
        let (src, dst) = (&self.nodes[from].replica, &self.nodes[to].replica);
        let stale = src.epoch() < dst.epoch()
            || (src.epoch() == dst.epoch() && dst.role() == Role::Primary);
        if from == to || !stale || !self.nodes[to].up {
            return Ok(());
        }
        let (epoch, blob) = (src.epoch(), src.store().encode_snapshot(src.epoch()));
        let msg = Message::ShardSnapshotSync {
            shard: 0,
            epoch,
            blob,
        };
        match self.nodes[to].replica.serve(self.now, &msg) {
            reply if code_of(&reply) == Some(code::FENCED) => Ok(()),
            reply => Err(format!("stale sync at {epoch} to node {to}: {reply:?}")),
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let mut primaries: HashMap<u64, usize> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let (epoch, role) = at(&node.replica);
            if epoch < self.seen[i] {
                return Err(format!("node {i}'s epoch fell {} -> {epoch}", self.seen[i]));
            }
            self.seen[i] = epoch;
            if node.up && role == Role::Primary {
                if let Some(other) = primaries.insert(epoch, i) {
                    return Err(format!("nodes {other} and {i} both primary at {epoch}"));
                }
            }
            if let Some(&other) = self.served_at.get(&epoch) {
                if node.up && role == Role::Primary && other != i {
                    return Err(format!("epoch {epoch} served by nodes {other} and {i}"));
                }
            }
        }
        Ok(())
    }
}

fn explore(seed: u64, n: usize) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let mut w = World::new(n);
    for step in 0..STEPS {
        w.now += 1 + rng.below(1_000_000);
        let i = rng.below(n as u64) as usize;
        let flights = w.flights.len() as u64;
        let outcome = match rng.below(200) {
            // Most clients have found a primary; some ask anyone.
            0..=34 => {
                let up_primary = |j: &usize| {
                    let node = &w.nodes[*j];
                    node.up && node.replica.role() == Role::Primary
                };
                let to = (0..n).find(up_primary).unwrap_or(i);
                w.client(to, rng.below(6));
                Ok(())
            }
            35..=49 => {
                w.client(i, rng.below(6));
                Ok(())
            }
            50..=99 => (0..n).try_for_each(|i| w.drive(i)),
            100..=149 if flights > 0 => w.deliver(rng.below(flights) as usize, false),
            150..=155 if flights > 0 => {
                let f = w.flights.swap_remove(rng.below(flights) as usize);
                w.break_link(f.from, f.to);
                Ok(())
            }
            156..=161 if flights > 0 => w.deliver(rng.below(flights) as usize, true),
            162..=167 if w.nodes[i].up => {
                let r = &mut w.nodes[i].replica;
                let top = w.seen.iter().copied().max().unwrap_or(1);
                let epoch = match rng.below(4) {
                    0 => r.epoch() - 1,
                    1 => r.epoch(),
                    k => top + k - 1,
                };
                r.promote(epoch);
                Ok(())
            }
            168..=175 => {
                let epoch = w.nodes[i].replica.epoch();
                w.nodes[i].replica.demote(epoch);
                Ok(())
            }
            176..=179 if w.nodes[i].up => {
                w.crash(i);
                Ok(())
            }
            180..=191 if !w.nodes[i].up => {
                w.restart(i);
                Ok(())
            }
            192.. => w.stale_sync(rng.below(n as u64) as usize, i),
            _ => Ok(()),
        };
        outcome
            .and_then(|()| w.check())
            .map_err(|e| format!("step {step}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn explore_interleavings(seed in any::<u64>(), n in 2usize..4) {
        let verdict = explore(seed, n);
        prop_assert!(verdict.is_ok(), "{} replicas, seed {seed:#x}: {}", n, verdict.unwrap_err());
    }
}
