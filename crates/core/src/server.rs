//! A real context server over TCP, and its blocking clients.
//!
//! The in-simulation hooks talk to a [`crate::context::ContextStore`]
//! directly; a production Phi deployment runs one (or a few) context
//! servers per domain. [`ContextServer`] is that service: a threaded TCP
//! server speaking the [`crate::wire`] protocol over a store shared with
//! `parking_lot::RwLock`. It is deliberately runtime-agnostic (std::net +
//! threads): the request rate is one lookup + one report per *connection*
//! of the data plane, so a handful of OS threads is ample, and the library
//! stays free of any async-runtime dependency.
//!
//! Lifecycle: [`ContextServer::start`] binds and serves;
//! [`ContextServer::shutdown`] stops accepting, unblocks handlers via read
//! timeouts, and joins every thread.
//!
//! ## Failure model (the §2.2.2 resilience contract)
//!
//! The paper's practical design *assumes* the context plane can be stale
//! or unavailable: a sender must behave no worse than vanilla TCP when the
//! server is slow, flapping, or gone. The client side therefore enforces
//! three rules:
//!
//! 1. **Deadline** — every [`ContextClient`] call returns within its
//!    configured [`ClientConfig::request_deadline`] (reads *and* writes
//!    are bounded), failing with [`ClientError::Deadline`] rather than
//!    blocking the sender.
//! 2. **Poisoning** — any mid-request I/O or framing failure leaves the
//!    connection in an unknown state (the request may already be on the
//!    wire, its reply still in flight), so the connection is *poisoned*:
//!    every later call fails fast with [`ClientError::Poisoned`] instead
//!    of pairing a stale reply with a fresh request. Reconnect to recover.
//! 3. **Degradation** — [`ResilientClient`] wraps reconnection with
//!    bounded retries, exponential backoff with deterministic jitter, and
//!    a circuit breaker; on any exhausted failure it returns "no context"
//!    (`None`) so the caller falls back to default behaviour.
//!
//! The server sheds load instead of queueing it: past
//! [`ServerConfig::max_connections`] concurrent connections, a new
//! connection is answered with one `ERROR 503` (overload) frame and
//! closed, and [`ServerStats::rejected`] counts the shed connections.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use phi_tcp::hook::ContextSnapshot;

use crate::context::{ContextStore, FlowSummary, PathKey, SnapshotError, StoreConfig};
use crate::shard::shard_index;
use crate::wire::{code, encode, DecodeError, Decoder, Message, ReplOp, Role, MAX_BATCH_ITEMS};

/// A thread-safe context store handle, shared by server handlers and any
/// in-process instrumentation.
pub type SyncStore = Arc<RwLock<ContextStore>>;

/// Wrap a store for cross-thread sharing.
pub fn sync_store(store: ContextStore) -> SyncStore {
    Arc::new(RwLock::new(store))
}

/// Server-side counters, readable while running.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections: AtomicU64,
    /// Connections shed with an overload error frame (cap reached).
    pub rejected: AtomicU64,
    /// Lookup requests served (a batch query adds one per path).
    pub lookups: AtomicU64,
    /// Reports accepted (a batch report adds one per item).
    pub reports: AtomicU64,
    /// Protocol errors answered.
    pub protocol_errors: AtomicU64,
    /// Requests rejected with `409 FENCED` (stale epoch or not primary).
    pub fenced: AtomicU64,
    /// Replicated ops applied (as a backup).
    pub repl_applied: AtomicU64,
    /// Full snapshot syncs accepted (as a backup).
    pub repl_syncs: AtomicU64,
    /// Deltas + snapshots this server shipped to backups (as a primary).
    pub repl_sent: AtomicU64,
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections served before new ones are shed with an
    /// overload frame. Bounds handler threads and protects the store.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
        }
    }
}

/// High-availability settings for [`ContextServer::start_ha`]. Kept out
/// of [`ServerConfig`] so plain single-server deployments are untouched.
#[derive(Debug, Clone)]
pub struct HaOptions {
    /// Fencing token this server starts at. A restarted server must pass
    /// an epoch strictly greater than the one it crashed at (restore it
    /// from the snapshot blob and add one).
    pub epoch: u64,
    /// Role at startup. A [`Role::Backup`] fences every client request
    /// until promoted or until a higher-epoch primary syncs it.
    pub role: Role,
    /// Backup servers a primary streams deltas to. Empty = no replication.
    pub backups: Vec<SocketAddr>,
    /// Timeouts for the replication client connections.
    pub repl_client: ClientConfig,
}

impl Default for HaOptions {
    fn default() -> Self {
        HaOptions {
            epoch: 1,
            role: Role::Primary,
            backups: Vec::new(),
            repl_client: ClientConfig::default(),
        }
    }
}

/// Largest epoch the fencing word can hold (the role takes its low bit).
/// A frame carrying a greater one is refused at the wire boundary.
const MAX_EPOCH: u64 = u64::MAX >> 1;

/// Epoch + role in one atomic word (`epoch << 1 | is_primary`), shared
/// between the accept loop, every handler, and the replication thread.
/// The epoch is the *fencing token*: all mutating traffic (client requests
/// on a primary, replication on a backup) carries it, and the lower side
/// always loses. Writers never store: they go through the two
/// compare-and-swap rules below, so whatever interleaving of promotions,
/// syncs and self-deposals happens, the epoch a reader sees never falls.
#[derive(Debug)]
struct HaShared(AtomicU64);

impl HaShared {
    fn new(epoch: u64, role: Role) -> Self {
        HaShared(AtomicU64::new(Self::pack(epoch, role)))
    }

    fn pack(epoch: u64, role: Role) -> u64 {
        epoch << 1 | u64::from(role == Role::Primary)
    }

    fn unpack(word: u64) -> (u64, Role) {
        let role = if word & 1 == 1 {
            Role::Primary
        } else {
            Role::Backup
        };
        (word >> 1, role)
    }

    /// Epoch and role, read together.
    fn get(&self) -> (u64, Role) {
        Self::unpack(self.0.load(Ordering::SeqCst))
    }

    fn epoch(&self) -> u64 {
        self.get().0
    }

    fn role(&self) -> Role {
        self.get().1
    }

    /// Whether `(epoch, role)` may replace the word `cur`. A strictly
    /// newer epoch always may. An equal one only keeps a backup a backup
    /// (the next delta of the primary it already follows): promotion at
    /// the current epoch, and a second primary's state at it, both lose.
    fn beats(cur: u64, epoch: u64, role: Role) -> bool {
        let (cur_epoch, cur_role) = Self::unpack(cur);
        let keeps_backup = role == Role::Backup && cur_role == Role::Backup;
        epoch <= MAX_EPOCH && (epoch > cur_epoch || (epoch == cur_epoch && keeps_backup))
    }

    /// Whether [`HaShared::advance`] would succeed right now — for a
    /// caller with work to do (decoding a blob) before it commits.
    fn admits(&self, epoch: u64, role: Role) -> bool {
        Self::beats(self.0.load(Ordering::SeqCst), epoch, role)
    }

    /// Rule 1: move to `(epoch, role)` iff that beats the current word.
    fn advance(&self, epoch: u64, role: Role) -> bool {
        self.0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                Self::beats(cur, epoch, role).then(|| Self::pack(epoch, role))
            })
            .is_ok()
    }

    /// Rule 2: step down to backup at `epoch` iff still primary at
    /// `epoch` — a promotion that landed since the caller read `epoch`
    /// is left alone.
    fn demote(&self, epoch: u64) -> bool {
        self.0
            .compare_exchange(
                Self::pack(epoch, Role::Primary),
                Self::pack(epoch, Role::Backup),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }
}

/// One shard of the serving state: its own store (behind its own lock),
/// its own replication log, and its own fencing epoch/role — so shards
/// fail over independently and never contend on each other's locks.
/// A classic single-store server is exactly a one-shard server.
struct ShardState {
    store: SyncStore,
    ha: HaShared,
    log: Mutex<ReplLog>,
}

/// Which shard serves `path`. Every route in the server goes through
/// this, so a path's store, log entries, and fencing epoch always live
/// together on one shard.
fn shard_for(shards: &[ShardState], path: PathKey) -> &ShardState {
    &shards[shard_index(path, shards.len())]
}

/// A running context server.
pub struct ContextServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    repl_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stats: Arc<ServerStats>,
    shards: Arc<Vec<ShardState>>,
}

/// How long handler reads block before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Decrements the active-connection gauge when a handler exits, however
/// it exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ContextServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// requests against `store` with default [`ServerConfig`]. Timestamps
    /// handed to the store are nanoseconds since server start.
    pub fn start(addr: impl ToSocketAddrs, store: SyncStore) -> std::io::Result<ContextServer> {
        Self::start_with(addr, store, ServerConfig::default())
    }

    /// [`ContextServer::start`] with explicit tuning.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        store: SyncStore,
        config: ServerConfig,
    ) -> std::io::Result<ContextServer> {
        Self::start_ha(addr, store, config, HaOptions::default())
    }

    /// Start a replica: serve at `ha.epoch` in `ha.role`, streaming state
    /// deltas to `ha.backups` (when primary). A plain
    /// [`ContextServer::start`] is exactly `start_ha` with the default
    /// [`HaOptions`] — a lone primary at epoch 1.
    pub fn start_ha(
        addr: impl ToSocketAddrs,
        store: SyncStore,
        config: ServerConfig,
        ha: HaOptions,
    ) -> std::io::Result<ContextServer> {
        Self::launch(addr, vec![store], config, ha)
    }

    /// Start a sharded server: `shards` independent stores (at least one),
    /// each configured with `cfg` and carrying its own lock, replication
    /// log, and fencing epoch. Requests route by
    /// [`shard_index`]`(path, shards)`, so batch traffic for disjoint
    /// paths never serializes on one lock. Every shard starts as a lone
    /// primary at epoch 1; for a sharded deployment with backups, use
    /// [`ContextServer::start_sharded_ha`].
    pub fn start_sharded(
        addr: impl ToSocketAddrs,
        cfg: StoreConfig,
        config: ServerConfig,
        shards: usize,
    ) -> std::io::Result<ContextServer> {
        Self::start_sharded_ha(addr, cfg, config, shards, HaOptions::default())
    }

    /// Start a sharded replica: `shards` independent stores, each serving
    /// at `ha.epoch` in `ha.role`, with every shard streamed to every
    /// address in `ha.backups`. Shard state syncs shard by shard
    /// (SHARD_SNAPSHOT_SYNC), so a backup must be started with the *same*
    /// shard count — the delta stream routes by path and the two sides
    /// must agree on `shard_index`.
    pub fn start_sharded_ha(
        addr: impl ToSocketAddrs,
        cfg: StoreConfig,
        config: ServerConfig,
        shards: usize,
        ha: HaOptions,
    ) -> std::io::Result<ContextServer> {
        let stores = (0..shards.max(1))
            .map(|_| sync_store(ContextStore::new(cfg)))
            .collect();
        Self::launch(addr, stores, config, ha)
    }

    /// One shard per store, every one starting at `ha.epoch` in `ha.role`.
    fn launch(
        addr: impl ToSocketAddrs,
        stores: Vec<SyncStore>,
        config: ServerConfig,
        ha: HaOptions,
    ) -> std::io::Result<ContextServer> {
        if ha.epoch > MAX_EPOCH {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "epoch {} exceeds the largest fencing token {MAX_EPOCH}",
                    ha.epoch
                ),
            ));
        }
        let shards = stores.into_iter().map(|store| ShardState {
            store,
            ha: HaShared::new(ha.epoch, ha.role),
            log: Mutex::new(ReplLog::default()),
        });
        let shards: Arc<Vec<ShardState>> = Arc::new(shards.collect());
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(ServerStats::default());
        let active = Arc::new(AtomicUsize::new(0));
        let started = Instant::now();

        let accept_thread = {
            let shutdown = shutdown.clone();
            let handlers = handlers.clone();
            let stats = stats.clone();
            let shards = shards.clone();
            std::thread::Builder::new()
                .name("phi-ctx-accept".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                reap_finished(&handlers);
                                if active.load(Ordering::Acquire) >= config.max_connections {
                                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                                    shed_connection(stream);
                                    continue;
                                }
                                stats.connections.fetch_add(1, Ordering::Relaxed);
                                active.fetch_add(1, Ordering::AcqRel);
                                let guard = ConnGuard(active.clone());
                                let shutdown = shutdown.clone();
                                let stats = stats.clone();
                                let shards = shards.clone();
                                let handle = std::thread::Builder::new()
                                    .name("phi-ctx-conn".into())
                                    .spawn(move || {
                                        let _guard = guard;
                                        handle_connection(stream, shards, stats, shutdown, started)
                                    })
                                    .expect("spawn handler thread");
                                handlers.lock().push(handle);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL_INTERVAL);
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        // Replication: one thread streams every shard to every backup.
        let repl_thread = (!ha.backups.is_empty()).then(|| {
            let shutdown = shutdown.clone();
            let stats = stats.clone();
            let shards = shards.clone();
            std::thread::Builder::new()
                .name("phi-ctx-repl".into())
                .spawn(move || {
                    replicate_to_backups(&ha.backups, ha.repl_client, shards, stats, shutdown)
                })
                .expect("spawn replication thread")
        });

        Ok(ContextServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            repl_thread,
            handlers,
            stats,
            shards,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The fencing epoch this server currently serves at — for a sharded
    /// server, the *lowest* epoch across shards (the conservative answer
    /// a health probe should see).
    pub fn epoch(&self) -> u64 {
        conservative_view(&self.shards).0
    }

    /// The role this server currently plays: primary only if *every*
    /// shard is primary (a single-shard server is just that shard).
    pub fn role(&self) -> Role {
        conservative_view(&self.shards).1
    }

    /// Number of independent shards this server serves (1 unless started
    /// with [`ContextServer::start_sharded`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `shard`'s fencing epoch.
    pub fn epoch_of(&self, shard: usize) -> u64 {
        self.shards[shard].ha.epoch()
    }

    /// Shard `shard`'s role.
    pub fn role_of(&self, shard: usize) -> Role {
        self.shards[shard].ha.role()
    }

    /// Promote this server to primary at `epoch`. Fails (returns `false`)
    /// unless `epoch` is strictly greater than the current one on *every*
    /// shard — the new epoch is what fences the deposed primary, so
    /// reusing the old value would invite split-brain. (A shard that a
    /// peer moves past `epoch` while this runs keeps the peer's epoch:
    /// the answer is then `false` with the other shards promoted.)
    pub fn promote(&self, epoch: u64) -> bool {
        if !self
            .shards
            .iter()
            .all(|s| s.ha.admits(epoch, Role::Primary))
        {
            return false;
        }
        let mut all = true;
        for s in self.shards.iter() {
            all &= s.ha.advance(epoch, Role::Primary);
        }
        all
    }

    /// Promote one shard to primary at `epoch` (strictly greater than the
    /// shard's current epoch). Shards fence independently, so promoting
    /// one never touches the others.
    pub fn promote_shard(&self, shard: usize, epoch: u64) -> bool {
        self.shards[shard].ha.advance(epoch, Role::Primary)
    }

    /// The full store state as a versioned snapshot blob (tagged with the
    /// current epoch) — what an operator persists before a planned
    /// restart, and what [`crate::context::ContextStore::decode_snapshot`]
    /// restores. On a sharded server this is shard 0; persist every shard
    /// with [`ContextServer::shard_snapshot_blob`].
    pub fn snapshot_blob(&self) -> Vec<u8> {
        self.shard_snapshot_blob(0)
    }

    /// Shard `shard`'s state as a snapshot blob tagged with *that shard's*
    /// epoch (shards fail over independently, so each blob carries its own
    /// fencing token).
    pub fn shard_snapshot_blob(&self, shard: usize) -> Vec<u8> {
        let s = &self.shards[shard];
        s.store.read().encode_snapshot(s.ha.epoch())
    }

    /// Stop accepting, drain handlers, and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.repl_thread.take() {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock());
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for ContextServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Join handler threads that already returned, so long-lived servers with
/// connection churn don't accumulate an unbounded handle list.
fn reap_finished(handlers: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let finished: Vec<_> = {
        let mut live = handlers.lock();
        let mut finished = Vec::new();
        let mut i = 0;
        while i < live.len() {
            if live[i].is_finished() {
                finished.push(live.swap_remove(i));
            } else {
                i += 1;
            }
        }
        finished
    };
    for h in finished {
        let _ = h.join();
    }
}

/// Turn away a connection at the cap: one overload frame, then close.
/// Best-effort and bounded — the accept loop must never block on a slow
/// or unreachable peer.
fn shed_connection(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
    let _ = stream.write_all(&encode(&Message::Error {
        code: code::OVERLOADED,
        message: "server overloaded: connection cap reached".into(),
    }));
}

/// Apply a full-state snapshot blob to one shard, with the same epoch
/// fence as every other mutating path: stale epochs bounce with 409, an
/// equal epoch is refused while the shard itself is primary (two
/// primaries at one epoch must never both accept state). The fence is
/// asked before the blob is decoded, so a stale peer hears `409` whatever
/// it sent, and again when the state goes in, so a promotion that landed
/// in between wins.
fn apply_snapshot_sync(sh: &ShardState, epoch: u64, blob: &[u8], stats: &ServerStats) -> Message {
    if !sh.ha.admits(epoch, Role::Backup) {
        return fenced_reply(&sh.ha, stats, "snapshot sync from a stale epoch");
    }
    match ContextStore::decode_snapshot(blob) {
        Ok((restored, _blob_epoch)) => {
            if !sh.ha.advance(epoch, Role::Backup) {
                return fenced_reply(&sh.ha, stats, "snapshot sync from a stale epoch");
            }
            stats.repl_syncs.fetch_add(1, Ordering::Relaxed);
            *sh.store.write() = restored;
            Message::ReportOk
        }
        Err(SnapshotError::UnsupportedVersion(v)) => refuse(
            stats,
            code::UNSUPPORTED,
            format!("snapshot version {v} not supported"),
        ),
        Err(e) => refuse(stats, code::BAD_REQUEST, format!("bad snapshot blob: {e}")),
    }
}

/// One `409 FENCED` reply, naming the epoch the server is actually at so
/// the rejected peer can tell "I'm stale" from "you're a backup".
fn fenced_reply(ha: &HaShared, stats: &ServerStats, why: &str) -> Message {
    stats.fenced.fetch_add(1, Ordering::Relaxed);
    let (epoch, role) = ha.get();
    Message::Error {
        code: code::FENCED,
        message: format!("{why} (serving epoch {epoch} as {role:?})"),
    }
}

/// Count a protocol error and build the frame that answers it.
fn refuse(stats: &ServerStats, code: u16, message: String) -> Message {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    Message::Error { code, message }
}

/// The whole-server view a health probe sees, most conservative first:
/// the lowest shard epoch, and primary only if every shard is (a probe
/// must not trust a half-deposed server).
fn conservative_view(shards: &[ShardState]) -> (u64, Role) {
    let mut view = (MAX_EPOCH, Role::Primary);
    for (epoch, role) in shards.iter().map(|s| s.ha.get()) {
        view.0 = view.0.min(epoch);
        if role == Role::Backup {
            view.1 = Role::Backup;
        }
    }
    view
}

/// Batch fencing is all-or-nothing: the first of `paths` whose shard is
/// not primary refuses the whole frame *before* anything is applied, so
/// the client never has to untangle a partially accepted batch.
fn fenced_shard(
    shards: &[ShardState],
    paths: impl Iterator<Item = PathKey>,
) -> Option<&ShardState> {
    paths
        .map(|p| shard_for(shards, p))
        .find(|sh| sh.ha.role() != Role::Primary)
}

fn handle_connection(
    stream: TcpStream,
    shards: Arc<Vec<ShardState>>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 4096];

    while !shutdown.load(Ordering::Acquire) {
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => decoder.extend(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        loop {
            let now_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let reply = match decoder.next() {
                // -- client data path: primary only ---------------------
                Ok(Message::Lookup { path }) => {
                    let sh = shard_for(&shards, path);
                    if sh.ha.role() != Role::Primary {
                        fenced_reply(&sh.ha, &stats, "lookup refused")
                    } else {
                        stats.lookups.fetch_add(1, Ordering::Relaxed);
                        let snap = {
                            let mut st = sh.store.write();
                            let snap = st.lookup(path, now_ns);
                            // Append under the store write lock so the log
                            // order matches the store's mutation order.
                            sh.log.lock().append(ReplOp::Lookup { path, now_ns });
                            snap
                        };
                        Message::Context(snap)
                    }
                }
                // -- batch data path: N items, one frame, one reply -----
                Ok(Message::BatchReport(items)) => {
                    let n = shards.len();
                    match fenced_shard(&shards, items.iter().map(|&(p, _)| p)) {
                        Some(sh) => fenced_reply(&sh.ha, &stats, "batch report refused"),
                        None => {
                            stats
                                .reports
                                .fetch_add(items.len() as u64, Ordering::Relaxed);
                            // Group by shard, then apply each shard's items
                            // in arrival order under ONE write lock — the
                            // log this produces is exactly what the same
                            // items sent in batches of one would produce,
                            // so snapshot-then-delta catch-up can't tell
                            // how reports were batched.
                            let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
                            for (k, &(p, _)) in items.iter().enumerate() {
                                by_shard[shard_index(p, n)].push(k);
                            }
                            for (s, idxs) in by_shard.iter().enumerate() {
                                if idxs.is_empty() {
                                    continue;
                                }
                                let sh = &shards[s];
                                let mut st = sh.store.write();
                                let mut log = sh.log.lock();
                                for &k in idxs {
                                    let (path, summary) = items[k];
                                    st.report(path, now_ns, &summary);
                                    log.append(ReplOp::Report {
                                        path,
                                        now_ns,
                                        summary,
                                    });
                                }
                            }
                            Message::ReportOk
                        }
                    }
                }
                Ok(Message::BatchQuery(paths)) => {
                    match fenced_shard(&shards, paths.iter().copied()) {
                        Some(sh) => fenced_reply(&sh.ha, &stats, "batch query refused"),
                        None => {
                            stats
                                .lookups
                                .fetch_add(paths.len() as u64, Ordering::Relaxed);
                            // Peeks never register competing flows, so
                            // nothing is logged or replicated. The write
                            // lock is for the store's rate index, which a
                            // peek brings up to date; it is held for an
                            // O(1) read.
                            let snaps = paths
                                .iter()
                                .map(|&p| shard_for(&shards, p).store.write().peek(p, now_ns))
                                .collect();
                            Message::BatchReply(snaps)
                        }
                    }
                }
                Ok(Message::Snapshot { limit }) => {
                    if shards.iter().any(|s| s.ha.role() != Role::Primary) {
                        // The dashboard view spans every shard, so it is
                        // only served when all of them are primary.
                        fenced_reply(&shards[0].ha, &stats, "snapshot refused")
                    } else {
                        let mut paths: Vec<(PathKey, ContextSnapshot)> = shards
                            .iter()
                            .flat_map(|s| s.store.write().snapshot(now_ns))
                            .collect();
                        paths.sort_by(|(ka, a), (kb, b)| {
                            b.utilization.total_cmp(&a.utilization).then(ka.cmp(kb))
                        });
                        paths.truncate(usize::from(limit).min(crate::wire::MAX_SNAPSHOT_PATHS));
                        Message::Paths(paths)
                    }
                }
                // -- health/handshake: answered in any role -------------
                Ok(Message::EpochQuery) => {
                    let (epoch, role) = conservative_view(&shards);
                    Message::Epoch { epoch, role }
                }
                // -- replication stream: epoch-fenced, per shard --------
                Ok(Message::Replicate { epoch, .. } | Message::ShardSnapshotSync { epoch, .. })
                    if epoch > MAX_EPOCH =>
                {
                    refuse(
                        &stats,
                        code::BAD_REQUEST,
                        format!("epoch {epoch} exceeds the largest fencing token {MAX_EPOCH}"),
                    )
                }
                Ok(Message::Replicate { epoch, seq: _, op }) => {
                    let path = match &op {
                        ReplOp::Lookup { path, .. } | ReplOp::Report { path, .. } => *path,
                    };
                    let sh = shard_for(&shards, path);
                    // A (possibly newer) primary's delta: adopt its epoch,
                    // stay/become backup, apply. A deposed primary's is
                    // fenced, and so is one at the epoch this shard is
                    // itself primary at — two primaries at one epoch must
                    // never both accept traffic; the replicator
                    // self-deposes on that reply. Only the op's own shard
                    // is touched: a delta for one shard can never depose
                    // another.
                    if !sh.ha.advance(epoch, Role::Backup) {
                        fenced_reply(&sh.ha, &stats, "replication from a stale epoch")
                    } else {
                        stats.repl_applied.fetch_add(1, Ordering::Relaxed);
                        let mut st = sh.store.write();
                        match op {
                            ReplOp::Lookup { path, now_ns } => {
                                st.lookup(path, now_ns);
                            }
                            ReplOp::Report {
                                path,
                                now_ns,
                                summary,
                            } => st.report(path, now_ns, &summary),
                        }
                        Message::ReportOk
                    }
                }
                Ok(Message::ShardSnapshotSync { shard, epoch, blob }) => {
                    match shards.get(shard as usize) {
                        None => refuse(
                            &stats,
                            code::BAD_REQUEST,
                            format!("shard {shard} out of range ({} shards)", shards.len()),
                        ),
                        Some(sh) => apply_snapshot_sync(sh, epoch, &blob, &stats),
                    }
                }
                Ok(other) => refuse(
                    &stats,
                    code::BAD_REQUEST,
                    format!("unexpected message: {other:?}"),
                ),
                Err(DecodeError::Incomplete) => break,
                // Forward compatibility: a well-delimited frame of a type
                // this build does not assign (a future one, or a retired
                // one). The stream is still aligned, so answer 501 and
                // keep serving the connection.
                Err(e) if e.is_recoverable() => refuse(&stats, code::UNSUPPORTED, e.to_string()),
                Err(e) => {
                    let error = refuse(&stats, code::MALFORMED, e.to_string());
                    let _ = stream.write_all(&encode(&error));
                    return; // framing is broken; drop the connection
                }
            };
            if stream.write_all(&encode(&reply)).is_err() {
                return;
            }
        }
    }
}

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
fn next_frame(
    sh: &ShardState,
    shard: u32,
    epoch: u64,
    acked: Option<u64>,
) -> Option<(Message, u64)> {
    let oldest = sh.log.lock().entries.front().map(|&(seq, _)| seq);
    let Some(acked) = acked.filter(|acked| oldest.is_none_or(|oldest| oldest <= acked + 1)) else {
        let st = sh.store.read();
        let log = sh.log.lock();
        let blob = st.encode_snapshot(epoch);
        return Some((
            Message::ShardSnapshotSync { shard, epoch, blob },
            log.next_seq,
        ));
    };
    let log = sh.log.lock();
    let (seq, op) = log.entries.iter().find(|&&(seq, _)| seq > acked)?.clone();
    Some((Message::Replicate { epoch, seq, op }, seq))
}

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure. The connection is poisoned.
    Io(std::io::Error),
    /// The request's deadline expired before a full reply arrived. The
    /// request may still be on the wire, so the connection is poisoned.
    Deadline,
    /// A previous request on this connection failed mid-flight; the
    /// stream may hold a stale reply, so every call fails until the
    /// caller reconnects.
    Poisoned,
    /// The server answered with a protocol error frame (clean reply; the
    /// connection stays usable unless the server closed it).
    Server {
        /// Error code from the server (see [`crate::wire::code`]).
        code: u16,
        /// Error detail from the server.
        message: String,
    },
    /// The server replied with a well-delimited frame of a type this
    /// build doesn't know (a newer peer). The stream stayed aligned, so
    /// the connection is *not* poisoned — but the reply is unusable.
    Unsupported(u8),
    /// The reply could not be decoded or had the wrong type. The framing
    /// state is unknown, so the connection is poisoned.
    Protocol(String),
}

impl ClientError {
    /// Whether this failure leaves the connection in an unknown state.
    fn poisons(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Deadline
                | ClientError::Protocol(_)
                | ClientError::Poisoned
        )
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Deadline => write!(f, "request deadline exceeded"),
            ClientError::Poisoned => write!(f, "connection poisoned by an earlier failure"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unsupported(t) => write!(f, "unsupported reply type {t}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            ClientError::Deadline
        } else {
            ClientError::Io(e)
        }
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Budget for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Budget for one whole request (write + read); covers a stalled
    /// server in *either* direction.
    pub request_deadline: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(5),
        }
    }
}

/// Tuning for the client-side write-behind report buffer.
///
/// Reports are end-of-connection telemetry, not queries: nothing blocks
/// on their reply. Buffering them and shipping one
/// [`Message::BatchReport`] amortizes codec and syscall cost the same
/// way the replication delta stream does. The cost is staleness, and
/// that cost is *bounded*: a buffered report is flushed no later than
/// the first `buffer_report`/`flush_reports` call after the oldest entry
/// turns `max_age` old, and no more than `max_items` reports are ever
/// held. On a flush failure the buffer is dropped, not retried — a dead
/// context plane degrades to lost telemetry, never to memory growth or
/// a stalled sender.
#[derive(Debug, Clone, Copy)]
pub struct WriteBehindConfig {
    /// Buffered reports that force a flush (also the largest batch ever
    /// sent; capped by [`crate::wire::MAX_BATCH_ITEMS`]).
    pub max_items: usize,
    /// Staleness bound: how old the oldest buffered report may be before
    /// the next buffering call flushes.
    pub max_age: Duration,
}

impl Default for WriteBehindConfig {
    fn default() -> Self {
        WriteBehindConfig {
            max_items: 64,
            max_age: Duration::from_millis(100),
        }
    }
}

/// The write-behind report buffer both clients hold: what is waiting,
/// since when, and the bounds that say when it must go.
#[derive(Default)]
pub(super) struct WriteBehind {
    pub(super) cfg: WriteBehindConfig,
    pending: Vec<(PathKey, FlowSummary)>,
    /// When the oldest entry in `pending` was buffered (the staleness
    /// clock).
    oldest: Option<Instant>,
}

impl WriteBehind {
    /// Buffer one report; `true` when the count or the age bound is
    /// reached and the caller must flush.
    pub(super) fn push(&mut self, path: PathKey, summary: FlowSummary) -> bool {
        let oldest = *self.oldest.get_or_insert_with(Instant::now);
        self.pending.push((path, summary));
        self.pending.len() >= self.cfg.max_items.clamp(1, MAX_BATCH_ITEMS)
            || oldest.elapsed() >= self.cfg.max_age
    }

    /// Empty the buffer and stop its clock; the caller ships what it held.
    pub(super) fn take(&mut self) -> Vec<(PathKey, FlowSummary)> {
        self.oldest = None;
        std::mem::take(&mut self.pending)
    }

    /// Reports currently held.
    pub(super) fn len(&self) -> usize {
        self.pending.len()
    }
}

/// A blocking context-server client: one TCP connection, synchronous
/// request/response — matching the one-lookup-one-report cadence of the
/// practical design.
///
/// Every call returns within [`ClientConfig::request_deadline`]. After
/// any mid-request failure the connection is poisoned (see the module
/// docs); callers that want automatic reconnection and degradation use
/// [`ResilientClient`].
pub struct ContextClient {
    pub(super) stream: TcpStream,
    decoder: Decoder,
    config: ClientConfig,
    poisoned: bool,
    buffer: WriteBehind,
}

impl ContextClient {
    /// Connect to a context server with default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ContextClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect to a context server with explicit timeouts.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<ContextClient> {
        let mut stream = Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no addresses resolved",
        ));
        for addr in addr.to_socket_addrs()? {
            stream = TcpStream::connect_timeout(&addr, config.connect_timeout);
            if stream.is_ok() {
                break;
            }
        }
        let stream = stream?;
        stream.set_nodelay(true)?;
        // Both directions are bounded: a stalled server with a full
        // socket buffer must not block the sender on write any more than
        // a silent one may block it on read.
        stream.set_read_timeout(Some(config.request_deadline))?;
        stream.set_write_timeout(Some(config.request_deadline))?;
        Ok(ContextClient {
            stream,
            decoder: Decoder::new(),
            config,
            poisoned: false,
            buffer: WriteBehind::default(),
        })
    }

    /// Replace the write-behind tuning (applies to subsequent
    /// [`ContextClient::buffer_report`] calls; already-buffered reports
    /// keep their staleness clock).
    pub fn set_write_behind(&mut self, cfg: WriteBehindConfig) {
        self.buffer.cfg = cfg;
    }

    /// Whether an earlier failure poisoned this connection (all further
    /// calls fail fast until the caller reconnects).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// One frame out, one frame back, within the request deadline.
    fn exchange(&mut self, msg: &Message) -> Result<Message, ClientError> {
        let deadline = Instant::now() + self.config.request_deadline;
        self.stream
            .set_write_timeout(Some(self.config.request_deadline))?;
        self.stream.write_all(&encode(msg))?;
        let mut buf = [0u8; 4096];
        loop {
            match self.decoder.next() {
                Ok(m) => return Ok(m),
                Err(DecodeError::Incomplete) => {}
                // Forward compatibility: an unknown-but-well-delimited
                // reply type leaves the stream aligned — typed error, no
                // poison, connection stays usable.
                Err(DecodeError::BadType(t)) => return Err(ClientError::Unsupported(t)),
                Err(e) => return Err(ClientError::Protocol(e.to_string())),
            }
            // Budget the read by what's left of the whole-request deadline
            // so fragmented replies cannot stretch a call past it.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::Deadline);
            }
            self.stream.set_read_timeout(Some(remaining))?;
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::Protocol("server closed connection".into()));
            }
            self.decoder.extend(&buf[..n]);
        }
    }

    /// One request, and `pick` its payload out of the reply — the one
    /// place a reply is matched to what was asked. An `Error` frame is a
    /// clean answer ([`ClientError::Server`]; the connection stays
    /// usable). A frame `pick` hands back is not the reply to this
    /// request, so nothing else on the stream can be paired either:
    /// [`ClientError::Protocol`].
    pub(super) fn ask<T>(
        &mut self,
        msg: &Message,
        pick: impl FnOnce(Message) -> Result<T, Message>,
    ) -> Result<T, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        let result = self.exchange(msg).and_then(|reply| match reply {
            Message::Error { code, message } => Err(ClientError::Server { code, message }),
            reply => pick(reply)
                .map_err(|other| ClientError::Protocol(format!("unexpected reply {other:?}"))),
        });
        // After a failure that leaves the stream in an unknown state — the
        // request may be on the wire with its reply in flight, or the
        // reply that came was not this request's — reusing the stream
        // would pair a stale reply with the next request.
        self.poisoned = result.as_ref().is_err_and(ClientError::poisons);
        result
    }

    /// Look up the congestion context for `path` (registers this client
    /// as an active sender on it).
    pub fn lookup(&mut self, path: PathKey) -> Result<ContextSnapshot, ClientError> {
        self.ask(&Message::Lookup { path }, |m| match m {
            Message::Context(c) => Ok(c),
            other => Err(other),
        })
    }

    /// The busiest `limit` paths the server knows about (dashboard view).
    pub fn snapshot(&mut self, limit: u16) -> Result<Vec<(PathKey, ContextSnapshot)>, ClientError> {
        self.ask(&Message::Snapshot { limit }, |m| match m {
            Message::Paths(paths) => Ok(paths),
            other => Err(other),
        })
    }

    /// Report a finished connection on `path` (a batch of one).
    pub fn report(&mut self, path: PathKey, summary: FlowSummary) -> Result<(), ClientError> {
        self.report_batch(&[(path, summary)])
    }

    /// Ship `items` as one [`Message::BatchReport`] frame — N reports,
    /// one syscall, one reply. Items beyond
    /// [`crate::wire::MAX_BATCH_ITEMS`] are sent in follow-up frames.
    pub fn report_batch(&mut self, items: &[(PathKey, FlowSummary)]) -> Result<(), ClientError> {
        for chunk in items.chunks(MAX_BATCH_ITEMS) {
            self.ask(&Message::BatchReport(chunk.to_vec()), acked)?;
        }
        Ok(())
    }

    /// Read the context of many paths in one frame, in query order.
    /// Side-effect free: unlike [`ContextClient::lookup`] this does *not*
    /// register the caller as a competing sender on any path.
    pub fn query_batch(&mut self, paths: &[PathKey]) -> Result<Vec<ContextSnapshot>, ClientError> {
        let mut out = Vec::with_capacity(paths.len());
        for chunk in paths.chunks(MAX_BATCH_ITEMS) {
            out.extend(self.ask(&Message::BatchQuery(chunk.to_vec()), |m| match m {
                Message::BatchReply(snaps) if snaps.len() == chunk.len() => Ok(snaps),
                other => Err(other),
            })?);
        }
        Ok(out)
    }

    /// Buffer a report for a later batched flush (see
    /// [`WriteBehindConfig`] for the staleness bound). Returns `true` if
    /// this call flushed. On a flush failure the buffered reports are
    /// dropped before the error is returned — the buffer never grows past
    /// `max_items` and a report is never retried into the future.
    pub fn buffer_report(
        &mut self,
        path: PathKey,
        summary: FlowSummary,
    ) -> Result<bool, ClientError> {
        let due = self.buffer.push(path, summary);
        if due {
            self.flush_reports()?;
        }
        Ok(due)
    }

    /// Flush every buffered report now, as one batch frame. Returns how
    /// many reports were shipped. The buffer is emptied even on failure
    /// (degradation over growth).
    pub fn flush_reports(&mut self) -> Result<usize, ClientError> {
        let items = self.buffer.take();
        self.report_batch(&items)?;
        Ok(items.len())
    }

    /// Reports currently held by the write-behind buffer.
    pub fn pending_reports(&self) -> usize {
        self.buffer.len()
    }

    /// The server's current fencing epoch and role (health probe).
    pub fn epoch(&mut self) -> Result<(u64, Role), ClientError> {
        self.ask(&Message::EpochQuery, |m| match m {
            Message::Epoch { epoch, role } => Ok((epoch, role)),
            other => Err(other),
        })
    }

    /// Install `blob` as shard `shard`'s full state on the receiving
    /// server, fenced at `epoch`. The shard index is the *receiver's*
    /// (`shard_index` of the same path space — primary and backup must be
    /// sharded identically). Out-of-range shards and stale epochs come
    /// back as server errors.
    pub fn sync_shard_snapshot(
        &mut self,
        shard: u32,
        epoch: u64,
        blob: Vec<u8>,
    ) -> Result<(), ClientError> {
        self.ask(&Message::ShardSnapshotSync { shard, epoch, blob }, acked)
    }

    /// Flush the write-behind buffer and consume the client; returns how
    /// many buffered reports shipped. Dropping the client flushes too —
    /// the difference is that `close` surfaces the final flush's error
    /// where `Drop` must swallow it.
    pub fn close(mut self) -> Result<usize, ClientError> {
        self.flush_reports()
    }
}

/// [`ContextClient::ask`]'s `pick` for requests answered by `REPORT_OK`.
pub(super) fn acked(reply: Message) -> Result<(), Message> {
    match reply {
        Message::ReportOk => Ok(()),
        other => Err(other),
    }
}

impl Drop for ContextClient {
    /// Last-chance flush of the write-behind buffer: an orderly teardown
    /// must not silently discard buffered reports. Best-effort — errors
    /// are swallowed (use [`ContextClient::close`] to observe them) and
    /// the single batch request is bounded by the per-request deadline,
    /// so teardown cannot hang on a dead plane. Skipped while panicking:
    /// an unwinding thread shouldn't block on the network.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.flush_reports();
        }
    }
}

/// [`ResilientClient`] tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Per-connection timeouts of the underlying [`ContextClient`].
    pub client: ClientConfig,
    /// Reconnect-and-retry attempts per request after the first failure.
    pub max_retries: u32,
    /// Backoff before retry `k` is `base * 2^(k-1)` (capped), scaled by
    /// jitter in `[0.5, 1.0]`.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
    /// Consecutive failed *requests* (all retries exhausted) that open
    /// the circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker short-circuits requests before the next
    /// probe is allowed. Each failed half-open probe doubles the wait,
    /// up to [`ResilienceConfig::breaker_cooldown_max`].
    pub breaker_cooldown: Duration,
    /// Ceiling on the doubled half-open cooldown.
    pub breaker_cooldown_max: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            client: ClientConfig::default(),
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            breaker_cooldown_max: Duration::from_secs(30),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// Counters of a [`ResilientClient`]'s failure handling.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResilienceStats {
    /// Requests issued (including ones the breaker short-circuited).
    pub requests: u64,
    /// Requests that exhausted every retry and degraded to "no context".
    pub failures: u64,
    /// Connections (re-)established.
    pub connects: u64,
    /// Open → closed breaker transitions.
    pub breaker_trips: u64,
    /// Requests answered "no context" instantly by an open breaker.
    pub short_circuited: u64,
    /// Half-open probes that failed (each doubles the cooldown).
    pub probe_failures: u64,
    /// Times the client moved on to the next endpoint in its list.
    pub failovers: u64,
    /// Replies (or handshakes) rejected for a stale epoch / backup role.
    pub fenced: u64,
}

/// A self-healing context-plane client embodying the §2.2.2 contract:
/// **the context plane may fail; the sender must not.**
///
/// Wraps [`ContextClient`] with bounded reconnects, exponential backoff
/// with deterministic jitter, and a circuit breaker. All methods are
/// infallible: any exhausted failure degrades to "no context" (`None` /
/// `false`), which callers map to vanilla-TCP behaviour — never an error
/// the data path has to handle, never an unbounded block.
///
/// ## Failover
///
/// Constructed with [`ResilientClient::multi`], the client holds an
/// ordered endpoint list. Every (re)connect is an epoch-checked health
/// probe: the client sends an `EpochQuery` and only accepts the endpoint
/// if it answers as a **primary** at an epoch at least as new as the
/// highest this client has ever seen. A `409 FENCED` reply (or a backup
/// role) rotates to the next endpoint — so a deposed primary's context
/// can never reach the sender, and split-brain degrades to "no context"
/// rather than stale guidance.
pub struct ResilientClient {
    endpoints: Vec<SocketAddr>,
    current: usize,
    /// Highest epoch any endpoint ever answered with; replies from below
    /// it are fenced client-side even if a stale primary still talks.
    max_epoch: u64,
    config: ResilienceConfig,
    conn: Option<ContextClient>,
    consecutive_failures: u32,
    open_until: Option<Instant>,
    /// Consecutive open periods without a successful probe; the cooldown
    /// doubles with each (bounded by `breaker_cooldown_max`).
    open_streak: u32,
    jitter: u64,
    stats: ResilienceStats,
    buffer: WriteBehind,
}

impl ResilientClient {
    /// A client for the server at `addr` with default [`ResilienceConfig`].
    /// No connection is made until the first request.
    pub fn new(addr: impl ToSocketAddrs) -> std::io::Result<ResilientClient> {
        Self::with_config(addr, ResilienceConfig::default())
    }

    /// [`ResilientClient::new`] with explicit tuning.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        config: ResilienceConfig,
    ) -> std::io::Result<ResilientClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved")
        })?;
        Ok(Self::multi(vec![addr], config))
    }

    /// A failover client over an ordered endpoint list (primary first,
    /// then backups in preference order). The list must be non-empty.
    pub fn multi(endpoints: Vec<SocketAddr>, config: ResilienceConfig) -> ResilientClient {
        assert!(!endpoints.is_empty(), "endpoint list must be non-empty");
        ResilientClient {
            endpoints,
            current: 0,
            max_epoch: 0,
            config,
            conn: None,
            consecutive_failures: 0,
            open_until: None,
            open_streak: 0,
            jitter: config.jitter_seed | 1,
            stats: ResilienceStats::default(),
            buffer: WriteBehind::default(),
        }
    }

    /// Replace the write-behind tuning (see [`WriteBehindConfig`]).
    pub fn set_write_behind(&mut self, cfg: WriteBehindConfig) {
        self.buffer.cfg = cfg;
    }

    /// Failure-handling counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Whether the circuit breaker is currently open (requests are
    /// short-circuited to "no context" until the cooldown elapses).
    pub fn breaker_open(&self) -> bool {
        self.open_until.is_some_and(|t| Instant::now() < t)
    }

    /// The cooldown the breaker will apply on its next trip or failed
    /// probe: `breaker_cooldown * 2^open_streak`, capped. Deterministic,
    /// so tests can assert the doubling exactly.
    pub fn current_cooldown(&self) -> Duration {
        let doubled = self
            .config
            .breaker_cooldown
            .saturating_mul(1u32 << self.open_streak.min(16));
        doubled.min(self.config.breaker_cooldown_max)
    }

    /// The endpoint the next request will try first.
    pub fn current_endpoint(&self) -> SocketAddr {
        self.endpoints[self.current]
    }

    /// Highest epoch any endpoint has answered with so far.
    pub fn observed_epoch(&self) -> u64 {
        self.max_epoch
    }

    /// Look up the context for `path`; `None` means "no context" — the
    /// plane is unavailable and the caller should use defaults.
    pub fn lookup(&mut self, path: PathKey) -> Option<ContextSnapshot> {
        self.call(|c| c.lookup(path))
    }

    /// Report a finished connection; `false` means the report was lost to
    /// a context-plane failure (acceptable: estimates degrade gracefully).
    pub fn report(&mut self, path: PathKey, summary: FlowSummary) -> bool {
        self.report_batch(&[(path, summary)])
    }

    /// The busiest `limit` paths, or `None` when the plane is down.
    pub fn snapshot(&mut self, limit: u16) -> Option<Vec<(PathKey, ContextSnapshot)>> {
        self.call(|c| c.snapshot(limit))
    }

    /// Ship `items` as batch-report frames; `false` means at least one
    /// batch was lost to a context-plane failure (acceptable: estimates
    /// degrade gracefully, the data path never stalls).
    pub fn report_batch(&mut self, items: &[(PathKey, FlowSummary)]) -> bool {
        let mut ok = true;
        for chunk in items.chunks(MAX_BATCH_ITEMS) {
            ok &= self.call(|c| c.report_batch(chunk)).is_some();
        }
        ok
    }

    /// Read many paths' context in one frame (side-effect free); `None`
    /// when the plane is down — the caller falls back to defaults, same
    /// as a failed [`ResilientClient::lookup`].
    pub fn query_batch(&mut self, paths: &[PathKey]) -> Option<Vec<ContextSnapshot>> {
        let mut out = Vec::with_capacity(paths.len());
        for chunk in paths.chunks(MAX_BATCH_ITEMS) {
            out.extend(self.call(|c| c.query_batch(chunk))?);
        }
        Some(out)
    }

    /// Buffer a report for a later batched flush, bounded by the
    /// configured [`WriteBehindConfig`] staleness bound. Returns `false`
    /// only when this call triggered a flush and that flush failed (the
    /// buffered reports are then dropped — a dead plane costs telemetry,
    /// never memory or data-path stalls: the breaker short-circuits the
    /// flush without touching the network).
    pub fn buffer_report(&mut self, path: PathKey, summary: FlowSummary) -> bool {
        !self.buffer.push(path, summary) || self.flush_reports()
    }

    /// Flush every buffered report now; `true` when nothing was lost
    /// (including the empty-buffer case). The buffer empties either way.
    pub fn flush_reports(&mut self) -> bool {
        let items = self.buffer.take();
        self.report_batch(&items)
    }

    /// Reports currently held by the write-behind buffer.
    pub fn pending_reports(&self) -> usize {
        self.buffer.len()
    }

    /// Flush the write-behind buffer and consume the client; `false`
    /// when the final flush lost reports. Dropping the client flushes
    /// too, silently.
    pub fn close(mut self) -> bool {
        self.flush_reports()
    }

    /// Run one typed request against the current endpoint with all of
    /// this client's own machinery around it: breaker, bounded retries
    /// with backoff, reconnect, fail-over. `None` is "no context".
    fn call<T>(
        &mut self,
        request: impl Fn(&mut ContextClient) -> Result<T, ClientError>,
    ) -> Option<T> {
        self.stats.requests += 1;
        if let Some(until) = self.open_until {
            if Instant::now() < until {
                self.stats.short_circuited += 1;
                return None;
            }
            // Cooldown elapsed: half-open. Fall through with one probe
            // request; success closes the breaker, failure re-opens it
            // with a doubled cooldown.
        }
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            let Some(conn) = self.ensure_conn() else {
                continue;
            };
            match request(conn) {
                Ok(reply) => return self.answered(Some(reply)),
                // The server shed us; it will close the connection.
                Err(ClientError::Server { code: c, .. }) if c == code::OVERLOADED => {
                    self.conn = None;
                }
                // This endpoint was deposed under us (or demoted to
                // backup). Never retry it with this request — fail over
                // to the next endpoint in the list.
                Err(ClientError::Server { code: c, .. }) if c == code::FENCED => {
                    self.stats.fenced += 1;
                    self.fail_over();
                }
                // Any other refusal is an answer: the plane is up, it
                // just has nothing for this request.
                Err(ClientError::Server { .. }) => return self.answered(None),
                // The reply is unusable but the connection is fine; treat
                // as a failed attempt without reconnecting.
                Err(ClientError::Unsupported(_)) => {}
                // Poisoned, timed out, or transport-dead: drop the
                // connection and let the next attempt try the next
                // endpoint in the list.
                Err(_) => self.fail_over(),
            }
        }
        self.on_exhausted();
        None
    }

    /// The plane answered: close the breaker and forget the failures.
    fn answered<T>(&mut self, answer: Option<T>) -> Option<T> {
        self.consecutive_failures = 0;
        self.open_until = None;
        self.open_streak = 0;
        answer
    }

    /// Advance to the next endpoint in the ordered list.
    fn fail_over(&mut self) {
        if self.endpoints.len() > 1 {
            self.current = (self.current + 1) % self.endpoints.len();
            self.stats.failovers += 1;
        }
        self.conn = None;
    }

    /// (Re)establish a connection, health-probing the endpoint with an
    /// `EpochQuery` first: only a primary at `>= max_epoch` is accepted;
    /// backups and stale primaries rotate the list.
    fn ensure_conn(&mut self) -> Option<&mut ContextClient> {
        if self.conn.is_some() {
            return self.conn.as_mut();
        }
        for _ in 0..self.endpoints.len() {
            let addr = self.endpoints[self.current];
            let mut conn = ContextClient::connect_with(addr, self.config.client).ok();
            match conn.as_mut().map(|c| c.epoch()) {
                Some(Ok((epoch, Role::Primary))) if epoch >= self.max_epoch => {
                    self.max_epoch = epoch;
                    self.stats.connects += 1;
                    self.conn = conn;
                    return self.conn.as_mut();
                }
                // Fenced client-side: a backup, or a primary older than
                // one we've already talked to.
                Some(Ok(_)) => self.stats.fenced += 1,
                // Unreachable, or no answer to the probe.
                Some(Err(_)) | None => {}
            }
            self.fail_over();
        }
        None
    }

    fn on_exhausted(&mut self) {
        self.stats.failures += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.open_until.is_some() {
            // A half-open probe failed: re-open for twice as long.
            self.stats.probe_failures += 1;
        } else if self.consecutive_failures >= self.config.breaker_threshold {
            self.stats.breaker_trips += 1;
        } else {
            return;
        }
        self.open_until = Some(Instant::now() + self.current_cooldown());
        self.open_streak = self.open_streak.saturating_add(1);
    }

    /// Exponential backoff with deterministic jitter in `[0.5, 1.0]` of
    /// the capped exponential term (xorshift64 stream seeded by config,
    /// so tests are reproducible and a fleet of clients decorrelates).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.config.backoff_max);
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let frac = 0.5 + 0.5 * (self.jitter >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(frac)
    }
}

impl Drop for ResilientClient {
    /// Last-chance flush of the write-behind buffer on orderly teardown.
    /// Bounded even against a dead plane: the flush goes through the
    /// normal retry/breaker machinery, so an open breaker short-circuits
    /// it without touching the network. Skipped while panicking.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.flush_reports();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::StoreConfig;

    fn start_server() -> (ContextServer, SocketAddr) {
        let store = sync_store(ContextStore::new(StoreConfig {
            window_ns: 10_000_000_000,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        }));
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
        /// Shard `shard`'s unpruned replication log (sequence + op).
        fn repl_entries(&self, shard: usize) -> Vec<(u64, ReplOp)> {
            let log = self.shards[shard].log.lock();
            log.entries.iter().cloned().collect()
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
                })
                .to_vec(),
                vec![0, 0, 0, 2, crate::wire::VERSION, 200], // a type from the future
                encode(&Message::ReportOk).to_vec(),         // not what a lookup gets
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
    fn connection_cap_sheds_with_overload_frame() {
        let store = sync_store(ContextStore::new(StoreConfig::default()));
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

        // Capacity frees up once the held connection closes.
        drop(kept);
        std::thread::sleep(Duration::from_millis(250));
        let mut next = ContextClient::connect(addr).expect("connect");
        next.lookup(PathKey(3)).expect("served after churn");
        server.shutdown();
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
        let store = sync_store(ContextStore::new(StoreConfig::default()));
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
        let store = sync_store(ContextStore::new(StoreConfig::default()));
        let revived = ContextServer::start(addr, store).expect("rebind");
        assert!(rc.lookup(PathKey(5)).is_some(), "should reconnect");
        assert!(rc.stats().connects >= 2, "stats: {:?}", rc.stats());
        revived.shutdown();
    }

    fn start_ha_server(ha: HaOptions) -> (ContextServer, SocketAddr) {
        let store = sync_store(ContextStore::new(StoreConfig::default()));
        let server = ContextServer::start_ha("127.0.0.1:0", store, ServerConfig::default(), ha)
            .expect("bind");
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
        let (bstore, bepoch) =
            ContextStore::decode_snapshot(&backup.snapshot_blob()).expect("decode");
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
        let bstore = sync_store(ContextStore::new(StoreConfig::default()));
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
        for (frame, ty) in [(report, 3), (sync, 11)] {
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
        assert_eq!(server.stats().protocol_errors.load(Ordering::Relaxed), 2);
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    /// The fencing word's two rules, in the orderings that used to go
    /// wrong when every writer was check-then-store.
    #[test]
    fn fencing_word_only_moves_forward() {
        let ha = HaShared::new(1, Role::Primary);
        // A sync at 3 lands; a promotion decided at epoch 1 arrives late.
        assert!(ha.advance(3, Role::Backup));
        assert!(
            !ha.advance(2, Role::Primary),
            "promote(2) after a sync at 3"
        );
        assert!(
            !ha.advance(3, Role::Primary),
            "promotion needs a newer epoch"
        );
        assert!(
            ha.advance(3, Role::Backup),
            "the followed primary's next delta"
        );
        assert_eq!(ha.get(), (3, Role::Backup));

        // The replication thread read epoch 1, the operator promoted to 6,
        // then the thread's fenced reply arrives: nothing to step down from.
        let ha = HaShared::new(1, Role::Primary);
        assert!(ha.advance(6, Role::Primary));
        assert!(!ha.demote(1), "demote-at-1 after promote(6)");
        assert_eq!(ha.get(), (6, Role::Primary));
        assert!(ha.demote(6));
        assert!(!ha.demote(6), "already a backup");
        assert_eq!(ha.get(), (6, Role::Backup));

        // Two primaries at one epoch: the second one's state is fenced.
        let ha = HaShared::new(4, Role::Primary);
        assert!(!ha.admits(4, Role::Backup) && !ha.advance(4, Role::Backup));
        assert!(!ha.advance(3, Role::Backup), "a deposed primary's delta");
        assert_eq!(ha.get(), (4, Role::Primary));

        // The role's bit bounds the epoch.
        assert!(!ha.advance(MAX_EPOCH + 1, Role::Primary));
        assert!(ha.advance(MAX_EPOCH, Role::Backup));
        assert_eq!(ha.get(), (MAX_EPOCH, Role::Backup));
    }

    /// Promotions, peers' deltas and self-deposals (current and stale)
    /// race on one word while a reader watches: no interleaving may lower
    /// the epoch.
    #[test]
    fn fencing_word_never_goes_back_under_racing_writers() {
        const ROUNDS: usize = 20_000;
        let ha = HaShared::new(1, Role::Primary);
        let done = AtomicBool::new(false);
        let writers: [&(dyn Fn() -> bool + Sync); 4] = [
            &|| ha.advance(ha.epoch() + 2, Role::Primary),
            &|| ha.advance(ha.epoch() + 1, Role::Backup),
            &|| ha.demote(ha.epoch()),
            &|| ha.demote(ha.epoch().saturating_sub(1)),
        ];
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let epoch = ha.epoch();
                    assert!(epoch >= last, "epoch fell from {last} to {epoch}");
                    last = epoch;
                }
            });
            let won: usize = writers
                .map(|write| scope.spawn(move || (0..ROUNDS).filter(|_| write()).count()))
                .into_iter()
                .map(|w| w.join().expect("writer"))
                .sum();
            done.store(true, Ordering::Release);
            watcher.join().expect("watcher");
            assert!(won > 0 && ha.epoch() > 1, "no writer ever won");
        });
    }

    /// The same race through the server's own writers: an operator
    /// promoting while a peer's deltas arrive at nearby epochs. Each side
    /// used to compare and then store, so a delta checked against the old
    /// epoch could overwrite a promotion that landed in between.
    #[test]
    fn server_epoch_never_falls_when_promotions_race_deltas() {
        let (server, addr) = start_server();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| {
                let mut c = ContextClient::connect(addr).expect("connect");
                while !done.load(Ordering::Acquire) {
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
            // The peer runs until told to stop, so note a fall and stop it
            // before failing rather than panic with it still running.
            let (mut promoted, mut fell) = (0, None);
            let until = Instant::now() + Duration::from_millis(300);
            while fell.is_none() && Instant::now() < until {
                let seen = server.epoch();
                if seen < promoted {
                    fell = Some((promoted, seen));
                } else if server.promote(seen + 2) {
                    promoted = seen + 2;
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            peer.join().expect("peer");
            assert_eq!(fell, None, "epoch fell (from, to)");
        });
        server.shutdown();
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
                ..ResilienceConfig::default()
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
                ..ResilienceConfig::default()
            },
        )
        .expect("resolve");

        assert_eq!(rc.lookup(PathKey(1)), None);
        assert!(rc.breaker_open());
        assert_eq!(rc.current_cooldown(), cooldown * 2, "doubling scheduled");

        // A server appears; the half-open probe succeeds, the breaker
        // closes, and the doubling streak resets to the base cooldown.
        let store = sync_store(ContextStore::new(StoreConfig::default()));
        let server = ContextServer::start(addr, store).expect("rebind");
        std::thread::sleep(cooldown + Duration::from_millis(50));
        assert!(rc.lookup(PathKey(1)).is_some(), "probe should succeed");
        assert!(!rc.breaker_open());
        assert_eq!(rc.stats().probe_failures, 0);
        assert_eq!(rc.current_cooldown(), cooldown, "streak reset");
        server.shutdown();
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
            sync_store(restored),
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
        let (bst, _) = ContextStore::decode_snapshot(&batch_srv.snapshot_blob()).expect("decode");
        let (sst, _) = ContextStore::decode_snapshot(&single_srv.snapshot_blob()).expect("decode");
        for p in [PathKey(1), PathKey(2)] {
            assert_eq!(bst.traffic_counters(p), sst.traffic_counters(p));
            assert_eq!(bst.loss_signal(p), sst.loss_signal(p));
        }
        batch_srv.shutdown();
        single_srv.shutdown();
    }

    #[test]
    fn batch_query_peeks_without_registering_senders() {
        let (server, addr) = start_server();
        let mut c = ContextClient::connect(addr).expect("connect");
        c.report(PathKey(3), summary(4_000_000)).expect("report");

        let snaps = c
            .query_batch(&[PathKey(3), PathKey(99), PathKey(3)])
            .expect("batch query");
        assert_eq!(snaps.len(), 3);
        assert!(snaps[0].utilization > 0.0);
        assert_eq!(snaps[0], snaps[2], "same path, same reply");
        assert_eq!(snaps[1].utilization, 0.0, "unknown path reads empty");

        // Peeks left no competing-sender registrations behind.
        let after = c.lookup(PathKey(3)).expect("lookup");
        assert_eq!(after.competing, 0, "batch query must not register senders");

        // Zero-item batches are legal no-ops.
        assert_eq!(c.query_batch(&[]).expect("empty query").len(), 0);
        c.report_batch(&[]).expect("empty report");
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 1);
        server.shutdown();
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
        let items: Vec<(PathKey, FlowSummary)> =
            paths.iter().map(|&p| (p, summary(500_000))).collect();
        c.report_batch(&items).expect("batch report");

        // Every path is queryable and the merged dashboard sees them all.
        let snaps = c.query_batch(&paths).expect("batch query");
        assert!(snaps.iter().all(|s| s.utilization > 0.0));
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

    #[test]
    fn write_behind_flushes_on_count_and_age_and_demand() {
        let (server, addr) = start_server();
        let mut c = ContextClient::connect(addr).expect("connect");
        c.set_write_behind(WriteBehindConfig {
            max_items: 3,
            max_age: Duration::from_millis(80),
        });

        // Count trigger: nothing is on the server until the 3rd report.
        assert!(!c.buffer_report(PathKey(1), summary(1_000)).expect("buffer"));
        assert!(!c.buffer_report(PathKey(1), summary(2_000)).expect("buffer"));
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 0);
        assert_eq!(c.pending_reports(), 2);
        assert!(c.buffer_report(PathKey(1), summary(3_000)).expect("flush"));
        assert_eq!(c.pending_reports(), 0);
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 3);

        // Age trigger: one stale report rides out on the next buffering
        // call after the bound elapses.
        assert!(!c.buffer_report(PathKey(2), summary(4_000)).expect("buffer"));
        std::thread::sleep(Duration::from_millis(100));
        assert!(c.buffer_report(PathKey(2), summary(5_000)).expect("flush"));
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 5);

        // Explicit flush.
        assert!(!c.buffer_report(PathKey(3), summary(6_000)).expect("buffer"));
        assert_eq!(c.flush_reports().expect("flush"), 1);
        assert_eq!(c.flush_reports().expect("empty flush"), 0);
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 6);
        server.shutdown();
    }

    #[test]
    fn write_behind_drops_cleanly_when_the_plane_dies() {
        let (server, addr) = start_server();
        let mut c = ContextClient::connect_with(addr, quick_config()).expect("connect");
        c.set_write_behind(WriteBehindConfig {
            max_items: 2,
            max_age: Duration::from_secs(60),
        });
        assert!(!c.buffer_report(PathKey(1), summary(1_000)).expect("buffer"));
        server.shutdown();

        // The triggered flush fails against the dead plane; the buffer is
        // dropped (degrade), never ballooned, and the call stays bounded.
        let started = Instant::now();
        assert!(c.buffer_report(PathKey(1), summary(2_000)).is_err());
        assert!(
            started.elapsed() < quick_config().request_deadline * 3,
            "flush must stay deadline-bounded, took {:?}",
            started.elapsed()
        );
        assert_eq!(c.pending_reports(), 0, "failed flush must drop, not hold");
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
        let wb = WriteBehindConfig {
            max_items: 100,
            max_age: Duration::from_secs(60),
        };

        // Drop path: the destructor ships the buffer.
        let mut c = ContextClient::connect_with(addr, quick_config()).expect("connect");
        c.set_write_behind(wb);
        assert!(!c.buffer_report(PathKey(1), summary(1_000)).expect("buffer"));
        assert!(!c.buffer_report(PathKey(1), summary(2_000)).expect("buffer"));
        drop(c);
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 2);

        // Close path: same flush, but losses are observable.
        let mut c = ContextClient::connect_with(addr, quick_config()).expect("connect");
        c.set_write_behind(wb);
        assert!(!c.buffer_report(PathKey(2), summary(3_000)).expect("buffer"));
        assert_eq!(c.close().expect("close"), 1);
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 3);

        // Resilient wrapper, drop path.
        let mut rc = ResilientClient::with_config(
            addr,
            ResilienceConfig {
                client: quick_config(),
                ..ResilienceConfig::default()
            },
        )
        .expect("resolve");
        rc.set_write_behind(wb);
        assert!(rc.buffer_report(PathKey(3), summary(4_000)));
        drop(rc);
        assert_eq!(server.stats().reports.load(Ordering::Relaxed), 4);
        server.shutdown();
    }

    #[test]
    fn drop_flush_stays_bounded_against_a_dead_plane() {
        let (server, addr) = start_server();
        let mut c = ContextClient::connect_with(addr, quick_config()).expect("connect");
        c.set_write_behind(WriteBehindConfig {
            max_items: 100,
            max_age: Duration::from_secs(60),
        });
        assert!(!c.buffer_report(PathKey(1), summary(1_000)).expect("buffer"));
        server.shutdown();

        // The destructor's flush fails against the dead plane; it must
        // swallow the error and return within the request deadline, not
        // hang teardown.
        let started = Instant::now();
        drop(c);
        assert!(
            started.elapsed() < quick_config().request_deadline * 3,
            "drop flush must stay deadline-bounded, took {:?}",
            started.elapsed()
        );
    }
}
