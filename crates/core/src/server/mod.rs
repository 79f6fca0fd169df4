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
//!
//! ## Layout
//!
//! This file is the server: shards, the fencing word, the accept loop and
//! the connection handler. `repl` is the primary's replication thread and
//! its log, `client` the blocking [`ContextClient`] with its errors,
//! configs and write-behind buffer, `resilient` the self-healing
//! [`ResilientClient`] over it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use phi_tcp::hook::ContextSnapshot;

use crate::context::{ContextStore, PathKey, SnapshotError, StoreConfig};
use crate::shard::shard_index;
use crate::wire::{code, encode, DecodeError, Decoder, Message, ReplOp, Role, MAX_FRAME};

mod client;
mod repl;
mod resilient;
#[cfg(test)]
mod tests;

pub use client::{ClientConfig, ClientError, ContextClient, WriteBehindConfig};
use repl::{replicate_to_backups, ReplLog};
pub use resilient::{ResilienceConfig, ResilienceStats, ResilientClient};

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

/// Size of a connection's read buffer, on either end: the largest frame
/// with its length prefix, so that one `read` can take a whole frame (a
/// full batch is 49 KB) instead of a page at a time.
const READ_BUF_LEN: usize = 4 + MAX_FRAME;

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
    let mut buf = vec![0u8; READ_BUF_LEN];

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
