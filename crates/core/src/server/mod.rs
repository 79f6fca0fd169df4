//! A real context server over TCP, and its blocking clients.
//!
//! The in-simulation hooks talk to a [`crate::context::ContextStore`]
//! directly; a production Phi deployment runs one (or a few) context
//! servers per domain. [`ContextServer`] is that service: a threaded TCP
//! server speaking the [`crate::wire`] protocol: the socket driver of one
//! replica state machine (`crate::replica`) per shard, each behind one
//! lock. It is deliberately runtime-agnostic (std::net + threads): the
//! request rate is one lookup + one report per *connection* of the data
//! plane, so a handful of OS threads is ample, and the library stays free
//! of any async-runtime dependency.
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
//! This file is the server: the shards, the accept loop and the connection
//! handler, which decodes, routes, locks, serves and encodes. `repl` is
//! the primary's replication thread. `client` is the connection: the
//! blocking [`ContextClient`] with its deadlines, poisoning, typed
//! requests and errors. `resilient` is the client policy over it, in one
//! place: [`ResilientClient`]'s retries, backoff, circuit breaker,
//! fail-over and write-behind report buffer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use phi_tcp::hook::ContextSnapshot;

use crate::context::{ContextStore, PathKey, StoreConfig};
use crate::replica::{error, Replica, MAX_EPOCH};
use crate::shard::shard_index;
use crate::wire::{code, encode, DecodeError, Decoder, Message, ReplOp, Role, MAX_FRAME};

mod client;
mod repl;
mod resilient;
#[cfg(test)]
mod tests;

pub use client::{ClientConfig, ClientError, ContextClient};
use repl::replicate_to_backups;
pub use resilient::{ResilienceConfig, ResilienceStats, ResilientClient, WriteBehindConfig};

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
    /// Times a shard was skipped on a link because its snapshot would
    /// not fit one frame (as a primary): that backup stays behind on it.
    pub repl_oversized: AtomicU64,
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

/// One shard of the serving state: a replica behind its own lock, so
/// shards fail over independently and never contend on each other's
/// locks. A classic single-store server is exactly a one-shard server.
struct Shard(Mutex<Replica>);

impl Shard {
    /// The replica. A thread that panicked while holding it may have left
    /// it half-updated, so every later user of the shard panics too.
    fn lock(&self) -> MutexGuard<'_, Replica> {
        self.0.lock().expect("a thread panicked holding this shard")
    }
}

/// A running context server.
pub struct ContextServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    repl_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stats: Arc<ServerStats>,
    shards: Arc<Vec<Shard>>,
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
    pub fn start(addr: impl ToSocketAddrs, store: ContextStore) -> std::io::Result<ContextServer> {
        Self::start_with(addr, store, ServerConfig::default())
    }

    /// [`ContextServer::start`] with explicit tuning.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        store: ContextStore,
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
        store: ContextStore,
        config: ServerConfig,
        ha: HaOptions,
    ) -> std::io::Result<ContextServer> {
        Self::launch(addr, vec![store], config, ha)
    }

    /// Start a sharded server: `shards` independent stores (at least one),
    /// each configured with `cfg`, behind its own lock, at its own epoch.
    /// Requests route by [`shard_index`]`(path, shards)`. Every shard
    /// starts as a lone primary at epoch 1; for backups, use
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
        let stores = (0..shards.max(1)).map(|_| ContextStore::new(cfg)).collect();
        Self::launch(addr, stores, config, ha)
    }

    /// One shard per store, every one starting at `ha.epoch` in `ha.role`.
    fn launch(
        addr: impl ToSocketAddrs,
        stores: Vec<ContextStore>,
        config: ServerConfig,
        ha: HaOptions,
    ) -> std::io::Result<ContextServer> {
        if ha.epoch > MAX_EPOCH {
            let why = format!("epoch {} exceeds the largest fencing token", ha.epoch);
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        let shards = stores
            .into_iter()
            .map(|store| Shard(Mutex::new(Replica::new(store, ha.epoch, ha.role))));
        let shards: Arc<Vec<Shard>> = Arc::new(shards.collect());
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
                                handlers
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(handle);
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
        self.shards[shard].lock().epoch()
    }

    /// Shard `shard`'s role.
    pub fn role_of(&self, shard: usize) -> Role {
        self.shards[shard].lock().role()
    }

    /// Promote this server to primary at `epoch`. Fails (returns `false`)
    /// unless `epoch` is strictly greater than the current one on *every*
    /// shard — the new epoch is what fences the deposed primary, so
    /// reusing the old value would invite split-brain. Every shard is
    /// locked (in index order) for the decision, so it is all or nothing.
    pub fn promote(&self, epoch: u64) -> bool {
        let mut locked: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        locked.iter().all(|r| r.beats(epoch, Role::Primary))
            && locked.iter_mut().all(|r| r.promote(epoch))
    }

    /// Promote one shard to primary at `epoch` (strictly greater than the
    /// shard's current epoch). Shards fence independently, so promoting
    /// one never touches the others.
    pub fn promote_shard(&self, shard: usize, epoch: u64) -> bool {
        self.shards[shard].lock().promote(epoch)
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
        let r = self.shards[shard].lock();
        r.store().encode_snapshot(r.epoch())
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
        // Pushing and draining leave the handler list whole at every step,
        // and `Drop` calls this, so a poisoned lock is taken as it is.
        let mut handlers = self.handlers.lock().unwrap_or_else(PoisonError::into_inner);
        let handlers = std::mem::take(&mut *handlers);
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
    let finished: Vec<_> = handlers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extract_if(.., |h| h.is_finished())
        .collect();
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
    let why = "server overloaded: connection cap reached";
    let _ = stream.write_all(&encode(&error(code::OVERLOADED, why.into())));
}

/// Count a protocol error and build the frame that answers it.
fn refuse(stats: &ServerStats, code: u16, message: String) -> Message {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    error(code, message)
}

/// Count what answering `msg` with `reply` did.
fn count(stats: &ServerStats, msg: &Message, reply: &Message) {
    let (counter, n) = match (reply, msg) {
        (Message::Error { code: c, .. }, _) if *c == code::FENCED => (&stats.fenced, 1),
        (Message::Error { .. }, _) => (&stats.protocol_errors, 1),
        (_, Message::Lookup { .. }) => (&stats.lookups, 1),
        (_, Message::BatchQuery(paths)) => (&stats.lookups, paths.len()),
        (_, Message::BatchReport(items)) => (&stats.reports, items.len()),
        (_, Message::Replicate { .. }) => (&stats.repl_applied, 1),
        (_, Message::ShardSnapshotSync { .. }) => (&stats.repl_syncs, 1),
        _ => return,
    };
    counter.fetch_add(n as u64, Ordering::Relaxed);
}

/// The whole-server view a health probe sees, most conservative first:
/// the lowest shard epoch, and primary only if every shard is (a probe
/// must not trust a half-deposed server).
fn conservative_view(shards: &[Shard]) -> (u64, Role) {
    let mut view = (MAX_EPOCH, Role::Primary);
    for r in shards.iter().map(|s| s.lock()) {
        view.0 = view.0.min(r.epoch());
        if r.role() == Role::Backup {
            view.1 = Role::Backup;
        }
    }
    view
}

/// Answer one request: hand it to the replica of the shard it routes to,
/// or split it among several and merge their answers. Every route goes
/// by [`shard_index`], so a path's store, log entries and fencing epoch
/// always live together on one shard.
fn route(shards: &[Shard], now_ns: u64, msg: &Message) -> Message {
    let n = shards.len();
    match msg {
        &Message::Lookup { path }
        | &Message::Replicate {
            op: ReplOp::Lookup { path, .. } | ReplOp::Report { path, .. },
            ..
        } => shards[shard_index(path, n)].lock().serve(now_ns, msg),
        &Message::ShardSnapshotSync { shard, .. } => match shards.get(shard as usize) {
            Some(s) => s.lock().serve(now_ns, msg),
            None => error(
                code::BAD_REQUEST,
                format!("shard {shard} out of range ({n} shards)"),
            ),
        },
        Message::BatchReport(_) | Message::BatchQuery(_) if n == 1 => {
            shards[0].lock().serve(now_ns, msg)
        }
        Message::BatchReport(items) => {
            match serve_batch(shards, now_ns, items, |&(p, _)| p, Message::BatchReport) {
                Ok(_) => Message::ReportOk,
                Err(fenced) => fenced,
            }
        }
        Message::BatchQuery(paths) => {
            match serve_batch(shards, now_ns, paths, |&p| p, Message::BatchQuery) {
                Ok(mut snaps) => {
                    snaps.sort_unstable_by_key(|&(k, _)| k);
                    Message::BatchReply(snaps.into_iter().map(|(_, s)| s).collect())
                }
                Err(fenced) => fenced,
            }
        }
        // The dashboard view spans every shard, so it is only served when
        // all of them are primary.
        &Message::Snapshot { limit } => {
            let mut paths = Vec::new();
            for s in shards {
                match s.lock().serve(now_ns, msg) {
                    Message::Paths(part) => paths.extend(part),
                    refused => return refused,
                }
            }
            paths.sort_by(|(ka, a), (kb, b)| {
                b.utilization.total_cmp(&a.utilization).then(ka.cmp(kb))
            });
            paths.truncate(usize::from(limit).min(crate::wire::MAX_SNAPSHOT_PATHS));
            Message::Paths(paths)
        }
        Message::EpochQuery => {
            let (epoch, role) = conservative_view(shards);
            Message::Epoch { epoch, role }
        }
        other => error(code::BAD_REQUEST, format!("unexpected message: {other:?}")),
    }
}

/// Serve a batch frame whose items span shards. Every shard it touches is
/// locked — in index order, so two batches never deadlock — and the first
/// that is not primary refuses the whole frame before anything is
/// applied, so the client never has to untangle a partially accepted
/// batch. Then each shard serves its share (`frame` of its items, in
/// arrival order): the log this leaves is exactly what the same items
/// sent in batches of one would leave. Returns the snapshots the shares
/// answered, each with its item's index in the frame.
fn serve_batch<T: Copy>(
    shards: &[Shard],
    now_ns: u64,
    items: &[T],
    path: impl Fn(&T) -> PathKey,
    frame: impl Fn(Vec<T>) -> Message,
) -> Result<Vec<(usize, ContextSnapshot)>, Message> {
    let n = shards.len();
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, item) in items.iter().enumerate() {
        by_shard[shard_index(path(item), n)].push(k);
    }
    let mut locked: Vec<_> = by_shard
        .into_iter()
        .zip(shards)
        .filter(|(ks, _)| !ks.is_empty())
        .map(|(ks, s)| (ks, s.lock()))
        .collect();
    if let Some((_, r)) = locked.iter_mut().find(|(_, r)| r.role() != Role::Primary) {
        // An empty share: the replica's own refusal, and nothing applied.
        return Err(r.serve(now_ns, &frame(Vec::new())));
    }
    let mut snaps = Vec::new();
    for (ks, mut r) in locked {
        let share = frame(ks.iter().map(|&k| items[k]).collect());
        if let Message::BatchReply(part) = r.serve(now_ns, &share) {
            snaps.extend(ks.into_iter().zip(part));
        }
    }
    Ok(snaps)
}

fn handle_connection(
    stream: TcpStream,
    shards: Arc<Vec<Shard>>,
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
                Ok(msg) => {
                    let reply = route(&shards, now_ns, &msg);
                    count(&stats, &msg, &reply);
                    reply
                }
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
