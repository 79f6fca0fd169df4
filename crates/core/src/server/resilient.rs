//! The self-healing client: what a sender holds, so that a context plane
//! that is slow, flapping or gone costs it context and nothing else.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phi_tcp::hook::ContextSnapshot;

use super::{ClientConfig, ClientError, ContextClient};
use crate::context::{FlowSummary, PathKey};
use crate::runpool::derive_seed;
use crate::wire::{code, Role, MAX_BATCH_ITEMS};

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

/// Tuning for the write-behind report buffer of a [`ResilientClient`].
///
/// Reports are end-of-connection telemetry, not queries: nothing blocks
/// on their reply. Buffering them and shipping one
/// [`crate::wire::Message::BatchReport`] amortizes codec and syscall cost
/// the same way the replication delta stream does. The cost is
/// staleness, and that cost is *bounded*: a buffered report is flushed no
/// later than the first `buffer_report`/`flush_reports` call after the
/// oldest entry turns `max_age` old, and no more than `max_items` reports
/// are ever held. On a flush failure the buffer is dropped, not retried —
/// a dead context plane degrades to lost telemetry, never to memory
/// growth or a stalled sender.
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

/// The write-behind report buffer: what is waiting, since when, and the
/// bounds that say when it must go. It reads no clock; the caller passes
/// the time.
#[derive(Default)]
struct WriteBehind {
    cfg: WriteBehindConfig,
    pending: Vec<(PathKey, FlowSummary)>,
    /// When the oldest entry in `pending` was buffered (the staleness
    /// clock).
    oldest: Option<Instant>,
}

impl WriteBehind {
    /// Buffer one report at `now`; `true` when the count or the age
    /// bound is reached and the caller must flush.
    fn push(&mut self, now: Instant, path: PathKey, summary: FlowSummary) -> bool {
        let oldest = *self.oldest.get_or_insert(now);
        self.pending.push((path, summary));
        self.pending.len() >= self.cfg.max_items.clamp(1, MAX_BATCH_ITEMS)
            || now.saturating_duration_since(oldest) >= self.cfg.max_age
    }

    /// Empty the buffer and stop its clock; the caller ships what it held.
    fn take(&mut self) -> Vec<(PathKey, FlowSummary)> {
        self.oldest = None;
        std::mem::take(&mut self.pending)
    }
}

/// A self-healing context-plane client embodying the §2.2.2 contract:
/// **the context plane may fail; the sender must not.**
///
/// Wraps [`ContextClient`] with bounded reconnects, exponential backoff
/// with per-client jitter, a circuit breaker and a write-behind report
/// buffer ([`WriteBehindConfig`]). All methods are
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
            jitter: jitter_seed(),
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

    /// Buffer a report for a later batched flush, bounded by the
    /// configured [`WriteBehindConfig`] staleness bound. Returns `false`
    /// only when this call triggered a flush and that flush failed (the
    /// buffered reports are then dropped — a dead plane costs telemetry,
    /// never memory or data-path stalls: the breaker short-circuits the
    /// flush without touching the network).
    pub fn buffer_report(&mut self, path: PathKey, summary: FlowSummary) -> bool {
        !self.buffer.push(Instant::now(), path, summary) || self.flush_reports()
    }

    /// Flush every buffered report now; `true` when nothing was lost
    /// (including the empty-buffer case). The buffer empties either way.
    pub fn flush_reports(&mut self) -> bool {
        let items = self.buffer.take();
        self.report_batch(&items)
    }

    /// Reports currently held by the write-behind buffer.
    pub fn pending_reports(&self) -> usize {
        self.buffer.pending.len()
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

    /// Exponential backoff with jitter in `[0.5, 1.0]` of the capped
    /// exponential term (this client's xorshift64 stream, see
    /// [`jitter_seed`], so a fleet of clients decorrelates).
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

/// A fresh xorshift64 seed for each client built in this process: the
/// process id and a per-process client count, mixed. Clients in one
/// process, and the same client number in two processes, back off on
/// different schedules.
fn jitter_seed() -> u64 {
    static CLIENTS: AtomicU64 = AtomicU64::new(0);
    let n = CLIENTS.fetch_add(1, Ordering::Relaxed);
    derive_seed(u64::from(std::process::id()), n) | 1
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

    fn report(i: u64) -> (PathKey, FlowSummary) {
        (
            PathKey(i),
            FlowSummary {
                bytes: 1_000 * i,
                duration_ns: 1_000_000_000,
                mean_rtt_ms: 170.0,
                min_rtt_ms: 150.0,
                retransmits: 0,
                timeouts: 0,
            },
        )
    }

    fn buffer(max_items: usize, max_age: Duration) -> WriteBehind {
        WriteBehind {
            cfg: WriteBehindConfig { max_items, max_age },
            ..WriteBehind::default()
        }
    }

    #[test]
    fn write_behind_is_due_at_the_count_bound() {
        let t0 = Instant::now();
        let mut wb = buffer(3, Duration::from_secs(60));
        let (p, s) = report(1);
        assert!(!wb.push(t0, p, s));
        assert!(!wb.push(t0, p, s));
        assert!(wb.push(t0, p, s), "the third report reaches max_items");
        assert_eq!(wb.take().len(), 3);
        assert!(wb.pending.is_empty());
    }

    #[test]
    fn write_behind_is_due_when_the_oldest_report_reaches_max_age() {
        let max_age = Duration::from_millis(80);
        let t0 = Instant::now();
        let mut wb = buffer(100, max_age);
        let (p, s) = report(2);
        assert!(!wb.push(t0, p, s));
        // The bound is on the oldest report, not the newest.
        assert!(!wb.push(t0 + max_age / 2, p, s));
        assert!(!wb.push(t0 + max_age - Duration::from_nanos(1), p, s));
        assert!(wb.push(t0 + max_age, p, s), "the oldest is max_age old");
        assert_eq!(wb.take().len(), 4);
    }

    #[test]
    fn clients_in_one_process_start_different_jitter_streams() {
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let mut a = ResilientClient::multi(vec![addr], ResilienceConfig::default());
        let mut b = ResilientClient::multi(vec![addr], ResilienceConfig::default());
        assert_ne!(a.jitter, b.jitter);
        let first = |c: &mut ResilientClient| (1..=4).map(|k| c.backoff(k)).collect::<Vec<_>>();
        assert_ne!(first(&mut a), first(&mut b), "same backoff schedule");
    }

    #[test]
    fn write_behind_take_empties_and_restarts_the_clock() {
        let max_age = Duration::from_millis(80);
        let t0 = Instant::now();
        let mut wb = buffer(100, max_age);
        let (p, s) = report(3);
        assert!(!wb.push(t0, p, s));
        assert_eq!(wb.take(), vec![(p, s)]);
        assert!(wb.take().is_empty(), "a second take ships nothing");
        // The next report starts a new clock: ten bounds later it is the
        // oldest, and it is not yet due.
        assert!(!wb.push(t0 + max_age * 10, p, s));
        assert!(wb.push(t0 + max_age * 11, p, s));
    }
}
