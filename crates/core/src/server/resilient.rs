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
    /// Closed → open breaker transitions.
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

/// The circuit breaker: `breaker_threshold` failed requests in a row open
/// it until `open_until`, the first request at or after that is the
/// half-open probe, and any answer closes it. It reads no clock; each
/// method takes the caller's `now`, as the replica takes `now_ns`.
#[derive(Debug, Default)]
struct Breaker {
    /// Requests in a row that exhausted every retry.
    consecutive_failures: u32,
    /// Set from the first trip until the plane answers again.
    open_until: Option<Instant>,
    /// Consecutive open periods without a successful probe; the cooldown
    /// doubles with each (bounded by `breaker_cooldown_max`).
    open_streak: u32,
}

impl Breaker {
    /// Whether a request at `now` is answered "no context" unsent.
    fn is_open(&self, now: Instant) -> bool {
        self.open_until.is_some_and(|t| now < t)
    }

    /// `breaker_cooldown * 2^open_streak`, capped at
    /// `breaker_cooldown_max`: the length of the next open period.
    fn cooldown(&self, cfg: &ResilienceConfig) -> Duration {
        let doubled = cfg
            .breaker_cooldown
            .saturating_mul(1u32 << self.open_streak.min(16));
        doubled.min(cfg.breaker_cooldown_max)
    }

    /// The plane answered: close, and forget the failures and the streak.
    fn close(&mut self) {
        *self = Breaker::default();
    }

    /// A request exhausted its retries at `now`. A failed half-open probe
    /// re-opens the breaker, and reaching `breaker_threshold` trips it;
    /// either way it stays open for [`Breaker::cooldown`].
    fn fail(&mut self, now: Instant, cfg: &ResilienceConfig, stats: &mut ResilienceStats) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.open_until.is_some() {
            stats.probe_failures += 1;
        } else if self.consecutive_failures >= cfg.breaker_threshold {
            stats.breaker_trips += 1;
        } else {
            return;
        }
        self.open_until = Some(now + self.cooldown(cfg));
        self.open_streak = self.open_streak.saturating_add(1);
    }
}

/// A self-healing context-plane client embodying the §2.2.2 contract:
/// **the context plane may fail; the sender must not.**
///
/// Wraps [`ContextClient`] with bounded reconnects, exponential backoff
/// with per-client jitter, and a circuit breaker. Every request goes out
/// when it is made; a caller batches reports with
/// [`ResilientClient::report_batch`]. All methods are infallible: any
/// exhausted failure degrades to "no context" (`None` / `false`), which
/// callers map to vanilla-TCP behaviour — never an error the data path
/// has to handle, never an unbounded block.
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
    breaker: Breaker,
    jitter: u64,
    stats: ResilienceStats,
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
            breaker: Breaker::default(),
            jitter: jitter_seed(),
            stats: ResilienceStats::default(),
        }
    }

    /// Failure-handling counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Whether the circuit breaker is currently open (requests are
    /// short-circuited to "no context" until the cooldown elapses).
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open(Instant::now())
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

    /// Run one typed request against the current endpoint with all of
    /// this client's own machinery around it: breaker, bounded retries
    /// with backoff, reconnect, fail-over. `None` is "no context".
    fn call<T>(
        &mut self,
        request: impl Fn(&mut ContextClient) -> Result<T, ClientError>,
    ) -> Option<T> {
        self.stats.requests += 1;
        if self.breaker.is_open(Instant::now()) {
            self.stats.short_circuited += 1;
            return None;
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
        self.stats.failures += 1;
        self.breaker
            .fail(Instant::now(), &self.config, &mut self.stats);
        None
    }

    /// The plane answered: close the breaker.
    fn answered<T>(&mut self, answer: Option<T>) -> Option<T> {
        self.breaker.close();
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

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_secs(1);

    fn config() -> ResilienceConfig {
        ResilienceConfig {
            breaker_threshold: 3,
            breaker_cooldown: COOLDOWN,
            breaker_cooldown_max: COOLDOWN * 5,
            ..ResilienceConfig::default()
        }
    }

    /// A breaker tripped at `t0` by `breaker_threshold` failures.
    fn tripped(t0: Instant, stats: &mut ResilienceStats) -> Breaker {
        let mut b = Breaker::default();
        for _ in 0..config().breaker_threshold {
            b.fail(t0, &config(), stats);
        }
        b
    }

    #[test]
    fn breaker_trips_at_the_threshold() {
        let t0 = Instant::now();
        let mut stats = ResilienceStats::default();
        let mut b = Breaker::default();
        b.fail(t0, &config(), &mut stats);
        b.fail(t0, &config(), &mut stats);
        assert!(!b.is_open(t0), "two failures are under the threshold");
        b.fail(t0, &config(), &mut stats);
        assert!(b.is_open(t0));
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.probe_failures, 0);
    }

    #[test]
    fn breaker_short_circuits_until_the_cooldown_runs_out() {
        let t0 = Instant::now();
        let b = tripped(t0, &mut ResilienceStats::default());
        assert!(b.is_open(t0 + COOLDOWN / 2));
        assert!(b.is_open(t0 + COOLDOWN - Duration::from_nanos(1)));
    }

    #[test]
    fn breaker_goes_half_open_exactly_at_open_until() {
        let t0 = Instant::now();
        let b = tripped(t0, &mut ResilienceStats::default());
        assert_eq!(b.open_until, Some(t0 + COOLDOWN));
        assert!(
            !b.is_open(t0 + COOLDOWN),
            "the probe goes out at open_until"
        );
    }

    #[test]
    fn failed_probes_double_the_cooldown_up_to_the_cap() {
        let mut now = Instant::now();
        let mut stats = ResilienceStats::default();
        let mut b = tripped(now, &mut stats);
        // Each probe fails the moment the breaker goes half-open.
        for want in [2, 4, 5, 5] {
            now = b.open_until.expect("open");
            assert!(!b.is_open(now));
            b.fail(now, &config(), &mut stats);
            assert_eq!(b.open_until, Some(now + COOLDOWN * want));
        }
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.probe_failures, 4);
        assert_eq!(b.cooldown(&config()), COOLDOWN * 5);
    }

    #[test]
    fn a_successful_probe_resets_the_streak_to_the_base_cooldown() {
        let t0 = Instant::now();
        let mut stats = ResilienceStats::default();
        let mut b = tripped(t0, &mut stats);
        let t1 = t0 + COOLDOWN;
        b.fail(t1, &config(), &mut stats);
        assert_eq!(b.cooldown(&config()), COOLDOWN * 4);
        b.close();
        assert_eq!(b.cooldown(&config()), COOLDOWN);
        assert!(!b.is_open(t1));
        // Closed again: it takes a full threshold of failures to re-trip,
        // and the new period is the base cooldown.
        let t2 = t1 + COOLDOWN;
        b.fail(t2, &config(), &mut stats);
        b.fail(t2, &config(), &mut stats);
        assert!(!b.is_open(t2));
        b.fail(t2, &config(), &mut stats);
        assert_eq!(b.open_until, Some(t2 + COOLDOWN));
        assert_eq!(stats.breaker_trips, 2);
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
}
