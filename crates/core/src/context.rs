//! The shared congestion context and the store that maintains it.
//!
//! The paper characterizes the *congestion context* of a path by three
//! quantities (§2.2.2): bottleneck **utilization** `u`, **queue occupancy**
//! `q`, and the number of **competing senders** `n`. A per-domain *context
//! server* maintains these from minimal sender traffic: one **lookup** when
//! a connection starts and one **report** when it ends.
//!
//! [`ContextStore`] is that repository, independent of any transport or
//! clock source (timestamps are plain nanoseconds so the same store backs
//! both the in-simulation hooks and the real TCP server):
//!
//! * `n` — connections that have looked up but not yet reported;
//! * `u` — windowed aggregate of reported delivery rates divided by the
//!   path's capacity (configured, or learned as the largest windowed rate
//!   ever observed);
//! * `q` — an EWMA of reported RTT inflation (mean RTT − min RTT), the
//!   same signal Remy's delay feature uses.
//!
//! The estimates are exactly as fresh as connection turnover — that is the
//! paper's deliberate practicality trade-off, quantified by the
//! `exp_ablation` bench.

use std::cmp::Reverse;
use std::collections::{vec_deque, VecDeque};

use phi_sim::packet::{IdHash, IdMap};
use phi_tcp::hook::ContextSnapshot;
use serde::{Deserialize, Serialize};

/// Identifies one network path class (e.g. a destination /24) whose flows
/// are assumed to share a bottleneck (§2.1's spatio-temporal granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PathKey(pub u64);

/// What a sender reports when a connection ends — the wire-level subset of
/// a `FlowReport`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Bytes the connection delivered.
    pub bytes: u64,
    /// Connection duration, nanoseconds. A report delivers at
    /// `8·bytes / duration_ns` over `[end − duration_ns, end]`; with a zero
    /// duration that rate is undefined, so the report adds nothing to the
    /// utilization estimate (it still counts, releases its slot and feeds
    /// the queue and loss estimates).
    pub duration_ns: u64,
    /// Mean RTT over the connection, milliseconds.
    pub mean_rtt_ms: f64,
    /// Minimum RTT over the connection, milliseconds.
    pub min_rtt_ms: f64,
    /// Segments retransmitted.
    pub retransmits: u32,
    /// RTO episodes.
    pub timeouts: u32,
}

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Sliding window over which delivery rates are aggregated, nanoseconds.
    pub window_ns: u64,
    /// Known path capacity in bits/s; `None` learns it as the maximum
    /// windowed aggregate rate observed.
    pub capacity_bps: Option<f64>,
    /// EWMA smoothing for the queue-inflation estimate.
    pub queue_alpha: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            window_ns: 10_000_000_000, // 10 s
            capacity_bps: None,
            queue_alpha: 0.3,
        }
    }
}

/// Fixed-point scale of the index's bit counts and rates (Q56). A rate is
/// floored to 2⁻⁵⁶ bit/ns, so a report that began `t` ns before the horizon
/// is off by less than `t·2⁻⁵⁶` bits.
const FRAC_BITS: u32 = 56;

/// A report's index terms: Q56 bits, Q56 rate in bits/ns, and its true
/// start `end − dur` as a wrapping `u128` (negative when `dur > end`).
/// `None` for a zero-duration report, which contributes nothing.
fn terms(end: u64, bytes: u64, dur: u64) -> Option<(u128, u128, u128)> {
    if dur == 0 {
        return None;
    }
    // 8·bytes < 2⁶⁷, so the shifted value fits with room to spare.
    let bits = (u128::from(bytes) * 8) << FRAC_BITS;
    let start = u128::from(end).wrapping_sub(u128::from(dur));
    Some((bits, bits / u128::from(dur), start))
}

/// How many entries a [`StartQueue`] keeps in its one sorted run before it
/// spreads them over buckets: below this an insertion moves less memory
/// than a bucket costs to allocate, and a shallow path's whole queue is
/// one `Vec`.
const ONE_RUN: usize = 32;

/// What an indexed path's deque keeps free after a drain, at least: a
/// quarter of its capacity (see [`PathState::prune_indexed`]).
const SLACK: usize = 4;

/// A [`StartQueue`] entry: a report's start, and its rate as low and high
/// half — 24 bytes, where a `u128`'s alignment would make it 32.
type Waiting = (u64, [u64; 2]);

fn halves(rate: u128) -> [u64; 2] {
    [rate as u64, (rate >> 64) as u64]
}

/// Reports that have not begun by the horizon, as `(start, rate)`.
///
/// Starts arrive in no order and leave in order, by a horizon that only
/// moves forward, into sums that do not care in which order they are
/// added. So entries wait *unsorted* in buckets of start time, and only
/// the bucket the horizon is in is ever sorted — once, when the horizon
/// enters it. A push is an append and a pop is a `Vec::pop`, however many
/// wait.
#[derive(Debug, Clone)]
struct StartQueue {
    /// A bucket is `2^shift` ns of start time: the window split into 256,
    /// rounded up to a power of two (2²² ns ≈ 4.2 ms for a 1 s window).
    /// Waiting starts lie within one window of the horizon, so there are
    /// never more than 258 buckets, and at 40 000 reports a second the one
    /// being sorted holds about 80 entries.
    shift: u32,
    /// Every entry of bucket `reach` and below, latest start first.
    front: Vec<Waiting>,
    reach: u64,
    /// The buckets after `reach` in arrival order: `later[i]` is bucket
    /// `reach + 1 + i`, and the last one is never empty.
    later: VecDeque<Vec<Waiting>>,
}

impl StartQueue {
    fn new(window_ns: u64) -> Self {
        StartQueue {
            shift: u64::BITS - (window_ns >> 8).leading_zeros(),
            front: Vec::new(),
            reach: 0,
            later: VecDeque::new(),
        }
    }

    fn push(&mut self, start: u64, rate: u128) {
        let bucket = start >> self.shift;
        if bucket > self.reach {
            if !self.later.is_empty() || self.front.len() >= ONE_RUN {
                return self.file(bucket, (start, halves(rate)));
            }
            // Nothing is bucketed and the run is short: it reaches further.
            self.reach = bucket;
        }
        let at = self.front.partition_point(|&(s, _)| s > start);
        self.front.insert(at, (start, halves(rate)));
        if self.front.len() > ONE_RUN {
            self.spill();
        }
    }

    /// Append to a bucket after `reach`.
    fn file(&mut self, bucket: u64, entry: Waiting) {
        let i = (bucket - self.reach - 1) as usize;
        if i >= self.later.len() {
            self.later.resize_with(i + 1, Vec::new);
        }
        self.later[i].push(entry);
    }

    /// Hand the run over to buckets: keep the earliest bucket in `front`
    /// and file the rest under `later`. A run of one bucket stays.
    #[cold]
    fn spill(&mut self) {
        let &(earliest, _) = self.front.last().expect("a run over the limit");
        let reach = earliest >> self.shift;
        if self.front[0].0 >> self.shift == reach {
            return;
        }
        // `later[0]` is still to be the bucket after `reach`.
        if !self.later.is_empty() {
            for _ in reach..self.reach {
                self.later.push_front(Vec::new());
            }
        }
        self.reach = reach;
        let keep_from = self
            .front
            .partition_point(|&(start, _)| start >> self.shift > self.reach);
        let kept = self.front.split_off(keep_from);
        for entry in std::mem::replace(&mut self.front, kept) {
            self.file(entry.0 >> self.shift, entry);
        }
    }

    /// Remove every entry with `start <= h` and return what they add to
    /// [`RateIndex`]'s `slope` and `offset`: Σ rate and Σ rate·start.
    fn take_begun(&mut self, h: u64) -> (u128, u128) {
        let (mut slope, mut offset) = (0u128, 0u128);
        loop {
            while let Some(&(start, rate)) = self.front.last() {
                if start > h {
                    return (slope, offset);
                }
                self.front.pop();
                let rate = u128::from(rate[0]) | u128::from(rate[1]) << 64;
                slope = slope.wrapping_add(rate);
                offset = offset.wrapping_add(rate.wrapping_mul(u128::from(start)));
            }
            // The run is used up: the next bucket becomes the run, if the
            // horizon has reached it.
            let horizon_in = h >> self.shift;
            if self.later.is_empty() || self.reach >= horizon_in {
                return (slope, offset);
            }
            self.reach += 1;
            self.front = self.later.pop_front().expect("checked above");
            // A bucket wholly behind the horizon leaves in one go, in any
            // order; only one the horizon stands in is popped in part.
            if self.reach == horizon_in {
                self.front
                    .sort_unstable_by_key(|&(start, _)| Reverse(start));
            }
        }
    }
}

/// Running sums that answer "bits delivered after `horizon`" without
/// walking the window (DESIGN.md, "Windowed-rate index").
///
/// A report spreads its bits evenly over `[start, end]`, so of the reports
/// still in the window (`end > horizon`) the bits *before* the horizon are
/// `Σ rate·(horizon − start)` over those that began by then, which is
/// `horizon·slope − offset`. Everything is an exact integer mod 2¹²⁸:
/// expiry subtracts precisely what classification added, so the answer
/// depends only on what is in the window relative to the horizon — not
/// on when, or whether, earlier questions were asked.
///
/// Derived from [`PathState::recent`] alone and rebuilt from it on demand:
/// never serialized, never compared.
#[derive(Debug, Clone)]
struct RateIndex {
    /// Horizon the sums stand at; it only moves forward.
    horizon: u64,
    /// How many entries at the front of `recent` have been subtracted
    /// again (`end <= horizon`), and how many have been added at all.
    /// `expired <= classified <= recent.len()`.
    expired: usize,
    classified: usize,
    /// Σ bits over classified reports still in the window.
    total: u128,
    /// Σ rate and Σ rate·start over those of them that began by `horizon`.
    slope: u128,
    offset: u128,
    /// The others, waiting for the horizon to reach them.
    pending: StartQueue,
}

impl RateIndex {
    /// The index of an empty window, its horizon at time zero.
    fn new(window_ns: u64) -> Self {
        RateIndex {
            horizon: 0,
            expired: 0,
            classified: 0,
            total: 0,
            slope: 0,
            offset: 0,
            pending: StartQueue::new(window_ns),
        }
    }

    fn straddle(&mut self, rate: u128, start: u128) {
        self.slope = self.slope.wrapping_add(rate);
        self.offset = self.offset.wrapping_add(rate.wrapping_mul(start));
    }

    /// Move the horizon forward to `h`: reports that have begun by `h`
    /// start losing bits to it, reports that have ended by `h` leave.
    fn advance(&mut self, recent: &VecDeque<(u64, u64, u64)>, h: u64) {
        debug_assert!(h >= self.horizon, "the index cannot move back");
        self.horizon = h;
        let (slope, offset) = self.pending.take_begun(h);
        self.slope = self.slope.wrapping_add(slope);
        self.offset = self.offset.wrapping_add(offset);
        for &(end, bytes, dur) in recent.range(self.expired..self.classified) {
            if end > h {
                break;
            }
            self.expired += 1;
            // `start <= end <= h`: the sweep above has already moved it
            // out of `pending`, so all three sums hold its terms.
            if let Some((bits, rate, start)) = terms(end, bytes, dur) {
                self.total = self.total.wrapping_sub(bits);
                self.slope = self.slope.wrapping_sub(rate);
                self.offset = self.offset.wrapping_sub(rate.wrapping_mul(start));
            }
        }
    }

    /// Take in the reports that arrived since the last question. Call
    /// after [`RateIndex::advance`] to the same horizon.
    fn classify(&mut self, recent: &VecDeque<(u64, u64, u64)>) {
        let h = self.horizon;
        for &(end, bytes, dur) in recent.range(self.classified..) {
            if end <= h {
                // Ends are ordered, so everything before it has expired
                // too: it is skipped rather than added and subtracted.
                self.expired += 1;
                continue;
            }
            let Some((bits, rate, start)) = terms(end, bytes, dur) else {
                continue;
            };
            self.total = self.total.wrapping_add(bits);
            match end.checked_sub(dur) {
                Some(begins) if begins > h => self.pending.push(begins, rate),
                _ => self.straddle(rate, start),
            }
        }
        self.classified = recent.len();
    }

    /// Q56 bits delivered after the horizon by the classified reports.
    fn bits_in_window(&self) -> u128 {
        let before = u128::from(self.horizon)
            .wrapping_mul(self.slope)
            .wrapping_sub(self.offset);
        self.total.wrapping_sub(before)
    }
}

/// Per-path shared state.
#[derive(Debug, Clone)]
struct PathState {
    /// Connections that looked up but have not reported back.
    active: u32,
    /// Reports as (end_ns, bytes, duration_ns), `end_ns` ascending. A path
    /// without an index expires before it appends, so its deque holds one
    /// window; one with an index appends until the deque is full (see
    /// `prune_indexed`), so expired reports may wait at its front. `==`
    /// and the snapshot read only [`PathState::live`].
    recent: VecDeque<(u64, u64, u64)>,
    /// The path's clock: the last `end_ns` in `recent` (0 when empty).
    /// Reports and rate questions are never timed before it, and what
    /// ended by `clock − window` has expired, left `recent` or not. Kept
    /// beside the counters because the deque's back is a cache miss away,
    /// and `report` would wait for it.
    clock: u64,
    /// EWMA of RTT inflation, ms.
    queue_ms: Option<f64>,
    /// Smallest RTT ever reported, ms.
    min_rtt_ms: Option<f64>,
    /// Learned capacity (max windowed rate), bits/s.
    learned_capacity: f64,
    /// Total reports folded in.
    reports: u64,
    /// Total lookups served.
    lookups: u64,
    /// Windowed loss signal: (retransmits, segments-ish) from reports.
    retx_ewma: Option<f64>,
    /// Sums over `recent`, built when a rate is asked for and dropped once
    /// cheaper to rebuild than to keep (`prune_indexed`), so a path that is
    /// only ever reported to (capacity configured) never carries one.
    index: Option<Box<RateIndex>>,
}

impl PathState {
    /// Equality of the logical state under `window_ns`. `clock` follows
    /// from the live reports; the index, and the expired reports an
    /// indexed deque still holds, follow from which questions were asked,
    /// so two equal paths may differ in them.
    fn same_as(&self, other: &Self, window_ns: u64) -> bool {
        let PathState {
            active,
            recent: _,
            queue_ms,
            min_rtt_ms,
            learned_capacity,
            reports,
            lookups,
            retx_ewma,
            clock: _,
            index: _,
        } = self;
        *active == other.active
            && self.live(window_ns).eq(other.live(window_ns))
            && *queue_ms == other.queue_ms
            && *min_rtt_ms == other.min_rtt_ms
            && *learned_capacity == other.learned_capacity
            && *reports == other.reports
            && *lookups == other.lookups
            && *retx_ewma == other.retx_ewma
    }

    /// The reports still in the window as of the path's clock: `recent`
    /// without the expired ones an indexed deque may hold at its front.
    fn live(&self, window_ns: u64) -> vec_deque::Iter<'_, (u64, u64, u64)> {
        let horizon = self.clock.saturating_sub(window_ns);
        let expired = self.recent.partition_point(|&(end, _, _)| end <= horizon);
        self.recent.range(expired..)
    }

    fn new() -> Self {
        PathState {
            active: 0,
            recent: VecDeque::new(),
            queue_ms: None,
            min_rtt_ms: None,
            learned_capacity: 0.0,
            reports: 0,
            lookups: 0,
            retx_ewma: None,
            clock: 0,
            index: None,
        }
    }

    /// Aggregate delivery rate over `[now - window, now]`, bits/s.
    fn windowed_rate(&mut self, now_ns: u64, window_ns: u64) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        let now = now_ns.max(self.clock);
        let horizon = now.saturating_sub(window_ns);
        // A question timed before the previous one (both after the latest
        // report): the sums cannot be unwound, so start them over.
        if self.index.as_ref().is_some_and(|ix| horizon < ix.horizon) {
            self.index = None;
        }
        let ix = self
            .index
            .get_or_insert_with(|| Box::new(RateIndex::new(window_ns)));
        ix.advance(&self.recent, horizon);
        ix.classify(&self.recent);
        let bits = ix.bits_in_window() as f64 / (1u64 << FRAC_BITS) as f64;
        let denom_ns = window_ns.min(now.max(1));
        bits / (denom_ns as f64 / 1e9)
    }

    /// Pop the reports that ended at or before `horizon`; how many.
    #[inline]
    fn forget(&mut self, horizon: u64) -> usize {
        let mut popped = 0;
        while matches!(self.recent.front(), Some(&(end, _, _)) if end <= horizon) {
            self.recent.pop_front();
            popped += 1;
        }
        if self.recent.is_empty() {
            self.clock = 0;
        }
        popped
    }

    /// Drain the full deque of a path that carries an index: every
    /// report that ended at or before `horizon` leaves, in one run, and
    /// at least a [`SLACK`]th of the deque is left free, so the next run
    /// is that many reports away. Between runs, reports only append and
    /// only questions advance the index.
    #[inline(never)]
    fn prune_indexed(&mut self, horizon: u64) {
        let Some(mut ix) = self.index.take() else {
            return;
        };
        // The index must have let go of a report before the deque does.
        if horizon > ix.horizon {
            ix.advance(&self.recent, horizon);
        }
        let popped = self.forget(horizon);
        ix.expired = ix.expired.saturating_sub(popped);
        ix.classified = ix.classified.saturating_sub(popped);
        // Keeping the index current costs a report about what classifying
        // one costs a question. Once as many reports wait for it as it
        // still holds, the next question would rather start over — and
        // until then reports expire before they append.
        if ix.classified - ix.expired > self.recent.len() - ix.classified {
            self.recent.reserve(self.recent.capacity() / SLACK);
            self.index = Some(ix);
        }
    }

    /// The context a sender is told.
    fn context(&mut self, now_ns: u64, cfg: &StoreConfig) -> ContextSnapshot {
        let rate = self.windowed_rate(now_ns, cfg.window_ns);
        let capacity = cfg.capacity_bps.unwrap_or(self.learned_capacity).max(1.0);
        ContextSnapshot {
            utilization: (rate / capacity).clamp(0.0, 1.0),
            queue_ms: self.queue_ms.unwrap_or(0.0),
            competing: self.active,
        }
    }
}

/// The context server's repository of shared per-path state.
///
/// ```
/// use phi_core::context::{ContextStore, FlowSummary, PathKey, StoreConfig};
///
/// let mut store = ContextStore::new(StoreConfig {
///     window_ns: 10_000_000_000,
///     capacity_bps: Some(10_000_000.0), // the provider knows its capacity
///     queue_alpha: 0.3,
/// });
/// let path = PathKey(42);
///
/// // A connection starts: look up the context (and register as active).
/// let ctx = store.lookup(path, 1_000_000_000);
/// assert_eq!(ctx.competing, 0);
///
/// // ...it transfers 5 MB in 4 s, then reports back.
/// store.report(path, 5_000_000_000, &FlowSummary {
///     bytes: 5_000_000,
///     duration_ns: 4_000_000_000,
///     mean_rtt_ms: 170.0,
///     min_rtt_ms: 150.0,
///     retransmits: 0,
///     timeouts: 0,
/// });
///
/// // The next connection sees the shared picture.
/// let ctx = store.peek(path, 5_000_000_000);
/// assert!(ctx.utilization > 0.3); // 40 Mbit over a 10 s window on 10 Mbit/s
/// assert!((ctx.queue_ms - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ContextStore {
    cfg: StoreConfig,
    paths: IdMap<PathKey, PathState>,
}

impl PartialEq for ContextStore {
    /// Equality of what the stores show: same configuration, same paths,
    /// each in the same logical state.
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.paths.len() == other.paths.len()
            && self.paths.iter().all(|(key, st)| {
                other
                    .paths
                    .get(key)
                    .is_some_and(|o| st.same_as(o, self.cfg.window_ns))
            })
    }
}

impl ContextStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        ContextStore {
            cfg,
            paths: IdMap::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Serve a connection-start lookup: returns the current context for
    /// `path` and registers one more active sender on it.
    ///
    /// Each path keeps a monotone clock, its latest report's time: a
    /// `now_ns` before it (a server thread that read the time and then
    /// waited for the lock) is answered as of that report.
    pub fn lookup(&mut self, path: PathKey, now_ns: u64) -> ContextSnapshot {
        let st = self.paths.entry(path).or_insert_with(PathState::new);
        let snap = st.context(now_ns, &self.cfg);
        st.active += 1;
        st.lookups += 1;
        snap
    }

    /// Read the current context without registering a sender (monitoring).
    ///
    /// Takes `&mut self` because answering brings the path's rate index up
    /// to `now_ns`; nothing a snapshot, a replica or `==` can see changes.
    pub fn peek(&mut self, path: PathKey, now_ns: u64) -> ContextSnapshot {
        match self.paths.get_mut(&path) {
            Some(st) => st.context(now_ns, &self.cfg),
            None => ContextSnapshot {
                utilization: 0.0,
                queue_ms: 0.0,
                competing: 0,
            },
        }
    }

    /// Fold in a connection-end report and release its active slot.
    ///
    /// The report ends at `now_ns`, or at the path's latest report if
    /// that is later (see [`ContextStore::lookup`]), so a path's reports
    /// are always stored in the order they end.
    pub fn report(&mut self, path: PathKey, now_ns: u64, summary: &FlowSummary) {
        let window = self.cfg.window_ns;
        let alpha = self.cfg.queue_alpha;
        let capacity_cfgd = self.cfg.capacity_bps.is_some();
        let st = self.paths.entry(path).or_insert_with(PathState::new);
        st.active = st.active.saturating_sub(1);
        st.reports += 1;
        let now_ns = now_ns.max(st.clock);
        let horizon = now_ns.saturating_sub(window);
        // A path without an index expires first and appends into the slot
        // that frees; one with an index appends until its deque is full.
        if st.index.is_none() {
            st.forget(horizon);
        } else if st.recent.len() == st.recent.capacity() {
            st.prune_indexed(horizon);
        }
        // Under a zero window a report has expired as it arrives.
        if now_ns > horizon {
            st.recent
                .push_back((now_ns, summary.bytes, summary.duration_ns));
            st.clock = now_ns;
        }

        // Queue estimate: RTT inflation over the path minimum (§2.2.2 —
        // "the difference between the current RTT and the minimum RTT would
        // give an indication of q").
        if summary.min_rtt_ms > 0.0 {
            st.min_rtt_ms = Some(match st.min_rtt_ms {
                None => summary.min_rtt_ms,
                Some(m) => m.min(summary.min_rtt_ms),
            });
        }
        if let Some(base) = st.min_rtt_ms {
            if summary.mean_rtt_ms > 0.0 {
                let inflation = (summary.mean_rtt_ms - base).max(0.0);
                st.queue_ms = Some(match st.queue_ms {
                    None => inflation,
                    Some(q) => q + alpha * (inflation - q),
                });
            }
        }

        // Loss signal.
        let seg_estimate = (summary.bytes / 1448).max(1) as f64;
        let retx_frac = f64::from(summary.retransmits) / seg_estimate;
        st.retx_ewma = Some(match st.retx_ewma {
            None => retx_frac,
            Some(r) => r + alpha * (retx_frac - r),
        });

        if !capacity_cfgd {
            let rate = st.windowed_rate(now_ns, window);
            st.learned_capacity = st.learned_capacity.max(rate);
        }
    }

    /// Recent retransmission fraction on `path` (loss-rate proxy).
    pub fn loss_signal(&self, path: PathKey) -> Option<f64> {
        self.paths.get(&path).and_then(|s| s.retx_ewma)
    }

    /// Lifetime (lookups, reports) counters for `path`.
    pub fn traffic_counters(&self, path: PathKey) -> (u64, u64) {
        self.paths
            .get(&path)
            .map(|s| (s.lookups, s.reports))
            .unwrap_or((0, 0))
    }

    /// Number of paths with state.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// A dashboard snapshot: every known path with its current context,
    /// sorted by utilization (busiest first).
    pub fn snapshot(&mut self, now_ns: u64) -> Vec<(PathKey, ContextSnapshot)> {
        let cfg = self.cfg;
        let mut out: Vec<(PathKey, ContextSnapshot)> = self
            .paths
            .iter_mut()
            .map(|(&k, st)| (k, st.context(now_ns, &cfg)))
            .collect();
        out.sort_by(|a, b| {
            b.1.utilization
                .total_cmp(&a.1.utilization)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// Serialize the complete store state — configuration, every path's
    /// aggregates, registrations and counters — plus the server's
    /// `epoch`, into a versioned binary blob.
    ///
    /// Paths are written in key order, so the encoding is a pure
    /// function of the state: byte-identical stores produce
    /// byte-identical blobs (which is what lets e2e tests digest them).
    /// [`ContextStore::decode_snapshot`] inverts it losslessly.
    pub fn encode_snapshot(&self, epoch: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.paths.len() * 96);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&epoch.to_be_bytes());
        out.extend_from_slice(&self.cfg.window_ns.to_be_bytes());
        match self.cfg.capacity_bps {
            Some(cap) => {
                out.push(1);
                out.extend_from_slice(&cap.to_bits().to_be_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.cfg.queue_alpha.to_bits().to_be_bytes());

        let mut keys: Vec<PathKey> = self.paths.keys().copied().collect();
        keys.sort_unstable();
        out.extend_from_slice(&(keys.len() as u32).to_be_bytes());
        for key in keys {
            let st = &self.paths[&key];
            out.extend_from_slice(&key.0.to_be_bytes());
            out.extend_from_slice(&st.active.to_be_bytes());
            out.extend_from_slice(&st.reports.to_be_bytes());
            out.extend_from_slice(&st.lookups.to_be_bytes());
            out.extend_from_slice(&st.learned_capacity.to_bits().to_be_bytes());
            let flags = u8::from(st.queue_ms.is_some())
                | u8::from(st.min_rtt_ms.is_some()) << 1
                | u8::from(st.retx_ewma.is_some()) << 2;
            out.push(flags);
            for v in [st.queue_ms, st.min_rtt_ms, st.retx_ewma]
                .into_iter()
                .flatten()
            {
                out.extend_from_slice(&v.to_bits().to_be_bytes());
            }
            let live = st.live(self.cfg.window_ns);
            out.extend_from_slice(&(live.len() as u32).to_be_bytes());
            for &(end, bytes, dur) in live {
                out.extend_from_slice(&end.to_be_bytes());
                out.extend_from_slice(&bytes.to_be_bytes());
                out.extend_from_slice(&dur.to_be_bytes());
            }
        }
        out
    }

    /// Restore a store (and the epoch it was snapshotted at) from a blob
    /// produced by [`ContextStore::encode_snapshot`].
    ///
    /// A blob from a *future* format version yields
    /// [`SnapshotError::UnsupportedVersion`] — a clean typed error, never
    /// a partially-applied store.
    pub fn decode_snapshot(blob: &[u8]) -> Result<(ContextStore, u64), SnapshotError> {
        let mut r = SnapReader { buf: blob, at: 0 };
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let epoch = r.u64()?;
        let window_ns = r.u64()?;
        let capacity_bps = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            _ => return Err(SnapshotError::Malformed("capacity flag")),
        };
        let queue_alpha = r.f64()?;
        let n_paths = r.u32()? as usize;
        // The count comes off the wire (`ShardSnapshotSync` carries a blob
        // from any peer): never allocate for more paths than the remaining
        // bytes could hold, at 41 bytes for a path with nothing optional.
        if r.remaining() < n_paths.saturating_mul(41) {
            return Err(SnapshotError::Truncated);
        }
        let mut paths = IdMap::with_capacity_and_hasher(n_paths, IdHash::default());
        for _ in 0..n_paths {
            let key = PathKey(r.u64()?);
            let active = r.u32()?;
            let reports = r.u64()?;
            let lookups = r.u64()?;
            let learned_capacity = r.f64()?;
            let flags = r.u8()?;
            if flags & !0b111 != 0 {
                return Err(SnapshotError::Malformed("unknown path flags"));
            }
            let queue_ms = if flags & 1 != 0 { Some(r.f64()?) } else { None };
            let min_rtt_ms = if flags & 2 != 0 { Some(r.f64()?) } else { None };
            let retx_ewma = if flags & 4 != 0 { Some(r.f64()?) } else { None };
            let n_recent = r.u32()? as usize;
            // Guard against a corrupt count asking for more entries than
            // the remaining bytes could possibly hold.
            if r.remaining() < n_recent.saturating_mul(24) {
                return Err(SnapshotError::Truncated);
            }
            // Ends are clamped as `report` clamps them: a blob from a
            // build that stored them as given must not hide an expired
            // report behind a live one.
            let mut recent = VecDeque::with_capacity(n_recent);
            let mut latest = 0;
            for _ in 0..n_recent {
                latest = r.u64()?.max(latest);
                recent.push_back((latest, r.u64()?, r.u64()?));
            }
            if paths
                .insert(
                    key,
                    PathState {
                        active,
                        recent,
                        queue_ms,
                        min_rtt_ms,
                        learned_capacity,
                        reports,
                        lookups,
                        retx_ewma,
                        clock: latest,
                        index: None,
                    },
                )
                .is_some()
            {
                return Err(SnapshotError::Malformed("duplicate path key"));
            }
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok((
            ContextStore {
                cfg: StoreConfig {
                    window_ns,
                    capacity_bps,
                    queue_alpha,
                },
                paths,
            },
            epoch,
        ))
    }
}

/// Version byte leading every snapshot blob. Independent of the wire
/// protocol version: the blob may be written to disk and restored by a
/// later build.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot blob could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob was written by a format version this build doesn't know.
    UnsupportedVersion(u8),
    /// The blob ends before the structure it promises.
    Truncated,
    /// A field holds an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Bounds-checked big-endian reader over a snapshot blob.
struct SnapReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl SnapReader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let end = self.at.checked_add(N).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.at..end]);
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_be_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_be_bytes(self.take::<8>()?))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(u64::from_be_bytes(self.take::<8>()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_workload::SeedRng;

    const SEC: u64 = 1_000_000_000;

    fn summary(bytes: u64, dur_s: f64, mean_rtt: f64, min_rtt: f64) -> FlowSummary {
        FlowSummary {
            bytes,
            duration_ns: (dur_s * 1e9) as u64,
            mean_rtt_ms: mean_rtt,
            min_rtt_ms: min_rtt,
            retransmits: 0,
            timeouts: 0,
        }
    }

    #[test]
    fn empty_store_returns_zero_context() {
        let mut s = ContextStore::new(StoreConfig::default());
        let c = s.lookup(PathKey(1), SEC);
        assert_eq!(c.utilization, 0.0);
        assert_eq!(c.queue_ms, 0.0);
        assert_eq!(c.competing, 0);
    }

    #[test]
    fn lookups_count_competing_senders() {
        let mut s = ContextStore::new(StoreConfig::default());
        s.lookup(PathKey(1), SEC);
        s.lookup(PathKey(1), SEC);
        let c = s.lookup(PathKey(1), SEC);
        // Two earlier lookups still active.
        assert_eq!(c.competing, 2);
        // Reports release slots.
        s.report(PathKey(1), 2 * SEC, &summary(1_000_000, 1.0, 160.0, 150.0));
        let c = s.peek(PathKey(1), 2 * SEC);
        assert_eq!(c.competing, 2); // 3 active - 1 reported
    }

    #[test]
    fn utilization_against_configured_capacity() {
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        });
        // One connection delivered 5_000_000 bytes over the last 4 s
        // = 40 Mbit over a 10 s window = 4 Mbit/s = 40% of 10 Mbit/s.
        s.lookup(PathKey(7), 6 * SEC);
        s.report(PathKey(7), 10 * SEC, &summary(5_000_000, 4.0, 160.0, 150.0));
        let c = s.peek(PathKey(7), 10 * SEC);
        assert!((c.utilization - 0.4).abs() < 0.01, "u = {}", c.utilization);
    }

    #[test]
    fn old_reports_age_out() {
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        });
        s.report(PathKey(1), 10 * SEC, &summary(5_000_000, 4.0, 160.0, 150.0));
        assert!(s.peek(PathKey(1), 10 * SEC).utilization > 0.3);
        // 30 s later the report is outside the window.
        assert_eq!(s.peek(PathKey(1), 40 * SEC).utilization, 0.0);
    }

    #[test]
    fn partial_window_overlap_prorates() {
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: Some(8_000_000.0),
            queue_alpha: 0.3,
        });
        // Connection ran 0..20 s, delivering 20 Mbytes (8 Mbit/s).
        // At t=20 s, only 10 s of it overlaps a 10 s window: rate = 8 Mbit/s.
        s.report(
            PathKey(1),
            20 * SEC,
            &summary(20_000_000, 20.0, 160.0, 150.0),
        );
        let c = s.peek(PathKey(1), 20 * SEC);
        assert!((c.utilization - 1.0).abs() < 0.01, "u = {}", c.utilization);
    }

    #[test]
    fn queue_estimate_is_rtt_inflation_ewma() {
        let mut s = ContextStore::new(StoreConfig::default());
        let p = PathKey(2);
        s.report(p, SEC, &summary(1_000_000, 1.0, 170.0, 150.0)); // inflation 20
        let c = s.peek(p, SEC);
        assert!((c.queue_ms - 20.0).abs() < 1e-9);
        s.report(p, 2 * SEC, &summary(1_000_000, 1.0, 190.0, 150.0)); // inflation 40
        let c = s.peek(p, 2 * SEC);
        // EWMA(0.3): 20 + 0.3*(40-20) = 26.
        assert!((c.queue_ms - 26.0).abs() < 1e-9, "q = {}", c.queue_ms);
    }

    #[test]
    fn min_rtt_is_global_min_across_reports() {
        let mut s = ContextStore::new(StoreConfig::default());
        let p = PathKey(3);
        s.report(p, SEC, &summary(1_000, 0.1, 200.0, 180.0));
        s.report(p, 2 * SEC, &summary(1_000, 0.1, 200.0, 150.0));
        // Third report's inflation is measured against min 150.
        s.report(p, 3 * SEC, &summary(1_000, 0.1, 165.0, 160.0));
        let c = s.peek(p, 3 * SEC);
        assert!(c.queue_ms > 0.0);
    }

    #[test]
    fn capacity_learned_from_peak_rate() {
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: None,
            queue_alpha: 0.3,
        });
        let p = PathKey(4);
        // Peak epoch: 12.5 Mbyte in the window = 10 Mbit/s.
        s.report(p, 10 * SEC, &summary(12_500_000, 10.0, 160.0, 150.0));
        // Quiet epoch much later: 1.25 Mbyte = 1 Mbit/s → u should be ~0.1.
        s.report(p, 100 * SEC, &summary(1_250_000, 10.0, 160.0, 150.0));
        let c = s.peek(p, 100 * SEC);
        assert!(
            (c.utilization - 0.1).abs() < 0.03,
            "u = {} (learned capacity should pin to peak)",
            c.utilization
        );
    }

    #[test]
    fn loss_signal_tracks_retransmit_fraction() {
        let mut s = ContextStore::new(StoreConfig::default());
        let p = PathKey(5);
        assert_eq!(s.loss_signal(p), None);
        let mut sm = summary(1_448_000, 1.0, 160.0, 150.0); // 1000 segments
        sm.retransmits = 40;
        s.report(p, SEC, &sm);
        let l = s.loss_signal(p).unwrap();
        assert!((l - 0.04).abs() < 1e-9, "loss {l}");
    }

    #[test]
    fn snapshot_lists_paths_busiest_first() {
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        });
        s.report(PathKey(1), 10 * SEC, &summary(1_000_000, 4.0, 160.0, 150.0));
        s.report(PathKey(2), 10 * SEC, &summary(8_000_000, 4.0, 160.0, 150.0));
        s.lookup(PathKey(3), 10 * SEC);
        let snap = s.snapshot(10 * SEC);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].0, PathKey(2), "busiest first");
        assert!(snap[0].1.utilization > snap[1].1.utilization);
        assert_eq!(snap[2].1.utilization, 0.0);
    }

    fn populated_store() -> ContextStore {
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        });
        s.lookup(PathKey(1), SEC);
        s.lookup(PathKey(1), 2 * SEC);
        s.report(PathKey(1), 3 * SEC, &summary(5_000_000, 2.0, 170.0, 150.0));
        s.lookup(PathKey(9), 4 * SEC);
        let mut sm = summary(1_448_000, 1.0, 200.0, 180.0);
        sm.retransmits = 12;
        s.report(PathKey(9), 5 * SEC, &sm);
        s.lookup(PathKey(u64::MAX), 6 * SEC);
        s
    }

    #[test]
    fn snapshot_roundtrips_losslessly() {
        let mut store = populated_store();
        let blob = store.encode_snapshot(7);
        let (mut back, epoch) = ContextStore::decode_snapshot(&blob).expect("decode");
        assert_eq!(epoch, 7);
        assert_eq!(back, store);
        // And the restored store serves identical contexts.
        for key in [PathKey(1), PathKey(9), PathKey(u64::MAX)] {
            assert_eq!(back.peek(key, 6 * SEC), store.peek(key, 6 * SEC));
        }
        // Deterministic encoding: same state, same bytes — peeks built
        // rate indexes above, and those are not state.
        assert_eq!(store.encode_snapshot(7), blob);
        assert_eq!(back, store);
    }

    #[test]
    fn empty_store_snapshot_roundtrips() {
        let store = ContextStore::new(StoreConfig::default());
        let (back, epoch) = ContextStore::decode_snapshot(&store.encode_snapshot(1)).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(back, store);
    }

    #[test]
    fn future_snapshot_version_is_a_typed_error() {
        let mut blob = populated_store().encode_snapshot(3);
        blob[0] = SNAPSHOT_VERSION + 1;
        assert_eq!(
            ContextStore::decode_snapshot(&blob),
            Err(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
        );
    }

    #[test]
    fn truncated_snapshot_is_a_typed_error() {
        let blob = populated_store().encode_snapshot(3);
        for cut in [0, 1, 5, blob.len() / 2, blob.len() - 1] {
            let err = ContextStore::decode_snapshot(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::UnsupportedVersion(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn a_path_count_the_blob_cannot_hold_is_truncation_not_an_allocation() {
        // 30 bytes: an empty store's header, its path count overwritten.
        let mut blob = ContextStore::new(StoreConfig::default()).encode_snapshot(1);
        let count_at = blob.len() - 4;
        for claimed in [u32::MAX, 1] {
            blob[count_at..].copy_from_slice(&claimed.to_be_bytes());
            assert_eq!(
                ContextStore::decode_snapshot(&blob),
                Err(SnapshotError::Truncated),
                "{claimed} paths in {} bytes",
                blob.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = populated_store().encode_snapshot(3);
        blob.push(0);
        assert_eq!(
            ContextStore::decode_snapshot(&blob),
            Err(SnapshotError::Malformed("trailing bytes"))
        );
    }

    fn known_capacity() -> ContextStore {
        ContextStore::new(StoreConfig {
            window_ns: 10 * SEC,
            capacity_bps: Some(10_000_000.0),
            queue_alpha: 0.3,
        })
    }

    #[test]
    fn zero_duration_reports_add_no_utilization() {
        let mut s = known_capacity();
        let p = PathKey(1);
        s.report(p, 10 * SEC, &summary(5_000_000, 0.0, 170.0, 150.0));
        assert_eq!(s.peek(p, 10 * SEC).utilization, 0.0);
        // ...but it is a report in every other respect.
        assert_eq!(s.traffic_counters(p), (0, 1));
        assert!((s.peek(p, 10 * SEC).queue_ms - 20.0).abs() < 1e-9);
        // Beside a real report it changes nothing, live or expiring.
        s.report(p, 12 * SEC, &summary(5_000_000, 4.0, 170.0, 150.0));
        let mut alone = known_capacity();
        alone.report(p, 12 * SEC, &summary(5_000_000, 4.0, 170.0, 150.0));
        for now in [12, 15, 20, 21, 30] {
            let u = s.peek(p, now * SEC).utilization;
            assert_eq!(u, alone.peek(p, now * SEC).utilization, "at {now} s");
        }
    }

    #[test]
    fn reports_alone_build_no_index_and_an_idle_one_is_dropped() {
        let mut s = known_capacity();
        let p = PathKey(1);
        // 16 reports a window, for five windows.
        let step = 10 * SEC / 16;
        let report = |s: &mut ContextStore, n: u64| {
            s.report(p, n * step, &summary(1_000_000, 1.0, 160.0, 150.0));
        };
        for n in 1..=80 {
            report(&mut s, n);
        }
        // Capacity known and nobody asks: no index, and each report
        // expires the one it replaces first, so no 17th slot is needed.
        let st = &s.paths[&p];
        assert!(st.index.is_none());
        assert_eq!((st.recent.len(), st.recent.capacity()), (16, 16));
        assert!(s.peek(p, 80 * step).utilization > 0.0);
        assert!(s.paths[&p].index.is_some());
        // Asked every eighth report: the deque appends, and when it is
        // full one run drains what has expired and leaves a quarter free.
        let mut runs = 0;
        for n in 81..=400 {
            let st = &s.paths[&p];
            let full = st.recent.len() == st.recent.capacity();
            report(&mut s, n);
            if n % 8 == 0 {
                s.peek(p, n * step);
            }
            let st = &s.paths[&p];
            assert!(st.index.is_some(), "at report {n}");
            if full {
                runs += 1;
                let free = st.recent.capacity() - (st.recent.len() - 1);
                assert!(4 * free >= st.recent.capacity(), "{free} free at {n}");
            }
        }
        assert!(runs >= 10, "{runs} runs");
        let capacity = s.paths[&p].recent.capacity();
        assert!(capacity <= 32, "{capacity}");
        // Nobody asks again: a run finds the reports the index holds
        // expired and as many waiting for it, and drops it. From then on
        // the path expires before it appends, in the deque it has.
        for n in 401..=440 {
            report(&mut s, n);
        }
        let st = &s.paths[&p];
        assert!(st.index.is_none());
        assert_eq!(st.recent.capacity(), capacity);
        // Asked after every report (capacity learned), it stays.
        let mut learning = ContextStore::new(StoreConfig::default());
        for t in 1..=30 {
            learning.report(p, t * SEC, &summary(1_000_000, 1.0, 160.0, 150.0));
            assert!(learning.paths[&p].index.is_some());
        }
    }

    #[test]
    fn under_a_zero_window_every_report_expires_at_once() {
        let p = PathKey(1);
        let mut s = ContextStore::new(StoreConfig {
            window_ns: 0,
            ..StoreConfig::default()
        });
        for t in 1..=3 {
            s.report(p, t * SEC, &summary(1_000_000, 1.0, 160.0, 150.0));
            s.lookup(p, t * SEC);
        }
        assert!(s.paths[&p].recent.is_empty());
        assert_eq!(s.peek(p, 3 * SEC).utilization, 0.0);
        // A blob from a peer can hold reports under a zero window. The
        // first report after restoring expires them, index or none (a
        // restored deque is full).
        let mut blob = populated_store().encode_snapshot(1);
        blob[9..17].copy_from_slice(&0u64.to_be_bytes());
        let (mut back, _) = ContextStore::decode_snapshot(&blob).expect("decode");
        back.lookup(p, 6 * SEC);
        assert!(back.paths[&p].index.is_some());
        back.report(p, 6 * SEC, &summary(1_000_000, 1.0, 160.0, 150.0));
        assert!(back.paths[&p].recent.is_empty());
        assert_eq!(back.peek(p, 6 * SEC).utilization, 0.0);
    }

    #[test]
    fn start_queue_hands_over_exactly_what_has_begun() {
        // Against a plain list: bursts of pushes up to a window ahead of
        // the horizon, then a step of the horizon — none, within a bucket,
        // over many buckets, now and then past everything.
        let mut rng = SeedRng::new(5);
        for window in [1_000, SEC, 10 * SEC] {
            let mut q = StartQueue::new(window);
            let mut waiting: Vec<(u64, u128)> = Vec::new();
            let mut h = 0;
            for round in 0..600 {
                // Near the horizon, then further out: the run of the
                // first few is outreached before and after it fills.
                let ahead = [window / 64 + 1, window / 4 + 1, window][round % 3];
                for _ in 0..rng.range_u64(0, 24) {
                    let start = h + 1 + rng.range_u64(0, ahead);
                    let rate = u128::from(rng.range_u64(1, u64::MAX)) << 50;
                    q.push(start, rate);
                    waiting.push((start, rate));
                }
                h += match round % 20 {
                    0..=3 => 0,
                    4..=11 => rng.range_u64(0, window / 300 + 1),
                    12..=18 => rng.range_u64(0, window / 10),
                    _ => rng.range_u64(0, 2 * window),
                };
                let (mut slope, mut offset) = (0u128, 0u128);
                waiting.retain(|&(start, rate)| {
                    if start <= h {
                        slope = slope.wrapping_add(rate);
                        offset = offset.wrapping_add(rate.wrapping_mul(u128::from(start)));
                    }
                    start > h
                });
                assert_eq!(q.take_begun(h), (slope, offset), "round {round}");
                let held = q.front.len() + q.later.iter().map(Vec::len).sum::<usize>();
                assert_eq!(held, waiting.len(), "round {round}");
                assert!(q.front.is_sorted_by_key(|&(start, _)| Reverse(start)));
                assert!(q.later.len() <= 258, "{} buckets", q.later.len());
                assert!(q.later.back().is_none_or(|last| !last.is_empty()));
            }
        }
    }

    #[test]
    fn the_answer_does_not_depend_on_what_was_asked_before() {
        let fill = |s: &mut ContextStore| {
            for t in 1..=20u64 {
                let dur = [0.3, 2.5, 11.0, 25.0][t as usize % 4];
                s.report(
                    PathKey(1),
                    t * SEC,
                    &summary(400_000 * t, dur, 160.0, 150.0),
                );
            }
        };
        let mut asked = known_capacity();
        let mut fresh = known_capacity();
        fill(&mut asked);
        fill(&mut fresh);
        // Forward in small steps, far ahead, then back again: every
        // answer is the one a store asked nothing before gives.
        for now in [20, 21, 21, 24, 29, 45, 26, 20, 33] {
            let u = asked.peek(PathKey(1), now * SEC).utilization;
            let mut first = fresh.clone();
            assert_eq!(
                u,
                first.peek(PathKey(1), now * SEC).utilization,
                "at {now} s"
            );
        }
    }

    #[test]
    fn a_paths_clock_never_runs_backwards() {
        let mut s = known_capacity();
        let p = PathKey(1);
        s.report(p, 20 * SEC, &summary(1_000_000, 1.0, 160.0, 150.0));
        // A late writer with an older timestamp is filed at the clock...
        s.report(p, 15 * SEC, &summary(2_000_000, 1.0, 160.0, 150.0));
        let ends: Vec<u64> = s.paths[&p].recent.iter().map(|r| r.0).collect();
        assert_eq!(ends, vec![20 * SEC, 20 * SEC]);
        // ...and a question from before it is answered as of the clock.
        assert_eq!(s.peek(p, 3 * SEC), s.peek(p, 20 * SEC));
        assert!(s.peek(p, 3 * SEC).utilization > 0.0);

        // A blob written by a build that stored ends as given: expired
        // report behind a live one. Restoring applies the same clamp.
        let mut blob = s.encode_snapshot(1);
        let second_end = blob.len() - 24;
        blob[second_end..second_end + 8].copy_from_slice(&(5 * SEC).to_be_bytes());
        let (mut back, _) = ContextStore::decode_snapshot(&blob).expect("decode");
        assert_eq!(back, s);
        assert_eq!(back.peek(p, 25 * SEC), s.peek(p, 25 * SEC));
    }

    #[test]
    fn absurd_magnitudes_wrap_instead_of_panicking() {
        for capacity_bps in [None, Some(1e9)] {
            let mut s = ContextStore::new(StoreConfig {
                capacity_bps,
                ..StoreConfig::default()
            });
            let p = PathKey(1);
            let huge = FlowSummary {
                bytes: u64::MAX,
                duration_ns: 1,
                ..summary(0, 0.0, 160.0, 150.0)
            };
            for (now, dur) in [
                (5, 1),
                (7, u64::MAX),
                (u64::MAX - 1, 3),
                (u64::MAX, u64::MAX),
            ] {
                for _ in 0..40 {
                    s.report(
                        p,
                        now,
                        &FlowSummary {
                            duration_ns: dur,
                            ..huge
                        },
                    );
                }
                let c = s.lookup(p, now);
                assert!(
                    (0.0..=1.0).contains(&c.utilization),
                    "u = {}",
                    c.utilization
                );
            }
        }
    }

    #[test]
    fn paths_are_independent() {
        let mut s = ContextStore::new(StoreConfig::default());
        s.lookup(PathKey(1), SEC);
        s.report(PathKey(2), SEC, &summary(1_000_000, 1.0, 170.0, 150.0));
        assert_eq!(s.peek(PathKey(1), SEC).queue_ms, 0.0);
        assert_eq!(s.peek(PathKey(2), SEC).competing, 0);
        assert_eq!(s.path_count(), 2);
        assert_eq!(s.traffic_counters(PathKey(1)), (1, 0));
        assert_eq!(s.traffic_counters(PathKey(2)), (0, 1));
    }
}
