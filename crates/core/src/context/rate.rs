//! The windowed-rate index: running sums that answer a path's rate
//! without walking its window (DESIGN.md, "Windowed-rate index").

use std::cmp::Reverse;
use std::collections::VecDeque;

/// Fixed-point scale of the index's bit counts and rates (Q56). A rate is
/// floored to 2⁻⁵⁶ bit/ns, so a report that began `t` ns before the horizon
/// is off by less than `t·2⁻⁵⁶` bits.
pub(super) const FRAC_BITS: u32 = 56;

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
pub(super) struct RateIndex {
    /// Horizon the sums stand at; it only moves forward.
    pub(super) horizon: u64,
    /// How many entries at the front of `recent` have been subtracted
    /// again (`end <= horizon`), and how many have been added at all.
    /// `expired <= classified <= recent.len()`.
    pub(super) expired: usize,
    pub(super) classified: usize,
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
    pub(super) fn new(window_ns: u64) -> Self {
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
    pub(super) fn advance(&mut self, recent: &VecDeque<(u64, u64, u64)>, h: u64) {
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
    pub(super) fn classify(&mut self, recent: &VecDeque<(u64, u64, u64)>) {
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
    pub(super) fn bits_in_window(&self) -> u128 {
        let before = u128::from(self.horizon)
            .wrapping_mul(self.slope)
            .wrapping_sub(self.offset);
        self.total.wrapping_sub(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_workload::SeedRng;

    const SEC: u64 = 1_000_000_000;

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
}
