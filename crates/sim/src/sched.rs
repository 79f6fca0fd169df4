//! Tiered event scheduler: a bucketed near-future calendar backed by a
//! far-future overflow heap.
//!
//! Discrete-event simulation of a network concentrates almost all events
//! in a *dense near-future band*: packet deliveries (serialization plus
//! propagation) sit microseconds-to-milliseconds ahead of the clock, and
//! retransmission timers a few hundred milliseconds. A binary heap pays
//! `O(log n)` element moves on every push and pop; a calendar queue pays
//! amortized `O(1)` — append into the bucket covering the event's time,
//! and sort each bucket once when the clock reaches it.
//!
//! ## Ordering contract
//!
//! Pops come out in **exactly** `(time, seq)` order, where `seq` is the
//! order `push` was called. This is the same total order the simulator's
//! original `BinaryHeap<(Time, u64)>` produced, so replacing the heap
//! with this scheduler is bit-invisible to every experiment: same packet
//! traces, same metrics, same tie-breaks between simultaneous events.
//! The property tests in `tests/props.rs` pit this structure against a
//! reference heap over arbitrary interleaved schedule/pop workloads.
//!
//! ## Structure
//!
//! * **Near tier** — `NUM_BUCKETS` buckets of `2^BUCKET_BITS` ns each,
//!   covering a rolling horizon (≈134 ms). Events land in the bucket
//!   covering their timestamp; a bucket is sorted (descending, so pops
//!   are `Vec::pop`) the first time the cursor reaches it, and re-sorted
//!   only if new events land in the bucket currently being drained.
//! * **Overflow tier** — events beyond the horizon go to a classic
//!   binary heap. When the near tier drains, the wheel re-anchors at the
//!   overflow's minimum and promotes everything inside the new horizon.
//!
//! Both tiers store `(time, seq, payload)` entries whole — there is no
//! payload side table; an entry owns its payload from push to pop.
//!
//! Bucket indices are *absolute* (`time >> BUCKET_BITS`); the invariant
//! is that every bucketed event lies in `[cursor, limit)` and every
//! overflow event at or beyond `limit`, so the near tier always holds
//! the global minimum whenever it is non-empty.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the bucket width in nanoseconds (2^17 ns ≈ 131 µs).
const BUCKET_BITS: u32 = 17;
/// Number of calendar buckets (must be a power of two).
const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Bitmap words tracking bucket occupancy.
const WORDS: usize = NUM_BUCKETS / 64;

/// One scheduled item with its ordering key.
///
/// Buckets and the overflow heap hold entries whole: the payload rides
/// inline beside its key, so a push is one write and a pop one read, with
/// no side table to index. That is cheap because payloads are small — the
/// simulator's `Event` is 16 bytes (packets stay in the engine's pool and
/// events carry a 4-byte handle), making an entry 32 bytes.
///
/// Ordering looks at `(at, seq)` only. `seq` is the same-timestamp
/// tie-break: the push-order counter, so simultaneous events pop FIFO.
#[derive(Debug)]
struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counters describing a scheduler's lifetime workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Events ever pushed.
    pub scheduled: u64,
    /// Events that took the far-future overflow path at push time.
    pub overflowed: u64,
    /// High-water mark of pending events.
    pub peak_pending: u64,
}

/// A two-tier calendar/heap priority queue popping in `(time, seq)` order,
/// `seq` being the order of the `push` calls.
#[derive(Debug)]
pub struct TieredScheduler<T> {
    buckets: Vec<Vec<Entry<T>>>,
    bitmap: [u64; WORDS],
    /// Entries currently in the near tier.
    near_len: usize,
    /// Absolute bucket index of the earliest possibly-occupied bucket.
    cursor: u64,
    /// Near tier covers absolute buckets `[cursor, limit)`.
    limit: u64,
    /// Whether the bucket at `cursor` is sorted (descending).
    cur_sorted: bool,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
    /// Next sequence number.
    seq: u64,
    counters: TierCounters,
}

impl<T> Default for TieredScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TieredScheduler<T> {
    /// An empty scheduler anchored at t = 0.
    pub fn new() -> Self {
        TieredScheduler {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            bitmap: [0; WORDS],
            near_len: 0,
            cursor: 0,
            limit: NUM_BUCKETS as u64,
            cur_sorted: false,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            counters: TierCounters::default(),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime workload counters.
    pub fn counters(&self) -> TierCounters {
        self.counters
    }

    /// Schedule `item` at `at`. Simultaneous events pop in the order they
    /// were pushed (FIFO). Events must not be scheduled before the time of
    /// the last popped event (the simulation's "now").
    pub fn push(&mut self, at: Time, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.counters.scheduled += 1;
        self.len += 1;
        if self.len as u64 > self.counters.peak_pending {
            self.counters.peak_pending = self.len as u64;
        }
        let b = at.as_nanos() >> BUCKET_BITS;
        // Note: the wheel is deliberately NOT re-anchored forward here,
        // even when the queue is empty — moving the cursor forward at push
        // time would let a later, earlier-timed push land below it and
        // alias a ring slot. Far pushes past a stale horizon simply take
        // the overflow heap and are promoted by `pop_if`'s rebase.
        let e = Entry { at, seq, item };
        if b < self.limit {
            // A deadline-bounded pop advances the cursor to the next
            // occupied bucket before its deadline check, so a failed
            // `pop_if` can leave the cursor parked past `b` even though
            // `at` is not in the past. Walk it back; every occupied
            // bucket lies in `[limit - NUM_BUCKETS, limit)`, so this
            // never re-introduces slot aliasing.
            debug_assert!(
                b + NUM_BUCKETS as u64 >= self.limit,
                "scheduled into the past"
            );
            if b < self.cursor {
                self.cursor = b;
                self.cur_sorted = false;
            }
            let slot = (b & BUCKET_MASK) as usize;
            let v = &mut self.buckets[slot];
            if b == self.cursor && self.cur_sorted {
                // The draining bucket is kept sorted (descending, minimum
                // at the back): a binary insertion preserves that for the
                // price of one memmove, instead of invalidating the sort
                // and paying a full re-sort on every subsequent pop —
                // the common case when agents schedule events a few
                // microseconds ahead, inside the bucket being drained.
                let pos = v.partition_point(|x| *x > e);
                v.insert(pos, e);
            } else {
                v.push(e);
            }
            self.bitmap[slot / 64] |= 1 << (slot % 64);
            self.near_len += 1;
        } else {
            self.overflow.push(Reverse(e));
            self.counters.overflowed += 1;
        }
    }

    /// Remove and return the earliest event if its time is `<= deadline`;
    /// otherwise leave the queue untouched and return `None`.
    pub fn pop_if(&mut self, deadline: Time) -> Option<(Time, T)> {
        if self.len == 0 {
            return None;
        }
        if self.near_len == 0 {
            // Everything pending is beyond the horizon: re-anchor at the
            // overflow minimum and promote the new near-future window.
            let t_min = self.overflow.peek().expect("len > 0").0.at;
            if t_min > deadline {
                return None;
            }
            self.rebase(t_min);
        }
        let b = self.first_nonempty();
        if b != self.cursor {
            self.cursor = b;
            self.cur_sorted = false;
        }
        let slot = (b & BUCKET_MASK) as usize;
        if !self.cur_sorted {
            // Descending, so the minimum is at the tail and pops are O(1).
            self.buckets[slot].sort_unstable_by(|x, y| y.cmp(x));
            self.cur_sorted = true;
        }
        let head = self.buckets[slot].last().expect("bitmap said non-empty");
        if head.at > deadline {
            return None;
        }
        let e = self.buckets[slot].pop().expect("checked above");
        self.near_len -= 1;
        self.len -= 1;
        if self.buckets[slot].is_empty() {
            self.bitmap[slot / 64] &= !(1 << (slot % 64));
        }
        Some((e.at, e.item))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.pop_if(Time::MAX)
    }

    /// Iterate over every pending item, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buckets
            .iter()
            .flatten()
            .chain(self.overflow.iter().map(|Reverse(e)| e))
            .map(|e| &e.item)
    }

    /// Remove all events and reset clocks, sequence numbers, and counters,
    /// keeping allocated capacity (for reuse across simulator instances).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.bitmap = [0; WORDS];
        self.near_len = 0;
        self.cursor = 0;
        self.limit = NUM_BUCKETS as u64;
        self.cur_sorted = false;
        self.overflow.clear();
        self.len = 0;
        self.seq = 0;
        self.counters = TierCounters::default();
    }

    /// First occupied bucket at or after `cursor`, as an absolute index.
    /// Caller guarantees `near_len > 0`.
    fn first_nonempty(&self) -> u64 {
        let start = (self.cursor & BUCKET_MASK) as usize;
        let mut word_idx = start / 64;
        // Mask off bits below the cursor within its word.
        let mut word = self.bitmap[word_idx] & (!0u64 << (start % 64));
        for _ in 0..=WORDS {
            if word != 0 {
                let slot = word_idx * 64 + word.trailing_zeros() as usize;
                let delta = (slot + NUM_BUCKETS - start) % NUM_BUCKETS;
                return self.cursor + delta as u64;
            }
            word_idx = (word_idx + 1) % WORDS;
            word = self.bitmap[word_idx];
        }
        unreachable!("near_len > 0 but no occupied bucket");
    }

    /// Re-anchor the wheel so its horizon starts at `t_min`'s bucket, and
    /// promote every overflow event that now falls inside the horizon.
    fn rebase(&mut self, t_min: Time) {
        let b = t_min.as_nanos() >> BUCKET_BITS;
        debug_assert!(b >= self.cursor, "rebase moved backwards");
        self.cursor = b;
        self.limit = b + NUM_BUCKETS as u64;
        self.cur_sorted = false;
        while let Some(Reverse(head)) = self.overflow.peek() {
            let hb = head.at.as_nanos() >> BUCKET_BITS;
            if hb >= self.limit {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            let slot = (hb & BUCKET_MASK) as usize;
            self.buckets[slot].push(e);
            self.bitmap[slot / 64] |= 1 << (slot % 64);
            self.near_len += 1;
        }
        debug_assert!(self.near_len > 0, "rebase promoted nothing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut TieredScheduler<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, v)) = s.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut s = TieredScheduler::new();
        s.push(Time::from_nanos(50), 1);
        s.push(Time::from_nanos(10), 2);
        s.push(Time::from_nanos(50), 3); // same time as item 1: FIFO after it
        s.push(Time::from_nanos(30), 4);
        assert_eq!(drain(&mut s), vec![(10, 2), (30, 4), (50, 1), (50, 3)]);
    }

    #[test]
    fn push_below_parked_cursor_after_failed_deadline_pop() {
        // A failed deadline-bounded pop parks the cursor on the next
        // occupied bucket; a later push between "now" and that bucket
        // must still pop first (regression: ring-slot aliasing).
        let mut s = TieredScheduler::new();
        let bucket = 1u64 << BUCKET_BITS;
        s.push(Time::from_nanos(10), 1);
        s.push(Time::from_nanos(10 * bucket), 2);
        assert_eq!(s.pop(), Some((Time::from_nanos(10), 1)));
        assert!(s.pop_if(Time::from_nanos(20)).is_none());
        s.push(Time::from_nanos(2 * bucket), 3); // earlier than item 2
        assert_eq!(s.pop(), Some((Time::from_nanos(2 * bucket), 3)));
        assert_eq!(s.pop(), Some((Time::from_nanos(10 * bucket), 2)));
    }

    #[test]
    fn far_future_takes_overflow_and_comes_back() {
        let mut s = TieredScheduler::new();
        let far = Time::from_secs(10); // way past the ~134 ms horizon
        s.push(far, 1);
        s.push(Time::from_nanos(5), 2);
        assert_eq!(s.counters().overflowed, 1);
        assert_eq!(drain(&mut s), vec![(5, 2), (far.as_nanos(), 1)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut s = TieredScheduler::new();
        s.push(Time::from_micros(100), 1);
        s.push(Time::from_micros(200), 2);
        let (t, v) = s.pop().unwrap();
        assert_eq!((t, v), (Time::from_micros(100), 1));
        // Push into the bucket currently being drained, at the same time
        // as a pending event: FIFO means it pops after item 2.
        s.push(Time::from_micros(200), 3);
        s.push(Time::from_micros(150), 4);
        assert_eq!(
            drain(&mut s),
            vec![(150_000, 4), (200_000, 2), (200_000, 3)]
        );
    }

    #[test]
    fn pop_if_respects_deadline_and_preserves_state() {
        let mut s = TieredScheduler::new();
        s.push(Time::from_millis(5), 1);
        assert_eq!(s.pop_if(Time::from_millis(4)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.pop_if(Time::from_millis(5)),
            Some((Time::from_millis(5), 1))
        );
        assert!(s.is_empty());
        // Deadline gating also applies to overflow-only states.
        s.push(Time::from_secs(30), 2);
        assert_eq!(s.pop_if(Time::from_secs(29)), None);
        assert_eq!(s.counters().overflowed, 1);
        assert_eq!(
            s.pop_if(Time::from_secs(30)),
            Some((Time::from_secs(30), 2))
        );
    }

    #[test]
    fn long_idle_gap_rebases_without_walking_buckets() {
        let mut s = TieredScheduler::new();
        s.push(Time::from_nanos(1), 1);
        s.pop().unwrap();
        // Hours of virtual idle time later:
        s.push(Time::from_secs(7200), 2);
        s.push(Time::from_secs(7200) + crate::time::Dur::from_nanos(1), 3);
        assert_eq!(s.pop().unwrap().1, 2);
        assert_eq!(s.pop().unwrap().1, 3);
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut s = TieredScheduler::new();
        for i in 0..100 {
            s.push(Time::from_micros(i * 37 % 1000), i as u32);
        }
        s.push(Time::from_secs(99), 1000);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.counters(), TierCounters::default());
        // Sequence numbers restart, so a reused scheduler is
        // indistinguishable from a fresh one.
        s.push(Time::from_nanos(10), 1);
        s.push(Time::from_nanos(10), 2);
        assert_eq!(drain(&mut s), vec![(10, 1), (10, 2)]);
    }

    #[test]
    fn entries_own_non_copy_payloads() {
        // Entries hold their payload inline, so every path that moves or
        // drops an entry must move or drop a `String` correctly: sorted
        // insertion into the draining bucket, overflow promotion, a
        // refused deadline pop, `iter`, and `clear` with items pending.
        let mut s: TieredScheduler<String> = TieredScheduler::new();
        s.push(Time::from_micros(300), "c".to_string());
        s.push(Time::from_micros(100), "a".to_string());
        s.push(Time::from_secs(10), "far".to_string());
        assert_eq!(s.pop_if(Time::from_micros(50)), None);
        assert_eq!(s.pop().unwrap().1, "a");
        // Lands in the (now sorted) bucket being drained.
        s.push(Time::from_micros(200), "b".to_string());
        let mut seen: Vec<&str> = s.iter().map(String::as_str).collect();
        seen.sort_unstable();
        assert_eq!(seen, ["b", "c", "far"]);
        assert_eq!(s.pop().unwrap().1, "b");
        assert_eq!(s.pop().unwrap().1, "c");
        assert_eq!(s.pop().unwrap(), (Time::from_secs(10), "far".to_string()));
        assert!(s.is_empty());
        s.push(Time::from_secs(10), "dropped".to_string());
        s.push(Time::from_secs(99), "dropped too".to_string());
        s.clear();
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn dense_same_timestamp_burst_is_fifo() {
        let mut s = TieredScheduler::new();
        let t = Time::from_millis(1);
        for i in 0..500u32 {
            s.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn counters_track_peak_and_totals() {
        let mut s = TieredScheduler::new();
        s.push(Time::from_nanos(1), 1);
        s.push(Time::from_nanos(2), 2);
        s.pop().unwrap();
        s.push(Time::from_nanos(3), 3);
        let c = s.counters();
        assert_eq!(c.scheduled, 3);
        assert_eq!(c.peak_pending, 2);
    }
}
