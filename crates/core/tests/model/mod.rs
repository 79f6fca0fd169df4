//! The store's utilization estimate computed the slow way: the oracle its
//! O(1) rate index is tested against.
//!
//! This is the scan `ContextStore` itself ran on every lookup before it
//! had an index — every report in the window, pro-rated by how much of it
//! lies inside — together with the per-path monotone clock. It keeps no
//! derived state at all, so it cannot share a bug with the index.
//!
//! It does the store's arithmetic, not real-number arithmetic: a report's
//! bits in Q56 fixed point, its rate floored to Q56 bits per ns, a report
//! straddling the horizon counted as `bits − rate·(horizon − start)`, the
//! sum taken exactly (mod 2¹²⁸, as the index's), and one conversion to
//! `f64` at the end. So the store must answer it bit for bit.
//!
//! Used by `props.rs` beside it and, through `#[path]`, by the root
//! package's `tests/ctx_reference.rs`, which tier-1 runs.

use std::collections::HashMap;

/// One path: its reports as `(end, bytes, dur)` in clamped end order, and
/// the capacity learned from them.
type Path = (Vec<(u64, u64, u64)>, f64);

/// Fractional bits of the store's fixed-point bit counts and rates.
const FRAC_BITS: u32 = 56;

pub struct ScanModel {
    window: u64,
    capacity: Option<f64>,
    paths: HashMap<u64, Path>,
}

impl ScanModel {
    pub fn new(window: u64, capacity: Option<f64>) -> Self {
        ScanModel {
            window,
            capacity,
            paths: HashMap::new(),
        }
    }

    pub fn report(&mut self, path: u64, now: u64, bytes: u64, dur: u64) {
        let (recent, learned) = self.paths.entry(path).or_default();
        let end = clock(recent, now);
        recent.push((end, bytes, dur));
        *learned = learned.max(rate(recent, end, self.window));
    }

    /// `Err` unless `got` is, bit for bit, the utilization of `path` at
    /// `now`.
    pub fn check(&self, path: u64, now: u64, got: f64) -> Result<(), String> {
        let want = match self.paths.get(&path) {
            None => 0.0,
            Some((recent, learned)) => {
                let capacity = self.capacity.unwrap_or(*learned).max(1.0);
                (rate(recent, now, self.window) / capacity).clamp(0.0, 1.0)
            }
        };
        if got.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "path {path} at {now}: store says {got:e}, the scan {want:e}"
            ))
        }
    }
}

/// `now`, but never before the path's latest report.
fn clock(recent: &[(u64, u64, u64)], now: u64) -> u64 {
    recent.last().map_or(now, |&(latest, _, _)| now.max(latest))
}

/// Bits per second delivered in `[now - window, now]`, over that
/// interval's length (shorter than the window while `now` is).
fn rate(recent: &[(u64, u64, u64)], now: u64, window: u64) -> f64 {
    let now = clock(recent, now);
    let horizon = now.saturating_sub(window);
    let mut q56 = 0u128;
    for &(end, bytes, dur) in recent {
        // What ended by the horizon is out; a zero duration adds nothing.
        if end <= horizon || dur == 0 {
            continue;
        }
        let bits = (u128::from(bytes) * 8) << FRAC_BITS;
        let in_window = match end.checked_sub(dur) {
            Some(start) if start > horizon => bits,
            // `horizon − start` is under `dur`, so this never goes below 0.
            _ => {
                let before = u128::from(horizon) + u128::from(dur) - u128::from(end);
                bits - bits / u128::from(dur) * before
            }
        };
        q56 = q56.wrapping_add(in_window);
    }
    let bits = q56 as f64 / (1u64 << FRAC_BITS) as f64;
    bits / (window.min(now.max(1)) as f64 / 1e9)
}
