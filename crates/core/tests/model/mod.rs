//! The store's utilization estimate computed the slow way: the oracle its
//! O(1) rate index is tested against.
//!
//! This is the scan `ContextStore` itself ran on every lookup before it
//! had an index — every report in the window, pro-rated by how much of it
//! lies inside — together with the per-path monotone clock. It keeps no
//! derived state at all, so it cannot share a bug with the index.
//!
//! Used by `props.rs` beside it and, through `#[path]`, by the root
//! package's `tests/ctx_reference.rs`, which tier-1 runs.

use std::collections::HashMap;

/// One path: its reports as `(end, bytes, dur)` in clamped end order, and
/// the capacity learned from them.
type Path = (Vec<(u64, u64, u64)>, f64);

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
        let (bits, secs) = scan(recent, end, self.window);
        *learned = learned.max(bits / secs);
    }

    /// `Err` unless `got` is the utilization of `path` at `now`: within
    /// 1e-9 of the scan's, or — when only a sliver of a report is in the
    /// window and the answer is next to nothing — within a thousandth of a
    /// bit in the window. (The index floors each rate to 2⁻⁵⁶ bit/ns; the
    /// scan rounds every term to 53 bits.)
    pub fn check(&self, path: u64, now: u64, got: f64) -> Result<(), String> {
        let Some((recent, learned)) = self.paths.get(&path) else {
            return if got == 0.0 {
                Ok(())
            } else {
                Err(format!("unknown path {path}: store says {got:e}"))
            };
        };
        let capacity = self.capacity.unwrap_or(*learned).max(1.0);
        let (bits, secs) = scan(recent, now, self.window);
        let want = (bits / secs / capacity).clamp(0.0, 1.0);
        if (got - want).abs() <= 1e-9 * want + 1e-3 / (secs * capacity) {
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

/// Bits delivered in `[now - window, now]`, and that interval's length in
/// seconds (shorter than the window while `now` is).
fn scan(recent: &[(u64, u64, u64)], now: u64, window: u64) -> (f64, f64) {
    let now = clock(recent, now);
    let horizon = now.saturating_sub(window);
    let mut bits = 0.0;
    for &(end, bytes, dur) in recent {
        let begin = end.saturating_sub(dur).max(horizon);
        // Skips what ended by the horizon, and zero-duration reports.
        if end > begin {
            bits += bytes as f64 * 8.0 * ((end - begin) as f64 / dur as f64);
        }
    }
    (bits, window.min(now.max(1)) as f64 / 1e9)
}
