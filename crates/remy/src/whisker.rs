//! Whiskers: Remy's piecewise-constant control rules.
//!
//! A [`WhiskerTree`] partitions the normalized memory space into axis-
//! aligned boxes; each box carries an [`Action`] — window multiple,
//! window increment, and pacing intersend. Control is a lookup: normalize
//! the current memory, find the containing whisker, apply its action.
//!
//! Training refines the partition: the most-used whisker is *split* (KD
//! style, along its widest dimension) when optimizing its action stops
//! helping, letting the policy specialize where the sender actually
//! spends time — the structure-learning half of Remy's offline search.

use crate::memory::DIMS;

/// A control action, applied on each ACK.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Action {
    /// Window multiple `m`: `cwnd ← m · cwnd + b`.
    pub window_multiple: f64,
    /// Window increment `b`, segments.
    pub window_increment: f64,
    /// Pacing gap between sends, milliseconds.
    pub intersend_ms: f64,
}

impl Action {
    /// Remy's conventional starting action: hold the window, grow by one
    /// segment per ACK, pace gently.
    pub fn initial() -> Self {
        Action {
            window_multiple: 1.0,
            window_increment: 1.0,
            intersend_ms: 1.0,
        }
    }

    /// Clamp to the legal action box.
    pub fn clamped(self) -> Action {
        Action {
            window_multiple: self.window_multiple.clamp(0.0, 2.0),
            window_increment: self.window_increment.clamp(-10.0, 20.0),
            intersend_ms: self.intersend_ms.clamp(0.02, 50.0),
        }
    }

    /// The candidate single-coordinate perturbations the trainer explores.
    pub fn neighbors(self) -> Vec<Action> {
        let mut out = Vec::with_capacity(6);
        for delta in [-0.1, 0.1] {
            out.push(
                Action {
                    window_multiple: self.window_multiple + delta,
                    ..self
                }
                .clamped(),
            );
        }
        for delta in [-2.0, 2.0] {
            out.push(
                Action {
                    window_increment: self.window_increment + delta,
                    ..self
                }
                .clamped(),
            );
        }
        for factor in [0.5, 2.0] {
            out.push(
                Action {
                    intersend_ms: self.intersend_ms * factor,
                    ..self
                }
                .clamped(),
            );
        }
        out.retain(|a| a != &self);
        out
    }
}

/// An axis-aligned box in normalized memory space: `[lo, hi)` per dim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cube {
    /// Lower corner (inclusive).
    pub lo: [f64; DIMS],
    /// Upper corner (exclusive, except at 1.0).
    pub hi: [f64; DIMS],
}

impl Cube {
    /// The unit hypercube.
    pub fn unit() -> Self {
        Cube {
            lo: [0.0; DIMS],
            hi: [1.0; DIMS],
        }
    }

    /// Point membership (upper edge closed at exactly 1.0 so boundary
    /// points always land somewhere).
    pub fn contains(&self, p: &[f64; DIMS]) -> bool {
        (0..DIMS).all(|d| {
            p[d] >= self.lo[d] && (p[d] < self.hi[d] || (self.hi[d] >= 1.0 && p[d] <= 1.0))
        })
    }

    /// The widest dimension (first wins on ties, so splitting a fresh
    /// unit cube starts at dimension 0).
    pub fn widest_dim(&self) -> usize {
        let mut best = 0;
        for d in 1..DIMS {
            if self.hi[d] - self.lo[d] > self.hi[best] - self.lo[best] {
                best = d;
            }
        }
        best
    }

    /// Split at the midpoint of `dim` into (lower, upper) halves.
    pub fn split(&self, dim: usize) -> (Cube, Cube) {
        let mid = (self.lo[dim] + self.hi[dim]) / 2.0;
        let mut lower = *self;
        let mut upper = *self;
        lower.hi[dim] = mid;
        upper.lo[dim] = mid;
        (lower, upper)
    }
}

/// One rule: a box and the action to take inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Whisker {
    /// Domain of this rule.
    pub cube: Cube,
    /// Action applied while memory lies in the domain.
    pub action: Action,
}

/// The rule table: a partition of the unit memory cube.
///
/// ```
/// use phi_remy::{Action, WhiskerTree};
///
/// // Start with one rule, split on the shared-utilization dimension (3),
/// // and make the high-utilization half conservative.
/// let mut tree = WhiskerTree::initial();
/// let (_low, high) = tree.split_along(0, 3);
/// tree.set_action(high, Action {
///     window_multiple: 0.5,
///     window_increment: 0.0,
///     intersend_ms: 5.0,
/// });
///
/// let quiet = [0.1, 0.1, 0.0, 0.1]; // low shared utilization
/// let busy  = [0.1, 0.1, 0.0, 0.9]; // high shared utilization
/// assert!(tree.action_for(&quiet).window_increment > 0.0);
/// assert_eq!(tree.action_for(&busy).window_multiple, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WhiskerTree {
    whiskers: Vec<Whisker>,
}

impl WhiskerTree {
    /// A single-rule tree covering all of memory space.
    pub fn single(action: Action) -> Self {
        WhiskerTree {
            whiskers: vec![Whisker {
                cube: Cube::unit(),
                action,
            }],
        }
    }

    /// Default starting tree.
    pub fn initial() -> Self {
        WhiskerTree::single(Action::initial())
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.whiskers.len()
    }

    /// True if (impossibly) empty.
    pub fn is_empty(&self) -> bool {
        self.whiskers.is_empty()
    }

    /// The rules.
    pub fn whiskers(&self) -> &[Whisker] {
        &self.whiskers
    }

    /// Index of the whisker containing `point`.
    pub fn index_of(&self, point: &[f64; DIMS]) -> usize {
        self.whiskers
            .iter()
            .position(|w| w.cube.contains(point))
            .expect("whisker tree partitions the unit cube")
    }

    /// The action for `point`.
    pub fn action_for(&self, point: &[f64; DIMS]) -> Action {
        self.whiskers[self.index_of(point)].action
    }

    /// Replace whisker `idx`'s action.
    pub fn set_action(&mut self, idx: usize, action: Action) {
        self.whiskers[idx].action = action;
    }

    /// Split whisker `idx` along its widest dimension; both children
    /// inherit the parent's action. Returns the two child indices.
    pub fn split(&mut self, idx: usize) -> (usize, usize) {
        let dim = self.whiskers[idx].cube.widest_dim();
        self.split_along(idx, dim)
    }

    /// A human-readable rendering of the learned rules, one per line —
    /// what the trainer ships to operators alongside the tree.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        const DIM_NAMES: [&str; DIMS] = ["ack_ewma", "send_ewma", "rtt_ratio", "util"];
        let mut out = String::new();
        for (i, w) in self.whiskers.iter().enumerate() {
            let mut domain = Vec::new();
            for (d, name) in DIM_NAMES.iter().enumerate() {
                if w.cube.lo[d] > 0.0 || w.cube.hi[d] < 1.0 {
                    domain.push(format!(
                        "{name} in [{:.2}, {:.2})",
                        w.cube.lo[d], w.cube.hi[d]
                    ));
                }
            }
            let domain = if domain.is_empty() {
                "always".to_string()
            } else {
                domain.join(" & ")
            };
            let _ = writeln!(
                out,
                "rule {i}: when {domain} -> cwnd = {:.2}*cwnd + {:+.1}, pace {:.2} ms",
                w.action.window_multiple, w.action.window_increment, w.action.intersend_ms
            );
        }
        out
    }

    /// Split whisker `idx` along `dim` at the midpoint.
    pub fn split_along(&mut self, idx: usize, dim: usize) -> (usize, usize) {
        let w = self.whiskers[idx];
        let (lower, upper) = w.cube.split(dim);
        self.whiskers[idx] = Whisker {
            cube: lower,
            action: w.action,
        };
        self.whiskers.push(Whisker {
            cube: upper,
            action: w.action,
        });
        (idx, self.whiskers.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cube_contains_everything() {
        let c = Cube::unit();
        assert!(c.contains(&[0.0, 0.0, 0.0, 0.0]));
        assert!(c.contains(&[1.0, 1.0, 1.0, 1.0])); // closed at the top edge
        assert!(c.contains(&[0.3, 0.7, 0.5, 0.9]));
    }

    #[test]
    fn split_partitions_without_gap_or_overlap() {
        let c = Cube::unit();
        let (a, b) = c.split(2);
        // Points on either side of the midpoint land in exactly one half.
        let below = [0.5, 0.5, 0.49, 0.5];
        let above = [0.5, 0.5, 0.51, 0.5];
        let boundary = [0.5, 0.5, 0.5, 0.5];
        assert!(a.contains(&below) && !b.contains(&below));
        assert!(!a.contains(&above) && b.contains(&above));
        assert!(!a.contains(&boundary) && b.contains(&boundary)); // half-open
    }

    #[test]
    fn tree_lookup_after_splits_total() {
        let mut t = WhiskerTree::initial();
        t.split(0);
        t.split(0);
        t.split(1);
        assert_eq!(t.len(), 4);
        // Every corner and many random-ish points must land in exactly one
        // whisker.
        let probes = [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.25, 0.75, 0.5, 0.1],
            [0.49999, 0.5, 0.99, 0.0],
            [0.5, 0.0, 1.0, 0.3],
        ];
        for p in &probes {
            let hits = t.whiskers().iter().filter(|w| w.cube.contains(p)).count();
            assert_eq!(hits, 1, "point {p:?} hit {hits} whiskers");
        }
    }

    #[test]
    fn split_children_inherit_action() {
        let mut t = WhiskerTree::single(Action {
            window_multiple: 0.7,
            window_increment: 3.0,
            intersend_ms: 2.0,
        });
        let (a, b) = t.split(0);
        assert_eq!(t.whiskers()[a].action, t.whiskers()[b].action);
        assert_eq!(t.whiskers()[a].action.window_multiple, 0.7);
    }

    #[test]
    fn set_action_targets_one_whisker() {
        let mut t = WhiskerTree::initial();
        let (a, b) = t.split_along(0, 3); // split on util
        let mut act = t.whiskers()[a].action;
        act.window_increment = -5.0;
        t.set_action(a, act);
        assert_ne!(t.whiskers()[a].action, t.whiskers()[b].action);
        // Low-util point gets the new action, high-util the old one.
        let low = [0.1, 0.1, 0.1, 0.1];
        let high = [0.1, 0.1, 0.1, 0.9];
        assert_eq!(t.action_for(&low).window_increment, -5.0);
        assert_eq!(t.action_for(&high).window_increment, 1.0);
    }

    #[test]
    fn neighbors_differ_and_respect_bounds() {
        let a = Action::initial();
        let n = a.neighbors();
        assert!(n.len() >= 5);
        assert!(n.iter().all(|x| x != &a));
        // Clamping at the edge of the action box.
        let edge = Action {
            window_multiple: 2.0,
            window_increment: 20.0,
            intersend_ms: 50.0,
        };
        for x in edge.neighbors() {
            assert!(x.window_multiple <= 2.0);
            assert!(x.window_increment <= 20.0);
            assert!(x.intersend_ms <= 50.0);
        }
    }

    #[test]
    fn describe_is_readable_and_complete() {
        let mut t = WhiskerTree::initial();
        t.split_along(0, 3);
        let text = t.describe();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("util in [0.00, 0.50)"), "{text}");
        assert!(lines[1].contains("util in [0.50, 1.00)"), "{text}");
        assert!(lines[0].contains("cwnd = 1.00*cwnd"));
    }

    #[test]
    fn widest_dim_found() {
        let mut c = Cube::unit();
        c.lo = [0.0, 0.4, 0.0, 0.9];
        c.hi = [0.3, 0.6, 1.0, 1.0];
        assert_eq!(c.widest_dim(), 2);
    }
}
