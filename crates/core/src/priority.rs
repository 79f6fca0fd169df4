//! Cross-flow prioritization (§3.3).
//!
//! In the five-computer world, one entity owns many flows crossing the
//! same bottleneck; it can make some flows more aggressive than others —
//! by *importance* — while keeping the ensemble as a whole TCP-friendly.
//! We realize this with MulTCP-style weighting of AIMD: a flow of weight
//! `w` increases by `w` segments per RTT and decreases by `1/(2w)` of its
//! window on loss, so it behaves like `w` standard flows bundled together.
//! [`EnsembleAllocator`] turns per-flow priorities into weights that sum
//! to the ensemble's flow count, preserving the aggregate footprint.

use phi_tcp::newreno::NewRenoParams;

/// MulTCP parameters for a flow that should behave like `weight` standard
/// TCP flows (weight ≥ 0.1 to keep the decrease factor sane).
pub fn multcp_params(weight: f64) -> NewRenoParams {
    assert!(
        (0.1..=64.0).contains(&weight),
        "weight must be in [0.1, 64], got {weight}"
    );
    NewRenoParams {
        init_window: 2.0,
        init_ssthresh: 65_536.0,
        increase: weight,
        // A bundle of w flows loses one member's half-window: cwnd/(2w).
        // For sub-unit weights the raw formula goes non-positive, so clamp
        // to a usable multiplicative-decrease range.
        decrease: (1.0 - 1.0 / (2.0 * weight)).clamp(0.1, 0.95),
    }
}

/// Importance classes with conventional weights, for the examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Importance {
    /// Background bulk transfer.
    Bulk,
    /// Ordinary interactive traffic.
    Normal,
    /// Premium traffic (e.g. an HD movie stream).
    Premium,
}

impl Importance {
    /// Relative priority of this class.
    pub fn priority(self) -> f64 {
        match self {
            Importance::Bulk => 0.5,
            Importance::Normal => 1.0,
            Importance::Premium => 2.0,
        }
    }
}

/// Turns per-flow priorities into TCP-friendly ensemble weights.
///
/// ```
/// use phi_core::priority::{multcp_params, EnsembleAllocator};
///
/// // A premium flow twice as important as two normal ones.
/// let weights = EnsembleAllocator.weights(&[2.0, 1.0, 1.0]);
/// assert!((weights.iter().sum::<f64>() - 3.0).abs() < 1e-12); // friendly
/// let premium = multcp_params(weights[0]);
/// assert!(premium.increase > 1.0); // grows faster than standard TCP
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnsembleAllocator;

impl EnsembleAllocator {
    /// Weights proportional to `priorities`, normalized so they sum to the
    /// number of flows — the ensemble then consumes the same aggregate
    /// share as `n` standard flows ("the ensemble of flows remains
    /// TCP-friendly", §3.3).
    pub fn weights(&self, priorities: &[f64]) -> Vec<f64> {
        assert!(!priorities.is_empty(), "no flows to allocate");
        assert!(
            priorities.iter().all(|&p| p > 0.0 && p.is_finite()),
            "priorities must be positive and finite"
        );
        let n = priorities.len() as f64;
        let total: f64 = priorities.iter().sum();
        priorities.iter().map(|&p| p * n / total).collect()
    }

    /// Weights for a set of importance classes.
    pub fn weights_for(&self, classes: &[Importance]) -> Vec<f64> {
        let prios: Vec<f64> = classes.iter().map(|c| c.priority()).collect();
        self.weights(&prios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_flow_count() {
        let a = EnsembleAllocator;
        let w = a.weights(&[1.0, 2.0, 5.0]);
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f64>() - 3.0).abs() < 1e-12);
        // Proportionality.
        assert!((w[1] / w[0] - 2.0).abs() < 1e-12);
        assert!((w[2] / w[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn equal_priorities_give_unit_weights() {
        let a = EnsembleAllocator;
        for w in a.weights(&[3.0, 3.0, 3.0, 3.0]) {
            assert!((w - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn importance_classes_rank() {
        let a = EnsembleAllocator;
        let w = a.weights_for(&[Importance::Bulk, Importance::Normal, Importance::Premium]);
        assert!(w[0] < w[1] && w[1] < w[2]);
        assert!((w.iter().sum::<f64>() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn multcp_params_shape() {
        let p1 = multcp_params(1.0);
        assert!((p1.increase - 1.0).abs() < 1e-12);
        assert!((p1.decrease - 0.5).abs() < 1e-12); // standard TCP

        let p4 = multcp_params(4.0);
        assert!((p4.increase - 4.0).abs() < 1e-12);
        assert!((p4.decrease - 0.875).abs() < 1e-12); // loses 1/8

        // Sub-unit weights stay in a valid decrease range.
        let p_low = multcp_params(0.3);
        assert!((0.1..1.0).contains(&p_low.decrease));

        // Heavier flows are strictly more aggressive on both axes.
        assert!(p4.increase > p1.increase);
        assert!(p4.decrease > p1.decrease);
        assert!(p_low.decrease <= p1.decrease);
    }

    #[test]
    #[should_panic(expected = "weight must be")]
    fn multcp_rejects_extreme_weight() {
        multcp_params(1000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn allocator_rejects_nonpositive() {
        EnsembleAllocator.weights(&[1.0, 0.0]);
    }
}
