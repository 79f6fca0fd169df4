//! Informed adaptation without cooperation (§3.2).
//!
//! When the majority of senders do not cooperate, FIFO queueing means the
//! congestion state itself cannot be improved — but a minority that shares
//! information can still *adapt* to the observed network better than a
//! blind host:
//!
//! * [`JitterBufferAdvisor`] — initialize (and keep updating) an A/V
//!   jitter buffer from the delay-variation distribution observed by
//!   *other* connections to the same place, instead of starting from a
//!   guess.
//! * [`ReorderingAdvisor`] — raise the duplicate-ACK threshold above 3
//!   when the shared experience says reordering is common (spurious fast
//!   retransmits), and keep it low when it isn't.

/// A bounded reservoir of delay-variation samples with quantile queries.
///
/// Keeps the most recent `capacity` samples (ring buffer); quantiles are
/// computed exactly over the retained window — the right behaviour for a
/// "network weather" signal where old samples should age out.
#[derive(Debug, Clone)]
pub struct JitterBufferAdvisor {
    samples: Vec<f64>,
    capacity: usize,
    next: usize,
    /// Safety margin multiplier applied to the recommended percentile.
    margin: f64,
}

impl JitterBufferAdvisor {
    /// An advisor retaining up to `capacity` samples with a safety
    /// `margin` multiplier (e.g. 1.2 = 20 % headroom).
    pub fn new(capacity: usize, margin: f64) -> Self {
        assert!(capacity >= 8, "capacity too small to be meaningful");
        assert!(margin >= 1.0, "margin must not shrink the estimate");
        JitterBufferAdvisor {
            samples: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            margin,
        }
    }

    /// Record one delay-variation sample (milliseconds), e.g. the RTT
    /// inflation a finished connection reported.
    pub fn record(&mut self, jitter_ms: f64) {
        if !jitter_ms.is_finite() || jitter_ms < 0.0 {
            return;
        }
        if self.samples.len() < self.capacity {
            self.samples.push(jitter_ms);
        } else {
            self.samples[self.next] = jitter_ms;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of retained samples, if any.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }

    /// Recommended initial jitter-buffer depth in milliseconds: the 95th
    /// percentile of observed delay variation times the safety margin.
    /// `None` until there is shared experience to draw on.
    pub fn recommend_ms(&self) -> Option<f64> {
        self.quantile(0.95).map(|p| p * self.margin)
    }
}

/// Observations about packet reordering, aggregated across connections.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReorderingStats {
    /// Fast-retransmit episodes observed.
    pub recoveries: u64,
    /// Of those, episodes later revealed spurious (the "lost" segment
    /// arrived anyway — receivers count these as duplicate data segments).
    pub spurious: u64,
}

/// Tunes the duplicate-ACK threshold from shared reordering experience.
#[derive(Debug, Clone, Copy)]
pub struct ReorderingAdvisor {
    /// Spurious fraction above which the threshold is raised one step.
    pub step_threshold: f64,
    /// Ceiling for the recommended threshold.
    pub max_threshold: u32,
}

impl Default for ReorderingAdvisor {
    fn default() -> Self {
        ReorderingAdvisor {
            step_threshold: 0.05,
            max_threshold: 8,
        }
    }
}

impl ReorderingAdvisor {
    /// Recommended duplicate-ACK threshold given shared `stats`.
    ///
    /// Starts from the classic 3 and adds one step for each factor-of-two
    /// the spurious fraction exceeds `step_threshold`, capped at
    /// `max_threshold`. With few observations (< 20 recoveries) it stays
    /// at 3 — no evidence, no deviation.
    pub fn recommend(&self, stats: &ReorderingStats) -> u32 {
        if stats.recoveries < 20 {
            return 3;
        }
        let frac = stats.spurious as f64 / stats.recoveries as f64;
        if frac < self.step_threshold {
            return 3;
        }
        let steps = (frac / self.step_threshold).log2().floor() as u32 + 1;
        (3 + steps).min(self.max_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_advisor_tracks_p95() {
        let mut a = JitterBufferAdvisor::new(1024, 1.0);
        assert!(a.recommend_ms().is_none());
        for i in 0..100 {
            a.record(i as f64); // 0..99 ms uniformly
        }
        let rec = a.recommend_ms().unwrap();
        assert!((rec - 94.0).abs() <= 1.0, "p95 of 0..99 ≈ 94, got {rec}");
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn jitter_margin_applies() {
        let mut a = JitterBufferAdvisor::new(64, 1.5);
        for _ in 0..50 {
            a.record(10.0);
        }
        assert!((a.recommend_ms().unwrap() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_ring_ages_out_old_samples() {
        let mut a = JitterBufferAdvisor::new(8, 1.0);
        for _ in 0..8 {
            a.record(100.0);
        }
        // Overwrite the whole ring with small samples.
        for _ in 0..8 {
            a.record(1.0);
        }
        assert!((a.recommend_ms().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_rejects_garbage() {
        let mut a = JitterBufferAdvisor::new(8, 1.0);
        a.record(f64::NAN);
        a.record(-5.0);
        a.record(f64::INFINITY);
        assert!(a.is_empty());
    }

    #[test]
    fn reordering_advisor_defaults_to_three() {
        let adv = ReorderingAdvisor::default();
        // No evidence.
        assert_eq!(
            adv.recommend(&ReorderingStats {
                recoveries: 5,
                spurious: 5
            }),
            3
        );
        // Low reordering.
        assert_eq!(
            adv.recommend(&ReorderingStats {
                recoveries: 1000,
                spurious: 10
            }),
            3
        );
    }

    #[test]
    fn reordering_advisor_scales_with_prevalence() {
        let adv = ReorderingAdvisor::default();
        let at = |spurious| {
            adv.recommend(&ReorderingStats {
                recoveries: 1000,
                spurious,
            })
        };
        let mild = at(60); // 6 %
        let heavy = at(400); // 40 %
        assert!(mild > 3);
        assert!(heavy > mild);
        assert!(heavy <= adv.max_threshold);
    }

    #[test]
    fn reordering_advisor_caps() {
        let adv = ReorderingAdvisor {
            step_threshold: 0.01,
            max_threshold: 6,
        };
        let rec = adv.recommend(&ReorderingStats {
            recoveries: 1000,
            spurious: 990,
        });
        assert_eq!(rec, 6);
    }
}
