//! The session hook: where Phi plugs into the transport.
//!
//! The paper's practical design (§2.2.2) keeps context-server traffic
//! minimal: a sender **looks up** the congestion context once when a new
//! connection starts (to pick parameters) and **reports back** once when
//! the connection ends (to refresh the shared state). [`SessionHook`]
//! models exactly that interaction, plus an optional live utilization feed
//! for the *ideal* variants that assume up-to-the-minute shared knowledge.
//!
//! `phi-tcp` defines the trait so the transport stays independent of the
//! context-server implementation; `phi-core` provides the real hooks. A
//! lookup that gets no answer is the §2.2.2 failure case: the sender
//! builds a default controller and, with no live feed either, runs that
//! connection as vanilla TCP.

use phi_sim::engine::Ctx;
use phi_sim::time::Time;

use crate::report::FlowReport;

/// A snapshot of the shared congestion context for one path, as returned
/// by a context-server lookup. This is the paper's (u, q, n) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextSnapshot {
    /// Estimated bottleneck utilization, [0, 1].
    pub utilization: f64,
    /// Estimated queueing delay (RTT inflation over minimum), milliseconds.
    pub queue_ms: f64,
    /// Estimated number of competing senders on the path.
    pub competing: u32,
}

/// Transport-to-Phi interaction points for one sender.
pub trait SessionHook {
    /// A new connection is starting: look up the shared context, if any.
    /// The returned snapshot is handed to the congestion-control factory.
    fn lookup(&mut self, _now: Time, _ctx: &mut Ctx<'_>) -> Option<ContextSnapshot> {
        None
    }

    /// The connection finished: report its experience to the shared state.
    fn report(&mut self, _report: &FlowReport, _ctx: &mut Ctx<'_>) {}

    /// Live shared-utilization feed, sampled on every ACK.
    ///
    /// * Ideal mode (Remy-Phi-ideal): reads the bottleneck's rolling
    ///   utilization directly from the simulator.
    /// * Practical mode (Remy-Phi-practical): returns the utilization the
    ///   current connection's [`SessionHook::lookup`] answered, frozen
    ///   until its report; `None` if that lookup got no answer.
    /// * Plain senders: `None`.
    fn live_util(&self, _ctx: &Ctx<'_>) -> Option<f64> {
        None
    }
}

/// The no-coordination hook: a sender that flies blind, like classic TCP.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl SessionHook for NoHook {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hook_is_inert() {
        // NoHook's default methods return nothing; we can't easily build a
        // Ctx here (engine-internal), so just assert the snapshot type is
        // well-behaved and the hook is constructible.
        let snap = ContextSnapshot {
            utilization: 0.7,
            queue_ms: 12.0,
            competing: 5,
        };
        let round: ContextSnapshot = snap;
        assert_eq!(round, snap);
        let _hook = NoHook;
    }
}
