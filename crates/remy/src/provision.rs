//! Plugging Remy senders into the `phi-core` experiment harness.
//!
//! The three evaluation arms of Table 3 differ only in their utilization
//! feed:
//!
//! * [`UtilFeed::None`] — plain Remy: no shared information, `u` stays 0.
//! * [`UtilFeed::Ideal`] — Remy-Phi-ideal: every ACK carries the
//!   bottleneck's rolling utilization from the simulator oracle.
//! * [`UtilFeed::Practical`] — Remy-Phi-practical: `u` is fetched from the
//!   context store at connection start and frozen until the next flow
//!   (§2.2.2's lookup/report discipline).

use std::sync::Arc;

use phi_core::harness::{ProvisionCtx, Provisioned};
use phi_core::hooks::{IdealOracleHook, PracticalHook};
use phi_tcp::hook::NoHook;

use crate::controller::{RemyCc, UsageTally};
use crate::whisker::WhiskerTree;

/// How senders obtain the shared utilization signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilFeed {
    /// No sharing (plain Remy).
    None,
    /// Live oracle from the bottleneck link (Remy-Phi-ideal).
    Ideal,
    /// Context-store lookup at flow start (Remy-Phi-practical).
    Practical,
}

/// Provision every sender as a Remy sender over `tree` with the given
/// feed. If `tally` is supplied, whisker usage is accumulated there (the
/// trainer's signal for what to optimize next). `Sync`, so it also serves
/// [`phi_core::harness::run_repeated`], which fans runs across worker
/// threads.
pub fn provision_remy(
    tree: Arc<WhiskerTree>,
    feed: UtilFeed,
    tally: Option<Arc<UsageTally>>,
) -> impl Fn(ProvisionCtx<'_>) -> Provisioned + Sync {
    move |ctx| {
        let tree = tree.clone();
        let tally = tally.clone();
        let hook: Box<dyn phi_tcp::hook::SessionHook> = match feed {
            UtilFeed::None => Box::new(NoHook),
            UtilFeed::Ideal => {
                let rate = ctx.net.topology.link(ctx.net.bottleneck).rate_bps;
                Box::new(IdealOracleHook::new(
                    ctx.net.bottleneck,
                    rate,
                    ctx.net.senders.len() as u32,
                ))
            }
            UtilFeed::Practical => Box::new(PracticalHook::new(ctx.store.clone(), ctx.path)),
        };
        Provisioned {
            factory: Box::new(move |_| Box::new(RemyCc::new(tree.clone(), tally.clone()))),
            hook,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_core::harness::{run_experiment, ExperimentSpec};
    use phi_sim::time::Dur;
    use phi_workload::OnOffConfig;

    fn quick_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            4,
            OnOffConfig {
                mean_on_bytes: 200_000.0,
                mean_off_secs: 0.5,
                deterministic: false,
            },
            Dur::from_secs(15),
            5,
        );
        spec.dumbbell.bottleneck_bps = 10_000_000;
        spec.dumbbell.rtt = Dur::from_millis(100);
        spec
    }

    #[test]
    fn remy_senders_complete_flows() {
        let spec = quick_spec();
        let tree = Arc::new(WhiskerTree::initial());
        let r = run_experiment(&spec, provision_remy(tree, UtilFeed::None, None));
        assert!(r.metrics.flows_completed > 5, "{:?}", r.metrics);
        assert!(r.metrics.throughput_mbps > 0.1);
    }

    #[test]
    fn ideal_feed_reaches_controllers() {
        // With an ideal feed and a tree split on util, usage must appear in
        // whiskers that only a non-zero util can reach.
        let spec = quick_spec();
        let mut tree = WhiskerTree::initial();
        let (_low, _high) = tree.split_along(0, 3);
        let tree = Arc::new(tree);
        let tally = UsageTally::for_tree(&tree);
        let _ = run_experiment(
            &spec,
            provision_remy(tree.clone(), UtilFeed::Ideal, Some(tally.clone())),
        );
        let counts = tally.counts();
        assert_eq!(counts.len(), 2);
        assert!(
            counts[1] > 0,
            "high-util whisker never used; feed not flowing ({counts:?})"
        );
    }

    #[test]
    fn no_feed_never_leaves_zero_util_whisker() {
        let spec = quick_spec();
        let mut tree = WhiskerTree::initial();
        let (_low, _high) = tree.split_along(0, 3);
        let tree = Arc::new(tree);
        let tally = UsageTally::for_tree(&tree);
        let _ = run_experiment(
            &spec,
            provision_remy(tree.clone(), UtilFeed::None, Some(tally.clone())),
        );
        let counts = tally.counts();
        assert!(counts[0] > 0);
        assert_eq!(counts[1], 0, "util stayed 0 so only whisker 0 is reachable");
    }

    #[test]
    fn practical_feed_populates_store() {
        let spec = quick_spec();
        let tree = Arc::new(WhiskerTree::initial());
        let r = run_experiment(&spec, provision_remy(tree, UtilFeed::Practical, None));
        let (lookups, reports) = r.store.traffic_counters(phi_core::DUMBBELL_PATH);
        assert!(lookups > 0 && reports > 0);
    }
}
