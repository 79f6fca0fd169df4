//! End-to-end learned congestion control: train on the simulator, then
//! verify the learned policy is at least competitive and that the Phi
//! utilization feed changes sender behaviour.

use std::sync::Arc;

use phi::core::harness::{provision_cubic, run_experiment, ExperimentSpec};
use phi::remy::{
    provision_remy, run_objective, Action, Trainer, TrainerConfig, UsageTally, UtilFeed,
    WhiskerTree,
};
use phi::sim::time::Dur;
use phi::tcp::CubicParams;
use phi::workload::OnOffConfig;

fn scenario(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        4,
        OnOffConfig {
            mean_on_bytes: 200_000.0,
            mean_off_secs: 0.4,
            deterministic: false,
        },
        Dur::from_secs(12),
        seed,
    );
    spec.dumbbell.bottleneck_bps = 10_000_000;
    spec.dumbbell.rtt = Dur::from_millis(100);
    spec
}

#[test]
fn trained_remy_beats_its_own_starting_point() {
    let mut trainer = Trainer::new(TrainerConfig {
        scenarios: vec![scenario(42)],
        feed: UtilFeed::None,
        max_whiskers: 2,
        max_rounds: 4,
        climb_steps: 2,
    });
    let start = WhiskerTree::initial();
    let start_obj = {
        let r = run_experiment(
            &scenario(42),
            provision_remy(Arc::new(start.clone()), UtilFeed::None, None),
        );
        run_objective(&r)
    };
    let (trained, final_obj) = trainer.train(start);
    assert!(
        final_obj >= start_obj - 1e-9,
        "training regressed: {start_obj} -> {final_obj}"
    );
    // Generalization: evaluate the trained tree on an unseen seed.
    let r = run_experiment(
        &scenario(4242),
        provision_remy(Arc::new(trained), UtilFeed::None, None),
    );
    assert!(
        r.metrics.flows_completed > 5,
        "trained tree must still work"
    );
}

#[test]
fn remy_is_competitive_with_misconfigured_cubic() {
    // A modest claim that must hold even with tiny training: learned
    // control beats a badly configured hand-tuned one.
    let mut trainer = Trainer::new(TrainerConfig {
        scenarios: vec![scenario(7)],
        feed: UtilFeed::None,
        max_whiskers: 2,
        max_rounds: 4,
        climb_steps: 2,
    });
    let (tree, _) = trainer.train(WhiskerTree::initial());
    let eval = scenario(1234);
    let remy = run_experiment(&eval, provision_remy(Arc::new(tree), UtilFeed::None, None));
    let bad_cubic = run_experiment(&eval, provision_cubic(CubicParams::tuned(2.0, 2.0, 0.9)));
    assert!(
        run_objective(&remy) > run_objective(&bad_cubic),
        "learned control should beat a pathological configuration"
    );
}

#[test]
fn util_feed_steers_behaviour_through_the_tree() {
    // Tree: low-utilization half is aggressive, high-utilization half is
    // very conservative. Under the ideal feed on a busy network, senders
    // must spend time in the conservative half; without a feed they can't.
    let mut tree = WhiskerTree::single(Action {
        window_multiple: 1.0,
        window_increment: 4.0,
        intersend_ms: 0.5,
    });
    let (_low, high) = tree.split_along(0, 3);
    tree.set_action(
        high,
        Action {
            window_multiple: 0.8,
            window_increment: 0.0,
            intersend_ms: 4.0,
        },
    );
    let tree = Arc::new(tree);

    let spec = scenario(88);
    let tally_fed = UsageTally::for_tree(&tree);
    let fed = run_experiment(
        &spec,
        provision_remy(tree.clone(), UtilFeed::Ideal, Some(tally_fed.clone())),
    );
    let tally_blind = UsageTally::for_tree(&tree);
    let blind = run_experiment(
        &spec,
        provision_remy(tree.clone(), UtilFeed::None, Some(tally_blind.clone())),
    );

    let fed_counts = tally_fed.counts();
    let blind_counts = tally_blind.counts();
    assert!(
        fed_counts[1] > 0,
        "ideal feed must reach the high-utilization whisker: {fed_counts:?}"
    );
    assert_eq!(
        blind_counts[1], 0,
        "without a feed util stays 0: {blind_counts:?}"
    );
    // Both arms still deliver.
    assert!(fed.metrics.flows_completed > 0 && blind.metrics.flows_completed > 0);
}

#[test]
fn practical_feed_uses_store_and_freezes_between_flows() {
    let spec = scenario(99);
    let tree = Arc::new(WhiskerTree::initial());
    let mut r = run_experiment(&spec, provision_remy(tree, UtilFeed::Practical, None));
    let (lookups, reports) = r.store.traffic_counters(phi::core::DUMBBELL_PATH);
    assert!(lookups >= reports && reports > 0);
    // The store's learned picture is coherent with the sim.
    let ctx = r
        .store
        .peek(phi::core::DUMBBELL_PATH, spec.duration.as_nanos());
    assert!(ctx.utilization > 0.0 && ctx.utilization <= 1.0);
}
