//! Tier-1's check of the engine's links and switches: named seeds of the
//! scenarios `crates/sim/tests/reference.rs` draws at random — lines and
//! trees with impairment plans, switch fan-ins and rings — each run
//! through the engine and through the reference model in
//! `crates/sim/tests/model/links.rs`, which must agree on every packet's
//! fate and time, and on the census, `LinkStats`, `SwitchStats` and
//! `FaultStats` at every stop. The property test beside the model runs
//! only under `--workspace`.

use phi::workload::SeedRng;

#[path = "../crates/sim/tests/model/links.rs"]
mod links;
use links::{compare, run_engine, run_model, Outcome, Scenario};

const SEEDS: [u64; 24] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
];

/// Run `scenario` through both and return the engine's outcome.
fn agree(seed: u64, scenario: &Scenario) -> Outcome {
    let engine = run_engine(scenario);
    if let Err(why) = compare(&run_model(scenario), &engine) {
        panic!("seed {seed}: {why}");
    }
    engine
}

#[test]
fn engine_matches_the_link_model_on_named_seeds() {
    let mut seen = [0u64; 6];
    for seed in SEEDS {
        let engine = agree(seed, &Scenario::draw(&mut SeedRng::new(seed)));
        let c = &engine.observed.last().expect("an end observation").census;
        for (n, k) in seen.iter_mut().zip([
            c.delivered,
            c.dropped,
            c.undeliverable,
            c.corrupted,
            c.duplicated,
            c.blackholed,
        ]) {
            *n += k;
        }
    }
    // Every fate occurred somewhere: the seeds compare more than deliveries.
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}

#[test]
fn engine_matches_the_switch_model_on_named_seeds() {
    let mut seen = [0u64; 4];
    for seed in SEEDS {
        let engine = agree(seed, &Scenario::draw_switched(&mut SeedRng::new(seed)));
        let end = engine.observed.last().expect("an end observation");
        for s in &end.switches {
            for (n, k) in
                seen.iter_mut()
                    .zip([s.ecn_marked, s.shared_drops, s.pauses, s.watchdog_fires])
            {
                *n += k;
            }
        }
    }
    // Marks, shared drops, pauses and watchdog fires each occurred.
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}
