//! Tier-1's check of the engine's links and switches: named seeds of the
//! scenarios `crates/sim/tests/reference.rs` draws at random — lines and
//! trees with impairment plans, switch fan-ins and rings — each run
//! through the engine and through the reference model in
//! `crates/sim/tests/model/links.rs`, which must agree on every packet's
//! fate and time, and on the census, `LinkStats`, `SwitchStats` and
//! `FaultStats` at every stop. The property test beside the model runs
//! only under `--workspace`.

use phi::sim::time::Time;
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

#[test]
fn no_link_ends_paused_toward_a_switch_that_holds_no_pause() {
    for seed in 1..=40 {
        let mut scenario = Scenario::draw_switched(&mut SeedRng::new(seed));
        // Long after the traffic: each link still paused a second before
        // the end observation adds a second to `paused_ns` by then.
        scenario.cuts.push(Time::from_secs(99));
        let engine = agree(seed, &scenario);
        let [before, end] = &engine.observed[engine.observed.len() - 2..] else {
            unreachable!("a cut and the end observation");
        };
        let paused = (end.census.paused_ns - before.census.paused_ns) / 1_000_000_000;
        let held: u64 = end.switches.iter().map(|s| s.pauses - s.resumes).sum();
        assert_eq!(paused, held, "seed {seed}: links paused, pauses held");
    }
}
