//! The engine against the reference model in `model/links.rs`: random
//! lines and trees with impairment plans, and random switch fan-ins and
//! rings, with scheduled injections, run through both. Every packet must
//! meet the same fate at the same time, and the census, `LinkStats`,
//! `SwitchStats` and `FaultStats` must agree at every stop.

use proptest::prelude::*;

use phi_workload::SeedRng;

#[path = "model/links.rs"]
mod links;
use links::{compare, run_engine, run_model, Scenario};

proptest! {
    #[test]
    fn engine_matches_the_link_model(seed in any::<u64>()) {
        let scenario = Scenario::draw(&mut SeedRng::new(seed));
        let verdict = compare(&run_model(&scenario), &run_engine(&scenario));
        prop_assert!(verdict.is_ok(), "seed {seed}: {}", verdict.unwrap_err());
    }

    #[test]
    fn engine_matches_the_switch_model(seed in any::<u64>()) {
        let scenario = Scenario::draw_switched(&mut SeedRng::new(seed));
        let verdict = compare(&run_model(&scenario), &run_engine(&scenario));
        prop_assert!(verdict.is_ok(), "seed {seed}: {}", verdict.unwrap_err());
    }
}
