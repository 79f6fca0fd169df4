//! Tier-1's check of the TCP sender: named seeds of the runs
//! `crates/tcp/tests/reference.rs` draws at random, each through
//! `TcpSender` and through the plain sender in
//! `crates/tcp/tests/model/sender.rs`, which must agree on every segment
//! sent, every RTO, every call into the congestion controller and every
//! flow report. The property test beside the model runs only under
//! `--workspace`.

use phi::workload::SeedRng;

#[path = "../crates/tcp/tests/model/sender.rs"]
mod sender;
use sender::{check, Coverage, Scenario};

const SEEDS: [u64; 32] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
    27, 28, 29, 30, 31, 32,
];

#[test]
fn sender_matches_the_model_on_named_seeds() {
    let mut reached = Coverage::default();
    for seed in SEEDS {
        match check(&Scenario::draw(&mut SeedRng::new(seed))) {
            Ok(run) => reached.add(&run),
            Err(why) => panic!("seed {seed}: {why}"),
        }
    }
    // Every rule the model states was exercised: the seeds compare more
    // than clean transfers.
    let missing = reached.missing();
    assert!(
        missing.is_empty(),
        "never reached: {missing:?} ({reached:?})"
    );
}
