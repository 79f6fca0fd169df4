//! The sender against the reference model in `model/sender.rs`: random
//! runs of one to four flows over a lossy, jittery duplex link, through
//! `TcpSender` and through the model. Every segment sent, every RTO,
//! every call into the congestion controller and every flow report must
//! agree.

use proptest::prelude::*;

use phi_workload::SeedRng;

#[path = "model/sender.rs"]
#[allow(dead_code)] // the coverage tally is read by the named seeds
mod sender;
use sender::{check, Scenario};

proptest! {
    #[test]
    fn sender_matches_the_model(seed in any::<u64>()) {
        let verdict = check(&Scenario::draw(&mut SeedRng::new(seed)));
        prop_assert!(verdict.is_ok(), "seed {seed}: {}", verdict.unwrap_err());
    }
}
