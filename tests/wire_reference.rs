//! Tier-1's check of the wire codec: the optimised `phi::core::wire`
//! held against the field-by-field codec in `crates/core/tests/model`
//! (ROADMAP 1d, wire half — the property tests beside that model run only
//! under `--workspace`).
//!
//! The same three properties as `props.rs`, over a slice of the same
//! inputs: the vendored proptest seeds each property from its name, so
//! the cases below are the same on every run.

use proptest::prelude::*;

use phi::core::wire::encode;

#[path = "../crates/core/tests/model/wire.rs"]
mod wire_model;
use wire_model::{arb_message, damage, decode_agrees, encode_agrees, DAMAGES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encoder_writes_the_models_bytes(msg in arb_message()) {
        let agrees = encode_agrees(&msg);
        prop_assert!(agrees.is_ok(), "{}", agrees.unwrap_err());
    }

    /// Every kind of damage to every case's frame, a valid frame behind
    /// it: same answers, same bytes left, no panic.
    #[test]
    fn decoder_answers_as_the_model_on_damaged_frames(
        msg in arb_message(),
        follower in arb_message(),
        (a, b) in (any::<u64>(), any::<u64>()),
        piece in 1usize..200,
    ) {
        let (frame, follower) = (encode(&msg), encode(&follower));
        for kind in 0..DAMAGES {
            let mut stream = damage(&frame, kind, a, b);
            stream.extend_from_slice(&follower);
            let agrees = decode_agrees(&stream, piece);
            prop_assert!(agrees.is_ok(), "damage {kind} ({a}, {b}) to {msg:?}: {}", agrees.unwrap_err());
        }
    }

    #[test]
    fn decoder_answers_as_the_model_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        piece in 1usize..200,
    ) {
        let agrees = decode_agrees(&bytes, piece);
        prop_assert!(agrees.is_ok(), "{}", agrees.unwrap_err());
    }
}
