//! Tier-1's run of the transport's surgical loss-recovery scenarios: the
//! tests of `crates/tcp/tests/recovery.rs`, compiled here so that a plain
//! `cargo test` runs them too. In a debug build the sender checks its
//! scoreboard and send pointers after every ACK and every RTO of each
//! scenario (the suite there runs only under `--workspace`).

#[path = "../crates/tcp/tests/recovery.rs"]
mod recovery;
