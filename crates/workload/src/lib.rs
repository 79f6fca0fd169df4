//! # phi-workload — deterministic workload generation
//!
//! Seeded random streams and the traffic models used across the Phi
//! reproduction:
//!
//! * [`rng::SeedRng`] — forkable ChaCha8 streams; every random choice in an
//!   experiment is addressed by a label, so runs are reproducible and
//!   insensitive to unrelated code changes.
//! * [`dist`] — exponential, bounded-Pareto, constant, and Zipf samplers
//!   implemented from first principles.
//! * [`onoff`] — the paper's on/off sender model (§2.2): exponential
//!   on-period bytes, exponential off-period gaps.
//! * [`incast`] — the synchronized many-to-one datacenter fan-in
//!   (fixed blocks, barrier rounds), plus the [`incast::FlowSource`]
//!   enum that lets transports take either model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod incast;
pub mod onoff;
pub mod rng;

pub use dist::{BoundedPareto, Constant, Exponential, Sample, Zipf};
pub use incast::{FlowSource, IncastConfig, IncastSource};
pub use onoff::{FlowPlan, OnOffConfig, OnOffSource};
pub use rng::{fnv1a, SeedRng};
