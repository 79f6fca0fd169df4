//! # phi-telemetry — IPFIX-style flow export and sharing analysis
//!
//! The §2.1 measurement pipeline of the five-computers paper: routers
//! sample one in 4096 packets ([`sampler::Sampler`]), export compact flow
//! records ([`record::IpfixRecord`], [`codec`]) to a centralized
//! collector that aggregates distinct flows per (destination /24, minute)
//! bucket ([`collector::Collector`]), and the sharing-opportunity CDF
//! ([`analysis::SharingCdf`]) answers the paper's question: how many
//! flows share a WAN path with how many others?
//!
//! The exporter → collector hop is [`export::LossyExporter`]: records
//! cross it in codec batches, with seeded transit loss and a bounded
//! staging buffer.
//!
//! Production traces are substituted by [`synth`], a deterministic
//! Zipf-popularity egress generator — see DESIGN.md for why the
//! substitution preserves the analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codec;
pub mod collector;
pub mod export;
pub mod record;
pub mod sampler;
pub mod synth;

pub use analysis::SharingCdf;
pub use codec::{decode_batch, encode_batch, CodecError};
pub use collector::{Bucket, BucketId, Collector};
pub use export::LossyExporter;
pub use record::{FlowKey, IpfixRecord, Subnet24};
pub use sampler::{Mode, Sampler, PAPER_RATE};
pub use synth::{generate_flows, EgressConfig, SynthFlow};
