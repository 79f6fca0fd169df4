//! # phi-remy — learned congestion control (TCP ex Machina) with Phi's
//! shared-context extension
//!
//! A compact but structurally faithful Remy: controllers are rule tables
//! ([`whisker::WhiskerTree`]) over a normalized memory of congestion
//! signals ([`memory::Memory`]), learned offline by simulate-and-improve
//! search ([`trainer::Trainer`]).
//!
//! The Phi extension (§2.2.4 of the five-computers paper) adds a fourth
//! memory dimension — the shared bottleneck utilization `u` — fed either
//! live from an oracle (Remy-Phi-ideal) or frozen at connection start via
//! the context store (Remy-Phi-practical); see [`provision::UtilFeed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod memory;
pub mod provision;
pub mod trainer;
pub mod whisker;

pub use controller::{RemyCc, UsageTally};
pub use memory::{Memory, MemoryBounds, MemoryTracker, DIMS};
pub use provision::{provision_remy, UtilFeed};
pub use trainer::{run_objective, Trainer, TrainerConfig};
pub use whisker::{Action, Cube, Whisker, WhiskerTree};
