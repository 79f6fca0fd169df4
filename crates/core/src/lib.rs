//! # phi-core — the Phi system
//!
//! The paper's contribution (*Rethinking Networking for "Five Computers"*,
//! HotNets '18): **information sharing and coordination across the senders
//! of a large cloud provider**, realized with minimal overhead — one
//! context lookup when a connection starts and one report when it ends.
//!
//! What lives here:
//!
//! * [`context`] — the congestion context (utilization `u`, queue `q`,
//!   competing senders `n`) and the store that estimates it from sender
//!   lookups/reports (§2.2.2).
//! * [`hooks`] — in-simulation session hooks: the practical
//!   lookup-at-start/report-at-end design, and the idealized live oracle.
//! * [`crash`] — deterministic server-crash injection: a seeded
//!   [`crash::ServerCrashPlan`] drives the run's one in-sim
//!   primary/backup context plane ([`crash::HaPlane`]) through
//!   epoch-fenced failovers.
//! * [`policy`] — the shared-knowledge table mapping context →
//!   recommended Cubic parameters (§2.2.1).
//! * [`optimizer`] — Table 2 parameter sweeps, the `P_l` objective argmax,
//!   and the Figure 3 leave-one-out stability analysis.
//! * [`mod@power`] — network power `P = r/d`, the paper's loss-extended
//!   `P_l = r(1−l)/d`, and Remy's `log(P)`.
//! * [`harness`] — the dumbbell experiment runner every figure uses.
//! * [`runpool`] — deterministic parallel fan-out of independent runs
//!   (`PHI_JOBS` workers, bit-identical results for any worker count),
//!   plus panic-isolating supervision with same-seed retry and
//!   quarantine.
//! * [`journal`] — the durable sweep journal: append-only, versioned,
//!   CRC-framed records of completed runs; torn tails truncate and
//!   corrupt records quarantine individually.
//! * [`supervise`] — resumable supervised sweeps on top of the three
//!   above: budgets, retries, journal replay, and aggregation that
//!   excludes quarantined/terminated cells.
//! * [`priority`] — cross-flow prioritization with a TCP-friendly ensemble
//!   (§3.3, MulTCP-weighted AIMD).
//! * [`adapt`] — informed adaptation without cooperation (§3.2): jitter
//!   buffer sizing and duplicate-ACK threshold tuning from shared data.
//! * [`privacy`] — additive secret-sharing aggregation, the §3.1 building
//!   block for a cross-provider "network weather" barometer that reveals
//!   only the aggregate.
//! * [`shard`] — the sharded context store: N independent shards keyed
//!   by a stable hash of the path, observably equivalent to the classic
//!   store (paths never interact), each shard with its own lock,
//!   replication log, and failover epoch in the server.
//! * [`wire`] / [`server`] — a real context server: length-prefixed binary
//!   protocol, threaded TCP service with replication, a blocking client,
//!   and a self-healing client over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod context;
pub mod crash;
pub mod harness;
pub mod hooks;
pub mod journal;
pub mod optimizer;
pub mod policy;
pub mod power;
pub mod priority;
pub mod privacy;
mod replica;
pub mod runpool;
pub mod server;
pub mod shard;
pub mod supervise;
pub mod wire;

pub use context::{ContextStore, FlowSummary, PathKey, SnapshotError, StoreConfig};
pub use crash::{CrashCounters, HaPlane, HaReport, HaSpec, ServerCrashPlan};
pub use harness::{
    is_modified, provision_cubic, provision_cubic_phi, provision_cubic_phi_faulty, provision_mixed,
    run_experiment, run_repeated, run_repeated_on, ExperimentSpec, ProvisionCtx, Provisioned,
    RunResult, DUMBBELL_PATH,
};
pub use hooks::{
    fault_counters, shared, summarize, FaultCounters, FaultPlan, FaultyHook, Flap, IdealOracleHook,
    PracticalHook, SharedFaultCounters, SharedStore,
};
pub use journal::{Journal, Recovery, RunRecord};
pub use optimizer::{
    leave_one_out, policy_from_sweeps, sweep_cubic, sweep_cubic_on, LeaveOneOutRow, SweepOutcome,
    SweepResult, SweepSpec,
};
pub use policy::{PolicyEntry, PolicyTable};
pub use power::{log_power, power, power_loss, score, Objective};
pub use runpool::{derive_seed, panic_message, RunFailure, RunOutcome, RunPool};
pub use server::{
    ClientConfig, ClientError, ContextClient, ContextServer, HaOptions, ResilienceConfig,
    ResilienceStats, ResilientClient, ServerConfig, ServerStats,
};
pub use shard::{shard_index, ShardedStore};
pub use supervise::{CompletedCell, SupervisorConfig, SweepReport, TerminatedCell};
pub use wire::{ReplOp, Role};
