//! # phi-sim — deterministic packet-level network simulation
//!
//! The substrate under every experiment in this repository: a
//! discrete-event, packet-level network simulator playing the role ns-2
//! (v2.35) plays in the Phi paper (*Rethinking Networking for "Five
//! Computers"*, HotNets '18).
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Integer-nanosecond clock, total event order, no
//!    ambient randomness: the same configuration always produces the same
//!    packet trace, so every figure regenerates exactly.
//! 2. **Faithful queueing.** Drop-tail FIFO with byte- or packet-counted
//!    capacity, store-and-forward serialization at the link rate, and
//!    propagation delay — the three ingredients the paper's congestion
//!    experiments actually exercise.
//! 3. **Observability.** Links keep running statistics (utilization, loss,
//!    queue wait, occupancy) that double as the "ideal oracle" feed for
//!    Remy-Phi-ideal (§2.2.4 of the paper).
//!
//! Transport endpoints (TCP Cubic, NewReno, Remy) live in the `phi-tcp`
//! and `phi-remy` crates and plug in through the [`engine::Agent`] trait.
//!
//! ## Quick tour
//!
//! ```
//! use phi_sim::prelude::*;
//!
//! // The paper's Figure 1 dumbbell: 15 Mbit/s bottleneck, 150 ms RTT,
//! // buffer = 5 x BDP.
//! let spec = DumbbellSpec::paper(8);
//! let net = dumbbell(&spec);
//! let mut sim = Simulator::new(net.topology.clone());
//! // ... attach agents to net.senders / net.receivers, then:
//! sim.run_until(Time::from_secs(10));
//! let util = sim.link_stats(net.bottleneck).utilization(Dur::from_secs(10));
//! assert_eq!(util, 0.0); // no agents attached in this doc example
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod faults;
pub mod packet;
pub mod queue;
pub mod sched;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;
pub mod trace;

/// The types almost every consumer needs.
pub mod prelude {
    pub use crate::engine::{
        packet_to, Agent, BudgetExceeded, Ctx, PacketCensus, RunBudget, SchedStats, Simulator,
        TimerHandle,
    };
    pub use crate::faults::{
        DownPolicy, FaultStats, Flapping, ImpairmentPlan, LossModel, OutageWindow, Reordering,
    };
    pub use crate::packet::{wire, AgentId, Flags, FlowId, LinkId, NodeId, Packet};
    pub use crate::queue::{Capacity, DisciplineSpec, LinkQueue};
    pub use crate::stats::{LinkStats, OnlineStats};
    pub use crate::switch::{EcnSpec, PfcSpec, SharedBuffer, SwitchSpec, SwitchStats};
    pub use crate::time::{Dur, Time};
    pub use crate::topology::{
        dumbbell, parking_lot, Dumbbell, DumbbellSpec, LinkSpec, ParkingLot, ParkingLotSpec,
        Topology, TopologyBuilder,
    };
    pub use crate::trace::{TraceEvent, TraceOp, TraceWriter, Tracer};
}
