//! Discrete-event replay of Borg-derived workloads against the SGX-aware
//! orchestrator.
//!
//! This crate glues the whole stack together: one event loop,
//! [`replay_stream`], pulls pod submissions from a
//! [`borg_trace::TraceFrontend`], drives the
//! [`orchestrator::Orchestrator`]'s scheduling and probe passes on their
//! configured periods, executes container startup against the simulated
//! SGX driver, and collects everything the paper's evaluation section
//! measures — waiting times (Figs. 8, 9, 11), turnaround times (Fig. 10)
//! and the pending-queue series (Fig. 7). A materialised
//! [`borg_trace::Workload`] enters through
//! [`borg_trace::MaterializedFrontend`]; [`online`] feeds the same loop
//! from a wall-clock submission channel. That loop is the only driver of
//! the orchestrator here: the model checker's counterexample replays
//! apply the model's own actions to it directly (`model::bridge`).
//!
//! # Examples
//!
//! ```
//! use borg_trace::frontend::MaterializedFrontend;
//! use borg_trace::{GeneratorConfig, Workload, WorkloadParams};
//! use simulation::{replay_stream, ReplayConfig};
//!
//! let trace = GeneratorConfig::small(1).generate();
//! let workload = Workload::materialize(&trace, &WorkloadParams::paper(0.5, 1));
//! let result = replay_stream(&mut MaterializedFrontend::new(&workload), &ReplayConfig::paper(1));
//! assert_eq!(result.runs().len(), workload.len());
//! assert!(result.completed_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chaos;
pub mod online;
pub mod sweep;

mod config;
mod replay;

pub use chaos::{FaultPlan, FaultStats, ProbeSilence};
pub use config::{
    AutoscaleConfig, MaliciousConfig, NodeDrain, NodeFailure, RebalanceConfig, ReplayConfig,
};
pub use online::{online_channel, OnlineFrontend, OnlineHandle, OnlineReport, OnlineServer};
pub use replay::{replay_stream, JobRun, ReplayResult};
pub use sweep::{SweepJob, SweepProgress};
