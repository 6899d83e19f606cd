//! # sgx-orchestrator
//!
//! A Rust reproduction of **"SGX-Aware Container Orchestration for
//! Heterogeneous Clusters"** (Vaucher et al., ICDCS 2018): a Kubernetes-
//! style orchestrator that schedules SGX-enabled containers onto a
//! heterogeneous cluster using *measured* Enclave Page Cache usage, with
//! strict driver-side enforcement of per-pod EPC limits.
//!
//! The paper's stack needs SGX hardware, a patched kernel driver, a
//! Kubernetes cluster and the Google Borg trace; this workspace replaces
//! each with a faithful simulated substrate (see `DESIGN.md`) so the whole
//! system — and every figure of the paper's evaluation — runs
//! deterministically on a laptop.
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | substrate | [`des`] | virtual time, event queue, seeded RNG, statistics |
//! | substrate | [`sgx_sim`] | EPC allocator, enclave lifecycle, cost model, modified `isgx` driver |
//! | substrate | [`tsdb`] | InfluxDB-style store + InfluxQL-subset engine |
//! | substrate | [`borg_trace`] | calibrated synthetic Borg trace + §VI-B pipeline |
//! | substrate | [`stress`] | STRESS-SGX workload models |
//! | node side | [`cluster`] | machines, Kubelet, device plugin, probes |
//! | master side | [`orchestrator`] | FCFS queue, cluster snapshots, filter/score scheduling framework |
//! | harness | [`simulation`] | discrete-event replay + analysis |
//!
//! ## Quickstart
//!
//! The [`Experiment`] builder wires the full pipeline (generate trace →
//! prepare → materialise workload → replay):
//!
//! ```
//! use sgx_orchestrator::Experiment;
//!
//! // A quick laptop-scale run: 50 % SGX jobs under the binpack scheduler.
//! let result = Experiment::quick(42).sgx_ratio(0.5).run();
//! assert!(result.completed_count() > 0);
//! println!(
//!     "mean waiting time: {:.1} s",
//!     simulation::analysis::mean_waiting_secs(&result, None)
//! );
//! ```
//!
//! Lower-level pieces stay accessible for custom setups:
//!
//! ```
//! use sgx_orchestrator::prelude::*;
//!
//! let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
//! let uid = orch.submit(
//!     PodSpec::builder("enclave-job").sgx_resources(ByteSize::from_mib(32)).build(),
//!     SimTime::ZERO,
//! );
//! let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
//! assert_eq!(outcomes[0].uid, uid);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;

pub use experiment::Experiment;

/// One-stop imports for typical use.
pub mod prelude {
    pub use borg_trace::{
        FrontendParams, FrontendRegistry, GeneratorConfig, JobKind, Trace, TraceFrontend,
        TracePipeline, Workload, WorkloadEvent, WorkloadParams,
    };
    pub use cluster::api::{NodeName, PodSpec, PodUid, ResourceRequirements, Resources};
    pub use cluster::machine::MachineSpec;
    pub use cluster::node::{Node, NodeRole};
    pub use cluster::topology::{Cluster, ClusterSpec};
    pub use des::{SimDuration, SimTime};
    pub use orchestrator::billing::{Invoice, PriceSheet};
    pub use orchestrator::{
        ClusterSnapshot, Orchestrator, OrchestratorConfig, PodOutcome, PolicyPipeline,
        PolicyRegistry, SchedulingCycle, DEFAULT_SCHEDULER, SGX_BINPACK, SGX_SPREAD,
    };
    pub use sgx_sim::migration::MigrationKey;
    pub use sgx_sim::units::{ByteSize, EpcPages};
    pub use sgx_sim::SgxVersion;
    pub use simulation::{
        online_channel, replay_stream, MaliciousConfig, NodeDrain, NodeFailure, OnlineReport,
        OnlineServer, RebalanceConfig, ReplayConfig, ReplayResult,
    };
    pub use stress::Stressor;

    pub use crate::Experiment;
}
