//! The SGX-aware container orchestrator — the paper's primary
//! contribution (§IV–§V).
//!
//! The orchestrator sits on the master node. Users submit pod
//! specifications (§IV step Ê); submissions land in a persistent FCFS
//! [`queue`]; each scheduling pass freezes an immutable
//! [`ClusterSnapshot`] ([`snapshot`]) combining, per node
//! ([`metrics::NodeView`]), declared requests with **measured** usage
//! from the time-series database (the Listing 1 sliding-window query,
//! kept up to date at ingest), then opens a [`SchedulingCycle`]
//! ([`framework`]) that runs each pending pod through a `FilterPlugin`
//! chain and ordered `ScorePlugin` stages before binding it to the
//! winning node.
//!
//! Three pipelines ship in the [`PolicyRegistry`] ([`registry`]),
//! mirroring the paper's deployment of multiple schedulers side by side
//! (§V-B); their concrete plugins live in [`policy`]:
//!
//! | name          | filter basis                   | policy            |
//! |---------------|--------------------------------|-------------------|
//! | `sgx-binpack` | measured usage ∨ requests      | binpack, SGX-aware|
//! | `sgx-spread`  | measured usage ∨ requests      | spread, SGX-aware |
//! | `default`     | requests only (stock behaviour)| least-requested   |
//!
//! # Examples
//!
//! ```
//! use cluster::api::PodSpec;
//! use cluster::topology::ClusterSpec;
//! use des::SimTime;
//! use orchestrator::{Orchestrator, OrchestratorConfig};
//! use sgx_sim::units::ByteSize;
//!
//! let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
//! let uid = orch.submit(
//!     PodSpec::builder("job").sgx_resources(ByteSize::from_mib(16)).build(),
//!     SimTime::ZERO,
//! );
//! let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
//! assert_eq!(outcomes.len(), 1);
//! assert!(outcomes[0].report.started());
//! # let _ = uid;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod billing;
pub mod events;
pub mod framework;
pub mod metrics;
pub mod policy;
pub mod queue;
pub mod registry;
pub mod snapshot;

mod exact;
mod server;

pub use autoscale::{
    AutoscaleOutcome, AutoscalerPolicy, ClusterAutoscaler, ElasticityMetrics, PodGroupAutoscaler,
    PodGroupSpec,
};
pub use framework::{
    keep_best, FilterPlugin, Needs, PipelineBuilder, PolicyPipeline, SchedulingCycle, ScoreContext,
    ScorePlugin,
};
pub use queue::{PendingPod, PendingQueue};
pub use registry::{PolicyRegistry, DEFAULT_SCHEDULER, SGX_BINPACK, SGX_SPREAD};
pub use server::{
    BindOutcome, Migration, NodeRemoval, Orchestrator, OrchestratorConfig, PodOutcome, PodRecord,
    PodTable,
};
pub use snapshot::ClusterSnapshot;
