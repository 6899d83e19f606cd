//! Synthetic Google Borg trace and the paper's trace-preparation pipeline.
//!
//! The paper evaluates its scheduler by replaying the 2011 Google Borg
//! trace (≈12 500 machines, 29 days). The trace itself is a multi-gigabyte
//! proprietary-format download, so this crate substitutes a **calibrated
//! synthetic generator**: it reproduces the marginals the paper publishes —
//! the distribution of maximal memory usage (Fig. 3), the job-duration
//! distribution bounded at 300 s (Fig. 4) and the concurrent-jobs band of
//! 125k–145k over the first 24 h (Fig. 5) — which are exactly the
//! quantities the scheduling experiments are sensitive to.
//!
//! The crate also implements the paper's §VI-B preparation pipeline:
//!
//! 1. **Time reduction** — slice `[6480 s, 10 080 s)` of day one (the
//!    least job-intensive hour of the first 24).
//! 2. **Frequency reduction** — keep every 1200th job.
//! 3. **Workload materialisation** — designate a fraction of jobs as
//!    SGX-enabled and scale their relative memory usage by the usable EPC
//!    (93.5 MiB) or by 32 GiB for standard jobs.
//!
//! # Examples
//!
//! ```
//! use borg_trace::{GeneratorConfig, TracePipeline};
//!
//! // A small trace for tests; `GeneratorConfig::paper_scale()` reproduces
//! // the full 24 h / 135k-concurrency configuration.
//! let trace = GeneratorConfig::small(42).generate();
//! assert!(trace.len() > 100);
//!
//! let replay = TracePipeline::paper()
//!     .sample_every(40) // the paper uses 1200 at full scale
//!     .prepare(&trace);
//! assert!(replay.len() < trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod frontend;
pub mod generator;
pub mod stats;
pub mod workload;

mod job;
mod pipeline;

pub use frontend::{
    BorgSynthetic, FrontendHint, FrontendParams, FrontendRegistry, FrontendScale,
    MaterializedFrontend, ServiceGroup, TraceFrontend, WorkloadEvent,
};
pub use generator::{ConcurrencyProfile, DurationModel, GeneratorConfig, MemoryModel, TraceStream};
pub use job::{JobId, Trace, TraceJob};
pub use pipeline::TracePipeline;
pub use workload::{JobKind, Workload, WorkloadJob, WorkloadParams};
