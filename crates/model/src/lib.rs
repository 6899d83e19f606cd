//! Exhaustive model checking for the orchestrator loop.
//!
//! The orchestrator's control loop (probe → store → schedule → bind,
//! extended by drains, crash recovery and EPC rebalancing) is sampled by
//! property tests one interleaving at a time. This crate turns the chaos
//! layer's fault vocabulary into *exhaustive* coverage for small
//! configurations: an abstract model of a small cluster
//! ([`Model`]/[`ModelState`]), a breadth-first explorer with state-hash
//! deduplication ([`explore`]), and an invariant catalogue checked on
//! every reachable state and transition.
//!
//! # The invariants
//!
//! 1. **epc-oversubscription** — admitted EPC requests never exceed a
//!    node's capacity (the policy intent behind requests-based admission).
//! 2. **pod-conservation** — no pod is lost or double-bound: phases,
//!    node residency and the FCFS queue stay mutually consistent.
//! 3. **migration-terminal** — every migration activity terminates: a
//!    rebalance pass converges within its iteration budget, and the
//!    arming metric never points at imbalance the rebalancer is
//!    structurally unable to reduce (the cordoned-node set mismatch).
//! 4. **reorder-insensitive** — scheduling decisions do not depend on
//!    the delivery order of in-flight probe frames, and frames scraped
//!    before a node's recovery are inert (the stale-recovery bug).
//!
//! A fifth, efficiency-flavoured check rides along:
//! **drain-capture-bound** — a drain captures exactly one scheduling
//! snapshot regardless of how many pods it evicts.
//!
//! # Conformance
//!
//! Counterexample traces are abstract action sequences. The
//! [`bridge`] module maps them onto
//! [`simulation::TraceOp`] sequences that replay event-for-event against
//! the real [`orchestrator::Orchestrator`], so a checker finding is
//! either confirmed on the implementation or refuted as a model
//! artefact. The [`Semantics`] flags reintroduce previously-fixed bugs
//! *in the model only*; replaying their counterexamples against the
//! fixed implementation demonstrates the fixes hold.
//!
//! # Examples
//!
//! ```
//! use model::{explore, Bounds, Model, ModelConfig};
//!
//! let model = Model::new(ModelConfig::tiny());
//! let report = explore(&model, &Bounds::exhaustive());
//! assert!(!report.truncated);
//! assert!(report.violations.is_empty());
//! assert!(report.states > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
mod explorer;
mod invariants;
mod machine;
mod spec;
mod state;

pub use explorer::{explore, Bounds, Report};
pub use invariants::Violation;
pub use machine::{DrainEffects, Model, RebalanceEffects, StepEffects};
pub use spec::{ModelConfig, Policy, Semantics};
pub use state::{Action, Frame, ModelState, NodeId, NodeState, PodId, PodPhase, Sample};
