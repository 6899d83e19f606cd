//! Model ↔ implementation conformance: maps abstract counterexample
//! traces onto [`simulation::TraceOp`] sequences that replay
//! event-for-event against the real [`orchestrator::Orchestrator`].
//!
//! The mapping is exact at tick boundaries:
//!
//! * one model tick = [`TICK_SECS`] seconds;
//! * model EPC pages are real 4 KiB EPC pages;
//! * a window or staleness threshold of `k` ticks maps onto `10·k + 5`
//!   seconds (the gate's 1-tick window becomes 15 s) — sample and
//!   scrape ages are multiples of 10 s, so a `k`-tick age classifies
//!   in-window/fresh and a `k + 1`-tick age out-of-window/degraded on
//!   both sides, and the boundary itself is never hit;
//! * model node `n` is implementation node `m-n`, pod `p` is `p-p`;
//!   single-digit indices keep name order equal to index order, which
//!   both the in-flight frame stash and tie-breaking rely on.
//!
//! A trace always starts with one [`TraceOp::Submit`] per pod (all at
//! time zero, in index order), mirroring [`crate::Model::initial`].

use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::ClusterSpec;
use des::SimDuration;
use orchestrator::{OrchestratorConfig, SGX_BINPACK, SGX_SPREAD};
use sgx_sim::units::ByteSize;
use simulation::{TraceHarness, TraceOp};

use crate::spec::{ModelConfig, Policy};
use crate::state::{Action, NodeId, PodId};

/// Implementation seconds per model tick.
pub const TICK_SECS: u64 = 10;

/// EPC page size the model's abstract pages map onto.
const EPC_PAGE: u64 = 4;

/// The implementation node name of a model node.
pub fn node_name(node: NodeId) -> String {
    format!("m-{node}")
}

/// The implementation pod name of a model pod.
pub fn pod_name(pod: PodId) -> String {
    format!("p-{pod}")
}

/// The cluster a model configuration describes: one SGX worker per
/// node, with exactly the configured pages of usable EPC.
pub fn cluster_spec(config: &ModelConfig) -> ClusterSpec {
    let mut spec = ClusterSpec::new();
    for (node, &pages) in config.node_capacity.iter().enumerate() {
        spec = spec.with_node(
            node_name(node as NodeId),
            MachineSpec::sgx_node_with_usable_epc(ByteSize::from_kib(EPC_PAGE * pages)),
            NodeRole::Worker,
        );
    }
    spec
}

/// The orchestrator configuration conformance replays run under: the
/// paper's, with the model's policy as default scheduler and the metrics
/// window and staleness threshold pinned
/// between tick multiples — `k` model ticks become `10·k + 5` seconds,
/// so an age of `k` ticks (`10·k` s) classifies inside and `k + 1`
/// ticks outside, exactly like the model, and the boundary itself is
/// unreachable. A 2-tick window is the paper's 25 s.
pub fn orchestrator_config(config: &ModelConfig) -> OrchestratorConfig {
    let mut paper = OrchestratorConfig::paper();
    paper.metrics_window = SimDuration::from_secs(TICK_SECS * u64::from(config.window) + 5);
    paper.staleness_threshold = SimDuration::from_secs(TICK_SECS * u64::from(config.staleness) + 5);
    paper.default_scheduler = match config.policy {
        Policy::Binpack => SGX_BINPACK,
        Policy::Spread => SGX_SPREAD,
    }
    .to_string();
    paper
}

/// A fresh conformance harness over the model's cluster and config.
pub fn harness(config: &ModelConfig) -> TraceHarness {
    TraceHarness::new(cluster_spec(config), orchestrator_config(config))
}

/// The submission prefix every trace starts with: one `Submit` per pod
/// at time zero, in index order.
pub fn submit_ops(config: &ModelConfig) -> Vec<TraceOp> {
    config
        .pod_request
        .iter()
        .enumerate()
        .map(|(pod, &pages)| TraceOp::Submit {
            pod: pod_name(pod as PodId),
            epc: ByteSize::from_kib(EPC_PAGE * pages),
        })
        .collect()
}

/// One model action as an implementation trace op.
pub fn trace_op(config: &ModelConfig, action: Action) -> TraceOp {
    match action {
        Action::Tick => TraceOp::AdvanceTime { secs: TICK_SECS },
        Action::Schedule => TraceOp::SchedulerPass,
        Action::Scrape => TraceOp::Scrape,
        Action::Deliver(index) => TraceOp::DeliverFrame {
            index: index as usize,
        },
        Action::Drop(index) => TraceOp::DropFrame {
            index: index as usize,
        },
        Action::Crash(node) => TraceOp::FailNode {
            node: node_name(node),
        },
        Action::Recover(node) => TraceOp::RecoverNode {
            node: node_name(node),
        },
        Action::Drain(node) => TraceOp::DrainNode {
            node: node_name(node),
        },
        Action::Uncordon(node) => TraceOp::UncordonNode {
            node: node_name(node),
        },
        Action::Rebalance => TraceOp::Rebalance {
            threshold: config.rebalance_threshold_milli as f64 / 1000.0,
        },
        Action::Complete(pod) => TraceOp::CompletePod { pod: pod_name(pod) },
    }
}

/// A full implementation trace: the submission prefix followed by every
/// model action mapped through [`trace_op`].
pub fn trace_ops(config: &ModelConfig, actions: &[Action]) -> Vec<TraceOp> {
    let mut ops = submit_ops(config);
    ops.extend(actions.iter().map(|&a| trace_op(config, a)));
    ops
}

/// The model-side decisions of a scheduler pass, rendered in the
/// implementation's vocabulary (pod name, node name) so the two sides
/// compare directly against [`TraceHarness::decisions`].
pub fn named_decisions(decisions: &[(PodId, NodeId)]) -> Vec<(String, String)> {
    decisions
        .iter()
        .map(|&(pod, node)| (pod_name(pod), node_name(node)))
        .collect()
}
