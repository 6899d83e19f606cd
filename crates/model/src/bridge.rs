//! Model ↔ implementation conformance: a [`Harness`] applies the model's
//! own [`Action`]s, one by one, to a real [`Orchestrator`].
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
//! * model node `n` is implementation node `m-n`, pod `p` is `p-p` with
//!   uid `p + 1`; single-digit indices keep name order equal to index
//!   order, which both the in-flight frame stash and tie-breaking rely
//!   on.
//!
//! The harness starts with one submission per pod (all at time zero, in
//! index order), mirroring [`crate::Model::initial`], audits
//! [`Orchestrator::audit_invariants`] after every step and logs every
//! placement decision in the model's ids.

use std::collections::{BTreeMap, BTreeSet};

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::{Orchestrator, OrchestratorConfig, SGX_BINPACK, SGX_SPREAD};
use sgx_sim::units::ByteSize;
use tsdb::PointBatch;

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

/// The model pod an implementation pod uid stands for.
pub fn pod_id(uid: PodUid) -> PodId {
    PodId::try_from(uid.as_u64() - 1).expect("a model pod")
}

/// The cluster a model configuration describes: one SGX worker per
/// node, with exactly the configured pages of usable EPC.
fn cluster_spec(config: &ModelConfig) -> ClusterSpec {
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
fn orchestrator_config(config: &ModelConfig) -> OrchestratorConfig {
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

/// A real [`Orchestrator`] driven by model [`Action`]s, auditing its
/// invariants after every step and logging every placement decision.
#[derive(Debug)]
pub struct Harness {
    orch: Orchestrator,
    /// Implementation node names, indexed by [`NodeId`].
    nodes: Vec<NodeName>,
    rebalance_threshold: f64,
    now: SimTime,
    /// Frames scraped but neither delivered nor dropped, FIFO: all of a
    /// node's probe batches and their scrape instant.
    in_flight: Vec<(NodeName, Vec<PointBatch>, SimTime)>,
    crashed: BTreeSet<NodeName>,
    decisions: Vec<(PodId, NodeId)>,
    audit_failures: Vec<String>,
    steps: usize,
}

impl Harness {
    /// A fresh orchestrator over the model's cluster and configuration,
    /// with one SGX pod per model pod submitted at time zero in index
    /// order: pod `p` is named `p-p`, gets uid `p + 1`, requests its
    /// pages of EPC and runs for 100,000 s, longer than any trace.
    pub fn new(config: &ModelConfig) -> Self {
        let mut harness = Harness {
            orch: Orchestrator::new(cluster_spec(config), orchestrator_config(config)),
            nodes: (0..config.nodes())
                .map(|node| NodeName::new(node_name(node as NodeId)))
                .collect(),
            rebalance_threshold: config.rebalance_threshold_milli as f64 / 1000.0,
            now: SimTime::ZERO,
            in_flight: Vec::new(),
            crashed: BTreeSet::new(),
            decisions: Vec::new(),
            audit_failures: Vec::new(),
            steps: 0,
        };
        for (pod, &pages) in config.pod_request.iter().enumerate() {
            let spec = PodSpec::builder(format!("p-{pod}"))
                .sgx_resources(ByteSize::from_kib(EPC_PAGE * pages))
                .duration(SimDuration::from_secs(100_000))
                .build();
            let uid = harness.orch.submit(spec, SimTime::ZERO);
            assert_eq!(uid.as_u64(), pod as u64 + 1, "model pod p is uid p + 1");
            harness.audit();
        }
        harness
    }

    /// [`new`](Self::new), then every action of `actions` in order.
    pub fn of(config: &ModelConfig, actions: &[Action]) -> Self {
        let mut harness = Harness::new(config);
        for &action in actions {
            harness.apply(action);
        }
        harness
    }

    /// Applies one action and audits the implementation invariants.
    ///
    /// # Panics
    ///
    /// Panics if the action is not enabled in the current state (an
    /// out-of-range frame index, completing a pod that is not running) —
    /// a trace that does not even replay is a bug in the trace, not a
    /// checker finding.
    pub fn apply(&mut self, action: Action) {
        match action {
            Action::Tick => self.now += SimDuration::from_secs(TICK_SECS),
            Action::Schedule => {
                for outcome in self.orch.scheduler_pass(self.now) {
                    self.decided(outcome.uid, &outcome.node);
                }
            }
            Action::Scrape => {
                // One frame per non-crashed node: all the node's probe
                // batches, grouped in node-name order. A crashed node's
                // kubelet is down — it produces nothing to put in flight.
                let mut grouped: BTreeMap<NodeName, Vec<PointBatch>> = BTreeMap::new();
                for (node, batch) in self.orch.scrape_frames(self.now) {
                    if !self.crashed.contains(&node) {
                        grouped.entry(node).or_default().push(batch);
                    }
                }
                let now = self.now;
                let frames = grouped
                    .into_iter()
                    .map(|(node, batches)| (node, batches, now));
                self.in_flight.extend(frames);
            }
            Action::Deliver(index) => {
                let (node, batches, scraped_at) = self.in_flight.remove(usize::from(index));
                for batch in &batches {
                    self.orch.ingest_frame(&node, batch, scraped_at);
                }
                self.orch.enforce_metrics_retention(self.now);
            }
            Action::Drop(index) => {
                self.in_flight.remove(usize::from(index));
            }
            Action::Crash(node) => {
                let name = &self.nodes[usize::from(node)];
                self.orch.fail_node(name, self.now).expect("known node");
                self.crashed.insert(name.clone());
            }
            Action::Recover(node) => {
                let name = &self.nodes[usize::from(node)];
                self.orch.recover_node(name, self.now).expect("known node");
                self.crashed.remove(name);
            }
            Action::Drain(node) => {
                let name = &self.nodes[usize::from(node)];
                for m in self.orch.drain_node(name, self.now).expect("known node") {
                    self.decided(m.uid, &m.to);
                }
            }
            Action::Uncordon(node) => {
                let name = &self.nodes[usize::from(node)];
                self.orch.uncordon_node(name, self.now).expect("known node");
            }
            Action::Rebalance => {
                for m in self.orch.rebalance_epc(self.now, self.rebalance_threshold) {
                    self.decided(m.uid, &m.to);
                }
            }
            Action::Complete(pod) => {
                let uid = PodUid::new(u64::from(pod) + 1);
                self.orch.complete_pod(uid, self.now).expect("running pod");
            }
        }
        self.audit();
    }

    fn decided(&mut self, uid: PodUid, node: &NodeName) {
        let node = self.nodes.iter().position(|n| n == node);
        let node = node.expect("a model node") as NodeId;
        self.decisions.push((pod_id(uid), node));
    }

    fn audit(&mut self) {
        for violation in self.orch.audit_invariants() {
            self.audit_failures
                .push(format!("after op {}: {violation}", self.steps));
        }
        self.steps += 1;
    }

    /// Every placement decision so far, in the order the orchestrator
    /// took them: scheduler binds, drain targets and rebalance moves.
    pub fn decisions(&self) -> &[(PodId, NodeId)] {
        &self.decisions
    }

    /// Invariant violations [`Orchestrator::audit_invariants`] reported
    /// after any submission or action (numbered from the first
    /// submission); empty means the implementation stayed consistent.
    pub fn audit_failures(&self) -> &[String] {
        &self.audit_failures
    }

    /// The driven orchestrator.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }
}
