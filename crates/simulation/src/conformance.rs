//! Deterministic trace replay against the real [`Orchestrator`] — the
//! implementation half of the model↔implementation conformance protocol.
//!
//! The model checker in `crates/model` explores an abstract small-cluster
//! model of the orchestrator loop and emits counterexample *traces*:
//! sequences of loop events (scheduler passes, probe scrapes with
//! per-frame delivery or loss, crashes, drains, rebalance ticks). Each
//! trace is replayed here, event for event, against a real
//! [`Orchestrator`] — so a violation the checker reports is either
//! confirmed on the implementation (an implementation bug, with the trace
//! as its regression test) or refuted (a model bug). The vocabulary is
//! the chaos layer's (`FrameFate` decides a frame's
//! fate probabilistically there; [`TraceOp::DeliverFrame`] /
//! [`TraceOp::DropFrame`] decide it deterministically here).
//!
//! After every applied op the harness audits
//! [`Orchestrator::audit_invariants`] and records each placement
//! decision (binds, drain targets, rebalance moves), so traces can be
//! compared decision-for-decision — the probe-frame reorder-insensitivity
//! invariant is checked exactly that way: replay two interleavings of the
//! same frames and diff the decision logs.

use std::collections::{BTreeMap, BTreeSet};

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::{Orchestrator, OrchestratorConfig};
use sgx_sim::units::ByteSize;
use tsdb::PointBatch;

/// One deterministic orchestrator-loop event in a conformance trace.
///
/// The in-flight frame indices of [`DeliverFrame`](Self::DeliverFrame) and
/// [`DropFrame`](Self::DropFrame) address the harness's stash in FIFO
/// order: a [`Scrape`](Self::Scrape) appends one logical frame per
/// non-crashed node (all of the node's probe batches together, in node
/// order), and delivering or dropping index `i` removes entry `i`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Advance simulated time without touching the orchestrator.
    AdvanceTime {
        /// Seconds to advance.
        secs: u64,
    },
    /// Submit an SGX pod requesting `epc` enclave memory.
    Submit {
        /// Pod name; later ops reference it.
        pod: String,
        /// EPC request.
        epc: ByteSize,
    },
    /// One scheduler pass at the current instant.
    SchedulerPass,
    /// Scrape every node into the in-flight stash (nothing delivered).
    Scrape,
    /// Deliver in-flight frame `index` (FIFO position) to the database.
    DeliverFrame {
        /// FIFO position in the stash.
        index: usize,
    },
    /// Drop in-flight frame `index` — lost in transit.
    DropFrame {
        /// FIFO position in the stash.
        index: usize,
    },
    /// Crash a node: pods die and requeue, the node cordons.
    FailNode {
        /// Node name.
        node: String,
    },
    /// Recover a crashed node (fresh kubelet, empty state).
    RecoverNode {
        /// Node name.
        node: String,
    },
    /// Drain a node: cordon and live-migrate its pods away.
    DrainNode {
        /// Node name.
        node: String,
    },
    /// Un-cordon a drained node.
    UncordonNode {
        /// Node name.
        node: String,
    },
    /// One EPC rebalance pass with the given imbalance threshold.
    Rebalance {
        /// Spread threshold (fraction of capacity) that arms a move.
        threshold: f64,
    },
    /// Complete a running pod.
    CompletePod {
        /// Pod name, as submitted.
        pod: String,
    },
}

/// One scrape frame held in flight: all of a node's probe batches from a
/// single scrape instant, delivered (or dropped) as a unit.
#[derive(Debug, Clone)]
struct StashedFrame {
    node: NodeName,
    batches: Vec<PointBatch>,
    scraped_at: SimTime,
}

/// One placement decision observed during a replay: the pod involved and
/// the node the orchestrator chose for it (a bind, a drain target or a
/// rebalance move).
pub(crate) type Decision = (String, String);

/// Drives a real [`Orchestrator`] through a [`TraceOp`] sequence,
/// auditing invariants after every op and logging every placement
/// decision.
#[derive(Debug)]
pub struct TraceHarness {
    orch: Orchestrator,
    now: SimTime,
    in_flight: Vec<StashedFrame>,
    uids: BTreeMap<String, PodUid>,
    crashed: BTreeSet<NodeName>,
    decisions: Vec<Decision>,
    audit_failures: Vec<String>,
    ops_applied: usize,
}

impl TraceHarness {
    /// A harness over a fresh orchestrator built from `spec` and `config`.
    pub fn new(spec: ClusterSpec, config: OrchestratorConfig) -> Self {
        TraceHarness {
            orch: Orchestrator::new(spec, config),
            now: SimTime::ZERO,
            in_flight: Vec::new(),
            uids: BTreeMap::new(),
            crashed: BTreeSet::new(),
            decisions: Vec::new(),
            audit_failures: Vec::new(),
            ops_applied: 0,
        }
    }

    /// Applies one op and audits the implementation invariants.
    ///
    /// # Panics
    ///
    /// Panics if the op is malformed for the current state (unknown pod
    /// or node name, out-of-range frame index) — a conformance trace
    /// that does not even replay is a bug in the trace mapping, not a
    /// checker finding.
    pub fn apply(&mut self, op: &TraceOp) {
        match op {
            TraceOp::AdvanceTime { secs } => {
                self.now += SimDuration::from_secs(*secs);
            }
            TraceOp::Submit { pod, epc } => {
                let spec = PodSpec::builder(pod.clone())
                    .sgx_resources(*epc)
                    .duration(SimDuration::from_secs(100_000))
                    .build();
                let uid = self.orch.submit(spec, self.now);
                self.uids.insert(pod.clone(), uid);
            }
            TraceOp::SchedulerPass => {
                for outcome in self.orch.scheduler_pass(self.now) {
                    let pod = self.pod_name(outcome.uid);
                    self.decisions.push((pod, outcome.node.to_string()));
                }
            }
            TraceOp::Scrape => {
                // One logical frame per non-crashed node: all the node's
                // probe batches, grouped in node order. A crashed node's
                // kubelet is down — it produces nothing to put in flight.
                let mut grouped: BTreeMap<NodeName, Vec<PointBatch>> = BTreeMap::new();
                for (node, batch) in self.orch.scrape_frames(self.now) {
                    if !self.crashed.contains(&node) {
                        grouped.entry(node).or_default().push(batch);
                    }
                }
                for (node, batches) in grouped {
                    self.in_flight.push(StashedFrame {
                        node,
                        batches,
                        scraped_at: self.now,
                    });
                }
            }
            TraceOp::DeliverFrame { index } => {
                let frame = self.in_flight.remove(*index);
                for batch in &frame.batches {
                    self.orch.ingest_frame(&frame.node, batch, frame.scraped_at);
                }
                self.orch.enforce_metrics_retention(self.now);
            }
            TraceOp::DropFrame { index } => {
                self.in_flight.remove(*index);
            }
            TraceOp::FailNode { node } => {
                let name = NodeName::new(node.clone());
                self.orch.fail_node(&name, self.now).expect("known node");
                self.crashed.insert(name);
            }
            TraceOp::RecoverNode { node } => {
                let name = NodeName::new(node.clone());
                self.orch.recover_node(&name, self.now).expect("known node");
                self.crashed.remove(&name);
            }
            TraceOp::DrainNode { node } => {
                let name = NodeName::new(node.clone());
                let moves = self.orch.drain_node(&name, self.now).expect("known node");
                for m in moves {
                    let pod = self.pod_name(m.uid);
                    self.decisions.push((pod, m.to.to_string()));
                }
            }
            TraceOp::UncordonNode { node } => {
                let name = NodeName::new(node.clone());
                self.orch
                    .uncordon_node(&name, self.now)
                    .expect("known node");
            }
            TraceOp::Rebalance { threshold } => {
                let moves = self.orch.rebalance_epc(self.now, *threshold);
                for m in moves {
                    let pod = self.pod_name(m.uid);
                    self.decisions.push((pod, m.to.to_string()));
                }
            }
            TraceOp::CompletePod { pod } => {
                let uid = self.uids.get(pod).copied().expect("submitted pod");
                self.orch.complete_pod(uid, self.now).expect("running pod");
            }
        }
        self.ops_applied += 1;
        for violation in self.orch.audit_invariants() {
            self.audit_failures
                .push(format!("after op {}: {violation}", self.ops_applied - 1));
        }
    }

    fn pod_name(&self, uid: PodUid) -> String {
        self.orch
            .record(uid)
            .map(|r| r.name.clone())
            .unwrap_or_else(|| uid.to_string())
    }

    /// Every placement decision so far, in the order the orchestrator
    /// took them: scheduler binds, drain targets and rebalance moves.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Invariant violations [`Orchestrator::audit_invariants`] reported
    /// after any applied op; empty means the implementation stayed
    /// consistent through the whole trace.
    pub fn audit_failures(&self) -> &[String] {
        &self.audit_failures
    }

    /// The driven orchestrator.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }
}
