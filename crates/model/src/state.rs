//! The abstract state space: nodes, pods, in-flight probe frames and the
//! actions that step between states.
//!
//! Everything is small integers with derived `Hash`/`Eq`, so the
//! explorer can deduplicate states structurally; transitions
//! canonicalize (sorted residents, pruned samples) to keep the space
//! tight.

/// Node index into [`ModelConfig::node_capacity`](crate::ModelConfig).
pub type NodeId = u8;

/// Pod index into [`ModelConfig::pod_request`](crate::ModelConfig).
pub type PodId = u8;

/// One stored metrics sample: `pod` was observed using `pages` EPC pages
/// by a scrape taken at tick `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sample {
    /// Tick the owning scrape sampled the node.
    pub at: u8,
    /// The observed pod.
    pub pod: PodId,
    /// Observed EPC pages (the pod's request: the default stressor
    /// exercises exactly what it declared).
    pub pages: u64,
}

/// One probe frame in flight: everything a single scrape observed on one
/// node, delivered — or lost — as a unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The scraped node.
    pub node: NodeId,
    /// Tick the scrape was taken.
    pub scraped_at: u8,
    /// Per-pod observations at that instant.
    pub points: Vec<(PodId, u64)>,
}

/// Per-node model state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeState {
    /// Accepts no new pods (set by drains and crashes).
    pub cordoned: bool,
    /// The kubelet is down: pods died, scrapes produce nothing.
    pub crashed: bool,
    /// Tick of the most recent recovery, if the node ever crashed. Kept
    /// permanently (mirroring the implementation's recovery epoch):
    /// clearing it on the first fresh scrape would make frame delivery
    /// order-sensitive.
    pub rejoined_at: Option<u8>,
    /// Tick of the newest *delivered* scrape of this node.
    pub last_scrape: Option<u8>,
    /// Stored samples, sorted and deduplicated; pruned once they age out
    /// of the metrics window.
    pub samples: Vec<Sample>,
    /// Pods bound to this node, ascending.
    pub residents: Vec<PodId>,
}

/// Lifecycle phase of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PodPhase {
    /// Submitted, waiting in the FCFS queue.
    Pending,
    /// Running on the given node.
    Bound(NodeId),
    /// Finished.
    Done,
}

/// One explored state of the whole system.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Current tick.
    pub time: u8,
    /// Per-node state, indexed by [`NodeId`].
    pub nodes: Vec<NodeState>,
    /// Per-pod phase, indexed by [`PodId`].
    pub pods: Vec<PodPhase>,
    /// The FCFS pending queue. Crash victims requeue at the back —
    /// they carry their original submission time and every model pod is
    /// submitted at tick 0, so the implementation's stable
    /// insert-behind-equal-times puts them exactly there.
    pub queue: Vec<PodId>,
    /// Probe frames scraped but neither delivered nor lost, FIFO.
    pub in_flight: Vec<Frame>,
    /// Crashes performed so far (bounded by the config).
    pub crashes_used: u8,
    /// Drains performed so far (bounded by the config).
    pub drains_used: u8,
    /// Scrapes performed so far (bounded by the config).
    pub scrapes_used: u8,
}

/// One transition of the model, which [`Harness::apply`](crate::bridge::Harness::apply)
/// applies to the real orchestrator (see [`bridge`](crate::bridge)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Advance time by one tick; samples outside the window age out.
    Tick,
    /// One scheduler pass over the pending queue.
    Schedule,
    /// Scrape every live node: one frame per node enters the in-flight
    /// set, nothing is delivered yet.
    Scrape,
    /// Deliver in-flight frame at FIFO position `0..len`.
    Deliver(u8),
    /// Lose in-flight frame at FIFO position `0..len`.
    Drop(u8),
    /// Crash a node: its pods die and requeue, the node cordons.
    Crash(NodeId),
    /// Recover a crashed node with a fresh, empty kubelet.
    Recover(NodeId),
    /// Drain a node: cordon it and live-migrate its pods away.
    Drain(NodeId),
    /// Un-cordon a previously drained node.
    Uncordon(NodeId),
    /// One EPC rebalance pass.
    Rebalance,
    /// Complete a running pod.
    Complete(PodId),
}
