//! Model configuration: cluster shape, exploration bounds and semantics.

/// Which historical bugs the model reproduces.
///
/// All-`false` ([`Semantics::fixed`]) models the implementation as it is
/// today. Each flag reintroduces one previously-fixed bug *in the model
/// only*, so the checker can demonstrate the counterexample that bug
/// produces — and the conformance bridge can demonstrate the real
/// implementation no longer exhibits it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Semantics {
    /// The rebalance arming metric is computed over *all* SGX nodes,
    /// including cordoned ones, while the rebalancer itself only moves
    /// load between uncordoned nodes. During a drain window the metric
    /// can then arm forever against imbalance no move can reduce.
    pub cordon_blind_imbalance: bool,
    /// A drain captures one scheduling snapshot per evicted pod instead
    /// of threading one `SchedulingCycle` across the whole eviction,
    /// making drains O(pods × capture).
    pub per_pod_drain_capture: bool,
    /// A recovered node keeps its pre-crash scrape freshness and accepts
    /// probe frames scraped before the crash, so the next pass schedules
    /// against phantom occupancy measured from pods that died with the
    /// node.
    pub stale_recovery: bool,
}

impl Semantics {
    /// The implementation as it is today: no reintroduced bugs.
    pub fn fixed() -> Self {
        Semantics::default()
    }

    /// Reintroduces the cordon-blind arming-metric bug.
    pub fn bug_cordon_blind_imbalance() -> Self {
        Semantics {
            cordon_blind_imbalance: true,
            ..Semantics::default()
        }
    }

    /// Reintroduces the per-evicted-pod drain snapshot capture.
    pub fn bug_per_pod_drain_capture() -> Self {
        Semantics {
            per_pod_drain_capture: true,
            ..Semantics::default()
        }
    }

    /// Reintroduces the stale-recovery bug: no recovery quarantine.
    pub fn bug_stale_recovery() -> Self {
        Semantics {
            stale_recovery: true,
            ..Semantics::default()
        }
    }
}

/// Which pipeline the scheduler pass places through. Drains place
/// through sgx-binpack whatever this says, as the implementation's do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Policy {
    /// sgx-binpack: the first node, in index order, that fits.
    #[default]
    Binpack,
    /// sgx-spread: the node that leaves its peer group's load with the
    /// least variance.
    Spread,
}

/// Shape and bounds of the explored system.
///
/// All EPC quantities are abstract *pages*. One model tick corresponds
/// to [`bridge::TICK_SECS`](crate::bridge::TICK_SECS) seconds of
/// implementation time; `window` and `staleness` are measured in ticks
/// and map onto the orchestrator's `metrics_window` and
/// `staleness_threshold` so that tick-aligned ages classify identically
/// on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// EPC capacity of each node, in pages. One entry per node.
    pub node_capacity: Vec<u64>,
    /// EPC request of each pod, in pages. One entry per pod.
    pub pod_request: Vec<u64>,
    /// Number of `Tick` actions a run may contain.
    pub horizon: u8,
    /// Metrics sliding window, in ticks: a sample aged at most this many
    /// ticks still counts toward measured occupancy.
    pub window: u8,
    /// Staleness threshold, in ticks: a node whose last delivered scrape
    /// is older than this falls back to requests-only accounting.
    pub staleness: u8,
    /// Maximum node crashes per run.
    pub max_crashes: u8,
    /// Maximum node drains per run.
    pub max_drains: u8,
    /// Nodes crashes and drains may target. The binpack fill order makes
    /// nodes asymmetric (lowest index fills first), so faulting the
    /// hottest and the coldest node covers the distinct scenarios
    /// without tripling the fault branching at every state.
    pub fault_nodes: Vec<u8>,
    /// Maximum probe frames simultaneously in flight; a scrape is only
    /// enabled when every live node's frame still fits under the cap.
    pub max_in_flight: usize,
    /// Maximum pod completions per run (bounded like crashes and drains
    /// to keep the exhaustive space tractable; the count is derived from
    /// `Done` phases, so it costs no extra state).
    pub max_completes: u8,
    /// Maximum scrapes per run. One scrape — timed freely against every
    /// other action — already covers each probe-visibility scenario the
    /// invariants distinguish (pre-crash frames for the superseded
    /// check, a post-recovery scrape for the quarantine lift, one frame
    /// per node for the permutation lookahead); further scrapes multiply
    /// the state space by sample-set churn without adding a scenario
    /// class.
    pub max_scrapes: u8,
    /// Rebalance arming threshold, in thousandths of capacity spread
    /// (`250` models the implementation's `0.25`).
    pub rebalance_threshold_milli: u64,
    /// Which historical bugs the model reproduces.
    pub semantics: Semantics,
    /// Which pipeline scheduler passes place through.
    pub policy: Policy,
}

impl ModelConfig {
    /// The exhaustive CI gate: 3 nodes × 4 pods, one crash, one drain,
    /// two completions, a one-tick metrics window and staleness
    /// threshold over a two-tick horizon.
    ///
    /// Both sides decide in exact integers, so no capacity needs to be a
    /// power of two for them to agree; conformance walks check the
    /// rebalancer on 7-, 6- and 5-page nodes. The threshold is read from
    /// the same `f64` on both sides, so it has to be dyadic: 250 milli is
    /// exactly `0.25`.
    pub fn small() -> Self {
        ModelConfig {
            node_capacity: vec![8, 8, 8],
            pod_request: vec![5, 3, 2, 2],
            horizon: 2,
            window: 1,
            staleness: 1,
            max_crashes: 1,
            max_drains: 1,
            fault_nodes: vec![0, 2],
            max_in_flight: 3,
            max_completes: 2,
            max_scrapes: 1,
            rebalance_threshold_milli: 250,
            semantics: Semantics::fixed(),
            policy: Policy::Binpack,
        }
    }

    /// A deliberately tiny configuration for doctests and smoke bounds:
    /// 2 nodes × 2 pods, no faults.
    pub fn tiny() -> Self {
        ModelConfig {
            node_capacity: vec![8, 8],
            pod_request: vec![5, 3],
            horizon: 2,
            window: 1,
            staleness: 1,
            max_crashes: 0,
            max_drains: 0,
            fault_nodes: Vec::new(),
            max_in_flight: 2,
            max_completes: 2,
            max_scrapes: 1,
            rebalance_threshold_milli: 250,
            semantics: Semantics::fixed(),
            policy: Policy::Binpack,
        }
    }

    /// The spread gate: [`small`](Self::small) placed through sgx-spread.
    /// Capacities stay equal powers of two — the implementation compares
    /// integers now, so that is no longer needed for exactness, but it
    /// keeps the load ties that make spread's tie-break matter frequent.
    pub fn small_spread() -> Self {
        ModelConfig {
            policy: Policy::Spread,
            ..ModelConfig::small()
        }
    }

    /// Same configuration with different semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.node_capacity.len()
    }

    /// Number of pods.
    pub fn pods(&self) -> usize {
        self.pod_request.len()
    }
}
