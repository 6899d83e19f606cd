//! The concrete filter and score plugins the built-in pipelines compose
//! (§IV).
//!
//! The paper's two SGX-aware strategies decompose cleanly onto the
//! [`framework`](crate::framework):
//!
//! * **binpack** — walk the nodes in a fixed, consistent order and fill
//!   the first node until its resources become insufficient, then
//!   advance. The fixed order is exactly the framework's centralized
//!   name tie-break, layered under `SgxPreserveScore` (standard pods
//!   keep off SGX nodes) and `FreshBeforeDegradedScore` (PR 4's
//!   staleness ordering) — so binpack needs no load scorer at all.
//! * **spread** — pick the placement that yields the smallest standard
//!   deviation of load across the candidate's peer group
//!   ([`SpreadScore`]), under the same two ordering stages.
//! * **least-requested** — the stock Kubernetes behaviour: requests-only
//!   feasibility and the least requested-fraction of the pod's primary
//!   resource (`LeastRequestedScore`), blind to measured usage,
//!   staleness and SGX preservation.
//!
//! Feasibility plugins come in two accounting bases
//! (`OccupancyBasis`): the SGX-aware pipelines filter on **effective**
//! occupancy (`max(measured, requested)`, requests-only when degraded),
//! the stock pipeline on **requests** alone.

use cluster::api::{NodeName, PodSpec};

use crate::framework::{FilterPlugin, ScoreContext, ScorePlugin};
use crate::metrics::NodeView;

/// Which occupancy accounting a feasibility filter reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OccupancyBasis {
    /// `max(measured, requested)` — requests-only when the node is
    /// degraded. What the paper's SGX-aware schedulers filter on.
    Effective,
    /// Admitted requests only — the stock Kubernetes criterion.
    RequestsOnly,
}

/// Rejects cordoned (draining) nodes.
///
/// [`ClusterSnapshot`](crate::ClusterSnapshot)s capture cordoned workers
/// with their flag set instead of omitting them, so this filter is what
/// actually keeps placements — including drain and rebalance targets —
/// off nodes under maintenance.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CordonFilter;

impl FilterPlugin for CordonFilter {
    fn name(&self) -> &'static str {
        "cordon"
    }
    fn feasible(&self, _spec: &PodSpec, _name: &NodeName, node: &NodeView) -> bool {
        !node.cordoned
    }
    fn monotone_in_requests(&self) -> bool {
        true
    }
}

/// Rejects nodes without SGX for pods that request EPC pages.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SgxCapableFilter;

impl FilterPlugin for SgxCapableFilter {
    fn name(&self) -> &'static str {
        "sgx-capable"
    }
    fn feasible(&self, spec: &PodSpec, _name: &NodeName, node: &NodeView) -> bool {
        !spec.resources.requests.needs_sgx() || node.has_sgx()
    }
    fn monotone_in_requests(&self) -> bool {
        true
    }
}

/// EPC-capacity feasibility: the pod's requested pages must fit the
/// node's free EPC under the configured `OccupancyBasis`.
#[derive(Debug, Clone, Copy)]
pub struct EpcFitFilter {
    basis: OccupancyBasis,
}

impl EpcFitFilter {
    /// Effective-occupancy variant (measured ∨ requests).
    pub fn effective() -> Self {
        EpcFitFilter {
            basis: OccupancyBasis::Effective,
        }
    }
    /// Requests-only variant.
    pub(crate) fn requests_only() -> Self {
        EpcFitFilter {
            basis: OccupancyBasis::RequestsOnly,
        }
    }
}

impl FilterPlugin for EpcFitFilter {
    fn name(&self) -> &'static str {
        match self.basis {
            OccupancyBasis::Effective => "epc-fit",
            OccupancyBasis::RequestsOnly => "epc-fit(requests)",
        }
    }
    fn feasible(&self, spec: &PodSpec, _name: &NodeName, node: &NodeView) -> bool {
        let req = spec.resources.requests.epc_pages;
        match self.basis {
            OccupancyBasis::Effective => req <= node.epc_free(),
            OccupancyBasis::RequestsOnly => {
                req <= node.epc_capacity.saturating_sub(node.epc_requested)
            }
        }
    }
    fn monotone_in_requests(&self) -> bool {
        true
    }
}

/// Standard-resource (memory) feasibility under the configured
/// [`OccupancyBasis`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoryFitFilter {
    basis: OccupancyBasis,
}

impl MemoryFitFilter {
    /// Effective-occupancy variant (measured ∨ requests).
    pub(crate) fn effective() -> Self {
        MemoryFitFilter {
            basis: OccupancyBasis::Effective,
        }
    }
    /// Requests-only variant.
    pub(crate) fn requests_only() -> Self {
        MemoryFitFilter {
            basis: OccupancyBasis::RequestsOnly,
        }
    }
}

impl FilterPlugin for MemoryFitFilter {
    fn name(&self) -> &'static str {
        match self.basis {
            OccupancyBasis::Effective => "mem-fit",
            OccupancyBasis::RequestsOnly => "mem-fit(requests)",
        }
    }
    fn feasible(&self, spec: &PodSpec, _name: &NodeName, node: &NodeView) -> bool {
        let req = spec.resources.requests.memory;
        match self.basis {
            OccupancyBasis::Effective => req <= node.memory_free(),
            OccupancyBasis::RequestsOnly => {
                req <= node.memory_capacity.saturating_sub(node.memory_requested)
            }
        }
    }
    fn monotone_in_requests(&self) -> bool {
        true
    }
}

/// SGX preservation (§IV): standard jobs go to non-SGX nodes whenever
/// possible, "to preserve their resources for SGX-enabled jobs" — SGX
/// nodes score `0.0`, others `1.0`. For SGX pods every feasible node is
/// an SGX node, so the stage is a constant and decides nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SgxPreserveScore;

impl ScorePlugin for SgxPreserveScore {
    fn name(&self) -> &'static str {
        "sgx-preserve"
    }
    fn score(&self, cx: &ScoreContext<'_>, slot: usize) -> f64 {
        if cx.nodes[slot].has_sgx() {
            0.0
        } else {
            1.0
        }
    }
}

/// PR 4's staleness ordering: nodes with fresh metrics score `1.0`,
/// degraded ones `0.0` — a node whose probes went silent is only a last
/// resort, never unschedulable.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FreshBeforeDegradedScore;

impl ScorePlugin for FreshBeforeDegradedScore {
    fn name(&self) -> &'static str {
        "fresh-first"
    }
    fn score(&self, cx: &ScoreContext<'_>, slot: usize) -> f64 {
        if cx.nodes[slot].degraded {
            0.0
        } else {
            1.0
        }
    }
}

/// The spread criterion: the negated standard deviation of load across
/// the candidate's **peer group** — all non-cordoned nodes sharing the
/// candidate's `(has_sgx, degraded)` partition — if the pod were placed
/// on the candidate. Placements that flatten the group score higher.
///
/// The group deliberately includes infeasible peers: a nearly-full node
/// still shapes the distribution the paper's spread policy balances.
///
/// One placement scores all its candidates through
/// [`score_batch`](ScorePlugin::score_batch), which builds each peer
/// group and its load vector once and then, per candidate, patches one
/// element and re-runs the two folds. The folds themselves stay: a left
/// fold over floats cannot be updated in O(1) bit-identically, and nodes
/// with equal load are told apart only by that rounding.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadScore;

/// One `(has_sgx, degraded)` peer group of a placement: its member
/// slots (ascending) and their load fractions before the pod lands.
struct PeerGroup {
    slots: Vec<usize>,
    loads: Vec<f64>,
}

impl PeerGroup {
    fn of(cx: &ScoreContext<'_>, peer: &NodeView) -> Self {
        let slots: Vec<usize> = (0..cx.nodes.len())
            .filter(|&slot| {
                let v = &cx.nodes[slot];
                !v.cordoned && v.has_sgx() == peer.has_sgx() && v.degraded == peer.degraded
            })
            .collect();
        let loads = slots
            .iter()
            .map(|&slot| cx.nodes[slot].load_fraction_after(cx.spec, false))
            .collect();
        PeerGroup { slots, loads }
    }
}

impl ScorePlugin for SpreadScore {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn score(&self, cx: &ScoreContext<'_>, slot: usize) -> f64 {
        let mut out = Vec::with_capacity(1);
        self.score_batch(cx, &[slot], &mut out);
        out[0]
    }

    fn score_batch(&self, cx: &ScoreContext<'_>, candidates: &[usize], out: &mut Vec<f64>) {
        // At most four groups exist; under the built-in pipelines the
        // earlier stages leave candidates of exactly one.
        let mut groups: [Option<PeerGroup>; 4] = [None, None, None, None];
        for &slot in candidates {
            let node = &cx.nodes[slot];
            let key = usize::from(node.has_sgx()) * 2 + usize::from(node.degraded);
            let group = groups[key].get_or_insert_with(|| PeerGroup::of(cx, node));
            // A cordoned candidate (only under a pipeline without the
            // cordon filter) is no member of its own group: nothing lands.
            let Ok(member) = group.slots.binary_search(&slot) else {
                out.push(-load_stddev(&group.loads));
                continue;
            };
            let before = group.loads[member];
            group.loads[member] = node.load_fraction_after(cx.spec, true);
            out.push(-load_stddev(&group.loads));
            group.loads[member] = before;
        }
    }
}

/// The stock scheduler's criterion: the negated requested-fraction of
/// the pod's primary resource (EPC pages for SGX pods, memory
/// otherwise). Least-requested scores highest; nodes lacking the
/// resource entirely count as full.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LeastRequestedScore;

impl ScorePlugin for LeastRequestedScore {
    fn name(&self) -> &'static str {
        "least-requested"
    }
    fn score(&self, cx: &ScoreContext<'_>, slot: usize) -> f64 {
        -requested_fraction(&cx.nodes[slot], cx.spec)
    }
}

fn requested_fraction(view: &NodeView, spec: &PodSpec) -> f64 {
    if spec.needs_sgx() {
        let cap = view.epc_capacity.count();
        if cap == 0 {
            1.0
        } else {
            view.epc_requested.count() as f64 / cap as f64
        }
    } else {
        let cap = view.memory_capacity.as_bytes();
        if cap == 0 {
            1.0
        } else {
            view.memory_requested.as_bytes() as f64 / cap as f64
        }
    }
}

/// Population standard deviation of a peer group's load fractions. The
/// loads arrive in slot (= name) order, so the float summation order is
/// deterministic.
///
/// An empty group has none: the answer is [`f64::NAN`], the one bit
/// pattern, returned rather than computed — the sign of a computed `0/0`
/// is unspecified and differs between a runtime division and the
/// constant folder, hence between build profiles. [`SpreadScore`]
/// negates it, and `total_cmp` orders that below every number: a
/// candidate with no peer group never outranks one with.
fn load_stddev(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return f64::NAN;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    (loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / loads.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SchedulingCycle;
    use crate::registry::{PolicyRegistry, SGX_BINPACK, SGX_SPREAD};
    use crate::snapshot::ClusterSnapshot;
    use cluster::topology::{Cluster, ClusterSpec};
    use des::{SimDuration, SimTime};
    use sgx_sim::units::{ByteSize, EpcPages};
    use std::collections::BTreeMap;
    use tsdb::Database;

    fn empty_nodes() -> BTreeMap<NodeName, NodeView> {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        )
        .iter()
        .map(|(name, view)| (name.clone(), *view))
        .collect()
    }

    fn annotate(
        nodes: &mut BTreeMap<NodeName, NodeView>,
        threshold: SimDuration,
        age_of: impl Fn(&NodeName) -> Option<SimDuration>,
    ) {
        for (name, view) in nodes.iter_mut() {
            let age = age_of(name);
            view.metrics_age = age;
            view.degraded = age.is_some_and(|a| a > threshold);
        }
    }

    fn sgx_pod(mib: u64) -> PodSpec {
        PodSpec::builder(format!("sgx{mib}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    }

    fn std_pod(gib: u64) -> PodSpec {
        PodSpec::builder(format!("std{gib}"))
            .memory_resources(ByteSize::from_gib(gib))
            .build()
    }

    fn place(
        policy: &str,
        spec: &PodSpec,
        nodes: &BTreeMap<NodeName, NodeView>,
    ) -> Option<NodeName> {
        PolicyRegistry::builtin().by_name(policy).unwrap().place(
            spec,
            &ClusterSnapshot::from_nodes(SimTime::ZERO, nodes.clone()),
        )
    }

    #[test]
    fn binpack_fills_first_node_first() {
        let mut nodes = empty_nodes();
        let pod = sgx_pod(30);
        // First placement goes to sgx-1 and stays there until full.
        for _ in 0..3 {
            let chosen = place(SGX_BINPACK, &pod, &nodes).unwrap();
            assert_eq!(chosen.as_str(), "sgx-1");
            nodes.get_mut(&chosen).unwrap().reserve(&pod);
        }
        // 90 of 93.5 MiB used: the fourth 30 MiB pod spills to sgx-2.
        let chosen = place(SGX_BINPACK, &pod, &nodes).unwrap();
        assert_eq!(chosen.as_str(), "sgx-2");
    }

    #[test]
    fn binpack_sends_standard_pods_to_standard_nodes_first() {
        let nodes = empty_nodes();
        let chosen = place(SGX_BINPACK, &std_pod(4), &nodes).unwrap();
        assert_eq!(chosen.as_str(), "std-1");
    }

    #[test]
    fn binpack_standard_pod_falls_back_to_sgx_node_when_needed() {
        let mut nodes = empty_nodes();
        // Fill both standard nodes completely.
        for name in ["std-1", "std-2"] {
            nodes
                .get_mut(&NodeName::new(name))
                .unwrap()
                .reserve(&std_pod(64));
        }
        // A 4 GiB pod now only fits on the 8 GiB SGX machines.
        let chosen = place(SGX_BINPACK, &std_pod(4), &nodes).unwrap();
        assert_eq!(chosen.as_str(), "sgx-1");
    }

    #[test]
    fn spread_balances_sgx_load() {
        let mut nodes = empty_nodes();
        let pod = sgx_pod(20);
        let first = place(SGX_SPREAD, &pod, &nodes).unwrap();
        nodes.get_mut(&first).unwrap().reserve(&pod);
        let second = place(SGX_SPREAD, &pod, &nodes).unwrap();
        assert_ne!(first, second, "spread should alternate across SGX nodes");
    }

    #[test]
    fn spread_avoids_sgx_nodes_for_standard_pods() {
        let mut nodes = empty_nodes();
        let pod = std_pod(2);
        for _ in 0..10 {
            let chosen = place(SGX_SPREAD, &pod, &nodes).unwrap();
            assert!(chosen.as_str().starts_with("std"));
            nodes.get_mut(&chosen).unwrap().reserve(&pod);
        }
    }

    #[test]
    fn spread_falls_back_to_sgx_tier() {
        let mut nodes = empty_nodes();
        for name in ["std-1", "std-2"] {
            nodes
                .get_mut(&NodeName::new(name))
                .unwrap()
                .reserve(&std_pod(64));
        }
        let chosen = place(SGX_SPREAD, &std_pod(4), &nodes).unwrap();
        assert!(chosen.as_str().starts_with("sgx"));
    }

    /// The headline PR 4 bug: a node whose probes went silent has its
    /// samples age out, so its measured usage reads zero and
    /// usage-informed pipelines would pick the "idle-looking" node. Once
    /// the snapshot marks it degraded, both pipelines must prefer the
    /// fresh node instead.
    #[test]
    fn stale_node_is_not_preferred_once_degraded() {
        let mut nodes = empty_nodes();
        let busy = EpcPages::new(20_000).to_bytes();
        // sgx-1 is actually the busiest node in the cluster, but its
        // probes went silent: measurements aged out and read as zero.
        nodes.get_mut(&NodeName::new("sgx-1")).unwrap().epc_measured = ByteSize::ZERO;
        // sgx-2 reports honestly and shows real load.
        nodes.get_mut(&NodeName::new("sgx-2")).unwrap().epc_measured = busy;

        // Staleness-blind, both pipelines prefer the silent node: binpack
        // because it walks name order, spread because it looks idle.
        for policy in [SGX_BINPACK, SGX_SPREAD] {
            assert_eq!(
                place(policy, &sgx_pod(10), &nodes).unwrap(),
                NodeName::new("sgx-1")
            );
        }

        // Annotate: sgx-1 last scraped 10 minutes ago, sgx-2 fresh.
        annotate(&mut nodes, SimDuration::from_secs(30), |name| {
            if name.as_str() == "sgx-1" {
                Some(SimDuration::from_secs(600))
            } else {
                Some(SimDuration::from_secs(5))
            }
        });
        for policy in [SGX_BINPACK, SGX_SPREAD] {
            assert_eq!(
                place(policy, &sgx_pod(10), &nodes).unwrap(),
                NodeName::new("sgx-2"),
                "{policy} still prefers the stale node"
            );
        }
        // The degraded node remains a last resort: fill sgx-2 and the
        // pod falls back to sgx-1 rather than going unschedulable.
        nodes
            .get_mut(&NodeName::new("sgx-2"))
            .unwrap()
            .reserve(&sgx_pod(90));
        for policy in [SGX_BINPACK, SGX_SPREAD] {
            assert_eq!(
                place(policy, &sgx_pod(10), &nodes).unwrap(),
                NodeName::new("sgx-1"),
                "{policy} should fall back to the degraded node"
            );
        }
    }

    #[test]
    fn fresh_standard_nodes_come_before_degraded_ones() {
        let mut nodes = empty_nodes();
        annotate(&mut nodes, SimDuration::from_secs(30), |name| {
            if name.as_str() == "std-1" {
                Some(SimDuration::from_secs(120))
            } else {
                Some(SimDuration::from_secs(1))
            }
        });
        // binpack would normally start at std-1; degraded, it skips ahead.
        for policy in [SGX_BINPACK, SGX_SPREAD] {
            assert_eq!(
                place(policy, &std_pod(4), &nodes).unwrap(),
                NodeName::new("std-2")
            );
        }
    }

    #[test]
    fn no_fit_returns_none() {
        let nodes = empty_nodes();
        for policy in [SGX_BINPACK, SGX_SPREAD] {
            // Larger than any node's EPC.
            assert_eq!(place(policy, &sgx_pod(100), &nodes), None);
            // Larger than any node's memory.
            assert_eq!(place(policy, &std_pod(100), &nodes), None);
        }
    }

    #[test]
    fn cordoned_nodes_are_never_placement_targets() {
        let mut nodes = empty_nodes();
        nodes.get_mut(&NodeName::new("sgx-1")).unwrap().cordoned = true;
        let registry = PolicyRegistry::builtin();
        for name in registry.names() {
            let chosen = place(&name, &sgx_pod(10), &nodes).unwrap();
            assert_eq!(chosen.as_str(), "sgx-2", "{name} placed on a cordoned node");
        }
    }

    #[test]
    fn cycle_reuses_one_snapshot_across_policies() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let snapshot = ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        );
        let registry = PolicyRegistry::builtin();
        let mut cycle = SchedulingCycle::new(snapshot);
        let binpack = registry.by_name(SGX_BINPACK).unwrap();
        let spread = registry.by_name(SGX_SPREAD).unwrap();
        assert_eq!(
            cycle.place(&binpack, &sgx_pod(10)).unwrap().as_str(),
            "sgx-1"
        );
        assert_eq!(
            cycle.place(&spread, &sgx_pod(10)).unwrap().as_str(),
            "sgx-1"
        );
    }
}
