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
//!
//! No plugin decides in floating point: loads are compared exactly, in
//! integers, by the crate's one exact-comparison module (`exact`).

#![deny(clippy::float_arithmetic)]

use std::cmp::Ordering;

use cluster::api::{NodeName, PodSpec};

use crate::exact::{Load, Natural, Ratio};
use crate::framework::{keep_best, FilterPlugin, Needs, ScoreContext, ScorePlugin};
use crate::metrics::{primary_request, NodeView};

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
    fn needs(&self, _spec: &PodSpec) -> Needs {
        Needs::uncordoned()
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
    fn needs(&self, spec: &PodSpec) -> Needs {
        Needs::free(self.basis, true, spec.resources.requests.epc_pages.count())
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
    fn needs(&self, spec: &PodSpec) -> Needs {
        Needs::free(self.basis, false, spec.resources.requests.memory.as_bytes())
    }
}

/// SGX preservation (§IV): standard jobs go to non-SGX nodes whenever
/// possible, "to preserve their resources for SGX-enabled jobs" — nodes
/// without SGX rank above nodes with. For SGX pods every feasible node
/// is an SGX node, so the stage decides nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SgxPreserveScore;

impl ScorePlugin for SgxPreserveScore {
    fn name(&self) -> &'static str {
        "sgx-preserve"
    }
    fn narrow(&self, cx: &ScoreContext<'_>, candidates: &mut Vec<usize>) {
        keep_best(candidates, |slot| !cx.nodes[slot].has_sgx(), bool::cmp);
    }
    fn class_constant(&self) -> bool {
        true
    }
}

/// PR 4's staleness ordering: nodes with fresh metrics rank above
/// degraded ones — a node whose probes went silent is only a last
/// resort, never unschedulable.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FreshBeforeDegradedScore;

impl ScorePlugin for FreshBeforeDegradedScore {
    fn name(&self) -> &'static str {
        "fresh-first"
    }
    fn narrow(&self, cx: &ScoreContext<'_>, candidates: &mut Vec<usize>) {
        keep_best(candidates, |slot| !cx.nodes[slot].degraded, bool::cmp);
    }
    fn class_constant(&self) -> bool {
        true
    }
}

/// The peer group a node's load is balanced within: the non-cordoned
/// nodes sharing its `(has_sgx, degraded)` partition. A cordoned node
/// belongs to none.
pub(crate) fn peer_group_of(view: &NodeView) -> Option<usize> {
    (!view.cordoned).then(|| usize::from(view.has_sgx()) << 1 | usize::from(view.degraded))
}

/// The members of one peer group that share one capacity of one
/// resource (EPC pages when `epc`, memory bytes otherwise).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    group: usize,
    epc: bool,
    capacity: u64,
    members: u64,
    /// Σ effective occupancy over the members.
    occupied: u128,
}

/// The exact load sums of the four peer groups: per group its member
/// count and, per resource, its members bucketed by capacity. With that,
/// Σ load = Σ over buckets of `occupied / capacity` is known exactly, a
/// handful of terms however many nodes a group has — all
/// [`SpreadScore`] needs beyond the candidates themselves. Infeasible
/// and excluded members count; a zero-capacity member counts as full.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerSums {
    members: [u64; 4],
    /// A tier holds a handful of machine classes: searched linearly.
    buckets: Vec<Bucket>,
}

impl PeerSums {
    fn bucket(&mut self, group: usize, epc: bool, capacity: u64) -> &mut Bucket {
        let found = self
            .buckets
            .iter()
            .position(|b| b.group == group && b.epc == epc && b.capacity == capacity);
        let at = found.unwrap_or_else(|| {
            self.buckets.push(Bucket {
                group,
                epc,
                capacity,
                members: 0,
                occupied: 0,
            });
            self.buckets.len() - 1
        });
        &mut self.buckets[at]
    }

    /// The sums over `nodes`: every node counted into its group, if it
    /// has one.
    pub(crate) fn of(nodes: &[NodeView]) -> Self {
        let mut sums = PeerSums::default();
        for view in nodes {
            let Some(group) = peer_group_of(view) else {
                continue;
            };
            sums.members[group] += 1;
            for epc in [false, true] {
                let (occupied, capacity) = view.load_parts(epc);
                let bucket = sums.bucket(group, epc, capacity);
                bucket.members += 1;
                bucket.occupied += u128::from(occupied);
            }
        }
        sums
    }

    /// Follows a node whose occupancy grew from `before` to `after` (a
    /// reservation; capacities and groups never change).
    pub(crate) fn moved(&mut self, before: &NodeView, after: &NodeView) {
        let Some(group) = peer_group_of(after) else {
            return;
        };
        for epc in [false, true] {
            let (was, capacity) = before.load_parts(epc);
            let (is, _) = after.load_parts(epc);
            self.bucket(group, epc, capacity).occupied += u128::from(is - was);
        }
    }
}

/// The spread criterion (§IV): place the pod where the load of the
/// node's **peer group** — the non-cordoned nodes of its
/// `(has_sgx, degraded)` partition — ends up with the smallest
/// variance — the paper's "smallest standard deviation".
///
/// The group deliberately includes infeasible peers: a nearly-full node
/// still shapes the distribution the paper's spread policy balances.
///
/// The comparison is exact and costs O(1) a candidate. With *n* members
/// of loads *xᵢ = oᵢ / capᵢ*, *S* = Σ*xᵢ* and a pod of *r* units,
/// placing on *c* changes *n²·Var* by
/// *(r / cap_c²) · [n(2o_c + r) − r − 2·S·cap_c]*: everything but the
/// candidate's own occupancy and capacity is shared by the group. Two
/// candidates of one group and one capacity therefore compare by
/// occupancy alone — on a uniform tier spread *is* least-occupied — and
/// any other pair by cross-multiplied integers of whatever size it takes
/// (`Natural`); candidates of different groups compare by the change
/// in their own group's variance. No float is involved. A zero-capacity
/// member is full and unmoved by a placement, a pod requesting nothing
/// of its primary resource moves nobody (all tie), and a candidate that
/// belongs to no group ranks below every one that does.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadScore;

/// A candidate as the spread comparison sees it: its peer group and, if
/// placing the pod there moves its load at all, its capacity and
/// occupancy (both zero if not).
type Seat = (Option<usize>, u64, u64);

impl ScorePlugin for SpreadScore {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn narrow(&self, cx: &ScoreContext<'_>, candidates: &mut Vec<usize>) {
        let (epc, request) = primary_request(cx.spec);
        let seat = |slot: usize| -> Seat {
            let view = &cx.nodes[slot];
            let group = peer_group_of(view);
            let (occupied, capacity) = view.load_parts(epc);
            if group.is_none() || capacity == 0 || request == 0 {
                (group, 0, 0)
            } else {
                (group, capacity, occupied)
            }
        };
        // Within one group and capacity the least occupied wins, so only
        // that champion of each needs the exact comparison.
        let mut champions: Vec<Seat> = Vec::new();
        for &slot in candidates.iter() {
            let (group, capacity, occupied) = seat(slot);
            match champions
                .iter_mut()
                .find(|c| c.0 == group && c.1 == capacity)
            {
                Some(champion) => champion.2 = champion.2.min(occupied),
                None => champions.push((group, capacity, occupied)),
            }
        }
        if champions.len() > 1 {
            let changes: Vec<VarianceChange> = champions
                .iter()
                .map(|seat| variance_change(cx.peers(), epc, request, seat))
                .collect();
            let least = changes
                .iter()
                .min_by(|a, b| a.cmp(b))
                .expect("candidates are never empty");
            let mut ties = changes.iter().map(|change| change.cmp(least).is_eq());
            champions.retain(|_| ties.next().expect("one change a champion"));
        }
        candidates.retain(|&slot| champions.contains(&seat(slot)));
    }
}

/// How placing `request` units on a seat changes the variance of its
/// group's load, as an exactly ordered key: seats outside any group
/// last, the others by *(cost − gain) / n²* where, per unit requested,
/// *cost = [2·n·o + (n − 1)·r] / cap²* and *gain = 2·S / cap* (see
/// [`SpreadScore`]; an unmoved seat has neither).
#[derive(Debug)]
struct VarianceChange {
    outside: bool,
    cost: Ratio,
    gain: Ratio,
}

fn variance_change(peers: &PeerSums, epc: bool, request: u64, seat: &Seat) -> VarianceChange {
    let &(group, capacity, occupied) = seat;
    let mut change = VarianceChange {
        outside: group.is_none(),
        cost: Ratio::zero(),
        gain: Ratio::zero(),
    };
    let Some(group) = group.filter(|_| capacity != 0) else {
        return change;
    };
    let members = peers.members[group];
    let n = Natural::from(u128::from(members));
    let scale = Natural::from(u128::from(capacity)).times(&n).times(&n);
    let cost = Natural::from(2 * u128::from(occupied))
        .times(&n)
        .plus(&Natural::from(
            u128::from(members - 1) * u128::from(request),
        ));
    change.cost = Ratio::of(cost, scale.times(&Natural::from(u128::from(capacity))));
    let load_sum = peers
        .buckets
        .iter()
        .filter(|bucket| bucket.group == group && bucket.epc == epc)
        .fold(Ratio::zero(), |sum, bucket| {
            sum.plus(&if bucket.capacity == 0 {
                Ratio::new(u128::from(bucket.members), 1)
            } else {
                Ratio::new(bucket.occupied, u128::from(bucket.capacity))
            })
        });
    change.gain = load_sum.times(&Ratio::of(Natural::from(2), scale));
    change
}

impl VarianceChange {
    fn cmp(&self, other: &VarianceChange) -> Ordering {
        // cost − gain < cost′ − gain′  ⇔  cost + gain′ < cost′ + gain.
        self.outside.cmp(&other.outside).then_with(|| {
            self.cost
                .plus(&other.gain)
                .cmp(&other.cost.plus(&self.gain))
        })
    }
}

/// The stock scheduler's criterion: the least requested-fraction of the
/// pod's primary resource (EPC pages for SGX pods, memory otherwise)
/// wins, compared exactly; nodes lacking the resource entirely count as
/// full.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LeastRequestedScore;

impl ScorePlugin for LeastRequestedScore {
    fn name(&self) -> &'static str {
        "least-requested"
    }
    fn narrow(&self, cx: &ScoreContext<'_>, candidates: &mut Vec<usize>) {
        let (epc, _) = primary_request(cx.spec);
        let load = |slot: usize| {
            let view = &cx.nodes[slot];
            if epc {
                Load::new(view.epc_requested.count(), view.epc_capacity.count())
            } else {
                Load::new(
                    view.memory_requested.as_bytes(),
                    view.memory_capacity.as_bytes(),
                )
            }
        };
        keep_best(candidates, load, |a, b| b.cmp(a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SchedulingCycle;
    use crate::registry::{PolicyRegistry, DEFAULT_SCHEDULER, SGX_BINPACK, SGX_SPREAD};
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

    /// The size the integers must carry without a fallback: 12,500
    /// standard nodes, 64 GiB and 8 GiB alternating, loads in bytes. The
    /// expected winner is computed here by the cross-multiplied form of
    /// the rule in plain `i128` (gcd 8 GiB taken out, so it fits):
    /// minimise `[n(2o + r) − r − 2·S·cap] / cap²`.
    #[test]
    fn spread_is_exact_at_12_500_mixed_nodes_of_64_and_8_gib() {
        const NODES: usize = 12_500;
        let gib = ByteSize::from_gib(1).as_bytes();
        let nodes: BTreeMap<NodeName, NodeView> = (0..NODES)
            .map(|i| {
                let big = i % 2 == 0;
                let capacity = if big { 64 } else { 8 };
                // Loads of 20–29.9 % in steps no float would keep apart
                // for long: one byte between neighbours of a class.
                let requested = capacity * gib / 5 + (i as u64 % 1_000) * capacity * gib / 10_000
                    - (i as u64 / 1_000);
                let view = NodeView {
                    memory_capacity: ByteSize::from_gib(capacity),
                    memory_requested: ByteSize::from_bytes(requested),
                    ..NodeView::default()
                };
                (NodeName::new(format!("std-{i:05}")), view)
            })
            .collect();
        let pod = std_pod(1);
        let chosen = place(SGX_SPREAD, &pod, &nodes).unwrap();

        let n = NODES as i128;
        let r = i128::from(gib);
        // S over the common denominator 64 GiB, in units of bytes / 64 GiB.
        let s_num: i128 = nodes
            .values()
            .map(|v| {
                let weight = 64 * i128::from(gib) / i128::from(v.memory_capacity.as_bytes());
                i128::from(v.memory_requested.as_bytes()) * weight
            })
            .sum();
        let key = |v: &NodeView| {
            let cap = i128::from(v.memory_capacity.as_bytes() / gib / 8); // 8 or 1
            let o = i128::from(v.memory_requested.as_bytes());
            // [n(2o + r) − r − 2·S·cap_bytes] / cap², S·cap_bytes = s_num·cap/8.
            let numerator = 8 * (n * (2 * o + r) - r) - 2 * s_num * cap;
            (numerator, cap * cap)
        };
        let expected = nodes
            .iter()
            .min_by(|a, b| {
                let ((na, da), (nb, db)) = (key(a.1), key(b.1));
                (na * db).cmp(&(nb * da)).then_with(|| a.0.cmp(b.0))
            })
            .map(|(name, _)| name.clone())
            .unwrap();
        assert_eq!(chosen, expected);
    }

    /// 5,368,709,121 B requested of 8 GiB and 2,013,265,921 B of
    /// 3 GiB + 1 B are different loads — the first is fuller by
    /// ≈3.6·10⁻²⁰ — that `f64` division rounds to one value. The stock
    /// scheduler must still pass over the fuller node, although its name
    /// ranks first.
    #[test]
    fn least_requested_tells_apart_loads_a_float_rounds_together() {
        let gib = ByteSize::from_gib(1).as_bytes();
        let node = |capacity: u64, requested: u64| NodeView {
            memory_capacity: ByteSize::from_bytes(capacity),
            memory_requested: ByteSize::from_bytes(requested),
            ..NodeView::default()
        };
        let fuller = node(8 * gib, 5_368_709_121);
        let emptier = node(3 * gib + 1, 2_013_265_921);
        let pod = std_pod(1);
        assert_eq!(
            fuller.load_fraction_after(&pod, false),
            emptier.load_fraction_after(&pod, false)
        );
        let nodes = BTreeMap::from([
            (NodeName::new("std-a"), fuller),
            (NodeName::new("std-b"), emptier),
        ]);
        assert_eq!(
            place(DEFAULT_SCHEDULER, &pod, &nodes).unwrap().as_str(),
            "std-b"
        );
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
