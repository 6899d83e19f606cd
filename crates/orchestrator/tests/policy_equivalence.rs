//! Property tests for the filter/score scheduling framework.
//!
//! Four families, fuzzed over random cluster snapshots and pod
//! sequences:
//!
//! 1. **Equivalence** — every built-in pipeline places *identically* to
//!    the pre-framework `PlacementPolicy`/`SchedulerKind` enums, whose
//!    `place()` bodies are preserved verbatim in the [`oracle`] module
//!    below (operating over schedulable nodes only, exactly as the old
//!    per-pass view capture delivered them).
//! 2. **Feasibility** — no registered pipeline ever places a pod on a
//!    cordoned node, on a non-SGX node for an SGX pod, or where the
//!    requested resources would drive free capacity negative.
//! 3. **Determinism** — placement is a pure function of the snapshot:
//!    the same snapshot (or a cheap clone of it) placed twice yields the
//!    same node, with no dependence on any hash-map iteration order.
//! 4. **Shortcut soundness** — what a [`SchedulingCycle`] skips never
//!    changes an answer: a long-lived cycle (infeasibility frontier on)
//!    agrees with a fresh cycle over the same working state at every
//!    step, non-monotone filters bypass the frontier, batch spread
//!    scoring equals per-candidate scoring bit for bit, and staged
//!    elimination equals whole-vector lexicographic selection.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use cluster::api::{NodeName, PodSpec};
use des::SimTime;
use orchestrator::metrics::NodeView;
use orchestrator::policy::{EpcFitFilter, SpreadScore};
use orchestrator::{
    ClusterSnapshot, FilterPlugin, PolicyPipeline, PolicyRegistry, SchedulingCycle, ScoreContext,
    ScorePlugin,
};
use sgx_sim::units::{ByteSize, EpcPages};

/// The adaptor between the oracle's node map and the framework: freeze
/// the map and place once through a fresh cycle (empty frontier).
fn place(
    pipeline: &PolicyPipeline,
    spec: &PodSpec,
    nodes: &BTreeMap<NodeName, NodeView>,
) -> Option<NodeName> {
    pipeline.place(
        spec,
        &ClusterSnapshot::from_nodes(SimTime::ZERO, nodes.clone()),
    )
}

/// The pre-refactor placement implementations, copied verbatim from the
/// deleted `PlacementPolicy::place_*` / `place_least_requested` (only the
/// input type changed: the old per-pass view captured schedulable nodes
/// only, so the oracle first drops cordoned entries from the map).
mod oracle {
    use super::*;

    fn schedulable(nodes: &BTreeMap<NodeName, NodeView>) -> Vec<(&NodeName, &NodeView)> {
        nodes.iter().filter(|(_, v)| !v.cordoned).collect()
    }

    pub fn place_binpack(spec: &PodSpec, nodes: &BTreeMap<NodeName, NodeView>) -> Option<NodeName> {
        let (sgx_nodes, standard_nodes): (Vec<_>, Vec<_>) = schedulable(nodes)
            .into_iter()
            .partition(|(_, v)| v.has_sgx());
        let (std_degraded, std_fresh): (Vec<_>, Vec<_>) =
            standard_nodes.into_iter().partition(|(_, v)| v.degraded);
        let (sgx_degraded, sgx_fresh): (Vec<_>, Vec<_>) =
            sgx_nodes.into_iter().partition(|(_, v)| v.degraded);
        std_fresh
            .into_iter()
            .chain(std_degraded)
            .chain(sgx_fresh)
            .chain(sgx_degraded)
            .find(|(_, v)| v.fits(spec))
            .map(|(name, _)| name.clone())
    }

    pub fn place_spread(spec: &PodSpec, nodes: &BTreeMap<NodeName, NodeView>) -> Option<NodeName> {
        let tiers: Vec<Vec<(&NodeName, &NodeView)>> = if spec.needs_sgx() {
            let (degraded, fresh): (Vec<_>, Vec<_>) = schedulable(nodes)
                .into_iter()
                .filter(|(_, v)| v.has_sgx())
                .partition(|(_, v)| v.degraded);
            vec![fresh, degraded]
        } else {
            let (sgx, standard): (Vec<_>, Vec<_>) = schedulable(nodes)
                .into_iter()
                .partition(|(_, v)| v.has_sgx());
            let (std_degraded, std_fresh): (Vec<_>, Vec<_>) =
                standard.into_iter().partition(|(_, v)| v.degraded);
            let (sgx_degraded, sgx_fresh): (Vec<_>, Vec<_>) =
                sgx.into_iter().partition(|(_, v)| v.degraded);
            vec![std_fresh, std_degraded, sgx_fresh, sgx_degraded]
        };

        for tier in tiers {
            let feasible: Vec<_> = tier.iter().filter(|(_, v)| v.fits(spec)).collect();
            if feasible.is_empty() {
                continue;
            }
            let best = feasible.iter().min_by(|a, b| {
                let sa = load_stddev_with_placement(&tier, a.0, spec);
                let sb = load_stddev_with_placement(&tier, b.0, spec);
                sa.total_cmp(&sb).then_with(|| a.0.cmp(b.0))
            });
            if let Some((name, _)) = best {
                return Some((*name).clone());
            }
        }
        None
    }

    fn load_stddev_with_placement(
        tier: &[(&NodeName, &NodeView)],
        chosen: &NodeName,
        spec: &PodSpec,
    ) -> f64 {
        let loads: Vec<f64> = tier
            .iter()
            .map(|(name, v)| v.load_fraction_after(spec, *name == chosen))
            .collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        (loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / loads.len() as f64).sqrt()
    }

    pub fn place_least_requested(
        spec: &PodSpec,
        nodes: &BTreeMap<NodeName, NodeView>,
    ) -> Option<NodeName> {
        schedulable(nodes)
            .into_iter()
            .filter(|(_, v)| v.fits_by_requests(spec))
            .min_by(|a, b| {
                let fa = requested_fraction(a.1, spec);
                let fb = requested_fraction(b.1, spec);
                fa.total_cmp(&fb).then_with(|| a.0.cmp(b.0))
            })
            .map(|(name, _)| name.clone())
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
}

/// One random node: capacities, requests possibly exceeding capacity
/// (an over-committed view must not panic or misplace), measured usage,
/// degraded and cordoned flags.
fn node_strategy() -> impl Strategy<Value = NodeView> {
    (
        any::<bool>(),                 // has SGX
        64u64..=4096,                  // memory capacity [MiB]
        0u64..=6144,                   // memory requested [MiB]
        0u64..=6144,                   // memory measured [MiB]
        256u64..=32_768,               // EPC capacity [pages] (when SGX)
        0u64..=49_152,                 // EPC requested [pages]
        0u64..=128,                    // EPC measured [MiB]
        any::<bool>(),                 // degraded
        (0u8..10).prop_map(|w| w < 2), // cordoned (~20 %)
    )
        .prop_map(
            |(sgx, mem_cap, mem_req, mem_meas, epc_cap, epc_req, epc_meas, degraded, cordoned)| {
                NodeView {
                    memory_capacity: ByteSize::from_mib(mem_cap),
                    epc_capacity: if sgx {
                        EpcPages::new(epc_cap)
                    } else {
                        EpcPages::ZERO
                    },
                    memory_requested: ByteSize::from_mib(mem_req),
                    epc_requested: if sgx {
                        EpcPages::new(epc_req)
                    } else {
                        EpcPages::ZERO
                    },
                    memory_measured: ByteSize::from_mib(mem_meas),
                    epc_measured: if sgx {
                        ByteSize::from_mib(epc_meas)
                    } else {
                        ByteSize::ZERO
                    },
                    metrics_age: None,
                    degraded,
                    cordoned,
                }
            },
        )
}

/// A random snapshot of 2–8 nodes with deterministic names (`n-0`…).
fn nodes_strategy() -> impl Strategy<Value = BTreeMap<NodeName, NodeView>> {
    prop::collection::vec(node_strategy(), 2..=8).prop_map(|views| {
        views
            .into_iter()
            .enumerate()
            .map(|(i, v)| (NodeName::new(format!("n-{i}")), v))
            .collect()
    })
}

/// A random pod: standard (memory only) or SGX (EPC only, like the
/// paper's workloads), sized to sometimes fit and sometimes not.
fn pod_strategy() -> impl Strategy<Value = (bool, u64)> {
    (any::<bool>(), 1u64..=2048)
}

fn spec_for(index: usize, sgx: bool, mib: u64) -> PodSpec {
    if sgx {
        PodSpec::builder(format!("sgx-{index}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    } else {
        PodSpec::builder(format!("std-{index}"))
            .memory_resources(ByteSize::from_mib(mib))
            .build()
    }
}

/// A pod sized in EPC pages (odd and even counts alike) or MiB of
/// memory — page granularity is what the parity filter below needs.
fn fine_pod_strategy() -> impl Strategy<Value = (bool, u64)> {
    prop_oneof![
        (1u64..=40_000).prop_map(|pages| (true, pages)),
        (1u64..=2048).prop_map(|mib| (false, mib)),
    ]
}

fn fine_spec_for(index: usize, sgx: bool, amount: u64) -> PodSpec {
    if sgx {
        PodSpec::builder(format!("sgx-{index}"))
            .sgx_resources(EpcPages::new(amount).to_bytes())
            .build()
    } else {
        spec_for(index, false, amount)
    }
}

/// A filter that is *not* antitone in the requests: it accepts only
/// even page counts, so a rejected request says nothing about a larger
/// one. It keeps the default `monotone_in_requests() == false`.
#[derive(Debug)]
struct EvenPagesFilter;

impl FilterPlugin for EvenPagesFilter {
    fn name(&self) -> &'static str {
        "even-pages"
    }
    fn feasible(&self, spec: &PodSpec, _name: &NodeName, _node: &NodeView) -> bool {
        spec.resources.requests.epc_pages.count().is_multiple_of(2)
    }
}

fn parity_pipeline() -> PolicyPipeline {
    PolicyPipeline::builder("parity")
        .filter(EvenPagesFilter)
        .filter(EpcFitFilter::effective())
        .build()
}

/// One step of a scheduling cycle under test: place a pod through one
/// of the pipelines, then reserve the chosen node, mark it infeasible
/// (the kubelet-refusal arm) or leave it, and possibly mark some other
/// node infeasible too.
#[derive(Debug, Clone)]
struct Step {
    pod: (bool, u64),
    route: usize,
    after: u8,
    also_mark: Option<usize>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (fine_pod_strategy(), 0usize..4, 0u8..8, (0u8..10, 0usize..8)).prop_map(
        |(pod, route, after, (dice, node))| Step {
            pod,
            route,
            after,
            also_mark: (dice == 0).then_some(node),
        },
    )
}

/// `SpreadScore::score` as it was written before batch scoring existed,
/// verbatim over the name-keyed map: the peer group and its load vector
/// rebuilt per candidate, the candidate found by name.
fn legacy_spread_score(
    nodes: &BTreeMap<NodeName, NodeView>,
    name: &NodeName,
    spec: &PodSpec,
) -> f64 {
    let node = &nodes[name];
    let tier: Vec<(&NodeName, &NodeView)> = nodes
        .iter()
        .filter(|(_, v)| {
            !v.cordoned && v.has_sgx() == node.has_sgx() && v.degraded == node.degraded
        })
        .collect();
    let loads: Vec<f64> = tier
        .iter()
        .map(|(n, v)| v.load_fraction_after(spec, *n == name))
        .collect();
    // No peers, no deviation: one fixed NaN, not whichever `0/0` the
    // build profile computes.
    if loads.is_empty() {
        return -f64::NAN;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    -(loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / loads.len() as f64).sqrt()
}

/// Batch and per-candidate spread scores of every slot (cordoned ones
/// included, as a pipeline without the cordon filter would pass them),
/// checked against each other and against the legacy formula by bits.
fn assert_spread_scores_agree(
    nodes: &BTreeMap<NodeName, NodeView>,
    spec: &PodSpec,
) -> Result<(), TestCaseError> {
    let snapshot = ClusterSnapshot::from_nodes(SimTime::ZERO, nodes.clone());
    let cx = ScoreContext {
        spec,
        names: snapshot.names(),
        nodes: snapshot.views(),
    };
    let slots: Vec<usize> = (0..snapshot.len()).collect();
    let mut batch = Vec::new();
    SpreadScore.score_batch(&cx, &slots, &mut batch);
    prop_assert_eq!(batch.len(), slots.len());
    for &slot in &slots {
        let single = SpreadScore.score(&cx, slot);
        let legacy = legacy_spread_score(nodes, &snapshot.names()[slot], spec);
        prop_assert_eq!(
            batch[slot].to_bits(),
            single.to_bits(),
            "batch {} != single {} at slot {}",
            batch[slot],
            single,
            slot
        );
        prop_assert_eq!(
            single.to_bits(),
            legacy.to_bits(),
            "single {} != legacy {} at slot {}",
            single,
            legacy,
            slot
        );
    }
    Ok(())
}

/// A scorer that reads its scores off a table, one per slot.
#[derive(Debug)]
struct TableScore(Vec<f64>);

impl ScorePlugin for TableScore {
    fn name(&self) -> &'static str {
        "table"
    }
    fn score(&self, _cx: &ScoreContext<'_>, slot: usize) -> f64 {
        self.0[slot]
    }
}

/// The selection loop as it was before staged elimination, verbatim: a
/// weight-scaled score vector per candidate, compared lexicographically
/// under `total_cmp`, ties to the lower name (= lower slot).
fn lex_select(stages: &[(Vec<f64>, f64)], candidates: usize) -> Option<usize> {
    fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
        for (x, y) in a.iter().zip(b) {
            match x.total_cmp(y) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }
    let scores: Vec<Vec<f64>> = (0..candidates)
        .map(|slot| {
            stages
                .iter()
                .map(|(column, weight)| weight * column[slot])
                .collect()
        })
        .collect();
    let mut best: Option<usize> = None;
    for i in 0..candidates {
        let better = match best {
            None => true,
            Some(b) => match lex_cmp(&scores[i], &scores[b]) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => i < b,
            },
        };
        if better {
            best = Some(i);
        }
    }
    best
}

/// Scores drawn from a handful of values so stages tie often, with both
/// zeros and a NaN to hold `total_cmp` to its total order.
fn score_value() -> impl Strategy<Value = f64> {
    const VALUES: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 1.0, f64::NAN];
    (0..VALUES.len()).prop_map(|i| VALUES[i])
}

fn weight_value() -> impl Strategy<Value = f64> {
    const VALUES: [f64; 5] = [-2.0, -1.0, 0.0, 1.0, 2.0];
    (0..VALUES.len()).prop_map(|i| VALUES[i])
}

#[test]
fn non_monotone_filters_bypass_the_frontier() {
    let roomy = NodeView {
        memory_capacity: ByteSize::from_gib(8),
        epc_capacity: EpcPages::new(1_000),
        ..NodeView::default()
    };
    let nodes: BTreeMap<NodeName, NodeView> = [(NodeName::new("n-0"), roomy)].into();
    let pipeline = parity_pipeline();
    assert!(!pipeline.monotone_in_requests());
    let mut cycle = SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes));
    // 3 pages: rejected for parity. Were that recorded as a frontier
    // entry, the larger 4-page pod would be answered `None` unseen.
    assert_eq!(cycle.place(&pipeline, &fine_spec_for(0, true, 3)), None);
    assert_eq!(
        cycle.place(&pipeline, &fine_spec_for(1, true, 4)),
        Some(NodeName::new("n-0"))
    );
    assert_eq!(cycle.place(&pipeline, &fine_spec_for(2, true, 5)), None);
    assert_eq!(cycle.nodes_scanned(), 3, "every placement scanned");
}

#[test]
fn spread_score_of_an_empty_peer_group_is_nan_either_way() {
    // A lone cordoned node is no member of its own (hence empty) peer
    // group. Batch scoring must hand back the same NaN — the same bits,
    // in every build profile — not panic or invent a number, and
    // `total_cmp` must rank it below any real score.
    let lone = NodeView {
        memory_capacity: ByteSize::from_gib(8),
        epc_capacity: EpcPages::new(1_000),
        cordoned: true,
        ..NodeView::default()
    };
    let nodes: BTreeMap<NodeName, NodeView> = [(NodeName::new("n-0"), lone)].into();
    let spec = fine_spec_for(0, true, 10);
    let score = legacy_spread_score(&nodes, &NodeName::new("n-0"), &spec);
    assert_eq!(score.to_bits(), (-f64::NAN).to_bits());
    assert!(score.total_cmp(&f64::NEG_INFINITY).is_lt());
    assert_spread_scores_agree(&nodes, &spec).unwrap();
}

proptest! {
    /// Equivalence: every built-in pipeline is placement-identical to its
    /// pre-framework enum, across a whole sequence of placements with
    /// in-pass reservations applied after each bind.
    #[test]
    fn pipelines_match_the_legacy_oracle(
        nodes in nodes_strategy(),
        pods in prop::collection::vec(pod_strategy(), 1..=10),
    ) {
        let registry = PolicyRegistry::builtin();
        for name in registry.names() {
            let pipeline = registry.by_name(&name).unwrap();
            let mut nodes = nodes.clone();
            for (i, &(sgx, mib)) in pods.iter().enumerate() {
                let spec = spec_for(i, sgx, mib);
                let expected = match name.as_str() {
                    orchestrator::SGX_BINPACK => oracle::place_binpack(&spec, &nodes),
                    orchestrator::SGX_SPREAD => oracle::place_spread(&spec, &nodes),
                    orchestrator::DEFAULT_SCHEDULER => {
                        oracle::place_least_requested(&spec, &nodes)
                    }
                    other => panic!("no oracle for pipeline `{other}`"),
                };
                let got = place(&pipeline, &spec, &nodes);
                prop_assert_eq!(
                    &got, &expected,
                    "pipeline {} diverged from the legacy enum on pod {}", name, i
                );
                if let Some(target) = got {
                    nodes.get_mut(&target).unwrap().reserve(&spec);
                }
            }
        }
    }

    /// Feasibility invariant: no registered pipeline ever places a pod on
    /// a cordoned node, puts an SGX pod on a non-SGX node, or drives a
    /// node's free-by-requests capacity negative.
    #[test]
    fn placements_never_violate_feasibility(
        nodes in nodes_strategy(),
        pods in prop::collection::vec(pod_strategy(), 1..=10),
    ) {
        let registry = PolicyRegistry::builtin();
        for name in registry.names() {
            let pipeline = registry.by_name(&name).unwrap();
            let mut nodes = nodes.clone();
            for (i, &(sgx, mib)) in pods.iter().enumerate() {
                let spec = spec_for(i, sgx, mib);
                let Some(target) = place(&pipeline, &spec, &nodes) else {
                    continue;
                };
                let v = &nodes[&target];
                let req = spec.resources.requests;
                prop_assert!(!v.cordoned, "{}: placed on cordoned {}", name, target);
                prop_assert!(
                    !req.needs_sgx() || v.has_sgx(),
                    "{}: SGX pod on non-SGX {}", name, target
                );
                prop_assert!(
                    req.epc_pages <= v.epc_capacity.saturating_sub(v.epc_requested),
                    "{}: free EPC would go negative on {}", name, target
                );
                prop_assert!(
                    req.memory <= v.memory_capacity.saturating_sub(v.memory_requested),
                    "{}: free memory would go negative on {}", name, target
                );
                nodes.get_mut(&target).unwrap().reserve(&spec);
            }
        }
    }

    /// Determinism: placement is a pure function of the snapshot. The
    /// same snapshot placed twice — and a clone of it — must agree, for
    /// every pipeline and pod; the scheduling cycle built from the same
    /// snapshot must agree with direct map placement.
    #[test]
    fn same_snapshot_places_identically(
        nodes in nodes_strategy(),
        pod in pod_strategy(),
    ) {
        let snapshot = ClusterSnapshot::from_nodes(SimTime::ZERO, nodes);
        let clone = snapshot.clone();
        let registry = PolicyRegistry::builtin();
        let spec = spec_for(0, pod.0, pod.1);
        for name in registry.names() {
            let pipeline = registry.by_name(&name).unwrap();
            let first = pipeline.place(&spec, &snapshot);
            let second = pipeline.place(&spec, &snapshot);
            let from_clone = pipeline.place(&spec, &clone);
            let from_cycle = SchedulingCycle::new(snapshot.clone()).place(&pipeline, &spec);
            prop_assert_eq!(&first, &second, "{}: two passes disagreed", &name);
            prop_assert_eq!(&first, &from_clone, "{}: clone disagreed", &name);
            prop_assert_eq!(&first, &from_cycle, "{}: cycle disagreed", &name);
        }
    }

    /// Frontier soundness: at every step of a long-lived cycle — random
    /// routing across the three built-in pipelines and a non-monotone
    /// one, reservations, kubelet-refusal marks — `place` answers what a
    /// fresh cycle (empty frontier) over the same working state answers.
    #[test]
    fn a_long_lived_cycle_matches_a_fresh_one_at_every_step(
        nodes in nodes_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..=24),
    ) {
        let registry = PolicyRegistry::builtin();
        let mut pipelines: Vec<PolicyPipeline> = registry
            .names()
            .iter()
            .map(|name| (*registry.by_name(name).unwrap()).clone())
            .collect();
        pipelines.push(parity_pipeline());

        let mut cycle =
            SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes.clone()));
        // What the cycle's working state must look like, kept by hand.
        let mut working = nodes;
        let mut marked: BTreeSet<NodeName> = BTreeSet::new();
        for (i, step) in steps.iter().enumerate() {
            let spec = fine_spec_for(i, step.pod.0, step.pod.1);
            let pipeline = &pipelines[step.route];

            let mut fresh =
                SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, working.clone()));
            for name in &marked {
                fresh.mark_infeasible(name);
            }
            let expected = fresh.place(pipeline, &spec);
            let got = cycle.place(pipeline, &spec);
            prop_assert_eq!(
                &got, &expected,
                "step {}: {} diverged from a fresh cycle", i, pipeline.name()
            );

            if let Some(target) = got {
                match step.after {
                    0..=4 => {
                        cycle.reserve(&target, &spec);
                        working.get_mut(&target).unwrap().reserve(&spec);
                    }
                    5 => {
                        cycle.mark_infeasible(&target);
                        marked.insert(target);
                    }
                    _ => {}
                }
            }
            if let Some(n) = step.also_mark {
                let name = NodeName::new(format!("n-{}", n % working.len()));
                cycle.mark_infeasible(&name);
                marked.insert(name);
            }
            for (name, view) in &working {
                prop_assert_eq!(cycle.node(name), Some(view));
            }
        }
    }

    /// Batch spread scoring equals per-candidate scoring — and the
    /// pre-batch formula — by `f64::to_bits`, on peer groups mixing SGX
    /// and standard, fresh and degraded, cordoned and schedulable nodes,
    /// after some in-pass reservations.
    #[test]
    fn spread_batch_scores_equal_single_scores_bit_for_bit(
        mut nodes in nodes_strategy(),
        reserved in prop::collection::vec((0usize..8, pod_strategy()), 0..=4),
        pod in fine_pod_strategy(),
    ) {
        for (i, &(n, (sgx, mib))) in reserved.iter().enumerate() {
            let name = NodeName::new(format!("n-{}", n % nodes.len()));
            nodes.get_mut(&name).unwrap().reserve(&spec_for(i, sgx, mib));
        }
        assert_spread_scores_agree(&nodes, &fine_spec_for(0, pod.0, pod.1))?;
    }

    /// Staged elimination picks what whole-vector lexicographic
    /// comparison picks, under negative and zero weights, stages that
    /// tie, signed zeros and NaN.
    #[test]
    fn staged_elimination_equals_lexicographic_selection(
        count in 1usize..=8,
        stages in prop::collection::vec(
            (prop::collection::vec(score_value(), 8), weight_value()),
            0..=4,
        ),
    ) {
        let nodes: BTreeMap<NodeName, NodeView> = (0..count)
            .map(|i| (NodeName::new(format!("n-{i}")), NodeView::default()))
            .collect();
        let mut builder = PolicyPipeline::builder("table");
        for (column, weight) in &stages {
            builder = builder.weighted_score(TableScore(column.clone()), *weight);
        }
        let got = place(&builder.build(), &spec_for(0, false, 1), &nodes);
        let expected = lex_select(&stages, count).map(|slot| NodeName::new(format!("n-{slot}")));
        prop_assert_eq!(got, expected);
    }
}
