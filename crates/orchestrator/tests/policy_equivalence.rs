//! Property tests for the filter/score scheduling framework.
//!
//! Five families, fuzzed over random cluster snapshots and pod
//! sequences:
//!
//! 1. **Equivalence** — every built-in pipeline places *identically* to
//!    the pre-framework `PlacementPolicy`/`SchedulerKind` enums, whose
//!    `place()` bodies are preserved verbatim in the [`oracle`] module
//!    below (operating over schedulable nodes only, exactly as the old
//!    per-pass view capture delivered them). The oracle's spread is the
//!    float fold the framework no longer contains: wherever the fold's
//!    gaps exceed its rounding error the two must agree.
//! 2. **Feasibility** — no registered pipeline ever places a pod on a
//!    cordoned node, on a non-SGX node for an SGX pod, or where the
//!    requested resources would drive free capacity negative.
//! 3. **Determinism** — placement is a pure function of the snapshot:
//!    the same snapshot (or a cheap clone of it) placed twice yields the
//!    same node, with no dependence on any hash-map iteration order.
//! 4. **Shortcut soundness** — what a [`SchedulingCycle`] skips never
//!    changes an answer: a long-lived cycle (tier index kept up by
//!    `reserve` / `mark_infeasible`) agrees with a fresh cycle over the
//!    same working state at every step and with a filter-everything,
//!    rate-everything reference kept here — on a route through a filter
//!    that declares no needs too — and staged narrowing equals
//!    whole-vector lexicographic selection.
//! 5. **Exact spread** — the O(1)-a-candidate integer comparison picks
//!    what the variance computed from its definition in rationals picks,
//!    on tiers mixing capacities, zero-capacity, cordoned, excluded and
//!    degraded members; on a uniform tier that is the least-occupied
//!    feasible node.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use cluster::api::{NodeName, PodSpec};
use des::SimTime;
use orchestrator::metrics::NodeView;
use orchestrator::policy::{EpcFitFilter, SpreadScore};
use orchestrator::{
    keep_best, ClusterSnapshot, FilterPlugin, PolicyPipeline, PolicyRegistry, SchedulingCycle,
    ScoreContext, ScorePlugin,
};
use sgx_sim::units::{ByteSize, EpcPages};

/// The adaptor between the oracle's node map and the framework: freeze
/// the map and place once through a fresh cycle.
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

    /// The first tier (in the SGX-aware order) holding a node that fits,
    /// whole, and each of its feasible nodes with the load deviation of
    /// the tier were the pod placed there — the float fold, kept here as
    /// the reference now that the framework compares integers.
    pub fn spread_scores<'a>(
        spec: &PodSpec,
        nodes: &'a BTreeMap<NodeName, NodeView>,
    ) -> Option<(Tier<'a>, Vec<(&'a NodeName, f64)>)> {
        let tiers: Vec<Tier<'a>> = if spec.needs_sgx() {
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
        tiers.into_iter().find_map(|tier| {
            let scores: Vec<_> = tier
                .iter()
                .filter(|(_, v)| v.fits(spec))
                .map(|(name, _)| (*name, load_stddev_with_placement(&tier, name, spec)))
                .collect();
            (!scores.is_empty()).then_some((tier, scores))
        })
    }

    pub type Tier<'a> = Vec<(&'a NodeName, &'a NodeView)>;

    pub fn place_spread(spec: &PodSpec, nodes: &BTreeMap<NodeName, NodeView>) -> Option<NodeName> {
        let (_, scores) = spread_scores(spec, nodes)?;
        scores
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)))
            .map(|(name, _)| (*name).clone())
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
/// one. It keeps the default of declaring no needs, so the tier index
/// cannot prune for it.
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

fn step_strategy(pod: impl Strategy<Value = (bool, u64)>) -> impl Strategy<Value = Step> {
    (pod, 0usize..4, 0u8..8, (0u8..10, 0usize..8)).prop_map(|(pod, route, after, (dice, node))| {
        Step {
            pod,
            route,
            after,
            also_mark: (dice == 0).then_some(node),
        }
    })
}

/// Drives one long-lived cycle through `steps` — random routing across
/// the three built-in pipelines and the non-monotone, non-declaring
/// parity one, reservations, kubelet-refusal marks — and holds every
/// answer to a fresh cycle over the same working state and, on the
/// routes listed in `referenced`, to [`reference_place`].
fn check_long_lived_cycle(
    nodes: BTreeMap<NodeName, NodeView>,
    steps: &[Step],
    referenced: &[usize],
) -> Result<(), TestCaseError> {
    let registry = PolicyRegistry::builtin();
    let mut pipelines: Vec<PolicyPipeline> = registry
        .names()
        .iter()
        .map(|name| (*registry.by_name(name).unwrap()).clone())
        .collect();
    pipelines.push(parity_pipeline());

    let mut cycle = SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes.clone()));
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
            &got,
            &expected,
            "step {}: {} diverged from a fresh cycle",
            i,
            pipeline.name()
        );
        if referenced.contains(&step.route) {
            prop_assert_eq!(
                &got,
                &reference_place(step.route, &spec, &working, &marked),
                "step {}: {} diverged from filter-all / rate-all",
                i,
                pipeline.name()
            );
        }

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
    Ok(())
}

/// A stage that reads its ratings off a table, one per slot; higher is
/// better under `total_cmp`.
#[derive(Debug)]
struct TableScore(Vec<f64>);

impl ScorePlugin for TableScore {
    fn name(&self) -> &'static str {
        "table"
    }
    fn narrow(&self, _cx: &ScoreContext<'_>, candidates: &mut Vec<usize>) {
        keep_best(candidates, |slot| self.0[slot], f64::total_cmp);
    }
}

/// The selection loop as it was before staged elimination: a rating
/// vector per candidate, compared lexicographically under `total_cmp`,
/// ties to the lower name (= lower slot).
fn lex_select(stages: &[Vec<f64>], candidates: usize) -> Option<usize> {
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
        .map(|slot| stages.iter().map(|column| column[slot]).collect())
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

/// Ratings drawn from a handful of values so stages tie often, with both
/// zeros and a NaN to hold `total_cmp` to its total order.
fn score_value() -> impl Strategy<Value = f64> {
    const VALUES: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 1.0, f64::NAN];
    (0..VALUES.len()).prop_map(|i| VALUES[i])
}

/// An exact rational for the definitional variance below: `i128`s kept
/// in lowest terms, every operation checked — the tiers it is used on
/// draw their capacities from a short menu precisely so that it cannot
/// overflow, and it says so loudly if that ever stops being true.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    const ZERO: Frac = Frac { num: 0, den: 1 };

    fn new(num: i128, den: i128) -> Frac {
        fn gcd(a: i128, b: i128) -> i128 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        assert!(den > 0, "denominators stay positive");
        let g = gcd(num.abs(), den).max(1);
        Frac {
            num: num / g,
            den: den / g,
        }
    }

    fn mul(a: i128, b: i128) -> i128 {
        a.checked_mul(b).expect("the menu keeps Frac inside i128")
    }

    fn add(self, other: Frac) -> Frac {
        let num = Frac::mul(self.num, other.den)
            .checked_add(Frac::mul(other.num, self.den))
            .expect("the menu keeps Frac inside i128");
        Frac::new(num, Frac::mul(self.den, other.den))
    }

    fn sub(self, other: Frac) -> Frac {
        self.add(Frac::new(-other.num, other.den))
    }

    fn times(self, other: Frac) -> Frac {
        Frac::new(
            Frac::mul(self.num, other.num),
            Frac::mul(self.den, other.den),
        )
    }
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Frac) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Frac) -> std::cmp::Ordering {
        Frac::mul(self.num, other.den).cmp(&Frac::mul(other.num, self.den))
    }
}

/// Population variance of `loads`, from the definition.
fn variance(loads: &[Frac]) -> Frac {
    let inverse = Frac::new(1, loads.len() as i128);
    let mean = loads
        .iter()
        .fold(Frac::ZERO, |s, &l| s.add(l))
        .times(inverse);
    let squares = loads
        .iter()
        .fold(Frac::ZERO, |s, &l| s.add(l.sub(mean).times(l.sub(mean))));
    squares.times(inverse)
}

/// The load of `view` in the pod's primary resource as an exact
/// fraction, the pod's request added when `placed_here`; a node without
/// the resource is full either way.
fn exact_load(view: &NodeView, spec: &PodSpec, placed_here: bool) -> Frac {
    let req = spec.resources.requests;
    let (occupied, capacity, request) = if req.needs_sgx() {
        let occupied = if view.degraded {
            view.epc_requested
        } else {
            view.epc_measured
                .to_epc_pages_ceil()
                .max(view.epc_requested)
        };
        (
            occupied.count(),
            view.epc_capacity.count(),
            req.epc_pages.count(),
        )
    } else {
        let occupied = if view.degraded {
            view.memory_requested
        } else {
            view.memory_measured.max(view.memory_requested)
        };
        (
            occupied.as_bytes(),
            view.memory_capacity.as_bytes(),
            req.memory.as_bytes(),
        )
    };
    if capacity == 0 {
        return Frac::new(1, 1);
    }
    let after = occupied + if placed_here { request } else { 0 };
    Frac::new(i128::from(after), i128::from(capacity))
}

/// What spread is *defined* to pick among `candidates`: the one whose
/// placement changes the load variance of its own peer group — every
/// non-cordoned node of its `(has_sgx, degraded)` partition, feasible or
/// not — by the least; a cordoned candidate has no group and ranks after
/// every one that has; lowest name on ties. Everything from scratch per
/// candidate, in rationals.
fn definitional_spread(
    nodes: &BTreeMap<NodeName, NodeView>,
    candidates: &[&NodeName],
    spec: &PodSpec,
) -> Option<NodeName> {
    let key = |name: &NodeName| -> (bool, Frac) {
        let node = &nodes[name];
        if node.cordoned {
            return (true, Frac::ZERO);
        }
        let group: Vec<(&NodeName, &NodeView)> = nodes
            .iter()
            .filter(|(_, v)| {
                !v.cordoned && v.has_sgx() == node.has_sgx() && v.degraded == node.degraded
            })
            .collect();
        let loads = |placed: bool| -> Vec<Frac> {
            group
                .iter()
                .map(|(n, v)| exact_load(v, spec, placed && *n == name))
                .collect()
        };
        (false, variance(&loads(true)).sub(variance(&loads(false))))
    };
    candidates
        .iter()
        .min_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.cmp(b)))
        .map(|name| (*name).clone())
}

/// One node of a tier whose capacities come off a short menu of machine
/// classes (so [`Frac`] stays inside `i128`): EPC of 1,000 / 1,001 /
/// 1,500 pages — one pair sharing a factor of 500, two pairs mutually
/// prime — or none, memory of 1 / 2 / 3 GiB or — rarely — none, with
/// requests and measurements that may overshoot either.
fn menu_node_strategy() -> impl Strategy<Value = NodeView> {
    (
        (0usize..4, 0usize..8),        // EPC and memory machine class
        (0u64..=2_400, 0u64..=9),      // EPC requested [pages], measured [MiB]
        (0u64..=3_584, 0u64..=3_584),  // memory requested, measured [MiB]
        any::<bool>(),                 // degraded
        (0u8..10).prop_map(|w| w < 2), // cordoned (~20 %)
    )
        .prop_map(
            |(
                (epc_class, mem_class),
                (epc_req, epc_meas),
                (mem_req, mem_meas),
                degraded,
                cordoned,
            )| {
                let epc_capacity = [0, 1_000, 1_001, 1_500][epc_class];
                let memory_gib = [1, 2, 3, 1, 2, 3, 2, 0][mem_class];
                let sgx = epc_capacity != 0;
                NodeView {
                    memory_capacity: ByteSize::from_gib(memory_gib),
                    epc_capacity: EpcPages::new(epc_capacity),
                    memory_requested: ByteSize::from_mib(mem_req),
                    epc_requested: EpcPages::new(if sgx { epc_req } else { 0 }),
                    memory_measured: ByteSize::from_mib(mem_meas),
                    epc_measured: ByteSize::from_mib(if sgx { epc_meas } else { 0 }),
                    metrics_age: None,
                    degraded,
                    cordoned,
                }
            },
        )
}

/// A menu tier of 2–8 nodes with deterministic names (`n-0`…).
fn menu_nodes_strategy() -> impl Strategy<Value = BTreeMap<NodeName, NodeView>> {
    prop::collection::vec(menu_node_strategy(), 2..=8).prop_map(|views| {
        views
            .into_iter()
            .enumerate()
            .map(|(i, v)| (NodeName::new(format!("n-{i}")), v))
            .collect()
    })
}

/// A pod for a menu tier: EPC pages or MiB of memory, sized to sometimes
/// fit and sometimes not — and sometimes to ask for nothing at all.
fn menu_pod_strategy() -> impl Strategy<Value = (bool, u64)> {
    prop_oneof![
        (0u64..=1_200).prop_map(|pages| (true, pages)),
        (0u64..=2_048).prop_map(|mib| (false, mib)),
    ]
}

/// `SpreadScore` behind no filter at all: every node that is still in
/// the index is a candidate, whatever its class.
fn bare_spread_pipeline() -> PolicyPipeline {
    PolicyPipeline::builder("bare-spread")
        .score(SpreadScore)
        .build()
}

/// What a pipeline of this file must answer, derived the slow way: run
/// the filters on every node that is not `marked`, rate every survivor.
/// `route` indexes `[default, sgx-binpack, sgx-spread, parity]`, the
/// order the property tests build their pipelines in.
fn reference_place(
    route: usize,
    spec: &PodSpec,
    nodes: &BTreeMap<NodeName, NodeView>,
    marked: &BTreeSet<NodeName>,
) -> Option<NodeName> {
    let unmarked: BTreeMap<NodeName, NodeView> = nodes
        .iter()
        .filter(|(name, _)| !marked.contains(*name))
        .map(|(name, view)| (name.clone(), *view))
        .collect();
    match route {
        0 => oracle::place_least_requested(spec, &unmarked),
        1 => oracle::place_binpack(spec, &unmarked),
        2 => {
            // A marked node leaves the candidates, not its peer group:
            // tiers and variances are over `nodes`, fit over `unmarked`.
            let tier_of = |v: &NodeView| (v.has_sgx(), v.degraded);
            let feasible: Vec<&NodeName> = unmarked
                .iter()
                .filter(|(_, v)| !v.cordoned && v.fits(spec))
                .map(|(name, _)| name)
                .collect();
            let best_tier = feasible.iter().map(|name| tier_of(&nodes[*name])).min()?;
            let in_tier: Vec<&NodeName> = feasible
                .into_iter()
                .filter(|name| tier_of(&nodes[*name]) == best_tier)
                .collect();
            definitional_spread(nodes, &in_tier, spec)
        }
        3 => unmarked
            .iter()
            .find(|(_, v)| {
                let pages = spec.resources.requests.epc_pages;
                pages.count().is_multiple_of(2) && pages <= v.epc_free()
            })
            .map(|(name, _)| name.clone()),
        other => panic!("no reference for route {other}"),
    }
}

#[test]
fn a_candidate_without_a_peer_group_never_outranks_one_with() {
    // Cordoned nodes belong to no peer group. Behind no cordon filter
    // they are candidates all the same — last-resort ones: any member of
    // any group goes first, however loaded, and among themselves the
    // lowest name wins.
    let roomy = NodeView {
        memory_capacity: ByteSize::from_gib(8),
        epc_capacity: EpcPages::new(1_000),
        ..NodeView::default()
    };
    let cordoned = NodeView {
        cordoned: true,
        ..roomy
    };
    let busy = NodeView {
        epc_requested: EpcPages::new(990),
        ..roomy
    };
    let spec = fine_spec_for(0, true, 10);
    let pipeline = bare_spread_pipeline();
    let lone: BTreeMap<NodeName, NodeView> = [
        (NodeName::new("n-0"), cordoned),
        (NodeName::new("n-1"), cordoned),
    ]
    .into();
    assert_eq!(place(&pipeline, &spec, &lone), Some(NodeName::new("n-0")));
    let mixed: BTreeMap<NodeName, NodeView> = [
        (NodeName::new("n-0"), cordoned),
        (NodeName::new("n-1"), busy),
    ]
    .into();
    assert_eq!(place(&pipeline, &spec, &mixed), Some(NodeName::new("n-1")));
}

#[test]
fn a_tie_across_capacities_keeps_every_tied_candidate() {
    // Three standard nodes of one group, memory in MiB: n-0 at 700/1000,
    // n-1 with no memory at all (full, unmoved: change 0), n-2 at
    // 600/1000. For a 500 MiB pod, n·(2o + r) − r − 2·S·cap on n-2 is
    // 3·1700 − 500 − 2·2.3·1000 = 0 as well: n-1 and n-2 tie exactly,
    // n-0 (3·1900 − 500 − 4600 = 600) loses, and the lower name wins the
    // tie — although n-2 is the best seat of the capacity n-0 opened.
    let node = |capacity_mib: u64, requested_mib: u64| NodeView {
        memory_capacity: ByteSize::from_mib(capacity_mib),
        memory_requested: ByteSize::from_mib(requested_mib),
        ..NodeView::default()
    };
    let nodes: BTreeMap<NodeName, NodeView> = [
        (NodeName::new("n-0"), node(1_000, 700)),
        (NodeName::new("n-1"), node(0, 0)),
        (NodeName::new("n-2"), node(1_000, 600)),
    ]
    .into();
    let spec = fine_spec_for(0, false, 500);
    let candidates: Vec<&NodeName> = nodes.keys().collect();
    assert_eq!(
        definitional_spread(&nodes, &candidates, &spec),
        Some(NodeName::new("n-1"))
    );
    assert_eq!(
        place(&bare_spread_pipeline(), &spec, &nodes),
        Some(NodeName::new("n-1"))
    );
}

#[test]
fn exact_ties_on_a_large_tier_go_to_the_lowest_name() {
    // Where the float fold told equally loaded nodes apart by rounding
    // noise, the integers see a tie — and ties go to the lowest name.
    // 100 identical nodes, every third a little fuller.
    let nodes: BTreeMap<NodeName, NodeView> = (0..100)
        .map(|i| {
            let view = NodeView {
                memory_capacity: ByteSize::from_gib(8),
                epc_capacity: EpcPages::new(23_936),
                epc_requested: EpcPages::new(if i % 3 == 0 { 7_001 } else { 7_000 }),
                ..NodeView::default()
            };
            (NodeName::new(format!("n-{i:03}")), view)
        })
        .collect();
    let spread = PolicyRegistry::builtin()
        .by_name(orchestrator::SGX_SPREAD)
        .unwrap();
    let chosen = place(&spread, &fine_spec_for(0, true, 2_560), &nodes);
    assert_eq!(chosen, Some(NodeName::new("n-001")));
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

    /// Shortcut soundness: at every step of a long-lived cycle — random
    /// routing across the three built-in pipelines and a non-monotone
    /// one, reservations, kubelet-refusal marks — `place` answers what a
    /// fresh cycle (index built from scratch) over the same working
    /// state answers.
    #[test]
    fn a_long_lived_cycle_matches_a_fresh_one_at_every_step(
        nodes in nodes_strategy(),
        steps in prop::collection::vec(step_strategy(fine_pod_strategy()), 1..=24),
    ) {
        check_long_lived_cycle(nodes, &steps, &[])?;
    }

    /// Index ≡ linear scan where a class spans several runs of the
    /// blocked maxima: 130–200 menu nodes, most of them full, so whole
    /// runs are skipped, emptied by reservations and lose slots to marks.
    /// First fit, least-requested and the parity pipeline are held to the
    /// reference; spread — whose rational reference would leave `i128` at
    /// this size — to the fresh cycle, whose index is built, not kept up.
    #[test]
    fn the_tier_index_matches_a_linear_scan_across_runs(
        views in prop::collection::vec(menu_node_strategy(), 130..=200),
        steps in prop::collection::vec(step_strategy(menu_pod_strategy()), 1..=24),
    ) {
        let nodes = views
            .into_iter()
            .enumerate()
            .map(|(i, v)| (NodeName::new(format!("n-{i}")), v))
            .collect();
        check_long_lived_cycle(nodes, &steps, &[0, 1, 3])?;
    }

}

proptest! {
    // The properties that pin the integer spread and the tier index are
    // cheap (a handful of nodes each), so they get more cases.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Index ≡ linear scan: the same walk over menu tiers, where every
    /// answer is also held to the filter-everything, rate-everything
    /// reference — the legacy binpack and least-requested loops, first
    /// fit for the parity pipeline, and for spread the variance from its
    /// definition in rationals.
    #[test]
    fn the_tier_index_matches_a_linear_scan_at_every_step(
        nodes in menu_nodes_strategy(),
        steps in prop::collection::vec(step_strategy(menu_pod_strategy()), 1..=24),
    ) {
        check_long_lived_cycle(nodes, &steps, &[0, 1, 2, 3])?;
    }

    /// The O(1) integer form of spread picks what the definition picks:
    /// bare `SpreadScore` over every node still in the index — all four
    /// partitions at once, mixed capacities, zero-capacity nodes (a
    /// standard node for an SGX pod), cordoned candidates, excluded
    /// peers, over-committed nodes, pods that request nothing — after
    /// some in-pass reservations.
    #[test]
    fn spread_equals_the_definitional_rational_variance(
        nodes in menu_nodes_strategy(),
        reserved in prop::collection::vec((0usize..8, menu_pod_strategy()), 0..=4),
        excluded in prop::collection::vec(0usize..8, 0..=2),
        pod in menu_pod_strategy(),
    ) {
        let pipeline = bare_spread_pipeline();
        let mut cycle =
            SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes.clone()));
        let mut working = nodes;
        let name_of = |n: usize, len: usize| NodeName::new(format!("n-{}", n % len));
        for (i, &(n, (sgx, amount))) in reserved.iter().enumerate() {
            let (name, spec) = (name_of(n, working.len()), fine_spec_for(i, sgx, amount));
            cycle.reserve(&name, &spec);
            working.get_mut(&name).unwrap().reserve(&spec);
        }
        let excluded: BTreeSet<NodeName> =
            excluded.iter().map(|&n| name_of(n, working.len())).collect();
        for name in &excluded {
            cycle.mark_infeasible(name);
        }
        let spec = fine_spec_for(0, pod.0, pod.1);
        let candidates: Vec<&NodeName> =
            working.keys().filter(|name| !excluded.contains(*name)).collect();
        prop_assert_eq!(
            cycle.place(&pipeline, &spec),
            definitional_spread(&working, &candidates, &spec)
        );
    }

    /// Wherever the float fold separates its best candidate from the
    /// runner-up by more than its own rounding error, the integers agree
    /// with it. The bound: a load is one correctly rounded division
    /// (relative error u = 2⁻⁵³); the mean and the squared deviations are
    /// left folds of n terms each, so the computed variance is within
    /// 4(n + 2)·u·L² of the true one (L the largest load, squares ≤ L²);
    /// a square root moves an absolute error ε to at most √ε, plus its
    /// own rounding u·σ. Two deviations further apart than twice that
    /// cannot be misordered.
    #[test]
    fn spread_agrees_with_the_float_fold_beyond_its_rounding_error(
        nodes in nodes_strategy(),
        pod in fine_pod_strategy(),
    ) {
        let spec = fine_spec_for(0, pod.0, pod.1);
        let spread = PolicyRegistry::builtin().by_name(orchestrator::SGX_SPREAD).unwrap();
        let got = place(&spread, &spec, &nodes);
        let Some((tier, mut scores)) = oracle::spread_scores(&spec, &nodes) else {
            prop_assert_eq!(got, None);
            return Ok(());
        };
        scores.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        let largest_load = tier
            .iter()
            .map(|(_, v)| v.load_fraction_after(&spec, true))
            .fold(1.0, f64::max);
        let u = f64::EPSILON / 2.0;
        let variance_error = 4.0 * (tier.len() as f64 + 2.0) * u * largest_load * largest_load;
        let bound = 2.0 * (variance_error.sqrt() + u * scores[scores.len() - 1].1);
        if scores.len() == 1 || scores[1].1 - scores[0].1 > bound {
            prop_assert_eq!(got.as_ref(), Some(scores[0].0));
        } else {
            // Too close for the fold to call: the integers pick one of
            // the candidates it could not separate from its best.
            let got = got.expect("a feasible tier places");
            let picked = scores.iter().find(|(name, _)| **name == got);
            prop_assert!(picked.is_some_and(|(_, s)| s - scores[0].1 <= bound));
        }
    }

    /// On a uniform tier spread is least-occupied: among the nodes the
    /// pod fits, the one with the least effective occupancy wins, the
    /// lowest name on ties. (A pod of no pages moves no load and ties
    /// every node; the definitional property above covers it.)
    #[test]
    fn spread_on_a_uniform_tier_is_least_occupied(
        requested in prop::collection::vec(0u64..=30, 2..=24),
        measured in prop::collection::vec(0u64..=24, 24),
        pages in 1u64..=12_000,
    ) {
        let nodes: BTreeMap<NodeName, NodeView> = requested
            .iter()
            .enumerate()
            .map(|(i, &req)| {
                let view = NodeView {
                    memory_capacity: ByteSize::from_gib(8),
                    epc_capacity: EpcPages::new(23_936),
                    // Coarse steps, so that equal occupancies are common.
                    epc_requested: EpcPages::new(req * 1_000),
                    epc_measured: ByteSize::from_mib(measured[i] * 4),
                    ..NodeView::default()
                };
                (NodeName::new(format!("n-{i:02}")), view)
            })
            .collect();
        let spec = fine_spec_for(0, true, pages);
        let spread = PolicyRegistry::builtin().by_name(orchestrator::SGX_SPREAD).unwrap();
        let occupied = |v: &NodeView| EpcPages::new(23_936).saturating_sub(v.epc_free());
        let expected = nodes
            .iter()
            .filter(|(_, v)| v.fits(&spec))
            .min_by_key(|(name, v)| (occupied(v), (*name).clone()))
            .map(|(name, _)| name.clone());
        prop_assert_eq!(place(&spread, &spec, &nodes), expected);
    }

    /// Staged narrowing picks what whole-vector lexicographic comparison
    /// picks, under stages that tie, signed zeros and NaN.
    #[test]
    fn staged_elimination_equals_lexicographic_selection(
        count in 1usize..=8,
        stages in prop::collection::vec(prop::collection::vec(score_value(), 8), 0..=4),
    ) {
        let nodes: BTreeMap<NodeName, NodeView> = (0..count)
            .map(|i| (NodeName::new(format!("n-{i}")), NodeView::default()))
            .collect();
        let mut builder = PolicyPipeline::builder("table");
        for column in &stages {
            builder = builder.score(TableScore(column.clone()));
        }
        let got = place(&builder.build(), &spec_for(0, false, 1), &nodes);
        let expected = lex_select(&stages, count).map(|slot| NodeName::new(format!("n-{slot}")));
        prop_assert_eq!(got, expected);
    }
}
