//! The kube-scheduler-style filter/score plugin framework.
//!
//! A scheduling decision flows `snapshot → filter → score → bind`:
//!
//! ```text
//!   ClusterSnapshot ──► FilterPlugin chain ──► weighted ScorePlugins ──► bind
//!   (immutable,          (feasibility: every     (ordered stages; higher
//!    once per tick)       plugin must accept)     wins, compared stage by
//!                                                 stage with f64::total_cmp,
//!                                                 final tie-break: node name)
//! ```
//!
//! * A [`FilterPlugin`] answers *can this node run this pod at all* — one
//!   concern per plugin (cordon state, SGX capability, EPC fit, memory
//!   fit), composed as a conjunction.
//! * A [`ScorePlugin`] answers *how good is this feasible node* as an
//!   `f64`. Stages are **ordered**: candidates are compared on the first
//!   stage's (weight-scaled) score, later stages only break ties. This
//!   keeps composition bit-deterministic — a weighted *sum* would let a
//!   large high-priority term absorb low bits of a small one and
//!   silently change which node wins.
//! * All float comparisons go through [`f64::total_cmp`], and the final
//!   tie-break — lowest node name, which in the snapshot's name-ranked
//!   layout is the lowest slot — is centralized in
//!   [`SchedulingCycle::place`], the only routine that ever picks
//!   between candidates.
//!
//! A [`PolicyPipeline`] names one composition of filters and score
//! stages; the [`PolicyRegistry`](crate::PolicyRegistry) maps scheduler
//! names to pipelines. A [`SchedulingCycle`] binds a pipeline-agnostic
//! working state to one immutable [`ClusterSnapshot`] so a scheduling
//! pass can account for its own in-pass reservations while every
//! decision still reads from the same frozen world.
//!
//! # What a cycle never re-decides
//!
//! Within one cycle the working state only ever gets *fuller*:
//! [`reserve`](SchedulingCycle::reserve) adds requests,
//! [`mark_infeasible`](SchedulingCycle::mark_infeasible) excludes nodes,
//! nothing frees capacity. So once a pipeline found no feasible node for
//! requests *r*, every later pod of the cycle placed through the same
//! pipeline with requests ≥ *r* (component-wise) is infeasible too, and
//! is answered `None` without a scan. The cycle keeps that
//! **infeasibility frontier** as the Pareto-minimal failed requests per
//! pipeline. It is only sound for filters that declare
//! [`FilterPlugin::monotone_in_requests`]; a pipeline with any filter
//! that does not simply never consults it. The frontier dies with the
//! cycle, so it can never go stale.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cluster::api::{NodeName, PodSpec, Resources};

use crate::metrics::NodeView;
use crate::snapshot::ClusterSnapshot;

/// A feasibility predicate: one concern of "can this node host this pod".
///
/// Filters must be pure functions of their arguments — the framework
/// assumes calling them twice with the same inputs yields the same
/// answer.
pub trait FilterPlugin: fmt::Debug + Send + Sync {
    /// Registered name of the filter (stable; used in docs and tables).
    fn name(&self) -> &'static str;
    /// `true` when `node` can feasibly host `spec`.
    fn feasible(&self, spec: &PodSpec, name: &NodeName, node: &NodeView) -> bool;
    /// Declares the filter **monotone**: it reads the pod only through
    /// `spec.resources.requests`, and a rejection survives both larger
    /// requests and a fuller node — if it rejects requests *r* on a node,
    /// it rejects every *r′ ≥ r* (component-wise) on that node with any
    /// further requests reserved on it. This is what lets a
    /// [`SchedulingCycle`] skip scans its infeasibility frontier already
    /// answers. The default `false` is always safe; it only costs the
    /// pipeline that shortcut.
    fn monotone_in_requests(&self) -> bool {
        false
    }
}

/// Everything a score plugin may look at: the pod being placed and the
/// whole working node state (needed by relational scorers like spread,
/// which rates a candidate by the load distribution across its peer
/// group). Candidates are identified by **slot** — an index into both
/// arrays.
#[derive(Debug)]
pub struct ScoreContext<'a> {
    /// The pod being placed.
    pub spec: &'a PodSpec,
    /// Every node name of the cycle, ascending; `names[slot]` names
    /// `nodes[slot]`.
    pub names: &'a [NodeName],
    /// Every node of the cycle's working state, in name order, with
    /// in-pass reservations applied.
    pub nodes: &'a [NodeView],
}

/// A scoring dimension over feasible nodes; **higher is better**.
///
/// Scores must be pure functions of the context and candidate. They are
/// only ever compared between nodes *within one placement*, so absolute
/// magnitude carries no meaning across pods or cycles.
pub trait ScorePlugin: fmt::Debug + Send + Sync {
    /// Registered name of the scorer (stable; used in docs and tables).
    fn name(&self) -> &'static str;
    /// Scores the candidate in `slot`; higher wins its stage.
    fn score(&self, cx: &ScoreContext<'_>, slot: usize) -> f64;
    /// Scores every candidate of one placement, appending exactly one
    /// score per entry of `candidates` (ascending slots) to `out`, each
    /// bit-identical to [`score`](Self::score) of that slot. Relational
    /// scorers override this to share per-placement work across
    /// candidates.
    fn score_batch(&self, cx: &ScoreContext<'_>, candidates: &[usize], out: &mut Vec<f64>) {
        out.extend(candidates.iter().map(|&slot| self.score(cx, slot)));
    }
}

/// One ordered scoring stage of a pipeline: a plugin and the weight its
/// scores are scaled by (negative weights invert a stage's preference).
#[derive(Debug, Clone)]
pub(crate) struct ScoreStage {
    plugin: Arc<dyn ScorePlugin>,
    weight: f64,
}

impl ScoreStage {
    /// The stage's plugin.
    pub(crate) fn plugin(&self) -> &Arc<dyn ScorePlugin> {
        &self.plugin
    }

    /// The stage's weight.
    pub(crate) fn weight(&self) -> f64 {
        self.weight
    }
}

/// A named composition of a filter chain and ordered score stages — what
/// a scheduler name resolves to in the
/// [`PolicyRegistry`](crate::PolicyRegistry).
#[derive(Debug, Clone)]
pub struct PolicyPipeline {
    /// Identity of the composition (clones share it): what a cycle's
    /// infeasibility frontier is keyed by. Two pipelines may share a
    /// name, never an id.
    id: u64,
    name: String,
    filters: Vec<Arc<dyn FilterPlugin>>,
    /// Every filter declares [`FilterPlugin::monotone_in_requests`].
    monotone: bool,
    scorers: Vec<ScoreStage>,
}

impl PolicyPipeline {
    /// Starts building a pipeline with the given registered name.
    pub fn builder(name: impl Into<String>) -> PipelineBuilder {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        PipelineBuilder {
            pipeline: PolicyPipeline {
                // Only ever compared for equality, so the allocation
                // order cannot leak into a decision.
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                name: name.into(),
                filters: Vec::new(),
                monotone: true,
                scorers: Vec::new(),
            },
        }
    }

    /// The name this pipeline registers under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The filter chain, in evaluation order.
    pub(crate) fn filters(&self) -> &[Arc<dyn FilterPlugin>] {
        &self.filters
    }

    /// The score stages, in priority order.
    pub(crate) fn scorers(&self) -> &[ScoreStage] {
        &self.scorers
    }

    /// Runs the filter chain: `true` iff every filter accepts.
    pub(crate) fn feasible(&self, spec: &PodSpec, name: &NodeName, node: &NodeView) -> bool {
        self.filters.iter().all(|f| f.feasible(spec, name, node))
    }

    /// `true` when every filter of the chain declares
    /// [`FilterPlugin::monotone_in_requests`] — the condition under
    /// which a cycle's infeasibility frontier may answer for this
    /// pipeline.
    pub fn monotone_in_requests(&self) -> bool {
        self.monotone
    }

    /// Picks the best feasible node of a frozen snapshot, or `None` when
    /// nothing fits: a one-placement [`SchedulingCycle`].
    pub fn place(&self, spec: &PodSpec, snapshot: &ClusterSnapshot) -> Option<NodeName> {
        SchedulingCycle::new(snapshot.clone()).place(self, spec)
    }
}

/// Builder for [`PolicyPipeline`].
#[derive(Debug)]
pub struct PipelineBuilder {
    pipeline: PolicyPipeline,
}

impl PipelineBuilder {
    /// Appends a filter to the chain.
    #[must_use]
    pub fn filter(mut self, filter: impl FilterPlugin + 'static) -> Self {
        self.pipeline.monotone &= filter.monotone_in_requests();
        self.pipeline.filters.push(Arc::new(filter));
        self
    }

    /// Appends a score stage with weight `1.0`.
    #[must_use]
    pub(crate) fn score(self, plugin: impl ScorePlugin + 'static) -> Self {
        self.weighted_score(plugin, 1.0)
    }

    /// Appends a score stage with an explicit weight.
    #[must_use]
    pub fn weighted_score(mut self, plugin: impl ScorePlugin + 'static, weight: f64) -> Self {
        self.pipeline.scorers.push(ScoreStage {
            plugin: Arc::new(plugin),
            weight,
        });
        self
    }

    /// Finishes the pipeline.
    pub fn build(self) -> PolicyPipeline {
        self.pipeline
    }
}

/// `true` when `a` requests no more than `b` of every resource.
fn within(a: Resources, b: Resources) -> bool {
    a.memory <= b.memory && a.epc_pages <= b.epc_pages
}

/// One scheduling cycle: an immutable [`ClusterSnapshot`] plus the
/// working node state that accumulates in-pass reservations, so pods
/// placed earlier in the same pass occupy capacity for later ones.
///
/// The cycle is pipeline-agnostic: with per-pod scheduler routing,
/// different pods of one pass may place through different pipelines, but
/// all of them read and reserve against the same working state.
#[derive(Debug, Clone)]
pub struct SchedulingCycle {
    snapshot: ClusterSnapshot,
    /// The snapshot's views plus in-pass reservations; same slots.
    working: Vec<NodeView>,
    /// One bit per slot, set by [`mark_infeasible`](Self::mark_infeasible);
    /// empty until the first mark.
    excluded: Vec<u64>,
    /// The infeasibility frontier: per pipeline id, the Pareto-minimal
    /// requests a full scan of this cycle found no feasible node for.
    frontier: Vec<(u64, Resources)>,
    /// Scratch of [`place`](Self::place), kept to spare the allocations.
    candidates: Vec<usize>,
    scores: Vec<f64>,
    nodes_scanned: u64,
}

impl SchedulingCycle {
    /// Opens a cycle over a snapshot. The working state starts as an
    /// exact copy of the snapshot's views.
    pub fn new(snapshot: ClusterSnapshot) -> Self {
        let working = snapshot.views().to_vec();
        SchedulingCycle {
            snapshot,
            working,
            excluded: Vec::new(),
            frontier: Vec::new(),
            candidates: Vec::new(),
            scores: Vec::new(),
            nodes_scanned: 0,
        }
    }

    /// The working view of one node (in-pass reservations applied).
    pub fn node(&self, name: &NodeName) -> Option<&NodeView> {
        self.snapshot.slot_of(name).map(|slot| &self.working[slot])
    }

    /// Nodes the filter chains of this cycle have walked so far: every
    /// placement that actually scans adds the node count, one the
    /// frontier answers adds nothing. A pure function of the cycle's
    /// inputs — the deterministic stand-in for placement wall time.
    pub fn nodes_scanned(&self) -> u64 {
        self.nodes_scanned
    }

    /// The centralized selection step: places `spec` through `pipeline`
    /// against the working state and returns the best feasible node, or
    /// `None` when nothing fits right now.
    ///
    /// Feasible slots (nodes marked [infeasible](Self::mark_infeasible)
    /// are passed over unfiltered) are collected in slot order, then
    /// eliminated stage by stage: each stage scores the survivors, keeps
    /// the [`f64::total_cmp`]-maximal set of weight-scaled scores, and
    /// the lowest surviving slot — the lowest node name — wins. That is
    /// exactly the lexicographic comparison of whole score vectors with
    /// a name tie-break, without materialising a vector per candidate
    /// or scoring a later stage on nodes an earlier one already beat.
    pub fn place(&mut self, pipeline: &PolicyPipeline, spec: &PodSpec) -> Option<NodeName> {
        let requests = spec.resources.requests;
        let monotone = pipeline.monotone;
        if monotone
            && self
                .frontier
                .iter()
                .any(|&(id, failed)| id == pipeline.id && within(failed, requests))
        {
            return None;
        }

        let names: &[NodeName] = self.snapshot.names();
        let candidates = &mut self.candidates;
        candidates.clear();
        self.nodes_scanned += self.working.len() as u64;
        for (slot, (name, node)) in names.iter().zip(&self.working).enumerate() {
            let excluded = self
                .excluded
                .get(slot / 64)
                .is_some_and(|word| word >> (slot % 64) & 1 == 1);
            if !excluded && pipeline.feasible(spec, name, node) {
                candidates.push(slot);
            }
        }
        if candidates.is_empty() {
            if monotone {
                self.frontier
                    .retain(|&(id, failed)| !(id == pipeline.id && within(requests, failed)));
                self.frontier.push((pipeline.id, requests));
            }
            return None;
        }

        let cx = ScoreContext {
            spec,
            names,
            nodes: &self.working,
        };
        let scores = &mut self.scores;
        for stage in &pipeline.scorers {
            if candidates.len() == 1 {
                break;
            }
            scores.clear();
            stage.plugin.score_batch(&cx, candidates, scores);
            debug_assert_eq!(scores.len(), candidates.len(), "one score per candidate");
            for score in scores.iter_mut() {
                *score *= stage.weight;
            }
            let best = scores
                .iter()
                .copied()
                .max_by(f64::total_cmp)
                .expect("candidates are non-empty");
            let mut kept = 0;
            for i in 0..candidates.len() {
                if scores[i].total_cmp(&best).is_eq() {
                    candidates[kept] = candidates[i];
                    kept += 1;
                }
            }
            candidates.truncate(kept);
        }
        Some(names[candidates[0]].clone())
    }

    /// Registers an in-pass reservation so later placements of this
    /// cycle see the node as fuller. Unknown names are ignored.
    pub fn reserve(&mut self, name: &NodeName, spec: &PodSpec) {
        if let Some(slot) = self.snapshot.slot_of(name) {
            self.working[slot].reserve(spec);
        }
    }

    /// Excludes a node from every later placement of this cycle without
    /// charging it phantom reservations — used when its kubelet refused
    /// a bind, so retrying it this pass would just fail again. Unknown
    /// names are ignored.
    pub fn mark_infeasible(&mut self, name: &NodeName) {
        if let Some(slot) = self.snapshot.slot_of(name) {
            if self.excluded.is_empty() {
                self.excluded.resize(self.working.len().div_ceil(64), 0);
            }
            self.excluded[slot / 64] |= 1 << (slot % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CordonFilter, EpcFitFilter, MemoryFitFilter, SgxCapableFilter};
    use cluster::topology::{Cluster, ClusterSpec};
    use des::{SimDuration, SimTime};
    use sgx_sim::units::{ByteSize, EpcPages};
    use std::collections::BTreeMap;
    use tsdb::Database;

    #[derive(Debug)]
    struct ConstScore(f64);
    impl ScorePlugin for ConstScore {
        fn name(&self) -> &'static str {
            "const"
        }
        fn score(&self, _: &ScoreContext<'_>, _: usize) -> f64 {
            self.0
        }
    }

    /// Scores `hit` for the node called `node`, `miss` for every other.
    #[derive(Debug)]
    struct NameScore {
        node: &'static str,
        hit: f64,
        miss: f64,
    }
    impl ScorePlugin for NameScore {
        fn name(&self) -> &'static str {
            "name-score"
        }
        fn score(&self, cx: &ScoreContext<'_>, slot: usize) -> f64 {
            if cx.names[slot].as_str() == self.node {
                self.hit
            } else {
                self.miss
            }
        }
    }

    fn snapshot() -> ClusterSnapshot {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        )
    }

    fn fit_pipeline() -> PolicyPipeline {
        PolicyPipeline::builder("test-fit")
            .filter(CordonFilter)
            .filter(SgxCapableFilter)
            .filter(MemoryFitFilter::effective())
            .filter(EpcFitFilter::effective())
            .score(ConstScore(1.0))
            .build()
    }

    fn sgx_pod(mib: u64) -> PodSpec {
        PodSpec::builder("p")
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    }

    #[test]
    fn ties_resolve_to_lowest_node_name() {
        // Constant scores everywhere: the first feasible node by name wins.
        let chosen = fit_pipeline().place(&sgx_pod(10), &snapshot()).unwrap();
        assert_eq!(chosen.as_str(), "sgx-1");
    }

    #[test]
    fn stage_order_dominates_later_stages() {
        // sgx-2 gets a worse first-stage score but a huge second-stage
        // one. The first stage already separates the candidates, so the
        // bonus never gets a say.
        let pipeline = PolicyPipeline::builder("lex")
            .filter(SgxCapableFilter)
            .filter(EpcFitFilter::effective())
            .score(NameScore {
                node: "sgx-2",
                hit: 0.0,
                miss: 1.0,
            })
            .score(NameScore {
                node: "sgx-2",
                hit: 1e9,
                miss: 0.0,
            })
            .build();
        let chosen = pipeline.place(&sgx_pod(10), &snapshot()).unwrap();
        assert_eq!(chosen.as_str(), "sgx-1");
    }

    #[test]
    fn negative_weight_inverts_a_stage() {
        let rank = NameScore {
            node: "sgx-2",
            hit: 2.0,
            miss: 1.0,
        };
        let prefer_high = PolicyPipeline::builder("hi")
            .filter(SgxCapableFilter)
            .score(NameScore { ..rank })
            .build();
        let prefer_low = PolicyPipeline::builder("lo")
            .filter(SgxCapableFilter)
            .weighted_score(rank, -1.0)
            .build();
        let pod = sgx_pod(10);
        assert_eq!(
            prefer_high.place(&pod, &snapshot()).unwrap().as_str(),
            "sgx-2"
        );
        assert_eq!(
            prefer_low.place(&pod, &snapshot()).unwrap().as_str(),
            "sgx-1"
        );
    }

    #[test]
    fn cycle_reservations_affect_later_placements() {
        let pipeline = fit_pipeline();
        let frozen = snapshot();
        let mut cycle = SchedulingCycle::new(frozen.clone());
        let pod = sgx_pod(60);
        let first = cycle.place(&pipeline, &pod).unwrap();
        assert_eq!(first.as_str(), "sgx-1");
        cycle.reserve(&first, &pod);
        // 60 of 93.5 MiB reserved: the second pod no longer fits sgx-1.
        let second = cycle.place(&pipeline, &pod).unwrap();
        assert_eq!(second.as_str(), "sgx-2");
        // The underlying snapshot is untouched.
        assert_eq!(frozen.node(&first).unwrap().epc_requested.count(), 0);
    }

    #[test]
    fn infeasible_marks_exclude_without_phantom_reservations() {
        let pipeline = fit_pipeline();
        let mut cycle = SchedulingCycle::new(snapshot());
        let pod = sgx_pod(10);
        let first = cycle.place(&pipeline, &pod).unwrap();
        assert_eq!(first.as_str(), "sgx-1");
        cycle.mark_infeasible(&first);
        // Excluded from later placements of this cycle...
        let second = cycle.place(&pipeline, &pod).unwrap();
        assert_eq!(second.as_str(), "sgx-2");
        // ...but its working view carries no fabricated occupancy.
        assert!(cycle.node(&first).unwrap().epc_requested.is_zero());
    }

    #[test]
    fn empty_scorer_list_is_first_feasible_by_name() {
        let pipeline = PolicyPipeline::builder("bare")
            .filter(SgxCapableFilter)
            .build();
        let pod = PodSpec::builder("p")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        assert_eq!(pipeline.place(&pod, &snapshot()).unwrap().as_str(), "sgx-1");
    }

    /// The work-counter gate: a backlog of identical unplaceable pods
    /// costs one scan per cycle, not one per pod, and the frontier never
    /// swallows a smaller pod that still fits.
    #[test]
    fn identical_unplaceable_pods_cost_one_scan() {
        const NODES: usize = 1_000;
        let full = NodeView {
            memory_capacity: ByteSize::from_gib(8),
            epc_capacity: EpcPages::new(23_936),
            epc_requested: EpcPages::new(23_936 - 100),
            ..NodeView::default()
        };
        let nodes: BTreeMap<NodeName, NodeView> = (0..NODES)
            .map(|i| (NodeName::new(format!("node-{i:04}")), full))
            .collect();
        let pipeline = fit_pipeline();
        let mut cycle = SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes));
        let big = sgx_pod(10); // 2,560 pages; 100 are free per node
        for _ in 0..10_000 {
            assert_eq!(cycle.place(&pipeline, &big), None);
        }
        assert_eq!(cycle.nodes_scanned(), NODES as u64);
        // Larger requests are covered by the same frontier entry.
        assert_eq!(cycle.place(&pipeline, &sgx_pod(20)), None);
        assert_eq!(cycle.nodes_scanned(), NODES as u64);
        // A pod smaller than anything that failed is still tried, placed...
        let small = PodSpec::builder("small")
            .sgx_resources(EpcPages::new(100).to_bytes())
            .build();
        let chosen = cycle.place(&pipeline, &small).unwrap();
        assert_eq!(chosen.as_str(), "node-0000");
        assert_eq!(cycle.nodes_scanned(), 2 * NODES as u64);
        // ...and a standard pod is incomparable with the failed SGX
        // requests, so it scans too.
        let std_pod = PodSpec::builder("std")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        assert!(cycle.place(&pipeline, &std_pod).is_some());
        assert_eq!(cycle.nodes_scanned(), 3 * NODES as u64);
    }

    #[test]
    fn frontier_is_kept_per_pipeline() {
        // `strict` cannot place the pod; `lenient` (no EPC fit) can. A
        // failure under one pipeline must not answer for the other.
        let strict = fit_pipeline();
        let lenient = PolicyPipeline::builder("lenient")
            .filter(SgxCapableFilter)
            .build();
        let mut cycle = SchedulingCycle::new(snapshot());
        let oversized = sgx_pod(94); // sgx nodes hold 93.5 MiB
        assert_eq!(cycle.place(&strict, &oversized), None);
        assert_eq!(cycle.place(&lenient, &oversized).unwrap().as_str(), "sgx-1");
        assert_eq!(cycle.place(&strict, &oversized), None);
        assert_eq!(cycle.nodes_scanned(), 2 * 4);
    }
}
