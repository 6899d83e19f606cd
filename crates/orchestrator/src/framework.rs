//! The kube-scheduler-style filter/score plugin framework.
//!
//! A scheduling decision flows `snapshot → filter → score → bind`:
//!
//! ```text
//!   ClusterSnapshot ──► tier index ──► FilterPlugin chain ──► ScorePlugin stages ──► bind
//!   (immutable,         (only slots     (feasibility: every     (ordered; each stage
//!    once per tick)      that can hold   plugin must accept)     narrows the survivors
//!                        the request)                            to its best set; final
//!                                                                tie-break: node name)
//! ```
//!
//! * A [`FilterPlugin`] answers *can this node run this pod at all* — one
//!   concern per plugin (cordon state, SGX capability, EPC fit, memory
//!   fit), composed as a conjunction.
//! * A [`ScorePlugin`] answers *which of these feasible nodes are best*:
//!   it narrows the candidate list to its best set. Stages are
//!   **ordered**: the first stage narrows all feasible nodes, later
//!   stages only break its ties. Nothing is ever summed across stages, so
//!   composition is exact, and so is every built-in stage: each compares
//!   booleans or loads as integer fractions, never an `f64`.
//! * The final tie-break — lowest node name, which in the snapshot's
//!   name-ranked layout is the lowest slot — is centralized in
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
//! # What a placement visits
//!
//! The first placement of a cycle that has to look at nodes partitions
//! the slots into **classes** — by `(has_sgx, degraded, cordoned)` — and
//! keeps each class's slots, ascending, under the maximum free capacity
//! of every 64 of them; reservations and exclusions keep those maxima
//! current. Opening a cycle builds nothing: it costs the one copy of
//! the node views, on five nodes as on five thousand. A placement then
//!
//! 1. orders the classes by the pipeline's leading *class-constant*
//!    stages ([`ScorePlugin::class_constant`]; classes the stages cannot
//!    tell apart are walked together),
//! 2. enumerates, best classes first, only the slots whose free capacity
//!    covers what the filters [declare](FilterPlugin::needs) they need,
//!    runs the whole filter chain on each, and stops at the first set of
//!    classes that yields a candidate,
//! 3. runs the remaining stages over those candidates — or, with no
//!    stage left, stops each class at its first candidate outright.
//!
//! That is the same answer as filtering and scoring every node — a
//! class-constant stage keeps exactly the candidates of its best
//! classes, and a declared need is one the filter would reject without —
//! reached by visiting only what can win.
//!
//! # What a cycle never re-decides
//!
//! Within one cycle the working state only ever gets *fuller*:
//! [`reserve`](SchedulingCycle::reserve) adds requests,
//! [`mark_infeasible`](SchedulingCycle::mark_infeasible) excludes nodes,
//! nothing frees capacity. So the most free capacity any node still has,
//! lane by lane, only falls. A pod whose declared needs exceed it is
//! refused by every later placement of the cycle, which is what lets a
//! pass's queue walk skip such pods unread.

#![deny(clippy::float_arithmetic)]

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use cluster::api::{NodeName, PodSpec};

use crate::metrics::NodeView;
use crate::policy::{OccupancyBasis, PeerSums};
use crate::snapshot::ClusterSnapshot;

/// Free capacity of one node as the tier index keys it: memory bytes
/// and EPC pages under effective occupancy, then the same two under
/// requests-only accounting.
pub(crate) type Free = [u64; 4];

fn free_of(view: &NodeView) -> Free {
    [
        view.memory_free().as_bytes(),
        view.epc_free().count(),
        view.memory_capacity
            .saturating_sub(view.memory_requested)
            .as_bytes(),
        view.epc_capacity.saturating_sub(view.epc_requested).count(),
    ]
}

pub(crate) fn covers(have: &Free, need: &Free) -> bool {
    have.iter().zip(need).all(|(have, need)| have >= need)
}

/// Raises `max` to the component-wise maximum of itself and `by`.
fn raise(max: &mut Free, by: &Free) {
    for (max, by) in max.iter_mut().zip(by) {
        *max = (*max).max(*by);
    }
}

/// What a filter necessarily needs of any node it accepts for one pod —
/// the part of its verdict the tier index can act on without calling it.
/// The default needs nothing, which never prunes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Needs {
    /// Free capacity, in [`free_of`]'s lanes.
    pub(crate) free: Free,
    uncordoned: bool,
}

impl Needs {
    /// The node must not be cordoned.
    pub(crate) fn uncordoned() -> Self {
        Needs {
            uncordoned: true,
            ..Needs::default()
        }
    }

    /// The node must have `amount` free under `basis` — EPC pages when
    /// `epc`, memory bytes otherwise. The lane is [`free_of`]'s layout.
    pub(crate) fn free(basis: OccupancyBasis, epc: bool, amount: u64) -> Self {
        let lane = match basis {
            OccupancyBasis::Effective => 0,
            OccupancyBasis::RequestsOnly => 2,
        } + usize::from(epc);
        let mut needs = Needs::default();
        needs.free[lane] = amount;
        needs
    }

    /// Both needs at once.
    fn and(mut self, other: Needs) -> Needs {
        raise(&mut self.free, &other.free);
        self.uncordoned |= other.uncordoned;
        self
    }
}

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
    /// Declares what the filter **necessarily needs** of a node to
    /// accept `spec`: [`feasible`](Self::feasible) must reject every
    /// node that lacks it. A cycle's tier index then never hands such a
    /// node to the chain. The default needs nothing, which is always
    /// safe; it only costs the pipeline that pruning.
    fn needs(&self, _spec: &PodSpec) -> Needs {
        Needs::default()
    }
}

/// Everything a score plugin may look at: the pod being placed, the
/// whole working node state and the exact load sums of every peer group
/// (needed by relational scorers like spread, which rates a candidate by
/// the load distribution across its group). Candidates are identified by
/// **slot** — an index into both arrays.
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
    peers: &'a OnceCell<PeerSums>,
}

impl ScoreContext<'_> {
    /// Load sums of the `(has_sgx, degraded)` peer groups, in-pass
    /// reservations applied.
    pub(crate) fn peers(&self) -> &PeerSums {
        self.peers.get_or_init(|| PeerSums::of(self.nodes))
    }
}

/// A scoring dimension over feasible nodes: one stage of the selection.
///
/// Stages must be pure functions of the context and candidates. They
/// only ever compare nodes *within one placement*.
pub trait ScorePlugin: fmt::Debug + Send + Sync {
    /// Registered name of the scorer (stable; used in docs and tables).
    fn name(&self) -> &'static str;
    /// Narrows `candidates` — feasible slots, each once, never empty, in
    /// no order a stage may rely on — to the ones this stage rates best,
    /// at least one of them. A stage that rates each candidate on its own
    /// is one call to [`keep_best`].
    fn narrow(&self, cx: &ScoreContext<'_>, candidates: &mut Vec<usize>);
    /// Declares the stage **class-constant**: it cannot tell apart two
    /// nodes that agree on `has_sgx()`, `degraded` and `cordoned`. The
    /// leading class-constant stages of a pipeline order whole classes
    /// of the tier index instead of running per candidate. The default
    /// `false` is always safe.
    fn class_constant(&self) -> bool {
        false
    }
}

/// Narrows `candidates` to those whose `key` is maximal under `cmp`: the
/// whole of a stage that rates each candidate on its own.
pub fn keep_best<K>(
    candidates: &mut Vec<usize>,
    key: impl Fn(usize) -> K,
    cmp: impl Fn(&K, &K) -> Ordering,
) {
    let mut best: Option<K> = None;
    let mut kept = 0;
    for at in 0..candidates.len() {
        let slot = candidates[at];
        let rated = key(slot);
        match best
            .as_ref()
            .map_or(Ordering::Greater, |best| cmp(&rated, best))
        {
            Ordering::Less => continue,
            Ordering::Equal => {}
            Ordering::Greater => {
                best = Some(rated);
                kept = 0;
            }
        }
        candidates[kept] = slot;
        kept += 1;
    }
    candidates.truncate(kept);
}

/// A named composition of a filter chain and ordered score stages — what
/// a scheduler name resolves to in the
/// [`PolicyRegistry`](crate::PolicyRegistry).
#[derive(Debug, Clone)]
pub struct PolicyPipeline {
    name: String,
    filters: Vec<Arc<dyn FilterPlugin>>,
    scorers: Vec<Arc<dyn ScorePlugin>>,
    /// How many of the first stages declare
    /// [`ScorePlugin::class_constant`].
    leading: usize,
}

impl PolicyPipeline {
    /// Starts building a pipeline with the given registered name.
    pub fn builder(name: impl Into<String>) -> PipelineBuilder {
        PipelineBuilder {
            pipeline: PolicyPipeline {
                name: name.into(),
                filters: Vec::new(),
                scorers: Vec::new(),
                leading: 0,
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
    pub(crate) fn scorers(&self) -> &[Arc<dyn ScorePlugin>] {
        &self.scorers
    }

    /// Runs the filter chain: `true` iff every filter accepts.
    pub(crate) fn feasible(&self, spec: &PodSpec, name: &NodeName, node: &NodeView) -> bool {
        self.filters.iter().all(|f| f.feasible(spec, name, node))
    }

    /// What the whole chain needs of a node to accept `spec`.
    pub(crate) fn needs(&self, spec: &PodSpec) -> Needs {
        self.filters
            .iter()
            .fold(Needs::default(), |needs, f| needs.and(f.needs(spec)))
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
        self.pipeline.filters.push(Arc::new(filter));
        self
    }

    /// Appends a score stage.
    #[must_use]
    pub fn score(mut self, plugin: impl ScorePlugin + 'static) -> Self {
        let pipeline = &mut self.pipeline;
        if pipeline.leading == pipeline.scorers.len() && plugin.class_constant() {
            pipeline.leading += 1;
        }
        pipeline.scorers.push(Arc::new(plugin));
        self
    }

    /// Finishes the pipeline.
    pub fn build(self) -> PolicyPipeline {
        self.pipeline
    }
}

/// Classes of the tier index: `(has_sgx, degraded, cordoned)`.
const CLASSES: usize = 8;
/// Leaves one run maximum of the tier index covers.
const RUN: usize = 64;

/// The class of the tier index a node falls into. Nothing a cycle does
/// to a node — reserving, excluding — moves it to another class.
fn class_of(view: &NodeView) -> usize {
    usize::from(view.has_sgx()) << 2 | usize::from(view.degraded) << 1 | usize::from(view.cordoned)
}

/// One slot as the tier index keeps it: its free capacity — zero once a
/// cycle [excluded](SchedulingCycle::mark_infeasible) it.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    slot: usize,
    live: bool,
    free: Free,
}

/// The tier index of a cycle: the slots partitioned by [class](class_of),
/// each class an ascending slot list under the maximum free capacity of
/// every [`RUN`] of them. The layout is flat — two arrays however many
/// classes are populated, no padding — and the cycle builds it when a
/// placement first has to look at nodes, so opening a cycle costs the
/// copy of the views and nothing else.
#[derive(Debug, Clone)]
struct TierIndex {
    /// Sorted by `(class, slot)`: class `c` is
    /// `leaves[starts[c]..starts[c + 1]]`.
    leaves: Vec<Leaf>,
    /// From `maxima[runs[c]]` on, the component-wise maximum of each run
    /// of class `c`'s leaves: a run whose maximum does not cover a need
    /// holds no slot that does. Ahead of the runs, `maxima[c]` is the
    /// maximum over the whole of class `c` *as built*: free capacity
    /// only shrinks, so a class whose ceiling does not cover a need never
    /// will, and is not even ranked.
    maxima: Vec<Free>,
    starts: [usize; CLASSES + 1],
    runs: [usize; CLASSES + 1],
}

impl TierIndex {
    fn build(working: &[NodeView]) -> Self {
        let mut starts = [0usize; CLASSES + 1];
        for view in working {
            starts[class_of(view) + 1] += 1;
        }
        let mut runs = [CLASSES; CLASSES + 1];
        for class in 0..CLASSES {
            runs[class + 1] = runs[class] + starts[class + 1].div_ceil(RUN);
            starts[class + 1] += starts[class];
        }
        let unset = Leaf {
            slot: 0,
            live: false,
            free: Free::default(),
        };
        let mut index = TierIndex {
            leaves: vec![unset; working.len()],
            maxima: vec![Free::default(); runs[CLASSES]],
            starts,
            runs,
        };
        let mut next = starts;
        for (slot, view) in working.iter().enumerate() {
            let class = class_of(view);
            let at = next[class];
            next[class] += 1;
            let free = free_of(view);
            index.leaves[at] = Leaf {
                slot,
                live: true,
                free,
            };
            raise(
                &mut index.maxima[runs[class] + (at - starts[class]) / RUN],
                &free,
            );
            raise(&mut index.maxima[class], &free);
        }
        index
    }

    /// The leaf of `slot`, a node of `class`, and its place among the
    /// leaves.
    fn leaf_of(&mut self, class: usize, slot: usize) -> (usize, &mut Leaf) {
        let first = self.starts[class];
        let at = first
            + self.leaves[first..self.starts[class + 1]]
                .binary_search_by_key(&slot, |leaf| leaf.slot)
                .expect("every slot has a leaf in its class");
        (at, &mut self.leaves[at])
    }

    /// Recomputes the maximum of the run around the leaf at `at`.
    fn refresh_run(&mut self, class: usize, at: usize) {
        let run = (at - self.starts[class]) / RUN;
        let first = self.starts[class] + run * RUN;
        let last = (first + RUN).min(self.starts[class + 1]);
        let mut max = Free::default();
        for leaf in &self.leaves[first..last] {
            raise(&mut max, &leaf.free);
        }
        self.maxima[self.runs[class] + run] = max;
    }

    /// Follows a reservation: `view` is the slot's node as it stands now.
    /// An excluded slot stays out.
    fn reserved(&mut self, slot: usize, view: &NodeView) {
        let class = class_of(view);
        let (at, leaf) = self.leaf_of(class, slot);
        if leaf.live {
            leaf.free = free_of(view);
            self.refresh_run(class, at);
        }
    }

    /// Takes the slot of `view` out of the index.
    fn exclude(&mut self, slot: usize, view: &NodeView) {
        let class = class_of(view);
        let (at, leaf) = self.leaf_of(class, slot);
        leaf.live = false;
        leaf.free = Free::default();
        self.refresh_run(class, at);
    }

    /// The lowest slot of `class`, excluded or not — the node that stands
    /// for its class before a class-constant stage — if the class has
    /// ever held a slot that covers `need`.
    fn representative(&self, class: usize, need: &Free) -> Option<usize> {
        self.leaves[self.starts[class]..self.starts[class + 1]]
            .first()
            .filter(|_| covers(&self.maxima[class], need))
            .map(|leaf| leaf.slot)
    }

    /// The component-wise maximum of every run maximum, over all
    /// classes: the most free capacity any live slot still has.
    fn ceiling(&self) -> Free {
        let mut ceiling = Free::default();
        for maximum in &self.maxima[self.runs[0]..] {
            raise(&mut ceiling, maximum);
        }
        ceiling
    }

    /// Hands `visit` every live slot of `class` whose free capacity
    /// covers `need`, ascending, until it breaks.
    fn each_fit(
        &self,
        class: usize,
        need: &Free,
        mut visit: impl FnMut(usize) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let leaves = &self.leaves[self.starts[class]..self.starts[class + 1]];
        for (run, maximum) in leaves.chunks(RUN).zip(&self.maxima[self.runs[class]..]) {
            if !covers(maximum, need) {
                continue;
            }
            for leaf in run {
                if leaf.live && covers(&leaf.free, need) {
                    visit(leaf.slot)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
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
    /// Built over `working` by the first call that needs it, kept in
    /// step with it from then on.
    index: Option<TierIndex>,
    /// The index's [ceiling](TierIndex::ceiling), once asked for;
    /// forgotten by every reservation and exclusion.
    ceiling: Option<Free>,
    /// Exact load sums per peer group, for relational scorers: summed
    /// over `working` when a stage first asks, kept in step from then on.
    peers: OnceCell<PeerSums>,
    /// Scratch of [`place`](Self::place), kept to spare the allocation:
    /// the feasible slots found.
    candidates: Vec<usize>,
    nodes_scanned: u64,
}

impl SchedulingCycle {
    /// Opens a cycle over a snapshot. The working state starts as an
    /// exact copy of the snapshot's views; that copy is the one
    /// allocation made here, whatever the size or mix of the cluster.
    pub fn new(snapshot: ClusterSnapshot) -> Self {
        let working = snapshot.views().to_vec();
        SchedulingCycle {
            snapshot,
            working,
            index: None,
            ceiling: None,
            peers: OnceCell::new(),
            candidates: Vec::new(),
            nodes_scanned: 0,
        }
    }

    /// The working view of one node (in-pass reservations applied).
    pub fn node(&self, name: &NodeName) -> Option<&NodeView> {
        self.snapshot.slot_of(name).map(|slot| &self.working[slot])
    }

    /// Slots the filter chains of this cycle have visited so far: every
    /// node a placement ran its filters on adds one; a node the tier
    /// index passed over adds nothing. A pure function of the cycle's
    /// inputs — the deterministic stand-in for placement wall time.
    pub fn nodes_scanned(&self) -> u64 {
        self.nodes_scanned
    }

    /// The most free capacity any node of the cycle still has, lane by
    /// lane in [`free_of`]'s layout. A placement only ever picks a node
    /// that covers its pipeline's [needs](PolicyPipeline::needs), so
    /// `place` refuses every pod whose needs this does not cover. It
    /// only falls within a cycle.
    pub(crate) fn ceiling(&mut self) -> Free {
        if let Some(ceiling) = self.ceiling {
            return ceiling;
        }
        let ceiling = self
            .index
            .get_or_insert_with(|| TierIndex::build(&self.working))
            .ceiling();
        self.ceiling = Some(ceiling);
        ceiling
    }

    /// The centralized selection step: places `spec` through `pipeline`
    /// against the working state and returns the best feasible node, or
    /// `None` when nothing fits right now.
    ///
    /// The classes of the tier index are ranked by the pipeline's
    /// leading class-constant stages — run over one representative slot
    /// per class — and walked best first, classes the stages tie
    /// together. A walk visits the slots whose free capacity covers the
    /// filters' declared needs (nodes marked
    /// [infeasible](Self::mark_infeasible) are no longer in the index),
    /// runs the filter chain on each and collects the feasible ones; the
    /// first walk to find any ends the search. The remaining stages then
    /// narrow them one by one and the lowest surviving slot — the lowest
    /// node name — wins; with no stage remaining the walk of a class
    /// stops at its first feasible slot. That is exactly the
    /// lexicographic comparison of whole per-stage ratings with a name
    /// tie-break over all feasible nodes, without visiting a node that
    /// cannot fit, a class that a better one beats, or scoring a later
    /// stage on nodes an earlier one already beat.
    pub fn place(&mut self, pipeline: &PolicyPipeline, spec: &PodSpec) -> Option<NodeName> {
        let needs = pipeline.needs(spec);
        let (leading, remaining) = pipeline.scorers.split_at(pipeline.leading);
        let Self {
            snapshot,
            working,
            index,
            peers,
            candidates,
            nodes_scanned,
            ..
        } = self;
        let index = &*index.get_or_insert_with(|| TierIndex::build(working));
        let names: &[NodeName] = snapshot.names();
        let cx = ScoreContext {
            spec,
            names,
            nodes: working,
            peers,
        };

        // One bit per class still to walk; odd classes are the cordoned.
        let mut waiting: u8 = if needs.uncordoned { 0b0101_0101 } else { !0 };
        candidates.clear();
        loop {
            // Rank the waiting classes: `candidates` — empty here — takes
            // their representatives for the leading stages to narrow.
            candidates.extend(
                (0..CLASSES)
                    .filter(|class| waiting >> class & 1 == 1)
                    .filter_map(|class| index.representative(class, &needs.free)),
            );
            if candidates.is_empty() {
                break;
            }
            for stage in leading {
                if candidates.len() > 1 {
                    stage.narrow(&cx, candidates);
                }
            }
            let mut walked = [0; CLASSES];
            let best = candidates.len();
            for (class, representative) in walked.iter_mut().zip(candidates.drain(..)) {
                *class = class_of(&working[representative]);
            }
            for &class in &walked[..best] {
                waiting &= !(1 << class);
                let _ = index.each_fit(class, &needs.free, |slot| {
                    *nodes_scanned += 1;
                    if !pipeline.feasible(spec, &names[slot], &working[slot]) {
                        return ControlFlow::Continue(());
                    }
                    candidates.push(slot);
                    if remaining.is_empty() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
            }
            if !candidates.is_empty() {
                break;
            }
        }
        if candidates.is_empty() {
            return None;
        }

        for stage in remaining {
            if candidates.len() > 1 {
                stage.narrow(&cx, candidates);
            }
        }
        let lowest = candidates.iter().min().expect("a stage keeps a candidate");
        Some(names[*lowest].clone())
    }

    /// Registers an in-pass reservation so later placements of this
    /// cycle see the node as fuller. Unknown names are ignored.
    pub fn reserve(&mut self, name: &NodeName, spec: &PodSpec) {
        let Some(slot) = self.snapshot.slot_of(name) else {
            return;
        };
        let before = self.working[slot];
        self.working[slot].reserve(spec);
        self.ceiling = None;
        let after = &self.working[slot];
        // An index or sums not built yet read the reservation off `working`.
        if let Some(index) = &mut self.index {
            index.reserved(slot, after);
        }
        if let Some(peers) = self.peers.get_mut() {
            peers.moved(&before, after);
        }
    }

    /// Excludes a node from every later placement of this cycle without
    /// charging it phantom reservations — used when its kubelet refused
    /// a bind, so retrying it this pass would just fail again. Unknown
    /// names are ignored.
    pub fn mark_infeasible(&mut self, name: &NodeName) {
        let Some(slot) = self.snapshot.slot_of(name) else {
            return;
        };
        self.ceiling = None;
        self.index
            .get_or_insert_with(|| TierIndex::build(&self.working))
            .exclude(slot, &self.working[slot]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CordonFilter, EpcFitFilter, MemoryFitFilter, SgxCapableFilter};
    use crate::registry::{PolicyRegistry, SGX_BINPACK, SGX_SPREAD};
    use cluster::topology::{Cluster, ClusterSpec};
    use des::{SimDuration, SimTime};
    use sgx_sim::units::{ByteSize, EpcPages};
    use std::collections::BTreeMap;
    use tsdb::Database;

    /// Rates every node alike.
    #[derive(Debug)]
    struct ConstScore;
    impl ScorePlugin for ConstScore {
        fn name(&self) -> &'static str {
            "const"
        }
        fn narrow(&self, _: &ScoreContext<'_>, _: &mut Vec<usize>) {}
    }

    /// Rates the node called `node` as `hit`, every other as `miss`.
    #[derive(Debug)]
    struct NameScore {
        node: &'static str,
        hit: i32,
        miss: i32,
    }
    impl ScorePlugin for NameScore {
        fn name(&self) -> &'static str {
            "name-score"
        }
        fn narrow(&self, cx: &ScoreContext<'_>, candidates: &mut Vec<usize>) {
            let rate = |slot: usize| {
                if cx.names[slot].as_str() == self.node {
                    self.hit
                } else {
                    self.miss
                }
            };
            keep_best(candidates, rate, i32::cmp);
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
            .score(ConstScore)
            .build()
    }

    fn sgx_pod(mib: u64) -> PodSpec {
        PodSpec::builder("p")
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    }

    /// `count` SGX nodes of the paper's machine, `node-00000`…, each with
    /// the EPC pages `requested(i)` already requested.
    fn sgx_cluster(count: usize, requested: impl Fn(usize) -> u64) -> ClusterSnapshot {
        let nodes: BTreeMap<NodeName, NodeView> = (0..count)
            .map(|i| {
                let view = NodeView {
                    memory_capacity: ByteSize::from_gib(8),
                    epc_capacity: EpcPages::new(23_936),
                    epc_requested: EpcPages::new(requested(i)),
                    ..NodeView::default()
                };
                (NodeName::new(format!("node-{i:05}")), view)
            })
            .collect();
        ClusterSnapshot::from_nodes(SimTime::ZERO, nodes)
    }

    #[test]
    fn ties_resolve_to_lowest_node_name() {
        // Every node rated alike: the first feasible node by name wins.
        let chosen = fit_pipeline().place(&sgx_pod(10), &snapshot()).unwrap();
        assert_eq!(chosen.as_str(), "sgx-1");
    }

    #[test]
    fn stage_order_dominates_later_stages() {
        // sgx-2 gets a worse first-stage rating but a huge second-stage
        // one. The first stage already separates the candidates, so the
        // bonus never gets a say.
        let pipeline = PolicyPipeline::builder("lex")
            .filter(SgxCapableFilter)
            .filter(EpcFitFilter::effective())
            .score(NameScore {
                node: "sgx-2",
                hit: 0,
                miss: 1,
            })
            .score(NameScore {
                node: "sgx-2",
                hit: 1_000_000_000,
                miss: 0,
            })
            .build();
        let chosen = pipeline.place(&sgx_pod(10), &snapshot()).unwrap();
        assert_eq!(chosen.as_str(), "sgx-1");
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
        // ...but its working view carries no fabricated occupancy, and a
        // reservation on it does not bring it back.
        assert!(cycle.node(&first).unwrap().epc_requested.is_zero());
        cycle.reserve(&first, &pod);
        assert_eq!(cycle.place(&pipeline, &pod).unwrap().as_str(), "sgx-2");
    }

    #[test]
    fn tier_maxima_follow_reservations_and_exclusions() {
        // A class's block maximum is the best free capacity left in the
        // run: what lets a walk skip the run unvisited.
        let mut cycle = SchedulingCycle::new(sgx_cluster(5, |i| 1_000 * i as u64));
        assert!(cycle.index.is_none(), "nothing has looked at a node yet");
        let first = NodeName::new("node-00000");
        // A reservation ahead of the index is read off the working views
        // by whoever builds it.
        cycle.reserve(&first, &sgx_pod(10)); // 2,560 pages
        let tier = |cycle: &SchedulingCycle| {
            let index = cycle.index.as_ref().unwrap();
            index.maxima[index.runs[class_of(&cycle.working[0])]][1]
        };
        cycle.mark_infeasible(&NodeName::new("node-00001"));
        assert_eq!(tier(&cycle), 21_936, "node-00002, past node-00000");
        cycle.reserve(&first, &sgx_pod(1));
        assert_eq!(tier(&cycle), 21_936);
        cycle.reserve(&NodeName::new("node-00002"), &sgx_pod(10));
        assert_eq!(tier(&cycle), 23_936 - 2_560 - 256, "node-00000 again");
        for i in [0, 2, 3, 4] {
            cycle.mark_infeasible(&NodeName::new(format!("node-{i:05}")));
        }
        assert_eq!(tier(&cycle), 0);
        assert_eq!(cycle.place(&fit_pipeline(), &sgx_pod(1)), None);
        // Nor does a pipeline that needs nothing of a node see them.
        let bare = PolicyPipeline::builder("bare").build();
        assert_eq!(cycle.place(&bare, &sgx_pod(1)), None);
        assert_eq!(cycle.nodes_scanned(), 0);
    }

    #[test]
    fn runs_of_a_class_are_skipped_or_walked_by_their_maximum() {
        // 200 nodes are four runs of 64, 64, 64 and 8 leaves; only
        // node-00130 (third run) and node-00199 (the short last one) have
        // room.
        let room = |i: usize| if i == 130 || i == 199 { 0 } else { 23_936 };
        let mut cycle = SchedulingCycle::new(sgx_cluster(200, room));
        let pipeline = fit_pipeline();
        let pod = sgx_pod(60);
        assert_eq!(cycle.place(&pipeline, &pod).unwrap().as_str(), "node-00130");
        assert_eq!(cycle.nodes_scanned(), 2, "a stage remains: both are rated");
        cycle.reserve(&NodeName::new("node-00130"), &pod);
        assert_eq!(cycle.place(&pipeline, &pod).unwrap().as_str(), "node-00199");
        cycle.mark_infeasible(&NodeName::new("node-00199"));
        assert_eq!(cycle.place(&pipeline, &pod), None);
        assert_eq!(cycle.nodes_scanned(), 3);
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

    #[test]
    fn only_the_leading_class_constant_stages_order_classes() {
        let registry = PolicyRegistry::builtin();
        assert_eq!(registry.by_name(SGX_BINPACK).unwrap().leading, 2);
        assert_eq!(registry.by_name(SGX_SPREAD).unwrap().leading, 2);
        assert_eq!(fit_pipeline().leading, 0);
        // A class-constant stage behind one that is not runs per
        // candidate like any other — and still decides the same.
        let late = PolicyPipeline::builder("late")
            .score(ConstScore)
            .score(crate::policy::SgxPreserveScore)
            .build();
        assert_eq!(late.leading, 0);
        let pod = PodSpec::builder("p")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        assert_eq!(late.place(&pod, &snapshot()).unwrap().as_str(), "std-1");
    }

    /// The work-counter gate of a refusal: a backlog of identical
    /// unplaceable pods through a pipeline that declares its filters'
    /// needs ends every placement at the tier index, visiting no slot,
    /// and the smaller pods behind them still place.
    #[test]
    fn identical_unplaceable_pods_cost_one_scan() {
        const NODES: usize = 1_000;
        let pipeline = fit_pipeline();
        let mut cycle = SchedulingCycle::new(sgx_cluster(NODES, |_| 23_936 - 100));
        let big = sgx_pod(10); // 2,560 pages; 100 are free per node
        for _ in 0..10_000 {
            assert_eq!(cycle.place(&pipeline, &big), None);
        }
        assert_eq!(cycle.nodes_scanned(), 0);
        // A pod that fits still has a stage to be rated by, so it visits
        // every node that can hold it.
        let small = PodSpec::builder("small")
            .sgx_resources(EpcPages::new(100).to_bytes())
            .build();
        let chosen = cycle.place(&pipeline, &small).unwrap();
        assert_eq!(chosen.as_str(), "node-00000");
        let std_pod = PodSpec::builder("std")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        assert!(cycle.place(&pipeline, &std_pod).is_some());
        assert_eq!(cycle.nodes_scanned(), NODES as u64 * 2);
    }

    /// The sub-linear gate: first fit on a large cluster whose first two
    /// thirds are full does not walk the full nodes to find the first
    /// that is not.
    #[test]
    fn a_fitting_binpack_pod_visits_a_handful_of_slots() {
        const NODES: usize = 12_500;
        let two_thirds = NODES * 2 / 3;
        let snapshot = sgx_cluster(NODES, |i| if i < two_thirds { 23_936 } else { 15_000 });
        let binpack = PolicyRegistry::builtin().by_name(SGX_BINPACK).unwrap();
        let mut cycle = SchedulingCycle::new(snapshot);
        let pod = sgx_pod(16);
        for bound in 0..64 {
            let before = cycle.nodes_scanned();
            let chosen = cycle.place(&binpack, &pod).unwrap();
            // 8,936 pages free: two 16 MiB pods a node.
            assert_eq!(
                chosen.as_str(),
                format!("node-{:05}", two_thirds + bound / 2)
            );
            assert!(cycle.nodes_scanned() - before <= 64);
            cycle.reserve(&chosen, &pod);
        }
        assert_eq!(cycle.nodes_scanned(), 64, "one slot a placement");
    }

    /// A spread placement runs the filters on each slot of the winning
    /// class that can hold the pod, once, and on no other.
    #[test]
    fn a_spread_placement_visits_each_feasible_slot_of_one_class_once() {
        let mut nodes: BTreeMap<NodeName, NodeView> = sgx_cluster(100, |i| (i as u64 % 10) * 2_000)
            .iter()
            .map(|(name, view)| (name.clone(), *view))
            .collect();
        // A degraded SGX class and a standard class that must stay unvisited.
        for i in 0..50 {
            let degraded = NodeView {
                degraded: true,
                ..nodes[&NodeName::new("node-00000")]
            };
            nodes.insert(NodeName::new(format!("stale-{i:02}")), degraded);
            let standard = NodeView {
                memory_capacity: ByteSize::from_gib(64),
                ..NodeView::default()
            };
            nodes.insert(NodeName::new(format!("std-{i:02}")), standard);
        }
        let spread = PolicyRegistry::builtin().by_name(SGX_SPREAD).unwrap();
        let mut cycle = SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes));
        // 8,000 pages fit where at most 15,936 are taken: loads 0‥7 of 0‥9.
        let pod = PodSpec::builder("p")
            .sgx_resources(EpcPages::new(8_000).to_bytes())
            .build();
        let chosen = cycle.place(&spread, &pod).unwrap();
        assert_eq!(chosen.as_str(), "node-00000");
        assert_eq!(cycle.nodes_scanned(), 80);
    }
}
