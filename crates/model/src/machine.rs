//! The transition system: enabled actions, the step function, and exact
//! integer mirrors of the scheduler and rebalancer decision rules.
//!
//! The implementation decides by exact integer comparison — placement,
//! sgx-spread included, and the rebalancer's load order, trigger,
//! half-gap and improvement test — and the model mirrors it with exact
//! rationals via `i128` cross-multiplication, so the two decision
//! procedures agree on any capacities. Only the rebalance threshold is
//! an `f64` on the implementation's side; the implementation reads it as
//! its exact value, and a dyadic `milli / 1000` is the same number here.
//!
//! The spread rule is stated here the obvious way, not the
//! implementation's: per feasible candidate, the population variance of
//! its peer group's loads after the placement, computed from the
//! definition in [`Frac`]s; the minimum wins, the lowest index on ties.
//! That makes the model an oracle for the implementation's O(1)
//! comparison, independent of its algebra.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::spec::{ModelConfig, Policy};
use crate::state::{Action, Frame, ModelState, NodeId, NodeState, PodId, PodPhase, Sample};

/// An exact rational with a positive denominator, kept in lowest terms.
#[derive(Debug, Clone, Copy)]
struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    fn new(num: u64, den: u64) -> Self {
        Frac::reduced(i128::from(num), i128::from(den.max(1)))
    }

    fn reduced(num: i128, den: i128) -> Self {
        fn gcd(a: i128, b: i128) -> i128 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let g = gcd(num.abs(), den).max(1);
        Frac {
            num: num / g,
            den: den / g,
        }
    }

    fn cmp(self, other: Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }

    fn add(self, other: Self) -> Frac {
        Frac::reduced(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )
    }

    /// `self - other` (may be negative).
    fn sub(self, other: Self) -> Frac {
        self.add(Frac {
            num: -other.num,
            den: other.den,
        })
    }

    fn mul(self, other: Self) -> Frac {
        Frac::reduced(self.num * other.num, self.den * other.den)
    }

    /// `self > milli / 1000`.
    fn exceeds_milli(self, milli: u64) -> bool {
        self.num * 1000 > i128::from(milli) * self.den
    }
}

/// Population variance of `loads`, from the definition: the mean of the
/// squared deviations from the mean.
fn variance(loads: &[Frac]) -> Frac {
    let inverse = Frac::new(1, loads.len() as u64);
    let mean = loads
        .iter()
        .fold(Frac::new(0, 1), |sum, &load| sum.add(load))
        .mul(inverse);
    loads
        .iter()
        .fold(Frac::new(0, 1), |sum, &load| {
            let deviation = load.sub(mean);
            sum.add(deviation.mul(deviation))
        })
        .mul(inverse)
}

/// What a rebalance transition observed — consumed by the
/// migration-terminal invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceEffects {
    /// The arming metric (over the semantics-dependent node set)
    /// exceeded the threshold when the pass started.
    pub metric_armed: bool,
    /// The spread over the *eligible* (uncordoned, movable) set exceeded
    /// the threshold when the pass started.
    pub eligible_spread_exceeds: bool,
    /// Migrations the pass performed.
    pub moves: u32,
    /// The pass hit its iteration budget without converging.
    pub iterations_capped: bool,
}

/// What a drain transition cost — consumed by the drain-capture-bound
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainEffects {
    /// Pods the drain evicted (attempted to migrate).
    pub evicted: u32,
    /// Scheduling snapshots the drain captured.
    pub captures: u32,
}

/// Transient observations of one transition. Not part of the state (so
/// deduplication stays tight); recomputed from `(state, action)` where
/// an invariant needs them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepEffects {
    /// Present when the action was [`Action::Rebalance`].
    pub rebalance: Option<RebalanceEffects>,
    /// Present when the action was [`Action::Drain`].
    pub drain: Option<DrainEffects>,
}

/// The abstract orchestrator-loop model over a [`ModelConfig`].
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
}

impl Model {
    /// A model over the given configuration.
    pub fn new(config: ModelConfig) -> Self {
        Model { config }
    }

    /// The configuration being explored.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The initial state: every pod pending and queued in index order
    /// (all submitted at tick 0), every node empty and fresh.
    pub fn initial(&self) -> ModelState {
        ModelState {
            time: 0,
            nodes: vec![NodeState::default(); self.config.nodes()],
            pods: vec![PodPhase::Pending; self.config.pods()],
            queue: (0..self.config.pods() as u8).collect(),
            in_flight: Vec::new(),
            crashes_used: 0,
            drains_used: 0,
            scrapes_used: 0,
        }
    }

    /// Whether a sample taken at `at` is inside the metrics window at
    /// `time`.
    fn in_window(&self, time: u8, at: u8) -> bool {
        time.saturating_sub(at) <= self.config.window
    }

    /// Recovery quarantine: the node rejoined after a crash and no
    /// scrape sampled at-or-after the rejoin has been delivered yet.
    /// Only the fixed semantics quarantine; the stale-recovery bug is
    /// precisely its absence.
    fn recovery_pending(&self, node: &NodeState) -> bool {
        !self.config.semantics.stale_recovery
            && node
                .rejoined_at
                .is_some_and(|rejoined| node.last_scrape.is_none_or(|scrape| scrape < rejoined))
    }

    /// The shared staleness rule: never-scraped nodes are fresh, scraped
    /// nodes degrade once the last delivered scrape outages the
    /// threshold, and quarantined nodes are always degraded.
    pub fn degraded(&self, state: &ModelState, node: NodeId) -> bool {
        let n = &state.nodes[node as usize];
        if self.recovery_pending(n) {
            return true;
        }
        n.last_scrape
            .is_some_and(|at| state.time.saturating_sub(at) > self.config.staleness)
    }

    /// Admitted EPC requests on a node, in pages.
    pub fn requested(&self, state: &ModelState, node: NodeId) -> u64 {
        state.nodes[node as usize]
            .residents
            .iter()
            .map(|&p| self.config.pod_request[p as usize])
            .sum()
    }

    /// Measured EPC occupancy: per-pod max over in-window samples,
    /// summed. Sample values are constant per pod, so "any in-window
    /// sample" contributes the pod's pages exactly once.
    pub fn measured(&self, state: &ModelState, node: NodeId) -> u64 {
        let mut seen = BTreeSet::new();
        let mut total = 0;
        for sample in &state.nodes[node as usize].samples {
            if self.in_window(state.time, sample.at) && seen.insert(sample.pod) {
                total += sample.pages;
            }
        }
        total
    }

    /// Effective occupancy the placement filters use: requests-only for
    /// degraded nodes, otherwise the max of measured and requested.
    pub fn effective(&self, state: &ModelState, node: NodeId) -> u64 {
        let requested = self.requested(state, node);
        if self.degraded(state, node) {
            requested
        } else {
            requested.max(self.measured(state, node))
        }
    }

    /// Whether `node` can take `request` more pages: uncordoned, alive,
    /// effective occupancy plus the request within capacity.
    fn feasible(&self, state: &ModelState, node: NodeId, request: u64) -> bool {
        let n = &state.nodes[node as usize];
        !n.cordoned
            && !n.crashed
            && self.effective(state, node) + request <= self.config.node_capacity[node as usize]
    }

    /// The sgx-binpack placement rule for one pod of `request` pages:
    /// among the feasible nodes, fresh ones win over degraded ones and
    /// name (index) order breaks ties.
    fn place_binpack(&self, state: &ModelState, request: u64) -> Option<NodeId> {
        (0..self.config.nodes() as u8)
            .filter(|&node| self.feasible(state, node, request))
            .min_by_key(|&node| (self.degraded(state, node), node))
    }

    /// The sgx-spread placement rule: fresh nodes still win over degraded
    /// ones; among the feasible nodes of the winning partition, the one
    /// whose placement leaves the partition's effective loads — every
    /// uncordoned node of it, feasible or not — with the least variance;
    /// index order breaks ties.
    fn place_spread(&self, state: &ModelState, request: u64) -> Option<NodeId> {
        let nodes = 0..self.config.nodes() as u8;
        let feasible: Vec<NodeId> = nodes
            .clone()
            .filter(|&node| self.feasible(state, node, request))
            .collect();
        let degraded = feasible
            .iter()
            .map(|&node| self.degraded(state, node))
            .min()?;
        let peers: Vec<NodeId> = nodes
            .filter(|&node| {
                let n = &state.nodes[node as usize];
                !n.cordoned && !n.crashed && self.degraded(state, node) == degraded
            })
            .collect();
        let variance_after = |chosen: NodeId| {
            let loads: Vec<Frac> = peers
                .iter()
                .map(|&node| {
                    let placed = if node == chosen { request } else { 0 };
                    Frac::new(
                        self.effective(state, node) + placed,
                        self.config.node_capacity[node as usize],
                    )
                })
                .collect();
            variance(&loads)
        };
        feasible
            .into_iter()
            .filter(|&node| self.degraded(state, node) == degraded)
            .min_by(|&a, &b| variance_after(a).cmp(variance_after(b)).then(a.cmp(&b)))
    }

    /// The configured pipeline's choice for one pod of `request` pages.
    fn place(&self, state: &ModelState, request: u64) -> Option<NodeId> {
        match self.config.policy {
            Policy::Binpack => self.place_binpack(state, request),
            Policy::Spread => self.place_spread(state, request),
        }
    }

    /// The decisions one scheduler pass would take right now: the FCFS
    /// queue walked in order, each placement reserving its requests for
    /// the rest of the pass. Pure — used both by [`Action::Schedule`]
    /// and by the reorder-insensitivity lookahead.
    pub fn schedule_decisions(&self, state: &ModelState) -> Vec<(PodId, NodeId)> {
        let mut work = state.clone();
        let mut binds = Vec::new();
        for &pod in &state.queue {
            let request = self.config.pod_request[pod as usize];
            if let Some(node) = self.place(&work, request) {
                binds.push((pod, node));
                bind(&mut work, pod, node);
            }
        }
        binds
    }

    /// Load fraction (requested / capacity) of a node.
    fn load(&self, state: &ModelState, node: NodeId) -> Frac {
        Frac::new(
            self.requested(state, node),
            self.config.node_capacity[node as usize],
        )
    }

    /// Max-minus-min load spread over a node set; zero below two nodes.
    fn spread(&self, state: &ModelState, nodes: &[NodeId]) -> Frac {
        if nodes.len() < 2 {
            return Frac::new(0, 1);
        }
        let mut lo = self.load(state, nodes[0]);
        let mut hi = lo;
        for &node in &nodes[1..] {
            let l = self.load(state, node);
            if l.cmp(lo) == Ordering::Less {
                lo = l;
            }
            if l.cmp(hi) == Ordering::Greater {
                hi = l;
            }
        }
        hi.sub(lo)
    }

    /// Nodes the rebalancer may move load between.
    fn eligible_nodes(&self, state: &ModelState) -> Vec<NodeId> {
        (0..self.config.nodes() as u8)
            .filter(|&n| {
                let node = &state.nodes[n as usize];
                !node.cordoned && !node.crashed
            })
            .collect()
    }

    /// Nodes the arming metric is computed over: with the cordon-blind
    /// bug, every node; fixed, exactly the eligible set.
    fn metric_nodes(&self, state: &ModelState) -> Vec<NodeId> {
        if self.config.semantics.cordon_blind_imbalance {
            (0..self.config.nodes() as u8).collect()
        } else {
            self.eligible_nodes(state)
        }
    }

    /// Every action enabled in `state`, in a deterministic order.
    pub fn enabled_actions(&self, state: &ModelState) -> Vec<Action> {
        let mut actions = Vec::new();
        if state.time < self.config.horizon {
            actions.push(Action::Tick);
        }
        if !state.queue.is_empty() {
            actions.push(Action::Schedule);
        }
        let alive = state.nodes.iter().filter(|n| !n.crashed).count();
        if alive > 0
            && state.scrapes_used < self.config.max_scrapes
            && state.in_flight.len() + alive <= self.config.max_in_flight
        {
            actions.push(Action::Scrape);
        }
        // Only the head of the in-flight FIFO is delivered or dropped
        // here: delivery commutes (set-union plus max-merge — exactly
        // what the reorder-insensitive invariant verifies by lookahead
        // at every state), so exploring subsets in FIFO order reaches
        // every delivered state that exploring all orders would, without
        // the factorial branching. The lookahead still exercises
        // arbitrary `Deliver(i)` sequences on state copies.
        let frames_pending = !state.in_flight.is_empty();
        if frames_pending {
            actions.push(Action::Deliver(0));
            actions.push(Action::Drop(0));
        }
        // Partial-order reduction: while frames are in flight, defer the
        // actions that commute with frame resolution. A frame's points
        // are fixed at scrape time and delivery only merges samples and
        // max-merges scrape freshness, so any action that neither reads
        // nor writes samples — Complete, Drain, Uncordon, Rebalance
        // (which, like the implementation, plans over requests-only
        // snapshots) — reaches the same states run after the in-flight
        // set resolves. Tick (window aging), Schedule (reads delivered
        // samples), Crash and Recover (the recovery epoch decides which
        // frames are superseded) genuinely interact with delivery and
        // stay interleaved.
        let completes_used = state
            .pods
            .iter()
            .filter(|p| matches!(p, PodPhase::Done))
            .count();
        if !frames_pending && completes_used < self.config.max_completes as usize {
            for pod in 0..self.config.pods() as u8 {
                if let PodPhase::Bound(node) = state.pods[pod as usize] {
                    if !state.nodes[node as usize].crashed {
                        actions.push(Action::Complete(pod));
                    }
                }
            }
        }
        for node in 0..self.config.nodes() as u8 {
            let n = &state.nodes[node as usize];
            let faultable = self.config.fault_nodes.contains(&node);
            if faultable && !n.crashed && state.crashes_used < self.config.max_crashes {
                actions.push(Action::Crash(node));
            }
            if n.crashed {
                actions.push(Action::Recover(node));
            }
            if !frames_pending
                && faultable
                && !n.crashed
                && !n.cordoned
                && state.drains_used < self.config.max_drains
            {
                actions.push(Action::Drain(node));
            }
            if !frames_pending && n.cordoned && !n.crashed {
                actions.push(Action::Uncordon(node));
            }
        }
        if !frames_pending {
            actions.push(Action::Rebalance);
        }
        actions
    }

    /// Applies `action` to `state`, returning the successor and the
    /// transition's transient observations.
    ///
    /// # Panics
    ///
    /// Panics if the action is not enabled in `state`.
    pub fn step(&self, state: &ModelState, action: Action) -> (ModelState, StepEffects) {
        let mut next = state.clone();
        let mut effects = StepEffects::default();
        match action {
            Action::Tick => {
                assert!(state.time < self.config.horizon, "past the horizon");
                next.time += 1;
                let time = next.time;
                let window = self.config.window;
                for node in &mut next.nodes {
                    node.samples.retain(|s| time.saturating_sub(s.at) <= window);
                }
            }
            Action::Schedule => {
                for (pod, node) in self.schedule_decisions(state) {
                    bind(&mut next, pod, node);
                }
            }
            Action::Scrape => {
                next.scrapes_used += 1;
                for node in 0..self.config.nodes() as u8 {
                    let n = &state.nodes[node as usize];
                    if n.crashed {
                        continue;
                    }
                    next.in_flight.push(Frame {
                        node,
                        scraped_at: state.time,
                        points: n
                            .residents
                            .iter()
                            .map(|&p| (p, self.config.pod_request[p as usize]))
                            .collect(),
                    });
                }
            }
            Action::Deliver(index) => {
                let frame = next.in_flight.remove(index as usize);
                self.deliver(&mut next, &frame);
            }
            Action::Drop(index) => {
                next.in_flight.remove(index as usize);
            }
            Action::Crash(node) => {
                let n = &mut next.nodes[node as usize];
                assert!(!n.crashed, "crash of a crashed node");
                n.cordoned = true;
                n.crashed = true;
                let victims = std::mem::take(&mut n.residents);
                for &pod in &victims {
                    next.pods[pod as usize] = PodPhase::Pending;
                    next.queue.push(pod);
                }
                next.crashes_used += 1;
            }
            Action::Recover(node) => {
                let n = &mut next.nodes[node as usize];
                assert!(n.crashed, "recovery of a live node");
                n.crashed = false;
                n.cordoned = false;
                n.rejoined_at = Some(state.time);
            }
            Action::Drain(node) => {
                effects.drain = Some(self.drain(&mut next, node));
                next.drains_used += 1;
            }
            Action::Uncordon(node) => {
                next.nodes[node as usize].cordoned = false;
            }
            Action::Rebalance => {
                effects.rebalance = Some(self.rebalance(&mut next));
            }
            Action::Complete(pod) => {
                let PodPhase::Bound(node) = state.pods[pod as usize] else {
                    panic!("completion of a pod that is not running");
                };
                next.pods[pod as usize] = PodPhase::Done;
                next.nodes[node as usize].residents.retain(|&p| p != pod);
            }
        }
        (next, effects)
    }

    /// Frame delivery. Under the fixed semantics a frame scraped before
    /// the node's recovery epoch is inert — dropped whole, refreshing
    /// nothing. Otherwise samples merge in (set union, window-filtered)
    /// and the node's scrape freshness max-merges, so delivery commutes.
    fn deliver(&self, state: &mut ModelState, frame: &Frame) {
        let node = &mut state.nodes[frame.node as usize];
        let superseded = !self.config.semantics.stale_recovery
            && node
                .rejoined_at
                .is_some_and(|rejoined| frame.scraped_at < rejoined);
        if superseded {
            return;
        }
        if self.in_window(state.time, frame.scraped_at) {
            for &(pod, pages) in &frame.points {
                let sample = Sample {
                    at: frame.scraped_at,
                    pod,
                    pages,
                };
                if let Err(slot) = node.samples.binary_search(&sample) {
                    node.samples.insert(slot, sample);
                }
            }
        }
        node.last_scrape = Some(
            node.last_scrape
                .map_or(frame.scraped_at, |t| t.max(frame.scraped_at)),
        );
    }

    /// A drain: cordon, then try to migrate every resident away through
    /// the binpack rule, whatever the scheduler's policy. The fixed semantics
    /// thread one scheduling snapshot across the whole eviction; the
    /// per-pod-capture bug re-captures per evicted pod (identical
    /// decisions, different cost — which is what the invariant bounds).
    fn drain(&self, state: &mut ModelState, node: NodeId) -> DrainEffects {
        state.nodes[node as usize].cordoned = true;
        let evicted = state.nodes[node as usize].residents.clone();
        for &pod in &evicted {
            let request = self.config.pod_request[pod as usize];
            if let Some(target) = self.place_binpack(state, request) {
                state.nodes[node as usize].residents.retain(|&p| p != pod);
                bind(state, pod, target);
            }
        }
        DrainEffects {
            evicted: evicted.len() as u32,
            captures: if self.config.semantics.per_pod_drain_capture {
                evicted.len() as u32
            } else {
                1
            },
        }
    }

    /// One rebalance pass, mirroring `Orchestrator::rebalance_epc`:
    /// requests-only loads over the eligible set, stable-sorted so index
    /// order breaks ties (coldest = lowest index among minima, hottest =
    /// highest among maxima); the largest pod within the rounded-up
    /// half-gap moves hot → cold while each move strictly shrinks the
    /// spread.
    fn rebalance(&self, state: &mut ModelState) -> RebalanceEffects {
        const MAX_ITERATIONS: u32 = 64;
        let threshold = self.config.rebalance_threshold_milli;
        let metric_armed = self
            .spread(state, &self.metric_nodes(state))
            .exceeds_milli(threshold);
        let eligible_spread_exceeds = self
            .spread(state, &self.eligible_nodes(state))
            .exceeds_milli(threshold);
        let mut moves = 0;
        let mut iterations = 0;
        loop {
            if iterations >= MAX_ITERATIONS {
                return RebalanceEffects {
                    metric_armed,
                    eligible_spread_exceeds,
                    moves,
                    iterations_capped: true,
                };
            }
            iterations += 1;
            let mut loads: Vec<(NodeId, Frac)> = self
                .eligible_nodes(state)
                .into_iter()
                .map(|n| (n, self.load(state, n)))
                .collect();
            if loads.len() < 2 {
                break;
            }
            loads.sort_by(|a, b| a.1.cmp(b.1));
            let (cold, cold_load) = loads[0];
            let (hot, hot_load) = loads[loads.len() - 1];
            let old_spread = hot_load.sub(cold_load);
            if !old_spread.exceeds_milli(threshold) {
                break;
            }
            let cold_cap = self.config.node_capacity[cold as usize];
            let hot_cap = self.config.node_capacity[hot as usize];
            let cold_requested = self.requested(state, cold);
            let hot_requested = self.requested(state, hot);
            // gap = ceil(((hot - cold) / 2) * hot_cap), exactly:
            // (hot_req·cold_cap − cold_req·hot_cap) / (2·cold_cap).
            let gap_num = i128::from(hot_requested) * i128::from(cold_cap)
                - i128::from(cold_requested) * i128::from(hot_cap);
            let gap_den = 2 * i128::from(cold_cap);
            let gap = u64::try_from((gap_num + gap_den - 1).div_euclid(gap_den))
                .unwrap_or(0)
                .max(1);
            let candidate = state.nodes[hot as usize]
                .residents
                .iter()
                .copied()
                .filter(|&p| {
                    let pages = self.config.pod_request[p as usize];
                    pages > 0 && pages <= gap && cold_requested + pages <= cold_cap
                })
                .max_by_key(|&p| self.config.pod_request[p as usize]);
            let Some(pod) = candidate else {
                break;
            };
            let pages = self.config.pod_request[pod as usize];
            let new_hot = Frac::new(hot_requested - pages, hot_cap);
            let new_cold = Frac::new(cold_requested + pages, cold_cap);
            let mut lo = new_hot;
            let mut hi = new_hot;
            for &(n, load) in &loads {
                let l = if n == hot {
                    new_hot
                } else if n == cold {
                    new_cold
                } else {
                    load
                };
                if l.cmp(lo) == Ordering::Less {
                    lo = l;
                }
                if l.cmp(hi) == Ordering::Greater {
                    hi = l;
                }
            }
            if hi.sub(lo).cmp(old_spread) != Ordering::Less {
                break;
            }
            state.nodes[hot as usize].residents.retain(|&p| p != pod);
            bind(state, pod, cold);
            moves += 1;
        }
        RebalanceEffects {
            metric_armed,
            eligible_spread_exceeds,
            moves,
            iterations_capped: false,
        }
    }
}

/// Binds `pod` to `node`: phase, residency and queue all updated.
fn bind(state: &mut ModelState, pod: PodId, node: NodeId) {
    state.pods[pod as usize] = PodPhase::Bound(node);
    let residents = &mut state.nodes[node as usize].residents;
    if let Err(slot) = residents.binary_search(&pod) {
        residents.insert(slot, pod);
    }
    state.queue.retain(|&p| p != pod);
}
