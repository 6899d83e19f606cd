//! Cluster and pod-group autoscaling.
//!
//! Two controllers, modelled on the Kubernetes cluster-autoscaler /
//! horizontal-pod-autoscaler split:
//!
//! * [`ClusterAutoscaler`] — grows and shrinks the **node pool** from
//!   pending-queue pressure, with the SGX and non-SGX tiers scaled
//!   independently (EPC is the scarce resource of one tier, ordinary
//!   memory of the other). Scale-up fires when a tier's oldest pending
//!   pod has waited longer than a threshold or its pending requests
//!   exceed the tier's spare capacity; scale-down fires only after the
//!   tier's occupancy has stayed under a low-water mark for a cooldown,
//!   and drains the victim through
//!   [`Orchestrator::remove_node`] so no pod is lost.
//! * [`PodGroupAutoscaler`] — tracks a per-group offered-load profile
//!   for long-running service groups and reconciles each group's live
//!   replica count against the demand, submitting new replicas on growth
//!   and retiring the newest running replicas on shrink.
//!
//! Both controllers are deterministic: all state lives in ordered
//! containers, victims and names are chosen by fixed rules, and the only
//! inputs are the orchestrator's public state and the (virtual) clock.
//! Elasticity is accounted in [`ElasticityMetrics`]: scale-up latency
//! (how long the triggering pod had waited when capacity arrived),
//! wasted capacity (unused managed-node capacity integrated over time)
//! and peak node count.

use std::collections::BTreeSet;

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::Node;
use des::{SimDuration, SimTime};
use sgx_sim::units::ByteSize;

use crate::exact::Ratio;
use crate::server::{NodeRemoval, Orchestrator, PodOutcome};

/// The two independently scaled capacity pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// Nodes without SGX; scaled on ordinary-memory pressure.
    Standard,
    /// SGX nodes; scaled on EPC pressure.
    Sgx,
}

impl Tier {
    fn prefix(self) -> &'static str {
        match self {
            Tier::Standard => "std",
            Tier::Sgx => "sgx",
        }
    }

    fn index(self) -> usize {
        match self {
            Tier::Standard => 0,
            Tier::Sgx => 1,
        }
    }

    /// The machine provisioned on scale-up: a Dell R330 for the standard
    /// tier, the paper's i7-6700 SGX machine for the SGX tier.
    fn template(self) -> MachineSpec {
        match self {
            Tier::Standard => MachineSpec::dell_r330(),
            Tier::Sgx => MachineSpec::sgx_node(),
        }
    }

    /// The tier's scarce resource out of a memory and an EPC amount, in
    /// bytes: the one place that tells the tiers' resources apart.
    fn scarce(self, memory: ByteSize, epc: ByteSize) -> u64 {
        match self {
            Tier::Standard => memory,
            Tier::Sgx => epc,
        }
        .as_bytes()
    }

    /// A node's requested and allocatable amount of the scarce resource.
    fn load(self, node: &Node) -> (u64, u64) {
        (
            self.scarce(node.memory_requested(), node.epc_requested().to_bytes()),
            self.scarce(node.allocatable_memory(), node.allocatable_epc().to_bytes()),
        )
    }

    /// What a pod requests of the scarce resource.
    fn request(self, spec: &PodSpec) -> u64 {
        let requests = spec.resources.requests;
        self.scarce(requests.memory, requests.epc_pages.to_bytes())
    }
}

const TIERS: [Tier; 2] = [Tier::Standard, Tier::Sgx];

/// Thresholds, cooldowns and caps of the [`ClusterAutoscaler`]. Both
/// tiers share them; each tier provisions its own machine and shrinks to
/// zero managed nodes when idle.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerPolicy {
    /// Scale a tier up once its oldest pending pod has waited this long.
    pub scale_up_wait: SimDuration,
    /// Scale a tier down only after its occupancy has stayed under
    /// [`low_water`](Self::low_water) for this long.
    pub scale_down_after: SimDuration,
    /// Occupancy fraction (requested / capacity of the tier's scarce
    /// resource, in `(0, 1]`) under which the scale-down cooldown arms.
    pub low_water: f64,
    /// Managed nodes a tier never grows beyond.
    pub max_nodes: usize,
    /// Most nodes a tier adds in one tick (the provisioning rate limit).
    pub max_step: usize,
}

impl AutoscalerPolicy {
    /// Defaults sized for full-trace replays: 30 s pressure threshold,
    /// 300 s scale-down cooldown under 30 % occupancy, up to 10,000 nodes
    /// a tier, 8 per tick.
    pub fn paper_defaults() -> Self {
        AutoscalerPolicy {
            scale_up_wait: SimDuration::from_secs(30),
            scale_down_after: SimDuration::from_secs(300),
            low_water: 0.3,
            max_nodes: 10_000,
            max_step: 8,
        }
    }

    /// Sets the scale-up pressure threshold (builder-style).
    pub fn with_scale_up_wait(mut self, wait: SimDuration) -> Self {
        self.scale_up_wait = wait;
        self
    }

    /// Sets the scale-down cooldown (builder-style).
    pub fn with_scale_down_after(mut self, cooldown: SimDuration) -> Self {
        self.scale_down_after = cooldown;
        self
    }

    /// Sets the scale-down low-water occupancy mark (builder-style).
    pub fn with_low_water(mut self, low_water: f64) -> Self {
        self.low_water = low_water;
        self
    }

    /// Caps both tiers at `max_nodes` managed nodes (builder-style).
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets both tiers' per-tick provisioning step (builder-style).
    pub fn with_max_step(mut self, max_step: usize) -> Self {
        self.max_step = max_step;
        self
    }

    /// Panics unless every knob is in range — the same eager validation
    /// the replay configs use, so a bad sweep configuration fails at
    /// construction, not silently mid-replay.
    ///
    /// # Panics
    ///
    /// Panics when `low_water` leaves `(0, 1]`, `scale_up_wait` is zero
    /// or `max_step` is zero.
    pub fn validate(&self) {
        assert!(
            self.low_water > 0.0 && self.low_water <= 1.0,
            "autoscaler low_water must lie in (0, 1], got {}",
            self.low_water
        );
        assert!(
            !self.scale_up_wait.is_zero(),
            "autoscaler scale_up_wait must be non-zero"
        );
        assert!(self.max_step > 0, "autoscaler max_step must be positive");
    }
}

/// Elasticity accounting kept by the [`ClusterAutoscaler`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElasticityMetrics {
    /// Ticks on which a tier grew.
    pub scale_up_events: u64,
    /// Ticks on which a tier shrank.
    pub scale_down_events: u64,
    /// Nodes provisioned in total.
    pub nodes_added: u64,
    /// Nodes drained and deregistered in total.
    pub nodes_removed: u64,
    /// Pods a removal had to evict back to the queue (no migration
    /// target).
    pub requeued_pods: u64,
    /// Highest worker count the cluster ever reached.
    pub peak_nodes: usize,
    /// Scale-up latency observations: how long the triggering tier's
    /// oldest pending pod had waited when capacity was added, summed…
    pub scale_up_latency_sum_secs: f64,
    /// …its observation count…
    pub scale_up_latency_count: u64,
    /// …and the worst case.
    pub scale_up_latency_max_secs: f64,
    /// Unused managed capacity integrated over time, in node-seconds:
    /// each tick adds `(1 − requested/capacity) · Δt` per managed node
    /// (EPC for the SGX tier, memory for the standard tier). The price
    /// of over-provisioning.
    pub wasted_capacity_node_secs: f64,
}

impl ElasticityMetrics {
    /// Mean scale-up latency, or `None` when no scale-up ever fired —
    /// never NaN.
    pub fn mean_scale_up_latency_secs(&self) -> Option<f64> {
        (self.scale_up_latency_count > 0)
            .then(|| self.scale_up_latency_sum_secs / self.scale_up_latency_count as f64)
    }
}

/// What one [`ClusterAutoscaler::tick`] (plus, in the replay wiring, the
/// same tick of the [`PodGroupAutoscaler`]) changed.
#[derive(Debug, Clone, Default)]
pub struct AutoscaleOutcome {
    /// Nodes provisioned this tick.
    pub added: Vec<NodeName>,
    /// Nodes drained and deregistered this tick, with what the drain did
    /// to each (migrations to replay, stragglers requeued).
    pub removed: Vec<(NodeName, NodeRemoval)>,
    /// Service replicas submitted this tick (pod groups).
    pub submitted: Vec<PodUid>,
    /// Running service replicas retired this tick (pod groups).
    pub retired: Vec<PodUid>,
}

impl AutoscaleOutcome {
    /// `true` when the tick changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.submitted.is_empty()
            && self.retired.is_empty()
    }

    /// Folds another tick's outcome into this one (cluster + pod-group
    /// controllers run back to back on the same tick).
    pub fn merge(&mut self, other: AutoscaleOutcome) {
        self.added.extend(other.added);
        self.removed.extend(other.removed);
        self.submitted.extend(other.submitted);
        self.retired.extend(other.retired);
    }
}

/// Pending-queue pressure of one tier at one instant.
struct TierPressure {
    oldest_wait: SimDuration,
    /// Pending requests of the tier's scarce resource, in bytes (EPC
    /// pages converted; memory as-is).
    pending_bytes: u64,
}

/// The node-pool controller. One instance drives one [`Orchestrator`];
/// call [`tick`](Self::tick) on a fixed period (the replay engine arms
/// it as `AutoscaleTick` events).
#[derive(Debug, Clone)]
pub struct ClusterAutoscaler {
    policy: AutoscalerPolicy,
    /// Nodes this autoscaler provisioned, per tier — the only nodes it
    /// will ever remove, so a statically configured baseline cluster is
    /// never scaled away.
    managed: [BTreeSet<NodeName>; 2],
    /// Name counter per tier (names are never reused within a run).
    next_index: [u64; 2],
    /// Since when the tier's occupancy has been under the low-water
    /// mark, if it is.
    below_since: [Option<SimTime>; 2],
    last_tick: Option<SimTime>,
    metrics: ElasticityMetrics,
}

impl ClusterAutoscaler {
    /// A controller with the given policy (validated eagerly).
    ///
    /// # Panics
    ///
    /// Panics when the policy fails [`AutoscalerPolicy::validate`].
    pub fn new(policy: AutoscalerPolicy) -> Self {
        policy.validate();
        ClusterAutoscaler {
            policy,
            managed: [BTreeSet::new(), BTreeSet::new()],
            next_index: [0, 0],
            below_since: [None, None],
            last_tick: None,
            metrics: ElasticityMetrics::default(),
        }
    }

    /// Elasticity accounting so far.
    pub fn metrics(&self) -> &ElasticityMetrics {
        &self.metrics
    }

    /// One control-loop pass: account wasted capacity for the elapsed
    /// interval, then, per tier, grow on pending pressure or shrink
    /// after a sustained occupancy low.
    pub fn tick(&mut self, orch: &mut Orchestrator, now: SimTime) -> AutoscaleOutcome {
        self.account_waste(orch, now);
        let mut outcome = AutoscaleOutcome::default();
        for tier in TIERS {
            let pressure = tier_pressure(orch, tier, now, self.policy.scale_up_wait);
            if let Some(pressure) = pressure {
                self.below_since[tier.index()] = None;
                self.scale_up(orch, tier, &pressure, now, &mut outcome);
            } else {
                self.maybe_scale_down(orch, tier, now, &mut outcome);
            }
        }
        self.metrics.peak_nodes = self
            .metrics
            .peak_nodes
            .max(orch.cluster().workers().count());
        outcome
    }

    /// Adds `(1 − occupancy) · Δt` node-seconds per managed node for the
    /// interval since the previous tick.
    fn account_waste(&mut self, orch: &Orchestrator, now: SimTime) {
        if let Some(last) = self.last_tick {
            let dt = now.saturating_since(last).as_secs_f64();
            if dt > 0.0 {
                for tier in TIERS {
                    for name in &self.managed[tier.index()] {
                        let Some(node) = orch.cluster().node(name) else {
                            continue;
                        };
                        let (requested, capacity) = tier.load(node);
                        if capacity > 0 {
                            let occupied = (requested as f64 / capacity as f64).min(1.0);
                            self.metrics.wasted_capacity_node_secs += (1.0 - occupied) * dt;
                        }
                    }
                }
            }
        }
        self.last_tick = Some(now);
    }

    fn scale_up(
        &mut self,
        orch: &mut Orchestrator,
        tier: Tier,
        pressure: &TierPressure,
        now: SimTime,
        outcome: &mut AutoscaleOutcome,
    ) {
        let (max_nodes, template) = (self.policy.max_nodes, tier.template());
        let managed = self.managed[tier.index()].len();
        if managed >= max_nodes {
            return;
        }
        // Enough nodes to absorb the pending backlog, at least one, at
        // most the per-tick step and the tier cap.
        let per_node = tier.scarce(template.memory, template.usable_epc()).max(1);
        let wanted = (pressure.pending_bytes.div_ceil(per_node) as usize)
            .clamp(1, self.policy.max_step)
            .min(max_nodes - managed);
        let mut added = 0usize;
        while added < wanted {
            let name = format!("as-{}-{:05}", tier.prefix(), self.next_index[tier.index()]);
            self.next_index[tier.index()] += 1;
            match orch.add_node(name, template, now) {
                Ok(name) => {
                    self.managed[tier.index()].insert(name.clone());
                    outcome.added.push(name);
                    added += 1;
                }
                // Name collision with an unmanaged node: skip that index
                // forever and keep provisioning.
                Err(_) => continue,
            }
        }
        if added > 0 {
            let latency = pressure.oldest_wait.as_secs_f64();
            self.metrics.scale_up_events += 1;
            self.metrics.nodes_added += added as u64;
            self.metrics.scale_up_latency_sum_secs += latency;
            self.metrics.scale_up_latency_count += 1;
            self.metrics.scale_up_latency_max_secs =
                self.metrics.scale_up_latency_max_secs.max(latency);
        }
    }

    /// Shrinks the tier by one node per tick once its occupancy has
    /// stayed under the low-water mark for the cooldown. The victim is
    /// the emptiest managed, uncordoned node (fewest pods, then least
    /// requested, then name), and only if the tier's total requests
    /// still fit without it — a drain that cannot relocate its pods
    /// would just bounce them through the queue.
    #[deny(clippy::float_arithmetic)]
    fn maybe_scale_down(
        &mut self,
        orch: &mut Orchestrator,
        tier: Tier,
        now: SimTime,
        outcome: &mut AutoscaleOutcome,
    ) {
        if self.managed[tier.index()].is_empty() {
            self.below_since[tier.index()] = None;
            return;
        }
        let (requested, capacity) = tier_totals(orch, tier);
        if capacity == 0 {
            self.below_since[tier.index()] = None;
            return;
        }
        let occupancy = Ratio::new(requested.into(), capacity.into());
        if occupancy >= self.policy.low_water {
            self.below_since[tier.index()] = None;
            return;
        }
        let since = *self.below_since[tier.index()].get_or_insert(now);
        if now.saturating_since(since) < self.policy.scale_down_after {
            return;
        }
        let Some((victim, victim_capacity)) = self.pick_victim(orch, tier) else {
            return;
        };
        if requested > capacity.saturating_sub(victim_capacity) {
            return; // the rest of the tier cannot absorb the victim's pods
        }
        match orch.remove_node(&victim, now) {
            Ok(removal) => {
                self.managed[tier.index()].remove(&victim);
                self.metrics.scale_down_events += 1;
                self.metrics.nodes_removed += 1;
                self.metrics.requeued_pods += removal.requeued.len() as u64;
                outcome.removed.push((victim, removal));
                // Re-arm the cooldown so the tier shrinks one node per
                // cooldown window, not one per tick.
                self.below_since[tier.index()] = Some(now);
            }
            Err(_) => {
                // The node vanished behind our back (e.g. removed via
                // cluster_mut); stop tracking it.
                self.managed[tier.index()].remove(&victim);
            }
        }
    }

    /// The victim and its capacity of the tier's scarce resource.
    fn pick_victim(&self, orch: &Orchestrator, tier: Tier) -> Option<(NodeName, u64)> {
        self.managed[tier.index()]
            .iter()
            .filter_map(|name| {
                let node = orch.cluster().node(name)?;
                if node.is_cordoned() {
                    return None;
                }
                let (requested, capacity) = tier.load(node);
                Some((node.pods().len(), requested, name.clone(), capacity))
            })
            .min()
            .map(|(_, _, name, capacity)| (name, capacity))
    }
}

/// The tier's pending pressure, or `None` when it is under both
/// thresholds (no pod waited past `scale_up_wait` and pending requests
/// fit in the tier's spare capacity).
fn tier_pressure(
    orch: &Orchestrator,
    tier: Tier,
    now: SimTime,
    scale_up_wait: SimDuration,
) -> Option<TierPressure> {
    let tier_pods = orch
        .queue()
        .iter()
        .filter(|pod| pod.spec.needs_sgx() == (tier == Tier::Sgx));
    let mut pending_bytes = 0u64;
    let mut oldest = None;
    for pod in tier_pods {
        pending_bytes += tier.request(&pod.spec);
        oldest = Some(oldest.map_or(pod.submitted_at, |t: SimTime| t.min(pod.submitted_at)));
    }
    let oldest_wait = now.saturating_since(oldest?);
    let (requested, capacity) = tier_totals(orch, tier);
    let spare = capacity.saturating_sub(requested);
    let pressured = oldest_wait >= scale_up_wait || pending_bytes > spare;
    pressured.then_some(TierPressure {
        oldest_wait,
        pending_bytes,
    })
}

/// Requested and capacity totals of the tier's scarce resource across
/// its uncordoned workers, in bytes.
fn tier_totals(orch: &Orchestrator, tier: Tier) -> (u64, u64) {
    orch.cluster()
        .schedulable_nodes()
        .filter(|node| node.has_sgx() == (tier == Tier::Sgx))
        .map(|node| tier.load(node))
        .fold((0, 0), |(r, c), (dr, dc)| (r + dr, c + dc))
}

/// One long-running service group the [`PodGroupAutoscaler`] manages.
#[derive(Debug, Clone, PartialEq)]
pub struct PodGroupSpec {
    /// Group name (replica pods are named `{name}-r{index}`).
    pub name: String,
    /// Whether replicas run in enclaves (EPC requests) or plain memory.
    pub sgx: bool,
    /// Resource request of one replica (EPC when `sgx`, memory
    /// otherwise).
    pub replica_request: ByteSize,
    /// Replicas the group never shrinks below while its profile is live.
    pub min_replicas: usize,
    /// Replicas the group never grows beyond.
    pub max_replicas: usize,
    /// Offered load one replica serves.
    pub capacity_per_replica: f64,
    /// Piecewise-linear offered-load profile: `(t_secs, load)`
    /// breakpoints in ascending time order. Load is interpolated between
    /// breakpoints, holds the first value before the first breakpoint,
    /// and is **zero after the last** — so a finite profile always
    /// drains its group and the replay terminates.
    pub profile: Vec<(u64, f64)>,
}

impl PodGroupSpec {
    /// Panics unless the group is well-formed.
    ///
    /// # Panics
    ///
    /// Panics when `capacity_per_replica` is not positive and finite,
    /// `min_replicas > max_replicas`, the profile is empty or not in
    /// ascending time order, or a load value is negative or non-finite.
    pub fn validate(&self) {
        assert!(
            self.capacity_per_replica.is_finite() && self.capacity_per_replica > 0.0,
            "pod group {}: capacity_per_replica must be positive",
            self.name
        );
        assert!(
            self.min_replicas <= self.max_replicas,
            "pod group {}: min_replicas exceeds max_replicas",
            self.name
        );
        assert!(
            !self.profile.is_empty(),
            "pod group {}: empty load profile",
            self.name
        );
        for pair in self.profile.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "pod group {}: profile breakpoints must ascend",
                self.name
            );
        }
        for &(_, load) in &self.profile {
            assert!(
                load.is_finite() && load >= 0.0,
                "pod group {}: loads must be finite and non-negative",
                self.name
            );
        }
    }

    /// Offered load at `now`: linear interpolation within the profile,
    /// first value before it, zero after it.
    pub(crate) fn load_at(&self, now: SimTime) -> f64 {
        let t = now.saturating_since(SimTime::ZERO).as_secs_f64();
        let first = self.profile[0];
        if t <= first.0 as f64 {
            return first.1;
        }
        for pair in self.profile.windows(2) {
            let (t0, l0) = (pair[0].0 as f64, pair[0].1);
            let (t1, l1) = (pair[1].0 as f64, pair[1].1);
            if t <= t1 {
                return l0 + (l1 - l0) * (t - t0) / (t1 - t0);
            }
        }
        0.0
    }

    /// Desired replica count at `now`: `ceil(load / capacity_per_replica)`
    /// clamped into `[min_replicas, max_replicas]` while the profile is
    /// live, zero once it ended (so the group drains).
    pub(crate) fn desired_replicas(&self, now: SimTime) -> usize {
        let t = now.saturating_since(SimTime::ZERO).as_secs_f64();
        let end = self.profile.last().expect("validated non-empty").0 as f64;
        if t > end {
            return 0;
        }
        let load = self.load_at(now);
        ((load / self.capacity_per_replica).ceil() as usize)
            .clamp(self.min_replicas, self.max_replicas)
    }

    /// When the profile ends (after which the desired count is zero).
    pub(crate) fn profile_end(&self) -> SimTime {
        SimTime::from_secs(self.profile.last().expect("validated non-empty").0)
    }

    fn replica_spec(&self, index: u64, now: SimTime) -> PodSpec {
        // Replicas are retired by the controller, not by expiry; the
        // duration is a backstop slightly past the profile so an
        // un-retired replica cannot outlive the replay.
        let backstop = self
            .profile_end()
            .saturating_since(now)
            .max(SimDuration::from_secs(1))
            + SimDuration::from_secs(3_600);
        let builder = PodSpec::builder(format!("{}-r{index}", self.name));
        let builder = if self.sgx {
            builder.sgx_resources(self.replica_request)
        } else {
            builder.memory_resources(self.replica_request)
        };
        builder.duration(backstop).build()
    }
}

/// One group's live state.
#[derive(Debug, Clone)]
struct PodGroupState {
    spec: PodGroupSpec,
    /// Replicas submitted and not yet retired or finished, oldest first.
    active: Vec<PodUid>,
    next_index: u64,
    peak_replicas: usize,
    /// Externally offered load (streaming frontends drive this through
    /// [`PodGroupAutoscaler::set_offered_load`]); when set it replaces
    /// the spec's profile entirely. `Some(0.0)` drains the group below
    /// `min_replicas`.
    load_override: Option<f64>,
}

/// The horizontal pod-group autoscaler: reconciles each group's live
/// replica count against its offered-load profile every tick.
#[derive(Debug, Clone)]
pub struct PodGroupAutoscaler {
    groups: Vec<PodGroupState>,
}

impl PodGroupAutoscaler {
    /// A controller over the given groups (each validated eagerly).
    ///
    /// # Panics
    ///
    /// Panics when a group fails [`PodGroupSpec::validate`].
    pub fn new(groups: Vec<PodGroupSpec>) -> Self {
        for group in &groups {
            group.validate();
        }
        PodGroupAutoscaler {
            groups: groups
                .into_iter()
                .map(|spec| PodGroupState {
                    spec,
                    active: Vec::new(),
                    next_index: 0,
                    peak_replicas: 0,
                    load_override: None,
                })
                .collect(),
        }
    }

    /// `true` once every group's profile ended (or its load override was
    /// driven to zero) and no replica is live — the controller will
    /// never act again unless a new load arrives.
    pub fn is_drained(&self, now: SimTime) -> bool {
        self.groups.iter().all(|g| {
            g.active.is_empty()
                && match g.load_override {
                    Some(load) => load <= 0.0,
                    None => now > g.spec.profile_end(),
                }
        })
    }

    /// Overrides the named group's offered load (replacing its profile
    /// until further notice): the next reconcile targets
    /// `ceil(load / capacity_per_replica)` clamped into
    /// `[min_replicas, max_replicas]`, or zero — draining below
    /// `min_replicas` — when `load` is not positive. Returns `false`
    /// when no group has that name.
    pub fn set_offered_load(&mut self, group: &str, load: f64) -> bool {
        match self.groups.iter_mut().find(|g| g.spec.name == group) {
            Some(state) => {
                state.load_override = Some(load);
                true
            }
            None => false,
        }
    }

    /// Highest live replica count each group reached, in group order.
    pub fn peak_replicas(&self) -> Vec<(String, usize)> {
        self.groups
            .iter()
            .map(|g| (g.spec.name.clone(), g.peak_replicas))
            .collect()
    }

    /// One reconcile pass: drop finished replicas from the books, then
    /// submit up to the desired count or retire the newest *running*
    /// replicas down to it (still-pending surplus replicas are retired
    /// on a later tick, once running — the queue cannot be cancelled
    /// into).
    pub fn tick(&mut self, orch: &mut Orchestrator, now: SimTime) -> AutoscaleOutcome {
        let mut outcome = AutoscaleOutcome::default();
        for group in &mut self.groups {
            outcome.merge(group.reconcile(orch, now));
        }
        outcome
    }
}

impl PodGroupState {
    fn reconcile(&mut self, orch: &mut Orchestrator, now: SimTime) -> AutoscaleOutcome {
        let mut outcome = AutoscaleOutcome::default();
        // Replicas that finished (backstop expiry) or were denied leave
        // the books; the desired count below re-submits if still needed.
        self.active.retain(|uid| {
            matches!(
                orch.record(*uid).map(|r| &r.outcome),
                Some(PodOutcome::Pending | PodOutcome::Running { .. })
            )
        });
        let desired = match self.load_override {
            Some(load) if load > 0.0 => ((load / self.spec.capacity_per_replica).ceil() as usize)
                .clamp(self.spec.min_replicas, self.spec.max_replicas),
            Some(_) => 0,
            None => self.spec.desired_replicas(now),
        };
        if self.active.len() < desired {
            for _ in self.active.len()..desired {
                let spec = self.spec.replica_spec(self.next_index, now);
                self.next_index += 1;
                let uid = orch.submit(spec, now);
                self.active.push(uid);
                outcome.submitted.push(uid);
            }
        } else if self.active.len() > desired {
            let mut surplus = self.active.len() - desired;
            // Newest-first retirement, running replicas only.
            let mut keep = Vec::with_capacity(self.active.len());
            for &uid in self.active.iter().rev() {
                let running = matches!(
                    orch.record(uid).map(|r| &r.outcome),
                    Some(PodOutcome::Running { .. })
                );
                if surplus > 0 && running && orch.complete_pod(uid, now).is_ok() {
                    surplus -= 1;
                    outcome.retired.push(uid);
                } else {
                    keep.push(uid);
                }
            }
            keep.reverse();
            self.active = keep;
        }
        self.peak_replicas = self.peak_replicas.max(self.active.len());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::OrchestratorConfig;
    use cluster::node::NodeRole;
    use cluster::topology::ClusterSpec;

    /// Master + one node per tier: the smallest cluster where both
    /// tiers exist (admission rejects pods no tier could ever hold).
    fn small_orchestrator() -> Orchestrator {
        let spec = ClusterSpec::new()
            .with_node("master", MachineSpec::dell_r330(), NodeRole::Master)
            .with_node("sgx-0", MachineSpec::sgx_node(), NodeRole::Worker)
            .with_node("std-0", MachineSpec::dell_r330(), NodeRole::Worker);
        Orchestrator::new(spec, OrchestratorConfig::paper())
    }

    /// Nodes the autoscaler provisioned that are still registered.
    fn autoscaled(orch: &Orchestrator) -> usize {
        let provisioned = |n: &&cluster::node::Node| n.name().as_str().starts_with("as-");
        orch.cluster().nodes().filter(provisioned).count()
    }

    fn quick_policy() -> AutoscalerPolicy {
        AutoscalerPolicy::paper_defaults()
            .with_scale_up_wait(SimDuration::from_secs(30))
            .with_scale_down_after(SimDuration::from_secs(120))
            .with_max_nodes(16)
            .with_max_step(4)
    }

    fn sgx_spec(name: &str, mib: u64) -> PodSpec {
        PodSpec::builder(name)
            .sgx_resources(sgx_sim::units::ByteSize::from_mib(mib))
            .duration(SimDuration::from_secs(600))
            .build()
    }

    #[test]
    fn scales_up_the_sgx_tier_under_queue_pressure() {
        let mut orch = small_orchestrator();
        let mut scaler = ClusterAutoscaler::new(quick_policy());
        // Three 60 MiB SGX pods against one 93.5 MiB node: one runs, two
        // queue. Their pending 120 MiB exceeds the tier's ~33.5 MiB
        // spare, so the very first tick scales up — no need to wait out
        // the latency threshold.
        for i in 0..3 {
            orch.submit(sgx_spec(&format!("p{i}"), 60), SimTime::ZERO);
        }
        orch.scheduler_pass(SimTime::from_secs(5));
        assert_eq!(orch.queue().len(), 2);
        let outcome = scaler.tick(&mut orch, SimTime::from_secs(10));
        assert_eq!(outcome.added.len(), 2, "120 MiB deficit needs two nodes");
        assert!(outcome.added[0].as_str().starts_with("as-sgx-"));
        assert!(outcome.removed.is_empty());
        let metrics = scaler.metrics();
        assert_eq!(metrics.scale_up_events, 1);
        assert_eq!(metrics.nodes_added, 2);
        assert_eq!(metrics.scale_up_latency_count, 1);
        // The queue drains onto the new capacity.
        let outcomes = orch.scheduler_pass(SimTime::from_secs(15));
        assert_eq!(outcomes.len(), 2);
        assert!(orch.queue().is_empty());
        // The standard tier saw no pressure and did not move.
        assert!(outcome.added.iter().all(|n| n.as_str().contains("sgx")));
    }

    #[test]
    fn scales_down_after_sustained_low_occupancy() {
        let mut orch = small_orchestrator();
        let mut scaler = ClusterAutoscaler::new(quick_policy());
        for i in 0..3 {
            orch.submit(sgx_spec(&format!("p{i}"), 60), SimTime::ZERO);
        }
        orch.scheduler_pass(SimTime::from_secs(5));
        scaler.tick(&mut orch, SimTime::from_secs(10));
        orch.scheduler_pass(SimTime::from_secs(15));
        assert_eq!(autoscaled(&orch), 2);
        // All pods finish: the tier idles below the low-water mark, but
        // scale-down waits out the cooldown...
        for uid in orch.records().keys().copied().collect::<Vec<_>>() {
            orch.complete_pod(uid, SimTime::from_secs(20)).unwrap();
        }
        let outcome = scaler.tick(&mut orch, SimTime::from_secs(30));
        assert!(outcome.removed.is_empty(), "cooldown not yet elapsed");
        // ...then removes ONE node per elapsed cooldown window.
        let outcome = scaler.tick(&mut orch, SimTime::from_secs(30 + 120));
        assert_eq!(outcome.removed.len(), 1);
        assert_eq!(autoscaled(&orch), 1);
        let outcome = scaler.tick(&mut orch, SimTime::from_secs(30 + 240));
        assert_eq!(outcome.removed.len(), 1);
        assert_eq!(autoscaled(&orch), 0);
        // Baseline nodes are never candidates: further idle ticks are
        // no-ops even at zero occupancy.
        let outcome = scaler.tick(&mut orch, SimTime::from_secs(30 + 3600));
        assert!(outcome.is_empty());
        assert!(orch.cluster().node(&NodeName::new("sgx-0")).is_some());
        assert!(orch.cluster().node(&NodeName::new("std-0")).is_some());
        let metrics = scaler.metrics();
        assert_eq!(metrics.nodes_removed, 2);
        assert_eq!(metrics.scale_down_events, 2);
        assert!(metrics.wasted_capacity_node_secs > 0.0);
        assert!(metrics.peak_nodes >= 4);
    }

    #[test]
    fn latency_threshold_triggers_even_when_pending_fits_spare() {
        let mut orch = small_orchestrator();
        let mut scaler = ClusterAutoscaler::new(quick_policy());
        // 60 + 20 MiB: the second pod fits the spare 33.5 MiB by bytes,
        // but fragmentation keeps it queued; only the waited-too-long
        // trigger can see that.
        orch.submit(sgx_spec("big", 60), SimTime::ZERO);
        orch.submit(sgx_spec("small", 20), SimTime::ZERO);
        // Starve the queue by scheduling only the first pod.
        orch.scheduler_pass(SimTime::from_secs(5));
        if orch.queue().is_empty() {
            return; // both placed: nothing to observe on this topology
        }
        let early = scaler.tick(&mut orch, SimTime::from_secs(10));
        assert!(early.added.is_empty(), "under both thresholds");
        let late = scaler.tick(&mut orch, SimTime::from_secs(40));
        assert_eq!(late.added.len(), 1, "oldest_wait exceeded scale_up_wait");
        assert!(scaler.metrics().scale_up_latency_max_secs >= 30.0);
    }

    #[test]
    fn pod_group_tracks_its_load_profile() {
        let mut orch = small_orchestrator();
        let group = PodGroupSpec {
            name: "web".into(),
            sgx: false,
            replica_request: ByteSize::from_gib(1),
            min_replicas: 0,
            max_replicas: 10,
            capacity_per_replica: 1.0,
            profile: vec![(0, 2.0), (600, 2.0)],
        };
        assert_eq!(group.desired_replicas(SimTime::from_secs(300)), 2);
        assert_eq!(group.desired_replicas(SimTime::from_secs(601)), 0);
        let mut hpa = PodGroupAutoscaler::new(vec![group]);
        let grow = hpa.tick(&mut orch, SimTime::from_secs(30));
        assert_eq!(grow.submitted.len(), 2);
        orch.scheduler_pass(SimTime::from_secs(35));
        // Steady state: desired == alive, nothing changes.
        let steady = hpa.tick(&mut orch, SimTime::from_secs(300));
        assert!(steady.is_empty());
        assert!(!hpa.is_drained(SimTime::from_secs(300)));
        // Past the profile end the group drains to zero.
        let shrink = hpa.tick(&mut orch, SimTime::from_secs(601));
        assert_eq!(shrink.retired.len(), 2);
        assert!(hpa.is_drained(SimTime::from_secs(601)));
        assert_eq!(hpa.peak_replicas(), vec![("web".to_string(), 2)]);
        for uid in shrink.retired {
            assert!(matches!(
                orch.record(uid).unwrap().outcome,
                crate::server::PodOutcome::Completed { .. }
            ));
        }
    }

    #[test]
    fn offered_load_override_replaces_the_profile() {
        let mut orch = small_orchestrator();
        let mut hpa = PodGroupAutoscaler::new(vec![PodGroupSpec {
            name: "api".into(),
            sgx: false,
            replica_request: ByteSize::from_gib(1),
            min_replicas: 1,
            max_replicas: 8,
            capacity_per_replica: 100.0,
            // Trivial profile: frontend-driven groups carry no schedule
            // of their own.
            profile: vec![(0, 0.0)],
        }]);
        assert!(!hpa.set_offered_load("nope", 1.0), "unknown group");
        assert!(hpa.set_offered_load("api", 350.0));
        let grow = hpa.tick(&mut orch, SimTime::from_secs(10));
        assert_eq!(grow.submitted.len(), 4, "ceil(350/100) = 4");
        orch.scheduler_pass(SimTime::from_secs(15));
        assert!(!hpa.is_drained(SimTime::from_secs(15)));
        // Positive load below one replica's capacity keeps the floor.
        assert!(hpa.set_offered_load("api", 20.0));
        let shrink = hpa.tick(&mut orch, SimTime::from_secs(30));
        assert_eq!(shrink.retired.len(), 3, "down to min_replicas");
        assert!(!hpa.is_drained(SimTime::from_secs(30)));
        // Zero load drains below min_replicas and the controller rests.
        assert!(hpa.set_offered_load("api", 0.0));
        let drain = hpa.tick(&mut orch, SimTime::from_secs(50));
        assert_eq!(drain.retired.len(), 1);
        assert!(hpa.is_drained(SimTime::from_secs(50)));
        assert_eq!(hpa.peak_replicas(), vec![("api".to_string(), 4)]);
    }

    #[test]
    fn load_profile_interpolates_linearly() {
        let group = PodGroupSpec {
            name: "ramp".into(),
            sgx: true,
            replica_request: ByteSize::from_mib(16),
            min_replicas: 1,
            max_replicas: 4,
            capacity_per_replica: 2.0,
            profile: vec![(0, 0.0), (100, 10.0)],
        };
        group.validate();
        assert_eq!(group.load_at(SimTime::from_secs(50)), 5.0);
        assert_eq!(group.load_at(SimTime::from_secs(100)), 10.0);
        assert_eq!(group.load_at(SimTime::from_secs(101)), 0.0);
        // ceil(5/2)=3 replicas mid-ramp; clamped to max at the top.
        assert_eq!(group.desired_replicas(SimTime::from_secs(50)), 3);
        assert_eq!(group.desired_replicas(SimTime::from_secs(100)), 4);
        // Clamped to min while the profile is live, zero after.
        assert_eq!(group.desired_replicas(SimTime::ZERO), 1);
        assert_eq!(group.desired_replicas(SimTime::from_secs(200)), 0);
    }

    #[test]
    #[should_panic(expected = "low_water")]
    fn low_water_out_of_range_is_rejected() {
        let _ = ClusterAutoscaler::new(AutoscalerPolicy::paper_defaults().with_low_water(1.5));
    }

    #[test]
    #[should_panic(expected = "breakpoints")]
    fn unsorted_profile_is_rejected() {
        let _ = PodGroupAutoscaler::new(vec![PodGroupSpec {
            name: "bad".into(),
            sgx: false,
            replica_request: ByteSize::from_mib(1),
            min_replicas: 0,
            max_replicas: 1,
            capacity_per_replica: 1.0,
            profile: vec![(100, 1.0), (50, 1.0)],
        }]);
    }
}
