//! The discrete-event replay loop.

use std::collections::BTreeMap;
use std::fmt;

use borg_trace::frontend::{FrontendHint, TraceFrontend, WorkloadEvent};
use borg_trace::WorkloadJob;
use cluster::api::{NodeName, PodSpec, PodUid, ResourceRequirements, Resources};
use des::stats::TimeSeries;
use des::{EventQueue, SimDuration, SimTime};
use orchestrator::autoscale::{
    AutoscaleOutcome, ClusterAutoscaler, ElasticityMetrics, PodGroupAutoscaler, PodGroupSpec,
};
use orchestrator::events::ClusterEvent;
use orchestrator::{Migration, Orchestrator, PodOutcome, PodRecord};
use sgx_sim::units::{ByteSize, EpcPages};
use stress::Stressor;
use tsdb::PointBatch;

use crate::chaos::{FaultInjector, FaultStats, FrameFate};
use crate::config::ReplayConfig;

/// Events driving the replay. Job submissions are *not* queue events:
/// the loop pulls them lazily from the [`TraceFrontend`], holding one
/// lookahead event, and interleaves them with the queue by time (the
/// frontend wins ties, which reproduces the legacy ordering where all
/// pre-scheduled submits carried the lowest sequence numbers).
#[derive(Debug, Clone)]
enum Event {
    /// Submit the malicious squatters (Fig. 11).
    SubmitMalicious,
    /// Periodic scheduling pass.
    SchedulerTick,
    /// Periodic probe scrape.
    ProbeTick,
    /// A running pod finished its useful work. The generation counter
    /// guards against stale events: a pod killed by a node crash and
    /// rescheduled gets a new generation, so the old finish is ignored.
    PodFinish(PodUid, u32),
    /// Injected node crash (index into `config.failures`).
    NodeFail(usize),
    /// The crashed node registers back.
    NodeRecover(usize),
    /// Periodic EPC rebalancing pass (§VIII): live-migrates SGX pods from
    /// the most- to the least-loaded node while the imbalance exceeds the
    /// configured threshold. Migrated pods' in-flight finishes are
    /// invalidated and rescheduled shifted by the transfer delay.
    RebalanceTick,
    /// Periodic autoscaling pass: the cluster autoscaler grows/shrinks
    /// the node tiers from pending-queue pressure, then the pod-group
    /// autoscaler reconciles service replica counts. Armed like
    /// [`Event::SchedulerTick`]; stays armed while service groups are
    /// live even if the batch workload has drained.
    AutoscaleTick,
    /// Injected maintenance window opens (index into `config.drains`):
    /// cordon the node and live-migrate its pods away.
    DrainNode(usize),
    /// The maintenance window closes: un-cordon the node.
    UncordonNode(usize),
    /// A delayed or retried probe frame reaches the database. Only
    /// exists under fault injection: un-delayed frames deliver inline
    /// during [`Event::ProbeTick`], so a fault-free replay schedules none
    /// of these. Boxed, so the event stays as small as a finish.
    FrameDelivery(Box<InFlightFrame>),
}

/// A probe frame held by the fault injector: scraped at `scraped_at`,
/// delivered later.
#[derive(Debug, Clone)]
struct InFlightFrame {
    /// Node the frame was scraped from.
    node: NodeName,
    /// The scraped rows.
    batch: PointBatch,
    /// When the samples were taken — freshness and insert timestamps
    /// follow this, not the delivery instant.
    scraped_at: SimTime,
    /// Delivery attempts so far (bounds the retry backoff).
    attempts: u32,
}

/// A pod's finish bookkeeping, kept from its first bind until it
/// completes.
#[derive(Default)]
struct Finish {
    /// Bumped whenever a scheduled [`Event::PodFinish`] goes stale: a pod
    /// killed by a node crash and rescheduled gets a new generation, so
    /// the old event is ignored when it fires.
    generation: u32,
    /// The in-flight finish instant while the pod runs, so a live
    /// migration can shift it by its transfer delay (downtime →
    /// turnaround).
    at: Option<SimTime>,
}

/// Where a submitted pod came from: one entry a pod, in the engine's
/// origin table.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// A frontend submission, with whether the frontend flagged it
    /// hostile.
    Job { job: WorkloadJob, hostile: bool },
    /// One of the injected malicious squatters (Fig. 11), which have no
    /// trace job.
    Malicious,
    /// A service replica the pod-group controller submitted:
    /// infrastructure, not a job, so it stays out of `runs`.
    Replica,
}

impl Origin {
    /// The run a pod of this origin adds to the result, if it is a job.
    fn into_run(self, record: PodRecord) -> Option<JobRun> {
        let (job, malicious) = match self {
            Origin::Job { job, hostile } => (Some(job), hostile),
            Origin::Malicious => (None, true),
            Origin::Replica => return None,
        };
        Some(JobRun {
            job,
            record,
            malicious,
        })
    }
}

/// One submitted pod with its provenance, after the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// The workload job this pod came from; `None` for the injected
    /// malicious squatters, which have no trace job.
    pub job: Option<WorkloadJob>,
    /// The orchestrator's lifecycle record.
    pub record: PodRecord,
    /// `true` for the injected malicious squatters (Fig. 11) and for
    /// frontend submissions flagged hostile.
    pub malicious: bool,
}

impl JobRun {
    /// `true` for honest (trace-derived) jobs.
    pub(crate) fn honest(&self) -> bool {
        !self.malicious
    }
}

/// Everything a replay produces.
#[derive(Clone)]
pub struct ReplayResult {
    runs: Vec<JobRun>,
    pending_epc_series: TimeSeries,
    pending_memory_series: TimeSeries,
    epc_imbalance_series: TimeSeries,
    migration_count: u64,
    migration_downtime: SimDuration,
    events: Vec<ClusterEvent>,
    end_time: SimTime,
    timed_out: bool,
    fault_stats: FaultStats,
    degraded_decisions: u64,
    elasticity: Option<ElasticityMetrics>,
    group_peak_replicas: Vec<(String, usize)>,
}

// Hand-written so a replay without autoscaling formats exactly like the
// pre-autoscaling derived `Debug` — the policy-golden digests hash this
// output, and an always-present `elasticity: None` would shift every
// digest without any behavioural change. The autoscale fields appear
// only when the controllers ran.
impl fmt::Debug for ReplayResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("ReplayResult");
        s.field("runs", &self.runs)
            .field("pending_epc_series", &self.pending_epc_series)
            .field("pending_memory_series", &self.pending_memory_series)
            .field("epc_imbalance_series", &self.epc_imbalance_series)
            .field("migration_count", &self.migration_count)
            .field("migration_downtime", &self.migration_downtime)
            .field("events", &self.events)
            .field("end_time", &self.end_time)
            .field("timed_out", &self.timed_out)
            .field("fault_stats", &self.fault_stats)
            .field("degraded_decisions", &self.degraded_decisions);
        if self.elasticity.is_some() || !self.group_peak_replicas.is_empty() {
            s.field("elasticity", &self.elasticity)
                .field("group_peak_replicas", &self.group_peak_replicas);
        }
        s.finish()
    }
}

impl ReplayResult {
    /// All submitted pods with their records, in submission order.
    pub fn runs(&self) -> &[JobRun] {
        &self.runs
    }

    /// Honest (trace-derived) runs only.
    pub fn honest_runs(&self) -> impl Iterator<Item = &JobRun> {
        self.runs.iter().filter(|r| r.honest())
    }

    /// Total EPC requested by pending pods over time, in MiB — the Fig. 7
    /// series (sampled after every scheduling pass).
    pub fn pending_epc_series(&self) -> &TimeSeries {
        &self.pending_epc_series
    }

    /// Total ordinary memory requested by pending pods over time, in MiB.
    pub fn pending_memory_series(&self) -> &TimeSeries {
        &self.pending_memory_series
    }

    /// Per-node EPC-load imbalance over time: the spread between the
    /// most- and least-loaded SGX node's requested-EPC fraction, sampled
    /// after every scheduling pass and every rebalance/drain. The series
    /// the rebalance-on/off experiments compare.
    pub fn epc_imbalance_series(&self) -> &TimeSeries {
        &self.epc_imbalance_series
    }

    /// Number of live migrations performed (rebalance passes + drains).
    pub fn migration_count(&self) -> u64 {
        self.migration_count
    }

    /// Total downtime migrated pods accumulated (the sum of transfer
    /// delays); every second of it is also reflected in the affected
    /// pods' turnaround times.
    pub fn migration_downtime(&self) -> SimDuration {
        self.migration_downtime
    }

    /// The orchestrator's cluster event stream, for audit assertions
    /// (`kubectl get events` after the fact). Bounded by the event log's
    /// capacity; oldest entries may have been evicted on huge replays.
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Instant the last event fired (replay makespan).
    pub fn end_time(&self) -> SimTime {
        self.end_time
    }

    /// `true` when the replay hit the configured time cap before draining.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Tally of everything the fault injector did to the metrics
    /// pipeline. All-zero when the configured
    /// [`FaultPlan`](crate::chaos::FaultPlan) was a no-op.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Number of scheduling decisions the orchestrator bound while at
    /// least one node's metrics were stale (requests-only fallback in
    /// effect for the degraded nodes).
    pub fn degraded_decisions(&self) -> u64 {
        self.degraded_decisions
    }

    /// Elasticity accounting of the cluster autoscaler (scale events,
    /// scale-up latency, wasted capacity, peak node count); `None` when
    /// the replay ran with autoscaling disabled.
    pub fn elasticity(&self) -> Option<&ElasticityMetrics> {
        self.elasticity.as_ref()
    }

    /// Highest live replica count each autoscaled pod group reached, in
    /// group order. Empty without pod groups.
    pub fn group_peak_replicas(&self) -> &[(String, usize)] {
        &self.group_peak_replicas
    }

    /// Number of pods that completed normally.
    pub fn completed_count(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r.record.outcome, PodOutcome::Completed { .. }))
            .count()
    }

    /// Number of pods the driver killed at launch.
    pub fn denied_count(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r.record.outcome, PodOutcome::Denied { .. }))
            .count()
    }

    /// Number of pods that could never fit the cluster.
    pub fn unschedulable_count(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.record.outcome == PodOutcome::Unschedulable)
            .count()
    }
}

/// Pod-group reconcile cadence used when a frontend announces service
/// groups but the replay has no explicit autoscale configuration.
pub(crate) const DEFAULT_GROUP_AUTOSCALE_PERIOD: SimDuration = SimDuration::from_secs(15);

/// Replays a streaming [`TraceFrontend`] against a freshly built
/// cluster and orchestrator — the one entry point; an already
/// materialised [`borg_trace::Workload`] goes through
/// [`MaterializedFrontend`](borg_trace::frontend::MaterializedFrontend).
///
/// Submissions are pulled lazily — the loop holds one lookahead event —
/// so the trace is never materialised. What the loop holds splits in
/// two:
///
/// * **In-flight pods and live nodes:** the event queue, the pending
///   queue, the finish table, the cluster, and the metrics store and
///   its rollup (bounded by the retention window).
/// * **Total jobs:** each pod's history — its record in the
///   orchestrator's pod table (120 bytes plus its name) and its entry in
///   the origin table (56 bytes) — the event log, up to its 100,000
///   entries, and at the end the result's runs, which the records move
///   into.
///
/// Service groups announced in the frontend's hint are handed to the
/// pod-group autoscaler (created on demand, ticking every
/// `DEFAULT_GROUP_AUTOSCALE_PERIOD`, when `config.autoscale` is off)
/// and driven by the frontend's [`WorkloadEvent::GroupLoad`] events.
///
/// The loop is fully deterministic for a given `(frontend, config)` pair.
pub fn replay_stream(frontend: &mut dyn TraceFrontend, config: &ReplayConfig) -> ReplayResult {
    let mut engine = Engine::new(&frontend.hint(), config);
    engine.run(frontend);
    engine.into_result()
}

/// The event loop's state: [`run`](Self::run) drives it, one handler
/// per event kind mutates it, and the caller then either builds a
/// [`ReplayResult`] from it or (online mode) counts outcomes straight
/// from the orchestrator's records.
pub(crate) struct Engine<'a> {
    config: &'a ReplayConfig,
    pub(crate) orch: Orchestrator,
    events: EventQueue<Event>,
    /// One lookahead frontend event: the stream never materialises more
    /// than a single job ahead of the simulation clock.
    next_fe: Option<WorkloadEvent>,
    cap: SimTime,
    end_time: SimTime,
    timed_out: bool,
    cluster_as: Option<ClusterAutoscaler>,
    groups_as: Option<PodGroupAutoscaler>,
    autoscale_period: Option<SimDuration>,
    /// Where each pod came from, indexed like the orchestrator's
    /// [`PodTable`](orchestrator::PodTable): by uid − 1.
    origins: Vec<Origin>,
    finishes: BTreeMap<PodUid, Finish>,
    running: usize,
    /// The malicious tenant is a queue event, not a frontend event; its
    /// own flag keeps the periodic loops armed until it lands.
    malicious_pending: bool,
    // The periodic loops de-arm themselves when the cluster drains and
    // are re-armed by the next submission.
    sched_armed: bool,
    probe_armed: bool,
    rebalance_armed: bool,
    autoscale_armed: bool,
    pending_epc_series: TimeSeries,
    pending_memory_series: TimeSeries,
    epc_imbalance_series: TimeSeries,
    migration_count: u64,
    migration_downtime: SimDuration,
    /// Fault injection: a no-op plan never constructs the injector, so
    /// the replay is structurally identical to the pre-chaos engine
    /// (bit-identity property-tested in tests/chaos_props.rs).
    injector: Option<FaultInjector>,
}

impl<'a> Engine<'a> {
    /// Builds the cluster, orchestrator and controllers and schedules
    /// the configured injections and the first tick of every loop.
    pub(crate) fn new(hint: &FrontendHint, config: &'a ReplayConfig) -> Self {
        let mut orch = Orchestrator::new(config.cluster.clone(), config.orchestrator.clone());
        orch.set_enforce_limits(config.enforce_limits);
        if let Some(model) = config.cost_model {
            for node in orch.cluster_mut().nodes_mut() {
                node.set_cost_model(model);
            }
        }

        // Every job contributes (usually) a PodFinish, the periodic loops
        // keep at most one in-flight event each, and each injected failure
        // or drain adds an open/close pair — so ~2 events per expected job
        // plus a small constant bounds the heap's high-water mark.
        let event_estimate =
            hint.expected_jobs * 2 + config.failures.len() * 2 + config.drains.len() * 2 + 8;
        let mut events: EventQueue<Event> = EventQueue::with_capacity(event_estimate);
        if let Some(mal) = &config.malicious {
            events.schedule(
                SimTime::from_secs(mal.submit_at_secs),
                Event::SubmitMalicious,
            );
        }
        for (index, failure) in config.failures.iter().enumerate() {
            let at = SimTime::from_secs(failure.fail_at_secs);
            events.schedule(at, Event::NodeFail(index));
            events.schedule(at + failure.down_for, Event::NodeRecover(index));
        }
        for (index, drain) in config.drains.iter().enumerate() {
            let at = SimTime::from_secs(drain.drain_at_secs);
            events.schedule(at, Event::DrainNode(index));
            events.schedule(at + drain.down_for, Event::UncordonNode(index));
        }
        // The periodic loops start with the replay and stop once everything
        // has drained (they re-arm themselves only while work remains).
        events.schedule(SimTime::ZERO, Event::SchedulerTick);
        events.schedule(SimTime::ZERO, Event::ProbeTick);
        if let Some(rebalance) = config.rebalance {
            events.schedule(SimTime::ZERO + rebalance.period, Event::RebalanceTick);
        }

        // The two autoscaling controllers. The node-pool controller exists
        // only when configured; the pod-group controller also comes up when
        // the frontend announces service groups (their reconcile templates
        // start at zero offered load and are driven purely by `GroupLoad`).
        let frontend_groups: Vec<PodGroupSpec> = hint
            .service_groups
            .iter()
            .map(|g| PodGroupSpec {
                name: g.name.clone(),
                sgx: g.sgx,
                replica_request: g.replica_request,
                min_replicas: g.min_replicas,
                max_replicas: g.max_replicas,
                capacity_per_replica: g.capacity_per_replica,
                profile: vec![(0, 0.0)],
            })
            .collect();
        let cluster_as = config
            .autoscale
            .as_ref()
            .map(|autoscale| ClusterAutoscaler::new(autoscale.policy.clone()));
        let groups_as = (config.autoscale.is_some() || !frontend_groups.is_empty()).then(|| {
            let mut specs = config
                .autoscale
                .as_ref()
                .map(|autoscale| autoscale.pod_groups.clone())
                .unwrap_or_default();
            specs.extend(frontend_groups);
            PodGroupAutoscaler::new(specs)
        });
        let autoscale_period = match (&config.autoscale, &groups_as) {
            (Some(autoscale), _) => Some(autoscale.period),
            (None, Some(_)) => Some(DEFAULT_GROUP_AUTOSCALE_PERIOD),
            (None, None) => None,
        };
        if let Some(period) = autoscale_period {
            events.schedule(SimTime::ZERO + period, Event::AutoscaleTick);
        }

        Engine {
            config,
            orch,
            events,
            next_fe: None,
            cap: SimTime::ZERO + config.max_sim_time,
            end_time: SimTime::ZERO,
            timed_out: false,
            cluster_as,
            groups_as,
            autoscale_period,
            origins: Vec::new(),
            finishes: BTreeMap::new(),
            running: 0,
            malicious_pending: config.malicious.is_some(),
            sched_armed: true,
            probe_armed: true,
            rebalance_armed: config.rebalance.is_some(),
            autoscale_armed: autoscale_period.is_some(),
            pending_epc_series: TimeSeries::new(),
            pending_memory_series: TimeSeries::new(),
            epc_imbalance_series: TimeSeries::new(),
            migration_count: 0,
            migration_downtime: SimDuration::ZERO,
            injector: (!config.faults.is_noop()).then(|| FaultInjector::new(config.faults.clone())),
        }
    }

    /// Runs the loop until the frontend is exhausted and the queue has
    /// drained, or the clock passes the cap.
    pub(crate) fn run(&mut self, frontend: &mut dyn TraceFrontend) {
        self.next_fe = frontend.next_event();
        loop {
            // Interleave the frontend with the queue by time. The frontend
            // wins ties, which reproduces the legacy ordering where all
            // pre-scheduled submits carried the lowest sequence numbers.
            let fe_at = self.next_fe.as_ref().map(WorkloadEvent::at);
            let take_fe = match (fe_at, self.events.peek_time()) {
                (Some(fe_at), Some(queue_at)) => fe_at <= queue_at,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_fe {
                let fe = self.next_fe.take().expect("take_fe implies a lookahead");
                if !self.advance_clock(fe.at()) {
                    break;
                }
                self.on_frontend_event(fe);
                self.next_fe = frontend.next_event();
            } else {
                let Some((now, event)) = self.events.pop() else {
                    break;
                };
                if !self.advance_clock(now) {
                    break;
                }
                self.on_event(event, now);
            }
        }
    }

    /// Moves the clock to `now`, or cuts the replay off *at* the cap:
    /// events past it never execute, so the makespan reported is the cap
    /// itself. Returns whether the event at `now` may run.
    fn advance_clock(&mut self, now: SimTime) -> bool {
        self.timed_out = now > self.cap;
        self.end_time = now.min(self.cap);
        !self.timed_out
    }

    /// The de-arm rule of the periodic loops: a tick schedules its
    /// successor only while some pod can still change state.
    fn work_remains(&self) -> bool {
        self.next_fe.is_some()
            || self.malicious_pending
            || self.running > 0
            || !self.orch.queue().is_empty()
    }

    /// New pods reached the queue: wakes the scheduler and probe loops
    /// if they de-armed themselves in a lull.
    fn rearm_passes(&mut self, now: SimTime) {
        if !self.sched_armed {
            self.events.schedule(now, Event::SchedulerTick);
            self.sched_armed = true;
        }
        if !self.probe_armed {
            self.events.schedule(now, Event::ProbeTick);
            self.probe_armed = true;
        }
    }

    /// The re-arm rule: work arrived from outside the loop, so every
    /// de-armed periodic loop starts again — the passes at once, the
    /// controllers one period out.
    fn rearm(&mut self, now: SimTime) {
        self.rearm_passes(now);
        if let Some(rebalance) = self.config.rebalance {
            if !self.rebalance_armed {
                self.events
                    .schedule(now + rebalance.period, Event::RebalanceTick);
                self.rebalance_armed = true;
            }
        }
        if let Some(period) = self.autoscale_period {
            if !self.autoscale_armed {
                self.events.schedule(now + period, Event::AutoscaleTick);
                self.autoscale_armed = true;
            }
        }
    }

    /// The one place a pod's finish is scheduled: `from` plus every
    /// delay, under the pod's current generation.
    fn schedule_finish(&mut self, uid: PodUid, from: SimTime, delays: &[SimDuration]) {
        let at = finish_instant(from, delays);
        let finish = self.finishes.entry(uid).or_default();
        finish.at = Some(at);
        let event = Event::PodFinish(uid, finish.generation);
        self.events.schedule(at, event);
    }

    /// The pod left its node before finishing (crash, eviction,
    /// retirement): its in-flight finish event is now stale.
    fn cancel_finish(&mut self, uid: PodUid) {
        let finish = self.finishes.entry(uid).or_default();
        finish.generation += 1;
        if finish.at.take().is_some() {
            self.running -= 1;
        }
    }

    fn on_frontend_event(&mut self, event: WorkloadEvent) {
        let now = event.at();
        match event {
            WorkloadEvent::Submit { job, hostile } => {
                let uid = self.orch.submit(pod_spec_for(&job), now);
                self.note_origin(uid, Origin::Job { job, hostile });
                self.rearm(now);
            }
            WorkloadEvent::GroupLoad { group, load, .. } => {
                let groups = self
                    .groups_as
                    .as_mut()
                    .expect("GroupLoad events require announced service groups");
                assert!(
                    groups.set_offered_load(&group, load),
                    "frontend drove unannounced group {group:?}"
                );
                // A load change must wake the controller even after
                // it de-armed itself in a lull.
                if !self.autoscale_armed {
                    self.events.schedule(now, Event::AutoscaleTick);
                    self.autoscale_armed = true;
                }
            }
        }
    }

    fn on_event(&mut self, event: Event, now: SimTime) {
        match event {
            Event::SubmitMalicious => self.submit_malicious(now),
            Event::SchedulerTick => self.scheduler_tick(now),
            Event::ProbeTick => self.probe_tick(now),
            Event::FrameDelivery(frame) => self.deliver_frame(*frame, now),
            Event::PodFinish(uid, generation) => {
                // Otherwise stale: the pod crashed, migrated or already
                // completed since the event was scheduled.
                let current = self.finishes.get(&uid);
                if current.is_some_and(|finish| finish.generation == generation) {
                    self.finishes.remove(&uid);
                    self.running -= 1;
                    self.orch
                        .complete_pod(uid, now)
                        .expect("finish events only exist for running pods");
                }
            }
            Event::NodeFail(index) => {
                let node = NodeName::new(self.config.failures[index].node.clone());
                let crashed = self
                    .orch
                    .fail_node(&node, now)
                    .expect("failure injection targets existing nodes");
                for uid in crashed {
                    self.cancel_finish(uid);
                }
                self.rearm(now);
            }
            Event::NodeRecover(index) => {
                let node = NodeName::new(self.config.failures[index].node.clone());
                self.orch
                    .recover_node(&node, now)
                    .expect("failure injection targets existing nodes");
            }
            Event::RebalanceTick => {
                let rebalance = self
                    .config
                    .rebalance
                    .expect("event only scheduled when set");
                let moves = self.orch.rebalance_epc(now, rebalance.threshold);
                self.apply_migrations(&moves, now);
                self.epc_imbalance_series
                    .record(now, self.orch.epc_imbalance());
                if self.work_remains() {
                    self.events
                        .schedule(now + rebalance.period, Event::RebalanceTick);
                } else {
                    self.rebalance_armed = false;
                }
            }
            Event::AutoscaleTick => self.autoscale_tick(now),
            Event::DrainNode(index) => {
                let node = NodeName::new(self.config.drains[index].node.clone());
                let moves = self
                    .orch
                    .drain_node(&node, now)
                    .expect("drain injection targets existing nodes");
                self.apply_migrations(&moves, now);
                self.epc_imbalance_series
                    .record(now, self.orch.epc_imbalance());
            }
            Event::UncordonNode(index) => {
                let node = NodeName::new(self.config.drains[index].node.clone());
                self.orch
                    .uncordon_node(&node, now)
                    .expect("drain injection targets existing nodes");
            }
        }
    }

    /// One malicious pod per SGX node ("as many of them as there are
    /// SGX-enabled nodes", §VI-F).
    fn submit_malicious(&mut self, now: SimTime) {
        self.malicious_pending = false;
        let mal = self
            .config
            .malicious
            .expect("event only scheduled when set");
        let sgx_node_count = self.orch.cluster().sgx_nodes().count();
        for i in 0..sgx_node_count {
            let spec = PodSpec::builder(format!("malicious-{i}"))
                .requirements(ResourceRequirements::exact(Resources::with_epc(
                    ByteSize::ZERO,
                    EpcPages::ONE,
                )))
                .stressor(Stressor::malicious(mal.fraction))
                .duration(mal.duration)
                .build();
            let uid = self.orch.submit(spec, now);
            self.note_origin(uid, Origin::Malicious);
        }
    }

    fn scheduler_tick(&mut self, now: SimTime) {
        for outcome in self.orch.scheduler_pass(now) {
            if outcome.report.started() {
                self.running += 1;
                let runtime = outcome
                    .spec_duration
                    .mul_f64(outcome.slowdown_at_start.max(1.0));
                self.schedule_finish(outcome.uid, now, &[outcome.report.startup_delay, runtime]);
            }
        }
        let queue = self.orch.queue();
        self.pending_epc_series
            .record(now, queue.epc_requested().as_mib_f64());
        self.pending_memory_series
            .record(now, queue.memory_requested().as_mib_f64());
        self.epc_imbalance_series
            .record(now, self.orch.epc_imbalance());
        if self.work_remains() {
            self.events.schedule(
                now + self.config.orchestrator.scheduler_period,
                Event::SchedulerTick,
            );
        } else {
            self.sched_armed = false;
        }
    }

    fn probe_tick(&mut self, now: SimTime) {
        if self.injector.is_none() {
            self.orch.probe_pass(now);
        } else {
            // Faulted scrape: every frame is judged; surviving frames
            // deliver inline *now* (never via a same-instant event,
            // which would reorder against coinciding scheduler ticks),
            // delayed ones ride their own delivery event.
            for (node, batch) in self.orch.scrape_frames(now) {
                let delay = match self.chaos().judge_frame(node.as_str(), now) {
                    FrameFate::Silenced | FrameFate::Dropped => continue,
                    FrameFate::Deliver => None,
                    FrameFate::Delayed(delay) => Some(delay),
                };
                let frame = InFlightFrame {
                    node,
                    batch,
                    scraped_at: now,
                    attempts: 0,
                };
                match delay {
                    None => self.deliver_frame(frame, now),
                    Some(delay) => self.hold_frame(frame, now + delay),
                }
            }
            self.orch.enforce_metrics_retention(now);
        }
        if self.work_remains() {
            self.events.schedule(
                now + self.config.orchestrator.probe_period,
                Event::ProbeTick,
            );
        } else {
            self.probe_armed = false;
        }
    }

    fn chaos(&mut self) -> &mut FaultInjector {
        self.injector
            .as_mut()
            .expect("probe frames only exist under fault injection")
    }

    /// Holds a probe frame back until `until`.
    fn hold_frame(&mut self, frame: InFlightFrame, until: SimTime) {
        self.events
            .schedule(until, Event::FrameDelivery(Box::new(frame)));
    }

    /// One delivery attempt of a probe frame against the metrics store.
    ///
    /// The frame's write either succeeds (ingest under its *scrape*
    /// timestamp — late frames land out of time order) or fails per the
    /// injector's draw; failed writes are held back again with
    /// exponential backoff until the transport's retry budget runs out.
    fn deliver_frame(&mut self, frame: InFlightFrame, now: SimTime) {
        // One store: a non-empty frame's failed write is blamed on store 0,
        // an empty frame's on nothing.
        let blamed: &[usize] = if frame.batch.is_empty() { &[] } else { &[0] };
        let chaos = self.chaos();
        if chaos.draw_write_failure(blamed) {
            match chaos.plan().retry.backoff_before(frame.attempts) {
                Some(backoff) => {
                    chaos.note_retry();
                    let retry = InFlightFrame {
                        attempts: frame.attempts + 1,
                        ..frame
                    };
                    self.hold_frame(retry, now + backoff);
                }
                None => chaos.note_lost(),
            }
        } else {
            chaos.note_delivered();
            self.orch
                .ingest_frame(&frame.node, &frame.batch, frame.scraped_at);
        }
    }

    /// Accounts a batch of live migrations: each migrated pod's
    /// in-flight [`Event::PodFinish`] is invalidated through the
    /// generation counter and rescheduled shifted by the transfer delay,
    /// so the migration downtime lands in the pod's turnaround time.
    fn apply_migrations(&mut self, moves: &[Migration], now: SimTime) {
        for m in moves {
            let finish = self.finishes.entry(m.uid).or_default();
            finish.generation += 1;
            let old_finish = finish
                .at
                .expect("only running pods (with a scheduled finish) migrate");
            self.schedule_finish(m.uid, old_finish.max(now), &[m.delay]);
            self.migration_count += 1;
            self.migration_downtime += m.delay;
        }
    }

    fn autoscale_tick(&mut self, now: SimTime) {
        let period = self
            .autoscale_period
            .expect("event only scheduled when a period exists");
        let mut outcome = AutoscaleOutcome::default();
        if let Some(cluster_as) = self.cluster_as.as_mut() {
            outcome.merge(cluster_as.tick(&mut self.orch, now));
        }
        if let Some(groups_as) = self.groups_as.as_mut() {
            outcome.merge(groups_as.tick(&mut self.orch, now));
        }
        for (_, removal) in &outcome.removed {
            // Scale-down drained a node: migrated pods shift their
            // finishes by the transfer delay; stragglers with no target
            // were evicted back to the queue.
            self.apply_migrations(&removal.migrations, now);
            for &uid in &removal.requeued {
                self.cancel_finish(uid);
            }
        }
        for &uid in &outcome.retired {
            // The pod-group controller completed a surplus replica;
            // invalidate its backstop finish.
            self.cancel_finish(uid);
        }
        if !outcome.submitted.is_empty() {
            for &uid in &outcome.submitted {
                self.note_origin(uid, Origin::Replica);
            }
            self.rearm_passes(now);
        }
        if self.config.autoscale.as_ref().is_some_and(|a| a.audit) {
            let violations = self.orch.audit_invariants();
            assert!(
                violations.is_empty(),
                "orchestrator invariants violated at autoscale tick {now}: {violations:?}"
            );
        }
        if !outcome.is_empty() {
            self.epc_imbalance_series
                .record(now, self.orch.epc_imbalance());
        }
        // Unlike the other periodic loops, live service groups keep the
        // controller armed through batch-workload lulls: future profile
        // (or frontend-driven) demand must still be served.
        let groups_live = self
            .groups_as
            .as_ref()
            .is_some_and(|groups| !groups.is_drained(now));
        if self.work_remains() || groups_live {
            self.events.schedule(now + period, Event::AutoscaleTick);
        } else {
            self.autoscale_armed = false;
        }
    }

    /// Notes where the pod the orchestrator just minted `uid` for came
    /// from. Every submission passes through here in uid order, so the
    /// table stays aligned with the orchestrator's records.
    fn note_origin(&mut self, uid: PodUid, origin: Origin) {
        assert_eq!(
            uid.as_u64(),
            self.origins.len() as u64 + 1,
            "an origin for every uid, in order"
        );
        self.origins.push(origin);
    }

    /// Records of the pods that came from the frontend or the malicious
    /// tenant, in uid (= submission) order — service replicas are
    /// infrastructure, not jobs.
    pub(crate) fn job_records(&self) -> impl Iterator<Item = &PodRecord> {
        self.orch
            .records()
            .values()
            .zip(&self.origins)
            .filter(|(_, origin)| !matches!(origin, Origin::Replica))
            .map(|(record, _)| record)
    }

    /// Number of `Submit` events the frontend delivered.
    pub(crate) fn submissions(&self) -> usize {
        self.origins
            .iter()
            .filter(|origin| matches!(origin, Origin::Job { .. }))
            .count()
    }

    /// Hands the run over by move: the orchestrator's heavy state is
    /// freed first, then each record moves into its run and the event
    /// log's buffer becomes the result's. Nothing is copied.
    fn into_result(self) -> ReplayResult {
        let degraded_decisions = self.orch.degraded_decisions();
        let (records, events) = self.orch.into_history();
        let mut runs = Vec::with_capacity(records.len());
        runs.extend(
            records
                .into_iter()
                .zip(self.origins)
                .filter_map(|(record, origin)| origin.into_run(record)),
        );
        ReplayResult {
            runs,
            events,
            degraded_decisions,
            fault_stats: self
                .injector
                .map(FaultInjector::into_stats)
                .unwrap_or_default(),
            elasticity: self.cluster_as.as_ref().map(|c| *c.metrics()),
            group_peak_replicas: self
                .groups_as
                .as_ref()
                .map(PodGroupAutoscaler::peak_replicas)
                .unwrap_or_default(),
            pending_epc_series: self.pending_epc_series,
            pending_memory_series: self.pending_memory_series,
            epc_imbalance_series: self.epc_imbalance_series,
            migration_count: self.migration_count,
            migration_downtime: self.migration_downtime,
            end_time: self.end_time,
            timed_out: self.timed_out,
        }
    }
}

/// `from` plus every delay, saturating at [`SimTime::MAX`]: durations
/// come from trace files, and a finish past the representable horizon
/// must stay past every cap (the pod is then reported unfinished)
/// instead of wrapping into the past.
fn finish_instant(from: SimTime, delays: &[SimDuration]) -> SimTime {
    delays
        .iter()
        .try_fold(from, |at, &delay| at.checked_add(delay))
        .unwrap_or(SimTime::MAX)
}

/// Turns a workload job into the pod spec the orchestrator sees: SGX
/// jobs request EPC pages — at least one, an enclave is never smaller
/// than a page — standard jobs plain memory, and the stressor
/// reproduces the job's actual allocation behaviour.
fn pod_spec_for(job: &WorkloadJob) -> PodSpec {
    let requests = match job.kind {
        borg_trace::JobKind::Sgx => {
            Resources::with_epc(ByteSize::ZERO, job.epc_request().max(EpcPages::ONE))
        }
        borg_trace::JobKind::Standard => Resources::memory(job.mem_request),
    };
    PodSpec::builder(format!("{}", job.id))
        .requirements(ResourceRequirements::exact(requests))
        .stressor(Stressor::for_job(job))
        .duration(job.duration)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::frontend::MaterializedFrontend;
    use borg_trace::{GeneratorConfig, Workload, WorkloadParams};

    fn replay(workload: &Workload, config: &ReplayConfig) -> ReplayResult {
        replay_stream(&mut MaterializedFrontend::new(workload), config)
    }

    fn small_workload(sgx_ratio: f64) -> Workload {
        let trace = GeneratorConfig::small(11).generate();
        Workload::materialize(&trace, &WorkloadParams::paper(sgx_ratio, 11))
    }

    #[test]
    fn a_held_frame_does_not_grow_the_event() {
        // The frame rides its delivery event boxed: every queued event
        // stays the size of a finish.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn finish_instant_saturates_instead_of_wrapping() {
        let start = SimTime::from_secs(10);
        let second = SimDuration::from_secs(1);
        assert_eq!(
            finish_instant(start, &[second, second]),
            SimTime::from_secs(12)
        );
        assert_eq!(
            finish_instant(start, &[second, SimDuration::MAX]),
            SimTime::MAX
        );
        assert_eq!(finish_instant(SimTime::MAX, &[second]), SimTime::MAX);
    }

    #[test]
    fn replay_drains_and_completes_most_jobs() {
        let workload = small_workload(0.5);
        let result = replay(&workload, &ReplayConfig::paper(1));
        assert!(!result.timed_out());
        assert_eq!(result.runs().len(), workload.len());
        // The small workload fits comfortably: no unschedulable jobs, and
        // (limits enforced) the over-users die while the rest complete.
        let finished = result.completed_count() + result.denied_count();
        assert_eq!(finished, workload.len() - result.unschedulable_count());
        assert!(result.completed_count() > workload.len() / 2);
    }

    #[test]
    fn replay_is_deterministic() {
        let workload = small_workload(0.5);
        let a = replay(&workload, &ReplayConfig::paper(42));
        let b = replay(&workload, &ReplayConfig::paper(42));
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.end_time(), b.end_time());
    }

    #[test]
    fn limits_enforced_kills_over_users() {
        let workload = small_workload(1.0);
        // The driver enforces at EPC-page granularity, so only jobs whose
        // *page* usage exceeds their *page* request can be denied.
        let over_users = workload
            .iter()
            .filter(|j| j.epc_usage() > j.epc_request())
            .count();
        assert!(over_users > 0, "workload should contain over-users");
        let result = replay(&workload, &ReplayConfig::paper(2));
        // Over-users are killed at launch when limits are enforced.
        assert_eq!(
            result.denied_count(),
            over_users - result.unschedulable_count().min(over_users)
        );
    }

    #[test]
    fn limits_disabled_lets_over_users_run() {
        let workload = small_workload(1.0);
        let result = replay(&workload, &ReplayConfig::paper(2).without_limits());
        assert_eq!(result.denied_count(), 0);
    }

    #[test]
    fn malicious_pods_are_tracked_separately() {
        let workload = small_workload(1.0);
        let config = ReplayConfig::paper(3)
            .without_limits()
            .with_malicious(crate::MaliciousConfig::squatting(0.5));
        let result = replay(&workload, &config);
        let malicious: Vec<_> = result.runs().iter().filter(|r| r.malicious).collect();
        assert_eq!(malicious.len(), 2); // one per SGX node
        assert_eq!(result.honest_runs().count(), workload.len());
    }

    #[test]
    fn pending_series_is_recorded() {
        let workload = small_workload(1.0);
        let result = replay(&workload, &ReplayConfig::paper(4));
        assert!(!result.pending_epc_series().points().is_empty());
        // The queue eventually drains to zero.
        let last = result.pending_epc_series().points().last().unwrap();
        assert_eq!(last.1, 0.0);
    }

    #[test]
    fn waiting_times_grow_under_contention() {
        let workload = small_workload(1.0);
        // Shrink the cluster's EPC to force contention.
        let tight = ReplayConfig::paper(5).with_cluster(
            cluster::topology::ClusterSpec::paper_cluster_with_epc(ByteSize::from_mib(32)),
        );
        let roomy = ReplayConfig::paper(5).with_cluster(
            cluster::topology::ClusterSpec::paper_cluster_with_epc(ByteSize::from_mib(256)),
        );
        let tight_result = replay(&workload, &tight);
        let roomy_result = replay(&workload, &roomy);
        let mean = |r: &ReplayResult| {
            let waits: Vec<f64> = r
                .honest_runs()
                .filter_map(|run| run.record.waiting_time())
                .map(|d| d.as_secs_f64())
                .collect();
            waits.iter().sum::<f64>() / waits.len().max(1) as f64
        };
        assert!(
            mean(&tight_result) > mean(&roomy_result),
            "tight {} vs roomy {}",
            mean(&tight_result),
            mean(&roomy_result)
        );
        assert!(tight_result.end_time() > roomy_result.end_time());
    }

    #[test]
    fn unschedulable_jobs_do_not_stall_the_replay() {
        // 32 MiB nodes with the default 0.25-fraction cap produce jobs up
        // to 23.4 MiB — all schedulable; an uncapped workload can exceed
        // node capacity and must be marked unschedulable, not looped on.
        let trace = GeneratorConfig::small(12).generate();
        let workload = Workload::materialize(
            &trace,
            &WorkloadParams {
                fraction_cap: None,
                ..WorkloadParams::paper(1.0, 12)
            },
        );
        let config = ReplayConfig::paper(6).with_cluster(
            cluster::topology::ClusterSpec::paper_cluster_with_epc(ByteSize::from_mib(32)),
        );
        let result = replay(&workload, &config);
        assert!(!result.timed_out());
        assert!(result.unschedulable_count() > 0);
    }

    #[test]
    fn node_failures_requeue_and_finish_all_jobs() {
        let workload = small_workload(1.0);
        let config = ReplayConfig::paper(9).with_failure(crate::NodeFailure {
            node: "sgx-1".to_string(),
            fail_at_secs: 900,
            down_for: des::SimDuration::from_secs(600),
        });
        let faulty = replay(&workload, &config);
        assert!(!faulty.timed_out());
        // Every job still reaches a terminal state.
        let terminal =
            faulty.completed_count() + faulty.denied_count() + faulty.unschedulable_count();
        assert_eq!(terminal, workload.len());
        // The crash costs throughput: waits exceed the healthy run's.
        let healthy = replay(&workload, &ReplayConfig::paper(9));
        let mean = |r: &ReplayResult| crate::analysis::mean_waiting_secs(r, None);
        assert!(
            mean(&faulty) > mean(&healthy),
            "faulty {} vs healthy {}",
            mean(&faulty),
            mean(&healthy)
        );
    }

    #[test]
    fn failed_node_failures_are_deterministic() {
        let workload = small_workload(0.5);
        let config = ReplayConfig::paper(10).with_failure(crate::NodeFailure {
            node: "std-1".to_string(),
            fail_at_secs: 600,
            down_for: des::SimDuration::from_secs(1200),
        });
        let a = replay(&workload, &config);
        let b = replay(&workload, &config);
        assert_eq!(a.runs(), b.runs());
    }

    #[test]
    fn timed_out_replay_clamps_end_time_to_the_cap() {
        let workload = small_workload(1.0);
        let mut config = ReplayConfig::paper(13);
        // A cap far below the drain time forces the timeout path.
        config.max_sim_time = SimDuration::from_secs(120);
        let result = replay(&workload, &config);
        assert!(result.timed_out());
        // Regression: `end_time` used to report the first event *past*
        // the cap instead of the cap itself.
        assert_eq!(result.end_time(), SimTime::ZERO + config.max_sim_time);
    }

    #[test]
    fn rebalancing_lowers_epc_imbalance_and_counts_migrations() {
        let workload = small_workload(1.0);
        let off = replay(&workload, &ReplayConfig::paper(14));
        let on = replay(
            &workload,
            &ReplayConfig::paper(14).with_rebalance(crate::RebalanceConfig::every(
                SimDuration::from_secs(60),
                0.2,
            )),
        );
        assert!(!on.timed_out());
        assert!(on.migration_count() > 0);
        assert!(on.migration_downtime() > SimDuration::ZERO);
        assert_eq!(off.migration_count(), 0);
        assert_eq!(off.migration_downtime(), SimDuration::ZERO);
        let mean = crate::analysis::mean_epc_imbalance;
        assert!(
            mean(&on) < mean(&off),
            "rebalance-on imbalance {} vs off {}",
            mean(&on),
            mean(&off)
        );
        // Every pod still reaches a terminal state.
        let terminal = on.completed_count() + on.denied_count() + on.unschedulable_count();
        assert_eq!(terminal, workload.len());
    }

    #[test]
    fn drain_migrations_shift_turnaround_by_their_downtime() {
        let workload = small_workload(1.0);
        // A roomy cluster: the drained node's pods always have somewhere
        // to go, so the turnaround delta is purely migration downtime
        // plus its knock-on queueing effects.
        let roomy = || {
            ReplayConfig::paper(15).with_cluster(
                cluster::topology::ClusterSpec::paper_cluster_with_epc(ByteSize::from_mib(256)),
            )
        };
        let baseline = replay(&workload, &roomy());
        let drained = replay(
            &workload,
            &roomy().with_drain(crate::NodeDrain {
                node: "sgx-1".to_string(),
                drain_at_secs: 900,
                down_for: SimDuration::from_secs(1200),
            }),
        );
        assert!(!baseline.timed_out());
        assert!(!drained.timed_out());
        assert!(drained.migration_count() > 0);
        assert!(drained.migration_downtime() > SimDuration::ZERO);
        // Downtime lands in turnaround numbers: with the same workload
        // and seed, the drained run's total turnaround exceeds the
        // baseline's by at least something (migrated pods finish later;
        // queued pods behind them may wait longer still).
        let total = |r: &ReplayResult| crate::analysis::total_turnaround(r, None);
        assert!(
            total(&drained) > total(&baseline),
            "drained {:?} vs baseline {:?}",
            total(&drained),
            total(&baseline)
        );
        let terminal =
            drained.completed_count() + drained.denied_count() + drained.unschedulable_count();
        assert_eq!(terminal, workload.len());
    }

    #[test]
    fn rebalanced_replay_is_deterministic() {
        let workload = small_workload(0.75);
        let config = ReplayConfig::paper(16)
            .with_rebalance(crate::RebalanceConfig::every(
                SimDuration::from_secs(45),
                0.1,
            ))
            .with_drain(crate::NodeDrain {
                node: "sgx-2".to_string(),
                drain_at_secs: 1500,
                down_for: SimDuration::from_secs(600),
            });
        let a = replay(&workload, &config);
        let b = replay(&workload, &config);
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.migration_count(), b.migration_count());
        assert_eq!(a.migration_downtime(), b.migration_downtime());
        assert_eq!(
            a.epc_imbalance_series().points(),
            b.epc_imbalance_series().points()
        );
    }

    #[test]
    fn faulted_replay_still_reaches_terminal_states() {
        let workload = small_workload(0.75);
        let config = ReplayConfig::paper(21).with_faults(
            crate::FaultPlan::none()
                .with_seed(21)
                .with_scrape_drops(0.3)
                .with_delays(0.3, SimDuration::from_secs(40))
                .with_write_failures(0.2)
                .with_silence(crate::ProbeSilence {
                    node: "sgx-1".to_string(),
                    from_secs: 300,
                    until_secs: 1500,
                }),
        );
        let result = replay(&workload, &config);
        assert!(!result.timed_out());
        let terminal =
            result.completed_count() + result.denied_count() + result.unschedulable_count();
        assert_eq!(terminal, workload.len());
        let stats = result.fault_stats();
        assert!(stats.frames_scraped > 0);
        assert!(stats.frames_silenced > 0);
        assert!(stats.frames_dropped > 0);
        assert!(stats.frames_delayed > 0);
        // Every frame resolves exactly once: delayed frames are a
        // transient state and end up delivered or lost too, so they do
        // not appear in the terminal accounting.
        assert_eq!(
            stats.frames_scraped,
            stats.frames_silenced
                + stats.frames_dropped
                + stats.frames_delivered
                + stats.frames_lost
        );
        // A long silence on an SGX node forces degraded decisions.
        assert!(result.degraded_decisions() > 0);
    }

    #[test]
    fn faulted_replay_is_deterministic() {
        let workload = small_workload(0.5);
        let config = ReplayConfig::paper(22).with_faults(
            crate::FaultPlan::none()
                .with_seed(9)
                .with_scrape_drops(0.2)
                .with_delays(0.4, SimDuration::from_secs(25))
                .with_write_failures(0.3),
        );
        let a = replay(&workload, &config);
        let b = replay(&workload, &config);
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.end_time(), b.end_time());
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert_eq!(a.degraded_decisions(), b.degraded_decisions());
    }

    #[test]
    fn fault_free_replay_reports_clean_stats() {
        let workload = small_workload(0.5);
        let result = replay(&workload, &ReplayConfig::paper(23));
        assert!(result.fault_stats().is_clean());
        assert_eq!(result.fault_stats().frames_scraped, 0);
    }

    #[test]
    fn scheduler_period_bounds_minimum_wait() {
        let workload = small_workload(0.0);
        let result = replay(&workload, &ReplayConfig::paper(7));
        for run in result.honest_runs() {
            if let Some(wait) = run.record.waiting_time() {
                // Jobs can never start before the next scheduling pass.
                assert!(wait <= SimDuration::from_hours(2));
            }
        }
    }
}
