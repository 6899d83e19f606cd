//! The discrete-event replay loop.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use borg_trace::frontend::{MaterializedFrontend, TraceFrontend, WorkloadEvent};
use borg_trace::{Workload, WorkloadJob};
use cluster::api::{NodeName, PodSpec, PodUid, ResourceRequirements, Resources};
use des::stats::TimeSeries;
use des::{EventQueue, SimDuration, SimTime};
use orchestrator::autoscale::{
    AutoscaleOutcome, ClusterAutoscaler, ElasticityMetrics, PodGroupAutoscaler, PodGroupSpec,
};
use orchestrator::events::ClusterEvent;
use orchestrator::{Migration, Orchestrator, PodOutcome, PodRecord};
use sgx_sim::units::ByteSize;
use stress::Stressor;

use crate::chaos::{FaultInjector, FaultStats, FrameFate};
use crate::config::ReplayConfig;

/// Events driving the replay. Job submissions are *not* queue events:
/// the loop pulls them lazily from the [`TraceFrontend`], holding one
/// lookahead event, and interleaves them with the queue by time (the
/// frontend wins ties, which reproduces the legacy ordering where all
/// pre-scheduled submits carried the lowest sequence numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// A delayed or retried probe frame reaches the database (key into
    /// the in-flight frame table). Only exists under fault injection:
    /// un-delayed frames deliver inline during [`Event::ProbeTick`], so
    /// a fault-free replay schedules none of these.
    FrameDelivery(u64),
}

/// A probe frame held by the fault injector: encoded on the wire at
/// scrape time, delivered (and decoded) later.
#[derive(Debug, Clone)]
struct InFlightFrame {
    /// Node the frame was scraped from.
    node: NodeName,
    /// The wire-encoded [`tsdb::PointBatch`].
    bytes: bytes::Bytes,
    /// When the samples were taken — freshness and insert timestamps
    /// follow this, not the delivery instant.
    scraped_at: SimTime,
    /// Delivery attempts so far (bounds the retry backoff).
    attempts: u32,
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
    pub fn honest(&self) -> bool {
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
    peak_materialized_jobs: usize,
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
        // `peak_materialized_jobs` is memory telemetry, not replay
        // behaviour — never formatted, so the golden digests stay stable.
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

    /// Peak number of workload jobs that were materialised ahead of
    /// their submission during the replay. A streamed frontend holds a
    /// single lookahead event, so this is 1 (0 for an empty trace);
    /// the legacy `replay(&Workload, ..)` path reports the whole
    /// workload's length — the `bench_autoscale` O(in-flight) memory
    /// proof compares the two.
    pub fn peak_materialized_jobs(&self) -> usize {
        self.peak_materialized_jobs
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
pub const DEFAULT_GROUP_AUTOSCALE_PERIOD: SimDuration = SimDuration::from_secs(15);

/// Replays a fully materialised workload against a freshly built
/// cluster and orchestrator — the legacy entry point, now a thin
/// adapter over [`replay_stream`]. Property tests prove the adapter is
/// bit-identical to streaming the same generator, and the policy
/// goldens pin the combined engine to the pre-streaming behaviour.
///
/// The loop is fully deterministic for a given `(workload, config)` pair.
pub fn replay(workload: &Workload, config: &ReplayConfig) -> ReplayResult {
    let mut frontend = MaterializedFrontend::new(workload);
    let mut result = replay_stream(&mut frontend, config);
    // The caller materialised the whole workload up front; report that,
    // not the adapter's one-event lookahead.
    result.peak_materialized_jobs = workload.len();
    result
}

/// Replays a streaming [`TraceFrontend`] against a freshly built
/// cluster and orchestrator.
///
/// Submissions are pulled lazily — the loop holds one lookahead event —
/// so memory stays O(in-flight pods) regardless of the horizon.
/// Service groups announced in the frontend's hint are handed to the
/// pod-group autoscaler (created on demand, ticking every
/// [`DEFAULT_GROUP_AUTOSCALE_PERIOD`], when `config.autoscale` is off)
/// and driven by the frontend's [`WorkloadEvent::GroupLoad`] events.
///
/// The loop is fully deterministic for a given `(frontend, config)` pair.
pub fn replay_stream(frontend: &mut dyn TraceFrontend, config: &ReplayConfig) -> ReplayResult {
    let mut orch = Orchestrator::new(config.cluster.clone(), config.orchestrator.clone());
    orch.set_enforce_limits(config.enforce_limits);
    if let Some(model) = config.cost_model {
        for node in orch.cluster_mut().nodes_mut() {
            node.set_cost_model(model);
        }
    }

    let scheduler_period = config.orchestrator.scheduler_period;
    let probe_period = config.orchestrator.probe_period;
    let cap = SimTime::ZERO + config.max_sim_time;

    let hint = frontend.hint();
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
    let mut cluster_as = config
        .autoscale
        .as_ref()
        .map(|autoscale| ClusterAutoscaler::new(autoscale.policy.clone()));
    let mut groups_as = (config.autoscale.is_some() || !frontend_groups.is_empty()).then(|| {
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
    let autoscale_audit = config.autoscale.as_ref().is_some_and(|a| a.audit);
    if let Some(period) = autoscale_period {
        events.schedule(SimTime::ZERO + period, Event::AutoscaleTick);
    }

    let mut uid_to_job: BTreeMap<PodUid, WorkloadJob> = BTreeMap::new();
    let mut generation: BTreeMap<PodUid, u32> = BTreeMap::new();
    // In-flight finish instant per running pod, so a live migration can
    // shift the finish by its transfer delay (downtime → turnaround).
    let mut finish_at: BTreeMap<PodUid, SimTime> = BTreeMap::new();
    let mut malicious_uids: Vec<PodUid> = Vec::new();
    let mut running = 0usize;
    // The malicious tenant is a queue event, not a frontend event; its
    // own flag keeps the periodic loops armed until it lands.
    let mut malicious_pending = config.malicious.is_some();
    let mut pending_epc_series = TimeSeries::new();
    let mut pending_memory_series = TimeSeries::new();
    let mut epc_imbalance_series = TimeSeries::new();
    let mut migration_count = 0u64;
    let mut migration_downtime = SimDuration::ZERO;
    let mut timed_out = false;
    let mut end_time = SimTime::ZERO;
    // The periodic loops de-arm themselves when the cluster drains and
    // are re-armed by the next submission.
    let mut sched_armed = true;
    let mut probe_armed = true;
    let mut rebalance_armed = config.rebalance.is_some();
    let mut autoscale_armed = autoscale_period.is_some();
    // Service replicas the pod-group controller submitted: they are
    // infrastructure, not trace jobs, and stay out of `runs`.
    let mut group_uids: BTreeSet<PodUid> = BTreeSet::new();
    // Fault injection: a no-op plan never constructs the injector, so
    // the replay is structurally identical to the pre-chaos engine
    // (bit-identity property-tested in tests/chaos_props.rs).
    let mut injector =
        (!config.faults.is_noop()).then(|| FaultInjector::new(config.faults.clone()));
    let mut in_flight: BTreeMap<u64, InFlightFrame> = BTreeMap::new();
    let mut next_frame_id = 0u64;

    // One lookahead frontend event: the stream never materialises more
    // than a single job ahead of the simulation clock.
    let mut next_fe = frontend.next_event();
    let peak_materialized_jobs = usize::from(next_fe.is_some());

    loop {
        // Interleave the frontend with the queue by time. The frontend
        // wins ties, which reproduces the legacy ordering where all
        // pre-scheduled submits carried the lowest sequence numbers.
        let take_fe = match (next_fe.as_ref().map(WorkloadEvent::at), events.peek_time()) {
            (Some(fe_at), Some(queue_at)) => fe_at <= queue_at,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_fe {
            let fe = next_fe.take().expect("take_fe implies a lookahead event");
            let now = fe.at();
            if now > cap {
                // The replay is cut off *at* the cap: events past it
                // never execute, so the makespan reported is the cap.
                end_time = cap;
                timed_out = true;
                break;
            }
            end_time = now;
            match fe {
                WorkloadEvent::Submit { job, hostile } => {
                    let uid = orch.submit(pod_spec_for(&job), now);
                    uid_to_job.insert(uid, job);
                    if hostile {
                        malicious_uids.push(uid);
                    }
                    if !sched_armed {
                        events.schedule(now, Event::SchedulerTick);
                        sched_armed = true;
                    }
                    if !probe_armed {
                        events.schedule(now, Event::ProbeTick);
                        probe_armed = true;
                    }
                    if let Some(rebalance) = config.rebalance {
                        if !rebalance_armed {
                            events.schedule(now + rebalance.period, Event::RebalanceTick);
                            rebalance_armed = true;
                        }
                    }
                    if let Some(period) = autoscale_period {
                        if !autoscale_armed {
                            events.schedule(now + period, Event::AutoscaleTick);
                            autoscale_armed = true;
                        }
                    }
                }
                WorkloadEvent::GroupLoad { group, load, .. } => {
                    let groups = groups_as
                        .as_mut()
                        .expect("GroupLoad events require announced service groups");
                    assert!(
                        groups.set_offered_load(&group, load),
                        "frontend drove unannounced group {group:?}"
                    );
                    // A load change must wake the controller even after
                    // it de-armed itself in a lull.
                    if !autoscale_armed {
                        events.schedule(now, Event::AutoscaleTick);
                        autoscale_armed = true;
                    }
                }
            }
            next_fe = frontend.next_event();
            continue;
        }
        let Some((now, event)) = events.pop() else {
            break;
        };
        if now > cap {
            // The replay is cut off *at* the cap: events past it never
            // execute, so the makespan reported is the cap itself.
            end_time = cap;
            timed_out = true;
            break;
        }
        end_time = now;
        match event {
            Event::SubmitMalicious => {
                malicious_pending = false;
                let mal = config.malicious.expect("event only scheduled when set");
                // One malicious pod per SGX node ("as many of them as
                // there are SGX-enabled nodes", §VI-F).
                let sgx_node_count = orch.cluster().sgx_nodes().count();
                for i in 0..sgx_node_count {
                    let spec = PodSpec::builder(format!("malicious-{i}"))
                        .requirements(ResourceRequirements::exact(Resources::with_epc(
                            ByteSize::ZERO,
                            sgx_sim::units::EpcPages::ONE,
                        )))
                        .stressor(Stressor::malicious(mal.fraction))
                        .duration(mal.duration)
                        .build();
                    let uid = orch.submit(spec, now);
                    malicious_uids.push(uid);
                }
            }
            Event::SchedulerTick => {
                let outcomes = orch.scheduler_pass(now);
                for outcome in outcomes {
                    if outcome.report.started() {
                        running += 1;
                        let runtime = outcome
                            .spec_duration
                            .mul_f64(outcome.slowdown_at_start.max(1.0));
                        let generation = *generation.entry(outcome.uid).or_insert(0);
                        let finish = now + outcome.report.startup_delay + runtime;
                        finish_at.insert(outcome.uid, finish);
                        events.schedule(finish, Event::PodFinish(outcome.uid, generation));
                    }
                }
                pending_epc_series.record(now, orch.queue().epc_requested().as_mib_f64());
                pending_memory_series.record(now, orch.queue().memory_requested().as_mib_f64());
                epc_imbalance_series.record(now, orch.epc_imbalance());
                if next_fe.is_some() || malicious_pending || running > 0 || !orch.queue().is_empty()
                {
                    events.schedule(now + scheduler_period, Event::SchedulerTick);
                } else {
                    sched_armed = false;
                }
            }
            Event::ProbeTick => {
                match injector.as_mut() {
                    None => orch.probe_pass(now),
                    Some(chaos) => {
                        // Faulted scrape: every frame is judged; surviving
                        // frames deliver inline *now* (never via a
                        // same-instant event, which would reorder against
                        // coinciding scheduler ticks), delayed ones go
                        // through the in-flight table.
                        for (node, batch) in orch.scrape_frames(now) {
                            match chaos.judge_frame(node.as_str(), now) {
                                FrameFate::Silenced | FrameFate::Dropped => {}
                                FrameFate::Deliver => {
                                    let frame = InFlightFrame {
                                        node,
                                        bytes: tsdb::wire::encode_batch(&batch),
                                        scraped_at: now,
                                        attempts: 0,
                                    };
                                    deliver_frame(
                                        &mut orch,
                                        chaos,
                                        &mut events,
                                        &mut in_flight,
                                        &mut next_frame_id,
                                        frame,
                                        now,
                                    );
                                }
                                FrameFate::Delayed(delay) => {
                                    let id = next_frame_id;
                                    next_frame_id += 1;
                                    in_flight.insert(
                                        id,
                                        InFlightFrame {
                                            node,
                                            bytes: tsdb::wire::encode_batch(&batch),
                                            scraped_at: now,
                                            attempts: 0,
                                        },
                                    );
                                    events.schedule(now + delay, Event::FrameDelivery(id));
                                }
                            }
                        }
                        orch.enforce_metrics_retention(now);
                    }
                }
                if next_fe.is_some() || malicious_pending || running > 0 || !orch.queue().is_empty()
                {
                    events.schedule(now + probe_period, Event::ProbeTick);
                } else {
                    probe_armed = false;
                }
            }
            Event::FrameDelivery(id) => {
                let frame = in_flight
                    .remove(&id)
                    .expect("frame deliveries reference in-flight frames");
                let chaos = injector
                    .as_mut()
                    .expect("frame deliveries only exist under fault injection");
                deliver_frame(
                    &mut orch,
                    chaos,
                    &mut events,
                    &mut in_flight,
                    &mut next_frame_id,
                    frame,
                    now,
                );
            }
            Event::PodFinish(uid, event_generation) => {
                if generation.get(&uid).copied().unwrap_or(0) != event_generation {
                    continue; // stale: the pod crashed or migrated since
                }
                running -= 1;
                finish_at.remove(&uid);
                orch.complete_pod(uid, now)
                    .expect("finish events only exist for running pods");
            }
            Event::NodeFail(index) => {
                let failure = &config.failures[index];
                let node = cluster::api::NodeName::new(failure.node.clone());
                let crashed = orch
                    .fail_node(&node, now)
                    .expect("failure injection targets existing nodes");
                for uid in crashed {
                    // Invalidate the in-flight finish event and account
                    // the pod as queued again.
                    *generation.entry(uid).or_insert(0) += 1;
                    finish_at.remove(&uid);
                    running -= 1;
                }
                if !sched_armed {
                    events.schedule(now, Event::SchedulerTick);
                    sched_armed = true;
                }
                if !probe_armed {
                    events.schedule(now, Event::ProbeTick);
                    probe_armed = true;
                }
                if let Some(rebalance) = config.rebalance {
                    if !rebalance_armed {
                        events.schedule(now + rebalance.period, Event::RebalanceTick);
                        rebalance_armed = true;
                    }
                }
                if let Some(period) = autoscale_period {
                    if !autoscale_armed {
                        events.schedule(now + period, Event::AutoscaleTick);
                        autoscale_armed = true;
                    }
                }
            }
            Event::NodeRecover(index) => {
                let failure = &config.failures[index];
                let node = cluster::api::NodeName::new(failure.node.clone());
                orch.recover_node(&node, now)
                    .expect("failure injection targets existing nodes");
            }
            Event::RebalanceTick => {
                let rebalance = config.rebalance.expect("event only scheduled when set");
                let moves = orch.rebalance_epc(now, rebalance.threshold);
                apply_migrations(
                    &moves,
                    now,
                    &mut events,
                    &mut generation,
                    &mut finish_at,
                    &mut migration_count,
                    &mut migration_downtime,
                );
                epc_imbalance_series.record(now, orch.epc_imbalance());
                if next_fe.is_some() || malicious_pending || running > 0 || !orch.queue().is_empty()
                {
                    events.schedule(now + rebalance.period, Event::RebalanceTick);
                } else {
                    rebalance_armed = false;
                }
            }
            Event::AutoscaleTick => {
                let period = autoscale_period.expect("event only scheduled when a period exists");
                let mut outcome = AutoscaleOutcome::default();
                if let Some(cluster_as) = cluster_as.as_mut() {
                    outcome.merge(cluster_as.tick(&mut orch, now));
                }
                if let Some(groups_as) = groups_as.as_mut() {
                    outcome.merge(groups_as.tick(&mut orch, now));
                }
                for (_, removal) in &outcome.removed {
                    // Scale-down drained a node: migrated pods shift
                    // their finishes by the transfer delay; stragglers
                    // with no target were evicted back to the queue, so
                    // their in-flight finishes are stale.
                    apply_migrations(
                        &removal.migrations,
                        now,
                        &mut events,
                        &mut generation,
                        &mut finish_at,
                        &mut migration_count,
                        &mut migration_downtime,
                    );
                    for &uid in &removal.requeued {
                        *generation.entry(uid).or_insert(0) += 1;
                        if finish_at.remove(&uid).is_some() {
                            running -= 1;
                        }
                    }
                }
                for &uid in &outcome.retired {
                    // The pod-group controller completed a surplus
                    // replica; invalidate its backstop finish.
                    *generation.entry(uid).or_insert(0) += 1;
                    if finish_at.remove(&uid).is_some() {
                        running -= 1;
                    }
                }
                if !outcome.submitted.is_empty() {
                    group_uids.extend(outcome.submitted.iter().copied());
                    if !sched_armed {
                        events.schedule(now, Event::SchedulerTick);
                        sched_armed = true;
                    }
                    if !probe_armed {
                        events.schedule(now, Event::ProbeTick);
                        probe_armed = true;
                    }
                }
                if autoscale_audit {
                    let violations = orch.audit_invariants();
                    assert!(
                        violations.is_empty(),
                        "orchestrator invariants violated at autoscale tick {now}: {violations:?}"
                    );
                }
                if !outcome.is_empty() {
                    epc_imbalance_series.record(now, orch.epc_imbalance());
                }
                // Unlike the other periodic loops, live service groups
                // keep the controller armed through batch-workload lulls:
                // future profile (or frontend-driven) demand must still
                // be served.
                let groups_live = groups_as
                    .as_ref()
                    .is_some_and(|groups| !groups.is_drained(now));
                if next_fe.is_some()
                    || malicious_pending
                    || running > 0
                    || !orch.queue().is_empty()
                    || groups_live
                {
                    events.schedule(now + period, Event::AutoscaleTick);
                } else {
                    autoscale_armed = false;
                }
            }
            Event::DrainNode(index) => {
                let drain = &config.drains[index];
                let node = cluster::api::NodeName::new(drain.node.clone());
                let moves = orch
                    .drain_node(&node, now)
                    .expect("drain injection targets existing nodes");
                apply_migrations(
                    &moves,
                    now,
                    &mut events,
                    &mut generation,
                    &mut finish_at,
                    &mut migration_count,
                    &mut migration_downtime,
                );
                epc_imbalance_series.record(now, orch.epc_imbalance());
            }
            Event::UncordonNode(index) => {
                let drain = &config.drains[index];
                let node = cluster::api::NodeName::new(drain.node.clone());
                orch.uncordon_node(&node, now)
                    .expect("drain injection targets existing nodes");
            }
        }
    }

    let runs = build_runs(&orch, &uid_to_job, &malicious_uids, &group_uids);
    let events = orch.events().iter().cloned().collect();
    let degraded_decisions = orch.degraded_decisions();
    let fault_stats = injector.map(FaultInjector::into_stats).unwrap_or_default();
    let elasticity = cluster_as.as_ref().map(|cluster_as| *cluster_as.metrics());
    let group_peak_replicas = groups_as
        .as_ref()
        .map(PodGroupAutoscaler::peak_replicas)
        .unwrap_or_default();
    ReplayResult {
        runs,
        pending_epc_series,
        pending_memory_series,
        epc_imbalance_series,
        migration_count,
        migration_downtime,
        events,
        end_time,
        timed_out,
        fault_stats,
        degraded_decisions,
        elasticity,
        group_peak_replicas,
        peak_materialized_jobs,
    }
}

/// One delivery attempt of a probe frame against the metrics store.
///
/// The frame's write either succeeds (ingest under its *scrape*
/// timestamp — late frames land out of time order) or fails per the
/// injector's draw; failed writes re-enter the in-flight table with
/// exponential backoff until the transport's retry budget runs out.
fn deliver_frame(
    orch: &mut Orchestrator,
    chaos: &mut FaultInjector,
    events: &mut EventQueue<Event>,
    in_flight: &mut BTreeMap<u64, InFlightFrame>,
    next_frame_id: &mut u64,
    frame: InFlightFrame,
    now: SimTime,
) {
    let batch = tsdb::wire::decode_batch(&frame.bytes)
        .expect("probe frames round-trip through the wire format");
    // One store: a non-empty frame's failed write is blamed on store 0,
    // an empty frame's on nothing.
    let blamed: &[usize] = if batch.is_empty() { &[] } else { &[0] };
    if chaos.draw_write_failure(blamed) {
        match chaos.plan().retry.backoff_before(frame.attempts) {
            Some(backoff) => {
                chaos.note_retry();
                let id = *next_frame_id;
                *next_frame_id += 1;
                in_flight.insert(
                    id,
                    InFlightFrame {
                        attempts: frame.attempts + 1,
                        ..frame
                    },
                );
                events.schedule(now + backoff, Event::FrameDelivery(id));
            }
            None => chaos.note_lost(),
        }
    } else {
        orch.ingest_frame(&frame.node, &batch, frame.scraped_at);
        chaos.note_delivered();
    }
}

/// Accounts a batch of live migrations in the event loop: each migrated
/// pod's in-flight [`Event::PodFinish`] is invalidated through the
/// generation counter and rescheduled shifted by the transfer delay, so
/// the migration downtime lands in the pod's turnaround time.
fn apply_migrations(
    moves: &[Migration],
    now: SimTime,
    events: &mut EventQueue<Event>,
    generation: &mut BTreeMap<PodUid, u32>,
    finish_at: &mut BTreeMap<PodUid, SimTime>,
    migration_count: &mut u64,
    migration_downtime: &mut SimDuration,
) {
    for m in moves {
        let gen = generation.entry(m.uid).or_insert(0);
        *gen += 1;
        let old_finish = finish_at
            .get(&m.uid)
            .copied()
            .expect("only running pods (with a scheduled finish) migrate");
        let new_finish = old_finish.max(now) + m.delay;
        finish_at.insert(m.uid, new_finish);
        events.schedule(new_finish, Event::PodFinish(m.uid, *gen));
        *migration_count += 1;
        *migration_downtime += m.delay;
    }
}

fn build_runs(
    orch: &Orchestrator,
    uid_to_job: &BTreeMap<PodUid, WorkloadJob>,
    malicious_uids: &[PodUid],
    group_uids: &BTreeSet<PodUid>,
) -> Vec<JobRun> {
    let mut runs = Vec::with_capacity(orch.records().len());
    for (uid, record) in orch.records() {
        if group_uids.contains(uid) {
            continue; // service replicas are infrastructure, not jobs
        }
        let malicious = malicious_uids.contains(uid);
        let job = uid_to_job.get(uid).copied();
        runs.push(JobRun {
            job,
            record: record.clone(),
            malicious,
        });
    }
    runs
}

/// Turns a workload job into the pod spec the orchestrator sees: SGX
/// jobs request EPC pages, standard jobs plain memory, and the stressor
/// reproduces the job's actual allocation behaviour. Shared with the
/// online serving loop.
pub(crate) fn pod_spec_for(job: &WorkloadJob) -> PodSpec {
    let requests = match job.kind {
        borg_trace::JobKind::Sgx => Resources::with_epc(ByteSize::ZERO, job.epc_request()),
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
    use borg_trace::{GeneratorConfig, WorkloadParams};
    use des::SimDuration;

    fn small_workload(sgx_ratio: f64) -> Workload {
        let trace = GeneratorConfig::small(11).generate();
        Workload::materialize(&trace, &WorkloadParams::paper(sgx_ratio, 11))
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
        assert!(!result.pending_epc_series().is_empty());
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
            &WorkloadParams::paper(1.0, 12).without_fraction_cap(),
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
