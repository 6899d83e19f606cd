//! The traced run's driver: `simulation::replay_stream`'s event loop,
//! re-issued from outside through the same public calls with a span
//! around each, for the event kinds the benchmark's workloads use.
//!
//! It mirrors the engine's frontend-wins-ties merge, the arm / de-arm
//! rules of the scheduler, probe and autoscale ticks, generation-stamped
//! pod finishes, and migration / requeue handling after a scale-down.
//! Whether it still does is checked on every traced run: the simulated
//! outcome must equal the untraced one (`trace.mirror_ok`).
//!
//! Two calls are issued twice so their cost can be read from outside:
//! an explicit `capture_snapshot(now)` before every `scheduler_pass(now)`
//! (the pass captures again at the same instant, which re-derives the
//! same snapshot, so decisions are unchanged and pass − capture is the
//! filter/score/bind share) and a discarded `scrape_frames(now)` before
//! every `probe_pass(now)` (scrapes are reads).

use std::collections::BTreeMap;

use borg_trace::frontend::{TraceFrontend, WorkloadEvent};
use borg_trace::{JobKind, WorkloadJob};
use cluster::api::{PodSpec, PodUid, ResourceRequirements, Resources};
use des::{EventQueue, SimTime};
use orchestrator::autoscale::ClusterAutoscaler;
use orchestrator::{Migration, Orchestrator};
use sgx_sim::units::ByteSize;
use simulation::ReplayConfig;
use stress::Stressor;

use crate::trace::Tracer;
use crate::workloads::{worker_count, Outcome};

/// Span and rollup names as they appear in the trace file.
pub mod names {
    pub const REPLAY: &str = "simulation.replay";
    pub const GENERATE: &str = "borg_trace.generate";
    pub const NEXT_EVENT: &str = "borg_trace.next_event";
    pub const QUEUE: &str = "des.queue";
    pub const SUBMIT: &str = "orchestrator.submit";
    pub const COMPLETE: &str = "orchestrator.complete_pod";
    pub const SCHEDULER_TICK: &str = "tick.scheduler";
    pub const CAPTURE: &str = "orchestrator.snapshot.capture";
    pub const PASS: &str = "orchestrator.scheduler_pass";
    pub const PROBE_TICK: &str = "tick.probe";
    pub const SCRAPE: &str = "cluster.probe.scrape";
    pub const PROBE_PASS: &str = "orchestrator.probe_pass";
    pub const AUTOSCALE_TICK: &str = "tick.autoscale";
    pub const AUTOSCALE: &str = "orchestrator.autoscale.tick";
}

/// Counts taken at the span boundaries; all are pure functions of the
/// input (no clock involved).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub frontend_events: u64,
    pub events_popped: u64,
    pub queue_len_max: u64,
    /// Σ pending-queue depth sampled before each pass.
    pub attempts: u64,
    pub depth_max: u64,
    /// Σ (queue depth × worker nodes) over passes.
    pub attempt_nodes: u64,
    /// Σ worker nodes over explicit captures.
    pub capture_nodes: u64,
    pub pods_bound: u64,
    pub pods_denied: u64,
    pub nodes_added: u64,
    pub nodes_removed: u64,
    /// The controller's own peak worker count; 0 without autoscaling.
    pub autoscaled_peak_nodes: u64,
    pub points_inserted: u64,
    pub points_evicted: u64,
    pub series_live_end: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    SchedulerTick,
    ProbeTick,
    AutoscaleTick,
    /// The generation guards against stale finishes of pods that were
    /// migrated or requeued since the event was scheduled.
    PodFinish(PodUid, u32),
}

/// `simulation`'s job → pod-spec mapping (crate-private there).
fn pod_spec_for(job: &WorkloadJob) -> PodSpec {
    let requests = match job.kind {
        JobKind::Sgx => Resources::with_epc(ByteSize::ZERO, job.epc_request()),
        JobKind::Standard => Resources::memory(job.mem_request),
    };
    PodSpec::builder(format!("{}", job.id))
        .requirements(ResourceRequirements::exact(requests))
        .stressor(Stressor::for_job(job))
        .duration(job.duration)
        .build()
}

type Queue = EventQueue<Event>;

fn schedule(queue: &mut Queue, t: &mut Tracer, c: &mut Counters, at: SimTime, event: Event) {
    t.roll(names::QUEUE, || queue.schedule(at, event));
    c.queue_len_max = c.queue_len_max.max(queue.len() as u64);
}

/// Replays `frontend` under `config`, recording spans into `t` (which
/// must have an open span) and counts into `c`.
///
/// # Panics
///
/// Panics when `config` asks for an event kind the mirror does not
/// carry (malicious tenants, failures, drains, rebalancing, chaos, pod
/// groups): silently ignoring one would make every per-layer number a
/// measurement of a different run.
pub fn replay_traced(
    t: &mut Tracer,
    frontend: &mut dyn TraceFrontend,
    config: &ReplayConfig,
    expected_jobs: u64,
    c: &mut Counters,
) -> Outcome {
    assert!(
        config.malicious.is_none()
            && config.cost_model.is_none()
            && config.failures.is_empty()
            && config.drains.is_empty()
            && config.rebalance.is_none()
            && config.faults.is_noop()
            && config
                .autoscale
                .as_ref()
                .is_none_or(|a| a.pod_groups.is_empty() && !a.audit),
        "replay configuration uses an event kind the traced driver does not mirror"
    );
    let hint = frontend.hint();
    assert!(
        hint.service_groups.is_empty(),
        "traced driver does not mirror service groups"
    );

    let mut orch = Orchestrator::new(config.cluster.clone(), config.orchestrator.clone());
    orch.set_enforce_limits(config.enforce_limits);
    let scheduler_period = config.orchestrator.scheduler_period;
    let probe_period = config.orchestrator.probe_period;
    let cap = SimTime::ZERO + config.max_sim_time;

    let mut queue: Queue = EventQueue::with_capacity(hint.expected_jobs * 2 + 8);
    schedule(&mut queue, t, c, SimTime::ZERO, Event::SchedulerTick);
    schedule(&mut queue, t, c, SimTime::ZERO, Event::ProbeTick);
    let mut autoscaler = config
        .autoscale
        .as_ref()
        .map(|a| (ClusterAutoscaler::new(a.policy.clone()), a.period));
    if let Some((_, period)) = &autoscaler {
        schedule(
            &mut queue,
            t,
            c,
            SimTime::ZERO + *period,
            Event::AutoscaleTick,
        );
    }

    let mut generation: BTreeMap<PodUid, u32> = BTreeMap::new();
    let mut finish_at: BTreeMap<PodUid, SimTime> = BTreeMap::new();
    let mut running = 0usize;
    let mut timed_out = false;
    let mut end_time = SimTime::ZERO;
    let mut sched_armed = true;
    let mut probe_armed = true;
    let mut autoscale_armed = autoscaler.is_some();

    let mut pull = |t: &mut Tracer, c: &mut Counters| {
        let event = t.roll(names::NEXT_EVENT, || frontend.next_event());
        c.frontend_events += u64::from(event.is_some());
        event
    };
    let mut next_fe = pull(t, c);

    loop {
        let take_fe = match (next_fe.as_ref().map(WorkloadEvent::at), queue.peek_time()) {
            (Some(fe_at), Some(queue_at)) => fe_at <= queue_at,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_fe {
            let fe = next_fe.take().expect("take_fe implies a lookahead event");
            let now = fe.at();
            if now > cap {
                end_time = cap;
                timed_out = true;
                break;
            }
            end_time = now;
            let WorkloadEvent::Submit { job, .. } = fe else {
                panic!("traced driver does not mirror GroupLoad events");
            };
            let spec = pod_spec_for(&job);
            t.roll(names::SUBMIT, || orch.submit(spec, now));
            if !sched_armed {
                schedule(&mut queue, t, c, now, Event::SchedulerTick);
                sched_armed = true;
            }
            if !probe_armed {
                schedule(&mut queue, t, c, now, Event::ProbeTick);
                probe_armed = true;
            }
            if let Some((_, period)) = &autoscaler {
                if !autoscale_armed {
                    schedule(&mut queue, t, c, now + *period, Event::AutoscaleTick);
                    autoscale_armed = true;
                }
            }
            next_fe = pull(t, c);
            continue;
        }
        let Some((now, event)) = t.roll(names::QUEUE, || queue.pop()) else {
            break;
        };
        c.events_popped += 1;
        if now > cap {
            end_time = cap;
            timed_out = true;
            break;
        }
        end_time = now;
        match event {
            Event::SchedulerTick => {
                t.begin_tick();
                t.span(names::SCHEDULER_TICK, |t| {
                    let depth = orch.queue().len() as u64;
                    let workers = orch.cluster().workers().count() as u64;
                    c.attempts += depth;
                    c.depth_max = c.depth_max.max(depth);
                    c.attempt_nodes += depth * workers;
                    c.capture_nodes += workers;
                    t.span(names::CAPTURE, |_| {
                        std::hint::black_box(orch.capture_snapshot(now));
                    });
                    let outcomes = t.span(names::PASS, |_| orch.scheduler_pass(now));
                    for outcome in outcomes {
                        if !outcome.report.started() {
                            c.pods_denied += 1;
                            continue;
                        }
                        c.pods_bound += 1;
                        running += 1;
                        let runtime = outcome
                            .spec_duration
                            .mul_f64(outcome.slowdown_at_start.max(1.0));
                        let generation = *generation.entry(outcome.uid).or_insert(0);
                        let finish = now + outcome.report.startup_delay + runtime;
                        finish_at.insert(outcome.uid, finish);
                        schedule(
                            &mut queue,
                            t,
                            c,
                            finish,
                            Event::PodFinish(outcome.uid, generation),
                        );
                    }
                    if next_fe.is_some() || running > 0 || !orch.queue().is_empty() {
                        schedule(
                            &mut queue,
                            t,
                            c,
                            now + scheduler_period,
                            Event::SchedulerTick,
                        );
                    } else {
                        sched_armed = false;
                    }
                });
            }
            Event::ProbeTick => {
                t.begin_tick();
                t.span(names::PROBE_TICK, |t| {
                    t.span(names::SCRAPE, |_| {
                        std::hint::black_box(orch.scrape_frames(now));
                    });
                    t.span(names::PROBE_PASS, |_| orch.probe_pass(now));
                    if next_fe.is_some() || running > 0 || !orch.queue().is_empty() {
                        schedule(&mut queue, t, c, now + probe_period, Event::ProbeTick);
                    } else {
                        probe_armed = false;
                    }
                });
            }
            Event::PodFinish(uid, event_generation) => {
                if generation.get(&uid).copied().unwrap_or(0) != event_generation {
                    continue;
                }
                running -= 1;
                finish_at.remove(&uid);
                t.roll(names::COMPLETE, || orch.complete_pod(uid, now))
                    .expect("finish events only exist for running pods");
            }
            Event::AutoscaleTick => {
                let (cluster_as, period) = autoscaler
                    .as_mut()
                    .expect("event only scheduled with an autoscaler");
                t.begin_tick();
                t.span(names::AUTOSCALE_TICK, |t| {
                    let outcome = t.span(names::AUTOSCALE, |_| cluster_as.tick(&mut orch, now));
                    assert!(
                        outcome.submitted.is_empty() && outcome.retired.is_empty(),
                        "node-pool controller touched pod groups"
                    );
                    for (_, removal) in &outcome.removed {
                        apply_migrations(
                            &removal.migrations,
                            now,
                            t,
                            c,
                            &mut queue,
                            &mut generation,
                            &mut finish_at,
                        );
                        for &uid in &removal.requeued {
                            *generation.entry(uid).or_insert(0) += 1;
                            if finish_at.remove(&uid).is_some() {
                                running -= 1;
                            }
                        }
                    }
                    if next_fe.is_some() || running > 0 || !orch.queue().is_empty() {
                        schedule(&mut queue, t, c, now + *period, Event::AutoscaleTick);
                    } else {
                        autoscale_armed = false;
                    }
                });
            }
        }
    }

    let mut peak_nodes = worker_count(&config.cluster);
    if let Some((cluster_as, _)) = &autoscaler {
        let metrics = cluster_as.metrics();
        peak_nodes = metrics.peak_nodes as u64;
        c.nodes_added += metrics.nodes_added;
        c.nodes_removed += metrics.nodes_removed;
        c.autoscaled_peak_nodes += peak_nodes;
    }
    c.points_inserted += orch.db().points_inserted();
    c.points_evicted += orch.db().points_evicted();
    c.series_live_end += orch.db().series_count() as u64;
    Outcome::from_records(
        orch.records().values(),
        expected_jobs,
        end_time,
        timed_out,
        peak_nodes,
    )
}

/// A scale-down drained a node: each migrated pod's in-flight finish is
/// invalidated through its generation and rescheduled shifted by the
/// transfer delay.
fn apply_migrations(
    moves: &[Migration],
    now: SimTime,
    t: &mut Tracer,
    c: &mut Counters,
    queue: &mut Queue,
    generation: &mut BTreeMap<PodUid, u32>,
    finish_at: &mut BTreeMap<PodUid, SimTime>,
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
        schedule(queue, t, c, new_finish, Event::PodFinish(m.uid, *gen));
    }
}
