//! Online serving mode: a long-running orchestrator fed at wall-clock
//! speed.
//!
//! The replay engine is batch-shaped — it pulls a finite stream and
//! runs it to completion in virtual time. This module feeds that same
//! loop from a *service*: [`online_channel`] yields a channel-backed
//! [`OnlineFrontend`] plus an [`OnlineHandle`] any thread can push
//! submissions through, and [`OnlineServer::serve`] wraps the frontend
//! so every event carries the wall-clock instant it arrived at. The
//! loop's one-event lookahead then blocks on the channel, runs every
//! scheduler, probe and controller tick due before the arrival, and
//! drains at virtual speed once the stream ends — there is no second
//! loop, so an online session honours everything a replay honours.
//! Sustained pods-bound/sec (the `bench_online` metric) falls out of
//! the resulting [`OnlineReport`].

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::time::Instant;

use borg_trace::frontend::{FrontendHint, TraceFrontend, WorkloadEvent};
use borg_trace::WorkloadJob;
use des::{SimDuration, SimTime};
use orchestrator::PodOutcome;

use crate::config::ReplayConfig;
use crate::replay::Engine;

/// Capacity of the submission channel: deep enough that a benchmark
/// submitter never stalls on the server's scheduling passes, bounded so
/// a runaway producer exerts backpressure instead of exhausting memory.
const CHANNEL_DEPTH: usize = 4096;

/// Creates a connected submission channel: events pushed through the
/// [`OnlineHandle`] come out of the [`OnlineFrontend`]'s
/// `next_event` in order; dropping (or [`OnlineHandle::close`]-ing)
/// every handle ends the stream.
pub fn online_channel() -> (OnlineHandle, OnlineFrontend) {
    let (tx, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
    (OnlineHandle { tx }, OnlineFrontend { rx })
}

/// The submitting side of an online session. Cloneable so many producer
/// threads can share one orchestrator.
#[derive(Debug, Clone)]
pub struct OnlineHandle {
    tx: SyncSender<WorkloadEvent>,
}

impl OnlineHandle {
    /// Submits a job. The job's `submit` field is ignored — the server
    /// stamps the wall-clock arrival instant. Returns `false` when the
    /// server is gone.
    pub fn submit(&self, job: WorkloadJob) -> bool {
        self.tx
            .send(WorkloadEvent::Submit {
                job,
                hostile: false,
            })
            .is_ok()
    }

    /// Ends the stream (equivalent to dropping the last handle).
    pub fn close(self) {}
}

/// A [`TraceFrontend`] whose events arrive over a channel instead of a
/// generator: `next_event` blocks until the next submission lands or
/// every [`OnlineHandle`] is gone.
#[derive(Debug)]
pub struct OnlineFrontend {
    rx: Receiver<WorkloadEvent>,
}

impl TraceFrontend for OnlineFrontend {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.rx.recv().ok()
    }

    fn hint(&self) -> FrontendHint {
        // Nothing is known up front: the stream is open-ended.
        FrontendHint {
            expected_jobs: 0,
            horizon: SimDuration::ZERO,
            service_groups: Vec::new(),
        }
    }
}

/// What an online session did, plus the wall-clock cost of doing it.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Jobs accepted through the channel.
    pub submitted: usize,
    /// Pods the scheduler bound to a node (the throughput numerator;
    /// rebinds after eviction count again, denials never bind).
    pub bound: u64,
    /// Pods that completed their useful work.
    pub completed: usize,
    /// Pods killed at launch for exceeding their declared limits.
    pub denied: usize,
    /// Pods that could never fit the cluster.
    pub unschedulable: usize,
    /// Wall-clock seconds from `serve` start to the end of the drain.
    pub wall_secs: f64,
    /// Simulated instant the last pod finished (completion or denial).
    pub sim_end: SimTime,
}

impl OnlineReport {
    /// Sustained scheduler throughput: pods bound per wall-clock second
    /// over the whole session (ingest + drain).
    pub fn bound_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.bound as f64 / self.wall_secs
    }
}

/// Stamps every event of the wrapped frontend with the wall-clock time
/// elapsed since `epoch`, replacing whatever instant it carried. The
/// clock is monotonic, so the stamped stream is time-ordered however
/// the inner one was.
struct WallClockStamped<'a> {
    inner: &'a mut dyn TraceFrontend,
    epoch: Instant,
}

impl TraceFrontend for WallClockStamped<'_> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let mut event = self.inner.next_event()?;
        let now = SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64());
        match &mut event {
            WorkloadEvent::Submit { job, .. } => job.submit = now,
            WorkloadEvent::GroupLoad { at, .. } => *at = now,
        }
        Some(event)
    }

    fn hint(&self) -> FrontendHint {
        self.inner.hint()
    }
}

/// A long-running orchestrator accepting submissions at wall-clock
/// speed through the in-process API.
#[derive(Debug)]
pub struct OnlineServer {
    config: ReplayConfig,
}

impl OnlineServer {
    /// A server over the cluster and orchestrator `config` describes.
    /// Everything a replay honours applies — cost model, autoscaling,
    /// failures, drains, faults (their instants count from the start of
    /// [`serve`](Self::serve)) — except `max_sim_time`: a serving
    /// session has no batch cap.
    pub fn new(config: &ReplayConfig) -> Self {
        let mut config = config.clone();
        config.max_sim_time = SimDuration::MAX;
        OnlineServer { config }
    }

    /// Serves the frontend until its stream ends, then drains: each
    /// event is stamped with the wall-clock time elapsed since `serve`
    /// began, every internal event due before an arrival runs before it
    /// is submitted, and after the last event the remaining work is
    /// finished at virtual speed.
    ///
    /// # Panics
    ///
    /// Panics, like a replay, when the frontend drives a service group
    /// its hint did not announce.
    pub fn serve(self, frontend: &mut dyn TraceFrontend) -> OnlineReport {
        let epoch = Instant::now();
        let mut stamped = WallClockStamped {
            inner: frontend,
            epoch,
        };
        let mut engine = Engine::new(&stamped.hint(), &self.config);
        engine.run(&mut stamped);

        // Counted straight from the records: a `ReplayResult` takes the
        // records and the event log over by move, but would still build
        // a runs vector (176 bytes a job) for four integers.
        let (mut completed, mut denied, mut unschedulable) = (0, 0, 0);
        let mut sim_end = SimTime::ZERO;
        for record in engine.job_records() {
            match record.outcome {
                PodOutcome::Completed { .. } => completed += 1,
                PodOutcome::Denied { .. } => denied += 1,
                PodOutcome::Unschedulable => unschedulable += 1,
                PodOutcome::Pending | PodOutcome::Running { .. } => {}
            }
            sim_end = sim_end.max(record.finished_at.unwrap_or(SimTime::ZERO));
        }
        OnlineReport {
            submitted: engine.submissions(),
            bound: engine.orch.bound_count(),
            completed,
            denied,
            unschedulable,
            wall_secs: epoch.elapsed().as_secs_f64(),
            sim_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoscaleConfig;
    use borg_trace::frontend::{MaterializedFrontend, ServiceGroup};
    use borg_trace::{GeneratorConfig, Workload, WorkloadParams};
    use orchestrator::autoscale::AutoscalerPolicy;
    use sgx_sim::units::ByteSize;

    fn small_jobs(seed: u64) -> Vec<WorkloadJob> {
        let trace = GeneratorConfig::small(seed).generate_sampled(10);
        Workload::materialize(&trace, &WorkloadParams::paper(0.5, seed))
            .jobs()
            .to_vec()
    }

    #[test]
    fn online_session_binds_and_completes_submissions() {
        let jobs = small_jobs(31);
        let expected = jobs.len();
        let (handle, mut frontend) = online_channel();
        let submitter = std::thread::spawn(move || {
            for job in jobs {
                assert!(handle.submit(job));
            }
        });
        let server = OnlineServer::new(&ReplayConfig::paper(31));
        let report = server.serve(&mut frontend);
        submitter.join().unwrap();
        assert_eq!(report.submitted, expected);
        // Every submission reaches a terminal state.
        assert_eq!(
            report.completed + report.denied + report.unschedulable,
            expected
        );
        // Everything that was not denied at launch was bound at least
        // once.
        assert!(report.bound as usize >= expected - report.denied - report.unschedulable);
        assert!(report.wall_secs > 0.0);
        assert!(report.bound_per_sec() > 0.0);
    }

    #[test]
    fn closed_channel_ends_an_empty_session() {
        let (handle, mut frontend) = online_channel();
        handle.close();
        let report = OnlineServer::new(&ReplayConfig::paper(1)).serve(&mut frontend);
        assert_eq!(report.submitted, 0);
        assert_eq!(report.bound, 0);
        assert_eq!(report.bound_per_sec(), 0.0);
    }

    #[test]
    fn empty_session_reports_all_zero() {
        let (handle, mut frontend) = online_channel();
        handle.close();
        let report = OnlineServer::new(&ReplayConfig::paper(1)).serve(&mut frontend);
        let zero = OnlineReport {
            submitted: 0,
            bound: 0,
            completed: 0,
            denied: 0,
            unschedulable: 0,
            wall_secs: report.wall_secs,
            sim_end: SimTime::ZERO,
        };
        assert_eq!(report, zero);
    }

    #[test]
    fn stamping_adapter_orders_instants_and_forwards_the_hint() {
        let trace = GeneratorConfig::small(32).generate_sampled(10);
        let workload = Workload::materialize(&trace, &WorkloadParams::paper(0.5, 32));
        let expected = workload.len();
        let mut inner = MaterializedFrontend::new(&workload);
        let hint = inner.hint();
        let mut stamped = WallClockStamped {
            inner: &mut inner,
            epoch: Instant::now(),
        };
        assert_eq!(stamped.hint(), hint);
        let instants: Vec<SimTime> = std::iter::from_fn(|| stamped.next_event())
            .map(|event| event.at())
            .collect();
        assert_eq!(instants.len(), expected);
        assert!(instants.windows(2).all(|pair| pair[0] <= pair[1]));
    }

    /// Announces one service group and drives it purely through
    /// `GroupLoad` events, pausing before each so the wall-clock stamps
    /// leave room for controller ticks in between.
    struct GroupDriver {
        loads: std::vec::IntoIter<f64>,
    }

    impl TraceFrontend for GroupDriver {
        fn next_event(&mut self) -> Option<WorkloadEvent> {
            let load = self.loads.next()?;
            std::thread::sleep(std::time::Duration::from_millis(60));
            Some(WorkloadEvent::GroupLoad {
                at: SimTime::ZERO,
                group: "web".to_string(),
                load,
            })
        }

        fn hint(&self) -> FrontendHint {
            FrontendHint {
                expected_jobs: 0,
                horizon: SimDuration::ZERO,
                service_groups: vec![ServiceGroup {
                    name: "web".to_string(),
                    sgx: false,
                    replica_request: ByteSize::from_mib(8),
                    min_replicas: 1,
                    max_replicas: 4,
                    capacity_per_replica: 10.0,
                }],
            }
        }
    }

    #[test]
    fn group_load_scales_a_service_group_online() {
        // Millisecond periods, so the 60 ms between the two load changes
        // spans several reconcile and scheduling ticks.
        let mut config = ReplayConfig::paper(1).with_autoscale(AutoscaleConfig::every(
            SimDuration::from_millis(10),
            AutoscalerPolicy::paper_defaults(),
        ));
        config.orchestrator.scheduler_period = SimDuration::from_millis(5);
        let mut frontend = GroupDriver {
            loads: vec![35.0, 0.0].into_iter(),
        };
        // Returning at all means the group drained: a live group keeps
        // the controller armed, and an online session has no time cap.
        let report = OnlineServer::new(&config).serve(&mut frontend);
        // ceil(35 / 10) = 4 replicas bound, above the floor of one; they
        // are infrastructure, so no job outcome counts them.
        assert_eq!(report.bound, 4);
        assert_eq!(report.submitted, 0);
        assert_eq!(report.completed + report.denied + report.unschedulable, 0);
    }
}
