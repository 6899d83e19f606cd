//! The five workloads: their sizes, the inputs a seed turns into, and
//! the untraced run of each through the program's real entry point.

use std::time::Instant;

use borg_trace::frontend::{FrontendHint, TraceFrontend, WorkloadEvent};
use borg_trace::{BorgSynthetic, GeneratorConfig, WorkloadJob, WorkloadParams};
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::autoscale::AutoscalerPolicy;
use orchestrator::{PodOutcome, PodRecord};
use sgx_orchestrator::Experiment;
use sgx_sim::units::ByteSize;
use simulation::{
    online_channel, replay_stream, AutoscaleConfig, OnlineServer, ReplayConfig, ReplayResult,
};

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    FullscaleAutoscale,
    SteadyStatic,
    BacklogSpread,
    OnlineBurst,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperSweep,
        Workload::FullscaleAutoscale,
        Workload::SteadyStatic,
        Workload::BacklogSpread,
        Workload::OnlineBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::FullscaleAutoscale => "fullscale_autoscale",
            Workload::SteadyStatic => "steady_static",
            Workload::BacklogSpread => "backlog_spread",
            Workload::OnlineBurst => "online_burst",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the four workloads whose simulated outcome is a pure
    /// function of the seed; `online_burst` stamps arrivals from the wall
    /// clock.
    pub fn is_replay(self) -> bool {
        self != Workload::OnlineBurst
    }
}

/// Full size (what `BENCHMARK.json` runs) or the ≈1/20 smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What sizes one workload. Fields a workload does not use are zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// `paper_sweep`: cells replayed one after another.
    pub cells: usize,
    /// Stream workloads: the generator's mean concurrency target.
    pub mean_concurrency: f64,
    /// Stream workloads: submission horizon in simulated seconds.
    pub horizon_s: u64,
    /// Static SGX workers (`fullscale_autoscale` starts from the
    /// five-node paper cluster instead and reports 0).
    pub nodes: usize,
    /// `online_burst`: submissions pushed through the channel.
    pub jobs: usize,
    /// The size-dependent assertion's threshold: minimum autoscaler peak
    /// (`fullscale_autoscale`) or minimum `orchestrator.queue.depth_max`
    /// (`backlog_spread`).
    pub floor: u64,
}

impl Size {
    const NONE: Size = Size {
        cells: 0,
        mean_concurrency: 0.0,
        horizon_s: 0,
        nodes: 0,
        jobs: 0,
        floor: 0,
    };

    pub fn to_json(self) -> Value {
        Value::obj([
            ("cells", Value::from(self.cells as u64)),
            ("mean_concurrency", Value::from(self.mean_concurrency)),
            ("horizon_s", Value::from(self.horizon_s)),
            ("nodes", Value::from(self.nodes as u64)),
            ("jobs", Value::from(self.jobs as u64)),
            ("floor", Value::from(self.floor)),
        ])
    }
}

/// Sizes measured on the 2-core reference host so one repetition's timed
/// region takes ≈1.5–2 s (≈8 s on `paper_sweep`, whose three cells each
/// regenerate the trace). README.md has the sizing rule.
pub fn size(workload: Workload, scale: Scale) -> Size {
    let full = scale == Scale::Full;
    match workload {
        Workload::PaperSweep => Size {
            cells: 3,
            ..Size::NONE
        },
        Workload::FullscaleAutoscale => Size {
            mean_concurrency: if full { 30_000.0 } else { 4_000.0 },
            horizon_s: 60,
            floor: if full { 450 } else { 40 },
            ..Size::NONE
        },
        // The horizon stays above the 15-min tsdb retention at every
        // scale: eviction and series turnover are why this workload exists.
        Workload::SteadyStatic => Size {
            mean_concurrency: if full { 1_500.0 } else { 150.0 },
            horizon_s: 1_200,
            nodes: if full { 60 } else { 6 },
            ..Size::NONE
        },
        Workload::BacklogSpread => Size {
            mean_concurrency: if full { 9_000.0 } else { 800.0 },
            horizon_s: 120,
            nodes: if full { 100 } else { 10 },
            floor: if full { 1_000 } else { 100 },
            ..Size::NONE
        },
        Workload::OnlineBurst => Size {
            mean_concurrency: 10_000.0,
            nodes: if full { 400 } else { 40 },
            jobs: if full { 24_000 } else { 1_500 },
            ..Size::NONE
        },
    }
}

/// Everything a seed turns into before the timed region starts. One
/// exists per process, so the variants' sizes are of no account.
#[allow(clippy::large_enum_variant)]
pub enum Input {
    /// `paper_sweep`: experiments run one after another.
    Sweep(Vec<Experiment>),
    /// The three `replay_stream` workloads.
    Stream {
        generator: GeneratorConfig,
        params: WorkloadParams,
        config: ReplayConfig,
        /// Submissions the stream yields, counted on a throwaway copy
        /// during set-up so a lost pod shows against an independent count.
        expected_jobs: u64,
    },
    /// `online_burst`: the pre-drained submissions and the serving
    /// cluster.
    Online {
        jobs: Vec<WorkloadJob>,
        config: ReplayConfig,
    },
}

fn sgx_cluster(nodes: usize) -> ClusterSpec {
    (0..nodes).fold(ClusterSpec::new(), |spec, i| {
        spec.with_node(
            format!("node-{i:05}"),
            MachineSpec::sgx_node(),
            NodeRole::Worker,
        )
    })
}

/// `bench_autoscale`'s node-pool policy, without its service group.
fn autoscale_config() -> AutoscaleConfig {
    let policy = AutoscalerPolicy::paper_defaults()
        .with_scale_up_wait(SimDuration::from_secs(20))
        .with_scale_down_after(SimDuration::from_secs(60))
        .with_max_nodes(12_500)
        .with_max_step(256);
    AutoscaleConfig::every(SimDuration::from_secs(10), policy)
}

pub fn build_input(workload: Workload, seed: u64, scale: Scale) -> Input {
    let size = size(workload, scale);
    let experiment = |seed| match scale {
        Scale::Full => Experiment::paper_replay(seed),
        Scale::Smoke => Experiment::quick(seed),
    };
    let stream = |config: ReplayConfig| {
        let generator = GeneratorConfig::full_scale(seed)
            .with_mean_concurrency(size.mean_concurrency)
            .with_horizon(SimDuration::from_secs(size.horizon_s));
        let params = WorkloadParams::paper(1.0, seed);
        let mut counter = BorgSynthetic::new(generator, params);
        let mut expected_jobs = 0;
        while counter.next_event().is_some() {
            expected_jobs += 1;
        }
        Input::Stream {
            generator,
            params,
            config,
            expected_jobs,
        }
    };
    match workload {
        // Fig. 7's tightest cell (one SGX node, deep FCFS backlog) plus
        // the other two registry policies on the paper cluster.
        Workload::PaperSweep => Input::Sweep(vec![
            experiment(seed)
                .sgx_ratio(1.0)
                .epc_total(ByteSize::from_mib(32))
                .scheduler(orchestrator::SGX_BINPACK),
            experiment(seed)
                .sgx_ratio(0.5)
                .scheduler(orchestrator::SGX_SPREAD),
            experiment(seed)
                .sgx_ratio(1.0)
                .scheduler(orchestrator::DEFAULT_SCHEDULER),
        ]),
        Workload::FullscaleAutoscale => {
            stream(ReplayConfig::paper(seed).with_autoscale(autoscale_config()))
        }
        Workload::SteadyStatic => {
            stream(ReplayConfig::paper(seed).with_cluster(sgx_cluster(size.nodes)))
        }
        Workload::BacklogSpread => stream(
            ReplayConfig::paper(seed)
                .with_cluster(sgx_cluster(size.nodes))
                .with_scheduler(orchestrator::SGX_SPREAD),
        ),
        Workload::OnlineBurst => {
            let generator =
                GeneratorConfig::full_scale(seed).with_mean_concurrency(size.mean_concurrency);
            let mut frontend = BorgSynthetic::new(generator, WorkloadParams::paper(1.0, seed));
            let jobs: Vec<WorkloadJob> = std::iter::from_fn(|| frontend.next_event())
                .filter_map(|event| match event {
                    WorkloadEvent::Submit { job, .. } => Some(job),
                    WorkloadEvent::GroupLoad { .. } => None,
                })
                .take(size.jobs)
                .collect();
            assert_eq!(jobs.len(), size.jobs, "generator horizon too short");
            Input::Online {
                jobs,
                config: ReplayConfig::paper(seed).with_cluster(sgx_cluster(size.nodes)),
            }
        }
    }
}

/// What one run did, in simulated terms. Identical for every repetition
/// of a replay workload on one build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    pub submitted: u64,
    pub completed: u64,
    pub denied: u64,
    pub unschedulable: u64,
    /// Pods still pending or running when the run ended.
    pub unfinished: u64,
    pub timed_out: bool,
    /// Instant the engine's last event fired, microseconds (summed over
    /// sweep cells). Trailing periodic ticks round it up to their period.
    pub end_us: u64,
    /// Instant the last pod terminated, microseconds (summed over sweep
    /// cells): the makespan, free of that rounding.
    pub last_finish_us: u64,
    /// Σ simulated waiting time over started pods, microseconds.
    pub wait_sum_us: u64,
    /// Pods with a waiting time.
    pub waited: u64,
    /// Highest worker count (the static count without autoscaling;
    /// summed over sweep cells).
    pub peak_nodes: u64,
}

impl Outcome {
    pub fn from_records<'a>(
        records: impl Iterator<Item = &'a PodRecord>,
        expected_jobs: u64,
        end: SimTime,
        timed_out: bool,
        peak_nodes: u64,
    ) -> Outcome {
        let mut outcome = Outcome {
            submitted: expected_jobs,
            timed_out,
            end_us: end.as_micros(),
            peak_nodes,
            ..Outcome::default()
        };
        for record in records {
            match record.outcome {
                PodOutcome::Completed { .. } => outcome.completed += 1,
                PodOutcome::Denied { .. } => outcome.denied += 1,
                PodOutcome::Unschedulable => outcome.unschedulable += 1,
                PodOutcome::Pending | PodOutcome::Running { .. } => outcome.unfinished += 1,
            }
            if let Some(wait) = record.waiting_time() {
                outcome.wait_sum_us += wait.as_micros();
                outcome.waited += 1;
            }
            if let Some(finished) = record.finished_at {
                outcome.last_finish_us = outcome.last_finish_us.max(finished.as_micros());
            }
        }
        outcome
    }

    fn from_result(result: &ReplayResult, expected_jobs: u64, static_workers: u64) -> Outcome {
        Outcome::from_records(
            result.runs().iter().map(|run| &run.record),
            expected_jobs,
            result.end_time(),
            result.timed_out(),
            result
                .elasticity()
                .map_or(static_workers, |m| m.peak_nodes as u64),
        )
    }

    /// Folds another sweep cell into this one.
    pub fn merge(&mut self, cell: Outcome) {
        self.submitted += cell.submitted;
        self.completed += cell.completed;
        self.denied += cell.denied;
        self.unschedulable += cell.unschedulable;
        self.unfinished += cell.unfinished;
        self.timed_out |= cell.timed_out;
        self.end_us += cell.end_us;
        self.last_finish_us += cell.last_finish_us;
        self.wait_sum_us += cell.wait_sum_us;
        self.waited += cell.waited;
        self.peak_nodes += cell.peak_nodes;
    }

    pub fn terminal(&self) -> u64 {
        self.completed + self.denied + self.unschedulable
    }

    /// Failed pods: not terminal at the end, lost, unschedulable — or
    /// every pod when the run hit the simulated-time cap. Denied pods are
    /// the paper's intended enforcement outcome (§VI-F), not failures.
    pub fn failed(&self) -> u64 {
        if self.timed_out {
            return self.submitted;
        }
        let lost = self
            .submitted
            .saturating_sub(self.terminal() + self.unfinished);
        self.unfinished + lost + self.unschedulable
    }

    /// Submissions plus pods that reached a terminal state.
    pub fn pod_events(&self) -> u64 {
        self.submitted + self.terminal()
    }

    /// Mean simulated waiting time over started pods — what
    /// `analysis::mean_waiting_secs(&result, None)` computes on these
    /// workloads (no malicious or service pods), taken from the pod
    /// records so the traced run can be held to it. `None` when no pod
    /// has a waiting time (`online_burst`: its records are unreachable
    /// once `serve(self)` returns).
    pub fn mean_wait_s(&self) -> Option<f64> {
        (self.waited > 0).then(|| self.wait_sum_us as f64 / 1e6 / self.waited as f64)
    }

    pub fn makespan_s(&self) -> f64 {
        self.last_finish_us as f64 / 1e6
    }

    /// FNV-1a over the simulated outcome; equal digests mean equal
    /// simulated behaviour as far as the benchmark can see it.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.completed,
            self.denied,
            self.unschedulable,
            self.end_us,
            self.last_finish_us,
            self.wait_sum_us,
            self.peak_nodes,
        ];
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            ("submitted", Value::from(self.submitted)),
            ("completed", Value::from(self.completed)),
            ("denied", Value::from(self.denied)),
            ("unschedulable", Value::from(self.unschedulable)),
            ("unfinished", Value::from(self.unfinished)),
            ("timed_out", Value::from(self.timed_out)),
            ("end_us", Value::from(self.end_us)),
            ("last_finish_us", Value::from(self.last_finish_us)),
            ("wait_sum_us", Value::from(self.wait_sum_us)),
            ("waited", Value::from(self.waited)),
            ("peak_nodes", Value::from(self.peak_nodes)),
        ])
    }

    pub fn from_json(value: &Value) -> Option<Outcome> {
        let field = |key| value.get(key).and_then(Value::as_u64);
        Some(Outcome {
            submitted: field("submitted")?,
            completed: field("completed")?,
            denied: field("denied")?,
            unschedulable: field("unschedulable")?,
            unfinished: field("unfinished")?,
            timed_out: value.get("timed_out")?.as_bool()?,
            end_us: field("end_us")?,
            last_finish_us: field("last_finish_us")?,
            wait_sum_us: field("wait_sum_us")?,
            waited: field("waited")?,
            peak_nodes: field("peak_nodes")?,
        })
    }
}

/// Worker nodes of a cluster spec (everything but the master).
pub fn worker_count(spec: &ClusterSpec) -> u64 {
    spec.members()
        .iter()
        .filter(|(_, _, role)| *role == NodeRole::Worker)
        .count() as u64
}

/// One untraced run through the real entry point.
pub struct Untraced {
    pub outcome: Outcome,
    /// Wall time of the entry-point calls, nothing else.
    pub wall_s: f64,
    /// `online_burst` only: producer-side timings.
    pub online: Option<OnlineTimings>,
}

/// Producer-side view of an online session.
pub struct OnlineTimings {
    /// `serve` start → last submission accepted.
    pub ingest_s: f64,
    /// Per-submission time blocked in `OnlineHandle::submit`, ms. Empty
    /// unless stamping was asked for.
    pub submit_block_ms: Vec<f64>,
}

/// Runs `input` once. `stamp_submits` makes the `online_burst` producer
/// time every `submit` call (traced runs only: two clock reads per
/// submission are not part of the program).
pub fn run_untraced(input: &Input, stamp_submits: bool) -> Untraced {
    match input {
        Input::Sweep(cells) => {
            let mut outcome = Outcome::default();
            let start = Instant::now();
            let results: Vec<ReplayResult> = cells.iter().map(Experiment::run).collect();
            let wall_s = start.elapsed().as_secs_f64();
            for (cell, result) in cells.iter().zip(&results) {
                let workers = worker_count(&cell.replay_config().cluster);
                // The sweep has no independent job count short of
                // regenerating the trace; the traced run checks it.
                outcome.merge(Outcome::from_result(
                    result,
                    result.runs().len() as u64,
                    workers,
                ));
            }
            Untraced {
                outcome,
                wall_s,
                online: None,
            }
        }
        Input::Stream {
            generator,
            params,
            config,
            expected_jobs,
        } => {
            let mut frontend = BorgSynthetic::new(*generator, *params);
            let start = Instant::now();
            let result = replay_stream(&mut frontend, config);
            let wall_s = start.elapsed().as_secs_f64();
            Untraced {
                outcome: Outcome::from_result(
                    &result,
                    *expected_jobs,
                    worker_count(&config.cluster),
                ),
                wall_s,
                online: None,
            }
        }
        Input::Online { jobs, config } => {
            let submitted = jobs.len() as u64;
            let jobs = jobs.clone();
            let (handle, mut frontend) = online_channel();
            let start = Instant::now();
            let producer = std::thread::spawn(move || {
                let mut submit_block_ms = Vec::new();
                if stamp_submits {
                    submit_block_ms.reserve_exact(jobs.len());
                }
                for job in jobs {
                    let before = stamp_submits.then(Instant::now);
                    assert!(handle.submit(job), "server hung up mid-stream");
                    if let Some(before) = before {
                        submit_block_ms.push(before.elapsed().as_secs_f64() * 1e3);
                    }
                }
                handle.close();
                OnlineTimings {
                    ingest_s: start.elapsed().as_secs_f64(),
                    submit_block_ms,
                }
            });
            let report = OnlineServer::new(config).serve(&mut frontend);
            let timings = producer.join().expect("producer thread panicked");
            let wall_s = start.elapsed().as_secs_f64();
            let terminal = (report.completed + report.denied + report.unschedulable) as u64;
            Untraced {
                outcome: Outcome {
                    submitted,
                    completed: report.completed as u64,
                    denied: report.denied as u64,
                    unschedulable: report.unschedulable as u64,
                    unfinished: (report.submitted as u64).saturating_sub(terminal),
                    timed_out: false,
                    end_us: report.sim_end.as_micros(),
                    // The drain stops at the last pod's finish.
                    last_finish_us: report.sim_end.as_micros(),
                    wait_sum_us: 0,
                    waited: 0,
                    peak_nodes: worker_count(&config.cluster),
                },
                wall_s,
                online: Some(timings),
            }
        }
    }
}

/// A harness-owned frontend over already materialised jobs: what the
/// traced sweep cells and the virtual-time twin of `online_burst` stream
/// from.
pub struct VecFrontend {
    jobs: std::vec::IntoIter<WorkloadJob>,
    expected_jobs: usize,
    horizon: SimDuration,
}

impl VecFrontend {
    pub fn new(jobs: Vec<WorkloadJob>) -> Self {
        let horizon = jobs.last().map_or(SimDuration::ZERO, |j| {
            j.submit.saturating_since(SimTime::ZERO)
        });
        VecFrontend {
            expected_jobs: jobs.len(),
            jobs: jobs.into_iter(),
            horizon,
        }
    }
}

impl TraceFrontend for VecFrontend {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.jobs.next().map(|job| WorkloadEvent::Submit {
            job,
            hostile: false,
        })
    }

    fn hint(&self) -> FrontendHint {
        FrontendHint {
            expected_jobs: self.expected_jobs,
            horizon: self.horizon,
            service_groups: Vec::new(),
        }
    }
}

/// The virtual-time twin of `online_burst`: the same jobs, submitted
/// uniformly over the first simulated second instead of at wall-clock
/// instants, so they can be replayed (and traced) deterministically.
pub fn online_twin_jobs(jobs: &[WorkloadJob]) -> Vec<WorkloadJob> {
    let n = jobs.len().max(1) as u64;
    jobs.iter()
        .enumerate()
        .map(|(i, job)| WorkloadJob {
            submit: SimTime::from_micros(i as u64 * 1_000_000 / n),
            ..*job
        })
        .collect()
}

/// The twin replayed untraced through `replay_stream`; supplies
/// `online_burst`'s `sim_mean_wait_s`.
pub fn run_online_twin(jobs: &[WorkloadJob], config: &ReplayConfig) -> Outcome {
    let twin = online_twin_jobs(jobs);
    let expected = twin.len() as u64;
    let result = replay_stream(&mut VecFrontend::new(twin), config);
    Outcome::from_result(&result, expected, worker_count(&config.cluster))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            submitted: 100,
            completed: 90,
            denied: 6,
            unschedulable: 1,
            unfinished: 2,
            timed_out: false,
            end_us: 400_000_000,
            last_finish_us: 398_500_000,
            wait_sum_us: 250_000_000,
            waited: 96,
            peak_nodes: 12,
        }
    }

    #[test]
    fn failed_counts_unfinished_lost_and_unschedulable_not_denied() {
        // 100 submitted, 97 terminal, 2 unfinished → 1 lost.
        assert_eq!(outcome().failed(), 2 + 1 + 1);
        let clean = Outcome {
            completed: 94,
            unschedulable: 0,
            unfinished: 0,
            ..outcome()
        };
        assert_eq!(clean.failed(), 0);
        let capped = Outcome {
            timed_out: true,
            ..clean
        };
        assert_eq!(capped.failed(), 100);
    }

    #[test]
    fn digest_follows_simulated_fields_only() {
        let base = outcome();
        assert_eq!(base.digest(), outcome().digest());
        for changed in [
            Outcome {
                completed: 91,
                ..base
            },
            Outcome { denied: 7, ..base },
            Outcome {
                end_us: 400_000_001,
                ..base
            },
            Outcome {
                last_finish_us: 1,
                ..base
            },
            Outcome {
                wait_sum_us: 1,
                ..base
            },
            Outcome {
                peak_nodes: 13,
                ..base
            },
        ] {
            assert_ne!(changed.digest(), base.digest());
        }
        assert_eq!(Outcome::default().digest(), Outcome::default().digest());
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let text = outcome().to_json().to_line();
        let back = Outcome::from_json(&crate::json::parse(&text).unwrap());
        assert_eq!(back, Some(outcome()));
    }

    #[test]
    fn names_round_trip_and_sizes_keep_their_invariants() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        for scale in [Scale::Full, Scale::Smoke] {
            // Horizon beyond the 15-min tsdb retention, always.
            assert!(size(Workload::SteadyStatic, scale).horizon_s > 15 * 60);
        }
        assert!(size(Workload::FullscaleAutoscale, Scale::Full).floor >= 450);
        assert!(size(Workload::BacklogSpread, Scale::Full).floor >= 1_000);
    }

    #[test]
    fn twin_spreads_submissions_over_the_first_second_in_order() {
        let Input::Online { jobs, .. } = build_input(Workload::OnlineBurst, 5, Scale::Smoke) else {
            panic!("online input expected");
        };
        let twin = online_twin_jobs(&jobs);
        assert_eq!(twin.len(), jobs.len());
        assert_eq!(twin[0].submit, SimTime::ZERO);
        assert!(twin.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(twin.last().unwrap().submit < SimTime::from_secs(1));
        assert!(twin.iter().zip(&jobs).all(|(t, j)| t.id == j.id));
    }
}
