//! Pluggable streaming workload frontends.
//!
//! The replay engine historically iterated a fully materialised
//! [`Workload`], which caps the horizon at whatever fits in memory
//! (`GeneratorConfig::full_scale` already means ≈1.24 M jobs up front).
//! A [`TraceFrontend`] decouples *where jobs come from* from *how they
//! are replayed*: the engine pulls time-ordered [`WorkloadEvent`]s one
//! at a time, so the frontend holds O(in-flight) memory for a multi-day
//! horizon instead of O(total jobs). That is the frontend's bound, not
//! the process's: the replay keeps every pod's history to its end, and
//! that grows with total jobs.
//!
//! Four frontends ship behind the [`FrontendRegistry`] (mirroring the
//! orchestrator's `PolicyRegistry`):
//!
//! * [`BorgSynthetic`] — the calibrated Borg generator, streamed. Lazy
//!   per-job materialisation is bit-identical to
//!   `Workload::materialize` because the SGX designation is an
//!   independent per-job function of `(seed, job id)`.
//! * `AlibabaShaped` — shaped to the Alibaba-cluster-trace-v2017
//!   marginals: short-task-heavy batch durations with a minority of
//!   long-running service containers.
//! * `DiurnalServing` — long-running service groups whose offered
//!   load follows a compressed diurnal sinusoid plus random bursts,
//!   driving the pod-group autoscaler through [`WorkloadEvent::GroupLoad`]
//!   events, over a light background batch stream.
//! * `AdversarialMix` — an honest Borg stream interleaved with
//!   coordinated waves of EPC-greedy tenants that advertise almost
//!   nothing and then allocate a large slice of the EPC.
//!
//! The `simulation` crate adds an `OnlineFrontend` on the same trait,
//! backed by a channel, so a long-running orchestrator can accept
//! submissions at wall-clock speed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt;

use des::rng::{derive_seed, sample_exponential, seeded_rng};
use des::{SimDuration, SimTime};
use sgx_sim::units::{ByteSize, USABLE_EPC};

use crate::generator::{DurationModel, GeneratorConfig, MemoryModel, TraceStream};
use crate::job::{JobId, TraceJob};
use crate::workload::{JobKind, Workload, WorkloadJob, WorkloadParams};

/// One event pulled from a [`TraceFrontend`], in non-decreasing time
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadEvent {
    /// A job submission. `hostile` marks jobs the frontend *intends* as
    /// adversarial (EPC-greedy waves); the replay books them the way it
    /// books the malicious tenant, separate from honest statistics.
    Submit {
        /// The materialised job (the submission instant is `job.submit`).
        job: WorkloadJob,
        /// `true` for adversarial submissions.
        hostile: bool,
    },
    /// A change in the offered load of a long-running service group,
    /// consumed by the pod-group autoscaler.
    GroupLoad {
        /// Instant the new load takes effect.
        at: SimTime,
        /// Name of the service group (must match a [`ServiceGroup`]
        /// announced in the frontend's [`FrontendHint`]).
        group: String,
        /// Offered load in the group's capacity units (requests/sec).
        /// `0.0` drains the group.
        load: f64,
    },
}

impl WorkloadEvent {
    /// The instant the event takes effect.
    pub fn at(&self) -> SimTime {
        match self {
            WorkloadEvent::Submit { job, .. } => job.submit,
            WorkloadEvent::GroupLoad { at, .. } => *at,
        }
    }
}

/// A long-running service group template announced by a frontend.
///
/// The replay turns each template into a pod group reconciled by the
/// pod-group autoscaler; the frontend then drives its desired replica
/// count through [`WorkloadEvent::GroupLoad`] events.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceGroup {
    /// Group name, unique within the frontend.
    pub name: String,
    /// Whether replicas are SGX pods (EPC-backed memory).
    pub sgx: bool,
    /// Memory each replica advertises.
    pub replica_request: ByteSize,
    /// Replica floor while the group is live.
    pub min_replicas: usize,
    /// Replica ceiling.
    pub max_replicas: usize,
    /// Load one replica absorbs (requests/sec).
    pub capacity_per_replica: f64,
}

/// Sizing information a frontend can give the replay engine up front.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendHint {
    /// Rough expected number of job submissions (queue pre-sizing only —
    /// correctness never depends on it).
    pub expected_jobs: usize,
    /// Horizon after which the frontend yields no further events.
    pub horizon: SimDuration,
    /// Service groups the frontend will drive via `GroupLoad` events.
    pub service_groups: Vec<ServiceGroup>,
}

/// A streaming source of time-ordered workload events.
///
/// Implementations must yield events with non-decreasing
/// [`WorkloadEvent::at`] instants and must terminate: after the last
/// `Submit`, every announced service group must eventually receive a
/// `GroupLoad` with load `0.0` (or rely on the replay's replica
/// backstop) so the replay drains.
pub trait TraceFrontend: Send {
    /// Pulls the next event, or `None` when the trace is exhausted.
    fn next_event(&mut self) -> Option<WorkloadEvent>;

    /// Sizing hint; called once before the replay starts.
    fn hint(&self) -> FrontendHint;
}

/// Adapter replaying an already-materialised [`Workload`] through the
/// streaming interface — how a `&Workload` reaches
/// `simulation::replay_stream`, the one entry point.
#[derive(Debug)]
pub struct MaterializedFrontend<'a> {
    workload: &'a Workload,
    next: usize,
}

impl<'a> MaterializedFrontend<'a> {
    /// Streams `workload` in submission order.
    pub fn new(workload: &'a Workload) -> Self {
        MaterializedFrontend { workload, next: 0 }
    }
}

impl TraceFrontend for MaterializedFrontend<'_> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let job = *self.workload.jobs().get(self.next)?;
        self.next += 1;
        Some(WorkloadEvent::Submit {
            job,
            hostile: false,
        })
    }

    fn hint(&self) -> FrontendHint {
        FrontendHint {
            expected_jobs: self.workload.len(),
            horizon: self
                .workload
                .jobs()
                .last()
                .map(|j| {
                    let end = j.submit.checked_add(j.duration).unwrap_or(SimTime::MAX);
                    end.saturating_since(SimTime::ZERO)
                })
                .unwrap_or(SimDuration::ZERO),
            service_groups: Vec::new(),
        }
    }
}

/// The calibrated Borg generator, streamed: arrivals come from
/// [`GeneratorConfig::stream_sampled`] and each job is materialised
/// lazily with `WorkloadJob::from_trace`. Collecting the stream is
/// bit-identical to `Workload::materialize(&config.generate_sampled(k), &params)`.
#[derive(Debug)]
pub struct BorgSynthetic {
    stream: TraceStream,
    params: WorkloadParams,
    config: GeneratorConfig,
    keep_every: usize,
}

impl BorgSynthetic {
    /// Streams every arrival of `config` under `params`.
    pub fn new(config: GeneratorConfig, params: WorkloadParams) -> Self {
        BorgSynthetic::sampled(config, params, 1)
    }

    /// Streams every `keep_every`-th arrival (the paper's frequency
    /// reduction, fused into the stream).
    ///
    /// # Panics
    ///
    /// Panics if `keep_every` is zero.
    pub fn sampled(config: GeneratorConfig, params: WorkloadParams, keep_every: usize) -> Self {
        BorgSynthetic {
            stream: config.stream_sampled(keep_every),
            params,
            config,
            keep_every,
        }
    }
}

impl TraceFrontend for BorgSynthetic {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.stream.next().map(|j| WorkloadEvent::Submit {
            job: WorkloadJob::from_trace(&j, &self.params),
            hostile: false,
        })
    }

    fn hint(&self) -> FrontendHint {
        let expected =
            self.stream.base_rate() * self.config.horizon.as_secs_f64() / self.keep_every as f64;
        FrontendHint {
            expected_jobs: expected.ceil() as usize,
            horizon: self.config.horizon,
            service_groups: Vec::new(),
        }
    }
}

/// A workload shaped to the Alibaba-cluster-trace-v2017 marginals:
/// arrivals are dominated by short batch tasks (log-normal durations,
/// median well under a minute) with a minority of long-running service
/// containers, and memory fractions skew slightly heavier for service
/// jobs. SGX designation and memory scaling reuse the paper's
/// materialisation ([`WorkloadParams`]), so the sweep axis stays
/// comparable across frontends.
#[derive(Debug)]
pub(crate) struct AlibabaShaped {
    arrivals_rng: StdRng,
    attrs_rng: StdRng,
    params: WorkloadParams,
    horizon: SimDuration,
    rate: f64,
    batch_fraction: f64,
    batch_duration: DurationModel,
    service_duration: DurationModel,
    batch_memory: MemoryModel,
    service_memory: MemoryModel,
    t: f64,
    index: u64,
}

impl AlibabaShaped {
    /// Builds a stream targeting `mean_concurrency` concurrent jobs over
    /// `horizon`, designating `sgx_ratio` of jobs SGX-enabled.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_concurrency` is positive and finite, or if
    /// `horizon` is zero.
    pub(crate) fn new(
        seed: u64,
        sgx_ratio: f64,
        mean_concurrency: f64,
        horizon: SimDuration,
    ) -> Self {
        assert!(
            mean_concurrency.is_finite() && mean_concurrency > 0.0,
            "mean concurrency must be positive and finite"
        );
        assert!(!horizon.is_zero(), "horizon must be non-zero");
        // v2017 marginals: batch instances dominate the count and are
        // short (seconds to minutes); service containers run long.
        let batch_fraction = 0.85;
        let batch_duration = DurationModel {
            log_mean: 40.0_f64.ln(),
            log_sigma: 1.1,
            min: SimDuration::from_secs(1),
            max: SimDuration::from_secs(1_800),
        };
        let service_duration = DurationModel {
            log_mean: 1_800.0_f64.ln(),
            log_sigma: 0.6,
            min: SimDuration::from_secs(300),
            max: SimDuration::from_secs(7_200),
        };
        // Normalised memory: batch tasks sit far below 0.1 of capacity,
        // service containers plan noticeably more than they use.
        let batch_memory = MemoryModel {
            log_median_fraction: 0.004_f64.ln(),
            ..MemoryModel::paper_calibrated()
        };
        let service_memory = MemoryModel {
            log_median_fraction: 0.02_f64.ln(),
            overstatement_log_mean: 2.0_f64.ln(),
            ..MemoryModel::paper_calibrated()
        };
        let mean_duration = batch_fraction * batch_duration.mean_secs()
            + (1.0 - batch_fraction) * service_duration.mean_secs();
        AlibabaShaped {
            arrivals_rng: seeded_rng(derive_seed(seed, "alibaba-arrivals")),
            attrs_rng: seeded_rng(derive_seed(seed, "alibaba-attributes")),
            params: WorkloadParams::paper(sgx_ratio, seed),
            horizon,
            rate: mean_concurrency / mean_duration,
            batch_fraction,
            batch_duration,
            service_duration,
            batch_memory,
            service_memory,
            t: 0.0,
            index: 0,
        }
    }
}

impl TraceFrontend for AlibabaShaped {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.t += sample_exponential(&mut self.arrivals_rng, self.rate);
        if self.t >= self.horizon.as_secs_f64() {
            return None;
        }
        self.index += 1;
        let is_batch = self.attrs_rng.random::<f64>() < self.batch_fraction;
        let (duration_model, memory_model) = if is_batch {
            (&self.batch_duration, &self.batch_memory)
        } else {
            (&self.service_duration, &self.service_memory)
        };
        let duration = duration_model.sample(&mut self.attrs_rng);
        let (assigned, max_usage) = memory_model.sample(&mut self.attrs_rng);
        let tj = TraceJob {
            id: JobId::new(self.index),
            submit: SimTime::from_secs_f64(self.t),
            duration,
            assigned_mem_fraction: assigned,
            max_mem_fraction: max_usage,
        };
        Some(WorkloadEvent::Submit {
            job: WorkloadJob::from_trace(&tj, &self.params),
            hostile: false,
        })
    }

    fn hint(&self) -> FrontendHint {
        FrontendHint {
            expected_jobs: (self.rate * self.horizon.as_secs_f64()).ceil() as usize,
            horizon: self.horizon,
            service_groups: Vec::new(),
        }
    }
}

/// The "millions of users" serving scenario: a handful of long-running
/// service groups whose offered load follows one compressed diurnal
/// sinusoid cycle over the horizon, with random multiplicative bursts,
/// emitted as [`WorkloadEvent::GroupLoad`] every 30 s — plus a light
/// background batch stream so the batch path stays exercised. Every
/// group's load is driven to `0.0` at the horizon so the replay drains.
#[derive(Debug)]
pub(crate) struct DiurnalServing {
    groups: Vec<ServiceGroup>,
    base_loads: Vec<f64>,
    phases: Vec<f64>,
    burst_rng: StdRng,
    cadence: f64,
    next_tick: f64,
    horizon: SimDuration,
    pending: VecDeque<WorkloadEvent>,
    drained: bool,
    batch: BorgSynthetic,
    batch_peek: Option<WorkloadEvent>,
}

impl DiurnalServing {
    /// Builds the serving scenario: `base_load` sets the mean offered
    /// load of the largest group (its diurnal peak is ≈1.5×).
    ///
    /// # Panics
    ///
    /// Panics unless `base_load` is positive and finite, or if `horizon`
    /// is zero.
    pub(crate) fn new(seed: u64, sgx_ratio: f64, base_load: f64, horizon: SimDuration) -> Self {
        assert!(
            base_load.is_finite() && base_load > 0.0,
            "base load must be positive and finite"
        );
        assert!(!horizon.is_zero(), "horizon must be non-zero");
        let groups = vec![
            ServiceGroup {
                name: "web".to_string(),
                sgx: true,
                replica_request: ByteSize::from_mib(24),
                min_replicas: 2,
                max_replicas: 64,
                capacity_per_replica: 100.0,
            },
            ServiceGroup {
                name: "checkout".to_string(),
                sgx: true,
                replica_request: ByteSize::from_mib(32),
                min_replicas: 1,
                max_replicas: 32,
                capacity_per_replica: 50.0,
            },
            ServiceGroup {
                name: "analytics".to_string(),
                sgx: false,
                replica_request: ByteSize::from_gib(1),
                min_replicas: 1,
                max_replicas: 16,
                capacity_per_replica: 200.0,
            },
        ];
        let base_loads = vec![base_load, base_load * 0.3, base_load * 0.5];
        // Staggered peaks: checkout trails the web peak, analytics is
        // counter-cyclical (overnight crunch).
        let phases = vec![0.0, 0.6, std::f64::consts::PI];
        let batch_config = GeneratorConfig::small(seed)
            .with_mean_concurrency(8.0)
            .with_horizon(horizon);
        DiurnalServing {
            groups,
            base_loads,
            phases,
            burst_rng: seeded_rng(derive_seed(seed, "diurnal-bursts")),
            cadence: 30.0,
            next_tick: 0.0,
            horizon,
            pending: VecDeque::new(),
            drained: false,
            batch: BorgSynthetic::new(batch_config, WorkloadParams::paper(sgx_ratio, seed)),
            batch_peek: None,
        }
    }

    /// Offered load of group `i` at elapsed second `t` (before bursts):
    /// one full sinusoid cycle compressed into the horizon.
    fn diurnal_load(&self, i: usize, t: f64) -> f64 {
        use std::f64::consts::TAU;
        let cycle = TAU * t / self.horizon.as_secs_f64();
        (self.base_loads[i] * (1.0 + 0.5 * (cycle + self.phases[i]).sin())).max(0.0)
    }

    /// Refills `pending` with the next cadence tick's `GroupLoad` events
    /// (or the final drain events at the horizon).
    fn refill(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        let horizon = self.horizon.as_secs_f64();
        if self.next_tick < horizon {
            let at = SimTime::from_secs_f64(self.next_tick);
            for i in 0..self.groups.len() {
                let mut load = self.diurnal_load(i, self.next_tick);
                // Bursty request spikes: rare, sharp, per group per tick.
                if self.burst_rng.random::<f64>() < 0.08 {
                    load *= 1.5 + 2.0 * self.burst_rng.random::<f64>();
                }
                self.pending.push_back(WorkloadEvent::GroupLoad {
                    at,
                    group: self.groups[i].name.clone(),
                    load,
                });
            }
            self.next_tick += self.cadence;
        } else if !self.drained {
            self.drained = true;
            let at = SimTime::from_secs_f64(horizon);
            for g in &self.groups {
                self.pending.push_back(WorkloadEvent::GroupLoad {
                    at,
                    group: g.name.clone(),
                    load: 0.0,
                });
            }
        }
    }
}

impl TraceFrontend for DiurnalServing {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.refill();
        if self.batch_peek.is_none() {
            self.batch_peek = self.batch.next_event();
        }
        match (self.pending.front(), &self.batch_peek) {
            // Group events win ties so load changes precede same-instant
            // submissions deterministically.
            (Some(g), Some(b)) if b.at() < g.at() => self.batch_peek.take(),
            (Some(_), _) => self.pending.pop_front(),
            (None, Some(_)) => self.batch_peek.take(),
            (None, None) => None,
        }
    }

    fn hint(&self) -> FrontendHint {
        FrontendHint {
            expected_jobs: self.batch.hint().expected_jobs,
            horizon: self.horizon,
            service_groups: self.groups.clone(),
        }
    }
}

/// Base of the id range hostile wave jobs draw from, far above any honest
/// arrival index.
const HOSTILE_ID_BASE: u64 = 1 << 40;

/// An honest Borg stream interleaved with coordinated waves of
/// EPC-greedy tenants: every `wave_period` a burst of jobs lands that
/// advertises a single-page-sized request and then allocates a large
/// slice of the usable EPC — the malicious-tenant stressor (§VI-F)
/// scaled from one squatter to a coordinated campaign. With limits
/// enforced the waves are denied at allocation time; without limits they
/// squat the EPC and the honest jobs feel it.
#[derive(Debug)]
pub(crate) struct AdversarialMix {
    honest: BorgSynthetic,
    honest_peek: Option<WorkloadEvent>,
    wave_rng: StdRng,
    wave_period: f64,
    wave_size: usize,
    next_wave: f64,
    wave_emitted: usize,
    wave_index: u64,
    horizon: SimDuration,
}

impl AdversarialMix {
    /// Builds the mix: honest arrivals from `config` under `params`,
    /// plus `wave_size` hostile jobs every `wave_period` (first wave one
    /// period in).
    ///
    /// # Panics
    ///
    /// Panics if `wave_period` is zero or `wave_size` is zero.
    pub(crate) fn new(
        config: GeneratorConfig,
        params: WorkloadParams,
        wave_period: SimDuration,
        wave_size: usize,
    ) -> Self {
        assert!(!wave_period.is_zero(), "wave period must be non-zero");
        assert!(wave_size > 0, "wave size must be at least 1");
        let horizon = config.horizon;
        AdversarialMix {
            wave_rng: seeded_rng(derive_seed(params.seed, "adversarial-waves")),
            honest: BorgSynthetic::new(config, params),
            honest_peek: None,
            wave_period: wave_period.as_secs_f64(),
            wave_size,
            next_wave: wave_period.as_secs_f64(),
            wave_emitted: 0,
            wave_index: 0,
            horizon,
        }
    }

    /// The next hostile submission, if any wave remains before the
    /// horizon.
    fn next_hostile(&mut self) -> Option<WorkloadEvent> {
        if self.next_wave >= self.horizon.as_secs_f64() {
            return None;
        }
        let job = WorkloadJob {
            id: JobId::new(HOSTILE_ID_BASE + self.wave_index),
            submit: SimTime::from_secs_f64(self.next_wave),
            duration: SimDuration::from_secs(120 + 60 * (self.wave_emitted as u64 % 3)),
            kind: JobKind::Sgx,
            // Advertise almost nothing, then grab 25–45 % of the EPC.
            mem_request: ByteSize::from_kib(4),
            mem_usage: USABLE_EPC.mul_f64(0.25 + 0.2 * self.wave_rng.random::<f64>()),
        };
        self.wave_index += 1;
        self.wave_emitted += 1;
        if self.wave_emitted == self.wave_size {
            self.wave_emitted = 0;
            self.next_wave += self.wave_period;
        }
        Some(WorkloadEvent::Submit { job, hostile: true })
    }
}

impl TraceFrontend for AdversarialMix {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        if self.honest_peek.is_none() {
            self.honest_peek = self.honest.next_event();
        }
        let wave_at = SimTime::from_secs_f64(self.next_wave);
        match &self.honest_peek {
            // Honest jobs win ties; the wave lands right behind them.
            Some(h) if h.at() <= wave_at || self.next_wave >= self.horizon.as_secs_f64() => {
                self.honest_peek.take()
            }
            Some(_) => self.next_hostile(),
            None => self.next_hostile(),
        }
    }

    fn hint(&self) -> FrontendHint {
        let waves = (self.horizon.as_secs_f64() / self.wave_period).floor() as usize;
        FrontendHint {
            expected_jobs: self.honest.hint().expected_jobs + waves * self.wave_size,
            horizon: self.horizon,
            service_groups: Vec::new(),
        }
    }
}

/// Name of the streamed Borg generator frontend.
pub const BORG_SYNTHETIC: &str = "borg-synthetic";
/// Name of the Alibaba-2017-shaped frontend.
pub const ALIBABA_2017: &str = "alibaba-2017";
/// Name of the diurnal serving frontend.
pub const DIURNAL_SERVING: &str = "diurnal-serving";
/// Name of the adversarial EPC-greedy-wave frontend.
pub const ADVERSARIAL_MIX: &str = "adversarial-mix";

/// Scale preset a registry-built frontend runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendScale {
    /// CI-sized: minutes of horizon, hundreds of jobs.
    Smoke,
    /// Experiment-sized: the scale `exp_frontends` sweeps at.
    Full,
}

/// Parameters a registry factory builds a frontend from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendParams {
    /// Base seed; every frontend stream is a pure function of it.
    pub seed: u64,
    /// Fraction of jobs designated SGX-enabled.
    pub sgx_ratio: f64,
    /// Scale preset.
    pub scale: FrontendScale,
}

impl FrontendParams {
    /// Full-scale parameters.
    pub fn new(seed: u64, sgx_ratio: f64) -> Self {
        FrontendParams {
            seed,
            sgx_ratio,
            scale: FrontendScale::Full,
        }
    }

    /// Switches to the CI smoke scale.
    pub fn smoke(mut self) -> Self {
        self.scale = FrontendScale::Smoke;
        self
    }
}

type FrontendFactory = Arc<dyn Fn(&FrontendParams) -> Box<dyn TraceFrontend> + Send + Sync>;

struct FrontendEntry {
    summary: String,
    calibration: String,
    build: FrontendFactory,
}

/// Single source of truth for frontend names — the streaming analogue of
/// the orchestrator's `PolicyRegistry`. CLI flags validate against
/// [`names`](Self::names), experiments build via
/// [`build`](Self::build), and the DESIGN.md table is generated by
/// [`markdown_table`](Self::markdown_table).
pub struct FrontendRegistry {
    entries: BTreeMap<String, FrontendEntry>,
}

impl FrontendRegistry {
    /// The four built-in frontends.
    pub fn builtin() -> Self {
        let mut registry = FrontendRegistry {
            entries: BTreeMap::new(),
        };
        registry.register(
            BORG_SYNTHETIC,
            "batch jobs, bursty non-homogeneous Poisson arrivals",
            "Borg 2011 marginals (Figs. 3–5), streamed generator",
            |p| {
                let (config, keep_every) = match p.scale {
                    FrontendScale::Smoke => (
                        GeneratorConfig::small(p.seed).with_horizon(SimDuration::from_mins(10)),
                        1,
                    ),
                    FrontendScale::Full => (GeneratorConfig::replay_scale(p.seed), 1200),
                };
                Box::new(BorgSynthetic::sampled(
                    config,
                    WorkloadParams::paper(p.sgx_ratio, p.seed),
                    keep_every,
                ))
            },
        );
        registry.register(
            ALIBABA_2017,
            "short-task-heavy batch majority + long-running service minority",
            "Alibaba-cluster-trace-v2017 duration/memory marginals",
            |p| {
                let (concurrency, horizon) = match p.scale {
                    FrontendScale::Smoke => (25.0, SimDuration::from_mins(10)),
                    FrontendScale::Full => (120.0, SimDuration::from_hours(1)),
                };
                Box::new(AlibabaShaped::new(
                    p.seed,
                    p.sgx_ratio,
                    concurrency,
                    horizon,
                ))
            },
        );
        registry.register(
            DIURNAL_SERVING,
            "3 service groups on GroupLoad sinusoid + bursts, light batch floor",
            "compressed diurnal cycle, 30 s load cadence",
            |p| {
                let (base_load, horizon) = match p.scale {
                    FrontendScale::Smoke => (400.0, SimDuration::from_mins(10)),
                    FrontendScale::Full => (1_500.0, SimDuration::from_hours(1)),
                };
                Box::new(DiurnalServing::new(p.seed, p.sgx_ratio, base_load, horizon))
            },
        );
        registry.register(
            ADVERSARIAL_MIX,
            "honest Borg stream + coordinated EPC-greedy hostile waves",
            "malicious tenant (§VI-F) scaled to wave campaigns",
            |p| {
                let (config, period, size) = match p.scale {
                    FrontendScale::Smoke => (
                        GeneratorConfig::small(p.seed).with_horizon(SimDuration::from_mins(10)),
                        SimDuration::from_secs(120),
                        3,
                    ),
                    FrontendScale::Full => (
                        GeneratorConfig::small(p.seed),
                        SimDuration::from_secs(300),
                        6,
                    ),
                };
                Box::new(AdversarialMix::new(
                    config,
                    WorkloadParams::paper(p.sgx_ratio, p.seed),
                    period,
                    size,
                ))
            },
        );
        registry
    }

    /// Registers (or replaces) a frontend under `name`. `summary`
    /// describes the event mix, `calibration` what it is shaped to.
    pub(crate) fn register(
        &mut self,
        name: &str,
        summary: &str,
        calibration: &str,
        build: impl Fn(&FrontendParams) -> Box<dyn TraceFrontend> + Send + Sync + 'static,
    ) {
        self.entries.insert(
            name.to_string(),
            FrontendEntry {
                summary: summary.to_string(),
                calibration: calibration.to_string(),
                build: Arc::new(build),
            },
        );
    }

    /// `true` when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Builds the named frontend, or `None` for an unknown name.
    pub fn build(&self, name: &str, params: &FrontendParams) -> Option<Box<dyn TraceFrontend>> {
        self.entries.get(name).map(|e| (e.build)(params))
    }

    /// The DESIGN.md "Workload frontends" table (kept in sync by a
    /// docs-sync test, like the Schedulers table).
    pub fn markdown_table(&self) -> String {
        let mut out = String::from(
            "| frontend | event mix | calibration |\n\
             |---|---|---|\n",
        );
        for (name, entry) in &self.entries {
            out.push_str(&format!(
                "| `{name}` | {} | {} |\n",
                entry.summary, entry.calibration
            ));
        }
        out
    }
}

impl std::fmt::Debug for FrontendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(frontend: &mut dyn TraceFrontend) -> Vec<WorkloadEvent> {
        let mut events = Vec::new();
        while let Some(ev) = frontend.next_event() {
            events.push(ev);
        }
        events
    }

    #[test]
    fn borg_synthetic_stream_matches_materialised_workload() {
        let config = GeneratorConfig::small(21);
        let params = WorkloadParams::paper(0.6, 21);
        let trace = config.generate_sampled(3);
        let materialised = Workload::materialize(&trace, &params);
        let mut frontend = BorgSynthetic::sampled(config, params, 3);
        let streamed: Vec<WorkloadJob> = drain(&mut frontend)
            .into_iter()
            .map(|ev| match ev {
                WorkloadEvent::Submit { job, hostile } => {
                    assert!(!hostile);
                    job
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(materialised.jobs(), streamed.as_slice());
    }

    #[test]
    fn builtin_frontends_yield_time_ordered_terminating_streams() {
        let registry = FrontendRegistry::builtin();
        assert_eq!(
            registry.names(),
            [
                ADVERSARIAL_MIX,
                ALIBABA_2017,
                BORG_SYNTHETIC,
                DIURNAL_SERVING
            ]
        );
        for name in registry.names() {
            let params = FrontendParams::new(5, 0.75).smoke();
            let mut frontend = registry.build(name, &params).unwrap();
            let hint = frontend.hint();
            let events = drain(frontend.as_mut());
            assert!(!events.is_empty(), "{name} yielded nothing");
            assert!(frontend.next_event().is_none(), "{name} resumed after end");
            let mut last = SimTime::ZERO;
            for ev in &events {
                assert!(ev.at() >= last, "{name} went back in time: {ev:?}");
                assert!(
                    ev.at() <= SimTime::ZERO + hint.horizon,
                    "{name} exceeded its horizon"
                );
                last = ev.at();
            }
            // A second build replays the identical stream.
            let mut again = registry.build(name, &params).unwrap();
            assert_eq!(events, drain(again.as_mut()), "{name} not deterministic");
            // Every GroupLoad names an announced service group.
            for ev in &events {
                if let WorkloadEvent::GroupLoad { group, .. } = ev {
                    assert!(
                        hint.service_groups.iter().any(|g| &g.name == group),
                        "{name} drove unannounced group {group}"
                    );
                }
            }
        }
    }

    #[test]
    fn alibaba_durations_are_short_task_heavy() {
        let mut frontend = AlibabaShaped::new(11, 0.5, 60.0, SimDuration::from_mins(30));
        let durations: Vec<f64> = drain(&mut frontend)
            .iter()
            .map(|ev| match ev {
                WorkloadEvent::Submit { job, .. } => job.duration.as_secs_f64(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert!(durations.len() > 100, "n={}", durations.len());
        let mut sorted = durations.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!(median < 120.0, "median={median}");
        // The service minority runs long.
        assert!(sorted.last().copied().unwrap() > 300.0);
    }

    #[test]
    fn diurnal_serving_drives_groups_to_zero() {
        let mut frontend = DiurnalServing::new(3, 1.0, 500.0, SimDuration::from_mins(10));
        let hint = frontend.hint();
        assert_eq!(hint.service_groups.len(), 3);
        let events = drain(&mut frontend);
        let mut final_load: BTreeMap<String, f64> = BTreeMap::new();
        let mut peak: f64 = 0.0;
        for ev in &events {
            if let WorkloadEvent::GroupLoad { group, load, .. } = ev {
                final_load.insert(group.clone(), *load);
                peak = peak.max(*load);
            }
        }
        assert_eq!(final_load.len(), 3);
        assert!(final_load.values().all(|&l| l == 0.0), "{final_load:?}");
        assert!(peak > 500.0, "peak load {peak} never exceeded the base");
        // The background batch floor is present.
        assert!(events
            .iter()
            .any(|ev| matches!(ev, WorkloadEvent::Submit { .. })));
    }

    #[test]
    fn adversarial_waves_are_hostile_epc_greedy_and_coordinated() {
        let config = GeneratorConfig::small(7).with_horizon(SimDuration::from_mins(10));
        let mut frontend = AdversarialMix::new(
            config,
            WorkloadParams::paper(1.0, 7),
            SimDuration::from_secs(120),
            4,
        );
        let events = drain(&mut frontend);
        let hostile: Vec<&WorkloadJob> = events
            .iter()
            .filter_map(|ev| match ev {
                WorkloadEvent::Submit { job, hostile: true } => Some(job),
                _ => None,
            })
            .collect();
        // 4 waves land in (0, 600) at 120 s spacing, 4 jobs each.
        assert_eq!(hostile.len(), 16);
        for job in &hostile {
            assert_eq!(job.kind, JobKind::Sgx);
            assert!(job.mem_usage > job.mem_request);
            assert!(job.mem_usage >= USABLE_EPC.mul_f64(0.25));
            assert_eq!(
                job.submit.saturating_since(SimTime::ZERO).as_secs_f64() as u64 % 120,
                0
            );
        }
        // Honest jobs are present and unflagged.
        assert!(events
            .iter()
            .any(|ev| matches!(ev, WorkloadEvent::Submit { hostile: false, .. })));
    }

    #[test]
    fn materialized_frontend_replays_the_workload_verbatim() {
        let trace = GeneratorConfig::small(9).generate_sampled(5);
        let workload = Workload::materialize(&trace, &WorkloadParams::paper(0.5, 9));
        let mut frontend = MaterializedFrontend::new(&workload);
        assert_eq!(frontend.hint().expected_jobs, workload.len());
        let streamed: Vec<WorkloadJob> = drain(&mut frontend)
            .into_iter()
            .map(|ev| match ev {
                WorkloadEvent::Submit { job, .. } => job,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(workload.jobs(), streamed.as_slice());
    }

    #[test]
    fn registry_rejects_unknown_and_accepts_custom() {
        let mut registry = FrontendRegistry::builtin();
        assert!(registry.contains(BORG_SYNTHETIC));
        assert!(!registry.contains("no-such-frontend"));
        assert!(registry
            .build("no-such-frontend", &FrontendParams::new(0, 0.5))
            .is_none());
        registry.register("tiny", "one-job stream", "hand-rolled", |p| {
            let config = GeneratorConfig::small(p.seed);
            Box::new(BorgSynthetic::new(
                config,
                WorkloadParams::paper(p.sgx_ratio, p.seed),
            ))
        });
        assert!(registry.contains("tiny"));
        assert_eq!(registry.names().len(), 5);
        let table = registry.markdown_table();
        for name in registry.names() {
            assert!(table.contains(&format!("`{name}`")), "missing {name}");
        }
    }
}
