//! The high-level experiment builder used by examples and benchmarks.

use std::cell::RefCell;

use borg_trace::frontend::{MaterializedFrontend, TraceFrontend};
use borg_trace::{
    FrontendParams, FrontendRegistry, GeneratorConfig, Trace, TracePipeline, Workload,
    WorkloadParams,
};
use cluster::topology::ClusterSpec;
use sgx_sim::units::ByteSize;
use simulation::{
    replay_stream, sweep, AutoscaleConfig, FaultPlan, MaliciousConfig, RebalanceConfig,
    ReplayConfig, ReplayResult, SweepProgress,
};

/// Which trace the experiment replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TracePreset {
    /// A small one-hour trace (≈1–2 k jobs) that replays in well under a
    /// second — for examples and tests.
    Quick,
    /// The paper's §VI-B preparation: full-rate generation, slice
    /// `[6480 s, 10 080 s)`, every 1200th job → ≈4 100 replayed jobs
    /// (4,142 at seed 42). §VI-F's 663 cannot be reconciled with
    /// Figs. 4/5/10; see the calibration-conflict note in EXPERIMENTS.md.
    PaperReplay,
}

thread_local! {
    /// The last trace this thread prepared, under its key. Batches are
    /// key-major (a figure's cells share one seed, the sweeps go seed by
    /// seed), so one entry serves every cell of a `(preset, seed)`.
    static LAST_PREPARED: RefCell<Option<((TracePreset, u64), Trace)>> =
        const { RefCell::new(None) };
    /// Traces this thread generated, for the memo tests.
    #[cfg(test)]
    static GENERATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// End-to-end experiment: generate → prepare → materialise → replay.
///
/// # Examples
///
/// ```
/// use sgx_orchestrator::Experiment;
/// use sgx_sim::units::ByteSize;
///
/// let result = Experiment::quick(7)
///     .sgx_ratio(1.0)
///     .epc_size(ByteSize::from_mib(64))
///     .run();
/// assert!(!result.timed_out());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    seed: u64,
    preset: TracePreset,
    sgx_ratio: f64,
    scheduler: String,
    epc_size: Option<ByteSize>,
    epc_total: Option<ByteSize>,
    enforce_limits: bool,
    malicious: Option<MaliciousConfig>,
    rebalance: Option<RebalanceConfig>,
    autoscale: Option<AutoscaleConfig>,
    faults: FaultPlan,
    frontend: Option<String>,
}

impl Experiment {
    /// A quick laptop-scale experiment.
    pub fn quick(seed: u64) -> Self {
        Experiment {
            seed,
            preset: TracePreset::Quick,
            sgx_ratio: 0.5,
            scheduler: orchestrator::SGX_BINPACK.to_string(),
            epc_size: None,
            epc_total: None,
            enforce_limits: true,
            malicious: None,
            rebalance: None,
            autoscale: None,
            faults: FaultPlan::none(),
            frontend: None,
        }
    }

    /// The paper's replay-scale experiment: §VI-B's preparation (full-rate
    /// generation, slice `[6480 s, 10 080 s)`, every 1200th job) keeps
    /// ≈4 100 jobs over one hour of submissions.
    pub fn paper_replay(seed: u64) -> Self {
        Experiment {
            preset: TracePreset::PaperReplay,
            ..Experiment::quick(seed)
        }
    }

    /// Fraction of jobs designated SGX-enabled (paper sweeps 0–100 %).
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` lies in `[0, 1]`.
    pub fn sgx_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0, 1]");
        self.sgx_ratio = ratio;
        self
    }

    /// Default scheduler for the run (`sgx-binpack`, `sgx-spread` or
    /// `default`).
    pub fn scheduler(mut self, name: &str) -> Self {
        self.scheduler = name.to_string();
        self
    }

    /// Overrides each of the two SGX nodes' usable EPC.
    pub fn epc_size(mut self, usable: ByteSize) -> Self {
        self.epc_size = Some(usable);
        self.epc_total = None;
        self
    }

    /// Uses the §VI-D simulation cluster: a single SGX node carrying the
    /// whole simulated EPC (the Fig. 7 sweep labels runs by total EPC).
    pub fn epc_total(mut self, usable: ByteSize) -> Self {
        self.epc_total = Some(usable);
        self.epc_size = None;
        self
    }

    /// Enables or disables driver-side EPC limit enforcement (Fig. 11).
    pub fn limits(mut self, enforce: bool) -> Self {
        self.enforce_limits = enforce;
        self
    }

    /// Injects the Fig. 11 malicious squatters: one pod per SGX node
    /// declaring 1 EPC page and actually mapping `fraction` of its node's
    /// EPC.
    pub fn malicious(mut self, fraction: f64) -> Self {
        self.malicious = Some(MaliciousConfig::squatting(fraction));
        self
    }

    /// Enables periodic EPC rebalancing via live migration (§VIII).
    pub fn rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = Some(rebalance);
        self
    }

    /// Enables cluster + pod-group autoscaling: the replay grows and
    /// shrinks the node pool from queue pressure and reconciles any
    /// configured service groups (§IX).
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Injects metrics-pipeline faults (scrape drops, probe silences,
    /// delayed frames, store write failures) into the replay.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Streams the workload from the named registry frontend
    /// (`borg-synthetic`, `alibaba-2017`, `diurnal-serving`,
    /// `adversarial-mix`) instead of materialising the preset trace.
    /// [`quick`](Self::quick) maps to the frontend's smoke scale,
    /// [`paper_replay`](Self::paper_replay) to its full scale.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`FrontendRegistry::builtin`].
    pub fn frontend(mut self, name: &str) -> Self {
        assert!(
            FrontendRegistry::builtin().contains(name),
            "unknown frontend {name:?}; available: {:?}",
            FrontendRegistry::builtin().names()
        );
        self.frontend = Some(name.to_string());
        self
    }

    /// Parameters a registry frontend is built from for this experiment.
    pub(crate) fn frontend_params(&self) -> FrontendParams {
        let params = FrontendParams::new(self.seed, self.sgx_ratio);
        match self.preset {
            TracePreset::Quick => params.smoke(),
            TracePreset::PaperReplay => params,
        }
    }

    /// The prepared (sliced/sampled/rebased) trace this experiment replays.
    pub fn prepared_trace(&self) -> Trace {
        self.with_prepared_trace(Trace::clone)
    }

    /// The materialised workload (trace × SGX designation × multipliers).
    pub fn workload(&self) -> Workload {
        self.with_prepared_trace(|trace| {
            Workload::materialize(trace, &WorkloadParams::paper(self.sgx_ratio, self.seed))
        })
    }

    /// Everything [`prepared_trace`](Self::prepared_trace) depends on.
    fn trace_key(&self) -> (TracePreset, u64) {
        (self.preset, self.seed)
    }

    /// Calls `f` on this experiment's prepared trace, generating it only
    /// when the thread's last prepared trace has another
    /// [`trace_key`](Self::trace_key).
    fn with_prepared_trace<R>(&self, f: impl FnOnce(&Trace) -> R) -> R {
        LAST_PREPARED.with_borrow_mut(|last| match last {
            Some((key, trace)) if *key == self.trace_key() => f(trace),
            _ => {
                // Free the old trace before generating the next one.
                *last = None;
                #[cfg(test)]
                GENERATIONS.with(|generations| generations.set(generations.get() + 1));
                let trace = match self.preset {
                    TracePreset::Quick => GeneratorConfig::small(self.seed).generate(),
                    TracePreset::PaperReplay => {
                        let raw = GeneratorConfig::replay_scale(self.seed).generate_sampled(1200);
                        TracePipeline::paper().sample_every(1).prepare(&raw)
                    }
                };
                f(&last.insert((self.trace_key(), trace)).1)
            }
        })
    }

    /// The replay configuration this experiment uses.
    pub fn replay_config(&self) -> ReplayConfig {
        let cluster = match (self.epc_size, self.epc_total) {
            (Some(usable), _) => ClusterSpec::paper_cluster_with_epc(usable),
            (None, Some(total)) => ClusterSpec::sim_cluster_with_total_epc(total),
            (None, None) => ClusterSpec::paper_cluster(),
        };
        let mut config = ReplayConfig::paper(self.seed)
            .with_cluster(cluster)
            .with_scheduler(&self.scheduler);
        if !self.enforce_limits {
            config = config.without_limits();
        }
        if let Some(mal) = self.malicious {
            config = config.with_malicious(mal);
        }
        if let Some(rebalance) = self.rebalance {
            config = config.with_rebalance(rebalance);
        }
        if let Some(autoscale) = &self.autoscale {
            config = config.with_autoscale(autoscale.clone());
        }
        if !self.faults.is_noop() {
            config = config.with_faults(self.faults.clone());
        }
        config
    }

    /// Runs the experiment: streams the named [`frontend`](Self::frontend)
    /// when there is one, the materialised workload otherwise (the two
    /// are bit-identical for the Borg generator; see
    /// `tests/frontend_props.rs` in `simulation`).
    pub fn run(&self) -> ReplayResult {
        let config = self.replay_config();
        let workload;
        let mut frontend: Box<dyn TraceFrontend + '_> = match &self.frontend {
            Some(name) => FrontendRegistry::builtin()
                .build(name, &self.frontend_params())
                .expect("frontend names are validated by the builder"),
            None => {
                workload = self.workload();
                Box::new(MaterializedFrontend::new(&workload))
            }
        };
        replay_stream(frontend.as_mut(), &config)
    }

    /// Runs a batch of experiments on the parallel sweep, returning results
    /// in input order. Bit-identical to calling [`run`](Self::run) on each
    /// experiment sequentially; every workload is materialised on the
    /// calling thread, so a key-major batch generates each distinct
    /// `(preset, seed)` trace once.
    pub fn run_all(experiments: &[Experiment]) -> Vec<ReplayResult> {
        Experiment::run_all_with_progress(experiments, |_| {})
    }

    /// Like [`run_all`](Self::run_all) with a per-run completion callback
    /// (fires from worker threads, in completion order).
    ///
    /// # Panics
    ///
    /// Panics when an experiment names a streaming frontend: the sweep
    /// pre-materialises every workload, which is exactly what streaming
    /// avoids — run those through [`run`](Self::run) instead.
    pub fn run_all_with_progress<F>(experiments: &[Experiment], progress: F) -> Vec<ReplayResult>
    where
        F: Fn(SweepProgress) + Sync,
    {
        assert!(
            experiments.iter().all(|e| e.frontend.is_none()),
            "run_all sweeps materialised workloads; run streaming-frontend experiments via run()"
        );
        let jobs: Vec<sweep::SweepJob> = experiments
            .iter()
            .map(|exp| (exp.workload(), exp.replay_config()))
            .collect();
        sweep::run_all_with(&jobs, sweep::default_threads(jobs.len()), progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::JobKind;

    #[test]
    fn quick_experiment_runs() {
        let result = Experiment::quick(1).run();
        assert!(!result.timed_out());
        assert!(result.completed_count() > 0);
    }

    #[test]
    fn sgx_ratio_controls_workload_mix() {
        let none = Experiment::quick(2).sgx_ratio(0.0).workload();
        assert_eq!(none.sgx_count(), 0);
        let all = Experiment::quick(2).sgx_ratio(1.0).workload();
        assert_eq!(all.sgx_count(), all.len());
        let half = Experiment::quick(2).sgx_ratio(0.5).workload();
        let ratio = half.sgx_count() as f64 / half.len() as f64;
        assert!((ratio - 0.5).abs() < 0.06, "ratio={ratio}");
        // Same seed → same trace regardless of ratio.
        assert_eq!(none.len(), all.len());
    }

    #[test]
    fn replay_config_reflects_builders() {
        let exp = Experiment::quick(3)
            .scheduler(orchestrator::SGX_SPREAD)
            .epc_size(ByteSize::from_mib(64))
            .limits(false)
            .malicious(0.25);
        let config = exp.replay_config();
        assert_eq!(
            config.orchestrator.default_scheduler,
            orchestrator::SGX_SPREAD
        );
        assert!(!config.enforce_limits);
        assert_eq!(config.malicious.unwrap().fraction, 0.25);
        let cluster = cluster::topology::Cluster::build(&config.cluster);
        assert_eq!(cluster.total_epc(), ByteSize::from_mib(128));
    }

    #[test]
    fn experiments_are_reproducible() {
        let a = Experiment::quick(4).sgx_ratio(1.0).run();
        let b = Experiment::quick(4).sgx_ratio(1.0).run();
        assert_eq!(a.runs(), b.runs());
    }

    #[test]
    fn run_all_matches_individual_runs() {
        let experiments = [
            Experiment::quick(6).sgx_ratio(1.0),
            Experiment::quick(6)
                .sgx_ratio(0.5)
                .scheduler(orchestrator::SGX_SPREAD),
            Experiment::quick(7).epc_size(ByteSize::from_mib(64)),
        ];
        let batch = Experiment::run_all(&experiments);
        assert_eq!(batch.len(), experiments.len());
        for (result, exp) in batch.iter().zip(&experiments) {
            let solo = exp.run();
            assert_eq!(result.runs(), solo.runs());
            assert_eq!(result.end_time(), solo.end_time());
        }
    }

    /// Runs `f` on a fresh thread, whose last prepared trace is none, and
    /// returns the number of traces that thread generated.
    fn generations(f: impl FnOnce() + Send + 'static) -> usize {
        std::thread::spawn(move || {
            f();
            GENERATIONS.with(std::cell::Cell::get)
        })
        .join()
        .expect("the cells run")
    }

    #[test]
    fn a_batch_prepares_one_trace_per_preset_and_seed() {
        let batch = generations(|| {
            let results = Experiment::run_all(&[
                Experiment::quick(6).sgx_ratio(1.0),
                Experiment::quick(6).scheduler(orchestrator::SGX_SPREAD),
                Experiment::quick(6).malicious(0.25),
                Experiment::quick(7).epc_size(ByteSize::from_mib(64)),
                Experiment::quick(7).sgx_ratio(0.0).limits(false),
            ]);
            assert_eq!(results.len(), 5);
        });
        assert_eq!(batch, 2);
        // The preset is part of the key, not only the seed.
        let mixed = generations(|| {
            let paper = Experiment::paper_replay(6).prepared_trace();
            assert!(paper.len() > Experiment::quick(6).prepared_trace().len());
        });
        assert_eq!(mixed, 2);
    }

    #[test]
    fn paper_cells_differing_past_the_trace_generate_it_once() {
        let cells = generations(|| {
            let ratio = Experiment::paper_replay(11).sgx_ratio(1.0).workload();
            let spread = Experiment::paper_replay(11)
                .scheduler(orchestrator::SGX_SPREAD)
                .workload();
            let epc = Experiment::paper_replay(11)
                .epc_total(ByteSize::from_mib(32))
                .workload();
            assert_eq!(ratio.len(), spread.len());
            assert_eq!(spread, epc);
        });
        assert_eq!(cells, 1);
    }

    #[test]
    fn an_interleaved_key_is_generated_again() {
        let interleaved = generations(|| {
            let a = Experiment::quick(6).prepared_trace();
            let _ = Experiment::quick(7).workload();
            assert_eq!(Experiment::quick(6).prepared_trace(), a);
        });
        assert_eq!(interleaved, 3);
    }

    #[test]
    fn a_frontend_experiment_generates_no_trace() {
        let streamed = generations(|| {
            let result = Experiment::quick(12)
                .frontend(borg_trace::frontend::ALIBABA_2017)
                .run();
            assert!(result.completed_count() > 0);
        });
        assert_eq!(streamed, 0);
    }

    #[test]
    fn rebalance_builder_reaches_the_replay() {
        let exp = Experiment::quick(8)
            .sgx_ratio(1.0)
            .rebalance(RebalanceConfig::every(des::SimDuration::from_secs(60), 0.1));
        assert_eq!(exp.replay_config().rebalance.unwrap().threshold, 0.1);
        let result = exp.run();
        assert!(result.migration_count() > 0);
        assert!(result.migration_downtime() > des::SimDuration::ZERO);
        // Off by default.
        assert!(Experiment::quick(8).replay_config().rebalance.is_none());
    }

    #[test]
    fn autoscale_builder_reaches_the_replay() {
        use orchestrator::autoscale::AutoscalerPolicy;

        let policy = AutoscalerPolicy::paper_defaults()
            .with_scale_up_wait(des::SimDuration::from_secs(10))
            .with_max_nodes(8);
        let exp = Experiment::quick(9).sgx_ratio(1.0).autoscale(
            AutoscaleConfig::every(des::SimDuration::from_secs(15), policy).with_audit(),
        );
        assert!(exp.replay_config().autoscale.is_some());
        let result = exp.run();
        assert!(!result.timed_out());
        let metrics = result.elasticity().expect("autoscaling enabled");
        assert!(metrics.peak_nodes >= 4);
        // Off by default.
        assert!(Experiment::quick(9).replay_config().autoscale.is_none());
        assert!(Experiment::quick(9).run().elasticity().is_none());
    }

    #[test]
    fn fault_builder_reaches_the_replay() {
        let plan = FaultPlan::none()
            .with_seed(9)
            .with_scrape_drops(0.25)
            .with_silence(simulation::ProbeSilence {
                node: "sgx-1".to_string(),
                from_secs: 120,
                until_secs: 900,
            });
        let exp = Experiment::quick(9).sgx_ratio(1.0).faults(plan.clone());
        assert_eq!(exp.replay_config().faults, plan);
        let result = exp.run();
        assert!(result.fault_stats().frames_dropped > 0);
        assert!(result.degraded_decisions() > 0);
        // Fault-free by default.
        assert!(Experiment::quick(9).replay_config().faults.is_noop());
    }

    #[test]
    fn frontend_builder_streams_and_stays_deterministic() {
        let exp = Experiment::quick(12)
            .sgx_ratio(0.75)
            .frontend(borg_trace::frontend::ALIBABA_2017);
        let a = exp.run();
        let b = exp.run();
        assert!(!a.timed_out());
        assert!(a.completed_count() > 0);
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.end_time(), b.end_time());
    }

    #[test]
    fn streaming_borg_frontend_matches_legacy_quick_run() {
        // Quick preset and the borg-synthetic smoke frontend use
        // different horizons, so compare the frontend against its own
        // materialised stream rather than against `run()`.
        let exp = Experiment::quick(13)
            .sgx_ratio(0.5)
            .frontend(borg_trace::frontend::BORG_SYNTHETIC);
        let result = exp.run();
        assert!(!result.timed_out());
        let terminal =
            result.completed_count() + result.denied_count() + result.unschedulable_count();
        assert_eq!(terminal, result.runs().len());
    }

    #[test]
    #[should_panic(expected = "unknown frontend")]
    fn unknown_frontend_panics_eagerly() {
        let _ = Experiment::quick(0).frontend("no-such-frontend");
    }

    #[test]
    #[should_panic(expected = "run_all")]
    fn run_all_rejects_streaming_frontends() {
        let exps = [Experiment::quick(1).frontend(borg_trace::frontend::BORG_SYNTHETIC)];
        let _ = Experiment::run_all(&exps);
    }

    #[test]
    fn workload_has_both_kinds_at_half_ratio() {
        let w = Experiment::quick(5).sgx_ratio(0.5).workload();
        assert!(w.iter().any(|j| j.kind == JobKind::Sgx));
        assert!(w.iter().any(|j| j.kind == JobKind::Standard));
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_panics() {
        let _ = Experiment::quick(0).sgx_ratio(2.0);
    }
}
