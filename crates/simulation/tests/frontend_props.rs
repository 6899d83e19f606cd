//! Property tests for the streaming trace frontends: streaming the Borg
//! generator through `replay_stream` is bit-identical to replaying the
//! materialised workload, every built-in frontend drains to all-terminal
//! pods (with and without metrics-pipeline faults), the diurnal serving
//! frontend actually drives its pod groups, and adversarial waves are
//! flagged hostile and denied under limit enforcement.

use borg_trace::frontend::{
    FrontendParams, FrontendRegistry, MaterializedFrontend, WorkloadEvent, ADVERSARIAL_MIX,
    DIURNAL_SERVING,
};
use borg_trace::{BorgSynthetic, GeneratorConfig, Workload, WorkloadParams};
use des::SimDuration;
use proptest::prelude::*;
use simulation::{replay_stream, FaultPlan, ReplayConfig, ReplayResult};

fn assert_identical(a: &ReplayResult, b: &ReplayResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.runs(), b.runs());
    prop_assert_eq!(a.events(), b.events());
    prop_assert_eq!(a.end_time(), b.end_time());
    prop_assert_eq!(a.timed_out(), b.timed_out());
    prop_assert_eq!(
        a.pending_epc_series().points(),
        b.pending_epc_series().points()
    );
    prop_assert_eq!(
        a.pending_memory_series().points(),
        b.pending_memory_series().points()
    );
    prop_assert_eq!(
        a.epc_imbalance_series().points(),
        b.epc_imbalance_series().points()
    );
    // The full Debug rendering is what the policy goldens hash; equal
    // strings means equal digests.
    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    Ok(())
}

fn terminal_count(result: &ReplayResult) -> usize {
    result.completed_count() + result.denied_count() + result.unschedulable_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole identity: for an arbitrary generator configuration,
    /// pulling jobs lazily from `BorgSynthetic` produces bit-for-bit
    /// the result of materialising the whole trace first.
    #[test]
    fn streaming_borg_equals_materialised_replay(
        seed in 0u64..500,
        sgx_ratio in 0.0f64..1.0,
        concurrency in 10.0f64..60.0,
        horizon_mins in 10u64..40,
        keep_every in 1usize..5,
    ) {
        let config = GeneratorConfig::small(seed)
            .with_mean_concurrency(concurrency)
            .with_horizon(SimDuration::from_mins(horizon_mins));
        let params = WorkloadParams::paper(sgx_ratio, seed);
        let replay_config = ReplayConfig::paper(seed);

        let workload =
            Workload::materialize(&config.generate_sampled(keep_every), &params);
        let materialised =
            replay_stream(&mut MaterializedFrontend::new(&workload), &replay_config);

        let mut frontend = BorgSynthetic::sampled(config, params, keep_every);
        let streamed = replay_stream(&mut frontend, &replay_config);

        assert_identical(&materialised, &streamed)?;
    }

    /// Every built-in frontend drains: each submitted pod reaches a
    /// terminal state and the run is deterministic.
    #[test]
    fn builtin_frontends_drain_to_all_terminal_pods(
        seed in 0u64..500,
        sgx_ratio in 0.25f64..1.0,
    ) {
        let registry = FrontendRegistry::builtin();
        for name in registry.names() {
            let params = FrontendParams::new(seed, sgx_ratio).smoke();
            let config = ReplayConfig::paper(seed);
            let mut frontend = registry.build(name, &params).unwrap();
            let result = replay_stream(frontend.as_mut(), &config);
            prop_assert!(!result.timed_out(), "{} timed out", name);
            prop_assert_eq!(
                terminal_count(&result),
                result.runs().len(),
                "{} left non-terminal pods",
                name
            );
            let mut again = registry.build(name, &params).unwrap();
            let repeat = replay_stream(again.as_mut(), &config);
            assert_identical(&result, &repeat)?;
        }
    }

    /// Frontends stay deterministic and all-terminal under a faulted
    /// metrics pipeline (chaos plans affect observability, not
    /// correctness).
    #[test]
    fn frontends_survive_chaos_fault_plans(
        seed in 0u64..200,
        drop_rate in 0.05f64..0.4,
        delay_rate in 0.05f64..0.4,
    ) {
        let registry = FrontendRegistry::builtin();
        for name in registry.names() {
            let params = FrontendParams::new(seed, 0.75).smoke();
            let config = ReplayConfig::paper(seed).with_faults(
                FaultPlan::none()
                    .with_seed(seed)
                    .with_scrape_drops(drop_rate)
                    .with_delays(delay_rate, SimDuration::from_secs(30))
                    .with_write_failures(0.2),
            );
            let mut frontend = registry.build(name, &params).unwrap();
            let result = replay_stream(frontend.as_mut(), &config);
            prop_assert!(!result.timed_out(), "{} timed out under faults", name);
            prop_assert_eq!(
                terminal_count(&result),
                result.runs().len(),
                "{} left non-terminal pods under faults",
                name
            );
            prop_assert!(result.fault_stats().frames_scraped > 0);
            let mut again = registry.build(name, &params).unwrap();
            let repeat = replay_stream(again.as_mut(), &config);
            assert_identical(&result, &repeat)?;
        }
    }

    /// The serving frontend's `GroupLoad` events reach the pod-group
    /// controller: replicas scale well beyond the floor and the groups
    /// drain by the end.
    #[test]
    fn diurnal_serving_drives_the_pod_group_autoscaler(seed in 0u64..200) {
        let params = FrontendParams::new(seed, 0.5).smoke();
        let mut frontend = FrontendRegistry::builtin()
            .build(DIURNAL_SERVING, &params)
            .unwrap();
        let groups = frontend.hint().service_groups;
        prop_assert!(!groups.is_empty());
        let result = replay_stream(frontend.as_mut(), &ReplayConfig::paper(seed));
        prop_assert!(!result.timed_out());
        let peaks = result.group_peak_replicas();
        prop_assert_eq!(peaks.len(), groups.len());
        for group in &groups {
            let (_, peak) = peaks
                .iter()
                .find(|(name, _)| name == &group.name)
                .expect("every announced group is reconciled");
            prop_assert!(
                *peak > group.min_replicas,
                "{} never scaled above its floor ({} replicas)",
                group.name,
                peak
            );
        }
    }

    /// Hostile wave submissions are flagged, kept out of the honest
    /// statistics, and — with limits enforced — denied at launch.
    #[test]
    fn adversarial_waves_are_flagged_and_denied_under_limits(seed in 0u64..200) {
        let params = FrontendParams::new(seed, 0.75).smoke();
        let registry = FrontendRegistry::builtin();

        let mut counting = registry.build(ADVERSARIAL_MIX, &params).unwrap();
        let mut hostile_submissions = 0usize;
        while let Some(event) = counting.next_event() {
            if matches!(event, WorkloadEvent::Submit { hostile: true, .. }) {
                hostile_submissions += 1;
            }
        }
        prop_assert!(hostile_submissions > 0);

        let mut frontend = registry.build(ADVERSARIAL_MIX, &params).unwrap();
        let result = replay_stream(frontend.as_mut(), &ReplayConfig::paper(seed));
        let hostile_runs: Vec<_> = result.runs().iter().filter(|r| r.malicious).collect();
        prop_assert_eq!(hostile_runs.len(), hostile_submissions);
        prop_assert_eq!(
            result.honest_runs().count(),
            result.runs().len() - hostile_submissions
        );
        // Every hostile pod that was bound is killed at launch: it maps
        // a large EPC slice against a one-page declaration.
        for run in &hostile_runs {
            prop_assert!(
                !matches!(
                    run.record.outcome,
                    orchestrator::PodOutcome::Completed { .. }
                ),
                "hostile pod completed under limit enforcement"
            );
        }
        prop_assert!(result.denied_count() >= hostile_submissions.min(1));
    }
}
