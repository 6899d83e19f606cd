//! Property tests for the fault-injected metrics pipeline: a no-op
//! `FaultPlan` is bit-identical to a replay with no injector at all, a
//! fixed plan+seed is bit-identical across runs, and every pod still
//! reaches a terminal state under arbitrary random fault schedules.

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::{GeneratorConfig, Workload, WorkloadParams};
use des::SimDuration;
use proptest::prelude::*;
use simulation::{replay_stream, FaultPlan, ProbeSilence, ReplayConfig, ReplayResult};

fn replay(workload: &Workload, config: &ReplayConfig) -> ReplayResult {
    replay_stream(&mut MaterializedFrontend::new(workload), config)
}

fn small_workload(seed: u64, sgx_ratio: f64) -> Workload {
    let trace = GeneratorConfig::small(seed).generate();
    Workload::materialize(&trace, &WorkloadParams::paper(sgx_ratio, seed))
}

fn assert_identical(a: &ReplayResult, b: &ReplayResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.runs(), b.runs());
    prop_assert_eq!(a.events(), b.events());
    prop_assert_eq!(a.end_time(), b.end_time());
    prop_assert_eq!(a.timed_out(), b.timed_out());
    prop_assert_eq!(a.migration_count(), b.migration_count());
    prop_assert_eq!(a.migration_downtime(), b.migration_downtime());
    prop_assert_eq!(
        a.epc_imbalance_series().points(),
        b.epc_imbalance_series().points()
    );
    prop_assert_eq!(
        a.pending_epc_series().points(),
        b.pending_epc_series().points()
    );
    prop_assert_eq!(a.degraded_decisions(), b.degraded_decisions());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline regression guard: a `FaultPlan` whose every rate is
    /// zero and silence list is empty must not perturb the replay in any
    /// way — the engine bypasses the injector entirely, so the result is
    /// bit-identical to the pre-chaos code path, whatever the fault seed.
    #[test]
    fn noop_fault_plan_is_bit_identical_to_no_injector(
        seed in 0u64..500,
        fault_seed in 0u64..1_000,
        sgx_ratio in 0.25f64..1.0,
    ) {
        let workload = small_workload(seed, sgx_ratio);
        let baseline = replay(&workload, &ReplayConfig::paper(seed));
        let noop = replay(
            &workload,
            &ReplayConfig::paper(seed).with_faults(FaultPlan::none().with_seed(fault_seed)),
        );
        assert_identical(&baseline, &noop)?;
        prop_assert!(noop.fault_stats().is_clean());
        prop_assert_eq!(noop.fault_stats().frames_scraped, 0);
    }

    /// Same plan + same seed ⇒ same replay, bit for bit, including the
    /// fault tally itself.
    #[test]
    fn faulted_replays_are_bit_identical(
        seed in 0u64..500,
        fault_seed in 0u64..1_000,
        drop_rate in 0.0f64..0.5,
        delay_rate in 0.0f64..0.5,
        write_fail_rate in 0.0f64..0.4,
    ) {
        let workload = small_workload(seed, 0.75);
        let config = ReplayConfig::paper(seed).with_faults(
            FaultPlan::none()
                .with_seed(fault_seed)
                .with_scrape_drops(drop_rate)
                .with_delays(delay_rate, SimDuration::from_secs(45))
                .with_write_failures(write_fail_rate),
        );
        let a = replay(&workload, &config);
        let b = replay(&workload, &config);
        assert_identical(&a, &b)?;
        prop_assert_eq!(a.fault_stats(), b.fault_stats());
    }

    /// Safety under chaos: whatever the fault schedule, every pod still
    /// reaches a terminal state, the frame accounting balances, and a
    /// silenced SGX node forces at least one degraded decision.
    #[test]
    fn every_pod_terminates_under_arbitrary_faults(
        seed in 0u64..500,
        fault_seed in 0u64..1_000,
        drop_rate in 0.05f64..0.6,
        delay_rate in 0.05f64..0.6,
        write_fail_rate in 0.05f64..0.4,
        silence_start in 60u64..900,
        silence_len in 300u64..2_400,
        sgx_ratio in 0.25f64..1.0,
    ) {
        let workload = small_workload(seed, sgx_ratio);
        let config = ReplayConfig::paper(seed).with_faults(
            FaultPlan::none()
                .with_seed(fault_seed)
                .with_scrape_drops(drop_rate)
                .with_delays(delay_rate, SimDuration::from_secs(60))
                .with_write_failures(write_fail_rate)
                .with_silence(ProbeSilence {
                    node: "sgx-1".to_string(),
                    from_secs: silence_start,
                    until_secs: silence_start + silence_len,
                }),
        );
        let result = replay(&workload, &config);
        prop_assert!(!result.timed_out());
        let terminal = result.completed_count()
            + result.denied_count()
            + result.unschedulable_count();
        prop_assert_eq!(terminal, workload.len(), "non-terminal pods remain");
        // Frame accounting balances: once the replay drains, every
        // scraped frame resolved exactly one way (delayed frames end up
        // delivered or lost too, so they are not a terminal bucket).
        let stats = result.fault_stats();
        prop_assert!(stats.frames_scraped > 0);
        prop_assert_eq!(
            stats.frames_scraped,
            stats.frames_silenced
                + stats.frames_dropped
                + stats.frames_delivered
                + stats.frames_lost
        );
        // The silence window spans many probe periods while the replay
        // is busy, so staleness-degraded decisions must have happened.
        prop_assert!(result.degraded_decisions() > 0);
    }
}
