//! Property tests for autoscaled replays: with the cluster autoscaler
//! adding and removing nodes mid-replay (plus a pod-group autoscaler
//! ramping a service up and down), every pod still reaches a terminal
//! state, the replay stays deterministic, and — with the per-tick audit
//! enabled — `Orchestrator::audit_invariants` holds at every
//! `AutoscaleTick`.
//!
//! The policies here are deliberately twitchy (short scale-up waits,
//! short cooldowns, high low-water marks) so that random workloads
//! exercise both directions of the controller: scale-ups under queue
//! pressure and drain-then-deregister scale-downs during lulls.

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::{GeneratorConfig, Workload, WorkloadParams};
use des::SimDuration;
use orchestrator::autoscale::{AutoscalerPolicy, PodGroupSpec};
use orchestrator::events::EventKind;
use proptest::prelude::*;
use sgx_sim::units::ByteSize;
use simulation::{replay_stream, AutoscaleConfig, ReplayConfig, ReplayResult};

fn replay(workload: &Workload, config: &ReplayConfig) -> ReplayResult {
    replay_stream(&mut MaterializedFrontend::new(workload), config)
}

fn small_workload(seed: u64, sgx_ratio: f64) -> Workload {
    let trace = GeneratorConfig::small(seed).generate();
    Workload::materialize(&trace, &WorkloadParams::paper(sgx_ratio, seed))
}

/// An aggressive autoscaler: reacts after ten seconds of queue wait,
/// considers scale-down after one minute under the low-water mark, and
/// is capped low enough that random workloads hit the ceiling too.
fn twitchy_policy(up_wait_secs: u64, cooldown_secs: u64, low_water: f64) -> AutoscalerPolicy {
    AutoscalerPolicy::paper_defaults()
        .with_scale_up_wait(SimDuration::from_secs(up_wait_secs))
        .with_scale_down_after(SimDuration::from_secs(cooldown_secs))
        .with_low_water(low_water)
        .with_max_nodes(12)
        .with_max_step(3)
}

fn service_group(max_replicas: usize) -> PodGroupSpec {
    PodGroupSpec {
        name: "svc".to_string(),
        sgx: true,
        replica_request: ByteSize::from_mib(24),
        min_replicas: 1,
        max_replicas,
        capacity_per_replica: 100.0,
        // Ramp up, hold, ramp down; zero after 2400s so the group
        // drains and the replay terminates.
        profile: vec![(0, 50.0), (600, 300.0), (1800, 300.0), (2400, 50.0)],
    }
}

fn autoscaled_config(
    seed: u64,
    period_secs: u64,
    up_wait_secs: u64,
    cooldown_secs: u64,
    low_water: f64,
    with_group: bool,
) -> ReplayConfig {
    let mut autoscale = AutoscaleConfig::every(
        SimDuration::from_secs(period_secs),
        twitchy_policy(up_wait_secs, cooldown_secs, low_water),
    )
    .with_audit();
    if with_group {
        autoscale = autoscale.with_pod_group(service_group(4));
    }
    ReplayConfig::paper(seed).with_autoscale(autoscale)
}

fn assert_identical(a: &ReplayResult, b: &ReplayResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.runs(), b.runs());
    prop_assert_eq!(a.events(), b.events());
    prop_assert_eq!(a.end_time(), b.end_time());
    prop_assert_eq!(a.timed_out(), b.timed_out());
    prop_assert_eq!(a.elasticity(), b.elasticity());
    prop_assert_eq!(a.group_peak_replicas(), b.group_peak_replicas());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scale-ups, drain-then-deregister scale-downs, and pod-group
    /// reconciliation are all driven by the deterministic event loop:
    /// two replays of the same workload must be bit-identical, down to
    /// the elasticity metrics.
    #[test]
    fn autoscaled_replays_are_bit_identical(
        seed in 0u64..500,
        period in 10u64..120,
        up_wait in 5u64..60,
        cooldown in 30u64..180,
        low_water in 0.2f64..0.9,
        with_group in any::<bool>(),
    ) {
        let workload = small_workload(seed, 1.0);
        let config = autoscaled_config(seed, period, up_wait, cooldown, low_water, with_group);
        let a = replay(&workload, &config);
        let b = replay(&workload, &config);
        assert_identical(&a, &b)?;
    }

    /// Every pod the autoscaler's `remove_node` drains is either
    /// migrated or requeued-and-rescheduled — never lost. The replay
    /// runs with `audit: true`, so `audit_invariants()` is checked at
    /// every `AutoscaleTick` inside the replay itself; this test adds
    /// the end-to-end accounting on top.
    #[test]
    fn autoscaled_pods_all_reach_terminal_states(
        seed in 0u64..500,
        period in 10u64..120,
        up_wait in 5u64..60,
        cooldown in 30u64..180,
        low_water in 0.2f64..0.9,
        sgx_ratio in 0.25f64..1.0,
        with_group in any::<bool>(),
    ) {
        let workload = small_workload(seed, sgx_ratio);
        let config = autoscaled_config(seed, period, up_wait, cooldown, low_water, with_group);
        let result = replay(&workload, &config);
        prop_assert!(!result.timed_out());
        let terminal = result.completed_count()
            + result.denied_count()
            + result.unschedulable_count();
        prop_assert_eq!(terminal, workload.len(), "non-terminal pods remain");
        let metrics = result.elasticity().expect("autoscaling was enabled");
        // Node arithmetic is self-consistent: the event stream shows the
        // same add/remove counts the controller recorded, and removals
        // never exceed additions (baseline nodes are off-limits).
        let added_events = result
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeAdded { .. }))
            .count() as u64;
        let removed_events = result
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::NodeRemoved { .. }))
            .count() as u64;
        prop_assert_eq!(added_events, metrics.nodes_added);
        prop_assert_eq!(removed_events, metrics.nodes_removed);
        prop_assert!(metrics.nodes_removed <= metrics.nodes_added);
        if metrics.nodes_added > 0 {
            // Peak must reflect the growth beyond the 4-worker baseline.
            prop_assert!(metrics.peak_nodes > 4);
            prop_assert!(metrics.mean_scale_up_latency_secs().is_some());
        }
        if with_group {
            let peaks = result.group_peak_replicas();
            prop_assert_eq!(peaks.len(), 1);
            prop_assert_eq!(peaks[0].0.as_str(), "svc");
            prop_assert!(peaks[0].1 >= 1 && peaks[0].1 <= 4);
        }
    }
}
