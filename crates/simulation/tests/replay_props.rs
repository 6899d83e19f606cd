//! Property tests for replay with live migration enabled: rebalancing
//! and drain schedules keep the replay deterministic (bit-identical
//! across runs), every pod still reaches a terminal state, and the
//! cluster event stream never shows a `Migrated` event for a pod the
//! instant it is mid-crash.

use std::collections::BTreeMap;

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::{GeneratorConfig, Workload, WorkloadParams};
use des::SimDuration;
use orchestrator::events::EventKind;
use proptest::prelude::*;
use simulation::{
    replay_stream, NodeDrain, NodeFailure, RebalanceConfig, ReplayConfig, ReplayResult,
};

fn replay(workload: &Workload, config: &ReplayConfig) -> ReplayResult {
    replay_stream(&mut MaterializedFrontend::new(workload), config)
}

fn small_workload(seed: u64, sgx_ratio: f64) -> Workload {
    let trace = GeneratorConfig::small(seed).generate();
    Workload::materialize(&trace, &WorkloadParams::paper(sgx_ratio, seed))
}

/// Rebalancing plus a maintenance drain plus a node crash — every
/// migration-relevant replay event in one configuration.
fn migration_config(seed: u64, period_secs: u64, threshold: f64) -> ReplayConfig {
    ReplayConfig::paper(seed)
        .with_rebalance(RebalanceConfig::every(
            SimDuration::from_secs(period_secs),
            threshold,
        ))
        .with_drain(NodeDrain {
            node: "sgx-1".to_string(),
            drain_at_secs: 1200,
            down_for: SimDuration::from_secs(900),
        })
        .with_failure(NodeFailure {
            node: "sgx-2".to_string(),
            fail_at_secs: 2400,
            down_for: SimDuration::from_secs(600),
        })
}

/// `EventKind`-based audit of the cluster event stream: replays pod
/// placements and checks every `Migrated` event is legal — the pod must
/// currently be running on the event's `from` node. A pod mid-crash has
/// had its placement wiped by the preceding `NodeFailed` event, so a
/// migration firing for it fails the audit.
fn audit_migrations(result: &ReplayResult) -> Result<(), TestCaseError> {
    let mut location: BTreeMap<u64, String> = BTreeMap::new();
    for event in result.events() {
        match &event.kind {
            EventKind::Scheduled { uid, node } => {
                location.insert(uid.as_u64(), node.as_str().to_string());
            }
            EventKind::Migrated { uid, from, to } => {
                prop_assert_ne!(from, to);
                prop_assert_eq!(
                    location.get(&uid.as_u64()).map(String::as_str),
                    Some(from.as_str()),
                    "{} migrated from {} at {} but was not running there",
                    uid,
                    from,
                    event.at
                );
                location.insert(uid.as_u64(), to.as_str().to_string());
            }
            EventKind::Completed { uid, node } => {
                let was_on = location.remove(&uid.as_u64());
                prop_assert_eq!(
                    was_on.as_deref(),
                    Some(node.as_str()),
                    "{} completed on a node it was not running on",
                    uid
                );
            }
            EventKind::DeniedAtInit { uid, .. } => {
                location.remove(&uid.as_u64());
            }
            EventKind::NodeFailed { node, .. } => {
                // Every pod on the crashed node is mid-crash from here on
                // (until re-scheduled); it must not appear in a Migrated
                // event before its next Scheduled event.
                location.retain(|_, on| on.as_str() != node.as_str());
            }
            _ => {}
        }
    }
    Ok(())
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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn migration_replays_are_bit_identical(
        seed in 0u64..500,
        period in 30u64..300,
        threshold in 0.05f64..0.5,
    ) {
        let workload = small_workload(seed, 1.0);
        let config = migration_config(seed, period, threshold);
        let a = replay(&workload, &config);
        let b = replay(&workload, &config);
        assert_identical(&a, &b)?;
    }

    #[test]
    fn every_pod_terminates_and_migrations_are_legal(
        seed in 0u64..500,
        period in 30u64..300,
        threshold in 0.05f64..0.5,
        sgx_ratio in 0.25f64..1.0,
    ) {
        let workload = small_workload(seed, sgx_ratio);
        let result = replay(&workload, &migration_config(seed, period, threshold));
        prop_assert!(!result.timed_out());
        let terminal = result.completed_count()
            + result.denied_count()
            + result.unschedulable_count();
        prop_assert_eq!(terminal, workload.len(), "non-terminal pods remain");
        // Migration accounting is self-consistent: the event stream shows
        // exactly as many migrations as the replay counted, and downtime
        // only accrues when migrations happened.
        let migrated_events = result
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Migrated { .. }))
            .count() as u64;
        prop_assert_eq!(migrated_events, result.migration_count());
        prop_assert_eq!(
            result.migration_downtime() > SimDuration::ZERO,
            result.migration_count() > 0
        );
        audit_migrations(&result)?;
    }
}
