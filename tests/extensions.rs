//! Integration tests for the extension features: live migration /
//! draining (§VIII), billing (§III/§VI-F) and tsdb persistence (§V-C) —
//! exercised through the full stack.

use cluster::api::{NodeName, PodSpec};
use cluster::topology::{Cluster, ClusterSpec};
use des::{SimDuration, SimTime};
use orchestrator::billing::{Invoice, PriceSheet};
use orchestrator::{Orchestrator, OrchestratorConfig};
use sgx_sim::units::ByteSize;

/// Migration keys are derived from per-node platform identities, which
/// must differ across the real cluster topology.
#[test]
fn cluster_nodes_have_distinct_attestation_platforms() {
    let cluster = Cluster::build(&ClusterSpec::paper_cluster());
    let platforms: Vec<u64> = cluster
        .sgx_nodes()
        .map(|n| n.platform().expect("SGX nodes have platforms"))
        .collect();
    assert_eq!(platforms.len(), 2);
    assert_ne!(platforms[0], platforms[1]);
    // Non-SGX nodes have none.
    assert!(cluster
        .node(&NodeName::new("std-1"))
        .unwrap()
        .platform()
        .is_none());
}

/// Drain + migration end to end: a maintenance drain empties an SGX node
/// without losing a single pod, and billing still adds up afterwards.
#[test]
fn drain_then_bill_everything() {
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
    let mut uids = Vec::new();
    for i in 0..4 {
        uids.push(
            orch.submit(
                PodSpec::builder(format!("svc-{i}"))
                    .sgx_resources(ByteSize::from_mib(15))
                    .duration(SimDuration::from_secs(600))
                    .build(),
                SimTime::ZERO,
            ),
        );
    }
    orch.scheduler_pass(SimTime::from_secs(5));
    let drained = NodeName::new("sgx-1");
    let moves = orch.drain_node(&drained, SimTime::from_secs(100)).unwrap();
    assert_eq!(moves.len(), 4);

    for &uid in &uids {
        orch.complete_pod(uid, SimTime::from_secs(700)).unwrap();
    }
    let invoice = Invoice::compute(orch.records(), &PriceSheet::paper_cluster());
    assert_eq!(invoice.lines().len(), 4);
    assert!(invoice.total() > 0.0);
    // Every pod is billed for its full reservation window despite moving.
    for line in invoice.lines() {
        assert!(line.reserved_hours > 0.15, "{line:?}");
        assert!(line.epc_cost > 0.0);
        assert_eq!(line.memory_cost, 0.0);
    }
}

/// A store rebuilt mid-run from a snapshot of the monitoring database's
/// points holds every point and gives the scheduler the same Listing 1
/// rows.
#[test]
fn tsdb_snapshot_preserves_the_scheduler_view() {
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
    orch.submit(
        PodSpec::builder("job")
            .sgx_resources(ByteSize::from_mib(12))
            .build(),
        SimTime::ZERO,
    );
    orch.scheduler_pass(SimTime::from_secs(5));
    orch.probe_pass(SimTime::from_secs(10));

    let mut rebuilt = tsdb::Database::new();
    rebuilt.extend(orch.db().points());
    assert_eq!(rebuilt.points(), orch.db().points());
    assert_eq!(rebuilt.point_count(), orch.db().point_count());

    let q = tsdb::influxql::parse(
        r#"SELECT SUM(epc) FROM
           (SELECT MAX(value) FROM "sgx/epc"
            WHERE value <> 0 AND time >= now() - 25s
            GROUP BY pod_name, nodename)
           GROUP BY nodename"#,
    )
    .unwrap();
    assert_eq!(
        orch.db().query(&q, SimTime::from_secs(12)),
        rebuilt.query(&q, SimTime::from_secs(12))
    );
}
