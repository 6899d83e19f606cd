//! Integration tests for the extension features: attestation, live
//! migration / rebalancing / draining (§VIII), SGX2 dynamic memory
//! (§VI-G) and billing (§III/§VI-F) — exercised through the full stack.

use cluster::api::{NodeName, PodSpec, PodUid, ResourceRequirements, Resources};
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::{Cluster, ClusterSpec};
use des::{SimDuration, SimTime};
use orchestrator::billing::{Invoice, PriceSheet};
use orchestrator::{Orchestrator, OrchestratorConfig};
use sgx_sim::attestation::{Aesm, Measurement, QuoteVerdict, Signer};
use sgx_sim::units::{ByteSize, EpcPages};
use stress::Stressor;

fn sgx2_cluster() -> ClusterSpec {
    ClusterSpec::new()
        .with_node("master", MachineSpec::dell_r330(), NodeRole::Master)
        .with_node("sgx2-1", MachineSpec::sgx2_node(), NodeRole::Worker)
        .with_node("sgx2-2", MachineSpec::sgx2_node(), NodeRole::Worker)
}

/// §VI-G: "variations of EPC usage can already happen…" — a pod that grows
/// its enclave mid-run is picked up by the probes, and the scheduler's
/// measured view steers later pods away from the node.
#[test]
fn sgx2_growth_is_visible_to_the_scheduler() {
    let mut orch = Orchestrator::new(sgx2_cluster(), OrchestratorConfig::paper());
    let elastic = PodSpec::builder("elastic")
        .requirements(ResourceRequirements::exact(Resources::with_epc(
            ByteSize::ZERO,
            EpcPages::from_mib_ceil(80),
        )))
        .stressor(Stressor::epc(ByteSize::from_mib(10)))
        .duration(SimDuration::from_secs(600))
        .build();
    let uid = orch.submit(elastic, SimTime::ZERO);
    let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
    let node = outcomes[0].node.clone();

    // The enclave grows from 10 to 80 MiB while running (EDMM).
    orch.cluster_mut()
        .node_mut(&node)
        .unwrap()
        .augment_pod(uid, EpcPages::from_mib_ceil(70))
        .unwrap();
    orch.probe_pass(SimTime::from_secs(10));

    let view = orch.capture_snapshot(SimTime::from_secs(12));
    let node_view = view.node(&node).unwrap();
    assert_eq!(node_view.epc_measured, ByteSize::from_mib(80));

    // A 40 MiB pod no longer fits there — the SGX-aware scheduler places
    // it on the other node.
    let follower = PodSpec::builder("follower")
        .sgx_resources(ByteSize::from_mib(40))
        .build();
    let f_uid = orch.submit(follower, SimTime::from_secs(12));
    let outcomes = orch.scheduler_pass(SimTime::from_secs(15));
    assert_eq!(outcomes[0].uid, f_uid);
    assert_ne!(outcomes[0].node, node);
}

/// §VI-G on SGX1: growth requests fail with a clear error.
#[test]
fn sgx1_cluster_rejects_dynamic_growth() {
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
    let uid = orch.submit(
        PodSpec::builder("static")
            .sgx_resources(ByteSize::from_mib(10))
            .build(),
        SimTime::ZERO,
    );
    let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
    let node = outcomes[0].node.clone();
    let err = orch
        .cluster_mut()
        .node_mut(&node)
        .unwrap()
        .augment_pod(uid, EpcPages::ONE)
        .unwrap_err();
    assert!(matches!(
        err,
        cluster::ClusterError::Sgx(sgx_sim::SgxError::DynamicMemoryUnsupported)
    ));
}

/// End-to-end attested migration across the real cluster topology, with
/// distinct per-node platforms.
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

/// Remote attestation against a scheduled pod: a verifier can confirm the
/// enclave running on the chosen node.
#[test]
fn remote_attestation_of_a_scheduled_pod() {
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
    let uid = orch.submit(
        PodSpec::builder("kv")
            .sgx_resources(ByteSize::from_mib(16))
            .build(),
        SimTime::ZERO,
    );
    let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
    let node_name = outcomes[0].node.clone();

    let node = orch.cluster().node(&node_name).unwrap();
    let pod = &node.pods()[&uid];
    let enclave = pod.enclave.expect("SGX pod has an enclave");
    let driver = node.driver().unwrap();

    // The verifier knows the code identity and expected size.
    let expected = driver
        .measure_enclave(enclave, pod.spec.image.name())
        .unwrap();
    let signer = Signer::new("tenant");
    let report = driver.aesm().report(expected, &signer, 0xD00D);
    let quote = driver.aesm().quote(&report).unwrap();
    assert_eq!(Aesm::verify_quote(&quote, expected), QuoteVerdict::Trusted);

    // A verifier expecting different code rejects it.
    let wrong = Measurement::compute("other-code", EpcPages::from_mib_ceil(16));
    assert_eq!(
        Aesm::verify_quote(&quote, wrong),
        QuoteVerdict::WrongMeasurement
    );
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

/// The monitoring database survives a snapshot/restore cycle mid-run and
/// the scheduler view is unchanged — the persistence story of §V-C.
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

    let snapshot = orch.db().snapshot();
    let restored = tsdb::Database::restore(&snapshot).unwrap();
    assert_eq!(restored.point_count(), orch.db().point_count());

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
        restored.query(&q, SimTime::from_secs(12))
    );
}

/// The registry pull model only slows the very first pod per image/node.
#[test]
fn registry_pulls_amortise_across_pods() {
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
    for node in orch.cluster_mut().nodes_mut() {
        node.set_registry(Some(cluster::registry::RegistryModel::paper_network()));
    }
    // Two SGX pods of equal size: binpack stacks them on one node, so the
    // second reuses the image the first pulled.
    let a = orch.submit(
        PodSpec::builder("first")
            .sgx_resources(ByteSize::from_mib(8))
            .build(),
        SimTime::ZERO,
    );
    let b = orch.submit(
        PodSpec::builder("second")
            .sgx_resources(ByteSize::from_mib(8))
            .build(),
        SimTime::ZERO,
    );
    let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
    assert_eq!(outcomes[0].uid, a);
    assert_eq!(outcomes[1].uid, b);
    assert_eq!(outcomes[0].node, outcomes[1].node);
    assert!(outcomes[0].report.startup_delay > SimDuration::from_secs(3));
    assert!(outcomes[1].report.startup_delay < SimDuration::from_millis(300));
    let _ = PodUid::new(0);
}
