//! Conformance of the monitoring pipeline: what the probes scrape, what
//! the database stores, and what the scheduler's queries return must all
//! agree with the driver's ground truth.

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::{Node, NodeRole};
use cluster::probe::{Probe, MEASUREMENT_EPC};
use des::rng::seeded_rng;
use des::{SimDuration, SimTime};
use sgx_sim::units::ByteSize;
use tsdb::Database;

fn sgx_node(name: &str) -> Node {
    Node::new(
        NodeName::new(name),
        MachineSpec::sgx_node(),
        NodeRole::Worker,
    )
}

#[test]
fn probe_points_match_driver_ground_truth() {
    let mut rng = seeded_rng(1);
    let mut node = sgx_node("sgx-1");
    for (uid, mib) in [(1u64, 10u64), (2, 20), (3, 30)] {
        let spec = PodSpec::builder(format!("p{uid}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build();
        node.run_pod(PodUid::new(uid), spec, SimTime::ZERO, &mut rng)
            .unwrap();
    }

    let [_, sgx_probe] = Probe::default_pair();
    let points = sgx_probe.sample(&node, SimTime::from_secs(10));
    assert_eq!(points.len(), 3);

    let driver = node.driver().unwrap();
    let total_sampled: f64 = points.iter().map(tsdb::Point::value).sum();
    let committed = driver.epc().committed_pages().to_bytes().as_bytes() as f64;
    assert_eq!(total_sampled, committed);
    // And the driver's free-page counter complements it.
    assert_eq!(
        driver.sgx_nr_free_pages() + driver.epc().committed_pages(),
        driver.sgx_nr_total_epc_pages()
    );
}

#[test]
fn listing1_reproduces_per_node_sums_across_nodes() {
    let mut rng = seeded_rng(2);
    let mut db = Database::new();
    let mut nodes = vec![sgx_node("sgx-1"), sgx_node("sgx-2")];
    let sizes = [(0usize, 1u64, 16u64), (0, 2, 8), (1, 3, 40)];
    for &(n, uid, mib) in &sizes {
        let spec = PodSpec::builder(format!("p{uid}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build();
        nodes[n]
            .run_pod(PodUid::new(uid), spec, SimTime::ZERO, &mut rng)
            .unwrap();
    }
    let [_, probe] = Probe::default_pair();
    for t in [5u64, 15] {
        for node in &nodes {
            db.extend(probe.sample(node, SimTime::from_secs(t)));
        }
    }

    let query = tsdb::influxql::parse(
        r#"SELECT SUM(epc) FROM
           (SELECT MAX(value) FROM "sgx/epc"
            WHERE value <> 0 AND time >= now() - 25s
            GROUP BY pod_name, nodename)
           GROUP BY nodename"#,
    )
    .unwrap();
    let rows = db.query(&query, SimTime::from_secs(20));
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[0].value,
        ByteSize::from_mib(24).as_bytes() as f64,
        "sgx-1 holds 16 + 8 MiB"
    );
    assert_eq!(rows[1].value, ByteSize::from_mib(40).as_bytes() as f64);
}

#[test]
fn terminated_pods_age_out_of_the_window() {
    let mut rng = seeded_rng(3);
    let mut db = Database::new();
    let mut node = sgx_node("sgx-1");
    let spec = PodSpec::builder("ephemeral")
        .sgx_resources(ByteSize::from_mib(10))
        .build();
    node.run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
        .unwrap();

    let [_, probe] = Probe::default_pair();
    db.extend(probe.sample(&node, SimTime::from_secs(10)));
    node.terminate_pod(PodUid::new(1)).unwrap();
    // Later samples contain nothing for the pod…
    assert!(probe.sample(&node, SimTime::from_secs(20)).is_empty());

    let query = tsdb::influxql::parse(
        r#"SELECT SUM(epc) FROM
           (SELECT MAX(value) FROM "sgx/epc"
            WHERE value <> 0 AND time >= now() - 25s
            GROUP BY pod_name, nodename)
           GROUP BY nodename"#,
    )
    .unwrap();
    // …but the old sample lingers inside the 25 s window (the "ghost"
    // retention the scheduler deliberately tolerates)…
    assert_eq!(db.query(&query, SimTime::from_secs(30)).len(), 1);
    // …and disappears once the window slides past it.
    assert!(db.query(&query, SimTime::from_secs(36)).is_empty());
}

#[test]
fn orchestrator_view_agrees_with_manual_query() {
    use orchestrator::{Orchestrator, OrchestratorConfig};

    let mut orch = Orchestrator::new(
        cluster::topology::ClusterSpec::paper_cluster(),
        OrchestratorConfig::paper(),
    );
    orch.submit(
        PodSpec::builder("job")
            .sgx_resources(ByteSize::from_mib(24))
            .duration(SimDuration::from_secs(600))
            .build(),
        SimTime::ZERO,
    );
    orch.scheduler_pass(SimTime::from_secs(5));
    orch.probe_pass(SimTime::from_secs(10));

    let view = orch.capture_snapshot(SimTime::from_secs(12));
    let measured: Vec<_> = view
        .iter()
        .filter(|(_, v)| !v.epc_measured.is_zero())
        .collect();
    assert_eq!(measured.len(), 1);
    assert_eq!(measured[0].1.epc_measured, ByteSize::from_mib(24));

    // The same number through the raw query path.
    let query = tsdb::influxql::parse(&format!(
        "SELECT SUM(epc) FROM (SELECT MAX(value) FROM \"{MEASUREMENT_EPC}\" \
             WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename) \
             GROUP BY nodename"
    ))
    .unwrap();
    let rows = orch.db().query(&query, SimTime::from_secs(12));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value, ByteSize::from_mib(24).as_bytes() as f64);
}
