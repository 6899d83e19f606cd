//! Secure enclave live migration — the paper's §VIII future-work
//! extension, built on the Gu et al. mechanism it cites: attested key
//! agreement, encrypted single-use checkpoints, source self-destruction
//! (fork protection) and at-most-once restore (rollback protection).
//!
//! ```text
//! cargo run --release -p examples --bin enclave_migration
//! ```

use orchestrator::PodOutcome;
use sgx_orchestrator::prelude::*;
use sgx_sim::migration::MigrationKey;

fn main() {
    // --- Driver level: the protocol itself. ------------------------------
    println!("protocol view:");
    use sgx_sim::driver::SgxDriver;
    use sgx_sim::CgroupPath;

    let mut source = SgxDriver::sgx1_default().with_platform(1);
    let mut target = SgxDriver::sgx1_default().with_platform(2);
    let pod = CgroupPath::new("/kubepods/stateful-kv");
    source
        .set_pod_limit(&pod, EpcPages::from_mib_ceil(32))
        .unwrap();
    target
        .set_pod_limit(&pod, EpcPages::from_mib_ceil(32))
        .unwrap();

    let enclave = source.create_enclave(pod.clone());
    source
        .add_pages(enclave, EpcPages::from_mib_ceil(24))
        .unwrap();
    source.init_enclave(enclave).unwrap();
    source.ecall(enclave, EpcPages::from_mib_ceil(24)).unwrap();

    // Both sides verify each other's quotes, then agree on a key.
    let key = MigrationKey::derive(1, 2, 0xC0FFEE);
    let checkpoint = source.checkpoint_enclave(enclave, "kv-v3", key).unwrap();
    println!(
        "  checkpointed {} of enclave state ({} on the wire); source self-destroyed: {}",
        checkpoint.committed().to_bytes(),
        checkpoint.wire_size(),
        source.enclave(enclave).is_none(),
    );
    let restored = target.restore_enclave(pod, checkpoint, key).unwrap();
    println!(
        "  restored on platform 2 as {restored}: state {} with {} prior ecalls",
        target.enclave(restored).unwrap().state(),
        target.enclave(restored).unwrap().ecalls(),
    );
    println!("  (the checkpoint was consumed by the restore — a second restore cannot compile)");

    // --- Cluster level: migration + EPC rebalancing. ----------------------
    println!("\ncluster view (binpack stacks pods, the rebalancer spreads them):");
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
    let mut uids = Vec::new();
    for i in 0..4 {
        let spec = PodSpec::builder(format!("enclave-{i}"))
            .sgx_resources(ByteSize::from_mib(20))
            .duration(SimDuration::from_secs(600))
            .build();
        uids.push(orch.submit(spec, SimTime::ZERO));
    }
    orch.scheduler_pass(SimTime::from_secs(5));
    let show = |orch: &Orchestrator, label: &str| {
        print!("  {label}:");
        for node in orch.cluster().sgx_nodes() {
            print!(
                "  {}={:.1} MiB",
                node.name().as_str(),
                node.epc_committed().as_mib_f64()
            );
        }
        println!();
    };
    show(&orch, "after binpack ");

    let moves = orch.rebalance_epc(SimTime::from_secs(30), 0.1);
    for m in &moves {
        println!(
            "  migrated {} {} -> {} ({} ms of downtime)",
            m.uid,
            m.from,
            m.to,
            m.delay.as_secs_f64() * 1e3,
        );
    }
    show(&orch, "after rebalance");

    for uid in uids {
        assert!(matches!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Running { .. }
        ));
    }
    println!("  all pods kept running throughout");

    // --- Replay level: rebalancing inside the discrete-event replay. -------
    println!("\nreplay view (same trace with and without the rebalancer):");
    let base = Experiment::quick(8).sgx_ratio(1.0);
    let off = base.clone().run();
    let on = base
        .rebalance(RebalanceConfig::every(SimDuration::from_secs(60), 0.1))
        .run();
    use simulation::analysis;
    println!(
        "  rebalance off: mean imbalance {:.4}, {} migrations",
        analysis::mean_epc_imbalance(&off),
        off.migration_count(),
    );
    println!(
        "  rebalance on : mean imbalance {:.4}, {} migrations, {:.1} s total downtime",
        analysis::mean_epc_imbalance(&on),
        on.migration_count(),
        analysis::total_migration_downtime_secs(&on),
    );
    assert!(analysis::mean_epc_imbalance(&on) < analysis::mean_epc_imbalance(&off));
    println!("  (downtime lands in each migrated pod's turnaround — nothing is lost)");
}
