//! Quickstart: stand up the paper's five-machine cluster, submit SGX and
//! standard pods, and watch the SGX-aware scheduler place them.
//!
//! ```text
//! cargo run --release -p examples --bin quickstart
//! ```

use sgx_orchestrator::prelude::*;

fn main() {
    // The paper's testbed: one master, two 64 GiB workers, two SGX nodes
    // with 93.5 MiB of usable EPC each (§VI-A).
    let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());

    println!("cluster:");
    for node in orch.cluster().nodes() {
        println!(
            "  {:<8} schedulable={:<5} memory={:<8} epc={}",
            node.name().as_str(),
            node.is_schedulable(),
            node.allocatable_memory().to_string(),
            node.allocatable_epc(),
        );
    }

    // Submit a mixed batch at t = 0: two enclave jobs and a web server.
    let mut uids = Vec::new();
    for (name, spec) in [
        (
            "enclave-kv-store",
            PodSpec::builder("enclave-kv-store")
                .sgx_resources(ByteSize::from_mib(32))
                .duration(SimDuration::from_secs(120))
                .build(),
        ),
        (
            "enclave-analytics",
            PodSpec::builder("enclave-analytics")
                .sgx_resources(ByteSize::from_mib(64))
                .duration(SimDuration::from_secs(90))
                .build(),
        ),
        (
            "web-frontend",
            PodSpec::builder("web-frontend")
                .memory_resources(ByteSize::from_gib(4))
                .duration(SimDuration::from_secs(300))
                .build(),
        ),
    ] {
        let uid = orch.submit(spec, SimTime::ZERO);
        println!("submitted {name} as {uid}");
        uids.push(uid);
    }

    // The scheduler pass runs periodically; fire one by hand at t = 5 s.
    println!("\nscheduling pass at t+5s:");
    for outcome in orch.scheduler_pass(SimTime::from_secs(5)) {
        println!(
            "  {} -> {} (startup {}, started={})",
            outcome.uid,
            outcome.node,
            outcome.report.startup_delay,
            outcome.report.started(),
        );
    }

    // The probes feed the time-series database; the next pass sees
    // *measured* EPC usage.
    orch.probe_pass(SimTime::from_secs(10));
    println!("\nmeasured view at t+12s:");
    for (name, view) in orch.capture_snapshot(SimTime::from_secs(12)).iter() {
        if view.has_sgx() {
            println!(
                "  {:<8} epc measured {:>8.1} MiB / requested {:>6} / free {}",
                name.as_str(),
                view.epc_measured.as_mib_f64(),
                view.epc_requested,
                view.epc_free(),
            );
        }
    }

    // Jobs complete; resources return.
    for (uid, finish) in uids.iter().zip([125u64, 95, 305]) {
        orch.complete_pod(*uid, SimTime::from_secs(finish)).ok();
    }
    println!("\nfinal records:");
    for record in orch.records().values() {
        println!(
            "  {:<18} outcome={:<28} waiting={:<10} turnaround={}",
            record.name,
            format!("{:?}", record.outcome),
            record.waiting_time().map_or("-".into(), |d| d.to_string()),
            record.turnaround().map_or("-".into(), |d| d.to_string()),
        );
    }
}
