//! Property test: the concurrent probe→database ingestion path is
//! **bit-identical** to the sequential one. Twin orchestrators receive
//! the same pod workload; one scrapes with [`Orchestrator::probe_pass`],
//! the other with [`Orchestrator::probe_pass_concurrent`] at an arbitrary
//! writer-thread count. After every pass the two databases must produce
//! the same snapshot bytes, the same counters, the same scheduler view
//! and the same incremental cluster snapshot — regardless of shard
//! count, thread count or workload shape.

use proptest::prelude::*;

use cluster::api::{PodSpec, PodUid};
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::{Orchestrator, OrchestratorConfig, PodOutcome};
use sgx_sim::units::ByteSize;

#[derive(Debug, Clone)]
enum Op {
    /// Submit a pod: (is_sgx, size step).
    Submit(bool, u8),
    /// Run a scheduling pass.
    Schedule,
    /// Scrape every node into the tsdb.
    Probe,
    /// Complete the nth running pod (if any).
    Complete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), 1u8..40).prop_map(|(sgx, size)| Op::Submit(sgx, size)),
        Just(Op::Schedule),
        Just(Op::Probe),
        Just(Op::Probe),
        (0u8..16).prop_map(Op::Complete),
    ]
}

fn spec_for(index: usize, sgx: bool, size: u8) -> PodSpec {
    if sgx {
        PodSpec::builder(format!("sgx-{index}"))
            .sgx_resources(ByteSize::from_mib(u64::from(size)))
            .duration(SimDuration::from_secs(120))
            .build()
    } else {
        PodSpec::builder(format!("std-{index}"))
            .memory_resources(ByteSize::from_gib(u64::from(size)))
            .duration(SimDuration::from_secs(120))
            .build()
    }
}

fn running_pods(orch: &Orchestrator) -> Vec<PodUid> {
    orch.records()
        .values()
        .filter_map(|r| match &r.outcome {
            PodOutcome::Running { .. } => Some(r.uid),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_probe_pass_is_bit_identical_to_sequential(
        ops in prop::collection::vec(op_strategy(), 1..50),
        shards in 1usize..6,
        threads in 1usize..6,
    ) {
        let config = OrchestratorConfig::paper()
            .with_seed(11)
            .with_ingest_shards(shards);
        let mut sequential = Orchestrator::new(ClusterSpec::paper_cluster(), config.clone());
        let mut concurrent = Orchestrator::new(ClusterSpec::paper_cluster(), config);

        let mut now = SimTime::ZERO;
        for (index, op) in ops.iter().enumerate() {
            now += SimDuration::from_secs(5);
            match op {
                Op::Submit(sgx, size) => {
                    sequential.submit(spec_for(index, *sgx, *size), now);
                    concurrent.submit(spec_for(index, *sgx, *size), now);
                }
                Op::Schedule => {
                    sequential.scheduler_pass(now);
                    concurrent.scheduler_pass(now);
                }
                Op::Probe => {
                    sequential.probe_pass(now);
                    concurrent.probe_pass_concurrent(now, threads);
                }
                Op::Complete(n) => {
                    let running = running_pods(&sequential);
                    if let Some(&uid) = running.get(*n as usize % running.len().max(1)) {
                        sequential.complete_pod(uid, now).expect("pod completes");
                        concurrent.complete_pod(uid, now).expect("pod completes");
                    }
                }
            }
            prop_assert_eq!(
                concurrent.db().points_inserted(),
                sequential.db().points_inserted()
            );
            prop_assert_eq!(
                concurrent.db().snapshot(),
                sequential.db().snapshot(),
                "tsdb state diverged after op {} at now={}", index, now
            );
            prop_assert_eq!(concurrent.capture_view(now), sequential.capture_view(now));
            // The incremental capture reads the ingest-side rollup, which
            // each pipeline feeds on its own path.
            prop_assert_eq!(
                concurrent.capture_snapshot(now),
                sequential.capture_snapshot(now),
                "incremental snapshots diverged after op {} at now={}", index, now
            );
        }
    }
}
