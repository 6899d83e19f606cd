//! Property-based tests: orchestrator safety invariants under arbitrary
//! operation sequences.

use proptest::prelude::*;

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::topology::ClusterSpec;
use des::rng::seeded_rng;
use des::{SimDuration, SimTime};
use orchestrator::{Orchestrator, OrchestratorConfig, PodOutcome};
use sgx_sim::units::{ByteSize, EpcPages};

#[derive(Debug, Clone)]
enum Op {
    /// Submit a pod: (is_sgx, size step).
    Submit(bool, u8),
    /// Run a scheduling pass.
    Schedule,
    /// Run a probe pass.
    Probe,
    /// Complete the nth running pod (if any).
    Complete(u8),
    /// Migrate the nth running pod to the other SGX node (if possible).
    Migrate(u8),
    /// Start a foreign pod on the nth worker under the uid the
    /// orchestrator will hand out `k` submissions from now: if the
    /// scheduler later picks that node for that uid, its kubelet refuses
    /// (`PodAlreadyRunning`) — the one way to reach the refusal arm of a
    /// pass from outside.
    Squat(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), 1u8..40).prop_map(|(sgx, size)| Op::Submit(sgx, size)),
        Just(Op::Schedule),
        Just(Op::Probe),
        (0u8..16).prop_map(Op::Complete),
        (0u8..16).prop_map(Op::Migrate),
        (0u8..4, 0u8..3).prop_map(|(node, ahead)| Op::Squat(node, ahead)),
    ]
}

fn spec_for(index: usize, sgx: bool, size: u8) -> PodSpec {
    if sgx {
        PodSpec::builder(format!("sgx-{index}"))
            .sgx_resources(ByteSize::from_mib(u64::from(size)))
            .duration(SimDuration::from_secs(60))
            .build()
    } else {
        PodSpec::builder(format!("std-{index}"))
            .memory_resources(ByteSize::from_gib(u64::from(size)))
            .duration(SimDuration::from_secs(60))
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

fn check_invariants(orch: &Orchestrator) -> Result<(), TestCaseError> {
    for node in orch.cluster().nodes() {
        // Requests accounting never exceeds capacity.
        prop_assert!(
            node.memory_requested() <= node.allocatable_memory(),
            "memory requests exceed capacity on {}",
            node.name()
        );
        prop_assert!(
            node.epc_requested() <= node.allocatable_epc(),
            "EPC requests exceed capacity on {}",
            node.name()
        );
        // With limits enforced and honest pods, the EPC never over-commits.
        if let Some(driver) = node.driver() {
            prop_assert!(driver.overcommit_ratio() <= 1.0 + f64::EPSILON);
            prop_assert!(driver.epc().check_invariants());
        }
    }
    // Running records correspond to actual pods on the named node.
    for record in orch.records().values() {
        if let PodOutcome::Running { node } = &record.outcome {
            let node = orch.cluster().node(node).expect("node exists");
            prop_assert!(
                node.pods().contains_key(&record.uid),
                "record says {} runs on {} but the node disagrees",
                record.uid,
                node.name()
            );
        }
    }
    // The queue holds exactly the Pending records, in FCFS order: these
    // ops submit at strictly increasing times and never requeue, so FCFS
    // order is uid order, which is the order `records()` iterates in.
    let pending_records: Vec<PodUid> = orch
        .records()
        .values()
        .filter(|r| r.outcome == PodOutcome::Pending)
        .map(|r| r.uid)
        .collect();
    let queued: Vec<PodUid> = orch.queue().iter().map(|p| p.uid).collect();
    prop_assert_eq!(queued, pending_records);
    // The running totals are the sums they stand for.
    let epc: EpcPages = orch
        .queue()
        .iter()
        .map(|p| p.spec.resources.requests.epc_pages)
        .sum();
    let memory: ByteSize = orch
        .queue()
        .iter()
        .map(|p| p.spec.resources.requests.memory)
        .sum();
    prop_assert_eq!(orch.queue().epc_requested(), epc);
    prop_assert_eq!(orch.queue().memory_requested(), memory);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn orchestrator_invariants_hold_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut orch = Orchestrator::new(
            ClusterSpec::paper_cluster(),
            OrchestratorConfig::paper(),
        );
        let mut now = SimTime::ZERO;
        let mut submitted = 0u64;
        let mut squat_rng = seeded_rng(11);
        for (index, op) in ops.into_iter().enumerate() {
            now += SimDuration::from_secs(5);
            match op {
                Op::Submit(sgx, size) => {
                    orch.submit(spec_for(index, sgx, size), now);
                    submitted += 1;
                }
                Op::Schedule => {
                    orch.scheduler_pass(now);
                }
                Op::Probe => {
                    orch.probe_pass(now);
                }
                Op::Squat(node, ahead) => {
                    // Uids are handed out sequentially from 1.
                    let uid = PodUid::new(submitted + 1 + u64::from(ahead));
                    let names: Vec<NodeName> =
                        orch.cluster().workers().map(|n| n.name().clone()).collect();
                    let name = &names[node as usize % names.len()];
                    let squatter = PodSpec::builder(format!("squatter-{index}"))
                        .memory_resources(ByteSize::from_mib(1))
                        .build();
                    // A uid already running there, or a full node: no squat.
                    let _ = orch
                        .cluster_mut()
                        .node_mut(name)
                        .expect("listed above")
                        .run_pod(uid, squatter, now, &mut squat_rng);
                }
                Op::Complete(n) => {
                    let running = running_pods(&orch);
                    if let Some(&uid) = running.get(n as usize % running.len().max(1)) {
                        orch.complete_pod(uid, now).expect("running pods complete");
                    }
                }
                Op::Migrate(n) => {
                    let running = running_pods(&orch);
                    if let Some(&uid) = running.get(n as usize % running.len().max(1)) {
                        let current = match &orch.record(uid).unwrap().outcome {
                            PodOutcome::Running { node } => node.clone(),
                            _ => unreachable!(),
                        };
                        // Try the alphabetically-next schedulable node.
                        let target = orch
                            .cluster()
                            .schedulable_nodes()
                            .map(|nd| nd.name().clone())
                            .find(|name| name != &current);
                        if let Some(target) = target {
                            // Refusals are fine; the pod must stay intact.
                            let _ = orch.migrate_pod(uid, &target, now);
                        }
                    }
                }
            }
            check_invariants(&orch)?;
        }
    }

    /// Two orchestrators fed the same operations stay bit-identical —
    /// determinism is load-bearing for every experiment.
    #[test]
    fn orchestrator_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let run = || {
            let mut orch = Orchestrator::new(
                ClusterSpec::paper_cluster(),
                OrchestratorConfig::paper().with_seed(7),
            );
            let mut now = SimTime::ZERO;
            for (index, op) in ops.iter().enumerate() {
                now += SimDuration::from_secs(5);
                match op {
                    Op::Submit(sgx, size) => {
                        orch.submit(spec_for(index, *sgx, *size), now);
                    }
                    Op::Schedule => {
                        orch.scheduler_pass(now);
                    }
                    Op::Probe => orch.probe_pass(now),
                    Op::Complete(n) => {
                        let running = running_pods(&orch);
                        if let Some(&uid) =
                            running.get(*n as usize % running.len().max(1))
                        {
                            orch.complete_pod(uid, now).unwrap();
                        }
                    }
                    Op::Migrate(_) | Op::Squat(..) => {}
                }
            }
            orch.records().clone()
        };
        prop_assert_eq!(run(), run());
    }
}
