//! The pod table against the map it replaced: under arbitrary
//! interleavings of submissions, passes, completions, crashes,
//! recoveries, migrations, removals and re-added names, the orchestrator's
//! uid-indexed `PodTable` holds exactly what a `BTreeMap<PodUid,
//! PodRecord>` kept up from the API's own answers holds — entry for
//! entry, in the same order — and the bookkeeping audit stays clean.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::{Orchestrator, OrchestratorConfig, PodOutcome, PodRecord};
use sgx_sim::units::ByteSize;

#[derive(Debug, Clone)]
enum Op {
    /// Submit an SGX pod of this many MiB of EPC (past a node's EPC when
    /// large: unschedulable).
    SubmitSgx(u8),
    /// Submit a standard pod of this many GiB of memory.
    SubmitStd(u8),
    /// Run a scheduling pass.
    Pass,
    /// Complete the nth running pod.
    Complete(u8),
    /// Try to complete the nth submitted pod, whatever its state.
    CompleteAny(u8),
    /// Crash the nth worker, or recover it if it is down.
    FailOrRecover(u8),
    /// Live-migrate the nth running pod to the mth worker.
    Migrate(u8, u8),
    /// Drain and deregister the nth worker (never the last one).
    Remove(u8),
    /// Register a worker, reusing a retired name when one exists.
    ReAdd(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..120).prop_map(Op::SubmitSgx),
        (1u8..80).prop_map(Op::SubmitStd),
        Just(Op::Pass),
        (0u8..16).prop_map(Op::Complete),
        (0u8..32).prop_map(Op::CompleteAny),
        (0u8..8).prop_map(Op::FailOrRecover),
        (0u8..16, 0u8..8).prop_map(|(pod, node)| Op::Migrate(pod, node)),
        (0u8..8).prop_map(Op::Remove),
        (0u8..8).prop_map(Op::ReAdd),
    ]
}

fn workers(orch: &Orchestrator) -> Vec<NodeName> {
    orch.cluster().workers().map(|n| n.name().clone()).collect()
}

fn running(model: &BTreeMap<PodUid, PodRecord>) -> Vec<PodUid> {
    model
        .values()
        .filter(|r| matches!(r.outcome, PodOutcome::Running { .. }))
        .map(|r| r.uid)
        .collect()
}

/// What `submit` promises: a `Pending` record, or `Unschedulable` when no
/// worker could ever hold the requests.
fn submitted(orch: &Orchestrator, uid: PodUid, spec: &PodSpec, now: SimTime) -> PodRecord {
    let req = spec.resources.requests;
    let fits = orch.cluster().workers().any(|n| {
        req.memory <= n.allocatable_memory()
            && req.epc_pages <= n.allocatable_epc()
            && (!req.needs_sgx() || !n.allocatable_epc().is_zero())
    });
    PodRecord {
        uid,
        name: spec.name.clone(),
        needs_sgx: spec.needs_sgx(),
        mem_request: req.memory,
        epc_request: req.epc_pages,
        submitted_at: now,
        started_at: None,
        finished_at: None,
        outcome: if fits {
            PodOutcome::Pending
        } else {
            PodOutcome::Unschedulable
        },
    }
}

/// A pod killed with its node and recreated by its controller.
fn requeue(record: &mut PodRecord) {
    record.outcome = PodOutcome::Pending;
    record.started_at = None;
    record.finished_at = None;
}

fn check(orch: &Orchestrator, model: &BTreeMap<PodUid, PodRecord>) -> Result<(), TestCaseError> {
    let table = orch.records();
    prop_assert_eq!(table.len(), model.len());
    prop_assert_eq!(table.is_empty(), model.is_empty());
    prop_assert!(table.values().eq(model.values()));
    prop_assert!(table.into_iter().eq(model.values()));
    prop_assert!(table.keys().eq(model.keys()));
    prop_assert!(table.iter().eq(model.iter()));
    for (&uid, record) in model {
        prop_assert_eq!(table.get(uid), Some(record));
        prop_assert!(table.contains_key(uid));
    }
    let next = PodUid::new(model.len() as u64 + 1);
    for absent in [PodUid::new(0), next, PodUid::new(u64::MAX)] {
        prop_assert_eq!(table.get(absent), None);
        prop_assert!(!table.contains_key(absent));
    }
    let violations = orch.audit_invariants();
    prop_assert!(violations.is_empty(), "{:?}", violations);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pod_table_matches_a_uid_keyed_map(ops in prop::collection::vec(op_strategy(), 1..64)) {
        let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
        let mut model: BTreeMap<PodUid, PodRecord> = BTreeMap::new();
        let mut added = 0u32;
        let mut now = SimTime::ZERO;
        check(&orch, &model)?;
        for (index, op) in ops.into_iter().enumerate() {
            now += SimDuration::from_secs(5);
            match op {
                Op::SubmitSgx(mib) | Op::SubmitStd(mib) => {
                    let spec = PodSpec::builder(format!("p{index}"));
                    let spec = match op {
                        Op::SubmitSgx(_) => spec.sgx_resources(ByteSize::from_mib(u64::from(mib))),
                        _ => spec.memory_resources(ByteSize::from_gib(u64::from(mib))),
                    }
                    .build();
                    let uid = orch.submit(spec.clone(), now);
                    prop_assert_eq!(uid, PodUid::new(model.len() as u64 + 1));
                    model.insert(uid, submitted(&orch, uid, &spec, now));
                }
                Op::Pass => {
                    for bind in orch.scheduler_pass(now) {
                        let record = model.get_mut(&bind.uid).expect("bound pods were submitted");
                        let started_at = now + bind.report.startup_delay;
                        record.started_at = Some(started_at);
                        record.outcome = if bind.report.denied.is_some() {
                            record.finished_at = Some(started_at);
                            PodOutcome::Denied { node: bind.node }
                        } else {
                            PodOutcome::Running { node: bind.node }
                        };
                    }
                }
                Op::Complete(n) => {
                    let running = running(&model);
                    if let Some(&uid) = running.get(usize::from(n) % running.len().max(1)) {
                        orch.complete_pod(uid, now).expect("running pods complete");
                        let record = model.get_mut(&uid).expect("listed above");
                        let PodOutcome::Running { node } = record.outcome.clone() else {
                            unreachable!("listed as running");
                        };
                        record.finished_at = Some(now);
                        record.outcome = PodOutcome::Completed { node };
                    }
                }
                Op::CompleteAny(n) => {
                    let uid = PodUid::new(u64::from(n));
                    let is_running = model
                        .get(&uid)
                        .is_some_and(|r| matches!(r.outcome, PodOutcome::Running { .. }));
                    if !is_running {
                        prop_assert!(orch.complete_pod(uid, now).is_err());
                    }
                }
                Op::FailOrRecover(n) => {
                    let names = workers(&orch);
                    let name = &names[usize::from(n) % names.len()];
                    if orch.cluster().node(name).expect("a worker").is_cordoned() {
                        orch.recover_node(name, now).expect("a worker");
                    } else {
                        for uid in orch.fail_node(name, now).expect("a worker") {
                            requeue(model.get_mut(&uid).expect("crashed pods were running"));
                        }
                    }
                }
                Op::Migrate(pod, node) => {
                    let running = running(&model);
                    let names = workers(&orch);
                    if let Some(&uid) = running.get(usize::from(pod) % running.len().max(1)) {
                        let target = &names[usize::from(node) % names.len()];
                        if orch.migrate_pod(uid, target, now).is_ok() {
                            let record = model.get_mut(&uid).expect("listed above");
                            record.outcome = PodOutcome::Running { node: target.clone() };
                        }
                    }
                }
                Op::Remove(n) => {
                    let names = workers(&orch);
                    if names.len() > 1 {
                        let name = &names[usize::from(n) % names.len()];
                        let removal = orch.remove_node(name, now).expect("a worker");
                        for migration in removal.migrations {
                            let record = model.get_mut(&migration.uid).expect("migrated pods run");
                            record.outcome = PodOutcome::Running { node: migration.to };
                        }
                        for uid in removal.requeued {
                            requeue(model.get_mut(&uid).expect("evicted pods were running"));
                        }
                    }
                }
                Op::ReAdd(flag) => {
                    let spec = if flag % 2 == 1 {
                        MachineSpec::sgx_node()
                    } else {
                        MachineSpec::dell_r330()
                    };
                    // Half the adds reuse an earlier name: a registered
                    // one is the documented duplicate error, a retired
                    // one a fresh incarnation.
                    let name = if flag >= 4 && added > 0 {
                        format!("dyn-{}", u32::from(flag) % added)
                    } else {
                        added += 1;
                        format!("dyn-{}", added - 1)
                    };
                    let _ = orch.add_node(name, spec, now);
                }
            }
            check(&orch, &model)?;
        }
    }
}
