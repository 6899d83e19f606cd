//! Property test: a node's pod rows ([`Node::pods`], one uid-sorted
//! `Vec`) are the `BTreeMap<PodUid, RunningPod>` they replaced. Random
//! runs, terminations and migrations out and back in on one SGX node —
//! uids drawn out of order from a small range, so a lower uid binds after
//! a higher one, a uid runs again after it terminated and a running uid
//! is refused; malicious pods the driver denies at `EINIT`; starts and
//! restores the node has no room for. The model is built from what each
//! call is expected to do, not from the rows: after every step the rows
//! must match it in length, key order, `get` and `contains_key` for every
//! uid in play, and the two probes' walks ([`Node::epc_usage`] and the
//! Heapster scrape) must yield its `(uid, bytes)` sequence.

use std::collections::BTreeMap;

use cluster::api::{NodeName, PodSpec, PodUid, ResourceRequirements, Resources};
use cluster::machine::MachineSpec;
use cluster::node::{Node, NodeRole, RunningPod};
use cluster::probe::{Probe, MEASUREMENT_MEMORY};
use cluster::ClusterError;
use des::rng::seeded_rng;
use des::SimTime;
use proptest::prelude::*;
use sgx_sim::migration::{EnclaveCheckpoint, MigrationKey};
use sgx_sim::units::{ByteSize, EpcPages};
use sgx_sim::CgroupPath;
use stress::Stressor;
use tsdb::Point;

/// Uids in play: `1..UIDS`.
const UIDS: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// Run pod `uid`: ordinary memory (`kind` 0), an enclave (1), or a
    /// malicious enclave the driver denies (2); `size` MiB.
    Run {
        uid: u64,
        kind: u8,
        size: u64,
    },
    Terminate {
        uid: u64,
    },
    /// Checkpoint pod `uid` and park it off the node.
    MigrateOut {
        uid: u64,
    },
    /// Bring the `nth` parked pod (modulo) back in under its uid.
    MigrateIn {
        nth: usize,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let uid = || 1..UIDS;
    prop::collection::vec(
        prop_oneof![
            (uid(), 0u8..3, 1u64..40).prop_map(|(uid, kind, size)| Op::Run { uid, kind, size }),
            (uid(), 0u8..3, 1u64..40).prop_map(|(uid, kind, size)| Op::Run { uid, kind, size }),
            (uid(), 0u8..3, 1u64..40).prop_map(|(uid, kind, size)| Op::Run { uid, kind, size }),
            uid().prop_map(|uid| Op::Terminate { uid }),
            uid().prop_map(|uid| Op::Terminate { uid }),
            uid().prop_map(|uid| Op::MigrateOut { uid }),
            (0usize..8).prop_map(|nth| Op::MigrateIn { nth }),
        ],
        1..80,
    )
}

fn spec(kind: u8, size: u64) -> PodSpec {
    let builder = PodSpec::builder(format!("p{kind}-{size}"));
    match kind {
        // Up to 2.4 GiB of an 8 GiB node.
        0 => builder.memory_resources(ByteSize::from_mib(size * 64)),
        1 => builder.sgx_resources(ByteSize::from_mib(size)),
        // Requests one page, commits half the EPC: denied at `EINIT`.
        _ => builder
            .requirements(ResourceRequirements::exact(Resources::with_epc(
                ByteSize::ZERO,
                EpcPages::ONE,
            )))
            .stressor(Stressor::malicious(0.5)),
    }
    .build()
}

/// The running pod the node is expected to hold for `uid`: its enclave is
/// the one the driver holds under the pod's cgroup.
fn expected(node: &Node, uid: PodUid, spec: PodSpec, started_at: SimTime) -> RunningPod {
    let cgroup = CgroupPath::new(format!("/kubepods/{uid}"));
    let enclave = node
        .driver()
        .expect("an SGX node")
        .enclaves()
        .find(|enclave| enclave.pod() == &cgroup)
        .map(|enclave| enclave.id());
    let plan = spec.stressor.plan_on(node.spec().usable_epc());
    RunningPod {
        uid,
        spec,
        cgroup,
        enclave,
        mem_allocated: plan.standard_allocation,
        started_at,
    }
}

/// What admission must answer for `spec` on a node holding `model`.
fn fits(node: &Node, model: &BTreeMap<PodUid, RunningPod>, spec: &PodSpec) -> bool {
    let requested = |f: fn(&PodSpec) -> u64| model.values().map(|pod| f(&pod.spec)).sum::<u64>();
    let requests = spec.resources.requests;
    requests.memory.as_bytes() + requested(|s| s.resources.requests.memory.as_bytes())
        <= node.allocatable_memory().as_bytes()
        && requests.epc_pages.count() + requested(|s| s.resources.requests.epc_pages.count())
            <= node.allocatable_epc().count()
}

fn debug<T: std::fmt::Debug>(value: T) -> String {
    format!("{value:?}")
}

fn check(
    node: &Node,
    model: &BTreeMap<PodUid, RunningPod>,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let rows = node.pods();
    prop_assert_eq!(rows.len(), model.len());
    prop_assert_eq!(rows.is_empty(), model.is_empty());
    prop_assert_eq!(
        rows.keys().collect::<Vec<_>>(),
        model.keys().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        debug(rows.values().collect::<Vec<_>>()),
        debug(model.values().collect::<Vec<_>>())
    );
    prop_assert_eq!(
        debug(rows.iter().collect::<Vec<_>>()),
        debug(model.iter().collect::<Vec<_>>())
    );
    for uid in (0..=UIDS).map(PodUid::new) {
        prop_assert_eq!(debug(rows.get(&uid)), debug(model.get(&uid)), "{}", uid);
        prop_assert_eq!(rows.contains_key(&uid), model.contains_key(&uid), "{}", uid);
    }
    for uid in model.keys() {
        prop_assert_eq!(rows[uid].uid, *uid);
    }

    // The SGX probe's walk: an enclave pod's bytes are its plan's pages.
    let usable = node.spec().usable_epc();
    let epc: Vec<(PodUid, ByteSize)> = model
        .values()
        .filter(|pod| pod.enclave.is_some())
        .map(|pod| {
            (
                pod.uid,
                pod.spec.stressor.plan_on(usable).epc_allocation.to_bytes(),
            )
        })
        .filter(|(_, bytes)| !bytes.is_zero())
        .collect();
    let walked: Vec<(PodUid, ByteSize)> = node
        .epc_usage()
        .map(|(pod, bytes)| (pod.uid, bytes))
        .collect();
    prop_assert_eq!(walked, epc);

    // Heapster's walk, read through the probe.
    let memory: Vec<Point> = model
        .values()
        .filter(|pod| !pod.mem_allocated.is_zero())
        .map(|pod| {
            Point::new(MEASUREMENT_MEMORY, now, pod.mem_allocated.as_bytes() as f64)
                .with_tag("nodename", node.name().as_str())
                .with_tag("pod_name", pod.uid.to_string())
        })
        .collect();
    let [heapster, _] = Probe::default_pair();
    prop_assert_eq!(heapster.sample(node, now), memory);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_pod_rows_are_the_map_they_replaced(ops in ops()) {
        let mut node = Node::new(NodeName::new("sgx-1"), MachineSpec::sgx_node(), NodeRole::Worker);
        let platform = node.platform().expect("an SGX node");
        let key = MigrationKey::derive(platform, platform, 1);
        let mut rng = seeded_rng(3);
        let mut model: BTreeMap<PodUid, RunningPod> = BTreeMap::new();
        let mut parked: Vec<(PodUid, PodSpec, Option<EnclaveCheckpoint>)> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            match op {
                Op::Run { uid, kind, size } => {
                    let uid = PodUid::new(uid);
                    let spec = spec(kind, size);
                    let fits = fits(&node, &model, &spec);
                    let running = model.contains_key(&uid);
                    let outcome = node.run_pod(uid, spec.clone(), now, &mut rng);
                    if running {
                        prop_assert!(matches!(outcome, Err(ClusterError::PodAlreadyRunning(u)) if u == uid));
                    } else if !fits {
                        prop_assert!(matches!(outcome, Err(ClusterError::InsufficientResources { .. })));
                    } else {
                        let report = outcome.expect("a pod that fits is admitted");
                        prop_assert_eq!(report.started(), kind != 2, "{:?}", report);
                        if report.started() {
                            let pod = expected(&node, uid, spec, now + report.startup_delay);
                            prop_assert_eq!(pod.enclave.is_some(), kind == 1);
                            model.insert(uid, pod);
                        }
                    }
                }
                Op::Terminate { uid } => {
                    let uid = PodUid::new(uid);
                    match model.remove(&uid) {
                        Some(pod) => prop_assert_eq!(debug(node.terminate_pod(uid)), debug(Ok::<_, ClusterError>(pod))),
                        None => prop_assert!(matches!(node.terminate_pod(uid), Err(ClusterError::UnknownPod(u)) if u == uid)),
                    }
                }
                Op::MigrateOut { uid } => {
                    let uid = PodUid::new(uid);
                    let outcome = node.migrate_out(uid, key);
                    match model.remove(&uid) {
                        Some(pod) => {
                            let (spec, checkpoint) = outcome.expect("a running pod checkpoints");
                            prop_assert_eq!(debug(&spec), debug(&pod.spec));
                            prop_assert_eq!(checkpoint.is_some(), pod.enclave.is_some());
                            parked.push((uid, spec, checkpoint));
                        }
                        None => prop_assert!(matches!(outcome, Err(ClusterError::UnknownPod(u)) if u == uid)),
                    }
                }
                Op::MigrateIn { nth } => {
                    if parked.is_empty() {
                        continue;
                    }
                    let (uid, spec, checkpoint) = parked.remove(nth % parked.len());
                    let fits = fits(&node, &model, &spec);
                    match node.migrate_in(uid, spec.clone(), checkpoint, key, now) {
                        Ok(delay) => {
                            prop_assert!(fits && !model.contains_key(&uid));
                            let pod = expected(&node, uid, spec, now + delay);
                            model.insert(uid, pod);
                        }
                        Err(refused) => {
                            prop_assert!(!fits || model.contains_key(&uid), "{}", refused);
                            parked.push((uid, spec, refused.checkpoint));
                        }
                    }
                }
            }
            check(&node, &model, now).map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
        }
    }
}
