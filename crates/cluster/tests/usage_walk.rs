//! Property test: the scrape's one pass over a node's enclaves
//! ([`Node::epc_usage`]) reports, pod for pod, what asking the driver
//! `pages_for_pod` once per pod reports — whatever the driver holds.
//! Enclaves are created and destroyed behind the Kubelet's back, through
//! the driver itself: several under one pod's cgroup, some under cgroups
//! that are no running pod's (a uid that never ran, a path that only
//! *looks* like a pod's), a pod's own enclave destroyed. And the frames
//! [`Probe::sample`] builds from the walk are, point for point, the ones
//! the per-pod formula built.

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::{Node, NodeRole};
use cluster::probe::{Probe, MEASUREMENT_EPC, MEASUREMENT_MEMORY};
use des::rng::seeded_rng;
use des::SimTime;
use proptest::prelude::*;
use sgx_sim::units::{ByteSize, EpcPages};
use sgx_sim::{CgroupPath, Pid};
use tsdb::Point;

#[derive(Debug, Clone)]
enum Op {
    /// Run a pod: an enclave of `mib`, or (`sgx == false`) ordinary
    /// memory only — a pod the driver never hears of.
    Run { sgx: bool, mib: u64 },
    /// Terminate the `nth` running pod (modulo).
    Terminate(usize),
    /// Create an enclave of `pages` straight in the driver, under the
    /// cgroup `owner` picks.
    Create { owner: u8, pages: u64 },
    /// Destroy the `nth` enclave the driver holds (modulo), a pod's own
    /// included.
    Destroy(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<bool>(), 1u64..6).prop_map(|(sgx, mib)| Op::Run { sgx, mib }),
            (any::<bool>(), 1u64..6).prop_map(|(sgx, mib)| Op::Run { sgx, mib }),
            (0usize..16).prop_map(Op::Terminate),
            (0u8..12, 0u64..400).prop_map(|(owner, pages)| Op::Create { owner, pages }),
            (0u8..12, 0u64..400).prop_map(|(owner, pages)| Op::Create { owner, pages }),
            (0usize..16).prop_map(Op::Destroy),
        ],
        1..60,
    )
}

/// The cgroup an out-of-band enclave goes under: mostly a pod's (running
/// or not — uids 1..=8 are in play), sometimes an alias or a stranger.
fn cgroup(owner: u8) -> CgroupPath {
    CgroupPath::new(match owner {
        0..=7 => format!("/kubepods/pod-{}", owner + 1),
        8 => "/kubepods/pod-01".to_string(),
        9 => "/kubepods/pod-1 ".to_string(),
        10 => "/kubepods/malicious".to_string(),
        _ => "/system.slice/pod-1".to_string(),
    })
}

/// Per-pod EPC usage as the probe computed it before the one-pass walk.
fn reference_epc_usage(node: &Node) -> Vec<(PodUid, ByteSize)> {
    let driver = node.driver().expect("an SGX node");
    node.pods()
        .values()
        .filter_map(|pod| {
            let pages = driver.pages_for_pod(&pod.cgroup);
            (!pages.is_zero()).then_some((pod.uid, pages.to_bytes()))
        })
        .collect()
}

fn points(
    measurement: &str,
    node: &Node,
    now: SimTime,
    usage: &[(PodUid, ByteSize)],
) -> Vec<Point> {
    usage
        .iter()
        .map(|&(uid, bytes)| {
            Point::new(measurement, now, bytes.as_bytes() as f64)
                .with_tag("nodename", node.name().as_str())
                .with_tag("pod_name", uid.to_string())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn the_one_pass_walk_equals_pages_for_pod_per_pod(ops in ops()) {
        let mut node = Node::new(
            NodeName::new("sgx-1"),
            MachineSpec::sgx_node(),
            NodeRole::Worker,
        );
        let mut rng = seeded_rng(7);
        let mut next_uid = 1;
        let now = SimTime::from_secs(10);
        let [heapster, sgx] = Probe::default_pair();
        for (index, op) in ops.iter().enumerate() {
            match *op {
                Op::Run { sgx, mib } => {
                    let builder = PodSpec::builder("p");
                    let spec = if sgx {
                        builder.sgx_resources(ByteSize::from_mib(mib))
                    } else {
                        builder.memory_resources(ByteSize::from_mib(mib))
                    }
                    .build();
                    // A full node refuses; the walk must hold either way.
                    if node.run_pod(PodUid::new(next_uid), spec, now, &mut rng).is_ok() {
                        next_uid += 1;
                    }
                }
                Op::Terminate(nth) => {
                    let running: Vec<PodUid> = node.pods().keys().copied().collect();
                    if !running.is_empty() {
                        node.terminate_pod(running[nth % running.len()]).unwrap();
                    }
                }
                Op::Create { owner, pages } => {
                    let driver = node.driver_mut().unwrap();
                    let enclave = driver.create_enclave(Pid::new(9_000), cgroup(owner));
                    // May exhaust the EPC; an empty enclave is a case too.
                    let _ = driver.add_pages(enclave, EpcPages::new(pages));
                }
                Op::Destroy(nth) => {
                    let driver = node.driver_mut().unwrap();
                    let mut held: Vec<_> = driver.enclaves().map(|e| e.id()).collect();
                    held.sort_unstable();
                    if !held.is_empty() {
                        driver.destroy_enclave(held[nth % held.len()]).unwrap();
                    }
                }
            }

            let reference = reference_epc_usage(&node);
            let walked: Vec<(PodUid, ByteSize)> =
                node.epc_usage().map(|(pod, bytes)| (pod.uid, bytes)).collect();
            prop_assert_eq!(&walked, &reference, "step {}", index);
            prop_assert_eq!(
                sgx.sample(&node, now),
                points(MEASUREMENT_EPC, &node, now, &reference),
                "step {}", index
            );
            let memory: Vec<(PodUid, ByteSize)> = node
                .pods()
                .values()
                .filter(|pod| !pod.mem_allocated.is_zero())
                .map(|pod| (pod.uid, pod.mem_allocated))
                .collect();
            prop_assert_eq!(
                heapster.sample(&node, now),
                points(MEASUREMENT_MEMORY, &node, now, &memory),
                "step {}", index
            );
            for pod in node.pods().values() {
                prop_assert_eq!(pod.pod_name(), pod.uid.to_string());
            }
        }
    }
}
