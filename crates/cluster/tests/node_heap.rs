//! The node side's heap gate: what the node agent and the SGX driver
//! hold for each pod running on a node.
//!
//! One SGX node binds 64 pods shaped like a replay's (an SGX request of
//! one MiB, one enclave each, uids ascending), and a counting allocator
//! reads the heap the binds allocated: the node agent's pod row, the
//! driver's enclave record, the EPC's usage row, the pod's account and
//! its cgroup path, buffer slack included. The pod specs are built before
//! counting starts, so their own heap (the pod's name) is the caller's,
//! not the node's. It is 410.25 bytes a pod: rows of 192, 48 and 40
//! bytes (64 rows is one of the buffers' sizes, so no slack here), the
//! account table's 128 slots of 48 bytes (98.25) and a 32-byte path.
//! With the pods in a `BTreeMap<PodUid, RunningPod>`, the enclave records
//! in a `HashMap` and the usage in a second `BTreeMap` it was 665.0:
//! half-empty B-tree leaves and a power-of-two hash table at a few dozen
//! entries a node.
//!
//! This file is its own test binary with one test in it, so the counting
//! allocator below sees nothing but the calls under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::{Node, NodeRole};
use des::rng::seeded_rng;
use des::{SimDuration, SimTime};
use sgx_sim::units::ByteSize;

/// Bytes handed out and not yet returned.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting live heap bytes. `realloc` and
/// `alloc_zeroed` keep their default bodies, which come through `alloc`
/// and `dealloc`.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// whose contract is the one the caller upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PODS: u64 = 64;

/// Binds pods `uids` from `specs`, each taken out of its slot.
fn bind(node: &mut Node, specs: &mut [Option<PodSpec>], uids: std::ops::RangeInclusive<u64>) {
    let mut rng = seeded_rng(42);
    for uid in uids {
        let spec = specs[uid as usize - 1].take().unwrap();
        let report = node
            .run_pod(PodUid::new(uid), spec, SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(report.started());
    }
}

#[test]
fn a_node_holds_at_most_411_heap_bytes_a_running_pod() {
    let mut node = Node::new(
        NodeName::new("as-sgx-00042"),
        MachineSpec::sgx_node(),
        NodeRole::Worker,
    );
    // Built before counting, and taken out one by one so the vector's
    // buffer outlives the count.
    let mut specs: Vec<Option<PodSpec>> = (1..=2 * PODS)
        .map(|uid| {
            let spec = PodSpec::builder(format!("{}", 1_000 + uid))
                .sgx_resources(ByteSize::from_mib(1))
                .duration(SimDuration::from_secs(30))
                .build();
            Some(spec)
        })
        .collect();

    let base = LIVE.load(Ordering::Relaxed);
    bind(&mut node, &mut specs, 1..=PODS);
    let held = LIVE.load(Ordering::Relaxed) - base;
    assert_eq!(node.pods().len() as u64, PODS);
    assert_eq!(node.driver().unwrap().enclaves().count() as u64, PODS);
    let per_pod = held as f64 / PODS as f64;
    println!("{PODS} running pods, {held} heap bytes: {per_pod:.2} a pod");
    assert!(
        per_pod <= 411.0,
        "{per_pod:.2} heap bytes a running pod, over the 411 budget"
    );

    // Terminating them shrinks the rows' buffers (the account table
    // keeps its slots), and 64 pods running again hold no more than the
    // first 64.
    for uid in (1..=PODS).map(PodUid::new) {
        node.terminate_pod(uid).unwrap();
    }
    assert!(node.pods().is_empty());
    assert_eq!(node.driver().unwrap().enclaves().count(), 0);
    let left = LIVE.load(Ordering::Relaxed) - base;
    bind(&mut node, &mut specs, PODS + 1..=2 * PODS);
    let again = LIVE.load(Ordering::Relaxed) - base;
    println!("{left} heap bytes with none running, {again} with {PODS} again");
    assert!(
        left * 3 <= held,
        "{left} of {held} heap bytes held with no pod running"
    );
    assert!(again <= held, "{again} heap bytes, {held} the first time");
}
