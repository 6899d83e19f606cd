//! The cycle-open gate: what `SchedulingCycle::new` asks of the heap.
//!
//! A scheduler pass opens one cycle, and the paper's five-node cluster
//! runs thousands of passes a replay — so opening must not cost more
//! than the one copy of the node views it has always made, however many
//! nodes or index classes the cluster has. The tier index is built by
//! the first placement that looks at a node; that build is bounded too.
//!
//! This file is its own test binary with one test in it, so the counting
//! allocator below sees nothing but the calls under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cluster::api::{NodeName, PodSpec};
use cluster::topology::{Cluster, ClusterSpec};
use des::{SimDuration, SimTime};
use orchestrator::metrics::NodeView;
use orchestrator::{ClusterSnapshot, PolicyRegistry, SchedulingCycle, SGX_BINPACK, SGX_SPREAD};
use sgx_sim::units::{ByteSize, EpcPages};
use tsdb::Database;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls that hand out memory. `realloc`
/// and `alloc_zeroed` keep their default bodies, which come through
/// `alloc`.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// whose contract is the one the caller upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `work` runs; the least of a few tries, so a
/// stray allocation of the test harness's own thread cannot add to it.
fn allocations<T>(mut work: impl FnMut() -> T) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let made = work();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            drop(made);
            after - before
        })
        .min()
        .expect("five tries")
}

fn paper_cluster() -> ClusterSnapshot {
    ClusterSnapshot::capture(
        &Cluster::build(&ClusterSpec::paper_cluster()),
        &Database::new(),
        SimTime::ZERO,
        SimDuration::from_secs(25),
    )
}

/// 1,000 nodes in four classes of the tier index: fresh and degraded SGX
/// machines, fresh and cordoned standard ones.
fn four_class_cluster() -> ClusterSnapshot {
    let nodes: BTreeMap<NodeName, NodeView> = (0..1_000)
        .map(|i| {
            let sgx = i % 2 == 0;
            let view = NodeView {
                memory_capacity: ByteSize::from_gib(if sgx { 8 } else { 64 }),
                epc_capacity: EpcPages::new(if sgx { 23_936 } else { 0 }),
                degraded: sgx && i % 4 == 0,
                cordoned: !sgx && i % 4 == 1,
                ..NodeView::default()
            };
            (NodeName::new(format!("node-{i:04}")), view)
        })
        .collect();
    ClusterSnapshot::from_nodes(SimTime::ZERO, nodes)
}

#[test]
fn opening_a_cycle_allocates_the_same_on_five_nodes_and_on_a_thousand() {
    let pod = PodSpec::builder("p")
        .sgx_resources(ByteSize::from_mib(16))
        .build();
    let registry = PolicyRegistry::builtin();
    for snapshot in [paper_cluster(), four_class_cluster()] {
        let nodes = snapshot.len();
        // The parent made one allocation here: the copy of the views.
        let opening = allocations(|| SchedulingCycle::new(snapshot.clone()));
        assert_eq!(opening, 1, "opening a cycle on {nodes} nodes");

        // The first placement builds the index — two arrays, however the
        // slots fall into classes — and the candidate list, which under
        // first fit never grows; a later one allocates the winner's name
        // and, rating by spread, the champions.
        let binpack = registry.by_name(SGX_BINPACK).expect("built in");
        let mut cycle = SchedulingCycle::new(snapshot.clone());
        let first = allocations(|| {
            cycle = SchedulingCycle::new(snapshot.clone());
            cycle.place(&binpack, &pod)
        }) - opening;
        assert!(
            first <= 4,
            "{first} allocations in the first placement on {nodes} nodes"
        );
        for scheduler in [SGX_BINPACK, SGX_SPREAD] {
            let pipeline = registry.by_name(scheduler).expect("built in");
            let later = allocations(|| cycle.place(&pipeline, &pod));
            assert!(
                later <= 2,
                "{scheduler}: {later} allocations in a later placement on {nodes} nodes"
            );
        }
    }
}
