//! The per-job heap gate: what a replay holds for each job it submitted.
//!
//! A replay keeps every pod's history to the end — the orchestrator's pod
//! table, the engine's origin table, the event log and, once finished,
//! the result's runs — so its peak heap grows with the jobs submitted.
//! This replays a fixed Borg stream the way the benchmark's
//! `fullscale_autoscale` does at `--smoke` size (3,657 jobs onto an
//! autoscaled cluster) and bounds the peak live heap, result included,
//! per submitted job: 1,365 bytes (1,364.9). It was 1,824 when the
//! records sat in a uid-keyed `BTreeMap`, every record and event held its
//! own copy of a node name, and the result cloned both; 1,557 while the
//! tsdb kept 16 bytes a sample and each series' key twice; 1,510 while
//! each SGX pod's cgroup path was three `String`s (the pod's, its
//! enclave's and the driver's limit table's); and 1,500 while each node
//! kept its running pods in a `BTreeMap`, its enclave records in a
//! `HashMap` and their page usage in a second `BTreeMap`. It also pins
//! the reason a node name costs nothing to repeat: a `NodeName` clone
//! shares the one allocation.
//!
//! This file is its own test binary with one test in it, so the counting
//! allocator below sees nothing but the calls under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use borg_trace::{BorgSynthetic, GeneratorConfig, WorkloadParams};
use cluster::api::NodeName;
use des::SimDuration;
use orchestrator::autoscale::AutoscalerPolicy;
use simulation::{replay_stream, AutoscaleConfig, ReplayConfig};

/// Bytes handed out and not yet returned.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE` has been since the last reset.
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Allocations made, ever.
static ALLOCATIONS: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting allocations and live heap bytes and
/// tracking their peak. `realloc` and `alloc_zeroed` keep their default
/// bodies, which come through `alloc` and `dealloc`.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// whose contract is the one the caller upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed) + layout.size() as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
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

/// The benchmark's node-pool policy (`bench_autoscale`'s, without its
/// service group).
fn autoscale() -> AutoscaleConfig {
    let policy = AutoscalerPolicy::paper_defaults()
        .with_scale_up_wait(SimDuration::from_secs(20))
        .with_scale_down_after(SimDuration::from_secs(60))
        .with_max_nodes(12_500)
        .with_max_step(256);
    AutoscaleConfig::every(SimDuration::from_secs(10), policy)
}

#[test]
fn a_replay_holds_at_most_1365_heap_bytes_a_job() {
    let name = NodeName::new("as-sgx-00042");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copies: [NodeName; 4] = std::array::from_fn(|_| name.clone());
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        0,
        "a NodeName clone allocated"
    );
    assert!(copies.iter().all(|copy| copy == &name));

    let seed = 42;
    let generator = GeneratorConfig::full_scale(seed)
        .with_mean_concurrency(4_000.0)
        .with_horizon(SimDuration::from_secs(60));
    let mut frontend = BorgSynthetic::new(generator, WorkloadParams::paper(1.0, seed));
    let config = ReplayConfig::paper(seed).with_autoscale(autoscale());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = replay_stream(&mut frontend, &config);
    let peak = PEAK.load(Ordering::Relaxed) - base;

    let jobs = result.runs().len();
    assert!(!result.timed_out());
    assert!(jobs > 1_000, "{jobs} jobs submitted");
    let per_job = peak as f64 / jobs as f64;
    println!("{jobs} jobs, peak {peak} heap bytes: {per_job:.1} a job");
    assert!(
        per_job <= 1_365.0,
        "{per_job:.1} peak heap bytes a job, over the 1,365 budget"
    );
    drop(result);
}
