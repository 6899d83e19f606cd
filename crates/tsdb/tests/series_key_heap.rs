//! The per-series heap gate: what one stored series costs the store.
//!
//! `fullscale_autoscale` holds ≈24,500 live series at its end — a pod's
//! `memory/usage` and `sgx/epc` series, tagged with an autoscaled node's
//! name and the pod's — and the store was a third of its live heap. This
//! counts the heap bytes a store of that population holds, nothing of
//! the caller's: the index entry, the slot, the key and the samples.
//! It counts twice: with one sample a series, and with ten at a 10 s
//! period, the shape a probe leaves. Both stay under one budget, since a
//! repeated sample is encoded in two bits.
//!
//! This file is its own test binary with one test in it, so the counting
//! allocator below sees nothing but the calls under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use des::SimTime;
use tsdb::{Database, TagSet};

/// Bytes handed out and not yet returned.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, keeping a running count of live heap bytes.
/// `realloc` and `alloc_zeroed` keep their default bodies, which come
/// through `alloc` and `dealloc`.
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

/// `fullscale_autoscale`'s live series count at the end of its horizon.
const SERIES: usize = 24_461;

/// Pods per autoscaled node.
const PODS_PER_NODE: usize = 50;

/// The series of that population, named the way the probes name them:
/// both measurements of a pod, `{nodename: as-sgx-NNNNN, pod_name: pod-U}`.
fn population() -> Vec<(&'static str, TagSet)> {
    (0..SERIES)
        .map(|i| {
            let pod = i / 2;
            let measurement = if i % 2 == 0 {
                "sgx/epc"
            } else {
                "memory/usage"
            };
            let tags: TagSet = [
                (
                    "nodename".to_string(),
                    format!("as-sgx-{:05}", pod / PODS_PER_NODE),
                ),
                ("pod_name".to_string(), format!("pod-{}", 1_000 + pod)),
            ]
            .into();
            (measurement, tags)
        })
        .collect()
}

#[test]
fn a_stored_series_holds_at_most_320_heap_bytes() {
    let names = population();
    let before = LIVE.load(Ordering::Relaxed);
    let per_series = || (LIVE.load(Ordering::Relaxed) - before) as f64 / SERIES as f64;
    let mut db = Database::new();
    for tick in 1..=10 {
        // Resolved anew each tick (a hit allocates nothing), so no id
        // list of the caller's is counted.
        for (measurement, tags) in &names {
            let id = db.resolve(measurement, tags);
            assert!(db.append(id, SimTime::from_secs(10 * tick), 4096.0));
        }
        if tick == 1 || tick == 10 {
            assert_eq!(db.point_count(), SERIES * tick as usize);
            let (held, shape) = (
                per_series(),
                if tick == 1 {
                    "one sample"
                } else {
                    "ten samples"
                },
            );
            println!("{held:.1} heap bytes per series of {shape}");
            assert!(
                held <= 320.0,
                "{held:.1} heap bytes per series of {shape}, over the 320 budget"
            );
        }
    }
    assert_eq!(db.series_count(), SERIES);
    drop(db);
}
