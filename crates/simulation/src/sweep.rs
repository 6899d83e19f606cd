//! Parallel replay sweeps over independent `(Workload, ReplayConfig)` pairs.
//!
//! The figure and ablation binaries all share the same outer shape: a loop
//! over a handful of configurations (EPC sizes, SGX ratios, schedulers,
//! seeds), each replayed independently. Every [`replay_stream`] is fully
//! deterministic and shares no mutable state with its siblings, so the
//! sweep fans the runs out over a scoped worker pool and collects results
//! **in submission order** — the output is bit-identical to running the
//! same pairs sequentially (a property the tests assert, not just claim).
//!
//! Work distribution is a single atomic cursor over the job slice: each
//! worker claims the next unclaimed index, replays it, and parks the
//! result in that index's slot. There is no channel and no re-ordering
//! step; slot `i` always holds the result of job `i`.
//!
//! # Examples
//!
//! ```
//! use borg_trace::{GeneratorConfig, Workload, WorkloadParams};
//! use simulation::{sweep, ReplayConfig};
//!
//! let jobs: Vec<_> = (0..3)
//!     .map(|seed| {
//!         let trace = GeneratorConfig::small(seed).generate();
//!         let workload = Workload::materialize(&trace, &WorkloadParams::paper(0.5, seed));
//!         (workload, ReplayConfig::paper(seed))
//!     })
//!     .collect();
//! let results = sweep::run_all_with(&jobs, sweep::default_threads(jobs.len()), |_| {});
//! assert_eq!(results.len(), 3);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::Workload;

use crate::config::ReplayConfig;
use crate::replay::{replay_stream, ReplayResult};

/// One unit of sweep work: a workload and the configuration to replay it
/// under.
pub type SweepJob = (Workload, ReplayConfig);

/// Delivered to the progress callback after each run completes. Callbacks
/// fire from worker threads in **completion** order, which under parallel
/// execution is not submission order — `index` identifies the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Index of the run that just finished, into the input slice.
    pub index: usize,
    /// Runs finished so far, including this one.
    pub completed: usize,
    /// Total runs in the sweep.
    pub total: usize,
}

/// An automatically sized worker pool: the machine's available parallelism,
/// capped at the number of jobs (never zero).
pub fn default_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.max(1))
}

/// Replays every job on `threads` workers, invoking `progress` after each
/// run completes. `threads <= 1` degrades to a plain sequential loop on
/// the calling thread (no pool is spun up), which is also the reference
/// ordering the parallel path must reproduce bit-for-bit.
pub fn run_all_with<F>(jobs: &[SweepJob], threads: usize, progress: F) -> Vec<ReplayResult>
where
    F: Fn(SweepProgress) + Sync,
{
    let total = jobs.len();
    if threads <= 1 || total <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(index, (workload, config))| {
                let result = replay_stream(&mut MaterializedFrontend::new(workload), config);
                progress(SweepProgress {
                    index,
                    completed: index + 1,
                    total,
                });
                result
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ReplayResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let progress = &progress;
    let slots_ref = &slots;
    let next_ref = &next;
    let completed_ref = &completed;

    std::thread::scope(|s| {
        for _ in 0..threads.min(total) {
            s.spawn(move || loop {
                let index = next_ref.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let (workload, config) = &jobs[index];
                let result = replay_stream(&mut MaterializedFrontend::new(workload), config);
                *slots_ref[index]
                    .lock()
                    .expect("sweep worker never panics while holding the slot lock") = Some(result);
                let done = completed_ref.fetch_add(1, Ordering::Relaxed) + 1;
                progress(SweepProgress {
                    index,
                    completed: done,
                    total,
                });
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked")
                .expect("every slot is filled exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::{GeneratorConfig, WorkloadParams};
    use cluster::topology::ClusterSpec;
    use sgx_sim::units::ByteSize;

    fn jobs() -> Vec<SweepJob> {
        let mut jobs = Vec::new();
        for (seed, ratio, epc_mib) in [
            (11, 0.5, 128u64),
            (12, 1.0, 64),
            (13, 0.0, 128),
            (14, 1.0, 32),
            (15, 0.25, 96),
        ] {
            let trace = GeneratorConfig::small(seed).generate();
            let workload =
                borg_trace::Workload::materialize(&trace, &WorkloadParams::paper(ratio, seed));
            let config = ReplayConfig::paper(seed).with_cluster(
                ClusterSpec::paper_cluster_with_epc(ByteSize::from_mib(epc_mib)),
            );
            jobs.push((workload, config));
        }
        jobs
    }

    fn assert_identical(a: &[ReplayResult], b: &[ReplayResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.runs(), y.runs());
            assert_eq!(x.end_time(), y.end_time());
            assert_eq!(x.timed_out(), y.timed_out());
            assert_eq!(
                x.pending_epc_series().points(),
                y.pending_epc_series().points()
            );
            assert_eq!(
                x.pending_memory_series().points(),
                y.pending_memory_series().points()
            );
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let jobs = jobs();
        let sequential = run_all_with(&jobs, 1, |_| {});
        let parallel = run_all_with(&jobs, 4, |_| {});
        assert_identical(&sequential, &parallel);
    }

    #[test]
    fn auto_sized_pool_matches_too() {
        let jobs = jobs();
        let sequential = run_all_with(&jobs, 1, |_| {});
        let auto = run_all_with(&jobs, default_threads(jobs.len()), |_| {});
        assert_identical(&sequential, &auto);
    }

    #[test]
    fn progress_fires_once_per_run() {
        let jobs = jobs();
        let seen = Mutex::new(Vec::new());
        let results = run_all_with(&jobs, 3, |p| seen.lock().unwrap().push(p));
        assert_eq!(results.len(), jobs.len());
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), jobs.len());
        // `completed` counts up 1..=total in callback order.
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(p.completed, i + 1);
            assert_eq!(p.total, jobs.len());
        }
        // Every index is reported exactly once.
        seen.sort_by_key(|p| p.index);
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn empty_sweep_returns_empty() {
        assert!(run_all_with(&[], 8, |_| panic!("no progress expected")).is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs = jobs();
        let results = run_all_with(&jobs, 64, |_| {});
        assert_identical(&run_all_with(&jobs, 1, |_| {}), &results);
    }
}
