//! A thread keeps the last trace it prepared and reuses it while the
//! `(preset, seed)` stays the same. Reading that trace must be
//! indistinguishable from generating it: a replay on a thread that has
//! just prepared the trace for another cell equals the same replay on a
//! fresh thread, which generates it.

use orchestrator::SGX_SPREAD;
use sgx_orchestrator::Experiment;

/// `exp.run()` on a freshly spawned thread, whose last prepared trace
/// is none.
fn cold(exp: &Experiment) -> String {
    let exp = exp.clone();
    std::thread::spawn(move || format!("{:?}", exp.run()))
        .join()
        .expect("the cold replay runs")
}

#[test]
fn a_reused_trace_replays_like_a_freshly_generated_one() {
    for seed in [42, 7] {
        for base in [Experiment::quick(seed), Experiment::paper_replay(seed)] {
            // Another cell of the same trace prepares it on this thread.
            let _ = base.clone().sgx_ratio(0.0).workload();
            let cell = base.scheduler(SGX_SPREAD);
            let warm = format!("{:?}", cell.run());
            assert!(warm == cold(&cell), "seed {seed}: {cell:?}");
        }
    }
}
