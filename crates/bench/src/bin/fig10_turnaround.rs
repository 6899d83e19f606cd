//! Fig. 10 — sum of turnaround times for all jobs, compared with the
//! useful duration recorded in the trace.
//!
//! Paper values (hours): Trace 94; binpack 111 (standard) / 210 (SGX);
//! spread 129 (standard) / 275 (SGX). Binpack wins; SGX jobs need a bit
//! less than twice the time of standard ones.

use bench::{run_experiments, section, table};
use orchestrator::{SGX_BINPACK, SGX_SPREAD};
use sgx_orchestrator::Experiment;
use simulation::analysis::total_turnaround;

fn main() {
    let seed = 42;

    // The "Trace" bar: the useful durations of the trace the cells replay.
    let trace_hours = Experiment::paper_replay(seed)
        .prepared_trace()
        .total_duration()
        .as_hours_f64();

    section("Fig. 10: total turnaround time [h]");
    let variants = [
        (SGX_BINPACK, 0.0, "binpack / standard", "111"),
        (SGX_BINPACK, 1.0, "binpack / SGX", "210"),
        (SGX_SPREAD, 0.0, "spread / standard", "129"),
        (SGX_SPREAD, 1.0, "spread / SGX", "275"),
    ];
    // The Fig. 10 runs contain a single job type each (all standard or
    // all SGX).
    let experiments: Vec<_> = variants
        .iter()
        .map(|&(scheduler, ratio, _, _)| {
            Experiment::paper_replay(seed)
                .sgx_ratio(ratio)
                .scheduler(scheduler)
        })
        .collect();
    let results = run_experiments(&experiments);

    let mut rows = vec![vec![
        "trace (useful duration)".to_string(),
        format!("{trace_hours:.0}"),
        "94".to_string(),
    ]];
    for (&(_, _, label, paper), result) in variants.iter().zip(&results) {
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", total_turnaround(result, None).as_hours_f64()),
            paper.to_string(),
        ]);
    }
    table(&["run", "measured [h]", "paper [h]"], &rows);

    println!();
    println!("  paper: binpack beats spread; SGX ≈ 2× standard under binpack");
}
