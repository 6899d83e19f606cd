//! Frontend experiment — the four built-in trace frontends streamed
//! through the replay engine.
//!
//! Runs every registered [`FrontendRegistry`] frontend (Borg-synthetic,
//! Alibaba-shaped, diurnal serving, adversarial mix) through
//! `replay_stream` at the same cluster and scheduler configuration,
//! checks that each drains deterministically to all-terminal pods, and
//! prints the cross-frontend comparison: outcome mix, hostile
//! submissions, waiting time, pod-group peaks, and the loop's
//! lookahead (one event, whatever the frontend).
//!
//! ```text
//! cargo run --release -p sgx-orchestrator --bin exp_frontends            # full scale
//! cargo run --release -p sgx-orchestrator --bin exp_frontends -- --smoke # CI-sized
//! cargo run --release -p sgx-orchestrator --bin exp_frontends -- --list-frontends
//! ```

#[path = "common/sweep_args.rs"]
mod sweep_args;

use borg_trace::FrontendRegistry;
use des::SimTime;
use sgx_orchestrator::Experiment;
use simulation::{analysis, ReplayResult};

/// Frontend events `replay_stream` holds ahead of the clock — a
/// property of the loop, printed for the table, not measured per run.
const LOOKAHEAD_EVENTS: usize = 1;

fn main() {
    let args = sweep_args::parse("--list-frontends");
    if args.list {
        print!("{}", FrontendRegistry::builtin().markdown_table());
        return;
    }
    let smoke = args.smoke;
    let seeds: Vec<u64> = if smoke { vec![71] } else { vec![71, 72] };
    let registry = FrontendRegistry::builtin();
    let names = registry.names();

    let experiments: Vec<(u64, &str, Experiment)> = seeds
        .iter()
        .flat_map(|&seed| {
            let names = &names;
            names.iter().map(move |name| {
                let base = if smoke {
                    Experiment::quick(seed)
                } else {
                    Experiment::paper_replay(seed)
                };
                (seed, *name, base.frontend(name))
            })
        })
        .collect();

    // Streaming frontends cannot enter the materialising sweep
    // (`run_all` rejects them), so fan the runs out by hand.
    let results: Vec<ReplayResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = experiments
            .iter()
            .map(|(_, _, exp)| scope.spawn(|| exp.run()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });

    // Determinism spot-check: the first configuration, streamed again,
    // must be bit-identical (thread scheduling does not leak into the
    // replay).
    let again = experiments[0].2.run();
    assert_eq!(
        format!("{again:?}"),
        format!("{:?}", results[0]),
        "streamed replay is not deterministic"
    );

    println!(
        "# Trace frontend sweep ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!();
    println!(
        "| seed | frontend | jobs | completed | denied | unschedulable | hostile | mean wait [s] | makespan [s] | group peaks | lookahead |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for ((seed, name, _), result) in experiments.iter().zip(&results) {
        // Every frontend drains: no pod is left non-terminal and the
        // replay never hits the safety cap.
        assert!(!result.timed_out(), "{name} (seed {seed}) timed out");
        let terminal =
            result.completed_count() + result.denied_count() + result.unschedulable_count();
        assert_eq!(
            terminal,
            result.runs().len(),
            "{name} (seed {seed}) left non-terminal pods"
        );
        let hostile = result.runs().iter().filter(|r| r.malicious).count();
        if *name == borg_trace::frontend::ADVERSARIAL_MIX {
            assert!(hostile > 0, "adversarial mix produced no hostile pods");
            assert!(
                result.denied_count() >= 1,
                "no hostile pod was denied under limit enforcement"
            );
        }
        let peaks = result.group_peak_replicas();
        if *name == borg_trace::frontend::DIURNAL_SERVING {
            assert!(!peaks.is_empty(), "diurnal serving announced no groups");
        }
        let group_peaks = if peaks.is_empty() {
            "-".to_string()
        } else {
            peaks
                .iter()
                .map(|(group, peak)| format!("{group}:{peak}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.0} | {} | {} |",
            seed,
            name,
            result.runs().len(),
            result.completed_count(),
            result.denied_count(),
            result.unschedulable_count(),
            hostile,
            analysis::mean_waiting_secs(result, None),
            result
                .end_time()
                .saturating_since(SimTime::ZERO)
                .as_secs_f64(),
            group_peaks,
            LOOKAHEAD_EVENTS,
        );
    }
    println!();
    println!(
        "all {} frontend runs drained to all-terminal pods with a streaming lookahead of at most one job",
        experiments.len()
    );
}
