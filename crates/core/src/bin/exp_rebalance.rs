//! Rebalance experiment — live migration & EPC rebalancing at sweep
//! scale (the paper's §VIII future-work direction).
//!
//! Replays the same workloads with rebalancing off and on across several
//! thresholds and seeds via the parallel sweep, and compares per-node
//! EPC-load imbalance, migration counts, total migration downtime and
//! the turnaround cost of that downtime.
//!
//! ```text
//! cargo run --release -p sgx-orchestrator --bin exp_rebalance            # full sweep
//! cargo run --release -p sgx-orchestrator --bin exp_rebalance -- --smoke # CI-sized
//! cargo run --release -p sgx-orchestrator --bin exp_rebalance -- --list-policies
//! ```

#[path = "common/sweep_args.rs"]
mod sweep_args;

use des::{SimDuration, SimTime};
use orchestrator::PolicyRegistry;
use sgx_orchestrator::Experiment;
use simulation::{analysis, RebalanceConfig, ReplayResult};

/// One swept configuration: rebalancing off, or on at a threshold.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Off,
    On(f64),
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::Off => "off".to_string(),
            Mode::On(threshold) => format!("on @ {threshold:.2}"),
        }
    }

    fn apply(self, experiment: Experiment) -> Experiment {
        match self {
            Mode::Off => experiment,
            Mode::On(threshold) => experiment.rebalance(RebalanceConfig::every(
                SimDuration::from_secs(60),
                threshold,
            )),
        }
    }
}

fn main() {
    let args = sweep_args::parse("--list-policies");
    if args.list {
        print!("{}", PolicyRegistry::builtin().markdown_table());
        return;
    }
    let smoke = args.smoke;
    let (seeds, thresholds): (Vec<u64>, Vec<f64>) = if smoke {
        (vec![41], vec![0.2])
    } else {
        (vec![41, 42, 43], vec![0.1, 0.2, 0.3])
    };
    let mut modes = vec![Mode::Off];
    modes.extend(thresholds.iter().map(|&t| Mode::On(t)));

    // Same workload per seed in every mode: the experiment only differs
    // in the rebalance knob, so deltas are attributable to migration.
    let base = |seed: u64| {
        if smoke {
            Experiment::quick(seed).sgx_ratio(1.0)
        } else {
            Experiment::paper_replay(seed).sgx_ratio(1.0)
        }
    };
    let experiments: Vec<(u64, Mode, Experiment)> = seeds
        .iter()
        .flat_map(|&seed| {
            modes
                .iter()
                .map(move |&mode| (seed, mode, mode.apply(base(seed))))
        })
        .collect();

    let batch: Vec<Experiment> = experiments.iter().map(|(_, _, e)| e.clone()).collect();
    let results = Experiment::run_all(&batch);

    // Determinism spot-check: the first configuration, replayed again,
    // must be bit-identical (sweep order does not leak into results).
    let again = experiments[0].2.run();
    assert_eq!(
        again.runs(),
        results[0].runs(),
        "replay is not deterministic"
    );
    assert_eq!(again.end_time(), results[0].end_time());

    println!(
        "# EPC rebalancing sweep ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!();
    println!(
        "| seed | rebalance | mean imbalance | peak imbalance | migrations | downtime [s] | mean wait [s] | mean turnaround [s] | makespan [s] | completed |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for ((seed, mode, _), result) in experiments.iter().zip(&results) {
        println!(
            "| {} | {} | {:.4} | {:.4} | {} | {:.1} | {:.1} | {:.1} | {:.0} | {} |",
            seed,
            mode.label(),
            analysis::mean_epc_imbalance(result),
            analysis::peak_epc_imbalance(result),
            result.migration_count(),
            analysis::total_migration_downtime_secs(result),
            analysis::mean_waiting_secs(result, None),
            analysis::mean_turnaround_secs(result, None),
            result
                .end_time()
                .saturating_since(SimTime::ZERO)
                .as_secs_f64(),
            result.completed_count(),
        );
    }

    // Per-mode aggregate over seeds: the headline comparison.
    println!();
    println!("## Aggregate over {} seed(s)", seeds.len());
    println!();
    println!(
        "| rebalance | mean imbalance | migrations/run | downtime/run [s] | mean turnaround [s] |"
    );
    println!("|---|---|---|---|---|");
    let mut off_imbalance: Option<f64> = None;
    for &mode in &modes {
        let of_mode: Vec<&ReplayResult> = experiments
            .iter()
            .zip(&results)
            .filter(|((_, m, _), _)| m.label() == mode.label())
            .map(|(_, r)| r)
            .collect();
        let n = of_mode.len() as f64;
        let imbalance = of_mode
            .iter()
            .map(|r| analysis::mean_epc_imbalance(r))
            .sum::<f64>()
            / n;
        let migrations = of_mode.iter().map(|r| r.migration_count()).sum::<u64>() as f64 / n;
        let downtime = of_mode
            .iter()
            .map(|r| analysis::total_migration_downtime_secs(r))
            .sum::<f64>()
            / n;
        let turnaround = of_mode
            .iter()
            .map(|r| analysis::mean_turnaround_secs(r, None))
            .sum::<f64>()
            / n;
        println!(
            "| {} | {imbalance:.4} | {migrations:.1} | {downtime:.1} | {turnaround:.1} |",
            mode.label()
        );
        if matches!(mode, Mode::Off) {
            off_imbalance = Some(imbalance);
        } else {
            let off = off_imbalance.expect("Mode::Off is swept first");
            assert!(
                imbalance < off,
                "rebalancing at {} did not lower the mean EPC-load imbalance \
                 ({imbalance:.4} vs off {off:.4})",
                mode.label()
            );
        }
    }
    println!();
    println!("rebalancing lowered the mean per-node EPC-load imbalance in every mode");
}
