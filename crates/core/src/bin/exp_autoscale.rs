//! Autoscale experiment — cluster elasticity under the paper's replay
//! workload (§IX).
//!
//! Replays the same workloads with the cluster autoscaler off and on at
//! several scale-up waits via the parallel sweep, and compares queueing
//! (the autoscaler's whole point is to absorb the SGX backlog) against
//! the elasticity bill: nodes added, scale-up latency, and wasted
//! capacity.
//!
//! ```text
//! cargo run --release -p sgx-orchestrator --bin exp_autoscale            # full sweep
//! cargo run --release -p sgx-orchestrator --bin exp_autoscale -- --smoke # CI-sized
//! cargo run --release -p sgx-orchestrator --bin exp_autoscale -- --list-policies
//! ```

#[path = "common/sweep_args.rs"]
mod sweep_args;

use des::{SimDuration, SimTime};
use orchestrator::autoscale::AutoscalerPolicy;
use orchestrator::PolicyRegistry;
use sgx_orchestrator::Experiment;
use sgx_sim::units::ByteSize;
use simulation::{analysis, AutoscaleConfig, ReplayResult};

/// One swept configuration: autoscaling off, or on reacting after a
/// given queue wait.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Off,
    On(u64),
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::Off => "off".to_string(),
            Mode::On(wait_secs) => format!("on @ {wait_secs}s"),
        }
    }

    fn apply(self, experiment: Experiment) -> Experiment {
        match self {
            Mode::Off => experiment,
            Mode::On(wait_secs) => {
                let policy = AutoscalerPolicy::paper_defaults()
                    .with_scale_up_wait(SimDuration::from_secs(wait_secs))
                    .with_scale_down_after(SimDuration::from_secs(120))
                    .with_max_nodes(32)
                    .with_max_step(4);
                experiment.autoscale(AutoscaleConfig::every(SimDuration::from_secs(15), policy))
            }
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
    let (seeds, waits): (Vec<u64>, Vec<u64>) = if smoke {
        (vec![51], vec![30])
    } else {
        (vec![51, 52, 53], vec![10, 30, 60])
    };
    let mut modes = vec![Mode::Off];
    modes.extend(waits.iter().map(|&w| Mode::On(w)));

    // Same workload per seed in every mode: the experiment only differs
    // in the autoscale knob, so deltas are attributable to elasticity.
    // The baseline SGX nodes carry a reduced EPC so the tier is genuinely
    // backlogged — the regime the autoscaler exists for (off = the
    // paper's Fig. 8 queueing, on = the backlog absorbed by new nodes).
    let base = |seed: u64| {
        if smoke {
            Experiment::quick(seed)
                .sgx_ratio(1.0)
                .epc_size(ByteSize::from_mib(24))
        } else {
            Experiment::paper_replay(seed)
                .sgx_ratio(1.0)
                .epc_size(ByteSize::from_mib(24))
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

    // Determinism spot-check: the first autoscaled configuration,
    // replayed again, must be bit-identical (sweep order does not leak
    // into node lifecycles or elasticity metrics).
    let again = experiments[1].2.run();
    assert_eq!(
        again.runs(),
        results[1].runs(),
        "autoscaled replay is not deterministic"
    );
    assert_eq!(again.end_time(), results[1].end_time());
    assert_eq!(again.elasticity(), results[1].elasticity());

    println!(
        "# Cluster autoscaling sweep ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!();
    println!(
        "| seed | autoscale | scale-ups | nodes +/- | peak nodes | mean up-latency [s] | max up-latency [s] | wasted [node·s] | mean wait [s] | mean turnaround [s] | makespan [s] | completed |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    for ((seed, mode, _), result) in experiments.iter().zip(&results) {
        let (ups, added, removed) = match result.elasticity() {
            Some(m) => (m.scale_up_events, m.nodes_added, m.nodes_removed),
            None => (0, 0, 0),
        };
        println!(
            "| {} | {} | {} | +{}/-{} | {} | {} | {} | {:.0} | {:.1} | {:.1} | {:.0} | {} |",
            seed,
            mode.label(),
            ups,
            added,
            removed,
            analysis::peak_node_count(result).map_or_else(|| "-".to_string(), |n| n.to_string()),
            analysis::mean_scale_up_latency_secs(result)
                .map_or_else(|| "-".to_string(), |s| format!("{s:.1}")),
            analysis::max_scale_up_latency_secs(result)
                .map_or_else(|| "-".to_string(), |s| format!("{s:.1}")),
            analysis::wasted_capacity_node_secs(result),
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
        "| autoscale | mean wait [s] | mean turnaround [s] | nodes added/run | peak nodes | wasted [node·s]/run |"
    );
    println!("|---|---|---|---|---|---|");
    let mut off_wait: Option<f64> = None;
    for &mode in &modes {
        let of_mode: Vec<&ReplayResult> = experiments
            .iter()
            .zip(&results)
            .filter(|((_, m, _), _)| m.label() == mode.label())
            .map(|(_, r)| r)
            .collect();
        let n = of_mode.len() as f64;
        let wait = of_mode
            .iter()
            .map(|r| analysis::mean_waiting_secs(r, None))
            .sum::<f64>()
            / n;
        let turnaround = of_mode
            .iter()
            .map(|r| analysis::mean_turnaround_secs(r, None))
            .sum::<f64>()
            / n;
        let added = of_mode
            .iter()
            .filter_map(|r| r.elasticity().map(|m| m.nodes_added))
            .sum::<u64>() as f64
            / n;
        let peak = of_mode
            .iter()
            .filter_map(|r| analysis::peak_node_count(r))
            .max()
            .unwrap_or(0);
        let wasted = of_mode
            .iter()
            .map(|r| analysis::wasted_capacity_node_secs(r))
            .sum::<f64>()
            / n;
        println!(
            "| {} | {wait:.1} | {turnaround:.1} | {added:.1} | {peak} | {wasted:.0} |",
            mode.label()
        );
        if matches!(mode, Mode::Off) {
            off_wait = Some(wait);
        } else {
            let off = off_wait.expect("Mode::Off is swept first");
            assert!(
                wait < off,
                "autoscaling at {} did not lower the mean waiting time \
                 ({wait:.1}s vs off {off:.1}s)",
                mode.label()
            );
        }
    }
    println!();
    println!("autoscaling lowered the mean waiting time in every mode");
}
