//! Chaos experiment — fault-injected probe pipeline at sweep scale.
//!
//! Replays the same workloads under increasing metrics-pipeline fault
//! rates (scrape drops, delayed frames, store write failures, plus a
//! long probe silence on one SGX node at nonzero rates) and compares
//! frame loss, staleness-degraded scheduling decisions, waiting times
//! and makespans against the fault-free baseline.
//!
//! ```text
//! cargo run --release -p sgx-orchestrator --bin exp_chaos            # full sweep
//! cargo run --release -p sgx-orchestrator --bin exp_chaos -- --smoke # CI-sized
//! cargo run --release -p sgx-orchestrator --bin exp_chaos -- --list-policies
//! ```

#[path = "common/sweep_args.rs"]
mod sweep_args;

use des::{SimDuration, SimTime};
use orchestrator::PolicyRegistry;
use sgx_orchestrator::Experiment;
use simulation::{analysis, FaultPlan, ProbeSilence};

/// The swept fault plan at `rate`: drops, delays and write failures all
/// at `rate`, plus — so the staleness fallback demonstrably fires — a
/// ten-minute probe silence on sgx-1 at every nonzero rate.
fn plan_at(rate: f64, seed: u64) -> FaultPlan {
    if rate == 0.0 {
        return FaultPlan::none();
    }
    FaultPlan::none()
        .with_seed(seed)
        .with_scrape_drops(rate)
        .with_delays(rate, SimDuration::from_secs(45))
        .with_write_failures(rate)
        .with_silence(ProbeSilence {
            node: "sgx-1".to_string(),
            from_secs: 600,
            until_secs: 1200,
        })
}

fn main() {
    let args = sweep_args::parse("--list-policies");
    if args.list {
        print!("{}", PolicyRegistry::builtin().markdown_table());
        return;
    }
    let smoke = args.smoke;
    let (seeds, rates): (Vec<u64>, Vec<f64>) = if smoke {
        (vec![41], vec![0.0, 0.2])
    } else {
        (vec![41, 42, 43], vec![0.0, 0.1, 0.3])
    };

    // Same workload per seed at every rate: the experiment only differs
    // in the fault plan, so deltas are attributable to the chaos.
    let base = |seed: u64| {
        if smoke {
            Experiment::quick(seed).sgx_ratio(1.0)
        } else {
            Experiment::paper_replay(seed).sgx_ratio(1.0)
        }
    };
    let experiments: Vec<(u64, f64, Experiment)> = seeds
        .iter()
        .flat_map(|&seed| {
            rates
                .iter()
                .map(move |&rate| (seed, rate, base(seed).faults(plan_at(rate, seed))))
        })
        .collect();

    let batch: Vec<Experiment> = experiments.iter().map(|(_, _, e)| e.clone()).collect();
    let results = Experiment::run_all(&batch);

    // Determinism spot-check: the first *faulted* configuration,
    // replayed again, must be bit-identical (the injector's RNG stream
    // derives from the plan alone, not from sweep order).
    let faulted_index = experiments
        .iter()
        .position(|(_, rate, _)| *rate > 0.0)
        .expect("sweep always includes a nonzero rate");
    let again = experiments[faulted_index].2.run();
    assert_eq!(
        again.runs(),
        results[faulted_index].runs(),
        "faulted replay is not deterministic"
    );
    assert_eq!(again.end_time(), results[faulted_index].end_time());
    assert_eq!(again.fault_stats(), results[faulted_index].fault_stats());

    println!(
        "# Metrics-pipeline chaos sweep ({})",
        if smoke { "smoke" } else { "full" }
    );
    println!();
    println!(
        "| seed | fault rate | scraped | silenced | dropped | delayed | retried | lost | loss rate | degraded decisions | mean wait [s] | makespan [s] | completed |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for ((seed, rate, _), result) in experiments.iter().zip(&results) {
        let stats = result.fault_stats();
        println!(
            "| {} | {:.2} | {} | {} | {} | {} | {} | {} | {:.3} | {} | {:.1} | {:.0} | {} |",
            seed,
            rate,
            stats.frames_scraped,
            stats.frames_silenced,
            stats.frames_dropped,
            stats.frames_delayed,
            stats.frames_retried,
            stats.frames_lost,
            analysis::frame_loss_rate(result),
            result.degraded_decisions(),
            analysis::mean_waiting_secs(result, None),
            result
                .end_time()
                .saturating_since(SimTime::ZERO)
                .as_secs_f64(),
            result.completed_count(),
        );

        // Invariants the sweep enforces on every run.
        let total = result.completed_count() + result.denied_count() + result.unschedulable_count();
        assert_eq!(total, result.runs().len(), "non-terminal pods remain");
        assert!(!result.timed_out(), "seed {seed} rate {rate} timed out");
        if *rate == 0.0 {
            assert!(
                stats.is_clean() && result.degraded_decisions() == 0,
                "fault-free run reported faults"
            );
        } else {
            assert!(
                result.degraded_decisions() > 0,
                "seed {seed} rate {rate}: the probe silence produced no degraded decisions"
            );
            assert!(
                stats.frames_dropped > 0 && stats.frames_silenced > 0,
                "seed {seed} rate {rate}: injector left no trace"
            );
            assert_eq!(
                stats.frames_scraped,
                stats.frames_silenced
                    + stats.frames_dropped
                    + stats.frames_delivered
                    + stats.frames_lost,
                "frame accounting does not balance"
            );
        }
    }

    // Per-rate aggregate over seeds: the headline comparison.
    println!();
    println!("## Aggregate over {} seed(s)", seeds.len());
    println!();
    println!("| fault rate | loss rate | degraded decisions/run | mean wait [s] | makespan [s] |");
    println!("|---|---|---|---|---|");
    for &rate in &rates {
        let of_rate: Vec<_> = experiments
            .iter()
            .zip(&results)
            .filter(|((_, r, _), _)| *r == rate)
            .map(|(_, result)| result)
            .collect();
        let n = of_rate.len() as f64;
        let loss = of_rate
            .iter()
            .map(|r| analysis::frame_loss_rate(r))
            .sum::<f64>()
            / n;
        let degraded = of_rate.iter().map(|r| r.degraded_decisions()).sum::<u64>() as f64 / n;
        let wait = of_rate
            .iter()
            .map(|r| analysis::mean_waiting_secs(r, None))
            .sum::<f64>()
            / n;
        let makespan = of_rate
            .iter()
            .map(|r| r.end_time().saturating_since(SimTime::ZERO).as_secs_f64())
            .sum::<f64>()
            / n;
        println!("| {rate:.2} | {loss:.3} | {degraded:.1} | {wait:.1} | {makespan:.0} |");
    }
    println!();
    println!(
        "every pod reached a terminal state at every fault rate; \
         stale nodes fell back to requests-only accounting"
    );
}
