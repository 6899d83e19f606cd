//! What one child process does: set up a workload, run it once untraced
//! through the real entry point and — for a traced child — once more
//! through the mirror driver, then report on one line of JSON.
//!
//! Every repetition gets a fresh process so set-up is really paid each
//! time and `VmHWM` is the peak of exactly one run.

use std::time::Instant;

use borg_trace::WorkloadJob;
use sgx_orchestrator::Experiment;
use simulation::ReplayConfig;

use crate::json::Value;
use crate::metrics::{per_layer, TracedRun};
use crate::mirror::{names, replay_traced, Counters};
use crate::trace::Tracer;
use crate::workloads::{
    build_input, online_twin_jobs, run_untraced, Input, Outcome, Scale, Untraced, VecFrontend,
    Workload,
};

/// Where traces go, relative to the working directory (the checkout
/// root when run by the benchmark command).
pub const OUT_DIR: &str = "benchmark/out";

pub fn run(workload: Workload, seed: u64, scale: Scale, traced: bool, started: Instant) -> Value {
    let input = build_input(workload, seed, scale);
    // One fixed warm-up through the whole stack, so the timed region
    // does not pay first-touch page faults and lazy initialisation.
    std::hint::black_box(Experiment::quick(seed).run());
    let setup_s = started.elapsed().as_secs_f64();

    let untraced = run_untraced(&input, traced);
    let mut report = vec![
        ("setup_s", Value::from(setup_s)),
        ("wall_s", Value::from(untraced.wall_s)),
        ("outcome", untraced.outcome.to_json()),
    ];
    if traced {
        let layers = traced_run(workload, seed, &input, &untraced);
        report.push((
            "layers",
            Value::obj(layers.into_iter().map(|(name, v)| (name, Value::from(v)))),
        ));
    }
    report.push(("peak_rss_mb", Value::from(peak_rss_mb())));
    Value::obj(report)
}

fn traced_run(
    workload: Workload,
    seed: u64,
    input: &Input,
    untraced: &Untraced,
) -> Vec<(&'static str, f64)> {
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut mirror = Outcome::default();
    match input {
        Input::Sweep(cells) => {
            for cell in cells {
                mirror.merge(tracer.span(names::REPLAY, |t| {
                    let workload = t.span(names::GENERATE, |_| cell.workload());
                    replay_jobs(
                        t,
                        workload.jobs().to_vec(),
                        &cell.replay_config(),
                        &mut counters,
                    )
                }));
            }
        }
        Input::Stream {
            generator,
            params,
            config,
            expected_jobs,
        } => {
            let mut frontend = borg_trace::BorgSynthetic::new(*generator, *params);
            mirror = tracer.span(names::REPLAY, |t| {
                replay_traced(t, &mut frontend, config, *expected_jobs, &mut counters)
            });
        }
        // No span can be put inside `serve` from outside, so the
        // per-layer numbers come from the virtual-time twin.
        Input::Online { jobs, config } => {
            mirror = tracer.span(names::REPLAY, |t| {
                replay_jobs(t, online_twin_jobs(jobs), config, &mut counters)
            });
        }
    }
    // The replay workloads must reproduce the untraced outcome exactly.
    // The twin's arrival instants differ from the wall-clock ones, so
    // only what cannot depend on them is compared.
    let mirror_ok = if workload.is_replay() {
        mirror == untraced.outcome
    } else {
        mirror.failed() == 0
            && (mirror.submitted, mirror.completed, mirror.denied)
                == (
                    untraced.outcome.submitted,
                    untraced.outcome.completed,
                    untraced.outcome.denied,
                )
    };
    if !mirror_ok {
        eprintln!(
            "warning: traced driver diverged on {}:\n  untraced {:?}\n  traced   {mirror:?}",
            workload.name(),
            untraced.outcome
        );
    }

    let summary = tracer.summary();
    let layers = per_layer(&TracedRun {
        spans: tracer.spans(),
        summary: &summary,
        counters: &counters,
        untraced_wall_s: untraced.wall_s,
        online: untraced.online.as_ref(),
        cpu_s: process_cpu_s(),
        cores: cores(),
        span_count: (tracer.spans().len() + tracer.rollups().len()) as u64,
        mirror_ok,
    });
    let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
    if let Err(error) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload.name(), seed)))
    {
        // The numbers are already computed; a read-only checkout only
        // loses the span dump.
        eprintln!("warning: could not write {path}: {error}");
    }
    layers
}

fn replay_jobs(
    t: &mut Tracer,
    jobs: Vec<WorkloadJob>,
    config: &ReplayConfig,
    counters: &mut Counters,
) -> Outcome {
    let expected = jobs.len() as u64;
    replay_traced(t, &mut VecFrontend::new(jobs), config, expected, counters)
}

pub fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// `VmHWM` of this process in MiB; 0 where `/proc` has no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds of this process from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s on every Linux target
/// this builds for); 0 where `/proc` is missing.
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may contain spaces; fields are
            // counted from the closing parenthesis.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
