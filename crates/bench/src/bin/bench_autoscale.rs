//! Full-trace-scale autoscaled replay: the Borg cell's 135 k concurrent
//! jobs thrown at the five-node paper cluster with the cluster
//! autoscaler allowed to grow the SGX tier into the cell's
//! 12,500-machine class.
//!
//! The replay starts from the paper's tiny baseline, so the whole node
//! pool beyond it is autoscaler-built: the benchmark measures how fast
//! the discrete-event loop absorbs a multi-million-pod-event trace
//! while the controller adds thousands of nodes, reconciles a
//! long-running service group, and drains idle capacity back down.
//!
//! Prints a JSON document (see `BENCH_autoscale.json` at the repo root
//! for a recorded run) to stdout:
//!
//! ```sh
//! cargo run --release -p bench --bin bench_autoscale > BENCH_autoscale.json
//! ```
//!
//! `--smoke` replays a reduced trace (≈2 k concurrency over two
//! minutes) and asserts the invariants CI cares about: the replay
//! terminates with every pod terminal, the autoscaler actually grew
//! the cluster beyond the baseline, scale-up latency was recorded, and
//! a second replay is bit-identical.

use std::time::Instant;

use borg_trace::{BorgSynthetic, GeneratorConfig, WorkloadParams};
use des::{SimDuration, SimTime};
use orchestrator::autoscale::{AutoscalerPolicy, PodGroupSpec};
use sgx_sim::units::ByteSize;
use simulation::{analysis, replay_stream, AutoscaleConfig, ReplayConfig, ReplayResult};

const SEED: u64 = 61;
/// Paper cluster baseline: master + two standard + two SGX workers.
const BASELINE_WORKERS: usize = 4;

struct BenchParams {
    mean_concurrency: f64,
    horizon: SimDuration,
    max_nodes: usize,
    max_step: usize,
    min_peak_nodes: usize,
    min_pod_events: usize,
}

impl BenchParams {
    fn full() -> Self {
        BenchParams {
            // Fig. 5's full 135 k concurrency: at ≈55 jobs per SGX
            // node this implies a cluster in the Borg cell's
            // 12,500-machine class.
            mean_concurrency: 135_000.0,
            horizon: SimDuration::from_mins(10),
            max_nodes: 12_500,
            max_step: 256,
            min_peak_nodes: 1_000,
            min_pod_events: 1_000_000,
        }
    }

    fn smoke() -> Self {
        BenchParams {
            mean_concurrency: 2_000.0,
            horizon: SimDuration::from_mins(2),
            max_nodes: 200,
            max_step: 32,
            min_peak_nodes: BASELINE_WORKERS + 1,
            min_pod_events: 1_000,
        }
    }
}

fn service_group() -> PodGroupSpec {
    PodGroupSpec {
        name: "frontend".to_string(),
        sgx: true,
        replica_request: ByteSize::from_mib(32),
        min_replicas: 2,
        max_replicas: 64,
        capacity_per_replica: 100.0,
        // Ramp with the trace, drain before the replay's natural end.
        profile: vec![(0, 200.0), (120, 2_000.0), (300, 2_000.0), (420, 200.0)],
    }
}

fn autoscale_config(params: &BenchParams) -> AutoscaleConfig {
    let policy = AutoscalerPolicy::paper_defaults()
        .with_scale_up_wait(SimDuration::from_secs(20))
        .with_scale_down_after(SimDuration::from_secs(60))
        .with_max_nodes(params.max_nodes)
        .with_max_step(params.max_step);
    AutoscaleConfig::every(SimDuration::from_secs(10), policy).with_pod_group(service_group())
}

fn run(params: &BenchParams) -> (ReplayResult, f64) {
    // The whole trace streams through `BorgSynthetic`: no workload is
    // materialised up front, so the timed region covers generation AND
    // replay while holding at most one job in memory.
    let config = GeneratorConfig::full_scale(SEED)
        .with_mean_concurrency(params.mean_concurrency)
        .with_horizon(params.horizon);
    let mut frontend = BorgSynthetic::new(config, WorkloadParams::paper(1.0, SEED));
    let replay_config = ReplayConfig::paper(SEED).with_autoscale(autoscale_config(params));
    let start = Instant::now();
    let result = replay_stream(&mut frontend, &replay_config);
    let wall = start.elapsed().as_secs_f64();
    (result, wall)
}

/// Jobs that came from the trace (the service group's replicas are
/// infrastructure pods with no trace job).
fn trace_jobs(result: &ReplayResult) -> usize {
    result.runs().iter().filter(|r| r.job.is_some()).count()
}

fn check(params: &BenchParams, result: &ReplayResult) {
    assert!(!result.timed_out(), "replay timed out");
    let terminal = result.completed_count() + result.denied_count() + result.unschedulable_count();
    // The service group's replicas are infrastructure, not workload jobs;
    // terminal counts cover both, so the trace jobs are a lower bound.
    assert!(
        terminal >= trace_jobs(result),
        "non-terminal pods remain: {terminal} < {}",
        trace_jobs(result)
    );
    let metrics = result.elasticity().expect("autoscaling is enabled");
    let peak = metrics.peak_nodes;
    assert!(
        peak > BASELINE_WORKERS && peak >= params.min_peak_nodes,
        "autoscaler did not grow the cluster: peak {peak}"
    );
    assert!(metrics.nodes_added as usize >= peak - BASELINE_WORKERS);
    assert!(
        metrics.mean_scale_up_latency_secs().is_some(),
        "no scale-up latency recorded"
    );
    assert!(
        pod_events(result) >= params.min_pod_events,
        "trace too small: {} pod events",
        pod_events(result)
    );
}

/// Pod events the discrete-event loop processed for the trace: one
/// submission plus one finish per job. A strict lower bound — requeues,
/// migrations and scheduler/probe/autoscale ticks come on top — and
/// unlike the orchestrator's bounded `events()` log it never saturates.
fn pod_events(result: &ReplayResult) -> usize {
    2 * trace_jobs(result)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = if smoke {
        BenchParams::smoke()
    } else {
        BenchParams::full()
    };

    let (result, wall) = run(&params);
    check(&params, &result);

    if smoke {
        // Determinism gate (full-scale replays are too big to run twice
        // in CI): a second replay must be bit-identical.
        let (again, _) = run(&params);
        assert_eq!(result.runs(), again.runs(), "replay is not deterministic");
        assert_eq!(result.events(), again.events());
        assert_eq!(result.elasticity(), again.elasticity());
        assert_eq!(result.group_peak_replicas(), again.group_peak_replicas());
        eprintln!(
            "bench_autoscale --smoke ok: {} jobs streamed, {} pod events, peak {} nodes, deterministic",
            trace_jobs(&result),
            pod_events(&result),
            result.elasticity().map_or(0, |m| m.peak_nodes),
        );
        return;
    }

    let metrics = result.elasticity().expect("autoscaling is enabled");
    let sim_end = result
        .end_time()
        .saturating_since(SimTime::ZERO)
        .as_secs_f64();
    let groups: Vec<String> = result
        .group_peak_replicas()
        .iter()
        .map(|(name, peak)| format!("{{\"group\": \"{name}\", \"peak_replicas\": {peak}}}"))
        .collect();
    println!("{{");
    println!("  \"benchmark\": \"autoscaled_full_trace_replay\",");
    println!("  \"seed\": {SEED},");
    println!(
        "  \"cores\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!("  \"trace\": {{");
    println!("    \"frontend\": \"borg-synthetic\",");
    println!(
        "    \"mean_concurrency\": {},",
        params.mean_concurrency as u64
    );
    println!("    \"horizon_secs\": {},", params.horizon.as_secs_f64());
    println!("    \"jobs\": {},", trace_jobs(&result));
    println!("    \"pod_events\": {}", pod_events(&result));
    println!("  }},");
    println!("  \"autoscaler\": {{");
    println!("    \"period_secs\": 10,");
    println!("    \"scale_up_wait_secs\": 20,");
    println!("    \"scale_down_after_secs\": 60,");
    println!("    \"max_nodes\": {},", params.max_nodes);
    println!("    \"max_step\": {}", params.max_step);
    println!("  }},");
    println!("  \"replay\": {{");
    println!("    \"wall_secs\": {wall:.1},");
    println!("    \"sim_end_secs\": {sim_end:.0},");
    println!(
        "    \"events_per_wall_sec\": {:.0},",
        pod_events(&result) as f64 / wall
    );
    println!("    \"completed\": {},", result.completed_count());
    println!("    \"denied\": {},", result.denied_count());
    println!("    \"unschedulable\": {}", result.unschedulable_count());
    println!("  }},");
    println!("  \"elasticity\": {{");
    println!("    \"scale_up_events\": {},", metrics.scale_up_events);
    println!("    \"scale_down_events\": {},", metrics.scale_down_events);
    println!("    \"nodes_added\": {},", metrics.nodes_added);
    println!("    \"nodes_removed\": {},", metrics.nodes_removed);
    println!("    \"requeued_pods\": {},", metrics.requeued_pods);
    println!("    \"peak_nodes\": {},", metrics.peak_nodes);
    println!(
        "    \"mean_scale_up_latency_secs\": {:.2},",
        analysis::mean_scale_up_latency_secs(&result).unwrap_or(0.0)
    );
    println!(
        "    \"max_scale_up_latency_secs\": {:.2},",
        analysis::max_scale_up_latency_secs(&result).unwrap_or(0.0)
    );
    println!(
        "    \"wasted_capacity_node_secs\": {:.0}",
        analysis::wasted_capacity_node_secs(&result)
    );
    println!("  }},");
    println!("  \"pod_groups\": [{}]", groups.join(", "));
    println!("}}");
}
