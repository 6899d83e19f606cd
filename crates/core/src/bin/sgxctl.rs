//! `sgxctl` — command-line front end to the sgx-orchestrator workspace.
//!
//! ```text
//! sgxctl cluster                         inspect the paper's cluster
//! sgxctl trace generate [opts]           write a prepared trace as CSV
//! sgxctl trace stats [opts]              marginal statistics (Figs. 3-5)
//! sgxctl replay [opts]                   replay a workload, print metrics
//! sgxctl help                            this text
//! ```
//!
//! Run `sgxctl help` for the options of each command.

use std::process::ExitCode;

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::{stats, JobKind, Workload, WorkloadParams};
use orchestrator::autoscale::AutoscalerPolicy;
use orchestrator::billing::{Invoice, PriceSheet};
use sgx_orchestrator::prelude::*;
use simulation::analysis::{mean_waiting_secs, total_turnaround, waiting_cdf};
use simulation::AutoscaleConfig;

const HELP: &str = "\
sgxctl — SGX-aware container orchestration for heterogeneous clusters

USAGE:
    sgxctl <COMMAND> [OPTIONS]

COMMANDS:
    cluster            Show the paper's five-machine cluster topology
    trace generate     Generate the prepared Borg-derived trace as CSV (stdout)
    trace stats        Print the trace's marginal statistics (Figs. 3-5)
    replay             Replay a workload against the simulated cluster
    help               Show this message

COMMON OPTIONS:
    --seed <N>         Base seed (default 42) of `trace generate`, `trace stats`
                       and `replay`; every run is a pure function of it

`sgxctl replay` OPTIONS:
    --trace <FILE>     Replay a CSV trace instead of generating one
    --quick            Use the small one-hour trace instead of paper scale
    --sgx-ratio <R>    Fraction of jobs designated SGX-enabled (default 0.5)
    --scheduler <S>    sgx-binpack | sgx-spread | default (default sgx-binpack)
    --frontend <NAME>  Stream submissions from a registered trace frontend
                       instead of materialising a workload; --quick selects the
                       smoke-scale calibration (see --list-frontends)
    --list-frontends   List the registered trace frontends and exit
    --epc-total <MIB>  Simulate a single SGX node with this much usable EPC, > 0
    --no-limits        Disable driver-side EPC limit enforcement (Fig. 11)
    --malicious <F>    Add one squatter per SGX node mapping F of its EPC,
                       in (0, 1]
    --bill             Print the invoice total (requests-based billing)
    --autoscale        Enable the cluster autoscaler (paper defaults); the
                       flags below imply it and override individual knobs
    --autoscale-period <SECS>
                       Controller tick period, > 0 (default 30)
    --autoscale-up-wait-secs <SECS>
                       Queue wait that triggers a scale-up, > 0 (default 30)
    --autoscale-cooldown-secs <SECS>
                       Low-occupancy dwell before a scale-down (default 300)
    --autoscale-low-water <F>
                       Scale-down occupancy threshold, in (0, 1] (default 0.3)
    --autoscale-max-nodes <N>
                       Per-tier cap on autoscaled nodes, > 0 (default 10000)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args::new(&args);
    match args.next_positional().as_deref() {
        Some("cluster") => match args.finish() {
            Ok(()) => cmd_cluster(),
            Err(e) => usage_error(&e),
        },
        Some("trace") => match args.next_positional().as_deref() {
            Some("generate") => cmd_trace_generate(&mut args),
            Some("stats") => cmd_trace_stats(&mut args),
            other => usage_error(&format!("unknown trace subcommand {other:?}")),
        },
        Some("replay") => cmd_replay(&mut args),
        Some("help") | None => match args.finish() {
            Ok(()) => {
                print!("{HELP}");
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
        Some(other) => usage_error(&format!("unknown command `{other}`")),
    }
}

/// Reports a malformed command line: one line on stderr and exit code 2
/// (1 is left for runs that fail).
fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message} (see `sgxctl help`)");
    ExitCode::from(2)
}

// ------------------------------------------------------------- commands

fn cmd_cluster() -> ExitCode {
    let cluster = Cluster::build(&ClusterSpec::paper_cluster());
    println!(
        "{:<8} {:<7} {:>9} {:>13} {:>9} {:>10}",
        "NAME", "ROLE", "MEMORY", "EPC (usable)", "SGX", "PLATFORM"
    );
    for node in cluster.nodes() {
        println!(
            "{:<8} {:<7} {:>9} {:>13} {:>9} {:>10}",
            node.name().as_str(),
            if node.is_schedulable() {
                "worker"
            } else {
                "master"
            },
            node.allocatable_memory().to_string(),
            node.spec().usable_epc().to_string(),
            node.driver()
                .map_or("-".to_string(), |d| d.version().to_string()),
            node.platform()
                .map_or("-".to_string(), |p| format!("{p:#010x}")[..10].to_string()),
        );
    }
    println!(
        "\ntotal: {} of memory, {} of EPC across {} workers",
        cluster.total_memory(),
        cluster.total_epc(),
        cluster.schedulable_nodes().count(),
    );
    ExitCode::SUCCESS
}

fn seed_flag(args: &mut Args) -> Result<u64, String> {
    Ok(args.flag_u64("--seed")?.unwrap_or(42))
}

/// The experiment whose prepared trace a command uses: `--quick` picks
/// the one-hour trace, paper scale otherwise.
fn trace_experiment(seed: u64, quick: bool) -> Experiment {
    if quick {
        Experiment::quick(seed)
    } else {
        Experiment::paper_replay(seed)
    }
}

/// The prepared trace `--seed` and `--quick` select, once no argument is left.
fn prepared_trace(args: &mut Args) -> Result<borg_trace::Trace, String> {
    let experiment = trace_experiment(seed_flag(args)?, args.has_flag("--quick"));
    args.finish().map(|()| experiment.prepared_trace())
}

fn cmd_trace_generate(args: &mut Args) -> ExitCode {
    match prepared_trace(args) {
        Ok(trace) => {
            print!("{}", borg_trace::csv::to_csv(&trace));
            eprintln!("generated {} jobs", trace.len());
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(&e),
    }
}

fn cmd_trace_stats(args: &mut Args) -> ExitCode {
    let trace = match load_or_generate_trace(args) {
        Ok(t) => t,
        Err(e) => return usage_error(&e),
    };
    let durations = stats::duration_cdf(&trace);
    let memory = stats::memory_usage_cdf(&trace);
    println!("jobs:            {}", trace.len());
    println!(
        "useful duration: {:.1} h",
        trace.total_duration().as_hours_f64()
    );
    println!(
        "duration [s]:    median {:.0}, p95 {:.0}, max {:.0}",
        durations.quantile(0.5).unwrap_or(0.0),
        durations.quantile(0.95).unwrap_or(0.0),
        durations.max().unwrap_or(0.0),
    );
    println!(
        "mem fraction:    median {:.4}, p95 {:.3}, max {:.3}",
        memory.quantile(0.5).unwrap_or(0.0),
        memory.quantile(0.95).unwrap_or(0.0),
        memory.max().unwrap_or(0.0),
    );
    println!(
        "over-users:      {} ({:.1} %)",
        trace.over_user_count(),
        100.0 * trace.over_user_count() as f64 / trace.len().max(1) as f64,
    );
    ExitCode::SUCCESS
}

fn load_or_generate_trace(args: &mut Args) -> Result<borg_trace::Trace, String> {
    match args.flag_value("--trace")? {
        Some(path) => args.finish().and_then(|()| read_trace(&path)),
        None => prepared_trace(args),
    }
}

fn read_trace(path: &str) -> Result<borg_trace::Trace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace file `{path}`: {e}"))?;
    borg_trace::csv::from_csv(&text).map_err(|e| format!("bad trace file: {e}"))
}

fn cmd_replay(args: &mut Args) -> ExitCode {
    if args.has_flag("--list-frontends") {
        if let Err(e) = args.finish() {
            return usage_error(&e);
        }
        for name in FrontendRegistry::builtin().names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    replay(args).unwrap_or_else(|e| usage_error(&e))
}

/// `sgxctl replay`: every flag is parsed and validated before the trace
/// is read or generated; an `Err` is a usage error.
fn replay(args: &mut Args) -> Result<ExitCode, String> {
    let seed = seed_flag(args)?;
    let frontend_name = args.flag_value("--frontend")?;
    let frontends = FrontendRegistry::builtin();
    if let Some(name) = frontend_name.iter().find(|name| !frontends.contains(name)) {
        return Err(format!(
            "unknown frontend `{name}` (registered: {})",
            frontends.names().join(", ")
        ));
    }
    // Streaming from a frontend takes no trace file.
    let trace_file = match frontend_name {
        Some(_) => None,
        None => args.flag_value("--trace")?,
    };
    let ratio = args.flag_f64("--sgx-ratio")?.unwrap_or(0.5);
    if !(0.0..=1.0).contains(&ratio) {
        return Err("--sgx-ratio must lie in [0, 1]".to_string());
    }
    let scheduler = args
        .flag_value("--scheduler")?
        .unwrap_or_else(|| SGX_BINPACK.to_string());
    let registry = PolicyRegistry::builtin();
    if !registry.contains(&scheduler) {
        return Err(format!(
            "unknown scheduler `{scheduler}` (registered: {})",
            registry.names().join(", ")
        ));
    }

    let mut config = ReplayConfig::paper(seed).with_scheduler(&scheduler);
    if let Some(mib) = args.flag_u64("--epc-total")? {
        // `ByteSize::from_mib` multiplies unchecked: an unrepresentable
        // size would wrap to an EPC-less cluster in a release build.
        let Some(bytes) = mib.checked_mul(1 << 20).filter(|&b| b > 0) else {
            return Err(format!(
                "--epc-total must be a non-zero MiB count below 2^44, got `{mib}`"
            ));
        };
        config = config.with_cluster(ClusterSpec::sim_cluster_with_total_epc(
            ByteSize::from_bytes(bytes),
        ));
    }
    if args.has_flag("--no-limits") {
        config = config.without_limits();
    }
    if let Some(fraction) = args.flag_f64("--malicious")? {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err("--malicious must lie in (0, 1]".to_string());
        }
        config = config.with_malicious(MaliciousConfig::squatting(fraction));
    }
    if let Some(autoscale) = autoscale_flags(args)? {
        config = config.with_autoscale(autoscale);
    }

    let quick = args.has_flag("--quick");
    let bill = args.has_flag("--bill");
    args.finish()?;

    let workload;
    let mut frontend: Box<dyn TraceFrontend + '_> = match &frontend_name {
        Some(name) => {
            let params = if quick {
                FrontendParams::new(seed, ratio).smoke()
            } else {
                FrontendParams::new(seed, ratio)
            };
            let frontend = FrontendRegistry::builtin()
                .build(name, &params)
                .expect("name validated against the registry above");
            eprintln!(
                "streaming ~{} jobs from frontend `{name}` under {scheduler}…",
                frontend.hint().expected_jobs
            );
            frontend
        }
        None => {
            let trace = match trace_file {
                Some(path) => read_trace(&path)?,
                None => trace_experiment(seed, quick).prepared_trace(),
            };
            workload = Workload::materialize(&trace, &WorkloadParams::paper(ratio, seed));
            eprintln!(
                "replaying {} jobs ({} SGX) under {scheduler}…",
                workload.len(),
                workload.sgx_count()
            );
            Box::new(MaterializedFrontend::new(&workload))
        }
    };
    let result = simulation::replay_stream(frontend.as_mut(), &config);

    println!("makespan:      {}", result.end_time());
    println!(
        "outcomes:      {} completed, {} denied at launch, {} unschedulable",
        result.completed_count(),
        result.denied_count(),
        result.unschedulable_count(),
    );
    for kind in [JobKind::Standard, JobKind::Sgx] {
        let cdf = waiting_cdf(&result, Some(kind));
        if cdf.is_empty() {
            continue;
        }
        println!(
            "{kind:>9} jobs: mean wait {:>7.1} s | p95 {:>6.0} s | max {:>6.0} s | Σ turnaround {:>6.1} h",
            mean_waiting_secs(&result, Some(kind)),
            cdf.quantile(0.95).unwrap_or(0.0),
            cdf.max().unwrap_or(0.0),
            total_turnaround(&result, Some(kind)).as_hours_f64(),
        );
    }
    println!(
        "peak backlog:  {:.0} MiB of pending EPC requests",
        result.pending_epc_series().peak().unwrap_or(0.0)
    );
    if let Some(metrics) = result.elasticity() {
        println!(
            "autoscaling:   +{} / -{} nodes (peak {}), mean scale-up latency {}, {:.0} wasted node·s",
            metrics.nodes_added,
            metrics.nodes_removed,
            metrics.peak_nodes,
            metrics
                .mean_scale_up_latency_secs()
                .map_or_else(|| "n/a".to_string(), |s| format!("{s:.1} s")),
            metrics.wasted_capacity_node_secs,
        );
    }
    if bill {
        let records = result.runs().iter().map(|run| &run.record);
        let invoice = Invoice::compute(records, &PriceSheet::paper_cluster());
        println!(
            "invoice:       {:.4} across {} billed pods (requests × running time)",
            invoice.total(),
            invoice.lines().len(),
        );
    }
    if result.timed_out() {
        let terminal =
            result.completed_count() + result.denied_count() + result.unschedulable_count();
        eprintln!(
            "error: replay timed out at the {} cap with {} pod(s) still pending or running",
            config.max_sim_time,
            result.runs().len() - terminal
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the `--autoscale*` flags into an [`AutoscaleConfig`].
///
/// Returns `Ok(None)` when none of them is present; any knob flag
/// implies `--autoscale`. Every value is range-checked here so a bad
/// flag is a usage error, not a panic inside the policy validator.
fn autoscale_flags(args: &mut Args) -> Result<Option<AutoscaleConfig>, String> {
    let mut enabled = args.has_flag("--autoscale");
    let mut period = SimDuration::from_secs(30);
    let mut policy = AutoscalerPolicy::paper_defaults();
    if let Some(every) = args.flag_secs("--autoscale-period")? {
        if every.is_zero() {
            return Err("--autoscale-period must be positive".to_string());
        }
        period = every;
        enabled = true;
    }
    if let Some(wait) = args.flag_secs("--autoscale-up-wait-secs")? {
        if wait.is_zero() {
            return Err("--autoscale-up-wait-secs must be positive".to_string());
        }
        policy = policy.with_scale_up_wait(wait);
        enabled = true;
    }
    if let Some(cooldown) = args.flag_secs("--autoscale-cooldown-secs")? {
        policy = policy.with_scale_down_after(cooldown);
        enabled = true;
    }
    if let Some(low_water) = args.flag_f64("--autoscale-low-water")? {
        if !(low_water > 0.0 && low_water <= 1.0) {
            return Err("--autoscale-low-water must lie in (0, 1]".to_string());
        }
        policy = policy.with_low_water(low_water);
        enabled = true;
    }
    if let Some(max_nodes) = args.flag_u64("--autoscale-max-nodes")? {
        if max_nodes == 0 {
            return Err("--autoscale-max-nodes must be positive".to_string());
        }
        policy = policy.with_max_nodes(max_nodes as usize);
        enabled = true;
    }
    Ok(enabled.then(|| AutoscaleConfig::every(period, policy)))
}

// --------------------------------------------------------- tiny arg parser

struct Args {
    tokens: Vec<String>,
}

impl Args {
    fn new(args: &[String]) -> Self {
        Args {
            tokens: args.to_vec(),
        }
    }

    /// Removes and returns the first non-flag token.
    fn next_positional(&mut self) -> Option<String> {
        let idx = self.tokens.iter().position(|t| !t.starts_with("--"))?;
        Some(self.tokens.remove(idx))
    }

    /// Removes a boolean flag, returning whether it was present.
    fn has_flag(&mut self, name: &str) -> bool {
        match self.tokens.iter().position(|t| t == name) {
            Some(idx) => {
                self.tokens.remove(idx);
                true
            }
            None => false,
        }
    }

    /// Removes `--name value`, returning the value; `--name` with
    /// nothing after it is an error.
    fn flag_value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(idx) = self.tokens.iter().position(|t| t == name) else {
            return Ok(None);
        };
        if idx + 1 >= self.tokens.len() {
            return Err(format!("{name} expects a value"));
        }
        self.tokens.remove(idx);
        Ok(Some(self.tokens.remove(idx)))
    }

    /// Every recognised flag has been removed by now: whatever is left
    /// is a usage error, not something to ignore.
    fn finish(&self) -> Result<(), String> {
        match self.tokens.first() {
            None => Ok(()),
            Some(token) => Err(format!("unrecognised argument `{token}`")),
        }
    }

    fn flag_u64(&mut self, name: &str) -> Result<Option<u64>, String> {
        self.flag_value(name)?
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{name} expects an integer, got `{v}`"))
            })
            .transpose()
    }

    /// A whole number of seconds `SimDuration` can hold:
    /// `SimDuration::from_secs` multiplies unchecked, so a larger count
    /// would panic in a debug build and wrap to another value in release.
    fn flag_secs(&mut self, name: &str) -> Result<Option<SimDuration>, String> {
        const MAX_SECS: u64 = u64::MAX / 1_000_000;
        match self.flag_u64(name)? {
            Some(secs) if secs > MAX_SECS => Err(format!(
                "{name} must be at most {MAX_SECS} seconds, got `{secs}`"
            )),
            secs => Ok(secs.map(SimDuration::from_secs)),
        }
    }

    fn flag_f64(&mut self, name: &str) -> Result<Option<f64>, String> {
        self.flag_value(name)?
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("{name} expects a number, got `{v}`"))
            })
            .transpose()
    }
}
