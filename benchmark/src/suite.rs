//! The parent side: spawns one child per repetition (one at a time),
//! folds the repetitions into one value per metric, and runs the correctness checks.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::{EndToEnd, Estimator, END_TO_END, PERCENTILES, PER_LAYER};
use crate::stats::{highest_supported_percentile, median};
use crate::workloads::{build_input, run_online_twin, size, Input, Outcome, Scale, Workload};

/// A contract run takes at least this many repetitions, so that one
/// disturbed repetition decides none of its values.
const MIN_REPS: usize = 3;
/// Ceiling on repetitions, whatever `--seconds` says: keeps a run of a
/// tiny (smoke-sized) unit inside the contract's 180 s.
const MAX_REPS: usize = 15;
/// Stop starting repetitions once a run has taken this long.
const RUN_BUDGET_S: f64 = 120.0;

/// One child's report.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub outcome: Outcome,
    /// Traced children only.
    pub layers: Vec<(String, f64)>,
}

impl Rep {
    fn from_json(report: &Value) -> Option<Rep> {
        let num = |key| report.get(key).and_then(Value::as_f64);
        let layers = report
            .get("layers")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
            .collect();
        Some(Rep {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            outcome: Outcome::from_json(report.get("outcome")?)?,
            layers,
        })
    }

    fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Runs one repetition in a fresh child process and waits for it.
pub fn spawn_child(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args((scale == Scale::Smoke).then_some("--smoke"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} child (seed {seed}) failed: {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(Rep::from_json)
        .ok_or_else(|| format!("{} child printed no report: {line:?}", workload.name()))
}

/// One end-to-end metric over the repetitions of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub metric: &'static EndToEnd,
    pub values: Vec<f64>,
}

impl Measured {
    /// The one value reported for the repetitions.
    pub fn value(&self) -> f64 {
        self.metric.estimate(&self.values)
    }
}

/// Everything known about one workload after its repetitions.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub scale: Scale,
    pub outcome: Outcome,
    pub end_to_end: Vec<Measured>,
    /// Medians over the traced repetitions; empty without any.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// `(what was checked, held)`.
    pub checks: Vec<(String, bool)>,
    /// Child processes run for this result.
    pub reps: usize,
    /// Pods submitted / pods failed, summed over the repetitions.
    pub attempted: u64,
    pub failed: u64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, held)| *held)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(.., v)| *v)
    }
}

/// `online_burst` cannot report a simulated waiting time (its records
/// are gone once `serve(self)` returns), so the parent replays the
/// virtual-time twin once and every repetition carries that value.
/// `None` for the replay workloads, which report their own.
fn twin_wait_s(workload: Workload, seed: u64, scale: Scale) -> Option<f64> {
    let Input::Online { jobs, config } = build_input(workload, seed, scale) else {
        return None;
    };
    run_online_twin(&jobs, &config).mean_wait_s()
}

/// Folds repetitions into a result and runs every correctness check.
/// `strict_mirror` turns a diverged mirror into a failed check (smoke
/// mode); otherwise it only marks the per-layer numbers unverified.
pub fn fold(
    workload: Workload,
    scale: Scale,
    untraced: &[Rep],
    traced: &[Rep],
    twin_wait_s: Option<f64>,
    strict_mirror: bool,
) -> WorkloadResult {
    let reps: Vec<&Rep> = untraced.iter().chain(traced).collect();
    let first = reps.first().expect("at least one repetition").outcome;
    let size = size(workload, scale);
    let mut checks = Vec::new();
    let mut check = |what: &str, held: bool| checks.push((what.to_string(), held));

    check(
        "submitted = completed + denied + unschedulable",
        reps.iter()
            .all(|r| r.outcome.terminal() == r.outcome.submitted),
    );
    check(
        "no run timed out",
        reps.iter().all(|r| !r.outcome.timed_out),
    );
    check(
        "no pod failed",
        reps.iter().all(|r| r.outcome.failed() == 0),
    );
    if workload == Workload::FullscaleAutoscale {
        check(
            &format!("autoscaler peak >= {} nodes", size.floor),
            reps.iter().all(|r| r.outcome.peak_nodes >= size.floor),
        );
    }
    if workload.is_replay() {
        check(
            "sim_digest identical across repetitions",
            reps.iter().all(|r| r.outcome.digest() == first.digest()),
        );
    } else {
        let counts = |o: &Outcome| (o.submitted, o.completed, o.denied);
        check(
            "outcome counts identical across repetitions",
            reps.iter().all(|r| counts(&r.outcome) == counts(&first)),
        );
    }

    let layer_values =
        |name: &str| -> Vec<f64> { traced.iter().filter_map(|r| r.layer(name)).collect() };
    if !traced.is_empty() {
        if workload == Workload::SteadyStatic {
            check(
                "tsdb evicted points (horizon > retention)",
                layer_values("tsdb.points_evicted").iter().all(|v| *v > 0.0),
            );
        }
        if workload == Workload::BacklogSpread {
            check(
                &format!("orchestrator.queue.depth_max > {}", size.floor),
                layer_values("orchestrator.queue.depth_max")
                    .iter()
                    .all(|v| *v > size.floor as f64),
            );
        }
        if strict_mirror {
            check(
                "traced driver reproduced the untraced outcome",
                layer_values("trace.mirror_ok").iter().all(|v| *v == 1.0),
            );
        }
    }

    let end_to_end = END_TO_END
        .iter()
        .map(|metric| Measured {
            metric,
            values: untraced
                .iter()
                .map(|r| match metric.name {
                    "wall_s" => r.wall_s,
                    "pod_events_per_s" => r.outcome.pod_events() as f64 / r.wall_s,
                    "peak_rss_mb" => r.peak_rss_mb,
                    "setup_s" => r.setup_s,
                    "sim_mean_wait_s" => r
                        .outcome
                        .mean_wait_s()
                        .or(twin_wait_s)
                        .expect("replay reports a wait, online_burst has its twin"),
                    "sim_makespan_s" => r.outcome.makespan_s(),
                    other => unreachable!("unknown end-to-end metric {other}"),
                })
                .collect(),
        })
        .collect();
    let per_layer = if traced.is_empty() {
        Vec::new()
    } else {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, median(&layer_values(m.name))))
            .collect()
    };

    WorkloadResult {
        workload,
        scale,
        outcome: first,
        end_to_end,
        per_layer,
        checks,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.outcome.submitted).sum(),
        failed: reps.iter().map(|r| r.outcome.failed()).sum(),
    }
}

/// The contract's single run: one workload, repeated until `seconds` of
/// timed region have been measured.
pub fn run_one(
    workload: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let rep = spawn_child(workload, seed, scale, traced)?;
        // A traced child runs the workload twice: once untraced for the
        // reference, once through the mirror driver.
        let traced_wall_s = rep
            .layer("trace.overhead_ratio")
            .map_or(0.0, |ratio| ratio * rep.wall_s);
        measured_s += rep.wall_s + traced_wall_s;
        reps.push(rep);
        let enough = if traced {
            measured_s >= seconds
        } else {
            measured_s >= seconds && reps.len() >= MIN_REPS
        };
        if enough || reps.len() >= MAX_REPS || started.elapsed().as_secs_f64() > RUN_BUDGET_S {
            break;
        }
    }
    Ok(if traced {
        fold(workload, scale, &[], &reps, None, false)
    } else {
        let twin = twin_wait_s(workload, seed, scale);
        fold(workload, scale, &reps, &[], twin, false)
    })
}

/// All five workloads: `reps` untraced repetitions each, interleaved
/// round-robin so a disturbance of the host spreads over the workloads
/// instead of landing on one, then one traced repetition each.
pub fn run_all(seed: u64, scale: Scale, reps: usize) -> Result<Vec<WorkloadResult>, String> {
    let mut untraced: Vec<Vec<Rep>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..reps {
        for (slot, workload) in untraced.iter_mut().zip(Workload::ALL) {
            eprintln!("[{}/{reps}] {}", round + 1, workload.name());
            slot.push(spawn_child(workload, seed, scale, false)?);
        }
    }
    Workload::ALL
        .into_iter()
        .zip(&untraced)
        .map(|(workload, untraced)| {
            eprintln!("[traced] {}", workload.name());
            let traced = [spawn_child(workload, seed, scale, true)?];
            Ok(fold(
                workload,
                scale,
                untraced,
                &traced,
                twin_wait_s(workload, seed, scale),
                scale == Scale::Smoke,
            ))
        })
        .collect()
}

/// The human-readable table of one workload: every metric by name with
/// its unit.
pub fn table(result: &WorkloadResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let o = &result.outcome;
    let _ = writeln!(
        out,
        "== {} ({}): submitted {} completed {} denied {} unschedulable {} peak nodes {} sim_digest {:016x}",
        result.workload.name(),
        if result.scale == Scale::Smoke { "smoke" } else { "full" },
        o.submitted,
        o.completed,
        o.denied,
        o.unschedulable,
        o.peak_nodes,
        o.digest()
    );
    for m in result.end_to_end.iter().filter(|m| !m.values.is_empty()) {
        let min = m.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = m.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(
            out,
            "  {:<42} {:>16.6} {:<6} ({} of {} reps; min {:.6}, median {:.6}, max {:.6})",
            m.metric.name,
            m.value(),
            m.metric.unit,
            match m.metric.estimator {
                Estimator::Best => "best",
                Estimator::Median => "median",
            },
            m.values.len(),
            min,
            median(&m.values),
            max
        );
    }
    for (name, unit, value) in &result.per_layer {
        let _ = write!(out, "  {name:<42} {value:>16.6} {unit:<6}");
        // A percentile is only as good as the samples beyond it.
        let percentile = PERCENTILES.iter().find(|(metric, ..)| metric == name);
        if let Some(&(_, wanted, samples)) = percentile.filter(|_| *value > 0.0) {
            let n = result.layer(samples).unwrap_or(0.0) as usize;
            let _ = write!(out, " (n = {n}");
            if highest_supported_percentile(n).is_none_or(|p| p < wanted) {
                let _ = write!(out, ": fewer than ten samples beyond, indicative only");
            }
            let _ = write!(out, ")");
        }
        let _ = writeln!(out);
    }
    for (what, held) in &result.checks {
        let _ = writeln!(out, "  [{}] {what}", if *held { "ok" } else { "FAILED" });
    }
    if result.layer("trace.mirror_ok") == Some(0.0) {
        let _ = writeln!(
            out,
            "  [unverified] the traced driver diverged from the untraced run: per-layer numbers above describe a different run"
        );
    }
    out
}

/// The one-line result the benchmark contract asks for.
pub fn contract_line(result: &WorkloadResult) -> String {
    let metrics: Vec<(&str, Value)> = if result.per_layer.is_empty() {
        result
            .end_to_end
            .iter()
            .map(|m| (m.metric.name, metric_value(m.value(), m.metric.unit)))
            .collect()
    } else {
        result
            .per_layer
            .iter()
            .map(|(name, unit, value)| (*name, metric_value(*value, unit)))
            .collect()
    };
    Value::obj([
        ("correct", Value::from(result.correct())),
        ("attempted", Value::from(result.attempted)),
        ("failed", Value::from(result.failed)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_line()
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::from(value)), ("unit", Value::str(unit))])
}

/// One workload's entry in a suite result file.
pub fn workload_json(result: &WorkloadResult) -> Value {
    let end_to_end = result.end_to_end.iter().map(|m| {
        (
            m.metric.name,
            Value::obj([
                ("unit", Value::str(m.metric.unit)),
                ("value", Value::from(m.value())),
                (
                    "values",
                    Value::Arr(m.values.iter().map(|v| Value::from(*v)).collect()),
                ),
            ]),
        )
    });
    let per_layer = result
        .per_layer
        .iter()
        .map(|(name, unit, value)| (*name, metric_value(*value, unit)));
    Value::obj([
        ("size", size(result.workload, result.scale).to_json()),
        ("outcome", result.outcome.to_json()),
        (
            "sim_digest",
            Value::str(format!("{:016x}", result.outcome.digest())),
        ),
        ("attempted", Value::from(result.attempted)),
        ("failed", Value::from(result.failed)),
        (
            "failed_share",
            Value::from(result.failed as f64 / result.attempted.max(1) as f64),
        ),
        ("correct", Value::from(result.correct())),
        (
            "checks",
            Value::obj(
                result
                    .checks
                    .iter()
                    .map(|(what, held)| (what.as_str(), Value::from(*held))),
            ),
        ),
        ("end_to_end", Value::obj(end_to_end)),
        ("per_layer", Value::obj(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, outcome: Outcome) -> Rep {
        Rep {
            setup_s: 0.5,
            wall_s,
            peak_rss_mb: 100.0,
            outcome,
            layers: Vec::new(),
        }
    }

    fn clean() -> Outcome {
        Outcome {
            submitted: 100,
            completed: 94,
            denied: 6,
            end_us: 400_000_000,
            last_finish_us: 399_000_000,
            wait_sum_us: 300_000_000,
            waited: 100,
            peak_nodes: 60,
            ..Outcome::default()
        }
    }

    #[test]
    fn fold_reports_medians_and_passes_clean_runs() {
        let reps = [rep(2.0, clean()), rep(2.4, clean()), rep(2.1, clean())];
        let result = fold(Workload::SteadyStatic, Scale::Full, &reps, &[], None, false);
        assert!(result.correct(), "{:?}", result.checks);
        assert_eq!((result.attempted, result.failed), (300, 0));
        // Host time reports the best repetition, the rest their median.
        let wall = &result.end_to_end[0];
        assert_eq!((wall.metric.name, wall.value()), ("wall_s", 2.0));
        let rate = &result.end_to_end[1];
        assert_eq!(rate.value(), 200.0 / 2.0);
        let setup = &result.end_to_end[3];
        assert_eq!((setup.metric.name, setup.value()), ("setup_s", 0.5));
        let line = contract_line(&result);
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = parsed.get("metrics").and_then(Value::as_obj).unwrap();
        let names: Vec<_> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let table: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn fold_fails_on_nondeterminism_lost_pods_and_low_peaks() {
        let drifted = Outcome {
            end_us: 400_000_001,
            ..clean()
        };
        let result = fold(
            Workload::SteadyStatic,
            Scale::Full,
            &[rep(2.0, clean()), rep(2.0, drifted)],
            &[],
            None,
            false,
        );
        assert!(!result.correct());
        let lost = Outcome {
            completed: 93,
            ..clean()
        };
        let result = fold(
            Workload::SteadyStatic,
            Scale::Full,
            &[rep(2.0, lost)],
            &[],
            None,
            false,
        );
        assert!(!result.correct());
        assert_eq!(result.failed, 1);
        let result = fold(
            Workload::FullscaleAutoscale,
            Scale::Full,
            &[rep(2.0, clean())],
            &[],
            None,
            false,
        );
        assert!(!result.correct(), "a 60-node peak is below the floor");
    }

    #[test]
    fn traced_checks_and_mirror_strictness() {
        let mut traced = rep(2.0, clean());
        traced.layers = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), 1.0))
            .collect();
        let set = |rep: &mut Rep, name: &str, value: f64| {
            rep.layers.iter_mut().find(|(n, _)| n == name).unwrap().1 = value;
        };
        set(&mut traced, "orchestrator.queue.depth_max", 50.0);
        set(&mut traced, "trace.mirror_ok", 0.0);
        let fold_traced = |rep: &Rep, strict| {
            fold(
                Workload::BacklogSpread,
                Scale::Full,
                &[],
                std::slice::from_ref(rep),
                None,
                strict,
            )
        };
        assert!(
            !fold_traced(&traced, false).correct(),
            "depth_max 50 is not a backlog"
        );
        set(&mut traced, "orchestrator.queue.depth_max", 5_000.0);
        let lenient = fold_traced(&traced, false);
        assert!(
            lenient.correct(),
            "a diverged mirror only marks numbers unverified"
        );
        assert!(table(&lenient).contains("[unverified]"));
        assert!(!fold_traced(&traced, true).correct());
    }
}
