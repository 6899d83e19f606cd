//! The benchmark's metric names, units, directions and bounds — the same
//! table `BENCHMARK.json` publishes (a unit test keeps the two equal) —
//! and the computation of the per-layer metrics from a traced run.

use crate::mirror::{names, Counters};
use crate::stats::percentile;
use crate::trace::{Span, Summary};
use crate::workloads::OnlineTimings;

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run's repetitions become the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The best repetition (fastest, or highest rate). Host noise on a
    /// shared machine only ever slows a deterministic run down, and it
    /// comes in bursts longer than a run, so the best repetition moves
    /// far less between runs than the middle one (README, "Steadiness").
    Best,
    Median,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub estimator: Estimator,
}

impl EndToEnd {
    /// The value a run reports for this metric from its repetitions.
    pub fn estimate(&self, values: &[f64]) -> f64 {
        let fold = |pick: fn(f64, f64) -> f64| values.iter().copied().reduce(pick);
        match (self.estimator, self.better) {
            (Estimator::Median, _) => Some(crate::stats::median(values)),
            (Estimator::Best, Better::Lower) => fold(f64::min),
            (Estimator::Best, Better::Higher) => fold(f64::max),
        }
        .expect("an estimate needs at least one repetition")
    }
}

/// Measured with tracing off; the same names on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Best,
    },
    EndToEnd {
        name: "pod_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        estimator: Estimator::Best,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        estimator: Estimator::Median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Median,
    },
    EndToEnd {
        name: "sim_mean_wait_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Median,
    },
    EndToEnd {
        name: "sim_makespan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Median,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// From the traced run; layer = crate/module name. Times are host self
/// time summed over the run; counts are pure functions of the input.
pub const PER_LAYER: [PerLayer; 54] = [
    layer("borg_trace.generate_s", "s", Lower),
    layer("borg_trace.next_event_s", "s", Lower),
    layer("borg_trace.events", "count", Lower),
    layer("des.queue_s", "s", Lower),
    layer("des.events_popped", "count", Lower),
    layer("des.queue_len_max", "count", Lower),
    layer("orchestrator.queue.depth_mean", "count", Lower),
    layer("orchestrator.queue.depth_max", "count", Lower),
    layer("orchestrator.queue.attempts", "count", Lower),
    layer("orchestrator.submit_s", "s", Lower),
    layer("orchestrator.submit_calls", "count", Lower),
    layer("orchestrator.snapshot.capture_s", "s", Lower),
    layer("orchestrator.snapshot.capture_calls", "count", Lower),
    layer("orchestrator.snapshot.capture_p50_ms", "ms", Lower),
    layer("orchestrator.snapshot.capture_p90_ms", "ms", Lower),
    layer("orchestrator.snapshot.us_per_node", "us", Lower),
    layer("orchestrator.pass_s", "s", Lower),
    layer("orchestrator.pass_calls", "count", Lower),
    layer("orchestrator.pass_p50_ms", "ms", Lower),
    layer("orchestrator.pass_p90_ms", "ms", Lower),
    layer("orchestrator.pass_max_ms", "ms", Lower),
    layer("orchestrator.pods_bound", "count", Higher),
    layer("orchestrator.pods_denied", "count", Lower),
    layer("orchestrator.bind_yield", "ratio", Higher),
    layer("orchestrator.attempt_nodes", "count", Lower),
    layer("orchestrator.ns_per_attempt_node", "ns", Lower),
    layer("orchestrator.complete_s", "s", Lower),
    layer("orchestrator.complete_calls", "count", Lower),
    layer("orchestrator.autoscale.tick_s", "s", Lower),
    layer("orchestrator.autoscale.ticks", "count", Lower),
    layer("orchestrator.autoscale.nodes_added", "count", Lower),
    layer("orchestrator.autoscale.nodes_removed", "count", Lower),
    layer("orchestrator.autoscale.peak_nodes", "count", Lower),
    layer("orchestrator.probe_pass_s", "s", Lower),
    layer("orchestrator.probe_pass_calls", "count", Lower),
    layer("orchestrator.probe_pass_p90_ms", "ms", Lower),
    layer("cluster.probe.scrape_s", "s", Lower),
    layer("tsdb.ingest_s", "s", Lower),
    layer("tsdb.points_inserted", "count", Lower),
    layer("tsdb.points_evicted", "count", Higher),
    layer("tsdb.series_live_end", "count", Lower),
    layer("tsdb.points_per_ingest_s", "1/s", Higher),
    layer("simulation.replay_s", "s", Lower),
    layer("simulation.driver_self_s", "s", Lower),
    layer("simulation.engine_residual_s", "s", Lower),
    layer("simulation.online.serve_s", "s", Lower),
    layer("simulation.online.ingest_s", "s", Lower),
    layer("simulation.online.drain_s", "s", Lower),
    layer("simulation.online.submit_block_p99_ms", "ms", Lower),
    layer("process.cpu_s", "s", Lower),
    layer("process.cores", "count", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.mirror_ok", "bool", Higher),
];

/// The per-call percentile metrics: `(metric, percentile, metric holding
/// its sample count)`. The names are fixed; whether a run had enough
/// calls for the percentile to mean much is printed beside the value.
pub const PERCENTILES: [(&str, u32, &str); 6] = [
    (
        "orchestrator.snapshot.capture_p50_ms",
        50,
        "orchestrator.snapshot.capture_calls",
    ),
    (
        "orchestrator.snapshot.capture_p90_ms",
        90,
        "orchestrator.snapshot.capture_calls",
    ),
    ("orchestrator.pass_p50_ms", 50, "orchestrator.pass_calls"),
    ("orchestrator.pass_p90_ms", 90, "orchestrator.pass_calls"),
    (
        "orchestrator.probe_pass_p90_ms",
        90,
        "orchestrator.probe_pass_calls",
    ),
    (
        "simulation.online.submit_block_p99_ms",
        99,
        "orchestrator.submit_calls",
    ),
];

/// Everything the per-layer metrics are computed from.
pub struct TracedRun<'a> {
    pub spans: &'a [Span],
    pub summary: &'a Summary,
    pub counters: &'a Counters,
    /// Wall time of the untraced entry-point run.
    pub untraced_wall_s: f64,
    pub online: Option<&'a OnlineTimings>,
    pub cpu_s: f64,
    pub cores: u64,
    pub span_count: u64,
    pub mirror_ok: bool,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Per-pass filter/score/bind time in ms: each `scheduler_pass` span
/// minus the explicit capture span issued just before it under the same
/// tick.
fn net_pass_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .windows(2)
        .filter(|pair| {
            pair[0].name == names::CAPTURE
                && pair[1].name == names::PASS
                && pair[0].parent == pair[1].parent
        })
        .map(|pair| pair[1].duration_ns().saturating_sub(pair[0].duration_ns()) as f64 / 1e6)
        .collect()
}

/// The per-layer metrics of one traced run, in [`PER_LAYER`] order.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
    let s = run.summary;
    let c = run.counters;
    let pass_ms = net_pass_ms(run.spans);
    let pass_s = pass_ms.iter().sum::<f64>() / 1e3;
    let capture_s = s.total_s(names::CAPTURE);
    let probe_pass_s = s.total_s(names::PROBE_PASS);
    let scrape_s = s.total_s(names::SCRAPE);
    let ingest_s = (probe_pass_s - scrape_s).max(0.0);
    let traced_wall_s = s.total_s(names::REPLAY);
    // Time the driver spent outside every named call: the self time of
    // the root and of the tick wrappers.
    let driver_self_s = s.self_s(names::REPLAY)
        + s.self_s(names::SCHEDULER_TICK)
        + s.self_s(names::PROBE_TICK)
        + s.self_s(names::AUTOSCALE_TICK);
    // Layer time with the two duplicated calls counted once: the pass
    // span already holds its own capture, the probe pass its own scrape.
    let layers_once_s = s.total_s(names::GENERATE)
        + s.total_s(names::NEXT_EVENT)
        + s.total_s(names::QUEUE)
        + s.total_s(names::SUBMIT)
        + s.total_s(names::COMPLETE)
        + s.total_s(names::PASS)
        + probe_pass_s
        + s.total_s(names::AUTOSCALE);
    let (serve_s, online_ingest_s, block_p99_ms) = run.online.map_or((0.0, 0.0, 0.0), |o| {
        (
            run.untraced_wall_s,
            o.ingest_s,
            percentile(&o.submit_block_ms, 99),
        )
    });
    let metrics = vec![
        ("borg_trace.generate_s", s.total_s(names::GENERATE)),
        ("borg_trace.next_event_s", s.total_s(names::NEXT_EVENT)),
        ("borg_trace.events", c.frontend_events as f64),
        ("des.queue_s", s.total_s(names::QUEUE)),
        ("des.events_popped", c.events_popped as f64),
        ("des.queue_len_max", c.queue_len_max as f64),
        (
            "orchestrator.queue.depth_mean",
            ratio(c.attempts as f64, pass_ms.len() as f64),
        ),
        ("orchestrator.queue.depth_max", c.depth_max as f64),
        ("orchestrator.queue.attempts", c.attempts as f64),
        ("orchestrator.submit_s", s.total_s(names::SUBMIT)),
        ("orchestrator.submit_calls", s.calls(names::SUBMIT) as f64),
        ("orchestrator.snapshot.capture_s", capture_s),
        (
            "orchestrator.snapshot.capture_calls",
            s.calls(names::CAPTURE) as f64,
        ),
        (
            "orchestrator.snapshot.capture_p50_ms",
            percentile(s.call_ms(names::CAPTURE), 50),
        ),
        (
            "orchestrator.snapshot.capture_p90_ms",
            percentile(s.call_ms(names::CAPTURE), 90),
        ),
        (
            "orchestrator.snapshot.us_per_node",
            ratio(capture_s * 1e6, c.capture_nodes as f64),
        ),
        ("orchestrator.pass_s", pass_s),
        ("orchestrator.pass_calls", pass_ms.len() as f64),
        ("orchestrator.pass_p50_ms", percentile(&pass_ms, 50)),
        ("orchestrator.pass_p90_ms", percentile(&pass_ms, 90)),
        ("orchestrator.pass_max_ms", percentile(&pass_ms, 100)),
        ("orchestrator.pods_bound", c.pods_bound as f64),
        ("orchestrator.pods_denied", c.pods_denied as f64),
        (
            "orchestrator.bind_yield",
            ratio(c.pods_bound as f64, c.attempts as f64),
        ),
        ("orchestrator.attempt_nodes", c.attempt_nodes as f64),
        (
            "orchestrator.ns_per_attempt_node",
            ratio(pass_s * 1e9, c.attempt_nodes as f64),
        ),
        ("orchestrator.complete_s", s.total_s(names::COMPLETE)),
        (
            "orchestrator.complete_calls",
            s.calls(names::COMPLETE) as f64,
        ),
        ("orchestrator.autoscale.tick_s", s.total_s(names::AUTOSCALE)),
        (
            "orchestrator.autoscale.ticks",
            s.calls(names::AUTOSCALE) as f64,
        ),
        ("orchestrator.autoscale.nodes_added", c.nodes_added as f64),
        (
            "orchestrator.autoscale.nodes_removed",
            c.nodes_removed as f64,
        ),
        (
            "orchestrator.autoscale.peak_nodes",
            c.autoscaled_peak_nodes as f64,
        ),
        ("orchestrator.probe_pass_s", probe_pass_s),
        (
            "orchestrator.probe_pass_calls",
            s.calls(names::PROBE_PASS) as f64,
        ),
        (
            "orchestrator.probe_pass_p90_ms",
            percentile(s.call_ms(names::PROBE_PASS), 90),
        ),
        ("cluster.probe.scrape_s", scrape_s),
        ("tsdb.ingest_s", ingest_s),
        ("tsdb.points_inserted", c.points_inserted as f64),
        ("tsdb.points_evicted", c.points_evicted as f64),
        ("tsdb.series_live_end", c.series_live_end as f64),
        (
            "tsdb.points_per_ingest_s",
            ratio(c.points_inserted as f64, ingest_s),
        ),
        ("simulation.replay_s", run.untraced_wall_s),
        ("simulation.driver_self_s", driver_self_s),
        (
            "simulation.engine_residual_s",
            run.untraced_wall_s - layers_once_s,
        ),
        ("simulation.online.serve_s", serve_s),
        ("simulation.online.ingest_s", online_ingest_s),
        (
            "simulation.online.drain_s",
            (serve_s - online_ingest_s).max(0.0),
        ),
        ("simulation.online.submit_block_p99_ms", block_p99_ms),
        ("process.cpu_s", run.cpu_s),
        ("process.cores", run.cores as f64),
        (
            "trace.overhead_ratio",
            ratio(traced_wall_s, run.untraced_wall_s),
        ),
        ("trace.spans", run.span_count as f64),
        ("trace.mirror_ok", f64::from(u8::from(run.mirror_ok))),
    ];
    debug_assert!(metrics
        .iter()
        .map(|(name, _)| *name)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::trace::Tracer;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_publishes_exactly_this_table() {
        let doc = benchmark_json();
        let rows = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let field = |row: &Value, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();
        let published: Vec<_> = rows("end_to_end")
            .iter()
            .map(|r| {
                (
                    field(r, "name"),
                    field(r, "unit"),
                    field(r, "better"),
                    r.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(published, ours);
        let published: Vec<_> = rows("per_layer")
            .iter()
            .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(published, ours);
        let workloads: Vec<_> = rows("workloads").iter().map(|r| field(r, "name")).collect();
        let ours: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for (metric, _, samples) in PERCENTILES {
            assert!(PER_LAYER.iter().any(|m| m.name == metric), "{metric}");
            assert!(PER_LAYER.iter().any(|m| m.name == samples), "{samples}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn net_pass_subtracts_the_capture_issued_before_it() {
        let mut tracer = Tracer::new();
        tracer.span(names::REPLAY, |t| {
            for _ in 0..3 {
                t.span(names::SCHEDULER_TICK, |t| {
                    t.span(names::CAPTURE, |_| ());
                    t.span(names::PASS, |_| {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    });
                });
            }
        });
        let net = net_pass_ms(tracer.spans());
        assert_eq!(net.len(), 3);
        assert!(net.iter().all(|ms| *ms >= 1.5), "{net:?}");
    }

    #[test]
    fn per_layer_reports_every_metric_once_in_table_order() {
        let mut tracer = Tracer::new();
        tracer.span(names::REPLAY, |t| {
            t.roll(names::SUBMIT, || ());
            t.span(names::SCHEDULER_TICK, |t| {
                t.span(names::CAPTURE, |_| ());
                t.span(names::PASS, |_| ());
            });
        });
        let summary = tracer.summary();
        let counters = Counters {
            attempts: 4,
            pods_bound: 2,
            attempt_nodes: 8,
            capture_nodes: 2,
            ..Counters::default()
        };
        let metrics = per_layer(&TracedRun {
            spans: tracer.spans(),
            summary: &summary,
            counters: &counters,
            untraced_wall_s: 1.0,
            online: None,
            cpu_s: 0.5,
            cores: 2,
            span_count: 5,
            mirror_ok: true,
        });
        let names_out: Vec<_> = metrics.iter().map(|(n, _)| *n).collect();
        let table: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_out, table);
        let get = |name| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("orchestrator.bind_yield"), 0.5);
        assert_eq!(get("orchestrator.queue.depth_mean"), 4.0);
        assert_eq!(get("orchestrator.pass_calls"), 1.0);
        assert_eq!(get("orchestrator.submit_calls"), 1.0);
        assert_eq!(get("trace.mirror_ok"), 1.0);
        // No probe pass ran: ratios over nothing read 0, never NaN.
        assert_eq!(get("tsdb.points_per_ingest_s"), 0.0);
        assert!(metrics.iter().all(|(_, v)| v.is_finite()));
    }
}
