//! Post-replay analysis: the quantities plotted in Figs. 7–11.

use borg_trace::JobKind;
use des::stats::{Cdf, RunningStats};
use des::SimDuration;
use sgx_sim::units::ByteSize;

use crate::replay::{JobRun, ReplayResult};

/// Selects honest runs of a given kind (or all honest runs).
fn honest_of_kind(result: &ReplayResult, kind: Option<JobKind>) -> impl Iterator<Item = &JobRun> {
    result
        .honest_runs()
        .filter(move |run| match (kind, run.job) {
            (None, _) => true,
            (Some(k), Some(job)) => job.kind == k,
            (Some(_), None) => false,
        })
}

/// CDF of waiting times in seconds for honest jobs of `kind` (or all
/// honest jobs when `None`) — Figs. 8 and 11.
pub fn waiting_cdf(result: &ReplayResult, kind: Option<JobKind>) -> Cdf {
    honest_of_kind(result, kind)
        .filter_map(|run| run.record.waiting_time())
        .map(|d| d.as_secs_f64())
        .collect()
}

/// Sum of turnaround times for honest jobs of `kind` — the bars of
/// Fig. 10.
pub fn total_turnaround(result: &ReplayResult, kind: Option<JobKind>) -> SimDuration {
    honest_of_kind(result, kind)
        .filter_map(|run| run.record.turnaround())
        .sum()
}

/// One bar of Fig. 9: jobs bucketed by memory request, with the mean
/// waiting time and its 95 % confidence half-width per bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitingByRequest {
    /// Inclusive lower edge of the request bucket.
    pub bucket_start: ByteSize,
    /// Exclusive upper edge of the request bucket.
    pub bucket_end: ByteSize,
    /// Number of jobs in the bucket.
    pub jobs: u64,
    /// Mean waiting time in seconds.
    pub mean_waiting_secs: f64,
    /// 95 % confidence half-width in seconds.
    pub ci95_secs: f64,
}

/// Buckets honest jobs of `kind` by their advertised memory request and
/// averages waiting times per bucket (Fig. 9). `bucket` is the bucket
/// width; jobs request the resource matching their kind (EPC bytes for
/// SGX jobs, ordinary memory for standard jobs).
///
/// # Panics
///
/// Panics if `bucket` is zero bytes.
pub fn waiting_by_request(
    result: &ReplayResult,
    kind: JobKind,
    bucket: ByteSize,
) -> Vec<WaitingByRequest> {
    assert!(!bucket.is_zero(), "bucket width must be non-zero");
    let mut buckets: std::collections::BTreeMap<u64, RunningStats> =
        std::collections::BTreeMap::new();
    for run in honest_of_kind(result, Some(kind)) {
        let Some(wait) = run.record.waiting_time() else {
            continue;
        };
        let job = run.job.expect("honest runs have jobs");
        // The scheduler reserves the page-rounded EPC request for SGX
        // jobs, so that — not the raw memory figure — is what the bucket
        // edges must reflect.
        let request = match kind {
            JobKind::Sgx => job.epc_request().to_bytes(),
            JobKind::Standard => job.mem_request,
        };
        let index = request.as_bytes() / bucket.as_bytes();
        buckets.entry(index).or_default().push(wait.as_secs_f64());
    }
    buckets
        .into_iter()
        .map(|(index, stats)| WaitingByRequest {
            bucket_start: ByteSize::from_bytes(index * bucket.as_bytes()),
            bucket_end: ByteSize::from_bytes((index + 1) * bucket.as_bytes()),
            jobs: stats.count(),
            mean_waiting_secs: stats.mean(),
            ci95_secs: stats.ci95_half_width(),
        })
        .collect()
}

/// Mean waiting time in seconds across honest jobs of `kind`, or `None`
/// when no such job ever started — the caller decides how an empty set
/// reads, instead of receiving a silent `NaN`.
pub(crate) fn mean_waiting(result: &ReplayResult, kind: Option<JobKind>) -> Option<f64> {
    let stats: RunningStats = honest_of_kind(result, kind)
        .filter_map(|run| run.record.waiting_time())
        .map(|d| d.as_secs_f64())
        .collect();
    (stats.count() > 0).then(|| stats.mean())
}

/// Mean waiting time in seconds across honest jobs of `kind`.
///
/// Returns `0.0` — never `NaN` — when no such job ever started
/// ([`RunningStats::mean`] is 0-when-empty by contract); use
/// `mean_waiting` to distinguish "no jobs" from "zero wait".
pub fn mean_waiting_secs(result: &ReplayResult, kind: Option<JobKind>) -> f64 {
    mean_waiting(result, kind).unwrap_or(0.0)
}

/// Mean turnaround time in seconds across honest jobs of `kind`, or
/// `None` when no such job ever finished.
pub(crate) fn mean_turnaround(result: &ReplayResult, kind: Option<JobKind>) -> Option<f64> {
    let stats: RunningStats = honest_of_kind(result, kind)
        .filter_map(|run| run.record.turnaround())
        .map(|d| d.as_secs_f64())
        .collect();
    (stats.count() > 0).then(|| stats.mean())
}

/// Mean turnaround time in seconds across honest jobs of `kind` (`0.0`,
/// never `NaN`, on an empty set — see `mean_turnaround`).
pub fn mean_turnaround_secs(result: &ReplayResult, kind: Option<JobKind>) -> f64 {
    mean_turnaround(result, kind).unwrap_or(0.0)
}

/// Mean per-node EPC-load imbalance over the replay: the average of the
/// spread between the most- and least-loaded SGX node's requested-EPC
/// fraction, sampled at every scheduling pass (and every rebalance or
/// drain). The headline number of the rebalance-on/off experiments;
/// `0.0` for a replay that recorded no samples.
pub fn mean_epc_imbalance(result: &ReplayResult) -> f64 {
    let stats: RunningStats = result
        .epc_imbalance_series()
        .points()
        .iter()
        .map(|&(_, v)| v)
        .collect();
    if stats.count() == 0 {
        0.0
    } else {
        stats.mean()
    }
}

/// Peak per-node EPC-load imbalance over the replay.
pub fn peak_epc_imbalance(result: &ReplayResult) -> f64 {
    result.epc_imbalance_series().peak().unwrap_or(0.0)
}

/// Total migration downtime accumulated by the replay's pods, in
/// seconds. Every second of it also shows up in the migrated pods'
/// turnaround times.
pub fn total_migration_downtime_secs(result: &ReplayResult) -> f64 {
    result.migration_downtime().as_secs_f64()
}

/// Mean scale-up latency in seconds — how long the triggering tier's
/// oldest pending pod had waited when the autoscaler added capacity.
/// `None` when autoscaling was off or never scaled up (not `NaN`).
pub fn mean_scale_up_latency_secs(result: &ReplayResult) -> Option<f64> {
    result
        .elasticity()
        .and_then(|e| e.mean_scale_up_latency_secs())
}

/// Worst-case scale-up latency in seconds; `None` when autoscaling was
/// off or never scaled up.
pub fn max_scale_up_latency_secs(result: &ReplayResult) -> Option<f64> {
    result
        .elasticity()
        .filter(|e| e.scale_up_latency_count > 0)
        .map(|e| e.scale_up_latency_max_secs)
}

/// Unused managed-node capacity integrated over the replay, in
/// node-seconds (the over-provisioning bill). `0.0` when autoscaling was
/// off (no managed nodes, so nothing was wasted).
pub fn wasted_capacity_node_secs(result: &ReplayResult) -> f64 {
    result
        .elasticity()
        .map_or(0.0, |e| e.wasted_capacity_node_secs)
}

/// Highest worker count the cluster reached under autoscaling; `None`
/// when autoscaling was off (the cluster never changed size).
pub fn peak_node_count(result: &ReplayResult) -> Option<usize> {
    result.elasticity().map(|e| e.peak_nodes)
}

/// Fraction of scraped probe frames that never reached the metrics
/// store (silenced, dropped, or abandoned after retries); `0.0` for a
/// fault-free replay.
pub fn frame_loss_rate(result: &ReplayResult) -> f64 {
    let stats = result.fault_stats();
    if stats.frames_scraped == 0 {
        return 0.0;
    }
    let lost = stats.frames_silenced + stats.frames_dropped + stats.frames_lost;
    lost as f64 / stats.frames_scraped as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_stream, ReplayConfig};
    use borg_trace::frontend::MaterializedFrontend;
    use borg_trace::{GeneratorConfig, Workload, WorkloadParams};

    fn result() -> ReplayResult {
        let trace = GeneratorConfig::small(21).generate();
        let workload = Workload::materialize(&trace, &WorkloadParams::paper(0.5, 21));
        replay_stream(
            &mut MaterializedFrontend::new(&workload),
            &ReplayConfig::paper(21),
        )
    }

    #[test]
    fn waiting_cdf_covers_started_jobs() {
        let r = result();
        let all = waiting_cdf(&r, None);
        let sgx = waiting_cdf(&r, Some(JobKind::Sgx));
        let std = waiting_cdf(&r, Some(JobKind::Standard));
        assert_eq!(all.len(), sgx.len() + std.len());
        assert!(all.quantile(0.0).unwrap() >= 0.0);
    }

    #[test]
    fn turnaround_exceeds_waiting() {
        let r = result();
        let waiting: SimDuration = honest_of_kind(&r, None)
            .filter_map(|run| run.record.waiting_time())
            .sum();
        assert!(total_turnaround(&r, None) > waiting);
        let sgx = total_turnaround(&r, Some(JobKind::Sgx));
        let std = total_turnaround(&r, Some(JobKind::Standard));
        assert_eq!(sgx + std, total_turnaround(&r, None));
    }

    #[test]
    fn request_buckets_partition_the_jobs() {
        let r = result();
        let buckets = waiting_by_request(&r, JobKind::Sgx, ByteSize::from_mib(5));
        assert!(!buckets.is_empty());
        let total: u64 = buckets.iter().map(|b| b.jobs).sum();
        let started = r
            .honest_runs()
            .filter(|run| {
                run.job.map(|j| j.kind) == Some(JobKind::Sgx) && run.record.waiting_time().is_some()
            })
            .count() as u64;
        assert_eq!(total, started);
        for b in &buckets {
            assert!(b.bucket_start < b.bucket_end);
            assert!(b.mean_waiting_secs >= 0.0);
            assert!(b.ci95_secs >= 0.0);
        }
    }

    #[test]
    fn sgx_buckets_use_page_rounded_epc_requests() {
        let r = result();
        // A page-sized bucket makes the raw-vs-rounded disagreement
        // visible: the raw memory request lands mid-page, the reserved
        // EPC request is page-aligned.
        let bucket = ByteSize::from_kib(4);
        let buckets = waiting_by_request(&r, JobKind::Sgx, bucket);
        let mut expected: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut any_moved = false;
        for run in r.honest_runs() {
            let Some(job) = run.job else { continue };
            if job.kind != JobKind::Sgx || run.record.waiting_time().is_none() {
                continue;
            }
            let rounded = job.epc_request().to_bytes().as_bytes();
            *expected.entry(rounded / bucket.as_bytes()).or_default() += 1;
            any_moved |=
                rounded / bucket.as_bytes() != job.mem_request.as_bytes() / bucket.as_bytes();
        }
        assert!(any_moved, "workload should have off-page raw requests");
        assert_eq!(buckets.len(), expected.len());
        for b in &buckets {
            let index = b.bucket_start.as_bytes() / bucket.as_bytes();
            assert_eq!(
                Some(&b.jobs),
                expected.get(&index),
                "bucket {index} diverged"
            );
        }
    }

    #[test]
    fn migration_helpers_are_zero_without_rebalancing() {
        let r = result();
        assert_eq!(r.migration_count(), 0);
        assert_eq!(total_migration_downtime_secs(&r), 0.0);
        // The imbalance series is recorded even with rebalancing off (it
        // is the baseline the rebalance-on experiments compare against).
        assert!(!r.epc_imbalance_series().points().is_empty());
        assert!(mean_epc_imbalance(&r) >= 0.0);
        assert!(peak_epc_imbalance(&r) >= mean_epc_imbalance(&r));
    }

    #[test]
    fn mean_waiting_is_finite() {
        let r = result();
        let mean = mean_waiting_secs(&r, None);
        assert!(mean.is_finite());
        assert!(mean >= 0.0);
    }

    #[test]
    fn means_on_an_empty_replay_are_none_not_nan() {
        // Replay of an empty workload: zero runs, so every mean is over
        // an empty set. The checked variants say so; the `_secs`
        // variants are pinned to 0.0, never NaN.
        let r = replay_stream(
            &mut MaterializedFrontend::new(&Workload::default()),
            &ReplayConfig::paper(1),
        );
        assert_eq!(r.runs().len(), 0);
        assert_eq!(mean_waiting(&r, None), None);
        assert_eq!(mean_turnaround(&r, None), None);
        assert_eq!(mean_waiting_secs(&r, None), 0.0);
        assert_eq!(mean_turnaround_secs(&r, None), 0.0);
        assert!(waiting_by_request(&r, JobKind::Sgx, ByteSize::from_mib(5)).is_empty());
        // Elasticity helpers without autoscaling: absent, not NaN.
        assert_eq!(mean_scale_up_latency_secs(&r), None);
        assert_eq!(max_scale_up_latency_secs(&r), None);
        assert_eq!(wasted_capacity_node_secs(&r), 0.0);
        assert_eq!(peak_node_count(&r), None);
    }

    #[test]
    fn means_on_a_single_job_equal_that_job() {
        let trace = GeneratorConfig::small(23).generate();
        let single: borg_trace::Trace = (&trace).into_iter().take(1).copied().collect();
        let workload = Workload::materialize(&single, &WorkloadParams::paper(1.0, 23));
        assert_eq!(workload.len(), 1);
        let r = replay_stream(
            &mut MaterializedFrontend::new(&workload),
            &ReplayConfig::paper(23),
        );
        let run = r.runs().first().unwrap();
        let wait = run.record.waiting_time().unwrap().as_secs_f64();
        assert_eq!(mean_waiting(&r, None), Some(wait));
        assert_eq!(mean_waiting_secs(&r, None), wait);
        let buckets = waiting_by_request(&r, JobKind::Sgx, ByteSize::from_mib(5));
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].jobs, 1);
        assert_eq!(buckets[0].mean_waiting_secs, wait);
        assert_eq!(buckets[0].ci95_secs, 0.0); // single sample: no spread
    }

    #[test]
    fn elasticity_means_empty_and_single_observation() {
        use orchestrator::ElasticityMetrics;
        let empty = ElasticityMetrics::default();
        assert_eq!(empty.mean_scale_up_latency_secs(), None);
        let single = ElasticityMetrics {
            scale_up_latency_sum_secs: 42.0,
            scale_up_latency_count: 1,
            scale_up_latency_max_secs: 42.0,
            ..ElasticityMetrics::default()
        };
        assert_eq!(single.mean_scale_up_latency_secs(), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        let r = result();
        let _ = waiting_by_request(&r, JobKind::Sgx, ByteSize::ZERO);
    }

    #[test]
    fn fault_helpers_are_zero_on_a_healthy_pipeline() {
        let r = result();
        assert_eq!(r.degraded_decisions(), 0);
        assert!(r.fault_stats().is_clean());
        assert_eq!(frame_loss_rate(&r), 0.0);
    }

    #[test]
    fn frame_loss_rate_reflects_injected_faults() {
        let trace = GeneratorConfig::small(22).generate();
        let workload = Workload::materialize(&trace, &WorkloadParams::paper(0.5, 22));
        let config = ReplayConfig::paper(22)
            .with_faults(crate::FaultPlan::none().with_seed(3).with_scrape_drops(0.4));
        let r = replay_stream(&mut MaterializedFrontend::new(&workload), &config);
        let rate = frame_loss_rate(&r);
        assert!(rate > 0.0 && rate < 1.0, "loss rate {rate}");
        assert_eq!(
            r.fault_stats().frames_dropped,
            r.fault_stats().frames_scraped - r.fault_stats().frames_delivered
        );
    }
}
