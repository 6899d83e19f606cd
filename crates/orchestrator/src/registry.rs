//! The policy registry: scheduler **names** resolve to
//! [`PolicyPipeline`]s (§V-B).
//!
//! Kubernetes supports multiple schedulers operating over one cluster;
//! each pod names the scheduler that should place it. The paper deploys
//! its SGX-aware scheduler (in either the binpack or the spread variant)
//! alongside the stock scheduler for comparative benchmarking. The
//! registry is the single source of truth for those names — CLI parsing,
//! per-pod routing, experiment configuration and the README's policy
//! table all resolve through it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::framework::PolicyPipeline;
use crate::policy::{
    CordonFilter, EpcFitFilter, FreshBeforeDegradedScore, LeastRequestedScore, MemoryFitFilter,
    SgxCapableFilter, SgxPreserveScore, SpreadScore,
};

/// Name under which the SGX-aware binpack scheduler registers.
pub const SGX_BINPACK: &str = "sgx-binpack";
/// Name under which the SGX-aware spread scheduler registers.
pub const SGX_SPREAD: &str = "sgx-spread";
/// Name of the stock (request-based) scheduler.
pub const DEFAULT_SCHEDULER: &str = "default";

/// The filter chain shared by the SGX-aware pipelines: cordon, SGX
/// capability, then resource fit on effective occupancy
/// (measured ∨ requests, requests-only when degraded).
fn sgx_aware_filters(
    builder: crate::framework::PipelineBuilder,
) -> crate::framework::PipelineBuilder {
    builder
        .filter(CordonFilter)
        .filter(SgxCapableFilter)
        .filter(MemoryFitFilter::effective())
        .filter(EpcFitFilter::effective())
}

fn binpack_pipeline() -> PolicyPipeline {
    // No load scorer: binpack's fixed fill order *is* the centralized
    // name tie-break, under SGX preservation and freshness ordering.
    sgx_aware_filters(PolicyPipeline::builder(SGX_BINPACK))
        .score(SgxPreserveScore)
        .score(FreshBeforeDegradedScore)
        .build()
}

fn spread_pipeline() -> PolicyPipeline {
    sgx_aware_filters(PolicyPipeline::builder(SGX_SPREAD))
        .score(SgxPreserveScore)
        .score(FreshBeforeDegradedScore)
        .score(SpreadScore)
        .build()
}

fn default_pipeline() -> PolicyPipeline {
    // The stock scheduler: requests-only accounting, least-requested
    // spreading, no SGX preservation and no staleness ordering.
    PolicyPipeline::builder(DEFAULT_SCHEDULER)
        .filter(CordonFilter)
        .filter(SgxCapableFilter)
        .filter(MemoryFitFilter::requests_only())
        .filter(EpcFitFilter::requests_only())
        .score(LeastRequestedScore)
        .build()
}

/// Maps scheduler names to placement pipelines.
///
/// # Examples
///
/// ```
/// use orchestrator::{PolicyRegistry, SGX_BINPACK};
///
/// let registry = PolicyRegistry::builtin();
/// let pipeline = registry.by_name(SGX_BINPACK).unwrap();
/// assert_eq!(pipeline.name(), SGX_BINPACK);
/// assert!(registry.by_name("bogus").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct PolicyRegistry {
    pipelines: BTreeMap<String, Arc<PolicyPipeline>>,
}

impl PolicyRegistry {
    /// The built-in registry: `sgx-binpack`, `sgx-spread` and `default`.
    pub fn builtin() -> Self {
        let mut registry = PolicyRegistry {
            pipelines: BTreeMap::new(),
        };
        registry.register(binpack_pipeline());
        registry.register(spread_pipeline());
        registry.register(default_pipeline());
        registry
    }

    /// Registers (or replaces) a pipeline under its own name.
    pub(crate) fn register(&mut self, pipeline: PolicyPipeline) {
        self.pipelines
            .insert(pipeline.name().to_string(), Arc::new(pipeline));
    }

    /// Resolves a pipeline by its registered name.
    pub fn by_name(&self, name: &str) -> Option<Arc<PolicyPipeline>> {
        self.pipelines.get(name).cloned()
    }

    /// `true` when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.pipelines.contains_key(name)
    }

    /// Resolves the pipeline for a pod: the pod's own scheduler name if
    /// registered, else the configured default, else the stock scheduler
    /// — as in a Kubernetes cluster, where an unknown `schedulerName`
    /// leaves the pod to the default scheduler's profile.
    pub(crate) fn resolve(
        &self,
        pod_scheduler: Option<&str>,
        default: &str,
    ) -> Arc<PolicyPipeline> {
        pod_scheduler
            .and_then(|name| self.by_name(name))
            .or_else(|| self.by_name(default))
            .or_else(|| self.by_name(DEFAULT_SCHEDULER))
            .expect("every registry holds the stock scheduler")
    }

    /// The registered names, in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.pipelines.keys().cloned().collect()
    }

    /// Renders the registry as a Markdown table (policy → filter chain →
    /// score stages) — what the README's policy table is generated from
    /// and what `--list-policies` prints.
    pub fn markdown_table(&self) -> String {
        let mut out = String::from(
            "| scheduler | filter chain | score stages (priority order) |\n\
             |---|---|---|\n",
        );
        for pipeline in self.pipelines.values() {
            let filters: Vec<&str> = pipeline.filters().iter().map(|f| f.name()).collect();
            let scorers: Vec<&str> = pipeline.scorers().iter().map(|s| s.name()).collect();
            let scorers = if scorers.is_empty() {
                "(name order only)".to_string()
            } else {
                scorers.join(" → ")
            };
            out.push_str(&format!(
                "| `{}` | {} | {} |\n",
                pipeline.name(),
                filters.join(" ∧ "),
                scorers
            ));
        }
        out
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::api::PodSpec;
    use cluster::topology::{Cluster, ClusterSpec};
    use des::{SimDuration, SimTime};
    use sgx_sim::units::ByteSize;
    use tsdb::Database;

    use crate::snapshot::ClusterSnapshot;

    fn snapshot() -> ClusterSnapshot {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        )
    }

    /// Satellite: every registered name round-trips parse → `name()`.
    #[test]
    fn registered_names_round_trip_exhaustively() {
        let registry = PolicyRegistry::builtin();
        let names = registry.names();
        assert_eq!(names, vec![DEFAULT_SCHEDULER, SGX_BINPACK, SGX_SPREAD]);
        for name in names {
            let pipeline = registry
                .by_name(&name)
                .expect("every listed name must resolve");
            assert_eq!(pipeline.name(), name);
        }
        assert!(registry.by_name("bogus").is_none());
        assert!(!registry.contains("bogus"));
    }

    #[test]
    fn resolve_prefers_pod_then_default_then_fallback() {
        let registry = PolicyRegistry::builtin();
        assert_eq!(
            registry.resolve(Some(SGX_SPREAD), SGX_BINPACK).name(),
            SGX_SPREAD
        );
        assert_eq!(registry.resolve(None, SGX_BINPACK).name(), SGX_BINPACK);
        assert_eq!(
            registry.resolve(Some("bogus"), SGX_BINPACK).name(),
            SGX_BINPACK
        );
        // Both names unknown: the stock scheduler takes the pod.
        assert_eq!(
            registry.resolve(Some("bogus"), "also-bogus").name(),
            DEFAULT_SCHEDULER
        );
    }

    #[test]
    fn default_scheduler_ignores_sgx_node_ordering() {
        // A 2 GiB standard pod: the stock scheduler happily lands on an
        // empty SGX node if it is least requested — here all are empty, so
        // the tie-break picks the alphabetically first node overall.
        let registry = PolicyRegistry::builtin();
        let nodes = snapshot();
        let pod = PodSpec::builder("p")
            .memory_resources(ByteSize::from_gib(2))
            .build();
        let stock = registry.by_name(DEFAULT_SCHEDULER).unwrap();
        assert_eq!(stock.place(&pod, &nodes).unwrap().as_str(), "sgx-1");
        // The SGX-aware schedulers instead preserve SGX nodes.
        let aware = registry.by_name(SGX_BINPACK).unwrap();
        assert_eq!(aware.place(&pod, &nodes).unwrap().as_str(), "std-1");
    }

    #[test]
    fn default_scheduler_least_requested_spreads() {
        let registry = PolicyRegistry::builtin();
        let mut cycle = crate::framework::SchedulingCycle::new(snapshot());
        let pod = PodSpec::builder("p")
            .sgx_resources(ByteSize::from_mib(10))
            .build();
        let stock = registry.by_name(DEFAULT_SCHEDULER).unwrap();
        let first = cycle.place(&stock, &pod).unwrap();
        cycle.reserve(&first, &pod);
        let second = cycle.place(&stock, &pod).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn default_scheduler_is_blind_to_measured_usage() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let mut db = Database::new();
        // sgx-1 is measured nearly full, but nothing was *requested*.
        db.insert(
            tsdb::Point::new(
                cluster::probe::MEASUREMENT_EPC,
                SimTime::from_secs(1),
                90.0 * 1024.0 * 1024.0,
            )
            .with_tag("pod_name", "pod-1")
            .with_tag("nodename", "sgx-1"),
        );
        let snapshot = ClusterSnapshot::capture(
            &cluster,
            &db,
            SimTime::from_secs(2),
            SimDuration::from_secs(25),
        );
        let pod = PodSpec::builder("p")
            .sgx_resources(ByteSize::from_mib(50))
            .build();
        let registry = PolicyRegistry::builtin();
        // Stock scheduler still places on sgx-1 (requests say it's empty)…
        let stock = registry.by_name(DEFAULT_SCHEDULER).unwrap();
        assert_eq!(stock.place(&pod, &snapshot).unwrap().as_str(), "sgx-1");
        // …while the SGX-aware pipeline sees the measured usage and avoids it.
        let aware = registry.by_name(SGX_BINPACK).unwrap();
        assert_eq!(aware.place(&pod, &snapshot).unwrap().as_str(), "sgx-2");
    }

    #[test]
    fn markdown_table_lists_every_pipeline() {
        let registry = PolicyRegistry::builtin();
        let table = registry.markdown_table();
        for name in registry.names() {
            assert!(table.contains(&format!("`{name}`")), "missing {name}");
        }
        assert!(table.contains("cordon"));
        assert!(table.contains("least-requested"));
        assert!(table.contains("spread"));
    }

    #[test]
    fn custom_pipelines_can_be_registered() {
        let mut registry = PolicyRegistry::builtin();
        registry.register(
            crate::framework::PolicyPipeline::builder("epc-only")
                .filter(crate::policy::SgxCapableFilter)
                .filter(crate::policy::EpcFitFilter::requests_only())
                .build(),
        );
        assert!(registry.contains("epc-only"));
        assert_eq!(registry.names().len(), 4);
        assert_eq!(
            registry.resolve(Some("epc-only"), "default").name(),
            "epc-only"
        );
    }
}
