//! Replay configuration.

use cluster::topology::ClusterSpec;
use des::SimDuration;
use orchestrator::autoscale::{AutoscalerPolicy, PodGroupSpec};
use orchestrator::OrchestratorConfig;
use sgx_sim::cost::CostModel;

use crate::chaos::FaultPlan;

/// The malicious-tenant scenario of §VI-F: one malicious pod per SGX node,
/// each declaring a single EPC page but actually mapping `fraction` of its
/// node's usable EPC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaliciousConfig {
    /// Fraction of the node's usable EPC each malicious container maps
    /// (the paper runs 0.25 and 0.5).
    pub fraction: f64,
    /// When the malicious pods are submitted (early, so they squat for
    /// the whole replay).
    pub submit_at_secs: u64,
    /// How long the malicious pods run. The paper's squat for the whole
    /// experiment; default is several hours.
    pub duration: SimDuration,
}

impl MaliciousConfig {
    /// One malicious pod per SGX node using `fraction` of its EPC,
    /// submitted at t = 1 s and squatting for 12 h.
    pub fn squatting(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "malicious fraction must be in (0, 1], got {fraction}"
        );
        MaliciousConfig {
            fraction,
            submit_at_secs: 1,
            duration: SimDuration::from_hours(12),
        }
    }
}

/// Periodic EPC rebalancing (§VIII): every `period` the replay runs one
/// [`Orchestrator::rebalance_epc`](orchestrator::Orchestrator::rebalance_epc)
/// pass, live-migrating SGX pods from the most- to the least-loaded node
/// while the requested-EPC imbalance exceeds `threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// How often the rebalancer wakes up.
    pub period: SimDuration,
    /// Imbalance (spread of per-node requested-EPC fractions, in `[0, 1]`)
    /// above which pods are migrated.
    pub threshold: f64,
}

impl RebalanceConfig {
    /// A rebalancer firing every `period` with the given imbalance
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` lies in `(0, 1]` and `period` is
    /// non-zero.
    pub fn every(period: SimDuration, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "rebalance threshold must be in (0, 1], got {threshold}"
        );
        assert!(
            period > SimDuration::ZERO,
            "rebalance period must be non-zero"
        );
        RebalanceConfig { period, threshold }
    }
}

/// Autoscaling for the replay: a periodic `AutoscaleTick` runs the
/// [`ClusterAutoscaler`](orchestrator::ClusterAutoscaler) (node-pool
/// elasticity from pending-queue pressure, SGX and non-SGX tiers scaled
/// independently) and, when `pod_groups` is non-empty, the
/// [`PodGroupAutoscaler`](orchestrator::PodGroupAutoscaler) (horizontal
/// replica scaling of long-running service groups).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// How often the controllers wake up.
    pub period: SimDuration,
    /// Node-pool thresholds, cooldowns and tier templates.
    pub policy: AutoscalerPolicy,
    /// Long-running service groups to horizontally scale (may be empty).
    pub pod_groups: Vec<PodGroupSpec>,
    /// When `true`, the replay runs
    /// [`Orchestrator::audit_invariants`](orchestrator::Orchestrator::audit_invariants)
    /// at every tick and panics on a violation — for tests; expensive on
    /// big clusters.
    pub audit: bool,
}

impl AutoscaleConfig {
    /// A controller firing every `period` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics unless `period` is non-zero and `policy` passes
    /// [`AutoscalerPolicy::validate`].
    pub fn every(period: SimDuration, policy: AutoscalerPolicy) -> Self {
        assert!(
            period > SimDuration::ZERO,
            "autoscale period must be non-zero"
        );
        policy.validate();
        AutoscaleConfig {
            period,
            policy,
            pod_groups: Vec::new(),
            audit: false,
        }
    }

    /// Adds a horizontally scaled service group.
    ///
    /// # Panics
    ///
    /// Panics when the group fails [`PodGroupSpec::validate`].
    pub fn with_pod_group(mut self, group: PodGroupSpec) -> Self {
        group.validate();
        self.pod_groups.push(group);
        self
    }

    /// Audits orchestrator invariants at every tick (tests only).
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }
}

/// An injected maintenance window: at `drain_at_secs` the node is
/// cordoned and its pods are live-migrated away (those with no feasible
/// target stay put on the cordoned node); `down_for` later the node is
/// un-cordoned and accepts pods again. The graceful sibling of
/// [`NodeFailure`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDrain {
    /// Name of the node to drain.
    pub node: String,
    /// When the drain starts, seconds into the replay.
    pub drain_at_secs: u64,
    /// How long the node stays cordoned.
    pub down_for: SimDuration,
}

/// A node-crash injection: the node dies at `fail_at_secs` (losing every
/// pod, which re-queues) and registers back `down_for` later.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFailure {
    /// Name of the node to crash.
    pub node: String,
    /// When the crash happens, seconds into the replay.
    pub fail_at_secs: u64,
    /// How long the node stays down.
    pub down_for: SimDuration,
}

/// Full configuration of one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// The cluster to replay against.
    pub cluster: ClusterSpec,
    /// Orchestrator tunables (scheduler choice via
    /// `orchestrator.default_scheduler`).
    pub orchestrator: OrchestratorConfig,
    /// Whether the drivers enforce per-pod EPC limits (§V-D); the Fig. 11
    /// experiment runs both settings.
    pub enforce_limits: bool,
    /// Optional malicious tenants (Fig. 11).
    pub malicious: Option<MaliciousConfig>,
    /// Overrides every node's startup/paging cost model (ablations);
    /// `None` keeps [`CostModel::paper_defaults`].
    pub cost_model: Option<CostModel>,
    /// Injected node crashes (failure testing).
    pub failures: Vec<NodeFailure>,
    /// Periodic EPC rebalancing via live migration (§VIII); `None`
    /// disables it (the paper's baseline behaviour).
    pub rebalance: Option<RebalanceConfig>,
    /// Injected maintenance windows (drain → migrate away → uncordon).
    pub drains: Vec<NodeDrain>,
    /// Cluster + pod-group autoscaling; `None` (the default, and the
    /// paper's fixed-cluster world) replays against a static node set.
    pub autoscale: Option<AutoscaleConfig>,
    /// Fault injection on the probe→tsdb metrics pipeline (scrape drops,
    /// probe silences, delayed frames, store write failures). A
    /// [`FaultPlan::is_noop`] plan makes the replay take the exact
    /// lossless code path.
    pub faults: FaultPlan,
    /// Hard cap on simulated time; replays that exceed it are marked
    /// timed out (guards against pathological configurations).
    pub max_sim_time: SimDuration,
}

impl ReplayConfig {
    /// The paper's defaults: paper cluster, binpack default scheduler,
    /// limits enforced, no malicious tenants, 48 h cap.
    pub fn paper(seed: u64) -> Self {
        ReplayConfig {
            cluster: ClusterSpec::paper_cluster(),
            orchestrator: OrchestratorConfig::paper().with_seed(seed),
            enforce_limits: true,
            malicious: None,
            cost_model: None,
            failures: Vec::new(),
            rebalance: None,
            drains: Vec::new(),
            autoscale: None,
            faults: FaultPlan::none(),
            max_sim_time: SimDuration::from_hours(48),
        }
    }

    /// Enables cluster + pod-group autoscaling.
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Injects metrics-pipeline faults.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Injects a node crash.
    pub fn with_failure(mut self, failure: NodeFailure) -> Self {
        self.failures.push(failure);
        self
    }

    /// Enables periodic EPC rebalancing via live migration.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = Some(rebalance);
        self
    }

    /// Injects a maintenance window (drain + uncordon).
    pub fn with_drain(mut self, drain: NodeDrain) -> Self {
        self.drains.push(drain);
        self
    }

    /// Overrides the startup/paging cost model on every node.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Same configuration with a different default scheduler.
    pub fn with_scheduler(mut self, name: &str) -> Self {
        self.orchestrator = self.orchestrator.with_default_scheduler(name);
        self
    }

    /// Same configuration with a different cluster.
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Adds the malicious tenants of Fig. 11.
    pub fn with_malicious(mut self, malicious: MaliciousConfig) -> Self {
        self.malicious = Some(malicious);
        self
    }

    /// Disables driver-side limit enforcement (Fig. 11's broken world).
    pub fn without_limits(mut self) -> Self {
        self.enforce_limits = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let config = ReplayConfig::paper(7)
            .with_scheduler(orchestrator::SGX_SPREAD)
            .without_limits()
            .with_malicious(MaliciousConfig::squatting(0.25));
        assert_eq!(
            config.orchestrator.default_scheduler,
            orchestrator::SGX_SPREAD
        );
        assert!(!config.enforce_limits);
        assert_eq!(config.malicious.unwrap().fraction, 0.25);
        assert_eq!(config.orchestrator.seed, 7);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn malicious_fraction_validated() {
        let _ = MaliciousConfig::squatting(1.5);
    }

    #[test]
    fn rebalance_and_drain_builders_compose() {
        let config = ReplayConfig::paper(3)
            .with_rebalance(RebalanceConfig::every(SimDuration::from_secs(30), 0.15))
            .with_drain(NodeDrain {
                node: "sgx-1".to_string(),
                drain_at_secs: 600,
                down_for: SimDuration::from_secs(300),
            });
        assert_eq!(config.rebalance.unwrap().threshold, 0.15);
        assert_eq!(config.drains.len(), 1);
        assert_eq!(config.drains[0].node, "sgx-1");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rebalance_threshold_validated() {
        let _ = RebalanceConfig::every(SimDuration::from_secs(60), 0.0);
    }

    #[test]
    fn fault_builder_composes_and_defaults_to_noop() {
        let clean = ReplayConfig::paper(1);
        assert!(clean.faults.is_noop());
        let faulty = ReplayConfig::paper(1).with_faults(
            FaultPlan::none()
                .with_seed(5)
                .with_scrape_drops(0.1)
                .with_delays(0.2, SimDuration::from_secs(30)),
        );
        assert!(!faulty.faults.is_noop());
        assert_eq!(faulty.faults.seed, 5);
        assert_eq!(faulty.faults.scrape_drop_rate, 0.1);
    }
}
