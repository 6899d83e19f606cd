//! The monitoring probes of §V-C.
//!
//! Two probe kinds run on the nodes and push into the shared time-series
//! database:
//!
//! * **Heapster** — Kubernetes' stock container monitor, collecting
//!   per-pod ordinary-memory usage into the `memory/usage` measurement.
//! * **SGX probe** — the paper's custom probe, deployed as a DaemonSet on
//!   every SGX node (recognised by the device plugin's EPC advertisement),
//!   reading per-pod EPC usage from the modified driver into the
//!   `sgx/epc` measurement.
//!
//! Both tag points with `pod_name` and `nodename`, which is what the
//! scheduler's Listing 1 query groups by.
//!
//! A scrape is one walk, [`Probe::scrape`]: the pods of a node that use
//! the probe's resource, uid-ascending, with their usage — no map, no
//! string, and for the SGX probe one lookup of each pod's account in the
//! driver, whatever other enclaves the node runs. What the rows become is the caller's
//! business: [`Probe::sample_batch`] names them into a tagged
//! [`PointBatch`], the frame a fault injector drops, delays or retries;
//! the orchestrator's in-process probe pass appends them to series it
//! resolved on an earlier tick and never builds the frame.

use des::{SimDuration, SimTime};
use sgx_sim::units::ByteSize;
use tsdb::{Point, PointBatch};

use crate::node::{Node, RunningPod};

/// Measurement name for ordinary memory usage (Heapster).
pub const MEASUREMENT_MEMORY: &str = "memory/usage";

/// Measurement name for EPC usage (the SGX probe).
pub const MEASUREMENT_EPC: &str = "sgx/epc";

/// Bounded retry-with-exponential-backoff policy of the probe transport.
///
/// A scrape frame whose database write fails is retried after
/// `backoff · 2^attempt` of simulated time, up to `max_retries` times;
/// after that the frame is dropped and counted as lost. A policy with
/// `max_retries == 0` drops failed frames immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of redelivery attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on every further attempt.
    pub backoff: SimDuration,
}

impl RetryPolicy {
    /// The transport defaults: three retries starting at a 2 s backoff
    /// (2 s, 4 s, 8 s — all inside the scheduler's 25 s metrics window).
    pub fn paper_defaults() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: SimDuration::from_secs(2),
        }
    }

    /// Backoff to wait before retry number `attempt` (zero-based count of
    /// failures so far), or `None` once the retry budget is exhausted.
    pub fn backoff_before(&self, attempt: u32) -> Option<SimDuration> {
        if attempt >= self.max_retries {
            return None;
        }
        // Cap the shift: beyond 2^20 the backoff dwarfs any replay anyway.
        Some(self.backoff * (1u64 << attempt.min(20)))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::paper_defaults()
    }
}

/// A monitoring probe: which metrics it scrapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    kind: ProbeKind,
}

/// The two probe kinds of the paper's monitoring layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeKind {
    /// Heapster: per-pod ordinary memory.
    Heapster,
    /// The SGX probe: per-pod EPC pages, read from the modified driver.
    Sgx,
}

impl Probe {
    /// A Heapster probe.
    pub fn heapster() -> Self {
        Probe {
            kind: ProbeKind::Heapster,
        }
    }

    /// An SGX probe.
    pub fn sgx() -> Self {
        Probe {
            kind: ProbeKind::Sgx,
        }
    }

    /// The default probes: Heapster and the SGX probe.
    pub fn default_pair() -> [Probe; 2] {
        [Probe::heapster(), Probe::sgx()]
    }

    /// Whether this probe should be deployed on `node` — the DaemonSet for
    /// the SGX probe selects nodes by the EPC resource the device plugin
    /// advertised (§V-C).
    pub fn targets(&self, node: &Node) -> bool {
        match self.kind {
            ProbeKind::Heapster => true,
            ProbeKind::Sgx => node.has_sgx(),
        }
    }

    /// The measurement this probe writes.
    pub fn measurement(&self) -> &'static str {
        match self.kind {
            ProbeKind::Heapster => MEASUREMENT_MEMORY,
            ProbeKind::Sgx => MEASUREMENT_EPC,
        }
    }

    /// The scrape itself: calls `row` with every pod of `node` that has
    /// non-zero usage of this probe's resource, uid-ascending, and that
    /// usage. Allocation-free; the SGX probe reads each pod's account in
    /// the driver ([`Node::epc_usage`]). Both
    /// [`sample_batch`](Self::sample_batch) and the orchestrator's
    /// in-process probe pass are this walk with a different sink.
    pub fn scrape<'a>(&self, node: &'a Node, mut row: impl FnMut(&'a RunningPod, ByteSize)) {
        match self.kind {
            ProbeKind::Heapster => node.memory_usage().for_each(|(pod, used)| row(pod, used)),
            ProbeKind::Sgx => node.epc_usage().for_each(|(pod, used)| row(pod, used)),
        }
    }

    /// Scrapes the node, producing one point per pod with non-zero usage.
    /// Values are bytes; tags are `pod_name` and `nodename`.
    ///
    /// Convenience wrapper over [`sample_batch`](Self::sample_batch) for
    /// callers that want standalone points; the batched form is what
    /// travels.
    pub fn sample(&self, node: &Node, now: SimTime) -> Vec<Point> {
        self.sample_batch(node, now).to_points()
    }

    /// Scrapes the node into one [`PointBatch`] — the frame the
    /// ingestion pipeline ships per node per scrape. The `nodename` tag
    /// and measurement are stored once for the whole frame instead of
    /// being cloned into every point; each row carries only the pod name
    /// and the usage in bytes.
    pub fn sample_batch(&self, node: &Node, now: SimTime) -> PointBatch {
        let mut batch = PointBatch::new(self.measurement(), "pod_name", now)
            .with_shared_tag("nodename", node.name().as_str());
        self.scrape(node, |pod, used| {
            batch.push(pod.pod_name(), used.as_bytes() as f64);
        });
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NodeName, PodSpec, PodUid};
    use crate::machine::MachineSpec;
    use crate::node::NodeRole;
    use des::rng::seeded_rng;

    fn nodes() -> (Node, Node) {
        (
            Node::new(
                NodeName::new("std-1"),
                MachineSpec::dell_r330(),
                NodeRole::Worker,
            ),
            Node::new(
                NodeName::new("sgx-1"),
                MachineSpec::sgx_node(),
                NodeRole::Worker,
            ),
        )
    }

    #[test]
    fn daemonset_targets_sgx_probe_at_sgx_nodes_only() {
        let (std_node, sgx_node) = nodes();
        let [heapster, sgx] = Probe::default_pair();
        assert!(heapster.targets(&std_node));
        assert!(heapster.targets(&sgx_node));
        assert!(!sgx.targets(&std_node));
        assert!(sgx.targets(&sgx_node));
    }

    #[test]
    fn sgx_probe_emits_tagged_epc_points() {
        let (_, mut sgx_node) = nodes();
        let mut rng = seeded_rng(1);
        let spec = PodSpec::builder("job")
            .sgx_resources(ByteSize::from_mib(10))
            .build();
        sgx_node
            .run_pod(PodUid::new(7), spec, SimTime::ZERO, &mut rng)
            .unwrap();

        let points = Probe::sgx().sample(&sgx_node, SimTime::from_secs(10));
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.measurement(), MEASUREMENT_EPC);
        assert_eq!(p.tag("pod_name"), Some("pod-7"));
        assert_eq!(p.tag("nodename"), Some("sgx-1"));
        assert_eq!(p.value(), ByteSize::from_mib(10).as_bytes() as f64);
    }

    #[test]
    fn heapster_emits_memory_points() {
        let (mut std_node, _) = nodes();
        let mut rng = seeded_rng(2);
        let spec = PodSpec::builder("web")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        std_node
            .run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
            .unwrap();

        let points = Probe::heapster().sample(&std_node, SimTime::from_secs(10));
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].measurement(), MEASUREMENT_MEMORY);
        assert_eq!(points[0].value(), ByteSize::from_gib(1).as_bytes() as f64);
    }

    #[test]
    fn idle_nodes_emit_nothing() {
        let (std_node, sgx_node) = nodes();
        for probe in Probe::default_pair() {
            assert!(probe.sample(&std_node, SimTime::ZERO).is_empty());
            assert!(probe.sample(&sgx_node, SimTime::ZERO).is_empty());
            assert!(probe.sample_batch(&sgx_node, SimTime::ZERO).is_empty());
        }
    }

    #[test]
    fn retry_policy_backs_off_exponentially_then_gives_up() {
        let policy = RetryPolicy::paper_defaults();
        assert_eq!(policy.backoff_before(0), Some(SimDuration::from_secs(2)));
        assert_eq!(policy.backoff_before(1), Some(SimDuration::from_secs(4)));
        assert_eq!(policy.backoff_before(2), Some(SimDuration::from_secs(8)));
        assert_eq!(policy.backoff_before(3), None);
        let none = RetryPolicy {
            max_retries: 0,
            backoff: SimDuration::from_secs(1),
        };
        assert_eq!(none.backoff_before(0), None);
        assert_eq!(RetryPolicy::default(), RetryPolicy::paper_defaults());
    }

    #[test]
    fn sample_batch_carries_shared_tags_once() {
        let (mut std_node, _) = nodes();
        let mut rng = seeded_rng(3);
        for uid in 0..4 {
            let spec = PodSpec::builder("web")
                .memory_resources(ByteSize::from_mib(256))
                .build();
            std_node
                .run_pod(PodUid::new(uid), spec, SimTime::ZERO, &mut rng)
                .unwrap();
        }
        let probe = Probe::heapster();
        let now = SimTime::from_secs(10);
        let batch = probe.sample_batch(&std_node, now);
        assert_eq!(batch.measurement(), MEASUREMENT_MEMORY);
        assert_eq!(batch.row_tag_key(), "pod_name");
        assert_eq!(batch.shared_tags().get("nodename").unwrap(), "std-1");
        assert_eq!(batch.len(), 4);
        // The unbatched view is exactly the expanded batch.
        assert_eq!(probe.sample(&std_node, now), batch.to_points());
    }
}
