//! The immutable cluster snapshot a scheduling cycle runs against.
//!
//! A [`ClusterSnapshot`] is captured **once per scheduling tick** and then
//! never changes: it folds everything the old ad hoc flow assembled
//! piecemeal — capacities and requests from the cluster, measured usage
//! from the Listing-1 sliding-window queries, per-node staleness
//! annotation, and cordon state — into one deterministic value. Cloning is
//! an `Arc` bump, so filters, scorers and `drain_node` can all share the
//! exact same view of the world without re-deriving it.
//!
//! Three properties are load-bearing:
//!
//! * **Dense, name-ranked layout** — the snapshot is two parallel arrays:
//!   a name-sorted `Arc<[NodeName]>` (each name an `Arc` bump off the
//!   cluster's) and a flat `Vec<NodeView>` (`NodeView` is `Copy`). A node's
//!   **slot** is the rank of its name, so "lowest name wins ties" is
//!   "lowest slot wins", every float fold over the nodes runs in name
//!   order, a [`SchedulingCycle`](crate::SchedulingCycle)'s working copy
//!   is one `memcpy`, and lookup by name is a binary search.
//! * **Determinism** — every iteration anywhere in the scheduling
//!   framework walks the slots in order. No `HashMap` ordering can leak
//!   into placement decisions.
//! * **Completeness** — a snapshot captures *every worker* including
//!   cordoned ones (with [`NodeView::cordoned`] set). Cordoned nodes are
//!   excluded from placement by the cordon **filter plugin**, not by
//!   omission, so the exclusion is visible, testable and reusable.
//!
//! Every capture builds the snapshot anew; nothing is carried from one
//! to the next. [`ClusterSnapshot::capture`] evaluates Listing 1 through
//! the query engine. `Orchestrator::capture_snapshot` walks the workers
//! once and reads the same values off the window the store maintains
//! (`tsdb::Database::window`); it calls [`ClusterSnapshot::capture`]
//! only for a window that starts below that window's floor — a capture
//! stepping back in time, or a retention shorter than the window. The
//! query-engine capture is also the oracle the property tests hold the
//! two equal by.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster::api::NodeName;
use cluster::node::Node;
use cluster::probe::{MEASUREMENT_EPC, MEASUREMENT_MEMORY};
use cluster::topology::Cluster;
use des::{SimDuration, SimTime};
use sgx_sim::units::ByteSize;
use tsdb::{Aggregate, Database, Predicate, Select, TimeBound};

use crate::metrics::NodeView;

/// An immutable, cheaply-cloneable snapshot of every worker node, taken
/// once per scheduling cycle.
///
/// # Examples
///
/// ```
/// use cluster::topology::{Cluster, ClusterSpec};
/// use des::{SimDuration, SimTime};
/// use orchestrator::ClusterSnapshot;
/// use tsdb::Database;
///
/// let cluster = Cluster::build(&ClusterSpec::paper_cluster());
/// let snapshot = ClusterSnapshot::capture(
///     &cluster,
///     &Database::new(),
///     SimTime::ZERO,
///     SimDuration::from_secs(25),
/// );
/// assert_eq!(snapshot.len(), 4);
/// let clone = snapshot.clone(); // Arc bump, not a deep copy
/// assert_eq!(clone.len(), snapshot.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    inner: Arc<SnapshotInner>,
}

/// `names` is strictly ascending and `views[i]` describes `names[i]`.
/// Copying this (the copy-on-write path of [`ClusterSnapshot::update`])
/// is an `Arc` bump plus one `memcpy` — no per-node allocation.
#[derive(Debug, Clone, PartialEq)]
struct SnapshotInner {
    captured_at: SimTime,
    names: Arc<[NodeName]>,
    views: Vec<NodeView>,
}

/// The view of a node as the cluster itself accounts it: capacities,
/// admitted requests and cordon flag; measured usage as given, staleness
/// not yet stamped.
pub(crate) fn view_of(node: &Node, memory_measured: ByteSize, epc_measured: ByteSize) -> NodeView {
    NodeView {
        memory_capacity: node.allocatable_memory(),
        epc_capacity: node.allocatable_epc(),
        memory_requested: node.memory_requested(),
        epc_requested: node.epc_requested(),
        memory_measured,
        epc_measured,
        metrics_age: None,
        degraded: false,
        cordoned: node.is_cordoned(),
    }
}

/// Executes the Listing 1 aggregation for one measurement: per-pod MAX
/// over the window, summed per node.
fn measured(
    db: &Database,
    measurement: &str,
    now: SimTime,
    window: SimDuration,
) -> BTreeMap<String, ByteSize> {
    let per_pod = Select::from_measurement(measurement)
        .aggregate(Aggregate::Max)
        .filter(Predicate::ValueNe(0.0))
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(window)))
        .group_by(["pod_name", "nodename"]);
    let per_node = Select::from_subquery(per_pod)
        .aggregate(Aggregate::Sum)
        .group_by(["nodename"]);
    db.query(&per_node, now)
        .into_iter()
        .filter_map(|row| {
            let node = row.tag("nodename")?.to_string();
            Some((node, measured_bytes(row.value)))
        })
        .collect()
}

/// A Listing-1 sum as the byte count the views carry: clamped at zero,
/// truncated. Shared by the query path above and the window read of
/// `Orchestrator::capture_snapshot` so the two convert identically.
pub(crate) fn measured_bytes(sum: f64) -> ByteSize {
    ByteSize::from_bytes(sum.max(0.0) as u64)
}

impl ClusterSnapshot {
    /// Freezes an explicit node map into a snapshot — the escape hatch
    /// for tests and synthetic scenarios.
    pub fn from_nodes(captured_at: SimTime, nodes: BTreeMap<NodeName, NodeView>) -> Self {
        Self::from_sorted(captured_at, nodes)
    }

    /// Freezes `(name, view)` pairs that already arrive in strictly
    /// ascending name order (a `BTreeMap` walk, the cluster's workers).
    pub(crate) fn from_sorted(
        captured_at: SimTime,
        nodes: impl IntoIterator<Item = (NodeName, NodeView)>,
    ) -> Self {
        let nodes = nodes.into_iter();
        // Sized once: a walk over the cluster filtered to its workers
        // knows its upper bound, not its length.
        let capacity = nodes.size_hint().1.unwrap_or(0);
        let mut slots = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        slots.extend(nodes);
        let (names, views): (Vec<NodeName>, Vec<NodeView>) = slots;
        debug_assert!(names.windows(2).all(|w| w[0] < w[1]), "names out of order");
        ClusterSnapshot {
            inner: Arc::new(SnapshotInner {
                captured_at,
                names: names.into(),
                views,
            }),
        }
    }

    /// Captures all workers: capacities and requests from the cluster,
    /// measured usage from sliding-window queries against `db`.
    ///
    /// Staleness is not annotated here (capture has no access to scrape
    /// bookkeeping); compose with
    /// [`with_staleness`](Self::with_staleness).
    pub fn capture(cluster: &Cluster, db: &Database, now: SimTime, window: SimDuration) -> Self {
        let epc = measured(db, MEASUREMENT_EPC, now, window);
        let memory = measured(db, MEASUREMENT_MEMORY, now, window);
        let workers = cluster.workers().map(|node| {
            let of = |sums: &BTreeMap<String, ByteSize>| {
                sums.get(node.name().as_str())
                    .copied()
                    .unwrap_or(ByteSize::ZERO)
            };
            (node.name().clone(), view_of(node, of(&memory), of(&epc)))
        });
        Self::from_sorted(now, workers)
    }

    /// Returns a snapshot with every node stamped with the age of its
    /// last delivered scrape and marked degraded once that age exceeds
    /// `threshold` (strictly greater; never-scraped nodes stay fresh:
    /// before the first probe tick nothing has been measured anywhere, so
    /// there is no staleness to distrust). Applied at freeze time because
    /// snapshots are immutable afterwards.
    #[must_use]
    pub fn with_staleness(
        mut self,
        threshold: SimDuration,
        mut age_of: impl FnMut(&NodeName) -> Option<SimDuration>,
    ) -> Self {
        let captured_at = self.inner.captured_at;
        self.update(captured_at, |names, views| {
            for (name, view) in names.iter().zip(views) {
                let age = age_of(name);
                view.metrics_age = age;
                view.degraded = age.is_some_and(|a| a > threshold);
            }
        });
        self
    }

    /// Advances the snapshot to a new capture instant, handing the slots
    /// to `apply` for in-place edits of the views: the orchestrator stamps
    /// staleness on a snapshot evaluated through the query engine this
    /// way, and oracles compose their staleness rules with it.
    ///
    /// When this snapshot is the only live handle, the update happens in
    /// place with no copy at all; while clones are still alive, the views
    /// are copied first (one `memcpy`; the names stay shared) so frozen
    /// snapshots stay immutable.
    pub fn update(
        &mut self,
        captured_at: SimTime,
        apply: impl FnOnce(&[NodeName], &mut [NodeView]),
    ) {
        let inner = Arc::make_mut(&mut self.inner);
        inner.captured_at = captured_at;
        apply(&inner.names, &mut inner.views);
    }

    /// The per-node views, in node-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeName, &NodeView)> {
        self.inner.names.iter().zip(&self.inner.views)
    }

    /// The node names in ascending order; `names()[slot]` names
    /// `views()[slot]`.
    pub fn names(&self) -> &Arc<[NodeName]> {
        &self.inner.names
    }

    /// The node views, indexed by slot (name rank).
    pub fn views(&self) -> &[NodeView] {
        &self.inner.views
    }

    /// The slot of a node — the rank of its name — by binary search.
    pub(crate) fn slot_of(&self, name: &NodeName) -> Option<usize> {
        self.inner.names.binary_search(name).ok()
    }

    /// One node's view.
    pub fn node(&self, name: &NodeName) -> Option<&NodeView> {
        self.slot_of(name).map(|slot| &self.inner.views[slot])
    }

    /// Number of captured workers (cordoned ones included).
    pub fn len(&self) -> usize {
        self.inner.views.len()
    }

    /// `true` when the cluster has no workers at all.
    pub fn is_empty(&self) -> bool {
        self.inner.views.is_empty()
    }

    /// `true` when any *schedulable* (non-cordoned) node is degraded —
    /// the signal the orchestrator counts degraded scheduling decisions
    /// by. Cordoned nodes are excluded: they take no placements, so
    /// their staleness cannot taint a decision.
    pub(crate) fn any_degraded(&self) -> bool {
        self.inner.views.iter().any(|v| !v.cordoned && v.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::topology::ClusterSpec;
    use sgx_sim::units::EpcPages;
    use tsdb::Database;

    fn paper_snapshot() -> ClusterSnapshot {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        )
    }

    #[test]
    fn capture_matches_cluster_capacities() {
        let snapshot = paper_snapshot();
        assert_eq!(snapshot.len(), 4);
        let sgx = snapshot.node(&NodeName::new("sgx-1")).unwrap();
        assert!(sgx.has_sgx());
        assert_eq!(sgx.epc_capacity, EpcPages::new(23_936));
        assert!(!sgx.cordoned);
    }

    #[test]
    fn cordoned_workers_are_captured_with_the_flag_set() {
        let mut cluster = Cluster::build(&ClusterSpec::paper_cluster());
        cluster
            .node_mut(&NodeName::new("sgx-1"))
            .unwrap()
            .set_cordoned(true);
        let snapshot = ClusterSnapshot::capture(
            &cluster,
            &Database::new(),
            SimTime::ZERO,
            SimDuration::from_secs(25),
        );
        // The cordoned node is present...
        assert_eq!(snapshot.len(), 4);
        // ...but flagged.
        assert!(snapshot.node(&NodeName::new("sgx-1")).unwrap().cordoned);
        assert!(!snapshot.node(&NodeName::new("sgx-2")).unwrap().cordoned);
    }

    #[test]
    fn with_staleness_marks_old_nodes_and_skips_cordoned_in_any_degraded() {
        let snapshot = paper_snapshot().with_staleness(SimDuration::from_secs(30), |name| {
            match name.as_str() {
                "sgx-1" => Some(SimDuration::from_secs(45)),
                "sgx-2" => Some(SimDuration::from_secs(30)), // at threshold: fresh
                _ => None,
            }
        });
        assert!(snapshot.node(&NodeName::new("sgx-1")).unwrap().degraded);
        assert!(!snapshot.node(&NodeName::new("sgx-2")).unwrap().degraded);
        assert!(snapshot.any_degraded());

        // If the only degraded node is cordoned it cannot taint decisions.
        let mut cordoned = snapshot.clone();
        cordoned.update(SimTime::ZERO, |names, views| {
            for (name, view) in names.iter().zip(views) {
                if name.as_str() == "sgx-1" {
                    view.cordoned = true;
                }
            }
        });
        assert!(!cordoned.any_degraded());
        // The edit copied on write: the shared original is untouched.
        assert!(snapshot.any_degraded());
    }

    #[test]
    fn clones_are_shallow_and_equal() {
        let snapshot = paper_snapshot();
        let clone = snapshot.clone();
        assert_eq!(snapshot, clone);
        assert!(Arc::ptr_eq(&snapshot.inner, &clone.inner));
    }
}
