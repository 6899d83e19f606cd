//! The scheduler's window onto one node.
//!
//! A [`NodeView`] — one slot of a
//! [`ClusterSnapshot`](crate::ClusterSnapshot) — combines:
//!
//! * static capacity (allocatable memory; EPC pages from the device
//!   plugin),
//! * *requests* accounting (what bound pods reserved), and
//! * *measured* usage from the time-series database over the paper's 25 s
//!   sliding window (Listing 1 for EPC; the analogous query for memory).
//!
//! The SGX-aware schedulers treat a node's occupancy as the **maximum of
//! measured usage and reserved requests**: requests protect very recent
//! bindings the probes have not reported yet, while measurements catch
//! pods using more than they declared (the Fig. 11 attack).
//!
//! # Metrics staleness
//!
//! A node whose probes go silent has its in-window samples age out, so
//! its measured usage silently collapses to zero — indistinguishable
//! from a genuinely idle node. Each [`NodeView`] therefore carries the
//! age of the node's last delivered scrape; once that age exceeds the
//! orchestrator's staleness threshold the view is marked **degraded**
//! and the node falls back to requests-only accounting (its vanished
//! measurements are no longer trusted), and placement policies prefer
//! fresh nodes over degraded ones.

use cluster::api::PodSpec;
use des::SimDuration;
use sgx_sim::units::{ByteSize, EpcPages};

/// The resource a pod primarily consumes — EPC (`true`) for SGX pods,
/// memory otherwise — and how much of it the pod requests, in pages or
/// bytes: the resource whose load the spread policy balances.
pub(crate) fn primary_request(spec: &PodSpec) -> (bool, u64) {
    let requests = spec.resources.requests;
    if requests.needs_sgx() {
        (true, requests.epc_pages.count())
    } else {
        (false, requests.memory.as_bytes())
    }
}

/// Capacity and occupancy of one node, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeView {
    /// Total allocatable ordinary memory.
    pub memory_capacity: ByteSize,
    /// Total allocatable EPC pages (zero on non-SGX nodes).
    pub epc_capacity: EpcPages,
    /// Memory requested by pods bound to the node.
    pub memory_requested: ByteSize,
    /// EPC pages requested by pods bound to the node.
    pub epc_requested: EpcPages,
    /// Memory usage measured over the sliding window.
    pub memory_measured: ByteSize,
    /// EPC usage measured over the sliding window.
    pub epc_measured: ByteSize,
    /// Age of the node's last delivered scrape, `None` if never scraped.
    pub metrics_age: Option<SimDuration>,
    /// `true` once `metrics_age` exceeds the staleness threshold: the
    /// node's measurements can no longer be trusted and occupancy falls
    /// back to requests-only accounting.
    pub degraded: bool,
    /// `true` while the node is cordoned (e.g. mid-drain).
    /// [`ClusterSnapshot`](crate::ClusterSnapshot)s capture cordoned
    /// workers too and rely on the cordon filter plugin to keep
    /// placements off them.
    pub cordoned: bool,
}

impl NodeView {
    /// `true` when the node can run SGX pods at all.
    pub fn has_sgx(&self) -> bool {
        !self.epc_capacity.is_zero()
    }

    /// Effective memory occupancy: `max(measured, requested)`, or
    /// requests alone when the view is degraded (stale measurements have
    /// aged out of the window and read as idle — trusting them would make
    /// a silent node look empty).
    pub(crate) fn memory_occupied(&self) -> ByteSize {
        if self.degraded {
            return self.memory_requested;
        }
        self.memory_measured.max(self.memory_requested)
    }

    /// Effective EPC occupancy in pages: `max(measured, requested)`, or
    /// requests alone when the view is degraded.
    pub(crate) fn epc_occupied(&self) -> EpcPages {
        if self.degraded {
            return self.epc_requested;
        }
        self.epc_measured
            .to_epc_pages_ceil()
            .max(self.epc_requested)
    }

    /// Memory still considered free by the SGX-aware schedulers.
    pub(crate) fn memory_free(&self) -> ByteSize {
        self.memory_capacity.saturating_sub(self.memory_occupied())
    }

    /// EPC pages still considered free by the SGX-aware schedulers.
    pub fn epc_free(&self) -> EpcPages {
        self.epc_capacity.saturating_sub(self.epc_occupied())
    }

    /// Whether a pod's requests fit in the free capacity.
    pub fn fits(&self, spec: &PodSpec) -> bool {
        let req = spec.resources.requests;
        req.memory <= self.memory_free()
            && req.epc_pages <= self.epc_free()
            && (!req.needs_sgx() || self.has_sgx())
    }

    /// Whether a pod's requests fit going by requests alone (the stock
    /// Kubernetes criterion, used by the `default` scheduler).
    pub fn fits_by_requests(&self, spec: &PodSpec) -> bool {
        let req = spec.resources.requests;
        req.memory <= self.memory_capacity.saturating_sub(self.memory_requested)
            && req.epc_pages <= self.epc_capacity.saturating_sub(self.epc_requested)
            && (!req.needs_sgx() || self.has_sgx())
    }

    /// Effective occupancy and capacity of one resource in its own unit:
    /// EPC pages when `epc`, memory bytes otherwise — the two integers a
    /// load fraction is made of.
    pub(crate) fn load_parts(&self, epc: bool) -> (u64, u64) {
        if epc {
            (self.epc_occupied().count(), self.epc_capacity.count())
        } else {
            (
                self.memory_occupied().as_bytes(),
                self.memory_capacity.as_bytes(),
            )
        }
    }

    /// Fractional load of the resource a pod primarily consumes (EPC for
    /// SGX pods, memory otherwise) — the quantity the spread policy
    /// balances — with the pod's requests added when `placed_here`. A
    /// node without the resource counts as full either way. No decision
    /// reads it — every stage compares the integers behind the fraction
    /// exactly; it is the float fold the policy-equivalence tests hold
    /// the exact spread rule to.
    pub fn load_fraction_after(&self, spec: &PodSpec, placed_here: bool) -> f64 {
        let (epc, request) = primary_request(spec);
        let (mut occupied, cap) = self.load_parts(epc);
        if cap == 0 {
            return 1.0;
        }
        if placed_here {
            occupied += request;
        }
        occupied as f64 / cap as f64
    }

    /// Registers an in-pass reservation so later pods of the same
    /// scheduling pass see the node as fuller.
    pub fn reserve(&mut self, spec: &PodSpec) {
        let req = spec.resources.requests;
        self.memory_requested += req.memory;
        self.epc_requested += req.epc_pages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSnapshot;
    use cluster::api::{NodeName, PodUid};
    use cluster::probe::MEASUREMENT_EPC;
    use cluster::topology::{Cluster, ClusterSpec};
    use des::rng::seeded_rng;
    use des::SimTime;
    use tsdb::{Database, Point};

    fn paper_view(db: &Database, cluster: &Cluster, now: SimTime) -> ClusterSnapshot {
        ClusterSnapshot::capture(cluster, db, now, SimDuration::from_secs(25))
    }

    #[test]
    fn capture_reads_capacities() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let db = Database::new();
        let view = paper_view(&db, &cluster, SimTime::ZERO);
        assert_eq!(view.len(), 4);
        let sgx = view.node(&NodeName::new("sgx-1")).unwrap();
        assert!(sgx.has_sgx());
        assert_eq!(sgx.epc_capacity, EpcPages::new(23_936));
        assert_eq!(sgx.memory_capacity, ByteSize::from_gib(8));
        let std = view.node(&NodeName::new("std-1")).unwrap();
        assert!(!std.has_sgx());
        assert_eq!(std.memory_capacity, ByteSize::from_gib(64));
    }

    #[test]
    fn measured_usage_flows_from_db() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let mut db = Database::new();
        db.insert(
            Point::new(MEASUREMENT_EPC, SimTime::from_secs(90), 1e6)
                .with_tag("pod_name", "pod-1")
                .with_tag("nodename", "sgx-1"),
        );
        // A stale point outside the window must be ignored.
        db.insert(
            Point::new(MEASUREMENT_EPC, SimTime::from_secs(10), 5e7)
                .with_tag("pod_name", "pod-0")
                .with_tag("nodename", "sgx-1"),
        );
        let view = paper_view(&db, &cluster, SimTime::from_secs(100));
        let sgx = view.node(&NodeName::new("sgx-1")).unwrap();
        assert_eq!(sgx.epc_measured, ByteSize::from_bytes(1_000_000));
        assert_eq!(
            view.node(&NodeName::new("sgx-2")).unwrap().epc_measured,
            ByteSize::ZERO
        );
    }

    #[test]
    fn occupancy_is_max_of_measured_and_requested() {
        let mut v = NodeView {
            memory_capacity: ByteSize::from_gib(8),
            epc_capacity: EpcPages::new(1000),
            epc_requested: EpcPages::new(100),
            epc_measured: EpcPages::new(300).to_bytes(),
            ..NodeView::default()
        };
        assert_eq!(v.epc_occupied(), EpcPages::new(300)); // measured wins
        v.epc_requested = EpcPages::new(500);
        assert_eq!(v.epc_occupied(), EpcPages::new(500)); // requested wins
        assert_eq!(v.epc_free(), EpcPages::new(500));
    }

    #[test]
    fn degraded_view_falls_back_to_requests_only() {
        let mut v = NodeView {
            memory_capacity: ByteSize::from_gib(8),
            epc_capacity: EpcPages::new(1000),
            memory_requested: ByteSize::from_gib(1),
            epc_requested: EpcPages::new(100),
            memory_measured: ByteSize::from_gib(4),
            epc_measured: EpcPages::new(600).to_bytes(),
            ..NodeView::default()
        };
        assert_eq!(v.memory_occupied(), ByteSize::from_gib(4));
        assert_eq!(v.epc_occupied(), EpcPages::new(600));
        v.degraded = true;
        // Stale measurements are no longer trusted in either direction:
        // only the reservations count.
        assert_eq!(v.memory_occupied(), ByteSize::from_gib(1));
        assert_eq!(v.epc_occupied(), EpcPages::new(100));
        assert_eq!(v.epc_free(), EpcPages::new(900));
    }

    #[test]
    fn annotate_staleness_marks_old_nodes_degraded() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let db = Database::new();
        let threshold = SimDuration::from_secs(30);
        let view =
            paper_view(&db, &cluster, SimTime::from_secs(100)).with_staleness(threshold, |name| {
                match name.as_str() {
                    "sgx-1" => Some(SimDuration::from_secs(45)), // stale
                    "sgx-2" => Some(SimDuration::from_secs(30)), // exactly at threshold
                    "std-1" => Some(SimDuration::from_secs(10)), // fresh
                    _ => None,                                   // never scraped
                }
            });
        let sgx1 = view.node(&NodeName::new("sgx-1")).unwrap();
        assert!(sgx1.degraded);
        assert_eq!(sgx1.metrics_age, Some(SimDuration::from_secs(45)));
        // The threshold itself is still fresh (strictly-greater cutoff).
        assert!(!view.node(&NodeName::new("sgx-2")).unwrap().degraded);
        assert!(!view.node(&NodeName::new("std-1")).unwrap().degraded);
        let never = view.node(&NodeName::new("std-2")).unwrap();
        assert!(!never.degraded);
        assert_eq!(never.metrics_age, None);
    }

    #[test]
    fn fits_checks_all_constraints() {
        let view = NodeView {
            memory_capacity: ByteSize::from_gib(8),
            epc_capacity: EpcPages::new(1000),
            ..NodeView::default()
        };
        let sgx_pod = PodSpec::builder("s")
            .sgx_resources(EpcPages::new(500).to_bytes())
            .build();
        assert!(view.fits(&sgx_pod));
        let big_sgx = PodSpec::builder("b")
            .sgx_resources(EpcPages::new(2000).to_bytes())
            .build();
        assert!(!view.fits(&big_sgx));
        let non_sgx_view = NodeView {
            memory_capacity: ByteSize::from_gib(64),
            ..NodeView::default()
        };
        assert!(!non_sgx_view.fits(&sgx_pod));
        assert!(!non_sgx_view.fits_by_requests(&sgx_pod));
    }

    #[test]
    fn reservations_shrink_free_capacity_within_a_pass() {
        let mut view = NodeView {
            memory_capacity: ByteSize::from_gib(8),
            epc_capacity: EpcPages::new(1000),
            ..NodeView::default()
        };
        let pod = PodSpec::builder("p")
            .sgx_resources(EpcPages::new(600).to_bytes())
            .build();
        assert!(view.fits(&pod));
        view.reserve(&pod);
        assert!(!view.fits(&pod));
        assert_eq!(view.epc_free(), EpcPages::new(400));
    }

    #[test]
    fn load_fraction_uses_primary_resource() {
        let view = NodeView {
            memory_capacity: ByteSize::from_gib(10),
            epc_capacity: EpcPages::new(1000),
            memory_requested: ByteSize::from_gib(5),
            epc_requested: EpcPages::new(250),
            ..NodeView::default()
        };
        let sgx_pod = PodSpec::builder("s")
            .sgx_resources(EpcPages::new(250).to_bytes())
            .build();
        assert!((view.load_fraction_after(&sgx_pod, false) - 0.25).abs() < 1e-9);
        assert!((view.load_fraction_after(&sgx_pod, true) - 0.5).abs() < 1e-9);
        let std_pod = PodSpec::builder("m")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        assert!((view.load_fraction_after(&std_pod, false) - 0.5).abs() < 1e-9);
        assert!((view.load_fraction_after(&std_pod, true) - 0.6).abs() < 1e-9);
    }

    // Keep rand linked for the dev-dependency graph.
    #[test]
    fn rng_helper_available() {
        let _ = seeded_rng(0);
        let _ = PodUid::new(0);
    }
}
