//! The persistent FCFS pending queue (§IV, step Ì).

use std::collections::VecDeque;

use cluster::api::{PodSpec, PodUid};
use des::SimTime;
use sgx_sim::units::{ByteSize, EpcPages};

/// A submitted pod waiting for placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingPod {
    /// The pod's uid.
    pub uid: PodUid,
    /// Its specification.
    pub spec: PodSpec,
    /// When it entered the queue.
    pub submitted_at: SimTime,
}

/// First-come-first-served queue of pending pods.
///
/// The scheduler periodically walks the queue in submission order; pods it
/// cannot place yet stay queued (FCFS is a *priority*, not head-of-line
/// blocking — a small later job may start while a large earlier one
/// waits for capacity).
///
/// # Examples
///
/// ```
/// use cluster::api::PodSpec;
/// use cluster::topology::ClusterSpec;
/// use des::SimTime;
/// use orchestrator::{Orchestrator, OrchestratorConfig};
/// use sgx_sim::units::ByteSize;
///
/// let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
/// let spec = PodSpec::builder("a").memory_resources(ByteSize::from_mib(64)).build();
/// orch.submit(spec, SimTime::ZERO);
/// assert_eq!(orch.queue().len(), 1);
/// orch.scheduler_pass(SimTime::from_secs(5));
/// assert!(orch.queue().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PendingQueue {
    pods: VecDeque<PendingPod>,
    /// Running totals of the queued pods' requests, kept by exact
    /// integer adds and subtracts wherever a pod enters or leaves, so
    /// the per-tick Fig. 7 series read them in O(1).
    epc_requested: EpcPages,
    memory_requested: ByteSize,
    /// Debug builds only: the queued uids, to catch a double enqueue
    /// without walking the queue on every submission.
    #[cfg(debug_assertions)]
    uids: std::collections::BTreeSet<PodUid>,
}

impl PendingQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        PendingQueue::default()
    }

    fn account_in(&mut self, pod: &PendingPod) {
        #[cfg(debug_assertions)]
        assert!(self.uids.insert(pod.uid), "pod {} enqueued twice", pod.uid);
        self.epc_requested += pod.spec.resources.requests.epc_pages;
        self.memory_requested += pod.spec.resources.requests.memory;
    }

    /// Enqueues a pod at its FCFS position: ordered by `submitted_at`,
    /// stable for ties (an equal-time pod goes behind the ones already
    /// queued). Fresh submissions arrive in time order and append in
    /// O(1); a pod *re*-queued after a node crash carries its original
    /// submission time and is inserted back where it belongs, so it does
    /// not lose its place to everything submitted while it ran.
    pub(crate) fn enqueue(&mut self, uid: PodUid, spec: PodSpec, submitted_at: SimTime) {
        let pod = PendingPod {
            uid,
            spec,
            submitted_at,
        };
        self.account_in(&pod);
        let at = self
            .pods
            .partition_point(|p| p.submitted_at <= submitted_at);
        self.pods.insert(at, pod);
    }

    /// Hands the whole queue, in FCFS order, to a scheduling pass and
    /// leaves this queue empty. The pass moves every pod it could not
    /// bind back with [`keep`](Self::keep), in the order it received
    /// them — no pod is cloned and none is searched for.
    pub(crate) fn take(&mut self) -> VecDeque<PendingPod> {
        #[cfg(debug_assertions)]
        self.uids.clear();
        self.epc_requested = EpcPages::ZERO;
        self.memory_requested = ByteSize::ZERO;
        let capacity = self.pods.len();
        std::mem::replace(&mut self.pods, VecDeque::with_capacity(capacity))
    }

    /// Appends a pod a scheduling pass [took](Self::take) and could not
    /// bind. Pods must come back in the order they were taken, which is
    /// what keeps the queue FCFS without a position search.
    pub(crate) fn keep(&mut self, pod: PendingPod) {
        debug_assert!(
            self.pods
                .back()
                .is_none_or(|last| last.submitted_at <= pod.submitted_at),
            "pod {} kept out of FCFS order",
            pod.uid
        );
        self.account_in(&pod);
        self.pods.push_back(pod);
    }

    /// The pods in FCFS order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingPod> {
        self.pods.iter()
    }

    /// Number of pending pods.
    pub fn len(&self) -> usize {
        self.pods.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pods.is_empty()
    }

    /// Total EPC pages requested by pending pods — the y-axis of Fig. 7.
    pub fn epc_requested(&self) -> EpcPages {
        self.epc_requested
    }

    /// Total ordinary memory requested by pending pods.
    pub fn memory_requested(&self) -> ByteSize {
        self.memory_requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mib: u64) -> PodSpec {
        PodSpec::builder(format!("p{mib}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    }

    #[test]
    fn fcfs_order_is_preserved() {
        let mut q = PendingQueue::new();
        for i in 0..5 {
            q.enqueue(PodUid::new(i), spec(1), SimTime::from_secs(i));
        }
        let order: Vec<u64> = q.iter().map(|p| p.uid.as_u64()).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn aggregates_for_fig7() {
        let mut q = PendingQueue::new();
        q.enqueue(PodUid::new(1), spec(10), SimTime::from_secs(5));
        q.enqueue(PodUid::new(2), spec(20), SimTime::from_secs(8));
        assert_eq!(
            q.epc_requested(),
            EpcPages::from_mib_ceil(10) + EpcPages::from_mib_ceil(20)
        );
        assert_eq!(q.memory_requested(), ByteSize::ZERO);
    }

    #[test]
    fn requeue_restores_fcfs_position() {
        let mut q = PendingQueue::new();
        q.enqueue(PodUid::new(1), spec(1), SimTime::from_secs(10));
        q.enqueue(PodUid::new(2), spec(2), SimTime::from_secs(20));
        // Pod 0 was submitted first, ran, and crashed: re-queued with its
        // original submission time it must regain the front of the queue.
        q.enqueue(PodUid::new(0), spec(3), SimTime::from_secs(5));
        let order: Vec<u64> = q.iter().map(|p| p.uid.as_u64()).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn equal_submission_times_keep_insertion_order() {
        let mut q = PendingQueue::new();
        for i in 0..4 {
            q.enqueue(PodUid::new(i), spec(1), SimTime::from_secs(7));
        }
        let order: Vec<u64> = q.iter().map(|p| p.uid.as_u64()).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn take_and_keep_preserve_order_and_totals() {
        let mut q = PendingQueue::new();
        for i in 0..5 {
            q.enqueue(PodUid::new(i), spec(i + 1), SimTime::from_secs(i));
        }
        let total = q.epc_requested();
        let taken = q.take();
        assert!(q.is_empty());
        assert_eq!(q.epc_requested(), EpcPages::ZERO);
        // The pass binds pods 1 and 3 and keeps the rest.
        for pod in taken {
            if pod.uid.as_u64() % 2 == 0 {
                q.keep(pod);
            }
        }
        let order: Vec<u64> = q.iter().map(|p| p.uid.as_u64()).collect();
        assert_eq!(order, [0, 2, 4]);
        assert_eq!(
            q.epc_requested(),
            total - EpcPages::from_mib_ceil(2) - EpcPages::from_mib_ceil(4)
        );
        // A bound pod's uid may be enqueued again (crash requeue).
        q.enqueue(PodUid::new(1), spec(2), SimTime::from_secs(1));
        let order: Vec<u64> = q.iter().map(|p| p.uid.as_u64()).collect();
        assert_eq!(order, [0, 1, 2, 4]);
    }
}
