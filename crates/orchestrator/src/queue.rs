//! The persistent FCFS pending queue (§IV, step Ì).

use cluster::api::{PodSpec, PodUid};
use des::SimTime;
use sgx_sim::units::{ByteSize, EpcPages};

use crate::framework::{covers, Free, SchedulingCycle};

/// Slots one run floor of the queue covers.
const RUN: usize = 64;

/// The needs a hole stands for: more of every lane than a node can have
/// free, so no walk offers it and it never lowers a run's floor.
const HOLE: Free = [u64::MAX; 4];

/// Lowers `floor` to the component-wise minimum of itself and `by`.
fn lower(floor: &mut Free, by: &Free) {
    for (floor, by) in floor.iter_mut().zip(by) {
        *floor = (*floor).min(*by);
    }
}

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

/// What a scheduling pass does with one pod a walk offers it: places it
/// against the cycle, binds it, and answers whether the pod left the
/// queue (bound or denied).
pub(crate) type Offer<'a> = dyn FnMut(&mut SchedulingCycle, &PendingPod) -> bool + 'a;

/// First-come-first-served queue of pending pods.
///
/// The scheduler periodically walks the queue in submission order; pods it
/// cannot place yet stay queued (FCFS is a *priority*, not head-of-line
/// blocking — a small later job may start while a large earlier one
/// waits for capacity).
///
/// Pods sit at stable slots in FCFS order: a pod that leaves leaves a
/// hole, and nothing else moves. Each slot carries what its pod's
/// pipeline [needs](crate::PolicyPipeline) of a node, resolved at
/// enqueue, and every run of 64 slots keeps the component-wise minimum
/// of those needs — its floor. A scheduling pass's walk passes over a
/// run whose floor no node of the cycle can cover without reading it.
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
    /// The pods in FCFS order; `None` is a hole a pod left.
    slots: Vec<Option<PendingPod>>,
    /// `needs[i]`: what the pipeline of `slots[i]`'s pod needs of any
    /// node it places the pod on, or [`HOLE`].
    needs: Vec<Free>,
    /// One floor per run of [`RUN`] slots: never above the needs of a
    /// pod in the run.
    floors: Vec<Free>,
    /// Pods in the slots.
    live: usize,
    /// The submission instant of the last slot, pod or hole: no pod in
    /// the queue was submitted later.
    newest: SimTime,
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
        self.live += 1;
    }

    fn account_out(&mut self, pod: &PendingPod) {
        #[cfg(debug_assertions)]
        self.uids.remove(&pod.uid);
        self.epc_requested -= pod.spec.resources.requests.epc_pages;
        self.memory_requested -= pod.spec.resources.requests.memory;
        self.live -= 1;
    }

    /// Enqueues a pod at its FCFS position: ordered by `submitted_at`,
    /// stable for ties (an equal-time pod goes behind the ones already
    /// queued). `needs` is what its pipeline needs of a node. Fresh
    /// submissions arrive in time order and append in O(1); an earlier
    /// one is [requeued](Self::requeue).
    pub(crate) fn enqueue(
        &mut self,
        uid: PodUid,
        spec: PodSpec,
        submitted_at: SimTime,
        needs: Free,
    ) {
        let pod = PendingPod {
            uid,
            spec,
            submitted_at,
        };
        if submitted_at < self.newest {
            self.requeue(vec![(pod, needs)]);
        } else {
            self.account_in(&pod);
            self.push(pod, needs);
        }
    }

    /// Appends a pod submitted no earlier than the last slot's.
    fn push(&mut self, pod: PendingPod, needs: Free) {
        let at = self.slots.len();
        self.newest = pod.submitted_at;
        self.slots.push(Some(pod));
        self.needs.push(needs);
        match self.floors.get_mut(at / RUN) {
            Some(floor) => lower(floor, &needs),
            None => self.floors.push(needs),
        }
    }

    /// Puts pods back at their FCFS positions — each with what its
    /// pipeline needs — in one sorted merge with the queue, which also
    /// drops every hole. A pod re-queued after a node crash carries its
    /// original submission time, so it does not lose its place to
    /// everything submitted while it ran; pods of equal times go behind
    /// the ones already queued, in the order given.
    pub(crate) fn requeue(&mut self, mut pods: Vec<(PendingPod, Free)>) {
        if pods.is_empty() {
            return;
        }
        for (pod, _) in &pods {
            self.account_in(pod);
        }
        pods.sort_by_key(|(pod, _)| pod.submitted_at);
        let slots = std::mem::take(&mut self.slots);
        let needs = std::mem::take(&mut self.needs);
        self.slots.reserve_exact(self.live);
        self.needs.reserve_exact(self.live);
        self.floors.clear();
        let mut incoming = pods.into_iter().peekable();
        for (slot, needs) in slots.into_iter().zip(needs) {
            let Some(queued) = slot else {
                continue;
            };
            while let Some((pod, needs)) =
                incoming.next_if(|(pod, _)| pod.submitted_at < queued.submitted_at)
            {
                self.push(pod, needs);
            }
            self.push(queued, needs);
        }
        for (pod, needs) in incoming {
            self.push(pod, needs);
        }
    }

    /// Takes the pod out of slot `at`, leaving a hole.
    fn vacate(&mut self, at: usize) {
        let pod = self.slots[at].take().expect("only a pod leaves");
        self.needs[at] = HOLE;
        self.account_out(&pod);
    }

    /// Offers the pods to a scheduling pass in FCFS order and leaves the
    /// ones `offer` reports gone as holes. A run whose floor
    /// `cycle.ceiling()` does not cover is passed over unread, and so is
    /// every pod whose needs it does not cover: `place` would refuse
    /// each of them, and a refusal changes nothing a later placement
    /// reads, so every decision is the one an offer to every pod makes.
    /// A run that is walked gets the exact minimum of what stays in it as
    /// its new floor.
    pub(crate) fn walk(&mut self, cycle: &mut SchedulingCycle, offer: &mut Offer<'_>) {
        for run in 0..self.floors.len() {
            if !covers(&cycle.ceiling(), &self.floors[run]) {
                continue;
            }
            let mut floor = HOLE;
            for at in run * RUN..self.slots.len().min((run + 1) * RUN) {
                let left = covers(&cycle.ceiling(), &self.needs[at])
                    && self.slots[at].as_ref().is_some_and(|pod| offer(cycle, pod));
                if left {
                    self.vacate(at);
                } else {
                    lower(&mut floor, &self.needs[at]);
                }
            }
            self.floors[run] = floor;
        }
        self.settle();
    }

    /// The test oracle of [`walk`](Self::walk): offers every pod, in FCFS
    /// order, and skips nothing.
    #[cfg(test)]
    pub(crate) fn offer_every(&mut self, cycle: &mut SchedulingCycle, offer: &mut Offer<'_>) {
        for at in 0..self.slots.len() {
            if self.slots[at].as_ref().is_some_and(|pod| offer(cycle, pod)) {
                self.vacate(at);
            }
        }
        self.settle();
    }

    /// Ends a walk: once holes outnumber pods, the pods close up in
    /// order and the slots shrink to fit them. A compaction moves fewer
    /// pods than it removes holes, so a removal costs O(1) moves
    /// amortised, and after every walk the slots hold at most twice the
    /// pods.
    fn settle(&mut self) {
        if self.slots.len() <= 2 * self.live {
            return;
        }
        let mut live = self.slots.iter().map(Option::is_some);
        self.needs.retain(|_| live.next() == Some(true));
        self.slots.retain(Option::is_some);
        self.slots.shrink_to_fit();
        self.needs.shrink_to_fit();
        self.floors.clear();
        for run in self.needs.chunks(RUN) {
            let mut floor = HOLE;
            for needs in run {
                lower(&mut floor, needs);
            }
            self.floors.push(floor);
        }
        self.floors.shrink_to_fit();
    }

    /// The pods in FCFS order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingPod> {
        self.slots.iter().flatten()
    }

    /// Number of pending pods.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
    use std::collections::BTreeMap;

    use cluster::api::NodeName;

    use super::*;
    use crate::metrics::NodeView;
    use crate::snapshot::ClusterSnapshot;

    fn spec(mib: u64) -> PodSpec {
        PodSpec::builder(format!("p{mib}"))
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    }

    /// Needs `pages` EPC pages free under effective occupancy.
    fn epc(pages: u64) -> Free {
        [0, pages, 0, 0]
    }

    fn order(q: &PendingQueue) -> Vec<u64> {
        q.iter().map(|p| p.uid.as_u64()).collect()
    }

    /// A cycle over one SGX node with `free` EPC pages.
    fn cycle(free: u64) -> SchedulingCycle {
        let view = NodeView {
            memory_capacity: ByteSize::from_gib(8),
            epc_capacity: EpcPages::new(free),
            ..NodeView::default()
        };
        let nodes = BTreeMap::from([(NodeName::new("sgx-1"), view)]);
        SchedulingCycle::new(ClusterSnapshot::from_nodes(SimTime::ZERO, nodes))
    }

    /// Walks `q` against `cycle`, removing the pods `leaves` picks; the
    /// uids offered, in order.
    fn walk(
        q: &mut PendingQueue,
        cycle: &mut SchedulingCycle,
        leaves: impl Fn(u64) -> bool,
    ) -> Vec<u64> {
        let mut offered = Vec::new();
        q.walk(cycle, &mut |_, pod| {
            offered.push(pod.uid.as_u64());
            leaves(pod.uid.as_u64())
        });
        offered
    }

    #[test]
    fn fcfs_order_is_preserved() {
        let mut q = PendingQueue::new();
        for i in 0..5 {
            q.enqueue(PodUid::new(i), spec(1), SimTime::from_secs(i), epc(0));
        }
        assert_eq!(order(&q), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn aggregates_for_fig7() {
        let mut q = PendingQueue::new();
        q.enqueue(PodUid::new(1), spec(10), SimTime::from_secs(5), epc(0));
        q.enqueue(PodUid::new(2), spec(20), SimTime::from_secs(8), epc(0));
        assert_eq!(
            q.epc_requested(),
            EpcPages::from_mib_ceil(10) + EpcPages::from_mib_ceil(20)
        );
        assert_eq!(q.memory_requested(), ByteSize::ZERO);
    }

    #[test]
    fn requeue_restores_fcfs_position() {
        let mut q = PendingQueue::new();
        q.enqueue(PodUid::new(1), spec(1), SimTime::from_secs(10), epc(0));
        q.enqueue(PodUid::new(2), spec(2), SimTime::from_secs(20), epc(0));
        // Pod 0 was submitted first, ran, and crashed: re-queued with its
        // original submission time it must regain the front of the queue.
        q.enqueue(PodUid::new(0), spec(3), SimTime::from_secs(5), epc(0));
        assert_eq!(order(&q), [0, 1, 2]);
    }

    #[test]
    fn equal_submission_times_keep_insertion_order() {
        let mut q = PendingQueue::new();
        for i in 0..4 {
            q.enqueue(PodUid::new(i), spec(1), SimTime::from_secs(7), epc(0));
        }
        // Requeued pods of an equal time go behind, in the order given.
        let back = |uid| {
            (
                PendingPod {
                    uid: PodUid::new(uid),
                    spec: spec(1),
                    submitted_at: SimTime::from_secs(7),
                },
                epc(0),
            )
        };
        q.requeue(vec![back(9), back(8)]);
        assert_eq!(order(&q), [0, 1, 2, 3, 9, 8]);
    }

    #[test]
    fn holes_preserve_order_and_totals() {
        let mut q = PendingQueue::new();
        for i in 0..5 {
            q.enqueue(PodUid::new(i), spec(i + 1), SimTime::from_secs(i), epc(0));
        }
        let total = q.epc_requested();
        // The pass binds pods 1 and 3 and keeps the rest.
        let offered = walk(&mut q, &mut cycle(100), |uid| uid % 2 == 1);
        assert_eq!(offered, [0, 1, 2, 3, 4]);
        assert_eq!(order(&q), [0, 2, 4]);
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.epc_requested(),
            total - EpcPages::from_mib_ceil(2) - EpcPages::from_mib_ceil(4)
        );
        // Two holes among three pods: nothing moved.
        assert_eq!(q.slots.len(), 5);
        // A bound pod's uid may be enqueued again (crash requeue).
        q.enqueue(PodUid::new(1), spec(2), SimTime::from_secs(1), epc(0));
        assert_eq!(order(&q), [0, 1, 2, 4]);
        assert_eq!(q.slots.len(), 4, "the merge drops the holes");
    }

    #[test]
    fn runs_no_node_can_hold_are_passed_over() {
        // Run 0: 64 pods needing 50 pages. Run 1: 63 more, then one
        // needing 5.
        let mut q = PendingQueue::new();
        for i in 0..128 {
            let needs = if i == 127 { epc(5) } else { epc(50) };
            q.enqueue(PodUid::new(i), spec(1), SimTime::from_secs(1), needs);
        }
        assert_eq!(q.floors, [epc(50), epc(5)]);
        // 10 pages free: run 0 is skipped unread; of run 1, only the pod
        // that fits is offered.
        let offered = walk(&mut q, &mut cycle(10), |_| false);
        assert_eq!(offered, [127]);
        // With room for everything, everything is offered.
        let offered = walk(&mut q, &mut cycle(50), |_| false);
        assert_eq!(offered.len(), 128);
    }

    #[test]
    fn floors_fall_as_pods_enter_and_rise_as_walks_see_them_leave() {
        let mut q = PendingQueue::new();
        for i in 0..3 {
            q.enqueue(
                PodUid::new(i),
                spec(1),
                SimTime::from_secs(i + 1),
                epc(50 + i),
            );
        }
        assert_eq!(q.floors, [epc(50)]);
        // A fresh pod lowers the floor of the run it lands in...
        q.enqueue(PodUid::new(3), spec(1), SimTime::from_secs(4), epc(20));
        assert_eq!(q.floors, [epc(20)]);
        // ...and so does a restored one.
        let restored = PendingPod {
            uid: PodUid::new(9),
            spec: spec(1),
            submitted_at: SimTime::ZERO,
        };
        q.requeue(vec![(restored, epc(7))]);
        assert_eq!(q.floors, [epc(7)]);
        assert_eq!(order(&q), [9, 0, 1, 2, 3]);
        // A walk that sees pods 9 and 3 leave raises the floor to what
        // stays; holes count for nothing.
        walk(&mut q, &mut cycle(100), |uid| uid == 9 || uid == 3);
        assert_eq!(q.floors, [epc(50)]);
    }

    /// The memory guard: a queue that held a 24,000-deep burst gives the
    /// room back once it drains, as the take-and-refill queue did by
    /// reallocating at its length every pass.
    #[test]
    fn slots_shrink_after_a_burst_drains() {
        let mut q = PendingQueue::new();
        for i in 0..24_000 {
            q.enqueue(PodUid::new(i), spec(1), SimTime::from_secs(i), epc(1));
        }
        assert!(q.slots.capacity() >= 24_000);
        let mut cycle = cycle(100);
        walk(&mut q, &mut cycle, |uid| uid % 240 != 0);
        assert_eq!(q.len(), 100);
        walk(&mut q, &mut cycle, |_| false);
        let bound = 4 * q.len() + 64;
        assert!(q.slots.capacity() <= bound, "{} slots", q.slots.capacity());
        assert!(q.needs.capacity() <= bound, "{} needs", q.needs.capacity());
        assert_eq!(q.floors.len(), 2);
        assert_eq!(order(&q), (0..100).map(|i| i * 240).collect::<Vec<_>>());
    }
}
