//! The master-side control loop: submission, scheduling passes, probe
//! collection and pod completion.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::{Node, NodeRole, PodStartReport};
use cluster::probe::{Probe, MEASUREMENT_EPC, MEASUREMENT_MEMORY};
use cluster::topology::{Cluster, ClusterSpec, NodeKey};
use cluster::ClusterError;
use des::rng::{derive_seed, seeded_rng};
use des::{SimDuration, SimTime};
use sgx_sim::units::{ByteSize, EpcPages};
use tsdb::{Database, PointBatch, TimeBound};

use crate::events::{ClusterEvent, EventKind, EventLog};
use crate::exact::{extremes, Load};
use crate::framework::{Free, PolicyPipeline, SchedulingCycle};
use crate::metrics::NodeView;
use crate::queue::{Offer, PendingPod, PendingQueue};
use crate::registry::{PolicyRegistry, SGX_BINPACK};
use crate::snapshot::{measured_bytes, view_of, ClusterSnapshot};

/// Tunables of the orchestrator control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratorConfig {
    /// Scheduler used for pods that do not name one.
    pub default_scheduler: String,
    /// Sliding window of the metrics queries (Listing 1 uses 25 s).
    pub metrics_window: SimDuration,
    /// How often the scheduling pass runs.
    pub scheduler_period: SimDuration,
    /// How often the probes scrape the nodes.
    pub probe_period: SimDuration,
    /// Retention of the time-series database.
    pub retention: SimDuration,
    /// How old a node's last delivered scrape may get before the
    /// scheduler stops trusting its measurements and falls back to
    /// requests-only accounting for that node.
    pub staleness_threshold: SimDuration,
    /// Base seed for the startup-cost jitter stream.
    pub seed: u64,
}

impl OrchestratorConfig {
    /// The paper's configuration: SGX-aware binpack as default scheduler,
    /// 25 s metrics window, 5 s scheduling period, 10 s probe period.
    pub fn paper() -> Self {
        OrchestratorConfig {
            default_scheduler: SGX_BINPACK.to_string(),
            metrics_window: SimDuration::from_secs(25),
            scheduler_period: SimDuration::from_secs(5),
            probe_period: SimDuration::from_secs(10),
            retention: SimDuration::from_mins(15),
            // Three missed 10 s scrapes: the 25 s window is empty by then,
            // so the node's measurements have fully aged out.
            staleness_threshold: SimDuration::from_secs(30),
            seed: 0,
        }
    }

    /// Same configuration with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with a different default scheduler.
    pub fn with_default_scheduler(mut self, name: impl Into<String>) -> Self {
        self.default_scheduler = name.into();
        self
    }
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig::paper()
    }
}

/// Lifecycle state of a submitted pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodOutcome {
    /// Still in the pending queue.
    Pending,
    /// Running on a node.
    Running {
        /// Where it runs.
        node: NodeName,
    },
    /// Finished normally.
    Completed {
        /// Where it ran.
        node: NodeName,
    },
    /// Killed at launch by the driver's limit enforcement (§VI-F).
    Denied {
        /// Where the launch was attempted.
        node: NodeName,
    },
    /// Requests exceed every node's total capacity; never enqueued.
    Unschedulable,
}

/// Bookkeeping for one submitted pod, from which the evaluation derives
/// waiting times (Figs. 8, 9, 11) and turnaround times (Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct PodRecord {
    /// The pod's uid.
    pub uid: PodUid,
    /// Pod name from the spec.
    pub name: String,
    /// Whether the pod requested EPC.
    pub needs_sgx: bool,
    /// Advertised memory request.
    pub mem_request: ByteSize,
    /// Advertised EPC request.
    pub epc_request: EpcPages,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Instant the containers finished starting (submission + queueing +
    /// startup), when they did.
    pub started_at: Option<SimTime>,
    /// Instant the pod terminated (completion or denial).
    pub finished_at: Option<SimTime>,
    /// Current lifecycle state.
    pub outcome: PodOutcome,
}

impl PodRecord {
    /// The paper's waiting time: submission → job actually starts.
    pub fn waiting_time(&self) -> Option<SimDuration> {
        self.started_at
            .map(|t| t.saturating_since(self.submitted_at))
    }

    /// The paper's turnaround time: submission → job finishes and dies.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.finished_at
            .map(|t| t.saturating_since(self.submitted_at))
    }
}

/// Every submitted pod's record, indexed by uid − 1.
///
/// [`Orchestrator::submit`] is the only place a uid is minted, counting
/// up from 1, so the table is dense by construction: one `Vec` slot a
/// pod, in uid (= submission) order. It reads like the uid-keyed map it
/// replaces; iterating `&PodTable` yields the records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PodTable(Vec<PodRecord>);

impl PodTable {
    /// The slot of `uid`, if it is a uid this table could hold.
    fn index(uid: PodUid) -> Option<usize> {
        let index = uid.as_u64().checked_sub(1)?;
        usize::try_from(index).ok()
    }

    /// The uid the next submission gets: one past the last.
    fn next_uid(&self) -> PodUid {
        PodUid::new(self.0.len() as u64 + 1)
    }

    /// Appends the record of [`next_uid`](Self::next_uid).
    fn push(&mut self, record: PodRecord) {
        debug_assert_eq!(record.uid, self.next_uid(), "uids are dense");
        self.0.push(record);
    }

    fn get_mut(&mut self, uid: PodUid) -> Option<&mut PodRecord> {
        self.0.get_mut(Self::index(uid)?)
    }

    /// One pod's record.
    pub fn get(&self, uid: PodUid) -> Option<&PodRecord> {
        self.0.get(Self::index(uid)?)
    }

    /// Whether `uid` was ever submitted.
    pub fn contains_key(&self, uid: PodUid) -> bool {
        self.get(uid).is_some()
    }

    /// Number of pods submitted.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no pod was submitted yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The uids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &PodUid> {
        self.0.iter().map(|record| &record.uid)
    }

    /// The records, in uid order.
    pub fn values(&self) -> std::slice::Iter<'_, PodRecord> {
        self.0.iter()
    }

    /// `(uid, record)` pairs, in uid order.
    pub fn iter(&self) -> impl Iterator<Item = (&PodUid, &PodRecord)> {
        self.0.iter().map(|record| (&record.uid, record))
    }
}

impl<'a> IntoIterator for &'a PodTable {
    type Item = &'a PodRecord;
    type IntoIter = std::slice::Iter<'a, PodRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.values()
    }
}

impl IntoIterator for PodTable {
    type Item = PodRecord;
    type IntoIter = std::vec::IntoIter<PodRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// Result of binding one pod during a scheduling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BindOutcome {
    /// The pod bound.
    pub uid: PodUid,
    /// The node chosen by the placement policy.
    pub node: NodeName,
    /// What the Kubelet reported (startup delay; denial, if any).
    pub report: PodStartReport,
    /// The job's useful duration from its spec.
    pub spec_duration: SimDuration,
    /// The node's paging-slowdown multiplier right after the pod started
    /// (1.0 unless the EPC is over-committed).
    pub slowdown_at_start: f64,
}

/// One completed live migration, as reported by
/// [`Orchestrator::drain_node`] and [`Orchestrator::rebalance_epc`].
///
/// The `delay` is what [`Node::migrate_in`] charged for the attested
/// handshake plus shipping the checkpoint: the pod's downtime. Replay
/// layers shift the pod's in-flight finish event by it so migrations show
/// up in turnaround times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// The migrated pod.
    pub uid: PodUid,
    /// Where it ran before.
    pub from: NodeName,
    /// Where it runs now.
    pub to: NodeName,
    /// Transfer latency (the pod's downtime).
    pub delay: SimDuration,
}

/// What [`Orchestrator::remove_node`] did to empty the node before
/// deregistering it: live migrations for every pod the drain could place
/// elsewhere, and requeued uids for the stragglers evicted back to the
/// pending queue (at their original submit times). Either way, no pod is
/// lost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeRemoval {
    /// Pods live-migrated off the node during the pre-removal drain.
    pub migrations: Vec<Migration>,
    /// Pods with no feasible migration target, evicted and requeued.
    pub requeued: Vec<PodUid>,
}

/// The orchestrator: cluster, time-series database, pending queue,
/// schedulers and pod records. See the crate docs for an example.
#[derive(Debug)]
pub struct Orchestrator {
    cluster: Cluster,
    /// The metrics store, which maintains Listing 1 as it ingests:
    /// captures read a node's measured usage off its window.
    db: Database,
    queue: PendingQueue,
    probes: [Probe; 2],
    /// The master's half of the node table: one ledger per cluster slot.
    ledgers: Ledgers,
    /// Scheduler-name → pipeline resolution for every placement the
    /// orchestrator makes (per-pod routing, drains, rebalancing).
    registry: PolicyRegistry,
    config: OrchestratorConfig,
    records: PodTable,
    events: EventLog,
    /// Placement decisions taken while at least one node's view was
    /// degraded by stale metrics.
    degraded_decisions: u64,
    /// Pods successfully bound (started running) over the orchestrator's
    /// lifetime — the numerator of the online-serving pods-bound/sec
    /// benchmark. Denied-at-init launches are not counted.
    bound_count: u64,
    /// Snapshot captures performed so far.
    /// Observability for the drain regression tests: a whole drain must
    /// cost exactly one capture, not one per evicted pod.
    snapshot_captures: Cell<u64>,
    /// Captures evaluated through the query engine: those whose window
    /// starts below the store window's floor.
    store_captures: Cell<u64>,
    rng: StdRng,
}

/// What the master keeps about one node incarnation. The default is a
/// never-seen node.
#[derive(Debug, Default)]
struct NodeLedger {
    /// The generation of the [`NodeKey`] this ledger describes.
    generation: u32,
    /// Instant the node joined: zero for a node the orchestrator was
    /// built with. Nothing sampled before it describes this node.
    registered_at: SimTime,
    /// Instant the node's metrics last reached the database (scrape
    /// *delivery*, not sampling: a frame lost in transit keeps the node
    /// stale), max-merged so a delayed frame cannot roll it backwards.
    last_scrape: Option<SimTime>,
    /// Recovery epoch: set when a crashed node rejoins with a fresh
    /// (empty-state) kubelet. Until a scrape sampled at or after it is
    /// delivered, the node's view is forced degraded (requests-only) —
    /// whatever the tsdb still holds from before the crash describes
    /// pods that died with the old kubelet — and frames sampled before
    /// it are dropped at ingest for good.
    recovered_at: Option<SimTime>,
}

impl NodeLedger {
    /// Whether the node is under recovery quarantine: it rejoined after
    /// a crash and no scrape sampled since has been delivered.
    fn recovery_pending(&self) -> bool {
        self.recovered_at
            .is_some_and(|epoch| self.last_scrape.is_none_or(|scraped| scraped < epoch))
    }
}

/// The ledgers, indexed by [`NodeKey::index`]. A ledger stamped with
/// another generation than the key asking for it belongs to an earlier
/// incarnation of the slot, and reads as a never-seen node: a fresh
/// incarnation inherits nothing, with no teardown to forget.
#[derive(Debug, Default)]
struct Ledgers(Vec<NodeLedger>);

impl Ledgers {
    /// The ledger of `key`'s incarnation, if anything was recorded.
    fn get(&self, key: NodeKey) -> Option<&NodeLedger> {
        self.0
            .get(key.index())
            .filter(|ledger| ledger.generation == key.generation())
    }

    /// The ledger of `key`'s incarnation, started afresh when the slot
    /// is new or holds a predecessor's.
    fn get_mut(&mut self, key: NodeKey) -> &mut NodeLedger {
        if key.index() >= self.0.len() {
            self.0.resize_with(key.index() + 1, NodeLedger::default);
        }
        let ledger = &mut self.0[key.index()];
        if ledger.generation != key.generation() {
            *ledger = NodeLedger {
                generation: key.generation(),
                ..NodeLedger::default()
            };
        }
        ledger
    }
}

impl Orchestrator {
    /// Builds the cluster from `spec` and wires up the monitoring stack.
    pub fn new(spec: ClusterSpec, config: OrchestratorConfig) -> Self {
        Orchestrator {
            cluster: Cluster::build(&spec),
            db: Database::new(),
            queue: PendingQueue::new(),
            probes: Probe::default_pair(),
            ledgers: Ledgers::default(),
            registry: PolicyRegistry::builtin(),
            rng: seeded_rng(derive_seed(config.seed, "orchestrator")),
            config,
            records: PodTable::default(),
            events: EventLog::with_capacity(100_000),
            degraded_decisions: 0,
            bound_count: 0,
            snapshot_captures: Cell::new(0),
            store_captures: Cell::new(0),
        }
    }

    /// The cluster event stream (`kubectl get events`).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The control-loop configuration.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// Read access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the cluster (e.g. to toggle driver enforcement).
    ///
    /// Edits made here need no bookkeeping: every capture derives every
    /// worker's view from the cluster afresh.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The key of a registered node, for the name-taking entry points.
    fn key(&self, name: &NodeName) -> Result<NodeKey, ClusterError> {
        self.cluster
            .key_of(name)
            .ok_or_else(|| ClusterError::UnknownNode(name.clone()))
    }

    /// A registered node and its key, for the name-taking entry points.
    fn node_mut(&mut self, name: &NodeName) -> Result<(NodeKey, &mut Node), ClusterError> {
        let key = self.key(name)?;
        Ok((
            key,
            self.cluster.get_mut(key).expect("a key just looked up"),
        ))
    }

    /// The ledger of the node registered under `name`, if it has one.
    fn ledger_of(&self, name: &NodeName) -> Option<&NodeLedger> {
        self.ledgers.get(self.cluster.key_of(name)?)
    }

    /// Read access to the time-series database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The pending queue.
    pub fn queue(&self) -> &PendingQueue {
        &self.queue
    }

    /// Pods successfully bound (started running) since construction.
    /// Monotonic; denied-at-init launches are excluded.
    pub fn bound_count(&self) -> u64 {
        self.bound_count
    }

    /// All pod records, indexed by uid.
    pub fn records(&self) -> &PodTable {
        &self.records
    }

    /// One pod's record.
    pub fn record(&self, uid: PodUid) -> Option<&PodRecord> {
        self.records.get(uid)
    }

    /// Ends the run and hands over what it leaves behind: every pod's
    /// record and the retained event stream, oldest first. Nothing is
    /// copied — the records move out and the event log's ring buffer
    /// becomes the `Vec` in place — and the cluster, the store and the
    /// queue are freed before this returns.
    pub fn into_history(self) -> (PodTable, Vec<ClusterEvent>) {
        (self.records, self.events.into_vec())
    }

    /// Toggles the driver-side EPC limit enforcement on every SGX node
    /// (the Fig. 11 experiment switch).
    pub fn set_enforce_limits(&mut self, enforce: bool) {
        for node in self.cluster.nodes_mut() {
            if let Some(driver) = node.driver_mut() {
                driver.set_enforce_limits(enforce);
            }
        }
    }

    /// Submits a pod (§IV step Ê): assigns a uid and enqueues it, or
    /// marks it permanently unschedulable when its requests exceed every
    /// node's total capacity.
    pub fn submit(&mut self, spec: PodSpec, now: SimTime) -> PodUid {
        let uid = self.records.next_uid();

        // Walked directly over the cluster: admission only needs static
        // capacities, so capturing (and staleness-stamping) a full
        // snapshot per submission would cost O(nodes) for nothing —
        // ruinous at autoscaled cluster sizes. The walk short-circuits on
        // the first node that could ever hold the pod.
        let req = spec.resources.requests;
        let unschedulable = !self.cluster.workers().any(|n| {
            req.memory <= n.allocatable_memory()
                && req.epc_pages <= n.allocatable_epc()
                && (!req.needs_sgx() || !n.allocatable_epc().is_zero())
        });
        self.records.push(PodRecord {
            uid,
            name: spec.name.clone(),
            needs_sgx: spec.needs_sgx(),
            mem_request: spec.resources.requests.memory,
            epc_request: spec.resources.requests.epc_pages,
            submitted_at: now,
            started_at: None,
            finished_at: None,
            outcome: if unschedulable {
                PodOutcome::Unschedulable
            } else {
                PodOutcome::Pending
            },
        });
        if unschedulable {
            self.events.record(now, EventKind::Unschedulable { uid });
        } else {
            self.events.record(now, EventKind::Submitted { uid });
            let needs = self.needs_of(&spec);
            self.queue.enqueue(uid, spec, now, needs);
        }
        uid
    }

    /// What the pipeline `spec` resolves to needs of any node it places
    /// the pod on: what the pending queue skips the pod by. The registry
    /// and the default scheduler are fixed at construction, so the
    /// answer at enqueue is the answer at every later pass.
    fn needs_of(&self, spec: &PodSpec) -> Free {
        self.registry
            .resolve(spec.scheduler.as_deref(), &self.config.default_scheduler)
            .needs(spec)
            .free
    }

    /// One scheduling pass (§IV steps Ì–Î): freeze a [`ClusterSnapshot`],
    /// open a [`SchedulingCycle`] over it, walk pending pods in FCFS
    /// order, place each through its resolved pipeline and bind.
    ///
    /// Pods no pipeline can place stay queued for the next pass, in
    /// their FCFS slots. Pods whose enclave the driver denies are
    /// recorded as [`PodOutcome::Denied`] and leave the queue — they
    /// were launched and killed.
    ///
    /// The queue walks its slots in place and offers a pod to its
    /// pipeline only when the most free capacity any node of the cycle
    /// still has covers what the pipeline needs of a node: a pass costs
    /// what it can place, not what waits.
    pub fn scheduler_pass(&mut self, now: SimTime) -> Vec<BindOutcome> {
        self.pass(now, PendingQueue::walk)
    }

    /// One scheduling pass whose queue is walked by `walk`.
    fn pass(
        &mut self,
        now: SimTime,
        walk: fn(&mut PendingQueue, &mut SchedulingCycle, &mut Offer<'_>),
    ) -> Vec<BindOutcome> {
        // Captured even for an empty queue: the capture trims the window.
        // The cycle — a copy of every view plus its tier index — is not.
        let snapshot = self.capture_snapshot(now);
        if self.queue.is_empty() {
            return Vec::new();
        }
        let view_degraded = snapshot.any_degraded();
        let mut cycle = SchedulingCycle::new(snapshot);
        let mut outcomes = Vec::new();
        let Orchestrator {
            cluster,
            queue,
            registry,
            config,
            records,
            events,
            degraded_decisions,
            bound_count,
            rng,
            ..
        } = self;
        let default_pipeline = registry.resolve(None, &config.default_scheduler);

        walk(queue, &mut cycle, &mut |cycle, pending| {
            let routed;
            let pipeline: &PolicyPipeline = match pending.spec.scheduler.as_deref() {
                None => &default_pipeline,
                Some(name) => {
                    routed = registry.resolve(Some(name), &config.default_scheduler);
                    &routed
                }
            };

            let Some(node_name) = cycle.place(pipeline, &pending.spec) else {
                return false; // FCFS retry next pass
            };

            let key = cluster
                .key_of(&node_name)
                .expect("view only contains cluster nodes");
            let node = cluster.get_mut(key).expect("a key just looked up");
            let started = node.run_pod(pending.uid, pending.spec.clone(), now, rng);
            match started {
                Ok(report) => {
                    let started_at = now + report.startup_delay;
                    let record = records
                        .get_mut(pending.uid)
                        .expect("every queued pod has a record");
                    record.started_at = Some(started_at);
                    if report.denied.is_some() {
                        record.finished_at = Some(started_at);
                        record.outcome = PodOutcome::Denied {
                            node: node_name.clone(),
                        };
                        events.record(
                            now,
                            EventKind::DeniedAtInit {
                                uid: pending.uid,
                                node: node_name.clone(),
                            },
                        );
                    } else {
                        record.outcome = PodOutcome::Running {
                            node: node_name.clone(),
                        };
                        *bound_count += 1;
                        events.record(
                            now,
                            EventKind::Scheduled {
                                uid: pending.uid,
                                node: node_name.clone(),
                            },
                        );
                        cycle.reserve(&node_name, &pending.spec);
                    }
                    let slowdown_at_start = cluster.get(key).map_or(1.0, Node::current_slowdown);
                    if view_degraded {
                        *degraded_decisions += 1;
                    }
                    outcomes.push(BindOutcome {
                        uid: pending.uid,
                        node: node_name,
                        report,
                        spec_duration: pending.spec.duration,
                        slowdown_at_start,
                    });
                    true
                }
                Err(_) => {
                    // The Kubelet refused (a race between snapshot and
                    // node state). The pod never landed, so charging the
                    // node a reservation would fabricate occupancy that
                    // outlives the refusal; exclude the node for the rest
                    // of the pass; the next pass captures it afresh. The
                    // pod stays queued and retries then.
                    cycle.mark_infeasible(&node_name);
                    false
                }
            }
        });
        outcomes
    }

    /// One probe pass (§V-C): every probe scrapes every node it targets
    /// and the rows go into the database, window and all; retention is
    /// enforced. Equal in effect to delivering
    /// [`scrape_frames`](Self::scrape_frames) through
    /// [`ingest_frame`](Self::ingest_frame), without the frames: a row is
    /// never named, and a pod the store's window still holds is appended
    /// by series id ([`Database::scrape`]).
    pub fn probe_pass(&mut self, now: SimTime) {
        for probe in &self.probes {
            let measurement = probe.measurement();
            let targets = self.cluster.entries().filter(|(_, n)| probe.targets(n));
            for (key, node) in targets {
                let ledger = self.ledgers.get_mut(key);
                // Delivered inline, sampled now: the scrape proves the
                // node's probe alive, idle or not.
                ledger.last_scrape = ledger.last_scrape.max(Some(now));
                let mut rows = self.db.scrape(node.name().as_str(), measurement, now);
                probe.scrape(node, |pod, used| {
                    rows.append(pod.pod_name(), used.as_bytes() as f64);
                });
            }
        }
        self.enforce_metrics_retention(now);
    }

    /// Scrapes every node into per-node frames *without* delivering
    /// them — probe-major, in exactly the order [`probe_pass`] inserts, so
    /// delivering every frame inline via [`ingest_frame`] reproduces a
    /// lossless pass bit for bit. Empty frames are included: a scrape of
    /// an idle node still proves the node's probes are alive.
    ///
    /// [`probe_pass`]: Self::probe_pass
    /// [`ingest_frame`]: Self::ingest_frame
    pub fn scrape_frames(&self, now: SimTime) -> Vec<(NodeName, PointBatch)> {
        let mut frames = Vec::new();
        for probe in &self.probes {
            for node in self.cluster.nodes().filter(|node| probe.targets(node)) {
                frames.push((node.name().clone(), probe.sample_batch(node, now)));
            }
        }
        frames
    }

    /// Delivers one scrape frame into the database and refreshes the
    /// node's metrics freshness. `scraped_at` is the instant the frame
    /// was sampled — a delayed frame arriving after a newer one must not
    /// roll freshness backwards, so the stamp is max-merged.
    ///
    /// A frame that describes no registered node is void: one for a name
    /// no node holds now, or sampled before the holder registered (a
    /// predecessor of the same name) or before its last recovery (the
    /// pre-crash kubelet). Its pods are gone, and its delivery proves
    /// nothing about the node that holds the name now; admitting it would
    /// resurrect their series and phantom occupancy, and stamp freshness.
    pub fn ingest_frame(&mut self, node: &NodeName, batch: &PointBatch, scraped_at: SimTime) {
        let Some(key) = self.cluster.key_of(node) else {
            return;
        };
        let ledger = self.ledgers.get_mut(key);
        let epoch = ledger.recovered_at.unwrap_or_default();
        if scraped_at < ledger.registered_at.max(epoch) {
            return;
        }
        ledger.last_scrape = ledger.last_scrape.max(Some(scraped_at));
        self.db.insert_batch(batch);
    }

    /// Enforces the database retention window, as the tail of a probe
    /// tick does. Split out for transports that deliver frames
    /// themselves.
    pub fn enforce_metrics_retention(&mut self, now: SimTime) {
        self.db.enforce_retention(now, self.config.retention);
    }

    /// Age of a node's last delivered scrape, `None` if never scraped.
    pub fn metrics_age(&self, node: &NodeName, now: SimTime) -> Option<SimDuration> {
        let scraped = self.ledger_of(node)?.last_scrape?;
        Some(now.saturating_since(scraped))
    }

    /// Whether a node is under recovery quarantine: it rejoined after a
    /// crash and no scrape sampled since has been delivered, so its view
    /// is forced degraded regardless of scrape age. Part of the staleness
    /// rule — exposed so external from-scratch oracles can reproduce it.
    pub fn recovery_pending(&self, node: &NodeName) -> bool {
        self.ledger_of(node)
            .is_some_and(NodeLedger::recovery_pending)
    }

    /// Placement decisions taken while stale metrics had degraded at
    /// least one node's view.
    pub fn degraded_decisions(&self) -> u64 {
        self.degraded_decisions
    }

    /// Completes a running pod: terminates it on its node and closes its
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPod`] if the pod is not running.
    pub fn complete_pod(&mut self, uid: PodUid, now: SimTime) -> Result<(), ClusterError> {
        let record = self
            .records
            .get_mut(uid)
            .ok_or(ClusterError::UnknownPod(uid))?;
        let PodOutcome::Running { node } = record.outcome.clone() else {
            return Err(ClusterError::UnknownPod(uid));
        };
        let key = self
            .cluster
            .key_of(&node)
            .ok_or_else(|| ClusterError::UnknownNode(node.clone()))?;
        self.cluster
            .get_mut(key)
            .expect("a key just looked up")
            .terminate_pod(uid)?;
        record.finished_at = Some(now);
        record.outcome = PodOutcome::Completed { node: node.clone() };
        self.events.record(now, EventKind::Completed { uid, node });
        Ok(())
    }

    /// Freezes the immutable per-pass [`ClusterSnapshot`] the scheduling
    /// framework consumes: every worker (cordoned ones included, flagged
    /// for the cordon filter), effective occupancy from Listing 1,
    /// staleness annotated against the configured threshold.
    ///
    /// A capture is one name-ordered walk over the workers, merged with
    /// the nodes the store's window lists (name-ordered too, so no name
    /// is looked up): capacities, requests and cordon flag come from the
    /// cluster, measured usage is read off the window, where Listing 1 is
    /// maintained as samples arrive (a node the window does not list
    /// measures zero), and staleness from the ledger. Nothing is kept
    /// between captures, so no mutator has anything to invalidate. Only a
    /// window that starts below the window's floor — a capture stepping
    /// back in time, or a retention shorter than the window — is
    /// evaluated through the query engine ([`ClusterSnapshot::capture`]).
    /// Bit-identical to that from-scratch capture for every `now`
    /// (property-tested in `tests/snapshot_incremental.rs`).
    pub fn capture_snapshot(&self, now: SimTime) -> ClusterSnapshot {
        self.snapshot_captures.set(self.snapshot_captures.get() + 1);
        let window = self.config.metrics_window;
        // `time >= now() - window`, resolved as the query engine does.
        let lo = TimeBound::SinceNowMinus(window).resolve(now);
        if lo < self.db.window().floor() {
            self.store_captures.set(self.store_captures.get() + 1);
            let mut snapshot = ClusterSnapshot::capture(&self.cluster, &self.db, now, window);
            snapshot.update(now, |_, views| {
                for ((key, _), view) in self.workers().zip(views) {
                    self.stamp_staleness(key, view, now);
                }
            });
            return snapshot;
        }
        let snapshot = {
            let listing1 = self.db.window();
            let mut listed = listing1.groups().peekable();
            let workers = self.workers().map(|(key, node)| {
                let name = node.name().as_str();
                while listed.next_if(|&group| group < name).is_some() {}
                let (memory, epc) = if listed.next_if_eq(&name).is_some() {
                    let measured = |m| measured_bytes(listing1.sum_of_max(name, m, lo));
                    (measured(MEASUREMENT_MEMORY), measured(MEASUREMENT_EPC))
                } else {
                    (ByteSize::ZERO, ByteSize::ZERO)
                };
                let mut view = view_of(node, memory, epc);
                self.stamp_staleness(key, &mut view, now);
                (node.name().clone(), view)
            });
            ClusterSnapshot::from_sorted(now, workers)
        };
        // No later capture on this path admits a sample below `lo`.
        self.db.trim_window(lo);
        snapshot
    }

    /// The workers and their keys, in name order: a snapshot's slots.
    fn workers(&self) -> impl Iterator<Item = (NodeKey, &Node)> {
        self.cluster
            .entries()
            .filter(|(_, node)| node.role() == NodeRole::Worker)
    }

    /// Stamps a worker's view with the staleness rule of
    /// [`metrics_age`](Self::metrics_age) and
    /// [`recovery_pending`](Self::recovery_pending): degraded once its
    /// last delivered scrape is strictly older than the threshold (a
    /// never-scraped node stays fresh), or while under recovery
    /// quarantine however fresh its pre-crash stamp still looks — nothing
    /// delivered since the kubelet rebooted, so measured usage is hearsay
    /// about pods that died with the crash. The epoch persists past the
    /// lifting scrape on purpose: clearing it would make frame delivery
    /// order-sensitive (a post-recovery frame clearing it would re-admit
    /// a later-arriving pre-crash frame).
    fn stamp_staleness(&self, key: NodeKey, view: &mut NodeView, now: SimTime) {
        let ledger = self.ledgers.get(key);
        let age = ledger
            .and_then(|l| l.last_scrape)
            .map(|scraped| now.saturating_since(scraped));
        view.metrics_age = age;
        view.degraded = age.is_some_and(|age| age > self.config.staleness_threshold)
            || ledger.is_some_and(NodeLedger::recovery_pending);
    }

    /// Size and work counters of the store's Listing-1 window that
    /// captures read: nodes still holding in-window samples, samples
    /// held, and samples the captures have folded so far.
    pub fn window_rollup_stats(&self) -> tsdb::RollupStats {
        self.db.window().stats()
    }

    /// Snapshot captures performed so far, whichever way evaluated —
    /// observability for the capture-cost regressions (a whole drain
    /// must cost exactly one).
    pub fn snapshot_captures(&self) -> u64 {
        self.snapshot_captures.get()
    }

    /// Cross-checks the orchestrator's bookkeeping against the cluster:
    /// the implementation-side invariant hooks the model-checker's
    /// conformance harness audits after every replayed trace event.
    /// Returns human-readable violations; empty means consistent.
    ///
    /// * **No EPC/memory oversubscription by requests** — admission's
    ///   contract: each node's admitted requests fit its allocatable
    ///   capacity.
    /// * **No pod lost or double-bound** — every record agrees with node
    ///   residency and the pending queue: a `Running` pod is resident on
    ///   exactly its recorded node and nowhere else, a `Pending` pod is
    ///   queued and resident nowhere, terminal pods hold nothing, and no
    ///   node hosts a pod without a record.
    pub fn audit_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for node in self.cluster.nodes() {
            if node.epc_requested() > node.allocatable_epc() {
                violations.push(format!(
                    "node {} EPC oversubscribed: {} requested > {} allocatable",
                    node.name(),
                    node.epc_requested(),
                    node.allocatable_epc()
                ));
            }
            if node.memory_requested() > node.allocatable_memory() {
                violations.push(format!(
                    "node {} memory oversubscribed: {} requested > {} allocatable",
                    node.name(),
                    node.memory_requested(),
                    node.allocatable_memory()
                ));
            }
        }
        let queued: BTreeSet<PodUid> = self.queue.iter().map(|p| p.uid).collect();
        let mut residency: BTreeMap<PodUid, Vec<&NodeName>> = BTreeMap::new();
        for node in self.cluster.nodes() {
            for uid in node.pods().keys() {
                residency.entry(*uid).or_default().push(node.name());
            }
        }
        for (uid, nodes) in &residency {
            if nodes.len() > 1 {
                violations.push(format!("pod {uid} double-bound: resident on {nodes:?}"));
            }
            if !self.records.contains_key(*uid) {
                violations.push(format!("pod {uid} resident on {nodes:?} without a record"));
            }
        }
        for (uid, record) in self.records.iter() {
            let resident = residency.get(uid).map(Vec::as_slice).unwrap_or_default();
            match &record.outcome {
                PodOutcome::Running { node } => {
                    if resident != [node] {
                        violations.push(format!(
                            "pod {uid} recorded running on {node} but resident on {resident:?}"
                        ));
                    }
                    if queued.contains(uid) {
                        violations.push(format!("pod {uid} running but still queued"));
                    }
                }
                PodOutcome::Pending => {
                    if !resident.is_empty() {
                        violations.push(format!(
                            "pod {uid} recorded pending but resident on {resident:?}"
                        ));
                    }
                    if !queued.contains(uid) {
                        violations.push(format!("pod {uid} pending but missing from the queue"));
                    }
                }
                PodOutcome::Completed { .. }
                | PodOutcome::Denied { .. }
                | PodOutcome::Unschedulable => {
                    if !resident.is_empty() {
                        violations.push(format!("pod {uid} terminal but resident on {resident:?}"));
                    }
                    if queued.contains(uid) {
                        violations.push(format!("pod {uid} terminal but still queued"));
                    }
                }
            }
        }
        violations
    }

    /// Live-migrates a running pod to another node (§VIII): its enclave is
    /// checkpointed under a key agreed over an attested channel, shipped
    /// across the cluster network, and restored exactly once on the
    /// target. Returns the migration latency.
    ///
    /// If the target refuses the pod (admission race), it is restored on
    /// its source node — the snapshot is single-use but handed back on
    /// failure — and the refusal is returned as the error.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownPod`] — the pod is not running.
    /// * [`ClusterError::UnknownNode`] — no such target.
    /// * Any admission error from the target node.
    pub fn migrate_pod(
        &mut self,
        uid: PodUid,
        target: &NodeName,
        now: SimTime,
    ) -> Result<SimDuration, ClusterError> {
        let record = self.records.get(uid).ok_or(ClusterError::UnknownPod(uid))?;
        let PodOutcome::Running { node: source } = record.outcome.clone() else {
            return Err(ClusterError::UnknownPod(uid));
        };
        let to = self.key(target)?;
        if &source == target {
            return Ok(SimDuration::ZERO);
        }
        let from = self.key(&source)?;

        // Key agreement over the attested channel between the two CPUs.
        let platform = |key| self.cluster.get(key).and_then(Node::platform).unwrap_or(0);
        let key =
            sgx_sim::migration::MigrationKey::derive(platform(from), platform(to), uid.as_u64());

        let (spec, checkpoint) = self
            .cluster
            .get_mut(from)
            .expect("looked up above")
            .migrate_out(uid, key)?;

        let attempt = self
            .cluster
            .get_mut(to)
            .expect("looked up above")
            .migrate_in(uid, spec.clone(), checkpoint, key, now);
        match attempt {
            Ok(delay) => {
                self.records.get_mut(uid).expect("record exists").outcome = PodOutcome::Running {
                    node: target.clone(),
                };
                self.events.record(
                    now,
                    EventKind::Migrated {
                        uid,
                        from: source,
                        to: target.clone(),
                    },
                );
                Ok(delay)
            }
            Err(refusal) => {
                // Roll back: the source just freed this capacity, so the
                // pod always fits back where it came from. A cordon keeps
                // new pods off a node, not its own pod returning — and a
                // drain cordons the source before it migrates anything.
                let source = self.cluster.get_mut(from).expect("source exists");
                let cordoned = source.is_cordoned();
                source.set_cordoned(false);
                let restored = source.migrate_in(uid, spec, refusal.checkpoint, key, now);
                source.set_cordoned(cordoned);
                restored.expect("the source node must re-admit its own pod");
                Err(refusal.cause)
            }
        }
    }

    /// Simulates a node crash: every pod on the node dies instantly, and
    /// — as a Kubernetes controller would recreate them — each crashed
    /// pod's spec is re-submitted to the pending queue (keeping its
    /// original uid and submission time, so waiting-time accounting spans
    /// the whole ordeal). The node itself is cordoned until
    /// [`recover_node`](Self::recover_node). Returns the crashed pods.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown nodes.
    pub fn fail_node(
        &mut self,
        name: &NodeName,
        now: SimTime,
    ) -> Result<Vec<PodUid>, ClusterError> {
        let (key, node) = self.node_mut(name)?;
        node.set_cordoned(true);
        let victims = self.evict(key);
        self.events.record(
            now,
            EventKind::NodeFailed {
                node: name.clone(),
                pods: victims.len(),
            },
        );
        Ok(victims)
    }

    /// Terminates every pod on a node and requeues each at its original
    /// submission time — what a controller recreating the pods a crash or
    /// a removal killed does, in one merge into the queue. Returns the
    /// evicted uids, ascending.
    fn evict(&mut self, key: NodeKey) -> Vec<PodUid> {
        let node = self.cluster.get_mut(key).expect("evicting a live node");
        let victims: Vec<PodUid> = node.pods().keys().copied().collect();
        let mut requeued = Vec::with_capacity(victims.len());
        for &uid in &victims {
            let pod = node.terminate_pod(uid).expect("listed above");
            let record = self
                .records
                .get_mut(uid)
                .expect("running pods have records");
            record.outcome = PodOutcome::Pending;
            record.started_at = None;
            record.finished_at = None;
            requeued.push(PendingPod {
                uid,
                spec: pod.spec,
                submitted_at: record.submitted_at,
            });
        }
        let requeued = requeued
            .into_iter()
            .map(|pod| {
                let needs = self.needs_of(&pod.spec);
                (pod, needs)
            })
            .collect();
        self.queue.requeue(requeued);
        victims
    }

    /// Brings a crashed node back: a fresh Kubelet registers with empty
    /// state (uncordoned); queued pods may land on it again next pass.
    ///
    /// The node re-enters under *recovery quarantine*: anything the tsdb
    /// still holds for it inside the staleness window was sampled from
    /// the kubelet that crashed — pods that no longer exist — so trusting
    /// it would schedule against phantom effective occupancy. Until the
    /// first scrape sampled at or after this instant is delivered, the
    /// node's view is forced degraded (requests-only accounting) and
    /// pre-recovery frames still in flight are dropped at ingest.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown nodes.
    pub fn recover_node(&mut self, name: &NodeName, now: SimTime) -> Result<(), ClusterError> {
        self.uncordon_node(name, now)?;
        let key = self.key(name)?;
        self.ledgers.get_mut(key).recovered_at = Some(now);
        Ok(())
    }

    /// Drains a node for maintenance: cordons it (no new pods) and
    /// live-migrates every running pod to the best node the binpack
    /// policy can find. Pods with no feasible target stay put (the node
    /// remains cordoned; retry after capacity frees up). Returns the
    /// migrations performed.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown nodes.
    pub fn drain_node(
        &mut self,
        name: &NodeName,
        now: SimTime,
    ) -> Result<Vec<Migration>, ClusterError> {
        let (_, node) = self.node_mut(name)?;
        node.set_cordoned(true);
        let pods: Vec<(PodUid, PodSpec)> = node
            .pods()
            .values()
            .map(|p| (p.uid, p.spec.clone()))
            .collect();
        self.events
            .record(now, EventKind::NodeCordoned { node: name.clone() });

        let pipeline = self
            .registry
            .by_name(SGX_BINPACK)
            .expect("builtin registry has sgx-binpack");
        let mut moves = Vec::new();
        // One frozen snapshot and one working-copy cycle cover the whole
        // drain: every accepted migration reserves its target in the
        // cycle, so later pods see the occupancy exactly as a re-capture
        // would have shown it (measured usage cannot change mid-drain —
        // nothing writes the database here). Re-capturing per pod forced
        // the snapshot's COW path under the still-open cycle and made
        // drains O(pods × capture) for identical decisions.
        let mut cycle = SchedulingCycle::new(self.capture_snapshot(now));
        for (uid, spec) in pods {
            // The snapshot includes the cordoned source node, but the
            // pipeline's cordon filter rejects it, so placement naturally
            // avoids it.
            let Some(target) = cycle.place(&pipeline, &spec) else {
                continue; // no room anywhere right now
            };
            match self.migrate_pod(uid, &target, now) {
                Ok(delay) => {
                    cycle.reserve(&target, &spec);
                    moves.push(Migration {
                        uid,
                        from: name.clone(),
                        to: target,
                        delay,
                    });
                }
                // The target kubelet refused (snapshot/state race): the
                // pod stayed put, so a reservation would fabricate
                // occupancy. Exclude the node for the rest of the drain.
                Err(_) => cycle.mark_infeasible(&target),
            }
        }
        Ok(moves)
    }

    /// Registers a new worker node at runtime — the autoscaler's
    /// scale-up path (a kubelet joining the cluster).
    ///
    /// The node gets a fresh key, so nothing a previous holder of the name
    /// left in the node table reaches it, and `now` is its registration
    /// instant: a frame sampled before it is void at
    /// [`ingest_frame`](Self::ingest_frame). Whatever the tsdb still holds
    /// under the name, window included, is dropped (a name retired through
    /// [`cluster_mut`](Self::cluster_mut) left it there).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NodeAlreadyRegistered`] when a node of
    /// this name is currently registered.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        spec: MachineSpec,
        now: SimTime,
    ) -> Result<NodeName, ClusterError> {
        let name = self.cluster.add_node(name, spec, NodeRole::Worker)?;
        let key = self.cluster.key_of(&name).expect("just registered");
        self.ledgers.get_mut(key).registered_at = now;
        self.db
            .drop_series_with_first_tag("nodename", name.as_str());
        self.events
            .record(now, EventKind::NodeAdded { node: name.clone() });
        Ok(name)
    }

    /// Deregisters a node — the autoscaler's scale-down path: drain,
    /// then evict, then deregister.
    ///
    /// The node is first drained ([`drain_node`](Self::drain_node)):
    /// cordoned and every pod the binpack pipeline can place elsewhere
    /// live-migrated. Pods with no feasible target anywhere are then
    /// evicted back to the pending queue at their original submit times
    /// (the controller-recreates semantics node failure uses), so no pod
    /// is ever lost to a removal. Deregistering retires the node's key,
    /// and with it everything the node table held for it; the node's
    /// tsdb series and window are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown nodes. The
    /// master is refused with [`ClusterError::NodeUnschedulable`].
    pub fn remove_node(
        &mut self,
        name: &NodeName,
        now: SimTime,
    ) -> Result<NodeRemoval, ClusterError> {
        let (key, node) = self.node_mut(name)?;
        if node.role() != NodeRole::Worker {
            return Err(ClusterError::NodeUnschedulable(name.clone()));
        }
        let migrations = self.drain_node(name, now)?;
        let requeued = self.evict(key);
        self.cluster.remove_node(name);
        self.db
            .drop_series_with_first_tag("nodename", name.as_str());
        self.events.record(
            now,
            EventKind::NodeRemoved {
                node: name.clone(),
                pods: requeued.len(),
            },
        );
        Ok(NodeRemoval {
            migrations,
            requeued,
        })
    }

    /// Un-cordons a previously drained node.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for unknown nodes.
    pub fn uncordon_node(&mut self, name: &NodeName, now: SimTime) -> Result<(), ClusterError> {
        let (_, node) = self.node_mut(name)?;
        node.set_cordoned(false);
        self.events
            .record(now, EventKind::NodeUncordoned { node: name.clone() });
        Ok(())
    }

    /// The requested-EPC load of every uncordoned SGX node, in name
    /// order, a capacity reading as at least one page: the node set the
    /// rebalancer moves load between, and so the one
    /// [`epc_imbalance`](Self::epc_imbalance) measures.
    fn epc_loads(&self) -> impl Iterator<Item = (&Node, Load)> {
        self.cluster.sgx_nodes().map(|node| {
            let capacity = node.allocatable_epc().count().max(1);
            (node, Load::new(node.epc_requested().count(), capacity))
        })
    }

    /// Current EPC-load imbalance across the *uncordoned* SGX nodes: the
    /// spread between the most- and least-loaded node's requested-EPC
    /// fraction of capacity, in `[0, 1]`. Zero with fewer than two such
    /// nodes. This is the quantity [`rebalance_epc`](Self::rebalance_epc)
    /// drives below its threshold — and it must be measured over the
    /// same node set the rebalancer can move load between: a cordoned
    /// node can neither receive pods nor have them taken by the
    /// rebalancer, so counting it would arm rebalance passes that can
    /// never reduce what they measure (during a drain window, forever).
    /// The extremes are picked exactly; the float is the reported value.
    pub fn epc_imbalance(&self) -> f64 {
        let fraction = |load: Load| load.requested() as f64 / load.capacity() as f64;
        extremes(self.epc_loads().map(|(_, load)| load))
            .map_or(0.0, |(lo, hi)| fraction(hi) - fraction(lo))
    }

    /// One EPC rebalancing pass — the paper's closing future-work idea:
    /// "a globally optimized EPC utilisation through the migration of
    /// enclaves". Moves SGX pods from the most- to the least-loaded SGX
    /// node while the requested-EPC imbalance exceeds `threshold`
    /// (a fraction of capacity, read as the exact value of the `f64`: a
    /// NaN or +∞ threshold is never exceeded, a negative one always is).
    /// Every decision is taken in integers. Returns the migrations
    /// performed.
    #[deny(clippy::float_arithmetic)]
    pub fn rebalance_epc(&mut self, now: SimTime, threshold: f64) -> Vec<Migration> {
        let mut moves = Vec::new();
        loop {
            let mut loads: Vec<(&Node, Load)> = self.epc_loads().collect();
            if loads.len() < 2 {
                return moves;
            }
            // Stable: among equal loads the coldest is the lowest name and
            // the hottest the highest.
            loads.sort_by(|a, b| a.1.cmp(&b.1));
            let (cold, cold_load) = loads[0];
            let (hot, hot_load) = loads[loads.len() - 1];
            let spread = hot_load.minus(cold_load);
            let armed = spread > threshold;
            if !armed {
                return moves;
            }
            // The largest pod on the hottest node that fits the coldest by
            // requests and does not overshoot the balance point. The gap is
            // rounded *up* to at least one page: truncation would read as
            // zero on small-EPC nodes and stall the loop above the
            // threshold. Being an SGX node and uncordoned, the coldest
            // passes every other filter the scheduler would apply.
            let gap = hot_load.half_gap(cold_load).max(1);
            let room = cold.allocatable_epc().saturating_sub(cold.epc_requested());
            let candidate = hot
                .pods()
                .values()
                .map(|p| (p.uid, p.spec.resources.requests.epc_pages.count()))
                .filter(|&(_, pages)| {
                    pages > 0 && pages <= room.count() && u128::from(pages) <= gap
                })
                .max_by_key(|&(_, pages)| pages);
            let Some((uid, pages)) = candidate else {
                return moves;
            };
            // The move must strictly shrink the spread; with the one-page
            // minimum a move could otherwise overshoot and ping-pong the
            // same pod between two nearly balanced tiny nodes forever.
            let moved = [
                Load::new(cold_load.requested() + pages, cold_load.capacity()),
                Load::new(hot_load.requested() - pages, hot_load.capacity()),
            ];
            let others = loads[1..loads.len() - 1].iter().map(|&(_, load)| load);
            let (lo, hi) = extremes(others.chain(moved)).expect("two loads moved");
            if hi.minus(lo).cmp(&spread).is_ge() {
                return moves;
            }
            let (from, to) = (hot.name().clone(), cold.name().clone());
            let Ok(delay) = self.migrate_pod(uid, &to, now) else {
                return moves;
            };
            moves.push(Migration {
                uid,
                from,
                to,
                delay,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DEFAULT_SCHEDULER, SGX_SPREAD};
    use proptest::prelude::*;
    use sgx_sim::units::ByteSize;
    use stress::Stressor;
    use tsdb::TagSet;

    fn orchestrator() -> Orchestrator {
        Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper())
    }

    fn sgx_spec(name: &str, mib: u64) -> PodSpec {
        PodSpec::builder(name)
            .sgx_resources(ByteSize::from_mib(mib))
            .duration(SimDuration::from_secs(30))
            .build()
    }

    /// Declares one EPC page, commits half a node's EPC (§VI-F).
    fn under_declaring_spec() -> PodSpec {
        PodSpec::builder("malicious")
            .requirements(cluster::api::ResourceRequirements::exact(
                cluster::api::Resources::with_epc(ByteSize::ZERO, EpcPages::ONE),
            ))
            .stressor(Stressor::malicious(0.5))
            .duration(SimDuration::from_secs(1000))
            .build()
    }

    #[test]
    fn submit_schedule_complete_lifecycle() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("a", 16), SimTime::ZERO);
        assert_eq!(orch.queue().len(), 1);
        assert_eq!(orch.record(uid).unwrap().outcome, PodOutcome::Pending);

        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].report.started());
        assert_eq!(outcomes[0].slowdown_at_start, 1.0);
        assert!(orch.queue().is_empty());
        let record = orch.record(uid).unwrap();
        assert!(matches!(record.outcome, PodOutcome::Running { .. }));
        let waiting = record.waiting_time().unwrap();
        assert!(waiting >= SimDuration::from_secs(5)); // queued 5 s + startup

        orch.complete_pod(uid, SimTime::from_secs(60)).unwrap();
        let record = orch.record(uid).unwrap();
        assert!(matches!(record.outcome, PodOutcome::Completed { .. }));
        assert_eq!(record.turnaround(), Some(SimDuration::from_secs(60)));
    }

    #[test]
    fn a_pass_with_nothing_pending_captures_but_opens_no_cycle() {
        let mut spec = ClusterSpec::new();
        for i in 0..1_000 {
            spec = spec.with_node(
                format!("node-{i:04}"),
                cluster::machine::MachineSpec::sgx_node(),
                NodeRole::Worker,
            );
        }
        let mut orch = Orchestrator::new(spec, OrchestratorConfig::paper());
        let before = orch.snapshot_captures();
        assert!(orch.scheduler_pass(SimTime::from_secs(5)).is_empty());
        // The capture still ran: it is what trims the store's window.
        assert_eq!(orch.snapshot_captures() - before, 1);
        // And the next pass, with a pod pending, schedules as ever.
        orch.submit(sgx_spec("a", 16), SimTime::from_secs(6));
        assert_eq!(orch.scheduler_pass(SimTime::from_secs(10)).len(), 1);
        assert_eq!(orch.snapshot_captures() - before, 2);
    }

    #[test]
    fn capacity_contention_queues_pods_fcfs() {
        let mut orch = orchestrator();
        // Each node holds 93.5 MiB; three 60 MiB pods need three nodes but
        // only two exist — the third waits.
        for i in 0..3 {
            orch.submit(sgx_spec(&format!("p{i}"), 60), SimTime::ZERO);
        }
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        assert_eq!(outcomes.len(), 2);
        assert_eq!(orch.queue().len(), 1);

        // Completing one frees capacity; the queued pod starts next pass.
        let done = outcomes[0].uid;
        orch.complete_pod(done, SimTime::from_secs(40)).unwrap();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(45));
        assert_eq!(outcomes.len(), 1);
        assert!(orch.queue().is_empty());
    }

    #[test]
    fn refused_and_unplaceable_pods_stay_queued_in_fcfs_order() {
        let mut orch = orchestrator();
        // A foreign pod already runs on sgx-1 under the uid the second
        // submission will get: binding that pod there is refused
        // (`PodAlreadyRunning`) — the snapshot/kubelet race, on demand.
        let squatter = PodSpec::builder("squatter")
            .memory_resources(ByteSize::from_mib(1))
            .build();
        let mut rng = seeded_rng(1);
        orch.cluster_mut()
            .node_mut(&NodeName::new("sgx-1"))
            .unwrap()
            .run_pod(PodUid::new(2), squatter, SimTime::ZERO, &mut rng)
            .unwrap();

        let placed = orch.submit(sgx_spec("placed", 10), SimTime::from_secs(1));
        let refused = orch.submit(sgx_spec("refused", 10), SimTime::from_secs(2));
        let too_big = orch.submit(sgx_spec("too-big", 90), SimTime::from_secs(3));
        let rerouted = orch.submit(sgx_spec("rerouted", 10), SimTime::from_secs(4));
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));

        // binpack: `placed` goes to sgx-1; `refused` is sent there too and
        // bounces, which takes sgx-1 out of the pass; `too-big` fills the
        // empty sgx-2; nothing is left for `rerouted`.
        let bound: Vec<(PodUid, &str)> =
            outcomes.iter().map(|o| (o.uid, o.node.as_str())).collect();
        assert_eq!(bound, [(placed, "sgx-1"), (too_big, "sgx-2")]);
        // `refused` and `rerouted` stay, in submission order, with their
        // requests still accounted.
        let queued: Vec<PodUid> = orch.queue().iter().map(|p| p.uid).collect();
        assert_eq!(queued, [refused, rerouted]);
        assert_eq!(
            orch.queue().epc_requested(),
            EpcPages::from_mib_ceil(10) + EpcPages::from_mib_ceil(10)
        );
        assert_eq!(orch.record(refused).unwrap().outcome, PodOutcome::Pending);
        // No phantom reservation: the next pass sees sgx-1's real state,
        // is refused again for the squatted uid, and places the other pod
        // nowhere (sgx-1 excluded again, sgx-2 full) — order still kept.
        orch.scheduler_pass(SimTime::from_secs(10));
        let queued: Vec<PodUid> = orch.queue().iter().map(|p| p.uid).collect();
        assert_eq!(queued, [refused, rerouted]);
    }

    #[test]
    fn unschedulable_pods_never_enqueue() {
        let mut orch = orchestrator();
        // 100 MiB of EPC fits nowhere (capacity 93.5 MiB per node), and a
        // 100 GiB memory pod exceeds every node.
        let huge_mem = PodSpec::builder("h")
            .memory_resources(ByteSize::from_gib(100))
            .build();
        for spec in [sgx_spec("monster", 100), huge_mem] {
            let uid = orch.submit(spec, SimTime::ZERO);
            assert_eq!(orch.record(uid).unwrap().outcome, PodOutcome::Unschedulable);
            assert!(orch.queue().is_empty());
        }
        let ok = orch.submit(sgx_spec("ok", 50), SimTime::ZERO);
        assert_eq!(orch.record(ok).unwrap().outcome, PodOutcome::Pending);
    }

    #[test]
    fn denied_pods_are_recorded_and_leave_the_queue() {
        let mut orch = orchestrator();
        let uid = orch.submit(under_declaring_spec(), SimTime::ZERO);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].report.started());
        assert!(matches!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Denied { .. }
        ));
        assert!(orch.queue().is_empty());
        // The denied pod's record has equal start and finish instants.
        let r = orch.record(uid).unwrap();
        assert_eq!(r.started_at, r.finished_at);
    }

    #[test]
    fn probe_pass_feeds_the_view() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("a", 20), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        assert_eq!(orch.db().point_count(), 0);
        orch.probe_pass(SimTime::from_secs(10));
        assert!(orch.db().point_count() > 0);
        let view = orch.capture_snapshot(SimTime::from_secs(12));
        let (_, node_view) = view
            .iter()
            .find(|(_, v)| !v.epc_measured.is_zero())
            .expect("one node reports EPC usage");
        assert_eq!(node_view.epc_measured, ByteSize::from_mib(20));
        let _ = uid;
    }

    #[test]
    fn cached_view_matches_direct_capture_across_passes() {
        let mut orch = orchestrator();
        orch.submit(sgx_spec("a", 20), SimTime::ZERO);
        orch.submit(sgx_spec("b", 30), SimTime::ZERO);
        for tick in 1..60 {
            let now = SimTime::from_secs(tick * 5);
            orch.scheduler_pass(now);
            if tick % 2 == 0 {
                orch.probe_pass(now);
            }
            let captured = orch.capture_snapshot(now);
            let direct = ClusterSnapshot::capture(
                orch.cluster(),
                orch.db(),
                now,
                orch.config().metrics_window,
            )
            .with_staleness(orch.config().staleness_threshold, |name| {
                orch.metrics_age(name, now)
            });
            assert_eq!(captured, direct, "diverged at {now}");
        }
        assert!(orch.window_rollup_stats().samples_folded > 0);
    }

    #[test]
    fn per_pod_scheduler_routing() {
        let mut orch = orchestrator();
        // Route one pod through spread, one through the stock scheduler.
        let mut spread = PodSpec::builder("s")
            .sgx_resources(ByteSize::from_mib(10))
            .build();
        spread.scheduler = Some(SGX_SPREAD.to_string());
        let mut stock = PodSpec::builder("d")
            .memory_resources(ByteSize::from_gib(1))
            .build();
        stock.scheduler = Some(DEFAULT_SCHEDULER.to_string());
        orch.submit(spread, SimTime::ZERO);
        orch.submit(stock, SimTime::ZERO);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(1));
        assert_eq!(outcomes.len(), 2);
        // The stock scheduler lands the standard pod on an (empty) SGX
        // node — it does not preserve SGX capacity.
        assert!(outcomes[1].node.as_str().starts_with("sgx"));
    }

    #[test]
    fn completing_a_non_running_pod_errors() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("a", 10), SimTime::ZERO);
        assert!(orch.complete_pod(uid, SimTime::from_secs(1)).is_err());
        assert!(orch
            .complete_pod(PodUid::new(999), SimTime::from_secs(1))
            .is_err());
    }

    #[test]
    fn migrate_pod_moves_enclaves_between_nodes() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("svc", 20), SimTime::ZERO);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let source = outcomes[0].node.clone();
        let target = if source.as_str() == "sgx-1" {
            NodeName::new("sgx-2")
        } else {
            NodeName::new("sgx-1")
        };

        let delay = orch
            .migrate_pod(uid, &target, SimTime::from_secs(10))
            .unwrap();
        assert!(delay > SimDuration::from_millis(100));
        assert_eq!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Running {
                node: target.clone()
            }
        );
        // Resources moved with the pod.
        assert_eq!(
            orch.cluster().node(&source).unwrap().epc_committed(),
            EpcPages::ZERO
        );
        assert_eq!(
            orch.cluster().node(&target).unwrap().epc_committed(),
            EpcPages::from_mib_ceil(20)
        );
        // The pod still completes normally afterwards.
        orch.complete_pod(uid, SimTime::from_secs(60)).unwrap();
        assert!(matches!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Completed { .. }
        ));
    }

    #[test]
    fn refused_migration_restores_on_the_source() {
        let mut orch = orchestrator();
        // Fill sgx-2 so it cannot take more.
        let filler = orch.submit(sgx_spec("filler", 80), SimTime::ZERO);
        let moving = orch.submit(sgx_spec("svc", 60), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        let filler_node = match &orch.record(filler).unwrap().outcome {
            PodOutcome::Running { node } => node.clone(),
            other => panic!("filler not running: {other:?}"),
        };
        let moving_node = match &orch.record(moving).unwrap().outcome {
            PodOutcome::Running { node } => node.clone(),
            other => panic!("svc not running: {other:?}"),
        };
        assert_ne!(filler_node, moving_node, "binpack split them by size");

        let err = orch
            .migrate_pod(moving, &filler_node, SimTime::from_secs(10))
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
        // Rolled back: still running on its original node, state intact.
        assert_eq!(
            orch.record(moving).unwrap().outcome,
            PodOutcome::Running {
                node: moving_node.clone()
            }
        );
        assert_eq!(
            orch.cluster().node(&moving_node).unwrap().epc_committed(),
            EpcPages::from_mib_ceil(60)
        );
    }

    #[test]
    fn migrating_to_the_same_node_is_a_no_op() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("svc", 10), SimTime::ZERO);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let node = outcomes[0].node.clone();
        assert_eq!(
            orch.migrate_pod(uid, &node, SimTime::from_secs(10))
                .unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn rebalance_evens_out_epc_load() {
        let mut orch = orchestrator();
        // Binpack stacks all four 20 MiB pods onto sgx-1.
        let mut uids = Vec::new();
        for i in 0..4 {
            uids.push(orch.submit(sgx_spec(&format!("p{i}"), 20), SimTime::ZERO));
        }
        orch.scheduler_pass(SimTime::from_secs(5));
        let loaded = |orch: &Orchestrator, name: &str| {
            orch.cluster()
                .node(&NodeName::new(name))
                .unwrap()
                .epc_requested()
        };
        assert_eq!(loaded(&orch, "sgx-1"), EpcPages::from_mib_ceil(20) * 4);
        assert_eq!(loaded(&orch, "sgx-2"), EpcPages::ZERO);

        let before = orch.epc_imbalance();
        let moves = orch.rebalance_epc(SimTime::from_secs(10), 0.1);
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|m| m.delay > SimDuration::ZERO));
        // Both nodes now carry EPC load, within the threshold band.
        let a = loaded(&orch, "sgx-1").count() as f64;
        let b = loaded(&orch, "sgx-2").count() as f64;
        let cap = 23_936.0;
        assert!((a / cap - b / cap).abs() <= 0.1 + 20.0 * 256.0 / cap);
        assert_eq!(orch.epc_imbalance(), (a / cap - b / cap).abs());
        assert!(orch.epc_imbalance() < before);
        // All pods still running.
        for uid in uids {
            assert!(matches!(
                orch.record(uid).unwrap().outcome,
                PodOutcome::Running { .. }
            ));
        }
    }

    #[test]
    fn rebalance_makes_progress_on_tiny_epc_nodes() {
        // Regression: `gap_pages` used to truncate with `as u64`, reading
        // zero on small-EPC nodes while the imbalance still exceeded the
        // threshold — the loop exited without moving anything. sgx-tiny
        // has 8 usable pages; one 1-page pod there is a 0.125 imbalance
        // against the paper-size sgx-big, but the truncated gap was
        // floor(0.0625 · 8) = 0.
        use cluster::machine::MachineSpec;
        use cluster::node::NodeRole;
        let spec = ClusterSpec::new()
            .with_node(
                "sgx-a-tiny",
                MachineSpec::sgx_node_with_usable_epc(ByteSize::from_kib(32)),
                NodeRole::Worker,
            )
            .with_node(
                "sgx-b-big",
                MachineSpec::sgx_node_with_usable_epc(ByteSize::from_mib(93)),
                NodeRole::Worker,
            );
        let mut orch = Orchestrator::new(spec, OrchestratorConfig::paper());
        let uid = orch.submit(
            PodSpec::builder("one-page")
                .sgx_resources(ByteSize::from_kib(4))
                .build(),
            SimTime::ZERO,
        );
        orch.scheduler_pass(SimTime::from_secs(5));
        assert!(matches!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Running { ref node } if node.as_str() == "sgx-a-tiny"
        ));
        assert!(orch.epc_imbalance() > 0.1);

        let moves = orch.rebalance_epc(SimTime::from_secs(10), 0.1);
        assert_eq!(moves.len(), 1, "the one-page pod must move");
        assert_eq!(moves[0].to.as_str(), "sgx-b-big");
        assert!(orch.epc_imbalance() <= 0.1);
    }

    #[test]
    fn rebalance_terminates_when_no_move_improves() {
        // Two tiny symmetric nodes with the pod already as balanced as a
        // single move can make it: the one-page minimum gap now offers a
        // candidate, but moving it would just mirror the imbalance. The
        // strict-improvement guard must exit instead of ping-ponging the
        // pod forever (the test completing *is* the termination proof).
        use cluster::machine::MachineSpec;
        use cluster::node::NodeRole;
        let tiny = ByteSize::from_kib(32);
        let spec = ClusterSpec::new()
            .with_node(
                "sgx-a",
                MachineSpec::sgx_node_with_usable_epc(tiny),
                NodeRole::Worker,
            )
            .with_node(
                "sgx-b",
                MachineSpec::sgx_node_with_usable_epc(tiny),
                NodeRole::Worker,
            );
        let mut orch = Orchestrator::new(spec, OrchestratorConfig::paper());
        orch.submit(
            PodSpec::builder("one-page")
                .sgx_resources(ByteSize::from_kib(4))
                .build(),
            SimTime::ZERO,
        );
        orch.scheduler_pass(SimTime::from_secs(5));
        let before = orch.epc_imbalance();
        assert!(before > 0.1);
        let moves = orch.rebalance_epc(SimTime::from_secs(10), 0.1);
        assert!(moves.is_empty(), "no single move can improve 1 page vs 0");
        assert_eq!(orch.epc_imbalance(), before);
    }

    /// Two 7-page nodes at 5 and 3 requested pages meet at 4, so the
    /// half-gap is ⌈(5 − 3) / 2⌉ = 1 page; `f64` computes
    /// ((5/7 − 3/7) / 2) · 7 = 1.0000000000000002 and rounds it up to 2.
    /// A 2-page move only mirrors the spread, and the float improvement
    /// test, rounding 2/7 two ways, took it for a shrink: the float
    /// rebalancer moved a 2-page pod back and forth and never returned.
    /// Over capacities of 2–39 pages, 2,787 (hot, cold) pairs have a
    /// float half-gap that is wrong.
    #[test]
    fn rebalance_half_gap_is_exact() {
        use cluster::machine::MachineSpec;
        use cluster::node::NodeRole;
        let seven = MachineSpec::sgx_node_with_usable_epc(ByteSize::from_kib(4 * 7));
        let spec = ClusterSpec::new()
            .with_node("sgx-a", seven, NodeRole::Worker)
            .with_node("sgx-b", seven, NodeRole::Worker);
        let mut orch = Orchestrator::new(spec, OrchestratorConfig::paper());
        // Binpack: 2 + 1 + 2 pages on sgx-a, the 3-page pod on sgx-b.
        let uids: Vec<PodUid> = [2, 1, 2, 3]
            .into_iter()
            .enumerate()
            .map(|(i, pages)| {
                let spec = PodSpec::builder(format!("p{i}"))
                    .sgx_resources(ByteSize::from_kib(4 * pages))
                    .build();
                orch.submit(spec, SimTime::ZERO)
            })
            .collect();
        orch.scheduler_pass(SimTime::from_secs(5));
        let requested = |orch: &Orchestrator, name: &str| {
            let node = orch.cluster().node(&NodeName::new(name)).unwrap();
            node.epc_requested().count()
        };
        assert_eq!(
            (requested(&orch, "sgx-a"), requested(&orch, "sgx-b")),
            (5, 3)
        );

        let moves = orch.rebalance_epc(SimTime::from_secs(10), 0.25);
        assert_eq!(moves.len(), 1);
        assert_eq!((moves[0].uid, moves[0].to.as_str()), (uids[1], "sgx-b"));
        assert_eq!(orch.epc_imbalance(), 0.0);
    }

    /// `rebalance_epc` takes any `f64` and reads it as its exact value:
    /// NaN and +∞ are never exceeded, so nothing moves; a negative
    /// threshold or −∞ is exceeded by every spread, so load moves while a
    /// move can still shrink the spread, that is while it is above zero.
    #[test]
    fn rebalance_thresholds_outside_the_unit_interval() {
        // Two 10 MiB pods on sgx-1: a spread of 5,120 / 23,936 ≈ 0.21,
        // which one move of either pod evens out.
        let loaded = || {
            let mut orch = orchestrator();
            for name in ["a", "b"] {
                orch.submit(sgx_spec(name, 10), SimTime::ZERO);
            }
            orch.scheduler_pass(SimTime::from_secs(5));
            orch
        };
        for threshold in [f64::NAN, f64::INFINITY, 1.5, f64::MAX] {
            let mut orch = loaded();
            let moves = orch.rebalance_epc(SimTime::from_secs(10), threshold);
            assert!(moves.is_empty(), "{threshold} armed");
        }
        for threshold in [f64::NEG_INFINITY, -0.5, -0.0, 0.0] {
            let mut orch = loaded();
            let moves = orch.rebalance_epc(SimTime::from_secs(10), threshold);
            assert_eq!(moves.len(), 1, "{threshold}");
            assert_eq!(orch.epc_imbalance(), 0.0);
            let again = orch.rebalance_epc(SimTime::from_secs(20), threshold);
            assert!(again.is_empty(), "{threshold} moved a balanced pair");
        }
    }

    /// Delivers an empty frame from `name`, sampled at `at`: it proves
    /// the node's probes alive and carries nothing else.
    fn heartbeat(orch: &mut Orchestrator, name: &str, at: SimTime) {
        let batch = PointBatch::new(MEASUREMENT_MEMORY, "pod_name", at);
        orch.ingest_frame(&NodeName::new(name), &batch, at);
    }

    #[test]
    fn silenced_probes_degrade_the_node_view() {
        let mut orch = orchestrator();
        orch.submit(sgx_spec("hog", 60), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        orch.probe_pass(SimTime::from_secs(10));

        // Fresh scrape: ages annotated, nothing degraded.
        let view = orch.capture_snapshot(SimTime::from_secs(12));
        let sgx1 = view.node(&NodeName::new("sgx-1")).unwrap();
        assert!(!sgx1.degraded);
        assert_eq!(sgx1.metrics_age, Some(SimDuration::from_secs(2)));

        // sgx-1's probes go silent while every other node keeps
        // reporting; by t=100 its last scrape is 90 s old.
        for name in ["sgx-2", "std-1", "std-2"] {
            heartbeat(&mut orch, name, SimTime::from_secs(95));
        }
        let view = orch.capture_snapshot(SimTime::from_secs(100));
        let sgx1 = view.node(&NodeName::new("sgx-1")).unwrap();
        assert!(sgx1.degraded);
        assert_eq!(sgx1.metrics_age, Some(SimDuration::from_secs(90)));
        assert!(!view.node(&NodeName::new("sgx-2")).unwrap().degraded);
        assert_eq!(
            orch.metrics_age(&NodeName::new("sgx-1"), SimTime::from_secs(100)),
            Some(SimDuration::from_secs(90))
        );
    }

    #[test]
    fn degraded_scheduling_avoids_the_silent_node_and_counts_decisions() {
        let mut orch = orchestrator();
        orch.probe_pass(SimTime::from_secs(10));
        // sgx-1 goes silent; the rest keep scraping.
        for name in ["sgx-2", "std-1", "std-2"] {
            heartbeat(&mut orch, name, SimTime::from_secs(100));
        }
        let uid = orch.submit(sgx_spec("late", 10), SimTime::from_secs(100));
        assert_eq!(orch.degraded_decisions(), 0);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(105));
        assert_eq!(outcomes.len(), 1);
        // Binpack would normally start at sgx-1; degraded, it lands on
        // the fresh node, and the decision is counted.
        assert_eq!(outcomes[0].node.as_str(), "sgx-2");
        assert!(matches!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Running { ref node } if node.as_str() == "sgx-2"
        ));
        assert_eq!(orch.degraded_decisions(), 1);
    }

    /// One step of the probe-path equivalence property below.
    #[derive(Debug, Clone)]
    enum TickOp {
        /// Submit a pod (EPC-only or memory-only) and run a pass.
        Bind {
            sgx: bool,
            mib: u64,
        },
        /// Complete the `nth` running pod (modulo).
        Complete(usize),
        /// Advance `secs` and run a probe tick — the one step the two
        /// orchestrators under comparison take differently.
        Tick {
            secs: u64,
        },
        /// Advance `secs` and enforce retention with no scrape — what
        /// runs a series out from under a cached id.
        Expire {
            secs: u64,
        },
        /// Crash / bring back the `nth` worker.
        Fail(usize),
        Recover(usize),
        /// Deregister the `nth` worker and register a fresh node under
        /// the same name.
        Readd(usize),
        /// Drain the `nth` worker — its pods migrate wherever binpack
        /// puts them — and uncordon it.
        Drain(usize),
    }

    const WORKERS: [&str; 4] = ["sgx-1", "sgx-2", "std-1", "std-2"];

    fn tick_ops() -> impl Strategy<Value = Vec<TickOp>> {
        let bind = || (any::<bool>(), 1u64..30).prop_map(|(sgx, mib)| TickOp::Bind { sgx, mib });
        prop::collection::vec(
            prop_oneof![
                bind(),
                bind(),
                (0usize..8).prop_map(TickOp::Complete),
                (1u64..25).prop_map(|secs| TickOp::Tick { secs }),
                (1u64..25).prop_map(|secs| TickOp::Tick { secs }),
                // Past the 15 min retention in one or two steps.
                (400u64..1_000).prop_map(|secs| TickOp::Tick { secs }),
                (400u64..1_000).prop_map(|secs| TickOp::Expire { secs }),
                (0usize..4).prop_map(TickOp::Fail),
                (0usize..4).prop_map(TickOp::Recover),
                (0usize..4).prop_map(TickOp::Readd),
                (0usize..4).prop_map(TickOp::Drain),
            ],
            1..60,
        )
    }

    impl TickOp {
        fn elapses(&self) -> SimDuration {
            match *self {
                TickOp::Tick { secs } | TickOp::Expire { secs } => SimDuration::from_secs(secs),
                _ => SimDuration::ZERO,
            }
        }

        /// Applies the op at `now`; `framed` picks the entry point of a
        /// probe tick.
        fn apply(&self, orch: &mut Orchestrator, now: SimTime, framed: bool) {
            let worker = |nth: usize| NodeName::new(WORKERS[nth]);
            match *self {
                TickOp::Bind { sgx, mib } => {
                    let spec = if sgx {
                        sgx_spec("e", mib)
                    } else {
                        PodSpec::builder("m")
                            .memory_resources(ByteSize::from_mib(mib))
                            .build()
                    };
                    orch.submit(spec, now);
                    orch.scheduler_pass(now);
                }
                TickOp::Complete(nth) => {
                    let running: Vec<PodUid> = orch
                        .cluster
                        .nodes()
                        .flat_map(|n| n.pods().keys().copied())
                        .collect();
                    if !running.is_empty() {
                        orch.complete_pod(running[nth % running.len()], now)
                            .unwrap();
                    }
                }
                TickOp::Tick { .. } if framed => {
                    for (node, batch) in &orch.scrape_frames(now) {
                        orch.ingest_frame(node, batch, now);
                    }
                    orch.enforce_metrics_retention(now);
                }
                TickOp::Tick { .. } => orch.probe_pass(now),
                TickOp::Expire { .. } => orch.enforce_metrics_retention(now),
                TickOp::Fail(nth) => {
                    orch.fail_node(&worker(nth), now).unwrap();
                }
                TickOp::Recover(nth) => orch.recover_node(&worker(nth), now).unwrap(),
                TickOp::Readd(nth) => {
                    let name = worker(nth);
                    let spec = *orch.cluster.node(&name).unwrap().spec();
                    orch.remove_node(&name, now).unwrap();
                    orch.add_node(WORKERS[nth], spec, now).unwrap();
                    // A fresh incarnation inherits nothing.
                    assert_eq!(orch.metrics_age(&name, now), None);
                }
                TickOp::Drain(nth) => {
                    orch.drain_node(&worker(nth), now).unwrap();
                    orch.uncordon_node(&worker(nth), now).unwrap();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The probe tick has two entry points and one effect:
        /// `probe_pass` (rows appended by cached series id through a
        /// scrape handle) and `scrape_frames` + `ingest_frame` +
        /// `enforce_metrics_retention` (tagged frames resolved on
        /// arrival) leave the same store, counters, window and freshness
        /// ledger — across pod turnover, migrations, retention running
        /// series out from under cached ids, node crashes, and a node
        /// name changing hands.
        #[test]
        fn scrape_frames_then_ingest_matches_probe_pass(ops in tick_ops()) {
            let mut direct = orchestrator();
            let mut framed = orchestrator();
            let mut now = SimTime::from_secs(1);
            for (index, op) in ops.iter().enumerate() {
                now += op.elapses();
                op.apply(&mut direct, now, false);
                op.apply(&mut framed, now, true);
                prop_assert_eq!(direct.db().points(), framed.db().points(), "step {}", index);
                for (d, f) in [
                    (direct.db().points_inserted(), framed.db().points_inserted()),
                    (direct.db().points_evicted(), framed.db().points_evicted()),
                    (direct.db().series_count() as u64, framed.db().series_count() as u64),
                ] {
                    prop_assert_eq!(d, f, "step {}", index);
                }
                prop_assert_eq!(
                    direct.window_rollup_stats(),
                    framed.window_rollup_stats(),
                    "step {}", index
                );
                // Every node got a frame, idle or not.
                for node in direct.cluster.nodes() {
                    let name = node.name();
                    prop_assert_eq!(
                        direct.metrics_age(name, now),
                        framed.metrics_age(name, now),
                        "step {}", index
                    );
                    prop_assert_eq!(
                        direct.recovery_pending(name),
                        framed.recovery_pending(name),
                        "step {}", index
                    );
                }
                prop_assert_eq!(
                    direct.capture_snapshot(now),
                    framed.capture_snapshot(now),
                    "step {}", index
                );
            }
        }
    }

    #[test]
    fn ingest_frame_never_rolls_freshness_backwards() {
        let mut orch = orchestrator();
        let node = NodeName::new("sgx-1");
        let batch = PointBatch::new("memory/usage", "pod_name", SimTime::from_secs(10));
        orch.ingest_frame(&node, &batch, SimTime::from_secs(50));
        // A delayed frame sampled earlier arrives afterwards.
        orch.ingest_frame(&node, &batch, SimTime::from_secs(20));
        assert_eq!(
            orch.metrics_age(&node, SimTime::from_secs(60)),
            Some(SimDuration::from_secs(10))
        );
    }

    #[test]
    fn rebalance_is_idle_when_balanced() {
        let mut orch = orchestrator();
        orch.submit(sgx_spec("only", 10), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        let moves = orch.rebalance_epc(SimTime::from_secs(10), 0.2);
        // One 10 MiB pod: the imbalance (≈0.107) is within nothing a
        // single migration could improve without overshooting.
        assert!(moves.is_empty());
    }

    #[test]
    fn drain_moves_every_pod_and_cordons_the_node() {
        let mut orch = orchestrator();
        let mut uids = Vec::new();
        for i in 0..3 {
            uids.push(orch.submit(sgx_spec(&format!("p{i}"), 20), SimTime::ZERO));
        }
        orch.scheduler_pass(SimTime::from_secs(5));
        // Binpack stacked everything on sgx-1.
        let victim = NodeName::new("sgx-1");
        assert_eq!(orch.cluster().node(&victim).unwrap().pods().len(), 3);

        let moves = orch.drain_node(&victim, SimTime::from_secs(10)).unwrap();
        assert_eq!(moves.len(), 3);
        assert!(moves.iter().all(|m| m.to.as_str() == "sgx-2"));
        assert!(moves.iter().all(|m| m.from == victim));
        assert!(moves.iter().all(|m| m.delay > SimDuration::ZERO));
        assert!(orch.cluster().node(&victim).unwrap().pods().is_empty());
        assert!(orch.cluster().node(&victim).unwrap().is_cordoned());

        // New SGX pods now land on sgx-2 only.
        let extra = orch.submit(sgx_spec("extra", 10), SimTime::from_secs(11));
        orch.scheduler_pass(SimTime::from_secs(15));
        assert!(matches!(
            orch.record(extra).unwrap().outcome,
            PodOutcome::Running { ref node } if node.as_str() == "sgx-2"
        ));

        orch.uncordon_node(&victim, SimTime::from_secs(20)).unwrap();
        assert!(!orch.cluster().node(&victim).unwrap().is_cordoned());
        let _ = uids;
    }

    #[test]
    fn drain_leaves_unplaceable_pods_in_place() {
        let mut orch = orchestrator();
        // Both nodes ~70 % full: neither can absorb the other's pod.
        let a = orch.submit(sgx_spec("a", 65), SimTime::ZERO);
        let b = orch.submit(sgx_spec("b", 65), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        let node_of = |orch: &Orchestrator, uid| match &orch.record(uid).unwrap().outcome {
            PodOutcome::Running { node } => node.clone(),
            other => panic!("not running: {other:?}"),
        };
        let victim = node_of(&orch, a);
        assert_ne!(victim, node_of(&orch, b));

        let moves = orch.drain_node(&victim, SimTime::from_secs(10)).unwrap();
        assert!(moves.is_empty());
        // The pod kept running where it was.
        assert_eq!(node_of(&orch, a), victim);
    }

    #[test]
    fn drain_whose_target_refuses_rolls_back_onto_the_cordoned_source() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("a", 20), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        let source = NodeName::new("sgx-1");
        let target = NodeName::new("sgx-2");
        assert_eq!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Running {
                node: source.clone()
            }
        );
        // The only other SGX node runs a foreign pod under the migrating
        // uid: its kubelet refuses the migration (`PodAlreadyRunning`).
        let squatter = PodSpec::builder("squatter")
            .memory_resources(ByteSize::from_mib(1))
            .build();
        orch.cluster_mut()
            .node_mut(&target)
            .unwrap()
            .run_pod(uid, squatter, SimTime::ZERO, &mut seeded_rng(1))
            .unwrap();

        let moves = orch.drain_node(&source, SimTime::from_secs(10)).unwrap();
        assert!(moves.is_empty());
        let node = orch.cluster().node(&source).unwrap();
        assert!(node.is_cordoned());
        assert!(node.pods().contains_key(&uid));
        assert_eq!(
            orch.record(uid).unwrap().outcome,
            PodOutcome::Running {
                node: source.clone()
            }
        );
        // With the squatter gone, nothing else is out of place.
        orch.cluster_mut()
            .node_mut(&target)
            .unwrap()
            .terminate_pod(uid)
            .unwrap();
        assert_eq!(orch.audit_invariants(), Vec::<String>::new());
    }

    #[test]
    fn node_failure_requeues_pods_and_recovery_restores_capacity() {
        let mut orch = orchestrator();
        let a = orch.submit(sgx_spec("a", 60), SimTime::ZERO);
        let b = orch.submit(sgx_spec("b", 60), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        // One pod per node (they don't fit together).
        let node_a = match &orch.record(a).unwrap().outcome {
            PodOutcome::Running { node } => node.clone(),
            other => panic!("not running: {other:?}"),
        };

        let crashed = orch.fail_node(&node_a, SimTime::from_secs(30)).unwrap();
        assert_eq!(crashed, vec![a]);
        assert_eq!(orch.record(a).unwrap().outcome, PodOutcome::Pending);
        assert_eq!(orch.queue().len(), 1);
        // The crashed node holds nothing and accepts nothing.
        let node = orch.cluster().node(&node_a).unwrap();
        assert!(node.pods().is_empty());
        assert_eq!(node.epc_committed(), EpcPages::ZERO);
        assert!(node.is_cordoned());

        // With the other node full and this one down, the pod waits…
        assert!(orch.scheduler_pass(SimTime::from_secs(35)).is_empty());
        // …until recovery, after which it reschedules (waiting time spans
        // the crash: submitted at t=0, restarted at t≈40).
        orch.recover_node(&node_a, SimTime::from_secs(39)).unwrap();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(40));
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].uid, a);
        let waiting = orch.record(a).unwrap().waiting_time().unwrap();
        assert!(waiting >= SimDuration::from_secs(40));
        let _ = b;
    }

    #[test]
    fn crashed_pods_regain_their_fcfs_position() {
        let mut orch = orchestrator();
        // `a` (submitted first) fills one node; `b` fills the other.
        let a = orch.submit(sgx_spec("a", 60), SimTime::ZERO);
        let b = orch.submit(sgx_spec("b", 60), SimTime::from_secs(1));
        orch.scheduler_pass(SimTime::from_secs(5));
        // `c` arrives later and waits — both nodes are full.
        let c = orch.submit(sgx_spec("c", 60), SimTime::from_secs(10));
        assert_eq!(orch.queue().len(), 1);

        // `a`'s node crashes: `a` is re-queued with its original
        // submission time and must sit *ahead* of `c`, not behind it.
        let node_a = match &orch.record(a).unwrap().outcome {
            PodOutcome::Running { node } => node.clone(),
            other => panic!("a not running: {other:?}"),
        };
        orch.fail_node(&node_a, SimTime::from_secs(20)).unwrap();
        let order: Vec<PodUid> = orch.queue().iter().map(|p| p.uid).collect();
        assert_eq!(order, vec![a, c]);
        let _ = b;
    }

    #[test]
    fn enforcement_toggle_reaches_all_drivers() {
        // An under-declaring pod launched on each SGX node directly: it
        // starts exactly where the driver does not enforce.
        let greedy = under_declaring_spec();
        let mut orch = orchestrator();
        let mut rng = des::rng::seeded_rng(1);
        for (round, enforce) in [false, true].into_iter().enumerate() {
            orch.set_enforce_limits(enforce);
            let uid = PodUid::new(900 + round as u64);
            let mut visited = 0;
            for node in orch.cluster_mut().nodes_mut().filter(|n| n.has_sgx()) {
                let report = node
                    .run_pod(uid, greedy.clone(), SimTime::ZERO, &mut rng)
                    .unwrap();
                assert_eq!(report.started(), !enforce, "{}", node.name());
                visited += 1;
            }
            assert_eq!(visited, 2);
        }
    }

    #[test]
    fn add_node_expands_capacity_at_runtime() {
        let mut orch = orchestrator();
        // Two 60 MiB pods saturate the two stock SGX nodes; the third
        // waits until a runtime-added node opens capacity.
        for i in 0..3 {
            orch.submit(sgx_spec(&format!("p{i}"), 60), SimTime::ZERO);
        }
        orch.scheduler_pass(SimTime::from_secs(5));
        assert_eq!(orch.queue().len(), 1);
        let added = orch
            .add_node("sgx-new", MachineSpec::sgx_node(), SimTime::from_secs(10))
            .unwrap();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(15));
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].node, added);
        assert!(orch.queue().is_empty());
    }

    #[test]
    fn add_node_rejects_duplicate_names() {
        let mut orch = orchestrator();
        let err = orch
            .add_node("sgx-1", MachineSpec::sgx_node(), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ClusterError::NodeAlreadyRegistered(_)));
    }

    #[test]
    fn remove_node_migrates_pods_then_deregisters() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("a", 40), SimTime::ZERO);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let home = outcomes[0].node.clone();
        let removal = orch.remove_node(&home, SimTime::from_secs(10)).unwrap();
        // The pod live-migrated to the other SGX node; nothing requeued.
        assert_eq!(removal.migrations.len(), 1);
        assert_eq!(removal.migrations[0].uid, uid);
        assert_eq!(removal.migrations[0].from, home);
        assert!(removal.requeued.is_empty());
        assert!(
            orch.cluster().node(&home).is_none(),
            "node still registered"
        );
        match &orch.record(uid).unwrap().outcome {
            PodOutcome::Running { node } => assert_ne!(*node, home),
            other => panic!("pod lost by removal: {other:?}"),
        }
    }

    #[test]
    fn remove_node_requeues_pods_with_no_migration_target() {
        let mut orch = orchestrator();
        // One 60 MiB pod per SGX node: neither node can absorb the
        // other's pod, so removal must evict to the queue, not lose it.
        let a = orch.submit(sgx_spec("a", 60), SimTime::ZERO);
        let b = orch.submit(sgx_spec("b", 60), SimTime::ZERO);
        orch.scheduler_pass(SimTime::from_secs(5));
        let home = match &orch.record(a).unwrap().outcome {
            PodOutcome::Running { node } => node.clone(),
            other => panic!("a not running: {other:?}"),
        };
        let removal = orch.remove_node(&home, SimTime::from_secs(10)).unwrap();
        assert!(removal.migrations.is_empty());
        assert_eq!(removal.requeued, vec![a]);
        assert_eq!(orch.record(a).unwrap().outcome, PodOutcome::Pending);
        // The requeued pod keeps its original submission time (FCFS).
        assert_eq!(
            orch.queue().iter().next().unwrap().submitted_at,
            SimTime::ZERO
        );
        // Once `b` finishes, `a` lands on the surviving node.
        orch.complete_pod(b, SimTime::from_secs(20)).unwrap();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(25));
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].report.started());
    }

    #[test]
    fn remove_node_refuses_the_master_and_unknown_nodes() {
        let mut orch = orchestrator();
        let master = NodeName::new("master");
        assert!(matches!(
            orch.remove_node(&master, SimTime::ZERO),
            Err(ClusterError::NodeUnschedulable(_))
        ));
        let ghost = NodeName::new("no-such-node");
        assert!(matches!(
            orch.remove_node(&ghost, SimTime::ZERO),
            Err(ClusterError::UnknownNode(_))
        ));
    }

    #[test]
    fn remove_node_tears_down_metrics_series() {
        let mut orch = orchestrator();
        let uid = orch.submit(sgx_spec("a", 40), SimTime::ZERO);
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let home = outcomes[0].node.clone();
        orch.probe_pass(SimTime::from_secs(10));
        assert!(orch.db().series_count() > 0);
        // Migrate the pod away first (complete it) so the removal's
        // series teardown is the only change.
        orch.complete_pod(uid, SimTime::from_secs(15)).unwrap();
        let before = orch.db().series_count();
        orch.remove_node(&home, SimTime::from_secs(20)).unwrap();
        assert!(
            orch.db().series_count() < before,
            "the removed node's series were not dropped"
        );
        // Snapshots no longer show the node.
        let snap = orch.capture_snapshot(SimTime::from_secs(21));
        assert!(snap.node(&home).is_none());
    }

    #[test]
    fn reused_node_name_schedules_as_a_fresh_node() {
        let mut orch = orchestrator();
        let name = NodeName::new("sgx-1");
        // Scrape, then crash + recover: the recovery quarantine degrades
        // the node until a post-recovery scrape lands.
        orch.probe_pass(SimTime::from_secs(10));
        orch.fail_node(&name, SimTime::from_secs(20)).unwrap();
        orch.recover_node(&name, SimTime::from_secs(30)).unwrap();
        let view = orch.capture_snapshot(SimTime::from_secs(31));
        assert!(view.node(&name).unwrap().degraded);

        // Deregister, then register a brand-new machine under the same
        // name. Regression: the reused name used to inherit the old
        // scrape stamp and the recovery epoch, scheduling the new
        // machine as a degraded ghost.
        orch.remove_node(&name, SimTime::from_secs(40)).unwrap();
        orch.add_node("sgx-1", MachineSpec::sgx_node(), SimTime::from_secs(50))
            .unwrap();
        let view = orch.capture_snapshot(SimTime::from_secs(51));
        let fresh = view.node(&name).unwrap();
        assert!(!fresh.degraded, "reused name inherited recovery quarantine");
        assert_eq!(
            fresh.metrics_age, None,
            "reused name inherited scrape stamp"
        );
        assert!(fresh.epc_measured.is_zero());
        // And it takes pods like any healthy node.
        orch.submit(sgx_spec("fresh", 60), SimTime::from_secs(52));
        orch.submit(sgx_spec("fresh-2", 60), SimTime::from_secs(52));
        let outcomes = orch.scheduler_pass(SimTime::from_secs(55));
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes
            .iter()
            .any(|o| o.node == name && o.report.started()));
    }

    #[test]
    fn frames_of_a_previous_incarnation_are_void() {
        let mut orch = orchestrator();
        orch.submit(sgx_spec("a", 40), SimTime::ZERO);
        let home = orch.scheduler_pass(SimTime::from_secs(5))[0].node.clone();
        // Frames sampled from the old incarnation, still in transit.
        let sampled_at = SimTime::from_secs(10);
        let stash: Vec<(NodeName, PointBatch)> = orch
            .scrape_frames(sampled_at)
            .into_iter()
            .filter(|(node, _)| *node == home)
            .collect();
        assert!(stash.iter().any(|(_, batch)| !batch.is_empty()));
        let deliver = |orch: &mut Orchestrator| {
            for (node, batch) in &stash {
                orch.ingest_frame(node, batch, sampled_at);
            }
        };

        orch.remove_node(&home, SimTime::from_secs(20)).unwrap();
        // Delivered while no node holds the name: nothing lands.
        deliver(&mut orch);
        assert_eq!(orch.db().series_count(), 0);

        orch.add_node(
            home.as_str(),
            MachineSpec::sgx_node(),
            SimTime::from_secs(30),
        )
        .unwrap();
        // Delivered to the replacement: still nothing.
        deliver(&mut orch);
        assert_eq!(
            orch.db().series_count(),
            0,
            "the old pods' series came back"
        );
        assert!(
            orch.db()
                .window()
                .groups()
                .all(|group| group != home.as_str()),
            "the old pods' samples reached the window"
        );
        assert_eq!(orch.metrics_age(&home, SimTime::from_secs(31)), None);
        let view = orch.capture_snapshot(SimTime::from_secs(31));
        assert!(view.node(&home).unwrap().epc_measured.is_zero());
        assert!(!view.node(&home).unwrap().degraded);
    }

    #[test]
    fn incremental_snapshot_tracks_node_add_and_remove() {
        let mut orch = orchestrator();
        let first = orch.capture_snapshot(SimTime::from_secs(1));
        assert_eq!(first.len(), 4);
        // A node added after the first capture must appear in the next
        // one, and a removed one must vanish — an incremental refresh
        // once skipped names with no cached entry (or no cluster entry),
        // freezing the first capture's topology forever.
        orch.add_node("extra", MachineSpec::dell_r330(), SimTime::from_secs(2))
            .unwrap();
        let grown = orch.capture_snapshot(SimTime::from_secs(3));
        assert!(grown.node(&NodeName::new("extra")).is_some());
        assert_eq!(grown.len(), 5);
        orch.remove_node(&NodeName::new("extra"), SimTime::from_secs(4))
            .unwrap();
        let shrunk = orch.capture_snapshot(SimTime::from_secs(5));
        assert!(shrunk.node(&NodeName::new("extra")).is_none());
        assert_eq!(shrunk.len(), 4);
    }

    /// The from-scratch oracle of `tests/snapshot_incremental.rs`: Listing 1
    /// through the query engine, the scrape-age staleness rule and the
    /// recovery quarantine.
    fn oracle(orch: &Orchestrator, now: SimTime) -> ClusterSnapshot {
        let config = orch.config();
        let mut snapshot =
            ClusterSnapshot::capture(orch.cluster(), orch.db(), now, config.metrics_window)
                .with_staleness(config.staleness_threshold, |name| {
                    orch.metrics_age(name, now)
                });
        snapshot.update(now, |names, views| {
            for (name, view) in names.iter().zip(views) {
                view.degraded |= orch.recovery_pending(name);
            }
        });
        snapshot
    }

    #[test]
    fn a_retention_shorter_than_the_window_captures_exactly() {
        let config = OrchestratorConfig {
            retention: SimDuration::from_secs(10),
            ..OrchestratorConfig::paper()
        };
        assert!(config.retention < config.metrics_window);
        let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), config);
        let mut running = Vec::new();
        let mut now = SimTime::ZERO;
        for tick in 0..48u64 {
            now += SimDuration::from_secs(5);
            if tick % 3 == 0 {
                orch.submit(sgx_spec(&format!("p{tick}"), 8 + tick % 11), now);
            }
            running.extend(orch.scheduler_pass(now).iter().map(|bound| bound.uid));
            if tick % 2 == 0 {
                orch.probe_pass(now);
            }
            if tick % 4 == 3 && !running.is_empty() {
                orch.complete_pod(running.remove(0), now).unwrap();
            }
            assert_eq!(orch.capture_snapshot(now), oracle(&orch, now), "at {now}");
        }
        // A window reaching past the retention's cutoff is the store's.
        let asked = orch.store_captures.get();
        assert!(asked > 0);
        // One more tick, then a capture when every sample is older than
        // the retention — the store still holds the tick's, as no
        // retention ran since — and the window starts above the cutoff.
        orch.probe_pass(now);
        let late = now + SimDuration::from_secs(17);
        let snapshot = orch.capture_snapshot(late);
        assert_eq!(orch.store_captures.get(), asked, "read off the window");
        let measured = |snapshot: &ClusterSnapshot| {
            snapshot
                .iter()
                .any(|(_, view)| !view.epc_measured.is_zero())
        };
        assert!(measured(&snapshot));
        assert_eq!(snapshot, oracle(&orch, late));

        // Frames held back in transit land after a retention passed them:
        // the store keeps them until the next one, the window never sees
        // them, and their pods have finished since.
        let stash = orch.scrape_frames(late);
        assert!(!running.is_empty());
        for uid in running.drain(..) {
            orch.complete_pod(uid, late).unwrap();
        }
        now = late + SimDuration::from_secs(15);
        orch.probe_pass(now);
        for (node, batch) in &stash {
            orch.ingest_frame(node, batch, late);
        }
        let snapshot = orch.capture_snapshot(now);
        assert!(measured(&snapshot));
        assert_eq!(snapshot, oracle(&orch, now));
    }

    #[test]
    fn a_replay_shaped_run_never_asks_the_store() {
        let mut orch = orchestrator();
        let mut now = SimTime::ZERO;
        let step = |orch: &mut Orchestrator, now: &mut SimTime, secs: u64| {
            *now += SimDuration::from_secs(secs);
            orch.submit(sgx_spec("p", 12), *now);
            orch.scheduler_pass(*now);
            orch.probe_pass(*now);
            assert_eq!(orch.capture_snapshot(*now), oracle(orch, *now), "at {now}");
        };
        step(&mut orch, &mut now, 5);
        step(&mut orch, &mut now, 10);
        // An edit behind the orchestrator's back.
        orch.cluster_mut()
            .node_mut(&NodeName::new("sgx-2"))
            .unwrap()
            .set_cordoned(true);
        step(&mut orch, &mut now, 10);
        // Probe ticks alone for longer than the retention: the store's
        // cutoff overtakes the last capture's window.
        let resume = now + orch.config().retention + SimDuration::from_secs(60);
        while now < resume {
            now += SimDuration::from_secs(10);
            orch.probe_pass(now);
        }
        step(&mut orch, &mut now, 5);
        // Nodes join and leave, a name changing hands on the way.
        orch.add_node("extra", MachineSpec::sgx_node(), now)
            .unwrap();
        step(&mut orch, &mut now, 10);
        orch.remove_node(&NodeName::new("extra"), now).unwrap();
        step(&mut orch, &mut now, 10);
        orch.add_node("extra", MachineSpec::dell_r330(), now)
            .unwrap();
        step(&mut orch, &mut now, 10);
        assert_eq!(orch.store_captures.get(), 0);

        // Only a capture stepping back in time reaches below the floor.
        let back = now - SimDuration::from_secs(30);
        assert_eq!(orch.capture_snapshot(back), oracle(&orch, back));
        assert_eq!(orch.store_captures.get(), 1);
        step(&mut orch, &mut now, 10);
        assert_eq!(orch.store_captures.get(), 1);
    }

    /// One step of the node-table property below, all on the one name it
    /// follows.
    #[derive(Debug, Clone)]
    enum Life {
        /// Submit an SGX pod of this many MiB and run a pass.
        Bind(u64),
        /// A lossless probe tick.
        Scrape,
        /// Crash the followed node, if registered.
        Crash,
        /// Bring it back, if registered.
        Recover,
        /// Scrape its frames and hold them back.
        Stash,
        /// Deliver every held-back frame.
        Deliver,
        /// Deregister it, if registered.
        Remove,
        /// Register it again, if not.
        Readd,
        /// Let this many seconds pass.
        Idle(u64),
    }

    fn lives() -> impl Strategy<Value = Vec<Life>> {
        prop::collection::vec(
            prop_oneof![
                (1u64..40).prop_map(Life::Bind),
                Just(Life::Scrape),
                Just(Life::Scrape),
                Just(Life::Crash),
                Just(Life::Recover),
                Just(Life::Stash),
                Just(Life::Deliver),
                Just(Life::Remove),
                Just(Life::Readd),
                (1u64..60).prop_map(Life::Idle),
            ],
            1..40,
        )
    }

    /// The rows of every series tagged `nodename = name`, per measurement:
    /// each pod's sample count.
    fn series_of(orch: &Orchestrator, name: &NodeName, now: SimTime) -> Vec<(TagSet, f64)> {
        [MEASUREMENT_MEMORY, MEASUREMENT_EPC]
            .into_iter()
            .flat_map(|measurement| {
                let select = tsdb::Select::from_measurement(measurement)
                    .aggregate(tsdb::Aggregate::Count)
                    .filter(tsdb::Predicate::TagEq(
                        "nodename".to_string(),
                        name.as_str().to_string(),
                    ))
                    .group_by(["pod_name"]);
                orch.db().query(&select, now)
            })
            .map(|row| (row.tags, row.value))
            .collect()
    }

    /// Holds two nodes equal on everything the master keeps per node:
    /// scrape age, quarantine, stored series, window and view.
    fn alike(
        orch: &Orchestrator,
        a: &NodeName,
        b: &NodeName,
        now: SimTime,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(orch.metrics_age(a, now), orch.metrics_age(b, now));
        prop_assert_eq!(orch.recovery_pending(a), orch.recovery_pending(b));
        prop_assert_eq!(series_of(orch, a, now), series_of(orch, b, now));
        {
            let listing1 = orch.db().window();
            let window = |name: &NodeName| {
                let listed = listing1.groups().any(|group| group == name.as_str());
                let sum = |m| listing1.sum_of_max(name.as_str(), m, listing1.floor());
                (listed, sum(MEASUREMENT_MEMORY), sum(MEASUREMENT_EPC))
            };
            prop_assert_eq!(window(a), window(b));
        }
        let snapshot = orch.capture_snapshot(now);
        prop_assert_eq!(snapshot.node(a), snapshot.node(b));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A fresh incarnation inherits nothing: whatever one name lived
        /// through — scrapes, crashes and recoveries, removals and
        /// re-registrations, frames held back across all of them — the
        /// node registered under it last is indistinguishable from a
        /// never-seen node registered at the same instant, before and
        /// after the old frames arrive, and through the next tick.
        #[test]
        fn node_table_fresh_incarnation_inherits_nothing(ops in lives()) {
            let mut orch = orchestrator();
            let name = NodeName::new("sgx-1");
            let mut stash: Vec<(NodeName, PointBatch, SimTime)> = Vec::new();
            let mut now = SimTime::from_secs(1);
            for op in &ops {
                now += SimDuration::from_secs(5);
                let registered = orch.cluster().node(&name).is_some();
                match *op {
                    Life::Bind(mib) => {
                        orch.submit(sgx_spec("p", mib), now);
                        orch.scheduler_pass(now);
                    }
                    Life::Scrape => orch.probe_pass(now),
                    Life::Crash if registered => {
                        orch.fail_node(&name, now).unwrap();
                    }
                    Life::Recover if registered => orch.recover_node(&name, now).unwrap(),
                    Life::Stash => stash.extend(
                        orch.scrape_frames(now)
                            .into_iter()
                            .filter(|(node, _)| *node == name)
                            .map(|(node, batch)| (node, batch, now)),
                    ),
                    Life::Deliver => {
                        for (node, batch, sampled_at) in stash.drain(..) {
                            orch.ingest_frame(&node, &batch, sampled_at);
                        }
                    }
                    Life::Remove if registered => {
                        orch.remove_node(&name, now).unwrap();
                    }
                    Life::Readd if !registered => {
                        orch.add_node("sgx-1", MachineSpec::sgx_node(), now).unwrap();
                    }
                    Life::Idle(secs) => now += SimDuration::from_secs(secs),
                    _ => {}
                }
            }

            now += SimDuration::from_secs(5);
            if orch.cluster().node(&name).is_some() {
                orch.remove_node(&name, now).unwrap();
            }
            now += SimDuration::from_secs(5);
            orch.add_node("sgx-1", MachineSpec::sgx_node(), now).unwrap();
            let never_seen = orch.add_node("sgx-never-seen", MachineSpec::sgx_node(), now).unwrap();
            alike(&orch, &name, &never_seen, now)?;
            for (node, batch, sampled_at) in stash.drain(..) {
                orch.ingest_frame(&node, &batch, sampled_at);
            }
            alike(&orch, &name, &never_seen, now)?;
            now += SimDuration::from_secs(5);
            orch.probe_pass(now);
            alike(&orch, &name, &never_seen, now)?;
        }
    }

    /// Where a submission of the skip-equivalence property is routed:
    /// the configured default, each registry pipeline, an unknown name
    /// (the default again), and a pipeline that declares no needs.
    const ROUTES: [Option<&str>; 6] = [
        None,
        Some(SGX_BINPACK),
        Some(SGX_SPREAD),
        Some(DEFAULT_SCHEDULER),
        Some("bogus"),
        Some("bare"),
    ];

    /// One step of the skip-equivalence property below.
    #[derive(Debug, Clone)]
    enum QueueOp {
        /// Submit `count` alike pods: SGX of `size` MiB or standard of
        /// `size` GiB, routed by [`ROUTES`]`[route]`.
        Submit {
            count: u8,
            sgx: bool,
            size: u8,
            route: u8,
        },
        /// Submit an under-declaring pod: the driver denies it at launch.
        Malicious,
        /// One scheduling pass.
        Pass,
        /// One probe tick.
        Probe,
        /// Complete the nth running pod, if any.
        Complete(u8),
        /// Crash the nth worker: its pods are requeued.
        Fail(u8),
        /// Bring the nth worker back.
        Recover(u8),
        /// Cordon the nth worker and migrate what it can.
        Drain(u8),
        /// Uncordon the nth worker.
        Uncordon(u8),
        /// Deregister the nth worker and register it again.
        Readd(u8),
        /// Squat the nth worker under the uid `k` submissions ahead:
        /// binding that pod there is refused (see `scheduler_props.rs`).
        Squat(u8, u8),
    }

    fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
        let submit = || {
            (1u8..100, any::<bool>(), 1u8..96, 0u8..6).prop_map(|(count, sgx, size, route)| {
                QueueOp::Submit {
                    count,
                    sgx,
                    size,
                    route,
                }
            })
        };
        prop::collection::vec(
            prop_oneof![
                submit(),
                submit(),
                submit(),
                Just(QueueOp::Malicious),
                Just(QueueOp::Pass),
                Just(QueueOp::Pass),
                Just(QueueOp::Pass),
                Just(QueueOp::Probe),
                (0u8..32).prop_map(QueueOp::Complete),
                (0u8..4).prop_map(QueueOp::Fail),
                (0u8..4).prop_map(QueueOp::Fail),
                (0u8..4).prop_map(QueueOp::Recover),
                (0u8..4).prop_map(QueueOp::Drain),
                (0u8..4).prop_map(QueueOp::Uncordon),
                (0u8..4).prop_map(QueueOp::Readd),
                (0u8..4, 0u8..3).prop_map(|(node, ahead)| QueueOp::Squat(node, ahead)),
            ],
            1..64,
        )
    }

    impl QueueOp {
        /// Applies the op at `now`; `exhaustive` picks the reference
        /// pass. Returns a pass's outcomes.
        fn apply(
            &self,
            orch: &mut Orchestrator,
            now: SimTime,
            exhaustive: bool,
            squat_rng: &mut StdRng,
        ) -> Vec<BindOutcome> {
            let worker = |nth: u8| NodeName::new(WORKERS[usize::from(nth)]);
            // An eviction would requeue a squatter under the uid of the
            // pod it squats: outside the orchestrator's contract, so a
            // node hosting one is neither crashed nor removed.
            let squatted = |orch: &Orchestrator, nth: u8| {
                let name = worker(nth);
                orch.cluster()
                    .node(&name)
                    .unwrap()
                    .pods()
                    .keys()
                    .any(|&uid| {
                        orch.record(uid)
                            .is_none_or(|r| r.outcome != PodOutcome::Running { node: name.clone() })
                    })
            };
            match *self {
                QueueOp::Submit {
                    count,
                    sgx,
                    size,
                    route,
                } => {
                    for i in 0..count {
                        let name = format!("p{i}");
                        let builder = if sgx {
                            PodSpec::builder(name).sgx_resources(ByteSize::from_mib(size.into()))
                        } else {
                            PodSpec::builder(name).memory_resources(ByteSize::from_gib(size.into()))
                        };
                        let mut spec = builder.duration(SimDuration::from_secs(60)).build();
                        spec.scheduler = ROUTES[usize::from(route)].map(str::to_string);
                        orch.submit(spec, now);
                    }
                }
                QueueOp::Malicious => {
                    orch.submit(under_declaring_spec(), now);
                }
                QueueOp::Pass if exhaustive => return orch.pass(now, PendingQueue::offer_every),
                QueueOp::Pass => return orch.scheduler_pass(now),
                QueueOp::Probe => orch.probe_pass(now),
                QueueOp::Complete(nth) => {
                    let running: Vec<PodUid> = orch
                        .records()
                        .values()
                        .filter(|r| matches!(r.outcome, PodOutcome::Running { .. }))
                        .map(|r| r.uid)
                        .collect();
                    if !running.is_empty() {
                        let uid = running[usize::from(nth) % running.len()];
                        orch.complete_pod(uid, now).unwrap();
                    }
                }
                QueueOp::Fail(nth) if !squatted(orch, nth) => {
                    orch.fail_node(&worker(nth), now).unwrap();
                }
                QueueOp::Recover(nth) => orch.recover_node(&worker(nth), now).unwrap(),
                // Draining a squatted node would migrate the squatted uid's
                // own pod from wherever it runs; a squatted target only
                // refuses, and the pod rolls back onto its source.
                QueueOp::Drain(nth) if !squatted(orch, nth) => {
                    orch.drain_node(&worker(nth), now).unwrap();
                }
                QueueOp::Uncordon(nth) => orch.uncordon_node(&worker(nth), now).unwrap(),
                QueueOp::Readd(nth) if !squatted(orch, nth) => {
                    let name = worker(nth);
                    let spec = *orch.cluster().node(&name).unwrap().spec();
                    orch.remove_node(&name, now).unwrap();
                    orch.add_node(name.as_str(), spec, now).unwrap();
                }
                QueueOp::Fail(_) | QueueOp::Drain(_) | QueueOp::Readd(_) => {}
                QueueOp::Squat(nth, ahead) => {
                    let uid = PodUid::new(orch.records().len() as u64 + 1 + u64::from(ahead));
                    let squatter = PodSpec::builder("squatter")
                        .memory_resources(ByteSize::from_mib(1))
                        .build();
                    // A uid already running there, or a full node: no squat.
                    let _ = orch
                        .cluster_mut()
                        .node_mut(&worker(nth))
                        .unwrap()
                        .run_pod(uid, squatter, now, squat_rng);
                }
            }
            Vec::new()
        }
    }

    /// The queue as a pass sees it: FCFS order and the running totals.
    fn queue_state(orch: &Orchestrator) -> (Vec<(PodUid, SimTime)>, usize, EpcPages, ByteSize) {
        let queue = orch.queue();
        let order = queue.iter().map(|p| (p.uid, p.submitted_at)).collect();
        (
            order,
            queue.len(),
            queue.epc_requested(),
            queue.memory_requested(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A pass that skips is a pass that offers every pod: the queue's
        /// walk passes over runs and pods the cycle's ceiling cannot
        /// hold, and the reference pass offers each pending pod to
        /// `place` — yet after every op both orchestrators hold the same
        /// records, events, queue order and totals, and every pass binds
        /// the same pods to the same nodes. The ops cover bursts deep
        /// enough to fill many runs, every route (including a pipeline
        /// that declares no needs, which is never skipped), launch
        /// denials, kubelet refusals, crashes, recoveries, drains,
        /// uncordons and removals that requeue pods into the middle of
        /// the queue.
        #[test]
        fn queue_skip_equivalence(ops in queue_ops(), default in 0usize..3) {
            let build = || {
                let scheduler = [SGX_BINPACK, SGX_SPREAD, DEFAULT_SCHEDULER][default];
                let config = OrchestratorConfig::paper().with_default_scheduler(scheduler);
                let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), config);
                orch.registry.register(
                    PolicyPipeline::builder("bare")
                        .filter(crate::policy::SgxCapableFilter)
                        .build(),
                );
                orch
            };
            let (mut skipping, mut reference) = (build(), build());
            let (mut rng_s, mut rng_r) = (seeded_rng(11), seeded_rng(11));
            let mut now = SimTime::from_secs(1);
            for (step, op) in ops.iter().enumerate() {
                now += SimDuration::from_secs(5);
                let bound = op.apply(&mut skipping, now, false, &mut rng_s);
                let expected = op.apply(&mut reference, now, true, &mut rng_r);
                prop_assert_eq!(bound, expected, "step {}", step);
                prop_assert_eq!(skipping.records(), reference.records(), "step {}", step);
                prop_assert!(
                    skipping.events().iter().eq(reference.events().iter()),
                    "events differ at step {}", step
                );
                prop_assert_eq!(queue_state(&skipping), queue_state(&reference), "step {}", step);
            }
        }
    }
}
