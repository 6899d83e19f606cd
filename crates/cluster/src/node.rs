//! A cluster node and its Kubelet behaviour.
//!
//! The node agent is responsible for everything between "the scheduler
//! bound a pod here" and "the containers are running": admission against
//! allocatable resources, cgroup creation, communicating the pod's EPC
//! limit to the SGX driver (the 16-lines-of-Go / 22-lines-of-C cgo bridge
//! of §V-D), mounting `/dev/isgx` for pods that requested EPC, starting
//! the containers (paying the Fig. 6 startup costs) and tearing pods down.
//!
//! A node keeps its running pods in one uid-sorted table
//! ([`sgx_sim::rows::Rows`], as the driver keeps its enclaves), which
//! reads like the `BTreeMap<PodUid, RunningPod>` it replaced. Pods mostly
//! bind in uid order, so a bind appends; a lower uid that binds late, a
//! termination and a migration out find their row by binary search.
//! Every walk (the two probes' scrapes, eviction, drains) goes in uid
//! order.

use rand::rngs::StdRng;

use des::{SimDuration, SimTime};
use sgx_sim::cost::CostModel;
use sgx_sim::driver::SgxDriver;
use sgx_sim::rows::{Row, Rows};
use sgx_sim::units::{ByteSize, EpcPages};
use sgx_sim::{CgroupPath, EnclaveId, SgxError};

use crate::api::{NodeName, PodSpec, PodUid};
use crate::error::ClusterError;
use crate::machine::MachineSpec;

/// Role of a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Control-plane node; not schedulable for workloads.
    Master,
    /// Worker node.
    Worker,
}

/// Where Kubelet roots pod cgroups; a pod's path is this plus its uid's
/// display form (`/kubepods/pod-7`).
const CGROUP_ROOT: &str = "/kubepods/";

fn cgroup_of(uid: PodUid) -> CgroupPath {
    CgroupPath::new(format!("{CGROUP_ROOT}{uid}"))
}

/// A pod currently running on a node.
#[derive(Debug, Clone)]
pub struct RunningPod {
    /// API-server-assigned uid.
    pub uid: PodUid,
    /// The spec the pod was created from.
    pub spec: PodSpec,
    /// The pod's cgroup path (its identity towards the SGX driver).
    pub cgroup: CgroupPath,
    /// The enclave backing the pod's SGX container, if any.
    pub enclave: Option<EnclaveId>,
    /// Ordinary memory the containers actually allocated.
    pub mem_allocated: ByteSize,
    /// Instant the containers finished starting.
    pub started_at: SimTime,
}

impl RunningPod {
    /// The value of the pod's `pod_name` tag in the monitoring pipeline:
    /// the uid's display form (`pod-7`), borrowed from the tail of the
    /// cgroup path Kubelet built from it, so a scrape formats nothing.
    pub fn pod_name(&self) -> &str {
        &self.cgroup.as_str()[CGROUP_ROOT.len()..]
    }
}

impl Row for RunningPod {
    type Key = PodUid;

    fn key(&self) -> &PodUid {
        &self.uid
    }
}

/// Outcome of starting a pod's containers.
#[derive(Debug, Clone, PartialEq)]
pub struct PodStartReport {
    /// Startup latency: PSW/AESM service launch plus enclave memory
    /// allocation for SGX pods, sub-millisecond for standard pods.
    pub startup_delay: SimDuration,
    /// `Some(cause)` when the SGX driver killed the pod at enclave
    /// initialisation (strict limit enforcement, §V-D/§VI-F). The pod does
    /// not run; its resources are already released.
    pub denied: Option<SgxError>,
}

impl PodStartReport {
    /// `true` when the pod actually started.
    pub fn started(&self) -> bool {
        self.denied.is_none()
    }
}

/// A failed [`Node::migrate_in`], handing back the still-valid enclave
/// checkpoint so the pod can be restored elsewhere.
#[derive(Debug)]
pub struct MigrateInError {
    /// Why the target refused the pod.
    pub cause: ClusterError,
    /// The single-use checkpoint, untouched.
    pub checkpoint: Option<sgx_sim::migration::EnclaveCheckpoint>,
}

impl std::fmt::Display for MigrateInError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "migration refused: {}", self.cause)
    }
}

impl std::error::Error for MigrateInError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// One node: hardware, the `isgx` driver (on SGX machines), and the
/// Kubelet agent state.
///
/// # Examples
///
/// ```
/// use cluster::api::{NodeName, PodSpec, PodUid};
/// use cluster::node::{Node, NodeRole};
/// use cluster::machine::MachineSpec;
/// use des::SimTime;
/// use des::rng::seeded_rng;
/// use sgx_sim::units::ByteSize;
///
/// let mut node = Node::new(NodeName::new("sgx-1"), MachineSpec::sgx_node(), NodeRole::Worker);
/// let spec = PodSpec::builder("job").sgx_resources(ByteSize::from_mib(8)).build();
/// let mut rng = seeded_rng(1);
/// let report = node.run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)?;
/// assert!(report.started());
/// # Ok::<(), cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Node {
    name: NodeName,
    spec: MachineSpec,
    role: NodeRole,
    driver: Option<SgxDriver>,
    cost_model: CostModel,
    pods: Rows<RunningPod>,
    mem_requested: ByteSize,
    epc_requested: EpcPages,
    cordoned: bool,
}

impl Node {
    /// Creates a node; SGX machines get a fresh driver instance whose
    /// platform identity is derived from the node name.
    pub fn new(name: NodeName, spec: MachineSpec, role: NodeRole) -> Self {
        let platform = des::rng::derive_seed(0x5167, name.as_str());
        let driver = spec
            .sgx
            .map(|s| SgxDriver::new(s.version, s.epc).with_platform(platform));
        Node {
            name,
            spec,
            role,
            driver,
            cost_model: CostModel::paper_defaults(),
            pods: Rows::default(),
            mem_requested: ByteSize::ZERO,
            epc_requested: EpcPages::ZERO,
            cordoned: false,
        }
    }

    // ---- identity & capability ----------------------------------------

    /// The node's name.
    pub fn name(&self) -> &NodeName {
        &self.name
    }

    /// The hardware specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The node's role.
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// `true` for workers that are not cordoned (the master is tainted
    /// unschedulable).
    pub fn is_schedulable(&self) -> bool {
        self.role == NodeRole::Worker && !self.cordoned
    }

    /// Cordons or un-cordons the node: a cordoned node keeps its running
    /// pods but accepts no new ones (the first half of a drain).
    pub fn set_cordoned(&mut self, cordoned: bool) {
        self.cordoned = cordoned;
    }

    /// Whether the node is cordoned.
    pub fn is_cordoned(&self) -> bool {
        self.cordoned
    }

    /// `true` when the `isgx` module is loaded — what the device plugin
    /// checks before advertising the SGX resource (§V-A).
    pub fn has_sgx(&self) -> bool {
        self.driver.is_some()
    }

    /// The platform identity of this node's CPU, when it has SGX (anchors
    /// migration keys).
    pub fn platform(&self) -> Option<u64> {
        self.driver.as_ref().map(SgxDriver::platform)
    }

    /// Read access to the SGX driver, when present.
    pub fn driver(&self) -> Option<&SgxDriver> {
        self.driver.as_ref()
    }

    /// Mutable access to the SGX driver, when present (used to toggle
    /// limit enforcement in the Fig. 11 experiment).
    pub fn driver_mut(&mut self) -> Option<&mut SgxDriver> {
        self.driver.as_mut()
    }

    /// Replaces the cost model (ablation studies).
    pub fn set_cost_model(&mut self, model: CostModel) {
        self.cost_model = model;
    }

    // ---- capacity & usage ----------------------------------------------

    /// Total allocatable ordinary memory.
    pub fn allocatable_memory(&self) -> ByteSize {
        self.spec.memory
    }

    /// Total allocatable EPC pages, as advertised by the device plugin
    /// (zero on non-SGX nodes).
    pub fn allocatable_epc(&self) -> EpcPages {
        self.driver
            .as_ref()
            .map_or(EpcPages::ZERO, |d| d.sgx_nr_total_epc_pages())
    }

    /// Memory still available going by admitted *requests*.
    pub(crate) fn memory_unrequested(&self) -> ByteSize {
        self.allocatable_memory().saturating_sub(self.mem_requested)
    }

    /// EPC pages still available going by admitted *requests*.
    pub(crate) fn epc_unrequested(&self) -> EpcPages {
        self.allocatable_epc().saturating_sub(self.epc_requested)
    }

    /// Sum of admitted memory requests.
    pub fn memory_requested(&self) -> ByteSize {
        self.mem_requested
    }

    /// Sum of admitted EPC-page requests.
    pub fn epc_requested(&self) -> EpcPages {
        self.epc_requested
    }

    /// EPC pages actually committed by enclaves (zero on non-SGX nodes).
    pub fn epc_committed(&self) -> EpcPages {
        self.driver
            .as_ref()
            .map_or(EpcPages::ZERO, |d| d.epc().committed_pages())
    }

    /// Current paging slowdown multiplier for enclaves on this node
    /// (1.0 when the EPC is not over-committed).
    pub fn current_slowdown(&self) -> f64 {
        self.driver.as_ref().map_or(1.0, |d| {
            self.cost_model.paging_slowdown(d.overcommit_ratio())
        })
    }

    /// Per-pod EPC usage in bytes, uid-ascending, pods without any left
    /// out — the quantity the SGX probe scrapes.
    ///
    /// One walk over the node's pods, asking the driver `pages_for_pod`
    /// for each: one account lookup a pod, so enclaves under a cgroup that
    /// is no running pod's are never visited, and several under one pod's
    /// are already added up.
    pub fn epc_usage(&self) -> impl Iterator<Item = (&RunningPod, ByteSize)> + '_ {
        self.driver.iter().flat_map(move |driver| {
            self.pods.values().filter_map(move |pod| {
                let pages = driver.pages_for_pod(&pod.cgroup);
                (!pages.is_zero()).then(|| (pod, pages.to_bytes()))
            })
        })
    }

    /// Per-pod ordinary memory usage, uid-ascending, pods without any
    /// left out — the quantity Heapster scrapes.
    pub(crate) fn memory_usage(&self) -> impl Iterator<Item = (&RunningPod, ByteSize)> + '_ {
        self.pods
            .values()
            .filter(|pod| !pod.mem_allocated.is_zero())
            .map(|pod| (pod, pod.mem_allocated))
    }

    /// The running pods, uid-ascending.
    pub fn pods(&self) -> &Rows<RunningPod> {
        &self.pods
    }

    // ---- Kubelet operations ---------------------------------------------

    /// Admission check against allocatable resources and *requests*
    /// accounting — the stock Kubelet behaviour (measured usage is the
    /// scheduler's concern, not admission's).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NodeUnschedulable`] — the master refuses pods.
    /// * [`ClusterError::SgxUnavailable`] — EPC requested on a non-SGX node.
    /// * [`ClusterError::InsufficientResources`] — requests exceed what is
    ///   left.
    pub(crate) fn can_admit(&self, spec: &PodSpec) -> Result<(), ClusterError> {
        if !self.is_schedulable() {
            return Err(ClusterError::NodeUnschedulable(self.name.clone()));
        }
        let requests = spec.resources.requests;
        if requests.needs_sgx() && !self.has_sgx() {
            return Err(ClusterError::SgxUnavailable(self.name.clone()));
        }
        if requests.memory > self.memory_unrequested() {
            return Err(ClusterError::InsufficientResources {
                node: self.name.clone(),
                reason: format!(
                    "memory request {} exceeds unrequested {}",
                    requests.memory,
                    self.memory_unrequested()
                ),
            });
        }
        if requests.epc_pages > self.epc_unrequested() {
            return Err(ClusterError::InsufficientResources {
                node: self.name.clone(),
                reason: format!(
                    "EPC request of {} exceeds unrequested {}",
                    requests.epc_pages,
                    self.epc_unrequested()
                ),
            });
        }
        Ok(())
    }

    /// Runs a pod: admission, cgroup + limit plumbing, container startup.
    ///
    /// On success the report carries the startup delay; if the SGX driver
    /// denied the enclave (limit enforcement) the report's `denied` field
    /// is set and the pod holds no resources.
    ///
    /// # Errors
    ///
    /// * Everything `can_admit` returns.
    /// * [`ClusterError::PodAlreadyRunning`] — uid reuse.
    pub fn run_pod(
        &mut self,
        uid: PodUid,
        spec: PodSpec,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Result<PodStartReport, ClusterError> {
        let cgroup = self.admit(uid, &spec)?;
        let device_mounted = spec.resources.requests.needs_sgx();
        let plan = spec.stressor.plan_on(self.spec.usable_epc());

        // Containers can only reach the isgx module through the device
        // file, which is mounted only for pods that requested EPC.
        if plan.requires_sgx && !device_mounted {
            if let Some(driver) = self.driver.as_mut() {
                driver.remove_pod(&cgroup);
            }
            return Err(ClusterError::SgxUnavailable(self.name.clone()));
        }

        // Startup latency (Fig. 6): standard containers start in <1 ms;
        // SGX containers pay PSW/AESM launch plus enclave allocation
        // proportional to the memory they actually commit.
        let usable_epc = self.spec.usable_epc();
        let startup_delay = if plan.requires_sgx {
            self.cost_model
                .sgx_startup(rng, plan.epc_allocation.to_bytes(), usable_epc)
        } else {
            self.cost_model.standard_startup(rng)
        };

        // Execute the stressor's allocation plan.
        let mut enclave = None;
        if plan.requires_sgx {
            let driver = self.driver.as_mut().expect("checked above");
            let id = driver.create_enclave(cgroup.clone());
            let setup: Result<(), SgxError> = driver
                .add_pages(id, plan.epc_allocation)
                .map(drop)
                .and_then(|()| driver.init_enclave(id));
            match setup {
                Ok(()) => enclave = Some(id),
                Err(cause) => {
                    // The driver killed the pod at launch (§VI-F): tear
                    // down everything it owned.
                    driver.remove_pod(&cgroup);
                    return Ok(PodStartReport {
                        startup_delay,
                        denied: Some(cause),
                    });
                }
            }
        }
        self.bind(RunningPod {
            uid,
            spec,
            cgroup,
            enclave,
            mem_allocated: plan.standard_allocation,
            started_at: now + startup_delay,
        });
        Ok(PodStartReport {
            startup_delay,
            denied: None,
        })
    }

    /// Checkpoints a pod for live migration and releases every local
    /// resource it held (§VIII / Gu et al.): the enclave (if any) is
    /// snapshotted under `key` and self-destroyed, memory is freed and the
    /// pod's cgroup and driver-side limit entry removed. Returns the spec
    /// to recreate the pod and the single-use enclave checkpoint.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownPod`] — no such pod runs here.
    /// * [`ClusterError::Sgx`] — the enclave could not be checkpointed;
    ///   the pod keeps running untouched in that case.
    pub fn migrate_out(
        &mut self,
        uid: PodUid,
        key: sgx_sim::migration::MigrationKey,
    ) -> Result<(PodSpec, Option<sgx_sim::migration::EnclaveCheckpoint>), ClusterError> {
        let pod = self.pods.get(&uid).ok_or(ClusterError::UnknownPod(uid))?;
        let checkpoint = match pod.enclave {
            Some(enclave) => {
                let image = pod.spec.image.name().to_string();
                let driver = self
                    .driver
                    .as_mut()
                    .expect("pods with enclaves run on SGX nodes");
                Some(driver.checkpoint_enclave(enclave, &image, key)?)
            }
            None => None,
        };
        // The enclave is gone (self-destroyed); release everything else.
        let pod = self.release(uid)?;
        Ok((pod.spec, checkpoint))
    }

    /// Receives a migrating pod: admission, cgroup + limit plumbing, and
    /// restoration of its enclave from the checkpoint. Returns the
    /// migration latency (attested-channel handshake plus state transfer
    /// over the cluster network).
    ///
    /// # Errors
    ///
    /// On failure the checkpoint is handed back inside
    /// [`MigrateInError`] so the caller can restore the pod elsewhere
    /// (typically back on its source node).
    pub fn migrate_in(
        &mut self,
        uid: PodUid,
        spec: PodSpec,
        checkpoint: Option<sgx_sim::migration::EnclaveCheckpoint>,
        key: sgx_sim::migration::MigrationKey,
        now: SimTime,
    ) -> Result<SimDuration, MigrateInError> {
        let cgroup = match self.admit(uid, &spec) {
            Ok(cgroup) => cgroup,
            Err(cause) => return Err(MigrateInError { cause, checkpoint }),
        };

        // Transfer latency: handshake + snapshot bytes over the network.
        let wire = checkpoint
            .as_ref()
            .map_or(ByteSize::ZERO, |c| c.wire_size());
        let delay = self.cost_model.migration_transfer(wire);

        let mut enclave = None;
        if let Some(snapshot) = checkpoint {
            let driver = self.driver.as_mut().expect("checked by can_admit");
            match driver.restore_enclave(cgroup.clone(), snapshot, key) {
                Ok(id) => enclave = Some(id),
                Err(restore) => {
                    driver.remove_pod(&cgroup);
                    return Err(MigrateInError {
                        cause: ClusterError::Sgx(restore.error),
                        checkpoint: Some(restore.checkpoint),
                    });
                }
            }
        }

        // Re-establish the standard-memory side of the stressor.
        let plan = spec.stressor.plan_on(self.spec.usable_epc());
        self.bind(RunningPod {
            uid,
            spec,
            cgroup,
            enclave,
            mem_allocated: plan.standard_allocation,
            started_at: now + delay,
        });
        Ok(delay)
    }

    /// Terminates a pod, releasing all its resources (memory, EPC pages,
    /// the cgroup and its driver-side limit entry).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownPod`] if no such pod runs here.
    pub fn terminate_pod(&mut self, uid: PodUid) -> Result<RunningPod, ClusterError> {
        self.release(uid)
    }

    /// The admission a pod passes however it arrives: its uid must be
    /// free and its requests must fit ([`can_admit`](Self::can_admit)),
    /// and — §V-D — Kubelet hands an SGX pod's EPC limit to the driver at
    /// pod-creation time, before any container starts. Returns the pod's
    /// cgroup.
    fn admit(&mut self, uid: PodUid, spec: &PodSpec) -> Result<CgroupPath, ClusterError> {
        if self.pods.contains_key(&uid) {
            return Err(ClusterError::PodAlreadyRunning(uid));
        }
        self.can_admit(spec)?;
        let cgroup = cgroup_of(uid);
        if spec.resources.requests.needs_sgx() {
            let driver = self.driver.as_mut().expect("checked by can_admit");
            driver
                .set_pod_limit(&cgroup, spec.resources.limits.epc_pages)
                .map_err(ClusterError::Sgx)?;
        }
        Ok(cgroup)
    }

    /// Records a started pod and accounts its requests.
    fn bind(&mut self, pod: RunningPod) {
        let requests = pod.spec.resources.requests;
        self.mem_requested += requests.memory;
        self.epc_requested += requests.epc_pages;
        self.pods.insert(pod);
    }

    /// Removes a pod, returns its requests and drops its cgroup's
    /// account in the driver (limit entry and any enclaves left).
    fn release(&mut self, uid: PodUid) -> Result<RunningPod, ClusterError> {
        let pod = self
            .pods
            .remove(&uid)
            .ok_or(ClusterError::UnknownPod(uid))?;
        let requests = pod.spec.resources.requests;
        self.mem_requested = self.mem_requested.saturating_sub(requests.memory);
        self.epc_requested = self.epc_requested.saturating_sub(requests.epc_pages);
        if let Some(driver) = self.driver.as_mut() {
            driver.remove_pod(&pod.cgroup);
        }
        Ok(pod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::rng::seeded_rng;
    use stress::Stressor;

    fn sgx_worker() -> Node {
        Node::new(
            NodeName::new("sgx-1"),
            MachineSpec::sgx_node(),
            NodeRole::Worker,
        )
    }

    fn std_worker() -> Node {
        Node::new(
            NodeName::new("std-1"),
            MachineSpec::dell_r330(),
            NodeRole::Worker,
        )
    }

    /// What Heapster would add up for the node.
    fn memory_used(node: &Node) -> ByteSize {
        node.memory_usage().map(|(_, bytes)| bytes).sum()
    }

    fn sgx_pod(name: &str, mib: u64) -> PodSpec {
        PodSpec::builder(name)
            .sgx_resources(ByteSize::from_mib(mib))
            .build()
    }

    #[test]
    fn standard_pod_lifecycle() {
        let mut node = std_worker();
        let mut rng = seeded_rng(1);
        let spec = PodSpec::builder("web")
            .memory_resources(ByteSize::from_gib(2))
            .build();
        let report = node
            .run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(report.started());
        assert!(report.startup_delay <= SimDuration::from_millis(1));
        assert_eq!(memory_used(&node), ByteSize::from_gib(2));
        assert_eq!(node.memory_requested(), ByteSize::from_gib(2));
        assert_eq!(node.pods().len(), 1);

        let pod = node.terminate_pod(PodUid::new(1)).unwrap();
        assert_eq!(pod.uid, PodUid::new(1));
        assert_eq!(memory_used(&node), ByteSize::ZERO);
        assert!(node.pods().is_empty());
    }

    #[test]
    fn sgx_pod_lifecycle_pays_startup_costs() {
        let mut node = sgx_worker();
        let mut rng = seeded_rng(2);
        let report = node
            .run_pod(
                PodUid::new(1),
                sgx_pod("enclave", 32),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(report.started());
        // ≈100 ms PSW + 32 × 1.6 ms allocation.
        assert!(report.startup_delay > SimDuration::from_millis(120));
        assert!(report.startup_delay < SimDuration::from_millis(200));
        assert_eq!(node.epc_committed(), EpcPages::from_mib_ceil(32));
        assert_eq!(node.epc_requested(), EpcPages::from_mib_ceil(32));

        node.terminate_pod(PodUid::new(1)).unwrap();
        assert_eq!(node.epc_committed(), EpcPages::ZERO);
        assert_eq!(node.epc_requested(), EpcPages::ZERO);
    }

    #[test]
    fn master_refuses_pods() {
        let mut node = Node::new(
            NodeName::new("master"),
            MachineSpec::dell_r330(),
            NodeRole::Master,
        );
        assert!(!node.is_schedulable());
        let mut rng = seeded_rng(3);
        let spec = PodSpec::builder("p")
            .memory_resources(ByteSize::from_mib(1))
            .build();
        let err = node
            .run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(err, ClusterError::NodeUnschedulable(_)));
    }

    #[test]
    fn sgx_pod_on_standard_node_is_refused() {
        let mut node = std_worker();
        let mut rng = seeded_rng(4);
        let err = node
            .run_pod(PodUid::new(1), sgx_pod("e", 8), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(err, ClusterError::SgxUnavailable(_)));
    }

    #[test]
    fn admission_enforces_request_accounting() {
        let mut node = sgx_worker();
        let mut rng = seeded_rng(5);
        node.run_pod(PodUid::new(1), sgx_pod("a", 60), SimTime::ZERO, &mut rng)
            .unwrap();
        // 60 MiB of 93.5 MiB taken; a 60 MiB request no longer fits.
        let err = node
            .run_pod(PodUid::new(2), sgx_pod("b", 60), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientResources { .. }));
        // A 30 MiB one does.
        node.run_pod(PodUid::new(3), sgx_pod("c", 30), SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(node.pods().len(), 2);
    }

    #[test]
    fn memory_admission() {
        let mut node = std_worker();
        let mut rng = seeded_rng(6);
        let big = PodSpec::builder("big")
            .memory_resources(ByteSize::from_gib(65))
            .build();
        assert!(matches!(
            node.run_pod(PodUid::new(1), big, SimTime::ZERO, &mut rng),
            Err(ClusterError::InsufficientResources { .. })
        ));
    }

    #[test]
    fn malicious_pod_denied_when_limits_enforced() {
        let mut node = sgx_worker();
        let mut rng = seeded_rng(7);
        let spec = PodSpec::builder("mal")
            .requirements(crate::api::ResourceRequirements::exact(
                crate::api::Resources::with_epc(ByteSize::ZERO, EpcPages::ONE),
            ))
            .stressor(Stressor::malicious(0.5))
            .build();
        let report = node
            .run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(!report.started());
        assert!(matches!(
            report.denied,
            Some(SgxError::PodLimitExceeded { .. })
        ));
        // Everything was torn down.
        assert!(node.pods().is_empty());
        assert_eq!(node.epc_committed(), EpcPages::ZERO);
        assert_eq!(node.epc_requested(), EpcPages::ZERO);
        // The uid (and its cgroup path) can be reused afterwards.
        let honest = sgx_pod("honest", 8);
        assert!(node
            .run_pod(PodUid::new(1), honest, SimTime::ZERO, &mut rng)
            .unwrap()
            .started());
    }

    #[test]
    fn malicious_pod_steals_epc_when_limits_disabled() {
        let mut node = sgx_worker();
        node.driver_mut().unwrap().set_enforce_limits(false);
        let mut rng = seeded_rng(8);
        let spec = PodSpec::builder("mal")
            .requirements(crate::api::ResourceRequirements::exact(
                crate::api::Resources::with_epc(ByteSize::ZERO, EpcPages::ONE),
            ))
            .stressor(Stressor::malicious(0.5))
            .build();
        let report = node
            .run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(report.started());
        // Uses ~46.75 MiB while having requested 1 page.
        assert!(node.epc_committed() > EpcPages::from_mib_ceil(46));
        assert_eq!(node.epc_requested(), EpcPages::ONE);
    }

    #[test]
    fn overcommit_produces_slowdown() {
        let mut node = sgx_worker();
        node.driver_mut().unwrap().set_enforce_limits(false);
        let mut rng = seeded_rng(9);
        for i in 0..3 {
            let spec = PodSpec::builder(format!("m{i}"))
                .requirements(crate::api::ResourceRequirements::exact(
                    crate::api::Resources::with_epc(ByteSize::ZERO, EpcPages::ONE),
                ))
                .stressor(Stressor::malicious(0.5))
                .build();
            node.run_pod(PodUid::new(i), spec, SimTime::ZERO, &mut rng)
                .unwrap();
        }
        assert!(node.current_slowdown() > 1.0);
    }

    #[test]
    fn probes_see_per_pod_usage() {
        let mut node = sgx_worker();
        let mut rng = seeded_rng(10);
        node.run_pod(PodUid::new(1), sgx_pod("a", 10), SimTime::ZERO, &mut rng)
            .unwrap();
        node.run_pod(PodUid::new(2), sgx_pod("b", 20), SimTime::ZERO, &mut rng)
            .unwrap();
        let usage: Vec<_> = node
            .epc_usage()
            .map(|(pod, bytes)| (pod.uid, pod.pod_name(), bytes))
            .collect();
        assert_eq!(
            usage,
            [
                (
                    PodUid::new(1),
                    "pod-1",
                    EpcPages::from_mib_ceil(10).to_bytes()
                ),
                (
                    PodUid::new(2),
                    "pod-2",
                    EpcPages::from_mib_ceil(20).to_bytes()
                ),
            ]
        );
        assert_eq!(node.memory_usage().count(), 0); // EPC-only stressors
    }

    #[test]
    fn cgroup_paths_name_their_pod_and_nothing_else_does() {
        for uid in [0, 7, 10, u64::MAX].map(PodUid::new) {
            let cgroup = cgroup_of(uid);
            assert_eq!(cgroup.as_str(), format!("/kubepods/{uid}"));
        }
    }

    #[test]
    fn duplicate_uid_rejected() {
        let mut node = std_worker();
        let mut rng = seeded_rng(11);
        let spec = PodSpec::builder("p")
            .memory_resources(ByteSize::from_mib(1))
            .build();
        node.run_pod(PodUid::new(1), spec.clone(), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(matches!(
            node.run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng),
            Err(ClusterError::PodAlreadyRunning(_))
        ));
    }

    #[test]
    fn pod_migrates_between_sgx_nodes() {
        use sgx_sim::migration::MigrationKey;

        let mut source = sgx_worker();
        let mut target = Node::new(
            NodeName::new("sgx-2"),
            MachineSpec::sgx_node(),
            NodeRole::Worker,
        );
        assert_ne!(source.platform(), target.platform());
        let mut rng = seeded_rng(20);
        source
            .run_pod(PodUid::new(1), sgx_pod("svc", 20), SimTime::ZERO, &mut rng)
            .unwrap();

        let key = MigrationKey::derive(source.platform().unwrap(), target.platform().unwrap(), 1);
        let (spec, checkpoint) = source.migrate_out(PodUid::new(1), key).unwrap();
        assert!(checkpoint.is_some());
        // The source is completely clean.
        assert!(source.pods().is_empty());
        assert_eq!(source.epc_committed(), EpcPages::ZERO);
        assert_eq!(source.epc_requested(), EpcPages::ZERO);

        let delay = target
            .migrate_in(
                PodUid::new(1),
                spec,
                checkpoint,
                key,
                SimTime::from_secs(10),
            )
            .unwrap();
        // ≈50 ms handshake + ≈20 MiB over 1 Gbit/s ≈ 168 ms + 0.5 ms metadata.
        assert!(delay > SimDuration::from_millis(200), "{delay}");
        assert!(delay < SimDuration::from_millis(300), "{delay}");
        assert_eq!(target.epc_committed(), EpcPages::from_mib_ceil(20));
        assert_eq!(target.pods().len(), 1);
        let pod = &target.pods()[&PodUid::new(1)];
        assert!(pod.enclave.is_some());
    }

    #[test]
    fn refused_migration_hands_the_checkpoint_back() {
        use sgx_sim::migration::MigrationKey;

        let mut source = sgx_worker();
        let mut target = Node::new(
            NodeName::new("sgx-2"),
            MachineSpec::sgx_node(),
            NodeRole::Worker,
        );
        let mut rng = seeded_rng(21);
        // Fill the target almost completely.
        target
            .run_pod(
                PodUid::new(9),
                sgx_pod("filler", 80),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        source
            .run_pod(PodUid::new(1), sgx_pod("svc", 20), SimTime::ZERO, &mut rng)
            .unwrap();

        let key = MigrationKey::derive(source.platform().unwrap(), target.platform().unwrap(), 1);
        let (spec, checkpoint) = source.migrate_out(PodUid::new(1), key).unwrap();
        let err = target
            .migrate_in(PodUid::new(1), spec.clone(), checkpoint, key, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(
            err.cause,
            ClusterError::InsufficientResources { .. }
        ));
        // The checkpoint survived; restore back on the source.
        source
            .migrate_in(PodUid::new(1), spec, err.checkpoint, key, SimTime::ZERO)
            .unwrap();
        assert_eq!(source.epc_committed(), EpcPages::from_mib_ceil(20));
    }

    #[test]
    fn standard_pods_migrate_without_checkpoints() {
        use sgx_sim::migration::MigrationKey;

        let mut source = std_worker();
        let mut target = Node::new(
            NodeName::new("std-2"),
            MachineSpec::dell_r330(),
            NodeRole::Worker,
        );
        let mut rng = seeded_rng(22);
        let spec = PodSpec::builder("web")
            .memory_resources(ByteSize::from_gib(2))
            .build();
        source
            .run_pod(PodUid::new(1), spec, SimTime::ZERO, &mut rng)
            .unwrap();
        let key = MigrationKey::derive(0, 0, 1);
        let (spec, checkpoint) = source.migrate_out(PodUid::new(1), key).unwrap();
        assert!(checkpoint.is_none());
        let delay = target
            .migrate_in(PodUid::new(1), spec, None, key, SimTime::ZERO)
            .unwrap();
        assert_eq!(delay, SimDuration::from_millis(50)); // handshake only
        assert_eq!(memory_used(&target), ByteSize::from_gib(2));
        assert_eq!(memory_used(&source), ByteSize::ZERO);
    }

    #[test]
    fn cordoned_node_refuses_new_pods_but_keeps_running_ones() {
        let mut node = sgx_worker();
        let mut rng = seeded_rng(31);
        node.run_pod(PodUid::new(1), sgx_pod("a", 8), SimTime::ZERO, &mut rng)
            .unwrap();
        node.set_cordoned(true);
        assert!(node.is_cordoned());
        assert!(!node.is_schedulable());
        assert!(matches!(
            node.run_pod(PodUid::new(2), sgx_pod("b", 8), SimTime::ZERO, &mut rng),
            Err(ClusterError::NodeUnschedulable(_))
        ));
        assert_eq!(node.pods().len(), 1);
        node.set_cordoned(false);
        assert!(node.is_schedulable());
    }

    #[test]
    fn terminate_unknown_pod_errors() {
        let mut node = std_worker();
        assert!(matches!(
            node.terminate_pod(PodUid::new(9)),
            Err(ClusterError::UnknownPod(_))
        ));
    }
}
