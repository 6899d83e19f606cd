//! The paper's modified Intel SGX Linux driver (§V-E), simulated.
//!
//! The paper adds ~115 lines of C to the Intel `isgx` driver to support the
//! orchestrator. This module reproduces the resulting kernel interface:
//!
//! * **Module parameters** readable under
//!   `/sys/module/isgx/parameters/`: `sgx_nr_total_epc_pages` and
//!   `sgx_nr_free_pages` — [`SgxDriver::sgx_nr_total_epc_pages`] and
//!   [`SgxDriver::sgx_nr_free_pages`].
//! * **Usage query**: the number of EPC pages currently given to a pod's
//!   processes — [`SgxDriver::pages_for_pod`].
//! * **Limit ioctl**: a *(cgroup path, EPC page limit)* pair communicated
//!   by Kubelet at pod-creation time; settable **once** per pod so
//!   containers cannot reset their own limits —
//!   [`SgxDriver::set_pod_limit`].
//! * **Admission check in `__sgx_encl_init`**: initialisation of an
//!   enclave is denied when the pages owned by its pod's enclaves exceed
//!   the pod's advertised limit — [`SgxDriver::init_enclave`].

use std::collections::HashMap;

use crate::enclave::{Enclave, EnclaveState};
use crate::epc::{EnclaveUsage, Epc, EpcConfig, PagingActivity};
use crate::error::SgxError;
use crate::ids::{CgroupPath, EnclaveId};
use crate::migration::Measurement;
use crate::units::EpcPages;
use crate::SgxVersion;

/// The simulated modified `isgx` kernel driver for one machine.
///
/// # Examples
///
/// Strict limit enforcement (§V-D): a pod that under-declares its EPC usage
/// is denied at enclave initialisation.
///
/// ```
/// use sgx_sim::driver::SgxDriver;
/// use sgx_sim::units::EpcPages;
/// use sgx_sim::{CgroupPath, SgxError};
///
/// let mut driver = SgxDriver::sgx1_default();
/// let pod = CgroupPath::new("/kubepods/malicious");
/// driver.set_pod_limit(&pod, EpcPages::ONE)?;
///
/// let enclave = driver.create_enclave(pod.clone());
/// driver.add_pages(enclave, EpcPages::from_mib_ceil(46))?; // ~50 % of EPC
/// let denied = driver.init_enclave(enclave);
/// assert!(matches!(denied, Err(SgxError::PodLimitExceeded { .. })));
/// # Ok::<(), sgx_sim::SgxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SgxDriver {
    version: SgxVersion,
    epc: Epc,
    enclaves: HashMap<EnclaveId, Enclave>,
    pod_limits: HashMap<CgroupPath, EpcPages>,
    enforce_limits: bool,
    denied_inits: u64,
    platform: u64,
}

impl SgxDriver {
    /// Creates a driver for the given SGX generation and EPC configuration
    /// (platform identifier 0; see [`with_platform`](Self::with_platform)).
    pub fn new(version: SgxVersion, config: EpcConfig) -> Self {
        SgxDriver {
            version,
            epc: Epc::new(config),
            enclaves: HashMap::new(),
            pod_limits: HashMap::new(),
            enforce_limits: true,
            denied_inits: 0,
            platform: 0,
        }
    }

    /// Assigns the machine's platform identity, which anchors migration
    /// keys and checkpoints to this CPU.
    pub fn with_platform(mut self, platform: u64) -> Self {
        self.platform = platform;
        self
    }

    /// The machine's platform identity.
    pub fn platform(&self) -> u64 {
        self.platform
    }

    /// SGX1 driver on the paper's hardware (128 MiB PRM / 93.5 MiB usable).
    pub fn sgx1_default() -> Self {
        SgxDriver::new(SgxVersion::Sgx1, EpcConfig::sgx1_default())
    }

    /// SGX2 driver on the same EPC configuration, with EDMM available.
    pub fn sgx2_default() -> Self {
        SgxDriver::new(SgxVersion::Sgx2, EpcConfig::sgx1_default())
    }

    /// The simulated hardware generation.
    pub fn version(&self) -> SgxVersion {
        self.version
    }

    /// Read-only view of the EPC accounting.
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// Enables or disables strict limit enforcement; the Fig. 11
    /// experiment compares both settings.
    pub fn set_enforce_limits(&mut self, enforce: bool) {
        self.enforce_limits = enforce;
    }

    /// Number of enclave initialisations the admission check has denied.
    pub fn denied_inits(&self) -> u64 {
        self.denied_inits
    }

    // ---- module parameters (sysfs interface) -------------------------

    /// Total usable EPC pages (`sgx_nr_total_epc_pages`).
    pub fn sgx_nr_total_epc_pages(&self) -> EpcPages {
        self.epc.total_pages()
    }

    /// EPC pages not allocated to any enclave (`sgx_nr_free_pages`).
    pub fn sgx_nr_free_pages(&self) -> EpcPages {
        self.epc.free_pages()
    }

    // ---- limit ioctl ---------------------------------------------------

    /// Records the EPC-page limit for a pod. Limits are set exactly once:
    /// Kubelet issues this at pod creation, before any container starts, so
    /// the containers themselves can never change it.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::LimitAlreadySet`] if the pod already has a limit.
    pub fn set_pod_limit(&mut self, pod: &CgroupPath, limit: EpcPages) -> Result<(), SgxError> {
        if self.pod_limits.contains_key(pod) {
            return Err(SgxError::LimitAlreadySet { pod: pod.clone() });
        }
        self.pod_limits.insert(pod.clone(), limit);
        Ok(())
    }

    /// The limit recorded for a pod, if any.
    pub(crate) fn pod_limit(&self, pod: &CgroupPath) -> Option<EpcPages> {
        self.pod_limits.get(pod).copied()
    }

    /// Forgets a pod's limit and bookkeeping. Models pod deletion: the
    /// cgroup path disappears with the pod, so a future pod reusing the
    /// path is a distinct pod.
    ///
    /// Any enclaves still registered to the pod are destroyed first.
    pub fn remove_pod(&mut self, pod: &CgroupPath) {
        let stale: Vec<EnclaveId> = self
            .enclaves
            .values()
            .filter(|e| e.pod() == pod)
            .map(Enclave::id)
            .collect();
        for id in stale {
            let _ = self.destroy_enclave(id);
        }
        self.pod_limits.remove(pod);
    }

    // ---- enclave lifecycle --------------------------------------------

    /// `ECREATE`: registers a new enclave inside `pod`.
    pub fn create_enclave(&mut self, pod: CgroupPath) -> EnclaveId {
        let id = self.epc.register_enclave();
        self.enclaves
            .insert(id, Enclave::new(id, pod, self.version));
        id
    }

    /// `EADD`: commits pages to a not-yet-initialised enclave.
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] — no such enclave.
    /// * [`SgxError::InvalidState`] — the enclave is already initialised
    ///   (use [`augment_pages`](Self::augment_pages) on SGX2) or destroyed.
    /// * EPC capacity errors from [`Epc::commit`].
    pub fn add_pages(
        &mut self,
        id: EnclaveId,
        pages: EpcPages,
    ) -> Result<PagingActivity, SgxError> {
        let enclave = self.enclaves.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if enclave.state() != EnclaveState::Created {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "EADD is only valid before EINIT",
            });
        }
        let activity = self.epc.commit(id, pages)?;
        self.enclaves
            .get_mut(&id)
            .expect("checked above")
            .add_committed(pages);
        Ok(activity)
    }

    /// `EINIT` with the paper's admission check: when enforcement is on,
    /// the pages owned by all enclaves of the enclosing pod (including this
    /// one) must not exceed the pod's advertised limit.
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] — no such enclave.
    /// * [`SgxError::InvalidState`] — not in the `Created` state.
    /// * [`SgxError::NoPodLimit`] — enforcement is on and the pod never
    ///   advertised a limit.
    /// * [`SgxError::PodLimitExceeded`] — the admission check failed; the
    ///   enclave stays un-initialised and should be destroyed by its owner.
    pub fn init_enclave(&mut self, id: EnclaveId) -> Result<(), SgxError> {
        let enclave = self.enclaves.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if enclave.state() != EnclaveState::Created {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "EINIT is only valid in the created state",
            });
        }
        if self.enforce_limits {
            let pod = enclave.pod().clone();
            let Some(limit) = self.pod_limit(&pod) else {
                self.denied_inits += 1;
                return Err(SgxError::NoPodLimit { pod });
            };
            let owned = self.pages_for_pod(&pod);
            if owned > limit {
                self.denied_inits += 1;
                return Err(SgxError::PodLimitExceeded { pod, owned, limit });
            }
        }
        self.enclaves
            .get_mut(&id)
            .expect("checked above")
            .set_state(EnclaveState::Initialized);
        Ok(())
    }

    /// `EAUG` (SGX2 EDMM): commits additional pages to a running enclave.
    /// The same pod-limit check as at initialisation applies.
    ///
    /// # Errors
    ///
    /// * [`SgxError::DynamicMemoryUnsupported`] — SGX1 hardware.
    /// * [`SgxError::UnknownEnclave`] / [`SgxError::InvalidState`] — wrong
    ///   target or lifecycle state.
    /// * [`SgxError::PodLimitExceeded`] — enforcement denies the growth.
    /// * EPC capacity errors from [`Epc::commit`].
    pub fn augment_pages(
        &mut self,
        id: EnclaveId,
        pages: EpcPages,
    ) -> Result<PagingActivity, SgxError> {
        if !self.version.supports_dynamic_memory() {
            return Err(SgxError::DynamicMemoryUnsupported);
        }
        let enclave = self.enclaves.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if enclave.state() != EnclaveState::Initialized {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "EAUG is only valid on an initialized enclave",
            });
        }
        if self.enforce_limits {
            let pod = enclave.pod().clone();
            let limit = self
                .pod_limit(&pod)
                .ok_or(SgxError::NoPodLimit { pod: pod.clone() })?;
            let owned = self.pages_for_pod(&pod) + pages;
            if owned > limit {
                return Err(SgxError::PodLimitExceeded { pod, owned, limit });
            }
        }
        let activity = self.epc.commit(id, pages)?;
        self.enclaves
            .get_mut(&id)
            .expect("checked above")
            .add_committed(pages);
        Ok(activity)
    }

    /// SGX2 trim: releases pages from a running enclave back to the EPC.
    ///
    /// # Errors
    ///
    /// * [`SgxError::DynamicMemoryUnsupported`] — SGX1 hardware.
    /// * [`SgxError::UnknownEnclave`] / [`SgxError::InvalidState`] — wrong
    ///   target, lifecycle state, or more pages than committed.
    pub fn trim_pages(&mut self, id: EnclaveId, pages: EpcPages) -> Result<(), SgxError> {
        if !self.version.supports_dynamic_memory() {
            return Err(SgxError::DynamicMemoryUnsupported);
        }
        let enclave = self.enclaves.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if enclave.state() != EnclaveState::Initialized {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "trim is only valid on an initialized enclave",
            });
        }
        self.epc.release(id, pages)?;
        self.enclaves
            .get_mut(&id)
            .expect("checked above")
            .sub_committed(pages);
        Ok(())
    }

    /// Performs an `ecall` into an initialised enclave, touching `working_set`
    /// pages (faulting them in when paged out).
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] / [`SgxError::InvalidState`] — wrong
    ///   target or lifecycle state, or working set beyond committed pages.
    pub fn ecall(
        &mut self,
        id: EnclaveId,
        working_set: EpcPages,
    ) -> Result<PagingActivity, SgxError> {
        let enclave = self.enclaves.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if enclave.state() != EnclaveState::Initialized {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "ecall requires an initialized enclave",
            });
        }
        let activity = self.epc.touch(id, working_set)?;
        self.enclaves
            .get_mut(&id)
            .expect("checked above")
            .record_ecall();
        Ok(activity)
    }

    /// Checkpoints a running enclave for migration (§VIII / Gu et al.):
    /// reaches the quiescent point, encrypts the state under `key`, and
    /// **destroys the source enclave** so the state can never run twice
    /// (fork protection). Returns the single-use checkpoint.
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] — no such enclave.
    /// * [`SgxError::InvalidState`] — the enclave is not initialised (only
    ///   running enclaves are migrated).
    pub fn checkpoint_enclave(
        &mut self,
        id: EnclaveId,
        code_identity: &str,
        key: crate::migration::MigrationKey,
    ) -> Result<crate::migration::EnclaveCheckpoint, SgxError> {
        let enclave = self.enclaves.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if enclave.state() != EnclaveState::Initialized {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "only an initialized enclave can be checkpointed",
            });
        }
        let checkpoint = crate::migration::EnclaveCheckpoint {
            measurement: Measurement::compute(code_identity, enclave.committed()),
            committed: enclave.committed(),
            ecalls: enclave.ecalls(),
            key_tag: crate::migration::EnclaveCheckpoint::tag_for(key),
        };
        // Self-destroy: after the snapshot the source must never resume.
        self.destroy_enclave(id)?;
        Ok(checkpoint)
    }

    /// Restores a checkpointed enclave on this platform. On success the
    /// checkpoint is consumed (each snapshot runs at most once — rollback
    /// protection); on failure it is handed back inside the error so the
    /// caller may restore it elsewhere. The restored enclave passes the
    /// normal `EINIT` admission path, including the pod-limit check, and
    /// resumes initialised.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] wrapping
    /// [`SgxError::AttestationFailed`] (wrong migration key) or any EPC
    /// capacity / pod-limit admission error of the ordinary launch path.
    ///
    /// [`RestoreError`]: crate::migration::RestoreError
    pub fn restore_enclave(
        &mut self,
        pod: CgroupPath,
        checkpoint: crate::migration::EnclaveCheckpoint,
        key: crate::migration::MigrationKey,
    ) -> Result<EnclaveId, crate::migration::RestoreError> {
        if !checkpoint.opens_with(key) {
            return Err(crate::migration::RestoreError {
                error: SgxError::AttestationFailed {
                    reason: "migration key does not open this checkpoint",
                },
                checkpoint,
            });
        }
        let id = self.create_enclave(pod);
        let restore = (|this: &mut Self| {
            this.add_pages(id, checkpoint.committed)?;
            this.init_enclave(id)
        })(self);
        if let Err(error) = restore {
            // Leave no half-restored enclave behind; the snapshot stays
            // valid for one restore attempt elsewhere.
            let _ = self.destroy_enclave(id);
            return Err(crate::migration::RestoreError { error, checkpoint });
        }
        self.enclaves
            .get_mut(&id)
            .expect("just created")
            .set_ecalls(checkpoint.ecalls);
        Ok(id)
    }

    /// Destroys an enclave, releasing all its EPC pages.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::UnknownEnclave`] if the enclave is not
    /// registered (or already destroyed).
    pub fn destroy_enclave(&mut self, id: EnclaveId) -> Result<EnclaveUsage, SgxError> {
        self.enclaves
            .remove(&id)
            .ok_or(SgxError::UnknownEnclave(id))?;
        self.epc.deregister_enclave(id)
    }

    // ---- queries -------------------------------------------------------

    /// Bookkeeping record of an enclave, or `None` when unknown.
    pub fn enclave(&self, id: EnclaveId) -> Option<&Enclave> {
        self.enclaves.get(&id)
    }

    /// Every registered enclave, in no particular order — one pass gives
    /// a scraper each pod's usage, where [`pages_for_pod`](Self::pages_for_pod)
    /// per pod would make a pass per pod.
    pub fn enclaves(&self) -> impl Iterator<Item = &Enclave> {
        self.enclaves.values()
    }

    /// Pages owned by all enclaves of a pod (zero when the pod has none).
    pub fn pages_for_pod(&self, pod: &CgroupPath) -> EpcPages {
        self.enclaves
            .values()
            .filter(|e| e.pod() == pod)
            .map(Enclave::committed)
            .sum()
    }

    /// Committed ÷ usable ratio; above 1.0 the machine is paging.
    pub fn overcommit_ratio(&self) -> f64 {
        self.epc.overcommit_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ByteSize;

    fn pod(n: u32) -> CgroupPath {
        CgroupPath::new(format!("/kubepods/pod-{n}"))
    }

    fn driver_with_limit(pod_id: u32, limit_pages: u64) -> SgxDriver {
        let mut d = SgxDriver::sgx1_default();
        d.set_pod_limit(&pod(pod_id), EpcPages::new(limit_pages))
            .unwrap();
        d
    }

    #[test]
    fn module_params_reflect_epc_state() {
        let mut d = driver_with_limit(1, 10_000);
        assert_eq!(d.sgx_nr_total_epc_pages().count(), 23_936);
        assert_eq!(d.sgx_nr_free_pages().count(), 23_936);

        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(1000)).unwrap();
        assert_eq!(d.sgx_nr_free_pages().count(), 22_936);
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut d = driver_with_limit(1, 5000);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(4000)).unwrap();
        d.init_enclave(e).unwrap();
        assert_eq!(d.enclave(e).unwrap().state(), EnclaveState::Initialized);
        d.ecall(e, EpcPages::new(4000)).unwrap();
        assert_eq!(d.enclave(e).unwrap().ecalls(), 1);
        let usage = d.destroy_enclave(e).unwrap();
        assert_eq!(usage.committed, EpcPages::new(4000));
        assert_eq!(d.sgx_nr_free_pages().count(), 23_936);
    }

    #[test]
    fn init_denied_when_pod_exceeds_limit() {
        let mut d = driver_with_limit(1, 100);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(200)).unwrap();
        let err = d.init_enclave(e).unwrap_err();
        assert!(matches!(err, SgxError::PodLimitExceeded { .. }));
        assert_eq!(d.denied_inits(), 1);
    }

    #[test]
    fn limit_counts_all_enclaves_of_the_pod() {
        let mut d = driver_with_limit(1, 100);
        let first = d.create_enclave(pod(1));
        d.add_pages(first, EpcPages::new(80)).unwrap();
        d.init_enclave(first).unwrap();
        // A second enclave in the same pod pushes the pod over its limit.
        let second = d.create_enclave(pod(1));
        d.add_pages(second, EpcPages::new(30)).unwrap();
        assert!(matches!(
            d.init_enclave(second),
            Err(SgxError::PodLimitExceeded { .. })
        ));
    }

    #[test]
    fn init_without_limit_denied_when_enforcing() {
        let mut d = SgxDriver::sgx1_default();
        let e = d.create_enclave(pod(9));
        d.add_pages(e, EpcPages::ONE).unwrap();
        assert!(matches!(
            d.init_enclave(e),
            Err(SgxError::NoPodLimit { .. })
        ));
    }

    #[test]
    fn enforcement_can_be_disabled() {
        let mut d = SgxDriver::sgx1_default();
        d.set_enforce_limits(false);
        let e = d.create_enclave(pod(9));
        d.add_pages(e, EpcPages::from_mib_ceil(46)).unwrap();
        d.init_enclave(e).unwrap(); // no limit, no problem: Fig. 11's broken world
    }

    #[test]
    fn limits_are_set_once() {
        let mut d = SgxDriver::sgx1_default();
        d.set_pod_limit(&pod(1), EpcPages::new(10)).unwrap();
        let err = d.set_pod_limit(&pod(1), EpcPages::new(999)).unwrap_err();
        assert!(matches!(err, SgxError::LimitAlreadySet { .. }));
        assert_eq!(d.pod_limit(&pod(1)), Some(EpcPages::new(10)));
    }

    #[test]
    fn eadd_after_einit_rejected() {
        let mut d = driver_with_limit(1, 1000);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(10)).unwrap();
        d.init_enclave(e).unwrap();
        assert!(matches!(
            d.add_pages(e, EpcPages::new(10)),
            Err(SgxError::InvalidState { .. })
        ));
    }

    #[test]
    fn sgx1_rejects_dynamic_memory() {
        let mut d = driver_with_limit(1, 1000);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(10)).unwrap();
        d.init_enclave(e).unwrap();
        assert_eq!(
            d.augment_pages(e, EpcPages::new(10)).unwrap_err(),
            SgxError::DynamicMemoryUnsupported
        );
        assert_eq!(
            d.trim_pages(e, EpcPages::new(5)).unwrap_err(),
            SgxError::DynamicMemoryUnsupported
        );
    }

    #[test]
    fn sgx2_supports_edmm_within_limits() {
        let mut d = SgxDriver::sgx2_default();
        d.set_pod_limit(&pod(1), EpcPages::new(100)).unwrap();
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(40)).unwrap();
        d.init_enclave(e).unwrap();
        d.augment_pages(e, EpcPages::new(50)).unwrap();
        assert_eq!(d.pages_for_pod(&pod(1)), EpcPages::new(90));
        // Growing past the pod limit is denied.
        assert!(matches!(
            d.augment_pages(e, EpcPages::new(20)),
            Err(SgxError::PodLimitExceeded { .. })
        ));
        // Trimming gives pages back.
        d.trim_pages(e, EpcPages::new(30)).unwrap();
        assert_eq!(d.pages_for_pod(&pod(1)), EpcPages::new(60));
        assert_eq!(d.sgx_nr_free_pages().count(), 23_936 - 60);
    }

    #[test]
    fn ecall_requires_initialized_state() {
        let mut d = driver_with_limit(1, 100);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(10)).unwrap();
        assert!(matches!(
            d.ecall(e, EpcPages::new(10)),
            Err(SgxError::InvalidState { .. })
        ));
    }

    #[test]
    fn remove_pod_destroys_enclaves_and_frees_limit() {
        let mut d = driver_with_limit(1, 1000);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(100)).unwrap();
        d.remove_pod(&pod(1));
        assert_eq!(d.pod_limit(&pod(1)), None);
        assert!(d.enclave(e).is_none());
        assert_eq!(d.sgx_nr_free_pages().count(), 23_936);
        // The path can now be reused by a new pod with a fresh limit.
        d.set_pod_limit(&pod(1), EpcPages::new(5)).unwrap();
    }

    #[test]
    fn checkpoint_migrates_state_and_prevents_forks() {
        use crate::migration::MigrationKey;

        let mut source = SgxDriver::sgx1_default().with_platform(1);
        let mut target = SgxDriver::sgx1_default().with_platform(2);
        source.set_pod_limit(&pod(1), EpcPages::new(1000)).unwrap();
        target.set_pod_limit(&pod(1), EpcPages::new(1000)).unwrap();

        let e = source.create_enclave(pod(1));
        source.add_pages(e, EpcPages::new(500)).unwrap();
        source.init_enclave(e).unwrap();
        source.ecall(e, EpcPages::new(500)).unwrap();

        let key = MigrationKey::derive(1, 2, 42);
        let checkpoint = source.checkpoint_enclave(e, "svc-v1", key).unwrap();
        // Fork protection: the source enclave is gone, its pages freed.
        assert!(source.enclave(e).is_none());
        assert_eq!(source.sgx_nr_free_pages().count(), 23_936);

        let restored = target.restore_enclave(pod(1), checkpoint, key).unwrap();
        let enclave = target.enclave(restored).unwrap();
        assert_eq!(enclave.state(), EnclaveState::Initialized);
        assert_eq!(enclave.committed(), EpcPages::new(500));
        assert_eq!(enclave.ecalls(), 1);
        // Rollback protection is structural: the checkpoint was consumed
        // by value, so it cannot be restored a second time.
    }

    #[test]
    fn restore_requires_the_attested_migration_key() {
        use crate::migration::MigrationKey;

        let mut source = SgxDriver::sgx1_default().with_platform(1);
        let mut target = SgxDriver::sgx1_default().with_platform(2);
        source.set_pod_limit(&pod(1), EpcPages::new(100)).unwrap();
        target.set_pod_limit(&pod(1), EpcPages::new(100)).unwrap();
        let e = source.create_enclave(pod(1));
        source.add_pages(e, EpcPages::new(10)).unwrap();
        source.init_enclave(e).unwrap();

        let key = MigrationKey::derive(1, 2, 7);
        let checkpoint = source.checkpoint_enclave(e, "svc", key).unwrap();
        let wrong = MigrationKey::derive(1, 2, 8);
        let err = target
            .restore_enclave(pod(1), checkpoint, wrong)
            .unwrap_err();
        assert!(matches!(err.error, SgxError::AttestationFailed { .. }));
        // The checkpoint came back and still opens with the right key.
        assert!(err.checkpoint.opens_with(key));
    }

    #[test]
    fn restore_respects_target_pod_limits() {
        use crate::migration::MigrationKey;

        let mut source = SgxDriver::sgx1_default().with_platform(1);
        let mut target = SgxDriver::sgx1_default().with_platform(2);
        source.set_pod_limit(&pod(1), EpcPages::new(1000)).unwrap();
        target.set_pod_limit(&pod(1), EpcPages::new(100)).unwrap(); // tighter

        let e = source.create_enclave(pod(1));
        source.add_pages(e, EpcPages::new(500)).unwrap();
        source.init_enclave(e).unwrap();

        let key = MigrationKey::derive(1, 2, 7);
        let checkpoint = source.checkpoint_enclave(e, "svc", key).unwrap();
        let err = target.restore_enclave(pod(1), checkpoint, key).unwrap_err();
        assert!(matches!(err.error, SgxError::PodLimitExceeded { .. }));
        // The failed restore leaves no residue on the target.
        assert_eq!(target.sgx_nr_free_pages().count(), 23_936);
        assert_eq!(target.pages_for_pod(&pod(1)), EpcPages::ZERO);
    }

    #[test]
    fn only_running_enclaves_can_be_checkpointed() {
        use crate::migration::MigrationKey;

        let mut d = SgxDriver::sgx1_default().with_platform(1);
        d.set_pod_limit(&pod(1), EpcPages::new(100)).unwrap();
        let e = d.create_enclave(pod(1));
        d.add_pages(e, EpcPages::new(10)).unwrap();
        let key = MigrationKey::derive(1, 2, 7);
        assert!(matches!(
            d.checkpoint_enclave(e, "svc", key),
            Err(SgxError::InvalidState { .. })
        ));
    }

    #[test]
    fn overcommit_ratio_visible_through_driver() {
        let mut d = SgxDriver::sgx1_default();
        d.set_enforce_limits(false);
        let e = d.create_enclave(pod(1));
        d.add_pages(e, ByteSize::from_mib(100).to_epc_pages_ceil())
            .unwrap();
        assert!(d.overcommit_ratio() > 1.0);
    }
}
