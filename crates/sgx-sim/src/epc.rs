//! The Enclave Page Cache: shared, scarce, contended.
//!
//! The EPC lives in Processor Reserved Memory and is shared by *all*
//! enclaves on a machine (§II). This module does page-granular accounting:
//! which enclave owns how many pages, how many of those are resident in the
//! EPC versus paged out to (encrypted) system memory, and how much paging
//! traffic an allocation caused. The orchestrator layers read these numbers
//! through the driver to make placement decisions.
//!
//! The per-enclave usage is one id-sorted row an enclave ([`Rows`]): ids
//! are minted in ascending order, so registering appends, and the
//! eviction scan walks the rows in id order.

use crate::error::SgxError;
use crate::ids::EnclaveId;
use crate::rows::{Row, Rows};
use crate::units::{ByteSize, EpcPages, PRM_SIZE, USABLE_EPC};

/// Static configuration of a machine's EPC.
///
/// # Examples
///
/// ```
/// use sgx_sim::epc::EpcConfig;
///
/// // The paper's hardware: 128 MiB PRM, 93.5 MiB usable.
/// let current = EpcConfig::sgx1_default();
/// assert_eq!(current.usable.as_mib_f64(), 93.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpcConfig {
    /// Total Processor Reserved Memory (UEFI-configured; reboot to change).
    pub prm: ByteSize,
    /// Memory usable by applications after SGX metadata overhead.
    pub usable: ByteSize,
    /// Whether the driver's paging mechanism may evict pages to system
    /// memory, allowing over-commitment at a steep performance cost. The
    /// paper's orchestrator deliberately avoids ever relying on this.
    pub paging_enabled: bool,
}

impl EpcConfig {
    /// The paper's hardware configuration: 128 MiB PRM / 93.5 MiB usable,
    /// paging available.
    pub fn sgx1_default() -> Self {
        EpcConfig {
            prm: PRM_SIZE,
            usable: USABLE_EPC,
            paging_enabled: true,
        }
    }

    /// Usable pages under this configuration.
    pub(crate) fn usable_pages(&self) -> EpcPages {
        self.usable.to_epc_pages_ceil()
    }
}

impl Default for EpcConfig {
    fn default() -> Self {
        EpcConfig::sgx1_default()
    }
}

/// Per-enclave page accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnclaveUsage {
    /// Pages the enclave owns (committed via `EADD`/`EAUG`).
    pub committed: EpcPages,
    /// Pages currently resident in the EPC.
    pub resident: EpcPages,
    /// Pages evicted to encrypted system memory.
    pub paged_out: EpcPages,
    /// Cumulative page faults served for this enclave.
    pub faults: u64,
}

/// One enclave's row in [`Epc`]'s table.
#[derive(Debug, Clone, Copy)]
struct UsageRow {
    id: EnclaveId,
    usage: EnclaveUsage,
}

impl Row for UsageRow {
    type Key = EnclaveId;

    fn key(&self) -> &EnclaveId {
        &self.id
    }
}

/// Outcome of a commit or touch operation, reporting paging activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagingActivity {
    /// Pages evicted from other (or the same) enclaves to make room.
    pub evicted: EpcPages,
    /// Page faults served (pages brought back into the EPC).
    pub faults: u64,
}

/// The Enclave Page Cache allocator for one machine.
///
/// Maintains the invariant `free + Σ resident == usable` at all times, and
/// `resident <= committed` per enclave.
///
/// # Examples
///
/// ```
/// use sgx_sim::epc::{Epc, EpcConfig};
/// use sgx_sim::units::EpcPages;
///
/// let mut epc = Epc::new(EpcConfig::sgx1_default());
/// let enclave = epc.register_enclave();
/// epc.commit(enclave, EpcPages::from_mib_ceil(10))?;
/// assert_eq!(epc.usage(enclave).unwrap().resident, EpcPages::from_mib_ceil(10));
/// # Ok::<(), sgx_sim::SgxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Epc {
    config: EpcConfig,
    free: EpcPages,
    /// Σ `committed` over `enclaves`, kept by every call that changes one.
    committed: EpcPages,
    enclaves: Rows<UsageRow>,
    next_id: u64,
}

impl Epc {
    /// Creates an empty EPC under the given configuration.
    pub fn new(config: EpcConfig) -> Self {
        Epc {
            free: config.usable_pages(),
            committed: EpcPages::ZERO,
            config,
            enclaves: Rows::default(),
            next_id: 0,
        }
    }

    /// Total usable pages (the `sgx_nr_total_epc_pages` module parameter).
    pub fn total_pages(&self) -> EpcPages {
        self.config.usable_pages()
    }

    /// Pages not currently resident for any enclave (the
    /// `sgx_nr_free_pages` module parameter).
    pub fn free_pages(&self) -> EpcPages {
        self.free
    }

    /// Total pages committed across all enclaves (may exceed
    /// [`total_pages`](Self::total_pages) when paging is active).
    pub fn committed_pages(&self) -> EpcPages {
        self.committed
    }

    /// Ratio of committed pages to usable pages; values above 1.0 mean the
    /// machine is over-committed and paging.
    pub fn overcommit_ratio(&self) -> f64 {
        let usable = self.total_pages().count();
        if usable == 0 {
            return 0.0;
        }
        self.committed_pages().count() as f64 / usable as f64
    }

    /// Registers a new enclave (the accounting side of `ECREATE`) and
    /// returns its identifier.
    pub fn register_enclave(&mut self) -> EnclaveId {
        let id = EnclaveId::new(self.next_id);
        self.next_id += 1;
        self.enclaves.insert(UsageRow {
            id,
            usage: EnclaveUsage::default(),
        });
        id
    }

    /// Removes an enclave, releasing all its pages (the accounting side of
    /// `EREMOVE` on teardown).
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::UnknownEnclave`] if the enclave is not
    /// registered.
    pub fn deregister_enclave(&mut self, id: EnclaveId) -> Result<EnclaveUsage, SgxError> {
        let UsageRow { usage, .. } = self
            .enclaves
            .remove(&id)
            .ok_or(SgxError::UnknownEnclave(id))?;
        self.free += usage.resident;
        self.committed -= usage.committed;
        Ok(usage)
    }

    /// Per-enclave usage, or `None` when the enclave is not registered.
    pub fn usage(&self, id: EnclaveId) -> Option<EnclaveUsage> {
        self.enclaves.get(&id).map(|row| row.usage)
    }

    fn usage_mut(&mut self, id: EnclaveId) -> Result<&mut EnclaveUsage, SgxError> {
        self.enclaves
            .get_mut(&id)
            .map(|row| &mut row.usage)
            .ok_or(SgxError::UnknownEnclave(id))
    }

    /// Commits `pages` additional pages to `id` (`EADD` before `EINIT`, or
    /// `EAUG` on SGX2), bringing them resident — evicting victims when the
    /// free pool runs dry and paging is enabled.
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] — `id` is not registered.
    /// * [`SgxError::EpcOverCapacity`] — the enclave's committed size would
    ///   exceed the whole usable EPC while paging is disabled.
    /// * [`SgxError::EpcExhausted`] — not enough free pages and paging is
    ///   disabled.
    pub fn commit(&mut self, id: EnclaveId, pages: EpcPages) -> Result<PagingActivity, SgxError> {
        let committed = self
            .usage(id)
            .ok_or(SgxError::UnknownEnclave(id))?
            .committed;
        if !self.config.paging_enabled {
            if committed + pages > self.total_pages() {
                return Err(SgxError::EpcOverCapacity {
                    requested: committed + pages,
                    usable: self.total_pages(),
                });
            }
            if pages > self.free {
                return Err(SgxError::EpcExhausted {
                    requested: pages,
                    free: self.free,
                });
            }
        }

        let mut activity = PagingActivity::default();
        let shortfall = pages.saturating_sub(self.free);
        if !shortfall.is_zero() {
            activity.evicted = self.evict(shortfall, Some(id));
        }
        let grabbed = pages.min(self.free);
        self.free -= grabbed;
        self.committed += pages;
        let usage = self.usage_mut(id).expect("checked above");
        usage.committed += pages;
        usage.resident += grabbed;
        usage.paged_out += pages - grabbed;
        Ok(activity)
    }

    /// Releases `pages` committed pages from `id` (SGX2 `EMODT`/trim).
    /// Paged-out pages are released first; resident pages are then returned
    /// to the free pool.
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] — `id` is not registered.
    /// * [`SgxError::InvalidState`] — the enclave owns fewer than `pages`.
    pub fn release(&mut self, id: EnclaveId, pages: EpcPages) -> Result<(), SgxError> {
        let usage = self.usage_mut(id)?;
        if usage.committed < pages {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "cannot release more pages than committed",
            });
        }
        let from_swap = pages.min(usage.paged_out);
        usage.paged_out -= from_swap;
        let from_resident = pages - from_swap;
        usage.resident -= from_resident;
        usage.committed -= pages;
        self.free += from_resident;
        self.committed -= pages;
        Ok(())
    }

    /// Touches `pages` of `id`'s committed pages, faulting them in if they
    /// were paged out (and evicting victims to make room).
    ///
    /// # Errors
    ///
    /// * [`SgxError::UnknownEnclave`] — `id` is not registered.
    /// * [`SgxError::InvalidState`] — touching more pages than committed.
    pub fn touch(&mut self, id: EnclaveId, pages: EpcPages) -> Result<PagingActivity, SgxError> {
        let usage = self.usage(id).ok_or(SgxError::UnknownEnclave(id))?;
        if pages > usage.committed {
            return Err(SgxError::InvalidState {
                enclave: id,
                reason: "cannot touch more pages than committed",
            });
        }
        let mut activity = PagingActivity::default();
        let missing = pages.saturating_sub(usage.resident);
        if missing.is_zero() {
            return Ok(activity);
        }
        let shortfall = missing.saturating_sub(self.free);
        if !shortfall.is_zero() {
            activity.evicted = self.evict(shortfall, Some(id));
        }
        let faulted = missing.min(self.free);
        self.free -= faulted;
        let usage = self.usage_mut(id).expect("checked above");
        usage.resident += faulted;
        usage.paged_out -= faulted;
        usage.faults += faulted.count();
        activity.faults = faulted.count();
        Ok(activity)
    }

    /// Evicts up to `target` resident pages, preferring the enclave with
    /// the most resident pages (deterministic tie-break by lowest id) and
    /// skipping `protect` so an enclave does not steal from itself while
    /// faulting in.
    fn evict(&mut self, target: EpcPages, protect: Option<EnclaveId>) -> EpcPages {
        let mut evicted = EpcPages::ZERO;
        while evicted < target {
            let victim = self
                .enclaves
                .values()
                .filter(|row| Some(row.id) != protect && !row.usage.resident.is_zero())
                .max_by_key(|row| (row.usage.resident, std::cmp::Reverse(row.id)))
                .map(|row| row.id);
            let Some(victim) = victim else { break };
            let usage = self.usage_mut(victim).expect("victim exists");
            let take = (target - evicted).min(usage.resident);
            usage.resident -= take;
            usage.paged_out += take;
            self.free += take;
            evicted += take;
        }
        evicted
    }

    /// Checks the internal accounting invariant; used by tests and
    /// debug assertions.
    pub fn check_invariants(&self) -> bool {
        let resident: EpcPages = self.enclaves.values().map(|row| row.usage.resident).sum();
        let per_enclave_ok = self
            .enclaves
            .values()
            .all(|row| row.usage.resident + row.usage.paged_out == row.usage.committed);
        self.free + resident == self.total_pages() && per_enclave_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_epc(pages: u64, paging: bool) -> Epc {
        let config = EpcConfig {
            prm: ByteSize::from_bytes(pages * 4096 * 2),
            usable: ByteSize::from_bytes(pages * 4096),
            paging_enabled: paging,
        };
        Epc::new(config)
    }

    #[test]
    fn default_config_matches_paper() {
        let epc = Epc::new(EpcConfig::sgx1_default());
        assert_eq!(epc.total_pages().count(), 23_936);
        assert_eq!(epc.free_pages(), epc.total_pages());
        assert!(epc.check_invariants());
    }

    #[test]
    fn commit_within_capacity() {
        let mut epc = small_epc(100, false);
        let a = epc.register_enclave();
        let act = epc.commit(a, EpcPages::new(40)).unwrap();
        assert_eq!(act.evicted, EpcPages::ZERO);
        assert_eq!(epc.free_pages(), EpcPages::new(60));
        assert_eq!(epc.usage(a).unwrap().resident, EpcPages::new(40));
        assert!(epc.check_invariants());
    }

    #[test]
    fn commit_beyond_capacity_fails_without_paging() {
        let mut epc = small_epc(100, false);
        let a = epc.register_enclave();
        epc.commit(a, EpcPages::new(90)).unwrap();
        let err = epc.commit(a, EpcPages::new(20)).unwrap_err();
        assert!(matches!(err, SgxError::EpcOverCapacity { .. }));
        // A second enclave hitting the free-pool wall gets EpcExhausted.
        let b = epc.register_enclave();
        let err = epc.commit(b, EpcPages::new(20)).unwrap_err();
        assert!(matches!(err, SgxError::EpcExhausted { .. }));
        assert!(epc.check_invariants());
    }

    #[test]
    fn overcommit_pages_out_victims() {
        let mut epc = small_epc(100, true);
        let a = epc.register_enclave();
        let b = epc.register_enclave();
        epc.commit(a, EpcPages::new(80)).unwrap();
        let act = epc.commit(b, EpcPages::new(50)).unwrap();
        assert_eq!(act.evicted, EpcPages::new(30));
        assert_eq!(epc.usage(a).unwrap().paged_out, EpcPages::new(30));
        assert_eq!(epc.usage(b).unwrap().resident, EpcPages::new(50));
        assert!(epc.overcommit_ratio() > 1.0);
        assert!(epc.check_invariants());
    }

    #[test]
    fn touch_faults_pages_back_in() {
        let mut epc = small_epc(100, true);
        let a = epc.register_enclave();
        let b = epc.register_enclave();
        epc.commit(a, EpcPages::new(80)).unwrap();
        epc.commit(b, EpcPages::new(50)).unwrap(); // a loses 30 pages
        let act = epc.touch(a, EpcPages::new(80)).unwrap();
        assert_eq!(act.faults, 30);
        assert_eq!(epc.usage(a).unwrap().resident, EpcPages::new(80));
        // b lost pages in turn.
        assert_eq!(epc.usage(b).unwrap().paged_out, EpcPages::new(30));
        assert!(epc.check_invariants());
    }

    #[test]
    fn touch_checks_committed_bound() {
        let mut epc = small_epc(10, true);
        let a = epc.register_enclave();
        epc.commit(a, EpcPages::new(5)).unwrap();
        let err = epc.touch(a, EpcPages::new(6)).unwrap_err();
        assert!(matches!(err, SgxError::InvalidState { .. }));
    }

    #[test]
    fn release_prefers_paged_out() {
        let mut epc = small_epc(100, true);
        let a = epc.register_enclave();
        let b = epc.register_enclave();
        epc.commit(a, EpcPages::new(80)).unwrap();
        epc.commit(b, EpcPages::new(50)).unwrap();
        // a: 50 resident / 30 paged out. Releasing 40 takes the 30 swapped
        // pages first, then 10 resident ones.
        epc.release(a, EpcPages::new(40)).unwrap();
        let ua = epc.usage(a).unwrap();
        assert_eq!(ua.committed, EpcPages::new(40));
        assert_eq!(ua.paged_out, EpcPages::ZERO);
        assert_eq!(ua.resident, EpcPages::new(40));
        assert!(epc.check_invariants());
    }

    #[test]
    fn release_more_than_committed_fails() {
        let mut epc = small_epc(10, false);
        let a = epc.register_enclave();
        epc.commit(a, EpcPages::new(5)).unwrap();
        assert!(epc.release(a, EpcPages::new(6)).is_err());
    }

    #[test]
    fn deregister_frees_resident_pages() {
        let mut epc = small_epc(100, false);
        let a = epc.register_enclave();
        epc.commit(a, EpcPages::new(40)).unwrap();
        let usage = epc.deregister_enclave(a).unwrap();
        assert_eq!(usage.committed, EpcPages::new(40));
        assert_eq!(epc.free_pages(), EpcPages::new(100));
        assert!(epc.deregister_enclave(a).is_err());
        assert!(epc.check_invariants());
    }

    #[test]
    fn unknown_enclave_operations_fail() {
        let mut epc = small_epc(10, false);
        let ghost = EnclaveId::new(999);
        assert!(matches!(
            epc.commit(ghost, EpcPages::ONE),
            Err(SgxError::UnknownEnclave(_))
        ));
        assert!(epc.touch(ghost, EpcPages::ONE).is_err());
        assert!(epc.release(ghost, EpcPages::ONE).is_err());
        assert_eq!(epc.usage(ghost), None);
    }

    #[test]
    fn eviction_targets_largest_enclave_first() {
        let mut epc = small_epc(100, true);
        let small = epc.register_enclave();
        let large = epc.register_enclave();
        epc.commit(small, EpcPages::new(20)).unwrap();
        epc.commit(large, EpcPages::new(60)).unwrap();
        let newcomer = epc.register_enclave();
        epc.commit(newcomer, EpcPages::new(30)).unwrap(); // needs 10 evictions
        assert_eq!(epc.usage(large).unwrap().paged_out, EpcPages::new(10));
        assert_eq!(epc.usage(small).unwrap().paged_out, EpcPages::ZERO);
    }
}
