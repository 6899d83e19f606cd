//! Enclave lifecycle state machine (Fig. 1 of the paper).
//!
//! An enclave is created by the untrusted part of an application
//! (`ECREATE`), populated with pages (`EADD`), initialised with a launch
//! token (`EINIT`), and then entered via `ecall`s through the call gate.
//! On SGX1 every page must be added before initialisation; SGX2 adds EDMM
//! (`EAUG`/trim) for dynamic growth while running.

use crate::ids::{CgroupPath, EnclaveId};
use crate::units::EpcPages;
use crate::SgxVersion;

/// Lifecycle states of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnclaveState {
    /// Created (`ECREATE` issued); pages may be added, no code runs yet.
    Created,
    /// Initialised (`EINIT` succeeded); trusted functions may be called.
    Initialized,
    /// Torn down; all EPC pages returned.
    Destroyed,
}

impl std::fmt::Display for EnclaveState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveState::Created => f.write_str("created"),
            EnclaveState::Initialized => f.write_str("initialized"),
            EnclaveState::Destroyed => f.write_str("destroyed"),
        }
    }
}

/// Bookkeeping record for one enclave, owned by the driver.
///
/// The driver exposes the mutating operations; this type only answers
/// questions about the enclave's identity and lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enclave {
    id: EnclaveId,
    pod: CgroupPath,
    version: SgxVersion,
    state: EnclaveState,
    committed: EpcPages,
    ecalls: u64,
}

impl Enclave {
    pub(crate) fn new(id: EnclaveId, pod: CgroupPath, version: SgxVersion) -> Self {
        Enclave {
            id,
            pod,
            version,
            state: EnclaveState::Created,
            committed: EpcPages::ZERO,
            ecalls: 0,
        }
    }

    /// The enclave's identifier.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The cgroup path of the pod the enclave runs in.
    pub fn pod(&self) -> &CgroupPath {
        &self.pod
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EnclaveState {
        self.state
    }

    /// Pages the enclave has committed (mirrors the EPC accounting).
    pub fn committed(&self) -> EpcPages {
        self.committed
    }

    /// Number of `ecall`s performed.
    pub fn ecalls(&self) -> u64 {
        self.ecalls
    }

    pub(crate) fn set_state(&mut self, state: EnclaveState) {
        self.state = state;
    }

    pub(crate) fn add_committed(&mut self, pages: EpcPages) {
        self.committed += pages;
    }

    pub(crate) fn sub_committed(&mut self, pages: EpcPages) {
        self.committed -= pages;
    }

    pub(crate) fn record_ecall(&mut self) {
        self.ecalls += 1;
    }

    pub(crate) fn set_ecalls(&mut self, ecalls: u64) {
        self.ecalls = ecalls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_enclave_starts_created_and_empty() {
        let e = Enclave::new(EnclaveId::new(1), CgroupPath::new("/pod"), SgxVersion::Sgx1);
        assert_eq!(e.state(), EnclaveState::Created);
        assert_eq!(e.committed(), EpcPages::ZERO);
        assert_eq!(e.ecalls(), 0);
        assert_eq!(e.pod().as_str(), "/pod");
    }

    #[test]
    fn states_display() {
        assert_eq!(EnclaveState::Created.to_string(), "created");
        assert_eq!(EnclaveState::Initialized.to_string(), "initialized");
        assert_eq!(EnclaveState::Destroyed.to_string(), "destroyed");
    }
}
