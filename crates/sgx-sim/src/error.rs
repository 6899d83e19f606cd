//! Error type for the SGX substrate.

use std::error::Error;
use std::fmt;

use crate::ids::{CgroupPath, EnclaveId};
use crate::units::EpcPages;

/// Errors returned by the simulated SGX driver and EPC allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SgxError {
    /// The enclave (or another enclave of the same pod) would exceed the
    /// EPC-page limit advertised by its enclosing pod; the modified driver
    /// denies initialisation (§V-D).
    PodLimitExceeded {
        /// The pod whose limit was hit.
        pod: CgroupPath,
        /// Pages the pod's enclaves own, counting the one being initialised.
        owned: EpcPages,
        /// The advertised limit.
        limit: EpcPages,
    },
    /// A pod attempted to initialise an enclave without having advertised
    /// any EPC limit; with strict enforcement active the driver refuses.
    NoPodLimit {
        /// The offending pod.
        pod: CgroupPath,
    },
    /// Limits can only be set once per pod, preventing containers from
    /// resetting their own limit (§V-E).
    LimitAlreadySet {
        /// The pod whose limit was already recorded.
        pod: CgroupPath,
    },
    /// The EPC has no free pages and paging is disabled.
    EpcExhausted {
        /// Pages requested.
        requested: EpcPages,
        /// Pages currently free.
        free: EpcPages,
    },
    /// The requested allocation exceeds even the total usable EPC plus the
    /// paging backing store, or the total usable EPC when paging is off.
    EpcOverCapacity {
        /// Pages requested.
        requested: EpcPages,
        /// Usable pages on the machine.
        usable: EpcPages,
    },
    /// No enclave with this identifier is registered.
    UnknownEnclave(EnclaveId),
    /// The operation is invalid in the enclave's current lifecycle state
    /// (e.g. `EADD` after `EINIT` on SGX1).
    InvalidState {
        /// The enclave concerned.
        enclave: EnclaveId,
        /// Human-readable description of the violated transition.
        reason: &'static str,
    },
    /// Dynamic memory management was requested on SGX1 hardware.
    DynamicMemoryUnsupported,
    /// A checkpoint was presented with a migration key other than the one
    /// agreed over the attested channel.
    AttestationFailed {
        /// What went wrong.
        reason: &'static str,
    },
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::PodLimitExceeded { pod, owned, limit } => write!(
                f,
                "enclave initialisation denied: pod {pod} owns {owned} exceeding its limit of {limit}"
            ),
            SgxError::NoPodLimit { pod } => {
                write!(f, "pod {pod} has not advertised an EPC limit")
            }
            SgxError::LimitAlreadySet { pod } => {
                write!(f, "EPC limit for pod {pod} was already set and cannot be changed")
            }
            SgxError::EpcExhausted { requested, free } => write!(
                f,
                "EPC exhausted: requested {requested} with only {free} free and paging disabled"
            ),
            SgxError::EpcOverCapacity { requested, usable } => write!(
                f,
                "request of {requested} exceeds the usable EPC of {usable}"
            ),
            SgxError::UnknownEnclave(id) => write!(f, "unknown enclave {id}"),
            SgxError::InvalidState { enclave, reason } => {
                write!(f, "invalid operation on {enclave}: {reason}")
            }
            SgxError::DynamicMemoryUnsupported => {
                f.write_str("dynamic EPC allocation requires SGX2 (EDMM)")
            }
            SgxError::AttestationFailed { reason } => {
                write!(f, "attestation failure: {reason}")
            }
        }
    }
}

impl Error for SgxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        let e = SgxError::PodLimitExceeded {
            pod: CgroupPath::new("/p"),
            owned: EpcPages::new(10),
            limit: EpcPages::new(5),
        };
        assert!(e.to_string().contains("denied"));
        assert!(SgxError::DynamicMemoryUnsupported
            .to_string()
            .contains("SGX2"));
        assert!(SgxError::UnknownEnclave(crate::EnclaveId::new(1))
            .to_string()
            .contains("enclave:1"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SgxError>();
    }
}
