//! Simulated Intel SGX substrate.
//!
//! The paper's stack sits on real Skylake hardware and a patched Intel
//! `isgx` Linux kernel driver. This crate reproduces everything the
//! orchestration layers above can observe of that substrate:
//!
//! * [`units`] — EPC pages (4 KiB) and byte quantities, with the paper's
//!   constants: a 128 MiB Processor Reserved Memory of which 93.5 MiB
//!   (23 936 pages) are usable by applications.
//! * [`epc`] — the Enclave Page Cache: page accounting shared by all
//!   enclaves on a machine, including the paging (page-out to encrypted
//!   system memory) mechanism that makes over-commitment possible but
//!   catastrophically slow.
//! * [`enclave`] — the enclave lifecycle state machine, covering both SGX1
//!   (all memory committed before `EINIT`) and SGX2 (EDMM: dynamic
//!   allocation after initialisation, §VI-G of the paper).
//! * [`cost`] — the startup/latency model measured in Fig. 6: PSW/AESM
//!   service startup (~100 ms) plus enclave memory allocation at
//!   1.6 ms/MiB below the usable-EPC limit and 200 ms + 4.5 ms/MiB above
//!   it, and the paging slowdown (up to 1000×, per SCONE).
//! * [`driver`] — the paper's modified driver interface (§V-E): the
//!   `sgx_nr_total_epc_pages` / `sgx_nr_free_pages` module parameters, the
//!   per-process page-count ioctl, the set-once per-pod (cgroup-path) limit
//!   ioctl, and the admission check in `__sgx_encl_init` that denies
//!   enclaves exceeding their pod's advertised share.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::driver::SgxDriver;
//! use sgx_sim::units::{ByteSize, EpcPages};
//! use sgx_sim::{CgroupPath, SgxVersion};
//!
//! let mut driver = SgxDriver::sgx1_default();
//! let pod = CgroupPath::new("/kubepods/pod-1234");
//! driver.set_pod_limit(&pod, EpcPages::from_mib_ceil(16))?;
//!
//! let enclave = driver.create_enclave(pod.clone());
//! driver.add_pages(enclave, ByteSize::from_mib(8).to_epc_pages_ceil())?;
//! driver.init_enclave(enclave)?; // within the pod limit: admitted
//!
//! assert_eq!(driver.pages_for_pod(&pod), ByteSize::from_mib(8).to_epc_pages_ceil());
//! assert_eq!(driver.version(), SgxVersion::Sgx1);
//! # Ok::<(), sgx_sim::SgxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod driver;
pub mod enclave;
pub mod epc;
pub mod migration;
pub mod units;

mod error;
mod ids;

pub use error::SgxError;
pub use ids::{CgroupPath, EnclaveId};

/// The SGX hardware generation being simulated.
///
/// The difference that matters to the orchestrator (§VI-G) is memory
/// semantics: SGX1 enclaves must commit every EPC page before
/// initialisation, while SGX2 supports EDMM — enclaves may request and
/// release pages while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SgxVersion {
    /// First-generation SGX: static EPC allocation at enclave build time.
    Sgx1,
    /// Second-generation SGX with dynamic memory management (EDMM).
    Sgx2,
}

impl SgxVersion {
    /// `true` when enclaves may grow or shrink after initialisation.
    pub(crate) fn supports_dynamic_memory(self) -> bool {
        matches!(self, SgxVersion::Sgx2)
    }
}

impl std::fmt::Display for SgxVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxVersion::Sgx1 => f.write_str("SGX1"),
            SgxVersion::Sgx2 => f.write_str("SGX2"),
        }
    }
}
