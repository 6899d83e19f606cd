//! Stressor behaviour models.

use borg_trace::{JobKind, WorkloadJob};
use sgx_sim::units::{ByteSize, EpcPages};

use crate::image::ContainerImage;

/// What a container's stressor does once it starts.
///
/// The three variants mirror the binaries used in the paper's evaluation:
/// STRESS-NG's virtual-memory stressor, STRESS-SGX's EPC stressor, and the
/// malicious container of §VI-F (declares one EPC page, maps a large slice
/// of the node's EPC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stressor {
    /// STRESS-NG `--vm`: allocates ordinary memory.
    VirtualMemory {
        /// Bytes the stressor maps and continuously touches.
        bytes: ByteSize,
    },
    /// STRESS-SGX EPC stressor: allocates enclave memory.
    Epc {
        /// Bytes of enclave memory (committed at `EINIT` under SGX1).
        bytes: ByteSize,
    },
    /// The Fig. 11 malicious container: declares `declared` pages in its
    /// pod spec but actually maps `fraction` of the node's usable EPC.
    MaliciousEpc {
        /// Pages advertised in the pod specification (the paper uses 1).
        declared: EpcPages,
        /// Fraction of the node's usable EPC actually mapped (0.25 / 0.5
        /// in the paper's runs).
        fraction: f64,
    },
}

impl Stressor {
    /// A virtual-memory stressor of the given size.
    pub fn virtual_memory(bytes: ByteSize) -> Self {
        Stressor::VirtualMemory { bytes }
    }

    /// An EPC stressor of the given size.
    pub fn epc(bytes: ByteSize) -> Self {
        Stressor::Epc { bytes }
    }

    /// The paper's malicious configuration: declare 1 page, use `fraction`
    /// of the node's EPC.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` lies in `(0, 1]`.
    pub fn malicious(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "malicious fraction must be in (0, 1], got {fraction}"
        );
        Stressor::MaliciousEpc {
            declared: EpcPages::ONE,
            fraction,
        }
    }

    /// The stressor a trace job materialises to (§VI-C): standard jobs run
    /// the VM stressor sized by their actual usage, SGX jobs the EPC
    /// stressor.
    pub fn for_job(job: &WorkloadJob) -> Self {
        match job.kind {
            JobKind::Standard => Stressor::VirtualMemory {
                bytes: job.mem_usage,
            },
            JobKind::Sgx => Stressor::Epc {
                bytes: job.mem_usage,
            },
        }
    }

    /// The container image the stressor runs in.
    pub fn image(&self) -> ContainerImage {
        match self {
            Stressor::VirtualMemory { .. } => ContainerImage::stress_ng(),
            Stressor::Epc { .. } | Stressor::MaliciousEpc { .. } => ContainerImage::sgx_base(),
        }
    }

    /// Resolves the stressor into a concrete allocation plan on a node
    /// with `node_usable_epc` of usable enclave memory.
    pub fn plan_on(&self, node_usable_epc: ByteSize) -> StressPlan {
        match *self {
            Stressor::VirtualMemory { bytes } => StressPlan {
                standard_allocation: bytes,
                epc_allocation: EpcPages::ZERO,
                requires_sgx: false,
            },
            Stressor::Epc { bytes } => StressPlan {
                standard_allocation: ByteSize::ZERO,
                epc_allocation: bytes.to_epc_pages_ceil(),
                requires_sgx: true,
            },
            Stressor::MaliciousEpc { fraction, .. } => StressPlan {
                standard_allocation: ByteSize::ZERO,
                epc_allocation: node_usable_epc.mul_f64(fraction).to_epc_pages_ceil(),
                requires_sgx: true,
            },
        }
    }
}

/// A resolved allocation plan: what the container will actually map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressPlan {
    /// Ordinary memory the container maps.
    pub standard_allocation: ByteSize,
    /// EPC pages the container commits inside its enclave.
    pub epc_allocation: EpcPages,
    /// Whether the container needs `/dev/isgx` mounted (an SGX node).
    pub requires_sgx: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::JobId;
    use des::{SimDuration, SimTime};
    use sgx_sim::units::USABLE_EPC;

    fn workload_job(kind: JobKind) -> WorkloadJob {
        WorkloadJob {
            id: JobId::new(1),
            submit: SimTime::ZERO,
            duration: SimDuration::from_secs(10),
            kind,
            mem_request: ByteSize::from_mib(10),
            mem_usage: ByteSize::from_mib(12),
        }
    }

    #[test]
    fn vm_stressor_plan() {
        let plan = Stressor::virtual_memory(ByteSize::from_mib(64)).plan_on(USABLE_EPC);
        assert_eq!(plan.standard_allocation, ByteSize::from_mib(64));
        assert_eq!(plan.epc_allocation, EpcPages::ZERO);
        assert!(!plan.requires_sgx);
    }

    #[test]
    fn epc_stressor_plan() {
        let plan = Stressor::epc(ByteSize::from_mib(10)).plan_on(USABLE_EPC);
        assert_eq!(plan.epc_allocation, EpcPages::from_mib_ceil(10));
        assert_eq!(plan.standard_allocation, ByteSize::ZERO);
        assert!(plan.requires_sgx);
    }

    #[test]
    fn malicious_plan_scales_with_node_epc() {
        let stressor = Stressor::malicious(0.5);
        let plan = stressor.plan_on(USABLE_EPC);
        assert_eq!(
            plan.epc_allocation,
            USABLE_EPC.mul_f64(0.5).to_epc_pages_ceil()
        );
        let smaller = stressor.plan_on(ByteSize::from_mib(32));
        assert_eq!(
            smaller.epc_allocation,
            ByteSize::from_mib(16).to_epc_pages_ceil()
        );
        // ... while the declared request stays one page.
        let Stressor::MaliciousEpc { declared, .. } = stressor else {
            unreachable!()
        };
        assert_eq!(declared, EpcPages::ONE);
    }

    #[test]
    fn job_materialisation_follows_kind() {
        let std_job = workload_job(JobKind::Standard);
        let plan = Stressor::for_job(&std_job).plan_on(USABLE_EPC);
        assert_eq!(plan.standard_allocation, ByteSize::from_mib(12)); // actual usage
        assert!(!plan.requires_sgx);

        let sgx_job = workload_job(JobKind::Sgx);
        let s = Stressor::for_job(&sgx_job);
        assert_eq!(s.image(), ContainerImage::sgx_base());
        let plan = s.plan_on(USABLE_EPC);
        assert_eq!(
            plan.epc_allocation,
            ByteSize::from_mib(12).to_epc_pages_ceil()
        );
        assert!(plan.requires_sgx);
    }

    #[test]
    fn images_match_stressors() {
        assert!(!Stressor::virtual_memory(ByteSize::ZERO)
            .image()
            .bundles_psw());
        assert!(Stressor::malicious(0.25).image().bundles_psw());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn malicious_fraction_validated() {
        let _ = Stressor::malicious(0.0);
    }
}
