//! Hardware specifications, including the paper's testbed (§VI-A).

use sgx_sim::epc::EpcConfig;
use sgx_sim::units::ByteSize;
use sgx_sim::SgxVersion;

/// SGX capability of a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgxSpec {
    /// Hardware generation.
    pub version: SgxVersion,
    /// EPC configuration (PRM size is set in UEFI and fixed until reboot).
    pub epc: EpcConfig,
}

/// CPU models present in the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// Intel Xeon E3-1270 v6 (the Dell R330 workers; no SGX).
    XeonE31270V6,
    /// Intel i7-6700 (the SGX nodes).
    I76700,
    /// Any other processor.
    Other,
}

impl std::fmt::Display for CpuModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpuModel::XeonE31270V6 => f.write_str("Intel Xeon E3-1270 v6"),
            CpuModel::I76700 => f.write_str("Intel i7-6700"),
            CpuModel::Other => f.write_str("unknown CPU"),
        }
    }
}

/// Static description of one machine.
///
/// # Examples
///
/// ```
/// use cluster::machine::MachineSpec;
///
/// let worker = MachineSpec::dell_r330();
/// assert!(worker.sgx.is_none());
/// let sgx = MachineSpec::sgx_node();
/// assert_eq!(sgx.sgx.unwrap().epc.usable.as_mib_f64(), 93.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// CPU model (informational).
    pub cpu_model: CpuModel,
    /// Physical core count.
    pub cpu_cores: u32,
    /// Installed system memory.
    pub memory: ByteSize,
    /// SGX capability, if any.
    pub sgx: Option<SgxSpec>,
}

impl MachineSpec {
    /// The paper's standard worker: Dell PowerEdge R330, Intel Xeon
    /// E3-1270 v6, 64 GiB RAM, no SGX.
    pub fn dell_r330() -> Self {
        MachineSpec {
            cpu_model: CpuModel::XeonE31270V6,
            cpu_cores: 4,
            memory: ByteSize::from_gib(64),
            sgx: None,
        }
    }

    /// The paper's SGX node: Intel i7-6700, 8 GiB RAM, SGX1 with the EPC
    /// statically configured to 128 MiB (93.5 MiB usable).
    pub fn sgx_node() -> Self {
        MachineSpec {
            cpu_model: CpuModel::I76700,
            cpu_cores: 4,
            memory: ByteSize::from_gib(8),
            sgx: Some(SgxSpec {
                version: SgxVersion::Sgx1,
                epc: EpcConfig::sgx1_default(),
            }),
        }
    }

    /// An SGX node with an explicit *usable* EPC size — the §VI-D
    /// simulation sweep runs "with various EPC sizes, including those that
    /// will be available with future SGX hardware" (32–256 MiB).
    pub fn sgx_node_with_usable_epc(usable: ByteSize) -> Self {
        let mut spec = MachineSpec::sgx_node();
        spec.sgx = Some(SgxSpec {
            version: SgxVersion::Sgx1,
            epc: EpcConfig {
                prm: usable,
                usable,
                paging_enabled: true,
            },
        });
        spec
    }

    /// `true` when the machine can execute SGX instructions.
    pub fn has_sgx(&self) -> bool {
        self.sgx.is_some()
    }

    /// Usable EPC, or zero for non-SGX machines.
    pub fn usable_epc(&self) -> ByteSize {
        self.sgx.map_or(ByteSize::ZERO, |s| s.epc.usable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machines() {
        let worker = MachineSpec::dell_r330();
        assert_eq!(worker.memory, ByteSize::from_gib(64));
        assert!(!worker.has_sgx());
        assert_eq!(worker.usable_epc(), ByteSize::ZERO);

        let sgx = MachineSpec::sgx_node();
        assert_eq!(sgx.memory, ByteSize::from_gib(8));
        assert!(sgx.has_sgx());
        assert_eq!(sgx.usable_epc().as_mib_f64(), 93.5);
        assert_eq!(sgx.sgx.unwrap().version, SgxVersion::Sgx1);
    }

    #[test]
    fn custom_epc_sizes_for_the_sweep() {
        for mib in [32, 64, 128, 256] {
            let spec = MachineSpec::sgx_node_with_usable_epc(ByteSize::from_mib(mib));
            assert_eq!(spec.usable_epc(), ByteSize::from_mib(mib));
        }
    }
}
