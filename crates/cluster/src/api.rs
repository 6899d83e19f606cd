//! Kubernetes-style API objects consumed by nodes and schedulers.

use std::fmt;
use std::sync::Arc;

use des::SimDuration;
use sgx_sim::units::{ByteSize, EpcPages};
use stress::{ContainerImage, Stressor};

/// Unique identifier the API server assigns to each pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodUid(u64);

impl PodUid {
    /// Creates a pod uid.
    pub const fn new(uid: u64) -> Self {
        PodUid(uid)
    }

    /// The raw numeric uid.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PodUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Name of a node, unique within the cluster.
///
/// Shared, not copied: every pod record, cluster event and snapshot slot
/// naming a node holds the one allocation `new` made, so a clone costs a
/// reference-count increment. `Debug`, ordering and hashing are those of
/// the string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeName(Arc<str>);

impl NodeName {
    /// Creates a node name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "node name must not be empty");
        NodeName(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeName {
    fn from(name: &str) -> Self {
        NodeName::new(name)
    }
}

/// A bundle of resource quantities: standard memory plus the "SGX" EPC
/// resource exposed by the device plugin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// Ordinary memory.
    pub memory: ByteSize,
    /// EPC pages (zero for non-SGX pods).
    pub epc_pages: EpcPages,
}

impl Resources {
    /// Standard memory only.
    pub fn memory(memory: ByteSize) -> Self {
        Resources {
            memory,
            epc_pages: EpcPages::ZERO,
        }
    }

    /// Memory plus EPC pages.
    pub fn with_epc(memory: ByteSize, epc_pages: EpcPages) -> Self {
        Resources { memory, epc_pages }
    }

    /// `true` when any EPC is requested (the pod needs `/dev/isgx`).
    pub fn needs_sgx(&self) -> bool {
        !self.epc_pages.is_zero()
    }
}

/// Requests (what the scheduler reserves) and limits (what the driver
/// enforces) — the two halves of a Kubernetes resource specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceRequirements {
    /// Scheduler-visible reservation.
    pub requests: Resources,
    /// Enforced ceiling (the paper transmits the EPC part to the driver).
    pub limits: Resources,
}

impl ResourceRequirements {
    /// Requests and limits set to the same quantities, the common case in
    /// the paper's workloads.
    pub fn exact(resources: Resources) -> Self {
        ResourceRequirements {
            requests: resources,
            limits: resources,
        }
    }
}

/// A pod specification as submitted by a user (§IV, step Ê).
///
/// # Examples
///
/// ```
/// use cluster::api::{PodSpec, Resources};
/// use des::SimDuration;
/// use sgx_sim::units::{ByteSize, EpcPages};
/// use stress::Stressor;
///
/// let spec = PodSpec::builder("analytics")
///     .sgx_resources(ByteSize::from_mib(16))
///     .stressor(Stressor::epc(ByteSize::from_mib(16)))
///     .duration(SimDuration::from_secs(120))
///     .build();
/// assert!(spec.needs_sgx());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Human-readable pod name.
    pub name: String,
    /// Container image to pull and run.
    pub image: ContainerImage,
    /// Resource requests and limits.
    pub resources: ResourceRequirements,
    /// What the container does with memory once started.
    pub stressor: Stressor,
    /// Useful run time of the contained job (batch semantics).
    pub duration: SimDuration,
    /// Which scheduler should place this pod (`None` = cluster default) —
    /// Kubernetes' multi-scheduler support, which the paper uses for
    /// side-by-side comparisons (§V-B).
    pub scheduler: Option<String>,
}

impl PodSpec {
    /// Starts building a pod spec.
    pub fn builder(name: impl Into<String>) -> PodSpecBuilder {
        PodSpecBuilder::new(name)
    }

    /// `true` when the pod requests EPC pages and therefore needs an SGX
    /// node with `/dev/isgx` mounted.
    pub fn needs_sgx(&self) -> bool {
        self.resources.requests.needs_sgx()
    }
}

/// Builder for [`PodSpec`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct PodSpecBuilder {
    name: String,
    resources: ResourceRequirements,
    stressor: Option<Stressor>,
    duration: SimDuration,
}

impl PodSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "pod name must not be empty");
        PodSpecBuilder {
            name,
            resources: ResourceRequirements::default(),
            stressor: None,
            duration: SimDuration::from_secs(60),
        }
    }

    /// Declares requests and limits separately.
    pub fn requirements(mut self, requirements: ResourceRequirements) -> Self {
        self.resources = requirements;
        self
    }

    /// Shorthand: an SGX pod requesting `epc` of enclave memory (converted
    /// to pages, requests = limits) and no standard memory.
    pub fn sgx_resources(mut self, epc: ByteSize) -> Self {
        self.resources = ResourceRequirements::exact(Resources::with_epc(
            ByteSize::ZERO,
            epc.to_epc_pages_ceil(),
        ));
        self
    }

    /// Shorthand: a standard pod requesting `memory` (requests = limits).
    pub fn memory_resources(mut self, memory: ByteSize) -> Self {
        self.resources = ResourceRequirements::exact(Resources::memory(memory));
        self
    }

    /// Sets the container behaviour.
    pub fn stressor(mut self, stressor: Stressor) -> Self {
        self.stressor = Some(stressor);
        self
    }

    /// Sets the job duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Finalises the spec.
    ///
    /// # Panics
    ///
    /// Panics if no stressor was provided and none can be inferred.
    pub fn build(self) -> PodSpec {
        let stressor = self.stressor.unwrap_or_else(|| {
            // Infer a stressor exercising exactly the declared requests.
            let r = self.resources.requests;
            if r.needs_sgx() {
                Stressor::epc(r.epc_pages.to_bytes())
            } else {
                Stressor::virtual_memory(r.memory)
            }
        });
        PodSpec {
            name: self.name,
            image: stressor.image(),
            resources: self.resources,
            stressor,
            duration: self.duration,
            scheduler: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_stressor_and_image() {
        let spec = PodSpec::builder("p")
            .memory_resources(ByteSize::from_mib(100))
            .build();
        assert!(!spec.needs_sgx());
        assert_eq!(
            spec.stressor,
            Stressor::virtual_memory(ByteSize::from_mib(100))
        );
        assert!(!spec.image.bundles_psw());

        let sgx = PodSpec::builder("s")
            .sgx_resources(ByteSize::from_mib(8))
            .build();
        assert!(sgx.needs_sgx());
        assert!(sgx.image.bundles_psw());
        assert_eq!(sgx.resources.limits.epc_pages, EpcPages::from_mib_ceil(8));
    }

    #[test]
    fn requirements_can_split_requests_and_limits() {
        let req = ResourceRequirements {
            requests: Resources::with_epc(ByteSize::ZERO, EpcPages::ONE),
            limits: Resources::with_epc(ByteSize::ZERO, EpcPages::new(10)),
        };
        let spec = PodSpec::builder("p")
            .requirements(req)
            .stressor(Stressor::malicious(0.5))
            .build();
        assert_eq!(spec.resources.requests.epc_pages, EpcPages::ONE);
        assert_eq!(spec.resources.limits.epc_pages, EpcPages::new(10));
    }

    #[test]
    fn uids_and_names_display() {
        assert_eq!(PodUid::new(3).to_string(), "pod-3");
        assert_eq!(NodeName::new("sgx-1").to_string(), "sgx-1");
        assert_eq!(NodeName::from("n").as_str(), "n");
    }

    #[test]
    fn resources_helpers() {
        assert!(!Resources::default().needs_sgx());
        assert!(!Resources::memory(ByteSize::from_mib(1)).needs_sgx());
        assert!(Resources::with_epc(ByteSize::ZERO, EpcPages::ONE).needs_sgx());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_pod_name_rejected() {
        let _ = PodSpec::builder("");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_node_name_rejected() {
        let _ = NodeName::new("");
    }
}
