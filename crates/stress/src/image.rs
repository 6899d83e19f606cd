//! Container image metadata (§V-F).
//!
//! SGX applications built with the Intel SDK depend on the Platform
//! Software (PSW) and its AESM service. Because the paper keeps containers
//! unprivileged, every SGX container ships its own PSW — that is what the
//! `sebvaucher/sgx-base` image provides, and why SGX containers pay the
//! ≈100 ms AESM startup cost on every launch.

/// Name of the paper's public base image for SGX applications.
pub(crate) const SGX_BASE_IMAGE_NAME: &str = "sebvaucher/sgx-base";

/// Metadata of a container image referenced by a pod spec.
///
/// # Examples
///
/// ```
/// use sgx_sim::units::ByteSize;
/// use stress::Stressor;
///
/// let image = Stressor::epc(ByteSize::from_mib(8)).image();
/// assert!(image.bundles_psw());
/// let plain = Stressor::virtual_memory(ByteSize::from_mib(8)).image();
/// assert!(!plain.bundles_psw());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContainerImage {
    name: String,
    bundles_psw: bool,
}

impl ContainerImage {
    /// Creates an image record.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub(crate) fn new(name: impl Into<String>, bundles_psw: bool) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "image name must not be empty");
        ContainerImage { name, bundles_psw }
    }

    /// The paper's SGX base image: Intel SDK runtime plus PSW/AESM.
    pub(crate) fn sgx_base() -> Self {
        ContainerImage::new(SGX_BASE_IMAGE_NAME, true)
    }

    /// A plain STRESS-NG image for standard jobs.
    pub(crate) fn stress_ng() -> Self {
        ContainerImage::new("stress-ng", false)
    }

    /// The image name (registry reference).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the image ships its own PSW/AESM instance. Containers built
    /// on such images pay the AESM startup delay measured in Fig. 6.
    pub fn bundles_psw(&self) -> bool {
        self.bundles_psw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let sgx = ContainerImage::sgx_base();
        assert_eq!(sgx.name(), SGX_BASE_IMAGE_NAME);
        assert!(sgx.bundles_psw());
        assert!(!ContainerImage::stress_ng().bundles_psw());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_name_rejected() {
        let _ = ContainerImage::new("", false);
    }
}
