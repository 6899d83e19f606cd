//! Identifiers shared across the SGX substrate.

use std::fmt;
use std::num::NonZeroU64;
use std::sync::Arc;

/// A unique identifier for an enclave registered with the driver.
///
/// Held one up from the number it shows, so that an `Option<EnclaveId>`
/// is one word: the driver keeps one inline in every pod's account.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveId(NonZeroU64);

impl EnclaveId {
    pub(crate) const fn new(id: u64) -> Self {
        match NonZeroU64::new(id.wrapping_add(1)) {
            Some(raw) => EnclaveId(raw),
            None => panic!("enclave ids are exhausted"),
        }
    }

    const fn get(self) -> u64 {
        self.0.get() - 1
    }
}

impl fmt::Debug for EnclaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("EnclaveId").field(&self.get()).finish()
    }
}

impl fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "enclave:{}", self.get())
    }
}

/// A cgroup path, used by the paper as the pod identifier when
/// communicating EPC limits from Kubelet to the driver (§V-D).
///
/// The paper chose cgroup paths because (i) they are readily available in
/// both Kubelet and the kernel, (ii) all containers of one pod share the
/// same path while distinct pods never do, and (iii) the path exists before
/// the containers start, so limits are in place by enclave-initialisation
/// time.
///
/// Shared, not copied: the pod the node agent runs, its enclave and the
/// driver's account of the pod all hold the one allocation `new` made, so
/// a clone costs a reference-count increment. `Debug`, ordering and
/// hashing are those of the string.
///
/// # Examples
///
/// ```
/// use sgx_sim::CgroupPath;
///
/// let pod = CgroupPath::new("/kubepods/besteffort/pod-42");
/// assert_eq!(pod.as_str(), "/kubepods/besteffort/pod-42");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CgroupPath(Arc<str>);

impl CgroupPath {
    /// Creates a cgroup path.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty: an empty pod identifier would let two
    /// unrelated pods share one limit.
    pub fn new(path: impl Into<Arc<str>>) -> Self {
        let path = path.into();
        assert!(!path.is_empty(), "cgroup path must not be empty");
        CgroupPath(path)
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CgroupPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for CgroupPath {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for CgroupPath {
    fn from(path: &str) -> Self {
        CgroupPath::new(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(EnclaveId::new(3).to_string(), "enclave:3");
        assert_eq!(format!("{:?}", EnclaveId::new(0)), "EnclaveId(0)");
        assert_eq!(std::mem::size_of::<Option<EnclaveId>>(), 8);
        assert_eq!(CgroupPath::new("/a/b").to_string(), "/a/b");
    }

    #[test]
    fn cgroup_conversions() {
        let p: CgroupPath = "/kubepods/pod-1".into();
        assert_eq!(p.as_ref(), "/kubepods/pod-1");
        assert_eq!(p.as_str(), "/kubepods/pod-1");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_cgroup_rejected() {
        let _ = CgroupPath::new("");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let set: HashSet<EnclaveId> = [EnclaveId::new(1), EnclaveId::new(2), EnclaveId::new(1)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
        assert!(EnclaveId::new(1) < EnclaveId::new(2));
    }
}
