//! Secure enclave checkpoint/migration — the extension the paper names as
//! future work (§VIII), following the mechanism of Gu et al. (DSN '17)
//! summarised in §VII:
//!
//! * a **quiescent point** is reached before checkpointing (no thread may
//!   mutate enclave state mid-snapshot);
//! * the checkpoint is **encrypted under a migration key** transmitted
//!   through a channel established by remote attestation;
//! * the source enclave **self-destroys** after checkpointing, preventing
//!   *fork attacks* (the same state running twice);
//! * a checkpoint can be restored **at most once**, preventing *rollback
//!   attacks* (reviving an old state).
//!
//! The simulation encodes the fork/rollback protections structurally:
//! [`SgxDriver::checkpoint_enclave`] destroys the source enclave in the
//! same operation, and [`EnclaveCheckpoint`] is a linear token — it is not
//! `Clone`, and [`SgxDriver::restore_enclave`] consumes it by value.
//!
//! [`SgxDriver::checkpoint_enclave`]: crate::driver::SgxDriver::checkpoint_enclave
//! [`SgxDriver::restore_enclave`]: crate::driver::SgxDriver::restore_enclave

use crate::units::EpcPages;

/// An enclave *measurement* (MRENCLAVE): a digest of the enclave's
/// initial contents and layout. Two enclaves built from the same pages
/// have the same measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Measurement(u64);

impl Measurement {
    /// Computes the measurement of an enclave from its committed size and
    /// code identity. Real SGX hashes every `EADD`ed page; the simulation
    /// digests the page count and a caller-supplied code identity, which
    /// preserves the property the protocols rely on: equal inputs ⇒ equal
    /// measurement, different inputs ⇒ (overwhelmingly) different.
    pub(crate) fn compute(code_identity: &str, size: EpcPages) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a
        for &b in code_identity.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= size.count();
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        Measurement(h)
    }
}

/// A symmetric migration key, agreed between source and target platforms
/// over an attested channel (the quotes of both sides verified first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MigrationKey(u64);

impl MigrationKey {
    /// Derives the key both endpoints of an attested channel arrive at.
    /// Deterministic in the two platforms and a session nonce, and
    /// symmetric in the endpoints.
    pub fn derive(platform_a: u64, platform_b: u64, session_nonce: u64) -> Self {
        let (lo, hi) = if platform_a <= platform_b {
            (platform_a, platform_b)
        } else {
            (platform_b, platform_a)
        };
        let mut k = lo ^ hi.rotate_left(23) ^ session_nonce.rotate_left(46);
        k = (k ^ (k >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        MigrationKey(k ^ (k >> 27))
    }

    pub(crate) fn as_u64(self) -> u64 {
        self.0
    }
}

/// An encrypted, single-use enclave checkpoint.
///
/// Deliberately **not `Clone`**: restoring consumes the checkpoint, so a
/// given snapshot can run at most once (rollback/fork protection at the
/// type level, mirroring the self-destroy + freshness protocol of the
/// real mechanism).
#[derive(Debug, PartialEq, Eq)]
pub struct EnclaveCheckpoint {
    pub(crate) measurement: Measurement,
    pub(crate) committed: EpcPages,
    pub(crate) ecalls: u64,
    pub(crate) key_tag: u64,
}

impl EnclaveCheckpoint {
    /// EPC pages the enclave owned when checkpointed (its restored size).
    pub fn committed(&self) -> EpcPages {
        self.committed
    }

    /// Size of the serialised, encrypted snapshot on the wire — the EPC
    /// contents plus metadata — used by the cluster layer to model the
    /// transfer time across the paper's 1 Gbit/s network.
    pub fn wire_size(&self) -> crate::units::ByteSize {
        self.committed.to_bytes() + crate::units::ByteSize::from_kib(64)
    }

    /// Whether `key` decrypts this checkpoint.
    pub(crate) fn opens_with(&self, key: MigrationKey) -> bool {
        self.key_tag == key.as_u64().wrapping_mul(0x94D0_49BB_1331_11EB)
    }

    pub(crate) fn tag_for(key: MigrationKey) -> u64 {
        key.as_u64().wrapping_mul(0x94D0_49BB_1331_11EB)
    }
}

/// A failed restore, handing the (still unconsumed) checkpoint back so
/// the caller can retry elsewhere — e.g. re-restore on the source node
/// after the target refused admission.
#[derive(Debug)]
pub struct RestoreError {
    /// Why the restore failed.
    pub error: crate::SgxError,
    /// The snapshot, still valid for exactly one restore.
    pub checkpoint: EnclaveCheckpoint,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "restore failed: {}", self.error)
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_derivation_is_symmetric_and_session_bound() {
        let a = MigrationKey::derive(1, 2, 99);
        let b = MigrationKey::derive(2, 1, 99);
        assert_eq!(a, b);
        assert_ne!(a, MigrationKey::derive(1, 2, 100));
        assert_ne!(a, MigrationKey::derive(1, 3, 99));
    }

    #[test]
    fn measurements_are_deterministic_and_content_sensitive() {
        let a = Measurement::compute("app", EpcPages::new(100));
        let b = Measurement::compute("app", EpcPages::new(100));
        assert_eq!(a, b);
        assert_ne!(a, Measurement::compute("app", EpcPages::new(101)));
        assert_ne!(a, Measurement::compute("app2", EpcPages::new(100)));
    }

    #[test]
    fn checkpoint_accessors() {
        let key = MigrationKey::derive(1, 2, 0);
        let cp = EnclaveCheckpoint {
            measurement: Measurement::compute("app", EpcPages::new(256)),
            committed: EpcPages::new(256),
            ecalls: 7,
            key_tag: EnclaveCheckpoint::tag_for(key),
        };
        assert_eq!(cp.committed(), EpcPages::new(256));
        assert!(cp.opens_with(key));
        assert!(!cp.opens_with(MigrationKey::derive(1, 2, 1)));
        // 1 MiB of pages + 64 KiB of metadata.
        assert_eq!(cp.wire_size().as_bytes(), 256 * 4096 + 65_536);
    }
}
