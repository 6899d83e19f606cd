//! Memory quantities: bytes and EPC pages.
//!
//! Two deliberately distinct newtypes keep regular memory and enclave
//! memory apart in the type system: the scheduler bug class the paper warns
//! about (conflating a pod's standard-memory request with its EPC request)
//! becomes a compile error here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Size of one EPC page: 4 KiB (§II of the paper).
pub(crate) const EPC_PAGE_SIZE: u64 = 4096;

/// Processor Reserved Memory configured on the paper's machines: 128 MiB.
pub(crate) const PRM_SIZE: ByteSize = ByteSize::from_mib(128);

/// EPC effectively usable by applications on a 128 MiB PRM: 93.5 MiB,
/// i.e. 23 936 pages; the remainder stores SGX metadata (§II).
pub const USABLE_EPC: ByteSize = ByteSize::from_kib(95_744);

/// A quantity of ordinary memory, in bytes.
///
/// # Examples
///
/// ```
/// use sgx_sim::units::ByteSize;
///
/// let total = ByteSize::from_gib(64) + ByteSize::from_mib(512);
/// assert_eq!(total.as_mib_f64(), 66_048.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a quantity of `bytes` bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a quantity of `kib` kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Creates a quantity of `mib` mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Creates a quantity of `gib` gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * 1024 * 1024 * 1024)
    }

    /// Creates a quantity from fractional mebibytes, rounding to the nearest
    /// byte.
    ///
    /// # Panics
    ///
    /// Panics if `mib` is negative or non-finite.
    pub fn from_mib_f64(mib: f64) -> Self {
        assert!(
            mib.is_finite() && mib >= 0.0,
            "ByteSize::from_mib_f64 requires a finite non-negative value, got {mib}"
        );
        ByteSize((mib * 1024.0 * 1024.0).round() as u64)
    }

    /// The quantity in bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// The quantity in fractional mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// The quantity in fractional gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// `true` when the quantity is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The number of whole EPC pages needed to hold this many bytes
    /// (rounding up).
    pub const fn to_epc_pages_ceil(self) -> EpcPages {
        EpcPages::new(self.0.div_ceil(EPC_PAGE_SIZE))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative factor, rounding to the nearest byte.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn mul_f64(self, factor: f64) -> ByteSize {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "ByteSize::mul_f64 requires a finite non-negative factor, got {factor}"
        );
        ByteSize((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;

    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;

    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
            write!(f, "{:.1}GiB", self.as_gib_f64())
        } else if b >= 1024 * 1024 {
            write!(f, "{:.1}MiB", self.as_mib_f64())
        } else if b >= 1024 {
            write!(f, "{:.1}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A number of 4 KiB EPC pages.
///
/// The paper's device plugin advertises each EPC page as an independent
/// Kubernetes resource item (§V-A), so pages — not bytes — are the unit in
/// which SGX memory is requested, limited and accounted.
///
/// # Examples
///
/// ```
/// use sgx_sim::units::EpcPages;
///
/// let pages = EpcPages::from_mib_ceil(1);
/// assert_eq!(pages.count(), 256);
/// assert_eq!(pages.to_bytes().as_bytes(), 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpcPages(u64);

impl EpcPages {
    /// Zero pages.
    pub const ZERO: EpcPages = EpcPages(0);
    /// A single page — the smallest possible request, used by the malicious
    /// pods in the Fig. 11 experiment.
    pub const ONE: EpcPages = EpcPages(1);

    /// Creates a page count.
    pub const fn new(count: u64) -> Self {
        EpcPages(count)
    }

    /// The number of whole pages needed to hold `mib` mebibytes.
    pub const fn from_mib_ceil(mib: u64) -> Self {
        ByteSize::from_mib(mib).to_epc_pages_ceil()
    }

    /// The raw page count.
    pub const fn count(self) -> u64 {
        self.0
    }

    /// The pages expressed as bytes.
    pub const fn to_bytes(self) -> ByteSize {
        ByteSize::from_bytes(self.0 * EPC_PAGE_SIZE)
    }

    /// The pages expressed in fractional mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.to_bytes().as_mib_f64()
    }

    /// `true` when the count is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: EpcPages) -> EpcPages {
        EpcPages(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two page counts.
    pub(crate) fn min(self, rhs: EpcPages) -> EpcPages {
        EpcPages(self.0.min(rhs.0))
    }
}

impl Add for EpcPages {
    type Output = EpcPages;

    fn add(self, rhs: EpcPages) -> EpcPages {
        EpcPages(self.0 + rhs.0)
    }
}

impl AddAssign for EpcPages {
    fn add_assign(&mut self, rhs: EpcPages) {
        self.0 += rhs.0;
    }
}

impl Sub for EpcPages {
    type Output = EpcPages;

    fn sub(self, rhs: EpcPages) -> EpcPages {
        EpcPages(self.0 - rhs.0)
    }
}

impl SubAssign for EpcPages {
    fn sub_assign(&mut self, rhs: EpcPages) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for EpcPages {
    type Output = EpcPages;

    fn mul(self, rhs: u64) -> EpcPages {
        EpcPages(self.0 * rhs)
    }
}

impl Sum for EpcPages {
    fn sum<I: Iterator<Item = EpcPages>>(iter: I) -> EpcPages {
        iter.fold(EpcPages::ZERO, Add::add)
    }
}

impl fmt::Display for EpcPages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pages", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_line_up() {
        // §II: 93.5 MiB usable, 23 936 pages of 4 KiB.
        assert_eq!(USABLE_EPC.as_mib_f64(), 93.5);
        assert_eq!(USABLE_EPC.to_epc_pages_ceil().count(), 23_936);
        assert_eq!(PRM_SIZE.as_mib_f64(), 128.0);
    }

    #[test]
    fn byte_size_conversions() {
        assert_eq!(ByteSize::from_gib(2).as_bytes(), 2 * 1024 * 1024 * 1024);
        assert_eq!(ByteSize::from_mib(1).as_mib_f64(), 1.0);
        assert_eq!(ByteSize::from_mib_f64(1.5).as_bytes(), 3 * 512 * 1024);
        assert_eq!(ByteSize::from_kib(4).to_epc_pages_ceil(), EpcPages::ONE);
    }

    #[test]
    fn pages_round_up() {
        assert_eq!(
            ByteSize::from_bytes(1).to_epc_pages_ceil(),
            EpcPages::new(1)
        );
        assert_eq!(
            ByteSize::from_bytes(4096).to_epc_pages_ceil(),
            EpcPages::new(1)
        );
        assert_eq!(
            ByteSize::from_bytes(4097).to_epc_pages_ceil(),
            EpcPages::new(2)
        );
        assert_eq!(ByteSize::ZERO.to_epc_pages_ceil(), EpcPages::ZERO);
    }

    #[test]
    fn arithmetic_works() {
        let a = ByteSize::from_mib(10);
        let b = ByteSize::from_mib(4);
        assert_eq!(a - b, ByteSize::from_mib(6));
        assert_eq!(a.saturating_sub(ByteSize::from_mib(20)), ByteSize::ZERO);
        assert_eq!(ByteSize::from_mib(3) * 2, ByteSize::from_mib(6));
        assert_eq!(a.mul_f64(0.5), ByteSize::from_mib(5));

        let p = EpcPages::new(100);
        assert_eq!(p + EpcPages::new(28), EpcPages::new(128));
        assert_eq!(p.saturating_sub(EpcPages::new(200)), EpcPages::ZERO);
        assert_eq!(p.min(EpcPages::new(50)), EpcPages::new(50));
    }

    #[test]
    fn sums() {
        let total: ByteSize = (1..=3).map(ByteSize::from_mib).sum();
        assert_eq!(total, ByteSize::from_mib(6));
        let pages: EpcPages = (1..=3).map(EpcPages::new).sum();
        assert_eq!(pages, EpcPages::new(6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ByteSize::from_gib(64).to_string(), "64.0GiB");
        assert_eq!(ByteSize::from_mib(93).to_string(), "93.0MiB");
        assert_eq!(ByteSize::from_kib(4).to_string(), "4.0KiB");
        assert_eq!(ByteSize::from_bytes(12).to_string(), "12B");
        assert_eq!(EpcPages::new(5).to_string(), "5 pages");
    }
}
