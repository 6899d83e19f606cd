//! Exact load comparison: the one way a decision compares fractions.
//!
//! A *load* is `requested / capacity` of one resource on one node, both
//! integers (4 KiB EPC pages or bytes). Every decision that compares
//! loads does it here, in integers: least-requested and sgx-spread
//! placement, the EPC rebalancer's trigger, half-gap and improvement
//! test, and the cluster autoscaler's low-water test. Two loads a float
//! would round together stay apart, and two equal loads are never split
//! by rounding. Two loads compare by cross-multiplication in `u128`
//! ([`Load`]); sums and differences of loads are [`Ratio`]s of
//! [`Natural`]s, which have no width at which they stop being exact.
//!
//! Thresholds stay `f64` where they are configured and are read here
//! exactly: every finite `f64` is `m·2^e` for integers `m < 2^53` and
//! `−1074 ≤ e ≤ 971`, which is a [`Ratio`] with no rounding. A ratio
//! compares with an `f64` the way the float comparison would if it were
//! exact: NaN is unordered, +∞ lies above every ratio and a negative
//! number or −∞ below, so a configured value keeps its meaning.

#![deny(clippy::float_arithmetic)]

use std::cmp::{max_by, min_by, Ordering};

/// `requested / capacity` of one resource on one node, ordered exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load {
    requested: u64,
    /// Never zero.
    capacity: u64,
}

impl Load {
    /// The load of `requested` out of `capacity`; a zero capacity — a
    /// node without the resource — counts as full.
    pub(crate) fn new(requested: u64, capacity: u64) -> Self {
        let full = capacity == 0;
        Load {
            requested: if full { 1 } else { requested },
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn requested(self) -> u64 {
        self.requested
    }

    pub(crate) fn capacity(self) -> u64 {
        self.capacity
    }

    /// Both sides of `self` against `other` over the common denominator:
    /// `(r·c′, r′·c)`. Each product of two `u64`s fits a `u128`.
    fn cross(self, other: Load) -> (u128, u128) {
        (
            u128::from(self.requested) * u128::from(other.capacity),
            u128::from(other.requested) * u128::from(self.capacity),
        )
    }

    /// `self − lower`, exactly; `lower` must not exceed `self`.
    pub(crate) fn minus(self, lower: Load) -> Ratio {
        let (this, that) = self.cross(lower);
        let den = u128::from(self.capacity) * u128::from(lower.capacity);
        Ratio::new(this - that, den)
    }

    /// What `self`'s node sheds to meet `lower` halfway, in its own
    /// units, rounded up: ⌈(self − lower) / 2 · capacity⌉ =
    /// ⌈(r·c′ − r′·c) / (2·c′)⌉. `lower` must not exceed `self`.
    pub(crate) fn half_gap(self, lower: Load) -> u128 {
        let (this, that) = self.cross(lower);
        (this - that).div_ceil(2 * u128::from(lower.capacity))
    }

    /// As fractions: `5 / 7` equals `10 / 14`.
    pub(crate) fn cmp(&self, other: &Load) -> Ordering {
        let (this, that) = self.cross(*other);
        this.cmp(&that)
    }
}

/// The least and the greatest of `loads`, or `None` if there are none.
pub(crate) fn extremes(loads: impl Iterator<Item = Load>) -> Option<(Load, Load)> {
    loads.fold(None, |seen, load| {
        let (lo, hi) = seen.unwrap_or((load, load));
        Some((min_by(lo, load, Load::cmp), max_by(hi, load, Load::cmp)))
    })
}

/// A natural number of any size: base-2⁶⁴ digits, least significant
/// first, no leading zero. Just the arithmetic an exact comparison of
/// sums of fractions needs — it cannot overflow, so no decision has a
/// capacity, cluster size or machine mix at which it stops being exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Natural(Vec<u64>);

impl Natural {
    pub(crate) fn from(value: u128) -> Self {
        Natural(vec![value as u64, (value >> 64) as u64]).trimmed()
    }

    fn power_of_two(exponent: u32) -> Self {
        let at = exponent as usize / 64;
        let mut digits = vec![0; at + 1];
        digits[at] = 1 << (exponent % 64);
        Natural(digits)
    }

    fn trimmed(mut self) -> Self {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
        self
    }

    pub(crate) fn plus(&self, other: &Natural) -> Natural {
        let (long, short) = if self.0.len() >= other.0.len() {
            (&self.0, &other.0)
        } else {
            (&other.0, &self.0)
        };
        let mut digits = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u128;
        for (at, &digit) in long.iter().enumerate() {
            let sum = u128::from(digit) + u128::from(short.get(at).copied().unwrap_or(0)) + carry;
            digits.push(sum as u64);
            carry = sum >> 64;
        }
        digits.push(carry as u64);
        Natural(digits).trimmed()
    }

    pub(crate) fn times(&self, other: &Natural) -> Natural {
        let mut digits = vec![0u64; self.0.len() + other.0.len()];
        for (i, &a) in self.0.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.0.iter().enumerate() {
                // At most (2⁶⁴ − 1)² + 2·(2⁶⁴ − 1) = 2¹²⁸ − 1: no overflow.
                let sum = u128::from(digits[i + j]) + u128::from(a) * u128::from(b) + carry;
                digits[i + j] = sum as u64;
                carry = sum >> 64;
            }
            digits[i + other.0.len()] = carry as u64;
        }
        Natural(digits).trimmed()
    }

    fn cmp(&self, other: &Natural) -> Ordering {
        (self.0.len().cmp(&other.0.len()))
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }
}

/// A non-negative fraction of [`Natural`]s with a positive denominator,
/// never reduced.
#[derive(Debug, Clone)]
pub(crate) struct Ratio {
    num: Natural,
    den: Natural,
}

impl Ratio {
    /// `num / den`; `den` must not be zero.
    pub(crate) fn new(num: u128, den: u128) -> Ratio {
        Ratio::of(Natural::from(num), Natural::from(den))
    }

    /// `num / den`; `den` must not be zero.
    pub(crate) fn of(num: Natural, den: Natural) -> Ratio {
        Ratio { num, den }
    }

    pub(crate) fn zero() -> Ratio {
        Ratio::new(0, 1)
    }

    pub(crate) fn plus(&self, other: &Ratio) -> Ratio {
        Ratio {
            num: self.num.times(&other.den).plus(&other.num.times(&self.den)),
            den: self.den.times(&other.den),
        }
    }

    pub(crate) fn times(&self, other: &Ratio) -> Ratio {
        Ratio {
            num: self.num.times(&other.num),
            den: self.den.times(&other.den),
        }
    }

    pub(crate) fn cmp(&self, other: &Ratio) -> Ordering {
        self.num.times(&other.den).cmp(&other.num.times(&self.den))
    }

    /// The exact value of a finite `x`, sign ignored: `m·2^e / 2^1075`
    /// for its significand `m`, implicit bit included, and its biased
    /// exponent `e` — 1 for a subnormal, which has no implicit bit.
    fn of_finite(x: f64) -> Ratio {
        let bits = x.to_bits();
        let biased = (bits >> 52 & 0x7ff) as u32;
        let significand = bits & ((1 << 52) - 1) | u64::from(biased != 0) << 52;
        let num =
            Natural::from(u128::from(significand)).times(&Natural::power_of_two(biased.max(1)));
        Ratio::of(num, Natural::power_of_two(1075))
    }
}

/// A threshold read exactly: see the [module](self) documentation.
impl PartialOrd<f64> for Ratio {
    fn partial_cmp(&self, threshold: &f64) -> Option<Ordering> {
        match *threshold {
            x if x.is_nan() => None,
            f64::INFINITY => Some(Ordering::Less),
            x if x < 0.0 => Some(Ordering::Greater),
            x => Some(self.cmp(&Ratio::of_finite(x))),
        }
    }
}

impl PartialEq<f64> for Ratio {
    fn eq(&self, threshold: &f64) -> bool {
        self.partial_cmp(threshold) == Some(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naturals_multiply_add_and_compare_across_digits() {
        let big = u128::MAX - 12_345;
        let n = Natural::from(big);
        // (2¹²⁸ − k)² needs four digits; check it against the expansion
        // 2²⁵⁶ − 2·k·2¹²⁸ + k², assembled digit by digit.
        let k = 12_346u128;
        let square = n.times(&n);
        assert_eq!(square.0.len(), 4);
        let low = k * k; // fits: k is small
        let minus = 2 * k; // subtracted from the upper half, borrowing from 2²⁵⁶
        let upper = u128::MAX - minus + 1;
        assert_eq!(
            square.0,
            vec![
                low as u64,
                (low >> 64) as u64,
                upper as u64,
                (upper >> 64) as u64
            ]
        );
        // Carries ripple through every digit of a sum.
        let ones = Natural(vec![u64::MAX; 3]);
        assert_eq!(ones.plus(&Natural::from(1)).0, vec![0, 0, 0, 1]);
        assert_eq!(Natural::from(0).0, Vec::<u64>::new());
        assert!(Natural::from(0).times(&n).0.is_empty());
        assert!(ones.cmp(&square).is_lt());
        assert!(Natural::from(big).cmp(&Natural::from(big - 1)).is_gt());
        assert_eq!(n.plus(&Natural::from(0)), n);
        assert_eq!(Natural::power_of_two(128).0, vec![0, 0, 1]);
    }

    /// Loads a float cannot tell apart, and one it splits: `f64`
    /// division rounds 5,368,709,121 / 8 GiB and 2,013,265,921 /
    /// (3 GiB + 1) to the same 0.6250000001164153.
    #[test]
    fn loads_compare_as_fractions() {
        let gib = 1u64 << 30;
        let wide = Load::new(5_368_709_121, 8 * gib);
        let narrow = Load::new(2_013_265_921, 3 * gib + 1);
        assert!(wide.cmp(&narrow).is_gt());
        assert!(Load::new(5, 7).cmp(&Load::new(10, 14)).is_eq());
        assert!(
            Load::new(0, 0).cmp(&Load::new(9, 9)).is_eq(),
            "no capacity is full"
        );
        assert!(
            Load::new(10, 9).cmp(&Load::new(0, 0)).is_gt(),
            "over-committed"
        );
        let spread = Load::new(5, 7).minus(Load::new(3, 7));
        assert!(spread.cmp(&Ratio::new(2, 7)).is_eq());
        // Two 7-page nodes at 5 and 3 pages meet at 4: one page moves.
        assert_eq!(Load::new(5, 7).half_gap(Load::new(3, 7)), 1);
        assert_eq!(Load::new(6, 8).half_gap(Load::new(1, 3)), 2, "⌈10 / 6⌉");
        assert_eq!(Load::new(3, 7).half_gap(Load::new(3, 7)), 0);
    }

    #[test]
    fn thresholds_read_as_the_exact_value_of_the_float() {
        // 0.25 is dyadic; 0.1 and 0.3 are not, and lie on either side of
        // the decimal they were written as.
        assert!(Ratio::new(1, 4) == 0.25);
        assert!(Ratio::new(1, 10) < 0.1);
        assert!(Ratio::new(3, 10) > 0.3);
        assert!(Ratio::new(1, 2) > 0.499_999_999_999_999_94);
        // The extremes of the format: the least subnormal and the most
        // finite float.
        assert!(Ratio::zero() < f64::from_bits(1));
        assert!(Ratio::new(1, 1u128 << 127) > f64::from_bits(1));
        assert!(Ratio::new(u128::MAX, 1) < f64::MAX);
        assert!(Ratio::zero() == -0.0);
        // Nothing reaches NaN or +∞, and everything exceeds what is
        // negative.
        for ratio in [Ratio::zero(), Ratio::new(u128::MAX, 1)] {
            assert_eq!(ratio.partial_cmp(&f64::NAN), None);
            assert!(ratio < f64::INFINITY);
            assert!(ratio > -1e-300);
            assert!(ratio > f64::NEG_INFINITY);
        }
    }
}
