//! Virtual time primitives.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in microseconds since the start of the
/// simulation.
///
/// `SimTime` is a transparent newtype over `u64` ([C-NEWTYPE]): it cannot be
/// confused with a duration or a wall-clock timestamp, and arithmetic with
/// [`SimDuration`] is checked against the type system.
///
/// # Examples
///
/// ```
/// use des::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_secs_f64(), 90.0);
/// assert_eq!(t - SimTime::from_secs(30), SimDuration::from_secs(60));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use des::SimDuration;
///
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimTime((secs * 1e6).round() as u64)
    }

    /// Microseconds since the simulation origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the simulation origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since the simulation origin (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since the simulation origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] when
    /// `earlier` is in the future (saturating).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or non-finite.
    pub fn from_millis_f64(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "SimDuration::from_millis_f64 requires a finite non-negative value, got {millis}"
        );
        SimDuration((millis * 1e3).round() as u64)
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3.6e9
    }

    /// `true` when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64 requires a finite non-negative factor, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics (in debug builds) if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    /// Formats as the most natural unit: `950µs`, `12.5ms`, `42.0s`,
    /// `2h47m12s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1_000 {
            write!(f, "{us}µs")
        } else if us < 1_000_000 {
            write!(f, "{:.1}ms", us as f64 / 1e3)
        } else if us < 3_600_000_000 {
            write!(f, "{:.1}s", us as f64 / 1e6)
        } else {
            let total_secs = us / 1_000_000;
            let h = total_secs / 3600;
            let m = (total_secs % 3600) / 60;
            let s = total_secs % 60;
            write!(f, "{h}h{m:02}m{s:02}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_millis(2500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3000);
        assert_eq!(SimTime::from_millis(1500).as_secs(), 1);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert!((SimDuration::from_millis(500).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(20);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(10));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn fractional_constructors_round() {
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
        assert_eq!(
            SimDuration::from_millis_f64(0.5),
            SimDuration::from_micros(500)
        );
        assert_eq!(SimTime::from_secs_f64(0.000001), SimTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn mul_f64_rounds_to_microsecond() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(15));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_natural_units() {
        assert_eq!(SimDuration::from_micros(950).to_string(), "950µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.0ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.0s");
        assert_eq!(
            SimDuration::from_secs(2 * 3600 + 47 * 60 + 12).to_string(),
            "2h47m12s"
        );
        assert_eq!(SimTime::from_secs(5).to_string(), "t+5.0s");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_millis(1) < SimTime::from_secs(1));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
        assert_eq!(
            SimTime::ZERO.max(SimTime::from_secs(1)),
            SimTime::from_secs(1)
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_micros(1)), None);
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }
}
