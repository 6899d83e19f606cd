//! Seeded randomness for reproducible simulations.
//!
//! Every stochastic component in the reproduction draws from a [`StdRng`]
//! created through this module, so a whole experiment is a pure function of
//! its base seed. Independent subsystems derive their own streams with
//! [`derive_seed`] to avoid accidental correlation between, say, the trace
//! generator and the startup-jitter model.
//!
//! The approved dependency set includes `rand` but not `rand_distr`, so the
//! couple of non-uniform distributions the models need (Gaussian,
//! exponential) are implemented here.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use rand::RngExt;
///
/// let mut a = des::rng::seeded_rng(42);
/// let mut b = des::rng::seeded_rng(42);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a base seed and a stream label.
///
/// Uses the SplitMix64 finaliser, which maps distinct `(base, stream)` pairs
/// to well-distributed outputs.
///
/// # Examples
///
/// ```
/// let trace = des::rng::derive_seed(7, "trace");
/// let jitter = des::rng::derive_seed(7, "jitter");
/// assert_ne!(trace, jitter);
/// ```
pub fn derive_seed(base: u64, stream: &str) -> u64 {
    let mut z = base;
    for &b in stream.as_bytes() {
        z = splitmix64(z ^ u64::from(b));
    }
    splitmix64(z)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a standard-normal variate using the Box–Muller transform.
pub(crate) fn sample_standard_normal<R: Rng + RngExt + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative or either parameter is non-finite.
pub fn sample_normal<R: Rng + RngExt + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
        "sample_normal requires finite mean and non-negative std_dev (mean={mean}, std_dev={std_dev})"
    );
    mean + std_dev * sample_standard_normal(rng)
}

/// Samples an exponential variate with the given rate (events per unit time).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
pub fn sample_exponential<R: Rng + RngExt + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "sample_exponential requires a positive finite rate, got {rate}"
    );
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate
}

/// Samples a log-normal variate parameterised by the mean and standard
/// deviation of the underlying normal distribution.
///
/// # Panics
///
/// Panics if `sigma` is negative or either parameter is non-finite.
pub fn sample_log_normal<R: Rng + RngExt + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    sample_normal(rng, mu, sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_distinct() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }

    #[test]
    fn normal_sample_matches_moments() {
        let mut rng = seeded_rng(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn exponential_sample_matches_mean() {
        let mut rng = seeded_rng(7);
        let n = 20_000;
        let mean = (0..n)
            .map(|_| sample_exponential(&mut rng, 0.5))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = seeded_rng(99);
        for _ in 0..1000 {
            assert!(sample_log_normal(&mut rng, 0.0, 1.5) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive finite rate")]
    fn exponential_rejects_zero_rate() {
        let mut rng = seeded_rng(0);
        let _ = sample_exponential(&mut rng, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative std_dev")]
    fn normal_rejects_negative_std_dev() {
        let mut rng = seeded_rng(0);
        let _ = sample_normal(&mut rng, 0.0, -1.0);
    }
}
