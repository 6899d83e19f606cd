//! Statistics helpers used by the evaluation harnesses.
//!
//! The paper reports empirical CDFs (Figs. 3, 4, 8, 11), means with 95 %
//! confidence intervals (Figs. 6, 9) and time series (Figs. 5, 7). This
//! module provides exactly those primitives.

use crate::SimTime;

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Examples
///
/// ```
/// use des::stats::Cdf;
///
/// let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(1.0), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from any collection of samples. Non-finite samples are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN or infinite.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| x.is_finite()),
            "Cdf samples must be finite"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`, in `[0, 1]`. Returns 0 for an empty CDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` for an empty CDF.
    ///
    /// Uses the nearest-rank method, so `quantile(1.0)` is the maximum and
    /// `quantile(0.5)` the median.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile requires q in [0,1], got {q}"
        );
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// The largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::from_samples(iter)
    }
}

/// Streaming mean/variance accumulator (Welford's online algorithm).
///
/// # Examples
///
/// ```
/// use des::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.sample_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(
            x.is_finite(),
            "RunningStats samples must be finite, got {x}"
        );
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub(crate) fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Half-width of the normal-approximation 95 % confidence interval of
    /// the mean (`1.96 · s / √n`); 0 with fewer than two samples.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// A time-ordered series of `(instant, value)` observations, as plotted in
/// Figs. 5 and 7 of the paper.
///
/// # Examples
///
/// ```
/// use des::stats::TimeSeries;
/// use des::SimTime;
///
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_secs(0), 0.0);
/// ts.record(SimTime::from_secs(60), 128.0);
/// assert_eq!(ts.peak(), Some(128.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last recorded instant or `value`
    /// is not finite.
    pub fn record(&mut self, at: SimTime, value: f64) {
        assert!(value.is_finite(), "TimeSeries values must be finite");
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "TimeSeries observations must be time-ordered");
        }
        self.points.push((at, value));
    }

    /// Largest observed value.
    pub fn peak(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// A borrowed view of the raw observations.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.record(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(3.0), 0.6);
        assert_eq!(cdf.fraction_at_or_below(99.0), 1.0);
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.max(), Some(100.0));
    }

    #[test]
    fn cdf_empty_behaviour() {
        let cdf = Cdf::default();
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn cdf_rejects_nan() {
        let _ = Cdf::from_samples([f64::NAN]);
    }

    #[test]
    fn running_stats_basics() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.sample_std_dev() - 1.2909944).abs() < 1e-6);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(10), 1.0);
        ts.record(SimTime::from_secs(5), 2.0);
    }
}
