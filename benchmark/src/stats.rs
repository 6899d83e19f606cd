//! Order statistics the harness reports: medians over repetitions and
//! per-call percentiles over spans.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are harness bugs, never data.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 1..=100) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest of p50/p90/p99 that still has at least ten samples beyond
/// it among `n` samples — the rule the choosing-metrics guide sets for
/// reporting a tail. `None` below twenty samples, where even the median
/// has fewer than ten samples on its far side.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99u32, 90, 50]
        .into_iter()
        .find(|&p| n - (n * p as usize).div_ceil(100) >= 10)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_one_outlier_in_three() {
        assert_eq!(median(&[1.00, 1.02, 1.18]), 1.02);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[5.0], 90), 5.0);
        assert_eq!(percentile(&[], 90), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly ten beyond it; 99 leaves nine.
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(99), Some(50));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(999), Some(90));
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }
}
