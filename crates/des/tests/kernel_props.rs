//! Property-based tests for the simulation kernel.

use proptest::prelude::*;

use des::stats::{Cdf, RunningStats};
use des::{EventQueue, SimDuration, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO
    /// tie-breaking, regardless of scheduling order.
    #[test]
    fn queue_pops_chronologically(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut queue = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(t), seq);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, seq)) = queue.pop() {
            if let Some((prev_at, prev_seq)) = last {
                prop_assert!(at >= prev_at);
                if at == prev_at {
                    prop_assert!(seq > prev_seq, "FIFO tie-break violated");
                }
            }
            prop_assert_eq!(queue.now(), at);
            last = Some((at, seq));
        }
        prop_assert!(queue.is_empty());
    }

    /// The empirical CDF is monotone, normalised, and consistent with its
    /// quantiles.
    #[test]
    fn cdf_is_monotone_and_normalised(samples in prop::collection::vec(-1.0e6f64..1.0e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        prop_assert_eq!(cdf.len(), samples.len());
        let lo = cdf.quantile(0.0).unwrap();
        let hi = cdf.max().unwrap();
        prop_assert_eq!(cdf.fraction_at_or_below(hi), 1.0);
        prop_assert!(cdf.fraction_at_or_below(lo - 1.0) == 0.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let f = cdf.fraction_at_or_below(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        // Every quantile is an actual sample within range.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = cdf.quantile(q).unwrap();
            prop_assert!(samples.contains(&v));
        }
    }

    /// Welford accumulation agrees with the naive two-pass formulas.
    #[test]
    fn running_stats_match_two_pass(samples in prop::collection::vec(-1.0e3f64..1.0e3, 2..100)) {
        let stats: RunningStats = samples.iter().copied().collect();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((stats.mean() - mean).abs() < 1e-9);
        prop_assert!((stats.sample_variance() - var).abs() < 1e-6);
    }

    /// Time arithmetic is consistent: `(t + d) - t == d` and ordering
    /// matches the underlying microseconds.
    #[test]
    fn time_arithmetic_round_trips(base in 0u64..1_000_000_000, delta in 0u64..1_000_000_000) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        prop_assert!(t + d >= t);
    }
}
