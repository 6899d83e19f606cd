//! Trace statistics backing Figs. 3–5.

use des::stats::Cdf;

use crate::job::Trace;

/// CDF of maximal memory usage (capacity fractions) — Fig. 3.
pub fn memory_usage_cdf(trace: &Trace) -> Cdf {
    trace.iter().map(|j| j.max_mem_fraction).collect()
}

/// CDF of advertised (assigned) memory, for comparing against Fig. 3.
pub fn assigned_memory_cdf(trace: &Trace) -> Cdf {
    trace.iter().map(|j| j.assigned_mem_fraction).collect()
}

/// CDF of job durations in seconds — Fig. 4.
pub fn duration_cdf(trace: &Trace) -> Cdf {
    trace.iter().map(|j| j.duration.as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;
    #[test]
    fn cdfs_cover_all_jobs() {
        let trace = GeneratorConfig::small(1).generate();
        assert_eq!(memory_usage_cdf(&trace).len(), trace.len());
        assert_eq!(duration_cdf(&trace).len(), trace.len());
        assert_eq!(assigned_memory_cdf(&trace).len(), trace.len());
        // Fig. 4: all durations at or below 300 s.
        assert_eq!(duration_cdf(&trace).fraction_at_or_below(300.0), 1.0);
        // Fig. 3: all fractions at or below 0.5.
        assert_eq!(memory_usage_cdf(&trace).fraction_at_or_below(0.5), 1.0);
    }
}
