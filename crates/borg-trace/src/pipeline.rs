//! The §VI-B trace-preparation pipeline: time and frequency reduction.

use des::SimTime;

use crate::job::{Trace, TraceJob};

/// Declarative description of the paper's trace reductions.
///
/// # Examples
///
/// ```
/// use borg_trace::{GeneratorConfig, TracePipeline};
/// use des::SimTime;
///
/// let trace = GeneratorConfig::small(1).generate();
/// let prepared = TracePipeline::new()
///     .slice(SimTime::from_secs(600), SimTime::from_secs(1800))
///     .sample_every(5)
///     .prepare(&trace);
/// for job in &prepared {
///     assert!(job.submit >= SimTime::from_secs(600));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePipeline {
    slice_from: Option<SimTime>,
    slice_to: Option<SimTime>,
    sample_every: usize,
    rebase_time: bool,
}

impl TracePipeline {
    /// An identity pipeline (no reductions, no rebasing).
    pub fn new() -> Self {
        TracePipeline {
            slice_from: None,
            slice_to: None,
            sample_every: 1,
            rebase_time: false,
        }
    }

    /// The paper's exact configuration: slice `[6480 s, 10 080 s)`, keep
    /// every 1200th job, rebase submissions to start at zero so the replay
    /// lasts one hour.
    pub fn paper() -> Self {
        TracePipeline::new()
            .slice(SimTime::from_secs(6480), SimTime::from_secs(10_080))
            .sample_every(1200)
            .rebase()
    }

    /// Keeps only jobs submitted in `[from, to)` (time reduction).
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn slice(mut self, from: SimTime, to: SimTime) -> Self {
        assert!(from < to, "slice requires from < to");
        self.slice_from = Some(from);
        self.slice_to = Some(to);
        self
    }

    /// Keeps every `k`-th job (frequency reduction).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn sample_every(mut self, k: usize) -> Self {
        assert!(k > 0, "sample_every requires k >= 1");
        self.sample_every = k;
        self
    }

    /// Shifts submission times so the first kept job submits at `t = 0`.
    pub fn rebase(mut self) -> Self {
        self.rebase_time = true;
        self
    }

    /// Applies the reductions to a trace, producing a new trace.
    pub fn prepare(&self, trace: &Trace) -> Trace {
        let mut kept: Vec<TraceJob> = trace
            .iter()
            .filter(|j| {
                self.slice_from.is_none_or(|from| j.submit >= from)
                    && self.slice_to.is_none_or(|to| j.submit < to)
            })
            .enumerate()
            .filter_map(|(i, j)| (i % self.sample_every == 0).then_some(*j))
            .collect();
        if self.rebase_time {
            if let Some(origin) = kept.first().map(|j| j.submit) {
                for job in &mut kept {
                    job.submit = SimTime::ZERO + job.submit.saturating_since(origin);
                }
            }
        }
        Trace::from_jobs(kept)
    }
}

impl Default for TracePipeline {
    fn default() -> Self {
        TracePipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use des::SimDuration;

    fn trace_of(n: u64) -> Trace {
        (0..n)
            .map(|i| TraceJob {
                id: JobId::new(i),
                submit: SimTime::from_secs(i * 10),
                duration: SimDuration::from_secs(5),
                assigned_mem_fraction: 0.1,
                max_mem_fraction: 0.05,
            })
            .collect()
    }

    #[test]
    fn slice_keeps_half_open_interval() {
        let trace = trace_of(10);
        let sliced = TracePipeline::new()
            .slice(SimTime::from_secs(20), SimTime::from_secs(50))
            .prepare(&trace);
        let ids: Vec<u64> = sliced.iter().map(|j| j.id.as_u64()).collect();
        assert_eq!(ids, [2, 3, 4]); // 20, 30, 40 — 50 excluded
    }

    #[test]
    fn sampling_keeps_every_kth() {
        let trace = trace_of(10);
        let sampled = TracePipeline::new().sample_every(3).prepare(&trace);
        let ids: Vec<u64> = sampled.iter().map(|j| j.id.as_u64()).collect();
        assert_eq!(ids, [0, 3, 6, 9]);
    }

    #[test]
    fn rebase_shifts_to_zero() {
        let trace = trace_of(10);
        let rebased = TracePipeline::new()
            .slice(SimTime::from_secs(30), SimTime::from_secs(100))
            .rebase()
            .prepare(&trace);
        let submits: Vec<SimTime> = rebased.iter().map(|j| j.submit).collect();
        assert_eq!(submits[..2], [SimTime::ZERO, SimTime::from_secs(10)]);
    }

    #[test]
    fn paper_pipeline_composition() {
        let p = TracePipeline::paper();
        let trace = trace_of(2000); // submits at 0..20000 s
        let prepared = p.prepare(&trace);
        // Slice keeps ids 648..=1007 (360 jobs), sampling keeps 1 of 1200.
        assert_eq!(prepared.len(), 1);
        assert_eq!(prepared.iter().next().unwrap().submit, SimTime::ZERO);
    }

    #[test]
    fn identity_pipeline_preserves_trace() {
        let trace = trace_of(5);
        assert_eq!(TracePipeline::new().prepare(&trace), trace);
        assert_eq!(TracePipeline::default().prepare(&trace), trace);
    }

    #[test]
    fn empty_input_is_fine() {
        let empty = Trace::default();
        assert!(TracePipeline::paper().prepare(&empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "from < to")]
    fn inverted_slice_panics() {
        let _ = TracePipeline::new().slice(SimTime::from_secs(10), SimTime::from_secs(5));
    }
}
