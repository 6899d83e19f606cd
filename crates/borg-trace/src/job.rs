//! Trace records.

use std::fmt;

use des::{SimDuration, SimTime};

/// Identifier of a job within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job identifier.
    pub const fn new(id: u64) -> Self {
        JobId(id)
    }

    /// The raw numeric identifier.
    pub(crate) const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job:{}", self.0)
    }
}

/// One job record, carrying the four fields the paper extracts from the
/// Borg trace (§VI-B): submission time, duration, assigned memory and
/// maximal memory usage.
///
/// Memory is expressed the way the trace expresses it: as a **fraction of
/// the largest machine's capacity** (absolute values are undisclosed). The
/// workload-materialisation step multiplies these fractions by concrete
/// capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceJob {
    /// Identifier, unique within its trace.
    pub id: JobId,
    /// Submission instant relative to the trace origin.
    pub submit: SimTime,
    /// Useful run time of the job (excludes any queueing).
    pub duration: SimDuration,
    /// Memory the job *advertises* at submission, as a capacity fraction.
    pub assigned_mem_fraction: f64,
    /// Memory the job will *actually* allocate, as a capacity fraction.
    pub max_mem_fraction: f64,
}

impl TraceJob {
    /// `true` when the job allocates more memory than it advertised — the
    /// behaviour shown by 44 of the 663 replayed jobs in §VI-F.
    pub(crate) fn over_uses_memory(&self) -> bool {
        self.max_mem_fraction > self.assigned_mem_fraction
    }
}

/// A time-ordered collection of [`TraceJob`]s.
///
/// The ordering invariant (non-decreasing `submit`) is maintained by all
/// constructors; `Trace::from_jobs` sorts its input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    jobs: Vec<TraceJob>,
}

impl Trace {
    /// Builds a trace from jobs, sorting them by submission time (stable,
    /// so equal-time jobs keep their relative order).
    pub(crate) fn from_jobs(mut jobs: Vec<TraceJob>) -> Self {
        jobs.sort_by_key(|j| j.submit);
        Trace { jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterates over the jobs in submission order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, TraceJob> {
        self.jobs.iter()
    }

    /// Sum of all job durations — the "useful job duration" baseline of
    /// Fig. 10 ("Trace" bar).
    pub fn total_duration(&self) -> SimDuration {
        self.jobs.iter().map(|j| j.duration).sum()
    }

    /// Number of jobs that allocate more than they advertise.
    pub fn over_user_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.over_uses_memory()).count()
    }
}

impl FromIterator<TraceJob> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceJob>>(iter: I) -> Self {
        Trace::from_jobs(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceJob;
    type IntoIter = std::slice::Iter<'a, TraceJob>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, submit: u64, dur: u64) -> TraceJob {
        TraceJob {
            id: JobId::new(id),
            submit: SimTime::from_secs(submit),
            duration: SimDuration::from_secs(dur),
            assigned_mem_fraction: 0.1,
            max_mem_fraction: 0.05,
        }
    }

    #[test]
    fn from_jobs_sorts_by_submit() {
        let trace = Trace::from_jobs(vec![job(1, 30, 10), job(2, 10, 10), job(3, 20, 10)]);
        let order: Vec<u64> = trace.iter().map(|j| j.id.as_u64()).collect();
        assert_eq!(order, [2, 3, 1]);
    }

    #[test]
    fn totals() {
        let trace: Trace = vec![job(1, 0, 10), job(2, 5, 20)].into_iter().collect();
        assert_eq!(trace.total_duration(), SimDuration::from_secs(30));
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn over_users_detected() {
        let mut j = job(1, 0, 10);
        assert!(!j.over_uses_memory());
        j.max_mem_fraction = 0.2;
        assert!(j.over_uses_memory());
        let trace = Trace::from_jobs(vec![j, job(2, 1, 1)]);
        assert_eq!(trace.over_user_count(), 1);
    }

    #[test]
    fn empty_trace_behaviour() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.total_duration(), SimDuration::ZERO);
    }
}
