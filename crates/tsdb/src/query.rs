//! Structured query AST and execution semantics.
//!
//! The engine supports exactly the shape of query the paper's scheduler
//! needs (Listing 1): an aggregation over a sliding time window, grouped
//! by tags, optionally nested one level (aggregate-of-aggregates). The
//! AST can be built programmatically (this module) or parsed from
//! InfluxQL text ([`crate::influxql`]).

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};

use crate::point::TagSet;
use crate::storage::Database;

/// An aggregate function applied to the values of one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Largest value.
    Max,
    /// Smallest value.
    Min,
    /// Arithmetic mean.
    Mean,
    /// Sum of values.
    Sum,
    /// Number of values.
    Count,
    /// Value with the latest timestamp (ties: last inserted).
    Last,
}

impl Aggregate {
    /// Parses an aggregate name, case-insensitively.
    pub(crate) fn from_name(name: &str) -> Option<Aggregate> {
        match name.to_ascii_uppercase().as_str() {
            "MAX" => Some(Aggregate::Max),
            "MIN" => Some(Aggregate::Min),
            "MEAN" => Some(Aggregate::Mean),
            "SUM" => Some(Aggregate::Sum),
            "COUNT" => Some(Aggregate::Count),
            "LAST" => Some(Aggregate::Last),
            _ => None,
        }
    }

    /// Reduces a non-empty slice of `(time, value)` samples.
    fn apply(self, samples: &[(SimTime, f64)]) -> f64 {
        debug_assert!(!samples.is_empty());
        let mut state = AggState::new(self);
        for &(time, value) in samples {
            state.push(time, value);
        }
        state.finish()
    }
}

/// Streaming accumulator for one group: folds `(time, value)` samples one
/// at a time in O(1) space, replacing the per-group `Vec` the executor
/// used to build. The fold order and operations are identical to
/// [`Aggregate::apply`] over the collected samples, so results are
/// bit-for-bit the same.
#[derive(Debug, Clone, Copy)]
struct AggState {
    aggregate: Aggregate,
    /// Running max / min / sum depending on the aggregate.
    acc: f64,
    count: u64,
    /// For [`Aggregate::Last`]: the latest timestamp seen so far. Samples
    /// at an equal timestamp replace the held value, matching the
    /// "ties: last in stream order" semantics of the slice fold.
    last_time: SimTime,
    last_value: f64,
}

impl AggState {
    fn new(aggregate: Aggregate) -> Self {
        let acc = match aggregate {
            Aggregate::Max => f64::MIN,
            Aggregate::Min => f64::MAX,
            _ => 0.0,
        };
        AggState {
            aggregate,
            acc,
            count: 0,
            last_time: SimTime::ZERO,
            last_value: 0.0,
        }
    }

    fn push(&mut self, time: SimTime, value: f64) {
        match self.aggregate {
            Aggregate::Max => self.acc = self.acc.max(value),
            Aggregate::Min => self.acc = self.acc.min(value),
            Aggregate::Mean | Aggregate::Sum => self.acc += value,
            Aggregate::Count => {}
            Aggregate::Last => {
                if time >= self.last_time {
                    self.last_time = time;
                    self.last_value = value;
                }
            }
        }
        self.count += 1;
    }

    fn finish(&self) -> f64 {
        debug_assert!(self.count > 0);
        match self.aggregate {
            Aggregate::Max | Aggregate::Min | Aggregate::Sum => self.acc,
            Aggregate::Mean => self.acc / self.count as f64,
            Aggregate::Count => self.count as f64,
            Aggregate::Last => self.last_value,
        }
    }
}

/// A point in time expressed either absolutely or relative to the query's
/// evaluation instant (`now() - d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBound {
    /// A fixed instant.
    Absolute(SimTime),
    /// `now() - duration`, resolved at evaluation time.
    SinceNowMinus(SimDuration),
}

impl TimeBound {
    /// Resolves the bound against the evaluation instant.
    pub fn resolve(self, now: SimTime) -> SimTime {
        match self {
            TimeBound::Absolute(t) => t,
            TimeBound::SinceNowMinus(d) => {
                SimTime::from_micros(now.as_micros().saturating_sub(d.as_micros()))
            }
        }
    }
}

/// A filter over points (applied before grouping).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `value <> x`
    ValueNe(f64),
    /// `value > x`
    ValueGt(f64),
    /// `value < x`
    ValueLt(f64),
    /// `time >= bound`
    TimeAtLeast(TimeBound),
    /// `time < bound`
    TimeBefore(TimeBound),
    /// `tag = 'literal'`
    TagEq(String, String),
}

impl Predicate {
    /// `true` for predicates that constrain the timestamp alone. These are
    /// absorbed into the scan bounds by [`scan_bounds`] instead of being
    /// re-evaluated per sample.
    fn is_time_bound(&self) -> bool {
        matches!(self, Predicate::TimeAtLeast(_) | Predicate::TimeBefore(_))
    }

    fn matches(&self, time: SimTime, value: f64, tags: &TagSet, now: SimTime) -> bool {
        match self {
            Predicate::ValueNe(x) => value != *x,
            Predicate::ValueGt(x) => value > *x,
            Predicate::ValueLt(x) => value < *x,
            Predicate::TimeAtLeast(b) => time >= b.resolve(now),
            Predicate::TimeBefore(b) => time < b.resolve(now),
            Predicate::TagEq(k, v) => tags.get(k).map(String::as_str) == Some(v.as_str()),
        }
    }
}

/// The data a [`Select`] reads from: a raw measurement or a subquery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Source {
    /// A stored measurement, e.g. `"sgx/epc"`.
    Measurement(String),
    /// A nested select whose result rows are re-aggregated.
    Subquery(Box<Select>),
}

/// A single-aggregate, group-by select statement.
///
/// # Examples
///
/// Building Listing 1 programmatically:
///
/// ```
/// use des::SimDuration;
/// use tsdb::{Aggregate, Predicate, Select, TimeBound};
///
/// let per_pod = Select::from_measurement("sgx/epc")
///     .aggregate(Aggregate::Max)
///     .filter(Predicate::ValueNe(0.0))
///     .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
///         SimDuration::from_secs(25),
///     )))
///     .group_by(["pod_name", "nodename"]);
/// let per_node = Select::from_subquery(per_pod)
///     .aggregate(Aggregate::Sum)
///     .group_by(["nodename"]);
/// assert_eq!(per_node, tsdb::influxql::parse(
///     r#"SELECT SUM(epc) FROM (SELECT MAX(value) FROM "sgx/epc"
///        WHERE value <> 0 AND time >= now() - 25s GROUP BY pod_name, nodename)
///        GROUP BY nodename"#,
/// )?);
/// # Ok::<(), tsdb::TsdbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    source: Source,
    aggregate: Aggregate,
    predicates: Vec<Predicate>,
    group_by: Vec<String>,
}

impl Select {
    /// Starts a select over a stored measurement (default aggregate:
    /// [`Aggregate::Last`]).
    pub fn from_measurement(measurement: impl Into<String>) -> Self {
        Select {
            source: Source::Measurement(measurement.into()),
            aggregate: Aggregate::Last,
            predicates: Vec::new(),
            group_by: Vec::new(),
        }
    }

    /// Starts a select over the rows produced by `inner`.
    pub fn from_subquery(inner: Select) -> Self {
        Select {
            source: Source::Subquery(Box::new(inner)),
            aggregate: Aggregate::Last,
            predicates: Vec::new(),
            group_by: Vec::new(),
        }
    }

    /// Sets the aggregate function.
    pub fn aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Adds a filter predicate (conjunctive).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Sets the grouping tags.
    pub fn group_by<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_by = keys.into_iter().map(Into::into).collect();
        self
    }

    /// Evaluates against a time-bounded sample stream. Time predicates are
    /// resolved up front into a `[lo, hi)` scan range, so the store hands
    /// over only the window's samples, decoding each series no further
    /// than `hi`; the remaining predicates are checked per sample and each
    /// group folds through a constant-space [`AggState`] instead of
    /// collecting a `Vec`. Rows come back sorted by tag set for
    /// determinism.
    pub(crate) fn execute_streaming(&self, db: &Database, now: SimTime) -> Vec<Row> {
        match &self.source {
            Source::Measurement(measurement) => {
                let (lo, hi) = scan_bounds(&self.predicates, now);
                let residual: Vec<&Predicate> = self
                    .predicates
                    .iter()
                    .filter(|p| !p.is_time_bound())
                    .collect();
                let mut groups: BTreeMap<TagSet, AggState> = BTreeMap::new();
                db.stream_window(measurement, lo, hi, |time, value, tags| {
                    if !residual.iter().all(|p| p.matches(time, value, tags, now)) {
                        return;
                    }
                    groups
                        .entry(project_tags(tags, &self.group_by))
                        .or_insert_with(|| AggState::new(self.aggregate))
                        .push(time, value);
                });
                finish_groups(groups)
            }
            Source::Subquery(inner) => {
                let rows = inner.execute_streaming(db, now);
                aggregate_rows(self, &rows, now)
            }
        }
    }

    /// Reference executor: materialises every sample of the source
    /// measurement and filters after the fact, exactly as the original
    /// engine did. Kept as the oracle the streaming executor is verified
    /// against (see the `query_props` property tests) and as the
    /// baseline of the `tsdb_ops` benchmark.
    pub(crate) fn execute_full_scan<F>(&self, fetch: &F, now: SimTime) -> Vec<Row>
    where
        F: Fn(&str) -> Vec<(TagSet, Vec<(SimTime, f64)>)>,
    {
        // Collect the input stream: either raw points or inner rows
        // (treated as observations at `now`).
        let series;
        let owned_rows;
        let inputs: Vec<(SimTime, f64, &TagSet)> = match &self.source {
            Source::Measurement(m) => {
                series = fetch(m);
                series
                    .iter()
                    .flat_map(|(tags, samples)| samples.iter().map(move |&(t, v)| (t, v, tags)))
                    .collect()
            }
            Source::Subquery(inner) => {
                owned_rows = inner.execute_full_scan(fetch, now);
                owned_rows
                    .iter()
                    .map(|row| (now, row.value, &row.tags))
                    .collect()
            }
        };

        let mut groups: BTreeMap<TagSet, Vec<(SimTime, f64)>> = BTreeMap::new();
        for (time, value, tags) in inputs {
            if !self
                .predicates
                .iter()
                .all(|p| p.matches(time, value, tags, now))
            {
                continue;
            }
            groups
                .entry(project_tags(tags, &self.group_by))
                .or_default()
                .push((time, value));
        }

        groups
            .into_iter()
            .map(|(tags, samples)| Row {
                value: self.aggregate.apply(&samples),
                tags,
            })
            .collect()
    }
}

/// Resolves the conjunction of time predicates into a half-open scan
/// range `[lo, hi)`; `hi` is `None` when unbounded above.
fn scan_bounds(predicates: &[Predicate], now: SimTime) -> (SimTime, Option<SimTime>) {
    let mut lo = SimTime::ZERO;
    let mut hi: Option<SimTime> = None;
    for predicate in predicates {
        match predicate {
            Predicate::TimeAtLeast(bound) => lo = lo.max(bound.resolve(now)),
            Predicate::TimeBefore(bound) => {
                let resolved = bound.resolve(now);
                hi = Some(hi.map_or(resolved, |h| h.min(resolved)));
            }
            _ => {}
        }
    }
    (lo, hi)
}

/// Projects a full tag set onto the `GROUP BY` keys.
fn project_tags(tags: &TagSet, keys: &[String]) -> TagSet {
    keys.iter()
        .filter_map(|k| tags.get(k).map(|v| (k.clone(), v.clone())))
        .collect()
}

/// Applies a select to already-aggregated rows treated as observations at
/// `now` — the outer half of a nested query.
fn aggregate_rows(select: &Select, inputs: &[Row], now: SimTime) -> Vec<Row> {
    let (lo, hi) = scan_bounds(&select.predicates, now);
    let mut groups: BTreeMap<TagSet, AggState> = BTreeMap::new();
    if now >= lo && hi.is_none_or(|h| now < h) {
        let residual: Vec<&Predicate> = select
            .predicates
            .iter()
            .filter(|p| !p.is_time_bound())
            .collect();
        for row in inputs {
            if !residual
                .iter()
                .all(|p| p.matches(now, row.value, &row.tags, now))
            {
                continue;
            }
            groups
                .entry(project_tags(&row.tags, &select.group_by))
                .or_insert_with(|| AggState::new(select.aggregate))
                .push(now, row.value);
        }
    }
    finish_groups(groups)
}

fn finish_groups(groups: BTreeMap<TagSet, AggState>) -> Vec<Row> {
    groups
        .into_iter()
        .map(|(tags, state)| Row {
            value: state.finish(),
            tags,
        })
        .collect()
}

/// One result row: the grouping tags and the aggregated value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Tag values identifying the group (restricted to the `GROUP BY` keys).
    pub tags: TagSet,
    /// The aggregated value.
    pub value: f64,
}

impl Row {
    /// Convenience accessor for one tag of the group key.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.get(key).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagset(pairs: &[(&str, &str)]) -> TagSet {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn aggregate_from_name_is_case_insensitive() {
        assert_eq!(Aggregate::from_name("max"), Some(Aggregate::Max));
        assert_eq!(Aggregate::from_name("Sum"), Some(Aggregate::Sum));
        assert_eq!(Aggregate::from_name("MEDIAN"), None);
    }

    #[test]
    fn aggregates_reduce_correctly() {
        let samples = vec![
            (SimTime::from_secs(1), 3.0),
            (SimTime::from_secs(3), 1.0),
            (SimTime::from_secs(2), 2.0),
        ];
        assert_eq!(Aggregate::Max.apply(&samples), 3.0);
        assert_eq!(Aggregate::Min.apply(&samples), 1.0);
        assert_eq!(Aggregate::Mean.apply(&samples), 2.0);
        assert_eq!(Aggregate::Sum.apply(&samples), 6.0);
        assert_eq!(Aggregate::Count.apply(&samples), 3.0);
        assert_eq!(Aggregate::Last.apply(&samples), 1.0); // latest time wins
    }

    #[test]
    fn time_bounds_resolve() {
        let now = SimTime::from_secs(100);
        assert_eq!(
            TimeBound::Absolute(SimTime::from_secs(5)).resolve(now),
            SimTime::from_secs(5)
        );
        assert_eq!(
            TimeBound::SinceNowMinus(SimDuration::from_secs(25)).resolve(now),
            SimTime::from_secs(75)
        );
        // Saturates instead of underflowing early in the simulation.
        assert_eq!(
            TimeBound::SinceNowMinus(SimDuration::from_secs(999)).resolve(now),
            SimTime::ZERO
        );
    }

    #[test]
    fn predicates_filter() {
        let tags = tagset(&[("node", "n1")]);
        let now = SimTime::from_secs(100);
        assert!(Predicate::ValueNe(0.0).matches(now, 1.0, &tags, now));
        assert!(!Predicate::ValueNe(1.0).matches(now, 1.0, &tags, now));
        assert!(Predicate::ValueGt(0.5).matches(now, 1.0, &tags, now));
        assert!(Predicate::ValueLt(2.0).matches(now, 1.0, &tags, now));
        assert!(Predicate::TagEq("node".into(), "n1".into()).matches(now, 1.0, &tags, now));
        assert!(!Predicate::TagEq("node".into(), "n2".into()).matches(now, 1.0, &tags, now));
        assert!(
            Predicate::TimeAtLeast(TimeBound::SinceNowMinus(SimDuration::from_secs(25))).matches(
                SimTime::from_secs(80),
                1.0,
                &tags,
                now
            )
        );
        assert!(
            !Predicate::TimeAtLeast(TimeBound::SinceNowMinus(SimDuration::from_secs(25))).matches(
                SimTime::from_secs(70),
                1.0,
                &tags,
                now
            )
        );
        assert!(
            Predicate::TimeBefore(TimeBound::Absolute(SimTime::from_secs(101)))
                .matches(now, 1.0, &tags, now)
        );
    }
}
