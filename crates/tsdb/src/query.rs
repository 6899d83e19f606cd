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

    /// Reduces a non-empty slice of `(time, value)` samples, folding in
    /// slice order.
    fn apply(self, samples: &[(SimTime, f64)]) -> f64 {
        debug_assert!(!samples.is_empty());
        let values = samples.iter().map(|&(_, value)| value);
        match self {
            Aggregate::Max => values.fold(f64::MIN, f64::max),
            Aggregate::Min => values.fold(f64::MAX, f64::min),
            Aggregate::Sum => values.fold(0.0, |acc, value| acc + value),
            Aggregate::Mean => values.fold(0.0, |acc, value| acc + value) / samples.len() as f64,
            Aggregate::Count => samples.len() as f64,
            // `max_by_key` keeps the last of equal maxima: ties go to the
            // sample inserted last.
            Aggregate::Last => samples
                .iter()
                .max_by_key(|&&(time, _)| time)
                .map_or(0.0, |s| s.1),
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

    /// Evaluates against `db` with `now` as the evaluation instant:
    /// materialises every sample of the source measurement, filters it,
    /// groups it by the projected tags and reduces each group. Rows come
    /// back sorted by tag set for determinism.
    pub(crate) fn execute(&self, db: &Database, now: SimTime) -> Vec<Row> {
        // Collect the input stream: either raw points or inner rows
        // (treated as observations at `now`).
        let series;
        let owned_rows;
        let inputs: Vec<(SimTime, f64, &TagSet)> = match &self.source {
            Source::Measurement(m) => {
                series = db.scan(m);
                series
                    .iter()
                    .flat_map(|(tags, samples)| samples.iter().map(move |&(t, v)| (t, v, tags)))
                    .collect()
            }
            Source::Subquery(inner) => {
                owned_rows = inner.execute(db, now);
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

/// Projects a full tag set onto the `GROUP BY` keys.
fn project_tags(tags: &TagSet, keys: &[String]) -> TagSet {
    keys.iter()
        .filter_map(|k| tags.get(k).map(|v| (k.clone(), v.clone())))
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
