//! Series storage and retention.

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};

use crate::point::{Point, TagSet};
use crate::query::{Row, Select, TimeBound};

/// The `[lo, hi)` tag-set range containing exactly the series whose first
/// tag pair is `(key, value)`: from `{key: value}` (a prefix of every
/// such tag set, hence ≤ all of them) up to `{key: value + "\0"}` (the
/// smallest tag set sorting after all of them).
fn first_tag_range(key: &str, value: &str) -> (TagSet, TagSet) {
    let lo: TagSet = [(key.to_string(), value.to_string())].into();
    let mut next = value.to_string();
    next.push('\0');
    let hi: TagSet = [(key.to_string(), next)].into();
    (lo, hi)
}

/// One series' samples, sorted by time (stable for equal timestamps).
type Series = Vec<(SimTime, f64)>;

fn insert_sorted(series: &mut Series, time: SimTime, value: f64) {
    // Probes push in time order, so the common case is an append.
    match series.last() {
        Some(&(last, _)) if last > time => {
            let idx = series.partition_point(|&(t, _)| t <= time);
            series.insert(idx, (time, value));
        }
        _ => series.push((time, value)),
    }
}

/// The in-window slice `lo <= time < hi`, located with two binary
/// searches instead of a scan.
fn window(series: &Series, lo: SimTime, hi: Option<SimTime>) -> &[(SimTime, f64)] {
    let start = series.partition_point(|&(t, _)| t < lo);
    let end = match hi {
        Some(hi) => series.partition_point(|&(t, _)| t < hi),
        None => series.len(),
    };
    &series[start..end.max(start)]
}

/// The in-memory time-series database.
///
/// Series are keyed by `(measurement, tag set)`; queries are executed with
/// [`Database::query`] against a caller-supplied evaluation instant
/// (virtual `now()`).
///
/// # Examples
///
/// ```
/// use des::{SimDuration, SimTime};
/// use tsdb::{Aggregate, Database, Point, Select};
///
/// let mut db = Database::new();
/// db.insert(Point::new("memory/usage", SimTime::from_secs(1), 42.0).with_tag("nodename", "n1"));
///
/// let q = Select::from_measurement("memory/usage")
///     .aggregate(Aggregate::Sum)
///     .group_by(["nodename"]);
/// let rows = db.query(&q, SimTime::from_secs(2));
/// assert_eq!(rows[0].value, 42.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    measurements: BTreeMap<String, BTreeMap<TagSet, Series>>,
    points_inserted: u64,
    points_evicted: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts a point.
    pub fn insert(&mut self, point: Point) {
        let (measurement, tags, time, value) = point.into_parts();
        let series = self
            .measurements
            .entry(measurement)
            .or_default()
            .entry(tags)
            .or_default();
        insert_sorted(series, time, value);
        self.points_inserted += 1;
    }

    /// Inserts a sample by borrowed identity, allocating nothing when the
    /// series already exists — the batched-ingestion hot path. Only a
    /// *new* series clones `measurement` and `tags` into owned keys.
    ///
    /// # Panics
    ///
    /// Panics if `measurement` is empty or `value` is not finite (the
    /// same contract [`Point::new`] enforces).
    pub fn insert_at(&mut self, measurement: &str, tags: &TagSet, time: SimTime, value: f64) {
        assert!(
            !measurement.is_empty(),
            "measurement name must not be empty"
        );
        assert!(value.is_finite(), "point value must be finite, got {value}");
        // Lookups instead of `entry`: `entry` would force cloning the
        // borrowed keys on every call, existing series or not. The miss
        // arms re-walk the tree, but only on first contact with a
        // measurement or series; steady state is two `get_mut` hits.
        let series_map = if self.measurements.contains_key(measurement) {
            self.measurements
                .get_mut(measurement)
                .expect("checked above")
        } else {
            self.measurements
                .entry(measurement.to_string())
                .or_default()
        };
        match series_map.get_mut(tags) {
            Some(series) => insert_sorted(series, time, value),
            None => insert_sorted(series_map.entry(tags.clone()).or_default(), time, value),
        }
        self.points_inserted += 1;
    }

    /// Inserts every row of a [`PointBatch`](crate::PointBatch), sharing
    /// one scratch tag set across rows so steady-state ingestion performs
    /// no per-point key allocations.
    pub fn insert_batch(&mut self, batch: &crate::PointBatch) {
        let mut tags = batch.shared_tags().clone();
        for row in batch.rows() {
            if let Some(slot) = tags.get_mut(batch.row_tag_key()) {
                slot.clear();
                slot.push_str(&row.tag_value);
            } else {
                tags.insert(batch.row_tag_key().to_string(), row.tag_value.clone());
            }
            self.insert_at(batch.measurement(), &tags, batch.time(), row.value);
        }
    }

    /// Executes a (possibly nested) select with `now` as the evaluation
    /// instant for relative time bounds. Rows come back sorted by tag set.
    ///
    /// Time predicates are resolved into a scan range before any sample is
    /// touched, so a sliding-window query costs O(log history + window)
    /// per series rather than O(history).
    pub fn query(&self, select: &Select, now: SimTime) -> Vec<Row> {
        select.execute_streaming(self, now)
    }

    /// Executes `select` by materialising every sample of the measurement
    /// and filtering afterwards — the engine's original code path. Kept as
    /// the naive reference [`query`](Self::query) is property-tested
    /// against and as the benchmark baseline; the result is bit-for-bit
    /// identical.
    pub fn query_full_scan(&self, select: &Select, now: SimTime) -> Vec<Row> {
        let fetch = |measurement: &str| -> Vec<(SimTime, f64, &TagSet)> {
            let mut samples = Vec::new();
            if let Some(series_map) = self.measurements.get(measurement) {
                for (tags, series) in series_map {
                    samples.extend(series.iter().map(|&(t, v)| (t, v, tags)));
                }
            }
            samples
        };
        select.execute_full_scan(&fetch, now)
    }

    /// Streams every sample of `measurement` with `lo <= time` (and
    /// `time < hi` when `hi` is bounded) into `emit`: series in tag-set
    /// order and, within a series, samples in timestamp order (stable for
    /// equal timestamps) — the same total order the full scan produces,
    /// so both executors fold groups identically.
    pub(crate) fn stream_window(
        &self,
        measurement: &str,
        lo: SimTime,
        hi: Option<SimTime>,
        mut emit: impl FnMut(SimTime, f64, &TagSet),
    ) {
        if let Some(series_map) = self.measurements.get(measurement) {
            for (tags, series) in series_map {
                for &(time, value) in window(series, lo, hi) {
                    emit(time, value, tags);
                }
            }
        }
    }

    /// Drops every sample older than `keep` relative to `now`, across all
    /// series, and removes series that become empty. Returns the number of
    /// samples evicted. This is the retention-policy enforcement a real
    /// InfluxDB runs continuously.
    pub fn enforce_retention(&mut self, now: SimTime, keep: SimDuration) -> usize {
        let cutoff = TimeBound::SinceNowMinus(keep).resolve(now);
        let mut evicted = 0;
        for series_map in self.measurements.values_mut() {
            series_map.retain(|_, series| {
                let keep_from = series.partition_point(|&(t, _)| t < cutoff);
                evicted += series.drain(..keep_from).count();
                !series.is_empty()
            });
        }
        self.measurements.retain(|_, m| !m.is_empty());
        self.points_evicted += evicted as u64;
        evicted
    }

    /// Removes every series — across all measurements — whose
    /// lexicographically *first* tag pair is exactly `(key, value)`, and
    /// returns the number of samples dropped (counted as evictions).
    ///
    /// This is node deregistration's storage teardown: probe series are
    /// tagged `{nodename, pod_name}` and `"nodename"` sorts first, so one
    /// call with `("nodename", node)` unregisters exactly that node's
    /// series. A later node reusing the name starts from empty series.
    pub fn drop_series_with_first_tag(&mut self, key: &str, value: &str) -> usize {
        let (lo, hi) = first_tag_range(key, value);
        let mut dropped = 0;
        for series_map in self.measurements.values_mut() {
            let doomed: Vec<TagSet> = series_map
                .range(lo.clone()..hi.clone())
                .map(|(tags, _)| tags.clone())
                .collect();
            for tags in doomed {
                if let Some(series) = series_map.remove(&tags) {
                    dropped += series.len();
                }
            }
        }
        self.measurements.retain(|_, m| !m.is_empty());
        self.points_evicted += dropped as u64;
        dropped
    }

    /// Number of distinct series currently stored.
    pub fn series_count(&self) -> usize {
        self.measurements.values().map(BTreeMap::len).sum()
    }

    /// Number of samples currently stored.
    pub fn point_count(&self) -> usize {
        self.measurements
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Lifetime insert counter.
    pub fn points_inserted(&self) -> u64 {
        self.points_inserted
    }

    /// Lifetime eviction counter.
    pub fn points_evicted(&self) -> u64 {
        self.points_evicted
    }

    /// The measurement names currently stored, in sorted order.
    pub fn measurement_names(&self) -> Vec<&str> {
        self.measurements.keys().map(String::as_str).collect()
    }

    /// Serialises every stored sample into the binary snapshot format of
    /// [`crate::wire`] (what a real InfluxDB would flush to disk).
    pub fn snapshot(&self) -> bytes::Bytes {
        let mut points = Vec::with_capacity(self.point_count());
        for (measurement, series_map) in &self.measurements {
            for (tags, series) in series_map {
                for &(time, value) in series {
                    let mut point = Point::new(measurement.clone(), time, value);
                    for (k, v) in tags {
                        point = point.with_tag(k.clone(), v.clone());
                    }
                    points.push(point);
                }
            }
        }
        crate::wire::encode(&points)
    }

    /// Rebuilds a database from a snapshot produced by
    /// [`snapshot`](Self::snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TsdbError::Parse`] for corrupted snapshots.
    pub fn restore(data: &[u8]) -> Result<Self, crate::TsdbError> {
        let mut db = Database::new();
        db.extend(crate::wire::decode(data)?);
        Ok(db)
    }
}

impl Extend<Point> for Database {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        for point in iter {
            self.insert(point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, Predicate, TimeBound};

    fn epc_point(t: u64, pod: &str, node: &str, v: f64) -> Point {
        Point::new("sgx/epc", SimTime::from_secs(t), v)
            .with_tag("pod_name", pod)
            .with_tag("nodename", node)
    }

    #[test]
    fn insert_and_count() {
        let mut db = Database::new();
        db.insert(epc_point(1, "a", "n1", 1.0));
        db.insert(epc_point(2, "a", "n1", 2.0));
        db.insert(epc_point(1, "b", "n1", 3.0));
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.point_count(), 3);
        assert_eq!(db.points_inserted(), 3);
        assert_eq!(db.measurement_names(), ["sgx/epc"]);
    }

    #[test]
    fn out_of_order_inserts_are_sorted() {
        let mut db = Database::new();
        db.insert(epc_point(10, "a", "n1", 10.0));
        db.insert(epc_point(5, "a", "n1", 5.0));
        let q = Select::from_measurement("sgx/epc").aggregate(Aggregate::Last);
        let rows = db.query(&q, SimTime::from_secs(20));
        assert_eq!(rows[0].value, 10.0);
    }

    #[test]
    fn sliding_window_query_listing1_semantics() {
        let mut db = Database::new();
        // Old samples outside the 25 s window must be ignored.
        db.insert(epc_point(1, "a", "n1", 9999.0));
        db.insert(epc_point(80, "a", "n1", 500.0));
        db.insert(epc_point(85, "a", "n1", 700.0));
        db.insert(epc_point(85, "b", "n1", 300.0));
        db.insert(epc_point(85, "c", "n2", 900.0));
        db.insert(epc_point(85, "idle", "n2", 0.0)); // filtered by value <> 0

        let per_pod = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Max)
            .filter(Predicate::ValueNe(0.0))
            .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
                SimDuration::from_secs(25),
            )))
            .group_by(["pod_name", "nodename"]);
        let per_node = Select::from_subquery(per_pod)
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"]);

        let rows = db.query(&per_node, SimTime::from_secs(100));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tag("nodename"), Some("n1"));
        assert_eq!(rows[0].value, 1000.0);
        assert_eq!(rows[1].tag("nodename"), Some("n2"));
        assert_eq!(rows[1].value, 900.0);
    }

    #[test]
    fn query_unknown_measurement_returns_no_rows() {
        let db = Database::new();
        let q = Select::from_measurement("nope").aggregate(Aggregate::Sum);
        assert!(db.query(&q, SimTime::ZERO).is_empty());
    }

    #[test]
    fn group_by_missing_tag_groups_together() {
        let mut db = Database::new();
        db.insert(Point::new("m", SimTime::from_secs(1), 1.0));
        db.insert(Point::new("m", SimTime::from_secs(2), 2.0));
        let q = Select::from_measurement("m")
            .aggregate(Aggregate::Sum)
            .group_by(["missing"]);
        let rows = db.query(&q, SimTime::from_secs(3));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, 3.0);
        assert!(rows[0].tags.is_empty());
    }

    #[test]
    fn retention_evicts_old_points() {
        let mut db = Database::new();
        for t in 0..100 {
            db.insert(epc_point(t, "a", "n1", t as f64));
        }
        let evicted = db.enforce_retention(SimTime::from_secs(100), SimDuration::from_secs(10));
        assert_eq!(evicted, 90);
        assert_eq!(db.point_count(), 10);
        assert_eq!(db.points_evicted(), 90);
        // Series that lose all samples disappear entirely.
        let evicted = db.enforce_retention(SimTime::from_secs(1000), SimDuration::from_secs(1));
        assert_eq!(evicted, 10);
        assert_eq!(db.series_count(), 0);
        assert!(db.measurement_names().is_empty());
    }

    #[test]
    fn extend_inserts_all() {
        let mut db = Database::new();
        db.extend((0..5).map(|t| epc_point(t, "a", "n1", 1.0)));
        assert_eq!(db.point_count(), 5);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut db = Database::new();
        for t in 0..20 {
            db.insert(epc_point(t, &format!("p{}", t % 3), "n1", t as f64));
        }
        let snapshot = db.snapshot();
        let restored = Database::restore(&snapshot).unwrap();
        assert_eq!(restored.point_count(), db.point_count());
        assert_eq!(restored.series_count(), db.series_count());
        // Queries over the restored database agree exactly.
        let q = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Sum)
            .group_by(["pod_name"]);
        let now = SimTime::from_secs(100);
        assert_eq!(db.query(&q, now), restored.query(&q, now));
        // Corruption is surfaced.
        assert!(Database::restore(&snapshot[..snapshot.len() - 2]).is_err());
    }

    #[test]
    fn tag_eq_predicate_restricts_rows() {
        let mut db = Database::new();
        db.insert(epc_point(1, "a", "n1", 1.0));
        db.insert(epc_point(1, "b", "n2", 2.0));
        let q = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Sum)
            .filter(Predicate::TagEq("nodename".into(), "n2".into()));
        let rows = db.query(&q, SimTime::from_secs(2));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, 2.0);
    }
}
