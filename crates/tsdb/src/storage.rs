//! Series storage and retention.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use des::{SimDuration, SimTime};

use crate::point::{Point, TagSet};
use crate::query::{Row, Select, WindowSource};

/// A borrowed view of one stored series, handed to [`SeriesStore`]
/// visitors. Exposes exactly the state the incremental
/// [`WindowedCache`](crate::WindowedCache) keys its ingestion cursors on,
/// without leaking the storage representation.
#[derive(Debug, Clone, Copy)]
pub struct SeriesRef<'a> {
    /// The series' full tag set.
    pub tags: &'a TagSet,
    /// Creation id (unique database-wide, including across shards).
    pub id: u64,
    /// Samples ever evicted from the front of the series.
    pub evicted: u64,
    /// The stored samples, in time order (stable for equal timestamps).
    pub samples: &'a [(SimTime, f64)],
}

impl SeriesRef<'_> {
    /// Absolute position one past the last stored sample:
    /// `evicted + samples.len()`.
    pub fn absolute_len(&self) -> u64 {
        self.evicted + self.samples.len() as u64
    }
}

/// The read surface shared by [`Database`] and
/// [`ShardedDatabase`](crate::ShardedDatabase): query execution plus the
/// ordered series iteration the [`WindowedCache`](crate::WindowedCache)
/// ingests from. Both implementations feed samples to the executors in
/// the same total order (series in tag-set order, samples in time order),
/// so query results are bit-for-bit identical between them.
pub trait SeriesStore {
    /// Executes `select` with `now` as the evaluation instant.
    fn query(&self, select: &Select, now: SimTime) -> Vec<Row>;

    /// Lifetime count of inserts that arrived out of time order. The
    /// windowed cache watches this stamp and rebuilds when it moves.
    fn out_of_order_inserts(&self) -> u64;

    /// Visits every series of `measurement` in tag-set order.
    fn for_each_series(&self, measurement: &str, visit: &mut dyn FnMut(SeriesRef<'_>));

    /// `true` while the store holds at least one sample for the series.
    fn contains_series(&self, measurement: &str, tags: &TagSet) -> bool;
}

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

/// The mutable interior of one series: its time-ordered samples plus the
/// front-eviction counter. Guarded by the per-series [`Mutex`] in
/// [`Series`] so appends and trims to *different* series never contend —
/// the per-series locking the concurrent ingestion hot path relies on.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeriesData {
    /// Samples sorted by time (stable for equal timestamps).
    pub(crate) samples: Vec<(SimTime, f64)>,
    /// Samples ever evicted from the front. `evicted + index` is a stable
    /// *absolute* position that front eviction cannot shift, which is what
    /// the windowed cache keys its ingestion cursors on.
    pub(crate) evicted: u64,
}

impl SeriesData {
    /// `true` when the insert appended in time order; `false` when it had
    /// to splice into the middle (out-of-order arrival).
    fn insert(&mut self, time: SimTime, value: f64) -> bool {
        // Probes push in time order, so the common case is an append.
        match self.samples.last() {
            Some(&(last, _)) if last > time => {
                let idx = self.samples.partition_point(|&(t, _)| t <= time);
                self.samples.insert(idx, (time, value));
                false
            }
            _ => {
                self.samples.push((time, value));
                true
            }
        }
    }

    fn evict_before(&mut self, cutoff: SimTime) -> usize {
        let keep_from = self.samples.partition_point(|&(t, _)| t < cutoff);
        let dropped = self.samples.drain(..keep_from).count();
        self.evicted += dropped as u64;
        dropped
    }

    /// The in-window slice `lo <= time < hi`, located with two binary
    /// searches instead of a scan.
    pub(crate) fn window(&self, lo: SimTime, hi: Option<SimTime>) -> &[(SimTime, f64)] {
        let start = self.samples.partition_point(|&(t, _)| t < lo);
        let end = match hi {
            Some(hi) => self.samples.partition_point(|&(t, _)| t < hi),
            None => self.samples.len(),
        };
        &self.samples[start..end.max(start)]
    }
}

/// One series: a measurement + tag-set pair with its time-ordered samples
/// behind a per-series lock.
///
/// The registry (`Database::measurements`) maps the series key to this
/// struct; the samples themselves live behind the `data` mutex so a
/// writer appending through a *shared* reference (the lock-striped
/// concurrent hot path) excludes only same-series writers and readers,
/// never the rest of the shard.
#[derive(Debug, Default)]
pub(crate) struct Series {
    /// The samples and eviction counter, per-series locked.
    data: Mutex<SeriesData>,
    /// Identity assigned at creation, from a database-wide counter. Lets
    /// the windowed cache tell a series apart from a later one with the
    /// same tags (created after retention dropped the original).
    /// Immutable after creation, so reads take no lock.
    id: u64,
}

impl Clone for Series {
    fn clone(&self) -> Self {
        Series {
            data: Mutex::new(self.data.lock().clone()),
            id: self.id,
        }
    }
}

impl Series {
    fn with_id(id: u64) -> Self {
        Series {
            id,
            ..Series::default()
        }
    }

    /// Appends through a shared reference — the concurrent hot path.
    /// Takes only this series' own lock. Returns `true` when the sample
    /// landed in time order.
    pub(crate) fn append(&self, time: SimTime, value: f64) -> bool {
        self.data.lock().insert(time, value)
    }

    /// Insert through an exclusive reference (single-writer paths): no
    /// lock is taken, `get_mut` proves uncontended access statically.
    fn insert(&mut self, time: SimTime, value: f64) -> bool {
        self.data.get_mut().insert(time, value)
    }

    fn evict_before(&mut self, cutoff: SimTime) -> usize {
        self.data.get_mut().evict_before(cutoff)
    }

    /// Trims through a shared reference under the per-series lock (the
    /// non-stalling retention path). Returns the evicted count and
    /// whether the series is now empty — empties are swept from the
    /// registry later, under a brief exclusive lock.
    pub(crate) fn evict_before_shared(&self, cutoff: SimTime) -> (usize, bool) {
        let mut data = self.data.lock();
        let dropped = data.evict_before(cutoff);
        (dropped, data.samples.is_empty())
    }

    /// Locks and exposes the samples — how every reader visits a series.
    pub(crate) fn read(&self) -> MutexGuard<'_, SeriesData> {
        self.data.lock()
    }

    fn is_empty_mut(&mut self) -> bool {
        self.data.get_mut().samples.is_empty()
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }
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
#[derive(Debug)]
pub struct Database {
    measurements: BTreeMap<String, BTreeMap<TagSet, Series>>,
    /// Lifetime counters are atomics so the shared-reference append and
    /// trim paths ([`try_append`](Self::try_append),
    /// [`trim_all_series`](Self::trim_all_series)) can maintain them
    /// without exclusive access. Relaxed ordering throughout: they are
    /// monotone counters, not synchronisation edges.
    points_inserted: AtomicU64,
    points_evicted: AtomicU64,
    /// Id handed to each newly created series, advanced by
    /// `series_seq_step` — 1 for a standalone database; the shard count
    /// for a shard of a [`ShardedDatabase`](crate::ShardedDatabase), so
    /// ids stay unique across shards without coordination. Series
    /// creation always holds exclusive access, so this stays a plain
    /// integer.
    series_seq: u64,
    series_seq_step: u64,
    /// Bumped whenever an insert lands out of time order; the windowed
    /// cache watches this stamp and rebuilds when it moves.
    out_of_order_inserts: AtomicU64,
    /// Highest retention cutoff ever enforced (µs): no stored sample is
    /// older than this, and cached window state must discard anything
    /// older too. Max-merged atomically by the shared-reference trim.
    eviction_cutoff_us: AtomicU64,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            measurements: BTreeMap::new(),
            points_inserted: AtomicU64::new(0),
            points_evicted: AtomicU64::new(0),
            series_seq: 0,
            series_seq_step: 1,
            out_of_order_inserts: AtomicU64::new(0),
            eviction_cutoff_us: AtomicU64::new(0),
        }
    }
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            measurements: self.measurements.clone(),
            points_inserted: AtomicU64::new(self.points_inserted.load(Ordering::Relaxed)),
            points_evicted: AtomicU64::new(self.points_evicted.load(Ordering::Relaxed)),
            series_seq: self.series_seq,
            series_seq_step: self.series_seq_step,
            out_of_order_inserts: AtomicU64::new(self.out_of_order_inserts.load(Ordering::Relaxed)),
            eviction_cutoff_us: AtomicU64::new(self.eviction_cutoff_us.load(Ordering::Relaxed)),
        }
    }
}

/// The retention cutoff `now - keep` (saturating at zero) — shared by
/// every retention entry point so the single-store and sharded paths
/// trim at the exact same instant.
pub(crate) fn retention_cutoff(now: SimTime, keep: SimDuration) -> SimTime {
    SimTime::from_micros(now.as_micros().saturating_sub(keep.as_micros()))
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// A database whose series ids start at `start` and advance by `step`
    /// — how shards of a [`ShardedDatabase`](crate::ShardedDatabase) keep
    /// ids disjoint (shard `i` of `n` uses `start = i`, `step = n`).
    pub(crate) fn with_id_stride(start: u64, step: u64) -> Self {
        Database {
            series_seq: start,
            series_seq_step: step.max(1),
            ..Database::default()
        }
    }

    /// Inserts a point.
    pub fn insert(&mut self, point: Point) {
        let (measurement, tags, time, value) = point.into_parts();
        self.insert_owned(measurement, tags, time, value);
    }

    /// Insertion taking ownership of pre-split parts; returns `true` when
    /// the sample appended in time order.
    pub(crate) fn insert_owned(
        &mut self,
        measurement: String,
        tags: TagSet,
        time: SimTime,
        value: f64,
    ) -> bool {
        let series_seq = &mut self.series_seq;
        let step = self.series_seq_step;
        let in_order = self
            .measurements
            .entry(measurement)
            .or_default()
            .entry(tags)
            .or_insert_with(|| {
                *series_seq += step;
                Series::with_id(*series_seq)
            })
            .insert(time, value);
        if !in_order {
            self.out_of_order_inserts.fetch_add(1, Ordering::Relaxed);
        }
        self.points_inserted.fetch_add(1, Ordering::Relaxed);
        in_order
    }

    /// Appends a sample to an **existing** series through a shared
    /// reference — the lock-free-registry hot path of concurrent
    /// ingestion. Only the series' own per-series lock is taken; the
    /// registry is read untouched, so appends to different series (same
    /// shard or not) proceed in parallel.
    ///
    /// Returns `None` when the measurement or series does not exist yet —
    /// the caller must fall back to an exclusive-access insert
    /// ([`insert_at`](Self::insert_at)) to grow the registry. Returns
    /// `Some(in_order)` on success, exactly as `insert_at` reports it.
    ///
    /// # Panics
    ///
    /// Panics if `measurement` is empty or `value` is not finite (the
    /// same contract [`Point::new`] enforces).
    pub fn try_append(
        &self,
        measurement: &str,
        tags: &TagSet,
        time: SimTime,
        value: f64,
    ) -> Option<bool> {
        assert!(
            !measurement.is_empty(),
            "measurement name must not be empty"
        );
        assert!(value.is_finite(), "point value must be finite, got {value}");
        let series = self.measurements.get(measurement)?.get(tags)?;
        let in_order = series.append(time, value);
        if !in_order {
            self.out_of_order_inserts.fetch_add(1, Ordering::Relaxed);
        }
        self.points_inserted.fetch_add(1, Ordering::Relaxed);
        Some(in_order)
    }

    /// Inserts a sample by borrowed identity, allocating nothing when the
    /// series already exists — the batched-ingestion hot path. Only a
    /// *new* series clones `measurement` and `tags` into owned keys.
    /// Returns `true` when the sample appended in time order.
    ///
    /// # Panics
    ///
    /// Panics if `measurement` is empty or `value` is not finite (the
    /// same contract [`Point::new`] enforces).
    pub fn insert_at(
        &mut self,
        measurement: &str,
        tags: &TagSet,
        time: SimTime,
        value: f64,
    ) -> bool {
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
        let in_order = if let Some(series) = series_map.get_mut(tags) {
            series.insert(time, value)
        } else {
            self.series_seq += self.series_seq_step;
            series_map
                .entry(tags.clone())
                .or_insert(Series::with_id(self.series_seq))
                .insert(time, value)
        };
        if !in_order {
            self.out_of_order_inserts.fetch_add(1, Ordering::Relaxed);
        }
        self.points_inserted.fetch_add(1, Ordering::Relaxed);
        in_order
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
    /// the oracle for property tests and as the benchmark baseline; the
    /// result is bit-for-bit identical to [`query`](Self::query).
    pub fn query_full_scan(&self, select: &Select, now: SimTime) -> Vec<Row> {
        let fetch = |measurement: &str| -> Vec<(SimTime, f64, &TagSet)> {
            let mut samples = Vec::new();
            if let Some(series_map) = self.measurements.get(measurement) {
                for (tags, series) in series_map {
                    let data = series.read();
                    samples.extend(data.samples.iter().map(|&(t, v)| (t, v, tags)));
                }
            }
            samples
        };
        select.execute_full_scan(&fetch, now)
    }

    /// Drops every sample older than `keep` relative to `now`, across all
    /// series, and removes series that become empty. Returns the number of
    /// samples evicted. This is the retention-policy enforcement a real
    /// InfluxDB runs continuously.
    pub fn enforce_retention(&mut self, now: SimTime, keep: SimDuration) -> usize {
        let cutoff = retention_cutoff(now, keep);
        self.eviction_cutoff_us
            .fetch_max(cutoff.as_micros(), Ordering::Relaxed);
        let mut evicted = 0;
        for series_map in self.measurements.values_mut() {
            for series in series_map.values_mut() {
                evicted += series.evict_before(cutoff);
            }
        }
        self.sweep_empty_series();
        self.points_evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Trims every series in place through a **shared** reference — the
    /// non-stalling retention pass. Each series is locked individually
    /// for exactly the duration of its own binary-search-and-drain, so
    /// concurrent appends to other series never stall behind retention.
    /// Emptied series stay registered (with their eviction counters) and
    /// are swept later by [`sweep_empty_series`](Self::sweep_empty_series)
    /// under a brief exclusive lock.
    ///
    /// Returns the number of samples evicted and whether any series is
    /// now empty (i.e. a sweep is needed at all).
    pub(crate) fn trim_all_series(&self, cutoff: SimTime) -> (usize, bool) {
        self.eviction_cutoff_us
            .fetch_max(cutoff.as_micros(), Ordering::Relaxed);
        let mut evicted = 0;
        let mut any_empty = false;
        for series_map in self.measurements.values() {
            for series in series_map.values() {
                let (dropped, empty) = series.evict_before_shared(cutoff);
                evicted += dropped;
                any_empty |= empty;
            }
        }
        self.points_evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        (evicted, any_empty)
    }

    /// Removes series (and measurements) that hold no samples — the
    /// registry-shrinking tail of retention, the only part that needs
    /// exclusive access. Emptiness is re-checked here under that
    /// exclusive access, so a series that received an append between the
    /// shared trim and this sweep survives.
    pub(crate) fn sweep_empty_series(&mut self) {
        for series_map in self.measurements.values_mut() {
            series_map.retain(|_, series| !series.is_empty_mut());
        }
        self.measurements.retain(|_, m| !m.is_empty());
    }

    /// Removes every series — across all measurements — whose
    /// lexicographically *first* tag pair is exactly `(key, value)`, and
    /// returns the number of samples dropped (counted as evictions).
    ///
    /// This is node deregistration's storage teardown: probe series are
    /// tagged `{nodename, pod_name}` and `"nodename"` sorts first, so one
    /// call with `("nodename", node)` unregisters exactly that node's
    /// series. A later node reusing the name starts from empty series
    /// with fresh ids, so windowed-cache cursors keyed on the old ids
    /// reset rather than resume.
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
                    dropped += series.read().samples.len();
                }
            }
        }
        self.measurements.retain(|_, m| !m.is_empty());
        self.points_evicted
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Lifetime count of inserts that arrived out of time order.
    pub fn out_of_order_inserts(&self) -> u64 {
        self.out_of_order_inserts.load(Ordering::Relaxed)
    }

    /// The highest retention cutoff enforced so far ([`SimTime::ZERO`]
    /// before the first eviction).
    pub fn eviction_cutoff(&self) -> SimTime {
        SimTime::from_micros(self.eviction_cutoff_us.load(Ordering::Relaxed))
    }

    /// The series of one measurement, in tag-set order.
    pub(crate) fn series_of(&self, measurement: &str) -> Option<&BTreeMap<TagSet, Series>> {
        self.measurements.get(measurement)
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
            .map(|s| s.read().samples.len())
            .sum()
    }

    /// Lifetime insert counter.
    pub fn points_inserted(&self) -> u64 {
        self.points_inserted.load(Ordering::Relaxed)
    }

    /// Lifetime eviction counter.
    pub fn points_evicted(&self) -> u64 {
        self.points_evicted.load(Ordering::Relaxed)
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
                for &(time, value) in &series.read().samples {
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

impl SeriesStore for Database {
    fn query(&self, select: &Select, now: SimTime) -> Vec<Row> {
        Database::query(self, select, now)
    }

    fn out_of_order_inserts(&self) -> u64 {
        Database::out_of_order_inserts(self)
    }

    fn for_each_series(&self, measurement: &str, visit: &mut dyn FnMut(SeriesRef<'_>)) {
        if let Some(series_map) = self.measurements.get(measurement) {
            for (tags, series) in series_map {
                let data = series.read();
                visit(SeriesRef {
                    tags,
                    id: series.id(),
                    evicted: data.evicted,
                    samples: &data.samples,
                });
            }
        }
    }

    fn contains_series(&self, measurement: &str, tags: &TagSet) -> bool {
        self.measurements
            .get(measurement)
            .is_some_and(|series_map| series_map.contains_key(tags))
    }
}

impl WindowSource for Database {
    fn stream_window(
        &self,
        measurement: &str,
        lo: SimTime,
        hi: Option<SimTime>,
        emit: &mut dyn FnMut(SimTime, f64, &TagSet),
    ) {
        if let Some(series_map) = self.measurements.get(measurement) {
            for (tags, series) in series_map {
                let data = series.read();
                for &(time, value) in data.window(lo, hi) {
                    emit(time, value, tags);
                }
            }
        }
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
