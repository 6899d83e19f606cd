//! Sharded concurrent series storage with a per-series append hot path.
//!
//! At production scale the single-`&mut` [`Database`] serialises every
//! probe pass through one `BTreeMap`. A [`ShardedDatabase`] splits the
//! series space into `N` shards keyed by the hash of
//! `(measurement, tag set)` — the same routing a distributed InfluxDB
//! applies per series key — and pushes concurrency one level further
//! down: within a shard, every series keeps its samples behind its own
//! per-series lock, so the shard's `RwLock` protects only the series
//! *registry* (the `BTreeMap`s), not the samples.
//!
//! # Lock hierarchy (registry → series)
//!
//! 1. **Shard registry lock** (`RwLock<Database>`): held **shared** by
//!    appends to existing series, by retention trims, and by readers;
//!    held **exclusive** only to grow the registry (first contact with a
//!    series or measurement), to sweep emptied series out after a trim,
//!    and by [`Extend`]/restore conveniences.
//! 2. **Per-series lock** (`Mutex<SeriesData>` inside
//!    [`Series`](crate::storage)): serialises same-series appends, trims
//!    and sample reads. Never held while acquiring any other lock.
//!
//! Locks are always acquired registry-then-series and whole-store read
//! paths take shard guards through one canonical-order helper
//! ([`read_all`](ShardedDatabase::read_all) — shard 0, 1, …), so no lock
//! cycle exists. The steady-state append path
//! ([`insert_at`-equivalent][`Database::try_append`] on an existing
//! series) takes **zero** whole-shard exclusive locks — instrumented by
//! [`append_write_lock_acquisitions`](ShardedDatabase::append_write_lock_acquisitions)
//! and property-tested in `tests/sharded_props.rs`.
//!
//! # Determinism
//!
//! Results are **bit-for-bit identical** to a single [`Database`] fed
//! the same samples in the same per-series order:
//!
//! * A series lives on exactly one shard (its key hash is a pure
//!   function of measurement + tags), so per-series sample order is
//!   whatever the writers produce — identical to the sequential path
//!   when each series has one writer.
//! * Within one [`insert_batches`](ShardedDatabase::insert_batches)
//!   call, rows that miss the registry are deferred to one exclusive
//!   creation pass per shard run. Same-series rows always miss (or hit)
//!   together while the shared run guard is held, and the deferred pass
//!   preserves row order, so per-series order survives the split.
//! * Read paths ([`query`](ShardedDatabase::query), the
//!   [`SeriesStore`] visitor, snapshots) merge the per-shard
//!   `BTreeMap`s back into global tag-set order before folding, so the
//!   executors see the exact sample stream the unsharded store feeds
//!   them and every floating-point operation happens in the same
//!   sequence.
//! * Series ids stay unique across shards without coordination: shard
//!   `i` of `n` draws ids from the arithmetic progression
//!   `{i + n, i + 2n, ...}` (see [`Database::with_id_stride`]).
//!
//! # Non-stalling retention
//!
//! [`enforce_retention`](ShardedDatabase::enforce_retention) no longer
//! takes a whole-shard write lock for the trim: it walks each shard
//! under the **shared** registry guard, locking one series at a time for
//! exactly its own binary-search-and-drain, so concurrent appends to
//! other series never stall behind retention. Only when a series ran
//! empty does a brief exclusive sweep remove it from the registry —
//! re-checking emptiness under the exclusive lock, so a racing append
//! that revived the series wins.
//!
//! # Examples
//!
//! ```
//! use des::SimTime;
//! use tsdb::{Aggregate, Point, Select, ShardedDatabase};
//!
//! let db = ShardedDatabase::new(4);
//! db.insert(Point::new("sgx/epc", SimTime::from_secs(1), 42.0).with_tag("nodename", "n1"));
//!
//! let q = Select::from_measurement("sgx/epc")
//!     .aggregate(Aggregate::Sum)
//!     .group_by(["nodename"]);
//! let rows = db.query(&q, SimTime::from_secs(2));
//! assert_eq!(rows[0].value, 42.0);
//! assert_eq!(db.points_inserted(), 1);
//! ```

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{MutexGuard, RwLock};

use des::{SimDuration, SimTime};

use crate::batch::PointBatch;
use crate::point::{Point, TagSet};
use crate::query::{Row, Select, WindowSource};
use crate::storage::{retention_cutoff, Database, Series, SeriesData, SeriesRef, SeriesStore};

/// A [`Database`] split into hash-routed shards whose registry locks are
/// only taken exclusively to create series, with per-series locks on the
/// append/trim/read hot paths and lock-free lifetime counters. See the
/// module docs for the lock hierarchy and determinism contract.
#[derive(Debug)]
pub struct ShardedDatabase {
    shards: Box<[RwLock<Database>]>,
    /// Lifetime counters mirrored out of the shards on every mutation so
    /// stats readers never take a lock. Updated with relaxed ordering:
    /// they are monotone counters, not synchronisation edges.
    points_inserted: AtomicU64,
    points_evicted: AtomicU64,
    out_of_order_inserts: AtomicU64,
    /// Whole-shard **exclusive** lock acquisitions taken by the append
    /// paths — one per registry-growth fallback (first contact with a
    /// series or measurement). The existing-series hot path never bumps
    /// this; the `sharded_props` suite asserts it stays flat.
    append_write_locks: AtomicU64,
    /// Whole-shard exclusive sweeps taken by retention to unregister
    /// series that ran empty.
    retention_sweep_locks: AtomicU64,
}

impl ShardedDatabase {
    /// Creates an empty database with `shards` shards (clamped to at
    /// least 1). With one shard the layout — ids included — is exactly a
    /// single [`Database`].
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedDatabase {
            shards: (0..n)
                .map(|i| RwLock::new(Database::with_id_stride(i as u64, n as u64)))
                .collect(),
            points_inserted: AtomicU64::new(0),
            points_evicted: AtomicU64::new(0),
            out_of_order_inserts: AtomicU64::new(0),
            append_write_locks: AtomicU64::new(0),
            retention_sweep_locks: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a series key routes to: a deterministic (fixed-key
    /// SipHash) hash of the measurement and full tag set.
    pub fn shard_of(&self, measurement: &str, tags: &TagSet) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        measurement.hash(&mut hasher);
        for (k, v) in tags {
            k.hash(&mut hasher);
            v.hash(&mut hasher);
        }
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// The set of shards the rows of `batch` route to, sorted and
    /// deduplicated — per-row routing identical to
    /// [`insert_batch`](Self::insert_batch). Lets fault-injection layers
    /// attribute a failed frame write to the shards it would have hit.
    pub fn shards_of_batch(&self, batch: &PointBatch) -> Vec<usize> {
        if batch.is_empty() {
            return Vec::new();
        }
        if self.shards.len() == 1 {
            return vec![0];
        }
        let mut tags = batch.shared_tags().clone();
        let mut shards: Vec<usize> = batch
            .rows()
            .iter()
            .map(|row| {
                set_tag(&mut tags, batch.row_tag_key(), &row.tag_value);
                self.shard_of(batch.measurement(), &tags)
            })
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Shared guards for every shard, acquired in canonical shard order
    /// (0, 1, …). Every whole-store read path collects its guards
    /// through this one helper, so no two code paths can interleave
    /// shard-lock acquisition in conflicting orders.
    fn read_all(&self) -> Vec<parking_lot::RwLockReadGuard<'_, Database>> {
        self.shards.iter().map(RwLock::read).collect()
    }

    /// Inserts a point through its series' shard. Takes `&self`: writers
    /// for different series run concurrently — an existing series costs
    /// one shared registry guard plus the series' own lock; only first
    /// contact takes the shard's exclusive lock.
    pub fn insert(&self, point: Point) {
        let shard = self.shard_of(point.measurement(), point.tags());
        // Hot path: existing series, shared registry guard only. The
        // guard must drop before the creation fallback takes the
        // exclusive lock on the same shard.
        let appended = {
            let guard = self.shards[shard].read();
            guard.try_append(
                point.measurement(),
                point.tags(),
                point.time(),
                point.value(),
            )
        };
        let in_order = match appended {
            Some(in_order) => in_order,
            None => {
                // First contact: grow the registry under the whole-shard
                // exclusive lock (`insert_owned` re-checks existence, so
                // losing a creation race to another writer is benign).
                self.append_write_locks.fetch_add(1, Ordering::Relaxed);
                let (measurement, tags, time, value) = point.into_parts();
                self.shards[shard]
                    .write()
                    .insert_owned(measurement, tags, time, value)
            }
        };
        self.points_inserted.fetch_add(1, Ordering::Relaxed);
        if !in_order {
            self.out_of_order_inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts every row of `batch`. Equivalent to
    /// [`insert_batches`](Self::insert_batches) over a one-frame slice.
    pub fn insert_batch(&self, batch: &PointBatch) {
        self.insert_batches(std::slice::from_ref(batch));
    }

    /// Inserts every row of every frame, grouping rows by destination
    /// shard **across frames** so each shard's shared registry guard is
    /// taken once per run of rows rather than once per frame — the flush
    /// path of the writer-local frame buffers. Rows of one series keep
    /// their frame-major order.
    ///
    /// Appends to existing series happen under the shared guard (plus
    /// the per-series lock); rows that miss the registry are deferred,
    /// in order, to a single exclusive creation pass per shard run.
    /// Same-series rows always hit or miss together (the registry cannot
    /// change while the run's shared guard is held), so per-series
    /// sample order is preserved exactly.
    pub fn insert_batches(&self, batches: &[PointBatch]) {
        let total: usize = batches.iter().map(PointBatch::len).sum();
        if total == 0 {
            return;
        }
        // Route each row: the row tag value completes the series key.
        // Frame-major construction + stable sort by shard keeps
        // same-shard rows (and hence same-series rows) in arrival order.
        let mut routed: Vec<(u32, u32, u32)> = Vec::with_capacity(total);
        for (frame, batch) in batches.iter().enumerate() {
            if self.shards.len() == 1 {
                routed.extend((0..batch.len()).map(|row| (0, frame as u32, row as u32)));
            } else {
                let mut tags = batch.shared_tags().clone();
                for (row, batch_row) in batch.rows().iter().enumerate() {
                    set_tag(&mut tags, batch.row_tag_key(), &batch_row.tag_value);
                    let shard = self.shard_of(batch.measurement(), &tags) as u32;
                    routed.push((shard, frame as u32, row as u32));
                }
            }
        }
        routed.sort_by_key(|&(shard, _, _)| shard);

        let mut inserted = 0u64;
        let mut out_of_order = 0u64;
        let mut scratch = TagSet::new();
        let mut deferred: Vec<(u32, u32)> = Vec::new();
        let mut cursor = 0;
        while cursor < routed.len() {
            let shard = routed[cursor].0 as usize;
            let mut end = cursor;
            while end < routed.len() && routed[end].0 as usize == shard {
                end += 1;
            }
            deferred.clear();
            {
                // Hot path: one shared registry guard for the whole run.
                let guard = self.shards[shard].read();
                let mut current_frame = u32::MAX;
                for &(_, frame, row) in &routed[cursor..end] {
                    let batch = &batches[frame as usize];
                    if frame != current_frame {
                        current_frame = frame;
                        scratch.clone_from(batch.shared_tags());
                    }
                    let batch_row = &batch.rows()[row as usize];
                    set_tag(&mut scratch, batch.row_tag_key(), &batch_row.tag_value);
                    match guard.try_append(
                        batch.measurement(),
                        &scratch,
                        batch.time(),
                        batch_row.value,
                    ) {
                        Some(in_order) => {
                            inserted += 1;
                            if !in_order {
                                out_of_order += 1;
                            }
                        }
                        None => deferred.push((frame, row)),
                    }
                }
            }
            if !deferred.is_empty() {
                // Cold path: first contact with these series — grow the
                // registry once, under the whole-shard exclusive lock.
                self.append_write_locks.fetch_add(1, Ordering::Relaxed);
                let mut guard = self.shards[shard].write();
                let mut current_frame = u32::MAX;
                for &(frame, row) in &deferred {
                    let batch = &batches[frame as usize];
                    if frame != current_frame {
                        current_frame = frame;
                        scratch.clone_from(batch.shared_tags());
                    }
                    let batch_row = &batch.rows()[row as usize];
                    set_tag(&mut scratch, batch.row_tag_key(), &batch_row.tag_value);
                    if !guard.insert_at(
                        batch.measurement(),
                        &scratch,
                        batch.time(),
                        batch_row.value,
                    ) {
                        out_of_order += 1;
                    }
                    inserted += 1;
                }
            }
            cursor = end;
        }
        self.points_inserted.fetch_add(inserted, Ordering::Relaxed);
        if out_of_order > 0 {
            self.out_of_order_inserts
                .fetch_add(out_of_order, Ordering::Relaxed);
        }
    }

    /// Executes a select with `now` as the evaluation instant — same
    /// engine and result order as [`Database::query`].
    pub fn query(&self, select: &Select, now: SimTime) -> Vec<Row> {
        select.execute_streaming(self, now)
    }

    /// Full-materialisation reference executor, merged across shards —
    /// bit-for-bit identical to [`Database::query_full_scan`].
    pub fn query_full_scan(&self, select: &Select, now: SimTime) -> Vec<Row> {
        let guards = self.read_all();
        let fetch = |measurement: &str| {
            // Tag sets are disjoint across shards, so sorting recovers
            // the exact series order of the unsharded store.
            let mut samples = Vec::new();
            for (tags, series) in sorted_series(&guards, measurement) {
                let data = series.read();
                samples.extend(data.samples.iter().map(|&(t, v)| (t, v, tags)));
            }
            samples
        };
        select.execute_full_scan(&fetch, now)
    }

    /// Drops samples older than `keep` relative to `now` on every shard;
    /// returns the number of samples evicted.
    ///
    /// Non-stalling: the trim itself runs under each shard's **shared**
    /// registry guard, locking one series at a time, so concurrent
    /// appends to other series proceed throughout. Only shards where a
    /// series ran empty take a brief exclusive sweep to unregister it.
    pub fn enforce_retention(&self, now: SimTime, keep: SimDuration) -> usize {
        let cutoff = retention_cutoff(now, keep);
        let mut evicted = 0;
        for shard in self.shards.iter() {
            let (dropped, any_empty) = shard.read().trim_all_series(cutoff);
            evicted += dropped;
            if any_empty {
                self.retention_sweep_locks.fetch_add(1, Ordering::Relaxed);
                shard.write().sweep_empty_series();
            }
        }
        self.points_evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Removes every series whose first tag pair is `(key, value)` on
    /// every shard; returns the number of samples dropped. See
    /// [`Database::drop_series_with_first_tag`]. Takes each shard's
    /// exclusive lock briefly — deregistration is rare, so this path is
    /// not optimised for concurrency.
    pub fn drop_series_with_first_tag(&self, key: &str, value: &str) -> usize {
        let mut dropped = 0;
        for shard in self.shards.iter() {
            dropped += shard.write().drop_series_with_first_tag(key, value);
        }
        self.points_evicted
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Lifetime insert counter (lock-free read).
    pub fn points_inserted(&self) -> u64 {
        self.points_inserted.load(Ordering::Relaxed)
    }

    /// Lifetime eviction counter (lock-free read).
    pub fn points_evicted(&self) -> u64 {
        self.points_evicted.load(Ordering::Relaxed)
    }

    /// Lifetime count of inserts that arrived out of time order
    /// (lock-free read).
    pub fn out_of_order_inserts(&self) -> u64 {
        self.out_of_order_inserts.load(Ordering::Relaxed)
    }

    /// Lifetime count of whole-shard **exclusive** lock acquisitions
    /// taken by the append paths. Only registry growth (first contact
    /// with a series or measurement) bumps this; steady-state appends to
    /// existing series take none — the instrumented guarantee the
    /// `sharded_props` suite pins down.
    pub fn append_write_lock_acquisitions(&self) -> u64 {
        self.append_write_locks.load(Ordering::Relaxed)
    }

    /// Lifetime count of exclusive sweeps retention took to unregister
    /// series that ran empty.
    pub fn retention_sweep_lock_acquisitions(&self) -> u64 {
        self.retention_sweep_locks.load(Ordering::Relaxed)
    }

    /// Number of distinct series currently stored, across all shards.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().series_count()).sum()
    }

    /// Number of samples currently stored, across all shards.
    pub fn point_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().point_count()).sum()
    }

    /// The measurement names currently stored, in sorted order.
    pub fn measurement_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .measurement_names()
                    .into_iter()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Serialises every stored sample into the [`crate::wire`] snapshot
    /// format. Points come out in global `(measurement, tag set)` order —
    /// byte-identical to [`Database::snapshot`] over the same contents.
    pub fn snapshot(&self) -> bytes::Bytes {
        let guards = self.read_all();
        let mut points = Vec::new();
        for measurement in sorted_measurements(&guards) {
            for (tags, series) in sorted_series(&guards, &measurement) {
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

    /// Rebuilds a sharded database (with `shards` shards) from a snapshot
    /// produced by [`snapshot`](Self::snapshot) or
    /// [`Database::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::TsdbError::Parse`] for corrupted snapshots.
    pub fn restore(data: &[u8], shards: usize) -> Result<Self, crate::TsdbError> {
        let db = ShardedDatabase::new(shards);
        for point in crate::wire::decode(data)? {
            db.insert(point);
        }
        Ok(db)
    }
}

/// One measurement's series merged across the held shard guards, sorted
/// into the unsharded store's tag-set order — the single merge helper
/// behind every whole-store read path.
fn sorted_series<'g>(
    guards: &'g [parking_lot::RwLockReadGuard<'_, Database>],
    measurement: &str,
) -> Vec<(&'g TagSet, &'g Series)> {
    let mut series: Vec<(&TagSet, &Series)> = Vec::new();
    for guard in guards {
        if let Some(series_map) = guard.series_of(measurement) {
            series.extend(series_map.iter());
        }
    }
    series.sort_unstable_by(|a, b| a.0.cmp(b.0));
    series
}

/// All measurement names across the held shard guards, sorted + deduped.
fn sorted_measurements(guards: &[parking_lot::RwLockReadGuard<'_, Database>]) -> Vec<String> {
    let mut names: Vec<String> = guards
        .iter()
        .flat_map(|g| g.measurement_names().into_iter().map(str::to_string))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Overwrites `tags[key]` in place, reusing the existing `String`
/// allocation when the key is already present — the per-row step of the
/// batched hot path.
fn set_tag(tags: &mut TagSet, key: &str, value: &str) {
    if let Some(slot) = tags.get_mut(key) {
        slot.clear();
        slot.push_str(value);
    } else {
        tags.insert(key.to_string(), value.to_string());
    }
}

impl WindowSource for ShardedDatabase {
    fn stream_window(
        &self,
        measurement: &str,
        lo: SimTime,
        hi: Option<SimTime>,
        emit: &mut dyn FnMut(SimTime, f64, &TagSet),
    ) {
        let guards = self.read_all();
        for (tags, series) in sorted_series(&guards, measurement) {
            let data = series.read();
            for &(time, value) in data.window(lo, hi) {
                emit(time, value, tags);
            }
        }
    }
}

impl SeriesStore for ShardedDatabase {
    fn query(&self, select: &Select, now: SimTime) -> Vec<Row> {
        ShardedDatabase::query(self, select, now)
    }

    fn out_of_order_inserts(&self) -> u64 {
        ShardedDatabase::out_of_order_inserts(self)
    }

    fn for_each_series(&self, measurement: &str, visit: &mut dyn FnMut(SeriesRef<'_>)) {
        let guards = self.read_all();
        for (tags, series) in sorted_series(&guards, measurement) {
            let data: MutexGuard<'_, SeriesData> = series.read();
            visit(SeriesRef {
                tags,
                id: series.id(),
                evicted: data.evicted,
                samples: &data.samples,
            });
        }
    }

    fn contains_series(&self, measurement: &str, tags: &TagSet) -> bool {
        self.shards[self.shard_of(measurement, tags)]
            .read()
            .contains_series(measurement, tags)
    }
}

impl Extend<Point> for ShardedDatabase {
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

    fn listing1() -> Select {
        let per_pod = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Max)
            .filter(Predicate::ValueNe(0.0))
            .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
                SimDuration::from_secs(25),
            )))
            .group_by(["pod_name", "nodename"]);
        Select::from_subquery(per_pod)
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"])
    }

    fn paired(shards: usize, points: &[Point]) -> (Database, ShardedDatabase) {
        let mut single = Database::new();
        let sharded = ShardedDatabase::new(shards);
        for point in points {
            single.insert(point.clone());
            sharded.insert(point.clone());
        }
        (single, sharded)
    }

    fn workload() -> Vec<Point> {
        let mut points = Vec::new();
        for t in 0..60 {
            for pod in 0..7u64 {
                points.push(epc_point(
                    t,
                    &format!("p{pod}"),
                    &format!("n{}", pod % 3),
                    ((t * 31 + pod * 17) % 13) as f64,
                ));
            }
        }
        points
    }

    #[test]
    fn routing_is_total_and_deterministic() {
        let db = ShardedDatabase::new(4);
        let tags: TagSet = [("pod_name".to_string(), "p1".to_string())].into();
        let shard = db.shard_of("sgx/epc", &tags);
        assert!(shard < 4);
        assert_eq!(shard, db.shard_of("sgx/epc", &tags));
        assert_eq!(ShardedDatabase::new(1).shard_of("sgx/epc", &tags), 0);
    }

    #[test]
    fn counters_match_single_database() {
        for shards in [1, 3, 8] {
            let (single, sharded) = paired(shards, &workload());
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.point_count(), single.point_count());
            assert_eq!(sharded.series_count(), single.series_count());
            assert_eq!(sharded.points_inserted(), single.points_inserted());
            assert_eq!(sharded.measurement_names(), ["sgx/epc"]);
        }
    }

    #[test]
    fn queries_are_bit_identical_across_shard_counts() {
        let query = listing1();
        for shards in [1, 2, 4, 8] {
            let (single, sharded) = paired(shards, &workload());
            for t in [10u64, 30, 59, 80] {
                let now = SimTime::from_secs(t);
                assert_eq!(sharded.query(&query, now), single.query(&query, now));
                assert_eq!(
                    sharded.query_full_scan(&query, now),
                    single.query_full_scan(&query, now)
                );
            }
        }
    }

    #[test]
    fn snapshot_is_byte_identical_to_single_database() {
        let (single, sharded) = paired(5, &workload());
        assert_eq!(sharded.snapshot(), single.snapshot());
        let restored = ShardedDatabase::restore(&sharded.snapshot(), 3).unwrap();
        assert_eq!(restored.point_count(), single.point_count());
        assert_eq!(restored.snapshot(), single.snapshot());
    }

    #[test]
    fn retention_matches_single_database() {
        let (mut single, sharded) = paired(4, &workload());
        let now = SimTime::from_secs(60);
        let keep = SimDuration::from_secs(20);
        assert_eq!(
            sharded.enforce_retention(now, keep),
            single.enforce_retention(now, keep)
        );
        assert_eq!(sharded.points_evicted(), single.points_evicted());
        assert_eq!(sharded.point_count(), single.point_count());
        assert_eq!(sharded.snapshot(), single.snapshot());
    }

    #[test]
    fn out_of_order_inserts_are_counted() {
        let db = ShardedDatabase::new(4);
        db.insert(epc_point(10, "a", "n1", 1.0));
        db.insert(epc_point(5, "a", "n1", 2.0));
        assert_eq!(db.out_of_order_inserts(), 1);
    }

    #[test]
    fn insert_batch_routes_rows_to_their_series_shards() {
        let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(3))
            .with_shared_tag("nodename", "n1");
        for pod in 0..20 {
            batch.push(format!("p{pod}"), pod as f64);
        }
        let sharded = ShardedDatabase::new(4);
        sharded.insert_batch(&batch);
        let mut single = Database::new();
        single.insert_batch(&batch);
        assert_eq!(sharded.snapshot(), single.snapshot());
        assert_eq!(sharded.points_inserted(), 20);
    }

    #[test]
    fn insert_batches_equals_frame_by_frame_insertion() {
        let frames: Vec<PointBatch> = (0..6)
            .map(|pass| {
                let node = pass % 2;
                let mut batch =
                    PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(10 * pass as u64))
                        .with_shared_tag("nodename", format!("n{node}"));
                for pod in 0..5 {
                    batch.push(format!("p{pod}"), (pass * 10 + pod) as f64);
                }
                batch
            })
            .collect();
        for shards in [1, 3, 8] {
            let coalesced = ShardedDatabase::new(shards);
            coalesced.insert_batches(&frames);
            let framed = ShardedDatabase::new(shards);
            for frame in &frames {
                framed.insert_batch(frame);
            }
            assert_eq!(coalesced.snapshot(), framed.snapshot(), "{shards} shards");
            assert_eq!(coalesced.points_inserted(), framed.points_inserted());
            assert_eq!(
                coalesced.out_of_order_inserts(),
                framed.out_of_order_inserts()
            );
        }
    }

    #[test]
    fn existing_series_appends_take_no_exclusive_shard_lock() {
        let db = ShardedDatabase::new(4);
        let points = workload();
        for point in &points {
            db.insert(point.clone());
        }
        let creations = db.append_write_lock_acquisitions();
        assert!(creations > 0, "first contacts must grow the registry");
        // Steady state: every series exists, so appends — single-point
        // and batched — must not take a single exclusive shard lock.
        for point in &points {
            db.insert(point.clone());
        }
        let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(99))
            .with_shared_tag("nodename", "n0");
        batch.push("p0", 1.0);
        batch.push("p3", 2.0);
        db.insert_batch(&batch);
        assert_eq!(db.append_write_lock_acquisitions(), creations);
    }

    #[test]
    fn retention_sweeps_only_when_series_empty() {
        let db = ShardedDatabase::new(2);
        for point in workload() {
            db.insert(point);
        }
        // Nothing evicted: no sweep lock taken.
        db.enforce_retention(SimTime::from_secs(60), SimDuration::from_secs(120));
        assert_eq!(db.retention_sweep_lock_acquisitions(), 0);
        // Partial trim (every series keeps its newest samples): still no
        // exclusive sweep.
        db.enforce_retention(SimTime::from_secs(60), SimDuration::from_secs(10));
        assert_eq!(db.retention_sweep_lock_acquisitions(), 0);
        assert!(db.points_evicted() > 0);
        // Full trim: series run empty and must be unregistered.
        db.enforce_retention(SimTime::from_secs(1000), SimDuration::from_secs(1));
        assert!(db.retention_sweep_lock_acquisitions() > 0);
        assert_eq!(db.series_count(), 0);
        assert!(db.measurement_names().is_empty());
    }

    #[test]
    fn shards_of_batch_matches_per_row_routing() {
        let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(3))
            .with_shared_tag("nodename", "n1");
        for pod in 0..20 {
            batch.push(format!("p{pod}"), pod as f64);
        }
        let db = ShardedDatabase::new(4);
        let shards = db.shards_of_batch(&batch);
        assert!(!shards.is_empty());
        assert!(shards.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        // Every row's own shard is in the set, and nothing else is.
        let mut expected: Vec<usize> = batch
            .rows()
            .iter()
            .map(|row| {
                let mut tags = batch.shared_tags().clone();
                tags.insert("pod_name".to_string(), row.tag_value.clone());
                db.shard_of(batch.measurement(), &tags)
            })
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(shards, expected);
        // Degenerate cases.
        let empty = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(3));
        assert!(db.shards_of_batch(&empty).is_empty());
        assert_eq!(ShardedDatabase::new(1).shards_of_batch(&batch), vec![0]);
    }

    #[test]
    fn concurrent_writers_produce_the_sequential_state() {
        let points = workload();
        let (single, _) = paired(1, &points);
        let sharded = ShardedDatabase::new(4);
        // One writer per node: each series receives its samples in the
        // same order as the sequential insert loop.
        crossbeam::thread::scope(|scope| {
            for node in 0..3 {
                let node_name = format!("n{node}");
                let points = &points;
                let sharded = &sharded;
                scope.spawn(move || {
                    for point in points {
                        if point.tag("nodename") == Some(node_name.as_str()) {
                            sharded.insert(point.clone());
                        }
                    }
                });
            }
        });
        assert_eq!(sharded.snapshot(), single.snapshot());
        let query = listing1();
        let now = SimTime::from_secs(60);
        assert_eq!(sharded.query(&query, now), single.query(&query, now));
    }
}
