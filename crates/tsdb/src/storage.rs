//! Series storage and retention.
//!
//! A series lives in two places. Its samples sit in a *slot* of a slab
//! (`Vec<Slot>` plus a free list), addressed by a [`SeriesId`]; its name
//! — `(measurement, tag set)` — is a key of the ordered index, whose
//! value is the slot number. The split is what lets a writer pay for the
//! name once:
//!
//! * [`Database::resolve`] is the store's one resolver: a measurement
//!   lookup and a byte-keyed B-tree descent, get-or-create, returning
//!   the id.
//! * [`Database::append`] is its one append routine: an index into the
//!   slab, a generation compare, a push.
//!
//! [`insert`](Database::insert), [`insert_at`](Database::insert_at) and
//! [`insert_batch`](Database::insert_batch) are `append(resolve(..))`; a
//! writer that sees the same series tick after tick (a probe scraping a
//! pod, through a [`Scrape`]) keeps the id and skips the resolver.
//!
//! Every write also feeds the store's [`WindowRollup`], Listing 1 kept
//! as a continuous query; retention trims it and a node's drop forgets
//! it, so the window is the store's by construction.
//!
//! # The packed key
//!
//! A tag set is not stored as a [`TagSet`]: the index keys a series by
//! its *packed* tag set, one `Box<[u8]>` holding every tag key and value.
//! Each string has its `0x00` bytes escaped as `00 FF` and ends with the
//! terminator `00 01` (Prometheus packs its label sets into one string
//! the same way). The encoding orders byte-wise exactly as the tag sets
//! do: where two keys first differ, an escaped `0x00` still sorts below
//! any other byte, and a string that ends (`00 01`) sorts below any
//! continuation (a byte ≥ `01`, or `00 FF`), as a shorter string or tag
//! set does. So every read — [`query`](Database::query), the full scan,
//! `stream_window`, [`snapshot`](Database::snapshot) — walks series in
//! tag-set order as it always has, decoding each series' key into one
//! reused scratch [`TagSet`]. A series name costs two allocations: the
//! index key and the slot's own copy, which begins with the packed
//! measurement.
//!
//! The index is *eager*: it lists exactly the live series, and never
//! meets a hole. Ids are generation-checked: a slot released by
//! retention or [`drop_series_with_first_tag`] bumps its generation
//! before it is reused, so an id that outlived its series appends nothing
//! and says so.
//!
//! Each slot carries the time of its oldest sample inline, so
//! [`enforce_retention`] compares one word per series and opens the
//! sample vector only of a series the cutoff has passed. A series it
//! empties is unregistered through the key its slot holds — O(log n) per
//! series emptied, with no walk of the index.
//! [`drop_series_with_first_tag`] removes a byte-prefix range: the packed
//! `(key, value)` pair is a prefix of exactly the keys whose first tag it
//! is.
//!
//! [`drop_series_with_first_tag`]: Database::drop_series_with_first_tag
//! [`enforce_retention`]: Database::enforce_retention

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;

use des::{SimDuration, SimTime};

use crate::key::{pack_tags, push_field, split_field, unescape, unpack_tags};
use crate::point::{Point, TagSet};
use crate::query::{Row, Select, TimeBound};
use crate::rollup::{GroupFeed, WindowRollup, NODE_TAG, POD_TAG};

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

/// A handle to one stored series, from [`Database::resolve`]. Opaque and
/// `Copy`; valid until the series is unregistered (its last sample
/// evicted, or dropped with its node), after which
/// [`Database::append`] refuses it — also once the storage behind it
/// holds another series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId {
    slot: u32,
    generation: u32,
}

/// Storage of one series, or a free cell of the slab.
#[derive(Debug, Clone)]
struct Slot {
    /// Empty in a free slot, and in a series resolved but not yet
    /// appended to.
    samples: Series,
    /// `samples[0].0` — kept here so retention can tell a series with
    /// nothing to evict without following `samples` to the heap.
    /// [`SimTime::MAX`] while `samples` is empty.
    oldest: SimTime,
    /// The series' name: its packed measurement, then its packed tag set
    /// (the index key). Empty in a free slot — a packed measurement never
    /// is.
    key: Box<[u8]>,
    /// How many series this slot has held before the current one. An id
    /// is live while its generation equals the slot's.
    generation: u32,
}

impl Slot {
    /// Whether a retention with this cutoff has work here: samples to
    /// evict, or a live series with none to keep — one resolved and never
    /// appended to, which the retention unregisters. Reads only the slot
    /// itself, not the heap behind it.
    fn due(&self, cutoff: SimTime) -> bool {
        self.oldest < cutoff || (self.samples.is_empty() && !self.key.is_empty())
    }
}

/// The in-memory time-series database.
///
/// Series are keyed by `(measurement, tag set)`; queries are executed with
/// [`Database::query`] against a caller-supplied evaluation instant
/// (virtual `now()`).
///
/// The store also runs the paper's Listing 1 as a continuous query, the
/// way InfluxDB does: a [`WindowRollup`] grouped by `nodename`, members
/// told apart by `pod_name`, that every write feeds ([`append`],
/// [`insert`], [`insert_at`], [`insert_batch`], a [`Scrape`]), that
/// [`enforce_retention`] trims to its cutoff and that
/// [`drop_series_with_first_tag`] forgets a node in. A reader gets it
/// from [`window`](Self::window); it equals the nested query, by bits,
/// for every window that starts at or above its floor.
///
/// [`append`]: Self::append
/// [`insert`]: Self::insert
/// [`insert_at`]: Self::insert_at
/// [`insert_batch`]: Self::insert_batch
/// [`enforce_retention`]: Self::enforce_retention
/// [`drop_series_with_first_tag`]: Self::drop_series_with_first_tag
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
/// assert_eq!(db.window().sum_of_max("n1", "memory/usage", SimTime::ZERO), 42.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Database {
    table: Table,
    /// Listing 1's window state. Interior mutability because a reader (a
    /// `&self` capture) trims it to the window it just served.
    window: RefCell<WindowRollup>,
}

/// The series half of a [`Database`], a struct of its own so that a
/// [`Scrape`] can borrow it and the window at once.
#[derive(Debug, Clone, Default)]
struct Table {
    /// The ordered index: measurement → packed tag set → slot number,
    /// listing exactly the live series.
    index: BTreeMap<String, BTreeMap<Box<[u8]>, u32>>,
    slots: Vec<Slot>,
    /// Numbers of the free slots, reused last-released first.
    free: Vec<u32>,
    /// [`resolve`](Self::resolve)'s scratch: the tag set it looks up,
    /// packed.
    packed: Vec<u8>,
    points_inserted: u64,
    points_evicted: u64,
}

impl Table {
    /// The series `(measurement, self.packed)`, registered empty on
    /// first contact.
    fn resolve(&mut self, measurement: &str) -> SeriesId {
        assert!(
            !measurement.is_empty(),
            "measurement name must not be empty"
        );
        // A lookup instead of `entry`: `entry` would force cloning the
        // borrowed name on every call. The miss arm re-walks the tree,
        // but only on first contact with a measurement.
        let series_map = if self.index.contains_key(measurement) {
            self.index.get_mut(measurement).expect("checked above")
        } else {
            self.index.entry(measurement.to_string()).or_default()
        };
        if let Some(&slot) = series_map.get(&self.packed[..]) {
            let generation = self.slots[slot as usize].generation;
            return SeriesId { slot, generation };
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 series");
                self.slots.push(Slot {
                    samples: Series::new(),
                    oldest: SimTime::MAX,
                    key: Box::default(),
                    generation: 0,
                });
                slot
            }
        };
        series_map.insert(Box::from(&self.packed[..]), slot);
        let mut key = Vec::with_capacity(measurement.len() + 2 + self.packed.len());
        push_field(&mut key, measurement);
        key.extend_from_slice(&self.packed);
        let held = &mut self.slots[slot as usize];
        held.key = key.into_boxed_slice();
        SeriesId {
            slot,
            generation: held.generation,
        }
    }

    /// [`Database::append`] without the window.
    fn store(&mut self, id: SeriesId, time: SimTime, value: f64) -> bool {
        assert!(value.is_finite(), "point value must be finite, got {value}");
        let Some(slot) = self
            .slots
            .get_mut(id.slot as usize)
            .filter(|slot| slot.generation == id.generation)
        else {
            return false;
        };
        // A delayed sample moves the stamp *back*: the next retention
        // that passes it must find it.
        slot.oldest = slot.oldest.min(time);
        // Room for one sample first, not the four a first push reserves:
        // a series that never gets a second (a short pod) holds 16 B.
        if slot.samples.capacity() == 0 {
            slot.samples.reserve_exact(1);
        }
        insert_sorted(&mut slot.samples, time, value);
        self.points_inserted += 1;
        true
    }

    /// Unregisters the series in `slot`: its index entry goes (and its
    /// measurement's, with the last series), every id to it goes stale,
    /// its key and samples are freed, the slot joins the free list.
    /// Returns how many samples it held.
    fn unregister(&mut self, slot: u32) -> usize {
        let held = &mut self.slots[slot as usize];
        let key = std::mem::take(&mut held.key);
        let (measurement, tags) = split_field(&key).expect("a live slot holds its name");
        let measurement = unescape(measurement);
        let series_map = self
            .index
            .get_mut(measurement.as_ref())
            .expect("a live series is indexed");
        series_map.remove(tags);
        if series_map.is_empty() {
            self.index.remove(measurement.as_ref());
        }
        held.generation = held.generation.wrapping_add(1);
        held.oldest = SimTime::MAX;
        self.free.push(slot);
        std::mem::take(&mut held.samples).len()
    }

    /// The series of `measurement` — packed tag set and samples — in
    /// tag-set order.
    fn series_of<'a>(
        &'a self,
        measurement: &str,
    ) -> impl Iterator<Item = (&'a [u8], &'a Series)> + 'a {
        self.index
            .get(measurement)
            .into_iter()
            .flatten()
            .map(|(packed, &slot)| (&packed[..], &self.slots[slot as usize].samples))
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The series `(measurement, tags)`, registered empty on first
    /// contact (only then is its packed key allocated; a hit allocates
    /// nothing). A series still empty at the next
    /// [`enforce_retention`](Self::enforce_retention) is unregistered by
    /// it like any other.
    ///
    /// # Examples
    ///
    /// ```
    /// use des::SimTime;
    /// use tsdb::{Database, TagSet};
    ///
    /// let mut db = Database::new();
    /// let tags: TagSet = [("pod_name".to_string(), "pod-1".to_string())].into();
    /// let id = db.resolve("sgx/epc", &tags);
    /// assert!(db.append(id, SimTime::from_secs(10), 4096.0));
    /// assert!(db.append(id, SimTime::from_secs(20), 8192.0));
    /// assert_eq!((db.series_count(), db.point_count()), (1, 2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `measurement` is empty (the [`Point::new`] contract).
    pub fn resolve(&mut self, measurement: &str, tags: &TagSet) -> SeriesId {
        pack_tags(&mut self.table.packed, tags);
        self.table.resolve(measurement)
    }

    /// Appends a sample to the series behind `id` (anywhere in time: an
    /// out-of-order sample is inserted at its place) and admits it to the
    /// window. Returns `false`, storing and counting nothing, when that
    /// series has since been unregistered — [`resolve`](Self::resolve)
    /// it again.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (the [`Point::new`] contract).
    pub fn append(&mut self, id: SeriesId, time: SimTime, value: f64) -> bool {
        if !self.table.store(id, time, value) {
            return false;
        }
        // The row a frame of this sample would make: grouped by the
        // series' node tag, told apart by its pod tag.
        let key = &self.table.slots[id.slot as usize].key;
        let (measurement, packed) = split_field(key).expect("a live slot holds its name");
        let (measurement, mut tags) = (unescape(measurement), TagSet::new());
        unpack_tags(packed, &mut tags);
        if let Some(node) = tags.get(NODE_TAG) {
            let mut feed = self.window.get_mut().group_feed(node, &measurement, time);
            feed.admit(tags.get(POD_TAG).map(String::as_str), value);
        }
        true
    }

    /// Opens `node`'s share of a probe scrape of `measurement` sampled at
    /// `time`: each [`Scrape::append`] stores one pod's sample in the
    /// series `{nodename: node, pod_name: pod}` and admits it to the
    /// window.
    pub fn scrape<'a>(
        &'a mut self,
        node: &'a str,
        measurement: &'a str,
        time: SimTime,
    ) -> Scrape<'a> {
        Scrape {
            table: &mut self.table,
            feed: self.window.get_mut().group_feed(node, measurement, time),
        }
    }

    /// Inserts a point.
    pub fn insert(&mut self, point: Point) {
        let (measurement, tags) = (point.measurement(), point.tags());
        self.insert_at(measurement, tags, point.time(), point.value());
    }

    /// Inserts a sample by borrowed identity, allocating nothing when the
    /// series already exists: `append(resolve(measurement, tags), ..)`.
    ///
    /// # Panics
    ///
    /// Panics if `measurement` is empty or `value` is not finite (the
    /// same contract [`Point::new`] enforces).
    pub fn insert_at(&mut self, measurement: &str, tags: &TagSet, time: SimTime, value: f64) {
        let id = self.resolve(measurement, tags);
        let stored = self.append(id, time, value);
        debug_assert!(stored, "a series just resolved is live");
    }

    /// Inserts every row of a [`PointBatch`](crate::PointBatch), sharing
    /// one scratch tag set across rows so steady-state ingestion performs
    /// no per-point key allocations, and feeds the window the frame.
    pub fn insert_batch(&mut self, batch: &crate::PointBatch) {
        let mut tags = batch.shared_tags().clone();
        for row in batch.rows() {
            if let Some(slot) = tags.get_mut(batch.row_tag_key()) {
                slot.clear();
                slot.push_str(&row.tag_value);
            } else {
                tags.insert(batch.row_tag_key().to_string(), row.tag_value.clone());
            }
            let id = self.resolve(batch.measurement(), &tags);
            self.table.store(id, batch.time(), row.value);
        }
        self.window.get_mut().feed(batch);
    }

    /// Listing 1 as the store maintains it: per node and measurement, the
    /// samples a window query starting at or above its
    /// [`floor`](WindowRollup::floor) can still admit.
    ///
    /// # Panics
    ///
    /// Panics while a [`trim_window`](Self::trim_window) runs (it never
    /// outlives its call).
    pub fn window(&self) -> Ref<'_, WindowRollup> {
        self.window.borrow()
    }

    /// A reader's promise that no later read of the [`window`](Self::window)
    /// starts below `lo`: drops the samples only such a read could admit
    /// and raises the floor to `lo`. A `lo` at or below the floor is a
    /// no-op. The store's samples are untouched.
    pub fn trim_window(&self, lo: SimTime) {
        self.window.borrow_mut().trim(lo);
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
        let fetch = |measurement: &str| -> Vec<(TagSet, &[(SimTime, f64)])> {
            self.table
                .series_of(measurement)
                .map(|(packed, series)| {
                    let mut tags = TagSet::new();
                    unpack_tags(packed, &mut tags);
                    (tags, &series[..])
                })
                .collect()
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
        let mut tags = TagSet::new();
        for (packed, series) in self.table.series_of(measurement) {
            let samples = window(series, lo, hi);
            if samples.is_empty() {
                continue;
            }
            unpack_tags(packed, &mut tags);
            for &(time, value) in samples {
                emit(time, value, &tags);
            }
        }
    }

    /// Drops every sample older than `keep` relative to `now`, across all
    /// series and the window, and removes series that become empty.
    /// Returns the number of samples evicted. This is the
    /// retention-policy enforcement a real InfluxDB runs continuously.
    ///
    /// Costs one comparison per series plus the samples evicted: a series
    /// whose oldest sample is inside the retention is not opened. A
    /// series left empty is unregistered through its slot's key, in
    /// O(log series).
    pub fn enforce_retention(&mut self, now: SimTime, keep: SimDuration) -> usize {
        let cutoff = TimeBound::SinceNowMinus(keep).resolve(now);
        let mut evicted = 0;
        for n in 0..self.table.slots.len() {
            let slot = &mut self.table.slots[n];
            if !slot.due(cutoff) {
                continue;
            }
            // Counted from the front, not bisected: the walk ends one
            // sample past the last one evicted.
            let expired = slot.samples.iter().take_while(|&&(t, _)| t < cutoff);
            let keep_from = expired.count();
            evicted += slot.samples.drain(..keep_from).count();
            match slot.samples.first() {
                Some(&(first, _)) => slot.oldest = first,
                None => {
                    self.table.unregister(n as u32);
                }
            }
        }
        self.table.points_evicted += evicted as u64;
        self.window.get_mut().trim(cutoff);
        evicted
    }

    /// Removes every series — across all measurements — whose
    /// lexicographically *first* tag pair is exactly `(key, value)`, and
    /// returns the number of samples dropped (counted as evictions).
    ///
    /// This is node deregistration's storage teardown: probe series are
    /// tagged `{nodename, pod_name}` and `"nodename"` sorts first, so one
    /// call with `("nodename", node)` unregisters exactly that node's
    /// series and forgets the node in the window. A later node reusing
    /// the name starts from empty series.
    pub fn drop_series_with_first_tag(&mut self, key: &str, value: &str) -> usize {
        let mut prefix = Vec::new();
        push_field(&mut prefix, key);
        push_field(&mut prefix, value);
        let doomed: Vec<u32> = self
            .table
            .index
            .values()
            .flat_map(|series_map| {
                series_map
                    .range::<[u8], _>((Bound::Included(&prefix[..]), Bound::Unbounded))
                    .take_while(|(packed, _)| packed.starts_with(&prefix))
                    .map(|(_, &slot)| slot)
            })
            .collect();
        let dropped = doomed
            .into_iter()
            .map(|slot| self.table.unregister(slot))
            .sum();
        self.table.points_evicted += dropped as u64;
        if key == NODE_TAG {
            self.window.get_mut().forget(value);
        }
        dropped
    }

    /// Number of distinct series currently stored.
    pub fn series_count(&self) -> usize {
        self.table.index.values().map(BTreeMap::len).sum()
    }

    /// Number of samples currently stored.
    pub fn point_count(&self) -> usize {
        self.table.slots.iter().map(|slot| slot.samples.len()).sum()
    }

    /// Lifetime insert counter.
    pub fn points_inserted(&self) -> u64 {
        self.table.points_inserted
    }

    /// Lifetime eviction counter.
    pub fn points_evicted(&self) -> u64 {
        self.table.points_evicted
    }

    /// The measurement names currently stored, in sorted order.
    pub fn measurement_names(&self) -> Vec<&str> {
        self.table.index.keys().map(String::as_str).collect()
    }

    /// Serialises every stored sample into the binary snapshot format of
    /// [`crate::wire`] (what a real InfluxDB would flush to disk).
    pub fn snapshot(&self) -> bytes::Bytes {
        let mut points = Vec::with_capacity(self.point_count());
        let mut tags = TagSet::new();
        for (measurement, series_map) in &self.table.index {
            for (packed, &slot) in series_map {
                unpack_tags(packed, &mut tags);
                for &(time, value) in &self.table.slots[slot as usize].samples {
                    let mut point = Point::new(measurement.clone(), time, value);
                    for (k, v) in &tags {
                        point = point.with_tag(k.clone(), v.clone());
                    }
                    points.push(point);
                }
            }
        }
        crate::wire::encode(&points)
    }

    /// Rebuilds a database from a snapshot produced by
    /// [`snapshot`](Self::snapshot); the window is fed the samples anew.
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

/// One node's share of a probe scrape of one measurement, from
/// [`Database::scrape`]. The window looks the node up once, and each
/// row's member search finds the series the member was last written
/// through: a pod scraped tick after tick is appended by [`SeriesId`],
/// and resolved again only when that series has gone (aged out, or
/// dropped with its node) or the member is new to the window.
#[derive(Debug)]
pub struct Scrape<'a> {
    table: &'a mut Table,
    feed: GroupFeed<'a>,
}

impl Scrape<'_> {
    /// Stores `pod`'s sample in its series `{nodename, pod_name}` and
    /// admits it to the window.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (the [`Point::new`] contract).
    pub fn append(&mut self, pod: &str, value: f64) {
        let (node, measurement, time) = (self.feed.group, self.feed.measurement, self.feed.time);
        let memo = self.feed.admit(Some(pod), value);
        let held = memo.as_ref().and_then(|memo| **memo);
        if held.is_some_and(|id| self.table.store(id, time, value)) {
            return;
        }
        self.table.packed.clear();
        for field in [NODE_TAG, node, POD_TAG, pod] {
            push_field(&mut self.table.packed, field);
        }
        let id = self.table.resolve(measurement);
        self.table.store(id, time, value);
        if let Some(memo) = memo {
            *memo = Some(id);
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

    fn pod_tags(pod: &str, node: &str) -> TagSet {
        epc_point(0, pod, node, 1.0).tags().clone()
    }

    #[test]
    fn an_id_outliving_its_series_appends_nothing_and_says_so() {
        let mut db = Database::new();
        let aged = db.resolve("sgx/epc", &pod_tags("a", "n1"));
        let dropped = db.resolve("sgx/epc", &pod_tags("b", "n2"));
        let kept = db.resolve("sgx/epc", &pod_tags("c", "n1"));
        assert!(db.append(aged, SimTime::from_secs(10), 1.0));
        assert!(db.append(dropped, SimTime::from_secs(95), 2.0));
        assert!(db.append(kept, SimTime::from_secs(95), 3.0));
        // Resolving again finds the same series.
        assert_eq!(db.resolve("sgx/epc", &pod_tags("a", "n1")), aged);

        assert_eq!(
            db.enforce_retention(SimTime::from_secs(100), SimDuration::from_secs(30)),
            1
        );
        assert_eq!(db.drop_series_with_first_tag("nodename", "n2"), 1);
        let before = (db.snapshot(), db.points_inserted());
        for stale in [aged, dropped] {
            assert!(!db.append(stale, SimTime::from_secs(100), 9.0));
        }
        assert_eq!((db.snapshot(), db.points_inserted()), before);
        assert!(db.append(kept, SimTime::from_secs(100), 4.0));
        assert_eq!((db.series_count(), db.point_count()), (1, 2));
    }

    #[test]
    fn a_reused_slot_refuses_the_previous_tenants_id() {
        let mut db = Database::new();
        let first = db.resolve("sgx/epc", &pod_tags("a", "n1"));
        db.append(first, SimTime::from_secs(1), 1.0);
        db.enforce_retention(SimTime::from_secs(100), SimDuration::from_secs(10));
        assert_eq!(db.series_count(), 0);
        // The next series moves into the storage `first` pointed at.
        let second = db.resolve("memory/usage", &pod_tags("b", "n1"));
        assert_eq!(second.slot, first.slot);
        assert_ne!(second, first);
        assert!(!db.append(first, SimTime::from_secs(100), 7.0));
        assert!(db.append(second, SimTime::from_secs(100), 8.0));
        assert_eq!(db.measurement_names(), ["memory/usage"]);
        assert_eq!(db.point_count(), 1);
    }

    #[test]
    fn resolve_after_removal_starts_an_empty_series() {
        let mut db = Database::new();
        let tags = pod_tags("a", "n1");
        let old = db.resolve("sgx/epc", &tags);
        db.append(old, SimTime::from_secs(1), 1.0);
        db.drop_series_with_first_tag("nodename", "n1");
        let new = db.resolve("sgx/epc", &tags);
        assert_ne!(new, old);
        assert_eq!((db.series_count(), db.point_count()), (1, 0));
        assert!(db.append(new, SimTime::from_secs(2), 2.0));
        let q = Select::from_measurement("sgx/epc").aggregate(Aggregate::Sum);
        assert_eq!(db.query(&q, SimTime::from_secs(3))[0].value, 2.0);
        // A series nobody appended to goes with the next retention,
        // even one that evicts nothing.
        db.resolve("sgx/epc", &pod_tags("idle", "n1"));
        assert_eq!(db.series_count(), 2);
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(3), SimDuration::from_secs(60)),
            0
        );
        assert_eq!(db.series_count(), 1);
    }

    #[test]
    fn retention_opens_a_series_only_when_it_has_work_there() {
        let mut db = Database::new();
        let id = db.resolve("sgx/epc", &pod_tags("a", "n1"));
        let due = |db: &Database, cutoff: SimTime| db.table.slots[id.slot as usize].due(cutoff);
        // Resolved and empty: due at any cutoff, to be unregistered.
        assert!(due(&db, SimTime::ZERO));
        // One sample at t = 0: due only once a cutoff passes it.
        assert!(db.append(id, SimTime::ZERO, 1.0));
        assert!(!due(&db, SimTime::ZERO));
        assert!(due(&db, SimTime::from_micros(1)));
        // A free slot never is.
        db.enforce_retention(SimTime::from_secs(100), SimDuration::from_secs(10));
        assert_eq!(db.series_count(), 0);
        assert!(!due(&db, SimTime::MAX));
    }

    #[test]
    fn a_delayed_sample_before_the_first_is_evicted_when_retention_passes_it() {
        let mut db = Database::new();
        db.insert(epc_point(100, "a", "n1", 1.0));
        db.insert(epc_point(110, "a", "n1", 2.0));
        // A delayed frame lands ahead of the series' first sample…
        db.insert(epc_point(50, "a", "n1", 3.0));
        // …a cutoff short of it evicts nothing…
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(105), SimDuration::from_secs(60)),
            0
        );
        // …and the first cutoff past it evicts exactly it.
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(150), SimDuration::from_secs(60)),
            1
        );
        let q = Select::from_measurement("sgx/epc").aggregate(Aggregate::Sum);
        assert_eq!(db.query(&q, SimTime::from_secs(150))[0].value, 3.0);
        assert_eq!(db.points_evicted(), 1);
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

    /// Listing 1 for `measurement`: each pod's `MAX` over the last
    /// `window`, zeros dropped, summed per node.
    fn listing1(measurement: &str, window: SimDuration) -> Select {
        let per_pod = Select::from_measurement(measurement)
            .aggregate(Aggregate::Max)
            .filter(Predicate::ValueNe(0.0))
            .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(window)))
            .group_by(["pod_name", "nodename"]);
        Select::from_subquery(per_pod)
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"])
    }

    /// Holds every node's window sum equal, by bits, to the row the
    /// nested query returns for it at `now` (`0.0` for no row), for each
    /// window from the floor up to the last 25 s.
    fn assert_window_is_listing1(db: &Database, now: u64, step: &str) {
        let now = SimTime::from_secs(now);
        for back in [25, 40, 60] {
            let window = SimDuration::from_secs(back);
            let lo = TimeBound::SinceNowMinus(window).resolve(now);
            if lo < db.window().floor() {
                continue;
            }
            for measurement in ["sgx/epc", "memory/usage"] {
                let rows = db.query(&listing1(measurement, window), now);
                for node in ["n1", "n2", "n3"] {
                    let row = rows.iter().find(|row| row.tag("nodename") == Some(node));
                    let expected = row.map_or(0.0, |row| row.value);
                    let got = db.window().sum_of_max(node, measurement, lo);
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "after {step}: {measurement} of {node} over {back} s: {got} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_write_path_keeps_the_window_equal_to_listing_1() {
        let mut db = Database::new();
        // Sums whose bits depend on the order the pods are added in.
        db.insert(epc_point(10, "pod-3", "n1", 0.1));
        db.insert(epc_point(12, "pod-1", "n1", 0.2));
        db.insert(epc_point(15, "pod-2", "n1", 0.7));
        db.insert(epc_point(14, "pod-2", "n1", 0.9)); // delayed, and larger
        db.insert(epc_point(15, "pod-4", "n2", 0.0)); // dropped by the query
        assert_window_is_listing1(&db, 30, "insert");

        // A probe frame, and one whose rows are told apart by node.
        let mut frame = crate::PointBatch::new("memory/usage", "pod_name", SimTime::from_secs(20))
            .with_shared_tag("nodename", "n2");
        frame.push("pod-5", 1e-3);
        frame.push("pod-6", 3.0e7);
        db.insert_batch(&frame);
        let mut by_node = crate::PointBatch::new("sgx/epc", "nodename", SimTime::from_secs(21))
            .with_shared_tag("pod_name", "pod-7");
        by_node.push("n2", 0.3);
        by_node.push("n3", 0.6);
        db.insert_batch(&by_node);
        assert_window_is_listing1(&db, 30, "insert_batch");

        let id = db.resolve("sgx/epc", &pod_tags("pod-1", "n1"));
        assert!(db.append(id, SimTime::from_secs(25), 0.35));
        let untagged = db.resolve("sgx/epc", &TagSet::new());
        assert!(db.append(untagged, SimTime::from_secs(25), 5.0));
        assert_window_is_listing1(&db, 30, "resolve + append");

        // Two ticks of a scrape: the second appends through the series
        // the window remembers for each pod.
        for t in [26, 36] {
            let mut rows = db.scrape("n3", "sgx/epc", SimTime::from_secs(t));
            rows.append("pod-8", 0.45);
            rows.append("pod-9", t as f64 / 100.0);
        }
        assert_eq!(db.series_count(), 11);
        assert_window_is_listing1(&db, 40, "scrape");

        db.enforce_retention(SimTime::from_secs(40), SimDuration::from_secs(26));
        assert_eq!(db.window().floor(), SimTime::from_secs(14));
        assert_window_is_listing1(&db, 40, "enforce_retention");

        db.drop_series_with_first_tag("nodename", "n3");
        assert!(db.window().groups().all(|node| node != "n3"));
        assert_window_is_listing1(&db, 40, "drop_series_with_first_tag");
        // The scrape memo went with the node: a new tick resolves anew.
        db.scrape("n3", "sgx/epc", SimTime::from_secs(41))
            .append("pod-8", 0.5);
        assert_window_is_listing1(&db, 45, "a scrape after the drop");

        let restored = Database::restore(&db.snapshot()).unwrap();
        assert_window_is_listing1(&restored, 45, "restore(snapshot())");
        assert_eq!(restored.window().floor(), SimTime::ZERO);
    }
}
