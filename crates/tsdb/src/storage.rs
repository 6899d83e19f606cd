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
//!   slab, a generation compare, a sample encoded onto the series' tail.
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
//! its *packed* tag set, one byte string holding every tag key and value.
//! Each string has its `0x00` bytes escaped as `00 FF` and ends with the
//! terminator `00 01` (Prometheus packs its label sets into one string
//! the same way). The encoding orders byte-wise exactly as the tag sets
//! do: where two keys first differ, an escaped `0x00` still sorts below
//! any other byte, and a string that ends (`00 01`) sorts below any
//! continuation (a byte ≥ `01`, or `00 FF`), as a shorter string or tag
//! set does. So every read — [`query`](Database::query) and
//! [`points`](Database::points) — walks series in tag-set order as it
//! always has, decoding each series' key into a [`TagSet`]. A series
//! name costs one allocation: the index and the slot share the packed
//! tag set through an [`Arc`], and the slot names its measurement by a
//! small id.
//!
//! The index is *eager*: it lists exactly the live series, and never
//! meets a hole. Ids are generation-checked: a slot released by
//! retention or [`drop_series_with_first_tag`] bumps its generation
//! before it is reused, so an id that outlived its series appends nothing
//! and says so.
//!
//! # The samples
//!
//! A series' samples are one Gorilla-compressed chunk (Pelkonen et al.,
//! "Gorilla", VLDB 2015; InfluxDB's TSM engine encodes its floats the
//! same way). The oldest sample sits in the slot as is; every later one
//! is a bit string encoded against the sample before it:
//!
//! * its time as the *delta of deltas* of `SimTime` microseconds —
//!   one `0` bit when the gap repeats, else a prefix of up to four `1`s
//!   naming a 7-, 25- or 36-bit bucket, or a full 64-bit escape for a
//!   change that fits no bucket;
//! * its value as the XOR of its `f64` bits with its predecessor's —
//!   one `0` bit when it repeats, else the meaningful bits, inside the
//!   previous XOR's window when they fit. Every finite value, `-0.0` and
//!   the subnormals included, round-trips by [`f64::to_bits`].
//!
//! A probe's series repeats both its interval and its value, so a sample
//! costs about two bits. The first 64 bits of the stream are kept in the
//! slot, and a series spills to the heap only past them.
//!
//! The slot also holds the decoder state at both ends of the series: at
//! the newest sample, so an in-order append (every probe write) encodes
//! one sample in O(1); and at the oldest, so the retention decodes only
//! the samples it evicts. A sample that lands before the newest (a
//! delayed frame) re-encodes its one series, stable after equal
//! timestamps.
//!
//! [`enforce_retention`] visits no series while its cutoff is at or
//! below every series' oldest sample. The store keeps a low-water mark,
//! a lower bound on those oldest samples: every write lowers it, every
//! walk sets it exactly, and it is unset while a series may be
//! registered without samples (such a series is due at any cutoff).
//! Past the mark, the retention compares one word per series, the oldest
//! sample's time, and opens only a series the cutoff has passed. It
//! decodes the samples it evicts, and moves the stream's live words to
//! its front once the evicted words are as many, so a series that loses
//! one sample a tick is not re-encoded per tick. A series it empties is
//! unregistered through the key its slot holds — O(log n) per series
//! emptied, with no walk of the index.
//! [`drop_series_with_first_tag`] removes a byte-prefix range: the packed
//! `(key, value)` pair is a prefix of exactly the keys whose first tag it
//! is.
//!
//! [`drop_series_with_first_tag`]: Database::drop_series_with_first_tag
//! [`enforce_retention`]: Database::enforce_retention

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use des::{SimDuration, SimTime};

use crate::key::{pack_tags, push_field, unpack_tags};
use crate::point::{Point, TagSet};
use crate::query::{Row, Select, TimeBound};
use crate::rollup::{GroupFeed, WindowRollup, NODE_TAG, POD_TAG};

/// The widths of the delta-of-delta buckets, in bits, two's complement:
/// the bucket `i` is written after `i + 1` ones and a zero, the last one
/// (the escape, which holds any change) after four ones alone.
const DOD_BITS: [u32; 4] = [7, 25, 36, 64];

/// Whether `value` is representable in `bits` bits, two's complement.
fn fits(value: i64, bits: u32) -> bool {
    bits == 64 || (-(1i64 << (bits - 1))..1i64 << (bits - 1)).contains(&value)
}

/// The low `bits` bits set.
fn mask(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

/// Where a decoder stands in a series: one sample, and what the sample
/// after it is encoded against.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// The sample's time, in microseconds.
    time: u64,
    /// The sample's value, as [`f64::to_bits`].
    value: u64,
    /// The gap back to the sample before, in microseconds (0 at a
    /// series' first sample): the next gap's prediction, saturated at
    /// `u32::MAX` — a gap that long escapes anyway.
    gap: u32,
    /// The window of the last XOR written in full: its leading zero bits…
    lead: u8,
    /// …and its meaningful bits, 0 until one is written.
    len: u8,
}

/// A bit stream, most significant bit first: the sample bits of a
/// series, after its oldest sample. The first word is kept inline; the
/// rest exist only once a series spills past it.
#[derive(Debug, Clone, Default)]
struct Words {
    first: u64,
    rest: Box<[u64]>,
}

impl Words {
    fn word(&self, index: usize) -> u64 {
        match index {
            0 => self.first,
            _ => self.rest[index - 1],
        }
    }

    fn word_mut(&mut self, index: usize) -> &mut u64 {
        match index {
            0 => &mut self.first,
            _ => &mut self.rest[index - 1],
        }
    }

    /// Room for `bits` bits, the new words zeroed; grows by doubling.
    fn reserve(&mut self, bits: u32) {
        let needed = (bits as usize).div_ceil(64).saturating_sub(1);
        if needed > self.rest.len() {
            let mut rest = std::mem::take(&mut self.rest).into_vec();
            let len = needed.max(2 * rest.len());
            rest.reserve_exact(len - rest.len());
            rest.resize(len, 0);
            self.rest = rest.into_boxed_slice();
        }
    }

    /// Gives back the room past the first `words` words once the spilled
    /// part alone holds twice as many. A series that keeps one or two
    /// words live keeps its spill, rather than freeing it and spilling
    /// again at the next append.
    fn shrink_to(&mut self, words: usize) {
        if self.rest.len() >= 2 * words {
            let mut rest = std::mem::take(&mut self.rest).into_vec();
            rest.truncate(words.saturating_sub(1));
            self.rest = rest.into_boxed_slice();
        }
    }

    /// The `bits` (1 to 64) bits at `at`, as the low bits of a word.
    fn get(&self, at: u32, bits: u32) -> u64 {
        let (index, offset) = (at as usize / 64, at % 64);
        let high = self.word(index) << offset;
        if offset + bits <= 64 {
            high >> (64 - bits)
        } else {
            high >> (64 - bits) | self.word(index + 1) >> (128 - offset - bits)
        }
    }

    /// Writes the low `bits` (1 to 64) bits of `value` at `at`, into
    /// zeroed bits the caller has reserved.
    fn put(&mut self, at: u32, value: u64, bits: u32) {
        let value = value & mask(bits);
        let (index, offset) = (at as usize / 64, at % 64);
        let room = 64 - offset;
        if bits <= room {
            *self.word_mut(index) |= value << (room - bits);
        } else {
            *self.word_mut(index) |= value >> (bits - room);
            *self.word_mut(index + 1) |= value << (64 - (bits - room));
        }
    }
}

/// A writer at the end of a stream.
struct Writer<'a> {
    words: &'a mut Words,
    at: u32,
}

impl Writer<'_> {
    fn put(&mut self, value: u64, bits: u32) {
        let end = self
            .at
            .checked_add(bits)
            .filter(|&end| end < EMPTY)
            .expect("a series holds under 512 MiB of samples");
        self.words.reserve(end);
        self.words.put(self.at, value, bits);
        self.at = end;
    }

    /// Encodes the sample `(time, value)` after `prev`, returning the
    /// cursor at it. `time` is not before `prev`'s.
    fn sample(&mut self, prev: Cursor, time: u64, value: u64) -> Cursor {
        let gap = time - prev.time;
        let dod = gap.wrapping_sub(u64::from(prev.gap)) as i64;
        if dod == 0 {
            self.put(0, 1);
        } else {
            let bucket = (0..DOD_BITS.len())
                .find(|&i| fits(dod, DOD_BITS[i]))
                .expect("the escape holds any change");
            let ones = bucket as u32 + 1;
            if bucket + 1 == DOD_BITS.len() {
                self.put(mask(ones), ones);
            } else {
                self.put(mask(ones) << 1, ones + 1);
            }
            self.put(dod as u64, DOD_BITS[bucket]);
        }

        let mut next = Cursor {
            time,
            value,
            gap: u32::try_from(gap).unwrap_or(u32::MAX),
            ..prev
        };
        let xor = value ^ prev.value;
        if xor == 0 {
            self.put(0, 1);
            return next;
        }
        let (lead, trail) = (xor.leading_zeros(), xor.trailing_zeros());
        let (window_lead, window_len) = (u32::from(prev.lead), u32::from(prev.len));
        if window_len > 0 && lead >= window_lead && trail >= 64 - window_lead - window_len {
            self.put(0b10, 2);
            self.put(xor >> (64 - window_lead - window_len), window_len);
        } else {
            let len = 64 - lead - trail;
            self.put(0b11, 2);
            self.put(u64::from(lead), 6);
            self.put(u64::from(len - 1), 6);
            self.put(xor >> trail, len);
            (next.lead, next.len) = (lead as u8, len as u8);
        }
        next
    }
}

/// A reader somewhere in a stream.
struct Reader<'a> {
    words: &'a Words,
    at: u32,
}

impl Reader<'_> {
    fn get(&mut self, bits: u32) -> u64 {
        let value = self.words.get(self.at, bits);
        self.at += bits;
        value
    }

    /// Decodes the sample after `prev`: the inverse of
    /// [`Writer::sample`].
    fn sample(&mut self, prev: Cursor) -> Cursor {
        let mut ones = 0;
        while ones < DOD_BITS.len() && self.get(1) == 1 {
            ones += 1;
        }
        let dod = match ones {
            0 => 0,
            _ => {
                let bits = DOD_BITS[ones - 1];
                let raw = self.get(bits);
                ((raw << (64 - bits)) as i64) >> (64 - bits)
            }
        };
        let gap = u64::from(prev.gap).wrapping_add(dod as u64);
        let mut next = Cursor {
            time: prev.time + gap,
            gap: u32::try_from(gap).unwrap_or(u32::MAX),
            ..prev
        };
        if self.get(1) == 0 {
            return next;
        }
        let (lead, len) = if self.get(1) == 0 {
            (u32::from(prev.lead), u32::from(prev.len))
        } else {
            let lead = self.get(6) as u32;
            let len = self.get(6) as u32 + 1;
            (next.lead, next.len) = (lead as u8, len as u8);
            (lead, len)
        };
        next.value = prev.value ^ self.get(len) << (64 - lead - len);
        next
    }
}

/// `Chunk::end` of a series that holds no sample.
const EMPTY: u32 = u32::MAX;

/// One series' samples, sorted by time (stable for equal timestamps):
/// the oldest as is, the rest Gorilla-encoded after it.
#[derive(Debug, Clone)]
struct Chunk {
    /// The oldest sample, and the decoder state the next is read with.
    head: Cursor,
    /// The newest sample, and the encoder state the next is written with.
    tail: Cursor,
    /// Where the sample after `head` starts in `words`.
    head_at: u32,
    /// The bits written, or [`EMPTY`].
    end: u32,
    words: Words,
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            head: Cursor::default(),
            tail: Cursor::default(),
            head_at: 0,
            end: EMPTY,
            words: Words::default(),
        }
    }
}

impl Chunk {
    fn is_empty(&self) -> bool {
        self.end == EMPTY
    }

    /// The time of the oldest sample, unless there is none.
    fn oldest(&self) -> Option<SimTime> {
        (!self.is_empty()).then_some(SimTime::from_micros(self.head.time))
    }

    /// Appends a sample at or after the newest.
    fn push(&mut self, time: u64, value: u64) {
        if self.is_empty() {
            let first = Cursor {
                time,
                value,
                ..Cursor::default()
            };
            (self.head, self.tail, self.head_at, self.end) = (first, first, 0, 0);
            return;
        }
        let mut writer = Writer {
            words: &mut self.words,
            at: self.end,
        };
        self.tail = writer.sample(self.tail, time, value);
        self.end = writer.at;
    }

    /// Inserts a sample after every sample at or before its time: an
    /// append, unless it is older than the newest — then the series is
    /// decoded and encoded anew around it.
    fn insert(&mut self, time: SimTime, value: f64) {
        let (time, value) = (time.as_micros(), value.to_bits());
        if self.is_empty() || time >= self.tail.time {
            return self.push(time, value);
        }
        let mut samples: Vec<(u64, u64)> = self.cursors().map(|c| (c.time, c.value)).collect();
        let at = samples.partition_point(|&(t, _)| t <= time);
        samples.insert(at, (time, value));
        *self = Chunk::default();
        for (time, value) in samples {
            self.push(time, value);
        }
    }

    /// Drops every sample before `cutoff`, decoding only those, and
    /// returns how many went.
    fn evict_before(&mut self, cutoff: SimTime) -> usize {
        let cutoff = cutoff.as_micros();
        let mut evicted = 0;
        while !self.is_empty() && self.head.time < cutoff {
            evicted += 1;
            if self.head_at == self.end {
                *self = Chunk::default();
                return evicted;
            }
            let mut reader = Reader {
                words: &self.words,
                at: self.head_at,
            };
            self.head = reader.sample(self.head);
            self.head_at = reader.at;
        }
        self.compact();
        evicted
    }

    /// Moves the live words to the front of the stream once the words
    /// before the head are at least as many, and gives back the room
    /// that frees: a cost of at most one word moved per word evicted.
    fn compact(&mut self) {
        let dead = self.head_at as usize / 64;
        let used = (self.end as usize).div_ceil(64);
        if dead == 0 || dead < used - dead {
            return;
        }
        let live = used - dead;
        for index in 0..used {
            let word = if index < live {
                self.words.word(index + dead)
            } else {
                0
            };
            *self.words.word_mut(index) = word;
        }
        let shift = 64 * dead as u32;
        (self.head_at, self.end) = (self.head_at - shift, self.end - shift);
        self.words.shrink_to(live);
    }

    /// Every sample's cursor, oldest first.
    fn cursors(&self) -> impl Iterator<Item = Cursor> + '_ {
        let mut reader = Reader {
            words: &self.words,
            at: self.head_at,
        };
        let mut next = (!self.is_empty()).then_some(self.head);
        std::iter::from_fn(move || {
            let cursor = next?;
            next = (reader.at < self.end).then(|| reader.sample(cursor));
            Some(cursor)
        })
    }

    /// Every sample, oldest first.
    fn samples(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.cursors()
            .map(|c| (SimTime::from_micros(c.time), f64::from_bits(c.value)))
    }

    fn len(&self) -> usize {
        self.cursors().count()
    }
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
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Empty in a free slot, and in a series resolved but not yet
    /// appended to.
    samples: Chunk,
    /// The series' packed tag set, shared with its index key. `None` in
    /// a free slot.
    tags: Option<Arc<[u8]>>,
    /// The series' measurement, an index into [`Table::measurements`].
    measurement: u32,
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
        match self.samples.oldest() {
            Some(oldest) => oldest < cutoff,
            None => self.tags.is_some(),
        }
    }
}

/// One measurement of the index.
#[derive(Debug, Clone, Default)]
struct Measurement {
    name: String,
    /// Packed tag set → slot number, listing exactly the measurement's
    /// live series.
    series: BTreeMap<Arc<[u8]>, u32>,
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
    /// The ordered index, first level: the name of each measurement that
    /// holds a series → its id.
    names: BTreeMap<String, u32>,
    /// The index by measurement id. The id of a measurement whose last
    /// series went is reused.
    measurements: Vec<Measurement>,
    /// Ids in `measurements` free for reuse.
    free_measurements: Vec<u32>,
    slots: Vec<Slot>,
    /// Numbers of the free slots, reused last-released first.
    free: Vec<u32>,
    /// [`resolve`](Self::resolve)'s scratch: the tag set it looks up,
    /// packed.
    packed: Vec<u8>,
    /// A lower bound on every live series' oldest sample, so that a
    /// retention whose cutoff is at or below it has no series to open.
    /// `None` while a series may be registered without samples (and
    /// before the first retention): each store lowers it, each retention
    /// walk sets it to the exact minimum.
    low_water: Option<SimTime>,
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
        let id = match self.names.get(measurement) {
            Some(&id) => id,
            None => self.add_measurement(measurement),
        };
        if let Some(&slot) = self.measurements[id as usize].series.get(&self.packed[..]) {
            let generation = self.slots[slot as usize].generation;
            return SeriesId { slot, generation };
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 series");
                self.slots.push(Slot::default());
                slot
            }
        };
        let tags: Arc<[u8]> = Arc::from(&self.packed[..]);
        self.measurements[id as usize]
            .series
            .insert(Arc::clone(&tags), slot);
        let held = &mut self.slots[slot as usize];
        (held.tags, held.measurement) = (Some(tags), id);
        SeriesId {
            slot,
            generation: held.generation,
        }
    }

    /// Registers `name` in the index, with no series yet, and returns its
    /// id.
    fn add_measurement(&mut self, name: &str) -> u32 {
        let id = match self.free_measurements.pop() {
            Some(id) => id,
            None => {
                self.measurements.push(Measurement::default());
                u32::try_from(self.measurements.len() - 1).expect("fewer than 2^32 measurements")
            }
        };
        let held = &mut self.measurements[id as usize].name;
        held.clear();
        held.push_str(name);
        self.names.insert(name.to_string(), id);
        id
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
        slot.samples.insert(time, value);
        self.points_inserted += 1;
        if let Some(mark) = &mut self.low_water {
            *mark = (*mark).min(time);
        }
        true
    }

    /// Unregisters the series in `slot`: its index entry goes (and its
    /// measurement's, with the last series), every id to it goes stale,
    /// its key and samples are freed, the slot joins the free list.
    /// Returns how many samples it held.
    fn unregister(&mut self, slot: u32) -> usize {
        let held = &mut self.slots[slot as usize];
        let tags = held.tags.take().expect("a live slot holds its name");
        let id = held.measurement as usize;
        held.generation = held.generation.wrapping_add(1);
        let samples = std::mem::take(&mut held.samples).len();
        let measurement = &mut self.measurements[id];
        measurement.series.remove(&tags);
        if measurement.series.is_empty() {
            self.names.remove(&measurement.name);
            self.free_measurements.push(id as u32);
        }
        self.free.push(slot);
        samples
    }

    /// The series of `measurement` — packed tag set and samples — in
    /// tag-set order.
    fn series_of<'a>(
        &'a self,
        measurement: &str,
    ) -> impl Iterator<Item = (&'a [u8], &'a Chunk)> + 'a {
        self.names
            .get(measurement)
            .into_iter()
            .flat_map(move |&id| &self.measurements[id as usize].series)
            .map(move |(packed, &slot)| (&packed[..], &self.slots[slot as usize].samples))
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
        let id = self.table.resolve(measurement);
        if self.table.slots[id.slot as usize].samples.is_empty() {
            // An empty series is due at any cutoff.
            self.table.low_water = None;
        }
        id
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
        let slot = &self.table.slots[id.slot as usize];
        let measurement = &self.table.measurements[slot.measurement as usize].name;
        let mut tags = TagSet::new();
        unpack_tags(
            slot.tags.as_ref().expect("a live slot holds its name"),
            &mut tags,
        );
        if let Some(node) = tags.get(NODE_TAG) {
            let mut feed = self.window.get_mut().group_feed(node, measurement, time);
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
        pack_tags(&mut self.table.packed, tags);
        let id = self.table.resolve(measurement);
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
            pack_tags(&mut self.table.packed, &tags);
            let id = self.table.resolve(batch.measurement());
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
    /// A full scan: every sample of the measurement is decoded and then
    /// filtered. The scheduler reads Listing 1 off the
    /// [`window`](Self::window) instead, which is held to this, by bits.
    pub fn query(&self, select: &Select, now: SimTime) -> Vec<Row> {
        select.execute(self, now)
    }

    /// Every series of `measurement` with all its samples, in tag-set
    /// order and, within a series, in timestamp order (stable for equal
    /// timestamps).
    pub(crate) fn scan(&self, measurement: &str) -> Vec<(TagSet, Vec<(SimTime, f64)>)> {
        self.table
            .series_of(measurement)
            .map(|(packed, series)| {
                let mut tags = TagSet::new();
                unpack_tags(packed, &mut tags);
                (tags, series.samples().collect())
            })
            .collect()
    }

    /// Drops every sample older than `keep` relative to `now`, across all
    /// series and the window, and removes series that become empty.
    /// Returns the number of samples evicted. This is the
    /// retention-policy enforcement a real InfluxDB runs continuously.
    ///
    /// Costs nothing per series while the cutoff is at or below the
    /// store's low-water mark (a lower bound on every series' oldest
    /// sample, kept by each write and set by each walk), and otherwise
    /// one comparison per series plus the samples evicted: a series
    /// whose oldest sample is inside the retention is not opened, and one
    /// that is decodes the samples it loses and one more. A series left
    /// empty is unregistered through its slot's key, in O(log series).
    /// The window is trimmed either way.
    pub fn enforce_retention(&mut self, now: SimTime, keep: SimDuration) -> usize {
        let cutoff = TimeBound::SinceNowMinus(keep).resolve(now);
        let mut evicted = 0;
        if self.table.low_water.is_none_or(|mark| cutoff > mark) {
            let mut low_water = SimTime::MAX;
            for n in 0..self.table.slots.len() {
                let slot = &mut self.table.slots[n];
                if slot.due(cutoff) {
                    evicted += slot.samples.evict_before(cutoff);
                    if slot.samples.is_empty() {
                        self.table.unregister(n as u32);
                        continue;
                    }
                }
                if let Some(oldest) = slot.samples.oldest() {
                    low_water = low_water.min(oldest);
                }
            }
            self.table.low_water = Some(low_water);
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
            .names
            .values()
            .flat_map(|&id| {
                self.table.measurements[id as usize]
                    .series
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
        let series = |&id: &u32| self.table.measurements[id as usize].series.len();
        self.table.names.values().map(series).sum()
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
        self.table.names.keys().map(String::as_str).collect()
    }

    /// Every stored sample as a [`Point`]: measurements in name order,
    /// the series of each in [`TagSet`] order, a series' samples in time
    /// order. A store rebuilt from them through [`Extend`] answers every
    /// query as this one does.
    pub fn points(&self) -> Vec<Point> {
        let mut points = Vec::with_capacity(self.point_count());
        let mut tags = TagSet::new();
        for measurement in self.table.names.keys() {
            for (packed, series) in self.table.series_of(measurement) {
                unpack_tags(packed, &mut tags);
                for (time, value) in series.samples() {
                    let mut point = Point::new(measurement.clone(), time, value);
                    for (k, v) in &tags {
                        point = point.with_tag(k.clone(), v.clone());
                    }
                    points.push(point);
                }
            }
        }
        points
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
        let before = (db.points(), db.points_inserted());
        for stale in [aged, dropped] {
            assert!(!db.append(stale, SimTime::from_secs(100), 9.0));
        }
        assert_eq!((db.points(), db.points_inserted()), before);
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
    fn a_series_resolved_after_a_walk_goes_with_the_next_retention() {
        let mut db = Database::new();
        db.insert(epc_point(100, "a", "n1", 1.0));
        // The walk leaves the mark at the oldest sample, 100 s.
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(110), SimDuration::from_secs(60)),
            0
        );
        db.resolve("sgx/epc", &pod_tags("idle", "n1"));
        assert_eq!(db.series_count(), 2);
        // A cutoff of 60 s is below every sample, and the empty series
        // is due all the same.
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(120), SimDuration::from_secs(60)),
            0
        );
        assert_eq!(db.series_count(), 1);
    }

    #[test]
    fn a_delayed_sample_below_the_mark_is_evicted_when_retention_passes_it() {
        let mut db = Database::new();
        db.insert(epc_point(100, "a", "n1", 1.0));
        db.insert(epc_point(110, "a", "n1", 2.0));
        // The walk leaves the mark at the oldest sample, 100 s…
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(110), SimDuration::from_secs(60)),
            0
        );
        // …a delayed frame lands below it…
        db.insert(epc_point(70, "a", "n1", 3.0));
        // …and a cutoff of 80 s, below the old mark, evicts exactly it.
        assert_eq!(
            db.enforce_retention(SimTime::from_secs(140), SimDuration::from_secs(60)),
            1
        );
        assert_eq!(db.point_count(), 2);
        assert_eq!(db.points_evicted(), 1);
    }

    fn probe_value(uid: u64) -> f64 {
        ((uid % 97 + 1) * 4096) as f64
    }

    /// A probe series' tags, named the way `fullscale_autoscale` names
    /// them: fifty pods a node over 490 nodes.
    fn autoscale_tags(pod: u64) -> TagSet {
        pod_tags(
            &format!("pod-{pod}"),
            &format!("as-sgx-{:05}", pod / 50 % 490),
        )
    }

    /// `steady_static`'s population under turnover: 60 nodes × 140 pods,
    /// each node's oldest pod replaced by a fresh one every 10 s tick,
    /// every pod scraped (a third of the nodes point by point, a third as
    /// one frame, a third by resolved id), then a 15-minute retention. A
    /// pod's series goes once its last sample ages out, so the store
    /// holds exactly the pods sampled in the last 91 ticks.
    #[test]
    fn a_store_under_turnover_keeps_exactly_the_series_inside_the_retention() {
        const NODES: u64 = 60;
        const PODS: u64 = 140;
        const PER_TICK: u64 = NODES * PODS;
        let (period, keep) = (SimDuration::from_secs(10), SimDuration::from_mins(15));
        let kept_ticks = keep.as_secs() / period.as_secs() + 1;
        let mut nodes: Vec<Vec<(u64, Option<SeriesId>)>> = (0..NODES)
            .map(|n| (0..PODS).map(|p| (n * PODS + p, None)).collect())
            .collect();
        let mut next_uid = PER_TICK;
        let mut db = Database::new();
        for tick in 1..=kept_ticks + 10 {
            let now = SimTime::from_secs(tick * period.as_secs());
            for (n, pods) in nodes.iter_mut().enumerate() {
                pods.remove(0);
                pods.push((next_uid, None));
                next_uid += 1;
                let node = format!("node-{n}");
                match n % 3 {
                    0 => {
                        for &(uid, _) in pods.iter() {
                            let pod = format!("pod-{uid}");
                            db.insert(epc_point(now.as_secs(), &pod, &node, probe_value(uid)));
                        }
                    }
                    1 => {
                        let mut batch = crate::PointBatch::new("sgx/epc", "pod_name", now)
                            .with_shared_tag("nodename", node);
                        for &(uid, _) in pods.iter() {
                            batch.push(format!("pod-{uid}"), probe_value(uid));
                        }
                        db.insert_batch(&batch);
                    }
                    _ => {
                        for (uid, series) in pods.iter_mut() {
                            let value = probe_value(*uid);
                            if series.is_none_or(|id| !db.append(id, now, value)) {
                                let id =
                                    db.resolve("sgx/epc", &pod_tags(&format!("pod-{uid}"), &node));
                                assert!(db.append(id, now, value));
                                *series = Some(id);
                            }
                        }
                    }
                }
            }
            db.enforce_retention(now, keep);
            // The ticks still inside the retention, each 8,400 samples;
            // 60 pods of each but the oldest joined that tick.
            let held = tick.min(kept_ticks);
            assert_eq!(
                db.series_count() as u64,
                PER_TICK + NODES * (held - 1),
                "tick {tick}"
            );
            assert_eq!(db.points_evicted(), PER_TICK * (tick - held), "tick {tick}");
        }
        assert_eq!(db.point_count() as u64, PER_TICK * kept_ticks);
    }

    /// Series born and dying at `fullscale_autoscale`'s population: pod
    /// `p` is sampled once, at `p` s, on its first scrape, and a
    /// retention keeping 24,000 s runs before every 1,000th pod past the
    /// first 24,000. The store holds exactly the pods since the last
    /// cutoff — never more than 25,000.
    #[test]
    fn series_created_among_24_000_live_ones_go_with_the_next_retention() {
        const LIVE: u64 = 24_000;
        let mut db = Database::new();
        let mut cutoff = 0;
        for pod in 0..LIVE + 3_500 {
            if pod > LIVE && pod.is_multiple_of(1_000) {
                let evicted =
                    db.enforce_retention(SimTime::from_secs(pod), SimDuration::from_secs(LIVE));
                assert_eq!(evicted, 1_000);
                cutoff = pod - LIVE;
            }
            let id = db.resolve("sgx/epc", &autoscale_tags(pod));
            assert!(db.append(id, SimTime::from_secs(pod), probe_value(pod)));
            assert_eq!(db.series_count() as u64, pod + 1 - cutoff, "pod {pod}");
        }
    }

    /// A retention that empties 1 % of 20,000 series, round after round:
    /// each round names 200 new series, which move into the slots the
    /// last round freed, and its retention removes exactly those 200 and
    /// leaves the 19,800 long-lived ones (sampled past every cutoff).
    #[test]
    fn a_retention_emptying_200_of_20_000_series_removes_exactly_those_200() {
        const LIVE: u64 = 20_000;
        const EMPTIED: u64 = LIVE / 100;
        let far = SimTime::from_secs(1 << 40);
        let mut db = Database::new();
        for pod in 0..LIVE - EMPTIED {
            let id = db.resolve("sgx/epc", &autoscale_tags(pod));
            assert!(db.append(id, far, probe_value(pod)));
        }
        for round in 1..=3 {
            for pod in LIVE * round..LIVE * round + EMPTIED {
                let id = db.resolve("sgx/epc", &autoscale_tags(pod));
                assert!(db.append(id, SimTime::from_secs(round), probe_value(pod)));
            }
            assert_eq!(db.series_count() as u64, LIVE);
            assert_eq!(db.table.slots.len() as u64, LIVE, "round {round}");
            let evicted =
                db.enforce_retention(SimTime::from_secs(round + 2), SimDuration::from_secs(1));
            assert_eq!(evicted as u64, EMPTIED, "round {round}");
            assert_eq!(db.series_count() as u64, LIVE - EMPTIED, "round {round}");
            assert_eq!(db.point_count() as u64, LIVE - EMPTIED, "round {round}");
        }
    }

    /// The samples `chunk` holds, times in microseconds and values by
    /// their bits.
    fn raw(chunk: &Chunk) -> Vec<(u64, u64)> {
        chunk.cursors().map(|c| (c.time, c.value)).collect()
    }

    #[test]
    fn a_probe_series_costs_two_bits_a_sample() {
        let mut chunk = Chunk::default();
        for tick in 0..100 {
            chunk.insert(SimTime::from_secs(10 * tick), 4096.0);
        }
        // The first gap is a change from 0: a 25-bit bucket behind `110`,
        // then one bit for the repeated value. Every later sample repeats
        // both, in a bit each.
        assert_eq!(chunk.end, 3 + 25 + 1 + 98 * 2);
        // Four words, the first inline: three spilled, held in four.
        assert_eq!(chunk.words.rest.len(), 4);
        assert_eq!(chunk.len(), 100);
    }

    #[test]
    fn every_bucket_and_value_shape_round_trips() {
        let gaps = [
            0,
            1,
            64,
            65,
            1 << 24,
            (1 << 24) + 65,
            1 << 35,
            (1 << 36) + 1,
            1 << 50,
            3,
            u64::from(u32::MAX) + 7,
            u64::from(u32::MAX) + 7,
            (1 << 62) + 5,
            0,
        ];
        let values = [
            0.0,
            -0.0,
            5e-324,
            -f64::MAX,
            f64::MAX,
            f64::MIN_POSITIVE,
            -1.0,
            1.0,
            1.0,
            0.1,
            -0.1,
            f64::MIN_POSITIVE / 7.0,
            -0.0,
            -0.0,
        ];
        let mut chunk = Chunk::default();
        let mut expected = Vec::new();
        let mut time = 1_000;
        for (gap, value) in gaps.iter().zip(values) {
            time += gap;
            chunk.insert(SimTime::from_micros(time), value);
            expected.push((time, value.to_bits()));
            assert_eq!(raw(&chunk), expected);
        }
        // The evicting decoder walks the same stream.
        while let Some(&(oldest, _)) = expected.first() {
            assert_eq!(
                chunk.evict_before(SimTime::from_micros(oldest + 1)),
                1 + expected
                    .iter()
                    .skip(1)
                    .take_while(|&&(t, _)| t == oldest)
                    .count()
            );
            expected.retain(|&(t, _)| t > oldest);
            assert_eq!(raw(&chunk), expected);
        }
        assert!(chunk.is_empty());
    }

    #[test]
    fn delayed_and_equal_time_samples_land_after_their_equals() {
        let mut chunk = Chunk::default();
        for (t, v) in [
            (10, 1.0),
            (20, 2.0),
            (30, 3.0),
            (20, 4.0),
            (5, 5.0),
            (30, 6.0),
        ] {
            chunk.insert(SimTime::from_secs(t), v);
        }
        let got: Vec<(u64, f64)> = chunk.samples().map(|(t, v)| (t.as_secs(), v)).collect();
        assert_eq!(
            got,
            [
                (5, 5.0),
                (10, 1.0),
                (20, 2.0),
                (20, 4.0),
                (30, 3.0),
                (30, 6.0)
            ]
        );
    }

    #[test]
    fn a_series_that_loses_a_sample_a_tick_stays_small() {
        let mut chunk = Chunk::default();
        for tick in 0..90 {
            chunk.insert(SimTime::from_secs(10 * tick), 1.5);
        }
        let words = |chunk: &Chunk| 1 + chunk.words.rest.len();
        let mut widest = 0;
        for tick in 90..20_000 {
            chunk.insert(SimTime::from_secs(10 * tick), 1.5);
            let cutoff = SimTime::from_secs(10 * (tick - 89));
            assert_eq!(chunk.evict_before(cutoff), 1);
            widest = widest.max(words(&chunk));
        }
        assert_eq!(chunk.len(), 90);
        // 90 samples take three words. The stream moves them to its front
        // once as many words are dead, and its room is given back once
        // twice what is used: it peaks at the inline word and eight.
        assert!(widest <= 9, "{widest} words");
        assert_eq!(chunk.oldest(), Some(SimTime::from_secs(10 * (20_000 - 90))));
    }

    #[test]
    fn a_slot_is_104_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 104);
    }

    #[test]
    fn extend_inserts_all() {
        let mut db = Database::new();
        db.extend((0..5).map(|t| epc_point(t, "a", "n1", 1.0)));
        assert_eq!(db.point_count(), 5);
    }

    #[test]
    fn points_lists_every_sample_by_measurement_series_and_time_bit_for_bit() {
        let subnormal = f64::from_bits(1);
        let usage =
            |t, v| Point::new("memory/usage", SimTime::from_secs(t), v).with_tag("pod_name", "a");
        // Written out of the order the listing must put them in.
        let written = [
            epc_point(7, "b", "n2", subnormal),
            usage(3, -0.0),
            epc_point(5, "b", "n2", 0.0),
            epc_point(6, "a", "n1", -0.0),
            epc_point(2, "a", "n1", subnormal),
            usage(1, 0.0),
        ];
        let mut db = Database::new();
        db.extend(written.iter().cloned());

        // Measurement, then series (`nodename` is the first tag), then time.
        let expected = [5, 1, 4, 3, 2, 0].map(|i| written[i].clone());
        let listed = db.points();
        assert_eq!(listed, expected);
        let bits =
            |points: &[Point]| -> Vec<u64> { points.iter().map(|p| p.value().to_bits()).collect() };
        assert_eq!(bits(&listed), bits(&expected));
        // A sign flip is a different point.
        assert_ne!(usage(3, -0.0), usage(3, 0.0));
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

        let mut rebuilt = Database::new();
        rebuilt.extend(db.points());
        assert_window_is_listing1(&rebuilt, 45, "a store rebuilt from points()");
        assert_eq!(rebuilt.window().floor(), SimTime::ZERO);
    }

    #[test]
    fn a_scrape_in_any_row_order_keeps_the_window_equal_to_listing_1() {
        // 40 pods on one node, so names cross a digit count (pod-9,
        // pod-10) and name order is not uid order.
        let in_order: Vec<u32> = (1..=40).collect();
        let reversed = in_order.iter().rev().copied().collect();
        let shuffled = (1..=40).map(|uid| uid * 17 % 41).collect();
        let orders = [in_order, reversed, shuffled];
        let mut db = Database::new();
        for (tick, order) in orders.iter().cycle().take(9).enumerate() {
            let t = 10 * (tick as u64 + 1);
            let mut rows = db.scrape("n1", "sgx/epc", SimTime::from_secs(t));
            for &uid in order {
                // Four pods finish a tick; their samples stay in the
                // window until it slides past them.
                if uid > 4 * tick as u32 {
                    let value = f64::from(uid) * 0.1 + (tick % 4) as f64 * 0.01;
                    rows.append(&format!("pod-{uid}"), value);
                }
            }
            assert_window_is_listing1(&db, t + 5, &format!("tick {tick}"));
        }
    }
}
