//! Listing 1 as a continuous query: a per-group sliding-window rollup
//! maintained where the samples arrive.
//!
//! The paper's scheduler reads one number per node and measurement — the
//! `SUM` over pods of each pod's `MAX` over the last 25 s, zeros dropped
//! (Listing 1). Evaluating that from the store walks every series the
//! node still has inside the retention; a [`WindowRollup`] is fed the
//! rows the store ingests and keeps, per `(group, measurement)`, only
//! the samples a window query can still admit, so reading a group's
//! value costs O(in-window samples of that group) and touches no series.
//! Every [`Database`](crate::Database) maintains one (its
//! [`window`](crate::Database::window)), fed by every write, trimmed by
//! its retention and told when a node's series are dropped; this type
//! is also usable on its own, fed [`PointBatch`] frames.
//!
//! # Exactness
//!
//! [`sum_of_max`](WindowRollup::sum_of_max) replicates the engine's fold
//! operation for operation: the window admits `time >= lo` with no upper
//! bound, `value == 0` is dropped at the door, a member's `MAX` starts
//! from `f64::MIN`, a member with no admitted sample contributes no
//! term, and the group's `SUM` starts from `0.0` and adds members in
//! member-name order — the order of the engine's projected
//! `{group, member}` tag sets, where a series without the member tag
//! projects onto the bare group and sorts first. `MAX` is
//! order-insensitive over the finite non-zero values the store admits,
//! so arrival order, duplicate instants and the same member twice in one
//! frame cannot change a bit of the result.
//!
//! Two rules decide what is kept:
//!
//! * **Trim** — [`trim`](WindowRollup::trim) drops every sample older
//!   than a bound and remembers the highest bound as the
//!   [`floor`](WindowRollup::floor). The rollup answers exactly for any
//!   `lo >= floor`; a reader that needs an older window must evaluate
//!   the store. Samples arriving below the floor (delayed frames) are
//!   dropped on arrival. The bound is the reader's window bound or the
//!   store's retention cutoff — never the newest sample's time, which
//!   would be wrong for a reader whose `now` precedes it.
//! * **Dominance** — a sample is dropped when the same member holds
//!   another at least as new and at least as large: every window that
//!   admits the older one admits the newer one too, so it can never
//!   decide a `MAX`. A member with steady usage therefore holds one
//!   sample, not one per scrape in the window.
//!
//! # Cost of a row
//!
//! A group's members sit in one vector sorted by name. A frame's rows
//! are admitted one by one, and each row's member search starts at the
//! slot after the previous row's member: it probes that slot, gallops
//! forward (1, 3, 7, … slots on) and binary-searches the bracket it
//! finds, or binary-searches the prefix when the member lies behind.
//! A probe ships a node's pods in uid order, which agrees with name
//! order within one digit count (`pod-9` sorts after `pod-10`), so the
//! next member is usually found in one or two compares.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use des::SimTime;

use crate::batch::PointBatch;
use crate::storage::SeriesId;

type Sample = (SimTime, f64);

/// The tag Listing 1 groups by (one row a node) and the one its inner
/// query adds (one member a pod): how the probes tag every series.
pub(crate) const NODE_TAG: &str = "nodename";
pub(crate) const POD_TAG: &str = "pod_name";

/// A vector of up to `N` (≤ 255) elements stored in place, spilling to
/// the heap beyond that. Members are many and small — one per running
/// pod, a short name and (steady usage, see the dominance rule) one
/// sample — so keeping both inside the member's slot of its window's
/// flat vector saves two allocations per pod. 16 and 24 bytes for the
/// two uses below.
#[derive(Debug, Clone)]
enum Small<T, const N: usize> {
    Inline {
        len: u8,
        buf: [T; N],
    },
    // Boxed on purpose: a bare `Vec` is three words and would widen
    // every slot to 32 bytes for the sake of the rare spilled one.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<T>>),
}

impl<T: Copy + Default, const N: usize> Small<T, N> {
    fn from_slice(items: &[T]) -> Self {
        if items.len() > N {
            return Small::Spilled(Box::new(items.to_vec()));
        }
        let mut buf = [T::default(); N];
        buf[..items.len()].copy_from_slice(items);
        Small::Inline {
            len: items.len() as u8,
            buf,
        }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Small::Inline { len, buf } => &buf[..usize::from(*len)],
            Small::Spilled(items) => items,
        }
    }

    fn push(&mut self, item: T) {
        match self {
            Small::Inline { len, buf } if usize::from(*len) < N => {
                buf[usize::from(*len)] = item;
                *len += 1;
            }
            Small::Inline { buf, .. } => {
                let mut items = buf.to_vec();
                items.push(item);
                *self = Small::Spilled(Box::new(items));
            }
            Small::Spilled(items) => items.push(item),
        }
    }

    fn retain(&mut self, keep: impl Fn(&T) -> bool) {
        match self {
            Small::Inline { len, buf } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Small::Spilled(items) => {
                items.retain(keep);
                if items.len() <= N {
                    *self = Small::from_slice(items);
                }
            }
        }
    }
}

/// One member (pod) of a group with its undominated in-window samples,
/// in no particular order.
#[derive(Debug, Clone)]
struct MemberWindow {
    /// The member tag's value as bytes (`pod-<uid>` fits in place up to
    /// ten digits; byte order is `str` order). `None` stands for series
    /// that carry no member tag, which the engine folds into one row
    /// sorting first.
    member: Option<Small<u8, 14>>,
    samples: Small<Sample, 1>,
    /// The series a [`Scrape`](crate::Scrape) last wrote this member's
    /// rows through: a memo of the store's resolver, generation-checked
    /// on use, so a pod scraped tick after tick is written by id.
    series: Option<SeriesId>,
}

/// One measurement of one group: its members in name order, flat.
#[derive(Debug, Clone)]
struct MeasurementWindow {
    measurement: Box<str>,
    members: Vec<MemberWindow>,
}

/// Group value → its measurements (a handful; searched linearly).
type Groups = BTreeMap<String, Vec<MeasurementWindow>>;

/// The ingest-side state of the nested `SUM(MAX(..))` window query. See
/// the module docs.
///
/// # Examples
///
/// ```
/// use des::SimTime;
/// use tsdb::{PointBatch, WindowRollup};
///
/// let mut rollup = WindowRollup::new("nodename", "pod_name");
/// for (t, pod_a, pod_b) in [(10, 500.0, 300.0), (20, 700.0, 0.0)] {
///     let mut frame = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(t))
///         .with_shared_tag("nodename", "node-1");
///     frame.push("pod-a", pod_a);
///     frame.push("pod-b", pod_b);
///     rollup.feed(&frame);
/// }
/// let epc = |lo| rollup.sum_of_max("node-1", "sgx/epc", SimTime::from_secs(lo));
/// // max(pod-a) = 700 + max(pod-b) = 300 over a window reaching back to 5 s…
/// assert_eq!(epc(5), 1000.0);
/// // …and pod-b's only non-zero sample has left one that starts at 15 s.
/// assert_eq!(epc(15), 700.0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowRollup {
    /// Tag of the outer `GROUP BY` (`nodename`).
    group_tag: String,
    /// The tag the inner `GROUP BY` adds (`pod_name`).
    member_tag: String,
    /// Holds no empty group, measurement or member.
    groups: Groups,
    /// Highest bound ever trimmed to; no held sample is older.
    floor: SimTime,
    /// Samples examined by reads so far.
    folded: Cell<u64>,
}

impl WindowRollup {
    /// An empty rollup of `SUM(MAX(value)) GROUP BY member_tag, group_tag`
    /// re-grouped `BY group_tag`.
    pub fn new(group_tag: impl Into<String>, member_tag: impl Into<String>) -> Self {
        WindowRollup {
            group_tag: group_tag.into(),
            member_tag: member_tag.into(),
            groups: BTreeMap::new(),
            floor: SimTime::ZERO,
            folded: Cell::new(0),
        }
    }

    /// Admits the rows of one frame, as a [`Database`](crate::Database)
    /// does with every frame it ingests. Rows that are zero, older than
    /// the floor, or without a group tag (the outer query yields them no
    /// group row) are dropped.
    pub fn feed(&mut self, batch: &PointBatch) {
        let shared = |tag: &str| batch.shared_tags().get(tag).map(String::as_str);
        let shared_member = shared(&self.member_tag);
        let (measurement, time) = (batch.measurement(), batch.time());
        if batch.row_tag_key() == self.group_tag {
            for row in batch.rows() {
                self.group_feed(&row.tag_value, measurement, time)
                    .admit(shared_member, row.value);
            }
        } else if let Some(group) = shared(&self.group_tag) {
            // What the probes ship: one group per frame, rows told apart
            // by member.
            let row_is_member = batch.row_tag_key() == self.member_tag;
            let mut feed = self.group_feed(group, measurement, time);
            for row in batch.rows() {
                let member = if row_is_member {
                    Some(row.tag_value.as_str())
                } else {
                    shared_member
                };
                feed.admit(member, row.value);
            }
        }
    }

    /// [`feed`](Self::feed) for a writer that holds its rows unframed:
    /// opens `group`'s share of one frame of `measurement` sampled at
    /// `time`, to be [`admit`](GroupFeed::admit)ted row by row with the
    /// same outcome as feeding the frame.
    pub(crate) fn group_feed<'a>(
        &'a mut self,
        group: &'a str,
        measurement: &'a str,
        time: SimTime,
    ) -> GroupFeed<'a> {
        GroupFeed {
            groups: (time >= self.floor).then_some(&mut self.groups),
            window: None,
            hint: 0,
            group,
            measurement,
            time,
        }
    }

    /// The group's `SUM` over members of each member's `MAX` over its
    /// samples with `time >= lo` — bit-identical to the nested query's
    /// row for the group when `lo >= floor()`; `0.0` when the query would
    /// return no row.
    pub fn sum_of_max(&self, group: &str, measurement: &str, lo: SimTime) -> f64 {
        let Some(window) = self
            .groups
            .get(group)
            .and_then(|windows| windows.iter().find(|w| &*w.measurement == measurement))
        else {
            return 0.0;
        };
        let mut folded = 0;
        let mut total = 0.0;
        for member in &window.members {
            let samples = member.samples.as_slice();
            folded += samples.len() as u64;
            let mut max = f64::MIN;
            let mut admitted = false;
            for &(time, value) in samples {
                if time >= lo {
                    max = max.max(value);
                    admitted = true;
                }
            }
            if admitted {
                total += max;
            }
        }
        self.folded.set(self.folded.get() + folded);
        total
    }

    /// Drops every sample older than `bound` and raises the floor to it.
    /// A bound at or below the floor is a no-op.
    pub fn trim(&mut self, bound: SimTime) {
        if bound <= self.floor {
            return;
        }
        self.floor = bound;
        self.groups.retain(|_, windows| {
            windows.retain_mut(|window| {
                window.members.retain_mut(|member| {
                    member.samples.retain(|&(time, _)| time >= bound);
                    !member.samples.as_slice().is_empty()
                });
                !window.members.is_empty()
            });
            !windows.is_empty()
        });
    }

    /// Drops everything held for `group` — the counterpart of
    /// [`Database::drop_series_with_first_tag`](crate::Database::drop_series_with_first_tag),
    /// which reaches the same series as long as the group tag sorts first
    /// in their tag sets (`nodename` before `pod_name`).
    pub fn forget(&mut self, group: &str) {
        self.groups.remove(group);
    }

    /// The groups that hold at least one sample, ascending — exactly the
    /// groups some window with `lo >= floor()` still reads non-empty.
    pub fn groups(&self) -> impl Iterator<Item = &str> {
        self.groups.keys().map(String::as_str)
    }

    /// The highest bound trimmed to so far: values are exact for any
    /// `lo` at or above it.
    pub fn floor(&self) -> SimTime {
        self.floor
    }

    /// The rollup's gauges (counted on demand: a walk over what is held)
    /// and work counter.
    pub fn stats(&self) -> RollupStats {
        RollupStats {
            groups: self.groups.len(),
            samples_held: self
                .groups
                .values()
                .flatten()
                .flat_map(|window| &window.members)
                .map(|member| member.samples.as_slice().len())
                .sum(),
            samples_folded: self.folded.get(),
        }
    }
}

impl Default for WindowRollup {
    /// Listing 1's rollup, the one a [`Database`](crate::Database)
    /// maintains: nodes by `nodename`, their pods by `pod_name`.
    fn default() -> Self {
        WindowRollup::new(NODE_TAG, POD_TAG)
    }
}

/// Size and work counters of a [`WindowRollup`]; all are pure functions
/// of the frames fed and the reads made, so they repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollupStats {
    /// Groups holding at least one sample.
    pub groups: usize,
    /// Samples held right now, across all groups.
    pub samples_held: usize,
    /// Samples [`WindowRollup::sum_of_max`] has examined so far.
    pub samples_folded: u64,
}

/// One group's rows of one frame on their way into a [`WindowRollup`];
/// see [`WindowRollup::group_feed`]. The group's window is looked up
/// once, by the first row that is kept, so a frame of zeros (or none)
/// creates nothing. The feed remembers where its previous row's member
/// sits, and each row's member search starts there: a node's rows come
/// in uid order and its members in name order, which agree within one
/// digit count, so the next member is usually the next slot.
#[derive(Debug)]
pub(crate) struct GroupFeed<'a> {
    /// The rollup's groups until the first kept row opens the window;
    /// `None` from the start for a frame below the floor, which is
    /// dropped whole.
    groups: Option<&'a mut Groups>,
    window: Option<&'a mut MeasurementWindow>,
    /// The slot after the previous kept row's member.
    hint: usize,
    pub(crate) group: &'a str,
    pub(crate) measurement: &'a str,
    pub(crate) time: SimTime,
}

impl GroupFeed<'_> {
    /// Admits one row: `member` is the row's member-tag value (`None`
    /// for a series without the tag). Zeros are dropped. Returns the
    /// member's series memo, unless the row was dropped.
    pub(crate) fn admit(
        &mut self,
        member: Option<&str>,
        value: f64,
    ) -> Option<&mut Option<SeriesId>> {
        if value == 0.0 {
            return None;
        }
        if let Some(groups) = self.groups.take() {
            self.window = Some(window_of(groups, self.group, self.measurement));
        }
        let window = self.window.as_mut()?;
        Some(window.admit(member, (self.time, value), &mut self.hint))
    }
}

/// The window of `(group, measurement)`, created on first contact.
fn window_of<'a>(
    groups: &'a mut Groups,
    group: &str,
    measurement: &str,
) -> &'a mut MeasurementWindow {
    // A lookup before `entry`: `entry` would clone the group name on
    // every frame, present or not.
    if !groups.contains_key(group) {
        groups.insert(group.to_string(), Vec::new());
    }
    let windows = groups.get_mut(group).expect("inserted above");
    let at = windows
        .iter()
        .position(|w| &*w.measurement == measurement)
        .unwrap_or_else(|| {
            windows.push(MeasurementWindow {
                measurement: measurement.into(),
                members: Vec::new(),
            });
            windows.len() - 1
        });
    &mut windows[at]
}

/// Where `member` is in `members` (sorted by name, each name once),
/// exactly as [`binary_search_by`](slice::binary_search_by) reports it,
/// searched from the slot `hint`. A name at the hint costs one compare.
/// One past it is galloped to: probes at `hint + 1`, `hint + 3`,
/// `hint + 7`, … up to a member at or past the name (or the end), then
/// a binary search of that bracket. One before it costs a compare with
/// the slot before the hint, then a binary search of the prefix.
fn gallop(members: &[MemberWindow], member: Option<&[u8]>, hint: usize) -> Result<usize, usize> {
    let cmp = |held: &MemberWindow| held.member.as_ref().map(Small::as_slice).cmp(&member);
    let search = |lo: usize, hi: usize| {
        members[lo..hi]
            .binary_search_by(cmp)
            .map(|at| lo + at)
            .map_err(|at| lo + at)
    };
    let hint = hint.min(members.len());
    match members.get(hint).map(cmp) {
        Some(Ordering::Equal) => Ok(hint),
        Some(Ordering::Less) => {
            let (mut lo, mut step) = (hint + 1, 1);
            loop {
                let probe = hint + 2 * step - 1;
                match members.get(probe).map(cmp) {
                    None => return search(lo, members.len()),
                    Some(Ordering::Less) => (lo, step) = (probe + 1, 2 * step),
                    Some(Ordering::Equal) => return Ok(probe),
                    Some(Ordering::Greater) => return search(lo, probe),
                }
            }
        }
        Some(Ordering::Greater) | None => match hint.checked_sub(1) {
            None => Err(0),
            Some(before) => match cmp(&members[before]) {
                Ordering::Less => Err(hint),
                Ordering::Equal => Ok(before),
                Ordering::Greater => search(0, before),
            },
        },
    }
}

impl MeasurementWindow {
    /// Admits one non-zero sample for `member` under the dominance rule;
    /// returns the member's series memo. The member is searched for from
    /// the slot `hint` (see [`gallop`]), which is left at the slot after
    /// it.
    fn admit(
        &mut self,
        member: Option<&str>,
        (time, value): Sample,
        hint: &mut usize,
    ) -> &mut Option<SeriesId> {
        let member = member.map(str::as_bytes);
        let at = match gallop(&self.members, member, *hint) {
            Ok(at) => at,
            Err(at) => {
                self.members.insert(
                    at,
                    MemberWindow {
                        member: member.map(Small::from_slice),
                        samples: Small::from_slice(&[]),
                        series: None,
                    },
                );
                at
            }
        };
        *hint = at + 1;
        let held = &mut self.members[at];
        let dominated = |&(t, v): &Sample| t >= time && v >= value;
        if !held.samples.as_slice().iter().any(dominated) {
            held.samples.retain(|&(t, v)| !(t <= time && v <= value));
            held.samples.push((time, value));
        }
        &mut held.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(node: &str, t: u64, rows: &[(&str, f64)]) -> PointBatch {
        let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(t))
            .with_shared_tag("nodename", node);
        for &(pod, value) in rows {
            batch.push(pod, value);
        }
        batch
    }

    fn rollup() -> WindowRollup {
        WindowRollup::new("nodename", "pod_name")
    }

    fn value(rollup: &WindowRollup, node: &str, lo: u64) -> f64 {
        rollup.sum_of_max(node, "sgx/epc", SimTime::from_secs(lo))
    }

    #[test]
    fn zeros_and_untagged_frames_leave_no_trace() {
        let mut r = rollup();
        r.feed(&frame("n1", 10, &[("a", 0.0), ("b", -0.0)]));
        r.feed(&frame("n1", 10, &[]));
        let mut untagged = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(10));
        untagged.push("a", 5.0);
        r.feed(&untagged);
        assert_eq!(r.groups().count(), 0);
        assert_eq!(r.stats().samples_held, 0);
        assert_eq!(value(&r, "n1", 0), 0.0);
    }

    #[test]
    fn dominated_samples_are_not_held() {
        let mut r = rollup();
        // Steady usage: each scrape supersedes the previous one.
        for t in [10, 20, 30] {
            r.feed(&frame("n1", t, &[("a", 4096.0)]));
        }
        assert_eq!(r.stats().samples_held, 1);
        assert_eq!(value(&r, "n1", 25), 4096.0);
        // Falling usage: the older, larger samples still decide windows
        // that reach back to them.
        r.feed(&frame("n1", 40, &[("a", 1024.0)]));
        assert_eq!(r.stats().samples_held, 2);
        assert_eq!(value(&r, "n1", 30), 4096.0);
        assert_eq!(value(&r, "n1", 35), 1024.0);
        // A delayed, smaller sample older than a held one is dominated.
        r.feed(&frame("n1", 15, &[("a", 100.0)]));
        assert_eq!(r.stats().samples_held, 2);
        // A delayed larger one is kept and decides older windows only.
        r.feed(&frame("n1", 15, &[("a", 9000.0)]));
        assert_eq!(value(&r, "n1", 10), 9000.0);
        assert_eq!(value(&r, "n1", 20), 4096.0);
    }

    #[test]
    fn falling_usage_spills_past_the_inline_capacity_and_back() {
        let mut r = rollup();
        for step in 0..8u64 {
            r.feed(&frame("n1", 10 + step, &[("a", (100 - step) as f64)]));
        }
        assert_eq!(r.stats().samples_held, 8);
        assert_eq!(value(&r, "n1", 0), 100.0);
        assert_eq!(value(&r, "n1", 15), 95.0);
        r.trim(SimTime::from_secs(16));
        assert_eq!(r.stats().samples_held, 2);
        assert_eq!(value(&r, "n1", 16), 94.0);
        r.trim(SimTime::from_secs(17));
        assert_eq!(r.stats().samples_held, 1);
        assert_eq!(value(&r, "n1", 17), 93.0);
        // Back in place, the member takes new samples as before.
        r.feed(&frame("n1", 30, &[("a", 50.0)]));
        assert_eq!(value(&r, "n1", 17), 93.0);
        assert_eq!(value(&r, "n1", 20), 50.0);
    }

    #[test]
    fn trim_raises_the_floor_and_unregisters_what_ran_empty() {
        let mut r = rollup();
        r.feed(&frame("n1", 10, &[("a", 1.0)]));
        r.feed(&frame("n2", 30, &[("b", 2.0)]));
        r.trim(SimTime::from_secs(20));
        assert_eq!(r.floor(), SimTime::from_secs(20));
        assert_eq!(r.groups().collect::<Vec<_>>(), ["n2"]);
        assert_eq!(r.stats().samples_held, 1);
        // Below the floor nothing is admitted any more, and the floor
        // never moves backwards.
        r.feed(&frame("n1", 19, &[("a", 1.0)]));
        r.trim(SimTime::from_secs(5));
        assert_eq!(r.floor(), SimTime::from_secs(20));
        assert_eq!(r.groups().collect::<Vec<_>>(), ["n2"]);
        r.forget("n2");
        assert_eq!(r.stats().samples_held, 0);
        assert_eq!(r.groups().count(), 0);
    }

    #[test]
    fn the_gallop_finds_what_a_binary_search_finds_from_any_hint() {
        // Names in byte order, so digit counts interleave: pod-1, pod-10,
        // pod-100, …, pod-11, …, pod-9, pod-90, ….
        let mut names: Vec<String> = (1..=150).map(|n| format!("pod-{n}")).collect();
        names.sort();
        let member = |name: Option<&str>| MemberWindow {
            member: name.map(|name| Small::from_slice(name.as_bytes())),
            samples: Small::from_slice(&[]),
            series: None,
        };
        let mut queries: Vec<Option<&str>> = vec![None, Some(""), Some("pod-"), Some("zz")];
        queries.extend(names.iter().map(|name| Some(name.as_str())));
        for len in 0..=70 {
            for start in [0, 1, 37] {
                for bare in [false, true] {
                    // Every other name, so each held name has absent
                    // neighbours; `bare` puts the member-less row first.
                    let held = names
                        .iter()
                        .skip(start)
                        .step_by(2)
                        .map(|n| Some(n.as_str()));
                    let members: Vec<MemberWindow> = bare
                        .then_some(None)
                        .into_iter()
                        .chain(held)
                        .take(len)
                        .map(member)
                        .collect();
                    for &query in &queries {
                        let bytes = query.map(str::as_bytes);
                        let expected = members.binary_search_by(|held| {
                            held.member.as_ref().map(Small::as_slice).cmp(&bytes)
                        });
                        for hint in 0..=members.len() + 2 {
                            assert_eq!(
                                gallop(&members, bytes, hint),
                                expected,
                                "{query:?} among {} members from {hint}",
                                members.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_fold_counts_the_samples_it_examines() {
        let mut r = rollup();
        r.feed(&frame("n1", 10, &[("a", 1.0), ("b", 2.0)]));
        r.feed(&frame("n2", 10, &[("c", 3.0)]));
        assert_eq!(r.stats().samples_folded, 0);
        value(&r, "n1", 0);
        assert_eq!(r.stats().samples_folded, 2);
        value(&r, "n3", 0);
        assert_eq!(r.stats().samples_folded, 2);
    }
}
