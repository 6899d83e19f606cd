//! The deterministic event queue at the heart of the simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in the order they were
/// scheduled, which makes simulation runs bit-for-bit reproducible regardless
/// of `BinaryHeap` internals.
///
/// The queue is the *only* source of time in a simulation: components never
/// look at a wall clock, they only react to events popped from here.
///
/// # Examples
///
/// ```
/// use des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(2), "c"); // same instant as "b", scheduled later
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the backing heap reallocates. Replay drivers that know the
    /// rough event count up front (≈2 per job plus periodic ticks) use
    /// this to avoid the doubling reallocations of a cold heap.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The instant of the most recently popped event ([`SimTime::ZERO`]
    /// before the first pop). This is the simulation's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Self::now): the simulation
    /// cannot travel backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the next event, advancing the virtual clock to its
    /// instant. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The instant of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, event) in iter {
            self.schedule(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_chronological_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), 3);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u32> = EventQueue::with_capacity(128);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn extend_schedules_everything() {
        let mut q = EventQueue::new();
        q.extend((1..=3).map(|s| (SimTime::from_secs(s), s)));
        assert_eq!(q.len(), 3);
    }
}
