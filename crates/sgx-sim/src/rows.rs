//! Rows in one key-sorted `Vec`: the table a machine keeps a few dozen
//! entries of each kind in — the driver's enclave records and the EPC's
//! page usage here, the node agent's running pods in `cluster`.
//!
//! Keys mostly arrive in ascending order (a machine mints enclave ids in
//! ascending order, and pods mostly bind in uid order), so a new row is
//! an append; a lookup is a binary search and a removal shifts the rows
//! behind it. A walk goes in key order. Next to a `HashMap` or a
//! `BTreeMap` this saves the half-empty leaves and power-of-two tables a
//! few dozen entries leave. From 16 rows on, the buffer grows by an
//! eighth instead of doubling, and shrinks once it is less than half
//! full (DESIGN.md, "Heap at `fullscale_autoscale`'s peak"). The read
//! side reads like the `BTreeMap` these tables replaced.

use std::ops::Index;

/// A row of a [`Rows`] table: it carries its own key.
pub trait Row {
    /// What the table sorts and finds rows by.
    type Key: Ord;

    /// This row's key.
    fn key(&self) -> &Self::Key;
}

/// Rows sorted by key, at most one a key.
#[derive(Debug, Clone)]
pub struct Rows<T>(Vec<T>);

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows(Vec::new())
    }
}

impl<T: Row> Rows<T> {
    fn find(&self, key: &T::Key) -> Result<usize, usize> {
        self.0.binary_search_by(|row| row.key().cmp(key))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The row with `key`.
    pub fn get(&self, key: &T::Key) -> Option<&T> {
        self.find(key).ok().map(|at| &self.0[at])
    }

    /// Whether a row has `key`.
    pub fn contains_key(&self, key: &T::Key) -> bool {
        self.find(key).is_ok()
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &T::Key> {
        self.0.iter().map(Row::key)
    }

    /// The rows, in key order.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// `(key, row)` pairs, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&T::Key, &T)> {
        self.0.iter().map(|row| (row.key(), row))
    }

    /// The row with `key`, to change in place; its key stays as it is.
    pub(crate) fn get_mut(&mut self, key: &T::Key) -> Option<&mut T> {
        self.find(key).ok().map(|at| &mut self.0[at])
    }

    /// Adds a row: an append when its key is above every other.
    ///
    /// # Panics
    ///
    /// Panics if a row already has the key.
    pub fn insert(&mut self, row: T) {
        let at = match self.0.last() {
            Some(last) if last.key() >= row.key() => {
                self.find(row.key()).expect_err("a key has one row")
            }
            _ => self.0.len(),
        };
        if self.0.len() == self.0.capacity() {
            // Below 16 an eighth would be under two rows.
            if self.0.capacity() < 16 {
                self.0.reserve(1);
            } else {
                self.0.reserve_exact(self.0.capacity() / 8);
            }
        }
        self.0.insert(at, row);
    }

    /// Removes the row with `key`. A buffer of 16 or more left less than
    /// half full shrinks to its length plus an eighth, so a table keeps
    /// no buffer sized for its busiest moment.
    pub fn remove(&mut self, key: &T::Key) -> Option<T> {
        let row = self.0.remove(self.find(key).ok()?);
        let len = self.0.len();
        if self.0.capacity() >= 16 && len < self.0.capacity() / 2 {
            self.0.shrink_to(len + len / 8);
        }
        Some(row)
    }
}

impl<T: Row> Index<&T::Key> for Rows<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if no row has `key`, as a `BTreeMap`'s index does.
    fn index(&self, key: &T::Key) -> &T {
        self.get(key).expect("no row has this key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct R(u64);

    impl Row for R {
        type Key = u64;

        fn key(&self) -> &u64 {
            &self.0
        }
    }

    #[test]
    fn rows_stay_sorted_whatever_the_insertion_order() {
        let mut rows = Rows::default();
        for key in [5, 1, 9, 3, 10, 0] {
            rows.insert(R(key));
        }
        assert_eq!(
            rows.keys().copied().collect::<Vec<_>>(),
            [0, 1, 3, 5, 9, 10]
        );
        assert_eq!(rows.remove(&5), Some(R(5)));
        assert_eq!(rows.remove(&5), None);
        assert!(!rows.contains_key(&4));
        assert_eq!(rows.get(&10), Some(&R(10)));
        assert_eq!(rows[&9], R(9));
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn the_buffer_grows_by_an_eighth_and_shrinks_below_half() {
        let mut rows = Rows::default();
        let mut capacities = Vec::new();
        for key in 0..64 {
            rows.insert(R(key));
            if capacities.last() != Some(&rows.0.capacity()) {
                capacities.push(rows.0.capacity());
            }
        }
        // `reserve_exact` may round up; on the system allocator it does not.
        assert_eq!(
            capacities,
            [4, 8, 16, 18, 20, 22, 24, 27, 30, 33, 37, 41, 46, 51, 57, 64]
        );
        capacities.clear();
        for key in (0..64).rev() {
            rows.remove(&key);
            if capacities.last() != Some(&rows.0.capacity()) {
                capacities.push(rows.0.capacity());
            }
        }
        assert_eq!(capacities, [64, 34, 18, 9]);
    }
}
