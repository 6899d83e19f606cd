//! Batched point transport.
//!
//! A probe scrape of one node produces many points that differ only in
//! one tag (`pod_name`) and their value — the measurement, timestamp and
//! `nodename` tag are shared. Shipping them as a `Vec<Point>` clones the
//! shared strings once per point; a [`PointBatch`] factors them out into
//! one frame per node per scrape:
//!
//! * `measurement`, scrape `time`, and the shared tags are stored once;
//! * each row carries only the distinguishing tag value and the sample.
//!
//! A batch is what a probe's frame is at every boundary, a delayed or
//! retried frame in flight included, and what
//! [`Database::insert_batch`](crate::Database::insert_batch) takes on
//! arrival, resolving each row's series by its tags and feeding the
//! store's window the frame. (A probe inside the process that meets the
//! same series every tick can skip the frame:
//! [`Database::scrape`](crate::Database::scrape) appends by
//! [`SeriesId`](crate::SeriesId).)
//!
//! # Examples
//!
//! ```
//! use des::SimTime;
//! use tsdb::{Database, PointBatch};
//!
//! let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(10))
//!     .with_shared_tag("nodename", "sgx-1");
//! batch.push("pod-1", 4096.0);
//! batch.push("pod-2", 8192.0);
//!
//! let mut db = Database::new();
//! db.insert_batch(&batch);
//! assert_eq!(db.point_count(), 2);
//! assert_eq!(db.series_count(), 2);
//! ```

use des::SimTime;

use crate::point::{Point, TagSet};

/// One row of a [`PointBatch`]: the distinguishing tag value (e.g. the
/// pod name) and the observed sample.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BatchRow {
    /// Value of the batch's row tag key for this row.
    pub tag_value: String,
    /// The observed value.
    pub value: f64,
}

/// A set of same-instant observations sharing measurement and tags —
/// one probe scrape of one node. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBatch {
    measurement: String,
    /// Tag key that distinguishes rows from one another (`pod_name` for
    /// the paper's probes).
    row_tag_key: String,
    time: SimTime,
    shared_tags: TagSet,
    rows: Vec<BatchRow>,
}

impl PointBatch {
    /// Creates an empty batch for `measurement` at scrape instant `time`,
    /// whose rows are distinguished by the `row_tag_key` tag.
    ///
    /// # Panics
    ///
    /// Panics if `measurement` or `row_tag_key` is empty.
    pub fn new(
        measurement: impl Into<String>,
        row_tag_key: impl Into<String>,
        time: SimTime,
    ) -> Self {
        let measurement = measurement.into();
        let row_tag_key = row_tag_key.into();
        assert!(
            !measurement.is_empty(),
            "measurement name must not be empty"
        );
        assert!(!row_tag_key.is_empty(), "row tag key must not be empty");
        PointBatch {
            measurement,
            row_tag_key,
            time,
            shared_tags: TagSet::new(),
            rows: Vec::new(),
        }
    }

    /// Adds (or replaces) a tag shared by every row, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `key` equals the row tag key — the per-row value would
    /// silently shadow it.
    pub fn with_shared_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        assert_ne!(
            key, self.row_tag_key,
            "shared tag must not collide with the row tag key"
        );
        self.shared_tags.insert(key, value.into());
        self
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (the [`Point::new`] contract).
    pub fn push(&mut self, tag_value: impl Into<String>, value: f64) {
        assert!(value.is_finite(), "point value must be finite, got {value}");
        self.rows.push(BatchRow {
            tag_value: tag_value.into(),
            value,
        });
    }

    /// The measurement every row belongs to.
    pub fn measurement(&self) -> &str {
        &self.measurement
    }

    /// The tag key distinguishing rows.
    pub fn row_tag_key(&self) -> &str {
        &self.row_tag_key
    }

    /// The shared scrape instant.
    pub(crate) fn time(&self) -> SimTime {
        self.time
    }

    /// The tags shared by every row.
    pub fn shared_tags(&self) -> &TagSet {
        &self.shared_tags
    }

    /// The rows.
    pub(crate) fn rows(&self) -> &[BatchRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Materialises the batch into standalone points (the unbatched
    /// representation, with the shared tags cloned per point).
    pub fn to_points(&self) -> Vec<Point> {
        self.rows
            .iter()
            .map(|row| {
                let mut point = Point::new(self.measurement.clone(), self.time, row.value);
                for (k, v) in &self.shared_tags {
                    point = point.with_tag(k.clone(), v.clone());
                }
                point.with_tag(self.row_tag_key.clone(), row.tag_value.clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> PointBatch {
        let mut batch = PointBatch::new("sgx/epc", "pod_name", SimTime::from_secs(10))
            .with_shared_tag("nodename", "sgx-1");
        batch.push("pod-1", 4096.0);
        batch.push("pod-2", 8192.0);
        batch
    }

    #[test]
    fn accessors_expose_the_frame() {
        let batch = sample_batch();
        assert_eq!(batch.measurement(), "sgx/epc");
        assert_eq!(batch.row_tag_key(), "pod_name");
        assert_eq!(batch.time(), SimTime::from_secs(10));
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.shared_tags().get("nodename").unwrap(), "sgx-1");
    }

    #[test]
    fn to_points_expands_shared_tags() {
        let points = sample_batch().to_points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].measurement(), "sgx/epc");
        assert_eq!(points[0].tag("nodename"), Some("sgx-1"));
        assert_eq!(points[0].tag("pod_name"), Some("pod-1"));
        assert_eq!(points[1].tag("pod_name"), Some("pod-2"));
        assert_eq!(points[1].value(), 8192.0);
    }

    #[test]
    fn insert_batch_equals_per_point_inserts() {
        use crate::Database;
        let batch = sample_batch();
        let mut batched = Database::new();
        batched.insert_batch(&batch);
        let mut unbatched = Database::new();
        unbatched.extend(batch.to_points());
        assert_eq!(batched.points(), unbatched.points());
        assert_eq!(batched.points_inserted(), unbatched.points_inserted());
    }

    #[test]
    #[should_panic(expected = "collide")]
    fn shared_tag_cannot_shadow_row_key() {
        let _ = PointBatch::new("m", "pod_name", SimTime::ZERO).with_shared_tag("pod_name", "x");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rows_rejected() {
        let mut batch = PointBatch::new("m", "k", SimTime::ZERO);
        batch.push("a", f64::NAN);
    }
}
