//! Data points and tag sets.

use std::collections::BTreeMap;
use std::fmt;

use des::SimTime;

/// An ordered tag map (`key → value`). Ordered so that tag sets have a
/// canonical form and can key series deterministically.
pub type TagSet = BTreeMap<String, String>;

/// A single observation: measurement name, tags, timestamp and value.
///
/// # Examples
///
/// ```
/// use des::SimTime;
/// use tsdb::Point;
///
/// let p = Point::new("sgx/epc", SimTime::from_secs(5), 128.0)
///     .with_tag("pod_name", "redis-0")
///     .with_tag("nodename", "sgx-node-1");
/// assert_eq!(p.tag("pod_name"), Some("redis-0"));
/// ```
#[derive(Debug, Clone)]
pub struct Point {
    measurement: String,
    tags: TagSet,
    time: SimTime,
    value: f64,
}

impl Point {
    /// Creates a point with no tags.
    ///
    /// # Panics
    ///
    /// Panics if `measurement` is empty or `value` is not finite.
    pub fn new(measurement: impl Into<String>, time: SimTime, value: f64) -> Self {
        let measurement = measurement.into();
        assert!(
            !measurement.is_empty(),
            "measurement name must not be empty"
        );
        assert!(value.is_finite(), "point value must be finite, got {value}");
        Point {
            measurement,
            tags: TagSet::new(),
            time,
            value,
        }
    }

    /// Adds (or replaces) a tag, builder-style.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// The measurement name.
    pub fn measurement(&self) -> &str {
        &self.measurement
    }

    /// The tag set.
    pub(crate) fn tags(&self) -> &TagSet {
        &self.tags
    }

    /// A single tag value.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.get(key).map(String::as_str)
    }

    /// The observation time.
    pub(crate) fn time(&self) -> SimTime {
        self.time
    }

    /// The observed value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// Values compare by their bits, so `-0.0` and `0.0` differ: a point
/// read back from a store equals the one written only if the store kept
/// its value exactly.
impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.measurement == other.measurement
            && self.tags == other.tags
            && self.time == other.time
            && self.value.to_bits() == other.value.to_bits()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.measurement)?;
        for (k, v) in &self.tags {
            write!(f, ",{k}={v}")?;
        }
        write!(f, " value={} {}", self.value, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = Point::new("m", SimTime::from_secs(1), 2.0).with_tag("a", "b");
        assert_eq!(p.measurement(), "m");
        assert_eq!(p.value(), 2.0);
        assert_eq!(p.time(), SimTime::from_secs(1));
        assert_eq!(p.tag("a"), Some("b"));
        assert_eq!(p.tag("missing"), None);
    }

    #[test]
    fn with_tag_replaces_existing() {
        let p = Point::new("m", SimTime::ZERO, 0.0)
            .with_tag("k", "v1")
            .with_tag("k", "v2");
        assert_eq!(p.tag("k"), Some("v2"));
        assert_eq!(p.tags().len(), 1);
    }

    #[test]
    fn display_is_line_protocol_like() {
        let p = Point::new("sgx/epc", SimTime::from_secs(2), 7.0)
            .with_tag("nodename", "n1")
            .with_tag("pod_name", "p1");
        assert_eq!(
            p.to_string(),
            "sgx/epc,nodename=n1,pod_name=p1 value=7 t+2.0s"
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_measurement_rejected() {
        let _ = Point::new("", SimTime::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_value_rejected() {
        let _ = Point::new("m", SimTime::ZERO, f64::NAN);
    }
}
