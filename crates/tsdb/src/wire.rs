//! Compact binary encoding of the point stream.
//!
//! A real InfluxDB persists its points through a write-ahead log and
//! snapshot files; this module provides the equivalent byte-level format
//! so a [`Database`](crate::Database) can be snapshotted to disk (or a
//! wire) and restored exactly. The format is length-prefixed and
//! deliberately simple:
//!
//! ```text
//! snapshot := magic:u32 version:u8 count:u64 point*
//! point    := mlen:u16 measurement[mlen]
//!             tags:u8 (klen:u16 key[klen] vlen:u16 value[vlen])*
//!             time_us:u64 value:f64
//! ```
//!
//! All integers are little-endian.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use des::SimTime;

use crate::error::TsdbError;
use crate::point::Point;

const MAGIC: u32 = 0x5453_4442; // "TSDB"
const VERSION: u8 = 1;
/// The shortest point record: a one-byte measurement, no tags.
const MIN_POINT_LEN: usize = 2 + 1 + 1 + 16;

/// Encodes points into a snapshot buffer.
///
/// # Examples
///
/// ```
/// use des::SimTime;
/// use tsdb::{wire, Point};
///
/// let points = vec![Point::new("m", SimTime::from_secs(1), 2.0).with_tag("k", "v")];
/// let bytes = wire::encode(&points);
/// let decoded = wire::decode(&bytes)?;
/// assert_eq!(decoded, points);
/// # Ok::<(), tsdb::TsdbError>(())
/// ```
pub fn encode(points: &[Point]) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + points.len() * 64);
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(points.len() as u64);
    for point in points {
        put_str(&mut buf, point.measurement());
        let tags = point.tags();
        assert!(tags.len() <= u8::MAX as usize, "too many tags on one point");
        buf.put_u8(tags.len() as u8);
        for (k, v) in tags {
            put_str(&mut buf, k);
            put_str(&mut buf, v);
        }
        buf.put_u64_le(point.time().as_micros());
        buf.put_f64_le(point.value());
    }
    buf.freeze()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string field too long");
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Decodes a snapshot buffer back into points.
///
/// # Errors
///
/// Returns [`TsdbError::Parse`] on truncated input, a bad magic/version,
/// invalid UTF-8 in string fields, an empty measurement or a non-finite
/// value — nothing a buffer can hold makes it panic.
pub fn decode(mut data: &[u8]) -> Result<Vec<Point>, TsdbError> {
    let err = |message: &str| TsdbError::Parse {
        message: message.to_string(),
    };
    if data.remaining() < 13 {
        return Err(err("snapshot too short for header"));
    }
    if data.get_u32_le() != MAGIC {
        return Err(err("bad magic: not a tsdb snapshot"));
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(TsdbError::Parse {
            message: format!("unsupported snapshot version {version}"),
        });
    }
    let count = data.get_u64_le();
    // A forged count reserves no more than the payload could hold.
    let mut points =
        Vec::with_capacity(count.min((data.remaining() / MIN_POINT_LEN) as u64) as usize);
    for _ in 0..count {
        let measurement = get_str(&mut data)?;
        if measurement.is_empty() {
            return Err(err("empty measurement"));
        }
        if data.remaining() < 1 {
            return Err(err("truncated tag count"));
        }
        let tag_count = data.get_u8();
        let mut tags = Vec::with_capacity(tag_count as usize);
        for _ in 0..tag_count {
            let k = get_str(&mut data)?;
            let v = get_str(&mut data)?;
            tags.push((k, v));
        }
        if data.remaining() < 16 {
            return Err(err("truncated point payload"));
        }
        let time = SimTime::from_micros(data.get_u64_le());
        let value = data.get_f64_le();
        if !value.is_finite() {
            return Err(err("non-finite point value"));
        }
        let mut point = Point::new(measurement, time, value);
        for (k, v) in tags {
            point = point.with_tag(k, v);
        }
        points.push(point);
    }
    if data.has_remaining() {
        return Err(err("trailing bytes after last point"));
    }
    Ok(points)
}

fn get_str(data: &mut &[u8]) -> Result<String, TsdbError> {
    if data.remaining() < 2 {
        return Err(TsdbError::Parse {
            message: "truncated string length".to_string(),
        });
    }
    let len = data.get_u16_le() as usize;
    if data.remaining() < len {
        return Err(TsdbError::Parse {
            message: "truncated string body".to_string(),
        });
    }
    let (head, rest) = data.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| TsdbError::Parse {
            message: "invalid UTF-8 in string field".to_string(),
        })?
        .to_string();
    *data = rest;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        (0..10)
            .map(|i| {
                Point::new("sgx/epc", SimTime::from_secs(i), i as f64 * 4096.0)
                    .with_tag("pod_name", format!("pod-{i}"))
                    .with_tag("nodename", "sgx-1")
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let points = sample_points();
        let bytes = encode(&points);
        assert_eq!(decode(&bytes).unwrap(), points);
    }

    #[test]
    fn empty_round_trip() {
        let bytes = encode(&[]);
        assert_eq!(decode(&bytes).unwrap(), Vec::<Point>::new());
        assert_eq!(bytes.len(), 13); // header only
    }

    #[test]
    fn tagless_points_round_trip() {
        let points = vec![Point::new("m", SimTime::ZERO, 0.5)];
        assert_eq!(decode(&encode(&points)).unwrap(), points);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_points()).to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(TsdbError::Parse { .. })));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let bytes = encode(&sample_points());
        for cut in [0, 5, 12, 14, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample_points()).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode(&[]).to_vec();
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 99"));
    }
}
