//! Never-panic properties of the `tsdb::wire` snapshot decoder: whatever
//! bytes arrive — a valid buffer cut at any offset, noise behind a valid
//! header, a well-framed record with a forged field — the answer is `Ok`
//! or `TsdbError::Parse`, and a forgery is never `Ok`.
//!
//! The forgeries are the inputs the typed constructor behind the decoder
//! `assert!`s on (`Point::new`): each must be turned away before it gets
//! there.

use des::SimTime;
use proptest::prelude::*;
use tsdb::{wire, Database, Point, TsdbError};

const MAGIC: u32 = 0x5453_4442;

type Tags<'a> = &'a [(&'a str, &'a str)];
/// Measurement, tags, time in µs, value.
type RawPoint<'a> = (&'a str, Tags<'a>, u64, f64);

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend((s.len() as u16).to_le_bytes());
    buf.extend(s.as_bytes());
}

fn put_tags(buf: &mut Vec<u8>, tags: Tags) {
    buf.push(tags.len() as u8);
    for (k, v) in tags {
        put_str(buf, k);
        put_str(buf, v);
    }
}

/// A snapshot written field by field, so any field can lie: `count` need
/// not match `points`, a measurement may be empty, a value non-finite.
fn raw_snapshot(count: u64, points: &[RawPoint]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend(MAGIC.to_le_bytes());
    buf.push(1);
    buf.extend(count.to_le_bytes());
    for &(measurement, tags, time, value) in points {
        put_str(&mut buf, measurement);
        put_tags(&mut buf, tags);
        buf.extend(time.to_le_bytes());
        buf.extend(value.to_le_bytes());
    }
    buf
}

fn is_parse_error<T>(result: Result<T, TsdbError>) -> bool {
    matches!(result, Err(TsdbError::Parse { .. }))
}

fn sample_points(n: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new("sgx/epc", SimTime::from_secs(i), i as f64 * 4096.0)
                .with_tag("pod_name", format!("pod-{i}"))
                .with_tag("nodename", "sgx-1")
        })
        .collect()
}

#[test]
fn the_hand_written_frames_are_the_encoders_frames() {
    // The forgeries below differ from valid snapshots in the forged
    // field only.
    let point = Point::new("m", SimTime::from_micros(9), 2.5).with_tag("k", "v");
    assert_eq!(
        raw_snapshot(1, &[("m", &[("k", "v")], 9, 2.5)]),
        wire::encode(&[point]).to_vec()
    );
}

#[test]
fn a_forged_empty_measurement_fails_restore_instead_of_panicking_it() {
    let forged = raw_snapshot(1, &[("", &[("nodename", "n1")], 1_000_000, 42.0)]);
    assert!(is_parse_error(Database::restore(&forged)));
    assert!(is_parse_error(wire::decode(&forged)));
    // Behind a valid point too.
    let forged = raw_snapshot(2, &[("m", &[], 1, 1.0), ("", &[], 2, 2.0)]);
    assert!(is_parse_error(Database::restore(&forged)));
}

#[test]
fn forged_snapshot_fields_are_parse_errors() {
    for value in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(is_parse_error(wire::decode(&raw_snapshot(
            1,
            &[("m", &[], 1, value)]
        ))));
    }
    // Counts beyond the payload: one point short, and absurd ones that
    // must not be reserved for either.
    let one: &[RawPoint] = &[("m", &[], 1, 1.0)];
    for count in [2, 1 << 20, 1 << 40, u64::MAX] {
        assert!(is_parse_error(wire::decode(&raw_snapshot(count, one))));
        assert!(is_parse_error(wire::decode(&raw_snapshot(count, &[]))));
    }
    // …and below it.
    assert!(is_parse_error(wire::decode(&raw_snapshot(0, one))));
    // A tag count beyond the payload.
    let mut short_tags = raw_snapshot(1, one);
    short_tags[13 + 3] = 200;
    assert!(is_parse_error(wire::decode(&short_tags)));
}

#[test]
fn every_truncation_of_a_valid_buffer_is_a_parse_error() {
    for n in [0, 1, 5] {
        let snapshot = wire::encode(&sample_points(n));
        for cut in 0..snapshot.len() {
            assert!(is_parse_error(wire::decode(&snapshot[..cut])), "cut {cut}");
        }
        assert!(wire::decode(&snapshot).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Noise behind a valid header — the count field included, so most
    /// cases announce far more points than follow — and noise spliced
    /// into the middle of a valid buffer.
    #[test]
    fn arbitrary_bytes_behind_a_valid_header_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..200),
        // Short strings, few tags: lets a parse get past the first field.
        tame in prop::collection::vec(0u8..4, 0..200),
        splice_at in 0usize..400,
    ) {
        for tail in [&noise, &tame] {
            let mut snapshot = MAGIC.to_le_bytes().to_vec();
            snapshot.push(1);
            snapshot.extend(tail);
            if let Ok(points) = wire::decode(&snapshot) {
                // Whatever decodes is a snapshot the store can load.
                let mut db = Database::new();
                db.extend(points);
            }

            let mut snapshot = wire::encode(&sample_points(4)).to_vec();
            let at = 13 + splice_at % (snapshot.len() - 13);
            snapshot.splice(at..at, tail.iter().copied());
            let _ = Database::restore(&snapshot);
        }
    }
}
