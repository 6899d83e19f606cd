//! Retention unregisters exactly what it empties.
//!
//! A series whose last sample ages out is unregistered through the key
//! its own slot holds — no walk of the index — so these pin down the
//! "exactly": the k series a retention empties go and their ids go
//! stale, every other series and id stays, and a live series is never
//! mistaken for an empty one because its one sample sits at t = 0.

use des::{SimDuration, SimTime};
use tsdb::{Database, SeriesId, TagSet};

fn tags(node: usize, pod: usize) -> TagSet {
    [
        ("nodename".to_string(), format!("node-{node}")),
        ("pod_name".to_string(), format!("pod-{pod}")),
    ]
    .into()
}

#[test]
fn a_retention_that_empties_k_series_removes_exactly_those_k() {
    const SERIES: usize = 200;
    let mut db = Database::new();
    // Every seventh series was last sampled long ago; the rest are
    // recent, and some of those hold an old sample too. One measurement
    // ("gone\0") holds only series that empty.
    let mut ids: Vec<(SeriesId, bool)> = Vec::new();
    for i in 0..SERIES {
        let empties = i % 7 == 0;
        let measurement = match i % 3 {
            _ if empties && i % 2 == 0 => "gone\0",
            0 => "sgx/epc",
            _ => "memory/usage",
        };
        let id = db.resolve(measurement, &tags(i % 11, i));
        assert!(db.append(id, SimTime::from_secs(10), 1.0));
        if !empties {
            assert!(db.append(id, SimTime::from_secs(950), 2.0));
        }
        ids.push((id, empties));
    }
    let k = ids.iter().filter(|(_, empties)| *empties).count();
    let live_points = db.point_count() - SERIES;
    assert_eq!(
        db.measurement_names(),
        ["gone\0", "memory/usage", "sgx/epc"]
    );

    let evicted = db.enforce_retention(SimTime::from_secs(1000), SimDuration::from_mins(15));
    assert_eq!(evicted, SERIES, "every series' old sample is evicted");
    assert_eq!(db.series_count(), SERIES - k);
    assert_eq!(db.point_count(), live_points);
    assert_eq!(db.measurement_names(), ["memory/usage", "sgx/epc"]);
    for (id, empties) in &ids {
        assert_eq!(
            db.append(*id, SimTime::from_secs(1000), 3.0),
            !empties,
            "an emptied series' id must go stale and only it"
        );
    }

    // The freed slots take new series, which the old ids do not reach.
    for i in 0..k {
        let id = db.resolve("sgx/epc", &tags(99, SERIES + i));
        assert!(ids.iter().all(|(old, _)| *old != id));
        assert!(db.append(id, SimTime::from_secs(1000), 4.0));
    }
    assert_eq!(db.series_count(), SERIES);
}

#[test]
fn a_series_whose_only_sample_is_at_zero_is_live_not_empty() {
    let mut db = Database::new();
    let at_zero = db.resolve("sgx/epc", &tags(0, 0));
    assert!(db.append(at_zero, SimTime::ZERO, 7.0));
    let never_appended = db.resolve("sgx/epc", &tags(0, 1));
    assert_eq!(db.series_count(), 2);

    // Early on the cutoff saturates at t = 0, so the sample at t = 0 is
    // inside the retention: nothing is evicted and the series stays, id
    // and all — while the series nobody appended to goes.
    for now in [0, 5, 59] {
        let evicted = db.enforce_retention(SimTime::from_secs(now), SimDuration::from_secs(60));
        assert_eq!(evicted, 0);
        assert_eq!((db.series_count(), db.point_count()), (1, 1));
    }
    assert!(!db.append(never_appended, SimTime::from_secs(59), 1.0));
    assert!(db.append(at_zero, SimTime::from_secs(59), 8.0));

    // Once the cutoff passes it, the sample goes like any other.
    assert_eq!(
        db.enforce_retention(SimTime::from_secs(61), SimDuration::from_secs(60)),
        1
    );
    assert_eq!((db.series_count(), db.point_count()), (1, 1));
}
