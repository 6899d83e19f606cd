//! Property test: the store's packed series key orders exactly as the
//! tag sets it packs.
//!
//! Series are named from strings that stress the encoding — empty ones,
//! `\0` (the byte the encoding escapes), `\u{1}` (the byte its
//! terminator ends in), strings that are prefixes of others, multi-byte
//! characters — under measurements that hold a `\0` too. Whatever the
//! names, `Database::points` (which walks the index in key order) must
//! list the series in `(measurement, TagSet)` order, and a first-tag drop (a
//! byte-prefix range of the index) must remove exactly the series whose
//! first tag pair it names.

use std::collections::btree_map::{BTreeMap, Entry};

use des::SimTime;
use proptest::prelude::*;
use tsdb::{Database, Point, TagSet};

const ALPHABET: [char; 6] = ['\0', '\u{1}', 'a', 'b', '\u{ff}', '\u{10ffff}'];
const MEASUREMENTS: [&str; 3] = ["m", "m\0", "m\0a"];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn tag_set() -> impl Strategy<Value = TagSet> {
    prop::collection::vec((text(), text()), 0..4).prop_map(|pairs| pairs.into_iter().collect())
}

fn series() -> impl Strategy<Value = Vec<(usize, TagSet)>> {
    prop::collection::vec((0usize..MEASUREMENTS.len(), tag_set()), 1..40)
}

/// One point per series, in `(measurement, TagSet)` order.
fn sorted_points(series: &BTreeMap<(String, TagSet), f64>) -> Vec<Point> {
    series
        .iter()
        .map(|((measurement, tags), &value)| {
            tags.iter().fold(
                Point::new(measurement.clone(), SimTime::from_secs(1), value),
                |point, (k, v)| point.with_tag(k.clone(), v.clone()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_index_walks_series_in_tag_set_order(named in series(), pick in 0usize..40) {
        let mut db = Database::new();
        let mut model = BTreeMap::new();
        let mut ids = BTreeMap::new();
        for (i, (measurement, tags)) in named.iter().enumerate() {
            let name = (MEASUREMENTS[*measurement].to_string(), tags.clone());
            let id = db.resolve(&name.0, &name.1);
            match ids.entry(name.clone()) {
                // A name resolves to one series however often it is met.
                Entry::Occupied(first) => prop_assert_eq!(*first.get(), id),
                Entry::Vacant(first) => {
                    first.insert(id);
                    prop_assert!(db.append(id, SimTime::from_secs(1), i as f64));
                    model.insert(name, i as f64);
                }
            }
        }
        prop_assert_eq!(db.series_count(), model.len());
        prop_assert_eq!(db.points(), sorted_points(&model));
        let mut rebuilt = Database::new();
        rebuilt.extend(db.points());
        prop_assert_eq!(rebuilt.points(), db.points());

        // The first-tag drop of some series' first pair, against the
        // model's own filter: series whose first value only starts with
        // the dropped one stay.
        let (key, value) = named[pick % named.len()]
            .1
            .iter()
            .next()
            .map_or((String::new(), String::new()), |(k, v)| (k.clone(), v.clone()));
        let doomed = |tags: &TagSet| tags.iter().next() == Some((&key, &value));
        let dropped = model.keys().filter(|(_, tags)| doomed(tags)).count();
        prop_assert_eq!(db.drop_series_with_first_tag(&key, &value), dropped);
        model.retain(|(_, tags), _| !doomed(tags));
        prop_assert_eq!(db.series_count(), model.len());
        prop_assert_eq!(db.points(), sorted_points(&model));
    }
}
