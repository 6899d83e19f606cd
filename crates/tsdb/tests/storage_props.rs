//! Property test: the slab-backed [`Database`] behaves as the structure
//! it replaced — one ordered map from `(measurement, tag set)` to a
//! time-sorted sample vector. Random interleavings of `resolve`,
//! `append` by id (ids of long-gone series included), tagged inserts in
//! all three forms, delayed samples, retention and per-node drops are
//! applied to both; after every step the store's points (values by
//! bits), gauges and counters equal the model's, and every `append` and
//! `enforce_retention` returns what the model says it must.

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};
use proptest::prelude::*;
use tsdb::{Database, Point, PointBatch, SeriesId, TagSet, TimeBound};

const MEASUREMENTS: [&str; 2] = ["memory/usage", "sgx/epc"];
const NODES: u8 = 3;
const PODS: u8 = 4;

type Key = (String, TagSet);

/// The series universe: probe-shaped `{nodename, pod_name}` series, plus
/// (pod ≥ `PODS`) shapes whose first tag is not the node — a bare
/// `{pod_name}`, a `{job, nodename}` pair, no tags at all — which a node
/// drop must leave alone.
fn key(measurement: u8, node: u8, pod: u8) -> Key {
    let pair = |k: &str, v: String| (k.to_string(), v);
    let tags: TagSet = match pod {
        p if p < PODS => [
            pair("nodename", format!("n{node}")),
            pair("pod_name", format!("p{p}")),
        ]
        .into(),
        p if p == PODS => [pair("pod_name", format!("p{node}"))].into(),
        p if p == PODS + 1 => [
            pair("job", "j".to_string()),
            pair("nodename", format!("n{node}")),
        ]
        .into(),
        _ => TagSet::new(),
    };
    (MEASUREMENTS[usize::from(measurement)].to_string(), tags)
}

#[derive(Debug, Clone)]
enum Op {
    Advance(u64),
    /// A tagged insert of one sample taken `back` s ago; `form` picks
    /// `insert`, `insert_at` or a one-row `insert_batch`.
    Insert {
        series: (u8, u8, u8),
        back: u64,
        value: f64,
        form: u8,
    },
    Resolve((u8, u8, u8)),
    /// Append through the `nth` id handed out so far (modulo), live or
    /// not.
    Append {
        nth: usize,
        back: u64,
        value: f64,
    },
    Retain {
        keep: u64,
    },
    DropNode(u8),
}

fn series() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..2, 0u8..NODES, 0u8..PODS + 3)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let value = || -50.0f64..50.0;
    prop::collection::vec(
        prop_oneof![
            (0u64..15).prop_map(Op::Advance),
            (series(), 0u64..60, value(), 0u8..3).prop_map(|(series, back, value, form)| {
                Op::Insert {
                    series,
                    back,
                    value,
                    form,
                }
            }),
            series().prop_map(Op::Resolve),
            (0usize..64, 0u64..60, value()).prop_map(|(nth, back, value)| Op::Append {
                nth,
                back,
                value
            }),
            (0usize..64, 0u64..3, value()).prop_map(|(nth, back, value)| Op::Append {
                nth,
                back,
                value
            }),
            (0u64..80).prop_map(|keep| Op::Retain { keep }),
            (0u8..NODES).prop_map(Op::DropNode),
        ],
        1..120,
    )
}

/// The store as it was before the slab, plus what an id means in it: a
/// series' *incarnation* counts how often its key was unregistered, and
/// an id is live while its incarnation is the key's current one and the
/// key is registered.
#[derive(Default)]
struct Model {
    series: BTreeMap<Key, Vec<(SimTime, f64)>>,
    incarnation: BTreeMap<Key, u32>,
    inserted: u64,
    evicted: u64,
}

impl Model {
    fn insert(&mut self, key: &Key, time: SimTime, value: f64) {
        let samples = self.series.entry(key.clone()).or_default();
        let at = samples.partition_point(|&(t, _)| t <= time);
        samples.insert(at, (time, value));
        self.inserted += 1;
    }

    fn resolve(&mut self, key: &Key) -> u32 {
        self.series.entry(key.clone()).or_default();
        self.incarnation.get(key).copied().unwrap_or(0)
    }

    fn is_live(&self, key: &Key, incarnation: u32) -> bool {
        self.series.contains_key(key)
            && self.incarnation.get(key).copied().unwrap_or(0) == incarnation
    }

    /// Unregisters every series `doomed` picks, returning the samples
    /// they held.
    fn unregister(&mut self, doomed: impl Fn(&Key, &[(SimTime, f64)]) -> bool) -> usize {
        let mut dropped = 0;
        let incarnation = &mut self.incarnation;
        self.series.retain(|key, samples| {
            let goes = doomed(key, samples);
            if goes {
                dropped += samples.len();
                *incarnation.entry(key.clone()).or_default() += 1;
            }
            !goes
        });
        dropped
    }

    fn retain(&mut self, cutoff: SimTime) -> usize {
        let mut evicted = 0;
        for samples in self.series.values_mut() {
            let keep_from = samples.partition_point(|&(t, _)| t < cutoff);
            evicted += samples.drain(..keep_from).count();
        }
        self.unregister(|_, samples| samples.is_empty());
        self.evicted += evicted as u64;
        evicted
    }

    fn drop_node(&mut self, node: &str) -> usize {
        let dropped = self.unregister(|(_, tags), _| {
            tags.iter()
                .next()
                .is_some_and(|(k, v)| k == "nodename" && v == node)
        });
        self.evicted += dropped as u64;
        dropped
    }

    fn points(&self) -> Vec<Point> {
        let mut points = Vec::new();
        for ((measurement, tags), samples) in &self.series {
            for &(time, value) in samples {
                let mut point = Point::new(measurement.clone(), time, value);
                for (k, v) in tags {
                    point = point.with_tag(k.clone(), v.clone());
                }
                points.push(point);
            }
        }
        points
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_slab_store_equals_the_ordered_map_it_replaced(ops in ops()) {
        let mut db = Database::new();
        let mut model = Model::default();
        // Every id ever handed out, with the series and incarnation the
        // model attaches to it.
        let mut ids: Vec<(SeriesId, Key, u32)> = Vec::new();
        let mut now = SimTime::from_secs(60);
        let ago = |now: SimTime, back: u64| {
            TimeBound::SinceNowMinus(SimDuration::from_secs(back)).resolve(now)
        };
        for (index, op) in ops.iter().enumerate() {
            match op {
                Op::Advance(dt) => now += SimDuration::from_secs(*dt),
                Op::Insert { series: (m, n, p), back, value, form } => {
                    let key = key(*m, *n, *p);
                    let time = ago(now, *back);
                    match form {
                        0 => {
                            let mut point = Point::new(key.0.clone(), time, *value);
                            for (k, v) in &key.1 {
                                point = point.with_tag(k.clone(), v.clone());
                            }
                            db.insert(point);
                        }
                        1 => db.insert_at(&key.0, &key.1, time, *value),
                        // One row, told apart by the series' last tag
                        // (an untagged series fits no frame).
                        _ => match key.1.clone().pop_last() {
                            None => db.insert_at(&key.0, &key.1, time, *value),
                            Some((row_key, row_value)) => {
                                let mut batch = PointBatch::new(key.0.clone(), &*row_key, time);
                                for (k, v) in key.1.iter().filter(|(k, _)| **k != row_key) {
                                    batch = batch.with_shared_tag(k.clone(), v.clone());
                                }
                                batch.push(row_value, *value);
                                db.insert_batch(&batch);
                            }
                        },
                    }
                    model.insert(&key, time, *value);
                }
                Op::Resolve((m, n, p)) => {
                    let key = key(*m, *n, *p);
                    let id = db.resolve(&key.0, &key.1);
                    let incarnation = model.resolve(&key);
                    // A live series answers to one id only.
                    for (earlier, held, at) in &ids {
                        prop_assert_eq!(
                            *earlier == id,
                            *held == key && *at == incarnation,
                            "step {}: {:?} vs {:?}", index, earlier, id
                        );
                    }
                    ids.push((id, key, incarnation));
                }
                Op::Append { nth, back, value } => {
                    if ids.is_empty() {
                        continue;
                    }
                    let (id, key, incarnation) = &ids[nth % ids.len()];
                    let time = ago(now, *back);
                    let live = model.is_live(key, *incarnation);
                    prop_assert_eq!(db.append(*id, time, *value), live, "step {}", index);
                    if live {
                        model.insert(key, time, *value);
                    }
                }
                Op::Retain { keep } => {
                    let keep = SimDuration::from_secs(*keep);
                    let cutoff = TimeBound::SinceNowMinus(keep).resolve(now);
                    prop_assert_eq!(
                        db.enforce_retention(now, keep),
                        model.retain(cutoff),
                        "step {}", index
                    );
                }
                Op::DropNode(node) => {
                    let node = format!("n{node}");
                    prop_assert_eq!(
                        db.drop_series_with_first_tag("nodename", &node),
                        model.drop_node(&node),
                        "step {}", index
                    );
                }
            }
            let points = model.points();
            prop_assert_eq!(db.points(), points, "step {}", index);
            prop_assert_eq!(db.series_count(), model.series.len(), "step {}", index);
            let mut measurements: Vec<&str> =
                model.series.keys().map(|(m, _)| m.as_str()).collect();
            measurements.dedup();
            prop_assert_eq!(db.measurement_names(), measurements, "step {}", index);
            prop_assert_eq!(db.point_count(), points.len(), "step {}", index);
            prop_assert_eq!(db.points_inserted(), model.inserted, "step {}", index);
            prop_assert_eq!(db.points_evicted(), model.evicted, "step {}", index);
        }
    }
}
