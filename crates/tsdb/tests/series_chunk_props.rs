//! Property test: the store's compressed series hand back exactly what
//! was written. A series keeps its samples as one Gorilla chunk —
//! delta-of-delta times, XOR-ed values — so this drives the encoding
//! through its edges: values at every corner of `f64` (`±0.0`,
//! subnormals, `f64::MIN_POSITIVE`, `±f64::MAX`, alternating signs),
//! gaps of 0 and 1 µs and gaps whose change overflows every
//! delta-of-delta bucket, in-order appends, delayed and equal-time
//! inserts, retention at arbitrary cutoffs and node drops. Each step is
//! applied to the store and to a `Vec<(SimTime, f64)>` per series; after
//! every step each series must hold the model's samples, in order, time
//! and value equal by bits.

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};
use proptest::prelude::*;
use tsdb::{Database, Point, SeriesId, TagSet};

const MEASUREMENTS: [&str; 2] = ["memory/usage", "sgx/epc"];
const NODES: u8 = 2;
const PODS: u8 = 3;
const CLOCK_END: u64 = 1 << 63;

/// Values the XOR encoding must carry bit for bit.
const EDGES: [f64; 14] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 3.0,
    f64::MAX,
    -f64::MAX,
    1.0,
    -1.0,
    4096.0,
    0.1,
    -1.5e300,
];

/// A gap between two samples, in microseconds: repeats, the smallest
/// step, a probe's period, and gaps whose change from a small gap fits
/// no delta-of-delta bucket (the widest holds ±2³⁵ µs). The clock stops
/// at 2⁶³ µs, where the gaps become 0.
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(10_000_000u64),
        Just(10_000_000u64),
        0u64..200,
        (1u64 << 24) - 8..(1u64 << 24) + 8,
        (1u64 << 35) - 2..(1u64 << 35) + 2,
        (1u64 << 36)..(1u64 << 44),
        Just(1u64 << 50),
        // A change past 2⁶² needs the escape's full 64 bits.
        Just((1u64 << 62) + 12_345),
    ]
}

fn value() -> impl Strategy<Value = f64> {
    let edge = || (0..EDGES.len()).prop_map(|i| EDGES[i]);
    prop_oneof![
        edge(),
        edge(),
        (0u8..4).prop_map(f64::from),
        // Any bits with a finite exponent: clearing the exponent's top
        // bit leaves it below all ones.
        any::<u64>().prop_map(|bits| f64::from_bits(bits & !(1 << 62))),
        // Subnormals of either sign.
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|bits| -f64::from_bits(bits)),
    ]
}

type Series = (u8, u8, u8);

fn series() -> impl Strategy<Value = Series> {
    (0u8..2, 0u8..NODES, 0u8..PODS)
}

#[derive(Debug, Clone)]
enum Op {
    /// `count` in-order samples `gap` apart, of `value`, its sign flipped
    /// every other sample when `alternate`; through a kept id when
    /// `by_id`, else `insert_at`.
    Run {
        series: Series,
        gap: u64,
        value: f64,
        count: u8,
        alternate: bool,
        by_id: bool,
    },
    /// A delayed sample, `back` µs before the `pick`-th sample the series
    /// holds (equal-time when `back` is 0), or before the clock when it
    /// holds none.
    Delayed {
        series: Series,
        pick: usize,
        back: u64,
        value: f64,
    },
    /// Retention with its cutoff at `per_mille` of the way from the
    /// earliest sample held to one past the clock.
    Retain {
        per_mille: u64,
    },
    DropNode(u8),
}

fn run() -> impl Strategy<Value = Op> {
    let shape = (1u8..12, any::<bool>(), any::<bool>());
    (series(), gap(), value(), shape).prop_map(|(series, gap, value, (count, alternate, by_id))| {
        Op::Run {
            series,
            gap,
            value,
            count,
            alternate,
            by_id,
        }
    })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            run(),
            run(),
            run(),
            (
                series(),
                any::<usize>(),
                prop_oneof![Just(0u64), gap()],
                value()
            )
                .prop_map(|(series, pick, back, value)| Op::Delayed {
                    series,
                    pick,
                    back,
                    value,
                }),
            (0u64..=1000).prop_map(|per_mille| Op::Retain { per_mille }),
            (0u8..NODES).prop_map(Op::DropNode),
        ],
        1..60,
    )
}

fn key(series: Series) -> (String, TagSet) {
    let (measurement, node, pod) = series;
    let tags: TagSet = [
        ("nodename".to_string(), format!("n{node}")),
        ("pod_name".to_string(), format!("p{pod}")),
    ]
    .into();
    (MEASUREMENTS[usize::from(measurement)].to_string(), tags)
}

/// The model's samples in `Database::points` order — series by
/// `(measurement, tags)`, samples by time. `Point` compares values by
/// their bits, so equal points are equal samples.
fn model_points(model: &BTreeMap<(String, TagSet), Vec<(SimTime, f64)>>) -> Vec<Point> {
    let mut points = Vec::new();
    for ((measurement, tags), samples) in model {
        for &(time, value) in samples {
            let point = Point::new(measurement.clone(), time, value);
            points.push(
                tags.iter()
                    .fold(point, |point, (k, v)| point.with_tag(k.clone(), v.clone())),
            );
        }
    }
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_series_reads_back_bit_for_bit(ops in ops()) {
        let mut db = Database::new();
        let mut model: BTreeMap<(String, TagSet), Vec<(SimTime, f64)>> = BTreeMap::new();
        let mut ids: BTreeMap<Series, SeriesId> = BTreeMap::new();
        let (mut inserted, mut evicted) = (0u64, 0u64);
        let mut now = 1_000_000u64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Run { series, gap, value, count, alternate, by_id } => {
                    let (measurement, tags) = key(series);
                    for i in 0..count {
                        now += gap.min(CLOCK_END - now);
                        let value = if alternate && i % 2 == 1 { -value } else { value };
                        let time = SimTime::from_micros(now);
                        if by_id {
                            let live = ids.get(&series).is_some_and(|&id| db.append(id, time, value));
                            if !live {
                                let id = db.resolve(&measurement, &tags);
                                prop_assert!(db.append(id, time, value));
                                ids.insert(series, id);
                            }
                        } else {
                            db.insert_at(&measurement, &tags, time, value);
                        }
                        let samples = model.entry((measurement.clone(), tags.clone())).or_default();
                        let at = samples.partition_point(|&(t, _)| t <= time);
                        samples.insert(at, (time, value));
                        inserted += 1;
                    }
                }
                Op::Delayed { series, pick, back, value } => {
                    let name = key(series);
                    let samples = model.entry(name.clone()).or_default();
                    let anchor = match samples.len() {
                        0 => now,
                        len => samples[pick % len].0.as_micros(),
                    };
                    let time = SimTime::from_micros(anchor.saturating_sub(back));
                    db.insert_at(&name.0, &name.1, time, value);
                    let at = samples.partition_point(|&(t, _)| t <= time);
                    samples.insert(at, (time, value));
                    inserted += 1;
                }
                Op::Retain { per_mille } => {
                    let earliest = model
                        .values()
                        .filter_map(|samples| samples.first())
                        .map(|&(t, _)| t.as_micros())
                        .min()
                        .unwrap_or(0);
                    let span = u128::from(now + 1 - earliest.min(now));
                    let cutoff = earliest.min(now) + (span * u128::from(per_mille) / 1000) as u64;
                    let gone = db.enforce_retention(
                        SimTime::from_micros(now + 1),
                        SimDuration::from_micros(now + 1 - cutoff),
                    );
                    let cutoff = SimTime::from_micros(cutoff);
                    let mut expected = 0;
                    for samples in model.values_mut() {
                        let keep_from = samples.partition_point(|&(t, _)| t < cutoff);
                        expected += samples.drain(..keep_from).count();
                    }
                    model.retain(|_, samples| !samples.is_empty());
                    prop_assert_eq!(gone, expected, "step {}: evicted", step);
                    evicted += expected as u64;
                }
                Op::DropNode(node) => {
                    let node = format!("n{node}");
                    let gone = db.drop_series_with_first_tag("nodename", &node);
                    let mut expected = 0;
                    model.retain(|(_, tags), samples| {
                        let goes = tags.get("nodename") == Some(&node);
                        if goes {
                            expected += samples.len();
                        }
                        !goes
                    });
                    prop_assert_eq!(gone, expected, "step {}: dropped", step);
                    evicted += expected as u64;
                }
            }

            let held = db.points();
            let expected = model_points(&model);
            prop_assert!(
                held == expected,
                "step {}: {:?}\nstore: {:?}\nmodel: {:?}",
                step,
                op,
                held,
                expected
            );
            let points: usize = model.values().map(Vec::len).sum();
            prop_assert_eq!(db.point_count(), points, "step {}", step);
            prop_assert_eq!(db.series_count(), model.len(), "step {}", step);
            prop_assert_eq!(
                (db.points_inserted(), db.points_evicted()),
                (inserted, evicted),
                "step {}",
                step
            );
        }
    }
}
