//! Property test: the ingest-side [`WindowRollup`] is Listing 1, bit for
//! bit. A rollup and a [`Database`] are fed the same random frames —
//! delayed and duplicate instants, zero and negative values, the same
//! pod twice in one frame, frames keyed by other tags than the probes
//! use, node drop and re-add, retention — and after every capture of a
//! non-decreasing capture sequence (which may lag the newest sample) the
//! rollup's value for every node equals, by `to_bits`, the row the
//! nested `SUM(MAX(..))` query returns for it.

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};
use proptest::prelude::*;
use tsdb::{Aggregate, Database, PointBatch, Predicate, Select, TimeBound, WindowRollup};

const MEASUREMENTS: [&str; 2] = ["sgx/epc", "memory/usage"];
const NODES: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Advance time by `dt` s, then deliver one frame sampled `back` s
    /// ago. `shape` picks how the frame is tagged; a `value` below the
    /// cut-off is delivered as exactly zero.
    Feed {
        dt: u64,
        back: u64,
        node: usize,
        measurement: usize,
        shape: u8,
        rows: Vec<(u8, f64)>,
    },
    /// Deregister a node: its series and its window go together.
    DropNode(usize),
    /// Enforce a retention of the window plus `keep` s.
    Retain { keep: u64 },
    /// Advance time by `dt` s and capture at `now - lag`, or at the
    /// previous capture instant if that would step backwards.
    Capture { dt: u64, lag: u64 },
}

fn feed() -> impl Strategy<Value = Op> {
    let rows = prop::collection::vec((0u8..5, -40.0f64..100.0), 0..6);
    (0u64..4, 0u64..40, 0usize..NODES, 0usize..2, 0u8..6, rows).prop_map(
        |(dt, back, node, measurement, shape, rows)| Op::Feed {
            dt,
            back,
            node,
            measurement,
            shape,
            rows,
        },
    )
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            feed(),
            feed(),
            (0usize..NODES).prop_map(Op::DropNode),
            (0u64..30).prop_map(|extra| Op::Retain { keep: extra }),
            (0u64..20, 0u64..50).prop_map(|(dt, lag)| Op::Capture { dt, lag }),
            (0u64..20, 0u64..2).prop_map(|(dt, lag)| Op::Capture { dt, lag }),
        ],
        1..80,
    )
}

fn frame(
    time: SimTime,
    node: usize,
    measurement: usize,
    shape: u8,
    rows: &[(u8, f64)],
) -> PointBatch {
    let node = format!("n{node}");
    let value = |v: f64| if v < 0.0 && v > -10.0 { 0.0 } else { v };
    let mut batch = match shape {
        // Rows told apart by node; the pod is shared.
        0 => PointBatch::new(MEASUREMENTS[measurement], "nodename", time)
            .with_shared_tag("pod_name", "p1"),
        // Rows told apart by a tag the query does not group by (one
        // sorting after `nodename`, which `drop_series_with_first_tag`
        // relies on): no member at all, or a shared one.
        1 => PointBatch::new(MEASUREMENTS[measurement], "zone", time)
            .with_shared_tag("nodename", node),
        2 => PointBatch::new(MEASUREMENTS[measurement], "zone", time)
            .with_shared_tag("nodename", node)
            .with_shared_tag("pod_name", "p2"),
        // No node tag: the outer query gives these rows no node.
        3 => PointBatch::new(MEASUREMENTS[measurement], "pod_name", time),
        // What the probes ship.
        _ => PointBatch::new(MEASUREMENTS[measurement], "pod_name", time)
            .with_shared_tag("nodename", node),
    };
    for &(key, v) in rows {
        let tag = if shape == 0 {
            format!("n{}", usize::from(key) % NODES)
        } else {
            format!("p{key}")
        };
        batch.push(tag, value(v));
    }
    batch
}

fn listing1(measurement: &str, window: SimDuration) -> Select {
    let per_pod = Select::from_measurement(measurement)
        .aggregate(Aggregate::Max)
        .filter(Predicate::ValueNe(0.0))
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(window)))
        .group_by(["pod_name", "nodename"]);
    Select::from_subquery(per_pod)
        .aggregate(Aggregate::Sum)
        .group_by(["nodename"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rollup_equals_the_nested_query_by_bits(
        ops in ops(),
        window_secs in 1u64..30,
    ) {
        let window = SimDuration::from_secs(window_secs);
        let mut db = Database::new();
        let mut rollup = WindowRollup::new("nodename", "pod_name");
        let mut now = SimTime::from_secs(5);
        let mut captured_at = SimTime::ZERO;
        for (index, op) in ops.iter().enumerate() {
            match op {
                Op::Feed { dt, back, node, measurement, shape, rows } => {
                    now += SimDuration::from_secs(*dt);
                    let at = TimeBound::SinceNowMinus(SimDuration::from_secs(*back)).resolve(now);
                    let batch = frame(at, *node, *measurement, *shape, rows);
                    db.insert_batch(&batch);
                    rollup.feed(&batch);
                }
                Op::DropNode(node) => {
                    let node = format!("n{node}");
                    db.drop_series_with_first_tag("nodename", &node);
                    rollup.forget(&node);
                }
                Op::Retain { keep } => {
                    let keep = window + SimDuration::from_secs(*keep);
                    db.enforce_retention(now, keep);
                    rollup.trim(TimeBound::SinceNowMinus(keep).resolve(now));
                }
                Op::Capture { dt, lag } => {
                    now += SimDuration::from_secs(*dt);
                    let at = TimeBound::SinceNowMinus(SimDuration::from_secs(*lag)).resolve(now);
                    captured_at = captured_at.max(at);
                    let lo = TimeBound::SinceNowMinus(window).resolve(captured_at);
                    // Below the floor the contract sends the reader to
                    // the store (retention overtook this capture).
                    if lo < rollup.floor() {
                        continue;
                    }
                    for measurement in MEASUREMENTS {
                        let rows: BTreeMap<String, f64> = db
                            .query(&listing1(measurement, window), captured_at)
                            .into_iter()
                            .filter_map(|row| Some((row.tag("nodename")?.to_string(), row.value)))
                            .collect();
                        for node in 0..NODES {
                            let node = format!("n{node}");
                            let expected = rows.get(&node).copied().unwrap_or(0.0);
                            let got = rollup.sum_of_max(&node, measurement, lo);
                            prop_assert_eq!(
                                got.to_bits(),
                                expected.to_bits(),
                                "{} of {} at op {} (capture at {}): rollup {} vs query {}",
                                measurement, node, index, captured_at, got, expected
                            );
                        }
                        // A node is listed exactly when some window can
                        // still read it non-empty.
                        for node in rows.keys() {
                            prop_assert!(rollup.groups().any(|group| group == node));
                        }
                    }
                    rollup.trim(lo);
                }
            }
        }
    }
}
