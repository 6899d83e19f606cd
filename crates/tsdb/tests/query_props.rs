//! Property-based tests for the time-series store and query engine.
//!
//! The second block holds the streaming executor ([`Database::query`])
//! **bit-for-bit** to the naive full-scan reference on every query, across
//! random insert patterns (including out-of-order arrivals), random
//! sliding-window sizes, every aggregate, several group-bys, and
//! interleaved retention evictions — including evictions that cut into
//! the query window.

use proptest::prelude::*;

use des::{SimDuration, SimTime};
use tsdb::{wire, Aggregate, Database, Point, PointBatch, Predicate, Select, TimeBound};

fn arbitrary_points() -> impl Strategy<Value = Vec<(u64, u8, u8, f64)>> {
    // (time secs, pod id, node id, value)
    prop::collection::vec((0u64..200, 0u8..6, 0u8..3, 0.0f64..1000.0), 1..80)
}

fn insert_all(db: &mut Database, points: &[(u64, u8, u8, f64)]) {
    for &(t, pod, node, v) in points {
        db.insert(
            Point::new("sgx/epc", SimTime::from_secs(t), v)
                .with_tag("pod_name", format!("pod-{pod}"))
                .with_tag("nodename", format!("node-{node}")),
        );
    }
}

proptest! {
    /// The parsed Listing 1 query and the programmatically built AST give
    /// identical results on arbitrary data.
    #[test]
    fn parsed_and_built_queries_agree(points in arbitrary_points(), now in 0u64..300) {
        let mut db = Database::new();
        insert_all(&mut db, &points);

        let parsed = tsdb::influxql::parse(
            r#"SELECT SUM(epc) AS epc FROM
               (SELECT MAX(value) AS epc FROM "sgx/epc"
                WHERE value <> 0 AND time >= now() - 25s
                GROUP BY pod_name, nodename)
               GROUP BY nodename"#,
        ).unwrap();

        let built = Select::from_subquery(
            Select::from_measurement("sgx/epc")
                .aggregate(Aggregate::Max)
                .filter(Predicate::ValueNe(0.0))
                .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(
                    SimDuration::from_secs(25),
                )))
                .group_by(["pod_name", "nodename"]),
        )
        .aggregate(Aggregate::Sum)
        .group_by(["nodename"]);

        let now = SimTime::from_secs(now);
        prop_assert_eq!(db.query(&parsed, now), db.query(&built, now));
    }

    /// The nested query result equals a straightforward reference
    /// computation over the raw points.
    #[test]
    fn listing1_matches_reference_model(points in arbitrary_points(), now in 25u64..300) {
        let mut db = Database::new();
        insert_all(&mut db, &points);
        let now_t = SimTime::from_secs(now);
        let window_start = now - 25;

        // Reference: per (pod, node) max of nonzero in-window values, then
        // summed per node.
        use std::collections::BTreeMap;
        let mut per_pod: BTreeMap<(u8, u8), f64> = BTreeMap::new();
        for &(t, pod, node, v) in &points {
            // Listing 1 has no upper time bound, only the 25 s lower one.
            if v != 0.0 && t >= window_start {
                let e = per_pod.entry((pod, node)).or_insert(f64::MIN);
                *e = e.max(v);
            }
        }
        let mut per_node: BTreeMap<u8, f64> = BTreeMap::new();
        for ((_, node), max) in per_pod {
            *per_node.entry(node).or_insert(0.0) += max;
        }

        let query = tsdb::influxql::parse(
            r#"SELECT SUM(epc) FROM
               (SELECT MAX(value) FROM "sgx/epc"
                WHERE value <> 0 AND time >= now() - 25s
                GROUP BY pod_name, nodename)
               GROUP BY nodename"#,
        ).unwrap();
        let rows = db.query(&query, now_t);

        prop_assert_eq!(rows.len(), per_node.len());
        for row in rows {
            let node: u8 = row.tag("nodename").unwrap()
                .strip_prefix("node-").unwrap().parse().unwrap();
            let expected = per_node[&node];
            prop_assert!((row.value - expected).abs() < 1e-9,
                "node {}: got {}, expected {}", node, row.value, expected);
        }
    }

    /// Retention never removes in-window points and always removes
    /// out-of-window ones.
    #[test]
    fn retention_is_exact(points in arbitrary_points(), keep in 1u64..100) {
        let mut db = Database::new();
        insert_all(&mut db, &points);
        let now = SimTime::from_secs(300);
        let cutoff = 300 - keep;
        let expected_kept = points.iter().filter(|&&(t, ..)| t >= cutoff).count();
        let evicted = db.enforce_retention(now, SimDuration::from_secs(keep));
        prop_assert_eq!(evicted, points.len() - expected_kept);
        prop_assert_eq!(db.point_count(), expected_kept);
    }

    /// The binary snapshot format round-trips arbitrary point streams
    /// exactly, and the restored database answers queries identically.
    #[test]
    fn wire_round_trip(points in arbitrary_points()) {
        let mut db = Database::new();
        insert_all(&mut db, &points);
        let snapshot = db.snapshot();
        let restored = Database::restore(&snapshot).unwrap();
        prop_assert_eq!(restored.point_count(), db.point_count());
        prop_assert_eq!(restored.series_count(), db.series_count());
        let q = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Max)
            .group_by(["pod_name", "nodename"]);
        let now = SimTime::from_secs(500);
        prop_assert_eq!(db.query(&q, now), restored.query(&q, now));
    }

    /// Corrupting any single byte of a snapshot either still decodes to
    /// the same number of points (a value/tag byte changed) or fails
    /// cleanly — it never panics.
    #[test]
    fn wire_corruption_never_panics(points in arbitrary_points(), idx in 0usize..10_000, flip in 1u8..255) {
        let mut db = Database::new();
        insert_all(&mut db, &points);
        let mut bytes = db.snapshot().to_vec();
        let i = idx % bytes.len();
        bytes[i] ^= flip;
        let _ = tsdb::wire::decode(&bytes); // must not panic
    }

    /// Insert order never changes query results (series are canonical).
    #[test]
    fn insert_order_is_irrelevant(points in arbitrary_points()) {
        let mut forward = Database::new();
        insert_all(&mut forward, &points);
        let mut reversed = Database::new();
        let rev: Vec<_> = points.iter().rev().copied().collect();
        insert_all(&mut reversed, &rev);

        let q = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"]);
        let now = SimTime::from_secs(500);
        let a = forward.query(&q, now);
        let b = reversed.query(&q, now);
        // Equal-timestamp samples may be stored in either order, so float
        // sums are compared with a tolerance rather than bit-exactly.
        prop_assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            prop_assert_eq!(&ra.tags, &rb.tags);
            prop_assert!((ra.value - rb.value).abs() < 1e-6);
        }
    }

    /// A probe frame round-trips through the wire format exactly, a
    /// corrupted magic is always detected, and ingesting the frame equals
    /// ingesting its points one by one.
    #[test]
    fn point_batch_wire_round_trip(
        time_secs in 0u64..1000,
        node in 0u8..5,
        rows in prop::collection::vec((0u16..500, 0.0f64..1e9), 0..40),
    ) {
        let mut batch = PointBatch::new(
            "sgx/epc",
            "pod_name",
            SimTime::from_secs(time_secs),
        )
        .with_shared_tag("nodename", format!("n{node}"));
        for (pod, value) in &rows {
            batch.push(format!("pod-{pod}"), *value);
        }

        let frame = wire::encode_batch(&batch);
        let decoded = wire::decode_batch(&frame).expect("round trip");
        prop_assert_eq!(&decoded, &batch);

        let mut corrupt = frame.to_vec();
        corrupt[0] ^= 0xFF;
        prop_assert!(wire::decode_batch(&corrupt).is_err());

        let mut unbatched = Database::new();
        unbatched.extend(batch.to_points());
        let mut batched = Database::new();
        batched.insert_batch(&decoded);
        prop_assert_eq!(batched.snapshot(), unbatched.snapshot());
    }
}

const AGGREGATES: [Aggregate; 6] = [
    Aggregate::Max,
    Aggregate::Min,
    Aggregate::Mean,
    Aggregate::Sum,
    Aggregate::Count,
    Aggregate::Last,
];

#[derive(Debug, Clone)]
enum Op {
    /// Advance time by `dt` seconds, then insert into series `series` a
    /// sample timestamped `back` seconds in the past (out of order when
    /// another sample landed in between).
    Insert {
        dt: u64,
        series: u8,
        back: u64,
        value: f64,
    },
    /// Enforce a retention of `keep` seconds — sometimes shorter than the
    /// query window, so the eviction cuts into it.
    Evict { keep: u64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..4, 0u8..6, 0u64..3, 0.0f64..100.0).prop_map(|(dt, series, back, value)| {
                Op::Insert {
                    dt,
                    series,
                    back,
                    value,
                }
            }),
            (1u64..40).prop_map(|keep| Op::Evict { keep }),
        ],
        1..100,
    )
}

/// Applies one op to the store, advancing `now` as the op says.
fn apply(db: &mut Database, now: &mut SimTime, op: &Op) {
    match *op {
        Op::Insert {
            dt,
            series,
            back,
            value,
        } => {
            *now += SimDuration::from_secs(dt);
            let at = TimeBound::SinceNowMinus(SimDuration::from_secs(back)).resolve(*now);
            db.insert(
                Point::new("sgx/epc", at, value)
                    .with_tag("pod_name", format!("p{}", series % 3))
                    .with_tag("nodename", format!("n{}", series % 2)),
            );
        }
        Op::Evict { keep } => {
            db.enforce_retention(*now, SimDuration::from_secs(keep));
        }
    }
}

fn windowed_select(
    aggregate: Aggregate,
    window: SimDuration,
    group_by: &[&str],
    filter_zero: bool,
) -> Select {
    let mut select = Select::from_measurement("sgx/epc")
        .aggregate(aggregate)
        .filter(Predicate::TimeAtLeast(TimeBound::SinceNowMinus(window)))
        .group_by(group_by.iter().copied());
    if filter_zero {
        select = select.filter(Predicate::ValueNe(0.0));
    }
    select
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_engine_matches_full_scan(
        ops in ops(),
        window_secs in 1u64..30,
        agg_idx in 0usize..6,
        group_idx in 0usize..3,
        filter_zero in any::<bool>(),
    ) {
        let window = SimDuration::from_secs(window_secs);
        let groups: [&[&str]; 3] = [&["pod_name", "nodename"], &["nodename"], &[]];
        let select = windowed_select(
            AGGREGATES[agg_idx],
            window,
            groups[group_idx],
            filter_zero,
        );

        let mut db = Database::new();
        let mut now = SimTime::from_secs(5);
        for op in &ops {
            apply(&mut db, &mut now, op);
            prop_assert_eq!(&db.query(&select, now), &db.query_full_scan(&select, now),
                "streaming scan diverged at now={}", now);
        }
    }

    #[test]
    fn nested_listing1_shape_matches_full_scan(
        ops in ops(),
        window_secs in 1u64..30,
    ) {
        let per_pod = windowed_select(
            Aggregate::Max,
            SimDuration::from_secs(window_secs),
            &["pod_name", "nodename"],
            true,
        );
        let per_node = Select::from_subquery(per_pod)
            .aggregate(Aggregate::Sum)
            .group_by(["nodename"]);

        let mut db = Database::new();
        let mut now = SimTime::from_secs(5);
        for op in &ops {
            apply(&mut db, &mut now, op);
            prop_assert_eq!(&db.query(&per_node, now), &db.query_full_scan(&per_node, now));
        }
    }
}
