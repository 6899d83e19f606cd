//! Property-based tests for the time-series store and query engine.

use proptest::prelude::*;

use des::{SimDuration, SimTime};
use tsdb::{Aggregate, Database, Point, PointBatch, Predicate, Select, TimeBound};

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

    /// A store rebuilt from another's points through `extend` holds the
    /// same points, bit for bit and in order, and answers queries
    /// identically.
    #[test]
    fn a_store_rebuilt_from_points_answers_the_same(points in arbitrary_points()) {
        let mut db = Database::new();
        insert_all(&mut db, &points);
        let mut rebuilt = Database::new();
        rebuilt.extend(db.points());
        prop_assert_eq!(rebuilt.points(), db.points());
        prop_assert_eq!(rebuilt.point_count(), db.point_count());
        prop_assert_eq!(rebuilt.series_count(), db.series_count());
        let q = Select::from_measurement("sgx/epc")
            .aggregate(Aggregate::Max)
            .group_by(["pod_name", "nodename"]);
        let now = SimTime::from_secs(500);
        prop_assert_eq!(db.query(&q, now), rebuilt.query(&q, now));
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

    /// Ingesting a probe frame whole equals ingesting its points one by
    /// one, and a store rebuilt from the points it leaves holds them
    /// again.
    #[test]
    fn a_point_batch_equals_its_points_and_rebuilds_from_them(
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

        let mut unbatched = Database::new();
        unbatched.extend(batch.to_points());
        let mut batched = Database::new();
        batched.insert_batch(&batch);
        let points = batched.points();
        prop_assert_eq!(&points, &unbatched.points());
        let mut rebuilt = Database::new();
        rebuilt.extend(points.clone());
        prop_assert_eq!(rebuilt.points(), points);
    }
}
