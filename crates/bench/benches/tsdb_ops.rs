//! Time-series database throughput: ingestion and the paper's Listing 1
//! sliding-window query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use des::{SimDuration, SimTime};
use tsdb::{Database, Point};

fn populated_db(pods: usize, samples: usize) -> Database {
    let mut db = Database::new();
    for s in 0..samples {
        for p in 0..pods {
            db.insert(
                Point::new(
                    "sgx/epc",
                    SimTime::from_secs(s as u64 * 10),
                    (p + 1) as f64 * 4096.0,
                )
                .with_tag("pod_name", format!("pod-{p}"))
                .with_tag("nodename", format!("node-{}", p % 4)),
            );
        }
    }
    db
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("tsdb/insert_point", |b| {
        let mut db = Database::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            db.insert(
                Point::new("sgx/epc", SimTime::from_secs(t), 4096.0)
                    .with_tag("pod_name", "pod-1")
                    .with_tag("nodename", "node-1"),
            );
        });
    });
}

fn bench_listing1(c: &mut Criterion) {
    let query = tsdb::influxql::parse(
        r#"SELECT SUM(epc) AS epc FROM
           (SELECT MAX(value) AS epc FROM "sgx/epc"
            WHERE value <> 0 AND time >= now() - 25s
            GROUP BY pod_name, nodename)
           GROUP BY nodename"#,
    )
    .expect("Listing 1 parses");

    let mut group = c.benchmark_group("tsdb/listing1_query");
    for pods in [10usize, 100, 1000] {
        let db = populated_db(pods, 30);
        let now = SimTime::from_secs(310);
        group.bench_with_input(BenchmarkId::from_parameter(pods), &db, |b, db| {
            b.iter(|| black_box(db.query(black_box(&query), now)))
        });
    }
    group.finish();
}

/// `pods` series with one sample per second for `seconds` seconds — the
/// history an orchestrator accumulates at the paper's probe cadence.
fn history_db(pods: usize, seconds: u64) -> Database {
    let mut db = Database::new();
    for s in 0..seconds {
        tick_insert(&mut db, pods, SimTime::from_secs(s));
    }
    db
}

fn tick_insert(db: &mut Database, pods: usize, now: SimTime) {
    for p in 0..pods {
        db.insert(
            Point::new("sgx/epc", now, ((p + 1) * 4096) as f64)
                .with_tag("pod_name", format!("pod-{p}"))
                .with_tag("nodename", format!("node-{}", p % 4)),
        );
    }
}

/// The orchestrator's steady state: every tick appends one sample per pod
/// and re-evaluates Listing 1 over the trailing 25 s window, against
/// 10 minutes of accumulated 1 s-period history. Compares the naive
/// full-scan executor with the time-bounded streaming scan — both
/// answer identically; only the work per tick differs (O(history) vs
/// O(log history + window)).
fn bench_listing1_per_tick(c: &mut Criterion) {
    let query = tsdb::influxql::parse(
        r#"SELECT SUM(epc) AS epc FROM
           (SELECT MAX(value) AS epc FROM "sgx/epc"
            WHERE value <> 0 AND time >= now() - 25s
            GROUP BY pod_name, nodename)
           GROUP BY nodename"#,
    )
    .expect("Listing 1 parses");
    const PODS: usize = 20;
    const HISTORY_SECS: u64 = 600;

    let mut group = c.benchmark_group("tsdb/listing1_per_tick");
    group.bench_function("full_scan", |b| {
        let mut db = history_db(PODS, HISTORY_SECS);
        let mut now = SimTime::from_secs(HISTORY_SECS);
        b.iter(|| {
            now += SimDuration::from_secs(1);
            tick_insert(&mut db, PODS, now);
            black_box(db.query_full_scan(black_box(&query), now))
        });
    });
    group.bench_function("streaming", |b| {
        let mut db = history_db(PODS, HISTORY_SECS);
        let mut now = SimTime::from_secs(HISTORY_SECS);
        b.iter(|| {
            now += SimDuration::from_secs(1);
            tick_insert(&mut db, PODS, now);
            black_box(db.query(black_box(&query), now))
        });
    });
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("tsdb/parse_listing1", |b| {
        b.iter(|| {
            black_box(
                tsdb::influxql::parse(
                    r#"SELECT SUM(epc) AS epc FROM
                       (SELECT MAX(value) AS epc FROM "sgx/epc"
                        WHERE value <> 0 AND time >= now() - 25s
                        GROUP BY pod_name, nodename)
                       GROUP BY nodename"#,
                )
                .unwrap(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_insert,
    bench_listing1,
    bench_listing1_per_tick,
    bench_parse
);
criterion_main!(benches);
