//! Ingestion-path micro-benchmarks: the per-point seed path (one tag-set
//! allocation per sample) against the batched [`PointBatch`] transport
//! into the [`Database`], and the wire codec of a frame.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use des::SimTime;
use tsdb::{Database, Point, PointBatch};

const PODS: usize = 20;

/// One scrape's worth of per-point inserts — the seed transport: every
/// point clones the measurement and both tag strings.
fn insert_points(db: &mut Database, now: SimTime) {
    for p in 0..PODS {
        db.insert(
            Point::new("sgx/epc", now, ((p + 1) * 4096) as f64)
                .with_tag("pod_name", format!("pod-{p}"))
                .with_tag("nodename", "node-0"),
        );
    }
}

/// The same scrape as one wire frame: shared tags stored once, rows carry
/// only the pod name and value.
fn scrape_batch(now: SimTime) -> PointBatch {
    let mut batch =
        PointBatch::new("sgx/epc", "pod_name", now).with_shared_tag("nodename", "node-0");
    for p in 0..PODS {
        batch.push(format!("pod-{p}"), ((p + 1) * 4096) as f64);
    }
    batch
}

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/transport");
    group.bench_function("per_point", |b| {
        let mut db = Database::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            insert_points(&mut db, SimTime::from_secs(t));
        });
    });
    group.bench_function("batched", |b| {
        let mut db = Database::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            db.insert_batch(black_box(&scrape_batch(SimTime::from_secs(t))));
        });
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/wire");
    let batch = scrape_batch(SimTime::from_secs(1));
    group.bench_function("encode_batch", |b| {
        b.iter(|| black_box(tsdb::wire::encode_batch(black_box(&batch))))
    });
    let frame = tsdb::wire::encode_batch(&batch);
    group.bench_function("decode_batch", |b| {
        b.iter(|| black_box(tsdb::wire::decode_batch(black_box(&frame)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_transport, bench_wire);
criterion_main!(benches);
