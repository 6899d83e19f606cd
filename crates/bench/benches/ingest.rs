//! Ingestion-path micro-benchmarks: one probe tick of a replay-sized
//! fleet into the [`Database`] — per point, as tagged [`PointBatch`]
//! frames, and by resolved [`SeriesId`] — and the wire codec of a frame.
//!
//! `ingest/transport` measures what a replay pays, which a handful of
//! immortal series does not show: 8,400 live series (60 nodes × 140
//! pods, `steady_static`'s population), one pod a node replaced every
//! tick, so series are created at one end and run out of a 90-tick
//! retention — enforced every tick — at the other. Each case is warmed
//! past the retention first; an iteration is one tick, 8,400 points.
//!
//! `ingest/series` prices a series' birth and death at
//! `fullscale_autoscale`'s population: creating one among ≈24,000, and a
//! retention that unregisters 1 % of 20,000.

use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::RefCell;
use std::hint::black_box;

use des::{SimDuration, SimTime};
use tsdb::{Database, Point, PointBatch, SeriesId, TagSet};

const NODES: usize = 60;
const PODS: usize = 140;
const PERIOD: SimDuration = SimDuration::from_secs(10);
const RETENTION: SimDuration = SimDuration::from_mins(15);

/// The pods of every node, tick by tick: uid-ascending per node, the
/// oldest replaced by a fresh uid each tick. `T` is what a transport
/// keeps per pod between ticks.
struct Fleet<T> {
    now: SimTime,
    next_uid: u64,
    nodes: Vec<Vec<(u64, T)>>,
}

impl<T: Copy> Fleet<T> {
    fn new(fresh: T) -> Self {
        let nodes = (0..NODES)
            .map(|n| (0..PODS).map(|p| ((n * PODS + p) as u64, fresh)).collect())
            .collect();
        Fleet {
            now: SimTime::ZERO,
            next_uid: (NODES * PODS) as u64,
            nodes,
        }
    }

    /// One tick: `ingest` sees every node's pods, then retention runs.
    fn tick(
        &mut self,
        db: &mut Database,
        fresh: T,
        mut ingest: impl FnMut(&mut Database, usize, SimTime, &mut [(u64, T)]),
    ) {
        self.now += PERIOD;
        for (n, pods) in self.nodes.iter_mut().enumerate() {
            pods.remove(0);
            pods.push((self.next_uid, fresh));
            self.next_uid += 1;
            ingest(db, n, self.now, pods);
        }
        db.enforce_retention(self.now, RETENTION);
    }

    /// Warms the store past the retention, then measures ticks.
    fn bench(
        mut self,
        b: &mut criterion::Bencher,
        fresh: T,
        mut ingest: impl FnMut(&mut Database, usize, SimTime, &mut [(u64, T)]),
    ) {
        let mut db = Database::new();
        for _ in 0..RETENTION.as_secs() / PERIOD.as_secs() + 10 {
            self.tick(&mut db, fresh, &mut ingest);
        }
        assert!(db.points_evicted() > 0 && db.series_count() >= NODES * PODS);
        b.iter(|| self.tick(&mut db, fresh, &mut ingest));
        black_box(db.point_count());
    }
}

fn value(uid: u64) -> f64 {
    ((uid % 97 + 1) * 4096) as f64
}

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/transport");
    // The seed transport: every point clones the measurement and formats
    // and allocates both tag strings.
    group.bench_function("per_point", |b| {
        Fleet::new(()).bench(b, (), |db, n, now, pods| {
            for &(uid, ()) in pods.iter() {
                db.insert(
                    Point::new("sgx/epc", now, value(uid))
                        .with_tag("pod_name", format!("pod-{uid}"))
                        .with_tag("nodename", format!("node-{n}")),
                );
            }
        });
    });
    // One tagged frame per node — what crosses the wire and what
    // `ingest_frame` takes: a name formatted per row, the series resolved
    // on arrival.
    group.bench_function("batched", |b| {
        Fleet::new(()).bench(b, (), |db, n, now, pods| {
            let mut batch = PointBatch::new("sgx/epc", "pod_name", now)
                .with_shared_tag("nodename", format!("node-{n}"));
            for &(uid, ()) in pods.iter() {
                batch.push(format!("pod-{uid}"), value(uid));
            }
            db.insert_batch(black_box(&batch));
        });
    });
    // What the in-process probe pass does: a pod resolves its series on
    // first contact and appends by id from then on.
    group.bench_function("resolved", |b| {
        Fleet::new(None::<SeriesId>).bench(b, None, |db, n, now, pods| {
            for (uid, series) in pods.iter_mut() {
                let value = value(*uid);
                if series.is_none_or(|id| !db.append(id, now, value)) {
                    let tags: TagSet = [
                        ("nodename".to_string(), format!("node-{n}")),
                        ("pod_name".to_string(), format!("pod-{uid}")),
                    ]
                    .into();
                    let id = db.resolve("sgx/epc", &tags);
                    db.append(id, now, value);
                    *series = Some(id);
                }
            }
        });
    });
    group.finish();
}

/// Overwrites `tags` with a probe series' `{nodename, pod_name}`, named
/// the way `fullscale_autoscale` names them, reusing the strings held.
fn name_series(tags: &mut TagSet, pod: u64) {
    let node = format!("as-sgx-{:05}", pod / 50 % 490);
    for (key, value) in [("nodename", node), ("pod_name", format!("pod-{pod}"))] {
        match tags.get_mut(key) {
            Some(held) => {
                held.clear();
                held.push_str(&value);
            }
            None => {
                tags.insert(key.to_string(), value);
            }
        }
    }
}

/// A store of `live` series, pod `p` sampled once at `p` s.
fn named_store(live: u64) -> Database {
    let mut db = Database::new();
    let mut tags = TagSet::new();
    for pod in 0..live {
        name_series(&mut tags, pod);
        let id = db.resolve("sgx/epc", &tags);
        db.append(id, SimTime::from_secs(pod), value(pod));
    }
    db
}

/// Series turnover at `fullscale_autoscale`'s population. `create` is a
/// resolve that misses — a pod's first scrape: an iteration names a new
/// series (untimed) and resolves it and appends its first sample among
/// ≈24,000 live ones, a retention every 1,000 iterations (untimed)
/// keeping the population there. `turnover` is a retention that empties
/// 1 % of 20,000 series and leaves the rest alone; the emptied 200 are
/// named again (untimed) before the next.
fn bench_series(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/series");
    group.bench_function("create", |b| {
        const LIVE: u64 = 24_000;
        let db = RefCell::new(named_store(LIVE));
        let tags = RefCell::new(TagSet::new());
        let mut pod = LIVE;
        b.iter_with_setup(
            || {
                pod += 1;
                if pod.is_multiple_of(1_000) {
                    let now = SimTime::from_secs(pod);
                    db.borrow_mut()
                        .enforce_retention(now, SimDuration::from_secs(LIVE));
                }
                name_series(&mut tags.borrow_mut(), pod);
                pod
            },
            |pod| {
                let mut db = db.borrow_mut();
                let id = db.resolve("sgx/epc", &tags.borrow());
                db.append(id, SimTime::from_secs(pod), value(pod))
            },
        );
        assert!(db.borrow().series_count() <= LIVE as usize + 1_000);
    });
    group.bench_function("turnover", |b| {
        const LIVE: u64 = 20_000;
        const EMPTIED: u64 = LIVE / 100;
        // The long-lived series hold a sample no cutoff below reaches.
        let far = SimTime::from_secs(1 << 40);
        let db = RefCell::new(Database::new());
        let mut tags = TagSet::new();
        for pod in 0..LIVE - EMPTIED {
            name_series(&mut tags, pod);
            let id = db.borrow_mut().resolve("sgx/epc", &tags);
            db.borrow_mut().append(id, far, value(pod));
        }
        let mut round = 0;
        b.iter_with_setup(
            || {
                round += 1;
                let mut db = db.borrow_mut();
                for i in 0..EMPTIED {
                    let pod = LIVE * round + i;
                    name_series(&mut tags, pod);
                    let id = db.resolve("sgx/epc", &tags);
                    db.append(id, SimTime::from_secs(round), value(pod));
                }
                SimTime::from_secs(round + 2)
            },
            |now| {
                let evicted = db
                    .borrow_mut()
                    .enforce_retention(now, SimDuration::from_secs(1));
                assert_eq!(evicted, EMPTIED as usize);
            },
        );
        assert_eq!(db.borrow().series_count(), (LIVE - EMPTIED) as usize);
    });
    group.finish();
}

/// One node's scrape as a wire frame.
fn scrape_batch(now: SimTime) -> PointBatch {
    let mut batch =
        PointBatch::new("sgx/epc", "pod_name", now).with_shared_tag("nodename", "node-0");
    for uid in 0..20 {
        batch.push(format!("pod-{uid}"), value(uid));
    }
    batch
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

criterion_group!(benches, bench_transport, bench_series, bench_wire);
criterion_main!(benches);
