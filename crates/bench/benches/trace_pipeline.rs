//! Synthetic-trace generation and preparation throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use borg_trace::{GeneratorConfig, TracePipeline, Workload, WorkloadParams};
use des::{SimDuration, SimTime};

fn bench_generate(c: &mut Criterion) {
    c.bench_function("trace/generate_small", |b| {
        b.iter(|| black_box(GeneratorConfig::small(7).generate()))
    });
}

/// `small` is flat, so it never rejects a candidate; this is the
/// calibrated profile at full rate — ≈1.35 M thinning candidates for
/// ≈1,000 kept jobs, i.e. the time per candidate.
fn bench_thinning(c: &mut Criterion) {
    let config = GeneratorConfig::replay_scale(7).with_horizon(SimDuration::from_secs(600));
    c.bench_function("trace/thinning_replay_scale", |b| {
        b.iter(|| black_box(config.generate_sampled(1200)))
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let trace = GeneratorConfig::small(7).generate();
    c.bench_function("trace/pipeline_slice_sample", |b| {
        let pipeline = TracePipeline::new()
            .slice(SimTime::from_secs(600), SimTime::from_secs(3000))
            .sample_every(3)
            .rebase();
        b.iter(|| black_box(pipeline.prepare(black_box(&trace))))
    });
}

fn bench_materialize(c: &mut Criterion) {
    let trace = GeneratorConfig::small(7).generate();
    let params = WorkloadParams::paper(0.5, 7);
    c.bench_function("trace/materialize_workload", |b| {
        b.iter(|| black_box(Workload::materialize(black_box(&trace), &params)))
    });
}

fn bench_csv_round_trip(c: &mut Criterion) {
    let trace = GeneratorConfig::small(7).generate();
    let text = borg_trace::csv::to_csv(&trace);
    c.bench_function("trace/csv_parse", |b| {
        b.iter(|| black_box(borg_trace::csv::from_csv(black_box(&text)).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_generate,
    bench_thinning,
    bench_pipeline,
    bench_materialize,
    bench_csv_round_trip
);
criterion_main!(benches);
