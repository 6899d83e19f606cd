//! Placement-decision latency for every registered scheduling pipeline,
//! as the cluster grows.
//!
//! Each sample snapshots nothing: the [`ClusterSnapshot`] is frozen once
//! per cluster size, one [`SchedulingCycle`] is opened on it, and every
//! iteration runs one `place()` through the pipeline's filter chain and
//! score stages — what a scheduler pass pays per pending pod that still
//! fits somewhere (nothing is reserved, so every iteration walks the
//! tier index afresh). The sizes run from the paper's four and five
//! nodes to 4,096 so both ends of the per-decision curve show: what the
//! index costs where there is nothing to skip, and its shape beyond —
//! flat for `sgx-binpack` (first fit off the index), linear with a small
//! constant for `sgx-spread` and `default` (they rate every node that
//! can hold the pod).
//!
//! The `cycle_open` group times what every scheduler pass with a pod
//! pending pays before its first placement: `SchedulingCycle::new` over
//! a clone of the frozen snapshot (an `Arc` bump), dropped again.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cluster::api::PodSpec;
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::{Cluster, ClusterSpec};
use des::{SimDuration, SimTime};
use orchestrator::{ClusterSnapshot, PolicyRegistry, SchedulingCycle};
use sgx_sim::units::ByteSize;
use tsdb::Database;

fn snapshot(nodes: usize) -> ClusterSnapshot {
    let mut spec = ClusterSpec::new();
    for i in 0..nodes {
        let machine = if i % 2 == 0 {
            MachineSpec::sgx_node()
        } else {
            MachineSpec::dell_r330()
        };
        spec = spec.with_node(format!("node-{i:04}"), machine, NodeRole::Worker);
    }
    let cluster = Cluster::build(&spec);
    ClusterSnapshot::capture(
        &cluster,
        &Database::new(),
        SimTime::from_secs(30),
        SimDuration::from_secs(25),
    )
}

fn bench_placement(c: &mut Criterion) {
    let sgx_pod = PodSpec::builder("sgx")
        .sgx_resources(ByteSize::from_mib(16))
        .build();
    let std_pod = PodSpec::builder("std")
        .memory_resources(ByteSize::from_gib(2))
        .build();

    let registry = PolicyRegistry::builtin();
    let mut group = c.benchmark_group("placement_decision");
    for nodes in [4usize, 5, 16, 64, 256, 1_024, 4_096] {
        let snap = snapshot(nodes);
        for name in registry.names() {
            let pipeline = registry.by_name(&name).expect("listed names resolve");
            for (label, pod) in [("sgx_pod", &sgx_pod), ("std_pod", &std_pod)] {
                let mut cycle = SchedulingCycle::new(snap.clone());
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}/{label}"), nodes),
                    pod,
                    |b, pod| b.iter(|| black_box(cycle.place(&pipeline, black_box(pod)))),
                );
            }
        }
    }
    group.finish();
}

fn bench_cycle_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_open");
    for nodes in [5usize, 100, 1_000] {
        let snap = snapshot(nodes);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &snap, |b, snap| {
            b.iter(|| black_box(SchedulingCycle::new(black_box(snap.clone()))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement, bench_cycle_open);
criterion_main!(benches);
