//! Scheduler-pass throughput sweep: snapshot captures/sec and pods/sec
//! through one scheduler pass across cluster sizes (5 → 12,500 nodes).
//!
//! Four axes are measured per size; cluster construction, a first
//! capture and submission stay outside the clock, only the
//! `capture_snapshot` / `scheduler_pass` calls themselves are timed:
//!
//! * `capture` — `Orchestrator::capture_snapshot` captures/sec with ~8
//!   nodes receiving probe frames between captures (reported as
//!   `incremental_captures_per_sec`, the key kept from when it advanced
//!   the previous snapshot). A capture is one walk over every worker
//!   that reads the measured usage of the nodes the store's window lists
//!   off that window, so it costs O(workers) plus the *active* nodes'
//!   in-window samples, and no fold over retained series; the
//!   12,500-node cell is the only one where the few field reads a worker
//!   show. The frames carry pod turnover — half of each node's pods
//!   finish and are replaced every pass, their series staying inside the
//!   15-minute retention — because that is what a replay's store looks
//!   like: without it a per-node fold over the node's series reads ≈20×
//!   cheaper here than end to end.
//! * `bind` — pods bound/sec for one scheduler pass over 64 small SGX
//!   pods that all fit, under `sgx-binpack` (first fit: the tier index
//!   hands each placement the one slot it lands on) and, as
//!   `bind_spread`, under `sgx-spread` (each placement rates every node
//!   that can hold the pod, O(1) a node). `slots_per_bind*` is the
//!   deterministic side of both: slots a filter chain ran on per bound
//!   pod (`SchedulingCycle::nodes_scanned`), from the same 64
//!   placements made through a cycle directly.
//! * `backlog` — pods considered/sec for one scheduler pass over a
//!   2,048-pod backlog that fits nowhere (every node is 80 MiB full, the
//!   pods ask for 20 MiB) followed by 8 small pods that do fit: pods per
//!   pass ≫ free capacity, the shape of a saturated cluster's retries.
//!
//! Prints a JSON document (see `BENCH_sched.json` at the repo root for
//! a recorded run) to stdout:
//!
//! ```sh
//! cargo run --release -p bench --bin bench_sched > BENCH_sched.json
//! ```
//!
//! `--smoke` runs a reduced sweep (5/100/1,000 nodes, 1 rep) and asserts
//! the invariants CI cares about: `capture_snapshot` equals the
//! query-engine capture (`ClusterSnapshot::capture` over the
//! orchestrator's store, plus the staleness stamp) bit for bit after pod
//! turnover and reordered frames, the backlog pass binds exactly the pods
//! that fit and leaves the rest queued, both bind passes bind every pod,
//! a first-fit bind visits at most [`MAX_SLOTS_PER_FIRST_FIT`] slots and
//! a spread bind no more than the cluster has, and every rate is
//! positive. The query-engine capture is not timed: a replay only takes
//! it for a step back in time or a retention shorter than the window.

use std::time::Instant;

use cluster::api::{PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::probe::MEASUREMENT_EPC;
use cluster::topology::ClusterSpec;
use des::rng::seeded_rng;
use des::{SimDuration, SimTime};
use orchestrator::{
    ClusterSnapshot, Orchestrator, OrchestratorConfig, PolicyRegistry, SchedulingCycle,
    SGX_BINPACK, SGX_SPREAD,
};
use sgx_sim::units::ByteSize;
use tsdb::PointBatch;

const SIZES: &[usize] = &[5, 100, 1_000, 5_000, 12_500];
const SMOKE_SIZES: &[usize] = &[5, 100, 1_000];
/// Pods scheduled in the timed pass of the bind benchmark.
const PODS_PER_PASS: usize = 64;
/// Unplaceable pods queued ahead of the timed backlog pass…
const BACKLOG_PODS: usize = 2_048;
/// …and placeable ones queued behind them.
const BACKLOG_FITTING_PODS: usize = 8;
/// Nodes that receive probe frames between captures — the "active" set
/// whose in-window samples a capture folds.
const ACTIVE_NODES: usize = 8;
const PODS_PER_FRAME: usize = 8;
/// Pods of each active node that finish, and are replaced, per pass.
const PODS_REPLACED_PER_PASS: usize = 4;
const CAPTURE_PASSES: usize = 50;
const SMOKE_CAPTURE_PASSES: usize = 5;
const REPS: usize = 3;
/// Slots a first-fit placement may visit, whatever the cluster size —
/// the sub-linear gate `--smoke` holds at its largest size.
const MAX_SLOTS_PER_FIRST_FIT: f64 = 64.0;

fn node_name(i: usize) -> String {
    format!("node-{i:05}")
}

fn build_orchestrator(nodes: usize, scheduler: &str) -> Orchestrator {
    let mut spec = ClusterSpec::new();
    for i in 0..nodes {
        spec = spec.with_node(node_name(i), MachineSpec::sgx_node(), NodeRole::Worker);
    }
    Orchestrator::new(
        spec,
        OrchestratorConfig::paper().with_default_scheduler(scheduler),
    )
}

/// The from-scratch capture: Listing 1 through the query engine for
/// every worker, then the staleness stamp. No node fails here, so the
/// recovery quarantine has nothing to add.
fn full_capture(orch: &Orchestrator, now: SimTime) -> ClusterSnapshot {
    ClusterSnapshot::capture(orch.cluster(), orch.db(), now, orch.config().metrics_window)
        .with_staleness(orch.config().staleness_threshold, |name| {
            orch.metrics_age(name, now)
        })
}

fn sgx_pod(name: String, mib: u64) -> PodSpec {
    PodSpec::builder(name)
        .sgx_resources(ByteSize::from_mib(mib))
        .duration(SimDuration::from_secs(3_600))
        .build()
}

/// The frame node `node` emits at capture pass `pass`: the pods running
/// there then, `PODS_REPLACED_PER_PASS` of them new since the last one.
fn frame_for(node: usize, pass: usize, now: SimTime) -> PointBatch {
    let mut batch = PointBatch::new(MEASUREMENT_EPC, "pod_name", now)
        .with_shared_tag("nodename", node_name(node));
    let oldest = pass * PODS_REPLACED_PER_PASS;
    for pod in oldest..oldest + PODS_PER_FRAME {
        batch.push(
            format!("pod-{pod}"),
            (node * 1000 + pod % 89 * 10 + pass % 7 + 1) as f64,
        );
    }
    batch
}

/// `capture_snapshot` captures/sec with `ACTIVE_NODES` nodes ingesting
/// one frame between consecutive captures.
fn run_captures(nodes: usize, passes: usize, reps: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut orch = build_orchestrator(nodes, SGX_BINPACK);
        // One capture outside the clock, as a replay's first pass.
        let _ = orch.capture_snapshot(SimTime::from_secs(1));
        let active = ACTIVE_NODES.min(nodes);
        let mut timed = std::time::Duration::ZERO;
        for pass in 0..passes {
            let now = SimTime::from_secs(10 * (pass as u64 + 1));
            for node in 0..active {
                let name = cluster::api::NodeName::new(node_name(node));
                orch.ingest_frame(&name, &frame_for(node, pass, now), now);
            }
            let start = Instant::now();
            let snapshot = orch.capture_snapshot(now);
            timed += start.elapsed();
            assert_eq!(snapshot.len(), nodes);
        }
        best = best.max(passes as f64 / timed.as_secs_f64());
    }
    best
}

/// Pods bound/sec for one scheduler pass over `PODS_PER_PASS` pods
/// under `scheduler`.
fn run_bind(nodes: usize, reps: usize, scheduler: &str) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut orch = build_orchestrator(nodes, scheduler);
        let _ = orch.capture_snapshot(SimTime::from_secs(1));
        for i in 0..PODS_PER_PASS {
            orch.submit(sgx_pod(format!("pod-{i:03}"), 1), SimTime::from_secs(2));
        }
        let start = Instant::now();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let elapsed = start.elapsed();
        assert_eq!(outcomes.len(), PODS_PER_PASS);
        let bound = outcomes.iter().filter(|o| o.report.started()).count();
        assert_eq!(bound, PODS_PER_PASS, "every 1 MiB pod should bind");
        best = best.max(bound as f64 / elapsed.as_secs_f64());
    }
    best
}

/// Slots visited per bound pod for the bind pass's placements, made
/// through a cycle directly (place, then reserve): a count, not a time.
fn slots_per_bind(nodes: usize, scheduler: &str) -> f64 {
    let orch = build_orchestrator(nodes, scheduler);
    let pipeline = PolicyRegistry::builtin()
        .by_name(scheduler)
        .expect("a built-in scheduler");
    let mut cycle = SchedulingCycle::new(orch.capture_snapshot(SimTime::from_secs(1)));
    for i in 0..PODS_PER_PASS {
        let pod = sgx_pod(format!("pod-{i:03}"), 1);
        let node = cycle
            .place(&pipeline, &pod)
            .expect("every 1 MiB pod should place");
        cycle.reserve(&node, &pod);
    }
    cycle.nodes_scanned() as f64 / PODS_PER_PASS as f64
}

/// Pods considered/sec for one scheduler pass over a backlog that fits
/// nowhere plus a few pods that do. Every node already runs an 80 MiB
/// pod (started on the node directly, as a foreign scheduler would:
/// filling 12,500 nodes through `scheduler_pass` would cost 12,500
/// whole-cluster placements of set-up per repetition), the backlog asks
/// for 20 MiB each, the pods behind it for 1 MiB.
fn run_backlog(nodes: usize, reps: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut orch = build_orchestrator(nodes, SGX_BINPACK);
        let mut rng = seeded_rng(7);
        for (i, node) in orch.cluster_mut().nodes_mut().enumerate() {
            let uid = PodUid::new(1_000_000 + i as u64);
            let report = node
                .run_pod(
                    uid,
                    sgx_pod(format!("filler-{i}"), 80),
                    SimTime::ZERO,
                    &mut rng,
                )
                .expect("an empty node admits its filler");
            assert!(report.started());
        }
        let _ = orch.capture_snapshot(SimTime::from_secs(1));
        for i in 0..BACKLOG_PODS {
            orch.submit(sgx_pod(format!("big-{i:04}"), 20), SimTime::from_secs(2));
        }
        for i in 0..BACKLOG_FITTING_PODS {
            orch.submit(sgx_pod(format!("small-{i}"), 1), SimTime::from_secs(3));
        }
        let considered = orch.queue().len();
        assert_eq!(considered, BACKLOG_PODS + BACKLOG_FITTING_PODS);
        let start = Instant::now();
        let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
        let elapsed = start.elapsed();
        assert_eq!(
            outcomes.len(),
            BACKLOG_FITTING_PODS,
            "only the 1 MiB pods fit"
        );
        assert_eq!(orch.queue().len(), BACKLOG_PODS, "the backlog stays queued");
        best = best.max(considered as f64 / elapsed.as_secs_f64());
    }
    best
}

/// Smoke-only: `capture_snapshot` must equal the query-engine capture
/// after a bind, a pod completion, and frames with pod turnover that
/// arrive out of order (each pass's frame is delivered after the next
/// one's).
fn assert_snapshot_equivalence(nodes: usize) {
    let mut orch = build_orchestrator(nodes, SGX_BINPACK);
    let sampled_at = |pass: usize| SimTime::from_secs(10 * (pass as u64 + 2));
    for pass in 0..6 {
        if pass == 0 {
            let _ = orch.capture_snapshot(SimTime::from_secs(1));
            orch.submit(sgx_pod("smoke-pod".to_string(), 4), SimTime::from_secs(2));
            let outcomes = orch.scheduler_pass(SimTime::from_secs(5));
            assert!(outcomes[0].report.started());
        }
        // Frames 1, 0, 3, 2, 5, 4.
        let delivered = pass ^ 1;
        for node in 0..ACTIVE_NODES.min(nodes) {
            let name = cluster::api::NodeName::new(node_name(node));
            let frame = frame_for(node, delivered, sampled_at(delivered));
            orch.ingest_frame(&name, &frame, sampled_at(delivered));
        }
        if pass == 3 {
            let uid = *orch.records().keys().next().expect("one pod submitted");
            orch.complete_pod(uid, sampled_at(pass))
                .expect("pod completes");
        }
        let now = sampled_at(pass) + SimDuration::from_secs(5);
        assert_eq!(
            orch.capture_snapshot(now),
            full_capture(&orch, now),
            "capture must equal the query-engine capture at {nodes} nodes, pass {pass}"
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, passes, reps) = if smoke {
        (SMOKE_SIZES, SMOKE_CAPTURE_PASSES, 1)
    } else {
        (SIZES, CAPTURE_PASSES, REPS)
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows = Vec::new();
    for &nodes in sizes {
        let captures = run_captures(nodes, passes, reps);
        let bind = run_bind(nodes, reps, SGX_BINPACK);
        let bind_spread = run_bind(nodes, reps, SGX_SPREAD);
        let slots = slots_per_bind(nodes, SGX_BINPACK);
        let slots_spread = slots_per_bind(nodes, SGX_SPREAD);
        let backlog = run_backlog(nodes, reps);
        if smoke {
            assert_snapshot_equivalence(nodes);
            assert!(captures > 0.0 && backlog > 0.0);
            assert!(bind > 0.0 && bind_spread > 0.0);
            assert!(
                slots <= MAX_SLOTS_PER_FIRST_FIT,
                "first fit visited {slots} slots a bind at {nodes} nodes"
            );
            assert!(
                slots_spread <= nodes as f64,
                "spread visited {slots_spread} slots a bind at {nodes} nodes"
            );
            eprintln!("smoke nodes={nodes}: snapshot equivalence and slots-per-bind bounds OK");
        }
        eprintln!(
            "nodes={nodes}: captures {captures:.0}/s; bind {bind:.0} pods/s \
             ({slots:.1} slots/bind), spread {bind_spread:.0} pods/s \
             ({slots_spread:.1} slots/bind); backlog {backlog:.0} pods/s",
        );
        rows.push(format!(
            concat!(
                "    {{\"nodes\": {}, \"cores\": {}, ",
                "\"incremental_captures_per_sec\": {:.1}, ",
                "\"bind_pods_per_sec\": {:.0}, ",
                "\"bind_spread_pods_per_sec\": {:.0}, ",
                "\"slots_per_bind\": {:.1}, ",
                "\"slots_per_bind_spread\": {:.1}, ",
                "\"backlog_pods_per_sec\": {:.0}}}"
            ),
            nodes, cores, captures, bind, bind_spread, slots, slots_spread, backlog
        ));
    }
    println!("{{");
    println!("  \"benchmark\": \"scheduler_pass_throughput\",");
    println!("  \"pods_per_pass\": {PODS_PER_PASS},");
    println!("  \"backlog_pods\": {BACKLOG_PODS},");
    println!("  \"backlog_fitting_pods\": {BACKLOG_FITTING_PODS},");
    println!("  \"active_nodes_between_captures\": {ACTIVE_NODES},");
    println!("  \"pods_per_frame\": {PODS_PER_FRAME},");
    println!("  \"pods_replaced_per_pass\": {PODS_REPLACED_PER_PASS},");
    println!("  \"capture_passes\": {passes},");
    println!("  \"reps\": {reps},");
    println!("  \"smoke\": {smoke},");
    println!("  \"results\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
