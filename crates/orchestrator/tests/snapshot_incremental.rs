//! Snapshot captures against the from-scratch oracle: a capture — one
//! walk over the workers, measured usage read from the ingest-side
//! Listing-1 window — must stay bit-identical to a from-scratch capture
//! through the query engine under arbitrary event interleavings and
//! whatever number of mutations lies between two captures, and a
//! delivered frame enters the window of the node it scraped and nothing
//! else.

use proptest::prelude::*;

use cluster::api::{NodeName, PodSpec, PodUid};
use cluster::machine::MachineSpec;
use cluster::node::NodeRole;
use cluster::topology::ClusterSpec;
use des::{SimDuration, SimTime};
use orchestrator::{ClusterSnapshot, Orchestrator, OrchestratorConfig, PodOutcome};
use sgx_sim::units::ByteSize;
use tsdb::PointBatch;

fn orchestrator() -> Orchestrator {
    Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper())
}

fn sgx_spec(name: &str, mib: u64) -> PodSpec {
    PodSpec::builder(name)
        .sgx_resources(ByteSize::from_mib(mib))
        .duration(SimDuration::from_secs(300))
        .build()
}

fn node_of(orch: &Orchestrator, uid: PodUid) -> NodeName {
    match &orch.record(uid).unwrap().outcome {
        PodOutcome::Running { node } => node.clone(),
        other => panic!("pod not running: {other:?}"),
    }
}

/// The from-scratch oracle every capture is checked against:
/// a full re-derivation of all workers plus the same staleness rule
/// (scrape age, and the recovery quarantine that forces a rejoined node
/// degraded until its first post-recovery scrape is delivered).
fn oracle(orch: &Orchestrator, now: SimTime) -> ClusterSnapshot {
    let mut snap =
        ClusterSnapshot::capture(orch.cluster(), orch.db(), now, orch.config().metrics_window)
            .with_staleness(orch.config().staleness_threshold, |name| {
                orch.metrics_age(name, now)
            });
    snap.update(now, |names, views| {
        for (name, view) in names.iter().zip(views) {
            if orch.recovery_pending(name) {
                view.degraded = true;
            }
        }
    });
    snap
}

fn assert_matches_oracle(orch: &Orchestrator, now: SimTime) {
    let captured = orch.capture_snapshot(now);
    let full = oracle(orch, now);
    assert_eq!(
        captured, full,
        "snapshot diverged from a from-scratch capture at {now}"
    );
}

#[test]
fn node_failure_mid_pass_dirties_exactly_the_failed_node() {
    let mut orch = orchestrator();
    let uid = orch.submit(sgx_spec("victim", 20), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    let node = node_of(&orch, uid);

    orch.capture_snapshot(SimTime::from_secs(6));

    orch.fail_node(&node, SimTime::from_secs(7)).unwrap();
    assert_matches_oracle(&orch, SimTime::from_secs(8));
    // The next view reflects the crash: cordoned, nothing requested.
    let snap = orch.capture_snapshot(SimTime::from_secs(8));
    let view = snap.node(&node).unwrap();
    assert!(view.cordoned);
    assert!(view.epc_requested.is_zero());
}

#[test]
fn pod_finish_between_passes_dirties_exactly_its_node() {
    let mut orch = orchestrator();
    let uid = orch.submit(sgx_spec("job", 20), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    let node = node_of(&orch, uid);
    orch.capture_snapshot(SimTime::from_secs(6));

    // The pod finishes with no probe frame delivered in between: only
    // the cluster itself can tell the snapshot the node changed.
    orch.complete_pod(uid, SimTime::from_secs(9)).unwrap();
    assert_matches_oracle(&orch, SimTime::from_secs(10));
    let snap = orch.capture_snapshot(SimTime::from_secs(10));
    assert!(snap.node(&node).unwrap().epc_requested.is_zero());
}

#[test]
fn degraded_to_fresh_transition_dirties_exactly_the_revived_node() {
    let mut orch = orchestrator();
    let uid = orch.submit(sgx_spec("svc", 20), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    let node = node_of(&orch, uid);
    orch.probe_pass(SimTime::from_secs(10));

    // Every probe goes silent for 90 s: all nodes degrade.
    assert_matches_oracle(&orch, SimTime::from_secs(100));
    let snap = orch.capture_snapshot(SimTime::from_secs(100));
    assert!(snap.iter().all(|(_, v)| v.degraded));

    // One late frame revives just the pod's node.
    let frames = orch.scrape_frames(SimTime::from_secs(101));
    let (name, batch) = frames
        .iter()
        .find(|(n, b)| n == &node && !b.is_empty())
        .expect("the running pod's node produces a non-empty frame")
        .clone();
    orch.ingest_frame(&name, &batch, SimTime::from_secs(101));
    assert_eq!(
        orch.window_rollup_stats().groups,
        1,
        "a delivered frame puts the scraped node in the window and nothing else"
    );
    assert_matches_oracle(&orch, SimTime::from_secs(102));
    let snap = orch.capture_snapshot(SimTime::from_secs(102));
    assert!(!snap.node(&node).unwrap().degraded, "revived node is fresh");
    assert!(
        snap.iter().any(|(n, v)| n != &node && v.degraded),
        "the silent nodes stay degraded"
    );
}

#[test]
fn samples_aging_out_of_the_window_refresh_without_explicit_dirt() {
    let mut orch = orchestrator();
    orch.submit(sgx_spec("burst", 30), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    orch.probe_pass(SimTime::from_secs(10));

    // Fresh capture sees the measured usage.
    let snap = orch.capture_snapshot(SimTime::from_secs(12));
    assert!(snap.iter().any(|(_, v)| !v.epc_measured.is_zero()));

    // No further frames and no mutation; the samples age out of the
    // 25 s window.
    assert_matches_oracle(&orch, SimTime::from_secs(40));
    let snap = orch.capture_snapshot(SimTime::from_secs(45));
    assert!(
        snap.iter().all(|(_, v)| v.epc_measured.is_zero()),
        "aged-out samples must leave the measured view"
    );
    // And the node goes quiet afterwards: captures keep matching.
    assert_matches_oracle(&orch, SimTime::from_secs(50));
    assert_matches_oracle(&orch, SimTime::from_secs(55));
}

#[test]
fn a_capture_stepping_backwards_in_time_is_evaluated_from_scratch() {
    let mut orch = orchestrator();
    orch.submit(sgx_spec("early", 30), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    orch.probe_pass(SimTime::from_secs(10));

    assert_matches_oracle(&orch, SimTime::from_secs(12));
    // The window moves past the only samples…
    assert_matches_oracle(&orch, SimTime::from_secs(100));
    // …and then *back* over them. Regression: a capture that only ever
    // looked forwards reused the views emptied at t=100 and the node
    // measured idle.
    let snap = orch.capture_snapshot(SimTime::from_secs(20));
    assert!(
        snap.iter().any(|(_, v)| !v.epc_measured.is_zero()),
        "the samples at t=10 are inside the window of a capture at t=20"
    );
    assert_matches_oracle(&orch, SimTime::from_secs(20));
    // Still behind the rollup's floor, then forwards again.
    assert_matches_oracle(&orch, SimTime::from_secs(30));
    assert_matches_oracle(&orch, SimTime::from_secs(101));
    orch.probe_pass(SimTime::from_secs(110));
    assert_matches_oracle(&orch, SimTime::from_secs(111));
}

#[test]
fn retention_overtaking_the_last_capture_drops_the_cached_base() {
    let mut orch = orchestrator();
    orch.submit(sgx_spec("svc", 30), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    orch.probe_pass(SimTime::from_secs(10));
    // One capture, then only probe ticks for longer than the retention,
    // the last frames arriving long before the passes resume: every
    // sample the last capture read is evicted meanwhile.
    assert_matches_oracle(&orch, SimTime::from_secs(12));
    let retention = orch.config().retention;
    let resume = SimTime::from_secs(12) + retention + retention;
    orch.probe_pass(SimTime::from_secs(20));
    orch.enforce_metrics_retention(resume);
    assert_eq!(orch.window_rollup_stats().samples_held, 0);
    assert_matches_oracle(&orch, resume);
    assert!(orch
        .capture_snapshot(resume)
        .iter()
        .all(|(_, v)| v.epc_measured.is_zero()));
}

/// The deterministic work gate: what one capture folds is
/// bounded by the pods running now, however many finished pods' series
/// the 15-minute retention still holds.
#[test]
fn a_capture_folds_live_pods_not_retained_series() {
    let mut spec = ClusterSpec::new();
    for i in 0..6 {
        spec = spec.with_node(
            format!("sgx-{i}"),
            MachineSpec::sgx_node(),
            NodeRole::Worker,
        );
    }
    let config = OrchestratorConfig::paper();
    let scrapes_in_window = config
        .metrics_window
        .as_micros()
        .div_ceil(config.probe_period.as_micros());
    let mut orch = Orchestrator::new(spec, config);
    let mut running: Vec<PodUid> = Vec::new();
    let mut now = SimTime::ZERO;
    for tick in 0..50u64 {
        now += SimDuration::from_secs(10);
        // Churn: six pods arrive and the six oldest finish every tick.
        for i in 0..6 {
            orch.submit(sgx_spec(&format!("churn-{tick}-{i}"), 4), now);
        }
        for outcome in orch.scheduler_pass(now) {
            running.push(outcome.uid);
        }
        if running.len() > 24 {
            for uid in running.drain(..6) {
                orch.complete_pod(uid, now).expect("running pods complete");
            }
        }
        orch.probe_pass(now);
        orch.capture_snapshot(now);
    }
    let live = running.len() as u64;
    let retained = orch.db().series_count() as u64;
    assert!(
        retained > 8 * live,
        "churn must leave many finished pods' series inside the retention \
         ({retained} series, {live} live pods)"
    );
    let before = orch.window_rollup_stats().samples_folded;
    now += SimDuration::from_secs(5);
    assert_matches_oracle(&orch, now);
    let folded = orch.window_rollup_stats().samples_folded - before;
    // Per measurement; these pods report EPC only, so the bound for one
    // measurement covers the capture.
    assert!(
        folded <= live * (scrapes_in_window + 1),
        "one capture folded {folded} samples for {live} live pods"
    );
    assert!(orch.window_rollup_stats().samples_held as u64 <= live * (scrapes_in_window + 1));
}

#[test]
fn cluster_mut_invalidates_the_cached_snapshot() {
    let mut orch = orchestrator();
    orch.submit(sgx_spec("a", 10), SimTime::ZERO);
    orch.scheduler_pass(SimTime::from_secs(5));
    orch.capture_snapshot(SimTime::from_secs(6));

    // A direct cluster edit goes round every orchestrator entry point;
    // the next capture must still see it.
    orch.cluster_mut()
        .node_mut(&NodeName::new("sgx-2"))
        .unwrap()
        .set_cordoned(true);
    assert_matches_oracle(&orch, SimTime::from_secs(7));
    let snap = orch.capture_snapshot(SimTime::from_secs(7));
    assert!(snap.node(&NodeName::new("sgx-2")).unwrap().cordoned);
}

#[derive(Debug, Clone)]
enum Ev {
    /// Submit an SGX pod of the given size step.
    Submit(u8),
    /// Run a scheduling pass (binds pods, reserves capacity).
    Schedule,
    /// Deliver a full probe pass.
    Probe,
    /// Scrape frames but deliver only every `k`-th (lossy transport).
    LossyFrames(u8),
    /// Scrape frames and hold them back (a slow transport).
    StashFrames,
    /// Deliver every held-back frame, newest first — delayed, reordered,
    /// and across whatever failed, recovered, left or joined meanwhile.
    DeliverStash,
    /// Complete the nth running pod.
    Finish(u8),
    /// Drain (cordon) the nth worker, or uncordon it if already cordoned.
    ToggleCordon(u8),
    /// Crash the nth worker, or recover it if already down.
    ToggleFailure(u8),
    /// Register a new node at runtime (SGX machine when the flag is odd).
    AddNode(u8),
    /// Drain-and-deregister the nth worker (skipped when it is the last
    /// one — an empty cluster makes every later submit unschedulable and
    /// the interleaving degenerate).
    RemoveNode(u8),
    /// Let time pass so samples age out and staleness grows.
    Idle,
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (1u8..40).prop_map(Ev::Submit),
        Just(Ev::Schedule),
        Just(Ev::Probe),
        (1u8..4).prop_map(Ev::LossyFrames),
        Just(Ev::StashFrames),
        Just(Ev::DeliverStash),
        (0u8..16).prop_map(Ev::Finish),
        (0u8..4).prop_map(Ev::ToggleCordon),
        (0u8..4).prop_map(Ev::ToggleFailure),
        (0u8..8).prop_map(Ev::AddNode),
        (0u8..8).prop_map(Ev::RemoveNode),
        Just(Ev::Idle),
    ]
}

fn running_pods(orch: &Orchestrator) -> Vec<PodUid> {
    orch.records()
        .values()
        .filter_map(|r| match &r.outcome {
            PodOutcome::Running { .. } => Some(r.uid),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: every `stride`-th event of an arbitrary
    /// interleaving of probe frames (lossless, lossy, delayed and
    /// reordered), binds, finishes, cordons, node failures and runtime
    /// node add/remove, and once more after the last, the captured
    /// snapshot equals a from-scratch capture, bit for bit — whether one
    /// event or several lie between two captures.
    #[test]
    fn incremental_captures_match_full_captures_under_arbitrary_events(
        events in prop::collection::vec(ev_strategy(), 1..48),
        stride in 1usize..=4,
    ) {
        let mut orch = orchestrator();
        // The node set is dynamic now (add/remove events), so re-derive
        // the worker list wherever an event picks a target.
        let workers = |orch: &Orchestrator| -> Vec<NodeName> {
            orch.cluster().workers().map(|n| n.name().clone()).collect()
        };
        let mut next_node = 0u32;
        let mut stash: Vec<(NodeName, PointBatch, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        let last = events.len() - 1;
        for (index, event) in events.into_iter().enumerate() {
            now += SimDuration::from_secs(5);
            match event {
                Ev::Submit(size) => {
                    orch.submit(sgx_spec(&format!("p{index}"), u64::from(size)), now);
                }
                Ev::Schedule => {
                    orch.scheduler_pass(now);
                }
                Ev::Probe => orch.probe_pass(now),
                Ev::LossyFrames(k) => {
                    let frames = orch.scrape_frames(now);
                    for (i, (node, batch)) in frames.iter().enumerate() {
                        if i % usize::from(k) == 0 {
                            orch.ingest_frame(node, batch, now);
                        }
                    }
                    orch.enforce_metrics_retention(now);
                }
                Ev::StashFrames => {
                    let frames = orch.scrape_frames(now);
                    stash.extend(frames.into_iter().map(|(node, batch)| (node, batch, now)));
                }
                Ev::DeliverStash => {
                    for (node, batch, scraped_at) in stash.drain(..).rev() {
                        orch.ingest_frame(&node, &batch, scraped_at);
                    }
                    orch.enforce_metrics_retention(now);
                }
                Ev::Finish(n) => {
                    let running = running_pods(&orch);
                    if let Some(&uid) = running.get(n as usize % running.len().max(1)) {
                        orch.complete_pod(uid, now).expect("running pods complete");
                    }
                }
                Ev::ToggleCordon(n) => {
                    let names = workers(&orch);
                    let name = names[n as usize % names.len()].clone();
                    if orch.cluster().node(&name).expect("worker").is_cordoned() {
                        orch.uncordon_node(&name, now).expect("worker exists");
                    } else {
                        orch.drain_node(&name, now).expect("worker exists");
                    }
                }
                Ev::ToggleFailure(n) => {
                    let names = workers(&orch);
                    let name = names[n as usize % names.len()].clone();
                    if orch.cluster().node(&name).expect("worker").is_cordoned() {
                        orch.recover_node(&name, now).expect("worker exists");
                    } else {
                        orch.fail_node(&name, now).expect("worker exists");
                    }
                }
                Ev::AddNode(flag) => {
                    let spec = if flag % 2 == 1 {
                        MachineSpec::sgx_node()
                    } else {
                        MachineSpec::dell_r330()
                    };
                    // Every fourth add reuses a previously retired name
                    // (if any), exercising the name-reuse teardown path.
                    let name = if flag >= 6 && next_node > 0 {
                        format!("dyn-{}", (u32::from(flag) * 7) % next_node)
                    } else {
                        let name = format!("dyn-{next_node}");
                        next_node += 1;
                        name
                    };
                    // Reused names may still be registered: that's the
                    // documented duplicate error, not a test failure.
                    let _ = orch.add_node(name, spec, now);
                }
                Ev::RemoveNode(n) => {
                    let names = workers(&orch);
                    if names.len() > 1 {
                        let name = names[n as usize % names.len()].clone();
                        orch.remove_node(&name, now).expect("worker exists");
                    }
                }
                Ev::Idle => now += SimDuration::from_secs(30),
            }
            if (index + 1) % stride != 0 && index != last {
                continue;
            }
            let captured = orch.capture_snapshot(now);
            let full = oracle(&orch, now);
            prop_assert_eq!(
                captured,
                full,
                "snapshot diverged after event {} at {}",
                index,
                now
            );
        }
    }
}
