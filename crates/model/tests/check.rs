//! The model-checking gate: exhaustive exploration of the small
//! configuration, counterexample discovery under the reintroduced-bug
//! semantics, and model↔implementation conformance replays for every
//! counterexample the checker emits.

use cluster::api::NodeName;
use model::bridge;
use model::{explore, Action, Bounds, Model, ModelConfig, ModelState, NodeId, Semantics};
use simulation::TraceHarness;

/// Replays `actions` on a fresh harness (after the submission prefix)
/// and returns it.
fn replay(config: &ModelConfig, actions: &[Action]) -> TraceHarness {
    let mut harness = bridge::harness(config);
    for op in bridge::trace_ops(config, actions) {
        harness.apply(&op);
    }
    harness
}

/// The pods each node holds, by name, nodes in index order: what the
/// implementation's cluster says.
fn residency(config: &ModelConfig, harness: &TraceHarness) -> Vec<Vec<String>> {
    (0..config.nodes())
        .map(|node| {
            let name = NodeName::new(bridge::node_name(node as NodeId));
            let node = harness.orchestrator().cluster().node(&name);
            let pods = node.expect("every model node exists").pods().values();
            let mut names: Vec<String> = pods.map(|pod| pod.spec.name.clone()).collect();
            names.sort();
            names
        })
        .collect()
}

/// The same, as the model says.
fn model_residency(state: &ModelState) -> Vec<Vec<String>> {
    state
        .nodes
        .iter()
        .map(|node| {
            let mut names: Vec<String> = node
                .residents
                .iter()
                .map(|&p| bridge::pod_name(p))
                .collect();
            names.sort();
            names
        })
        .collect()
}

/// Steps the fixed-semantics model and the real orchestrator through the
/// same trace in lockstep, comparing the decisions of every scheduler
/// pass and the pod residency after every rebalance pass, and auditing
/// the implementation after every op.
fn assert_conforms(config: &ModelConfig, actions: &[Action]) {
    let model = Model::new(config.clone().with_semantics(Semantics::fixed()));
    let mut state = model.initial();
    let mut harness = bridge::harness(config);
    for op in bridge::submit_ops(config) {
        harness.apply(&op);
    }
    for &action in actions {
        let predicted = match action {
            Action::Schedule => Some(bridge::named_decisions(&model.schedule_decisions(&state))),
            _ => None,
        };
        let before = harness.decisions().len();
        harness.apply(&bridge::trace_op(config, action));
        if let Some(predicted) = predicted {
            let got = harness.decisions()[before..].to_vec();
            assert_eq!(got, predicted, "decision divergence at {action:?}");
        }
        state = model.step(&state, action).0;
        if action == Action::Rebalance {
            assert_eq!(
                residency(config, &harness),
                model_residency(&state),
                "residency divergence at {action:?} along {actions:?}"
            );
        }
    }
    assert!(
        harness.audit_failures().is_empty(),
        "implementation invariants violated: {:?}",
        harness.audit_failures()
    );
}

#[test]
fn exhaustive_small_config_holds_all_invariants() {
    let model = Model::new(ModelConfig::small());
    let report = explore(&model, &Bounds::exhaustive());
    println!(
        "small config: {} distinct states, {} transitions, depth {}",
        report.states, report.transitions, report.max_depth
    );
    assert!(!report.truncated, "exploration must be exhaustive");
    assert!(
        report.violations.is_empty(),
        "fixed semantics must satisfy every invariant: {:?}",
        report.violations
    );
    assert!(report.states > 1_000, "suspiciously small state space");
}

#[test]
fn exhaustive_spread_config_holds_all_invariants() {
    // The paper's second policy under the checker: the same cluster,
    // pods, faults and bounds, every scheduler pass placing by the
    // definitional spread rule.
    let model = Model::new(ModelConfig::small_spread());
    let report = explore(&model, &Bounds::exhaustive());
    println!(
        "small spread config: {} distinct states, {} transitions, depth {}",
        report.states, report.transitions, report.max_depth
    );
    assert!(!report.truncated, "exploration must be exhaustive");
    assert!(
        report.violations.is_empty(),
        "sgx-spread must satisfy every invariant: {:?}",
        report.violations
    );
    assert!(report.states > 1_000, "suspiciously small state space");
}

#[test]
fn exhaustive_tiny_config_holds_all_invariants() {
    let model = Model::new(ModelConfig::tiny());
    let report = explore(&model, &Bounds::exhaustive());
    assert!(!report.truncated);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn smoke_bound_truncates_within_budget() {
    let started = std::time::Instant::now();
    let model = Model::new(ModelConfig::small());
    let report = explore(&model, &Bounds::smoke(2_000));
    assert!(report.truncated, "the smoke bound must fire");
    assert_eq!(report.states, 2_000);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "smoke exploration blew its wall-clock budget"
    );
}

#[test]
fn stale_recovery_bug_found_and_refuted_on_implementation() {
    let config = ModelConfig::small().with_semantics(Semantics::bug_stale_recovery());
    let report = explore(
        &Model::new(config.clone()),
        &Bounds::until_violated("reorder-insensitive"),
    );
    let violation = report
        .violation("reorder-insensitive")
        .expect("the stale-recovery semantics must break reorder insensitivity");
    println!(
        "counterexample: {:?} / {}",
        violation.trace, violation.detail
    );

    // The fixed implementation refutes the counterexample: dropping and
    // delivering the pre-recovery frames must decide identically.
    let mut primary = violation.trace.clone();
    primary.extend_from_slice(&violation.continuation);
    let mut alternative = violation.trace.clone();
    alternative.extend_from_slice(&violation.alternative);
    let a = replay(&config, &primary);
    let b = replay(&config, &alternative);
    assert!(a.audit_failures().is_empty(), "{:?}", a.audit_failures());
    assert!(b.audit_failures().is_empty(), "{:?}", b.audit_failures());
    assert_eq!(
        a.decisions(),
        b.decisions(),
        "the implementation's recovery quarantine must make pre-crash frames inert"
    );

    // And the fixed model conforms to the implementation along both
    // replayed interleavings.
    assert_conforms(&config, &primary);
    assert_conforms(&config, &alternative);
}

#[test]
fn cordon_blind_imbalance_bug_found_and_refuted_on_implementation() {
    let config = ModelConfig::small().with_semantics(Semantics::bug_cordon_blind_imbalance());
    let report = explore(
        &Model::new(config.clone()),
        &Bounds::until_violated("migration-terminal"),
    );
    let violation = report
        .violation("migration-terminal")
        .expect("the cordon-blind metric must arm an impotent rebalance");
    println!(
        "counterexample: {:?} / {}",
        violation.trace, violation.detail
    );

    // Replay up to the violating state, then take the rebalance the
    // model flagged. The implementation's metric is computed over the
    // movable set, so it must not be armed — and the pass must be a
    // no-op rather than the start of a forever-arming loop.
    let harness = replay(&config, &violation.trace);
    let threshold = config.rebalance_threshold_milli as f64 / 1000.0;
    assert!(
        harness.orchestrator().epc_imbalance() <= threshold,
        "the implementation metric must not count cordoned nodes"
    );
    let before = harness.decisions().len();
    let mut with_rebalance = violation.trace.clone();
    with_rebalance.extend_from_slice(&violation.continuation);
    let harness = replay(&config, &with_rebalance);
    assert_eq!(
        harness.decisions().len(),
        before,
        "an unarmed rebalance pass must not migrate anything"
    );
    assert_conforms(&config, &with_rebalance);
}

#[test]
fn per_pod_drain_capture_bug_found_and_refuted_on_implementation() {
    let config = ModelConfig::small().with_semantics(Semantics::bug_per_pod_drain_capture());
    let report = explore(
        &Model::new(config.clone()),
        &Bounds::until_violated("drain-capture-bound"),
    );
    let violation = report
        .violation("drain-capture-bound")
        .expect("per-pod capture must blow the one-snapshot drain bound");
    println!(
        "counterexample: {:?} / {}",
        violation.trace, violation.detail
    );

    // Replay to just before the drain, then measure what the drain
    // costs the implementation: exactly one snapshot capture, however
    // many pods it evicts.
    let harness = replay(&config, &violation.trace);
    let captures_before = harness.orchestrator().snapshot_captures();
    let mut with_drain = violation.trace.clone();
    with_drain.extend_from_slice(&violation.continuation);
    let harness = replay(&config, &with_drain);
    let moved = harness.decisions().len();
    assert!(
        moved >= 2,
        "the counterexample drain must evict several pods"
    );
    assert_eq!(
        harness.orchestrator().snapshot_captures() - captures_before,
        1,
        "a drain must thread one scheduling snapshot across all evictions"
    );
    assert_conforms(&config, &with_drain);
}

/// A seeded walk of `steps` actions through whatever the model enables:
/// a fixed LCG picks among the enabled actions, and takes `favoured` with
/// probability 3/8 whenever it is enabled.
fn seeded_walk(model: &Model, seed: u64, steps: usize, favoured: Action) -> Vec<Action> {
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut state = model.initial();
    let mut trace = Vec::new();
    for _ in 0..steps {
        let enabled = model.enabled_actions(&state);
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let action = if rng >> 61 < 3 && enabled.contains(&favoured) {
            favoured
        } else {
            enabled[(rng >> 33) as usize % enabled.len()]
        };
        trace.push(action);
        state = model.step(&state, action).0;
    }
    trace
}

/// The model's spread rule — variance from the definition, in rationals
/// — is the oracle for the implementation's O(1) integer comparison:
/// along the representative traces and along a few hundred seeded walks
/// through whatever the model enables (scrapes delivered and dropped,
/// crashes, drains, completions, rebalances in between), every
/// scheduler pass of the real orchestrator under sgx-spread must bind
/// the pods the model binds, to the nodes the model picks.
#[test]
fn spread_model_conforms_to_the_implementation() {
    let mut config = ModelConfig::small_spread();
    config.horizon = 3;
    config.max_scrapes = 2;
    // Unequal capacities and requests that leave unequal loads: ties are
    // the exception here, where they are the rule in the gate's config.
    let mut uneven = config.clone();
    uneven.node_capacity = vec![16, 8, 4];
    uneven.pod_request = vec![3, 5, 2, 1];
    for config in [&config, &uneven] {
        let model = Model::new(config.clone());
        for seed in 0..200u64 {
            // The passes are what is being compared.
            assert_conforms(config, &seeded_walk(&model, seed, 14, Action::Schedule));
        }
    }
}

/// The rebalancer decides in integers on both sides, so the model and
/// the real orchestrator must move the same pods on capacities where a
/// float load is inexact: seeded walks that favour rebalances, over two
/// 7-page nodes binpacked to 5 and 3 requested pages (a float half-gap
/// of 2 pages, an exact one of 1) and over a 7/6/5-page cluster, with
/// residency compared after every rebalance. The threshold stays at 250
/// milli: dyadic, so both sides read the same number.
#[test]
fn rebalance_model_conforms_on_capacities_floats_round() {
    let mut sevens = ModelConfig::small();
    sevens.horizon = 3;
    sevens.max_scrapes = 2;
    sevens.node_capacity = vec![7, 7];
    sevens.pod_request = vec![2, 1, 2, 3];
    sevens.fault_nodes = vec![0, 1];
    let mut mixed = sevens.clone();
    mixed.node_capacity = vec![7, 6, 5];
    mixed.pod_request = vec![3, 2, 2, 1];
    mixed.fault_nodes = vec![0, 2];
    for config in [&sevens, &mixed] {
        assert_eq!(config.rebalance_threshold_milli, 250);
        let model = Model::new(config.clone());
        for seed in 0..200u64 {
            assert_conforms(config, &seeded_walk(&model, seed, 14, Action::Rebalance));
        }
    }
}

#[test]
fn fixed_model_conforms_along_representative_traces() {
    // The exploration bounds (horizon, scrape budget) tame the
    // exhaustive search; replay has no such pressure, so widen them to
    // fit longer hand-written scenarios.
    let mut config = ModelConfig::small();
    config.horizon = 3;
    config.max_scrapes = 2;
    let traces: &[&[Action]] = &[
        // Bind, observe, age, complete, re-bind.
        &[
            Action::Schedule,
            Action::Scrape,
            Action::Deliver(0),
            Action::Deliver(0),
            Action::Deliver(0),
            Action::Tick,
            Action::Complete(0),
            Action::Schedule,
        ],
        // Scrapes age past the staleness threshold.
        &[
            Action::Schedule,
            Action::Scrape,
            Action::Deliver(0),
            Action::Deliver(1),
            Action::Drop(0),
            Action::Tick,
            Action::Tick,
            Action::Tick,
            Action::Complete(1),
            Action::Schedule,
        ],
        // Crash with a frame in flight, recover, quarantine lifts on a
        // fresh scrape only.
        &[
            Action::Schedule,
            Action::Scrape,
            Action::Crash(0),
            Action::Recover(0),
            Action::Deliver(0),
            Action::Schedule,
            Action::Scrape,
            Action::Deliver(0),
            Action::Deliver(0),
            Action::Deliver(0),
            Action::Schedule,
        ],
        // Drain and un-cordon.
        &[
            Action::Schedule,
            Action::Drain(0),
            Action::Uncordon(0),
            Action::Schedule,
        ],
        // Rebalance an asymmetric fill.
        &[Action::Schedule, Action::Rebalance, Action::Schedule],
    ];
    for trace in traces {
        assert_conforms(&config, trace);
    }
}
