//! Regression tests for the three orchestrator fixes the model checker
//! guards, each driven through the conformance bridge along the very
//! counterexample trace the checker emits when the corresponding bug
//! semantics are switched back on (see `check.rs`). If one of the fixes
//! regresses, the paired `bug_*` exploration keeps demonstrating what
//! the failure looks like; these tests demonstrate the implementation no
//! longer looks like that.

use cluster::api::NodeName;
use model::bridge::{self, Harness};
use model::{Action, ModelConfig};

/// A drain threads one `SchedulingCycle` across every eviction: the
/// counterexample under `bug_per_pod_drain_capture` is `[Schedule,
/// Drain(0)]`, where draining the binpacked node evicts two pods but
/// must capture exactly one scheduling snapshot.
#[test]
fn drain_captures_one_snapshot_across_all_evictions() {
    let config = ModelConfig::small();
    let before = Harness::of(&config, &[Action::Schedule]);
    let captures_before = before.orchestrator().snapshot_captures();
    let bound_decisions = before.decisions().len();

    let after = Harness::of(&config, &[Action::Schedule, Action::Drain(0)]);
    assert!(
        after.audit_failures().is_empty(),
        "{:?}",
        after.audit_failures()
    );
    let evicted = after.decisions().len() - bound_decisions;
    assert!(evicted >= 2, "the drained node must hold several pods");
    assert_eq!(
        after.orchestrator().snapshot_captures() - captures_before,
        1,
        "a drain is one snapshot capture regardless of eviction count"
    );
}

/// A recovered node is quarantined until a scrape taken at-or-after the
/// recovery epoch is delivered; probe frames scraped before the crash
/// are inert. This is the counterexample trace `[Schedule, Scrape, Tick,
/// Crash(0), Recover(0)]` found under `bug_stale_recovery`: delivering
/// or dropping the pre-crash frame must not change a single scheduling
/// decision.
#[test]
fn recovered_node_quarantined_until_fresh_scrape() {
    let config = ModelConfig::small();
    let node = NodeName::new(bridge::node_name(0));
    let prefix = [
        Action::Schedule,
        Action::Scrape,
        Action::Tick,
        Action::Crash(0),
        Action::Recover(0),
    ];

    let mut delivered = prefix.to_vec();
    delivered.extend([Action::Deliver(0), Action::Schedule]);
    let mut dropped = prefix.to_vec();
    dropped.extend([Action::Drop(0), Action::Schedule]);

    let a = Harness::of(&config, &delivered);
    let b = Harness::of(&config, &dropped);
    assert!(a.audit_failures().is_empty(), "{:?}", a.audit_failures());
    assert!(b.audit_failures().is_empty(), "{:?}", b.audit_failures());
    assert_eq!(
        a.decisions(),
        b.decisions(),
        "a pre-crash frame must be inert after recovery"
    );
    assert!(
        a.orchestrator().recovery_pending(&node),
        "a pre-crash frame must not lift the recovery quarantine"
    );

    // A scrape taken after the recovery epoch lifts the quarantine once
    // its frame arrives. The first scrape's undelivered frames for the
    // other two nodes still occupy FIFO positions 0 and 1; the fresh
    // frame of the recovered node lands at position 2.
    let mut lifted = delivered;
    lifted.extend([Action::Scrape, Action::Deliver(2)]);
    let c = Harness::of(&config, &lifted);
    assert!(c.audit_failures().is_empty(), "{:?}", c.audit_failures());
    assert!(
        !c.orchestrator().recovery_pending(&node),
        "a post-recovery scrape must lift the quarantine"
    );
}

/// The imbalance metric that arms rebalancing is computed over the same
/// node set the rebalancer can move load between — cordoned nodes count
/// for neither. Along the `bug_cordon_blind_imbalance` counterexample
/// `[Schedule, Drain(0)]` the post-drain eligible nodes are balanced, so
/// the metric must be disarmed and a rebalance pass a no-op (not armed
/// forever against the empty cordoned node it cannot use).
#[test]
fn epc_imbalance_ignores_cordoned_nodes() {
    let config = ModelConfig::small();
    let harness = Harness::of(&config, &[Action::Schedule, Action::Drain(0)]);
    assert!(
        harness.audit_failures().is_empty(),
        "{:?}",
        harness.audit_failures()
    );
    let threshold = config.rebalance_threshold_milli as f64 / 1000.0;
    assert!(
        harness.orchestrator().epc_imbalance() <= threshold,
        "the metric must not count the drained (cordoned, empty) node"
    );

    let decisions_before = harness.decisions().len();
    let with_rebalance = Harness::of(
        &config,
        &[Action::Schedule, Action::Drain(0), Action::Rebalance],
    );
    assert!(
        with_rebalance.audit_failures().is_empty(),
        "{:?}",
        with_rebalance.audit_failures()
    );
    assert_eq!(
        with_rebalance.decisions().len(),
        decisions_before,
        "an unarmed rebalance pass must not migrate anything"
    );
}
