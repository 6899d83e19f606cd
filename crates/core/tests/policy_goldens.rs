//! Replay-level equivalence anchors for the scheduling framework refactor.
//!
//! Each scenario replays a full workload and folds the *entire*
//! [`ReplayResult`] (placements, timings, events, migration and fault
//! statistics, imbalance series) into a 64-bit FNV-1a digest. The expected
//! values were recorded by running this exact grid against the pre-refactor
//! `PlacementPolicy`/`SchedulerKind` enums, so a passing run proves the
//! plugin pipelines are bit-identical to the original policies at replay
//! granularity — not just on single placements.
//!
//! The digests hash `Debug` output, which for this result type contains
//! only integers, strings, enums and exact shortest-roundtrip floats; it is
//! deterministic for identical bit patterns.

use borg_trace::frontend::MaterializedFrontend;
use des::SimDuration;
use sgx_orchestrator::Experiment;
use sgx_sim::units::ByteSize;
use simulation::{replay_stream, FaultPlan, NodeDrain, ProbeSilence, RebalanceConfig};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest(exp: &Experiment) -> u64 {
    let result = exp.run();
    fnv1a64(format!("{result:?}").as_bytes())
}

fn silence_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .with_scrape_drops(0.25)
        .with_silence(ProbeSilence {
            node: "sgx-1".to_string(),
            from_secs: 120,
            until_secs: 900,
        })
}

/// The scenario grid: every registered policy, plus rebalance-, fault- and
/// EPC-pressure variants that drive the migration, drain and degraded
/// code paths through the same pipelines.
fn scenarios() -> Vec<(&'static str, Experiment)> {
    vec![
        (
            "binpack/all-sgx",
            Experiment::quick(11)
                .sgx_ratio(1.0)
                .scheduler("sgx-binpack"),
        ),
        (
            "spread/all-sgx",
            Experiment::quick(11).sgx_ratio(1.0).scheduler("sgx-spread"),
        ),
        (
            "default/all-sgx",
            Experiment::quick(11).sgx_ratio(1.0).scheduler("default"),
        ),
        (
            "binpack/mixed",
            Experiment::quick(12)
                .sgx_ratio(0.5)
                .scheduler("sgx-binpack"),
        ),
        (
            "spread/mixed",
            Experiment::quick(12).sgx_ratio(0.5).scheduler("sgx-spread"),
        ),
        (
            "default/mixed",
            Experiment::quick(12).sgx_ratio(0.5).scheduler("default"),
        ),
        (
            "binpack/small-epc",
            Experiment::quick(13)
                .sgx_ratio(0.75)
                .epc_size(ByteSize::from_mib(64))
                .scheduler("sgx-binpack"),
        ),
        (
            "spread/small-epc",
            Experiment::quick(13)
                .sgx_ratio(0.75)
                .epc_size(ByteSize::from_mib(64))
                .scheduler("sgx-spread"),
        ),
        (
            "binpack/rebalance",
            Experiment::quick(8)
                .sgx_ratio(1.0)
                .scheduler("sgx-binpack")
                .rebalance(RebalanceConfig::every(SimDuration::from_secs(60), 0.1)),
        ),
        (
            "spread/rebalance",
            Experiment::quick(8)
                .sgx_ratio(1.0)
                .scheduler("sgx-spread")
                .rebalance(RebalanceConfig::every(SimDuration::from_secs(60), 0.1)),
        ),
        (
            "binpack/faults",
            Experiment::quick(9)
                .sgx_ratio(1.0)
                .scheduler("sgx-binpack")
                .faults(silence_plan(9)),
        ),
        (
            "spread/faults",
            Experiment::quick(9)
                .sgx_ratio(0.5)
                .scheduler("sgx-spread")
                .faults(silence_plan(9)),
        ),
        (
            "binpack/malicious",
            Experiment::quick(15)
                .sgx_ratio(1.0)
                .scheduler("sgx-binpack")
                .malicious(0.25)
                .limits(false),
        ),
    ]
}

/// Drain windows exercise `drain_node`'s snapshot-driven placement; this
/// scenario is built on the raw `ReplayConfig` because `Experiment` has no
/// drain builder.
fn drain_digest() -> u64 {
    let exp = Experiment::quick(14)
        .sgx_ratio(1.0)
        .scheduler("sgx-binpack");
    let config = exp.replay_config().with_drain(NodeDrain {
        node: "sgx-1".to_string(),
        drain_at_secs: 300,
        down_for: SimDuration::from_secs(600),
    });
    let result = replay_stream(&mut MaterializedFrontend::new(&exp.workload()), &config);
    fnv1a64(format!("{result:?}").as_bytes())
}

/// Pre-refactor digests. Regenerate by running with `GOLDEN_PRINT=1` and
/// pasting the output — but a legitimate regeneration should only ever be
/// needed if replay semantics (not scheduling policy) deliberately change.
const EXPECTED: &[(&str, u64)] = &[
    ("binpack/all-sgx", 0xcae9d2ab20bfa5d4),
    ("spread/all-sgx", 0x5c75673d672a81c4),
    ("default/all-sgx", 0x2ff7098726274a35),
    ("binpack/mixed", 0x45e81825ae88af71),
    ("spread/mixed", 0x102be4f46289ad62),
    ("default/mixed", 0xb30e83c5dc825dd9),
    ("binpack/small-epc", 0x9aaa11fddb10eb44),
    ("spread/small-epc", 0x9ee0da2189c8639b),
    ("binpack/rebalance", 0x13b27099c994a17f),
    ("spread/rebalance", 0x74e8e4013a5d1e97),
    ("binpack/faults", 0xaea82210bd17f87a),
    ("spread/faults", 0x06f42235aa43a4cf),
    ("binpack/malicious", 0xbd0115715a08e7dd),
    ("drain/binpack", 0x975d7d6c4b0e330c),
];

#[test]
fn replay_results_match_pre_refactor_goldens() {
    let print = std::env::var("GOLDEN_PRINT").is_ok();
    let mut actual: Vec<(&'static str, u64)> = scenarios()
        .iter()
        .map(|(name, exp)| (*name, digest(exp)))
        .collect();
    actual.push(("drain/binpack", drain_digest()));

    if print {
        for (name, hash) in &actual {
            println!("    (\"{name}\", {hash:#018x}),");
        }
        return;
    }
    let expected: std::collections::BTreeMap<_, _> = EXPECTED.iter().copied().collect();
    for (name, hash) in actual {
        assert_eq!(
            Some(&hash),
            expected.get(name),
            "scenario `{name}` diverged from the pre-refactor replay digest"
        );
    }
}
