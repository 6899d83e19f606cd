//! End-to-end integration: trace generation → preparation → workload
//! materialisation → replay, with cross-crate invariants checked on the
//! result.

use borg_trace::frontend::MaterializedFrontend;
use borg_trace::JobKind;
use orchestrator::PodOutcome;
use sgx_orchestrator::Experiment;

#[test]
fn every_submitted_job_is_accounted_for() {
    let exp = Experiment::quick(1).sgx_ratio(0.5);
    let workload = exp.workload();
    let result = exp.run();

    assert_eq!(result.runs().len(), workload.len());
    let terminal = result.completed_count() + result.denied_count() + result.unschedulable_count();
    assert_eq!(terminal, workload.len(), "no job may be left dangling");
    assert!(!result.timed_out());
}

#[test]
fn waiting_and_turnaround_are_consistent() {
    let result = Experiment::quick(2).sgx_ratio(0.5).run();
    for run in result.runs() {
        let record = &run.record;
        match &record.outcome {
            PodOutcome::Completed { .. } => {
                let started = record.started_at.expect("completed implies started");
                let finished = record.finished_at.expect("completed implies finished");
                assert!(started >= record.submitted_at);
                assert!(finished >= started);
                assert!(record.turnaround().unwrap() >= record.waiting_time().unwrap());
            }
            PodOutcome::Denied { .. } => {
                // Killed at launch: start and finish coincide.
                assert_eq!(record.started_at, record.finished_at);
            }
            PodOutcome::Unschedulable => {
                assert!(record.started_at.is_none());
                assert!(record.finished_at.is_none());
            }
            PodOutcome::Pending | PodOutcome::Running { .. } => {
                panic!("replay ended with live pod {:?}", record.uid)
            }
        }
    }
}

#[test]
fn denied_jobs_only_exist_when_limits_are_enforced() {
    let exp = Experiment::quick(3).sgx_ratio(1.0);
    let enforced = exp.clone().run();
    let disabled = exp.limits(false).run();
    assert!(enforced.denied_count() > 0, "over-users must be killed");
    assert_eq!(disabled.denied_count(), 0);
    // Disabling limits never *reduces* completions of honest jobs.
    assert!(disabled.completed_count() >= enforced.completed_count());
}

#[test]
fn sgx_designation_only_touches_designated_jobs() {
    // The same trace at two ratios: jobs keep identity, duration and
    // submission; only kind and multipliers may differ.
    let a = Experiment::quick(4).sgx_ratio(0.0).workload();
    let b = Experiment::quick(4).sgx_ratio(1.0).workload();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.submit, y.submit);
        assert_eq!(x.duration, y.duration);
        assert_eq!(x.kind, JobKind::Standard);
        assert_eq!(y.kind, JobKind::Sgx);
    }
}

#[test]
fn pending_series_starts_and_ends_empty() {
    let result = Experiment::quick(5).sgx_ratio(1.0).run();
    let series = result.pending_epc_series();
    assert!(!series.points().is_empty());
    assert_eq!(series.points().last().unwrap().1, 0.0);
    // The series is the queue's EPC backlog: never negative.
    assert!(series.points().iter().all(|&(_, v)| v >= 0.0));
}

#[test]
fn same_seed_same_everything_different_seed_different_trace() {
    let a = Experiment::quick(6).run();
    let b = Experiment::quick(6).run();
    assert_eq!(a.runs(), b.runs());
    assert_eq!(
        a.pending_epc_series().points(),
        b.pending_epc_series().points()
    );
    let c = Experiment::quick(7).run();
    assert_ne!(a.runs().len(), 0);
    assert_ne!(
        a.runs()
            .iter()
            .map(|r| r.record.submitted_at)
            .collect::<Vec<_>>(),
        c.runs()
            .iter()
            .map(|r| r.record.submitted_at)
            .collect::<Vec<_>>()
    );
}

#[test]
fn csv_round_trip_preserves_replay_behaviour() {
    // Persist the prepared trace through the CSV layer and verify the
    // replay is bit-identical.
    let exp = Experiment::quick(8).sgx_ratio(0.5);
    let trace = exp.prepared_trace();
    let text = borg_trace::csv::to_csv(&trace);
    let reloaded = borg_trace::csv::from_csv(&text).expect("round trip");
    assert_eq!(reloaded, trace);

    let params = borg_trace::WorkloadParams::paper(0.5, 8);
    let w1 = borg_trace::Workload::materialize(&trace, &params);
    let w2 = borg_trace::Workload::materialize(&reloaded, &params);
    assert_eq!(w1, w2);

    let r1 = simulation::replay_stream(&mut MaterializedFrontend::new(&w1), &exp.replay_config());
    let r2 = simulation::replay_stream(&mut MaterializedFrontend::new(&w2), &exp.replay_config());
    assert_eq!(r1.runs(), r2.runs());
}
