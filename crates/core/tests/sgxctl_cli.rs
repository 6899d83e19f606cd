//! `sgxctl` command-line boundary: a malformed flag or flag *value* is a
//! usage error — exit code 2 and one line on stderr — never a panic and
//! never a silently different run.

use std::process::{Command, Output};

fn sgxctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sgxctl"))
        .args(args)
        .output()
        .expect("sgxctl runs")
}

#[test]
fn bad_flags_and_flag_values_are_one_line_usage_errors() {
    let cases: &[&[&str]] = &[
        &["--no-such-flag"],
        &["--seed", "forty-two"],
        &["--sgx-ratio", "nan"],
        // Outside (0, 1]: used to reach an `assert!` and exit 101.
        &["--malicious", "7"],
        &["--malicious", "-1"],
        &["--malicious", "0"],
        &["--malicious", "nan"],
        // 2^44 MiB overflows the byte count (a release build wrapped to an
        // EPC-less cluster and exited 0); zero asks for the same cluster.
        &["--epc-total", "17592186044416"],
        &["--epc-total", "0"],
        // More seconds than `SimDuration` holds microseconds for: a debug
        // build panicked in `from_secs`, a release build wrapped to some
        // other duration and replayed that.
        &["--autoscale-period", "18446744073709551615"],
        &["--autoscale-up-wait-secs", "18446744073710"],
        &["--autoscale-cooldown-secs", "18446744073709551615"],
    ];
    for case in cases {
        let mut args = vec!["replay", "--quick"];
        args.extend_from_slice(case);
        let output = sgxctl(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{case:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{case:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{case:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{case:?} still replayed");
    }
}

/// Every path through `sgxctl` checks what is left of the command line:
/// a stray flag after `help`, `cluster` or `--list-frontends` used to be
/// ignored with exit code 0, and a value-taking flag in last position
/// was reported as an unrecognised argument.
#[test]
fn no_argument_is_silently_ignored() {
    let cases: &[(&[&str], &str)] = &[
        (&["--bogus"], "unrecognised argument `--bogus`"),
        (&["help", "--bogus"], "unrecognised argument `--bogus`"),
        (&["cluster", "--bogus"], "unrecognised argument `--bogus`"),
        (
            &["replay", "--list-frontends", "--bogus"],
            "unrecognised argument `--bogus`",
        ),
        (&["replay", "--quick", "--seed"], "--seed expects a value"),
    ];
    for (args, message) in cases {
        let output = sgxctl(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} still ran");
    }
}

/// The `exp_*` sweeps take `--smoke` and their own `--list-*` flag and
/// nothing else: a mistyped flag used to run the full paper-scale sweep.
#[test]
fn the_sweeps_reject_unknown_arguments() {
    let sweeps = [
        env!("CARGO_BIN_EXE_exp_rebalance"),
        env!("CARGO_BIN_EXE_exp_chaos"),
        env!("CARGO_BIN_EXE_exp_autoscale"),
        env!("CARGO_BIN_EXE_exp_frontends"),
    ];
    for sweep in sweeps {
        let output = Command::new(sweep)
            .args(["--smoke", "--no-such-flag"])
            .output()
            .expect("the sweep runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{sweep}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{sweep}: {stderr}");
        assert!(stderr.starts_with("error: "), "{sweep}: {stderr}");
        assert!(output.stdout.is_empty(), "{sweep} still swept");
    }
}

#[test]
fn a_quick_replay_succeeds() {
    let output = sgxctl(&["replay", "--quick"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("makespan:"), "{stdout}");
}

/// Replays a one-job trace file holding `row` under the given extra flags.
fn replay_trace_row(file: &str, row: &str, flags: &[&str]) -> Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, format!("{}\n{row}\n", borg_trace::csv::HEADER)).unwrap();
    let mut args = vec!["replay", "--trace", path.to_str().unwrap()];
    args.extend_from_slice(flags);
    sgxctl(&args)
}

#[test]
fn an_unrepresentable_finish_instant_times_out_with_exit_code_1() {
    // A u64::MAX µs duration: the finish instant (and, submitted after
    // t = 0, the frontend's horizon hint) used to overflow — a panic in a
    // debug build, a wrap to `t+10.0s, 1 completed` in release.
    let output = replay_trace_row(
        "overflowing_duration.csv",
        "1,1,18446744073709551615,0.1,0.05",
        &[],
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stdout.contains("0 completed"), "{stdout}");
    assert!(
        stderr.contains("timed out at the 48h00m00s cap with 1 pod(s)"),
        "{stderr}"
    );
}

#[test]
fn a_zero_page_sgx_request_still_lands_on_an_sgx_node() {
    // The request rounds to 0 EPC pages; the pod used to be placed as a
    // standard pod, refused by the kubelet and retried until the 48 h cap
    // (exit 0). With a one-page floor it reaches an SGX node, where the
    // driver denies it for using more than it asked for.
    let output = replay_trace_row(
        "zero_page_sgx.csv",
        "1,0,1000000,0.0,0.1",
        &["--sgx-ratio", "1"],
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("0 completed, 1 denied at launch"),
        "{stdout}"
    );
    assert!(!stdout.contains("48h"), "{stdout}");
}

/// `replay --seed N` replays seed N's trace. The seed used to reach the
/// SGX designation and the replay configuration only: the trace was
/// prepared for the default seed, 42, whatever `--seed` said.
#[test]
fn a_replay_replays_the_trace_of_its_seed() {
    let stats = sgxctl(&["trace", "stats", "--quick", "--seed", "7"]);
    let stdout = String::from_utf8_lossy(&stats.stdout);
    let jobs = stdout
        .lines()
        .find_map(|line| line.strip_prefix("jobs:"))
        .unwrap_or_else(|| panic!("no job count in {stdout}"))
        .trim();
    let replay = sgxctl(&["replay", "--quick", "--seed", "7"]);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert_eq!(replay.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains(&format!("replaying {jobs} jobs")),
        "trace stats counts {jobs} jobs, but: {stderr}"
    );
}
