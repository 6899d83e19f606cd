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

#[test]
fn a_quick_replay_succeeds() {
    let output = sgxctl(&["replay", "--quick"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("makespan:"), "{stdout}");
}
