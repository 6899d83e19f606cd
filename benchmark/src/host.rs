//! The host envelope stamped on every result: without core count, CPU
//! model and toolchain a wall-clock number cannot be compared with
//! another one.

use std::process::Command;

use crate::child::cores;
use crate::json::Value;
use crate::workloads::{size, Scale, Workload};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit; "unknown" in an exported checkout, which is
/// not a repository (git is not even asked, so it cannot walk up into
/// someone else's).
fn git_revision() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// `online_burst` runs a producer and a server thread; on one core they
/// share it and the number measures the scheduler's time-slicing.
pub fn undersized() -> bool {
    cores() < 2
}

pub fn envelope(seed: u64, reps: usize, scale: Scale) -> Value {
    Value::obj([
        ("cores", Value::from(cores())),
        ("cpu_model", Value::str(cpu_model())),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        ("git_revision", Value::str(git_revision())),
        ("seed", Value::from(seed)),
        ("reps", Value::from(reps as u64)),
        ("smoke", Value::from(scale == Scale::Smoke)),
        ("undersized_host", Value::from(undersized())),
        (
            "sizes",
            Value::obj(
                Workload::ALL
                    .iter()
                    .map(|w| (w.name(), size(*w, scale).to_json())),
            ),
        ),
    ])
}
