//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sgx-bench --workload NAME --seed N --seconds T --trace 0|1   one workload (BENCHMARK.json's command)
//! sgx-bench [--seed N] [--reps R] [--smoke] [--out FILE]       all five workloads, traced run included
//! sgx-bench compare A.json B.json                              two result files against the bounds
//! ```

mod child;
mod compare;
mod host;
mod json;
mod metrics;
mod mirror;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  sgx-bench --workload NAME --seed N --seconds T --trace 0|1 [--smoke]
  sgx-bench [--seed N] [--reps R] [--smoke] [--out FILE]
  sgx-bench compare A.json B.json
workloads: paper_sweep fullscale_autoscale steady_static backlog_spread online_burst";

/// Command-line options after the optional subcommand.
#[derive(Debug, Default, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    out: Option<String>,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        let bad = |what: &str, v: &str| format!("{arg}: {v:?} is not {what}");
        match arg.as_str() {
            "--workload" => options.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                options.seed = Some(v.parse().map_err(|_| bad("a whole number", &v))?);
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad("a positive number", &v));
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                });
            }
            "--reps" => {
                let v = value()?;
                let reps: usize = v.parse().map_err(|_| bad("a whole number", &v))?;
                if reps == 0 || reps > 99 {
                    return Err(bad("between 1 and 99", &v));
                }
                options.reps = Some(reps);
            }
            "--out" => options.out = Some(value()?),
            "--smoke" => options.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

fn workload_of(options: &Options) -> Result<Workload, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn scale_of(options: &Options) -> Scale {
    if options.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    }
}

fn warn_if_undersized() {
    if host::undersized() {
        eprintln!(
            "warning: fewer than 2 cores: online_burst's producer and server share one, its numbers are not comparable"
        );
    }
}

/// `BENCHMARK.json`'s command: one workload, one JSON line last.
fn run_contract(options: &Options) -> Result<bool, String> {
    let workload = workload_of(options)?;
    let seed = options.seed.unwrap_or(42);
    let traced = options.trace.unwrap_or(false);
    warn_if_undersized();
    let result = suite::run_one(
        workload,
        seed,
        scale_of(options),
        options.seconds.unwrap_or(12.0),
        traced,
    )?;
    eprintln!(
        "{}",
        host::envelope(seed, result.reps, scale_of(options)).to_line()
    );
    print!("{}", suite::table(&result));
    println!("{}", suite::contract_line(&result));
    Ok(result.correct())
}

/// Every workload, with the traced run; writes a result file.
fn run_suite(options: &Options) -> Result<bool, String> {
    let seed = options.seed.unwrap_or(42);
    let scale = scale_of(options);
    let reps = options.reps.unwrap_or(if options.smoke { 1 } else { 3 });
    warn_if_undersized();
    let results = suite::run_all(seed, scale, reps)?;
    let correct = results.iter().all(suite::WorkloadResult::correct);
    let doc = Value::obj([
        ("envelope", host::envelope(seed, reps, scale)),
        ("correct", Value::from(correct)),
        (
            "workloads",
            Value::obj(
                results
                    .iter()
                    .map(|r| (r.workload.name(), suite::workload_json(r))),
            ),
        ),
        // The benchmark measures; it never claims.
        ("claim", Value::Null),
    ]);
    for result in &results {
        print!("{}", suite::table(result));
    }
    let default_out = format!(
        "{}/result-{}seed{seed}.json",
        child::OUT_DIR,
        if options.smoke { "smoke-" } else { "" }
    );
    let out = options.out.as_deref().unwrap_or(&default_out);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc.to_pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}; correct: {correct}");
    Ok(correct)
}

fn run_compare(options: &Options) -> Result<bool, String> {
    let [a, b] = options.positional.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::table(&rows));
    Ok(rows.iter().all(|r| !r.breach))
}

fn run_child(options: &Options, started: Instant) -> Result<bool, String> {
    let report = child::run(
        workload_of(options)?,
        options.seed.ok_or("--seed is required")?,
        scale_of(options),
        options.trace.unwrap_or(false),
        started,
    );
    println!("{}", report.to_line());
    Ok(true)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (subcommand, rest) = match args.first().map(String::as_str) {
        Some(word @ ("child" | "compare")) => (word, &args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("", &args[..]),
    };
    let outcome = parse_options(rest).and_then(|options| match subcommand {
        "child" => run_child(&options, started),
        "compare" => run_compare(&options),
        _ if !options.positional.is_empty() => {
            Err(format!("unexpected argument {:?}", options.positional[0]))
        }
        _ if options.workload.is_some() => run_contract(&options),
        _ => run_suite(&options),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed correctness check or a breached bound.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn contract_flags_parse() {
        let options = parse_options(&args(&[
            "--workload",
            "steady_static",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload.as_deref(), Some("steady_static"));
        assert_eq!(options.seed, Some(7));
        assert_eq!(options.seconds, Some(10.0));
        assert_eq!(options.trace, Some(true));
        assert!(!options.smoke);
        assert_eq!(workload_of(&options), Ok(Workload::SteadyStatic));
    }

    #[test]
    fn malformed_flags_are_errors() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--reps", "0"],
            &["--reps", "1000"],
            &["--frobnicate"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?} parsed");
        }
        let unknown = parse_options(&args(&["--workload", "nope"])).unwrap();
        assert!(workload_of(&unknown).is_err());
    }
}
