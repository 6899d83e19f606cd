//! `compare A.json B.json`: holds two suite result files against the
//! benchmark's own bounds, one row per (workload, metric).

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: String,
    pub b: String,
    /// B / A, where both are numbers and A is not 0.
    pub ratio: Option<f64>,
    pub bound: String,
    pub breach: bool,
}

/// `true` when `new` is worse than `base` by more than `bound` (a share
/// of `base`).
pub fn worsened(base: f64, new: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => new > base * (1.0 + bound),
        Better::Higher => new < base * (1.0 - bound),
    }
}

/// The bound applied in both directions: neither file may be worse than
/// the other by more than it. Two runs of one commit must agree this
/// well for the bound to mean anything on two different commits.
pub fn breach(a: f64, b: f64, better: Better, bound: f64) -> bool {
    worsened(a, b, better, bound) || worsened(b, a, better, bound)
}

fn envelope_field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.get("envelope")?.get(key)
}

/// Compares every workload and end-to-end metric the two files share.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |doc: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "not a suite result file: no \"workloads\" object".to_string())
    };
    let (workloads_a, workloads_b) = (workloads(a)?, workloads(b)?);
    // Simulated behaviour is a function of (seed, size): digests are
    // only comparable between files that agree on both.
    let same_input = ["seed", "smoke"].iter().all(|key| {
        envelope_field(a, key).is_some() && envelope_field(a, key) == envelope_field(b, key)
    });
    let mut rows = Vec::new();
    for (name, wa) in &workloads_a {
        let Some((_, wb)) = workloads_b.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for metric in &END_TO_END {
            let value = |w: &Value| {
                w.get("end_to_end")?
                    .get(metric.name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(ma), Some(mb)) = (value(wa), value(wb)) else {
                continue;
            };
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name.to_string(),
                unit: metric.unit.to_string(),
                a: format!("{ma:.6}"),
                b: format!("{mb:.6}"),
                ratio: (ma != 0.0).then(|| mb / ma),
                bound: format!(
                    "{}{:.0} %",
                    if metric.better == Better::Lower {
                        "+"
                    } else {
                        "-"
                    },
                    metric.bound * 100.0
                ),
                breach: breach(ma, mb, metric.better, metric.bound),
            });
        }
        let share = |w: &Value| w.get("failed_share").and_then(Value::as_f64);
        if let (Some(fa), Some(fb)) = (share(wa), share(wb)) {
            rows.push(Row {
                workload: name.clone(),
                metric: "failed_share".to_string(),
                unit: "ratio".to_string(),
                a: format!("{fa:.6}"),
                b: format!("{fb:.6}"),
                ratio: (fa != 0.0).then(|| fb / fa),
                bound: "any increase".to_string(),
                breach: fa != fb,
            });
        }
        let digest = |w: &'_ Value| {
            w.get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if let (true, true, Some(da), Some(db)) =
            (same_input, name != "online_burst", digest(wa), digest(wb))
        {
            rows.push(Row {
                workload: name.clone(),
                metric: "sim_digest".to_string(),
                unit: "fnv1a".to_string(),
                breach: da != db,
                a: da,
                b: db,
                ratio: None,
                bound: "equal".to_string(),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    Ok(rows)
}

pub fn table(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<18} {:<6} {:>18} {:>18} {:>10} {:>13}  verdict",
        "workload", "metric", "unit", "A", "B", "B / A", "bound"
    );
    for row in rows {
        let ratio = row
            .ratio
            .map_or_else(|| "-".to_string(), |r| format!("{r:.4}"));
        let _ = writeln!(
            out,
            "{:<20} {:<18} {:<6} {:>18} {:>18} {:>10} {:>13}  {}",
            row.workload,
            row.metric,
            row.unit,
            row.a,
            row.b,
            ratio,
            row.bound,
            if row.breach { "BREACH" } else { "ok" }
        );
    }
    let breaches = rows.iter().filter(|r| r.breach).count();
    let _ = writeln!(
        out,
        "{} rows, {breaches} breach{} (ratios are B / A; a bound applies in both directions)",
        rows.len(),
        if breaches == 1 { "" } else { "es" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_applies_per_direction_of_better() {
        // Lower is better: +10 % allowed, more is a regression.
        assert!(!worsened(10.0, 11.0, Better::Lower, 0.10));
        assert!(worsened(10.0, 11.01, Better::Lower, 0.10));
        assert!(!worsened(10.0, 5.0, Better::Lower, 0.10));
        // Higher is better: −10 % allowed.
        assert!(!worsened(100.0, 90.0, Better::Higher, 0.10));
        assert!(worsened(100.0, 89.9, Better::Higher, 0.10));
        assert!(!worsened(100.0, 500.0, Better::Higher, 0.10));
    }

    #[test]
    fn breach_is_symmetric() {
        for better in [Better::Lower, Better::Higher] {
            assert!(!breach(10.0, 10.5, better, 0.10));
            assert!(!breach(10.5, 10.0, better, 0.10));
            assert!(breach(10.0, 12.0, better, 0.10));
            assert!(breach(12.0, 10.0, better, 0.10));
        }
    }

    fn doc(seed: u64, wall: f64, rate: f64, failed_share: f64, digest: &str) -> Value {
        let metric = |v: f64| Value::obj([("unit", Value::str("x")), ("value", Value::from(v))]);
        Value::obj([
            (
                "envelope",
                Value::obj([("seed", Value::from(seed)), ("smoke", Value::from(false))]),
            ),
            (
                "workloads",
                Value::obj([(
                    "steady_static",
                    Value::obj([
                        ("sim_digest", Value::str(digest)),
                        ("failed_share", Value::from(failed_share)),
                        (
                            "end_to_end",
                            Value::obj([
                                ("wall_s", metric(wall)),
                                ("pod_events_per_s", metric(rate)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn agreeing_files_pass_and_every_row_carries_its_ratio() {
        let rows = compare(
            &doc(42, 2.0, 100.0, 0.0, "ab"),
            &doc(42, 2.1, 96.0, 0.0, "ab"),
        )
        .unwrap();
        let metrics: Vec<_> = rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            metrics,
            ["wall_s", "pod_events_per_s", "failed_share", "sim_digest"]
        );
        assert!(rows.iter().all(|r| !r.breach));
        assert_eq!(rows[0].ratio, Some(1.05));
        assert!(table(&rows).contains("0 breaches"));
    }

    #[test]
    fn breaches_are_flagged_per_row() {
        let rows = compare(
            &doc(42, 2.0, 100.0, 0.0, "ab"),
            &doc(42, 2.6, 70.0, 0.01, "cd"),
        )
        .unwrap();
        assert!(rows.iter().all(|r| r.breach), "{rows:?}");
        // An improvement beyond the bound is a breach too: two runs of
        // one commit that differ by that much are not repeatable.
        let rows = compare(
            &doc(42, 2.0, 100.0, 0.0, "ab"),
            &doc(42, 1.5, 100.0, 0.0, "ab"),
        )
        .unwrap();
        assert!(rows[0].breach);
        assert!(table(&rows).contains("BREACH"));
    }

    #[test]
    fn digests_are_only_compared_on_equal_seeds() {
        let rows = compare(
            &doc(42, 2.0, 100.0, 0.0, "ab"),
            &doc(61, 2.0, 100.0, 0.0, "cd"),
        )
        .unwrap();
        assert!(rows.iter().all(|r| r.metric != "sim_digest"));
        assert!(rows.iter().all(|r| !r.breach));
    }

    #[test]
    fn foreign_files_are_an_error() {
        assert!(compare(&Value::Null, &doc(1, 1.0, 1.0, 0.0, "a")).is_err());
        let empty = Value::obj([("workloads", Value::obj::<&str>([]))]);
        assert!(compare(&empty, &empty).is_err());
    }
}
