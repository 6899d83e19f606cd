//! Shared reporting helpers for the figure-regeneration binaries.
//!
//! Each `fig*` binary reproduces one figure of the paper's evaluation and
//! prints the same rows/series the paper plots, side by side with the
//! paper's reported values where the paper states them. Run them all with
//!
//! ```text
//! for f in fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11; do
//!     cargo run --release -p bench --bin ${f}_*;
//! done
//! ```

use des::stats::Cdf;
use des::SimDuration;
use sgx_orchestrator::Experiment;
use simulation::{sweep, ReplayResult, SweepProgress};

/// Runs a batch of experiments on the parallel sweep (one worker per
/// available core), printing a progress line to stderr as each replay
/// completes. Results come back in input order and are bit-identical to
/// running each experiment sequentially.
pub fn run_experiments(experiments: &[Experiment]) -> Vec<ReplayResult> {
    announce(experiments.len());
    Experiment::run_all_with_progress(experiments, progress_line)
}

/// [`run_experiments`] for pre-materialised `(workload, config)` pairs —
/// the ablations that mutate workloads or cost models directly.
pub fn run_jobs(jobs: &[sweep::SweepJob]) -> Vec<ReplayResult> {
    announce(jobs.len());
    sweep::run_all_with(jobs, sweep::default_threads(jobs.len()), progress_line)
}

fn announce(runs: usize) {
    eprintln!(
        "  running {runs} replay(s) on {} worker thread(s)...",
        sweep::default_threads(runs)
    );
}

fn progress_line(p: SweepProgress) {
    eprintln!("    [{}/{}] replay #{} done", p.completed, p.total, p.index);
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints an aligned table: a header row plus data rows.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(
            row.len(),
            headers.len(),
            "table rows must match header arity"
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        print_row(row);
    }
}

/// Formats a duration as `4h47m` / `12m05s` / `42.0s`.
pub fn fmt_hm(d: SimDuration) -> String {
    let secs = d.as_secs();
    if secs >= 3600 {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{:.1}s", d.as_secs_f64())
    }
}

/// The standard quantiles reported for waiting-time CDFs.
pub const CDF_QUANTILES: [f64; 6] = [0.50, 0.80, 0.90, 0.95, 0.99, 1.00];

/// One table row of waiting-time quantiles (seconds), prefixed by `label`.
pub fn quantile_row(label: &str, cdf: &Cdf) -> Vec<String> {
    let mut row = vec![label.to_string(), cdf.len().to_string()];
    for q in CDF_QUANTILES {
        row.push(match cdf.quantile(q) {
            Some(v) => format!("{v:.0}"),
            None => "-".to_string(),
        });
    }
    row
}

/// Headers matching [`quantile_row`].
pub fn quantile_headers() -> Vec<&'static str> {
    vec!["run", "jobs", "p50", "p80", "p90", "p95", "p99", "max"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_hm_units() {
        assert_eq!(fmt_hm(SimDuration::from_secs(4 * 3600 + 47 * 60)), "4h47m");
        assert_eq!(fmt_hm(SimDuration::from_secs(125)), "2m05s");
        assert_eq!(fmt_hm(SimDuration::from_secs(42)), "42.0s");
    }

    #[test]
    fn quantile_row_shape() {
        let cdf = Cdf::from_samples((0..100).map(f64::from));
        let row = quantile_row("x", &cdf);
        assert_eq!(row.len(), quantile_headers().len());
        assert_eq!(row[0], "x");
        assert_eq!(row[1], "100");
        assert_eq!(row.last().unwrap(), "99");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_validates_arity() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }
}
