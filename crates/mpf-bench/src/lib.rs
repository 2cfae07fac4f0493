#![warn(missing_docs)]
//! Shared infrastructure for the experiment harnesses that regenerate
//! every table and figure of the paper's evaluation (Section 7).
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | binary                | paper artifact |
//! |-----------------------|----------------|
//! | `table1_schema`       | Table 1 (schema cardinalities & domain sizes) |
//! | `fig7_linearity`      | Figure 7 (plan linearity vs ctdeals density) |
//! | `fig8_extended_space` | Figure 8 (VE extended space vs DB scale) |
//! | `fig9_heuristics`     | Figure 9 (ordering heuristics vs DB scale) |
//! | `table2_heuristics`   | Table 2 (heuristic plan costs on star/multistar/linear) |
//! | `table3_random`       | Table 3 (random orders, mean ± 95% CI) |
//! | `fig10_opt_cost`      | Figure 10 (plan quality vs optimization time) |
//!
//! Binaries accept `--scale <f>` / `--n <tables>` style flags (see each
//! binary's `--help`); defaults are sized to finish in seconds on a laptop
//! while preserving the paper's comparison *shapes*.

use std::time::{Duration, Instant};

use mpf_algebra::{ExecStats, Executor, RelationStore};
use mpf_optimizer::{optimize, Algorithm, OptContext};
use mpf_semiring::SemiringKind;

/// One measured run of a query under an algorithm.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm label (paper row name).
    pub label: String,
    /// Optimizer-estimated plan cost.
    pub est_cost: f64,
    /// Time spent planning.
    pub optimize_time: Duration,
    /// Time spent executing.
    pub execute_time: Duration,
    /// Executor work counters.
    pub stats: ExecStats,
    /// Result cardinality.
    pub result_rows: usize,
}

/// Optimize and execute a query, measuring both phases.
pub fn run_query(
    ctx: &OptContext<'_>,
    store: &RelationStore,
    sr: SemiringKind,
    algorithm: Algorithm,
) -> RunResult {
    let t0 = Instant::now();
    let plan = optimize(ctx, algorithm);
    let optimize_time = t0.elapsed();

    let exec = Executor::new(store, sr);
    let t1 = Instant::now();
    let (rel, stats) = exec.execute(&plan.plan).expect("plan executes");
    let execute_time = t1.elapsed();

    RunResult {
        label: algorithm.label(),
        est_cost: plan.est_cost,
        optimize_time,
        execute_time,
        stats,
        result_rows: rel.len(),
    }
}

/// Optimize only (for plan-cost tables and optimization-time plots).
pub fn plan_only(ctx: &OptContext<'_>, algorithm: Algorithm) -> (f64, Duration) {
    let t0 = Instant::now();
    let plan = optimize(ctx, algorithm);
    (plan.est_cost, t0.elapsed())
}

/// Mean and 95% confidence half-width of a sample (normal approximation,
/// matching the paper's Table 3 reporting).
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    assert!(n > 0.0);
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half = 1.96 * (var / n).sqrt();
    (mean, half)
}

/// Render a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Tiny flag parser: `--name value` pairs from `std::env::args`.
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Capture the process arguments.
    pub fn capture() -> Args {
        Args {
            argv: std::env::args().collect(),
        }
    }

    /// Value of `--name`, parsed, or the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.argv
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.argv.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Format a duration in milliseconds with 3 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Minimal CSV writer for harness series output (`--csv <dir>` flags):
/// one file per figure/series, comma-separated, header first.
pub struct Csv {
    out: std::io::BufWriter<std::fs::File>,
}

impl Csv {
    /// Create `<dir>/<name>.csv` (directories are created as needed) and
    /// write the header row.
    pub fn create(dir: &str, name: &str, header: &[&str]) -> std::io::Result<Csv> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(format!("{dir}/{name}.csv"))?;
        let mut csv = Csv {
            out: std::io::BufWriter::new(file),
        };
        csv.row(header)?;
        Ok(csv)
    }

    /// Write one row; fields are escaped only by forbidding commas (harness
    /// output is numeric and label-only).
    pub fn row<S: AsRef<str>>(&mut self, fields: &[S]) -> std::io::Result<()> {
        use std::io::Write;
        let line: Vec<&str> = fields.iter().map(AsRef::as_ref).collect();
        debug_assert!(line.iter().all(|f| !f.contains(',')));
        writeln!(self.out, "{}", line.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_of_constant_sample_is_zero() {
        let (m, h) = mean_ci95(&[5.0, 5.0, 5.0]);
        assert_eq!(m, 5.0);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn ci_grows_with_variance() {
        let (_, h1) = mean_ci95(&[1.0, 2.0, 3.0]);
        let (_, h2) = mean_ci95(&[0.0, 2.0, 4.0]);
        assert!(h2 > h1);
        let (m, _) = mean_ci95(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn row_alignment() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }
}
