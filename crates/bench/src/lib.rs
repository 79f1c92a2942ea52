//! Benchmark harnesses regenerating the paper's tables and figures.
//!
//! Binaries (see `src/bin/`):
//!
//! * `table2` — the Table-2 safety walkthrough (no-transit on Figure 1),
//!   including the seeded-bug counterexample of §2.1.
//! * `table3` — the Table-3 liveness walkthrough (customer reachability).
//! * `table4` — the §6.1 WAN use cases: 4a bogon filtering, 4b IP-reuse
//!   safety, 4c IP-reuse liveness.
//! * `figure3` — the §6.2 scaling comparison against Minesweeper
//!   (panels a-d: encoding sizes and solve/total times vs network size).
//!
//! One bench (`benches/obs.rs`, `cargo bench -p bench --bench obs`)
//! gates the `obs` layer's disabled-instrumentation and idle-listener
//! overheads. End-to-end performance is measured by `benchmark/`, not
//! here.
//!
//! All binaries accept environment variables to scale up to paper-size
//! runs (see each binary's `--help`-style header comment).

use std::io::Write;
use std::time::Duration;

/// Read a usize parameter from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Record a ceiling-style gate (overhead gates, where smaller is
/// better): print it, append it to the `BENCH_JSON` file (CI's
/// `BENCH_obs.json` artifact), and **panic when `value` exceeds
/// `ceiling`** so `cargo bench` — and with it the CI job — fails.
pub fn record_gate_max(name: &str, value: f64, ceiling: f64) {
    let pass = value <= ceiling;
    println!(
        "gate {name}: {value:.4} (ceiling {ceiling:.4}) -> {}",
        if pass { "pass" } else { "FAIL" }
    );
    append_json_line(&format!(
        "{{\"gate\":\"{name}\",\"value\":{value:.4},\"ceiling\":{ceiling:.4},\"pass\":{pass}}}"
    ));
    assert!(
        pass,
        "bench gate {name}: {value:.4} exceeds the {ceiling:.4} ceiling"
    );
}

/// Append one line to the file named by `BENCH_JSON`; a no-op when the
/// variable is unset or the file cannot be opened, so a gate never fails
/// because of its record.
fn append_json_line(line: &str) {
    let Some(path) = std::env::var_os("BENCH_JSON").filter(|p| !p.is_empty()) else {
        return;
    };
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Median of a sample (used by the in-bench acceptance gates; a median
/// rides out one-off scheduler hiccups better than a mean on CI boxes).
pub fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Format a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// A minimal aligned-table printer for benchmark output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_usize_default() {
        assert_eq!(env_usize("DEFINITELY_NOT_SET_XYZ", 7), 7);
    }

    #[test]
    fn ceiling_gate_passes_under_ceiling() {
        record_gate_max("ceiling-gate-pass-test", 1.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn ceiling_gate_fails_over_ceiling() {
        record_gate_max("ceiling-gate-fail-test", 5.0, 3.0);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["n", "time"]);
        t.row(vec!["10".into(), "1.5s".into()]);
        t.print(); // smoke test
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
