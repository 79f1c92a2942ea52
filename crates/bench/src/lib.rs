//! Benchmark harnesses regenerating every table and figure of the paper.
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
//! * `wan_scale` — the §6.1 scaling claims: the 11 peering properties
//!   over a WAN, sequential and parallel, with per-property timings.
//!
//! Criterion benches (see `benches/`):
//!
//! * `encoding` — route-map encoding cost vs map size and universe width
//!   (ablations D1/D4).
//! * `checks` — end-to-end check throughput: sequential vs parallel (D3)
//!   and incremental vs full re-verification.
//!
//! All binaries accept environment variables to scale up to paper-size
//! runs (see each binary's `--help`-style header comment).

pub mod compare;

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Read a usize parameter from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Record an in-bench acceptance gate's outcome: print it, append it to
/// the `BENCH_JSON` file (the CI `bench-gate` job's `BENCH_ci.json`
/// artifact), and **panic when the floor is missed** so `cargo bench`
/// — and with it the CI job — fails. Call this with the measured
/// speedup ratio and the asserted floor.
pub fn record_gate(name: &str, ratio: f64, floor: f64) {
    let name = unique_gate_name(name);
    let pass = ratio >= floor;
    println!(
        "gate {name}: {ratio:.2}x (floor {floor:.2}x) -> {}",
        if pass { "pass" } else { "FAIL" }
    );
    criterion::append_json_line(&format!(
        "{{\"gate\":\"{name}\",\"ratio\":{ratio:.4},\"floor\":{floor:.2},\"pass\":{pass}}}"
    ));
    assert!(
        pass,
        "bench gate {name}: {ratio:.2}x is below the {floor:.2}x floor"
    );
}

/// Record a ceiling-style gate: pass when `value <= ceiling` (overhead
/// gates, where smaller is better). Same print/append/panic contract as
/// [`record_gate`], with `value`/`ceiling` fields in the JSON record.
pub fn record_gate_max(name: &str, value: f64, ceiling: f64) {
    let name = unique_gate_name(name);
    let pass = value <= ceiling;
    println!(
        "gate {name}: {value:.4} (ceiling {ceiling:.4}) -> {}",
        if pass { "pass" } else { "FAIL" }
    );
    criterion::append_json_line(&format!(
        "{{\"gate\":\"{name}\",\"value\":{value:.4},\"ceiling\":{ceiling:.4},\"pass\":{pass}}}"
    ));
    assert!(
        pass,
        "bench gate {name}: {value:.4} exceeds the {ceiling:.4} ceiling"
    );
}

/// Disambiguate gate names within one process. `BENCH_JSON` is
/// append-only, so two gates recorded under one name used to produce
/// two identical-looking lines in the assembled artifact — ambiguous
/// for any trend tooling keyed on the gate name. Repeats now get a
/// `#2`, `#3`, ... suffix and a warning on stderr.
fn unique_gate_name(name: &str) -> String {
    static SEEN: OnceLock<Mutex<BTreeMap<String, usize>>> = OnceLock::new();
    let mut seen = SEEN.get_or_init(Mutex::default).lock().unwrap();
    let n = seen.entry(name.to_string()).or_insert(0);
    *n += 1;
    if *n == 1 {
        name.to_string()
    } else {
        let unique = format!("{name}#{n}");
        eprintln!("warning: duplicate bench gate name {name:?}; recording as {unique:?}");
        unique
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

/// Print a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
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
    fn duplicate_gate_names_get_suffixes() {
        assert_eq!(unique_gate_name("dup-gate-test"), "dup-gate-test");
        assert_eq!(unique_gate_name("dup-gate-test"), "dup-gate-test#2");
        assert_eq!(unique_gate_name("dup-gate-test"), "dup-gate-test#3");
        // Independent names stay untouched.
        assert_eq!(unique_gate_name("other-gate-test"), "other-gate-test");
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
