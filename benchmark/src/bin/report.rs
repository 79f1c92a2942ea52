//! `report table <records.jsonl>`: the layer ledger of a traced run,
//! made from its raw records — a separate step from collection.
//!
//! `report compare <BENCHMARK.json> <set-a-dir> <set-b-dir>`: the
//! repeatability check. Each directory holds one run's result lines as
//! `<workload>.trace0.json` / `<workload>.trace1.json`. Fails when an
//! end-to-end metric of set B is worse than set A's by more than the
//! bound `BENCHMARK.json` fixes for it, or when a count that must
//! repeat exactly does not.

use lightyear_benchmark::ledger::{self, OpRecord};
use lightyear_benchmark::WORKLOADS;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Per-input counts that are a pure function of the seed and must
/// repeat exactly run to run. Solver-level counts qualify only where the
/// verifier runs on one thread (on the pool they depend on which thread
/// reaches a duplicate first) and inputs recur (`wan-edits` takes its
/// median over however many rounds fit in the window).
fn exact_counts(workload: &str) -> &'static [&'static str] {
    match workload {
        "zoo-hetero" => &[
            "core.checks",
            "smt.solves",
            "smt.max_vars",
            "smt.max_clauses",
        ],
        "wan-faulty-cli" => &["core.checks", "smt.solves"],
        _ => &["core.checks"],
    }
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    serde_json::from_str(&read_text(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn table(path: &Path) -> Result<bool, String> {
    let records = read_text(path)?
        .lines()
        .map(|l| {
            serde_json::from_str(l)
                .ok()
                .as_ref()
                .and_then(OpRecord::from_value)
        })
        .collect::<Option<Vec<OpRecord>>>()
        .ok_or(format!("{} is not a per-op record file", path.display()))?;
    print!("{}", ledger::table(&records));
    Ok(true)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result["metrics"][name]["value"].as_f64()
}

fn compare(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let doc = read_json(benchmark)?;
    let bounds = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut ok = true;
    for w in WORKLOADS {
        let file = |dir: &Path, trace: u8| read_json(&dir.join(format!("{w}.trace{trace}.json")));
        let (a0, b0, a1, b1) = (file(a, 0)?, file(b, 0)?, file(a, 1)?, file(b, 1)?);
        for m in bounds {
            let (Some(name), Some(better), Some(bound)) = (
                m["name"].as_str(),
                m["better"].as_str(),
                m["bound"].as_f64(),
            ) else {
                return Err("a BENCHMARK.json end_to_end entry is malformed".into());
            };
            let (Some(x), Some(y)) = (metric(&a0, name), metric(&b0, name)) else {
                return Err(format!("{w}: {name} is missing from a result line"));
            };
            let worse_by = if better == "higher" {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let verdict = if worse_by > bound { "WORSE" } else { "ok" };
            ok &= worse_by <= bound;
            println!(
                "{w:<16} {name:<16} {x:>14.4} -> {y:>14.4}  {:>+7.2}% (bound {:.0}%)  {verdict}",
                100.0 * worse_by,
                100.0 * bound
            );
        }
        for (x, y) in [(&a0, &b0), (&a1, &b1)] {
            if x["failed"] != y["failed"] {
                println!(
                    "{w:<16} failed ops differ: {:?} vs {:?}",
                    x["failed"], y["failed"]
                );
                ok = false;
            }
        }
        for name in exact_counts(w) {
            let (x, y) = (metric(&a1, name), metric(&b1, name));
            if x != y {
                println!("{w:<16} {name} must repeat exactly: {x:?} vs {y:?}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "repeat: the two sets agree"
        } else {
            "repeat: the two sets DISAGREE"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["table", records] => table(Path::new(records)),
        ["compare", benchmark, a, b] => compare(Path::new(benchmark), Path::new(a), Path::new(b)),
        _ => Err("usage: report table <records.jsonl> | report compare <BENCHMARK.json> <set-a-dir> <set-b-dir>".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
