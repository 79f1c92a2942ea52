//! `lightyear` — verify BGP configurations against a JSON property spec.
//!
//! ```text
//! USAGE:
//!   lightyear verify --configs <DIR> --spec <FILE> [--parallel] [--json]
//!                    [--jobs N] [--portfolio K]
//!                    [--cache] [--cache-dir DIR] [--cache-cap N]
//!                    [--profile FILE]
//!   lightyear profile <SPEC> <CONFIG_DIR> [--jobs N] [--out FILE] [--portfolio K]
//!                    [--top N]
//!   lightyear watch  --configs <DIR> --spec <FILE> [--baseline DIR]
//!                    [--once] [--interval-ms N] [--max-rounds N]
//!                    [--cache-dir DIR] [--metrics-json FILE]
//!                    [--listen ADDR] [--stale-after-ms N]
//!                    [--flight-json FILE] [--events-jsonl FILE]
//!   lightyear plan   --spec <FILE> <DIR0> <DIR1> [...]
//!   lightyear fuzz   [--seed N] [--cases N] [--families a,b,...]
//!                    [--edit-steps K] [--sim-rounds R] [--no-inject]
//!                    [--repro-dir DIR] [--bench-json FILE] [--replay DIR]
//!                    [--listen ADDR] [--flight-json FILE]
//!   lightyear bench  --zoo [--limit N] [--seed N] [--max-routers N]
//!                    [--json FILE]
//!   lightyear bench-report <A.json> <B.json>
//!   lightyear parse  --configs <DIR>
//!   lightyear lint   --configs <DIR>
//!   lightyear spec-template
//!
//! COMMANDS:
//!   verify          parse every *.cfg/*.conf in DIR, lower, and run all
//!                   safety properties in the spec as ONE cross-property
//!                   batch: checks from different properties that share
//!                   an encoding base (the same edge's transfer relation,
//!                   the implication shape) are solved on one persistent
//!                   SMT session, so each edge is encoded once for the
//!                   whole spec. Per-property output is byte-identical to
//!                   verifying the properties one at a time. With --json,
//!                   each property carries a "cores" array: per passing
//!                   check, which invariant conjuncts its UNSAT proof
//!                   actually needed (core-based blame). Exit code 1 when
//!                   any check fails. --json also appends a trailing
//!                   entry with a "timings" stage split (load / generate /
//!                   fingerprint / terms / blast / feed / solve / cache /
//!                   report / other, summing to the wall clock) and the
//!                   full "metrics" counter snapshot; --profile FILE
//!                   additionally writes a self-contained profile report
//!                   (see `profile`)
//!   profile         deep-dive profiling run: verify <CONFIG_DIR> against
//!                   <SPEC> with the metrics sink installed, print the
//!                   stage split, the hottest check groups and the solver
//!                   counter table, and write a self-contained profile
//!                   JSON (--out, default profile.json). The file is a
//!                   valid Chrome trace_event file — load it directly in
//!                   Perfetto (ui.perfetto.dev) or chrome://tracing; the
//!                   profile tables ride along as extra top-level keys,
//!                   which trace viewers ignore
//!   watch           long-lived re-verify daemon: verify DIR once, then
//!                   re-check on every config change, re-solving only the
//!                   checks the semantic diff dirtied (carried verdicts;
//!                   dirty groups re-solved on a recycled session). Each
//!                   round prints a stats line:
//!                     round 1: delta [EDGE0: route-map FROM-PEER0 changed];
//!                     dirty 1/220 checks (13 candidates), 219 cached, ...
//!                   --baseline DIR verifies DIR as round zero instead of
//!                   the watched directory; --once runs a single delta
//!                   round (baseline -> configs) and exits — the
//!                   migration-step / CI smoke shape. --cache-dir DIR
//!                   spills the carried result cache after every verified
//!                   round and reloads it (passing verdicts only) on
//!                   startup, so a restarted daemon starts warm.
//!                   --metrics-json FILE atomically rewrites FILE after
//!                   every round with the round count, the last round's
//!                   delta metrics, and the cumulative counter snapshot;
//!                   a cumulative totals line is printed per round. The
//!                   file, the totals line and the /metrics endpoint
//!                   share one round counter, so they always agree.
//!                   --listen ADDR serves live telemetry over HTTP
//!                   (GET /metrics [?format=prom], /healthz, /trace);
//!                   --stale-after-ms N makes /healthz answer 503 once
//!                   no round has completed for N ms. The flight
//!                   recorder is always on: recent spans/events plus
//!                   the last error are dumped to --flight-json
//!                   (default flight.json) on panic or any failed
//!                   round. --events-jsonl FILE additionally streams
//!                   every event and completed span as JSONL with
//!                   size-capped rotation
//!   plan            Snowcap/Chameleon-style migration-plan verification:
//!                   verify DIR0 fully, then every subsequent directory as
//!                   a delta round, proving each intermediate
//!                   configuration safe; exit code 1 if any step fails
//!   fuzz            seeded differential campaign over six topology families
//!                   (figure1, fullmesh, wan, rr, stub, hubspoke): each
//!                   case is cross-checked by the simulation oracle (all
//!                   2^3 SimOptions), the mode-parity oracle (reference /
//!                   one worker / two workers / cross-property batch
//!                   byte-identity) and the edit-sequence oracle
//!                   (reverify == fresh after every random edit), plus a
//!                   curated injected-bug sweep. A discrepancy is greedily
//!                   minimized and written as a replayable repro directory
//!                   (--repro-dir; re-run it with --replay). --bench-json
//!                   records campaign throughput (the CI BENCH_fuzz.json)
//!   bench           the Internet-scale corpus sweep: walk the vendored
//!                   Topology Zoo corpus (netgen::zoo, 11..754 routers)
//!                   ascending, verify each entry's peering + fencing
//!                   suites as one orchestrated streaming batch, print a
//!                   summary table and write one record per entry
//!                   (checks/s, wall, peak RSS via VmHWM, dedup ratio)
//!                   to --json (default BENCH_zoo.json). --limit N takes
//!                   the N smallest entries; --max-routers scales every
//!                   entry down proportionally (test/smoke mode); the
//!                   records are a pure function of the corpus and
//!                   --seed apart from the timing/RSS fields
//!   bench-report    diff two BENCH_*.json files (arrays of gate lines,
//!                   as assembled by CI with `jq -s`): per-gate verdict
//!                   flips, metric regressions/improvements beyond a 2%
//!                   tolerance, and added/removed gates. Exit code 1
//!                   when any gate regressed
//!   parse           parse + lower only; print the topology summary and
//!                   lowering warnings
//!   lint            run rcc-style best-practice lints; exit code 1 on
//!                   any error-severity finding
//!   spec-template   print an example spec.json to stdout
//!
//! VERIFY OPTIONS:
//!   --jobs N        worker threads for the check pipeline (default 1:
//!                   everything runs on the calling thread). Every run
//!                   fingerprints its checks, solves each distinct
//!                   structure once and groups checks that share an
//!                   encoding base (same edge transfer function /
//!                   implication shape) onto one persistent SMT session;
//!                   N only sets how many groups are solved at a time
//!   --parallel      one worker per core (--jobs N overrides the count)
//!   --portfolio K   race heavyweight check groups on K jittered solver
//!                   clones (2..=4), first answer wins; reports stay
//!                   byte-identical to sequential solving
//!   --cache         reuse check results across runs; spilled to
//!                   --cache-dir as JSON. Failures are spilled too and
//!                   re-validated against the live configs before reuse.
//!                   The cache is consulted at any worker count; without
//!                   --jobs a cached run uses one worker per core
//!   --cache-dir DIR cache spill directory (default .lightyear-cache;
//!                   implies --cache)
//!   --cache-cap N   bound the in-memory cache to ~N entries with LRU
//!                   eviction (implies --cache; default unbounded)
//!   --profile FILE  install the metrics sink for the run and write a
//!                   self-contained profile report (stage split, hottest
//!                   check groups, solver counters, Chrome trace) to FILE
//!
//! With --parallel, --jobs or any --cache flag, a dedup-stats summary
//! line is printed after the properties, e.g.:
//!   orchestrator: 220 checks -> 34 solver calls (180 deduped, 6 cached, ratio 0.15, 8 threads); incremental: 12 groups, 22 warm assumption solves
//! ```

mod bench_zoo;
mod fuzz;
mod profile;
mod render;
mod serve;
mod session;
mod spec;
mod telemetry;
mod watch;

use bgp_config::{lower, parse_config, Network};
use lightyear::engine::{RunMode, Verifier};
use serde::Serialize;
use spec::Spec;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lightyear verify --configs <DIR> --spec <FILE> [--parallel] [--json]\n    \
         [--jobs N] [--portfolio K] [--cache] [--cache-dir <DIR>] [--cache-cap N]\n    \
         [--profile <FILE>]\n  \
         lightyear profile <SPEC> <CONFIG_DIR> [--jobs N] [--out <FILE>] [--top N]\n    \
         [--portfolio K]\n  \
         lightyear watch --configs <DIR> --spec <FILE> [--baseline <DIR>] [--once]\n    \
         [--interval-ms N] [--max-rounds N] [--cache-dir <DIR>] [--metrics-json <FILE>]\n    \
         [--listen <ADDR>] [--stale-after-ms N] [--flight-json <FILE>] [--events-jsonl <FILE>]\n  \
         lightyear plan --spec <FILE> <DIR0> <DIR1> [...]\n  \
         lightyear serve --listen <ADDR> [--cache-root <DIR>] [--workers N]\n    \
         [--queue-depth N] [--max-conns N] [--metrics-json <FILE>] [--stale-after-ms N]\n    \
         [--flight-json <FILE>] [--events-jsonl <FILE>]\n  \
         lightyear fuzz [--seed N] [--cases N] [--families a,b,...] [--edit-steps K]\n    \
         [--sim-rounds R] [--no-inject] [--repro-dir <DIR>] [--bench-json <FILE>]\n    \
         [--replay <DIR>] [--listen <ADDR>] [--flight-json <FILE>]\n  \
         lightyear bench --zoo [--limit N] [--seed N] [--max-routers N] [--json <FILE>]\n  \
         lightyear bench-report <A.json> <B.json>\n  \
         lightyear parse --configs <DIR>\n  lightyear spec-template"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "verify" => cmd_verify(&args[1..]),
        "profile" => profile::cmd_profile(&args[1..]),
        "watch" => watch::cmd_watch(&args[1..]),
        "plan" => watch::cmd_plan(&args[1..]),
        "serve" => serve::cmd_serve(&args[1..]),
        "fuzz" => fuzz::cmd_fuzz(&args[1..]),
        "bench" => bench_zoo::cmd_bench(&args[1..]),
        "bench-report" => cmd_bench_report(&args[1..]),
        "parse" => cmd_parse(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "spec-template" => {
            println!("{}", template());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// The sorted configuration files of a directory (*.cfg/*.conf/*.txt).
fn config_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir:?}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("cfg") | Some("conf") | Some("txt")
            )
        })
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no *.cfg/*.conf/*.txt files in {dir:?}"));
    }
    Ok(entries)
}

fn load_configs(dir: &Path) -> Result<Vec<bgp_config::ConfigAst>, String> {
    let mut configs = Vec::new();
    for p in &config_paths(dir)? {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p:?}: {e}"))?;
        let ast = parse_config(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        configs.push(ast);
    }
    Ok(configs)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let Some(dir) = flag_value(args, "--configs") else {
        return usage();
    };
    let configs = match load_configs(Path::new(&dir)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = bgp_config::lint(&configs);
    for f in &findings {
        println!("{f}");
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == bgp_config::Severity::Error)
        .count();
    println!(
        "{} finding(s), {} error(s) across {} configuration(s)",
        findings.len(),
        errors,
        configs.len()
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Strict scan of a subcommand's arguments: every `--flag` must be one
/// of `value_flags` (followed by its value) or one of `switches`.
/// Returns the positional arguments, or prints the error plus the usage
/// text and returns the usage exit code.
fn positionals(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Vec<String>, ExitCode> {
    let mut pos = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            if i + 1 >= args.len() {
                eprintln!("error: {a} needs a value");
                return Err(usage());
            }
            i += 2;
            continue;
        }
        if !switches.contains(&a) {
            if a.starts_with("--") {
                eprintln!("error: unknown {cmd} option {a}");
                return Err(usage());
            }
            pos.push(a.to_string());
        }
        i += 1;
    }
    Ok(pos)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn load_network(dir: &Path) -> Result<Network, String> {
    let configs = load_configs(dir)?;
    lower(&configs).map_err(|e| e.to_string())
}

fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("bad spec: {e}"))
}

fn cmd_parse(args: &[String]) -> ExitCode {
    let Some(dir) = flag_value(args, "--configs") else {
        return usage();
    };
    match load_network(Path::new(&dir)) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(net) => {
            let t = &net.topology;
            println!(
                "{} routers, {} external neighbors, {} directed edges",
                t.router_ids().count(),
                t.external_ids().count(),
                t.num_edges()
            );
            for n in t.router_ids() {
                let node = t.node(n);
                println!(
                    "  {} (AS {}), {} sessions",
                    node.name,
                    node.asn,
                    t.out_edges(n).len()
                );
            }
            for w in &net.warnings {
                println!("warning: {w}");
            }
            ExitCode::SUCCESS
        }
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    // Everything `verify` says on stdout, text or `--json`, is collected
    // and written once, whichever way the run ends.
    let mut out = String::new();
    let code = verify(args, &mut out);
    write_stdout(&out, code)
}

/// Write `text` to stdout in one write and flush. Unlike `print!`, a
/// reader that went away (a supervisor pipe, `serve … | head -n1`)
/// comes back as an `Err` instead of a panic: the caller decides what a
/// vanished reader means, and no lock it holds is poisoned by it.
pub(crate) fn log_stdout(text: &str) -> std::io::Result<()> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
}

/// Hand a command's whole stdout text to stdout with one write. A reader
/// that went away (`| head`) is not a failure of the run: the write
/// stops quietly and `code`, the verdict's, stands. Any other write
/// error is reported and exits 2.
pub(crate) fn write_stdout(text: &str, code: ExitCode) -> ExitCode {
    match log_stdout(text) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write report: {e}");
            ExitCode::from(2)
        }
        _ => code,
    }
}

fn verify(args: &[String], out: &mut String) -> ExitCode {
    use std::fmt::Write as _;
    // A typo'd or retired option must fail loudly, not run with the
    // setting silently ignored.
    let stray = match positionals(
        "verify",
        args,
        &[
            "--configs",
            "--spec",
            "--jobs",
            "--portfolio",
            "--cache-dir",
            "--cache-cap",
            "--profile",
        ],
        &["--parallel", "--json", "--cache"],
    ) {
        Ok(pos) => pos,
        Err(code) => return code,
    };
    if let Some(a) = stray.first() {
        eprintln!("error: unknown verify option {a}");
        return usage();
    }
    let (Some(dir), Some(spec_path)) = (flag_value(args, "--configs"), flag_value(args, "--spec"))
    else {
        return usage();
    };
    let as_json = args.iter().any(|a| a == "--json");
    let jobs = match flag_value(args, "--jobs").map(|v| v.parse::<usize>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => {
            eprintln!("error: --jobs needs a positive integer");
            return usage();
        }
    };
    let portfolio = match flag_value(args, "--portfolio").map(|v| v.parse::<usize>()) {
        None => None,
        Some(Ok(k)) if (2..=lightyear::smt::PORTFOLIO_MAX_K).contains(&k) => Some(k),
        Some(_) => {
            eprintln!(
                "error: --portfolio needs a solver count in 2..={}",
                lightyear::smt::PORTFOLIO_MAX_K
            );
            return usage();
        }
    };
    let cache_dir = flag_value(args, "--cache-dir");
    let cache_cap = match flag_value(args, "--cache-cap").map(|v| v.parse::<usize>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => {
            eprintln!("error: --cache-cap needs a positive integer");
            return usage();
        }
    };
    let use_cache =
        args.iter().any(|a| a == "--cache") || cache_dir.is_some() || cache_cap.is_some();
    let parallel = args.iter().any(|a| a == "--parallel");
    // The flags that ask about orchestration get its statistics back.
    let show_exec = parallel || jobs.is_some() || use_cache;
    // --json and --profile both want the run's timings/counters, so
    // either installs the metrics sink; without them the sink stays
    // absent and every instrumentation point is a single relaxed load.
    let profile_path = flag_value(args, "--profile");
    let reg = (as_json || profile_path.is_some()).then(obs::install);
    let t_start = Instant::now();
    let mut profile_props: Vec<serde_json::Value> = Vec::new();

    let cache_dir = PathBuf::from(cache_dir.unwrap_or_else(|| ".lightyear-cache".to_string()));
    let cache = if use_cache {
        match lightyear::load_check_cache_bounded(&cache_dir, cache_cap) {
            Ok((cache, loaded)) => {
                if !as_json && loaded > 0 {
                    let _ = writeln!(
                        out,
                        "cache: loaded {loaded} entries from {}",
                        cache_dir.display()
                    );
                }
                Some(cache)
            }
            Err(e) => {
                // An unreadable spill must not brick verification:
                // warn, start cold, and let the save at the end of the
                // run replace the bad file.
                eprintln!(
                    "warning: ignoring unreadable cache at {}: {e}",
                    cache_dir.display()
                );
                Some(std::sync::Arc::new(lightyear::CheckCache::new()))
            }
        }
    } else {
        None
    };

    let net = match load_network(Path::new(&dir)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec: Spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let topo = &net.topology;
    let mut verifier = Verifier::new(topo, &net.policy);
    // A cached run defaults to the pool too: a warm run re-validates
    // its spilled failures there.
    if parallel || use_cache {
        verifier = verifier.with_mode(RunMode::Parallel);
    }
    if let Some(n) = jobs {
        verifier = verifier.with_jobs(n);
    }
    if let Some(c) = &cache {
        verifier = verifier.with_cache(c.clone());
    }
    if let Some(k) = portfolio {
        verifier = verifier.with_portfolio(lightyear::engine::PortfolioTuning {
            k,
            ..Default::default()
        });
    }
    for g in &spec.ghosts {
        match g.resolve(topo) {
            Ok(g) => verifier = verifier.with_ghost(g),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Resolve every property up front, then verify the whole spec as ONE
    // cross-property batch: checks from different properties that share
    // an encoding base (above all, each edge's transfer relation) are
    // solved on a single persistent SMT session instead of re-encoding
    // the edge once per property. Per-property reports are byte-identical
    // to standalone runs.
    let resolved: Vec<_> = match spec
        .safety
        .iter()
        .map(|s| s.resolve(topo))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> = resolved
        .iter()
        .map(|(p, i)| (std::slice::from_ref(p), i))
        .collect();
    // The `load` stage ends here: files read, parsed and lowered, the
    // spec resolved against the topology. `report` collects the time
    // spent turning summaries into report documents.
    let load_time = t_start.elapsed();
    let mut report_time = Duration::ZERO;
    // Streaming assembly: outcomes fold into per-suite summaries as
    // their groups complete, so report memory is O(solve frontier +
    // failures), not O(checks). Cores are only retained when the
    // `--json` blame view will render them.
    let multi = verifier.verify_safety_batch_streaming(&suites, as_json);
    let mut any_failed = false;
    let mut json_out = Vec::new();
    let exec = multi.exec;
    for ((s, (prop, inv)), report) in spec.safety.iter().zip(&resolved).zip(&multi.summaries) {
        let passed = report.all_passed();
        any_failed |= !passed;
        if reg.is_some() {
            profile_props.push(serde_json::json!({
                "property": s.name,
                "kind": "safety",
                "passed": passed,
                "checks": report.num_checks() as u64,
                "solver_calls": report.solver_invocations() as u64,
                "total_seconds": report.total_time.as_secs_f64(),
                "solve_seconds": report.solve_time().as_secs_f64(),
            }));
        }
        if as_json {
            // Core-based blame rides along: for every passing check
            // solved on an assumption session, which invariant conjuncts
            // its UNSAT proof actually needed. Rendered through the
            // shared api report types (golden-pinned bytes).
            let t_report = Instant::now();
            let by_id = verifier.check_conjuncts_all(std::slice::from_ref(prop), inv);
            json_out.push(JsonEntry::Property(render::property_report(
                &s.name,
                false,
                report,
                topo,
                &by_id,
                Some(render::run_timing(report)),
            )));
            report_time += t_report.elapsed();
        } else {
            let _ = writeln!(
                out,
                "{}: {} ({} checks)",
                s.name,
                if passed { "verified" } else { "VIOLATED" },
                report.num_checks(),
            );
            if !passed {
                out.push_str(&report.format_failures(topo));
            }
        }
    }
    if !as_json && !spec.safety.is_empty() {
        let _ = writeln!(
            out,
            "batch: {} properties, {} checks in {:?}",
            multi.summaries.len(),
            multi.num_checks(),
            multi.total_time
        );
    }
    // Liveness properties: each runs through the same check pipeline
    // (propagation + no-interference + final implication), so passing
    // checks carry conjunct-level unsat cores too — surfaced in the
    // `--json` "cores" array exactly like safety properties.
    for l in &spec.liveness {
        let resolved = match l.resolve(topo) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = match verifier.verify_liveness(&resolved) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: liveness {}: {e}", l.name);
                return ExitCode::FAILURE;
            }
        };
        let passed = report.all_passed();
        any_failed |= !passed;
        if reg.is_some() {
            profile_props.push(serde_json::json!({
                "property": l.name,
                "kind": "liveness",
                "passed": passed,
                "checks": report.num_checks() as u64,
                "solver_calls": report.solver_invocations() as u64,
                "total_seconds": report.total_time.as_secs_f64(),
                "solve_seconds": report.solve_time().as_secs_f64(),
            }));
        }
        if as_json {
            let t_report = Instant::now();
            let conjs = verifier.liveness_check_conjuncts(&resolved);
            json_out.push(JsonEntry::Property(render::property_report(
                &l.name,
                true,
                &report.summarize(),
                topo,
                &conjs,
                None,
            )));
            report_time += t_report.elapsed();
        } else {
            let _ = writeln!(
                out,
                "{} (liveness): {} ({} checks)",
                l.name,
                if passed { "verified" } else { "VIOLATED" },
                report.num_checks(),
            );
            if !passed {
                out.push_str(&report.format_failures(topo));
            }
        }
    }
    if show_exec {
        if as_json {
            json_out.push(JsonEntry::Exec(render::exec_doc(&exec)));
        } else {
            let _ = writeln!(out, "{}", exec.summary());
        }
    }
    if let Some(c) = &cache {
        match lightyear::save_check_cache(c, &cache_dir) {
            Ok(written) => {
                if !as_json {
                    let _ = writeln!(
                        out,
                        "cache: saved {written} entries to {}",
                        cache_dir.display()
                    );
                }
            }
            Err(e) => eprintln!("warning: cannot save cache to {}: {e}", cache_dir.display()),
        }
    }
    if let Some(reg) = &reg {
        let stages = profile::StageClock {
            wall: t_start.elapsed(),
            load: load_time,
            report: report_time,
        };
        if as_json {
            let snap = reg.snapshot();
            json_out.push(JsonEntry::Telemetry(serde_json::json!({
                "timings": profile::stages_json(&snap, &stages),
                "metrics": snap.to_json(),
            })));
        }
        if let Some(path) = &profile_path {
            let report =
                profile::profile_json(reg, &stages, std::mem::take(&mut profile_props), 10);
            match profile::write_profile(path, &report) {
                // stderr so `lightyear verify --json --profile p.json`
                // still writes pure JSON to stdout.
                Ok(()) => eprintln!("profile: wrote {path}"),
                Err(e) => eprintln!("warning: {e}"),
            }
        }
        obs::uninstall();
    }
    if as_json {
        render_json_report(&json_out, out);
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One entry of the `verify --json` array. Entries stay typed until
/// [`write_json_report`] streams them: no intermediate `Value` tree.
enum JsonEntry {
    Property(api::PropertyReport),
    Exec(api::ExecDoc),
    /// The trailing `timings` + `metrics` object.
    Telemetry(serde_json::Value),
}

impl Serialize for JsonEntry {
    fn to_value(&self) -> serde_json::Value {
        serde::build_value(self)
    }

    fn stream<S: serde::Sink>(&self, out: &mut S) {
        match self {
            JsonEntry::Property(doc) => doc.stream(out),
            JsonEntry::Exec(doc) => doc.stream(out),
            JsonEntry::Telemetry(v) => v.stream(out),
        }
    }
}

/// Serialise the report array once, onto the end of `out`.
fn render_json_report(entries: &[JsonEntry], out: &mut String) {
    // A size hint, not a bound: an indented core or failure entry is
    // about 250 bytes on the WAN workloads.
    let rows: usize = entries
        .iter()
        .map(|e| match e {
            JsonEntry::Property(p) => p.cores.len() + p.failures.len() + 1,
            JsonEntry::Exec(_) | JsonEntry::Telemetry(_) => 16,
        })
        .sum();
    let mut text = std::mem::take(out);
    text.reserve(256 * rows);
    let mut ser = serde_json::Serializer::pretty(text);
    entries.stream(&mut ser);
    *out = ser.into_inner();
    out.push('\n');
}

/// `lightyear bench-report A.json B.json`: diff two bench gate files
/// (the read side of the otherwise write-only bench trajectory).
fn cmd_bench_report(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: lightyear bench-report <A.json> <B.json>");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| bench::compare::parse_gates(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (ga, gb) = match (load(a), load(b)) {
        (Ok(ga), Ok(gb)) => (ga, gb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = bench::compare::compare(&ga, &gb);
    print!("{}", report.render(a, b));
    if report.any_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn template() -> String {
    use lightyear::pred::RoutePred;
    let has_cust = RoutePred::prefix_in(vec![bgp_model::PrefixRange::orlonger(
        "203.0.113.0/24".parse().unwrap(),
    )]);
    let good = has_cust
        .clone()
        .and(RoutePred::has_community(bgp_model::Community::new(100, 1)).not());
    let spec = Spec {
        ghosts: vec![spec::GhostSpec {
            name: "FromISP1".into(),
            set_true_on_import: vec!["ISP1 -> R1".into()],
            set_false_on_import: vec!["ISP2 -> R2".into()],
            ..Default::default()
        }],
        safety: vec![spec::SafetySpec {
            name: "no-transit".into(),
            location: "R2 -> ISP2".into(),
            property: RoutePred::ghost("FromISP1").not(),
            invariant_default: RoutePred::ghost("FromISP1")
                .implies(RoutePred::has_community(bgp_model::Community::new(100, 1))),
            invariant_overrides: [("R2 -> ISP2".to_string(), RoutePred::ghost("FromISP1").not())]
                .into_iter()
                .collect(),
        }],
        liveness: vec![spec::LivenessSpecJson {
            name: "customer-liveness".into(),
            location: "R2 -> ISP2".into(),
            property: has_cust.clone(),
            path: vec!["ISP2 -> R2".into(), "R2".into(), "R2 -> ISP2".into()],
            constraints: vec![has_cust.clone(), good, has_cust.clone()],
            prefix_scope: has_cust.clone(),
            interference_default: has_cust
                .implies(RoutePred::has_community(bgp_model::Community::new(100, 1)).not()),
            interference_overrides: std::collections::BTreeMap::new(),
        }],
    };
    serde_json::to_string_pretty(&spec).unwrap()
}
