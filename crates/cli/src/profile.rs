//! The `profile` deep-dive subcommand and the profile-report assembly
//! shared with `verify --profile`.
//!
//! A profile report is ONE self-contained JSON file that is
//! simultaneously a Chrome `trace_event` file (Perfetto and
//! `chrome://tracing` load it directly — extra top-level keys are
//! ignored by both viewers) and a structured profile: the wall-clock
//! split across pipeline stages (input loading / check generation /
//! fingerprinting / term construction / bit-blast / clause feed / solve /
//! cache validation / report building / everything else), the hottest
//! check groups by solve time, the solver counter table, a per-property
//! breakdown, and the full metrics snapshot.

use crate::spec::Spec;
use crate::{flag_value, load_network, load_spec, positionals, usage};
use lightyear::engine::{RunMode, Verifier};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The busy-time stages, measured on the workers: `(stage, counter)`.
/// `terms` + `blast` + `feed` is what used to be one `encode` stage
/// (`smt.encode_ns` still totals blast and feed).
const BUSY_STAGES: [(&str, &str); 5] = [
    ("terms", "engine.terms_ns"),
    ("blast", "smt.blast_ns"),
    ("feed", "smt.sync_ns"),
    ("solve", "smt.solve_ns"),
    ("cache", "cache.validate_ns"),
];

/// The wall-clock laps a command takes itself, on its own thread,
/// around the engine: the two serial stages no counter covers.
pub(crate) struct StageClock {
    /// The whole run.
    pub(crate) wall: Duration,
    /// Reading, parsing and lowering the configurations, and resolving
    /// the spec against the topology: everything before the first check.
    pub(crate) load: Duration,
    /// Building report documents from summaries: the conjunct table and
    /// the per-check blame entries of `--json` (zero without it).
    pub(crate) report: Duration,
}

/// Wall-clock attribution of a run into pipeline stages, from the
/// command's own laps and the metrics counters. Loading, check
/// generation, fingerprinting and report building run on the calling
/// thread and are plain wall time. Term construction / blast /
/// feed / solve / cache-validate are measured busy time; with parallel
/// workers their sum can exceed what the serial stages leave of the wall
/// clock, in which case all of them are scaled down proportionally (the
/// raw busy values stay available under `metrics`) so the stages always
/// sum to the wall clock exactly.
pub(crate) fn stages_json(snap: &obs::MetricsSnapshot, clock: &StageClock) -> serde_json::Value {
    let wall_s = clock.wall.as_secs_f64();
    let secs = |counter: &str| snap.counter(counter) as f64 / 1e9;
    let load = clock.load.as_secs_f64();
    let report = clock.report.as_secs_f64();
    let generate = secs("engine.generate_ns");
    let fingerprint = secs("engine.fingerprint_ns");
    let serial = load + generate + fingerprint + report;
    let busy: f64 = BUSY_STAGES.iter().map(|(_, c)| secs(c)).sum();
    let room = (wall_s - serial).max(0.0);
    let scale = if busy > room && busy > 0.0 {
        room / busy
    } else {
        1.0
    };
    let other = (room - busy * scale).max(0.0);
    let mut stages = vec![
        ("wall_seconds".to_string(), serde_json::json!(wall_s)),
        ("load_seconds".to_string(), serde_json::json!(load)),
        ("generate_seconds".to_string(), serde_json::json!(generate)),
        (
            "fingerprint_seconds".to_string(),
            serde_json::json!(fingerprint),
        ),
    ];
    for (stage, counter) in BUSY_STAGES {
        stages.push((
            format!("{stage}_seconds"),
            serde_json::json!(secs(counter) * scale),
        ));
    }
    stages.push(("report_seconds".to_string(), serde_json::json!(report)));
    stages.push(("other_seconds".to_string(), serde_json::json!(other)));
    stages.push((
        "stage_sum_seconds".to_string(),
        serde_json::json!(serial + busy * scale + other),
    ));
    stages.push(("parallel_scale".to_string(), serde_json::json!(scale)));
    serde_json::Value::Object(stages)
}

/// The hottest check groups by cumulative solve-span time, hottest
/// first: `(group label, spans, total seconds)`.
pub(crate) fn hot_groups(reg: &obs::Registry, top: usize) -> Vec<(String, u64, f64)> {
    let mut groups: Vec<(String, u64, u64)> = reg
        .span_totals()
        .into_iter()
        .filter(|((name, _), _)| name == "solve_group")
        .map(|((_, group), (count, ns))| (group, count, ns))
        .collect();
    groups.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    groups.truncate(top);
    groups
        .into_iter()
        .map(|(g, n, ns)| (g, n, ns as f64 / 1e9))
        .collect()
}

/// Propagation throughput over solver busy time (search only, not
/// encoding): the headline "raw speed" number of the solver section.
fn props_per_sec(snap: &obs::MetricsSnapshot) -> f64 {
    let solve_s = snap.counter("smt.solve_ns") as f64 / 1e9;
    if solve_s > 0.0 {
        snap.counter("smt.propagations") as f64 / solve_s
    } else {
        0.0
    }
}

fn solver_json(snap: &obs::MetricsSnapshot) -> serde_json::Value {
    serde_json::json!({
        "solves": snap.counter("smt.solves"),
        "decisions": snap.counter("smt.decisions"),
        "propagations": snap.counter("smt.propagations"),
        "propagations_per_sec": props_per_sec(snap),
        "conflicts": snap.counter("smt.conflicts"),
        "restarts": snap.counter("smt.restarts"),
        "learnt_db_peak": snap.gauge("smt.learnt_db"),
    })
}

/// Assemble the self-contained profile report (see module docs).
pub(crate) fn profile_json(
    reg: &obs::Registry,
    clock: &StageClock,
    properties: Vec<serde_json::Value>,
    top: usize,
) -> serde_json::Value {
    let snap = reg.snapshot();
    let hot: Vec<serde_json::Value> = hot_groups(reg, top)
        .into_iter()
        .map(|(group, spans, seconds)| {
            serde_json::json!({
                "group": group,
                "spans": spans,
                "seconds": seconds,
            })
        })
        .collect();
    let mut v = reg.chrome_trace();
    if let serde_json::Value::Object(map) = &mut v {
        map.push(("stages".to_string(), stages_json(&snap, clock)));
        map.push(("hot_groups".to_string(), serde_json::Value::Array(hot)));
        map.push(("solver".to_string(), solver_json(&snap)));
        map.push((
            "properties".to_string(),
            serde_json::Value::Array(properties),
        ));
        map.push(("metrics".to_string(), snap.to_json()));
    }
    v
}

/// Write the profile to `path` (pretty-printed). The same file feeds
/// both `jq` and Perfetto.
pub(crate) fn write_profile(path: &str, profile: &serde_json::Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(profile).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// The human profile report printed by `lightyear profile`.
fn render_report(reg: &obs::Registry, clock: &StageClock, top: usize, out_path: &str) {
    let snap = reg.snapshot();
    let wall_s = clock.wall.as_secs_f64();
    let stages = stages_json(&snap, clock);
    let sec = |key: &str| {
        stages
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
    };
    let line: Vec<String> = ["load", "generate", "fingerprint"]
        .into_iter()
        .chain(BUSY_STAGES.iter().map(|(stage, _)| *stage))
        .chain(["report", "other"])
        .map(|stage| {
            let t = sec(&format!("{stage}_seconds"));
            format!("{stage} {t:.4}s ({:.1}%)", pct(t, wall_s))
        })
        .collect();
    println!("wall {wall_s:.4}s: {}", line.join(", "));
    let hot = hot_groups(reg, top);
    if !hot.is_empty() {
        println!("hottest check groups (top {}):", hot.len());
        for (i, (group, spans, seconds)) in hot.iter().enumerate() {
            println!(
                "  {:>2}. {seconds:.6}s  {group}  ({spans} solve span{})",
                i + 1,
                if *spans == 1 { "" } else { "s" },
            );
        }
    }
    println!(
        "solver: {} solves, {} decisions, {} propagations ({:.2}M props/s), \
         {} conflicts, {} restarts; learnt DB peak {}",
        snap.counter("smt.solves"),
        snap.counter("smt.decisions"),
        snap.counter("smt.propagations"),
        props_per_sec(&snap) / 1e6,
        snap.counter("smt.conflicts"),
        snap.counter("smt.restarts"),
        snap.gauge("smt.learnt_db"),
    );
    println!(
        "engine: {} checks posed, {} folded away; term pool peak {}",
        snap.counter("engine.checks_posed"),
        snap.counter("engine.checks_folded"),
        snap.gauge("engine.term_pool_terms"),
    );
    println!(
        "cache: {} hits, {} misses, {} re-validations",
        snap.counter("cache.hits"),
        snap.counter("cache.misses"),
        snap.counter("cache.validates"),
    );
    println!(
        "trace: {} spans -> {out_path} (load it in Perfetto or chrome://tracing)",
        reg.spans().len(),
    );
}

/// `lightyear profile <SPEC> <CONFIG_DIR>`: run the whole spec once
/// with the metrics sink installed and emit the deep-dive report.
pub(crate) fn cmd_profile(args: &[String]) -> ExitCode {
    // Strict flags plus exactly two positionals: a typo'd option must
    // not be silently read as a spec or directory path.
    let pos = match positionals("profile", args, &["--jobs", "--out", "--top"], &[]) {
        Ok(pos) => pos,
        Err(code) => return code,
    };
    if pos.len() != 2 {
        eprintln!("error: profile needs <SPEC> <CONFIG_DIR>");
        return usage();
    }
    let (spec_path, dir) = (&pos[0], &pos[1]);
    let jobs = match flag_value(args, "--jobs").map(|v| v.parse::<usize>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => {
            eprintln!("error: --jobs needs a positive integer");
            return usage();
        }
    };
    let top = match flag_value(args, "--top").map(|v| v.parse::<usize>()) {
        None => 10,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("error: --top needs a positive integer");
            return usage();
        }
    };
    let out_path = flag_value(args, "--out").unwrap_or_else(|| "profile.json".to_string());

    let reg = obs::install();
    let t0 = Instant::now();
    let net = match load_network(Path::new(dir)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec: Spec = match load_spec(spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let topo = &net.topology;
    let mut verifier = Verifier::new(topo, &net.policy).with_mode(RunMode::Parallel);
    if let Some(n) = jobs {
        verifier = verifier.with_jobs(n);
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
    let load = t0.elapsed();
    let multi = verifier.verify_safety_batch(&suites);
    let mut any_failed = false;
    let mut props = Vec::new();
    for (s, report) in spec.safety.iter().zip(&multi.reports) {
        let passed = report.all_passed();
        any_failed |= !passed;
        println!(
            "{}: {} ({} checks)",
            s.name,
            if passed { "verified" } else { "VIOLATED" },
            report.num_checks(),
        );
        props.push(serde_json::json!({
            "property": s.name,
            "kind": "safety",
            "passed": passed,
            "checks": report.num_checks() as u64,
            "solver_calls": report.solver_invocations() as u64,
            "total_seconds": report.total_time.as_secs_f64(),
            "solve_seconds": report.solve_time().as_secs_f64(),
        }));
    }
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
        println!(
            "{} (liveness): {} ({} checks)",
            l.name,
            if passed { "verified" } else { "VIOLATED" },
            report.num_checks(),
        );
        props.push(serde_json::json!({
            "property": l.name,
            "kind": "liveness",
            "passed": passed,
            "checks": report.num_checks() as u64,
            "solver_calls": report.solver_invocations() as u64,
            "total_seconds": report.total_time.as_secs_f64(),
            "solve_seconds": report.solve_time().as_secs_f64(),
        }));
    }
    // `profile` prints verdict lines only: no report documents to build.
    let clock = StageClock {
        wall: t0.elapsed(),
        load,
        report: Duration::ZERO,
    };
    let profile = profile_json(&reg, &clock, props, top);
    render_report(&reg, &clock, top, &out_path);
    if let Err(e) = write_profile(&out_path, &profile) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    obs::uninstall();
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
