//! The `profile` deep-dive subcommand and the profile-report assembly
//! shared with `verify --profile`. `profile` is `verify --parallel
//! --profile` with a printed report: it runs the same [`run`] and renders
//! the result with [`render_report`], [`profile_json`] and
//! [`write_profile`].
//!
//! A profile report is ONE self-contained JSON file that is
//! simultaneously a Chrome `trace_event` file (Perfetto and
//! `chrome://tracing` load it directly — extra top-level keys are
//! ignored by both viewers) and a structured profile: the wall-clock
//! split across pipeline stages (input loading / check generation /
//! fingerprinting / term construction / bit-blast / clause feed / solve /
//! report building / everything else), the hottest
//! check groups by solve time, the solver counter table, a per-property
//! breakdown, and the full metrics snapshot.

use crate::{exit, fail, flag_value, positionals, positive, run, usage_error, verdict_line};
use crate::{PropertyRun, RunOpts};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The busy-time stages, measured on the workers: `(stage, counter)`.
/// `terms` + `blast` + `feed` is what used to be one `encode` stage
/// (`smt.encode_ns` still totals blast and feed).
const BUSY_STAGES: [(&str, &str); 4] = [
    ("terms", "engine.terms_ns"),
    ("blast", "smt.blast_ns"),
    ("feed", "smt.sync_ns"),
    ("solve", "smt.solve_ns"),
];

/// The wall-clock laps a command takes itself, on its own thread,
/// around the engine: the two serial stages no counter covers.
pub(crate) struct StageClock {
    start: Instant,
    /// The whole run, from `start` to the last [`StageClock::stop`].
    pub(crate) wall: Duration,
    /// Reading, parsing and lowering the configurations, and resolving
    /// the spec against the topology: everything before the first check.
    pub(crate) load: Duration,
    /// The `--json` blame view: the conjunct tables and the streamed
    /// property entries (zero without it).
    pub(crate) report: Duration,
}

impl StageClock {
    /// A clock for a run that began at `start`.
    pub(crate) fn start(start: Instant) -> StageClock {
        StageClock {
            start,
            wall: Duration::ZERO,
            load: Duration::ZERO,
            report: Duration::ZERO,
        }
    }

    /// End the wall lap now; a later stop extends it.
    pub(crate) fn stop(&mut self) {
        self.wall = self.start.elapsed();
    }
}

/// Wall-clock attribution of a run into pipeline stages, from the
/// command's own laps and the metrics counters. Loading, check
/// generation, fingerprinting and report building run on the calling
/// thread and are plain wall time. Term construction / blast /
/// feed / solve are measured busy time; with parallel
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

/// One hot check group of the profile report: its label (the first
/// check's kind and location), the distinct edges it answered for (a
/// session serves every edge with its relation), its solve spans and
/// their total time.
pub(crate) struct HotGroup {
    group: String,
    edges: u64,
    spans: u64,
    ns: u64,
}

impl HotGroup {
    /// The label with the edges beyond the named one, e.g.
    /// `import A -> B (+26 edges)`.
    fn label(&self) -> String {
        match self.edges {
            0 | 1 => self.group.clone(),
            2 => format!("{} (+1 edge)", self.group),
            n => format!("{} (+{} edges)", self.group, n - 1),
        }
    }
}

/// The hottest check groups by cumulative solve-span time, hottest
/// first.
pub(crate) fn hot_groups(reg: &obs::Registry, top: usize) -> Vec<HotGroup> {
    let mut totals: BTreeMap<String, HotGroup> = BTreeMap::new();
    for span in reg.spans().iter().filter(|s| s.name == "solve_group") {
        let arg = |key: &str| span.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        let group = arg("group").cloned().unwrap_or_default();
        let edges = arg("edges").and_then(|v| v.parse().ok()).unwrap_or(0);
        let h = totals.entry(group.clone()).or_insert(HotGroup {
            group,
            edges: 0,
            spans: 0,
            ns: 0,
        });
        h.spans += 1;
        h.ns += span.dur_ns;
        h.edges = h.edges.max(edges);
    }
    let mut groups: Vec<HotGroup> = totals.into_values().collect();
    groups.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.group.cmp(&b.group)));
    groups.truncate(top);
    groups
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

/// One property's row of the report's `properties` table.
fn property_json(p: &PropertyRun) -> serde_json::Value {
    serde_json::json!({
        "property": p.name,
        "kind": if p.liveness { "liveness" } else { "safety" },
        "passed": p.summary.all_passed(),
        "checks": p.summary.num_checks() as u64,
        "solver_calls": p.summary.solver_invocations() as u64,
        "total_seconds": p.summary.total_time.as_secs_f64(),
        "solve_seconds": p.summary.solve_time().as_secs_f64(),
    })
}

/// Assemble the self-contained profile report (see module docs).
pub(crate) fn profile_json(
    reg: &obs::Registry,
    clock: &StageClock,
    props: &[PropertyRun],
    top: usize,
) -> serde_json::Value {
    let snap = reg.snapshot();
    let hot: Vec<serde_json::Value> = hot_groups(reg, top)
        .into_iter()
        .map(|h| {
            serde_json::json!({
                "group": h.group,
                "edges": h.edges,
                "spans": h.spans,
                "seconds": h.ns as f64 / 1e9,
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
            serde_json::Value::Array(props.iter().map(property_json).collect()),
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
        for (i, h) in hot.iter().enumerate() {
            println!(
                "  {:>2}. {:.6}s  {}  ({} solve span{})",
                i + 1,
                h.ns as f64 / 1e9,
                h.label(),
                h.spans,
                if h.spans == 1 { "" } else { "s" },
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
        "cache: {} hits, {} misses",
        snap.counter("cache.hits"),
        snap.counter("cache.misses"),
    );
    println!(
        "trace: {} spans -> {out_path} (load it in Perfetto or chrome://tracing)",
        reg.spans().len(),
    );
}

/// `lightyear profile <SPEC> <CONFIG_DIR>`: [`run`] the whole spec once
/// on the worker pool with the metrics sink installed, print its verdict
/// lines, and emit the deep-dive report.
pub(crate) fn cmd_profile(args: &[String]) -> ExitCode {
    // Strict flags plus exactly two positionals: a typo'd option must
    // not be silently read as a spec or directory path.
    let pos = match positionals("profile", args, &["--jobs", "--out", "--top"], &[], 2) {
        Ok(pos) if pos.len() == 2 => pos,
        Ok(_) => return usage_error("profile needs <SPEC> <CONFIG_DIR>"),
        Err(e) => return usage_error(&e),
    };
    let (jobs, top) = match (positive(args, "--jobs"), positive(args, "--top")) {
        (Ok(jobs), Ok(top)) => (jobs, top.unwrap_or(10)),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let out_path = flag_value(args, "--out").unwrap_or_else(|| "profile.json".to_string());
    let opts = RunOpts {
        jobs,
        pool: true,
        cache: None,
        docs: false,
    };
    let reg = obs::install();
    let run = run(&pos[1], &pos[0], &opts);
    obs::uninstall();
    let run = match run {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    let verdicts: String = run.props.iter().map(verdict_line).collect();
    print!("{verdicts}");
    let profile = profile_json(&reg, &run.clock, &run.props, top);
    render_report(&reg, &run.clock, top, &out_path);
    if let Err(e) = write_profile(&out_path, &profile) {
        return fail(&e);
    }
    exit(run.passed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_merged_group_names_the_edges_beyond_its_first() {
        let hot = |edges| HotGroup {
            group: "import A -> B".to_string(),
            edges,
            spans: 1,
            ns: 0,
        };
        assert_eq!(hot(0).label(), "import A -> B");
        assert_eq!(hot(1).label(), "import A -> B");
        assert_eq!(hot(2).label(), "import A -> B (+1 edge)");
        assert_eq!(hot(27).label(), "import A -> B (+26 edges)");
    }
}
