//! `lightyear` — verify BGP configurations against a JSON property spec.
//!
//! Run with no arguments for the synopsis of every command ([`usage`]).
//! Every command scans its flags with one strict parser
//! ([`positionals`]): an unknown option or a missing value exits 2 with
//! the usage text before any file is read. Every command binds its spec
//! through one `Spec::bind`, so a spec decides the same properties
//! whichever command asks.
//!
//! ```text
//! COMMANDS:
//!   verify          parse every *.cfg/*.conf/*.txt in DIR, lower, and run all
//!                   safety properties in the spec as ONE cross-property
//!                   batch: checks from different properties that share
//!                   an encoding base (the same edge's transfer relation,
//!                   the implication shape) are solved on one persistent
//!                   SMT session, so each edge is encoded once for the
//!                   whole spec. Per-property output is byte-identical to
//!                   verifying the properties one at a time. Liveness
//!                   properties follow, one run each. With --json,
//!                   each property carries a "cores" array: per passing
//!                   check, which invariant conjuncts its UNSAT proof
//!                   actually needed (core-based blame). Exit code 1 when
//!                   any check fails. --json also appends a trailing
//!                   entry with a "timings" stage split (load / generate /
//!                   fingerprint / terms / blast / feed / solve / report /
//!                   other, summing to the wall clock) and the
//!                   full "metrics" counter snapshot; --profile FILE
//!                   additionally writes a self-contained profile report
//!                   (see `profile`)
//!   profile         `verify --parallel --profile` with a printed report:
//!                   the same run of <SPEC> over <CONFIG_DIR>, then the
//!                   verdict lines, the stage split, the hottest check
//!                   groups and the solver counter table, and a
//!                   self-contained profile JSON (--out, default
//!                   profile.json). The file is a
//!                   valid Chrome trace_event file — load it directly in
//!                   Perfetto (ui.perfetto.dev) or chrome://tracing; the
//!                   profile tables ride along as extra top-level keys,
//!                   which trace viewers ignore
//!   watch           long-lived re-verify daemon: verify DIR once, then
//!                   re-check on every config change, re-solving only the
//!                   safety checks the semantic diff dirtied (carried
//!                   verdicts; liveness re-runs in full). Each round
//!                   prints a stats line, counting safety checks:
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
//!                   recorder is always on: recent spans, the last
//!                   error and the metrics snapshot are dumped to
//!                   --flight-json (default flight.json) on panic or
//!                   any failed round
//!   plan            Snowcap/Chameleon-style migration-plan verification:
//!                   verify DIR0 fully, then every subsequent directory as
//!                   a delta round, proving each intermediate
//!                   configuration safe; exit code 1 if any step fails
//!   serve           multi-tenant verification daemon: POST /api/v1 takes
//!                   the versioned api envelope (submit configs, delta
//!                   rounds, verify, query cores, health) per tenant; each
//!                   call runs on its connection under its tenant's lock,
//!                   and --max-conns (default 64) bounds concurrent calls;
//!                   the telemetry endpoints share the listener. --cache-root
//!                   spills each tenant's verdicts so a restart is warm.
//!                   --metrics-json FILE is rewritten after every
//!                   tenant round, as /metrics renders it
//!   fuzz           seeded differential campaign over six topology families
//!                   (figure1, fullmesh, wan, rr, stub, hubspoke): each
//!                   case is cross-checked by the simulation oracle (all
//!                   2^3 SimOptions), the mode-parity oracle (reference /
//!                   one worker / two workers / cross-property batch
//!                   byte-identity) and the edit-sequence oracle
//!                   (reverify == fresh after every random edit), plus a
//!                   curated injected-bug sweep. A discrepancy is greedily
//!                   minimized and written as a replayable repro directory
//!                   (--repro-dir; re-run it with --replay). --bench-json
//!                   records campaign throughput (the CI BENCH_fuzz.json).
//!                   The campaign is one round to the telemetry flags
//!                   watch takes: --listen, --metrics-json,
//!                   --flight-json, --stale-after-ms
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
//!   --cache         reuse passing check results across runs; spilled to
//!                   --cache-dir as JSON. Only passes are spilled: a
//!                   failing check is re-solved by every run, and its
//!                   counterexample re-derived. The worker count is set
//!                   by --jobs / --parallel alone
//!   --cache-dir DIR cache spill directory (default .lightyear-cache;
//!                   implies --cache)
//!   --cache-cap N   bound the in-memory cache to N entries with LRU
//!                   eviction (implies --cache; default unbounded)
//!   --profile FILE  install the metrics sink for the run and write a
//!                   self-contained profile report (stage split, hottest
//!                   check groups, solver counters, Chrome trace) to FILE
//!
//! With --parallel, --jobs or any --cache flag, a dedup-stats summary
//! line is printed after the properties, e.g.:
//!   orchestrator: 220 checks -> 34 solver calls (180 deduped, 6 cached, ratio 0.15, 8 threads); incremental: 12 groups, 22 warm assumption solves
//! ```

mod fuzz;
mod profile;
mod render;
mod serve;
mod session;
mod spec;
mod telemetry;
mod watch;

use bgp_config::{lower, parse_config, Network};
use bgp_model::topology::Topology;
use lightyear::check::ReportSummary;
use lightyear::engine::{ConjunctTable, RunMode};
use orchestrator::RunStats;
use profile::StageClock;
use serde::{Serialize, Sink};
use spec::{Bound, Spec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lightyear verify --configs <DIR> --spec <FILE> [--parallel] [--json]\n    \
         [--jobs N] [--cache] [--cache-dir <DIR>] [--cache-cap N] [--profile <FILE>]\n  \
         lightyear profile <SPEC> <CONFIG_DIR> [--jobs N] [--out <FILE>] [--top N]\n  \
         lightyear watch --configs <DIR> --spec <FILE> [--baseline <DIR>] [--once]\n    \
         [--interval-ms N] [--max-rounds N] [--cache-dir <DIR>] [--metrics-json <FILE>]\n    \
         [--listen <ADDR>] [--stale-after-ms N] [--flight-json <FILE>]\n  \
         lightyear plan --spec <FILE> <DIR0> <DIR1> [...]\n  \
         lightyear serve --listen <ADDR> [--cache-root <DIR>] [--max-conns N]\n    \
         [--metrics-json <FILE>] [--stale-after-ms N] [--flight-json <FILE>]\n  \
         lightyear fuzz [--seed N] [--cases N] [--families a,b,...] [--edit-steps K]\n    \
         [--sim-rounds R] [--no-inject] [--repro-dir <DIR>] [--bench-json <FILE>]\n    \
         [--replay <DIR>] [--listen <ADDR>] [--metrics-json <FILE>] [--stale-after-ms N]\n    \
         [--flight-json <FILE>]\n  \
         lightyear parse --configs <DIR>\n  lightyear lint --configs <DIR>\n  \
         lightyear spec-template"
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
        "parse" => cmd_parse(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "spec-template" => {
            println!("{}", template());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command {other}");
            usage()
        }
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
    if let Err(e) = positionals("lint", args, &["--configs"], &[], 0) {
        return usage_error(&e);
    }
    let Some(dir) = flag_value(args, "--configs") else {
        return usage();
    };
    let configs = match load_configs(Path::new(&dir)) {
        Ok(c) => c,
        Err(e) => return fail(&e),
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
    exit(errors == 0)
}

/// The exit code of a verdict: 0 verified, 1 not.
pub(crate) fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print `error: {msg}`; the exit code of a run that could not finish.
pub(crate) fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Print `error: {msg}` above the usage text; the usage exit code.
pub(crate) fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    usage()
}

/// The one flag parser: a strict scan of a subcommand's arguments. Every
/// `--flag` must be one of `value_flags` (followed by its value) or one
/// of `switches`, and at most `max_pos` other words may appear, so a
/// typo'd option or a missing value fails loudly instead of running with
/// the setting silently ignored. Returns the positional arguments, or
/// the error to print above the usage text; values are then read with
/// [`flag_value`] and [`positive`].
pub(crate) fn positionals(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
    max_pos: usize,
) -> Result<Vec<String>, String> {
    let mut pos = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            if i + 1 >= args.len() {
                return Err(format!("{a} needs a value"));
            }
            i += 2;
            continue;
        }
        if !switches.contains(&a) {
            if a.starts_with("--") || pos.len() == max_pos {
                return Err(format!("unknown {cmd} option {a}"));
            }
            pos.push(a.to_string());
        }
        i += 1;
    }
    Ok(pos)
}

/// The value of `flag` as a positive integer; `None` when it is absent.
pub(crate) fn positive(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match flag_value(args, flag).map(|v| v.parse::<usize>()) {
        None => Ok(None),
        Some(Ok(n)) if n > 0 => Ok(Some(n)),
        Some(_) => Err(format!("{flag} needs a positive integer")),
    }
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
    Spec::parse(&text)
}

fn cmd_parse(args: &[String]) -> ExitCode {
    if let Err(e) = positionals("parse", args, &["--configs"], &[], 0) {
        return usage_error(&e);
    }
    let Some(dir) = flag_value(args, "--configs") else {
        return usage();
    };
    match load_network(Path::new(&dir)) {
        Err(e) => fail(&e),
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
    let value_flags = [
        "--configs",
        "--spec",
        "--jobs",
        "--cache-dir",
        "--cache-cap",
        "--profile",
    ];
    let switches = ["--parallel", "--json", "--cache"];
    if let Err(e) = positionals("verify", args, &value_flags, &switches, 0) {
        return usage_error(&e);
    }
    let (Some(dir), Some(spec_path)) = (flag_value(args, "--configs"), flag_value(args, "--spec"))
    else {
        return usage();
    };
    let (jobs, cache_cap) = match (positive(args, "--jobs"), positive(args, "--cache-cap")) {
        (Ok(jobs), Ok(cap)) => (jobs, cap),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let as_json = args.iter().any(|a| a == "--json");
    let cache_dir = flag_value(args, "--cache-dir");
    let use_cache =
        args.iter().any(|a| a == "--cache") || cache_dir.is_some() || cache_cap.is_some();
    let cache_dir = PathBuf::from(cache_dir.unwrap_or_else(|| ".lightyear-cache".to_string()));
    let parallel = args.iter().any(|a| a == "--parallel");
    let profile_path = flag_value(args, "--profile");
    let opts = RunOpts {
        jobs,
        pool: parallel,
        cache: use_cache.then(|| (cache_dir.clone(), cache_cap)),
        docs: as_json,
    };
    // --json and --profile both want the run's timings/counters, so
    // either installs the metrics sink; without them the sink stays
    // absent and every instrumentation point is a single relaxed load.
    let reg = (as_json || profile_path.is_some()).then(obs::install);
    let run = run(&dir, &spec_path, &opts);
    if reg.is_some() {
        obs::uninstall();
    }
    let mut run = match run {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    // The flags that ask about orchestration get its statistics back.
    let show_exec = parallel || jobs.is_some() || use_cache;
    if as_json {
        render_json(&mut run, show_exec, reg.as_deref(), out);
    } else {
        render_text(&run, show_exec, &cache_dir, out);
    }
    if let (Some(reg), Some(path)) = (&reg, &profile_path) {
        let report = profile::profile_json(reg, &run.clock, &run.props, 10);
        match profile::write_profile(path, &report) {
            // stderr so `lightyear verify --json --profile p.json`
            // still writes pure JSON to stdout.
            Ok(()) => eprintln!("profile: wrote {path}"),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    exit(run.passed())
}

/// How a [`run`] executes, beyond the spec and the configurations.
pub(crate) struct RunOpts {
    /// Worker threads; `None` is one, or one per core with `pool`.
    pub(crate) jobs: Option<usize>,
    /// Run on the worker pool.
    pub(crate) pool: bool,
    /// The result cache's spill directory and its optional entry bound.
    pub(crate) cache: Option<(PathBuf, Option<usize>)>,
    /// Keep what the `--json` blame view renders: each passing check's
    /// head and core, and each property's conjunct table.
    pub(crate) docs: bool,
}

/// One property's verdict.
pub(crate) struct PropertyRun {
    pub(crate) name: String,
    pub(crate) liveness: bool,
    pub(crate) summary: ReportSummary,
    /// The table the summary's cores index into, under
    /// [`RunOpts::docs`] (empty otherwise).
    pub(crate) conjuncts: ConjunctTable,
}

impl PropertyRun {
    /// The property's `--json` entry, borrowed from the run. Safety
    /// entries carry the run's timing.
    fn view<'a>(&'a self, topo: &'a Topology) -> render::PropertyView<'a> {
        render::PropertyView {
            name: &self.name,
            liveness: self.liveness,
            summary: &self.summary,
            topo,
            conjuncts: &self.conjuncts,
            timing: (!self.liveness).then(|| render::run_timing(&self.summary)),
        }
    }
}

/// What one [`run`] produced: the renderers' single source.
pub(crate) struct Run {
    pub(crate) net: Network,
    /// Safety properties in spec order, then liveness properties.
    pub(crate) props: Vec<PropertyRun>,
    /// Orchestration statistics of the safety batch and every liveness run.
    pub(crate) exec: RunStats,
    pub(crate) cache_loaded: usize,
    /// Entries spilled at the end of a cached run, when the save worked.
    pub(crate) cache_saved: Option<usize>,
    pub(crate) clock: StageClock,
}

impl Run {
    pub(crate) fn passed(&self) -> bool {
        self.props.iter().all(|p| p.summary.all_passed())
    }
}

/// The one run behind `verify` and `profile`: load the configurations,
/// bind the spec, verify every safety property as ONE cross-property
/// batch, then each liveness property. In the batch, checks from
/// different properties that share an encoding base (above all, each
/// edge's transfer relation) are solved on a single persistent SMT
/// session instead of re-encoding the edge once per property;
/// per-property reports are byte-identical to standalone runs. Each
/// liveness property is one run of the same check pipeline, so its
/// passing checks carry conjunct-level unsat cores too and its
/// statistics count in `exec`. A metrics sink installed by the caller
/// sees the whole run.
pub(crate) fn run(dir: &str, spec_path: &str, opts: &RunOpts) -> Result<Run, String> {
    let t_start = Instant::now();
    let net = load_network(Path::new(dir))?;
    let spec = load_spec(spec_path)?;
    let Bound {
        mut verifier,
        safety,
        liveness,
    } = spec.bind(&net).map_err(|e| e.to_string())?;
    let (cache, cache_loaded) = match &opts.cache {
        None => (None, 0),
        Some((cache_dir, cap)) => match lightyear::load_pass_cache_bounded(cache_dir, *cap) {
            Ok((cache, loaded)) => (Some(cache), loaded),
            Err(e) => {
                // An unreadable spill must not brick verification: warn,
                // start cold, and let the save at the end of the run
                // replace the bad file.
                eprintln!(
                    "warning: ignoring unreadable cache at {}: {e}",
                    cache_dir.display()
                );
                (Some(Arc::new(lightyear::CheckCache::new())), 0)
            }
        },
    };
    if opts.pool {
        verifier = verifier.with_mode(RunMode::Parallel);
    }
    if let Some(n) = opts.jobs {
        verifier = verifier.with_jobs(n);
    }
    if let Some(c) = &cache {
        verifier = verifier.with_cache(c.clone());
    }
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> = safety
        .iter()
        .map(|(p, i)| (std::slice::from_ref(p), i))
        .collect();
    // The `load` stage ends here: files read, parsed and lowered, the
    // spec bound to the topology. `report` collects the time spent on
    // the blame view: the conjunct tables here, the streamed entries in
    // `render_json`.
    let mut clock = StageClock::start(t_start);
    clock.load = t_start.elapsed();
    // Streaming assembly: outcomes fold into per-suite summaries as
    // their groups complete, so report memory is O(solve frontier +
    // failures), not O(checks). Cores are only retained when the
    // `--json` blame view will render them.
    let multi = verifier.verify_safety_batch_streaming(&suites, opts.docs);
    let mut exec = multi.exec;
    let mut props = Vec::with_capacity(safety.len() + liveness.len());
    for (s, summary) in spec.safety.iter().zip(multi.summaries) {
        props.push(PropertyRun {
            name: s.name.clone(),
            liveness: false,
            summary,
            conjuncts: ConjunctTable::default(),
        });
    }
    for (l, live) in spec.liveness.iter().zip(&liveness) {
        let result = verifier
            .verify_liveness(live)
            .map_err(|e| format!("liveness {}: {e}", l.name))?;
        exec.merge(&result.exec);
        props.push(PropertyRun {
            name: l.name.clone(),
            liveness: true,
            summary: result.summarize(),
            conjuncts: ConjunctTable::default(),
        });
    }
    if opts.docs {
        let t_report = Instant::now();
        let (safe, live) = props.split_at_mut(safety.len());
        for (p, bound) in safe.iter_mut().zip(&safety) {
            p.conjuncts = render::safety_conjuncts(&verifier, bound);
        }
        for (p, l) in live.iter_mut().zip(&liveness) {
            p.conjuncts = render::liveness_conjuncts(&verifier, l);
        }
        clock.report += t_report.elapsed();
    }
    let mut cache_saved = None;
    if let (Some(c), Some((cache_dir, _))) = (&cache, &opts.cache) {
        match lightyear::save_check_cache(c, cache_dir) {
            Ok(written) => cache_saved = Some(written),
            Err(e) => eprintln!("warning: cannot save cache to {}: {e}", cache_dir.display()),
        }
    }
    // The verifier borrows `net`, which the run hands to its renderers.
    drop(verifier);
    clock.stop();
    Ok(Run {
        net,
        props,
        exec,
        cache_loaded,
        cache_saved,
        clock,
    })
}

/// A property's verdict line: `NAME: verified (N checks)`.
pub(crate) fn verdict_line(p: &PropertyRun) -> String {
    format!(
        "{}: {} ({} checks)\n",
        render::label(&p.name, p.liveness),
        if p.summary.all_passed() {
            "verified"
        } else {
            "VIOLATED"
        },
        p.summary.num_checks(),
    )
}

/// `verify`'s text report: verdict lines with their localized failures,
/// the batch line after the safety properties, and the orchestration
/// and cache lines.
fn render_text(run: &Run, show_exec: bool, cache_dir: &Path, out: &mut String) {
    use std::fmt::Write as _;
    if run.cache_loaded > 0 {
        let _ = writeln!(
            out,
            "cache: loaded {} entries from {}",
            run.cache_loaded,
            cache_dir.display()
        );
    }
    // Safety properties come first; the batch line closes them.
    let n = run.props.partition_point(|p| !p.liveness);
    for (i, p) in run.props.iter().enumerate() {
        out.push_str(&verdict_line(p));
        if !p.summary.all_passed() {
            out.push_str(&p.summary.format_failures(&run.net.topology));
        }
        if i + 1 == n {
            let _ = writeln!(
                out,
                "batch: {n} properties, {} checks in {:?}",
                run.props[..n]
                    .iter()
                    .map(|p| p.summary.num_checks())
                    .sum::<usize>(),
                p.summary.total_time
            );
        }
    }
    if show_exec {
        let _ = writeln!(out, "{}", run.exec.summary());
    }
    if let Some(written) = run.cache_saved {
        let _ = writeln!(
            out,
            "cache: saved {written} entries to {}",
            cache_dir.display()
        );
    }
}

/// `verify --json`: the property entries, streamed from the summaries,
/// the exec entry when asked, and the trailing `timings` + `metrics`
/// entry. The clock stops once the property entries are written, so the
/// `report` stage holds the whole blame view and the stages still sum
/// to the wall clock.
fn render_json(run: &mut Run, show_exec: bool, reg: Option<&obs::Registry>, out: &mut String) {
    let t_report = Instant::now();
    // A size hint, not a bound: an indented core or failure entry is
    // about 250 bytes on the WAN workloads.
    let rows: usize = (run.props.iter())
        .map(|p| p.summary.cores().len() + p.summary.failures().len() + 1)
        .sum();
    let mut text = std::mem::take(out);
    text.reserve(256 * (rows + 32));
    let mut ser = serde_json::Serializer::pretty(text);
    ser.begin_array();
    for p in &run.props {
        p.view(&run.net.topology).stream(&mut ser);
    }
    run.clock.report += t_report.elapsed();
    run.clock.stop();
    if show_exec {
        render::exec_doc(&run.exec).stream(&mut ser);
    }
    if let Some(reg) = reg {
        let snap = reg.snapshot();
        serde_json::json!({
            "timings": profile::stages_json(&snap, &run.clock),
            "metrics": snap.to_json(),
        })
        .stream(&mut ser);
    }
    ser.end_array();
    *out = ser.into_inner();
    out.push('\n');
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
