//! The `watch` daemon and `plan` migration-step modes: long-lived
//! delta-scoped re-verification built on `delta::diff_configs` (what
//! changed), `lightyear::impact` (what it can dirty) and
//! `lightyear::ReverifyEngine` (carried verdicts, cores and fingerprints;
//! dirty groups re-solved on a recycled session). A `--cache-dir` spill
//! keyed under an older fingerprint format is a miss, never a wrong hit:
//! the first baseline after the upgrade reports `dirty N/N` once, then
//! restarts are warm again.
//!
//! A closed stdout ends the polling loop the way ctrl-c does — every
//! round is spilled before it is printed, so it exits 0 — while the
//! baseline and `--once` exit with their verdict, like `verify`.

use crate::session::{round_line, Session};
use crate::telemetry::TelemetryOpts;
use crate::{config_paths, flag_value, load_configs, load_spec, usage};
use bgp_config::{parse_config, ConfigAst};
use obs::http::{Status, TelemetryServer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's telemetry: the always-on flight recorder, the shared
/// round [`Status`] (the **single** round-increment site every surface
/// reads — totals line, `--metrics-json` file and `/metrics` endpoint
/// cannot disagree), the optional HTTP listener and JSONL event
/// stream, and the previous registry snapshot for per-round deltas.
struct Telemetry {
    reg: Arc<obs::Registry>,
    status: Arc<Status>,
    metrics_path: Option<PathBuf>,
    flight_path: PathBuf,
    prev: obs::MetricsSnapshot,
    /// Round number the CI flight-recorder smoke injects a panic at
    /// (`LIGHTYEAR_WATCH_PANIC_ROUND`).
    panic_round: Option<u64>,
    _server: Option<TelemetryServer>,
}

impl Telemetry {
    fn new(opts: &TelemetryOpts) -> Result<Telemetry, String> {
        let active = opts.start("watch", None, obs::http::DEFAULT_MAX_CONNS)?;
        let panic_round = std::env::var("LIGHTYEAR_WATCH_PANIC_ROUND")
            .ok()
            .and_then(|v| v.parse().ok());
        Ok(Telemetry {
            prev: active.reg.snapshot(),
            reg: active.reg,
            status: active.status,
            metrics_path: opts.metrics_json.clone(),
            flight_path: opts.flight_json.clone(),
            panic_round,
            _server: active.server,
        })
    }

    /// What the registry accumulated since the previous round boundary.
    fn delta(&mut self) -> obs::MetricsSnapshot {
        let snap = self.reg.snapshot();
        let d = snap.delta_since(&self.prev);
        self.prev = snap;
        d
    }

    /// Seal the baseline (round zero): verdict and delta, no round
    /// number burned.
    fn baseline_done(&mut self, ok: bool, elapsed: Duration) {
        let d = self.delta();
        obs::event!(
            info,
            "watch.baseline",
            verdict = if ok { "pass" } else { "fail" },
            solves = d.counter("smt.solves"),
        );
        self.status.note_baseline(ok, elapsed, Some(d));
        if !ok {
            self.dump_flight();
        }
        self.sync_file();
    }

    /// Seal one round — verified, violated, or rejected (`err`) — and
    /// return its number. The one place a watch round is counted.
    fn round_done(&mut self, ok: bool, elapsed: Duration, err: Option<&str>) -> u64 {
        if let Some(e) = err {
            self.reg.record_error(e);
        }
        let d = self.delta();
        let n = self.status.note_round(ok, elapsed, Some(d));
        obs::event!(
            info,
            "watch.round",
            round = n,
            verdict = if ok { "pass" } else { "fail" },
        );
        if !ok {
            self.dump_flight();
        }
        self.sync_file();
        if self.panic_round == Some(n) {
            panic!("injected panic at round {n} (LIGHTYEAR_WATCH_PANIC_ROUND)");
        }
        n
    }

    /// The per-round cumulative totals line (printed with
    /// `--metrics-json`). Reads the same round counter as the file and
    /// the endpoint. False once stdout's reader is gone (see [`say`]).
    fn print_totals(&self) -> bool {
        if self.metrics_path.is_none() {
            return true;
        }
        let snap = self.reg.snapshot();
        say(&format!(
            "watch: totals: {} rounds, {} checks, {} cached, {} solver calls\n",
            self.status.rounds(),
            snap.counter("reverify.checks"),
            snap.counter("reverify.reused"),
            snap.counter("smt.solves"),
        ))
    }

    /// Atomically rewrite `--metrics-json` through the same renderer
    /// `/metrics` serves, so a poll of either sees identical bytes.
    fn sync_file(&self) {
        let Some(path) = &self.metrics_path else {
            return;
        };
        if let Err(e) = obs::http::write_status_file(path, &self.status, &self.reg) {
            eprintln!("warning: cannot write metrics to {path:?}: {e}");
        }
    }

    /// Dump the flight recorder (post-mortems need no re-run).
    fn dump_flight(&self) {
        obs::dump_flight(&self.flight_path);
    }
}

pub(crate) fn cmd_watch(args: &[String]) -> ExitCode {
    // Strict flags: a typo'd `--once` or `--max-rounds` must error, not
    // silently turn a one-shot invocation into an infinite daemon.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--configs" | "--spec" | "--baseline" | "--interval-ms" | "--max-rounds"
            | "--cache-dir" => i += 2,
            a if TelemetryOpts::takes(a) => i += 2,
            "--once" => i += 1,
            a => {
                eprintln!("error: unknown watch option {a}");
                return usage();
            }
        }
    }
    let (Some(dir), Some(spec_path)) = (flag_value(args, "--configs"), flag_value(args, "--spec"))
    else {
        return usage();
    };
    let once = args.iter().any(|a| a == "--once");
    let baseline = flag_value(args, "--baseline");
    let cache_dir = flag_value(args, "--cache-dir").map(PathBuf::from);
    let tele_opts = match TelemetryOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let interval = match flag_value(args, "--interval-ms").map(|v| v.parse::<u64>()) {
        None => 750,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("error: --interval-ms needs a positive integer");
            return usage();
        }
    };
    let max_rounds = match flag_value(args, "--max-rounds").map(|v| v.parse::<u64>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => {
            eprintln!("error: --max-rounds needs a positive integer");
            return usage();
        }
    };

    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut state = Session::new("watch", spec, cache_dir);
    let mut tele = match Telemetry::new(&tele_opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Round zero: the baseline directory (the watched one by default).
    let base_dir = baseline.clone().unwrap_or_else(|| dir.clone());
    let mut ok = match load_configs(Path::new(&base_dir)).and_then(|a| state.round(a, true)) {
        Ok(o) => {
            state.spill();
            tele.baseline_done(o.passed, o.elapsed);
            let line = round_line(&format!("baseline {base_dir}"), &o);
            let heard = say(&format!("{}{line}\n", o.violations)) && tele.print_totals();
            if !heard && !once {
                return exit(o.passed);
            }
            o.passed
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if once {
        // One delta round baseline -> configs (when they differ sources).
        if baseline.is_some() {
            match load_configs(Path::new(&dir)).and_then(|a| state.round(a, false)) {
                Ok(o) => {
                    ok &= o.passed;
                    let n = tele.round_done(ok, o.elapsed, None);
                    state.spill();
                    // Heard or not, the exit code is the verdict.
                    let line = round_line(&format!("round {n}"), &o);
                    if say(&format!("{}{line}\n", o.violations)) {
                        tele.print_totals();
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return exit(ok);
    }

    if !say(&format!(
        "watch: polling {dir} every {interval}ms (ctrl-c to stop)\n"
    )) {
        return exit(ok);
    }
    let mut rounds = 0u64;
    // The last snapshot that failed to verify (parse/lower/spec error):
    // a bad state must fail its round exactly once — a scripted
    // `--max-rounds` caller must neither hang on it nor read success —
    // and must not be re-reported on every poll tick while unchanged.
    let mut last_failed: Option<Snapshot> = None;
    let mut last_err: Option<String> = None;
    // The byte snapshot behind the accepted round: an idle tick is one
    // directory read and a byte comparison, no re-parsing.
    let mut accepted: Option<Snapshot> = None;
    loop {
        std::thread::sleep(Duration::from_millis(interval));
        let first = match snapshot(Path::new(&dir)) {
            Ok(s) => s,
            Err(e) => {
                if last_err.as_ref() != Some(&e) {
                    ok = false;
                    rounds = tele.round_done(ok, Duration::ZERO, Some(&e));
                    eprintln!("watch: round {rounds}: {e}");
                    last_err = Some(e);
                    if !tele.print_totals() {
                        return ExitCode::SUCCESS;
                    }
                }
                if max_rounds.is_some_and(|m| rounds >= m) {
                    break;
                }
                continue;
            }
        };
        last_err = None;
        if accepted.as_ref() == Some(&first) || last_failed.as_ref() == Some(&first) {
            continue;
        }
        // Something changed: demand a second identical read a beat
        // later before verifying — editors truncate-then-write, and a
        // half-saved file must neither burn a round nor be verified as
        // intended.
        std::thread::sleep(Duration::from_millis(STABILITY_MS));
        match snapshot(Path::new(&dir)) {
            Ok(second) if second == first => {}
            _ => continue, // files in motion; retry next tick
        }
        let snap = first;
        let parsed = parse_snapshot(&snap);
        if matches!(&parsed, Ok(asts) if *asts == state.current) {
            // A revert to the accepted set is not a round.
            last_failed = None;
            accepted = Some(snap);
            continue;
        }
        // Every attempted round — verified, violated, or rejected as
        // unparsable — burns exactly one round number at its
        // `round_done` call (the Status increment site), so the
        // numbering stays monotone across rejected rounds instead of a
        // later round reusing a failed round's number.
        let t0 = Instant::now();
        match parsed {
            Ok(asts) => match state.round(asts, false) {
                Ok(o) => {
                    ok = o.passed;
                    rounds = tele.round_done(ok, o.elapsed, None);
                    state.spill();
                    last_failed = None;
                    accepted = Some(snap);
                    let line = round_line(&format!("round {rounds}"), &o);
                    if !say(&format!("{}{line}\n", o.violations)) {
                        return ExitCode::SUCCESS;
                    }
                }
                Err(e) => {
                    ok = false;
                    rounds = tele.round_done(ok, t0.elapsed(), Some(&e));
                    eprintln!("watch: round {rounds}: {e}");
                    last_failed = Some(snap);
                }
            },
            Err(e) => {
                ok = false;
                rounds = tele.round_done(ok, t0.elapsed(), Some(&e));
                eprintln!("watch: round {rounds}: {e}");
                last_failed = Some(snap);
            }
        }
        if !tele.print_totals() {
            return ExitCode::SUCCESS;
        }
        if max_rounds.is_some_and(|m| rounds >= m) {
            break;
        }
    }
    exit(ok)
}

pub(crate) fn cmd_plan(args: &[String]) -> ExitCode {
    let Some(spec_path) = flag_value(args, "--spec") else {
        return usage();
    };
    // Positional arguments are the steps; unknown flags are rejected so
    // a typo'd option's value can never be mistaken for a step
    // directory (and silently verified as one).
    let mut dirs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--spec" => i += 2,
            a if a.starts_with("--") => {
                eprintln!("error: unknown plan option {a}");
                return usage();
            }
            a => {
                dirs.push(a.to_string());
                i += 1;
            }
        }
    }
    if dirs.is_empty() {
        return usage();
    }
    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut state = Session::new("plan", spec, None);
    let mut all_ok = true;
    // The whole plan is one report: collected here, written once.
    let mut out = String::new();
    for (step, d) in dirs.iter().enumerate() {
        let outcome = load_configs(Path::new(d)).and_then(|a| state.round(a, step == 0));
        match outcome {
            Ok(o) => {
                out.push_str(&o.violations);
                out.push_str(&round_line(&format!("step {step} ({d})"), &o));
                out.push('\n');
                all_ok &= o.passed;
            }
            Err(e) => {
                eprintln!("error: step {step} ({d}): {e}");
                return crate::write_stdout(&out, ExitCode::FAILURE);
            }
        }
    }
    out.push_str(&format!(
        "plan: {} steps, {}\n",
        dirs.len(),
        if all_ok {
            "every intermediate configuration verified"
        } else {
            "UNSAFE — at least one intermediate configuration fails"
        }
    ));
    crate::write_stdout(&out, exit(all_ok))
}

/// One byte-level read of a directory's config files, keyed by path.
type Snapshot = Vec<(String, Vec<u8>)>;

/// Delay between the two reads of a change-confirmation snapshot.
const STABILITY_MS: u64 = 25;

fn snapshot(dir: &Path) -> Result<Snapshot, String> {
    config_paths(dir)?
        .into_iter()
        .map(|p| {
            std::fs::read(&p)
                .map(|b| (p.display().to_string(), b))
                .map_err(|e| format!("cannot read {p:?}: {e}"))
        })
        .collect()
}

fn parse_snapshot(snap: &Snapshot) -> Result<Vec<ConfigAst>, String> {
    snap.iter()
        .map(|(name, bytes)| {
            parse_config(&String::from_utf8_lossy(bytes)).map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// Print daemon output; false once stdout's reader is gone (a closed
/// pipe). Other write errors are ignored: the round was spilled already
/// and the next one may be heard.
fn say(text: &str) -> bool {
    !matches!(crate::log_stdout(text), Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe)
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
