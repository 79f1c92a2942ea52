//! The `watch` daemon and `plan` migration-step modes: long-lived
//! re-verification built on `lightyear::ReverifyEngine` (carried
//! verdicts, cores and fingerprints; a check is re-solved iff its
//! fingerprint is new). `delta::diff_configs` only names what changed
//! for the round line and the candidates stat. A `--cache-dir` spill
//! keyed under an older fingerprint format is a miss, never a wrong hit:
//! the first baseline after the upgrade reports `dirty N/N` once, then
//! restarts are warm again.
//!
//! A closed stdout ends the polling loop the way ctrl-c does — every
//! round is spilled before it is printed, so it exits 0 — while the
//! baseline and `--once` exit with their verdict, like `verify`.

use crate::session::{round_line, Session};
use crate::telemetry::{Observer, TelemetryOpts};
use crate::{
    config_paths, exit, fail, flag_value, load_configs, load_spec, positionals, positive, usage,
    usage_error,
};
use bgp_config::{parse_config, ConfigAst};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub(crate) fn cmd_watch(args: &[String]) -> ExitCode {
    // Strict flags: a typo'd `--once` or `--max-rounds` must error, not
    // silently turn a one-shot invocation into an infinite daemon.
    let own = [
        "--configs",
        "--spec",
        "--baseline",
        "--interval-ms",
        "--max-rounds",
        "--cache-dir",
    ];
    let value_flags = [&own[..], &TelemetryOpts::FLAGS].concat();
    if let Err(e) = positionals("watch", args, &value_flags, &["--once"], 0) {
        return usage_error(&e);
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
        Err(e) => return usage_error(&e),
    };
    let (interval, max_rounds) = match (
        positive(args, "--interval-ms"),
        positive(args, "--max-rounds"),
    ) {
        (Ok(interval), Ok(max)) => (interval.unwrap_or(750) as u64, max.map(|m| m as u64)),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };

    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let mut state = Session::new("watch", spec, cache_dir);
    let tele = tele_opts.bring_up("watch");
    let _server = match tele.listen(None, obs::http::DEFAULT_MAX_CONNS) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    // Round number the CI flight-recorder smoke injects a panic at.
    let panic_round: Option<u64> = std::env::var("LIGHTYEAR_WATCH_PANIC_ROUND")
        .ok()
        .and_then(|v| v.parse().ok());
    // Seal the baseline or a round and return the round number; a
    // failed one also dumps the flight recorder.
    let seal = |baseline: bool, ok: bool, elapsed: Duration, err: Option<&str>| {
        let n = tele.seal(baseline, ok, elapsed, err);
        if !ok {
            tele.dump_flight();
        }
        if !baseline && panic_round == Some(n) {
            panic!("injected panic at round {n} (LIGHTYEAR_WATCH_PANIC_ROUND)");
        }
        n
    };

    // Round zero: the baseline directory (the watched one by default).
    let base_dir = baseline.clone().unwrap_or_else(|| dir.clone());
    let mut ok = match load_configs(Path::new(&base_dir)).and_then(|a| state.round(a, true)) {
        Ok(o) => {
            state.spill();
            seal(true, o.passed, o.elapsed, None);
            let line = round_line(&format!("baseline {base_dir}"), &o);
            let heard = say(&format!("{}{line}\n", o.violations)) && print_totals(&tele);
            if !heard && !once {
                return exit(o.passed);
            }
            o.passed
        }
        Err(e) => return fail(&e),
    };

    if once {
        // One delta round baseline -> configs (when they differ sources).
        if baseline.is_some() {
            match load_configs(Path::new(&dir)).and_then(|a| state.round(a, false)) {
                Ok(o) => {
                    ok &= o.passed;
                    let n = seal(false, ok, o.elapsed, None);
                    state.spill();
                    // Heard or not, the exit code is the verdict.
                    let line = round_line(&format!("round {n}"), &o);
                    if say(&format!("{}{line}\n", o.violations)) {
                        print_totals(&tele);
                    }
                }
                Err(e) => return fail(&e),
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
                    rounds = seal(false, ok, Duration::ZERO, Some(&e));
                    eprintln!("watch: round {rounds}: {e}");
                    last_err = Some(e);
                    if !print_totals(&tele) {
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
        // unparsable — burns exactly one round number at its `seal`
        // call (the Status increment site), so the numbering stays
        // monotone across rejected rounds instead of a later round
        // reusing a failed round's number.
        let t0 = Instant::now();
        match parsed.and_then(|asts| state.round(asts, false)) {
            Ok(o) => {
                ok = o.passed;
                rounds = seal(false, ok, o.elapsed, None);
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
                rounds = seal(false, ok, t0.elapsed(), Some(&e));
                eprintln!("watch: round {rounds}: {e}");
                last_failed = Some(snap);
            }
        }
        if !print_totals(&tele) {
            return ExitCode::SUCCESS;
        }
        if max_rounds.is_some_and(|m| rounds >= m) {
            break;
        }
    }
    exit(ok)
}

pub(crate) fn cmd_plan(args: &[String]) -> ExitCode {
    // Positional arguments are the steps; unknown flags are rejected so
    // a typo'd option's value can never be mistaken for a step
    // directory (and silently verified as one).
    let dirs = match positionals("plan", args, &["--spec"], &[], usize::MAX) {
        Ok(dirs) => dirs,
        Err(e) => return usage_error(&e),
    };
    let Some(spec_path) = flag_value(args, "--spec") else {
        return usage();
    };
    if dirs.is_empty() {
        return usage();
    }
    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
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

/// The per-round cumulative totals line (printed with
/// `--metrics-json`). Reads the same round counter as the file and the
/// endpoint. False once stdout's reader is gone (see [`say`]).
fn print_totals(tele: &Observer) -> bool {
    if tele.opts.metrics_json.is_none() {
        return true;
    }
    let snap = tele.reg.snapshot();
    say(&format!(
        "watch: totals: {} rounds, {} checks, {} cached, {} solver calls\n",
        tele.status.rounds(),
        snap.counter("reverify.checks"),
        snap.counter("reverify.reused"),
        snap.counter("smt.solves"),
    ))
}

/// Print daemon output; false once stdout's reader is gone (a closed
/// pipe). Other write errors are ignored: the round was spilled already
/// and the next one may be heard.
fn say(text: &str) -> bool {
    !matches!(crate::log_stdout(text), Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe)
}
