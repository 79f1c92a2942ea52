//! The `fuzz` subcommand: seeded differential campaigns over the
//! topology families, with minimized replayable repros on discrepancy.

use crate::telemetry::TelemetryOpts;
use crate::{fail, flag_value, positionals, positive, usage, usage_error};
use fuzz::{CampaignConfig, FamilyId};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub(crate) fn cmd_fuzz(args: &[String]) -> ExitCode {
    // Strict flags: a typo or a missing value must not silently change
    // the campaign.
    let own = [
        "--seed",
        "--cases",
        "--families",
        "--edit-steps",
        "--sim-rounds",
        "--repro-dir",
        "--bench-json",
        "--replay",
    ];
    let value_flags = [&own[..], &TelemetryOpts::FLAGS].concat();
    if let Err(e) = positionals("fuzz", args, &value_flags, &["--no-inject"], 0) {
        return usage_error(&e);
    }

    if let Some(dir) = flag_value(args, "--replay") {
        // A repro replays under its recorded parameters; campaign flags
        // would be accepted-but-ignored, which the strict parse exists
        // to prevent.
        if args.len() > 2 {
            eprintln!("error: --replay takes no other options (the repro records its parameters)");
            return usage();
        }
        return cmd_replay(Path::new(&dir));
    }

    let mut cfg = CampaignConfig::default();
    if let Some(v) = flag_value(args, "--seed") {
        let Ok(s) = v.parse() else {
            eprintln!("error: --seed needs an integer");
            return usage();
        };
        cfg.seed = s;
    }
    match positive(args, "--cases") {
        Ok(Some(n)) => cfg.cases = n,
        Ok(None) => {}
        Err(e) => return usage_error(&e),
    }
    if let Some(v) = flag_value(args, "--families") {
        let mut families = Vec::new();
        for name in v.split(',') {
            let Some(f) = FamilyId::parse(name.trim()) else {
                eprintln!(
                    "error: unknown family {name:?} (known: {})",
                    FamilyId::all()
                        .iter()
                        .map(|f| f.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return usage();
            };
            families.push(f);
        }
        cfg.families = families;
    }
    for (flag, slot) in [
        ("--edit-steps", &mut cfg.edit_steps),
        ("--sim-rounds", &mut cfg.sim_rounds),
    ] {
        if let Some(v) = flag_value(args, flag) {
            let Ok(n) = v.parse() else {
                eprintln!("error: {flag} needs a non-negative integer");
                return usage();
            };
            *slot = n;
        }
    }
    cfg.inject = !args.iter().any(|a| a == "--no-inject");
    let repro_dir = PathBuf::from(
        flag_value(args, "--repro-dir").unwrap_or_else(|| ".lightyear-fuzz-repro".to_string()),
    );

    // Always-on flight recorder: live per-family / per-oracle counters
    // accumulate in the registry as the campaign runs, so a `--listen`
    // scrape shows mid-flight progress, and a panicking case leaves a
    // post-mortem without a re-run. Flags and bring-up are shared with
    // `watch` and `serve` via TelemetryOpts.
    let tele_opts = match TelemetryOpts::parse(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let tele = match tele_opts.bring_up("fuzz") {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let _server = match tele.listen(None, obs::http::DEFAULT_MAX_CONNS) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    let t0 = std::time::Instant::now();
    let out = fuzz::run_campaign(&cfg);
    // The campaign is one round for /healthz, /metrics and the
    // --metrics-json file; a discrepancy is its error.
    let err = out
        .failure
        .as_ref()
        .map(|(_, d)| format!("fuzz discrepancy: {d}"));
    tele.seal(false, err.is_none(), t0.elapsed(), err.as_deref());
    println!("{}", out.summary());
    if let Some(path) = flag_value(args, "--bench-json") {
        let json = serde_json::to_string_pretty(&out.to_json(&cfg)).unwrap_or_default();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: cannot write {path}: {e}");
        } else {
            println!("fuzz: campaign record written to {path}");
        }
    }

    let Some((failing, discrepancy)) = out.failure else {
        return ExitCode::SUCCESS;
    };
    tele.dump_flight();
    eprintln!("fuzz: discrepancy: {discrepancy}");
    eprintln!("fuzz: minimizing (greedy, re-running the failing oracle)...");
    let before = fuzz::case_size(&failing.configs);
    let min = fuzz::minimize(&failing);
    let after = fuzz::case_size(&min.configs);
    match fuzz::write_repro(&min, &repro_dir) {
        Ok(()) => {
            eprintln!(
                "fuzz: repro written to {} (size {before} -> {after}, {} edit seeds); replay with:\n  \
                 lightyear fuzz --replay {}",
                repro_dir.display(),
                min.edit_seeds.len(),
                repro_dir.display()
            );
        }
        Err(e) => eprintln!(
            "warning: cannot write repro to {}: {e}",
            repro_dir.display()
        ),
    }
    ExitCode::FAILURE
}

/// Replay a repro directory. Exit 1 when the failure reproduces (the
/// repro is live), 0 when it no longer does (fixed).
fn cmd_replay(dir: &Path) -> ExitCode {
    match fuzz::replay(dir) {
        Ok(Some(d)) => {
            println!("fuzz: failure reproduces: {d}");
            ExitCode::FAILURE
        }
        Ok(None) => {
            println!("fuzz: repro no longer fails (fixed)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
