//! One tenant's worth of delta-scoped verification state, shared by
//! `watch`, `plan` and `serve`: per-safety-property [`ReverifyEngine`]s,
//! the currently-accepted configuration set, and the optional spill
//! directory for warm restarts. All three front-ends drive the same
//! [`Session::round`], so a round means exactly the same thing — and
//! produces the same [`api::PropertyReport`]s — whether it came from a
//! file poll, a migration step, or an API request. A round binds its spec
//! through [`Spec::bind`], like `verify`, so it decides the same
//! properties: safety delta-scoped, liveness in full every round. The
//! reports are collected from the same rows `verify --json` streams
//! ([`render::PropertyView`]), because a round stores them.

use crate::render;
use crate::spec::{Bound, Spec};
use bgp_config::{lower, ConfigAst};
use delta::{diff_configs, ConfigDelta};
use lightyear::check::ReportSummary;
use lightyear::reverify::{ReverifyEngine, ReverifyStats};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-spec-property engines plus the currently-accepted configuration
/// set, carried across rounds.
pub(crate) struct Session {
    spec: Spec,
    engines: Vec<ReverifyEngine>,
    pub(crate) current: Vec<ConfigAst>,
    /// Spill directory for the carried result caches: one subdirectory
    /// per spec property, written after every verified round, reloaded
    /// (passes only) on startup so a restarted daemon starts warm. A
    /// spill written under another fingerprint format still loads but
    /// answers nothing: the first round after such an upgrade is
    /// `dirty N/N` once, and its save is keyed by the current format.
    cache_dir: Option<PathBuf>,
}

/// What one round produced.
pub(crate) struct RoundOutcome {
    pub(crate) passed: bool,
    /// Delta statistics merged over the safety properties; liveness,
    /// re-run in full, is not counted.
    pub(crate) stats: ReverifyStats,
    pub(crate) delta: Option<ConfigDelta>,
    pub(crate) elapsed: Duration,
    /// The text a round shows before its stats line: per violated
    /// property, `NAME: VIOLATED` (`NAME (liveness): VIOLATED`) and the
    /// localized failures, as `verify` prints them. Empty on a verified
    /// round.
    pub(crate) violations: String,
    /// Per-property reports rendered through the shared [`api`] schema
    /// — deliberately without timing fields, so two rounds over the
    /// same configurations serialize byte-identically.
    pub(crate) reports: Vec<api::PropertyReport>,
}

fn merge(into: &mut ReverifyStats, s: &ReverifyStats) {
    into.total += s.total;
    into.dirty += s.dirty;
    into.candidates += s.candidates;
    into.reused += s.reused;
    into.core_clean += s.core_clean;
    into.invalidated += s.invalidated;
    into.universe_reset |= s.universe_reset;
}

impl Session {
    /// A fresh session. `label` prefixes log lines (`watch`, `serve`).
    pub(crate) fn new(label: &str, spec: Spec, cache_dir: Option<PathBuf>) -> Session {
        // With a spill directory, each property's engine starts from its
        // reloaded cache, which holds passing verdicts only: a pass
        // replays soundly under an equal fingerprint, and a failure is
        // re-proved after a restart.
        let mut loaded_total = 0usize;
        let engines = spec
            .safety
            .iter()
            .enumerate()
            .map(|(i, _)| match &cache_dir {
                Some(dir) => {
                    let pdir = prop_dir(dir, i);
                    match lightyear::load_pass_cache(&pdir) {
                        Ok((cache, loaded)) => {
                            loaded_total += loaded;
                            ReverifyEngine::with_results(cache)
                        }
                        Err(e) => {
                            eprintln!("warning: ignoring unreadable cache at {pdir:?}: {e}");
                            ReverifyEngine::new()
                        }
                    }
                }
                None => ReverifyEngine::new(),
            })
            .collect();
        if loaded_total > 0 {
            let _ = crate::log_stdout(&format!(
                "{label}: cache: loaded {loaded_total} entries from {}\n",
                cache_dir.as_deref().unwrap_or(Path::new("?")).display()
            ));
        }
        Session {
            spec,
            engines,
            current: Vec::new(),
            cache_dir,
        }
    }

    /// Spill the passes of every engine's carried result cache to the
    /// cache directory (no-op without one); see [`Session::new`].
    pub(crate) fn spill(&self) {
        let Some(dir) = &self.cache_dir else { return };
        for (i, engine) in self.engines.iter().enumerate() {
            let pdir = prop_dir(dir, i);
            if let Err(e) = lightyear::save_check_cache(&engine.cache(), &pdir) {
                eprintln!("warning: cannot save cache to {pdir:?}: {e}");
            }
        }
    }

    /// Verify `asts`, re-solving only what changed since the accepted
    /// set (`full` skips the diff: round zero). Liveness properties carry
    /// no state across rounds and re-run in full every round. On success
    /// the set is accepted as current; on error (parse/lower/spec) the
    /// previous state is kept so a daemon survives transient bad writes.
    pub(crate) fn round(
        &mut self,
        asts: Vec<ConfigAst>,
        full: bool,
    ) -> Result<RoundOutcome, String> {
        let t0 = Instant::now();
        let delta = (!full).then(|| diff_configs(&self.current, &asts));
        let net = lower(&asts).map_err(|e| e.to_string())?;
        let topo = &net.topology;
        // Bind the whole spec and run liveness, the one step that can
        // still fail, before advancing any engine: a round is
        // all-or-nothing, so engine state and the accepted configuration
        // set can never drift apart on a half-failed round.
        let Bound {
            verifier,
            safety,
            liveness,
        } = self.spec.bind(&net).map_err(|e| e.to_string())?;
        let live: Vec<ReportSummary> = self
            .spec
            .liveness
            .iter()
            .zip(&liveness)
            .map(|(l, spec)| match verifier.verify_liveness(spec) {
                Ok(report) => Ok(report.summarize()),
                Err(e) => Err(format!("liveness {}: {e}", l.name)),
            })
            .collect::<Result<_, _>>()?;
        let changed: Option<Vec<String>> = delta.as_ref().map(ConfigDelta::changed_routers);
        let mut stats = ReverifyStats::default();
        let mut violations = String::new();
        let mut note = |name: &str, liveness: bool, report: &ReportSummary| {
            if !report.all_passed() {
                violations.push_str(&format!("{}: VIOLATED\n", render::label(name, liveness)));
                violations.push_str(&report.format_failures(topo));
            }
        };
        let doc = |name: &str, liveness: bool, summary: &ReportSummary, conjuncts| {
            render::PropertyView {
                name,
                liveness,
                summary,
                topo,
                conjuncts: &conjuncts,
                timing: None,
            }
            .to_doc()
        };
        let mut reports = Vec::with_capacity(safety.len() + live.len());
        for (engine, (s, bound @ (prop, inv))) in self
            .engines
            .iter_mut()
            .zip(self.spec.safety.iter().zip(&safety))
        {
            let (report, rstats) = engine.reverify(
                &verifier,
                std::slice::from_ref(prop),
                inv,
                changed.as_deref(),
            );
            merge(&mut stats, &rstats);
            let report = report.summarize();
            note(&s.name, false, &report);
            let conjuncts = render::safety_conjuncts(&verifier, bound);
            reports.push(doc(&s.name, false, &report, conjuncts));
        }
        for ((l, spec), report) in self.spec.liveness.iter().zip(&liveness).zip(&live) {
            note(&l.name, true, report);
            let conjuncts = render::liveness_conjuncts(&verifier, spec);
            reports.push(doc(&l.name, true, report, conjuncts));
        }
        self.current = asts;
        Ok(RoundOutcome {
            passed: reports.iter().all(|r| r.passed),
            stats,
            delta,
            elapsed: t0.elapsed(),
            violations,
            reports,
        })
    }
}

/// The per-round stats line (the daemons' primary output; the CI smoke
/// tests grep the `dirty <n>/<total>` token). Its check counts are the
/// safety properties'; the verdict covers liveness too.
pub(crate) fn round_line(label: &str, o: &RoundOutcome) -> String {
    let delta = match &o.delta {
        Some(d) => format!("delta {d}; ", d = d.summary()),
        None => String::new(),
    };
    format!(
        "{label}: {delta}{summary}; {verdict} in {elapsed:?}",
        summary = o.stats.summary(),
        verdict = if o.passed { "verified" } else { "VIOLATED" },
        elapsed = o.elapsed,
    )
}

/// The per-property cache spill subdirectory (cache entries are keyed by
/// structural fingerprints, which are shared *within* one property's
/// engine; separate directories keep each engine's spill self-contained).
pub(crate) fn prop_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("prop{i}"))
}
