//! The oracles: independent ways of deciding what a case's verdict
//! *should* be, cross-checked against each other.
//!
//! 1. **Simulation vs invariants** ([`sim_oracle`]): if the verifier
//!    proves an invariant assignment, every event of every concrete
//!    simulated trace — across the full 2³ [`SimOptions`] grid — must
//!    satisfy the invariant at its location (the paper's §4.3
//!    correctness theorem, tested differentially).
//! 2. **Mode parity** ([`parity_oracle`]): the reference oracle (one
//!    fresh solver instance per check), the pipeline at one and at two
//!    workers, and the cross-property batch must render byte-identical
//!    reports.
//! 3. **Edit sequences** ([`edit_oracle`]): a long-lived
//!    [`ReverifyEngine`] fed a random edit sequence must stay
//!    byte-identical to fresh verification after every step, with
//!    cosmetic edits producing empty dirty sets.
//! 4. **Injected bugs** ([`bug_oracle`]): a seeded `netgen::mutate`
//!    bug must be caught — by verification or, failing that, by a
//!    simulated trace violating a "proved" invariant (which would be a
//!    soundness discrepancy, reported as such).
//! 5. **Cache poisoning** ([`cache_poison_oracle`]): a `--cache-dir`
//!    spill corrupted on disk — truncated, bit-flipped, or with forged
//!    entry checksums — must reload without panicking and must never
//!    change a report byte: damaged entries are re-proved, not replayed.

use crate::families::{random_announcement, FuzzCase};
use bgp_model::sim::{simulate, SimOptions};
use bgp_model::trace::{check_liveness_axioms, check_safety_axioms, Event};
use lightyear::invariants::Location;
use lightyear::reverify::ReverifyEngine;
use lightyear::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Which oracle tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleId {
    /// Simulated traces vs verified invariants (the §4.3 theorem).
    SimGrid,
    /// Reference / one worker / two workers / batch report parity.
    ModeParity,
    /// Reverify-vs-fresh byte identity across an edit sequence.
    EditSequence,
    /// A seeded case (usually bug-injected) whose *failing verification*
    /// is the condition under minimization.
    Verify,
    /// A bug-injected case that *escaped* every oracle (or tripped the
    /// simulator after passing verification — a soundness discrepancy):
    /// the failing condition is [`bug_oracle`] still objecting.
    BugMissed,
    /// Reports after reloading a corrupted cache spill vs clean reports,
    /// byte for byte (and the reload must not panic).
    CachePoison,
}

impl OracleId {
    /// Stable name (stored in repro files).
    pub fn name(&self) -> &'static str {
        match self {
            OracleId::SimGrid => "sim-grid",
            OracleId::ModeParity => "mode-parity",
            OracleId::EditSequence => "edit-sequence",
            OracleId::Verify => "verify",
            OracleId::BugMissed => "bug-missed",
            OracleId::CachePoison => "cache-poison",
        }
    }

    /// Parse the [`OracleId::name`] form.
    pub fn parse(s: &str) -> Option<OracleId> {
        [
            OracleId::SimGrid,
            OracleId::ModeParity,
            OracleId::EditSequence,
            OracleId::Verify,
            OracleId::BugMissed,
            OracleId::CachePoison,
        ]
        .into_iter()
        .find(|o| o.name() == s)
    }
}

impl fmt::Display for OracleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cross-check that failed.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// The oracle that tripped.
    pub oracle: OracleId,
    /// What disagreed.
    pub detail: String,
}

impl Discrepancy {
    fn new(oracle: OracleId, detail: impl Into<String>) -> Self {
        Discrepancy {
            oracle,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// The full 2³ grid over the simulator's semantic switches
/// (loop prevention × iBGP non-readvertisement × split horizon).
pub fn sim_options_grid() -> Vec<SimOptions> {
    let mut out = Vec::new();
    for lp in [true, false] {
        for nr in [true, false] {
            for sh in [true, false] {
                out.push(SimOptions {
                    loop_prevention: lp,
                    ibgp_no_readvertise: nr,
                    split_horizon: sh,
                    max_messages: 200_000,
                });
            }
        }
    }
    out
}

/// The deterministic report rendering two runs are compared by.
fn report_text(topo: &bgp_model::Topology, r: &Report) -> String {
    format!("{r}\n{}", r.format_failures(topo))
}

/// Oracle 1: verified invariants hold on every simulated trace event,
/// across the full [`sim_options_grid`], under `rounds` rounds of
/// randomized (adversarial) announcements.
pub fn sim_oracle(case: &FuzzCase, sim_seed: u64, rounds: usize) -> Result<(), Discrepancy> {
    let topo = &case.network.topology;
    let policy = &case.network.policy;
    let v = case.verifier();

    // Prove every suite once; a generated (pristine) case must verify.
    for s in &case.suites {
        let report = v.verify_safety_multi(&s.props, &s.inv);
        if !report.all_passed() {
            return Err(Discrepancy::new(
                OracleId::SimGrid,
                format!(
                    "suite {} fails to verify on the generated case:\n{}",
                    s.name,
                    report.format_failures(topo)
                ),
            ));
        }
    }

    let provenance = case.provenance();
    let grid = sim_options_grid();
    let mut rng = StdRng::seed_from_u64(sim_seed);
    for round in 0..rounds {
        let mut announcements = Vec::new();
        for a in &case.announcers {
            if rng.random_bool(0.85) {
                announcements.push((a.edge, random_announcement(a, &mut rng)));
            }
        }
        if announcements.is_empty() {
            continue;
        }
        for (oi, &opts) in grid.iter().enumerate() {
            let result = simulate(topo, policy, &announcements, opts);
            if !result.converged {
                return Err(Discrepancy::new(
                    OracleId::SimGrid,
                    format!("round {round} options #{oi}: simulation did not converge"),
                ));
            }
            if let Err(e) = check_safety_axioms(&result.trace, topo, policy) {
                return Err(Discrepancy::new(
                    OracleId::SimGrid,
                    format!("round {round} options #{oi}: invalid trace: {e}"),
                ));
            }
            if let Err(e) = check_liveness_axioms(&result.trace, topo, policy) {
                return Err(Discrepancy::new(
                    OracleId::SimGrid,
                    format!("round {round} options #{oi}: liveness axioms: {e}"),
                ));
            }
            for (i, ev) in result.trace.events.iter().enumerate() {
                let (loc, route) = match ev {
                    Event::Recv { edge, route } => (Location::Edge(*edge), route),
                    Event::Frwd { edge, route } => (Location::Edge(*edge), route),
                    Event::Slct { node, route } => (Location::Node(*node), route),
                };
                let origin = *route.as_path.last().unwrap_or(&0);
                let Some(src_edge) = provenance.get(&(route.prefix, origin)) else {
                    continue; // not one of our announcements
                };
                let ghosts = case.ghost_values(*src_edge);
                for s in &case.suites {
                    let inv = s.inv.at(topo, loc);
                    if !inv.eval(route, &ghosts) {
                        return Err(Discrepancy::new(
                            OracleId::SimGrid,
                            format!(
                                "round {round} options #{oi} event #{i}: verified invariant {inv} \
                                 of suite {} violated at {} by {route}",
                                s.name,
                                loc.display(topo)
                            ),
                        ));
                    }
                    for p in &s.props {
                        if p.location == loc && !p.pred.eval(route, &ghosts) {
                            return Err(Discrepancy::new(
                                OracleId::SimGrid,
                                format!(
                                    "round {round} options #{oi} event #{i}: verified property \
                                     {} violated at {} by {route}",
                                    p.name.as_deref().unwrap_or("?"),
                                    loc.display(topo)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Oracle 2: the pipeline renders the reference oracle's report at any
/// worker count, and the cross-property batch matches per-suite runs
/// byte for byte.
pub fn parity_oracle(case: &FuzzCase) -> Result<(), Discrepancy> {
    let topo = &case.network.topology;
    let mut baselines = Vec::new();
    for s in &case.suites {
        let fresh = case.verifier().verify_safety_reference(&s.props, &s.inv);
        let fresh_text = report_text(topo, &fresh);
        for jobs in [1, 2] {
            let r = case
                .verifier()
                .with_jobs(jobs)
                .verify_safety_multi(&s.props, &s.inv);
            let t = report_text(topo, &r);
            if t != fresh_text {
                return Err(Discrepancy::new(
                    OracleId::ModeParity,
                    format!(
                        "suite {}: jobs={jobs} report diverges from the reference:\n--- reference\n{fresh_text}\n--- jobs={jobs}\n{t}",
                        s.name
                    ),
                ));
            }
        }
        baselines.push(fresh_text);
    }
    // Cross-property batch over all suites at once.
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> = case
        .suites
        .iter()
        .map(|s| (s.props.as_slice(), &s.inv))
        .collect();
    let multi = case.verifier().verify_safety_batch(&suites);
    for ((s, report), baseline) in case.suites.iter().zip(&multi.reports).zip(&baselines) {
        let t = report_text(topo, report);
        if t != *baseline {
            return Err(Discrepancy::new(
                OracleId::ModeParity,
                format!(
                    "suite {}: cross-property batch diverges from the reference:\n--- reference\n{baseline}\n--- batch\n{t}",
                    s.name
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 5: a poisoned cache spill must never change a report byte.
/// The case is verified on two workers with a result cache attached, the
/// cache is spilled to disk, the spill bytes are deterministically
/// corrupted (truncated, bit-flipped, or checksum-forged, chosen by
/// `seed`), and the damaged spill is reloaded: the reload must not
/// panic, and re-verifying with whatever survived must render reports
/// byte-identical to the clean run — a rejected or vanished entry is
/// re-proved, a replayed one would have to be intact.
pub fn cache_poison_oracle(case: &FuzzCase, seed: u64) -> Result<(), Discrepancy> {
    let dir = std::env::temp_dir().join(format!(
        "lightyear-fuzz-poison-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = cache_poison_in(case, seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn cache_poison_in(case: &FuzzCase, seed: u64, dir: &std::path::Path) -> Result<(), Discrepancy> {
    let topo = &case.network.topology;
    let fail = |detail: String| Err(Discrepancy::new(OracleId::CachePoison, detail));
    // Warm a cache through a two-worker run and spill it; the warm
    // run's reports are the byte baseline.
    let cache = std::sync::Arc::new(lightyear::CheckCache::new());
    let mut baselines = Vec::new();
    for s in &case.suites {
        let r = case
            .verifier()
            .with_jobs(2)
            .with_cache(cache.clone())
            .verify_safety_multi(&s.props, &s.inv);
        baselines.push(report_text(topo, &r));
    }
    if let Err(e) = lightyear::save_check_cache(&cache, dir) {
        return fail(format!("cannot spill cache: {e}"));
    }
    let path = dir.join("cache.json");
    let mut bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => return fail(format!("cannot read spill: {e}")),
    };
    let style = corrupt_spill(&mut bytes, seed);
    if let Err(e) = std::fs::write(&path, &bytes) {
        return fail(format!("cannot write corrupted spill: {e}"));
    }

    // Reload must survive arbitrary corruption: a panic is the
    // discrepancy; an I/O or parse error is just a cold start (the CLI
    // warns and re-proves — see `cmd_verify`).
    let reloaded = {
        let d = dir.to_path_buf();
        crate::try_quiet(move || lightyear::load_check_cache(&d))
    };
    let poisoned = match reloaded {
        None => return fail(format!("reloading a {style} spill panicked")),
        Some(Ok((c, _))) => c,
        Some(Err(_)) => std::sync::Arc::new(lightyear::CheckCache::new()),
    };
    for (s, baseline) in case.suites.iter().zip(&baselines) {
        let r = case
            .verifier()
            .with_jobs(2)
            .with_cache(poisoned.clone())
            .verify_safety_multi(&s.props, &s.inv);
        let t = report_text(topo, &r);
        if t != *baseline {
            return fail(format!(
                "suite {}: report after reloading a {style} spill diverges:\n--- clean\n{baseline}\n--- poisoned\n{t}",
                s.name
            ));
        }
    }
    Ok(())
}

/// Deterministically corrupt spill bytes in place; returns the style
/// applied (named in discrepancy messages).
fn corrupt_spill(bytes: &mut Vec<u8>, seed: u64) -> &'static str {
    let n = bytes.len().max(1);
    match seed % 3 {
        0 => {
            bytes.truncate((seed as usize / 3) % n);
            "truncated"
        }
        1 => {
            let i = (seed as usize / 3) % n;
            bytes[i] ^= 1 << ((seed / 3) % 8);
            "bit-flipped"
        }
        _ => {
            // Zero every entry checksum: intact payloads under forged
            // sums, the hand-edited-spill shape.
            let mut text = String::from_utf8_lossy(bytes).into_owned();
            let needle = "\"sum\": \"";
            let mut at = 0;
            while let Some(p) = text[at..].find(needle) {
                let start = at + p + needle.len();
                let end = (start + 32).min(text.len());
                let zeros = "0".repeat(end - start);
                text.replace_range(start..end, &zeros);
                at = end;
            }
            *bytes = text.into_bytes();
            "checksum-forged"
        }
    }
}

/// Apply one menu edit to `configs`, retrying `seed..seed+16` until one
/// applies — the single retry idiom shared by generation and replay, so
/// a recorded seed always reproduces the same edit.
fn apply_edit(
    configs: &mut [bgp_config::ast::ConfigAst],
    seed: u64,
) -> Option<netgen::edits::AppliedEdit> {
    (seed..seed + 16).find_map(|s| netgen::edits::random_edit(configs, s))
}

/// Oracle 3: drive a [`ReverifyEngine`] per suite through `steps`
/// random edits; after every step the warm round must be byte-identical
/// to a fresh verification of the same configs, and cosmetic edits must
/// produce empty dirty sets. Returns the applied edit seeds (for
/// sequence minimization) alongside any discrepancy.
pub fn edit_oracle(
    case: &FuzzCase,
    edit_seed: u64,
    steps: usize,
) -> (Vec<u64>, Result<(), Discrepancy>) {
    let seeds: Vec<u64> = (0..steps as u64)
        .map(|step| {
            edit_seed
                .wrapping_add(step)
                .wrapping_mul(0x9e3779b97f4a7c15)
                % 100_000
        })
        .collect();
    run_edit_sequence(case, &seeds)
}

/// The edit-sequence driver behind both [`edit_oracle`] (freshly
/// derived seeds) and repro replay (recorded seeds): every failure
/// mode — baseline accounting, unbuildable configs, generator-vs-differ
/// cosmetic disagreement, reverify divergence, cosmetic dirtying — is
/// re-checked identically on replay. The returned seed list includes
/// the failing step's seed, so a recorded sequence reproduces its own
/// discrepancy.
pub fn run_edit_sequence(case: &FuzzCase, seeds: &[u64]) -> (Vec<u64>, Result<(), Discrepancy>) {
    let mut engines: Vec<ReverifyEngine> =
        case.suites.iter().map(|_| ReverifyEngine::new()).collect();
    // Baseline round on the pristine case.
    {
        let v = case.verifier();
        for (e, s) in engines.iter_mut().zip(&case.suites) {
            let (_, stats) = e.reverify(&v, &s.props, &s.inv, None);
            if stats.dirty + stats.reused + stats.core_clean != stats.total {
                return (
                    Vec::new(),
                    Err(Discrepancy::new(
                        OracleId::EditSequence,
                        format!("suite {}: baseline round lost checks: {stats:?}", s.name),
                    )),
                );
            }
        }
    }

    let mut configs = case.configs.clone();
    let mut applied_seeds = Vec::new();
    for (step, &seed) in seeds.iter().enumerate() {
        let mut snapshot = configs.clone();
        let Some(applied) = apply_edit(&mut snapshot, seed) else {
            continue;
        };
        // The failing step's seed is part of the sequence: push before
        // any of the checks below can bail out.
        applied_seeds.push(seed);
        // An edit that breaks the pipeline (cannot lower) is a
        // generator bug — the edit menu guarantees it does not happen.
        let Some(next) = crate::try_quiet({
            let params = case.params;
            let snap = snapshot.clone();
            move || params.build_from(snap)
        }) else {
            return (
                applied_seeds,
                Err(Discrepancy::new(
                    OracleId::EditSequence,
                    format!("step {step}: edit {applied:?} produced configs that fail to build"),
                )),
            );
        };
        let delta = delta::diff_configs(&configs, &snapshot);
        if applied.cosmetic != delta.is_cosmetic() {
            return (
                applied_seeds,
                Err(Discrepancy::new(
                    OracleId::EditSequence,
                    format!(
                        "step {step}: generator says cosmetic={}, differ says {delta}",
                        applied.cosmetic
                    ),
                )),
            );
        }
        configs = snapshot;
        let changed = delta.changed_routers();
        let topo = &next.network.topology;
        let v = next.verifier();
        for (e, s) in engines.iter_mut().zip(&next.suites) {
            let (warm, stats) = e.reverify(&v, &s.props, &s.inv, Some(&changed));
            let fresh = v.verify_safety_multi(&s.props, &s.inv);
            let (wt, ft) = (report_text(topo, &warm), report_text(topo, &fresh));
            if wt != ft {
                return (
                    applied_seeds,
                    Err(Discrepancy::new(
                        OracleId::EditSequence,
                        format!(
                            "step {step} ({applied:?}): suite {} reverify diverges from fresh:\n--- fresh\n{ft}\n--- reverify\n{wt}",
                            s.name
                        ),
                    )),
                );
            }
            if delta.is_cosmetic() && stats.dirty != 0 {
                return (
                    applied_seeds,
                    Err(Discrepancy::new(
                        OracleId::EditSequence,
                        format!(
                            "step {step}: cosmetic edit dirtied {} checks in suite {}",
                            stats.dirty, s.name
                        ),
                    )),
                );
            }
        }
    }
    (applied_seeds, Ok(()))
}

/// Simulation rounds [`bug_oracle`]'s escalation path runs when an
/// injected bug passes verification.
pub const BUG_ORACLE_SIM_ROUNDS: usize = 4;

/// Oracle 4 (for bug-injected cases): the case must be *caught* — some
/// suite fails verification. When every suite passes despite the
/// injected bug, the simulation oracle gets the last word: a trace
/// violating a "proved" invariant is a soundness discrepancy; silence
/// is a missed bug. Either way the injection was not caught cleanly.
pub fn bug_oracle(case: &FuzzCase, sim_seed: u64) -> Result<(), Discrepancy> {
    let v = case.verifier();
    for s in &case.suites {
        if !v.verify_safety_multi(&s.props, &s.inv).all_passed() {
            return Ok(()); // caught by verification
        }
    }
    match sim_oracle(case, sim_seed, BUG_ORACLE_SIM_ROUNDS) {
        Err(d) => Err(Discrepancy::new(
            OracleId::BugMissed,
            format!("injected bug passed verification AND tripped the simulator: {d}"),
        )),
        Ok(()) => Err(Discrepancy::new(
            OracleId::BugMissed,
            "injected bug not caught by any oracle".to_string(),
        )),
    }
}

/// The failing-verification predicate used when minimizing a
/// bug-injected case: true while some suite still fails.
pub fn verification_fails(case: &FuzzCase) -> bool {
    let v = case.verifier();
    case.suites
        .iter()
        .any(|s| !v.verify_safety_multi(&s.props, &s.inv).all_passed())
}

/// One curated injection: a description plus the mutation to apply
/// (returns false when it does not apply to the generated configs).
pub type Injection = (String, fn(&mut [bgp_config::ast::ConfigAst]) -> bool);

/// The curated injected-bug sample for a family: mutations known to
/// violate one of the family's suites (used by the campaign's
/// `--inject` pass and the acceptance tests).
pub fn injection_sample(params: &crate::families::FamilyParams) -> Vec<Injection> {
    use crate::families::FamilyParams;
    match params {
        FamilyParams::Figure1 => vec![(
            "figure1: R1 forgets the transit tag".into(),
            |c: &mut [bgp_config::ast::ConfigAst]| {
                netgen::mutate::drop_community_sets(c, "R1", "FROM-ISP1").is_some()
            },
        )],
        FamilyParams::FullMesh { .. } => vec![(
            "fullmesh: R0 forgets the transit tag".into(),
            |c: &mut [bgp_config::ast::ConfigAst]| {
                netgen::mutate::drop_community_sets(c, "R0", "FROM-EXT").is_some()
            },
        )],
        FamilyParams::Wan(_) => vec![
            (
                "wan: EDGE0 loses its bogon filter".into(),
                |c: &mut [bgp_config::ast::ConfigAst]| {
                    netgen::mutate::drop_prefix_deny(c, "EDGE0", "FROM-PEER0", "BOGONS").is_some()
                },
            ),
            (
                "wan: EDGE0 forgets the peer tag".into(),
                |c: &mut [bgp_config::ast::ConfigAst]| {
                    netgen::mutate::drop_community_sets(c, "EDGE0", "FROM-PEER0").is_some()
                },
            ),
        ],
        FamilyParams::Rr(_) => vec![(
            "rr: the source client forgets the tag".into(),
            |c: &mut [bgp_config::ast::ConfigAst]| {
                netgen::mutate::drop_community_sets(c, "C0-0", "FROM-EXT").is_some()
            },
        )],
        FamilyParams::Stub(_) => vec![(
            "stub: B0 forgets primary provenance".into(),
            |c: &mut [bgp_config::ast::ConfigAst]| {
                netgen::mutate::drop_community_sets(c, "B0", "FROM-PRIMARY").is_some()
            },
        )],
        FamilyParams::HubSpoke(_) => vec![(
            "hubspoke: SP0 forgets the site tag".into(),
            |c: &mut [bgp_config::ast::ConfigAst]| {
                netgen::mutate::drop_community_sets(c, "SP0", "FROM-SITE").is_some()
            },
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::FamilyParams;

    #[test]
    fn cache_poison_oracle_survives_every_corruption_style() {
        let case = FamilyParams::Figure1.build();
        // seed % 3 picks the style: 0 truncates (here: to zero bytes),
        // 3001 flips a bit mid-file, 2 forges every entry checksum.
        for seed in [0u64, 3001, 2] {
            cache_poison_oracle(&case, seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }
}
