//! The campaign runner: seeded case generation over the topology families,
//! all oracles per case, injected-bug detection sweeps, and throughput
//! accounting for the CI benchmark record.

use crate::families::{FamilyId, FamilyParams};
use crate::minimize::FailingCase;
use crate::oracle::{
    bug_oracle, cache_poison_oracle, edit_oracle, parity_oracle, sim_oracle, Discrepancy, OracleId,
    BUG_ORACLE_SIM_ROUNDS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed: the whole campaign is a pure function of it.
    pub seed: u64,
    /// Cases to run.
    pub cases: usize,
    /// Families on the menu (round-robin).
    pub families: Vec<FamilyId>,
    /// Edit-sequence length per case.
    pub edit_steps: usize,
    /// Announcement rounds per case for the simulation oracle (each
    /// round runs the full 2³ `SimOptions` grid).
    pub sim_rounds: usize,
    /// Also sweep the curated injected-bug sample once per family cycle.
    pub inject: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            cases: 50,
            families: FamilyId::all().to_vec(),
            edit_steps: 3,
            sim_rounds: 3,
            inject: true,
        }
    }
}

/// What a campaign did.
#[derive(Clone, Debug, Default)]
pub struct CampaignOutcome {
    /// Cases completed (including the one that tripped, if any).
    pub cases_run: usize,
    /// Cases per family.
    pub per_family: BTreeMap<String, usize>,
    /// Wall-clock per family (case generation plus every oracle).
    pub per_family_elapsed: BTreeMap<String, Duration>,
    /// Cumulative wall-clock per oracle across the whole campaign.
    pub per_oracle_elapsed: BTreeMap<String, Duration>,
    /// Injected bugs swept / caught.
    pub injections: usize,
    /// Injected bugs caught by an oracle.
    pub injections_caught: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The first discrepancy, with enough context to minimize, if any.
    pub failure: Option<(FailingCase, Discrepancy)>,
}

impl CampaignOutcome {
    /// Campaign throughput in cases per second.
    pub fn cases_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.cases_run as f64 / secs
        } else {
            0.0
        }
    }

    /// The one-line human summary (printed by `lightyear fuzz` and
    /// grepped by the CI smoke step).
    pub fn summary(&self) -> String {
        let fams: Vec<String> = self
            .per_family
            .iter()
            .map(|(f, n)| format!("{f} {n}"))
            .collect();
        let mut s = format!(
            "fuzz: {} cases green across {} families [{}]",
            self.cases_run,
            self.per_family.len(),
            fams.join(", ")
        );
        if self.injections > 0 {
            s.push_str(&format!(
                "; {}/{} injected bugs caught",
                self.injections_caught, self.injections
            ));
        }
        s.push_str(&format!(
            "; {:.1} cases/s ({:?})",
            self.cases_per_sec(),
            self.elapsed
        ));
        if let Some((_, d)) = &self.failure {
            s = format!("fuzz: DISCREPANCY after {} cases: {d}", self.cases_run);
        }
        s
    }

    /// The machine-readable record written to `BENCH_fuzz.json`.
    pub fn to_json(&self, cfg: &CampaignConfig) -> serde_json::Value {
        let per_family = serde_json::Value::Object(
            self.per_family
                .iter()
                .map(|(f, &n)| {
                    let secs = self
                        .per_family_elapsed
                        .get(f)
                        .map(Duration::as_secs_f64)
                        .unwrap_or(0.0);
                    let rate = if secs > 0.0 { n as f64 / secs } else { 0.0 };
                    (
                        f.clone(),
                        serde_json::json!({
                            "cases": n as u64,
                            "elapsed_seconds": secs,
                            "cases_per_sec": rate,
                        }),
                    )
                })
                .collect(),
        );
        let per_oracle = serde_json::Value::Object(
            self.per_oracle_elapsed
                .iter()
                .map(|(o, d)| {
                    (
                        o.clone(),
                        serde_json::json!({ "elapsed_seconds": d.as_secs_f64() }),
                    )
                })
                .collect(),
        );
        serde_json::json!({
            "seed": cfg.seed as i64,
            "cases": self.cases_run as i64,
            "families": self.per_family.keys().cloned().collect::<Vec<_>>(),
            "per_family": per_family,
            "per_oracle": per_oracle,
            "injections": self.injections as i64,
            "injections_caught": self.injections_caught as i64,
            "elapsed_seconds": self.elapsed.as_secs_f64(),
            "cases_per_sec": self.cases_per_sec(),
            "green": self.failure.is_none(),
        })
    }
}

/// SplitMix64: the per-case seed derivation.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The live progress counter for a family's completed cases, scraped
/// mid-campaign through `fuzz --listen` (the outcome map carries the
/// same totals post-hoc).
fn family_counter(f: FamilyId) -> &'static str {
    match f {
        FamilyId::Figure1 => "fuzz.cases.figure1",
        FamilyId::FullMesh => "fuzz.cases.fullmesh",
        FamilyId::Wan => "fuzz.cases.wan",
        FamilyId::Rr => "fuzz.cases.rr",
        FamilyId::Stub => "fuzz.cases.stub",
        FamilyId::HubSpoke => "fuzz.cases.hubspoke",
    }
}

/// The live wall-time counter (nanoseconds) for one oracle.
fn oracle_counter(oracle: &str) -> &'static str {
    match oracle {
        "sim_grid" => "fuzz.oracle.sim_grid_ns",
        "mode_parity" => "fuzz.oracle.mode_parity_ns",
        "edit_sequence" => "fuzz.oracle.edit_sequence_ns",
        "cache_poison" => "fuzz.oracle.cache_poison_ns",
        _ => "fuzz.oracle.bug_injection_ns",
    }
}

/// Run a campaign. Stops at the first discrepancy (recorded with a
/// ready-to-minimize [`FailingCase`]); otherwise runs to `cfg.cases`.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    let t0 = Instant::now();
    let mut out = CampaignOutcome::default();
    assert!(!cfg.families.is_empty(), "campaign needs >= 1 family");
    for i in 0..cfg.cases {
        let family = cfg.families[i % cfg.families.len()];
        let t_case = Instant::now();
        let failure = run_case(cfg, i, family, &mut out);
        out.cases_run = i + 1;
        *out.per_family.entry(family.name().to_string()).or_default() += 1;
        *out.per_family_elapsed
            .entry(family.name().to_string())
            .or_default() += t_case.elapsed();
        obs::add("fuzz.cases", 1);
        obs::add(family_counter(family), 1);
        if let Some(f) = failure {
            out.failure = Some(f);
            break;
        }
    }
    out.elapsed = t0.elapsed();
    out
}

/// Charge an oracle invocation's wall time to its cumulative total
/// (and mirror it into the live registry for mid-campaign scrapes).
fn charge(out: &mut CampaignOutcome, oracle: &str, t: Instant) {
    let elapsed = t.elapsed();
    *out.per_oracle_elapsed
        .entry(oracle.to_string())
        .or_default() += elapsed;
    if obs::enabled() {
        obs::add(
            oracle_counter(oracle),
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
        );
        obs::observe(oracle_counter_hist(oracle), elapsed);
    }
}

/// The per-oracle latency histogram behind the counter (quantiles in
/// `/metrics`).
fn oracle_counter_hist(oracle: &str) -> &'static str {
    match oracle {
        "sim_grid" => "fuzz.oracle.sim_grid",
        "mode_parity" => "fuzz.oracle.mode_parity",
        "edit_sequence" => "fuzz.oracle.edit_sequence",
        "cache_poison" => "fuzz.oracle.cache_poison",
        _ => "fuzz.oracle.bug_injection",
    }
}

/// One campaign case: generate, run every oracle (charging each one's
/// wall time), sweep injected bugs on the first family cycle. Returns
/// the first discrepancy, ready to minimize.
fn run_case(
    cfg: &CampaignConfig,
    i: usize,
    family: FamilyId,
    out: &mut CampaignOutcome,
) -> Option<(FailingCase, Discrepancy)> {
    let case_seed = mix(cfg.seed, i as u64);
    let mut rng = StdRng::seed_from_u64(case_seed);
    let params = FamilyParams::random(family, &mut rng);
    let case = params.build();

    // One FailingCase shape per oracle, varying only in what the
    // replay needs (oracle id, configs, seeds).
    let failing = |oracle: OracleId,
                   configs: Vec<bgp_config::ast::ConfigAst>,
                   edit_seeds: Vec<u64>,
                   sim_seed: u64,
                   sim_rounds: usize,
                   d: &Discrepancy| {
        FailingCase {
            params,
            configs,
            edit_seeds,
            oracle,
            sim_seed,
            sim_rounds,
            detail: d.detail.clone(),
        }
    };
    // Oracle 1: simulation grid.
    let sim_seed = mix(case_seed, 1);
    let t = Instant::now();
    let sim = sim_oracle(&case, sim_seed, cfg.sim_rounds);
    charge(out, "sim_grid", t);
    if let Err(d) = sim {
        let fc = failing(
            OracleId::SimGrid,
            case.configs.clone(),
            Vec::new(),
            sim_seed,
            cfg.sim_rounds,
            &d,
        );
        return Some((fc, d));
    }
    // Oracle 2: mode parity.
    let t = Instant::now();
    let parity = parity_oracle(&case);
    charge(out, "mode_parity", t);
    if let Err(d) = parity {
        let fc = failing(
            OracleId::ModeParity,
            case.configs.clone(),
            Vec::new(),
            sim_seed,
            cfg.sim_rounds,
            &d,
        );
        return Some((fc, d));
    }
    // Oracle 3: edit sequences.
    if cfg.edit_steps > 0 {
        let t = Instant::now();
        let (seeds, r) = edit_oracle(&case, mix(case_seed, 2), cfg.edit_steps);
        charge(out, "edit_sequence", t);
        if let Err(d) = r {
            let fc = failing(
                OracleId::EditSequence,
                case.configs.clone(),
                seeds,
                sim_seed,
                cfg.sim_rounds,
                &d,
            );
            return Some((fc, d));
        }
    }
    // Oracle 5: cache poisoning — a corrupted spill re-proves, never
    // replays or panics.
    let poison_seed = mix(case_seed, 5);
    let t = Instant::now();
    let poison = cache_poison_oracle(&case, poison_seed);
    charge(out, "cache_poison", t);
    if let Err(d) = poison {
        let fc = failing(
            OracleId::CachePoison,
            case.configs.clone(),
            Vec::new(),
            poison_seed,
            cfg.sim_rounds,
            &d,
        );
        return Some((fc, d));
    }
    // Injected-bug sweep: once per family cycle.
    if cfg.inject && i < cfg.families.len() {
        for (desc, inject) in crate::oracle::injection_sample(&params) {
            let mut mutated = params.configs();
            if !inject(&mut mutated) {
                continue;
            }
            out.injections += 1;
            obs::add("fuzz.injections", 1);
            let bug_case = params.build_from(mutated.clone());
            let t = Instant::now();
            let caught = bug_oracle(&bug_case, mix(case_seed, 3));
            charge(out, "bug_injection", t);
            match caught {
                Ok(()) => {
                    out.injections_caught += 1;
                    obs::add("fuzz.injections_caught", 1);
                }
                Err(d) => {
                    // The failing condition is the bug ESCAPING, so
                    // the repro's oracle must be BugMissed — a
                    // Verify repro would "reproduce" only while
                    // verification fails, the exact inverse.
                    // (bug_oracle runs its own fixed round count;
                    // sim_rounds is recorded for the escalation
                    // path inside it.)
                    let mut fc = failing(
                        OracleId::BugMissed,
                        mutated,
                        Vec::new(),
                        mix(case_seed, 3),
                        BUG_ORACLE_SIM_ROUNDS,
                        &d,
                    );
                    fc.detail = format!("{desc}: {}", d.detail);
                    return Some((fc, d));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_runs_green_and_catches_injections() {
        let cfg = CampaignConfig {
            seed: 11,
            cases: FamilyId::all().len(),
            edit_steps: 1,
            sim_rounds: 1,
            inject: true,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg);
        assert!(
            out.failure.is_none(),
            "campaign tripped: {}",
            out.failure
                .as_ref()
                .map(|(_, d)| d.to_string())
                .unwrap_or_default()
        );
        assert_eq!(out.cases_run, cfg.cases);
        assert_eq!(out.per_family.len(), FamilyId::all().len());
        assert!(out.injections >= FamilyId::all().len());
        assert_eq!(
            out.injections_caught, out.injections,
            "every curated injected bug must be caught"
        );
        assert!(out.summary().contains("cases green"));
        // Timing accounting: every family that ran has an elapsed
        // entry, and every oracle that ran was charged.
        assert_eq!(
            out.per_family_elapsed.keys().collect::<Vec<_>>(),
            out.per_family.keys().collect::<Vec<_>>()
        );
        for oracle in [
            "sim_grid",
            "mode_parity",
            "edit_sequence",
            "cache_poison",
            "bug_injection",
        ] {
            assert!(
                out.per_oracle_elapsed.contains_key(oracle),
                "missing per-oracle time for {oracle}"
            );
        }
        let json = out.to_json(&cfg);
        let text = serde_json::to_string(&json).unwrap();
        for key in ["per_family", "per_oracle", "cases_per_sec"] {
            assert!(text.contains(key), "campaign record lacks {key}");
        }
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let cfg = CampaignConfig {
            seed: 5,
            cases: 2,
            edit_steps: 1,
            sim_rounds: 1,
            inject: false,
            families: vec![FamilyId::Rr, FamilyId::Stub],
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.per_family, b.per_family);
        assert_eq!(a.cases_run, b.cases_run);
        assert!(a.failure.is_none() && b.failure.is_none());
    }
}
