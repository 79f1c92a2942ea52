//! Greedy case minimization.
//!
//! The compat `proptest` shim has no shrinking, so discrepancies found
//! by the campaign runner are reduced here instead: re-run the failing
//! oracle after every candidate reduction and keep the ones that still
//! fail. Two reduction spaces:
//!
//! * **edit sequences** (for [`OracleId::EditSequence`] failures):
//!   drop edit seeds one at a time — the remaining sequence replays
//!   deterministically from the family's pristine configs;
//! * **configurations** (everything else): drop whole routers, then
//!   route-map entries, then neighbor blocks, then unreferenced list
//!   objects, in repeated passes until a fixed point.
//!
//! The result is a **replayable repro directory**: the reduced configs
//! as `*.cfg` plus `repro.json` naming the family, oracle and seeds, so
//! `lightyear fuzz --replay DIR` (or [`replay`]) re-runs exactly the
//! failing check.

use crate::families::{case_size, FamilyParams};
use crate::oracle::{parity_oracle, sim_oracle, verification_fails, Discrepancy, OracleId};
use crate::try_quiet;
use bgp_config::ast::ConfigAst;
use bgp_config::{parse_config, print_config};
use std::path::Path;

/// A failing case, self-contained enough to re-run and reduce.
#[derive(Clone, Debug)]
pub struct FailingCase {
    /// The generator parameters.
    pub params: FamilyParams,
    /// The (possibly reduced) configuration set the oracle fails on.
    /// For [`OracleId::EditSequence`] this is ignored — the sequence
    /// replays from the family's pristine configs.
    pub configs: Vec<ConfigAst>,
    /// The edit-seed sequence ([`OracleId::EditSequence`] only).
    pub edit_seeds: Vec<u64>,
    /// The oracle that fails.
    pub oracle: OracleId,
    /// The deterministic simulation seed the oracle runs under.
    pub sim_seed: u64,
    /// Announcement rounds the simulation oracle ran with — recorded so
    /// a discrepancy that first appears in a late round still
    /// reproduces under minimization and `--replay`.
    pub sim_rounds: usize,
    /// Human description of the original discrepancy.
    pub detail: String,
}

/// Fallback simulation round count for repro files that predate the
/// recorded `sim_rounds` field.
const REPLAY_SIM_ROUNDS: usize = 4;

/// Re-run a failing case's oracle. `Some(d)` when it still fails,
/// `None` when it passes (or the candidate no longer builds).
pub fn rerun(fc: &FailingCase) -> Option<Discrepancy> {
    let fc = fc.clone();
    try_quiet(move || match fc.oracle {
        OracleId::EditSequence => {
            // Recorded seeds replay through the same driver that
            // generated them, so every failure mode — including
            // unbuildable configs and cosmetic-classification
            // disagreements — is re-checked identically.
            let case = fc.params.build();
            crate::oracle::run_edit_sequence(&case, &fc.edit_seeds)
                .1
                .err()
        }
        OracleId::SimGrid => {
            let case = fc.params.build_from(fc.configs.clone());
            sim_oracle(&case, fc.sim_seed, fc.sim_rounds).err()
        }
        OracleId::ModeParity => {
            let case = fc.params.build_from(fc.configs.clone());
            parity_oracle(&case).err()
        }
        OracleId::Verify => {
            let case = fc.params.build_from(fc.configs.clone());
            verification_fails(&case).then(|| Discrepancy {
                oracle: OracleId::Verify,
                detail: "verification still fails".into(),
            })
        }
        OracleId::BugMissed => {
            // The failure is the bug *escaping*: the case reproduces
            // while bug_oracle still objects (missed bug, or the
            // soundness-discrepancy shape where the simulator trips a
            // "proved" invariant).
            let case = fc.params.build_from(fc.configs.clone());
            crate::oracle::bug_oracle(&case, fc.sim_seed).err()
        }
        OracleId::CachePoison => {
            // sim_seed doubles as the recorded corruption seed.
            let case = fc.params.build_from(fc.configs.clone());
            crate::oracle::cache_poison_oracle(&case, fc.sim_seed).err()
        }
    })
    .flatten()
}

/// Greedily minimize a failing case. The returned case still fails its
/// oracle (re-verified after every kept reduction) and is never larger
/// than the input.
pub fn minimize(fc: &FailingCase) -> FailingCase {
    let mut best = fc.clone();
    if best.oracle == OracleId::EditSequence {
        // Reduce the edit sequence.
        let mut i = 0;
        while i < best.edit_seeds.len() {
            let mut candidate = best.clone();
            candidate.edit_seeds.remove(i);
            if rerun(&candidate).is_some() {
                best = candidate; // still fails without this edit
            } else {
                i += 1;
            }
        }
        return best;
    }
    // Config-space reduction, repeated passes to a fixed point.
    for _pass in 0..4 {
        let before = case_size(&best.configs);
        // 1. Whole routers.
        let mut i = 0;
        while i < best.configs.len() {
            if best.configs.len() <= 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.configs.remove(i);
            if rerun(&candidate).is_some() {
                best = candidate;
            } else {
                i += 1;
            }
        }
        // 2. Route-map entries.
        for ci in 0..best.configs.len() {
            let maps: Vec<String> = best.configs[ci].route_maps.keys().cloned().collect();
            for m in maps {
                let mut ei = 0;
                loop {
                    let len = best.configs[ci]
                        .route_maps
                        .get(&m)
                        .map(Vec::len)
                        .unwrap_or(0);
                    if ei >= len {
                        break;
                    }
                    let mut candidate = best.clone();
                    candidate.configs[ci]
                        .route_maps
                        .get_mut(&m)
                        .unwrap()
                        .remove(ei);
                    if rerun(&candidate).is_some() {
                        best = candidate;
                    } else {
                        ei += 1;
                    }
                }
            }
        }
        // 3. Neighbor blocks.
        for ci in 0..best.configs.len() {
            let addrs: Vec<String> = best.configs[ci]
                .router_bgp
                .as_ref()
                .map(|b| b.neighbors.keys().cloned().collect())
                .unwrap_or_default();
            for addr in addrs {
                let mut candidate = best.clone();
                if let Some(b) = candidate.configs[ci].router_bgp.as_mut() {
                    b.neighbors.remove(&addr);
                }
                if rerun(&candidate).is_some() {
                    best = candidate;
                }
            }
        }
        // 4. List objects (prefix / community / as-path).
        for ci in 0..best.configs.len() {
            let names: Vec<(u8, String)> = {
                let c = &best.configs[ci];
                c.prefix_lists
                    .keys()
                    .map(|n| (0u8, n.clone()))
                    .chain(c.community_lists.keys().map(|n| (1u8, n.clone())))
                    .chain(c.aspath_acls.keys().map(|n| (2u8, n.clone())))
                    .collect()
            };
            for (kind, name) in names {
                let mut candidate = best.clone();
                let c = &mut candidate.configs[ci];
                match kind {
                    0 => {
                        c.prefix_lists.remove(&name);
                    }
                    1 => {
                        c.community_lists.remove(&name);
                    }
                    _ => {
                        c.aspath_acls.remove(&name);
                    }
                }
                if rerun(&candidate).is_some() {
                    best = candidate;
                }
            }
        }
        if case_size(&best.configs) == before {
            break; // fixed point
        }
    }
    best
}

/// Write a failing case as a replayable repro directory: the configs as
/// `*.cfg` plus `repro.json`. Any `*.cfg` left over from a previous
/// repro in the same directory is removed first — `read_repro` loads
/// every `.cfg` it finds, so a stale foreign router file would replay a
/// merged, wrong network.
pub fn write_repro(fc: &FailingCase, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.extension().and_then(|x| x.to_str()) == Some("cfg") {
            std::fs::remove_file(&p)?;
        }
    }
    if fc.oracle != OracleId::EditSequence {
        for c in &fc.configs {
            std::fs::write(dir.join(format!("{}.cfg", c.hostname)), print_config(c))?;
        }
    }
    let json = serde_json::json!({
        "params": fc.params.encode(),
        "oracle": fc.oracle.name(),
        "sim_seed": fc.sim_seed,
        "sim_rounds": fc.sim_rounds as i64,
        "edit_seeds": fc.edit_seeds.iter().map(|&s| s as i64).collect::<Vec<_>>(),
        "detail": fc.detail,
    });
    std::fs::write(
        dir.join("repro.json"),
        serde_json::to_string_pretty(&json).unwrap_or_default(),
    )
}

/// Load a repro directory back into a [`FailingCase`].
pub fn read_repro(dir: &Path) -> Result<FailingCase, String> {
    let text = std::fs::read_to_string(dir.join("repro.json"))
        .map_err(|e| format!("cannot read {}/repro.json: {e}", dir.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("bad repro.json: {e}"))?;
    let params = v["params"]
        .as_str()
        .and_then(FamilyParams::decode)
        .ok_or("repro.json: bad params")?;
    let oracle = v["oracle"]
        .as_str()
        .and_then(OracleId::parse)
        .ok_or("repro.json: bad oracle")?;
    let sim_seed = v["sim_seed"].as_u64().unwrap_or(0);
    let sim_rounds = v["sim_rounds"]
        .as_u64()
        .map(|n| n as usize)
        .unwrap_or(REPLAY_SIM_ROUNDS);
    let edit_seeds: Vec<u64> = v["edit_seeds"]
        .as_array()
        .map(|xs| xs.iter().filter_map(|x| x.as_u64()).collect())
        .unwrap_or_default();
    let mut configs = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("cfg"))
        .collect();
    paths.sort();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("cannot read {p:?}: {e}"))?;
        configs.push(parse_config(&text).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    if configs.is_empty() {
        configs = params.configs();
    }
    Ok(FailingCase {
        params,
        configs,
        edit_seeds,
        oracle,
        sim_seed,
        sim_rounds,
        detail: v["detail"].as_str().unwrap_or("").to_string(),
    })
}

/// Replay a repro directory: `Some(discrepancy)` when the failure still
/// reproduces.
pub fn replay(dir: &Path) -> Result<Option<Discrepancy>, String> {
    Ok(rerun(&read_repro(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::FamilyId;

    /// An injected bug on a deliberately oversized RR case must minimize
    /// to a strictly smaller, still-failing, replayable repro.
    #[test]
    fn injected_bug_minimizes_to_smaller_repro() {
        let params = FamilyParams::Rr(netgen::rr::RrParams {
            reflectors: 2,
            clients_per_reflector: 2,
            seed: 0,
        });
        let mut configs = params.configs();
        assert!(netgen::mutate::drop_community_sets(&mut configs, "C0-0", "FROM-EXT").is_some());
        let fc = FailingCase {
            params,
            configs,
            edit_seeds: Vec::new(),
            oracle: OracleId::Verify,
            sim_seed: 1,
            sim_rounds: 4,
            detail: "test".into(),
        };
        assert!(
            rerun(&fc).is_some(),
            "the injected bug must fail verification"
        );
        let original = case_size(&fc.configs);
        let min = minimize(&fc);
        assert!(rerun(&min).is_some(), "minimized case must still fail");
        assert!(
            case_size(&min.configs) < original,
            "minimizer must strictly reduce: {} -> {}",
            original,
            case_size(&min.configs)
        );

        // Round-trip through a repro directory.
        let dir = std::env::temp_dir().join(format!("lightyear-fuzz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_repro(&min, &dir).unwrap();
        let replayed = replay(&dir).unwrap();
        assert!(replayed.is_some(), "repro must replay to the same failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `portfolio-parity` named the oracle that raced solver clones; it
    /// went with the racing. A repro naming it is a typed refusal.
    #[test]
    fn retired_oracle_name_is_a_bad_repro() {
        let dir = std::env::temp_dir().join(format!(
            "lightyear-fuzz-retired-oracle-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("repro.json"),
            r#"{"params": "rr:2,2,0", "oracle": "portfolio-parity"}"#,
        )
        .unwrap();
        let err = replay(&dir).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(err, "repro.json: bad oracle");
    }

    #[test]
    fn params_decode_covers_all_families() {
        for f in FamilyId::all() {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
            let p = FamilyParams::random(*f, &mut rng);
            assert_eq!(FamilyParams::decode(&p.encode()).unwrap().family(), *f);
        }
    }
}
