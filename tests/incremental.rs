//! The run pipeline must be invisible in results.
//!
//! Every run fingerprints and dedups its checks, groups them by
//! encoding base, solves each group on one persistent SMT session
//! (assumption queries + carried learnt clauses) across `jobs` workers,
//! and streams outcomes through a reorder window into a sink. These
//! tests pin the soundness contract end-to-end: for randomly generated
//! WANs — passing and broken alike — what the pipeline renders at any
//! worker count, through the collecting and the streaming sink, is
//! byte-identical to the reference oracle (one fresh solver instance
//! per check). They also cover the failure-result disk cache: spilled
//! failures answer warm runs without re-proving, and tampered/stale
//! entries are rejected by re-validation and re-proved instead of
//! replayed.

use lightyear::engine::{CheckCache, RunMode, Verifier};
use lightyear::symbolic::ConcreteRoute;
use lightyear::Report;
use netgen::mutate;
use netgen::wan::{self, WanParams};
use proptest::prelude::*;
use std::sync::Arc;

/// Re-wrap a forged payload as a valid v3 spill entry: recompute the
/// integrity sum exactly as an attacker who knows the (non-cryptographic)
/// format would, so the entry decodes on reload and the *semantic*
/// re-validation layer is what has to reject it. Corruption-level
/// tampering (bad sums, truncation) is pinned separately in
/// `orchestrator::cache` tests and the CLI poisoned-spill test.
fn wrap_spill_entry(fp_hex: &str, payload: &serde_json::Value) -> serde_json::Value {
    let payload = serde_json::to_string(payload).unwrap();
    let sum = orchestrator::cache::spill_entry_sum(fp_hex, &payload);
    serde_json::Value::Object(vec![
        ("sum".to_string(), serde_json::Value::Str(sum)),
        ("payload".to_string(), serde_json::Value::Str(payload)),
    ])
}

fn assert_reports_byte_identical(topo: &bgp_model::Topology, a: &Report, b: &Report) {
    assert_eq!(a.num_checks(), b.num_checks());
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        assert_eq!(x.check.id, y.check.id);
        assert_eq!(x.check.kind, y.check.kind);
        assert_eq!(
            x.result.passed(),
            y.result.passed(),
            "check #{}",
            x.check.id
        );
    }
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(a.format_failures(topo), b.format_failures(topo));
}

/// Verify one peering suite of `s` on the reference oracle, then through
/// the pipeline at `jobs` ∈ {1, 2, 4} with both sinks — the collecting
/// `Report` and the streaming `ReportSummary` — and demand every
/// rendering is byte-identical to the reference. Returns the reference.
fn compare_to_reference(s: &wan::Scenario, predicate: &str) -> Report {
    let topo = &s.network.topology;
    let (_, q) = s
        .peering_predicates()
        .into_iter()
        .find(|(n, _)| n == predicate)
        .unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    let base = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
    let reference = base.verify_safety_reference(&props, &inv);
    for jobs in [1, 2, 4] {
        let v = base.clone().with_jobs(jobs);
        assert_reports_byte_identical(topo, &reference, &v.verify_safety_multi(&props, &inv));
        let streamed = v.verify_safety_batch_streaming(&[(&props, &inv)], false);
        let [summary] = streamed.summaries.as_slice() else {
            panic!("one suite in, one summary out");
        };
        assert_eq!(reference.num_checks(), summary.num_checks());
        assert!(
            reference
                .failures()
                .iter()
                .map(|f| f.check.id)
                .eq(summary.failures().iter().map(|f| f.check.id)),
            "jobs={jobs}"
        );
        assert_eq!(
            reference.format_failures(topo),
            summary.format_failures(topo)
        );
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn pipeline_matches_reference_on_random_wans(
        regions in 1usize..3,
        routers_per_region in 1usize..3,
        edge_routers in 1usize..4,
        peers_per_edge in 1usize..3,
        seed in 0u64..1000,
        break_it in any::<bool>(),
    ) {
        let params = WanParams {
            regions,
            routers_per_region,
            edge_routers,
            peers_per_edge,
            seed,
        };
        let mut configs = wan::configs(&params);
        // Half the cases lose the private-ASN filter on EDGE0's first
        // peering, so failing outcomes are compared too.
        let broken = break_it
            .then(|| mutate::drop_aspath_filters(&mut configs, "EDGE0", "FROM-PEER0"))
            .flatten();
        let s = wan::build_from_configs(&params, configs);
        let reference = compare_to_reference(&s, "no-private-asn");
        prop_assert_eq!(reference.all_passed(), broken.is_none());
    }
}

/// A pinned broken network, so the failing side of the contract never
/// depends on what the proptest happened to draw.
#[test]
fn pipeline_matches_reference_on_failing_wan() {
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 7,
    };
    let mut configs = wan::configs(&params);
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    let s = wan::build_from_configs(&params, configs);
    let reference = compare_to_reference(&s, "no-private-asn");
    assert!(
        !reference.all_passed(),
        "mutation must introduce a violation"
    );
}

/// Failures spill to the cache and answer warm runs without re-proving
/// (the ROADMAP follow-up this PR closes): the warm run executes zero
/// solver calls yet still reports the violation.
#[test]
fn spilled_failures_answer_warm_runs() {
    let params = WanParams {
        regions: 1,
        routers_per_region: 1,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 3,
    };
    let mut configs = wan::configs(&params);
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    let s = wan::build_from_configs(&params, configs);
    let topo = &s.network.topology;
    let (_, q) = s
        .peering_predicates()
        .into_iter()
        .find(|(n, _)| n == "no-private-asn")
        .unwrap();
    let (props, inv) = s.peering_property_inputs(&q);

    let dir = std::env::temp_dir().join(format!("ly-failspill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cache = Arc::new(CheckCache::new());
    let verifier = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(cache.clone());
    let cold = verifier.verify_safety_multi(&props, &inv);
    assert!(!cold.all_passed());
    let written = lightyear::save_check_cache(&cache, &dir).unwrap();
    assert!(written > 0);

    // Reload from disk into a brand-new cache: failures are durable now.
    let (reloaded, loaded) = lightyear::load_check_cache(&dir).unwrap();
    assert_eq!(loaded, written, "every spilled entry must reload");
    let warm_verifier = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(reloaded);
    let warm = warm_verifier.verify_safety_multi(&props, &inv);
    assert_reports_byte_identical(topo, &cold, &warm);
    assert_eq!(
        warm.exec.executed, 0,
        "valid spilled failures must answer the warm run"
    );
    assert_eq!(warm.exec.invalidated, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged entry whose *input* genuinely violates but whose verdict
/// details (rejected flag, output route) were tampered with must also be
/// rejected: re-validation checks the whole counterexample against what
/// the live transfer actually does, not just that the input still fails.
#[test]
fn forged_verdict_details_are_revalidated_not_replayed() {
    let params = WanParams {
        regions: 1,
        routers_per_region: 1,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 3,
    };
    let mut configs = wan::configs(&params);
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    let s = wan::build_from_configs(&params, configs);
    let topo = &s.network.topology;
    let (_, q) = s
        .peering_predicates()
        .into_iter()
        .find(|(n, _)| n == "no-private-asn")
        .unwrap();
    let (props, inv) = s.peering_property_inputs(&q);

    let dir = std::env::temp_dir().join(format!("ly-forgedspill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(CheckCache::new());
    let verifier = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(cache.clone());
    let cold = verifier.verify_safety_multi(&props, &inv);
    assert!(!cold.all_passed());
    lightyear::save_check_cache(&cache, &dir).unwrap();

    // Tamper: keep each failure's input but flip it to a rejection with
    // no output — a fabricated verdict over a genuinely-failing input.
    let path = dir.join("cache.json");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let mut forged_any = false;
    let tampered = match doc {
        serde_json::Value::Object(fields) => serde_json::Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k != "entries" {
                        return (k, v);
                    }
                    let serde_json::Value::Object(entries) = v else {
                        panic!("entries must be an object");
                    };
                    let out: Vec<(String, serde_json::Value)> = entries
                        .into_iter()
                        .map(|(fp, entry)| {
                            let inner: serde_json::Value =
                                serde_json::from_str(entry["payload"].as_str().unwrap()).unwrap();
                            if inner["pass"].as_bool() == Some(false) {
                                forged_any = true;
                                let input = inner["input"].clone();
                                let forged = serde_json::json!({
                                    "pass": false,
                                    "vars": 1,
                                    "clauses": 1,
                                    "rejected": true,
                                    "input": input,
                                    "output": serde_json::Value::Null,
                                });
                                let wrapped = wrap_spill_entry(&fp, &forged);
                                (fp, wrapped)
                            } else {
                                (fp, entry)
                            }
                        })
                        .collect();
                    (k, serde_json::Value::Object(out))
                })
                .collect(),
        ),
        other => other,
    };
    assert!(forged_any, "the cold run must have spilled a failure");
    std::fs::write(&path, serde_json::to_string_pretty(&tampered).unwrap()).unwrap();

    let (reloaded, _) = lightyear::load_check_cache(&dir).unwrap();
    let warm = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(reloaded)
        .verify_safety_multi(&props, &inv);
    // The forged verdict is discarded and the check re-proved: the warm
    // report matches the cold one byte-for-byte (true output route, not
    // the fabricated rejection).
    assert_reports_byte_identical(topo, &cold, &warm);
    assert!(warm.exec.invalidated > 0, "{:?}", warm.exec);
    assert!(warm.exec.executed > 0, "{:?}", warm.exec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tampered or stale failure entries must not be replayed: re-validation
/// pins the spilled counterexample against the live encoding, rejects it,
/// and re-proves the check.
#[test]
fn stale_cached_failures_are_revalidated_not_replayed() {
    let s = wan::build(&WanParams {
        regions: 1,
        routers_per_region: 1,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 11,
    });
    let topo = &s.network.topology;
    let (_, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);

    let dir = std::env::temp_dir().join(format!("ly-stalespill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(CheckCache::new());
    let verifier = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(cache.clone());
    let cold = verifier.verify_safety_multi(&props, &inv);
    assert!(cold.all_passed());
    lightyear::save_check_cache(&cache, &dir).unwrap();

    // Tamper with the spill: rewrite every passing entry as a failure
    // carrying a fabricated counterexample.
    let bogus = ConcreteRoute {
        route: bgp_model::Route::new("203.0.113.0/24".parse().unwrap()),
        comm_other: false,
        aspath_matches: Default::default(),
        ghosts: Default::default(),
    };
    let path = dir.join("cache.json");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let tampered = match doc {
        serde_json::Value::Object(fields) => serde_json::Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k != "entries" {
                        return (k, v);
                    }
                    let serde_json::Value::Object(entries) = v else {
                        panic!("entries must be an object");
                    };
                    let forged: Vec<(String, serde_json::Value)> = entries
                        .into_iter()
                        .map(|(fp, _)| {
                            let payload = serde_json::json!({
                                "pass": false,
                                "vars": 1,
                                "clauses": 1,
                                "rejected": false,
                                "input": serde_json::to_value(&bogus),
                                "output": serde_json::Value::Null,
                            });
                            let wrapped = wrap_spill_entry(&fp, &payload);
                            (fp, wrapped)
                        })
                        .collect();
                    (k, serde_json::Value::Object(forged))
                })
                .collect(),
        ),
        other => other,
    };
    std::fs::write(&path, serde_json::to_string_pretty(&tampered).unwrap()).unwrap();

    let (reloaded, loaded) = lightyear::load_check_cache(&dir).unwrap();
    assert!(loaded > 0, "forged entries must decode");
    let warm_verifier = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(reloaded);
    let warm = warm_verifier.verify_safety_multi(&props, &inv);
    // Every forged failure is rejected by re-validation and re-proved.
    assert_reports_byte_identical(topo, &cold, &warm);
    assert!(warm.all_passed(), "forged failures must not be replayed");
    assert!(
        warm.exec.invalidated > 0,
        "re-validation must fire: {:?}",
        warm.exec
    );
    assert!(warm.exec.executed > 0, "rejected entries must be re-proved");
    let _ = std::fs::remove_dir_all(&dir);
}
