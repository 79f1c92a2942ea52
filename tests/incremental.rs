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
//! per check). They also cover the result cache: a spill holds passes
//! only, so a warm run re-derives every failure on its check's one-shot
//! instance and renders the cold run's bytes; a failure entry, however
//! well wrapped, loads nothing; and a cache kept in memory answers the
//! failures its own process derived.

use lightyear::engine::{CheckCache, Verifier};
use lightyear::{NetworkInvariants, Report, SafetyProperty};
use netgen::mutate;
use netgen::wan::{self, WanParams};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Re-wrap a forged payload as a valid v3 spill entry: recompute the
/// integrity sum exactly as an attacker who knows the (non-cryptographic)
/// format would, so the entry passes its checksum on reload and the
/// decoder is what has to reject it. Corruption-level
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

/// The small broken WAN the cache tests share: EDGE1's import from
/// PEER1 lost its private-ASN filter, so `no-private-asn` fails there.
fn broken_wan() -> wan::Scenario {
    let params = WanParams {
        regions: 1,
        routers_per_region: 1,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 3,
    };
    let mut configs = wan::configs(&params);
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    wan::build_from_configs(&params, configs)
}

/// The `no-private-asn` suite of `s`.
fn no_private_asn(s: &wan::Scenario) -> (Vec<SafetyProperty>, NetworkInvariants) {
    let (_, q) = s
        .peering_predicates()
        .into_iter()
        .find(|(n, _)| n == "no-private-asn")
        .unwrap();
    s.peering_property_inputs(&q)
}

/// A verifier over `s` on two workers, with `cache` attached.
fn cached_verifier(s: &wan::Scenario, cache: Arc<CheckCache>) -> Verifier<'_> {
    Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_jobs(2)
        .with_cache(cache)
}

/// The distinct fingerprints of a report's failing checks: its failing
/// classes.
fn failing_classes(
    v: &Verifier,
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
    report: &Report,
) -> BTreeSet<String> {
    let fps = v.check_fingerprints(props, inv);
    (report.failures().iter())
        .map(|f| fps[f.check.id].to_hex())
        .collect()
}

/// Every entry payload of the spill in `dir`.
fn spill_payloads(dir: &Path) -> Vec<(String, serde_json::Value)> {
    let text = std::fs::read_to_string(dir.join("cache.json")).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    (doc["entries"].as_object().unwrap().iter())
        .map(|(fp, entry)| {
            let payload = serde_json::from_str(entry["payload"].as_str().unwrap()).unwrap();
            (fp.clone(), payload)
        })
        .collect()
}

/// Rewrite the spill in `dir` to hold exactly `entries`, each wrapped
/// with a valid integrity sum (see [`wrap_spill_entry`]).
fn write_spill(dir: &Path, entries: &[(String, serde_json::Value)]) {
    let path = dir.join("cache.json");
    let mut doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let wrapped = (entries.iter())
        .map(|(fp, payload)| (fp.clone(), wrap_spill_entry(fp, payload)))
        .collect();
    let serde_json::Value::Object(fields) = &mut doc else {
        panic!("a spill is an object");
    };
    for (k, v) in fields.iter_mut() {
        if k == "entries" {
            *v = serde_json::Value::Object(wrapped);
            break;
        }
    }
    std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap()).unwrap();
}

/// The failure form spills held before failures stopped spilling.
fn old_failure_payload() -> serde_json::Value {
    serde_json::json!({
        "pass": false,
        "vars": 1,
        "clauses": 1,
        "rejected": true,
        "input": "forged",
        "output": serde_json::Value::Null,
    })
}

fn temp_spill_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ly-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A failing run spills its passes only, and a warm run from that spill
/// re-solves exactly its failing classes and renders the cold run's
/// bytes: every counterexample is re-derived, none is replayed.
#[test]
fn failing_runs_spill_passes_and_warm_runs_rederive_failures() {
    let s = broken_wan();
    let topo = &s.network.topology;
    let (props, inv) = no_private_asn(&s);
    let dir = temp_spill_dir("failspill");

    let cache = Arc::new(CheckCache::new());
    let v = cached_verifier(&s, cache.clone());
    let cold = v.verify_safety_multi(&props, &inv);
    assert!(!cold.all_passed());
    let failing = failing_classes(&v, &props, &inv, &cold);
    assert!(!failing.is_empty());
    let written = lightyear::save_check_cache(&cache, &dir).unwrap();
    // The in-memory cache keeps the failures; the spill does not.
    assert_eq!(written + failing.len(), cache.len());
    let payloads = spill_payloads(&dir);
    assert_eq!(payloads.len(), written);
    assert!(
        payloads
            .iter()
            .all(|(_, p)| p["pass"].as_bool() == Some(true)),
        "a failure was spilled"
    );

    let (reloaded, loaded) = lightyear::load_pass_cache(&dir).unwrap();
    assert_eq!(loaded, written, "every spilled pass reloads");
    let warm = cached_verifier(&s, reloaded).verify_safety_multi(&props, &inv);
    assert_reports_byte_identical(topo, &cold, &warm);
    assert_eq!(warm.exec.executed, failing.len(), "{:?}", warm.exec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failure entry in the old spill form, wrapped with a valid integrity
/// sum under a failing class's own key, loads nothing: the warm run
/// re-derives that class and moves no report byte.
#[test]
fn hand_wrapped_failure_entries_load_nothing() {
    let s = broken_wan();
    let topo = &s.network.topology;
    let (props, inv) = no_private_asn(&s);
    let dir = temp_spill_dir("forgedspill");

    let cache = Arc::new(CheckCache::new());
    let v = cached_verifier(&s, cache.clone());
    let cold = v.verify_safety_multi(&props, &inv);
    let written = lightyear::save_check_cache(&cache, &dir).unwrap();
    let failing = failing_classes(&v, &props, &inv, &cold);
    let mut entries = spill_payloads(&dir);
    entries.extend(failing.iter().map(|fp| (fp.clone(), old_failure_payload())));
    write_spill(&dir, &entries);

    let (reloaded, loaded) = lightyear::load_pass_cache(&dir).unwrap();
    assert_eq!(loaded, written, "the failure entries load nothing");
    let warm = cached_verifier(&s, reloaded).verify_safety_multi(&props, &inv);
    assert_reports_byte_identical(topo, &cold, &warm);
    assert_eq!(warm.exec.executed, failing.len(), "{:?}", warm.exec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A passing spill rewritten entry by entry as forged failures loads
/// nothing, and the network still verifies.
#[test]
fn a_spill_forged_into_failures_still_verifies() {
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
    let dir = temp_spill_dir("stalespill");

    let cache = Arc::new(CheckCache::new());
    let cold = cached_verifier(&s, cache.clone()).verify_safety_multi(&props, &inv);
    assert!(cold.all_passed());
    assert!(lightyear::save_check_cache(&cache, &dir).unwrap() > 0);
    let forged: Vec<(String, serde_json::Value)> = (spill_payloads(&dir).into_iter())
        .map(|(fp, _)| (fp, old_failure_payload()))
        .collect();
    write_spill(&dir, &forged);

    let (reloaded, loaded) = lightyear::load_pass_cache(&dir).unwrap();
    assert_eq!(loaded, 0, "forged failures must not load");
    let warm = cached_verifier(&s, reloaded).verify_safety_multi(&props, &inv);
    assert!(warm.all_passed(), "forged failures must not be replayed");
    assert_reports_byte_identical(topo, &cold, &warm);
    assert_eq!(warm.exec.executed, cold.exec.executed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache kept in memory answers the failures this process derived: a
/// second run on the same `Arc` executes nothing and renders the first
/// run's bytes.
#[test]
fn an_in_memory_cache_answers_its_own_failures() {
    let s = broken_wan();
    let topo = &s.network.topology;
    let (props, inv) = no_private_asn(&s);
    let cache = Arc::new(CheckCache::new());
    let first = cached_verifier(&s, cache.clone()).verify_safety_multi(&props, &inv);
    assert!(!first.all_passed());
    let second = cached_verifier(&s, cache).verify_safety_multi(&props, &inv);
    assert_eq!(second.exec.executed, 0, "{:?}", second.exec);
    assert_reports_byte_identical(topo, &first, &second);
}
