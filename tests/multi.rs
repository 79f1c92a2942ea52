//! Cross-property shared-encoding verification and unsat-core soundness.
//!
//! `Verifier::verify_safety_batch` runs several property suites as one
//! batch over a union attribute universe, sharing each edge's transfer
//! encoding across all of them. These tests pin the two halves of its
//! soundness contract over randomly generated WANs:
//!
//! * **(a) byte-identity** — every per-suite report of a batch renders
//!   byte-identically to a standalone *fresh* (one instance per check)
//!   run of that suite, passing and failing networks alike: the union
//!   universe's extra atoms never leak into counterexamples, and batch
//!   failures re-derive on fresh instances;
//! * **(b) core soundness** — every unsat core a passing check reports
//!   re-proves the check with *only* the named conjuncts assumed.

use lightyear::engine::{RunMode, Verifier};
use lightyear::invariants::NetworkInvariants;
use lightyear::safety::SafetyProperty;
use netgen::mutate;
use netgen::wan::{self, WanParams};
use proptest::prelude::*;

fn suites_of(s: &wan::Scenario, n: usize) -> Vec<(Vec<SafetyProperty>, NetworkInvariants)> {
    s.peering_predicates()
        .into_iter()
        .take(n)
        .map(|(_, q)| s.peering_property_inputs(&q))
        .collect()
}

fn as_refs(
    owned: &[(Vec<SafetyProperty>, NetworkInvariants)],
) -> Vec<(&[SafetyProperty], &NetworkInvariants)> {
    owned.iter().map(|(p, i)| (p.as_slice(), i)).collect()
}

/// Batch-verify `n` suites over `s` in the given mode and check the
/// contract against standalone fresh runs.
fn check_batch(s: &wan::Scenario, nprops: usize, mode: RunMode) {
    let topo = &s.network.topology;
    let owned = suites_of(s, nprops);
    let refs = as_refs(&owned);
    let v = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(mode);
    let multi = v.verify_safety_batch(&refs);
    assert_eq!(multi.reports.len(), owned.len());
    for ((props, inv), got) in owned.iter().zip(&multi.reports) {
        // (a) Byte-identical to the reference oracle on the suite alone.
        let fresh = v.verify_safety_reference(props, inv);
        assert_eq!(fresh.num_checks(), got.num_checks());
        assert_eq!(fresh.to_string(), got.to_string());
        assert_eq!(fresh.format_failures(topo), got.format_failures(topo));
        // (b) Re-solving with only the reported core conjuncts still
        // yields UNSAT (i.e. the reduced check still passes).
        for (check, core) in got.cores() {
            assert_eq!(
                v.check_passes_with_conjuncts(props, inv, check.id, core),
                Some(true),
                "core {core:?} of check #{} does not re-prove it",
                check.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn batch_matches_per_property_fresh_runs(
        regions in 1usize..3,
        routers_per_region in 1usize..3,
        edge_routers in 1usize..4,
        peers_per_edge in 1usize..3,
        seed in 0u64..1000,
        nprops in 2usize..5,
    ) {
        let s = wan::build(&WanParams {
            regions,
            routers_per_region,
            edge_routers,
            peers_per_edge,
            seed,
        });
        check_batch(&s, nprops, RunMode::Sequential);
    }

    #[test]
    fn orchestrated_batch_matches_too(
        edge_routers in 1usize..4,
        seed in 0u64..1000,
        nprops in 2usize..4,
    ) {
        let s = wan::build(&WanParams {
            regions: 2,
            routers_per_region: 2,
            edge_routers,
            peers_per_edge: 2,
            seed,
        });
        check_batch(&s, nprops, RunMode::Parallel);
    }
}

/// The contract holds on a network with a real violation: the failing
/// suite's counterexamples match the fresh run byte-for-byte while the
/// other suites still pass with sound cores.
#[test]
fn batch_with_seeded_bug_localizes_and_matches_fresh() {
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
    // no-private-asn fails under the mutation; the other suites pass.
    check_batch(&s, 7, RunMode::Sequential);
    let owned = suites_of(&s, 7);
    let refs = as_refs(&owned);
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
    let multi = v.verify_safety_batch(&refs);
    assert!(!multi.all_passed(), "mutation must introduce a violation");
    assert!(
        multi.reports.iter().any(|r| r.all_passed()),
        "other suites keep passing"
    );
}
