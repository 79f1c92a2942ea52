//! Property tests for the `netgen::zoo` corpus.
//!
//! Two contracts back the benchmark's zoo workloads:
//!
//! 1. **Round-trip and verify everywhere**: every corpus entry — at any
//!    seed, any scale-down, and reduced prefix counts — must survive the
//!    full print → parse → lower pipeline and prove both of its property
//!    suites. The generator owes the benchmark a corpus with zero parse
//!    or verification noise, or throughput numbers mean nothing.
//! 2. **Determinism**: generation is a pure function of its parameters,
//!    so a seed names one corpus and the benchmark's pinned counts hold.

use lightyear::engine::Verifier;
use netgen::zoo::{self, ZooParams, CORPUS};
use proptest::prelude::*;

/// Build a scenario and prove both suites, panicking with the failure
/// report otherwise.
fn build_and_verify(params: &ZooParams) {
    let s = zoo::build(params);
    let topo = &s.network.topology;
    let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
    for (name, (props, inv)) in [
        ("peering", s.peering_suite()),
        ("fencing", s.fencing_suite()),
    ] {
        let r = v.clone().verify_safety_multi(&props, &inv);
        assert!(
            r.all_passed(),
            "{} ({} routers, seed {}): {name} suite failed:\n{}",
            params.name,
            params.routers,
            params.seed,
            r.format_failures(topo)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any corpus entry, scaled to a small router count with a random
    /// seed and a reduced bogon prefix list, still builds through the
    /// full config pipeline and proves both suites.
    #[test]
    fn scaled_corpus_entries_roundtrip_and_verify(
        idx in 0usize..CORPUS.len(),
        seed in 0u64..1_000_000,
        bogons in 1usize..=6,
        max_routers in 8usize..=20,
    ) {
        let params = ZooParams::scaled(&CORPUS[idx], max_routers)
            .with_seed(seed)
            .with_bogon_count(bogons);
        build_and_verify(&params);
    }

    /// Generation is a pure function of its parameters: the same params
    /// print the same configs; a different seed differs.
    #[test]
    fn generation_is_a_pure_function_of_params(
        idx in 0usize..CORPUS.len(),
        seed in 0u64..1_000_000,
        max_routers in 8usize..=20,
    ) {
        let params = ZooParams::scaled(&CORPUS[idx], max_routers).with_seed(seed);
        let print = |p: &ZooParams| {
            zoo::configs(p)
                .iter()
                .map(bgp_config::print_config)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(print(&params), print(&params));
        let reseeded = params.clone().with_seed(seed ^ 0x9e3779b97f4a7c15);
        prop_assert_ne!(print(&params), print(&reseeded));
    }
}

/// Every corpus entry at full size round-trips the config pipeline with
/// a reduced prefix count; entries small enough for a debug-mode solver
/// also prove both suites (release proves all of them — and the
/// benchmark's `zoo-homog` workload verifies the largest entry, Kdl, at
/// full size).
#[test]
fn full_corpus_roundtrips_and_small_entries_verify() {
    let verify_cap = if cfg!(debug_assertions) {
        130
    } else {
        usize::MAX
    };
    for entry in CORPUS {
        let params = ZooParams::for_entry(entry).with_bogon_count(2);
        if entry.routers <= verify_cap {
            build_and_verify(&params);
        } else {
            // Build alone exercises print -> parse -> lower for every
            // router of the full-size entry.
            let s = zoo::build(&params);
            assert_eq!(s.network.topology.router_ids().count(), entry.routers);
        }
    }
}
