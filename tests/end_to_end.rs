//! End-to-end integration tests: configuration text through parsing,
//! lowering, verification (Lightyear and Minesweeper) and localization.

use delta::diff_configs;
use lightyear::check::CheckKind;
use lightyear::engine::{RunMode, Verifier};
use lightyear::invariants::Location;
use lightyear::reverify::ReverifyEngine;
use minesweeper::{Minesweeper, MsOutcome};
use netgen::{edits, figure1, fullmesh, mutate};

#[test]
fn figure1_safety_and_liveness_verify() {
    let s = figure1::build();
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());

    let safety = v.verify_safety(&s.no_transit, &s.no_transit_inv);
    assert!(
        safety.all_passed(),
        "{}",
        safety.format_failures(&s.network.topology)
    );

    let liveness = v.verify_liveness(&s.customer_liveness).unwrap();
    assert!(
        liveness.all_passed(),
        "{}",
        liveness.format_failures(&s.network.topology)
    );
}

#[test]
fn lightyear_and_minesweeper_agree_on_correct_network() {
    let s = figure1::build();
    let ly = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .verify_safety(&s.no_transit, &s.no_transit_inv);
    let ms = Minesweeper::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .verify(s.no_transit.location, &s.no_transit.pred);
    assert!(ly.all_passed());
    assert!(ms.verified());
}

#[test]
fn lightyear_and_minesweeper_agree_on_broken_network() {
    let mut configs = figure1::configs();
    mutate::drop_community_sets(&mut configs, "R1", "FROM-ISP1").unwrap();
    let s = figure1::build_from_configs(configs);

    let ly = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .verify_safety(&s.no_transit, &s.no_transit_inv);
    assert!(!ly.all_passed());

    let ms = Minesweeper::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .verify(s.no_transit.location, &s.no_transit.pred);
    match ms.outcome {
        MsOutcome::Violated(cex) => {
            // The monolithic counterexample is a route from ISP1 reaching
            // ISP2 — global, not localized.
            assert!(cex.ghosts["FromISP1"]);
        }
        MsOutcome::Verified => panic!("Minesweeper must also find the violation"),
    }
}

#[test]
fn localization_points_at_injected_filter() {
    // Lightyear's failed check names the exact route map; Minesweeper's
    // counterexample (previous test) only gives a global route.
    let mut configs = figure1::configs();
    mutate::drop_community_sets(&mut configs, "R1", "FROM-ISP1").unwrap();
    let s = figure1::build_from_configs(configs);
    let report = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .verify_safety(&s.no_transit, &s.no_transit_inv);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    let f = failures[0];
    assert_eq!(f.check.kind, CheckKind::Import);
    assert_eq!(f.check.map_name.as_deref(), Some("FROM-ISP1"));
    let edge = f.check.edge.unwrap();
    assert_eq!(s.network.topology.edge_name(edge), "ISP1 -> R1");
}

#[test]
fn fullmesh_verifies_and_counts_checks_linearly() {
    let mut last_checks = 0;
    for n in [3, 6, 9] {
        let s = fullmesh::build(n);
        let report = Verifier::new(&s.network.topology, &s.network.policy)
            .with_ghost(s.ghost.clone())
            .verify_safety(&s.property, &s.invariants);
        assert!(report.all_passed());
        // Checks grow with edges (quadratic in N for a mesh) but each
        // check's size is constant.
        assert!(report.num_checks() > last_checks);
        last_checks = report.num_checks();
        assert!(report.max_vars() < 2_000, "per-check size must stay small");
    }
}

#[test]
fn parallel_and_sequential_reports_match_on_fullmesh() {
    let s = fullmesh::build(5);
    let seq = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .with_mode(RunMode::Sequential)
        .verify_safety(&s.property, &s.invariants);
    let par = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .with_mode(RunMode::Parallel)
        .verify_safety(&s.property, &s.invariants);
    assert_eq!(seq.num_checks(), par.num_checks());
    for (a, b) in seq.outcomes.iter().zip(par.outcomes.iter()) {
        assert_eq!(a.check.id, b.check.id);
        assert_eq!(a.result.passed(), b.result.passed());
    }
}

#[test]
fn incremental_is_a_subset_and_consistent() {
    let base = fullmesh::configs(6);
    let mut edited = base.clone();
    edits::set_local_pref(&mut edited, "R0", "FROM-EXT", 120).unwrap();
    let changed = diff_configs(&base, &edited).changed_routers();
    assert_eq!(changed, vec!["R0".to_string()]);

    let mut engine = ReverifyEngine::new();
    let round = |engine: &mut ReverifyEngine, s: &fullmesh::Scenario, changed| {
        let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
        let props = std::slice::from_ref(&s.property);
        let (report, stats) = engine.reverify(&v, props, &s.invariants, changed);
        let fresh = v.verify_safety(&s.property, &s.invariants);
        assert_eq!(report.to_string(), fresh.to_string());
        assert!(report.all_passed());
        stats
    };
    let full = round(&mut engine, &fullmesh::build_from_configs(base), None);
    assert_eq!(full.dirty, full.total);
    // Only checks on R0's edges re-solve: the delta neighborhood is a
    // strict subset of the run, and the dirty set stays inside it.
    let s = fullmesh::build_from_configs(edited);
    let inc = round(&mut engine, &s, Some(&changed));
    assert_eq!(inc.total, full.total);
    assert!(0 < inc.dirty && inc.dirty <= inc.candidates, "{inc:?}");
    assert!(inc.candidates < inc.total, "{inc:?}");
}

#[test]
fn figure1_subsumption_check_lists_property_edge() {
    let s = figure1::build();
    let report = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.ghost.clone())
        .verify_safety(&s.no_transit, &s.no_transit_inv);
    let sub: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.check.kind == CheckKind::Subsumption)
        .collect();
    assert_eq!(sub.len(), 1);
    assert_eq!(
        sub[0].check.location,
        Location::Edge(match s.no_transit.location {
            Location::Edge(e) => e,
            _ => unreachable!(),
        })
    );
}
