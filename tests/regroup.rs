//! Solver sessions are per transfer relation, not per edge: a run opens
//! one session for every distinct route-map + ghost-update relation
//! among its executed transfer classes, one per originate edge and one
//! per implication chunk, and answers exactly what the reference oracle
//! (one fresh instance per check) answers. Cores read off a session that
//! served many edges still replay on a fresh instance.
//!
//! Inputs: the `netgen::zoo` Uninett build, and Kdl scaled down — its
//! templated policies give many edges one relation.

use lightyear::check::Report;
use lightyear::engine::{CheckDigests, Verifier};
use lightyear::{NetworkInvariants, SafetyProperty};
use netgen::zoo::{self, ZooParams, ZooScenario, CORPUS};
use std::collections::HashSet;

fn scenario(name: &str, max_routers: usize) -> ZooScenario {
    let entry = CORPUS.iter().find(|e| e.name == name).unwrap();
    zoo::build(&ZooParams::scaled(entry, max_routers))
}

/// The groups a fresh run of one suite must open: its classes' first
/// members (no cache, so every class executes) keyed by their distinct
/// transfer digests, originate edges and implication chunks.
fn expected_groups(report: &Report, digests: &[CheckDigests], jobs: usize) -> usize {
    let mut classes = HashSet::new();
    let (mut relations, mut edges, mut chunks) = (HashSet::new(), HashSet::new(), HashSet::new());
    for (i, (o, d)) in report.outcomes.iter().zip(digests).enumerate() {
        if !classes.insert(d.class) {
            continue;
        }
        match (d.transfer, d.rest) {
            (Some(t), _) => relations.insert(t),
            (None, None) => edges.insert(o.check.edge.expect("originate checks sit on an edge")),
            (None, Some(_)) => chunks.insert(i % jobs),
        };
    }
    relations.len() + edges.len() + chunks.len()
}

/// Run one suite on `jobs` workers and hold its grouping, verdicts and
/// cores to the oracles above.
fn assert_grouped_by_relation(scen: &ZooScenario, suite: (&[SafetyProperty], &NetworkInvariants)) {
    let (props, inv) = suite;
    let (topo, policy) = (&scen.network.topology, &scen.network.policy);
    for jobs in [1, 2] {
        let v = Verifier::new(topo, policy)
            .with_ghost(scen.from_peer_ghost())
            .with_jobs(jobs);
        let report = v.verify_safety_multi(props, inv);
        let digests = v.batch_digests(&[suite]).remove(0);
        assert_eq!(digests.len(), report.num_checks());
        assert_eq!(
            report.exec.groups,
            expected_groups(&report, &digests, jobs),
            "jobs {jobs}: {:?}",
            report.exec
        );

        let reference = v.verify_safety_reference(props, inv);
        assert_eq!(reference.num_checks(), report.num_checks());
        for (got, want) in report.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(
                got.result.passed(),
                want.result.passed(),
                "#{}",
                got.check.id
            );
        }
        assert_eq!(
            report.format_failures(topo),
            reference.format_failures(topo)
        );

        // Dedup copies share their class's formula and core, so one
        // replay per class covers every member.
        let mut replayed = HashSet::new();
        for (o, d) in report.outcomes.iter().zip(&digests) {
            let Some(core) = o.core.as_ref().filter(|_| o.result.passed()) else {
                continue;
            };
            if replayed.insert(d.check) {
                assert_eq!(
                    v.check_passes_with_conjuncts(props, inv, o.check.id, core),
                    Some(true),
                    "#{} core {core:?} does not replay",
                    o.check.id
                );
            }
        }
        assert!(
            !replayed.is_empty(),
            "no session-solved pass carried a core"
        );
    }
}

#[test]
fn uninett_sessions_are_one_per_relation() {
    let scen = scenario("Uninett", usize::MAX);
    let (pp, pi) = scen.peering_suite();
    let (fp, fi) = scen.fencing_suite();
    assert_grouped_by_relation(&scen, (&pp, &pi));
    assert_grouped_by_relation(&scen, (&fp, &fi));
}

#[test]
fn kdl_sessions_are_one_per_relation() {
    let scen = scenario("Kdl", 40);
    let (pp, pi) = scen.peering_suite();
    let (fp, fi) = scen.fencing_suite();
    assert_grouped_by_relation(&scen, (&pp, &pi));
    assert_grouped_by_relation(&scen, (&fp, &fi));
}

/// Figure 3b's claim — a check's size depends on one router's
/// configuration only — is measured on the reference oracle, where each
/// check is its own formula. Sessions now serve many edges and grow
/// with them, so this pins the per-check size where it is defined.
#[test]
fn kdl_reference_query_size_is_pinned() {
    let scen = scenario("Kdl", 40);
    let v = Verifier::new(&scen.network.topology, &scen.network.policy)
        .with_ghost(scen.from_peer_ghost());
    let mut sizes = Vec::new();
    for (props, inv) in [scen.peering_suite(), scen.fencing_suite()] {
        let report = v.verify_safety_reference(&props, &inv);
        let max = |f: fn(&smt::SolverStats) -> u64| {
            report.outcomes.iter().map(|o| f(&o.stats)).max().unwrap()
        };
        sizes.push((max(|s| s.num_vars), max(|s| s.num_clauses)));
    }
    assert_eq!(sizes, KDL40_REFERENCE_MAX);
}

/// `(max vars, max clauses)` of the peering and the fencing suite.
const KDL40_REFERENCE_MAX: [(u64, u64); 2] = [(397, 1276), (157, 434)];
