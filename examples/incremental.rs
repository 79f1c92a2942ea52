//! Incremental re-verification: when one router's configuration changes,
//! only the local checks touching that router need to re-run (§2
//! "Scalability": "the modular approach naturally supports incremental
//! verification when a node is updated").
//!
//! Builds a full-mesh network and verifies it with a `ReverifyEngine`,
//! then re-verifies after two edits, each named by the routers a
//! `delta::diff_configs` changed-set reports: a no-op edit (a route-map
//! rename on R3) re-solves nothing, and a broken R0 import is caught and
//! localized after re-solving only R0's checks.
//!
//! Run with: `cargo run --release --example incremental`

use delta::diff_configs;
use lightyear::engine::Verifier;
use lightyear::reverify::ReverifyEngine;
use lightyear::CheckKind;
use netgen::{edits, fullmesh, mutate};
use std::time::Instant;

fn main() {
    let n = 12;
    let base = fullmesh::configs(n);
    let mut engine = ReverifyEngine::new();
    let mut round = |label: &str, before: &[_], after: &[_]| {
        let s = fullmesh::build_from_configs(after.to_vec());
        let changed = (before != after).then(|| diff_configs(before, after).changed_routers());
        let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
        let t0 = Instant::now();
        let (report, stats) = engine.reverify(
            &v,
            std::slice::from_ref(&s.property),
            &s.invariants,
            changed.as_deref(),
        );
        println!(
            "{label:<24} dirty {:>3}/{} checks in {:?}",
            stats.dirty,
            stats.total,
            t0.elapsed()
        );
        (s, report, stats)
    };

    println!("Full mesh: {n} routers, no-transit property");
    let (_, full, stats) = round("baseline:", &base, &base);
    assert!(full.all_passed());
    assert_eq!(stats.dirty, stats.total, "the baseline is a full run");

    // A no-op edit: R3's import map is renamed. The delta names R3, yet
    // every check's structure is unchanged, so nothing re-solves.
    let mut renamed = base.clone();
    edits::rename_route_map(&mut renamed, "R3", "FROM-EXT", "FROM-EXT-R3").unwrap();
    let (_, report, stats) = round("rename on R3:", &base, &renamed);
    assert!(report.all_passed());
    assert_eq!(stats.dirty, 0, "a no-op edit re-solves nothing: {stats:?}");

    // A real edit: R0's import stops tagging 100:1, breaking the key
    // invariant. The round re-solves R0's neighborhood only, and both
    // catches and localizes the bug.
    println!("\n--- breaking R0's external import, re-verifying incrementally ---");
    let mut broken = renamed.clone();
    mutate::drop_community_sets(&mut broken, "R0", "FROM-EXT").unwrap();
    let (s, report, stats) = round("broken import on R0:", &renamed, &broken);
    assert!(0 < stats.dirty && stats.dirty < stats.total, "{stats:?}");
    let topo = &s.network.topology;
    let r0 = topo.node_by_name("R0").unwrap();
    let failures = report.failures();
    assert!(
        failures.iter().any(|f| f.check.kind == CheckKind::Import
            && f.check.edge.is_some_and(|e| topo.edge(e).dst == r0)),
        "the broken R0 import must be reported:\n{}",
        report.format_failures(topo)
    );
    print!("{}", report.format_failures(topo));
}
