//! The §6.1 scaling claims: run the peering-property suite over a large
//! synthetic WAN — on the reference oracle (one fresh solver instance
//! per check, in order: the paper's sequential numbers) and through the
//! pipeline on every core — with per-property timings
//! — the analogue of "the maximum time for any single property was 15
//! minutes; four properties across all edge routers took 16 minutes".
//!
//! Environment: `WAN_REGIONS` (default 8), `WAN_RPR` (default 4),
//! `WAN_EDGES` (default 16), `WAN_PEERS` (default 12), `WAN_PROPS`
//! (number of peering properties to run, default all 11).
//!
//! For a paper-scale run (hundreds of routers, tens of thousands of
//! peerings): `WAN_REGIONS=12 WAN_RPR=10 WAN_EDGES=120 WAN_PEERS=80`.

use bench::{env_usize, secs, Table};
use lightyear::engine::{RunMode, Verifier};
use netgen::wan::{self, WanParams};
use std::time::Instant;

fn main() {
    let p = WanParams {
        regions: env_usize("WAN_REGIONS", 8),
        routers_per_region: env_usize("WAN_RPR", 4),
        edge_routers: env_usize("WAN_EDGES", 16),
        peers_per_edge: env_usize("WAN_PEERS", 12),
        ..WanParams::default()
    };
    eprintln!("building WAN {p:?} ...");
    let t0 = Instant::now();
    let s = wan::build(&p);
    let build_time = t0.elapsed();
    let topo = &s.network.topology;
    println!(
        "WAN: {} routers, {} externals, {} directed edges (built+parsed in {})",
        topo.router_ids().count(),
        topo.external_ids().count(),
        topo.num_edges(),
        secs(build_time)
    );

    let nprops = env_usize("WAN_PROPS", usize::MAX);
    let preds: Vec<_> = s.peering_predicates().into_iter().take(nprops).collect();

    let mut table = Table::new(&[
        "property",
        "checks",
        "reference total",
        "reference solving",
        "pipeline total",
        "speedup",
    ]);
    let mut seq_sum = 0.0;
    let mut par_sum = 0.0;
    for (name, q) in &preds {
        let (props, inv) = s.peering_property_inputs(q);

        let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
        let seq = v.verify_safety_reference(&props, &inv);
        assert!(seq.all_passed(), "{name}: {}", seq.format_failures(topo));

        let vp = Verifier::new(topo, &s.network.policy)
            .with_ghost(s.from_peer_ghost())
            .with_mode(RunMode::Parallel);
        let par = vp.verify_safety_multi(&props, &inv);
        assert!(par.all_passed());

        seq_sum += seq.total_time.as_secs_f64();
        par_sum += par.total_time.as_secs_f64();
        table.row(vec![
            name.clone(),
            seq.num_checks().to_string(),
            secs(seq.total_time),
            secs(seq.solve_time()),
            secs(par.total_time),
            format!(
                "{:.1}x",
                seq.total_time.as_secs_f64() / par.total_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table.print();
    println!(
        "\n{} properties: reference {:.3}s total, pipeline {:.3}s total",
        preds.len(),
        seq_sum,
        par_sum
    );

    // Incremental re-verification: change one edge router, re-check.
    let (_, q) = &preds[0];
    let (props, inv) = s.peering_property_inputs(q);
    let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
    let full = v.verify_safety_multi(&props, &inv);
    let changed = topo.node_by_name("EDGE0").expect("edge router exists");
    let single = props
        .iter()
        .find(|pr| pr.location == lightyear::invariants::Location::Node(changed))
        .cloned()
        .unwrap_or_else(|| props[0].clone());
    let inc = v.verify_safety_incremental(&single, &inv, &[changed]);
    println!(
        "\nIncremental re-verification after changing EDGE0: {} checks in {} \
         (vs {} checks in {} for the full run)",
        inc.num_checks(),
        secs(inc.total_time),
        full.num_checks(),
        secs(full.total_time)
    );
    assert!(inc.all_passed());
}
