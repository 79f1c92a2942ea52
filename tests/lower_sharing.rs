//! Sharing resolved route maps across routers is an allocation detail.
//!
//! `bgp_config::lower` resolves each route map once per distinct set of
//! inputs (name, entries, every list the entries name) and attaches the
//! one `Arc<RouteMap>` to every router whose inputs are equal. Here every
//! attached map is held against its own router's resolution, and the
//! network is verified twice: as lowered, and rebuilt with one fresh map
//! per (router, map name), which is what lowering built before maps were
//! shared. The check digests, the universe layout and every report must
//! be equal.
//!
//! The inputs: the `netgen::zoo` Kdl wiring scaled to 80 routers (its
//! templates share), the Cogentco wiring scaled to 24 routers with a
//! router-unique leading `deny` in every route-map (nothing shares), a
//! seeded WAN, and that WAN with two injected bugs (failing checks).

mod common;

use bgp_config::ast::ConfigAst;
use bgp_config::lower::resolve_route_map;
use bgp_config::{parse_config, print_config, Network};
use bgp_model::routemap::RouteMap;
use bgp_model::topology::NodeId;
use bgp_model::Policy;
use common::{quarantine, zoo_scenario};
use lightyear::check::Report;
use lightyear::engine::Verifier;
use lightyear::universe::Universe;
use lightyear::{GhostAttr, NetworkInvariants, SafetyProperty};
use netgen::mutate;
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, ZooScenario, CORPUS};
use std::collections::HashMap;
use std::sync::Arc;

type Suite = (Vec<SafetyProperty>, NetworkInvariants);

/// One input: the configurations it was lowered from, the lowered
/// network, its ghosts and its suites.
struct Input<'a> {
    configs: &'a [ConfigAst],
    network: &'a Network,
    ghosts: Vec<GhostAttr>,
    suites: Vec<Suite>,
}

/// The policy of `input` with one fresh map per (router, map name),
/// each resolved from that router's configuration, after asserting that
/// every attached map equals it; and how many such maps there are.
fn unshared(input: &Input) -> (Policy, usize) {
    let (t, shared) = (&input.network.topology, &input.network.policy);
    let config_of: HashMap<NodeId, &ConfigAst> = (input.network.config_nodes.iter().copied())
        .zip(input.configs)
        .collect();
    let mut fresh: HashMap<(NodeId, String), Arc<RouteMap>> = HashMap::new();
    let mut own = |router: NodeId, m: &Arc<RouteMap>| {
        let cfg = config_of[&router];
        let map = fresh
            .entry((router, m.name.clone()))
            .or_insert_with(|| Arc::new(resolve_route_map(cfg, &m.name).unwrap()));
        assert_eq!(**m, **map, "{}'s {} is not its own", cfg.hostname, m.name);
        Arc::clone(map)
    };
    let mut policy = Policy::new();
    for (e, m) in shared.imports() {
        policy.set_import(e, own(t.edge(e).dst, m));
    }
    for (e, m) in shared.exports() {
        policy.set_export(e, own(t.edge(e).src, m));
    }
    for (e, routes) in shared.originations() {
        for r in routes {
            policy.add_origination(e, r.clone());
        }
    }
    (policy, fresh.len())
}

/// The maps `policy` holds, counted by allocation.
fn distinct_maps(policy: &Policy) -> usize {
    let mut maps: Vec<*const RouteMap> = (policy.imports().chain(policy.exports()))
        .map(|(_, m)| Arc::as_ptr(m))
        .collect();
    maps.sort_unstable();
    maps.dedup();
    maps.len()
}

/// Everything a report says that does not depend on timing, one line
/// per check.
fn render(report: &Report) -> Vec<String> {
    (report.outcomes.iter())
        .map(|o| format!("{:?} {:?} core={:?}", o.check, o.result, o.core))
        .collect()
}

/// Verify `input` as lowered and with unshared maps; both must agree
/// on every digest, the universe layout and every report. Returns the
/// (router, map) count and the distinct maps the lowered policy holds.
fn assert_sharing_is_invisible(name: &str, input: &Input) -> (usize, usize) {
    let topo = &input.network.topology;
    let shared = &input.network.policy;
    let (unshared, per_router) = unshared(input);
    let verifier = |policy| {
        let mut v = Verifier::new(topo, policy).with_jobs(1);
        for g in &input.ghosts {
            v = v.with_ghost(g.clone());
        }
        v
    };
    let (a, b) = (verifier(shared), verifier(&unshared));
    let suites: Vec<(&[SafetyProperty], &NetworkInvariants)> = (input.suites.iter())
        .map(|(p, i)| (p.as_slice(), i))
        .collect();

    assert!(
        a.batch_digests(&suites) == b.batch_digests(&suites),
        "{name}: check digests differ"
    );
    let (ua, ub) = (
        Universe::from_policy(shared),
        Universe::from_policy(&unshared),
    );
    assert_eq!(ua.communities(), ub.communities(), "{name}: communities");
    assert_eq!(ua.regexes(), ub.regexes(), "{name}: regexes");

    let (ra, rb) = (
        a.verify_safety_batch(&suites),
        b.verify_safety_batch(&suites),
    );
    assert_eq!(ra.reports.len(), rb.reports.len());
    for (i, (x, y)) in ra.reports.iter().zip(&rb.reports).enumerate() {
        assert_eq!(render(x), render(y), "{name}: suite {i}");
    }
    let counts = |r: &lightyear::engine::MultiReport| (r.exec.generated, r.exec.executed);
    assert_eq!(counts(&ra), counts(&rb), "{name}: run counts");
    (per_router, distinct_maps(shared))
}

fn zoo_input<'a>(z: &'a ZooScenario, configs: &'a [ConfigAst]) -> Input<'a> {
    Input {
        configs,
        network: &z.network,
        ghosts: vec![z.from_peer_ghost()],
        suites: vec![z.peering_suite(), z.fencing_suite()],
    }
}

fn zoo_params(name: &str, routers: usize) -> ZooParams {
    ZooParams::scaled(CORPUS.iter().find(|e| e.name == name).unwrap(), routers)
}

#[test]
fn kdl_shares_maps_across_routers_invisibly() {
    let params = zoo_params("Kdl", 80);
    let configs = zoo::configs(&params);
    let z = zoo_scenario(params, &configs);
    let (per_router, distinct) = assert_sharing_is_invisible("kdl80", &zoo_input(&z, &configs));
    assert!(
        distinct < per_router,
        "templated routers share: {distinct} maps for {per_router} (router, map) pairs"
    );
}

#[test]
fn quarantined_cogentco_shares_nothing() {
    let params = zoo_params("Cogentco", 24);
    let mut configs = zoo::configs(&params);
    quarantine(&mut configs, 8);
    let z = zoo_scenario(params, &configs);
    let (per_router, distinct) =
        assert_sharing_is_invisible("cogentco24-quarantine8", &zoo_input(&z, &configs));
    assert_eq!(distinct, per_router, "router-unique lists share nothing");
}

fn wan_params() -> WanParams {
    WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        ..WanParams::default()
    }
    .with_seed(20230910)
}

/// Build the WAN from `configs` and verify it with every peering
/// predicate and every region's reuse safety.
fn wan_case(name: &str, configs: Vec<ConfigAst>) {
    let params = wan_params();
    // `build_from_configs` lowers the configurations' printed and
    // re-parsed text; resolve against the same.
    let reparsed: Vec<ConfigAst> = (configs.iter())
        .map(|c| parse_config(&print_config(c)).unwrap())
        .collect();
    let s = wan::build_from_configs(&params, configs);
    let mut ghosts = vec![s.from_peer_ghost()];
    ghosts.extend((0..params.regions).map(|k| s.from_region_ghost(k)));
    let mut suites: Vec<Suite> = (s.peering_predicates().iter())
        .map(|(_, q)| s.peering_property_inputs(q))
        .collect();
    suites.extend((0..params.regions).map(|k| s.reuse_safety_inputs(k)));
    let input = Input {
        configs: &reparsed,
        network: &s.network,
        ghosts,
        suites,
    };
    assert_sharing_is_invisible(name, &input);
}

#[test]
fn seeded_wan_verifies_alike_shared_and_unshared() {
    wan_case("wan", wan::configs(&wan_params()));
}

#[test]
fn broken_wan_fails_alike_shared_and_unshared() {
    let mut configs = wan::configs(&wan_params());
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    mutate::drop_prefix_deny(&mut configs, "EDGE0", "FROM-PEER0", "BOGONS").unwrap();
    wan_case("wan-broken", configs);
}
