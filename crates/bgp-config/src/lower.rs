//! Lowering: a set of parsed router configurations -> topology + policy.
//!
//! Conventions:
//!
//! * Every neighbor must carry a `description` naming its peer. If the
//!   named peer has a configuration in the input set it becomes an
//!   internal session; otherwise an external node is created (requiring
//!   `remote-as` for its AS number). A description naming the router's
//!   own hostname is an error: a router does not peer with itself.
//! * Route-map / prefix-list / community-list / as-path ACL references are
//!   resolved here; dangling references are errors. Each named route map
//!   is resolved once per router, and the one resolved map is shared by
//!   every session of that router that names it.
//! * `network P` statements originate a route with default attributes on
//!   every session, filtered through that session's outbound route map
//!   (matching how `network` routes enter BGP and then pass export
//!   policy). The resulting concrete routes populate `Originate(A -> B)`.

use crate::ast::{ConfigAst, MatchAst, SetAst};
use bgp_model::aspath::AsPathRegex;
use bgp_model::policy::Policy;
use bgp_model::prefix::PrefixRange;
use bgp_model::route::Route;
use bgp_model::routemap::{Action, MatchCond, RouteMap, RouteMapEntry, SetAction};
use bgp_model::topology::{NodeId, Topology};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A lowering error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError {
    /// The router whose configuration caused the error.
    pub router: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.router, self.message)
    }
}

impl std::error::Error for LowerError {}

/// The lowered network: topology, policy and bookkeeping for incremental
/// verification.
#[derive(Clone, Debug)]
pub struct Network {
    /// The BGP topology.
    pub topology: Topology,
    /// The network policy.
    pub policy: Policy,
    /// Node id of each input configuration, in input order.
    pub config_nodes: Vec<NodeId>,
    /// Non-fatal issues detected during lowering (e.g. a session declared
    /// on only one side).
    pub warnings: Vec<String>,
}

fn errf(router: &str, msg: impl Into<String>) -> LowerError {
    LowerError {
        router: router.to_string(),
        message: msg.into(),
    }
}

/// Lower a set of router configurations into a [`Network`].
pub fn lower(configs: &[ConfigAst]) -> Result<Network, LowerError> {
    let mut topo = Topology::new();
    let mut warnings = Vec::new();

    // Pass 1: internal routers.
    let mut config_nodes = Vec::with_capacity(configs.len());
    let mut by_name: BTreeMap<&str, &ConfigAst> = BTreeMap::new();
    for cfg in configs {
        if cfg.hostname.is_empty() {
            return Err(errf("<unnamed>", "configuration has no hostname"));
        }
        if by_name.insert(&cfg.hostname, cfg).is_some() {
            return Err(errf(&cfg.hostname, "duplicate hostname"));
        }
        let asn = cfg.router_bgp.as_ref().map(|b| b.asn).unwrap_or(0);
        config_nodes.push(topo.add_router(cfg.hostname.clone(), asn));
    }

    // Pass 2: neighbors -> nodes + sessions.
    for cfg in configs {
        let me = topo.node_by_name(&cfg.hostname).expect("added in pass 1");
        let Some(bgp) = &cfg.router_bgp else { continue };
        for nbr in bgp.neighbors.values() {
            let peer_name = nbr.description.as_deref().ok_or_else(|| {
                errf(
                    &cfg.hostname,
                    format!("neighbor {} has no description naming its peer", nbr.addr),
                )
            })?;
            let peer = match topo.node_by_name(peer_name) {
                Some(p) => {
                    // Internal peer: cross-check remote-as when present.
                    if let Some(ra) = nbr.remote_as {
                        if !topo.node(p).external && topo.node(p).asn != ra {
                            warnings.push(format!(
                                "{}: neighbor {} remote-as {} but {} runs AS {}",
                                cfg.hostname,
                                nbr.addr,
                                ra,
                                peer_name,
                                topo.node(p).asn
                            ));
                        }
                    }
                    p
                }
                None => {
                    let asn = nbr.remote_as.ok_or_else(|| {
                        errf(
                            &cfg.hostname,
                            format!(
                                "external neighbor {peer_name} ({}) needs remote-as",
                                nbr.addr
                            ),
                        )
                    })?;
                    topo.add_external(peer_name.to_string(), asn)
                }
            };
            if peer == me {
                return Err(errf(
                    &cfg.hostname,
                    format!("neighbor {} names this router itself", nbr.addr),
                ));
            }
            if topo.edge_between(me, peer).is_none() {
                topo.add_session(me, peer);
            }
        }
    }

    // Warn about one-sided internal sessions.
    for cfg in configs {
        let Some(bgp) = &cfg.router_bgp else { continue };
        for nbr in bgp.neighbors.values() {
            let peer_name = nbr.description.as_deref().unwrap();
            if let Some(peer_cfg) = by_name.get(peer_name) {
                let reciprocated = peer_cfg
                    .router_bgp
                    .as_ref()
                    .map(|b| {
                        b.neighbors
                            .values()
                            .any(|n| n.description.as_deref() == Some(cfg.hostname.as_str()))
                    })
                    .unwrap_or(false);
                if !reciprocated {
                    warnings.push(format!(
                        "{}: session to {} not declared on the far side",
                        cfg.hostname, peer_name
                    ));
                }
            }
        }
    }

    // Pass 3: policy.
    let mut policy = Policy::new();
    // Keyed by map names, configuration text: the standard hasher.
    let mut resolved = HashMap::new();
    for cfg in configs {
        let me = topo.node_by_name(&cfg.hostname).unwrap();
        let Some(bgp) = &cfg.router_bgp else { continue };
        resolved.clear();
        for nbr in bgp.neighbors.values() {
            let peer_name = nbr.description.as_deref().unwrap();
            let peer = topo.node_by_name(peer_name).unwrap();
            let in_edge = topo.edge_between(peer, me).expect("session exists");
            let out_edge = topo.edge_between(me, peer).expect("session exists");
            if let Some(name) = &nbr.route_map_in {
                policy.set_import(in_edge, shared_route_map(&mut resolved, cfg, name)?);
            }
            if let Some(name) = &nbr.route_map_out {
                policy.set_export(out_edge, shared_route_map(&mut resolved, cfg, name)?);
            }
        }
        // Originations: network statements filtered through export maps.
        for &pfx in &bgp.networks {
            let base = Route::new(pfx).with_next_hop(me.0);
            for &out in topo.out_edges(me) {
                if let Some(r) = policy.export_route(out, &base) {
                    policy.add_origination(out, r);
                }
            }
        }
    }

    Ok(Network {
        topology: topo,
        policy,
        config_nodes,
        warnings,
    })
}

/// The map `name` of `cfg`, resolved on its first use and shared by
/// every later one. `resolved` holds the maps of `cfg` only.
fn shared_route_map<'c>(
    resolved: &mut HashMap<&'c str, Arc<RouteMap>>,
    cfg: &ConfigAst,
    name: &'c str,
) -> Result<Arc<RouteMap>, LowerError> {
    if let Some(m) = resolved.get(name) {
        return Ok(Arc::clone(m));
    }
    let m = Arc::new(resolve_route_map(cfg, name)?);
    resolved.insert(name, Arc::clone(&m));
    Ok(m)
}

/// Resolve a named route map from a configuration into the self-contained
/// IR, inlining all referenced lists.
pub fn resolve_route_map(cfg: &ConfigAst, name: &str) -> Result<RouteMap, LowerError> {
    let entries = cfg
        .route_maps
        .get(name)
        .ok_or_else(|| errf(&cfg.hostname, format!("undefined route-map {name:?}")))?;
    let mut rm = RouteMap::new(name);
    for e in entries {
        let mut out = RouteMapEntry {
            seq: e.seq,
            action: if e.permit {
                Action::Permit
            } else {
                Action::Deny
            },
            matches: Vec::new(),
            sets: Vec::new(),
            continue_to: e.continue_to,
        };
        for m in &e.matches {
            out.matches.push(resolve_match(cfg, m)?);
        }
        for s in &e.sets {
            out.sets.push(resolve_set(cfg, s)?);
        }
        rm.push(out);
    }
    Ok(rm)
}

fn resolve_match(cfg: &ConfigAst, m: &MatchAst) -> Result<MatchCond, LowerError> {
    match m {
        MatchAst::PrefixList(names) => {
            let mut ranges = Vec::new();
            for n in names {
                let list = cfg
                    .prefix_lists
                    .get(n)
                    .ok_or_else(|| errf(&cfg.hostname, format!("undefined prefix-list {n:?}")))?;
                for e in list {
                    let min = e.ge.unwrap_or(e.prefix.len);
                    let max = match (e.le, e.ge) {
                        (Some(le), _) => le,
                        (None, Some(_)) => 32,
                        (None, None) => e.prefix.len,
                    };
                    ranges.push((
                        e.permit,
                        PrefixRange::with_bounds(e.prefix, min, max.max(min)),
                    ));
                }
            }
            Ok(MatchCond::PrefixList(ranges))
        }
        MatchAst::Community { lists, exact } => {
            let mut entries = Vec::new();
            for n in lists {
                let list = cfg.community_lists.get(n).ok_or_else(|| {
                    errf(&cfg.hostname, format!("undefined community-list {n:?}"))
                })?;
                for e in list {
                    entries.push((e.permit, e.communities.clone()));
                }
            }
            Ok(MatchCond::CommunityList {
                entries,
                exact: *exact,
            })
        }
        MatchAst::AsPath(names) => {
            let mut entries = Vec::new();
            for n in names {
                let list = cfg.aspath_acls.get(n).ok_or_else(|| {
                    errf(
                        &cfg.hostname,
                        format!("undefined as-path access-list {n:?}"),
                    )
                })?;
                for e in list {
                    let re = AsPathRegex::compile(&e.regex)
                        .map_err(|err| errf(&cfg.hostname, format!("as-path list {n:?}: {err}")))?;
                    entries.push((e.permit, re));
                }
            }
            Ok(MatchCond::AsPath(entries))
        }
        MatchAst::Med(v) => Ok(MatchCond::Med(*v)),
        MatchAst::LocalPref(v) => Ok(MatchCond::LocalPref(*v)),
    }
}

fn resolve_set(cfg: &ConfigAst, s: &SetAst) -> Result<SetAction, LowerError> {
    match s {
        SetAst::LocalPref(v) => Ok(SetAction::LocalPref(*v)),
        SetAst::Med(v) => Ok(SetAction::Med(*v)),
        SetAst::Community { none: true, .. } => Ok(SetAction::ClearCommunities),
        SetAst::Community {
            communities,
            additive,
            ..
        } => Ok(SetAction::Community {
            comms: communities.clone(),
            additive: *additive,
        }),
        SetAst::CommListDelete(name) => {
            let list = cfg
                .community_lists
                .get(name)
                .ok_or_else(|| errf(&cfg.hostname, format!("undefined community-list {name:?}")))?;
            // `set comm-list X delete` removes communities matched by the
            // list's permit entries.
            let comms = list
                .iter()
                .filter(|e| e.permit)
                .flat_map(|e| e.communities.iter().copied())
                .collect();
            Ok(SetAction::DeleteCommunities(comms))
        }
        SetAst::Prepend(asns) => Ok(SetAction::PrependAsPath(asns.clone())),
        SetAst::NextHop(nh) => Ok(SetAction::NextHop(*nh)),
        SetAst::Origin(o) => Ok(SetAction::Origin(*o)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_config;

    fn r1() -> ConfigAst {
        parse_config(
            "\
hostname R1
ip prefix-list CUST seq 5 permit 203.0.113.0/24 le 32
route-map FROM-ISP1 permit 10
 set community 100:1 additive
route-map TO-R2 permit 10
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP1 in
 neighbor 10.0.1.2 remote-as 65000
 neighbor 10.0.1.2 description R2
 neighbor 10.0.1.2 route-map TO-R2 out
 network 198.51.100.0/24
",
        )
        .unwrap()
    }

    fn r2() -> ConfigAst {
        parse_config(
            "\
hostname R2
ip community-list standard FROM-ISP1 permit 100:1
route-map TO-ISP2 deny 10
 match community FROM-ISP1
route-map TO-ISP2 permit 20
router bgp 65000
 neighbor 10.0.1.1 remote-as 65000
 neighbor 10.0.1.1 description R1
 neighbor 10.0.2.1 remote-as 200
 neighbor 10.0.2.1 description ISP2
 neighbor 10.0.2.1 route-map TO-ISP2 out
",
        )
        .unwrap()
    }

    #[test]
    fn lowers_two_router_network() {
        let net = lower(&[r1(), r2()]).unwrap();
        let t = &net.topology;
        assert_eq!(t.router_ids().count(), 2);
        assert_eq!(t.external_ids().count(), 2); // ISP1, ISP2
        let r1n = t.node_by_name("R1").unwrap();
        let r2n = t.node_by_name("R2").unwrap();
        let isp1 = t.node_by_name("ISP1").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        assert!(t.node(isp1).external);
        assert_eq!(t.node(isp1).asn, 100);

        // Import map attached on ISP1 -> R1.
        let e = t.edge_between(isp1, r1n).unwrap();
        assert_eq!(net.policy.import_map(e).unwrap().name, "FROM-ISP1");
        // Export map attached on R2 -> ISP2 and resolved to CommunityList.
        let e = t.edge_between(r2n, isp2).unwrap();
        let m = net.policy.export_map(e).unwrap();
        assert!(matches!(
            &m.entries[0].matches[0],
            MatchCond::CommunityList { entries, .. } if entries.len() == 1
        ));
        assert!(net.warnings.is_empty(), "{:?}", net.warnings);
    }

    #[test]
    fn originations_pass_export_filters() {
        let net = lower(&[r1(), r2()]).unwrap();
        let t = &net.topology;
        let r1n = t.node_by_name("R1").unwrap();
        // R1 originates 198.51.100.0/24 on both of its sessions.
        let mut total = 0;
        for &e in t.out_edges(r1n) {
            total += net.policy.originated(e).len();
        }
        assert_eq!(total, 2);
    }

    #[test]
    fn undefined_references_error() {
        let cfg = parse_config(
            "\
hostname R1
route-map M permit 10
 match ip address prefix-list NOPE
router bgp 1
 neighbor 1.1.1.1 remote-as 2
 neighbor 1.1.1.1 description X
 neighbor 1.1.1.1 route-map M in
",
        )
        .unwrap();
        let e = lower(&[cfg]).unwrap_err();
        assert!(e.message.contains("NOPE"));
    }

    #[test]
    fn neighbor_without_description_errors() {
        let cfg =
            parse_config("hostname R1\nrouter bgp 1\n neighbor 1.1.1.1 remote-as 2\n").unwrap();
        assert!(lower(&[cfg]).is_err());
    }

    #[test]
    fn external_needs_remote_as() {
        let cfg =
            parse_config("hostname R1\nrouter bgp 1\n neighbor 1.1.1.1 description EXT\n").unwrap();
        assert!(lower(&[cfg]).is_err());
    }

    #[test]
    fn one_sided_session_warns() {
        let a = parse_config(
            "hostname A\nrouter bgp 1\n neighbor 1.1.1.2 remote-as 1\n neighbor 1.1.1.2 description B\n",
        )
        .unwrap();
        let b = parse_config("hostname B\nrouter bgp 1\n").unwrap();
        let net = lower(&[a, b]).unwrap();
        assert_eq!(net.warnings.len(), 1);
        assert!(net.warnings[0].contains("not declared on the far side"));
    }

    #[test]
    fn remote_as_mismatch_warns() {
        let a = parse_config(
            "hostname A\nrouter bgp 1\n neighbor 1.1.1.2 remote-as 9\n neighbor 1.1.1.2 description B\n",
        )
        .unwrap();
        let b = parse_config(
            "hostname B\nrouter bgp 2\n neighbor 1.1.1.1 remote-as 1\n neighbor 1.1.1.1 description A\n",
        )
        .unwrap();
        let net = lower(&[a, b]).unwrap();
        assert!(net.warnings.iter().any(|w| w.contains("remote-as 9")));
    }

    #[test]
    fn sessions_of_one_router_share_a_map() {
        let r1 = parse_config(
            "\
hostname R1
route-map OUT permit 10
 set metric 5
router bgp 1
 neighbor 1.1.1.2 remote-as 2
 neighbor 1.1.1.2 description X
 neighbor 1.1.1.2 route-map OUT out
 neighbor 1.1.1.3 remote-as 3
 neighbor 1.1.1.3 description Y
 neighbor 1.1.1.3 route-map OUT out
 neighbor 1.1.1.3 route-map OUT in
",
        )
        .unwrap();
        let mut r2 = r1.clone();
        r2.hostname = "R2".to_string();
        let net = lower(&[r1, r2]).unwrap();
        let (t, p) = (&net.topology, &net.policy);
        let edge = |a: &str, b: &str| {
            t.edge_between(t.node_by_name(a).unwrap(), t.node_by_name(b).unwrap())
                .unwrap()
        };
        let r1_x = p.export_map(edge("R1", "X")).unwrap();
        // Every session of R1 naming OUT, in either direction, holds the
        // one resolved map.
        assert!(std::ptr::eq(r1_x, p.export_map(edge("R1", "Y")).unwrap()));
        assert!(std::ptr::eq(r1_x, p.import_map(edge("Y", "R1")).unwrap()));
        // R2's OUT is its own map, equal in content.
        let r2_x = p.export_map(edge("R2", "X")).unwrap();
        assert!(!std::ptr::eq(r1_x, r2_x));
        assert_eq!(r1_x, r2_x);
    }

    #[test]
    fn a_neighbor_naming_its_own_router_errors() {
        let cfg = parse_config(
            "hostname R1\nrouter bgp 65000\n neighbor 10.0.0.1 remote-as 65000\n neighbor 10.0.0.1 description R1\n",
        )
        .unwrap();
        let e = lower(&[cfg]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "R1: neighbor 10.0.0.1 names this router itself"
        );
    }

    #[test]
    fn duplicate_hostnames_error() {
        let a = parse_config("hostname A\n").unwrap();
        assert!(lower(&[a.clone(), a]).is_err());
    }
}
