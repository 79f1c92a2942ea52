//! A synthetic cloud WAN in the image of the paper's §6.1 deployment.
//!
//! Structure (all sizes parameterized):
//!
//! * `regions` regions, each with `routers_per_region` WAN routers
//!   (`R{k}-{j}`, AS 65000) in an intra-region full mesh; router
//!   `R{k}-0` is the region gateway and the gateways form a backbone
//!   full mesh.
//! * One data-center external (`DC{k}`) per region, attached to
//!   `R{k}-1` (the gateway when the region has a single router),
//!   announcing both regular and **reused** prefixes.
//! * `edge_routers` Internet edge routers (`EDGE{m}`, AS 65000), each
//!   attached to the gateway of region `m % regions` and peering with
//!   `peers_per_edge` external peers (`PEER{m}-{p}`).
//!
//! Policy scheme (mirroring the paper):
//!
//! * Peer imports (`FROM-PEER{p}`) deny bogons, reused prefixes,
//!   too-specific prefixes, default routes, infra prefixes, private ASNs
//!   and self-AS paths, then tag `200:1` (replacing all communities) and
//!   normalize local-pref/MED.
//! * DC imports tag reused prefixes with the **region community**
//!   `100:(10+k)` (replacing everything — "the WAN enforces it by
//!   deleting all communities on routes coming from the data centers,
//!   before adding the community"), and strip communities otherwise.
//! * Backbone imports deny routes carrying any *other* region's
//!   community, keeping reused prefixes region-local.
//! * Exports to peers deny reused prefixes.
//!
//! The module also produces the region-community **metadata file** the
//! paper mentions (used to write local constraints, and to seed the
//! "undocumented community" bug).

use crate::roundtrip_and_lower;
use bgp_config::ast::*;
use bgp_config::Network;
use bgp_model::prefix::{Ipv4Prefix, PrefixRange};
use bgp_model::topology::NodeId;
use bgp_model::Community;
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::{Location, NetworkInvariants};
use lightyear::liveness::LivenessSpec;
use lightyear::pred::{Cmp, RoutePred};
use lightyear::safety::SafetyProperty;
use serde::{Deserialize, Serialize};

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct WanParams {
    /// Number of regions.
    pub regions: usize,
    /// WAN routers per region (>= 1; >= 2 enables the liveness suite).
    pub routers_per_region: usize,
    /// Number of Internet edge routers.
    pub edge_routers: usize,
    /// External peers per edge router.
    pub peers_per_edge: usize,
    /// Deterministic variation seed. The same `(params, seed)` pair
    /// always generates byte-identical configurations; different seeds
    /// vary renaming-level detail (external peer/DC AS numbers) while
    /// keeping every route-map template identical — which is what makes
    /// check fingerprints repeatable and renaming-invariance testable.
    pub seed: u64,
}

impl Default for WanParams {
    fn default() -> Self {
        WanParams {
            regions: 4,
            routers_per_region: 3,
            edge_routers: 6,
            peers_per_edge: 4,
            seed: 0,
        }
    }
}

impl WanParams {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total router (non-external) count: region routers plus edges.
    pub fn num_routers(&self) -> usize {
        self.regions * self.routers_per_region + self.edge_routers
    }

    /// Deterministic per-seed ASN jitter, kept far below the private-ASN
    /// range (64512+) the peer filters match on. Seed 0 is jitter-free,
    /// so existing fixtures are unchanged.
    fn asn_jitter(&self) -> u32 {
        ((self.seed % 97) * 7) as u32
    }
}

/// Region metadata (the paper's "metadata file").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionMeta {
    /// Region name.
    pub name: String,
    /// The region community for reused prefixes.
    pub community: Community,
    /// The reused prefixes.
    pub reused_prefixes: Vec<Ipv4Prefix>,
}

/// The WAN metadata file contents.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WanMetadata {
    /// Per-region entries.
    pub regions: Vec<RegionMeta>,
}

/// A generated WAN scenario.
pub struct Scenario {
    /// Generator parameters.
    pub params: WanParams,
    /// The lowered network.
    pub network: Network,
    /// The metadata file contents.
    pub metadata: WanMetadata,
}

/// The reused prefix block (same in every region — that is the point).
pub fn reused_prefix() -> Ipv4Prefix {
    "100.64.0.0/16".parse().unwrap()
}

/// The internal-infrastructure block peers must never announce.
pub fn infra_prefix() -> Ipv4Prefix {
    "100.65.0.0/16".parse().unwrap()
}

/// The community tagging peer-learned routes.
pub fn peer_comm() -> Community {
    Community::new(200, 1)
}

/// The region community for region `k`.
pub fn region_comm(k: usize) -> Community {
    Community::new(100, 10 + k as u16)
}

/// The bogon list.
pub fn bogons() -> Vec<Ipv4Prefix> {
    vec![
        "0.0.0.0/8".parse().unwrap(),
        "10.0.0.0/8".parse().unwrap(),
        "127.0.0.0/8".parse().unwrap(),
        "169.254.0.0/16".parse().unwrap(),
        "192.168.0.0/16".parse().unwrap(),
        "224.0.0.0/4".parse().unwrap(),
    ]
}

/// The AS-path regex matching private ASNs.
pub fn private_asn_regex() -> &'static str {
    "_[64512-65534]_"
}

/// The AS-path regex matching our own ASN (leak detection).
pub fn self_asn_regex() -> &'static str {
    "_65000_"
}

fn router_name(k: usize, j: usize) -> String {
    format!("R{k}-{j}")
}

fn edge_name(m: usize) -> String {
    format!("EDGE{m}")
}

fn peer_name(m: usize, p: usize) -> String {
    format!("PEER{m}-{p}")
}

fn dc_name(k: usize) -> String {
    format!("DC{k}")
}

fn dc_attach(params: &WanParams) -> usize {
    if params.routers_per_region >= 2 {
        1
    } else {
        0
    }
}

fn nbr(
    addr: String,
    asn: u32,
    desc: String,
    rm_in: Option<String>,
    rm_out: Option<String>,
) -> NeighborAst {
    NeighborAst {
        addr: addr.clone(),
        remote_as: Some(asn),
        description: Some(desc),
        route_map_in: rm_in,
        route_map_out: rm_out,
    }
}

fn deny_entry(seq: u32, m: MatchAst) -> RouteMapEntryAst {
    RouteMapEntryAst {
        seq,
        permit: false,
        matches: vec![m],
        sets: vec![],
        continue_to: None,
    }
}

fn bogon_prefix_list() -> Vec<PrefixListEntry> {
    bogons()
        .into_iter()
        .enumerate()
        .map(|(i, p)| PrefixListEntry {
            seq: (i as u32 + 1) * 5,
            permit: true,
            prefix: p,
            ge: None,
            le: Some(32),
        })
        .collect()
}

fn single_orlonger_list(p: Ipv4Prefix) -> Vec<PrefixListEntry> {
    vec![PrefixListEntry {
        seq: 5,
        permit: true,
        prefix: p,
        ge: None,
        le: Some(32),
    }]
}

/// Configuration of a region router `R{k}-{j}`.
fn config_region_router(params: &WanParams, k: usize, j: usize) -> ConfigAst {
    let mut ast = ConfigAst {
        hostname: router_name(k, j),
        ..Default::default()
    };
    let mut bgp = RouterBgp {
        asn: 65000,
        ..Default::default()
    };

    // Intra-region mesh.
    for j2 in 0..params.routers_per_region {
        if j2 == j {
            continue;
        }
        let addr = format!("10.{k}.{j2}.{j}");
        bgp.neighbors.insert(
            addr.clone(),
            nbr(addr, 65000, router_name(k, j2), None, None),
        );
    }

    if j == 0 && params.regions > 1 {
        // Gateway: backbone mesh + attached edge routers.
        ast.community_lists.insert(
            "REGIONAL-OTHER".into(),
            (0..params.regions)
                .filter(|&k2| k2 != k)
                .map(|k2| CommunityListEntry {
                    permit: true,
                    communities: vec![region_comm(k2)],
                })
                .collect(),
        );
        ast.route_maps.insert(
            "FROM-BACKBONE".into(),
            vec![
                deny_entry(
                    10,
                    MatchAst::Community {
                        lists: vec!["REGIONAL-OTHER".into()],
                        exact: false,
                    },
                ),
                RouteMapEntryAst {
                    seq: 20,
                    permit: true,
                    matches: vec![],
                    sets: vec![],
                    continue_to: None,
                },
            ],
        );
        for k2 in 0..params.regions {
            if k2 == k {
                continue;
            }
            let addr = format!("10.200.{k2}.{k}");
            bgp.neighbors.insert(
                addr.clone(),
                nbr(
                    addr,
                    65000,
                    router_name(k2, 0),
                    Some("FROM-BACKBONE".into()),
                    None,
                ),
            );
        }
    }
    if j == 0 {
        let attach_map = if params.regions > 1 {
            Some("FROM-BACKBONE".to_string())
        } else {
            None
        };
        for m in 0..params.edge_routers {
            if m % params.regions != k {
                continue;
            }
            let addr = format!("10.201.{m}.0");
            bgp.neighbors.insert(
                addr.clone(),
                nbr(addr, 65000, edge_name(m), attach_map.clone(), None),
            );
        }
    }

    if j == dc_attach(params) {
        // Data-center attachment.
        ast.prefix_lists
            .insert("REUSED".into(), single_orlonger_list(reused_prefix()));
        ast.route_maps.insert(
            "FROM-DC".into(),
            vec![
                RouteMapEntryAst {
                    seq: 10,
                    permit: true,
                    matches: vec![MatchAst::PrefixList(vec!["REUSED".into()])],
                    sets: vec![SetAst::Community {
                        communities: vec![region_comm(k)],
                        additive: false,
                        none: false,
                    }],
                    continue_to: None,
                },
                RouteMapEntryAst {
                    seq: 20,
                    permit: true,
                    matches: vec![],
                    sets: vec![SetAst::Community {
                        communities: vec![],
                        additive: false,
                        none: true,
                    }],
                    continue_to: None,
                },
            ],
        );
        let addr = format!("10.202.{k}.1");
        bgp.neighbors.insert(
            addr.clone(),
            nbr(
                addr,
                64600 + k as u32,
                dc_name(k),
                Some("FROM-DC".into()),
                None,
            ),
        );
    }

    ast.router_bgp = Some(bgp);
    ast
}

/// Configuration of Internet edge router `EDGE{m}`.
fn config_edge_router(params: &WanParams, m: usize) -> ConfigAst {
    let mut ast = ConfigAst {
        hostname: edge_name(m),
        ..Default::default()
    };
    ast.prefix_lists
        .insert("BOGONS".into(), bogon_prefix_list());
    ast.prefix_lists
        .insert("REUSED".into(), single_orlonger_list(reused_prefix()));
    ast.prefix_lists
        .insert("INFRA".into(), single_orlonger_list(infra_prefix()));
    ast.prefix_lists.insert(
        "DEFAULT".into(),
        vec![PrefixListEntry {
            seq: 5,
            permit: true,
            prefix: "0.0.0.0/0".parse().unwrap(),
            ge: None,
            le: None,
        }],
    );
    ast.prefix_lists.insert(
        "TOO-SPECIFIC".into(),
        vec![PrefixListEntry {
            seq: 5,
            permit: true,
            prefix: "0.0.0.0/0".parse().unwrap(),
            ge: Some(25),
            le: Some(32),
        }],
    );
    ast.aspath_acls.insert(
        "PRIVATE-ASN".into(),
        vec![AsPathAclEntry {
            permit: true,
            regex: private_asn_regex().into(),
        }],
    );
    ast.aspath_acls.insert(
        "SELF-ASN".into(),
        vec![AsPathAclEntry {
            permit: true,
            regex: self_asn_regex().into(),
        }],
    );

    let region = m % params.regions;
    let mut bgp = RouterBgp {
        asn: 65000,
        ..Default::default()
    };

    // Uplink to the region gateway.
    let addr = format!("10.201.{m}.1");
    bgp.neighbors.insert(
        addr.clone(),
        nbr(addr, 65000, router_name(region, 0), None, None),
    );

    // Peers: one route-map pair per peering, as in real deployments
    // ("hundreds of similarly defined peering sessions") — this is what
    // lets a single session's ad-hoc policy differ (the bug class the
    // paper found).
    ast.route_maps.insert(
        "TO-PEER".into(),
        vec![
            deny_entry(10, MatchAst::PrefixList(vec!["REUSED".into()])),
            deny_entry(15, MatchAst::PrefixList(vec!["INFRA".into()])),
            RouteMapEntryAst {
                seq: 20,
                permit: true,
                matches: vec![],
                sets: vec![],
                continue_to: None,
            },
        ],
    );
    for p in 0..params.peers_per_edge {
        let map = format!("FROM-PEER{p}");
        ast.route_maps.insert(
            map.clone(),
            vec![
                deny_entry(5, MatchAst::PrefixList(vec!["BOGONS".into()])),
                deny_entry(6, MatchAst::PrefixList(vec!["REUSED".into()])),
                deny_entry(7, MatchAst::PrefixList(vec!["INFRA".into()])),
                deny_entry(8, MatchAst::PrefixList(vec!["DEFAULT".into()])),
                deny_entry(9, MatchAst::PrefixList(vec!["TOO-SPECIFIC".into()])),
                deny_entry(11, MatchAst::AsPath(vec!["PRIVATE-ASN".into()])),
                deny_entry(12, MatchAst::AsPath(vec!["SELF-ASN".into()])),
                RouteMapEntryAst {
                    seq: 20,
                    permit: true,
                    matches: vec![],
                    sets: vec![
                        SetAst::Community {
                            communities: vec![peer_comm()],
                            additive: false,
                            none: false,
                        },
                        SetAst::LocalPref(100),
                        SetAst::Med(0),
                    ],
                    continue_to: None,
                },
            ],
        );
        let addr = format!("10.203.{m}.{p}");
        bgp.neighbors.insert(
            addr.clone(),
            nbr(
                addr,
                3000 + params.asn_jitter() + (m * 100 + p) as u32,
                peer_name(m, p),
                Some(map),
                Some("TO-PEER".into()),
            ),
        );
    }
    ast.router_bgp = Some(bgp);
    ast
}

/// The raw configuration ASTs for the WAN.
pub fn configs(params: &WanParams) -> Vec<ConfigAst> {
    assert!(params.regions >= 1);
    assert!(params.routers_per_region >= 1);
    let mut out = Vec::new();
    for k in 0..params.regions {
        for j in 0..params.routers_per_region {
            out.push(config_region_router(params, k, j));
        }
    }
    for m in 0..params.edge_routers {
        out.push(config_edge_router(params, m));
    }
    out
}

/// Build the scenario (configs -> text -> parse -> lower + metadata).
pub fn build(params: &WanParams) -> Scenario {
    build_from_configs(params, configs(params))
}

/// Build from (possibly mutated) configuration ASTs.
pub fn build_from_configs(params: &WanParams, asts: Vec<ConfigAst>) -> Scenario {
    let network = roundtrip_and_lower(&asts);
    let metadata = WanMetadata {
        regions: (0..params.regions)
            .map(|k| RegionMeta {
                name: format!("region-{k}"),
                community: region_comm(k),
                reused_prefixes: vec![reused_prefix()],
            })
            .collect(),
    };
    Scenario {
        params: *params,
        network,
        metadata,
    }
}

impl Scenario {
    /// The region a router belongs to (edge routers belong to their
    /// attached region), or `None` for externals.
    pub fn region_of(&self, n: NodeId) -> Option<usize> {
        let name = &self.network.topology.node(n).name;
        if let Some(rest) = name.strip_prefix('R') {
            let (k, _) = rest.split_once('-')?;
            return k.parse().ok();
        }
        if let Some(m) = name.strip_prefix("EDGE") {
            let m: usize = m.parse().ok()?;
            return Some(m % self.params.regions);
        }
        None
    }

    /// The `FromPeer` ghost: true on every peer import, false on DC
    /// imports.
    pub fn from_peer_ghost(&self) -> GhostAttr {
        let t = &self.network.topology;
        let mut g = GhostAttr::new("FromPeer");
        for e in t.edge_ids() {
            let edge = t.edge(e);
            if !t.node(edge.src).external {
                continue;
            }
            let src_name = &t.node(edge.src).name;
            let update = if src_name.starts_with("PEER") {
                GhostUpdate::SetTrue
            } else {
                GhostUpdate::SetFalse
            };
            g.on_import(e, update);
        }
        g
    }

    /// The `FromRegion{k}` ghost: true on `DC{k}`'s import, false on all
    /// other external imports.
    pub fn from_region_ghost(&self, k: usize) -> GhostAttr {
        let t = &self.network.topology;
        let mut g = GhostAttr::new(format!("FromRegion{k}"));
        let dck = dc_name(k);
        for e in t.edge_ids() {
            let edge = t.edge(e);
            if !t.node(edge.src).external {
                continue;
            }
            let update = if t.node(edge.src).name == dck {
                GhostUpdate::SetTrue
            } else {
                GhostUpdate::SetFalse
            };
            g.on_import(e, update);
        }
        g
    }

    /// The 11 Internet-peering-policy predicates of §6.1, as `(name, Q)`
    /// pairs; each yields the property `FromPeer(r) => Q(r)` at every
    /// router.
    pub fn peering_predicates(&self) -> Vec<(String, RoutePred)> {
        let not_in = |ps: Vec<Ipv4Prefix>| {
            RoutePred::prefix_in(
                ps.into_iter()
                    .map(PrefixRange::orlonger)
                    .collect::<Vec<_>>(),
            )
            .not()
        };
        let mut out = vec![
            ("no-bogons".to_string(), not_in(bogons())),
            (
                "no-reused-from-peers".to_string(),
                not_in(vec![reused_prefix()]),
            ),
            (
                "no-infra-prefixes".to_string(),
                not_in(vec![infra_prefix()]),
            ),
            (
                "no-default-route".to_string(),
                RoutePred::prefix_eq("0.0.0.0/0".parse().unwrap()).not(),
            ),
            (
                "no-too-specific".to_string(),
                RoutePred::prefix_in(vec![PrefixRange::with_bounds(
                    "0.0.0.0/0".parse().unwrap(),
                    25,
                    32,
                )])
                .not(),
            ),
            (
                "no-private-asn".to_string(),
                RoutePred::aspath(private_asn_regex()).not(),
            ),
            (
                "no-self-asn".to_string(),
                RoutePred::aspath(self_asn_regex()).not(),
            ),
            (
                "peer-tagged".to_string(),
                RoutePred::has_community(peer_comm()),
            ),
            (
                "lp-normalized".to_string(),
                RoutePred::local_pref(Cmp::Eq, 100),
            ),
            ("med-zeroed".to_string(), RoutePred::med(Cmp::Eq, 0)),
        ];
        // 11th: peer routes never carry regional communities.
        let mut no_regional = RoutePred::True;
        for k in 0..self.params.regions {
            no_regional = no_regional.and(RoutePred::has_community(region_comm(k)).not());
        }
        out.push(("no-regional-comms".to_string(), no_regional));
        out
    }

    /// Build the Table-4a-style inputs for one peering predicate: the
    /// per-router properties and the uniform invariant.
    pub fn peering_property_inputs(
        &self,
        q: &RoutePred,
    ) -> (Vec<SafetyProperty>, NetworkInvariants) {
        let t = &self.network.topology;
        let pred = RoutePred::ghost("FromPeer").implies(q.clone());
        let props = t
            .router_ids()
            .map(|r| SafetyProperty::new(Location::Node(r), pred.clone()))
            .collect();
        let inv = NetworkInvariants::with_default(pred);
        (props, inv)
    }

    /// Table 4b: the reuse-safety inputs for region `k`: properties (one
    /// per router outside the region) and the invariants.
    pub fn reuse_safety_inputs(&self, k: usize) -> (Vec<SafetyProperty>, NetworkInvariants) {
        let t = &self.network.topology;
        let from_region = RoutePred::ghost(format!("FromRegion{k}"));
        let reused = RoutePred::prefix_in(vec![PrefixRange::orlonger(reused_prefix())]);

        // Inside region k: reused routes from the region are tagged with
        // C_k and no other region's community.
        let mut exactly_ck = RoutePred::has_community(region_comm(k));
        for k2 in 0..self.params.regions {
            if k2 != k {
                exactly_ck = exactly_ck.and(RoutePred::has_community(region_comm(k2)).not());
            }
        }
        let inside = from_region.clone().and(reused.clone()).implies(exactly_ck);
        // Outside: no reused routes from region k at all.
        let outside = from_region.clone().implies(reused.clone().not());

        let in_region = |n| self.region_of(n) == Some(k);
        let inv = NetworkInvariants::from_node_fn(t, in_region, |&inner| {
            if inner {
                inside.clone()
            } else {
                outside.clone()
            }
        });
        let props = t
            .router_ids()
            .filter(|&r| self.region_of(r) != Some(k))
            .map(|r| {
                SafetyProperty::new(Location::Node(r), outside.clone())
                    .named(format!("reuse-safety-region{k}"))
            })
            .collect();
        (props, inv)
    }

    /// Table 4c: the reuse-liveness spec for region `k`: a reused-prefix
    /// route from `DC{k}` reaches the region gateway via the attachment
    /// router. Returns `None` when the region has a single router.
    pub fn reuse_liveness_spec(&self, k: usize) -> Option<LivenessSpec> {
        if self.params.routers_per_region < 2 {
            return None;
        }
        let t = &self.network.topology;
        let dc = t.node_by_name(&dc_name(k))?;
        let attach = t.node_by_name(&router_name(k, dc_attach(&self.params)))?;
        let gw = t.node_by_name(&router_name(k, 0))?;
        let dc_edge = t.edge_between(dc, attach)?;
        let hop = t.edge_between(attach, gw)?;

        let from_region = RoutePred::ghost(format!("FromRegion{k}"));
        let reused = RoutePred::prefix_in(vec![PrefixRange::orlonger(reused_prefix())]);
        let mut exactly_ck = RoutePred::has_community(region_comm(k));
        for k2 in 0..self.params.regions {
            if k2 != k {
                exactly_ck = exactly_ck.and(RoutePred::has_community(region_comm(k2)).not());
            }
        }
        let good = from_region
            .clone()
            .and(reused.clone())
            .and(exactly_ck.clone());

        // Interference invariants: inside region j, reused routes carry
        // exactly C_j and (for j == k) came from the region.
        let interference = NetworkInvariants::from_node_fn(
            t,
            |n| self.region_of(n),
            |&region| {
                let Some(j) = region else {
                    return RoutePred::True;
                };
                let mut exactly_cj = RoutePred::has_community(region_comm(j));
                for k2 in 0..self.params.regions {
                    if k2 != j {
                        exactly_cj =
                            exactly_cj.and(RoutePred::has_community(region_comm(k2)).not());
                    }
                }
                let mut pred = exactly_cj;
                if j == k {
                    pred = pred.and(from_region.clone());
                } else {
                    pred = pred.and(from_region.clone().not());
                }
                reused.clone().implies(pred)
            },
        );

        Some(LivenessSpec {
            location: Location::Node(gw),
            pred: from_region.clone().and(reused.clone()),
            path: vec![
                Location::Edge(dc_edge),
                Location::Node(attach),
                Location::Edge(hop),
                Location::Node(gw),
            ],
            constraints: vec![
                from_region.and(reused.clone()), // assumption at DC -> attach
                good.clone(),
                good.clone(),
                good,
            ],
            prefix_scope: reused,
            interference_invariants: interference,
            name: Some(format!("reuse-liveness-region{k}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightyear::engine::Verifier;

    fn small() -> Scenario {
        build(&WanParams {
            regions: 2,
            routers_per_region: 2,
            edge_routers: 2,
            peers_per_edge: 2,
            ..WanParams::default()
        })
    }

    #[test]
    fn peering_properties_verify() {
        let s = small();
        let v =
            Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
        for (name, q) in s.peering_predicates() {
            let (props, inv) = s.peering_property_inputs(&q);
            let report = v.verify_safety_multi(&props, &inv);
            assert!(
                report.all_passed(),
                "{name}: {}",
                report.format_failures(&s.network.topology)
            );
        }
    }

    #[test]
    fn reuse_safety_verifies() {
        let s = small();
        for k in 0..s.params.regions {
            let v = Verifier::new(&s.network.topology, &s.network.policy)
                .with_ghost(s.from_region_ghost(k));
            let (props, inv) = s.reuse_safety_inputs(k);
            assert!(!props.is_empty());
            let report = v.verify_safety_multi(&props, &inv);
            assert!(
                report.all_passed(),
                "region {k}: {}",
                report.format_failures(&s.network.topology)
            );
        }
    }

    #[test]
    fn reuse_liveness_verifies() {
        let s = small();
        for k in 0..s.params.regions {
            let v = Verifier::new(&s.network.topology, &s.network.policy)
                .with_ghost(s.from_region_ghost(k));
            let spec = s.reuse_liveness_spec(k).expect("two routers per region");
            let report = v.verify_liveness(&spec).unwrap();
            assert!(
                report.all_passed(),
                "region {k}: {}",
                report.format_failures(&s.network.topology)
            );
        }
    }

    #[test]
    fn seeds_are_deterministic_and_template_preserving() {
        let base = WanParams {
            regions: 2,
            routers_per_region: 2,
            edge_routers: 2,
            peers_per_edge: 2,
            ..WanParams::default()
        };
        let text = |p: &WanParams| {
            configs(p)
                .iter()
                .map(bgp_config::print_config)
                .collect::<Vec<_>>()
        };
        // Same (params, seed) -> byte-identical configurations.
        assert_eq!(text(&base.with_seed(7)), text(&base.with_seed(7)));
        // Different seeds vary renaming-level detail (peer ASNs)...
        let a = text(&base.with_seed(1));
        let b = text(&base.with_seed(2));
        assert_ne!(a, b);
        // ...but never the route-map templates: the non-neighbor lines
        // (router defs, prefix lists, route maps) stay identical.
        let strip_neighbors = |cfgs: &[String]| {
            cfgs.iter()
                .flat_map(|c| c.lines())
                .filter(|l| !l.contains("remote-as"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(strip_neighbors(&a), strip_neighbors(&b));
    }

    #[test]
    fn num_routers_counts_internal_nodes() {
        let p = WanParams {
            regions: 3,
            routers_per_region: 2,
            edge_routers: 4,
            peers_per_edge: 1,
            ..WanParams::default()
        };
        assert_eq!(p.num_routers(), 10);
        let s = build(&p);
        let t = &s.network.topology;
        assert_eq!(t.router_ids().count(), p.num_routers());
    }

    #[test]
    fn metadata_serializes() {
        let s = small();
        let json = serde_json::to_string_pretty(&s.metadata).unwrap();
        let back: WanMetadata = serde_json::from_str(&json).unwrap();
        assert_eq!(back.regions.len(), 2);
        assert_eq!(back.regions[0].community, region_comm(0));
    }
}
