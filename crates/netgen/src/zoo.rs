//! An Internet-scale topology corpus in the image of the Topology Zoo
//! (the dataset behind the paper's scalability question: real ISP
//! backbones from ~10 to 750+ routers, sparse and path-heavy, nothing
//! like a full mesh).
//!
//! The corpus is **vendored as data, generated as code**: each
//! [`ZooEntry`] pins the router/link counts of a real Topology Zoo
//! backbone, and [`build`] deterministically synthesizes a graph with
//! that size and density (random spanning tree with a recency bias —
//! ISP backbones are chains of rings, not stars — plus chords up to the
//! link budget) together with a full policy family:
//!
//! * **iBGP sessions** along every physical link (AS 65000), plus a
//!   **route-reflector overlay**: the top-`K`-degree routers form a
//!   reflector full mesh, and every router belongs to the cluster of
//!   its nearest reflector (multi-source BFS).
//! * **Community fencing**: cluster `k` tags its reused-prefix routes
//!   with `100:(10+k)` (via a `SITE{k}` external at the reflector) and
//!   every router's internal imports deny routes carrying *another*
//!   cluster's community, so reused prefixes stay cluster-local.
//! * **eBGP peering**: `PEER{p}` externals at the lowest-degree
//!   routers with the paper's peer hygiene imports (bogon / reused /
//!   infra / default / too-specific / private-ASN / self-ASN denies,
//!   then tag `200:1`, local-pref 100, MED 0) and reuse-fenced exports.
//!
//! Every entry therefore yields parseable configurations (the standard
//! print → parse → lower round trip) and two meaningful property
//! suites — [`ZooScenario::peering_suite`] and
//! [`ZooScenario::fencing_suite`] — sized to the topology.

use crate::roundtrip_and_lower;
use crate::wan::{
    bogons, infra_prefix, peer_comm, private_asn_regex, region_comm, reused_prefix, self_asn_regex,
};
use bgp_config::ast::*;
use bgp_config::Network;
use bgp_model::prefix::PrefixRange;
use bgp_model::topology::NodeId;
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::{Location, NetworkInvariants};
use lightyear::pred::{Cmp, RoutePred};
use lightyear::safety::SafetyProperty;
use std::collections::BTreeSet;

/// One corpus entry: the name and size of a real Topology Zoo backbone.
#[derive(Clone, Copy, Debug)]
pub struct ZooEntry {
    /// Topology Zoo name.
    pub name: &'static str,
    /// Router count of the real topology.
    pub routers: usize,
    /// Physical link count of the real topology.
    pub links: usize,
}

/// The curated corpus, ascending by router count. Sizes are the real
/// Topology Zoo figures; `Kdl` is the 750+-router stress entry the
/// scaling gate runs against.
pub const CORPUS: &[ZooEntry] = &[
    ZooEntry {
        name: "Abilene",
        routers: 11,
        links: 14,
    },
    ZooEntry {
        name: "Ans",
        routers: 18,
        links: 25,
    },
    ZooEntry {
        name: "Agis",
        routers: 25,
        links: 30,
    },
    ZooEntry {
        name: "Bellcanada",
        routers: 48,
        links: 64,
    },
    ZooEntry {
        name: "Uninett",
        routers: 74,
        links: 101,
    },
    ZooEntry {
        name: "Deltacom",
        routers: 113,
        links: 161,
    },
    ZooEntry {
        name: "Ion",
        routers: 125,
        links: 146,
    },
    ZooEntry {
        name: "TataNld",
        routers: 145,
        links: 186,
    },
    ZooEntry {
        name: "GtsCe",
        routers: 149,
        links: 193,
    },
    ZooEntry {
        name: "UsCarrier",
        routers: 158,
        links: 189,
    },
    ZooEntry {
        name: "Cogentco",
        routers: 197,
        links: 243,
    },
    ZooEntry {
        name: "Kdl",
        routers: 754,
        links: 895,
    },
];

/// Generator parameters for one corpus topology.
#[derive(Clone, Debug)]
pub struct ZooParams {
    /// Topology name (the hostname prefix).
    pub name: String,
    /// Router count.
    pub routers: usize,
    /// Physical link budget (clamped to at least a spanning tree).
    pub links: usize,
    /// Deterministic seed: the same `ZooParams` value always builds
    /// byte-identical configurations.
    pub seed: u64,
    /// Number of eBGP peer externals (attached to the lowest-degree
    /// routers, one each).
    pub max_peers: usize,
    /// How many of the canonical bogon prefixes the peer imports deny.
    /// The full list by default; proptests shrink it ("reduced prefix
    /// counts") to keep solver formulas small.
    pub bogon_count: usize,
}

impl ZooParams {
    /// Parameters reproducing `entry` at full size. The seed is derived
    /// from the entry name so each family gets a distinct (but
    /// reproducible) wiring.
    pub fn for_entry(entry: &ZooEntry) -> Self {
        let seed = entry.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        ZooParams {
            name: entry.name.to_string(),
            routers: entry.routers,
            links: entry.links,
            seed,
            max_peers: (entry.routers / 6).clamp(2, 64),
            bogon_count: bogons().len(),
        }
    }

    /// A proportionally scaled-down variant of `entry` with at most
    /// `max_routers` routers — same density, same policy family, a
    /// size debug-mode tests can verify in milliseconds.
    pub fn scaled(entry: &ZooEntry, max_routers: usize) -> Self {
        let mut p = Self::for_entry(entry);
        if entry.routers > max_routers {
            let n = max_routers.max(2);
            p.links = (entry.links * n / entry.routers).max(n - 1);
            p.routers = n;
            p.max_peers = (n / 6).clamp(2, 64);
        }
        p
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style bogon-list truncation.
    pub fn with_bogon_count(mut self, n: usize) -> Self {
        self.bogon_count = n.min(bogons().len());
        self
    }

    /// Number of reflector clusters for this size.
    pub fn num_clusters(&self) -> usize {
        (self.routers / 24).clamp(2, 12).min(self.routers)
    }
}

/// splitmix64 — the corpus's only randomness, fully determined by the
/// params seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The synthesized session graph: physical links + reflector overlay,
/// reflector set and per-router cluster assignment.
struct Graph {
    /// Session adjacency (undirected, includes the reflector mesh).
    adj: Vec<BTreeSet<usize>>,
    /// Reflector router indices, ascending.
    reflectors: Vec<usize>,
    /// Cluster of every router.
    cluster: Vec<usize>,
}

fn synth_graph(params: &ZooParams) -> Graph {
    let n = params.routers;
    assert!(n >= 2, "a zoo topology needs at least two routers");
    let mut rng = params.seed ^ (n as u64) << 32 ^ params.links as u64;
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let add = |adj: &mut Vec<BTreeSet<usize>>, u: usize, v: usize| -> bool {
        u != v && adj[u].insert(v) && adj[v].insert(u)
    };
    // Spanning tree with a recency bias: node i hangs off one of the
    // ~8 most recent nodes, producing the chain-of-rings shape of real
    // backbones instead of a star.
    for i in 1..n {
        let window = i.min(8);
        let back = (splitmix(&mut rng) % window as u64) as usize;
        add(&mut adj, i, i - 1 - back);
    }
    let mut links = n - 1;
    let target = params.links.max(n - 1).min(n * (n - 1) / 2);
    // Chords close the rings. Bounded attempts keep generation total
    // even for adversarial (over-dense) parameter values.
    let mut attempts = 0usize;
    while links < target && attempts < 64 * target {
        attempts += 1;
        let u = (splitmix(&mut rng) % n as u64) as usize;
        // Mostly-local chords (rings), occasionally long-haul.
        let v = if splitmix(&mut rng).is_multiple_of(4) {
            (splitmix(&mut rng) % n as u64) as usize
        } else {
            let span = 2 + (splitmix(&mut rng) % 12) as usize;
            (u + span) % n
        };
        if add(&mut adj, u, v) {
            links += 1;
        }
    }
    // Reflectors: the top-K-degree routers (ties to the lower index).
    let k = params.num_clusters();
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&i| (std::cmp::Reverse(adj[i].len()), i));
    let mut reflectors: Vec<usize> = by_degree[..k].to_vec();
    reflectors.sort_unstable();
    // Clusters: nearest reflector by multi-source BFS (ties to the
    // lower cluster index via queue order).
    let mut cluster = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (c, &r) in reflectors.iter().enumerate() {
        cluster[r] = c;
        queue.push_back(r);
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if cluster[v] == usize::MAX {
                cluster[v] = cluster[u];
                queue.push_back(v);
            }
        }
    }
    // Reflector overlay mesh on top of the physical links.
    for (a, &u) in reflectors.iter().enumerate() {
        for &v in &reflectors[a + 1..] {
            add(&mut adj, u, v);
        }
    }
    Graph {
        adj,
        reflectors,
        cluster,
    }
}

fn router_name(params: &ZooParams, i: usize) -> String {
    format!("{}{}", params.name, i)
}

fn site_name(k: usize) -> String {
    format!("SITE{k}")
}

fn peer_ext_name(p: usize) -> String {
    format!("PEER{p}")
}

fn nbr(
    addr: String,
    asn: u32,
    desc: String,
    rm_in: Option<String>,
    rm_out: Option<String>,
) -> NeighborAst {
    NeighborAst {
        addr,
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

fn permit_all(seq: u32) -> RouteMapEntryAst {
    RouteMapEntryAst {
        seq,
        permit: true,
        matches: vec![],
        sets: vec![],
        continue_to: None,
    }
}

fn orlonger_list(p: bgp_model::prefix::Ipv4Prefix) -> Vec<PrefixListEntry> {
    vec![PrefixListEntry {
        seq: 5,
        permit: true,
        prefix: p,
        ge: None,
        le: Some(32),
    }]
}

/// The `max_peers` lowest-degree non-reflector routers (the corpus's
/// "edge" routers), one eBGP peer each.
fn peer_hosts(params: &ZooParams, g: &Graph) -> Vec<usize> {
    let rr: BTreeSet<usize> = g.reflectors.iter().copied().collect();
    let mut hosts: Vec<usize> = (0..params.routers).filter(|i| !rr.contains(i)).collect();
    hosts.sort_by_key(|&i| (g.adj[i].len(), i));
    hosts.truncate(params.max_peers);
    hosts.sort_unstable();
    hosts
}

fn config_router(
    params: &ZooParams,
    g: &Graph,
    i: usize,
    peer_host_rank: Option<usize>,
) -> ConfigAst {
    let k = g.cluster[i];
    let num_clusters = params.num_clusters();
    let mut ast = ConfigAst {
        hostname: router_name(params, i),
        ..Default::default()
    };
    let mut bgp = RouterBgp {
        asn: 65000,
        ..Default::default()
    };

    // Internal sessions (physical + overlay), fenced against other
    // clusters' communities when there is more than one cluster.
    let fence = (num_clusters > 1).then(|| "FENCE".to_string());
    if fence.is_some() {
        ast.community_lists.insert(
            "OTHER-CLUSTERS".into(),
            (0..num_clusters)
                .filter(|&k2| k2 != k)
                .map(|k2| CommunityListEntry {
                    permit: true,
                    communities: vec![region_comm(k2)],
                })
                .collect(),
        );
        ast.route_maps.insert(
            "FENCE".into(),
            vec![
                deny_entry(
                    10,
                    MatchAst::Community {
                        lists: vec!["OTHER-CLUSTERS".into()],
                        exact: false,
                    },
                ),
                permit_all(20),
            ],
        );
    }
    for &j in &g.adj[i] {
        let addr = format!("10.{}.{}.{}", j / 250, j % 250, i % 250);
        bgp.neighbors.insert(
            addr.clone(),
            nbr(addr, 65000, router_name(params, j), fence.clone(), None),
        );
    }

    // Reflectors host their cluster's SITE external, the source of
    // reused-prefix routes, tagged with the cluster community.
    if let Some(c) = g.reflectors.iter().position(|&r| r == i) {
        ast.prefix_lists
            .insert("REUSED".into(), orlonger_list(reused_prefix()));
        ast.route_maps.insert(
            "FROM-SITE".into(),
            vec![
                RouteMapEntryAst {
                    seq: 10,
                    permit: true,
                    matches: vec![MatchAst::PrefixList(vec!["REUSED".into()])],
                    sets: vec![SetAst::Community {
                        communities: vec![region_comm(c)],
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
        let addr = format!("10.240.{}.1", c % 250);
        bgp.neighbors.insert(
            addr.clone(),
            nbr(
                addr,
                64600 + c as u32,
                site_name(c),
                Some("FROM-SITE".into()),
                None,
            ),
        );
    }

    // Peer hosts get one eBGP peer with the paper's hygiene policy.
    if let Some(p) = peer_host_rank {
        ast.prefix_lists.insert(
            "BOGONS".into(),
            bogons()
                .into_iter()
                .take(params.bogon_count.max(1))
                .enumerate()
                .map(|(b, pfx)| PrefixListEntry {
                    seq: (b as u32 + 1) * 5,
                    permit: true,
                    prefix: pfx,
                    ge: None,
                    le: Some(32),
                })
                .collect(),
        );
        ast.prefix_lists
            .entry("REUSED".into())
            .or_insert_with(|| orlonger_list(reused_prefix()));
        ast.prefix_lists
            .insert("INFRA".into(), orlonger_list(infra_prefix()));
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
        ast.route_maps.insert(
            "FROM-PEER".into(),
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
        ast.route_maps.insert(
            "TO-PEER".into(),
            vec![
                deny_entry(10, MatchAst::PrefixList(vec!["REUSED".into()])),
                deny_entry(15, MatchAst::PrefixList(vec!["INFRA".into()])),
                permit_all(20),
            ],
        );
        let addr = format!("10.241.{}.{}", p / 250, p % 250);
        bgp.neighbors.insert(
            addr.clone(),
            nbr(
                addr,
                3000 + (p as u32) * 7 + (params.seed % 97) as u32,
                peer_ext_name(p),
                Some("FROM-PEER".into()),
                Some("TO-PEER".into()),
            ),
        );
    }

    ast.router_bgp = Some(bgp);
    ast
}

/// The raw configuration ASTs for one corpus topology.
pub fn configs(params: &ZooParams) -> Vec<ConfigAst> {
    let g = synth_graph(params);
    let hosts = peer_hosts(params, &g);
    (0..params.routers)
        .map(|i| config_router(params, &g, i, hosts.iter().position(|&h| h == i)))
        .collect()
}

/// A built corpus scenario.
pub struct ZooScenario {
    /// Generator parameters.
    pub params: ZooParams,
    /// The lowered network.
    pub network: Network,
    /// Reflector node ids, ascending by router index.
    pub reflectors: Vec<NodeId>,
    /// Cluster of router index `i` (configuration input order).
    pub clusters: Vec<usize>,
}

/// Build the scenario: synthesize → print → parse → lower.
pub fn build(params: &ZooParams) -> ZooScenario {
    let g = synth_graph(params);
    let hosts = peer_hosts(params, &g);
    let asts: Vec<ConfigAst> = (0..params.routers)
        .map(|i| config_router(params, &g, i, hosts.iter().position(|&h| h == i)))
        .collect();
    let network = roundtrip_and_lower(&asts);
    let reflectors = g
        .reflectors
        .iter()
        .map(|&r| network.config_nodes[r])
        .collect();
    ZooScenario {
        params: params.clone(),
        network,
        reflectors,
        clusters: g.cluster,
    }
}

impl ZooScenario {
    /// Every node's cluster, indexed by node id (`None` for externals):
    /// one pass over the configured routers.
    pub fn node_clusters(&self) -> Vec<Option<usize>> {
        let mut of = vec![None; self.network.topology.num_nodes()];
        for (&n, &k) in self.network.config_nodes.iter().zip(&self.clusters) {
            of[n.0 as usize] = Some(k);
        }
        of
    }

    /// The `FromPeer` ghost: true on peer imports, false on site
    /// imports.
    pub fn from_peer_ghost(&self) -> GhostAttr {
        let t = &self.network.topology;
        let mut g = GhostAttr::new("FromPeer");
        for e in t.edge_ids() {
            let edge = t.edge(e);
            if !t.node(edge.src).external {
                continue;
            }
            let update = if t.node(edge.src).name.starts_with("PEER") {
                GhostUpdate::SetTrue
            } else {
                GhostUpdate::SetFalse
            };
            g.on_import(e, update);
        }
        g
    }

    /// The peering hygiene suite: at every router, peer-learned routes
    /// are tagged `200:1`, never a reused prefix, and local-pref
    /// normalized. One property per router over a uniform invariant.
    pub fn peering_suite(&self) -> (Vec<SafetyProperty>, NetworkInvariants) {
        let t = &self.network.topology;
        let q = RoutePred::has_community(peer_comm())
            .and(RoutePred::prefix_in(vec![PrefixRange::orlonger(reused_prefix())]).not())
            .and(RoutePred::local_pref(Cmp::Eq, 100));
        let pred = RoutePred::ghost("FromPeer").implies(q);
        let props = t
            .router_ids()
            .map(|r| SafetyProperty::new(Location::Node(r), pred.clone()).named("zoo-peering"))
            .collect();
        let inv = NetworkInvariants::with_default(pred);
        (props, inv)
    }

    /// The community fencing suite: at every router, reused-prefix
    /// routes carry exactly their own cluster's community (so reuse
    /// never crosses a fence). Properties at the reflectors, invariants
    /// from the per-node cluster assignment.
    pub fn fencing_suite(&self) -> (Vec<SafetyProperty>, NetworkInvariants) {
        let t = &self.network.topology;
        let num_clusters = self.params.num_clusters();
        let reused = RoutePred::prefix_in(vec![PrefixRange::orlonger(reused_prefix())]);
        let clusters = self.node_clusters();
        // `from_node_fn` only consults configured routers, which all
        // carry a cluster assignment.
        let cluster = |n: NodeId| clusters[n.0 as usize].expect("router has a cluster");
        let inv = NetworkInvariants::from_node_fn(t, cluster, |&k| {
            let mut own = RoutePred::has_community(region_comm(k));
            for k2 in 0..num_clusters {
                if k2 != k {
                    own = own.and(RoutePred::has_community(region_comm(k2)).not());
                }
            }
            reused.clone().implies(own)
        });
        let props = self
            .reflectors
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                SafetyProperty::new(
                    Location::Node(r),
                    reused
                        .clone()
                        .implies(RoutePred::has_community(region_comm(k))),
                )
                .named(format!("zoo-fencing-cluster{k}"))
            })
            .collect();
        (props, inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightyear::engine::Verifier;

    #[test]
    fn corpus_is_curated_and_sorted() {
        assert!(CORPUS.len() >= 10);
        let mut names = BTreeSet::new();
        for w in CORPUS.windows(2) {
            assert!(w[0].routers < w[1].routers, "corpus must ascend by size");
        }
        for e in CORPUS {
            assert!(names.insert(e.name), "duplicate corpus name {}", e.name);
            assert!(e.links >= e.routers - 1, "{} under-linked", e.name);
        }
        assert!(
            CORPUS.last().unwrap().routers > 500,
            "the corpus must include a 500+ router stress entry"
        );
    }

    #[test]
    fn smallest_entry_builds_and_both_suites_verify() {
        let s = build(&ZooParams::for_entry(&CORPUS[0]));
        let t = &s.network.topology;
        assert_eq!(t.router_ids().count(), CORPUS[0].routers);
        assert!(t.external_ids().count() >= 3); // sites + peers

        let v = Verifier::new(t, &s.network.policy).with_ghost(s.from_peer_ghost());
        let (props, inv) = s.peering_suite();
        let report = v.verify_safety_multi(&props, &inv);
        assert!(report.all_passed(), "{}", report.format_failures(t));

        let v = Verifier::new(t, &s.network.policy);
        let (props, inv) = s.fencing_suite();
        assert!(!props.is_empty());
        let report = v.verify_safety_multi(&props, &inv);
        assert!(report.all_passed(), "{}", report.format_failures(t));
    }

    #[test]
    fn scaled_stress_entry_verifies() {
        // Kdl scaled to test size: same policy family, same density.
        let entry = CORPUS.last().unwrap();
        let p = ZooParams::scaled(entry, 24);
        assert_eq!(p.routers, 24);
        let s = build(&p);
        let v =
            Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
        let (props, inv) = s.peering_suite();
        let report = v.verify_safety_multi(&props, &inv);
        assert!(
            report.all_passed(),
            "{}",
            report.format_failures(&s.network.topology)
        );
    }

    /// A decoded topology answers every lookup the original does, with
    /// no call to rebuild it, and a decoded policy holds every map and
    /// origination; both encode back to the same text.
    #[test]
    fn serde_round_trip_keeps_every_index_and_table() {
        use bgp_model::policy::Policy;
        use bgp_model::route::Route;
        use bgp_model::topology::{EdgeId, Topology};
        let s = build(&ZooParams::scaled(&CORPUS[2], 30));
        // The corpus originates nothing; give two edges routes, one
        // whose decimal id sorts before the other's as text only.
        let mut p = s.network.policy.clone();
        for (e, pfx) in [(12, "10.12.0.0/16"), (3, "10.3.0.0/16")] {
            p.add_origination(EdgeId(e), Route::new(pfx.parse().unwrap()));
        }
        let (t, p) = (&s.network.topology, &p);
        let (t_json, p_json) = (
            serde_json::to_string(t).unwrap(),
            serde_json::to_string(p).unwrap(),
        );
        let t2: Topology = serde_json::from_str(&t_json).unwrap();
        let p2: Policy = serde_json::from_str(&p_json).unwrap();
        assert_eq!(t2.num_nodes(), t.num_nodes());
        assert_eq!(t2.num_edges(), t.num_edges());
        for a in t.node_ids() {
            assert_eq!(t2.out_edges(a), t.out_edges(a));
            assert_eq!(t2.in_edges(a), t.in_edges(a));
            assert_eq!(t2.node_by_name(&t.node(a).name), Some(a));
            for b in t.node_ids() {
                assert_eq!(t2.edge_between(a, b), t.edge_between(a, b));
            }
        }
        assert!(p.imports().count() > 0 && p.exports().count() > 0);
        for e in t.edge_ids() {
            assert_eq!(p2.import_map(e), p.import_map(e));
            assert_eq!(p2.export_map(e), p.export_map(e));
            assert_eq!(p2.originated(e), p.originated(e));
        }
        assert_eq!(serde_json::to_string(&t2).unwrap(), t_json);
        assert_eq!(serde_json::to_string(&p2).unwrap(), p_json);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ZooParams::scaled(&CORPUS[3], 30);
        let text = |p: &ZooParams| {
            configs(p)
                .iter()
                .map(bgp_config::print_config)
                .collect::<Vec<_>>()
        };
        assert_eq!(text(&p), text(&p));
        // A different seed rewires the graph.
        assert_ne!(text(&p), text(&p.clone().with_seed(p.seed + 1)));
    }

    #[test]
    fn clusters_cover_every_router_and_reflectors_are_distinct() {
        let s = build(&ZooParams::scaled(&CORPUS[5], 60));
        let k = s.params.num_clusters();
        assert_eq!(s.reflectors.len(), k);
        let distinct: BTreeSet<_> = s.reflectors.iter().collect();
        assert_eq!(distinct.len(), k);
        for (i, &c) in s.clusters.iter().enumerate() {
            assert!(c < k, "router {i} unassigned");
        }
    }
}
