//! The topology families: every netgen family behind one uniform interface,
//! plus the per-case metadata the oracles need (which externals announce
//! what, and how ghost provenance is decided on concrete routes).
//!
//! Provenance is keyed by `(prefix, origin ASN)` — not prefix alone —
//! so **anycast** announcements (the same prefix from several externals,
//! as the multi-homed stub family does deliberately) stay unambiguous:
//! each announcer originates the shared prefix from its own AS.

use bgp_config::ast::ConfigAst;
use bgp_config::Network;
use bgp_model::topology::EdgeId;
use bgp_model::{Ipv4Prefix, Route};
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::NetworkInvariants;
use lightyear::safety::SafetyProperty;
use netgen::{figure1, fullmesh, hubspoke, rr, stub, wan};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// The topology families on the fuzzing menu.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FamilyId {
    /// The paper's Figure-1 running example.
    Figure1,
    /// The §6.2 iBGP full mesh.
    FullMesh,
    /// The §6.1 cloud WAN.
    Wan,
    /// The iBGP route-reflector hierarchy.
    Rr,
    /// The multi-homed stub with anycast.
    Stub,
    /// The hub-and-spoke enterprise WAN.
    HubSpoke,
}

impl FamilyId {
    /// Every family, in menu order.
    pub fn all() -> &'static [FamilyId] {
        &[
            FamilyId::Figure1,
            FamilyId::FullMesh,
            FamilyId::Wan,
            FamilyId::Rr,
            FamilyId::Stub,
            FamilyId::HubSpoke,
        ]
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            FamilyId::Figure1 => "figure1",
            FamilyId::FullMesh => "fullmesh",
            FamilyId::Wan => "wan",
            FamilyId::Rr => "rr",
            FamilyId::Stub => "stub",
            FamilyId::HubSpoke => "hubspoke",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<FamilyId> {
        FamilyId::all().iter().copied().find(|f| f.name() == s)
    }
}

impl fmt::Display for FamilyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Concrete generator parameters for one case: a family plus its sizes.
#[derive(Clone, Copy, Debug)]
pub enum FamilyParams {
    /// Figure 1 (fixed size).
    Figure1,
    /// Full mesh of `n` routers.
    FullMesh {
        /// Mesh size.
        n: usize,
    },
    /// The cloud WAN.
    Wan(wan::WanParams),
    /// The route-reflector hierarchy.
    Rr(rr::RrParams),
    /// The multi-homed stub.
    Stub(stub::StubParams),
    /// The hub-and-spoke star.
    HubSpoke(hubspoke::HubParams),
}

impl FamilyParams {
    /// The family behind these parameters.
    pub fn family(&self) -> FamilyId {
        match self {
            FamilyParams::Figure1 => FamilyId::Figure1,
            FamilyParams::FullMesh { .. } => FamilyId::FullMesh,
            FamilyParams::Wan(_) => FamilyId::Wan,
            FamilyParams::Rr(_) => FamilyId::Rr,
            FamilyParams::Stub(_) => FamilyId::Stub,
            FamilyParams::HubSpoke(_) => FamilyId::HubSpoke,
        }
    }

    /// Draw fuzz-sized parameters for a family (small networks: the
    /// oracles re-verify each case several times over).
    pub fn random(family: FamilyId, rng: &mut StdRng) -> FamilyParams {
        let seed = rng.random_range(0u64..1000);
        match family {
            FamilyId::Figure1 => FamilyParams::Figure1,
            FamilyId::FullMesh => FamilyParams::FullMesh {
                n: rng.random_range(2usize..5),
            },
            FamilyId::Wan => FamilyParams::Wan(wan::WanParams {
                regions: rng.random_range(1usize..3),
                routers_per_region: rng.random_range(1usize..3),
                edge_routers: rng.random_range(1usize..3),
                peers_per_edge: rng.random_range(1usize..3),
                seed,
            }),
            FamilyId::Rr => FamilyParams::Rr(rr::RrParams {
                reflectors: rng.random_range(1usize..4),
                clients_per_reflector: rng.random_range(2usize..4),
                seed,
            }),
            FamilyId::Stub => FamilyParams::Stub(stub::StubParams {
                borders: rng.random_range(2usize..5),
                seed,
            }),
            FamilyId::HubSpoke => FamilyParams::HubSpoke(hubspoke::HubParams {
                spokes: rng.random_range(1usize..5),
                seed,
            }),
        }
    }

    /// Compact one-line codec (stored in repro files; see
    /// [`FamilyParams::decode`]).
    pub fn encode(&self) -> String {
        match self {
            FamilyParams::Figure1 => "figure1".into(),
            FamilyParams::FullMesh { n } => format!("fullmesh:{n}"),
            FamilyParams::Wan(p) => format!(
                "wan:{},{},{},{},{}",
                p.regions, p.routers_per_region, p.edge_routers, p.peers_per_edge, p.seed
            ),
            FamilyParams::Rr(p) => {
                format!("rr:{},{},{}", p.reflectors, p.clients_per_reflector, p.seed)
            }
            FamilyParams::Stub(p) => format!("stub:{},{}", p.borders, p.seed),
            FamilyParams::HubSpoke(p) => format!("hubspoke:{},{}", p.spokes, p.seed),
        }
    }

    /// Parse the [`FamilyParams::encode`] form.
    pub fn decode(s: &str) -> Option<FamilyParams> {
        let (name, rest) = s.split_once(':').unwrap_or((s, ""));
        let nums: Vec<u64> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?
        };
        match (name, nums.as_slice()) {
            ("figure1", []) => Some(FamilyParams::Figure1),
            ("fullmesh", [n]) => Some(FamilyParams::FullMesh { n: *n as usize }),
            ("wan", [r, rpr, e, p, s]) => Some(FamilyParams::Wan(wan::WanParams {
                regions: *r as usize,
                routers_per_region: *rpr as usize,
                edge_routers: *e as usize,
                peers_per_edge: *p as usize,
                seed: *s,
            })),
            ("rr", [r, c, s]) => Some(FamilyParams::Rr(rr::RrParams {
                reflectors: *r as usize,
                clients_per_reflector: *c as usize,
                seed: *s,
            })),
            ("stub", [b, s]) => Some(FamilyParams::Stub(stub::StubParams {
                borders: *b as usize,
                seed: *s,
            })),
            ("hubspoke", [n, s]) => Some(FamilyParams::HubSpoke(hubspoke::HubParams {
                spokes: *n as usize,
                seed: *s,
            })),
            _ => None,
        }
    }

    /// The family's pristine configuration ASTs.
    pub fn configs(&self) -> Vec<ConfigAst> {
        match self {
            FamilyParams::Figure1 => figure1::configs(),
            FamilyParams::FullMesh { n } => fullmesh::configs(*n),
            FamilyParams::Wan(p) => wan::configs(p),
            FamilyParams::Rr(p) => rr::configs(p),
            FamilyParams::Stub(p) => stub::configs(p),
            FamilyParams::HubSpoke(p) => hubspoke::configs(p),
        }
    }

    /// Build the pristine case.
    pub fn build(&self) -> FuzzCase {
        self.build_from(self.configs())
    }

    /// Build a case from (possibly mutated) configuration ASTs. Panics
    /// when the configs no longer lower — callers probing reductions
    /// catch that (see `minimize`).
    pub fn build_from(&self, configs: Vec<ConfigAst>) -> FuzzCase {
        let kept = configs.clone();
        let (network, ghosts, suites) = match self {
            FamilyParams::Figure1 => {
                let s = figure1::build_from_configs(configs);
                let suites = vec![Suite {
                    name: "no-transit".into(),
                    props: vec![s.no_transit.clone()],
                    inv: s.no_transit_inv.clone(),
                }];
                (s.network, vec![s.ghost], suites)
            }
            FamilyParams::FullMesh { .. } => {
                let s = fullmesh::build_from_configs(configs);
                let suites = vec![Suite {
                    name: "no-transit".into(),
                    props: vec![s.property.clone()],
                    inv: s.invariants.clone(),
                }];
                (s.network, vec![s.ghost], suites)
            }
            FamilyParams::Wan(p) => {
                let s = wan::build_from_configs(p, configs);
                // Three of the §6.1 peering suites: a prefix filter, a
                // tagging action and the regional-community fence — the
                // rest share their encoding shapes with these.
                let mut suites = Vec::new();
                for (name, q) in s.peering_predicates() {
                    if !matches!(
                        name.as_str(),
                        "no-bogons" | "peer-tagged" | "no-regional-comms"
                    ) {
                        continue;
                    }
                    let (props, inv) = s.peering_property_inputs(&q);
                    suites.push(Suite { name, props, inv });
                }
                let ghost = s.from_peer_ghost();
                (s.network, vec![ghost], suites)
            }
            FamilyParams::Rr(p) => {
                let s = rr::build_from_configs(p, configs);
                let suites = vec![Suite {
                    name: "rr".into(),
                    props: s.properties.clone(),
                    inv: s.invariants.clone(),
                }];
                (s.network, vec![s.ghost], suites)
            }
            FamilyParams::Stub(p) => {
                let s = stub::build_from_configs(p, configs);
                let suites = vec![Suite {
                    name: "stub".into(),
                    props: s.properties.clone(),
                    inv: s.invariants.clone(),
                }];
                (
                    s.network,
                    vec![s.primary_ghost.clone(), s.backup_ghost.clone()],
                    suites,
                )
            }
            FamilyParams::HubSpoke(p) => {
                let s = hubspoke::build_from_configs(p, configs);
                let suites = vec![Suite {
                    name: "hubspoke".into(),
                    props: s.properties.clone(),
                    inv: s.invariants.clone(),
                }];
                (
                    s.network,
                    vec![s.site_ghost.clone(), s.inet_ghost.clone()],
                    suites,
                )
            }
        };
        let announcers = announcers(self, &network);
        FuzzCase {
            params: *self,
            configs: kept,
            network,
            ghosts,
            suites,
            announcers,
        }
    }
}

/// One verification suite of a case (verified with the case's ghosts).
#[derive(Clone)]
pub struct Suite {
    /// Display name.
    pub name: String,
    /// The properties.
    pub props: Vec<SafetyProperty>,
    /// Their shared invariants.
    pub inv: NetworkInvariants,
}

/// One external's announcement plan for the simulation oracle.
#[derive(Clone, Debug)]
pub struct Announcer {
    /// The external -> router edge announcements enter on.
    pub edge: EdgeId,
    /// The external's name.
    pub external: String,
    /// Prefixes this external may announce. The first is unique to this
    /// announcer; later entries may be shared (anycast / reused blocks).
    pub prefixes: Vec<Ipv4Prefix>,
    /// The origin ASN pinned as the last AS-path element — the other
    /// half of the provenance key.
    pub origin_asn: u32,
}

/// A generated fuzz case.
pub struct FuzzCase {
    /// The generator parameters.
    pub params: FamilyParams,
    /// The configuration ASTs the case was built from.
    pub configs: Vec<ConfigAst>,
    /// The lowered network.
    pub network: Network,
    /// Every ghost attribute any suite references.
    pub ghosts: Vec<GhostAttr>,
    /// The verification suites.
    pub suites: Vec<Suite>,
    /// The simulation announcement plan.
    pub announcers: Vec<Announcer>,
}

impl FuzzCase {
    /// A verifier configured with the case's ghosts (callers pick modes).
    pub fn verifier(&self) -> lightyear::engine::Verifier<'_> {
        let mut v = lightyear::engine::Verifier::new(&self.network.topology, &self.network.policy);
        for g in &self.ghosts {
            v = v.with_ghost(g.clone());
        }
        v
    }

    /// Ghost values for a route announced on `edge`: `SetTrue` imports
    /// make the attribute true, everything else (including `Unchanged`,
    /// since external announcements start out ghost-free) false.
    pub fn ghost_values(&self, edge: EdgeId) -> BTreeMap<String, bool> {
        self.ghosts
            .iter()
            .map(|g| {
                (
                    g.name.clone(),
                    g.import_update(edge) == GhostUpdate::SetTrue,
                )
            })
            .collect()
    }

    /// The provenance map: `(prefix, origin ASN)` -> announcing edge.
    pub fn provenance(&self) -> BTreeMap<(Ipv4Prefix, u32), EdgeId> {
        let mut m = BTreeMap::new();
        for a in &self.announcers {
            for p in &a.prefixes {
                m.insert((*p, a.origin_asn), a.edge);
            }
        }
        m
    }

    /// Total structural size (configs + route-map entries + neighbor
    /// blocks + list objects) — the metric the minimizer must strictly
    /// decrease.
    pub fn size(&self) -> usize {
        case_size(&self.configs)
    }
}

/// Structural size of a configuration set (see [`FuzzCase::size`]).
pub fn case_size(configs: &[ConfigAst]) -> usize {
    configs
        .iter()
        .map(|c| {
            1 + c.route_maps.values().map(Vec::len).sum::<usize>()
                + c.prefix_lists.len()
                + c.community_lists.len()
                + c.aspath_acls.len()
                + c.router_bgp.as_ref().map_or(0, |b| b.neighbors.len())
        })
        .sum()
}

/// The unique per-announcer prefix pool (clear of every family's bogon /
/// reused / infra / too-specific filters).
fn pool_prefix(i: usize) -> Ipv4Prefix {
    format!("20.{}.0.0/16", i % 250).parse().unwrap()
}

/// Build the announcement plan: every external edge announces a unique
/// pool prefix; the stub's providers additionally share the anycast
/// prefix and the WAN's data centers the reused block (distinct origin
/// ASNs keep provenance decidable).
fn announcers(params: &FamilyParams, network: &Network) -> Vec<Announcer> {
    let t = &network.topology;
    let mut out = Vec::new();
    let mut idx = 0usize;
    let mut edges: Vec<EdgeId> = t.edge_ids().collect();
    edges.sort();
    for e in edges {
        let edge = t.edge(e);
        if !t.node(edge.src).external {
            continue;
        }
        let name = t.node(edge.src).name.clone();
        let mut prefixes = vec![pool_prefix(idx)];
        match params {
            FamilyParams::Stub(_) if name.starts_with("PROV") => {
                prefixes.push(stub::anycast_prefix());
            }
            FamilyParams::Wan(_) if name.starts_with("DC") => {
                prefixes.push(wan::reused_prefix());
            }
            _ => {}
        }
        out.push(Announcer {
            edge: e,
            external: name,
            prefixes,
            origin_asn: 50_000 + idx as u32,
        });
        idx += 1;
    }
    out
}

/// A random announcement from one announcer: its unique prefix or a
/// shared one, with adversarial attributes (forged communities from the
/// family's own tag space, random MED / next-hop / AS-path padding).
pub fn random_announcement(a: &Announcer, rng: &mut StdRng) -> Route {
    let p = a.prefixes[rng.random_range(0..a.prefixes.len())];
    let mut path = Vec::new();
    for _ in 0..rng.random_range(0usize..3) {
        path.push(rng.random_range(1u32..500));
    }
    path.push(a.origin_asn);
    let mut r = Route::new(p)
        .with_as_path(path)
        .with_med(rng.random_range(0u32..50))
        .with_next_hop(rng.random_range(1u32..1000));
    // Adversarial communities: the families' own provenance tags, so
    // forged provenance is always on the table.
    let forged = [
        bgp_model::Community::new(100, 1),
        bgp_model::Community::new(200, 1),
        bgp_model::Community::new(300, 10),
        bgp_model::Community::new(300, 20),
        bgp_model::Community::new(400, 1),
        bgp_model::Community::new(400, 2),
        bgp_model::Community::new(100, 10),
    ];
    for _ in 0..rng.random_range(0usize..3) {
        r = r.with_community(forged[rng.random_range(0..forged.len())]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn params_codec_roundtrips() {
        let mut rng = StdRng::seed_from_u64(9);
        for f in FamilyId::all() {
            let p = FamilyParams::random(*f, &mut rng);
            let back = FamilyParams::decode(&p.encode()).unwrap();
            assert_eq!(back.encode(), p.encode());
            assert_eq!(back.family(), *f);
        }
        assert!(FamilyParams::decode("wan:1,2").is_none());
        assert!(FamilyParams::decode("nope").is_none());
    }

    #[test]
    fn every_family_builds_and_verifies() {
        for f in FamilyId::all() {
            let mut rng = StdRng::seed_from_u64(17);
            let case = FamilyParams::random(*f, &mut rng).build();
            assert!(!case.suites.is_empty(), "{f}");
            assert!(!case.announcers.is_empty(), "{f}");
            let v = case.verifier();
            for s in &case.suites {
                let report = v.verify_safety_multi(&s.props, &s.inv);
                assert!(
                    report.all_passed(),
                    "{f}/{}: {}",
                    s.name,
                    report.format_failures(&case.network.topology)
                );
            }
        }
    }

    #[test]
    fn provenance_covers_anycast() {
        let case = FamilyParams::Stub(netgen::stub::StubParams {
            borders: 3,
            seed: 0,
        })
        .build();
        let prov = case.provenance();
        let anycast = netgen::stub::anycast_prefix();
        let announcing: Vec<_> = prov.keys().filter(|(p, _)| *p == anycast).collect();
        assert_eq!(announcing.len(), 3, "each provider announces anycast");
    }
}
