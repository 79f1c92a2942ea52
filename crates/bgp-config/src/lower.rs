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
//!   resolved here; dangling references are errors. Each route map is
//!   resolved once per distinct set of inputs, across the whole network:
//!   routers whose map has the same name, the same entries and the same
//!   contents in every list it names share one resolved map, on every
//!   session of theirs that names it.
//! * `network P` statements originate a route with default attributes on
//!   every session, filtered through that session's outbound route map
//!   (matching how `network` routes enter BGP and then pass export
//!   policy). The resulting concrete routes populate `Originate(A -> B)`.

use crate::ast::{
    AsPathAclEntry, CommunityListEntry, ConfigAst, MatchAst, PrefixListEntry, RouteMapEntryAst,
    SetAst,
};
use bgp_model::aspath::AsPathRegex;
use bgp_model::policy::Policy;
use bgp_model::prefix::PrefixRange;
use bgp_model::route::Route;
use bgp_model::routemap::{Action, MatchCond, RouteMap, RouteMapEntry, SetAction};
use bgp_model::topology::{NodeId, Topology};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
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
    for cfg in configs {
        if cfg.hostname.is_empty() {
            return Err(errf("<unnamed>", "configuration has no hostname"));
        }
        if topo.node_by_name(&cfg.hostname).is_some() {
            return Err(errf(&cfg.hostname, "duplicate hostname"));
        }
        let asn = cfg.router_bgp.as_ref().map(|b| b.asn).unwrap_or(0);
        config_nodes.push(topo.add_router(cfg.hostname.clone(), asn));
    }

    // Pass 2: neighbors -> nodes + sessions. Each neighbor's (out, in)
    // edge pair is kept, in configuration order, for the passes below.
    let mut sessions = Vec::new();
    for (cfg, &me) in configs.iter().zip(&config_nodes) {
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
            sessions.push(match topo.edge_between(me, peer) {
                Some(out) => (
                    out,
                    topo.edge_between(peer, me)
                        .expect("a session has both edges"),
                ),
                None => topo.add_session(me, peer),
            });
        }
    }

    // Warn about one-sided internal sessions: a neighbor on an internal
    // peer whose reverse edge no neighbor of that peer declares.
    let mut declared = vec![false; topo.num_edges()];
    for &(out, _) in &sessions {
        declared[out.0 as usize] = true;
    }
    for &(out, back) in &sessions {
        let edge = topo.edge(out);
        let (me, peer) = (topo.node(edge.src), topo.node(edge.dst));
        if !peer.external && !declared[back.0 as usize] {
            warnings.push(format!(
                "{}: session to {} not declared on the far side",
                me.name, peer.name
            ));
        }
    }

    // Pass 3: policy.
    let mut policy = Policy::new();
    let mut maps = SharedMaps::default();
    let mut sessions = sessions.into_iter();
    for (cfg, &me) in configs.iter().zip(&config_nodes) {
        let Some(bgp) = &cfg.router_bgp else { continue };
        maps.next_router();
        for nbr in bgp.neighbors.values() {
            let (out_edge, in_edge) = sessions.next().expect("one session per neighbor");
            if let Some(name) = &nbr.route_map_in {
                policy.set_import(in_edge, maps.get(cfg, name)?);
            }
            if let Some(name) = &nbr.route_map_out {
                policy.set_export(out_edge, maps.get(cfg, name)?);
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

/// The route maps resolved so far across the network. Two routers share
/// one resolved map when every input of [`resolve_route_map`] is equal:
/// the map's name, its entries, and the contents of every list those
/// entries name.
#[derive(Default)]
struct SharedMaps<'c> {
    /// The current router's maps by name: its later sessions naming a
    /// map look here first.
    local: HashMap<&'c str, Arc<RouteMap>>,
    /// One resolved map per digest of its inputs, with the
    /// configuration it was resolved from. A hit counts only once the
    /// inputs compare equal; a map whose digest is taken by other
    /// inputs is resolved on its own. So no answer rests on the digest,
    /// and inputs made to collide cost sharing, never time.
    shared: HashMap<u64, (&'c ConfigAst, Arc<RouteMap>)>,
}

impl<'c> SharedMaps<'c> {
    /// Start on the next router's sessions.
    fn next_router(&mut self) {
        self.local.clear();
    }

    /// The map `name` of `cfg`: the current router's own if it named
    /// `name` before, else one resolved from equal inputs anywhere, else
    /// a new one. Errors name `cfg`'s router.
    fn get(&mut self, cfg: &'c ConfigAst, name: &'c str) -> Result<Arc<RouteMap>, LowerError> {
        if let Some(m) = self.local.get(name) {
            return Ok(Arc::clone(m));
        }
        let Some(entries) = cfg.route_maps.get(name) else {
            // Undefined: resolving reports it.
            return resolve_route_map(cfg, name).map(Arc::new);
        };
        let mut digest = FoldHasher::default();
        name.hash(&mut digest);
        entries.hash(&mut digest);
        each_list(entries, |kind, list| {
            kind.of(cfg, list).hash(&mut digest);
            true
        });
        let m = match self.shared.entry(digest.finish()) {
            Entry::Occupied(hit)
                if hit.get().1.name == name && same_inputs(hit.get().0, cfg, name) =>
            {
                Arc::clone(&hit.get().1)
            }
            Entry::Occupied(_) => Arc::new(resolve_route_map(cfg, name)?),
            Entry::Vacant(slot) => {
                let m = Arc::new(resolve_route_map(cfg, name)?);
                slot.insert((cfg, Arc::clone(&m)));
                m
            }
        };
        self.local.insert(name, Arc::clone(&m));
        Ok(m)
    }
}

/// Whether map `name` has equal inputs in `a` and `b`: equal entries,
/// and equal contents in every list those entries name.
fn same_inputs(a: &ConfigAst, b: &ConfigAst, name: &str) -> bool {
    match (a.route_maps.get(name), b.route_maps.get(name)) {
        (Some(x), Some(y)) => {
            x == y && each_list(x, |kind, list| kind.of(a, list) == kind.of(b, list))
        }
        _ => false,
    }
}

/// Folds what derived `Hash` feeds it into one word: integers are
/// packed into 64-bit words (a length or an enum tag as four bytes),
/// and each full word costs one folded multiply. It is unkeyed, unlike
/// the std hasher that keys tables of configuration text, because the
/// table it keys holds one map per digest and never chains: inputs
/// crafted to collide only lose sharing.
struct FoldHasher {
    state: u64,
    /// Bytes not yet folded, low first, and how many.
    word: u64,
    filled: u32,
}

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher {
            state: FOLD,
            word: 0,
            filled: 0,
        }
    }
}

/// The odd multiplier of [`FoldHasher`] (2^64 / golden ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

fn fold(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * u128::from(FOLD);
    product as u64 ^ (product >> 64) as u64
}

impl FoldHasher {
    /// Append the low `bytes` bytes of `n`.
    fn push(&mut self, n: u64, bytes: u32) {
        if self.filled + bytes > 8 {
            self.state = fold(self.state, self.word);
            (self.word, self.filled) = (0, 0);
        }
        self.word |= n << (8 * self.filled);
        self.filled += bytes;
    }
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        fold(self.state, self.word ^ u64::from(self.filled) << 60)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(word), 8);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.push(n.into(), 1);
    }

    fn write_u32(&mut self, n: u32) {
        self.push(n.into(), 4);
    }

    fn write_u64(&mut self, n: u64) {
        self.push(n, 8);
    }

    fn write_usize(&mut self, n: usize) {
        self.push(n as u32 as u64, 4);
    }
}

/// The three kinds of list a route map names.
#[derive(Clone, Copy)]
enum ListKind {
    Prefix,
    Community,
    AsPath,
}

/// The contents of one named list of a configuration (`None`:
/// undefined).
#[derive(PartialEq, Hash)]
enum ListContents<'c> {
    Prefix(Option<&'c Vec<PrefixListEntry>>),
    Community(Option<&'c Vec<CommunityListEntry>>),
    AsPath(Option<&'c Vec<AsPathAclEntry>>),
}

impl ListKind {
    /// The list `name` of this kind in `cfg`.
    fn of<'c>(self, cfg: &'c ConfigAst, name: &str) -> ListContents<'c> {
        match self {
            ListKind::Prefix => ListContents::Prefix(cfg.prefix_lists.get(name)),
            ListKind::Community => ListContents::Community(cfg.community_lists.get(name)),
            ListKind::AsPath => ListContents::AsPath(cfg.aspath_acls.get(name)),
        }
    }
}

/// Call `f` on every list `entries` name, matched or deleted through, in
/// order, while it returns true; whether it always did.
fn each_list(entries: &[RouteMapEntryAst], mut f: impl FnMut(ListKind, &str) -> bool) -> bool {
    for e in entries {
        for m in &e.matches {
            let (kind, names) = match m {
                MatchAst::PrefixList(names) => (ListKind::Prefix, names),
                MatchAst::Community { lists, .. } => (ListKind::Community, lists),
                MatchAst::AsPath(names) => (ListKind::AsPath, names),
                MatchAst::Med(_) | MatchAst::LocalPref(_) => continue,
            };
            if !names.iter().all(|n| f(kind, n)) {
                return false;
            }
        }
        for s in &e.sets {
            if let SetAst::CommListDelete(name) = s {
                if !f(ListKind::Community, name) {
                    return false;
                }
            }
        }
    }
    true
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
    fn equal_maps_share_one_resolution_across_routers() {
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
        // R2's OUT has equal inputs, so it is R1's map too.
        let r2_x = p.export_map(edge("R2", "X")).unwrap();
        assert!(std::ptr::eq(r1_x, r2_x));
        assert_eq!(r1_x, r2_x);
    }

    /// A router whose `OUT` map reads every kind of input
    /// [`resolve_route_map`] does: a prefix-list, a matched
    /// community-list, an as-path ACL and a deleted community-list.
    fn reads_every_input(hostname: &str) -> ConfigAst {
        parse_config(&format!(
            "\
hostname {hostname}
ip prefix-list P seq 5 permit 10.0.0.0/8 le 24
ip community-list standard C permit 100:1
ip community-list standard D permit 100:2
ip as-path access-list A permit _65000_
route-map OUT permit 10
 match ip address prefix-list P
 match community C
 match as-path A
 set comm-list D delete
 set metric 5
router bgp 1
 neighbor 1.1.1.2 remote-as 2
 neighbor 1.1.1.2 description X
 neighbor 1.1.1.2 route-map OUT out
"
        ))
        .unwrap()
    }

    /// Lower R1 and an R2 that differs from it by `edit` alone: whether
    /// their maps on their sessions to X are one, and whether R2's map
    /// has the same inputs in R1. R2's map is checked against its own
    /// resolution either way.
    fn lower_edited(edit: impl FnOnce(&mut ConfigAst)) -> (bool, bool) {
        let r1 = reads_every_input("R1");
        let mut r2 = reads_every_input("R2");
        edit(&mut r2);
        let net = lower(&[r1.clone(), r2.clone()]).unwrap();
        let (t, p) = (&net.topology, &net.policy);
        let x = t.node_by_name("X").unwrap();
        let map = |r: &str| {
            let (_, m) = p
                .exports()
                .find(|&(e, _)| t.edge(e).src == t.node_by_name(r).unwrap() && t.edge(e).dst == x)
                .unwrap();
            Arc::clone(m)
        };
        let (m1, m2) = (map("R1"), map("R2"));
        assert_eq!(*m2, resolve_route_map(&r2, &m2.name).unwrap());
        (Arc::ptr_eq(&m1, &m2), same_inputs(&r1, &r2, &m2.name))
    }

    #[test]
    fn equal_inputs_share_and_every_input_splits() {
        assert_eq!(
            lower_edited(|_| {}),
            (true, true),
            "equal inputs share one map"
        );
        type Edit = fn(&mut ConfigAst);
        let edits: [(&str, Edit); 6] = [
            ("entry text", |c| {
                c.route_maps.get_mut("OUT").unwrap()[0].sets[1] = SetAst::Med(6);
            }),
            ("prefix-list ge/le", |c| {
                let e = &mut c.prefix_lists.get_mut("P").unwrap()[0];
                (e.ge, e.le) = (Some(16), Some(28));
            }),
            ("community-list entry", |c| {
                c.community_lists.get_mut("C").unwrap()[0].communities[0].0 += 1;
            }),
            ("as-path regex", |c| {
                c.aspath_acls.get_mut("A").unwrap()[0].regex = "_65001_".to_string();
            }),
            ("deleted community-list", |c| {
                c.community_lists.get_mut("D").unwrap()[0].communities[0].0 += 1;
            }),
            ("map name", |c| {
                let entries = c.route_maps.remove("OUT").unwrap();
                c.route_maps.insert("OUT2".to_string(), entries);
                let bgp = c.router_bgp.as_mut().unwrap();
                bgp.neighbors.values_mut().next().unwrap().route_map_out = Some("OUT2".into());
            }),
        ];
        for (input, edit) in edits {
            assert_eq!(
                lower_edited(edit),
                (false, false),
                "a different {input} must keep the maps apart"
            );
        }
    }

    #[test]
    fn a_list_undefined_on_the_second_router_only_names_it() {
        let mut r2 = reads_every_input("R2");
        r2.prefix_lists.clear();
        let e = lower(&[reads_every_input("R1"), r2]).unwrap_err();
        assert_eq!(e.to_string(), "R2: undefined prefix-list \"P\"");
    }

    #[test]
    fn one_sided_sessions_warn_in_configuration_order() {
        // A -> C and B -> D are one-sided; A's neighbors list C before
        // B, and B's list D before A. One-sided warnings follow every
        // remote-as warning, in configuration order.
        let a = parse_config(
            "hostname A\nrouter bgp 1\n neighbor 1.1.1.3 remote-as 1\n neighbor 1.1.1.3 description C\n neighbor 1.1.1.2 remote-as 1\n neighbor 1.1.1.2 description B\n",
        )
        .unwrap();
        let b = parse_config(
            "hostname B\nrouter bgp 1\n neighbor 1.1.1.4 remote-as 1\n neighbor 1.1.1.4 description D\n neighbor 1.1.1.1 remote-as 1\n neighbor 1.1.1.1 description A\n",
        )
        .unwrap();
        let c = parse_config("hostname C\nrouter bgp 1\n").unwrap();
        let d = parse_config("hostname D\n").unwrap();
        let net = lower(&[a, b, c, d]).unwrap();
        assert_eq!(
            net.warnings,
            [
                "B: neighbor 1.1.1.4 remote-as 1 but D runs AS 0",
                "A: session to C not declared on the far side",
                "B: session to D not declared on the far side",
            ]
        );
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
