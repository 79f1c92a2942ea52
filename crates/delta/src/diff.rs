//! The semantic diff: resolved-meaning comparison and edit
//! classification (see the crate docs for the classification table).

use bgp_config::ast::{ConfigAst, MatchAst, NeighborAst};
use bgp_config::lower::resolve_route_map;
use bgp_model::{Ipv4Prefix, RouteMapEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One classified edit on one router.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeltaEdit {
    /// The router whose configuration differs.
    pub router: String,
    /// What kind of difference.
    pub kind: DeltaKind,
}

/// The semantic classification of a configuration difference.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaKind {
    /// A configuration file appeared.
    RouterAdded,
    /// A configuration file disappeared.
    RouterRemoved,
    /// The `router bgp` ASN changed.
    AsnChanged,
    /// A neighbor block appeared.
    PeeringAdded {
        /// The peer the new session names.
        peer: String,
    },
    /// A neighbor block disappeared.
    PeeringRemoved {
        /// The peer the removed session named.
        peer: String,
    },
    /// A neighbor block changed its remote AS.
    PeeringChanged {
        /// The peer whose session changed.
        peer: String,
    },
    /// A route map's resolved terms changed (matches, sets, actions, or
    /// which map a session attaches).
    RouteMapChanged {
        /// The affected map (the new attachment's name).
        map: String,
    },
    /// A referenced prefix list changed while the route-map text did not.
    PrefixListEdited {
        /// The edited list.
        list: String,
    },
    /// A referenced community list changed while the route-map text did
    /// not.
    CommunityListEdited {
        /// The edited list.
        list: String,
    },
    /// A referenced AS-path access list changed while the route-map text
    /// did not.
    AsPathAclEdited {
        /// The edited list.
        list: String,
    },
    /// The originated prefixes (`network` statements) changed.
    OriginationChanged,
    /// The text differs but the resolved semantics are identical: a
    /// rename, a seq renumbering, an edit to an unused object. Produces
    /// an empty dirty set downstream.
    Cosmetic,
}

impl fmt::Display for DeltaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaKind::RouterAdded => write!(f, "router added"),
            DeltaKind::RouterRemoved => write!(f, "router removed"),
            DeltaKind::AsnChanged => write!(f, "ASN changed"),
            DeltaKind::PeeringAdded { peer } => write!(f, "peering to {peer} added"),
            DeltaKind::PeeringRemoved { peer } => write!(f, "peering to {peer} removed"),
            DeltaKind::PeeringChanged { peer } => write!(f, "peering to {peer} changed"),
            DeltaKind::RouteMapChanged { map } => write!(f, "route-map {map} changed"),
            DeltaKind::PrefixListEdited { list } => write!(f, "prefix-list {list} edited"),
            DeltaKind::CommunityListEdited { list } => write!(f, "community-list {list} edited"),
            DeltaKind::AsPathAclEdited { list } => write!(f, "as-path list {list} edited"),
            DeltaKind::OriginationChanged => write!(f, "originations changed"),
            DeltaKind::Cosmetic => write!(f, "cosmetic edit"),
        }
    }
}

impl DeltaKind {
    /// True for edits the verifier can observe (everything but
    /// [`DeltaKind::Cosmetic`]).
    pub fn is_semantic(&self) -> bool {
        !matches!(self, DeltaKind::Cosmetic)
    }
}

/// The classified difference between two configuration sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfigDelta {
    /// All classified edits, sorted by router then kind.
    pub edits: Vec<DeltaEdit>,
}

impl ConfigDelta {
    /// True when the configurations are textually identical.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// True when every edit is cosmetic (and there is at least one):
    /// the verifier must observe nothing.
    pub fn is_cosmetic(&self) -> bool {
        !self.edits.is_empty() && self.edits.iter().all(|e| !e.kind.is_semantic())
    }

    /// Routers with at least one semantic edit — what a re-verify round
    /// counts its candidates stat from.
    pub fn changed_routers(&self) -> Vec<String> {
        let mut out: BTreeSet<&str> = BTreeSet::new();
        for e in &self.edits {
            if e.kind.is_semantic() {
                out.insert(&e.router);
            }
        }
        out.into_iter().map(str::to_string).collect()
    }

    /// A compact human rendering, e.g.
    /// `[R0-1: route-map FROM-DC changed; EDGE1: peering to PEER1-0 removed]`.
    pub fn summary(&self) -> String {
        if self.edits.is_empty() {
            return "[no change]".to_string();
        }
        let parts: Vec<String> = self
            .edits
            .iter()
            .map(|e| format!("{}: {}", e.router, e.kind))
            .collect();
        format!("[{}]", parts.join("; "))
    }
}

impl fmt::Display for ConfigDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

/// A route-map attachment resolved to its full meaning: `None` when
/// nothing is attached, `Err` with the error text for a dangling
/// reference (conservatively a change whenever that text differs).
type Attachment = Option<Result<Vec<RouteMapEntry>, String>>;

fn resolve_attachment(cfg: &ConfigAst, name: Option<&String>) -> Attachment {
    name.map(|n| {
        resolve_route_map(cfg, n)
            .map(|map| map.entries)
            .map_err(|e| format!("{n}:{e}"))
    })
}

/// The semantic projection of one neighbor block.
#[derive(PartialEq, Eq)]
struct NeighborSem {
    remote_as: Option<u32>,
    import: Attachment,
    export: Attachment,
}

/// The semantic projection of one router configuration: everything the
/// lowering pipeline (and therefore the verifier) can observe.
struct RouterSem {
    asn: u32,
    /// Keyed by peer name (the `description`, which is how lowering
    /// matches sessions); unnamed neighbors keyed by address.
    neighbors: BTreeMap<String, NeighborSem>,
    networks: Vec<Ipv4Prefix>,
}

fn project(cfg: &ConfigAst) -> RouterSem {
    let mut neighbors = BTreeMap::new();
    let mut networks = Vec::new();
    let mut asn = 0;
    if let Some(bgp) = &cfg.router_bgp {
        asn = bgp.asn;
        // Duplicate descriptions must not collapse blocks (each block
        // contributes its own attachments during lowering): disambiguate
        // colliding keys with the session address.
        let mut desc_count: BTreeMap<&str, usize> = BTreeMap::new();
        for nbr in bgp.neighbors.values() {
            if let Some(d) = nbr.description.as_deref() {
                *desc_count.entry(d).or_default() += 1;
            }
        }
        for nbr in bgp.neighbors.values() {
            let key = match nbr.description.as_deref() {
                Some(d) if desc_count[d] == 1 => d.to_string(),
                Some(d) => format!("{d}@{}", nbr.addr),
                None => format!("@{}", nbr.addr),
            };
            neighbors.insert(
                key,
                NeighborSem {
                    remote_as: nbr.remote_as,
                    import: resolve_attachment(cfg, nbr.route_map_in.as_ref()),
                    export: resolve_attachment(cfg, nbr.route_map_out.as_ref()),
                },
            );
        }
        networks = bgp.networks.clone();
        networks.sort();
    }
    RouterSem {
        asn,
        neighbors,
        networks,
    }
}

/// The neighbor block behind a projection key: a unique `description`,
/// a `desc@addr` disambiguation for duplicate descriptions, or `@addr`
/// for description-less blocks (lowering rejects the latter two
/// shapes, but the differ must still classify them).
fn find_neighbor<'a>(cfg: &'a ConfigAst, key: &str) -> Option<&'a NeighborAst> {
    let bgp = cfg.router_bgp.as_ref()?;
    if let Some((_, addr)) = key.rsplit_once('@') {
        if let Some(n) = bgp.neighbors.get(addr) {
            return Some(n);
        }
    }
    bgp.neighbors
        .values()
        .find(|n| n.description.as_deref() == Some(key))
}

/// Blame a changed attachment on the artifact that caused it: the map's
/// own text, or — when the map text is unchanged — a referenced list.
fn blame_map(old: &ConfigAst, new: &ConfigAst, name: &str, kinds: &mut BTreeSet<DeltaKind>) {
    let (old_ast, new_ast) = (old.route_maps.get(name), new.route_maps.get(name));
    if old_ast != new_ast || old_ast.is_none() {
        kinds.insert(DeltaKind::RouteMapChanged {
            map: name.to_string(),
        });
        return;
    }
    // Map text unchanged: the resolution changed through a referenced
    // list. Find which.
    let mut blamed = false;
    for entry in new_ast.expect("present on both sides") {
        for m in &entry.matches {
            match m {
                MatchAst::PrefixList(lists) => {
                    for l in lists {
                        if old.prefix_lists.get(l) != new.prefix_lists.get(l) {
                            kinds.insert(DeltaKind::PrefixListEdited { list: l.clone() });
                            blamed = true;
                        }
                    }
                }
                MatchAst::Community { lists, .. } => {
                    for l in lists {
                        if old.community_lists.get(l) != new.community_lists.get(l) {
                            kinds.insert(DeltaKind::CommunityListEdited { list: l.clone() });
                            blamed = true;
                        }
                    }
                }
                MatchAst::AsPath(lists) => {
                    for l in lists {
                        if old.aspath_acls.get(l) != new.aspath_acls.get(l) {
                            kinds.insert(DeltaKind::AsPathAclEdited { list: l.clone() });
                            blamed = true;
                        }
                    }
                }
                _ => {}
            }
        }
        for s in &entry.sets {
            if let bgp_config::ast::SetAst::CommListDelete(l) = s {
                if old.community_lists.get(l) != new.community_lists.get(l) {
                    kinds.insert(DeltaKind::CommunityListEdited { list: l.clone() });
                    blamed = true;
                }
            }
        }
    }
    if !blamed {
        // Same text, same lists, different resolution cannot happen; be
        // conservative if it somehow does.
        kinds.insert(DeltaKind::RouteMapChanged {
            map: name.to_string(),
        });
    }
}

/// Classify the difference between two configurations of one router.
fn classify_router(old: &ConfigAst, new: &ConfigAst) -> Vec<DeltaKind> {
    debug_assert_eq!(old.hostname, new.hostname);
    if old == new {
        return Vec::new();
    }
    let (po, pn) = (project(old), project(new));
    let mut kinds: BTreeSet<DeltaKind> = BTreeSet::new();
    if po.asn != pn.asn {
        kinds.insert(DeltaKind::AsnChanged);
    }
    if po.networks != pn.networks {
        kinds.insert(DeltaKind::OriginationChanged);
    }
    for (peer, old_sem) in &po.neighbors {
        match pn.neighbors.get(peer) {
            None => {
                kinds.insert(DeltaKind::PeeringRemoved { peer: peer.clone() });
            }
            Some(new_sem) => {
                if old_sem.remote_as != new_sem.remote_as {
                    kinds.insert(DeltaKind::PeeringChanged { peer: peer.clone() });
                }
                if old_sem.import != new_sem.import || old_sem.export != new_sem.export {
                    // Blame by the attached map name (prefer the new
                    // attachment; a pure re-attachment still names the
                    // map the verifier now sees).
                    let nbr_new = find_neighbor(new, peer).cloned().unwrap_or_default();
                    let nbr_old = find_neighbor(old, peer).cloned().unwrap_or_default();
                    for (o, n, changed) in [
                        (
                            &nbr_old.route_map_in,
                            &nbr_new.route_map_in,
                            old_sem.import != new_sem.import,
                        ),
                        (
                            &nbr_old.route_map_out,
                            &nbr_new.route_map_out,
                            old_sem.export != new_sem.export,
                        ),
                    ] {
                        if !changed {
                            continue;
                        }
                        match (o, n) {
                            (Some(a), Some(b)) if a == b => blame_map(old, new, a, &mut kinds),
                            (_, Some(b)) => {
                                kinds.insert(DeltaKind::RouteMapChanged { map: b.clone() });
                            }
                            (Some(a), None) => {
                                kinds.insert(DeltaKind::RouteMapChanged { map: a.clone() });
                            }
                            // A resolution change with no attachment on
                            // either side can only mean the neighbor
                            // lookup failed; never let a semantic change
                            // degrade to "nothing" (classification must
                            // stay at least as sensitive as the
                            // fingerprints).
                            (None, None) => {
                                kinds.insert(DeltaKind::PeeringChanged { peer: peer.clone() });
                            }
                        }
                    }
                }
            }
        }
    }
    for peer in pn.neighbors.keys() {
        if !po.neighbors.contains_key(peer) {
            kinds.insert(DeltaKind::PeeringAdded { peer: peer.clone() });
        }
    }
    if kinds.is_empty() {
        // Text differs, semantics do not.
        return vec![DeltaKind::Cosmetic];
    }
    kinds.into_iter().collect()
}

/// Diff two configuration sets (keyed by hostname) into a classified
/// [`ConfigDelta`]. Order of the input slices is irrelevant.
pub fn diff_configs(old: &[ConfigAst], new: &[ConfigAst]) -> ConfigDelta {
    let by_name = |set: &'_ [ConfigAst]| -> BTreeMap<String, usize> {
        set.iter()
            .enumerate()
            .map(|(i, c)| (c.hostname.clone(), i))
            .collect()
    };
    let (om, nm) = (by_name(old), by_name(new));
    let mut edits = Vec::new();
    for (name, &oi) in &om {
        match nm.get(name) {
            None => edits.push(DeltaEdit {
                router: name.clone(),
                kind: DeltaKind::RouterRemoved,
            }),
            Some(&ni) => {
                for kind in classify_router(&old[oi], &new[ni]) {
                    edits.push(DeltaEdit {
                        router: name.clone(),
                        kind,
                    });
                }
            }
        }
    }
    for name in nm.keys() {
        if !om.contains_key(name) {
            edits.push(DeltaEdit {
                router: name.clone(),
                kind: DeltaKind::RouterAdded,
            });
        }
    }
    edits.sort();
    ConfigDelta { edits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_config::parse_config;

    fn r1() -> ConfigAst {
        parse_config(
            "\
hostname R1
ip prefix-list CUST seq 5 permit 203.0.113.0/24 le 32
route-map FROM-ISP permit 10
 match ip address prefix-list CUST
 set community 100:1 additive
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP in
 network 198.51.100.0/24
",
        )
        .unwrap()
    }

    #[test]
    fn identical_configs_are_an_empty_delta() {
        let d = diff_configs(&[r1()], &[r1()]);
        assert!(d.is_empty());
        assert!(!d.is_cosmetic());
        assert_eq!(d.summary(), "[no change]");
    }

    #[test]
    fn rename_is_cosmetic() {
        let mut new = r1();
        let entries = new.route_maps.remove("FROM-ISP").unwrap();
        new.route_maps.insert("FROM-ISP-V2".into(), entries);
        new.router_bgp
            .as_mut()
            .unwrap()
            .neighbors
            .get_mut("10.0.0.1")
            .unwrap()
            .route_map_in = Some("FROM-ISP-V2".into());
        let d = diff_configs(&[r1()], &[new]);
        assert!(d.is_cosmetic(), "{d}");
        assert!(d.changed_routers().is_empty());
        assert_eq!(
            d.edits,
            vec![DeltaEdit {
                router: "R1".into(),
                kind: DeltaKind::Cosmetic
            }]
        );
    }

    #[test]
    fn seq_renumbering_is_conservatively_semantic() {
        // Sequence numbers are part of a route map's resolved identity
        // (`continue N` targets them, and the engine's fingerprints hash
        // them), so renumbering is classified as a map change — the
        // classification must never be *less* sensitive than the
        // fingerprints, or "cosmetic ⇒ empty dirty set" would break.
        let mut new = r1();
        for e in new.route_maps.get_mut("FROM-ISP").unwrap() {
            e.seq *= 10;
        }
        let d = diff_configs(&[r1()], &[new]);
        assert!(!d.is_cosmetic(), "{d}");
        assert_eq!(d.changed_routers(), vec!["R1".to_string()]);
    }

    #[test]
    fn unused_object_edit_is_cosmetic() {
        let mut new = r1();
        new.prefix_lists.insert("DANGLING".into(), vec![]);
        let d = diff_configs(&[r1()], &[new]);
        assert!(d.is_cosmetic(), "{d}");
    }

    #[test]
    fn route_map_term_edit_is_semantic() {
        let mut new = r1();
        new.route_maps.get_mut("FROM-ISP").unwrap()[0]
            .sets
            .push(bgp_config::ast::SetAst::LocalPref(120));
        let d = diff_configs(&[r1()], &[new]);
        assert_eq!(d.changed_routers(), vec!["R1".to_string()]);
        assert!(d.edits.iter().any(|e| matches!(
            &e.kind,
            DeltaKind::RouteMapChanged { map } if map == "FROM-ISP"
        )));
    }

    #[test]
    fn bare_continue_is_semantic() {
        // `continue` (to the next entry) and no `continue` render to the
        // same JSON (`null`); resolved entries are compared as values,
        // so the edit is not mistaken for a cosmetic one.
        let mut new = r1();
        new.route_maps.get_mut("FROM-ISP").unwrap()[0].continue_to = Some(None);
        let d = diff_configs(&[r1()], &[new]);
        assert!(!d.is_cosmetic());
        assert!(d.edits.iter().any(|e| matches!(
            &e.kind,
            DeltaKind::RouteMapChanged { map } if map == "FROM-ISP"
        )));
    }

    #[test]
    fn referenced_list_edit_blames_the_list() {
        let mut new = r1();
        new.prefix_lists.get_mut("CUST").unwrap()[0].le = Some(28);
        let d = diff_configs(&[r1()], &[new]);
        assert_eq!(d.changed_routers(), vec!["R1".to_string()]);
        assert_eq!(
            d.edits,
            vec![DeltaEdit {
                router: "R1".into(),
                kind: DeltaKind::PrefixListEdited {
                    list: "CUST".into()
                }
            }],
            "{d}"
        );
    }

    #[test]
    fn peering_add_remove_and_origination() {
        let mut new = r1();
        {
            let bgp = new.router_bgp.as_mut().unwrap();
            bgp.neighbors.remove("10.0.0.1");
            bgp.neighbors.insert(
                "10.0.0.9".into(),
                bgp_config::ast::NeighborAst {
                    addr: "10.0.0.9".into(),
                    remote_as: Some(900),
                    description: Some("ISP9".into()),
                    route_map_in: None,
                    route_map_out: None,
                },
            );
            bgp.networks.clear();
        }
        let d = diff_configs(&[r1()], &[new]);
        assert!(d.edits.iter().any(|e| matches!(
            &e.kind,
            DeltaKind::PeeringRemoved { peer } if peer == "ISP1"
        )));
        assert!(d.edits.iter().any(|e| matches!(
            &e.kind,
            DeltaKind::PeeringAdded { peer } if peer == "ISP9"
        )));
        assert!(d
            .edits
            .iter()
            .any(|e| e.kind == DeltaKind::OriginationChanged));
    }

    #[test]
    fn router_add_and_remove() {
        let r2 = parse_config("hostname R2\nrouter bgp 65000\n").unwrap();
        let d = diff_configs(&[r1()], &[r1(), r2.clone()]);
        assert_eq!(
            d.edits,
            vec![DeltaEdit {
                router: "R2".into(),
                kind: DeltaKind::RouterAdded
            }]
        );
        assert_eq!(d.changed_routers(), vec!["R2".to_string()]);
        let d = diff_configs(&[r1(), r2], &[r1()]);
        assert_eq!(d.edits[0].kind, DeltaKind::RouterRemoved);
    }

    #[test]
    fn description_less_neighbor_edits_are_still_semantic() {
        // Lowering rejects description-less neighbors, but the differ is
        // a public API and must never classify a semantic change on one
        // as cosmetic.
        let base = parse_config(
            "\
hostname R1
route-map M permit 10
 set community 100:1 additive
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 route-map M in
",
        )
        .unwrap();
        let mut new = base.clone();
        new.route_maps.get_mut("M").unwrap()[0]
            .sets
            .push(bgp_config::ast::SetAst::LocalPref(50));
        let d = diff_configs(&[base], &[new]);
        assert!(!d.is_cosmetic(), "{d}");
        assert_eq!(d.changed_routers(), vec!["R1".to_string()]);
    }

    /// A route map whose entries sit in a different *vector* order but
    /// keep their sequence numbers resolves to the same meaning (the
    /// lowering sorts by seq), so the reorder must diff to Cosmetic.
    #[test]
    fn reordered_entries_with_identical_resolved_meaning_are_cosmetic() {
        let base = parse_config(
            "\
hostname R1
ip prefix-list CUST seq 5 permit 203.0.113.0/24 le 32
route-map FROM-ISP deny 5
 match ip address prefix-list CUST
route-map FROM-ISP permit 10
 set community 100:1 additive
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP in
",
        )
        .unwrap();
        let mut new = base.clone();
        new.route_maps.get_mut("FROM-ISP").unwrap().reverse();
        assert_ne!(base, new, "the AST order really differs");
        let d = diff_configs(std::slice::from_ref(&base), &[new]);
        assert!(d.is_cosmetic(), "{d}");
        assert!(d.changed_routers().is_empty());

        // The same reorder with *renumbered* seqs changes the resolved
        // order — that one is semantic.
        let mut swapped = base.clone();
        {
            let m = swapped.route_maps.get_mut("FROM-ISP").unwrap();
            m[0].seq = 10;
            m[1].seq = 5;
        }
        let d = diff_configs(&[base], &[swapped]);
        assert!(!d.is_cosmetic(), "{d}");
    }

    /// Editing a community list no route map references must be
    /// cosmetic — the verifier cannot observe it.
    #[test]
    fn community_list_edit_referenced_by_zero_maps_is_cosmetic() {
        let mut base = r1();
        base.community_lists.insert(
            "UNREFERENCED".into(),
            vec![bgp_config::ast::CommunityListEntry {
                permit: true,
                communities: vec!["100:1".parse().unwrap()],
            }],
        );
        let mut new = base.clone();
        new.community_lists.get_mut("UNREFERENCED").unwrap()[0].permit = false;
        let d = diff_configs(std::slice::from_ref(&base), std::slice::from_ref(&new));
        assert!(d.is_cosmetic(), "{d}");
        assert!(d.changed_routers().is_empty());

        // Deleting the unreferenced list entirely is cosmetic too.
        let mut gone = base.clone();
        gone.community_lists.remove("UNREFERENCED");
        let d = diff_configs(&[base], &[gone]);
        assert!(d.is_cosmetic(), "{d}");
    }

    /// A remote-as change on a session with route maps attached is a
    /// peering change only — the maps did not change — and stays
    /// semantic even when bundled with a cosmetic rename.
    #[test]
    fn remote_as_change_with_attached_maps_classifies_precisely() {
        let mut new = r1();
        {
            let bgp = new.router_bgp.as_mut().unwrap();
            bgp.neighbors.get_mut("10.0.0.1").unwrap().remote_as = Some(101);
        }
        // Bundle a rename of the attached map (cosmetic on its own).
        let entries = new.route_maps.remove("FROM-ISP").unwrap();
        new.route_maps.insert("FROM-ISP-V2".into(), entries);
        new.router_bgp
            .as_mut()
            .unwrap()
            .neighbors
            .get_mut("10.0.0.1")
            .unwrap()
            .route_map_in = Some("FROM-ISP-V2".into());
        let d = diff_configs(&[r1()], &[new]);
        assert!(!d.is_cosmetic(), "{d}");
        assert_eq!(d.changed_routers(), vec!["R1".to_string()]);
        assert!(
            d.edits.iter().any(|e| matches!(
                &e.kind,
                DeltaKind::PeeringChanged { peer } if peer == "ISP1"
            )),
            "{d}"
        );
        assert!(
            !d.edits
                .iter()
                .any(|e| matches!(&e.kind, DeltaKind::RouteMapChanged { .. })),
            "the rename must not be blamed on the map: {d}"
        );
    }

    #[test]
    fn remote_as_change_is_a_peering_change() {
        let mut new = r1();
        new.router_bgp
            .as_mut()
            .unwrap()
            .neighbors
            .get_mut("10.0.0.1")
            .unwrap()
            .remote_as = Some(101);
        let d = diff_configs(&[r1()], &[new]);
        assert_eq!(
            d.edits,
            vec![DeltaEdit {
                router: "R1".into(),
                kind: DeltaKind::PeeringChanged {
                    peer: "ISP1".into()
                }
            }]
        );
    }
}
