//! Structural fingerprints of resolved checks (the orchestrator key).
//!
//! A fingerprint identifies the *mathematical content* of a check —
//! what formula the solver will see — and is invariant under
//! router/edge renaming: router names, node/edge ids, check ids and
//! route-map *names* are never hashed. WAN-scale networks instantiate
//! the same route-map template on hundreds of peerings under the same
//! invariant template, so those checks collapse to a single fingerprint
//! and a single solver call (`orchestrator::run_grouped`).
//!
//! **Fingerprints compose.** A check's formula is made of few distinct
//! parts, each shared by many checks, so every part is digested once
//! and a check's fingerprint is a digest *of digests*:
//!
//! * the **base**, per edge and direction (rules in the `orchestrator`
//!   crate docs: tags, prefix-free `Hash` streams, sorted unordered
//!   collections, format version) — for a transfer: direction, the
//!   route-map *contents* (entries, not the name) and every ghost
//!   attribute's name and update on that edge+direction; for an
//!   origination: the multiset of originated routes (sorted per-route
//!   digests) and each ghost's name and origination default; for an
//!   implication: the tag alone. Bases depend on the policy and the
//!   ghosts only, never on a suite, so they belong to the verifier:
//!   `PolicyDigests` digests them once per `Verifier`, and every run,
//!   round and engine on that verifier reads the same table;
//! * each **predicate** — the invariants and properties outlive the run;
//! * the **rest** of a check — the universe digest, the base, the
//!   liveness `require_accept` bit and the ensure predicate's digest:
//!   everything but the assumed invariant, the key of the re-verify
//!   engine's conjunct-core cache. The attribute universe enters here,
//!   so every check fingerprint covers the symbolic route's layout;
//! * the **check** — its rest and its assume predicate's digest.
//!
//! **Classes, not checks, are the unit of work.** Every distinct base
//! and predicate digest gets a small integer id (bases once per
//! verifier; predicates per run, looked up by address first, so an
//! interned invariant shared by a whole cluster is digested once, and
//! content-equal instances — one property per router — share an id). A
//! check's [`ClassKey`] is the tuple of its part ids: (base,
//! `require_accept`, ensure, assume). Within one run — one universe —
//! equal keys mean equal part digests and so equal fingerprints, and
//! the converse holds because ids are interned by digest. The run
//! partitions its checks on these keys (`Verifier::partition`) and
//! composes the rest and check fingerprints once per class; every
//! member shares its class's fingerprint.
//!
//! Word-wise stream discipline: every part is written by walking the
//! value itself (`x.hash(&mut h)` through its derived `Hash`, eight
//! stream bytes per mixing step — see `orchestrator::fingerprint`),
//! never through a rendering of it. Derived `Hash` agrees with derived
//! equality, and a digest of part digests is equal exactly when the
//! parts are, so fingerprint equality stays exactly structural equality.
//! The attribute universe is hashed in sorted order, making fingerprints
//! stable across runs that build the universe in different insertion
//! orders.

use crate::engine::generate::{CheckBody, Relation};
use crate::ghost::{GhostAttr, GhostUpdate};
use crate::pred::RoutePred;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::route::Route;
use bgp_model::routemap::RouteMap;
use bgp_model::topology::EdgeId;
use orchestrator::{Fingerprint, FpHasher};
use smt::FastMap;
use std::collections::HashMap;
use std::hash::Hash;

/// Bump when any canonical encoding below changes — including the
/// layout of any hashed type, since derived `Hash` follows it, and the
/// mixing function of `orchestrator::FpHasher`. A spill records the
/// version its keys were derived under and is ignored under any other.
pub(crate) const FP_VERSION: u32 = 4;

/// The digest of one originated route: the sort key of an edge's
/// originate multiset, and so the order an originate check picks its
/// counterexample in.
pub(crate) fn route_digest(r: &Route) -> Fingerprint {
    let mut h = FpHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// Digest of the attribute universe (sorted, order-insensitive).
pub fn universe_digest(u: &Universe) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("universe");
    h.write_u32(FP_VERSION);

    let mut comms = u.communities().to_vec();
    comms.sort();
    h.write_u64(comms.len() as u64);
    for c in comms {
        h.write_u32(c.0);
    }

    let mut regexes = u.regexes().to_vec();
    regexes.sort();
    h.write_u64(regexes.len() as u64);
    for r in regexes {
        h.write_str(&r);
    }

    let mut ghosts = u.ghosts().to_vec();
    ghosts.sort();
    h.write_u64(ghosts.len() as u64);
    for g in ghosts {
        h.write_str(&g);
    }
    h.finish()
}

/// Digest of one predicate. As the fingerprint of an assume conjunct it
/// is only ever compared between rounds with identical universe layouts
/// (the re-verify engine resets its core cache on any layout change)
/// and under equal rest fingerprints, which embed the universe digest.
pub(crate) fn pred_digest(pred: &RoutePred) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("pred");
    h.write_u32(FP_VERSION);
    pred.hash(&mut h);
    h.finish()
}

/// Every base starts the same way: tag, format version.
fn base(tag: &str) -> FpHasher {
    let mut h = FpHasher::new();
    h.write_tag(tag);
    h.write_u32(FP_VERSION);
    h
}

/// The ghost table: each ghost's name, sorted, with the part of it that
/// the formula depends on.
fn write_ghosts<'g>(h: &mut FpHasher, ghosts: impl ExactSizeIterator<Item = (&'g GhostAttr, u8)>) {
    h.write_u64(ghosts.len() as u64);
    for (g, part) in ghosts {
        h.write_str(&g.name);
        h.write_u8(part);
    }
}

/// A transfer slot's map, by address (`None`: no map), and direction.
type MapSlot = (Option<*const RouteMap>, bool);

/// The base digests of one policy under one set of ghosts (see the
/// module docs), numbered: equal digests share a dense id. A `Verifier`
/// builds this once, on first use, and every [`FpParts`] on it reads
/// it, so the policy is walked once per verifier however many runs,
/// rounds and engines fingerprint against it. Within that walk each
/// distinct (map, direction, ghost updates) is digested once and every
/// other edge slot is one table probe: a map the front end shares
/// across a network's routers costs its one walk, not one per session.
pub(crate) struct PolicyDigests {
    /// Base digests by id.
    bases: Vec<Fingerprint>,
    /// Transfer base id per `2 * edge + is_import`.
    transfer: Vec<u32>,
    /// Origination base id per edge.
    originate: Vec<u32>,
    implication: u32,
}

impl PolicyDigests {
    /// Digest every base of the `edges` edges of `policy`.
    pub(crate) fn new(edges: usize, policy: &Policy, ghosts: &[GhostAttr]) -> Self {
        let mut ghosts: Vec<&GhostAttr> = ghosts.iter().collect();
        ghosts.sort_by(|a, b| a.name.cmp(&b.name));
        // Base digests derive from configuration text, so the
        // digest-keyed map keeps the standard hasher.
        let (mut bases, mut ids) = (Vec::new(), HashMap::new());
        let mut id_of = |fp: Fingerprint| intern(&mut ids, &mut bases, fp);
        let implication = id_of(base("implication").finish());
        // Finished transfer ids by map and direction, each with the
        // ghost updates it was digested under (one code per ghost, in
        // `ghosts` order).
        let mut memo: FastMap<MapSlot, Vec<(Vec<u8>, u32)>> = FastMap::default();
        let mut updates = Vec::with_capacity(ghosts.len());
        let mut transfer = Vec::with_capacity(2 * edges);
        for slot in 0..2 * edges {
            let (edge, is_import) = (EdgeId((slot / 2) as u32), slot % 2 == 1);
            let map = if is_import {
                policy.import_map(edge)
            } else {
                policy.export_map(edge)
            };
            updates.clear();
            updates.extend(ghosts.iter().map(|g| {
                let u = if is_import {
                    g.import_update(edge)
                } else {
                    g.export_update(edge)
                };
                match u {
                    GhostUpdate::Unchanged => 0,
                    GhostUpdate::SetTrue => 1,
                    GhostUpdate::SetFalse => 2,
                }
            }));
            let seen = memo
                .entry((map.map(|m| m as *const RouteMap), is_import))
                .or_default();
            let id = match seen.iter().find(|(u, _)| *u == updates) {
                Some(&(_, id)) => id,
                None => {
                    let mut h = base("transfer-base");
                    h.write_bool(is_import);
                    match map {
                        None => h.write_tag("no-map"),
                        Some(m) => {
                            h.write_tag("map");
                            m.entries.hash(&mut h);
                        }
                    }
                    write_ghosts(&mut h, ghosts.iter().copied().zip(updates.iter().copied()));
                    let id = id_of(h.finish());
                    seen.push((updates.clone(), id));
                    id
                }
            };
            transfer.push(id);
        }
        let mut originate_id = |routes: &[Route]| {
            let mut h = base("originate");
            // A multiset: order-insensitive through sorted per-route
            // digests.
            let mut routes: Vec<Fingerprint> = routes.iter().map(route_digest).collect();
            routes.sort();
            h.write_u64(routes.len() as u64);
            for r in routes {
                r.hash(&mut h);
            }
            write_ghosts(&mut h, ghosts.iter().map(|g| (*g, g.originate_value as u8)));
            id_of(h.finish())
        };
        // Every edge that originates nothing shares one base.
        let mut originates_nothing = None;
        let originate = (0..edges)
            .map(|e| match policy.originated(EdgeId(e as u32)) {
                [] => *originates_nothing.get_or_insert_with(|| originate_id(&[])),
                routes => originate_id(routes),
            })
            .collect();
        PolicyDigests {
            bases,
            transfer,
            originate,
            implication,
        }
    }

    /// The interned base id of the relation a symbolic check passes its
    /// input through: an edge direction's transfer — equal ids mean
    /// equal route-map contents, direction and ghost updates, and so one
    /// relation to encode — or, with none, the implication base.
    pub(crate) fn relation_id(&self, relation: Option<Relation>) -> u32 {
        match relation {
            Some(r) => self.transfer[2 * r.edge.0 as usize + usize::from(r.is_import)],
            None => self.implication,
        }
    }
}

/// The id of `fp` in an interning table, assigned on first sight.
fn intern(ids: &mut HashMap<u128, u32>, fps: &mut Vec<Fingerprint>, fp: Fingerprint) -> u32 {
    *ids.entry(fp.0).or_insert_with(|| {
        fps.push(fp);
        fps.len() as u32 - 1
    })
}

/// A check's class key: the small-integer ids of its parts — the base
/// (interned by digest, per verifier), the `require_accept` bit, the
/// ensure predicate and the assume predicate (predicate ids are interned
/// by address, then by digest). Two checks have equal keys exactly when
/// their parts' digests are equal, that is — under one universe —
/// exactly when their fingerprints are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClassKey {
    base: u32,
    require_accept: bool,
    ensure: u32,
    /// [`NO_ID`] for an originate check (no assume side).
    assume: u32,
}

/// An absent assume side.
const NO_ID: u32 = u32::MAX;

/// The digests of one class: its check fingerprint and its rest
/// (`None` without an assume side).
#[derive(Clone, Copy)]
struct ClassDigests {
    check: Fingerprint,
    rest: Option<Fingerprint>,
}

/// The parts of one run's check fingerprints, each digested once (see
/// the module docs) and numbered: the bases come numbered from the
/// verifier's [`PolicyDigests`]; predicates get dense ids in first-seen
/// order, and so do the classes their keys form. Predicates are first
/// looked up by address — every `&'a RoutePred` a check body holds
/// stays alive and in place for `'a` — and only a new address is
/// digested.
pub(crate) struct FpParts<'a> {
    universe_fp: Fingerprint,
    policy: &'a PolicyDigests,
    /// Predicate digests by id; their ids by digest and by address.
    /// Digests derive from configuration text, so digest-keyed maps
    /// keep the standard hasher; addresses and class keys are the
    /// program's own.
    preds: Vec<Fingerprint>,
    pred_ids: HashMap<u128, u32>,
    pred_at: FastMap<*const RoutePred, u32>,
    /// Class ids by key, and each class's digests by id.
    class_ids: FastMap<ClassKey, u32>,
    classes: Vec<ClassDigests>,
}

impl<'a> FpParts<'a> {
    pub(crate) fn new(universe_fp: Fingerprint, policy: &'a PolicyDigests) -> Self {
        FpParts {
            universe_fp,
            policy,
            preds: Vec::new(),
            pred_ids: HashMap::new(),
            pred_at: FastMap::default(),
            class_ids: FastMap::default(),
            classes: Vec::new(),
        }
    }

    /// The fingerprint of one edge's **transfer relation** only — the
    /// route-map contents (never the renaming-sensitive map name) and
    /// the ghost updates on that edge+direction, *without* any
    /// assume/ensure predicate or universe: the part every check of one
    /// session group shares.
    pub(crate) fn transfer(&self, relation: Relation) -> Fingerprint {
        self.policy.bases[self.policy.relation_id(Some(relation)) as usize]
    }

    fn pred_id(&mut self, pred: &'a RoutePred) -> u32 {
        let (ids, preds) = (&mut self.pred_ids, &mut self.preds);
        *self
            .pred_at
            .entry(pred)
            .or_insert_with(|| intern(ids, preds, pred_digest(pred)))
    }

    /// The class key of `body`. `require_accept` reshapes the goal, so
    /// it travels with the ensure side.
    pub(crate) fn class_key(&mut self, body: &CheckBody<'a>) -> ClassKey {
        let (base, require_accept, assume, ensure) = match *body {
            CheckBody::Symbolic {
                relation,
                assume,
                ensure,
                require_accept,
            } => (
                self.policy.relation_id(relation),
                require_accept,
                Some(assume),
                ensure,
            ),
            CheckBody::Originate { edge, ensure } => {
                (self.policy.originate[edge.0 as usize], false, None, ensure)
            }
        };
        ClassKey {
            base,
            require_accept,
            ensure: self.pred_id(ensure),
            assume: assume.map_or(NO_ID, |a| self.pred_id(a)),
        }
    }

    /// The class id of `body`: dense, in first-seen order. A new class
    /// composes its digests from its parts' (see the module docs).
    pub(crate) fn class(&mut self, body: &CheckBody<'a>) -> u32 {
        let key = self.class_key(body);
        let next = self.classes.len() as u32;
        let id = *self.class_ids.entry(key).or_insert(next);
        if id == next {
            let mut h = FpHasher::new();
            h.write_tag("check-rest");
            self.universe_fp.hash(&mut h);
            self.policy.bases[key.base as usize].hash(&mut h);
            h.write_bool(key.require_accept);
            self.preds[key.ensure as usize].hash(&mut h);
            let rest = h.finish();
            let mut h = FpHasher::new();
            h.write_tag("check");
            rest.hash(&mut h);
            if key.assume != NO_ID {
                self.preds[key.assume as usize].hash(&mut h);
            }
            self.classes.push(ClassDigests {
                check: h.finish(),
                rest: (key.assume != NO_ID).then_some(rest),
            });
        }
        id
    }

    /// The fingerprint of every check in class `class`.
    pub(crate) fn fingerprint(&self, class: u32) -> Fingerprint {
        self.classes[class as usize].check
    }

    /// Every check fingerprint composed so far, one per class.
    pub(crate) fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.classes.iter().map(|c| c.check)
    }

    /// The fingerprint of everything in a check's formula **except**
    /// its assume predicate — the universe digest, the transfer
    /// relation (or implication tag) and the ensure side. Two checks
    /// with equal rest fingerprints pose the same `¬goal` query over
    /// the same symbolic route and transfer; only their assumed
    /// invariants differ. This is the key of the re-verify engine's
    /// conjunct-core cache: a check that previously passed with core
    /// `C` still passes whenever its rest is unchanged and every
    /// conjunct of `C` still occurs in the new assume — strengthening
    /// the positive-position assume can only shrink the model set of
    /// `assume ∧ ¬goal`. `None` for originate checks: concrete finite
    /// evaluation has no symbolic assume side and no core.
    pub(crate) fn rest(&mut self, body: &CheckBody<'a>) -> Option<Fingerprint> {
        let class = self.class(body);
        self.classes[class as usize].rest
    }

    /// The fingerprint of one resolved check.
    pub(crate) fn check(&mut self, body: &CheckBody<'a>) -> Fingerprint {
        let class = self.class(body);
        self.fingerprint(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::{RouteMap, RouteMapEntry, SetAction};
    use bgp_model::{Community, Route};
    use std::sync::Arc;

    /// A one-off check fingerprint, every part digested afresh, over a
    /// policy on edges 0..8.
    fn check_fingerprint(
        universe_fp: Fingerprint,
        policy: &Policy,
        ghosts: &[GhostAttr],
        body: &CheckBody,
    ) -> Fingerprint {
        FpParts::new(universe_fp, &PolicyDigests::new(8, policy, ghosts)).check(body)
    }

    fn tag_map(name: &str) -> RouteMap {
        let mut m = RouteMap::new(name);
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![Community::new(100, 1)],
            additive: true,
        }));
        m
    }

    fn transfer_body(edge: EdgeId) -> CheckBody<'static> {
        static ASSUME: RoutePred = RoutePred::True;
        static ENSURE: RoutePred = RoutePred::HasCommunity(Community(100 << 16 | 1));
        CheckBody::Symbolic {
            relation: Some(Relation {
                edge,
                is_import: true,
            }),
            assume: &ASSUME,
            ensure: &ENSURE,
            require_accept: false,
        }
    }

    #[test]
    fn renamed_identical_templates_share_a_fingerprint() {
        // Same map contents under different names on different edges.
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("FROM-PEER0"));
        pol.set_import(EdgeId(7), tag_map("FROM-PEER7"));
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let a = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(0)));
        let b = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(7)));
        assert_eq!(a, b, "identical templates must collapse");
    }

    #[test]
    fn different_contents_differ() {
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("A"));
        let mut other = RouteMap::new("A");
        other.push(RouteMapEntry::deny(10));
        pol.set_import(EdgeId(1), other);
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let a = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(0)));
        let b = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(1)));
        assert_ne!(a, b);
    }

    #[test]
    fn bare_continue_splits_the_fingerprint() {
        // `continue_to: None` and `Some(None)` behave differently but
        // share a JSON rendering (`null`); the structural walk keeps
        // them apart.
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("A"));
        let mut continuing = tag_map("A");
        continuing.entries[0].continue_to = Some(None);
        pol.set_import(EdgeId(1), continuing);
        let ufp = universe_digest(&Universe::from_policy(&pol));
        let a = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(0)));
        let b = check_fingerprint(ufp, &pol, &[], &transfer_body(EdgeId(1)));
        assert_ne!(a, b);
    }

    #[test]
    fn ghost_updates_on_the_edge_matter() {
        let mut pol = Policy::new();
        pol.set_import(EdgeId(0), tag_map("A"));
        pol.set_import(EdgeId(1), tag_map("B"));
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let set_true =
            crate::ghost::GhostAttr::new("G").with_import(EdgeId(0), GhostUpdate::SetTrue);
        let a = check_fingerprint(
            ufp,
            &pol,
            std::slice::from_ref(&set_true),
            &transfer_body(EdgeId(0)),
        );
        let b = check_fingerprint(ufp, &pol, &[set_true], &transfer_body(EdgeId(1)));
        assert_ne!(a, b, "differing ghost updates must split the fingerprint");
    }

    #[test]
    fn one_map_on_many_edges_still_splits_by_ghost_updates() {
        // Digests are memoized by map address: one map on three edges,
        // the middle one setting a ghost, digests as three copies do.
        let one = Arc::new(tag_map("A"));
        let (mut shared, mut copies) = (Policy::new(), Policy::new());
        for e in 0..3 {
            shared.set_import(EdgeId(e), Arc::clone(&one));
            copies.set_import(EdgeId(e), tag_map("A"));
        }
        let g = [GhostAttr::new("G").with_import(EdgeId(1), GhostUpdate::SetTrue)];
        let bases = |p: &Policy| {
            let d = PolicyDigests::new(8, p, &g);
            (0..3)
                .map(|e| {
                    d.bases[d.relation_id(Some(Relation {
                        edge: EdgeId(e),
                        is_import: true,
                    })) as usize]
                })
                .collect::<Vec<_>>()
        };
        let b = bases(&shared);
        assert_eq!(b, bases(&copies));
        assert_ne!(b[0], b[1]);
        assert_eq!(b[0], b[2]);
    }

    #[test]
    fn universe_digest_is_order_insensitive() {
        let mut u1 = Universe::new();
        u1.add_community(Community::new(1, 1));
        u1.add_community(Community::new(2, 2));
        u1.add_ghost("A");
        u1.add_ghost("B");
        let mut u2 = Universe::new();
        u2.add_ghost("B");
        u2.add_ghost("A");
        u2.add_community(Community::new(2, 2));
        u2.add_community(Community::new(1, 1));
        assert_eq!(universe_digest(&u1), universe_digest(&u2));
        u2.add_regex("_65000_");
        assert_ne!(universe_digest(&u1), universe_digest(&u2));
    }

    #[test]
    fn originate_hashes_routes_and_defaults() {
        let mut pol = Policy::new();
        pol.add_origination(EdgeId(0), Route::new("198.51.100.0/24".parse().unwrap()));
        let u = Universe::from_policy(&pol);
        let ufp = universe_digest(&u);
        let body = CheckBody::Originate {
            edge: EdgeId(0),
            ensure: &RoutePred::True,
        };
        let a = check_fingerprint(ufp, &pol, &[], &body);
        // Same edge, additional origination changes the set.
        pol.add_origination(EdgeId(0), Route::new("203.0.113.0/24".parse().unwrap()));
        let b = check_fingerprint(ufp, &pol, &[], &body);
        assert_ne!(a, b);
    }
}
