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
//! parts, each shared by many checks, so a run digests every part once
//! (`FpParts`) and a check's fingerprint is a digest *of digests*:
//!
//! * the **base**, per edge and direction (rules in the `orchestrator`
//!   crate docs: tags, prefix-free `Hash` streams, sorted unordered
//!   collections, format version, universe digest) — for a transfer:
//!   direction, the route-map *contents* (entries, not the name) and
//!   every ghost attribute's name and update on that edge+direction; for
//!   an origination: the multiset of originated routes (sorted per-route
//!   digests) and each ghost's name and origination default; for an
//!   implication: the tag alone. A transfer's base is also what a
//!   persistent re-verify session keys its encoded relation by;
//! * each **predicate** instance, keyed by address — the invariants and
//!   properties outlive the run, and one instance serves hundreds of
//!   checks;
//! * the **rest** of a check — base, the liveness `require_accept` bit
//!   and the ensure predicate's digest: everything but the assumed
//!   invariant, the key of the re-verify engine's conjunct-core cache;
//! * the **check** — its rest and its assume predicate's digest.
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

use crate::engine::CheckBody;
use crate::ghost::{GhostAttr, GhostUpdate};
use crate::pred::RoutePred;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::topology::EdgeId;
use orchestrator::{Fingerprint, FpHasher};
use std::collections::HashMap;
use std::hash::Hash;

/// Bump when any canonical encoding below changes — including the
/// layout of any hashed type, since derived `Hash` follows it, and the
/// mixing function of `orchestrator::FpHasher`. A spill records the
/// version its keys were derived under and is ignored under any other.
pub(crate) const FP_VERSION: u32 = 3;

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

/// Every base starts the same way: tag, format version, universe.
fn base(universe_fp: Fingerprint, tag: &str) -> FpHasher {
    let mut h = FpHasher::new();
    h.write_tag(tag);
    h.write_u32(FP_VERSION);
    universe_fp.hash(&mut h);
    h
}

/// The parts of one run's check fingerprints, each digested on first
/// use (see the module docs). Predicates are keyed by address: every
/// `&'a RoutePred` a check body holds stays alive and in place for `'a`.
pub(crate) struct FpParts<'a> {
    universe_fp: Fingerprint,
    policy: &'a Policy,
    /// Sorted by name, once.
    ghosts: Vec<&'a GhostAttr>,
    implication: Fingerprint,
    transfers: HashMap<(EdgeId, bool), Fingerprint>,
    originations: HashMap<EdgeId, Fingerprint>,
    preds: HashMap<*const RoutePred, Fingerprint>,
}

impl<'a> FpParts<'a> {
    pub(crate) fn new(
        universe_fp: Fingerprint,
        policy: &'a Policy,
        ghosts: &'a [GhostAttr],
    ) -> Self {
        let mut ghosts: Vec<&GhostAttr> = ghosts.iter().collect();
        ghosts.sort_by(|a, b| a.name.cmp(&b.name));
        FpParts {
            universe_fp,
            policy,
            ghosts,
            implication: base(universe_fp, "implication").finish(),
            transfers: HashMap::new(),
            originations: HashMap::new(),
            preds: HashMap::new(),
        }
    }

    /// The ghost table with `per_ghost` contributing the part of each
    /// ghost that the formula depends on.
    fn write_ghosts(&self, h: &mut FpHasher, per_ghost: impl Fn(&GhostAttr) -> u8) {
        h.write_u64(self.ghosts.len() as u64);
        for g in &self.ghosts {
            h.write_str(&g.name);
            h.write_u8(per_ghost(g));
        }
    }

    /// The fingerprint of one edge's **transfer relation** only — the
    /// route-map contents (never the renaming-sensitive map name), the
    /// ghost updates on that edge+direction and the universe digest,
    /// *without* any assume/ensure predicate: the part every check of
    /// one encoding-base group shares.
    pub(crate) fn transfer(&mut self, edge: EdgeId, is_import: bool) -> Fingerprint {
        if let Some(&fp) = self.transfers.get(&(edge, is_import)) {
            return fp;
        }
        let mut h = base(self.universe_fp, "transfer-base");
        h.write_bool(is_import);
        let map = if is_import {
            self.policy.import_map(edge)
        } else {
            self.policy.export_map(edge)
        };
        match map {
            None => h.write_tag("no-map"),
            Some(m) => {
                h.write_tag("map");
                m.entries.hash(&mut h);
            }
        }
        self.write_ghosts(&mut h, |g| {
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
        });
        let fp = h.finish();
        self.transfers.insert((edge, is_import), fp);
        fp
    }

    fn origination(&mut self, edge: EdgeId) -> Fingerprint {
        if let Some(&fp) = self.originations.get(&edge) {
            return fp;
        }
        let mut h = base(self.universe_fp, "originate");
        // A multiset: order-insensitive through sorted per-route
        // digests.
        let mut routes: Vec<Fingerprint> = self
            .policy
            .originated(edge)
            .iter()
            .map(|r| {
                let mut rh = FpHasher::new();
                r.hash(&mut rh);
                rh.finish()
            })
            .collect();
        routes.sort();
        h.write_u64(routes.len() as u64);
        for r in routes {
            r.hash(&mut h);
        }
        self.write_ghosts(&mut h, |g| g.originate_value as u8);
        let fp = h.finish();
        self.originations.insert(edge, fp);
        fp
    }

    fn pred(&mut self, pred: &'a RoutePred) -> Fingerprint {
        *self.preds.entry(pred).or_insert_with(|| pred_digest(pred))
    }

    /// Everything in `body`'s formula but its assume predicate, and
    /// that predicate. `require_accept` reshapes the goal, so it
    /// travels with the ensure side.
    fn split(&mut self, body: &CheckBody<'a>) -> (Fingerprint, Option<&'a RoutePred>) {
        let (base, require_accept, assume, ensure) = match *body {
            CheckBody::Transfer {
                edge,
                is_import,
                assume,
                ensure,
                require_accept,
            } => (
                self.transfer(edge, is_import),
                require_accept,
                Some(assume),
                ensure,
            ),
            CheckBody::Originate { edge, ensure } => (self.origination(edge), false, None, ensure),
            CheckBody::Implication { assume, ensure } => {
                (self.implication, false, Some(assume), ensure)
            }
        };
        let mut h = FpHasher::new();
        h.write_tag("check-rest");
        base.hash(&mut h);
        h.write_bool(require_accept);
        self.pred(ensure).hash(&mut h);
        (h.finish(), assume)
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
        let (rest, assume) = self.split(body);
        assume.map(|_| rest)
    }

    /// The fingerprint of one resolved check.
    pub(crate) fn check(&mut self, body: &CheckBody<'a>) -> Fingerprint {
        let (rest, assume) = self.split(body);
        let mut h = FpHasher::new();
        h.write_tag("check");
        rest.hash(&mut h);
        if let Some(assume) = assume {
            self.pred(assume).hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::{RouteMap, RouteMapEntry, SetAction};
    use bgp_model::{Community, Route};

    /// A one-off check fingerprint, every part digested afresh.
    fn check_fingerprint(
        universe_fp: Fingerprint,
        policy: &Policy,
        ghosts: &[GhostAttr],
        body: &CheckBody,
    ) -> Fingerprint {
        FpParts::new(universe_fp, policy, ghosts).check(body)
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
        CheckBody::Transfer {
            edge,
            is_import: true,
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
