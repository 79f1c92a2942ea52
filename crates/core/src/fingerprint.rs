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
//! What each check kind contributes (rules in the `orchestrator` crate
//! docs: tags, prefix-free `Hash` streams, sorted unordered collections,
//! format version, universe digest):
//!
//! * **Transfer** (import/export): direction, the route-map *contents*
//!   (entries, not the name), every ghost attribute's name and its
//!   update on this specific edge+direction, the liveness
//!   `require_accept` bit, the assume/ensure predicates, and the
//!   universe digest.
//! * **Originate**: the multiset of originated routes (sorted per-route
//!   digests), each ghost's name and origination default, the ensure
//!   predicate, and the universe digest.
//! * **Implication**: the assume/ensure predicates and the universe
//!   digest.
//!
//! Predicates, route-map entries and routes are written by walking the
//! value itself (`x.hash(&mut h)` through their derived `Hash`), never
//! through a rendering of it: derived `Hash` agrees with derived
//! equality, so fingerprint equality stays exactly structural equality.
//! The attribute universe is hashed in sorted order, making fingerprints
//! stable across runs that build the universe in different insertion
//! orders.

use crate::engine::CheckBody;
use crate::ghost::{GhostAttr, GhostUpdate};
use crate::pred::RoutePred;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use orchestrator::{Fingerprint, FpHasher};
use std::hash::Hash;

/// Bump when any canonical encoding below changes — including the
/// layout of any hashed type, since derived `Hash` follows it; spilled
/// caches keyed under the old version then simply miss instead of
/// corrupting runs.
const FP_VERSION: u32 = 2;

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

/// Ghosts sorted by name with `per_ghost` contributing the part of each
/// that the check's formula depends on.
fn write_ghosts(h: &mut FpHasher, ghosts: &[GhostAttr], per_ghost: impl Fn(&GhostAttr) -> u8) {
    let mut sorted: Vec<&GhostAttr> = ghosts.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    h.write_u64(sorted.len() as u64);
    for g in sorted {
        h.write_str(&g.name);
        h.write_u8(per_ghost(g));
    }
}

/// The one body writer behind every check-level digest: `tag`, format
/// version and universe digest, then the part of `body`'s formula that
/// is neither predicate side — a transfer's direction, route-map
/// contents (never the renaming-sensitive map name) and ghost updates
/// on that edge+direction; an origination's route multiset and ghost
/// defaults — then the assume side and the ensure side when asked for.
/// `require_accept` reshapes the goal, so it travels with the ensure
/// side.
fn body_fingerprint(
    tag: &str,
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
    with_assume: bool,
    with_ensure: bool,
) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag(tag);
    h.write_u32(FP_VERSION);
    universe_fp.hash(&mut h);
    let (assume, ensure) = match body {
        CheckBody::Transfer {
            edge,
            is_import,
            assume,
            ensure,
            require_accept,
        } => {
            h.write_tag("transfer");
            h.write_bool(*is_import);
            let map = if *is_import {
                policy.import_map(*edge)
            } else {
                policy.export_map(*edge)
            };
            match map {
                None => h.write_tag("no-map"),
                Some(m) => {
                    h.write_tag("map");
                    m.entries.hash(&mut h);
                }
            }
            write_ghosts(&mut h, ghosts, |g| {
                let u = if *is_import {
                    g.import_update(*edge)
                } else {
                    g.export_update(*edge)
                };
                match u {
                    GhostUpdate::Unchanged => 0,
                    GhostUpdate::SetTrue => 1,
                    GhostUpdate::SetFalse => 2,
                }
            });
            if with_ensure {
                h.write_bool(*require_accept);
            }
            (Some(assume), ensure)
        }
        CheckBody::Originate { edge, ensure } => {
            h.write_tag("originate");
            // A multiset: order-insensitive through sorted per-route
            // digests.
            let mut routes: Vec<Fingerprint> = policy
                .originated(*edge)
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
            write_ghosts(&mut h, ghosts, |g| g.originate_value as u8);
            (None, ensure)
        }
        CheckBody::Implication { assume, ensure } => {
            h.write_tag("implication");
            (Some(assume), ensure)
        }
    };
    if let (true, Some(assume)) = (with_assume, assume) {
        h.write_tag("assume");
        assume.hash(&mut h);
    }
    if with_ensure {
        h.write_tag("ensure");
        ensure.hash(&mut h);
    }
    h.finish()
}

/// The fingerprint of one edge's **transfer relation** only — the
/// route-map contents, the ghost updates on that edge+direction and the
/// universe digest, *without* any assume/ensure predicate — read off
/// any transfer check `body` on that edge+direction. This is the
/// part of a transfer check's encoding a persistent re-verify session
/// keeps across runs: when it is unchanged, the session's existing
/// symbolic transfer can answer a re-dirtied check without re-encoding;
/// when it differs, the session re-encodes the new relation and the old
/// one is left retracted.
pub(crate) fn transfer_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Fingerprint {
    debug_assert!(matches!(body, CheckBody::Transfer { .. }));
    body_fingerprint(
        "transfer-base",
        universe_fp,
        policy,
        ghosts,
        body,
        false,
        false,
    )
}

/// The fingerprint of everything in a check's formula **except** its
/// assume predicate — the universe digest, the transfer relation (or
/// implication tag) and the ensure side. Two checks with equal rest
/// fingerprints pose the same `¬goal` query over the same symbolic
/// route and transfer; only their assumed invariants differ. This is
/// the key of the re-verify engine's conjunct-core cache: a check that
/// previously passed with core `C` still passes whenever its rest is
/// unchanged and every conjunct of `C` still occurs in the new assume —
/// strengthening the positive-position assume can only shrink the model
/// set of `assume ∧ ¬goal`.
pub(crate) fn rest_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Option<Fingerprint> {
    // Concrete finite evaluation: no symbolic assume side, no core.
    if matches!(body, CheckBody::Originate { .. }) {
        return None;
    }
    Some(body_fingerprint(
        "check-rest",
        universe_fp,
        policy,
        ghosts,
        body,
        false,
        true,
    ))
}

/// Canonical fingerprint of one assume conjunct. Only ever compared
/// between rounds with identical universe layouts (the re-verify engine
/// resets its core cache on any layout change) and under equal rest
/// fingerprints, which embed the universe digest.
pub(crate) fn conjunct_fingerprint(pred: &RoutePred) -> u128 {
    let mut h = FpHasher::new();
    h.write_tag("conjunct");
    h.write_u32(FP_VERSION);
    pred.hash(&mut h);
    h.finish().0
}

/// The fingerprint of one resolved check.
pub(crate) fn check_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Fingerprint {
    body_fingerprint("check", universe_fp, policy, ghosts, body, true, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::{RouteMap, RouteMapEntry, SetAction};
    use bgp_model::topology::EdgeId;
    use bgp_model::{Community, Route};

    fn tag_map(name: &str) -> RouteMap {
        let mut m = RouteMap::new(name);
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![Community::new(100, 1)],
            additive: true,
        }));
        m
    }

    fn transfer_body(edge: EdgeId) -> CheckBody {
        CheckBody::Transfer {
            edge,
            is_import: true,
            assume: RoutePred::True,
            ensure: RoutePred::has_community(Community::new(100, 1)),
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
            ensure: RoutePred::True,
        };
        let a = check_fingerprint(ufp, &pol, &[], &body);
        // Same edge, additional origination changes the set.
        pol.add_origination(EdgeId(0), Route::new("203.0.113.0/24".parse().unwrap()));
        let b = check_fingerprint(ufp, &pol, &[], &body);
        assert_ne!(a, b);
    }
}
