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
//! docs: tags, length prefixes, sorted unordered collections, format
//! version, universe digest):
//!
//! * **Transfer** (import/export): direction, liveness `require_accept`
//!   bit, the route-map *contents* (entries, not the name), every ghost
//!   attribute's name and its update on this specific edge+direction,
//!   the assume/ensure predicates, and the universe digest.
//! * **Originate**: the multiset of originated routes (sorted canonical
//!   forms), each ghost's name and origination default, the ensure
//!   predicate, and the universe digest.
//! * **Implication**: the assume/ensure predicates and the universe
//!   digest.
//!
//! Predicates, route-map entries and routes are canonicalized through
//! their serde form: the shim's serializer emits sorted map/set entries,
//! so equal values produce equal JSON text. The attribute universe is
//! hashed in sorted order, making fingerprints stable across runs that
//! build the universe in different insertion orders.

use crate::engine::CheckBody;
use crate::ghost::{GhostAttr, GhostUpdate};
use crate::pred::RoutePred;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::routemap::RouteMap;
use orchestrator::{Fingerprint, FpHasher};
use serde::Serialize;

/// Bump when any canonical encoding below changes; spilled caches keyed
/// under the old version then simply miss instead of corrupting runs.
const FP_VERSION: u32 = 1;

fn write_serde(h: &mut FpHasher, tag: &str, x: &impl Serialize) {
    h.write_tag(tag);
    h.write_str(&bgp_model::canonical_json(x));
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

fn write_pred(h: &mut FpHasher, tag: &str, p: &RoutePred) {
    write_serde(h, tag, p);
}

/// Route-map contents without the (renaming-sensitive) map name.
fn write_route_map(h: &mut FpHasher, map: Option<&RouteMap>) {
    match map {
        None => h.write_tag("no-map"),
        Some(m) => {
            h.write_tag("map");
            write_serde(h, "entries", &m.entries);
        }
    }
}

fn write_ghost_update(h: &mut FpHasher, u: GhostUpdate) {
    h.write_u8(match u {
        GhostUpdate::SetTrue => 1,
        GhostUpdate::SetFalse => 2,
        GhostUpdate::Unchanged => 0,
    });
}

/// Ghosts sorted by name with `per_ghost` contributing the part of each
/// that the check's formula depends on.
fn write_ghosts(
    h: &mut FpHasher,
    ghosts: &[GhostAttr],
    per_ghost: impl Fn(&mut FpHasher, &GhostAttr),
) {
    let mut sorted: Vec<&GhostAttr> = ghosts.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    h.write_u64(sorted.len() as u64);
    for g in sorted {
        h.write_str(&g.name);
        per_ghost(h, g);
    }
}

/// The fingerprint of one edge's **transfer relation** only — the
/// route-map contents, the ghost updates on that edge+direction and the
/// universe digest, *without* any assume/ensure predicate. This is the
/// part of a transfer check's encoding a persistent re-verify session
/// keeps across runs: when it is unchanged, the session's existing
/// symbolic transfer can answer a re-dirtied check without re-encoding;
/// when it differs, the session re-encodes the new relation and the old
/// one is left retracted.
pub(crate) fn transfer_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    edge: bgp_model::topology::EdgeId,
    is_import: bool,
) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("transfer-base");
    h.write_u32(FP_VERSION);
    h.write_u64((universe_fp.0 >> 64) as u64);
    h.write_u64(universe_fp.0 as u64);
    h.write_bool(is_import);
    let map = if is_import {
        policy.import_map(edge)
    } else {
        policy.export_map(edge)
    };
    write_route_map(&mut h, map);
    write_ghosts(&mut h, ghosts, |h, g| {
        let u = if is_import {
            g.import_update(edge)
        } else {
            g.export_update(edge)
        };
        write_ghost_update(h, u);
    });
    h.finish()
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
    let mut h = FpHasher::new();
    h.write_tag("check-rest");
    h.write_u32(FP_VERSION);
    h.write_u64((universe_fp.0 >> 64) as u64);
    h.write_u64(universe_fp.0 as u64);
    match body {
        CheckBody::Transfer {
            edge,
            is_import,
            ensure,
            require_accept,
            ..
        } => {
            h.write_tag("transfer");
            h.write_bool(*is_import);
            h.write_bool(*require_accept);
            let map = if *is_import {
                policy.import_map(*edge)
            } else {
                policy.export_map(*edge)
            };
            write_route_map(&mut h, map);
            write_ghosts(&mut h, ghosts, |h, g| {
                let u = if *is_import {
                    g.import_update(*edge)
                } else {
                    g.export_update(*edge)
                };
                write_ghost_update(h, u);
            });
            write_pred(&mut h, "ensure", ensure);
        }
        CheckBody::Implication { ensure, .. } => {
            h.write_tag("implication");
            write_pred(&mut h, "ensure", ensure);
        }
        // Concrete finite evaluation: no symbolic assume side, no core.
        CheckBody::Originate { .. } => return None,
    }
    Some(h.finish())
}

/// Canonical fingerprint of one assume conjunct. Only ever compared
/// between rounds with identical universe layouts (the re-verify engine
/// resets its core cache on any layout change) and under equal rest
/// fingerprints, which embed the universe digest.
pub(crate) fn conjunct_fingerprint(pred: &RoutePred) -> u128 {
    let mut h = FpHasher::new();
    h.write_tag("conjunct");
    h.write_u32(FP_VERSION);
    h.write_str(&bgp_model::canonical_json(pred));
    h.finish().0
}

/// The fingerprint of one resolved check.
pub(crate) fn check_fingerprint(
    universe_fp: Fingerprint,
    policy: &Policy,
    ghosts: &[GhostAttr],
    body: &CheckBody,
) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("check");
    h.write_u32(FP_VERSION);
    h.write_u64((universe_fp.0 >> 64) as u64);
    h.write_u64(universe_fp.0 as u64);
    match body {
        CheckBody::Transfer {
            edge,
            is_import,
            assume,
            ensure,
            require_accept,
        } => {
            h.write_tag("transfer");
            h.write_bool(*is_import);
            h.write_bool(*require_accept);
            let map = if *is_import {
                policy.import_map(*edge)
            } else {
                policy.export_map(*edge)
            };
            write_route_map(&mut h, map);
            write_ghosts(&mut h, ghosts, |h, g| {
                let u = if *is_import {
                    g.import_update(*edge)
                } else {
                    g.export_update(*edge)
                };
                write_ghost_update(h, u);
            });
            write_pred(&mut h, "assume", assume);
            write_pred(&mut h, "ensure", ensure);
        }
        CheckBody::Originate { edge, ensure } => {
            h.write_tag("originate");
            let mut routes: Vec<String> = policy
                .originated(*edge)
                .iter()
                .map(bgp_model::canonical_json)
                .collect();
            routes.sort();
            h.write_u64(routes.len() as u64);
            for r in routes {
                h.write_str(&r);
            }
            write_ghosts(&mut h, ghosts, |h, g| h.write_bool(g.originate_value));
            write_pred(&mut h, "ensure", ensure);
        }
        CheckBody::Implication { assume, ensure } => {
            h.write_tag("implication");
            write_pred(&mut h, "assume", assume);
            write_pred(&mut h, "ensure", ensure);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::{RouteMapEntry, SetAction};
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
