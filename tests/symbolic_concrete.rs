//! The core soundness property of the whole system, tested with proptest:
//! Lightyear's symbolic route-map encoding agrees with the concrete
//! interpreter on randomly generated route maps and routes.
//!
//! For every generated `(map, route)`:
//! * the symbolic transfer rejects iff the interpreter rejects, and
//! * on acceptance, every attribute of the symbolic output (pinned to the
//!   input route) equals the interpreter's output.
//!
//! A second generator opens every map with a `deny` ahead of `set`
//! entries: the encoding leaves a denied route's output unspecified, and
//! the output of an accepted one must not notice.

use bgp_model::prefix::{Ipv4Prefix, PrefixRange};
use bgp_model::routemap::{Action, MatchCond, RouteMap, RouteMapEntry, SetAction};
use bgp_model::{apply_route_map, Community, Route};
use lightyear::encode::Encoder;
use lightyear::symbolic::SymRoute;
use lightyear::universe::Universe;
use proptest::prelude::*;
use smt::{solve, SatResult, TermPool};
use std::collections::BTreeMap;

/// A small pool of communities so collisions between map and route are
/// likely (the interesting cases).
fn arb_community() -> impl Strategy<Value = Community> {
    (0u16..4, 0u16..4).prop_map(|(h, l)| Community::new(h, l))
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    // A few base networks with varying lengths.
    (0u32..4, 0u8..25).prop_map(|(net, extra)| {
        let addr = (10 + net) << 24;
        Ipv4Prefix::new(addr, 8 + extra % 17)
    })
}

fn arb_range() -> impl Strategy<Value = PrefixRange> {
    (arb_prefix(), 0u8..8, 0u8..8).prop_map(|(p, ge_extra, le_extra)| {
        let min = (p.len + ge_extra % 4).min(32);
        let max = (min + le_extra).min(32);
        PrefixRange::with_bounds(p, min, max)
    })
}

fn arb_match() -> impl Strategy<Value = MatchCond> {
    prop_oneof![
        prop::collection::vec((any::<bool>(), arb_range()), 1..4).prop_map(MatchCond::PrefixList),
        (prop::collection::vec(arb_community(), 1..3), any::<bool>()).prop_map(|(comms, all)| {
            MatchCond::Community {
                comms,
                match_all: all,
            }
        }),
        (
            prop::collection::vec(
                (any::<bool>(), prop::collection::vec(arb_community(), 1..3)),
                1..3
            ),
            any::<bool>()
        )
            .prop_map(|(entries, exact)| MatchCond::CommunityList { entries, exact }),
        (0u32..50).prop_map(MatchCond::Med),
        (50u32..250).prop_map(MatchCond::LocalPref),
        Just(MatchCond::Always),
    ]
}

fn arb_set() -> impl Strategy<Value = SetAction> {
    prop_oneof![
        (0u32..300).prop_map(SetAction::LocalPref),
        (0u32..50).prop_map(SetAction::Med),
        (prop::collection::vec(arb_community(), 1..3), any::<bool>())
            .prop_map(|(comms, additive)| SetAction::Community { comms, additive }),
        prop::collection::vec(arb_community(), 1..3).prop_map(SetAction::DeleteCommunities),
        Just(SetAction::ClearCommunities),
        (0u32..1000).prop_map(SetAction::NextHop),
        prop_oneof![
            Just(bgp_model::route::Origin::Igp),
            Just(bgp_model::route::Origin::Egp),
            Just(bgp_model::route::Origin::Incomplete),
        ]
        .prop_map(SetAction::Origin),
    ]
}

fn arb_entry(seq: u32) -> impl Strategy<Value = RouteMapEntry> {
    (
        any::<bool>(),
        prop::collection::vec(arb_match(), 0..3),
        prop::collection::vec(arb_set(), 0..3),
        prop_oneof![Just(None), Just(Some(None))],
    )
        .prop_map(move |(permit, matches, sets, continue_to)| RouteMapEntry {
            seq,
            action: if permit { Action::Permit } else { Action::Deny },
            matches,
            sets: if permit { sets } else { Vec::new() },
            continue_to: if permit { continue_to } else { None },
        })
}

fn arb_route_map() -> impl Strategy<Value = RouteMap> {
    prop::collection::vec(arb_entry(0), 0..5).prop_map(|mut entries| {
        let mut m = RouteMap::new("GEN");
        for (i, e) in entries.drain(..).enumerate() {
            let mut e = e;
            e.seq = (i as u32 + 1) * 10;
            m.push(e);
        }
        m
    })
}

fn arb_route() -> impl Strategy<Value = Route> {
    (
        arb_prefix(),
        prop::collection::btree_set(arb_community(), 0..4),
        0u32..300,
        0u32..50,
        0u32..1000,
    )
        .prop_map(|(prefix, communities, lp, med, nh)| {
            let mut r = Route::new(prefix)
                .with_local_pref(lp)
                .with_med(med)
                .with_next_hop(nh);
            r.communities = communities;
            r
        })
}

/// A map that opens with a `deny` and then permits with `set`s: the
/// deny's branch leaves the output to the entries after it, and that
/// output must still be the interpreter's wherever the route is
/// accepted.
fn arb_deny_then_sets() -> impl Strategy<Value = RouteMap> {
    let permit = (
        prop::collection::vec(arb_match(), 0..2),
        prop::collection::vec(arb_set(), 1..3),
        prop_oneof![Just(None), Just(Some(None))],
    );
    (
        prop::collection::vec(arb_match(), 1..3),
        prop::collection::vec(permit, 1..4),
    )
        .prop_map(|(deny_matches, permits)| {
            let mut m = RouteMap::new("GEN");
            m.push(RouteMapEntry {
                seq: 10,
                action: Action::Deny,
                matches: deny_matches,
                sets: Vec::new(),
                continue_to: None,
            });
            for (i, (matches, sets, continue_to)) in permits.into_iter().enumerate() {
                m.push(RouteMapEntry {
                    seq: (i as u32 + 2) * 10,
                    action: Action::Permit,
                    matches,
                    sets,
                    continue_to,
                });
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn symbolic_transfer_agrees_with_interpreter(
        map in prop_oneof![arb_route_map(), arb_deny_then_sets()],
        route in arb_route(),
    ) {
        let mut u = Universe::new();
        u.scan_route_map(&map);
        for c in &route.communities {
            u.add_community(*c);
        }
        let mut pool = TermPool::new();
        let sym = SymRoute::fresh(&mut pool, &u, "in");
        let pin = sym.equals_concrete(&mut pool, &u, &route, &BTreeMap::new());
        let mut enc = Encoder::new(&mut pool, &u, "t");
        let tr = enc.encode_route_map(&map, &sym);

        match apply_route_map(&map, &route) {
            None => {
                let acc = pool.not(tr.reject);
                prop_assert!(
                    !solve(&pool, &[pin, acc]).is_sat(),
                    "interpreter rejects but encoding may accept:\n{map}\n{route}"
                );
            }
            Some(out) => {
                prop_assert!(
                    !solve(&pool, &[pin, tr.reject]).is_sat(),
                    "interpreter accepts but encoding may reject:\n{map}\n{route}"
                );
                let model = match solve(&pool, &[pin]) {
                    SatResult::Sat(m) => m,
                    SatResult::Unsat => unreachable!("pin is satisfiable"),
                };
                let got = tr.out.concretize(&pool, &u, &model);
                prop_assert_eq!(got.route.prefix, out.prefix);
                prop_assert_eq!(got.route.local_pref, out.local_pref);
                prop_assert_eq!(got.route.med, out.med);
                prop_assert_eq!(got.route.next_hop, out.next_hop);
                prop_assert_eq!(got.route.origin, out.origin);
                for (i, c) in u.communities().iter().enumerate() {
                    let sym_has = model
                        .eval_bool(&pool, tr.out.comm_bits()[i])
                        .unwrap_or(false);
                    prop_assert_eq!(
                        sym_has,
                        out.has_community(*c),
                        "community {} differs:\n{}\n{}",
                        c, map, route
                    );
                }
            }
        }
    }
}
