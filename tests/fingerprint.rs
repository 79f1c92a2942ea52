//! The dedup partition is the contract of `lightyear::fingerprint`:
//! two checks share a fingerprint exactly when their hashed parts are
//! structurally equal. Fingerprints are computed by walking the values
//! (`derive(Hash)` into `orchestrator::FpHasher`); the oracle they are
//! compared against here is equality of the same parts' canonical JSON
//! — what the fingerprint used to be a hash of. If the two ever
//! disagree, either a merge is unsound (distinct formulas, one solver
//! call) or dedup silently degrades.

use bgp_model::canonical_json as js;
use bgp_model::prefix::{Ipv4Prefix, PrefixRange};
use bgp_model::routemap::{Action, MatchCond, RouteMapEntry, SetAction};
use bgp_model::{Community, Policy, Topology};
use lightyear::engine::Verifier;
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::{Location, NetworkInvariants};
use lightyear::pred::{Cmp, NumAttr, RoutePred};
use lightyear::safety::SafetyProperty;
use lightyear::{Check, CheckKind};
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, CORPUS};
use netgen::{figure1, mutate};
use orchestrator::{Fingerprint, FpHasher};
use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;

fn fp(x: &impl Hash) -> Fingerprint {
    let mut h = FpHasher::new();
    x.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------
// (a) value level: hash-walk equality ⇔ canonical-JSON equality
// ---------------------------------------------------------------------

fn range(net: u32, len: u8) -> PrefixRange {
    PrefixRange::orlonger(Ipv4Prefix::new(net << 24, len))
}

/// Pairs that a stream without length prefixes, discriminants or
/// string terminators would confuse. Every pair differs structurally,
/// so both the JSON and the fingerprint must differ.
#[test]
fn concatenation_ambiguities_stay_distinct() {
    use RoutePred::*;
    let (a, b) = (
        HasCommunity(Community::new(1, 1)),
        HasCommunity(Community::new(2, 2)),
    );
    let (r1, r2) = (range(10, 8), range(11, 8));
    let preds: Vec<(RoutePred, RoutePred)> = vec![
        (
            And(vec![a.clone(), b.clone()]),
            And(vec![And(vec![a.clone()]), b.clone()]),
        ),
        (Or(vec![]), And(vec![])),
        (And(vec![]), True),
        (
            And(vec![PrefixIn(vec![r1, r2])]),
            And(vec![PrefixIn(vec![r1]), PrefixIn(vec![r2])]),
        ),
        (
            And(vec![Ghost("ab".into()), Ghost("c".into())]),
            And(vec![Ghost("a".into()), Ghost("bc".into())]),
        ),
        (Ghost("x".into()), AsPathMatches("x".into())),
        (
            Not(Box::new(And(vec![a.clone(), b.clone()]))),
            And(vec![Not(Box::new(a.clone())), b.clone()]),
        ),
        (
            Num(NumAttr::LocalPref, Cmp::Eq, 100),
            Num(NumAttr::Med, Cmp::Eq, 100),
        ),
    ];
    for (x, y) in &preds {
        assert_ne!(js(x), js(y));
        assert_ne!(fp(x), fp(y), "{x:?} vs {y:?}");
    }

    let e = |c| RouteMapEntry {
        continue_to: c,
        ..RouteMapEntry::permit(10)
    };
    let conts = [e(None), e(Some(None)), e(Some(Some(20))), e(Some(Some(0)))];
    for (i, x) in conts.iter().enumerate() {
        for y in &conts[i + 1..] {
            assert_ne!(
                entries_key(std::slice::from_ref(x)),
                entries_key(std::slice::from_ref(y))
            );
            assert_ne!(fp(x), fp(y), "{x:?} vs {y:?}");
        }
    }

    // An entry moved between two adjacent maps, and a match moved
    // between an entry's `matches` and the next entry.
    let (e1, e2, e3) = (
        RouteMapEntry::permit(10),
        RouteMapEntry::deny(20),
        RouteMapEntry::permit(30),
    );
    let maps_a = (vec![e1.clone(), e2.clone()], vec![e3.clone()]);
    let maps_b = (vec![e1.clone()], vec![e2.clone(), e3.clone()]);
    assert_ne!(fp(&maps_a), fp(&maps_b));
    let m = MatchCond::Med(5);
    let with = |first: bool| {
        vec![
            if first {
                e1.clone().matching(m.clone())
            } else {
                e1.clone()
            },
            if first {
                e3.clone()
            } else {
                e3.clone().matching(m.clone())
            },
        ]
    };
    assert_ne!(js(&with(true)), js(&with(false)));
    assert_ne!(fp(&with(true)), fp(&with(false)));
}

/// The JSON oracle for route-map entries. JSON renders both "no
/// `continue`" (`None`) and a bare `continue` to the next entry
/// (`Some(None)`) as `null` — the one place the rendering is coarser
/// than structural equality (and where JSON-hashed fingerprints merged
/// maps that behave differently) — so the oracle carries that bit
/// beside the text.
fn entries_key(entries: &[RouteMapEntry]) -> (String, Vec<bool>) {
    (
        js(&entries),
        entries.iter().map(|e| e.continue_to.is_some()).collect(),
    )
}

// Small pools everywhere, so two independent draws are often equal and
// the "equal JSON ⇒ equal fingerprint" direction is exercised too.

fn arb_community() -> impl Strategy<Value = Community> {
    (0u16..2, 0u16..2).prop_map(|(h, l)| Community::new(h, l))
}

fn arb_range() -> impl Strategy<Value = PrefixRange> {
    (10u32..12, 8u8..10).prop_map(|(net, len)| range(net, len))
}

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("ab"), Just("")].prop_map(String::from)
}

fn arb_pred() -> BoxedStrategy<RoutePred> {
    let leaf = prop_oneof![
        Just(RoutePred::True),
        Just(RoutePred::False),
        Just(RoutePred::NoCommunities),
        prop::collection::vec(arb_range(), 0..3).prop_map(RoutePred::PrefixIn),
        arb_range().prop_map(|r| RoutePred::PrefixEq(r.pattern)),
        arb_community().prop_map(RoutePred::HasCommunity),
        (any::<bool>(), any::<bool>(), 0u32..2).prop_map(|(lp, eq, v)| RoutePred::Num(
            if lp { NumAttr::LocalPref } else { NumAttr::Med },
            if eq { Cmp::Eq } else { Cmp::Le },
            v
        )),
        arb_name().prop_map(RoutePred::Ghost),
        arb_name().prop_map(RoutePred::AsPathMatches),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|p| RoutePred::Not(Box::new(p))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(RoutePred::And),
            prop::collection::vec(inner, 0..3).prop_map(RoutePred::Or),
        ]
    })
}

fn arb_match() -> impl Strategy<Value = MatchCond> {
    prop_oneof![
        prop::collection::vec((any::<bool>(), arb_range()), 0..3).prop_map(MatchCond::PrefixList),
        (prop::collection::vec(arb_community(), 0..3), any::<bool>())
            .prop_map(|(comms, match_all)| MatchCond::Community { comms, match_all }),
        (
            prop::collection::vec(
                (any::<bool>(), prop::collection::vec(arb_community(), 0..3)),
                0..3
            ),
            any::<bool>()
        )
            .prop_map(|(entries, exact)| MatchCond::CommunityList { entries, exact }),
        (0u32..2).prop_map(MatchCond::Med),
        (0u32..2).prop_map(MatchCond::LocalPref),
        Just(MatchCond::Always),
    ]
}

fn arb_set() -> impl Strategy<Value = SetAction> {
    prop_oneof![
        (0u32..2).prop_map(SetAction::LocalPref),
        (0u32..2).prop_map(SetAction::Med),
        (prop::collection::vec(arb_community(), 0..3), any::<bool>())
            .prop_map(|(comms, additive)| SetAction::Community { comms, additive }),
        prop::collection::vec(arb_community(), 0..3).prop_map(SetAction::DeleteCommunities),
        Just(SetAction::ClearCommunities),
        prop::collection::vec(0u32..2, 0..3).prop_map(SetAction::PrependAsPath),
    ]
}

fn arb_entries() -> impl Strategy<Value = Vec<RouteMapEntry>> {
    let entry = (
        0u32..3,
        any::<bool>(),
        prop::collection::vec(arb_match(), 0..3),
        prop::collection::vec(arb_set(), 0..3),
        prop_oneof![Just(None), Just(Some(None)), Just(Some(Some(0u32)))],
    )
        .prop_map(|(seq, permit, matches, sets, continue_to)| RouteMapEntry {
            seq,
            action: if permit { Action::Permit } else { Action::Deny },
            matches,
            sets,
            continue_to,
        });
    prop::collection::vec(entry, 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pred_fingerprint_equality_is_json_equality(
        a in arb_pred(), b in arb_pred(), c in arb_pred(), d in arb_pred(),
    ) {
        prop_assert_eq!(fp(&a) == fp(&b), js(&a) == js(&b));
        prop_assert_eq!(a == b, js(&a) == js(&b));
        // Adjacent predicates (assume then ensure) do not bleed into
        // each other.
        let (ab, cd) = ((&a, &b), (&c, &d));
        prop_assert_eq!(fp(&ab) == fp(&cd), (js(&a), js(&b)) == (js(&c), js(&d)));
    }

    #[test]
    fn route_map_fingerprint_equality_is_json_equality(
        a in arb_entries(), b in arb_entries(), c in arb_entries(), d in arb_entries(),
    ) {
        let key = |x: &Vec<RouteMapEntry>| entries_key(x);
        prop_assert_eq!(fp(&a) == fp(&b), key(&a) == key(&b));
        prop_assert_eq!(a == b, key(&a) == key(&b));
        let (ab, cd) = ((&a, &b), (&c, &d));
        prop_assert_eq!(fp(&ab) == fp(&cd), (key(&a), key(&b)) == (key(&c), key(&d)));
    }
}

// ---------------------------------------------------------------------
// (b) network level: the partition and the run statistics it produces
// ---------------------------------------------------------------------

/// What the fingerprint of each check hashes, rendered as canonical
/// JSON under the same tags — derived here from the paper's §4.2 check
/// definitions and the public descriptors, independently of the
/// engine's resolved bodies.
fn oracle_keys(
    topo: &Topology,
    policy: &Policy,
    ghosts: &[GhostAttr],
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
    checks: &[&Check],
) -> Vec<String> {
    let ghost_key = |per: &dyn Fn(&GhostAttr) -> u8| {
        let mut gs: Vec<(String, u8)> = ghosts.iter().map(|g| (g.name.clone(), per(g))).collect();
        gs.sort();
        format!("{gs:?}")
    };
    let update = |u: GhostUpdate| match u {
        GhostUpdate::Unchanged => 0,
        GhostUpdate::SetTrue => 1,
        GhostUpdate::SetFalse => 2,
    };
    let mut subsumed = props.iter();
    checks
        .iter()
        .map(|c| match c.kind {
            CheckKind::Import | CheckKind::Export => {
                let e = c.edge.expect("transfer checks name their edge");
                let edge = topo.edge(e);
                let is_import = c.kind == CheckKind::Import;
                let (map, assume, ensure) = if is_import {
                    (
                        policy.import_map(e),
                        Location::Edge(e),
                        Location::Node(edge.dst),
                    )
                } else {
                    (
                        policy.export_map(e),
                        Location::Node(edge.src),
                        Location::Edge(e),
                    )
                };
                format!(
                    "transfer|{is_import}|{:?}|{}|{}|{}",
                    map.map(|m| entries_key(&m.entries)),
                    ghost_key(&|g| update(if is_import {
                        g.import_update(e)
                    } else {
                        g.export_update(e)
                    })),
                    js(&inv.at(topo, assume)),
                    js(&inv.at(topo, ensure)),
                )
            }
            CheckKind::Originate => {
                let e = c.edge.expect("originate checks name their edge");
                let mut routes: Vec<String> = policy.originated(e).iter().map(js).collect();
                routes.sort();
                format!(
                    "originate|{routes:?}|{}|{}",
                    ghost_key(&|g| g.originate_value as u8),
                    js(&inv.at(topo, Location::Edge(e))),
                )
            }
            CheckKind::Subsumption => {
                let p = subsumed.next().expect("one subsumption check per property");
                format!(
                    "implication|{}|{}",
                    js(&inv.at(topo, p.location)),
                    js(&p.pred)
                )
            }
            CheckKind::Propagation | CheckKind::NoInterference => {
                unreachable!("safety suites pose no liveness checks")
            }
        })
        .collect()
}

/// A partition in canonical form: each element mapped to the index of
/// the first element of its class.
fn classes<K: Eq + Hash>(keys: &[K]) -> Vec<usize> {
    let mut first: HashMap<&K, usize> = HashMap::new();
    keys.iter()
        .enumerate()
        .map(|(i, k)| *first.entry(k).or_insert(i))
        .collect()
}

/// Run the suite, assert that grouping its checks by fingerprint is
/// grouping them by the JSON oracle, and return
/// `[generated, unique, executed, groups]`.
fn partition_and_stats(
    topo: &Topology,
    policy: &Policy,
    ghost: GhostAttr,
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
    expect_pass: bool,
) -> [usize; 4] {
    let v = Verifier::new(topo, policy).with_ghost(ghost.clone());
    let report = v.verify_safety_multi(props, inv);
    assert_eq!(report.all_passed(), expect_pass);
    let checks: Vec<&Check> = report.outcomes.iter().map(|o| &o.check).collect();
    let fps = v.check_fingerprints(props, inv);
    assert_eq!(fps.len(), checks.len());
    let keys = oracle_keys(topo, policy, &[ghost], props, inv, &checks);
    assert_eq!(
        classes(&fps),
        classes(&keys),
        "fingerprint partition differs from the structural (JSON) partition"
    );
    let x = report.exec;
    assert_eq!(
        x.unique,
        classes(&fps)
            .iter()
            .enumerate()
            .filter(|(i, c)| i == *c)
            .count()
    );
    [x.generated, x.unique, x.executed, x.groups]
}

/// The pinned statistics below are the parent commit's (JSON-hashed
/// fingerprints): an unchanged partition reproduces them exactly.
#[test]
fn zoo_uninett_partition_is_structural_equality() {
    let entry = CORPUS.iter().find(|e| e.name == "Uninett").unwrap();
    let params = ZooParams::for_entry(entry);
    let mut s = zoo::build(&params);
    let run = |s: &zoo::ZooScenario, pass: bool| {
        let (topo, policy) = (&s.network.topology, &s.network.policy);
        let (pp, pi) = s.peering_suite();
        let (fp, fi) = s.fencing_suite();
        (
            partition_and_stats(topo, policy, s.from_peer_ghost(), &pp, &pi, pass),
            partition_and_stats(topo, policy, s.from_peer_ghost(), &fp, &fi, true),
        )
    };
    assert_eq!(run(&s, true), (UNINETT_PEERING, UNINETT_FENCING));

    // The "forgot to tag" bug on one peer-hosting router: the broken
    // import splits off its own class and the peering suite fails.
    let mut configs = zoo::configs(&params);
    let host = configs
        .iter()
        .find(|c| c.route_maps.contains_key("FROM-PEER"))
        .map(|c| c.hostname.clone())
        .expect("some router hosts a peer");
    mutate::drop_community_sets(&mut configs, &host, "FROM-PEER").unwrap();
    s.network = netgen::roundtrip_and_lower(&configs);
    assert_eq!(
        run(&s, false),
        (UNINETT_PEERING_BROKEN, UNINETT_FENCING_BROKEN)
    );
}

const UNINETT_PEERING: [usize; 4] = [512, 10, 10, 10];
const UNINETT_FENCING: [usize; 4] = [441, 24, 24, 22];
const UNINETT_PEERING_BROKEN: [usize; 4] = [512, 11, 11, 11];
const UNINETT_FENCING_BROKEN: [usize; 4] = [441, 25, 25, 23];

#[test]
fn wan_50r_partition_is_structural_equality() {
    let params = WanParams {
        regions: 6,
        routers_per_region: 6,
        edge_routers: 14,
        peers_per_edge: 2,
        seed: 20230910,
    };
    assert_eq!(params.num_routers(), 50);
    let run = |s: &wan::Scenario, pass: bool| {
        let (_, q) = s
            .peering_predicates()
            .into_iter()
            .find(|(n, _)| n == "no-private-asn")
            .unwrap();
        let (props, inv) = s.peering_property_inputs(&q);
        partition_and_stats(
            &s.network.topology,
            &s.network.policy,
            s.from_peer_ghost(),
            &props,
            &inv,
            pass,
        )
    };
    assert_eq!(run(&wan::build(&params), true), WAN_50R);

    let mut configs = wan::configs(&params);
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    assert_eq!(
        run(&wan::build_from_configs(&params, configs), false),
        WAN_50R_BROKEN
    );
}

const WAN_50R: [usize; 4] = [594, 17, 17, 17];
const WAN_50R_BROKEN: [usize; 4] = [594, 18, 18, 18];

// ---------------------------------------------------------------------
// (c) the stream itself: one pinned fingerprint
// ---------------------------------------------------------------------

/// Spilled caches are keyed by these bytes. The value depends on the
/// field order and variant order of every hashed type (`RoutePred`,
/// `RouteMapEntry`, `MatchCond`, `SetAction`, `Route`, ...) and on
/// what `derive(Hash)` emits for them.
#[test]
fn figure1_check_fingerprint_is_pinned() {
    let s = figure1::build();
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
    let fps = v.check_fingerprints(std::slice::from_ref(&s.no_transit), &s.no_transit_inv);
    assert_eq!(
        fps[0].to_hex(),
        FIGURE1_CHECK0,
        "the fingerprint of Figure 1's first check moved: changing a hashed \
         type's layout requires bumping `FP_VERSION` in \
         crates/core/src/fingerprint.rs (then re-pin this constant), so \
         spilled caches miss instead of answering under stale keys"
    );
}

const FIGURE1_CHECK0: &str = "c70425aef250509538629f570fa46361";
