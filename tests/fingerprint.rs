//! The dedup partition is the contract of `lightyear::fingerprint`:
//! two checks share a fingerprint — and a class key, the small-integer
//! tuple a run partitions on — exactly when their hashed parts are
//! structurally equal. Fingerprints are computed by walking the values
//! (`derive(Hash)` into `orchestrator::FpHasher`) and composed from
//! per-edge and per-predicate digests; the oracle they are compared
//! against here is equality of the same parts' canonical JSON — what
//! the fingerprint used to be a hash of. If the two ever disagree,
//! either a merge is unsound (distinct formulas, one solver call) or
//! dedup silently degrades.

use bgp_model::prefix::{Ipv4Prefix, PrefixRange};
use bgp_model::routemap::{Action, MatchCond, RouteMap, RouteMapEntry, SetAction};
use bgp_model::{Community, Policy, Route, Topology};
use fuzz::{FamilyId, FamilyParams};
use lightyear::engine::{CheckDigests, Verifier};
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
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Canonical JSON text of a serializable model value: the serde shim
/// emits sorted map/set entries, so equal values produce equal strings.
/// Nothing in the product builds on it any more; it survives here as
/// the independent oracle. Coarser than `==` in one place: `None` and
/// `Some(None)` both render as `null`.
fn js<T: serde::Serialize>(x: &T) -> String {
    serde_json::to_string(&x.to_value()).expect("canonical serialization")
}

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

    /// The digest is a function of the byte stream alone: how the bytes
    /// were split over `write` calls never shows, and no byte of the
    /// stream goes unread.
    #[test]
    fn hasher_sees_the_stream_not_its_chunking(
        bytes in prop::collection::vec(any::<u8>(), 1..200),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let chunked = |stream: &[u8], n: usize| {
            let mut h = FpHasher::new();
            for c in stream.chunks(n) {
                h.write(c);
            }
            h.finish()
        };
        let whole = chunked(&bytes, bytes.len());
        prop_assert_eq!(chunked(&bytes, 1), whole);
        prop_assert_eq!(chunked(&bytes, 3), whole);
        prop_assert_eq!(chunked(&bytes, 8), whole);
        // Typed writes are the same stream as their little-endian bytes.
        let mut typed = FpHasher::new();
        for c in bytes.chunks(4) {
            match c.try_into() {
                Ok(word) => typed.write_u32(u32::from_le_bytes(word)),
                Err(_) => c.iter().for_each(|&b| typed.write_u8(b)),
            }
        }
        prop_assert_eq!(typed.finish(), whole);

        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= 1 << bit;
        prop_assert_ne!(chunked(&flipped, flipped.len()), whole);
        // Nor is a trailing zero byte lost in the tail word's padding.
        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert_ne!(chunked(&longer, longer.len()), whole);
    }
}

// ---------------------------------------------------------------------
// (b) network level: the partition and the run statistics it produces
// ---------------------------------------------------------------------

/// What each digest of a check hashes, rendered as canonical JSON —
/// derived here from the paper's §4.2 check definitions and the public
/// descriptors, independently of the engine's resolved bodies. The
/// universe is left out: every comparison is within one batch, over one
/// union universe.
#[derive(PartialEq, Eq, Hash)]
struct OracleKeys {
    check: String,
    /// Everything but the assumed invariant.
    rest: Option<String>,
    /// Direction, route-map contents and ghost updates alone.
    transfer: Option<String>,
}

fn oracle_keys(
    topo: &Topology,
    policy: &Policy,
    ghosts: &[GhostAttr],
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
    checks: &[&Check],
) -> Vec<OracleKeys> {
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
                let transfer = format!(
                    "transfer|{is_import}|{:?}|{}",
                    map.map(|m| entries_key(&m.entries)),
                    ghost_key(&|g| update(if is_import {
                        g.import_update(e)
                    } else {
                        g.export_update(e)
                    })),
                );
                let rest = format!("{transfer}|{}", js(&inv.at(topo, ensure)));
                OracleKeys {
                    check: format!("{rest}|{}", js(&inv.at(topo, assume))),
                    rest: Some(rest),
                    transfer: Some(transfer),
                }
            }
            CheckKind::Originate => {
                let e = c.edge.expect("originate checks name their edge");
                let mut routes: Vec<String> = policy.originated(e).iter().map(js).collect();
                routes.sort();
                OracleKeys {
                    check: format!(
                        "originate|{routes:?}|{}|{}",
                        ghost_key(&|g| g.originate_value as u8),
                        js(&inv.at(topo, Location::Edge(e))),
                    ),
                    rest: None,
                    transfer: None,
                }
            }
            CheckKind::Subsumption => {
                let p = subsumed.next().expect("one subsumption check per property");
                let rest = format!("implication|{}", js(&p.pred));
                OracleKeys {
                    check: format!("{rest}|{}", js(&inv.at(topo, p.location))),
                    rest: Some(rest),
                    transfer: None,
                }
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

type Suites<'a> = [(&'a [SafetyProperty], &'a NetworkInvariants)];

/// Assert that, over every check of a batch of `suites` taken together,
/// grouping by each composed digest is grouping by the JSON oracle's
/// key for the same parts. Returns each suite's digests and whether
/// some transfer digest was shared between two suites.
fn assert_structural_partition(
    what: &str,
    v: &Verifier,
    ghosts: &[GhostAttr],
    suites: &Suites,
) -> (Vec<Vec<CheckDigests>>, bool) {
    let (topo, policy) = (v.topology(), v.policy());
    let per_suite = v.batch_digests(suites);
    let mut keys = Vec::new();
    for (props, inv) in suites {
        let report = v.verify_safety_reference(props, inv);
        let checks: Vec<&Check> = report.outcomes.iter().map(|o| &o.check).collect();
        keys.extend(oracle_keys(topo, policy, ghosts, props, inv, &checks));
    }
    let digests: Vec<CheckDigests> = per_suite.iter().flatten().copied().collect();
    assert_eq!(digests.len(), keys.len(), "{what}");
    let by = |f: fn(&CheckDigests) -> Option<Fingerprint>| digests.iter().map(f).collect();
    let (check, rest, transfer): (Vec<_>, Vec<_>, Vec<_>) =
        (by(|d| Some(d.check)), by(|d| d.rest), by(|d| d.transfer));
    let key = |f: fn(&OracleKeys) -> Option<&String>| keys.iter().map(f).collect::<Vec<_>>();
    assert_eq!(
        classes(&check),
        classes(&key(|k| Some(&k.check))),
        "{what}: check fingerprints do not partition by structural (JSON) equality"
    );
    // The run partitions on class keys and fingerprints each class
    // once: the keys must split exactly where the oracle does.
    let class: Vec<_> = digests.iter().map(|d| d.class).collect();
    assert_eq!(
        classes(&class),
        classes(&key(|k| Some(&k.check))),
        "{what}: class keys do not partition by structural (JSON) equality"
    );
    assert_eq!(
        classes(&rest),
        classes(&key(|k| k.rest.as_ref())),
        "{what}: rest fingerprints do not partition by structural equality"
    );
    assert_eq!(
        classes(&transfer),
        classes(&key(|k| k.transfer.as_ref())),
        "{what}: transfer fingerprints do not partition by structural equality"
    );
    // One edge and direction poses one transfer relation, whichever
    // suite asks.
    let first_suite = per_suite.first().map_or(0, Vec::len);
    let shared = classes(&transfer)
        .iter()
        .enumerate()
        .any(|(i, &c)| transfer[i].is_some() && i >= first_suite && c < first_suite);
    (per_suite, shared)
}

/// Every `netgen` family the fuzzer draws from, three seeds each (one
/// round with an injected `network` statement, so originate checks
/// exist), every case's suites as one batch; then the zoo suites.
#[test]
fn composed_fingerprints_partition_by_structural_equality_on_every_family() {
    let (mut cases, mut cross_suite, mut originate) = (0, 0, 0);
    for (fi, family) in FamilyId::all().iter().enumerate() {
        for round in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0xf1e1d + 16 * fi as u64 + round);
            let params = FamilyParams::random(*family, &mut rng);
            let mut configs = params.configs();
            if round == 1 {
                let bgp = configs[0].router_bgp.as_mut().expect("a BGP router");
                bgp.networks.push("198.51.100.0/24".parse().unwrap());
            }
            let case = params.build_from(configs);
            let v = case.verifier();
            let suites: Vec<_> = case
                .suites
                .iter()
                .map(|s| (s.props.as_slice(), &s.inv))
                .collect();
            let what = format!("{family} round {round}");
            let (digests, shared) = assert_structural_partition(&what, &v, &case.ghosts, &suites);
            cases += 1;
            cross_suite += usize::from(shared);
            originate += digests
                .iter()
                .flatten()
                .filter(|d| d.rest.is_none())
                .count();
            // A suite on its own has its own universe, so other digests
            // — and the same partition.
            for (i, suite) in suites.iter().enumerate() {
                let solo = v.check_fingerprints(suite.0, suite.1);
                let batch: Vec<Fingerprint> = digests[i].iter().map(|d| d.check).collect();
                assert_eq!(classes(&solo), classes(&batch), "{what} suite {i}");
            }
        }
    }
    let entry = &zoo::CORPUS[0];
    let scen = zoo::build(&ZooParams::scaled(entry, 14));
    let v = Verifier::new(&scen.network.topology, &scen.network.policy)
        .with_ghost(scen.from_peer_ghost());
    let (peering_props, peering_inv) = scen.peering_suite();
    let (fencing_props, fencing_inv) = scen.fencing_suite();
    let suites: Vec<(&[SafetyProperty], &NetworkInvariants)> = vec![
        (&peering_props, &peering_inv),
        (&fencing_props, &fencing_inv),
    ];
    let (_, shared) = assert_structural_partition("zoo", &v, &[scen.from_peer_ghost()], &suites);
    assert!(shared, "zoo: the suites walk the same edges");
    assert_eq!(cases, 3 * FamilyId::all().len());
    assert!(cross_suite > 0, "no multi-suite case shared a transfer");
    assert!(originate > 0, "no originate check compared");
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
    let (digests, _) = assert_structural_partition("suite", &v, &[ghost], &[(props, inv)]);
    let fps: Vec<Fingerprint> = digests[0].iter().map(|d| d.check).collect();
    assert_eq!(fps, v.check_fingerprints(props, inv));
    assert_eq!(fps.len(), report.num_checks());
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

/// The pinned generated / unique / executed counts below date from
/// JSON-hashed fingerprints: an unchanged partition reproduces them
/// exactly. The group counts are one session per distinct transfer
/// relation among the executed classes, plus originate and implication
/// groups (10 and 11 on fencing, 22 and 23 when sessions were per edge
/// direction).
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
const UNINETT_FENCING: [usize; 4] = [441, 24, 24, 10];
const UNINETT_PEERING_BROKEN: [usize; 4] = [512, 11, 11, 11];
const UNINETT_FENCING_BROKEN: [usize; 4] = [441, 25, 25, 11];

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

/// Lowering shares one resolved map among every session, on any
/// router, whose map has equal inputs; a
/// fingerprint hashes a map's contents, so a policy that holds its own
/// deep copy on every edge fingerprints every check the same.
#[test]
fn shared_maps_fingerprint_like_per_edge_copies() {
    let unshared = |p: &Policy| {
        let mut q = p.clone();
        for (e, m) in p.imports() {
            q.set_import(e, RouteMap::clone(m));
        }
        for (e, m) in p.exports() {
            q.set_export(e, RouteMap::clone(m));
        }
        q
    };
    let shares =
        |p: &Policy| (p.imports().chain(p.exports())).any(|(_, m)| Arc::strong_count(m) > 1);
    let zoo = zoo::build(&ZooParams::scaled(&CORPUS[0], 14));
    let wan = wan::build(&WanParams {
        regions: 3,
        routers_per_region: 3,
        edge_routers: 4,
        peers_per_edge: 3,
        seed: 20230910,
    });
    let (zp, zi) = zoo.peering_suite();
    let (zf, zfi) = zoo.fencing_suite();
    let (_, q) = wan
        .peering_predicates()
        .into_iter()
        .find(|(n, _)| n == "no-private-asn")
        .unwrap();
    let (wp, wi) = wan.peering_property_inputs(&q);
    let cases = [
        (
            &zoo.network,
            zoo.from_peer_ghost(),
            vec![(&zp[..], &zi), (&zf[..], &zfi)],
        ),
        (&wan.network, wan.from_peer_ghost(), vec![(&wp[..], &wi)]),
    ];
    for (net, ghost, suites) in cases {
        let (topo, policy) = (&net.topology, &net.policy);
        let copied = unshared(policy);
        assert!(shares(policy), "lowering shares some map");
        assert!(!shares(&copied));
        let fps = |p: &Policy| {
            let v = Verifier::new(topo, p).with_ghost(ghost.clone());
            suites
                .iter()
                .map(|(props, inv)| v.check_fingerprints(props, inv))
                .collect::<Vec<_>>()
        };
        let shared = fps(policy);
        assert!(shared.iter().map(Vec::len).sum::<usize>() > 0);
        assert_eq!(shared, fps(&copied));
    }
}

/// The attribute universe shapes every symbolic route, so it is part of
/// every check's formula. Bases are universe-free (the verifier digests
/// them once for all suites); the universe enters at the rest. Figure 1
/// with an originated prefix, under two suites that pose the same
/// transfer, originate and implication checks but whose universes
/// differ by one community, fingerprints every such check differently
/// — while the transfer digests, which do not see the universe, agree.
#[test]
fn a_universe_change_moves_every_check_fingerprint_through_its_rest() {
    let mut configs = figure1::configs();
    let bgp = configs[0].router_bgp.as_mut().expect("a BGP router");
    bgp.networks.push("198.51.100.0/24".parse().unwrap());
    let s = figure1::build_from_configs(configs);
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
    let at = s.no_transit.location;
    // A second property mentioning a community: new to the universe, or
    // one the policy already sets (the control: same universe).
    let with_extra = |c: Community| {
        vec![
            s.no_transit.clone(),
            SafetyProperty::new(at, RoutePred::has_community(c).not()).named("extra"),
        ]
    };
    let base = [s.no_transit.clone()];
    let widened = with_extra(Community::new(999, 9));
    let same = with_extra(figure1::transit_comm());
    let inv = &s.no_transit_inv;
    // Every check by its description, with its digests.
    let digests = |props: &[SafetyProperty]| -> HashMap<String, CheckDigests> {
        let report = v.verify_safety_multi(props, inv);
        let digests = v.batch_digests(&[(props, inv)]).remove(0);
        report
            .outcomes
            .iter()
            .map(|o| (o.check.description.clone(), digests[o.check.id]))
            .collect()
    };
    let (before, widened, same) = (digests(&base), digests(&widened), digests(&same));
    let mut kinds = HashMap::new();
    for (what, d) in &before {
        let (w, c) = (&widened[what], &same[what]);
        assert_ne!(
            d.check, w.check,
            "{what}: the universe must reach the check"
        );
        assert_eq!(d.check, c.check, "{what}: an equal universe keeps it");
        assert_eq!(d.transfer, w.transfer, "{what}: bases are universe-free");
        if d.rest.is_some() {
            assert_ne!(d.rest, w.rest, "{what}: the universe enters at the rest");
        }
        *kinds
            .entry(if d.transfer.is_some() {
                "transfer"
            } else if d.rest.is_none() {
                "originate"
            } else {
                "implication"
            })
            .or_insert(0) += 1;
    }
    assert_eq!(kinds.len(), 3, "every kind compared: {kinds:?}");
}

/// The verifier digests its policy once and every suite, run and
/// engine on it reads that table: one `Verifier` serving several suites
/// — in either order, and a clone — fingerprints and partitions each
/// exactly like a fresh `Verifier` per suite. Adding a ghost after the
/// table was built rebuilds it.
#[test]
fn one_verifier_serving_many_suites_partitions_like_fresh_ones() {
    let scen = zoo::build(&ZooParams::scaled(&CORPUS[0], 14));
    let (topo, policy) = (&scen.network.topology, &scen.network.policy);
    let fresh = || Verifier::new(topo, policy).with_ghost(scen.from_peer_ghost());
    let (pp, pi) = scen.peering_suite();
    let (fp, fi) = scen.fencing_suite();
    let suites: [(&[SafetyProperty], &NetworkInvariants); 2] = [(&pp, &pi), (&fp, &fi)];
    let alone = |v: &Verifier, (props, inv): (&[SafetyProperty], &NetworkInvariants)| {
        let x = v.verify_safety_multi(props, inv).exec;
        (
            v.check_fingerprints(props, inv),
            [x.generated, x.unique, x.executed, x.groups],
        )
    };
    let expected: Vec<_> = suites.iter().map(|&s| alone(&fresh(), s)).collect();
    let shared = fresh();
    for order in [[0, 1], [1, 0]] {
        for i in order {
            assert_eq!(alone(&shared, suites[i]), expected[i], "suite {i}");
            assert_eq!(alone(&shared.clone(), suites[i]), expected[i], "clone {i}");
        }
    }
    // The table of a ghost-less verifier, then the ghost.
    let late = Verifier::new(topo, policy);
    let _ = late.check_fingerprints(&pp, &pi);
    let late = late.with_ghost(scen.from_peer_ghost());
    assert_eq!(alone(&late, suites[0]), expected[0]);
}

// ---------------------------------------------------------------------
// (c) the stream itself: one pinned fingerprint
// ---------------------------------------------------------------------

/// Spilled caches are keyed by these bytes. The value depends on the
/// field order and variant order of every hashed type (`RoutePred`,
/// `RouteMapEntry`, `MatchCond`, `SetAction`, `Route`, ...), on what
/// `derive(Hash)` emits for them, on how `lightyear::fingerprint`
/// composes the part digests and on `FpHasher`'s mixing function.
#[test]
fn figure1_check_fingerprint_is_pinned() {
    let s = figure1::build();
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
    let fps = v.check_fingerprints(std::slice::from_ref(&s.no_transit), &s.no_transit_inv);
    assert_eq!(
        fps[0].to_hex(),
        FIGURE1_CHECK0,
        "the fingerprint of Figure 1's first check moved: changing a hashed \
         type's layout, the composition or the hasher requires bumping `FP_VERSION` in \
         crates/core/src/fingerprint.rs (then re-pin this constant), so \
         spilled caches miss instead of answering under stale keys"
    );
}

const FIGURE1_CHECK0: &str = "554f445964f8027af7ac51a37fb12967";

/// Every check of Figure 1's no-transit suite, not only the first: its
/// imports and exports hash a transfer base and its subsumption check
/// the implication base. Figure 1 originates nothing, so the same suite
/// over Figure 1 with one route originated onto R2 -> ISP2 pins the
/// origination base too.
#[test]
fn figure1_every_check_fingerprint_is_pinned() {
    let s = figure1::build();
    let props = std::slice::from_ref(&s.no_transit);
    let pinned = |policy: &Policy| {
        let v = Verifier::new(&s.network.topology, policy).with_ghost(s.ghost.clone());
        let report = v.verify_safety(&s.no_transit, &s.no_transit_inv);
        let kinds: Vec<CheckKind> = report.outcomes.iter().map(|o| o.check.kind).collect();
        let fps = v.check_fingerprints(props, &s.no_transit_inv);
        (kinds, fps.iter().map(|f| f.to_hex()).collect::<Vec<_>>())
    };
    let (kinds, fps) = pinned(&s.network.policy);
    for kind in [CheckKind::Import, CheckKind::Export, CheckKind::Subsumption] {
        assert!(kinds.contains(&kind), "Figure 1 has no {kind:?} check");
    }
    let topo = &s.network.topology;
    let r2_isp2 = (topo.node_by_name("R2"))
        .zip(topo.node_by_name("ISP2"))
        .and_then(|(r2, isp2)| topo.edge_between(r2, isp2))
        .unwrap();
    let mut originating = s.network.policy.clone();
    originating.add_origination(r2_isp2, Route::new("203.0.113.0/24".parse().unwrap()));
    let (okinds, ofps) = pinned(&originating);
    let at = okinds.iter().position(|&k| k == CheckKind::Originate);
    let originate = at.map(|i| ofps[i].as_str());
    let moved = "a Figure 1 check fingerprint moved: bump `FP_VERSION` in \
                 crates/core/src/fingerprint.rs, then re-pin (see \
                 `figure1_check_fingerprint_is_pinned`)";
    assert_eq!(fps, FIGURE1_CHECKS, "{moved}");
    assert_eq!(originate, Some(FIGURE1_ORIGINATE), "{moved}");
}

/// The fingerprints of Figure 1's no-transit checks, in check-id order.
const FIGURE1_CHECKS: [&str; 19] = [
    "554f445964f8027af7ac51a37fb12967",
    "a23460f9ce209712d65a2bfde8f46eab",
    "8de7823daeb3feb112af4b1173f346c0",
    "554f445964f8027af7ac51a37fb12967",
    "8de7823daeb3feb112af4b1173f346c0",
    "554f445964f8027af7ac51a37fb12967",
    "8de7823daeb3feb112af4b1173f346c0",
    "554f445964f8027af7ac51a37fb12967",
    "8de7823daeb3feb112af4b1173f346c0",
    "554f445964f8027af7ac51a37fb12967",
    "d926305e8981cec72cb302c4a2d7e0a8",
    "916ddd115291fab5cbb303d826ba1f89",
    "8de7823daeb3feb112af4b1173f346c0",
    "554f445964f8027af7ac51a37fb12967",
    "8de7823daeb3feb112af4b1173f346c0",
    "554f445964f8027af7ac51a37fb12967",
    "554f445964f8027af7ac51a37fb12967",
    "916ddd115291fab5cbb303d826ba1f89",
    "cab79ffad88120439729d84566b90b01",
];

/// The fingerprint of the originate check Figure 1 gains with a route
/// originated onto R2 -> ISP2.
const FIGURE1_ORIGINATE: &str = "c03f6bf77d3ff99315d1b000c71ae863";
