//! Delta re-verification must be invisible in results.
//!
//! The contract under test: for any configuration edit — semantic,
//! property-violating, topology-changing, or purely cosmetic — a
//! [`lightyear::ReverifyEngine`] round over the edited network produces
//! a report **byte-identical** to a fresh full verification of the same
//! network, while re-solving only the dirty neighborhood:
//!
//! * cosmetic edits (classified by `delta::diff_configs`) produce an
//!   **empty** dirty set;
//! * semantic single-router edits keep `dirty <= candidates < total`
//!   (the locality of local checks; `candidates` counts the named
//!   routers' neighborhood) unless the attribute universe itself
//!   changed shape, which forces a declared full round;
//! * the `changed` list is never trusted: a round told nothing changed
//!   still matches a fresh run;
//! * verdicts, counterexamples and unsat cores never depend on the
//!   engine's history, and neither does what a round encodes: an engine
//!   carries verdicts, not solvers, however many rounds it has seen.

use delta::diff_configs;
use lightyear::engine::Verifier;
use lightyear::reverify::ReverifyEngine;
use lightyear::{CheckKind, NetworkInvariants, Report, SafetyProperty};
use netgen::wan::{self, WanParams};
use netgen::{edits, mutate};
use orchestrator::Fingerprint;
use proptest::prelude::*;
use std::collections::HashSet;

fn assert_reports_byte_identical(topo: &bgp_model::Topology, a: &Report, b: &Report) {
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(a.format_failures(topo), b.format_failures(topo));
    assert_eq!(
        format!("{:?}", a.summarize().cores()),
        format!("{:?}", b.summarize().cores())
    );
}

/// The first peering suite (no-bogons) of a scenario.
fn suite(s: &wan::Scenario) -> (Vec<lightyear::SafetyProperty>, lightyear::NetworkInvariants) {
    let (_, q) = s.peering_predicates().into_iter().next().unwrap();
    s.peering_property_inputs(&q)
}

/// One base-then-edit round trip compared against a fresh run.
fn check_edit_roundtrip(params: &WanParams, edit_seed: u64) {
    let base_configs = wan::configs(params);
    let base = wan::build_from_configs(params, base_configs.clone());
    // One engine per worker count: a round's solve stage honours the
    // verifier's `jobs`, and its reports must not depend on it. The
    // third is told nothing changed on the edit round.
    let mut engines = [
        (1, ReverifyEngine::new()),
        (4, ReverifyEngine::new()),
        (1, ReverifyEngine::new()),
    ];
    for (jobs, engine) in &mut engines {
        let (props, inv) = suite(&base);
        let v = Verifier::new(&base.network.topology, &base.network.policy)
            .with_ghost(base.from_peer_ghost())
            .with_jobs(*jobs);
        let (report, stats) = engine.reverify(&v, &props, &inv, None);
        assert!(report.all_passed(), "base WAN must verify");
        assert_eq!(stats.dirty, stats.total, "first round is full");
    }

    // Apply a seeded edit (retrying neighboring seeds that do not apply).
    let mut edited_configs = base_configs.clone();
    let mut applied = None;
    for s in edit_seed..edit_seed + 12 {
        applied = edits::random_edit(&mut edited_configs, s);
        if applied.is_some() {
            break;
        }
    }
    let Some(applied) = applied else {
        return; // no edit applies to this tiny network: nothing to test
    };
    let delta = diff_configs(&base_configs, &edited_configs);
    assert!(!delta.is_empty(), "an applied edit must diff: {applied:?}");
    assert_eq!(
        applied.cosmetic,
        delta.is_cosmetic(),
        "differ must agree with the generator: {applied:?} vs {delta}"
    );

    let edited = wan::build_from_configs(params, edited_configs.clone());
    let topo = &edited.network.topology;
    let (props, inv) = suite(&edited);
    let changed = delta.changed_routers();
    let v = Verifier::new(topo, &edited.network.policy).with_ghost(edited.from_peer_ghost());
    let (warm, stats) = engines[0].1.reverify(&v, &props, &inv, Some(&changed));
    let (warm4, stats4) =
        engines[1]
            .1
            .reverify(&v.clone().with_jobs(4), &props, &inv, Some(&changed));
    // Only the group count may follow the worker count: implication
    // checks are chunked over `jobs` groups.
    let groups_masked =
        |s: lightyear::reverify::ReverifyStats| lightyear::reverify::ReverifyStats {
            sessions_created: 0,
            ..s
        };
    assert_eq!(groups_masked(stats), groups_masked(stats4));
    let (blind, _) = engines[2].1.reverify(&v, &props, &inv, Some(&[]));

    // Ground truth: a fresh full verification of the edited network.
    let fresh = v.verify_safety_multi(&props, &inv);
    assert_reports_byte_identical(topo, &fresh, &warm);
    assert_reports_byte_identical(topo, &warm, &warm4);
    assert_reports_byte_identical(topo, &fresh, &blind);

    if delta.is_cosmetic() {
        assert_eq!(
            stats.dirty, 0,
            "cosmetic edit must have an empty dirty set: {applied:?} {stats:?}"
        );
        assert!(!stats.universe_reset);
    } else if !stats.universe_reset {
        assert!(
            stats.dirty <= stats.candidates,
            "dirty set must stay within the delta neighborhood: {applied:?} {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn reverify_matches_fresh_on_random_wans_and_edits(
        regions in 1usize..3,
        routers_per_region in 1usize..3,
        edge_routers in 1usize..3,
        peers_per_edge in 1usize..3,
        seed in 0u64..1000,
        edit_seed in 0u64..1000,
    ) {
        let params = WanParams {
            regions,
            routers_per_region,
            edge_routers,
            peers_per_edge,
            seed,
        };
        check_edit_roundtrip(&params, edit_seed);
    }
}

/// A property-violating edit: the warm round must report the violation
/// with exactly the counterexamples a fresh run prints.
#[test]
fn reverify_reports_failures_byte_identical_to_fresh() {
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 7,
    };
    let base_configs = wan::configs(&params);
    let base = wan::build_from_configs(&params, base_configs.clone());
    let pick = |s: &wan::Scenario| {
        let (_, q) = s
            .peering_predicates()
            .into_iter()
            .find(|(n, _)| n == "no-private-asn")
            .unwrap();
        s.peering_property_inputs(&q)
    };
    let mut engine = ReverifyEngine::new();
    {
        let (props, inv) = pick(&base);
        let v = Verifier::new(&base.network.topology, &base.network.policy)
            .with_ghost(base.from_peer_ghost());
        let (report, _) = engine.reverify(&v, &props, &inv, None);
        assert!(report.all_passed());
    }

    let mut edited_configs = base_configs.clone();
    mutate::drop_aspath_filters(&mut edited_configs, "EDGE1", "FROM-PEER1").unwrap();
    let delta = diff_configs(&base_configs, &edited_configs);
    assert_eq!(delta.changed_routers(), vec!["EDGE1".to_string()]);

    let edited = wan::build_from_configs(&params, edited_configs);
    let topo = &edited.network.topology;
    let (props, inv) = pick(&edited);
    let changed = delta.changed_routers();
    let v = Verifier::new(topo, &edited.network.policy).with_ghost(edited.from_peer_ghost());
    let (warm, stats) = engine.reverify(&v, &props, &inv, Some(&changed));
    assert!(
        !warm.all_passed(),
        "the bug must be caught on the warm path"
    );
    assert!(
        stats.dirty > 0 && stats.dirty <= stats.candidates,
        "{stats:?}"
    );
    assert!(stats.candidates < stats.total, "{stats:?}");

    let fresh = v.verify_safety_multi(&props, &inv);
    assert_reports_byte_identical(topo, &fresh, &warm);
}

/// A multi-round daemon lifetime: edit, revert, edit elsewhere — dirty
/// sets stay local, every round matches a fresh run, the carried cache
/// never grows stale verdicts (reverts re-prove).
#[test]
fn daemon_rounds_stay_local_and_fresh() {
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 3,
        peers_per_edge: 2,
        seed: 3,
    };
    let base_configs = wan::configs(&params);
    let mut engine = ReverifyEngine::new();
    let run = |engine: &mut ReverifyEngine,
               configs: &[bgp_config::ConfigAst],
               changed: Option<&[String]>| {
        let scen = wan::build_from_configs(&params, configs.to_vec());
        let (props, inv) = suite(&scen);
        let v = Verifier::new(&scen.network.topology, &scen.network.policy)
            .with_ghost(scen.from_peer_ghost());
        let (report, stats) = engine.reverify(&v, &props, &inv, changed);
        let fresh = v.verify_safety_multi(&props, &inv);
        assert_reports_byte_identical(&scen.network.topology, &fresh, &report);
        (report, stats)
    };

    run(&mut engine, &base_configs, None);

    // Round 1: tweak EDGE0.
    let mut c1 = base_configs.clone();
    edits::set_local_pref(&mut c1, "EDGE0", "FROM-PEER0", 110).unwrap();
    let changed = diff_configs(&base_configs, &c1).changed_routers();
    let (_, s1) = run(&mut engine, &c1, Some(&changed));
    assert!(s1.dirty > 0 && s1.dirty <= s1.candidates, "{s1:?}");
    assert!(s1.candidates < s1.total, "{s1:?}");

    // Round 2: revert. The restored map's template still exists on the
    // other edge routers, so its fingerprint is *live* — the revert is
    // answered entirely from the carried cache (rename-invariant dedup
    // across routers), while round 1's superseded fingerprint is
    // invalidated so the cache cannot grow stale entries.
    let changed = diff_configs(&c1, &base_configs).changed_routers();
    let (_, s2) = run(&mut engine, &base_configs, Some(&changed));
    assert_eq!(s2.dirty, 0, "template dedup answers the revert: {s2:?}");
    assert!(s2.invalidated > 0, "the lp-110 fingerprint is gone: {s2:?}");

    // Round 3: tweak a different router; its neighborhood only.
    let mut c3 = base_configs.clone();
    edits::set_local_pref(&mut c3, "EDGE1", "FROM-PEER1", 120).unwrap();
    let changed = diff_configs(&base_configs, &c3).changed_routers();
    let (_, s3) = run(&mut engine, &c3, Some(&changed));
    assert!(s3.dirty > 0 && s3.dirty <= s3.candidates, "{s3:?}");

    // Round 4: re-edit the round-1 router with a new value. The diff
    // must be taken against the *previous accepted round* (c3), so it
    // names both the re-edited EDGE0 and the reverted EDGE1; only their
    // neighborhood re-solves, in groups of this round alone, and the
    // report is the fresh run's (checked by `run`).
    let mut c4 = base_configs.clone();
    edits::set_local_pref(&mut c4, "EDGE0", "FROM-PEER0", 130).unwrap();
    let changed = diff_configs(&c3, &c4).changed_routers();
    let (_, s4) = run(&mut engine, &c4, Some(&changed));
    assert!(s4.dirty > 0 && s4.dirty <= s4.candidates, "{s4:?}");
    assert!(s4.candidates < s4.total, "{s4:?}");
    assert_eq!(s4.sessions_reused, 0, "no session outlives a round: {s4:?}");
    assert!(
        (1..=s4.dirty).contains(&s4.sessions_created),
        "every group solved holds a dirty check: {s4:?}"
    );
}

/// A seeded stream of edit kinds (xorshift; the test needs no more).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The current name of route map `base` on `router`: cosmetic edits
/// rename maps back and forth between `base` and `base-R`.
fn map_name(configs: &[bgp_config::ConfigAst], router: &str, base: &str) -> String {
    let cfg = configs.iter().find(|c| c.hostname == router).unwrap();
    if cfg.route_maps.contains_key(base) {
        base.to_string()
    } else {
        format!("{base}-R")
    }
}

/// A long-lived daemon in the Prusti/Viper style, but for hundreds of
/// rounds instead of a handful: one engine on the 2-region WAN through
/// seeded cosmetic / safe / bug / revert rounds. Every tenth round is
/// byte-identical to a fresh run (report text, failures and cores), the
/// carried cache never outgrows the live check set, and the same edit
/// encodes the same formula sizes at round 5 and at round 300 — engine
/// age changes nothing a round does.
#[test]
fn three_hundred_rounds_stay_fresh_and_bounded() {
    const ROUNDS: usize = 300;
    const PROBES: [usize; 2] = [5, ROUNDS];
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 11,
    };
    let suite = |s: &wan::Scenario| {
        let (_, q) = s
            .peering_predicates()
            .into_iter()
            .find(|(n, _)| n == "no-private-asn")
            .unwrap();
        s.peering_property_inputs(&q)
    };
    let mut configs = wan::configs(&params);
    let mut engine = ReverifyEngine::new();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    // The bug outstanding, as EDGE1's configuration before it.
    let mut bug: Option<bgp_config::ConfigAst> = None;
    let mut probe_sizes = Vec::new();
    let mut accepted = configs.clone();
    for round in 0..=ROUNDS {
        let mut probe = false;
        if round > 0 {
            let kind = if PROBES.contains(&round) {
                4
            } else if bug.is_some() {
                // Alternate: an outstanding bug is reverted, sooner or later.
                [0, 1, 3][rng.below(3)]
            } else {
                [0, 0, 1, 1, 2][rng.below(5)]
            };
            match kind {
                // Cosmetic: rename a map there and back.
                0 => {
                    let i = rng.below(configs.len());
                    let router = configs[i].hostname.clone();
                    let names: Vec<String> = configs[i].route_maps.keys().cloned().collect();
                    let map = &names[rng.below(names.len())];
                    let to = match map.strip_suffix("-R") {
                        Some(base) => base.to_string(),
                        None => format!("{map}-R"),
                    };
                    edits::rename_route_map(&mut configs, &router, map, &to).unwrap();
                }
                // Safe: a local-preference on some map (repeats hit the
                // carried cache, new values re-solve).
                1 => {
                    let i = rng.below(configs.len());
                    let router = configs[i].hostname.clone();
                    let names: Vec<String> = configs[i].route_maps.keys().cloned().collect();
                    let map = &names[rng.below(names.len())];
                    let lp = 100 + rng.below(20) as u32;
                    let _ = edits::set_local_pref(&mut configs, &router, map, lp);
                }
                // Bug: EDGE1 forgets its private-ASN filter.
                2 => {
                    let before = configs.iter().find(|c| c.hostname == "EDGE1").unwrap();
                    bug = Some(before.clone());
                    let map = map_name(&configs, "EDGE1", &format!("FROM-PEER{}", rng.below(2)));
                    mutate::drop_aspath_filters(&mut configs, "EDGE1", &map).unwrap();
                }
                // Revert the bug.
                3 => {
                    let before = bug.take().unwrap();
                    *configs.iter_mut().find(|c| c.hostname == "EDGE1").unwrap() = before;
                }
                // Probe: one edit whose formula is the same at every
                // probe round (a never-seen local-preference, so it is
                // always solved, on the map no bug ever touches).
                _ => {
                    let map = map_name(&configs, "EDGE0", "FROM-PEER0");
                    let lp = 9_000 + round as u32;
                    edits::set_local_pref(&mut configs, "EDGE0", &map, lp).unwrap();
                    probe = true;
                }
            }
        }
        let delta = diff_configs(&accepted, &configs);
        let changed = delta.changed_routers();
        let scen = wan::build_from_configs(&params, configs.clone());
        let topo = &scen.network.topology;
        let (props, inv) = suite(&scen);
        let v = Verifier::new(topo, &scen.network.policy).with_ghost(scen.from_peer_ghost());
        let (report, stats) =
            engine.reverify(&v, &props, &inv, (round > 0).then_some(&changed[..]));
        accepted = configs.clone();

        assert_eq!(
            report.all_passed(),
            bug.is_none(),
            "round {round}: {stats:?}"
        );
        if round > 0 && delta.is_cosmetic() {
            assert_eq!(stats.dirty, 0, "round {round}: {stats:?}");
        }
        if round > 0 && !stats.universe_reset {
            assert!(stats.dirty <= stats.candidates, "round {round}: {stats:?}");
        }
        assert!(
            engine.cache().len() <= stats.total,
            "round {round}: {} carried verdicts for {} live checks",
            engine.cache().len(),
            stats.total
        );
        if round % 10 == 0 {
            let fresh = v.verify_safety_multi(&props, &inv);
            assert_reports_byte_identical(topo, &fresh, &report);
        }
        if probe {
            // The probed check: the import the edited map filters.
            let peer = topo.node_by_name("PEER0-0").unwrap();
            let edge0 = topo.node_by_name("EDGE0").unwrap();
            let e = topo.edge_between(peer, edge0).unwrap();
            let solved = Report {
                outcomes: report
                    .outcomes
                    .iter()
                    .filter(|o| o.check.edge == Some(e) && o.check.kind == CheckKind::Import)
                    .cloned()
                    .collect(),
                ..Report::default()
            };
            assert!(
                stats.dirty > 0 && solved.max_vars() > 0,
                "round {round}: {stats:?}"
            );
            probe_sizes.push((solved.max_vars(), solved.max_clauses()));
        }
    }
    assert_eq!(probe_sizes.len(), PROBES.len());
    assert_eq!(
        probe_sizes[0], probe_sizes[1],
        "the same edit must encode the same at round {} and {}",
        PROBES[0], PROBES[1]
    );
}

/// Construct, round and drop hundreds of engines in one process: each
/// one's baseline is the same report, so nothing an engine leaves behind
/// (a worker's recycled session included) reaches the next one.
#[test]
fn two_hundred_engines_come_and_go_alike() {
    let params = WanParams {
        regions: 1,
        routers_per_region: 2,
        edge_routers: 1,
        peers_per_edge: 2,
        seed: 5,
    };
    let scen = wan::build(&params);
    let topo = &scen.network.topology;
    let (props, inv) = suite(&scen);
    let v = Verifier::new(topo, &scen.network.policy).with_ghost(scen.from_peer_ghost());
    let fresh = v.verify_safety_multi(&props, &inv);
    let mut sizes = None;
    for _ in 0..200 {
        let mut engine = ReverifyEngine::new();
        let (report, stats) = engine.reverify(&v, &props, &inv, None);
        assert_eq!(stats.dirty, stats.total);
        assert_reports_byte_identical(topo, &fresh, &report);
        // A full round solves through the fresh run's own solve stage.
        assert_eq!(stats.sessions_created, fresh.exec.groups);
        let got = (report.max_vars(), report.max_clauses());
        assert_eq!(*sizes.get_or_insert(got), got);
        let (_, again) = engine.reverify(&v, &props, &inv, Some(&[]));
        assert_eq!(again.dirty, 0, "{again:?}");
    }
}

/// One property's `api` document, as the daemons render it (without
/// timing fields): the `--json` shape a round is compared by.
fn report_json(
    name: &str,
    v: &Verifier,
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
    report: &Report,
) -> String {
    let topo = v.topology();
    let summary = report.summarize();
    let conjs = v.check_conjuncts_all(props, inv);
    let doc = api::PropertyReport {
        property: name.to_string(),
        liveness: false,
        passed: summary.all_passed(),
        checks: summary.num_checks() as u64,
        timing: None,
        failures: summary
            .failures()
            .iter()
            .map(|f| api::FailureDoc {
                kind: f.check.kind.to_string(),
                location: f.check.location.display(topo),
                route_map: f.check.map_name.clone(),
                description: f.check.description.clone(),
            })
            .collect(),
        cores: summary
            .cores()
            .iter()
            .map(|(check, core)| {
                let names = conjs[check.id].as_deref().unwrap_or_default();
                api::CoreDoc {
                    check: check.id as u64,
                    kind: check.kind.to_string(),
                    location: check.location.display(topo),
                    core: core.iter().map(|&i| i as u64).collect(),
                    load_bearing: core.iter().filter_map(|&i| names.get(i).cloned()).collect(),
                    conjuncts: names.len() as u64,
                }
            })
            .collect(),
    };
    serde_json::to_string(&doc.to_value()).unwrap()
}

/// The daemon's shape: every round builds one `Verifier` and hands it to
/// one engine per property, as `Session::round` does, so the engines
/// share the verifier's digested policy. Over seeded WAN edits — with a
/// peering removal that drops edges and so shifts the check ids behind
/// it — every engine's round renders the same JSON, byte for byte, and
/// the same statistics as an engine that gets a verifier of its own;
/// and `invalidated` is exactly the previous round's fingerprints that
/// are no longer posed (a set difference, whatever moved where).
#[test]
fn engines_sharing_a_verifier_match_engines_with_their_own() {
    const PREDICATES: [&str; 4] = [
        "no-bogons",
        "no-private-asn",
        "peer-tagged",
        "lp-normalized",
    ];
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 3,
        peers_per_edge: 2,
        seed: 7,
    };
    let mut configs = wan::configs(&params);
    let mut shared: Vec<ReverifyEngine> =
        PREDICATES.iter().map(|_| ReverifyEngine::new()).collect();
    let mut own: Vec<ReverifyEngine> = PREDICATES.iter().map(|_| ReverifyEngine::new()).collect();
    let mut prev_fps: Vec<Option<Vec<Fingerprint>>> = vec![None; PREDICATES.len()];
    let (mut positional, mut shifted) = (0, false);
    let mut accepted = configs.clone();
    for round in 0..=24u64 {
        let removal = round == 12;
        if removal {
            edits::remove_peering(&mut configs, "EDGE0", "PEER0-1")
                .expect("EDGE0 peers with PEER0-1");
        } else if round > 0 {
            for s in 0..12 {
                if edits::random_edit(&mut configs, 1000 * round + s).is_some() {
                    break;
                }
            }
        }
        let changed = diff_configs(&accepted, &configs).changed_routers();
        accepted = configs.clone();
        let scen = wan::build_from_configs(&params, configs.clone());
        let (topo, policy) = (&scen.network.topology, &scen.network.policy);
        let predicates = scen.peering_predicates();
        let verifier = Verifier::new(topo, policy).with_ghost(scen.from_peer_ghost());
        for (i, name) in PREDICATES.iter().enumerate() {
            let (_, q) = predicates.iter().find(|(n, _)| n == name).unwrap();
            let (props, inv) = scen.peering_property_inputs(q);
            let changed = (round > 0).then_some(&changed[..]);
            let (report, stats) = shared[i].reverify(&verifier, &props, &inv, changed);
            let alone = Verifier::new(topo, policy).with_ghost(scen.from_peer_ghost());
            let (report_alone, stats_alone) = own[i].reverify(&alone, &props, &inv, changed);
            assert_eq!(
                report_json(name, &verifier, &props, &inv, &report),
                report_json(name, &alone, &props, &inv, &report_alone),
                "round {round}, {name}"
            );
            assert_eq!(stats, stats_alone, "round {round}, {name}");

            let fps = alone.check_fingerprints(&props, &inv);
            if let Some(prev) = prev_fps[i].replace(fps.clone()) {
                if removal {
                    assert!(!stats.universe_reset, "{stats:?}");
                    assert!(fps.len() < prev.len(), "the removal drops checks");
                    shifted = true;
                }
                if !stats.universe_reset {
                    let now: HashSet<Fingerprint> = fps.iter().copied().collect();
                    let gone: HashSet<Fingerprint> =
                        prev.iter().copied().filter(|f| !now.contains(f)).collect();
                    assert_eq!(
                        stats.invalidated,
                        gone.len(),
                        "round {round}, {name}: {stats:?}"
                    );
                    positional += usize::from(prev.iter().zip(&fps).any(|(a, b)| a == b));
                }
            }
        }
    }
    assert!(shifted, "no round removed a peering");
    assert!(positional > 0, "no round kept a fingerprint in place");
}
