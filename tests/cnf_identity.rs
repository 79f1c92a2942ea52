//! Answers and search identity pinned check by check, for every check
//! of three one-worker batch runs, in two fixtures:
//!
//! * `tests/fixtures/cnf_answers.txt` — each check's verdict: its unsat
//!   core, or its counterexample. What a user reads; a scheduling change
//!   (how checks share sessions) must leave it byte for byte alone.
//! * `tests/fixtures/cnf_search.txt` — the size of the CNF each check
//!   was decided on and the search it took (decisions, conflicts,
//!   propagations). Speed work on terms, bit-blasting or the clause feed
//!   must not change it: the same terms in the same order blast to the
//!   same clauses, and the same clauses in the same order give the same
//!   search. A scheduling change may re-pin it, and the answers file's
//!   diff then shows that no answer moved.
//!
//! A change to either is a change to the CNF, the search or the answers,
//! never a timing.
//!
//! The inputs: the `netgen::zoo` Cogentco wiring scaled to 24 routers,
//! with a router-unique leading `deny` on eight /24s in every route-map
//! (so no two routers' filters dedup); the 2x2 WAN under all its
//! peering and reuse-safety suites; and the same WAN with two injected
//! bugs, whose failing checks are re-derived on one-shot solves.

mod common;

use common::{quarantine, zoo_scenario};
use lightyear::check::{CheckResult, Report};
use lightyear::engine::Verifier;
use lightyear::{NetworkInvariants, SafetyProperty};
use netgen::mutate;
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, ZooScenario, CORPUS};
use std::fmt::Write as _;

type Suite = (Vec<SafetyProperty>, NetworkInvariants);

/// The two renderings of a run: answers and search (see the module
/// docs).
#[derive(Default)]
struct Records {
    answers: String,
    search: String,
}

/// One line per check of every suite in each rendering, in suite then
/// id order.
fn render(name: &str, v: &Verifier, suites: &[Suite], out: &mut Records) {
    let refs: Vec<(&[SafetyProperty], &NetworkInvariants)> =
        suites.iter().map(|(p, i)| (p.as_slice(), i)).collect();
    let multi = v.verify_safety_batch(&refs);
    for (si, report) in multi.reports.iter().enumerate() {
        render_report(&format!("{name}/{si}"), report, out);
    }
}

fn render_report(name: &str, report: &Report, out: &mut Records) {
    for text in [&mut out.answers, &mut out.search] {
        let _ = writeln!(text, "== {name}: {} checks", report.num_checks());
    }
    for o in &report.outcomes {
        let s = &o.stats;
        let verdict = match &o.result {
            CheckResult::Pass => match &o.core {
                Some(core) => format!("core={core:?}"),
                None => "pass".to_string(),
            },
            CheckResult::Fail(cex) => format!("FAIL {cex}"),
        };
        let _ = writeln!(out.answers, "#{} {verdict}", o.check.id);
        let _ = writeln!(
            out.search,
            "#{} vars={} clauses={} dec={} confl={} prop={}",
            o.check.id,
            s.num_vars,
            s.num_clauses,
            s.sat.decisions,
            s.sat.conflicts,
            s.sat.propagations,
        );
    }
}

fn zoo_quarantined() -> ZooScenario {
    let entry = CORPUS.iter().find(|e| e.name == "Cogentco").unwrap();
    let params = ZooParams::scaled(entry, 24);
    let mut configs = zoo::configs(&params);
    quarantine(&mut configs, 8);
    zoo_scenario(params, &configs)
}

fn wan2x2() -> WanParams {
    WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        ..WanParams::default()
    }
}

/// Every peering predicate and every region's reuse safety, one batch.
fn wan_run(name: &str, s: &wan::Scenario, out: &mut Records) {
    let mut v = Verifier::new(&s.network.topology, &s.network.policy)
        .with_jobs(1)
        .with_ghost(s.from_peer_ghost());
    for k in 0..s.params.regions {
        v = v.with_ghost(s.from_region_ghost(k));
    }
    let mut suites: Vec<Suite> = s
        .peering_predicates()
        .iter()
        .map(|(_, q)| s.peering_property_inputs(q))
        .collect();
    suites.extend((0..s.params.regions).map(|k| s.reuse_safety_inputs(k)));
    render(name, &v, &suites, out);
}

fn all_records() -> Records {
    let mut out = Records::default();

    let z = zoo_quarantined();
    let v = Verifier::new(&z.network.topology, &z.network.policy)
        .with_jobs(1)
        .with_ghost(z.from_peer_ghost());
    render(
        "cogentco24-quarantine8",
        &v,
        &[z.peering_suite(), z.fencing_suite()],
        &mut out,
    );

    wan_run("wan2x2", &wan::build(&wan2x2()), &mut out);

    let mut configs = wan::configs(&wan2x2());
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    mutate::drop_prefix_deny(&mut configs, "EDGE0", "FROM-PEER0", "BOGONS").unwrap();
    wan_run(
        "wan2x2-broken",
        &wan::build_from_configs(&wan2x2(), configs),
        &mut out,
    );
    out
}

/// `got` equals the fixture `want`, or the first differing line fails.
fn assert_matches(fixture: &str, got: &str, want: &str) {
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{fixture}: first difference at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{fixture}: line count"
        );
    }
}

#[test]
fn cnf_and_search_match_fixture() {
    let got = all_records();
    assert_matches(
        "cnf_answers.txt",
        &got.answers,
        include_str!("fixtures/cnf_answers.txt"),
    );
    assert_matches(
        "cnf_search.txt",
        &got.search,
        include_str!("fixtures/cnf_search.txt"),
    );
}
