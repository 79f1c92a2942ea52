//! Liveness reports pinned check by check: for every check of the
//! Figure-1 and WAN 2x2 liveness specs, its id, kind, location, route
//! map, description, verdict and unsat core must match
//! `tests/fixtures/liveness_reports.txt`. These are what users read, so
//! a change to how liveness checks are generated or solved must leave
//! the fixture as it is.

use lightyear::check::{CheckResult, Report};
use lightyear::engine::Verifier;
use lightyear::liveness::LivenessSpec;
use lightyear::pred::{Cmp, RoutePred};
use netgen::wan::{self, WanParams};
use netgen::{figure1, mutate};
use std::fmt::Write as _;

/// One line per check, in id order.
fn render(name: &str, v: &Verifier, spec: &LivenessSpec, out: &mut String) {
    let report: Report = v.verify_liveness(spec).expect("valid spec");
    let topo = v.topology();
    let _ = writeln!(out, "== {name}: {} checks", report.num_checks());
    for o in &report.outcomes {
        let c = &o.check;
        let _ = writeln!(
            out,
            "#{} {} @ {} map={} {} core={} | {}",
            c.id,
            c.kind,
            c.location.display(topo),
            c.map_name.as_deref().unwrap_or("-"),
            match o.result {
                CheckResult::Pass => "pass",
                CheckResult::Fail(_) => "FAIL",
            },
            o.core
                .as_ref()
                .map_or("-".to_string(), |core| format!("{core:?}")),
            c.description,
        );
    }
}

/// 2 regions of 2 routers, 2 edge routers with 2 peers each.
fn wan2x2() -> WanParams {
    WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        ..WanParams::default()
    }
}

fn all_reports() -> String {
    let mut out = String::new();

    let s = figure1::build();
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
    render("figure1", &v, &s.customer_liveness, &mut out);
    // Strengthen the property beyond what the last path constraint
    // guarantees: the final implication fails.
    let mut strong = s.customer_liveness.clone();
    strong.pred = strong.pred.and(RoutePred::local_pref(Cmp::Eq, 7));
    render("figure1-strong-final", &v, &strong, &mut out);

    // R3 stops stripping communities on customer routes (§2.2).
    let mut configs = figure1::configs();
    mutate::drop_community_sets(&mut configs, "R3", "FROM-CUST").expect("mutation applies");
    let broken = figure1::build_from_configs(configs);
    let v = Verifier::new(&broken.network.topology, &broken.network.policy)
        .with_ghost(broken.ghost.clone());
    render("figure1-no-strip", &v, &broken.customer_liveness, &mut out);

    let w = wan::build(&wan2x2());
    for k in 0..w.params.regions {
        let v = Verifier::new(&w.network.topology, &w.network.policy)
            .with_ghost(w.from_region_ghost(k));
        let spec = w.reuse_liveness_spec(k).expect("two routers per region");
        render(&format!("wan2x2-region{k}"), &v, &spec, &mut out);
    }
    out
}

#[test]
fn liveness_reports_match_fixture() {
    let want = include_str!("fixtures/liveness_reports.txt");
    let got = all_reports();
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first difference at line {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "line count");
    }
}

/// `lightyear`'s unit tests read the WAN 2x2 network from a copy of its
/// configuration text (`crates/core` cannot depend on netgen); it must
/// stay the text netgen prints, one file per router.
#[test]
fn core_wan2x2_testdata_matches_netgen() {
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/testdata/wan2x2");
    let configs = wan::configs(&wan2x2());
    for cfg in &configs {
        let file = dir.join(format!("{}.cfg", cfg.hostname));
        let want = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        assert_eq!(bgp_config::print_config(cfg), want, "{file:?}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), configs.len());
}

/// One run per spec: the no-interference transfer checks of every
/// on-path router but the first are copies of the first's, so dedup
/// answers them without a solver call.
#[test]
fn one_run_dedups_across_on_path_routers() {
    let s = figure1::build();
    let v = Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
    let r = v.verify_liveness(&s.customer_liveness).unwrap();
    assert_eq!((r.exec.generated, r.exec.executed), (43, 11));

    for (params, want) in [(wan2x2(), (70, 19)), (WanParams::default(), (310, 41))] {
        let w = wan::build(&params);
        for k in 0..w.params.regions {
            let v = Verifier::new(&w.network.topology, &w.network.policy)
                .with_ghost(w.from_region_ghost(k));
            let r = v
                .verify_liveness(&w.reuse_liveness_spec(k).unwrap())
                .unwrap();
            assert!(r.all_passed());
            assert_eq!((r.exec.generated, r.exec.executed), want, "region {k}");
        }
    }
}
