//! The one bridge from engine reports to the shared [`api`] report
//! schema. `verify --json`, `watch`/`plan` rounds, and the `serve`
//! daemon all build their [`api::PropertyReport`]s here, so the CLI
//! and the server render results identically by construction.

use api::report::TimingDoc;
use bgp_model::topology::Topology;
use lightyear::check::ReportSummary;
use lightyear::engine::Verifier;
use lightyear::invariants::NetworkInvariants;
use lightyear::liveness::LivenessSpec;
use lightyear::safety::SafetyProperty;

/// How text output names a property: `NAME`, or `NAME (liveness)`.
pub(crate) fn label(name: &str, liveness: bool) -> String {
    if liveness {
        format!("{name} (liveness)")
    } else {
        name.to_string()
    }
}

/// A safety property's document, its cores indexed into the conjunct
/// table `verifier` renders for `(prop, inv)`. `timing` is carried by
/// one-shot `verify` entries and omitted where byte-stability across
/// runs matters (daemon reports).
pub(crate) fn safety_report(
    name: &str,
    report: &ReportSummary,
    verifier: &Verifier,
    (prop, inv): &(SafetyProperty, NetworkInvariants),
    timing: bool,
) -> api::PropertyReport {
    let conjs = verifier.check_conjuncts_all(std::slice::from_ref(prop), inv);
    let timing = timing.then(|| run_timing(report));
    property_report(name, false, report, verifier.topology(), &conjs, timing)
}

/// A liveness property's document (never timed), its cores indexed
/// into the conjunct table of `spec`'s walk.
pub(crate) fn liveness_report(
    name: &str,
    report: &ReportSummary,
    verifier: &Verifier,
    spec: &LivenessSpec,
) -> api::PropertyReport {
    let conjs = verifier
        .liveness_check_conjuncts(spec)
        .expect("verify_liveness accepted the spec");
    property_report(name, true, report, verifier.topology(), &conjs, None)
}

/// Render one property's [`ReportSummary`] as the shared document type.
/// Taking the streaming summary (full `Report`s convert via
/// `Report::summarize`) keeps rendering memory independent of check
/// count — the summary already folded passing outcomes away.
/// `conjunct_names` is the check-id-indexed conjunct table the core
/// indices point into.
fn property_report(
    name: &str,
    liveness: bool,
    report: &ReportSummary,
    topo: &Topology,
    conjunct_names: &[Option<Vec<String>>],
    timing: Option<TimingDoc>,
) -> api::PropertyReport {
    api::PropertyReport {
        property: name.to_string(),
        liveness,
        passed: report.all_passed(),
        checks: report.num_checks() as u64,
        timing,
        failures: report
            .failures()
            .iter()
            .map(|f| api::FailureDoc {
                kind: f.check.kind.to_string(),
                location: f.check.location.display(topo),
                route_map: f.check.map_name.clone(),
                description: f.check.description.clone(),
            })
            .collect(),
        cores: report
            .cores()
            .iter()
            .map(|(check, core)| {
                let conjs: &[String] = match conjunct_names.get(check.id) {
                    Some(Some(names)) => names,
                    _ => &[],
                };
                api::CoreDoc {
                    check: check.id as u64,
                    kind: check.kind.to_string(),
                    location: check.location.display(topo),
                    core: core.iter().map(|&i| i as u64).collect(),
                    load_bearing: core.iter().filter_map(|&i| conjs.get(i).cloned()).collect(),
                    conjuncts: conjs.len() as u64,
                }
            })
            .collect(),
    }
}

/// The solver/timing statistics of a one-shot safety run.
fn run_timing(report: &ReportSummary) -> TimingDoc {
    TimingDoc {
        solver_calls: report.solver_invocations() as u64,
        total_seconds: report.total_time.as_secs_f64(),
        solve_seconds: report.solve_time().as_secs_f64(),
    }
}

/// The orchestrator-statistics entry of a parallel run.
pub(crate) fn exec_doc(exec: &orchestrator::RunStats) -> api::ExecDoc {
    api::ExecDoc {
        summary: exec.summary(),
        generated: exec.generated as u64,
        solver_calls: exec.executed as u64,
        dedup_hits: exec.dedup_hits as u64,
        cache_hits: exec.cache_hits as u64,
        stale_cache_entries: exec.invalidated as u64,
        groups: exec.groups as u64,
        warm_assumption_solves: exec.assumption_solves as u64,
        dedup_ratio: exec.dedup_ratio(),
        threads: exec.threads as u64,
    }
}
