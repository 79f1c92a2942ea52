//! The bridge from an engine report to the shared `api` report schema.
//! `crates/cli/src/render.rs` is private to the bin crate, so the
//! harness carries this copy of its `property_report`, always without
//! timing fields: the rendered bytes must not change between runs.

use bgp_model::topology::Topology;
use lightyear::check::ReportSummary;

/// Render one property's summary. `conjunct_names` is the
/// check-id-indexed table from `Verifier::check_conjuncts_all`; pass an
/// empty slice when no cores were kept.
pub fn property_report(
    name: &str,
    report: &ReportSummary,
    topo: &Topology,
    conjunct_names: &[Option<Vec<String>>],
) -> api::PropertyReport {
    api::PropertyReport {
        property: name.to_string(),
        liveness: false,
        passed: report.all_passed(),
        checks: report.num_checks() as u64,
        timing: None,
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
                let conjs = conjunct_names
                    .get(check.id)
                    .cloned()
                    .flatten()
                    .unwrap_or_default();
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

/// The timing-free JSON text of a whole verdict: one array entry per
/// property, as `verify --json` and the daemon's reports render them.
pub fn to_json(reports: &[api::PropertyReport]) -> String {
    let v = serde_json::Value::Array(reports.iter().map(api::PropertyReport::to_value).collect());
    serde_json::to_string(&v).expect("a report value always serialises")
}
