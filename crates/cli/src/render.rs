//! The one bridge from engine summaries to the shared [`api`] report
//! schema. One walk over a property's [`ReportSummary`] yields borrowed
//! rows ([`api::FailureRow`], [`api::CoreRow`]) under the property's
//! head: `verify --json` streams them straight into its writer, and
//! `watch`/`plan`/`serve` collect them into the owned
//! [`api::PropertyReport`]s they store. Both feed the same field order,
//! so the CLI and the server render results identically by
//! construction.

use api::report::{write_property, Rows, TimingDoc};
use bgp_model::topology::Topology;
use lightyear::check::ReportSummary;
use lightyear::engine::{ConjunctTable, Verifier};
use lightyear::invariants::NetworkInvariants;
use lightyear::liveness::LivenessSpec;
use lightyear::safety::SafetyProperty;
use serde::{Serialize, Sink};

/// How text output names a property: `NAME`, or `NAME (liveness)`.
pub(crate) fn label(name: &str, liveness: bool) -> String {
    if liveness {
        format!("{name} (liveness)")
    } else {
        name.to_string()
    }
}

/// The conjunct table a safety property's cores index into.
pub(crate) fn safety_conjuncts(
    verifier: &Verifier,
    (prop, inv): &(SafetyProperty, NetworkInvariants),
) -> ConjunctTable {
    verifier.conjunct_table(std::slice::from_ref(prop), inv)
}

/// The conjunct table a liveness property's cores index into.
pub(crate) fn liveness_conjuncts(verifier: &Verifier, spec: &LivenessSpec) -> ConjunctTable {
    verifier
        .liveness_conjunct_table(spec)
        .expect("verify_liveness accepted the spec")
}

/// One property's entry, borrowed from its summary. Taking the
/// streaming summary (full `Report`s convert via `Report::summarize`)
/// keeps rendering memory independent of check count — the summary
/// already folded passing outcomes away.
pub(crate) struct PropertyView<'a> {
    pub(crate) name: &'a str,
    pub(crate) liveness: bool,
    pub(crate) summary: &'a ReportSummary,
    pub(crate) topo: &'a Topology,
    /// The check-id-indexed table the core indices point into.
    pub(crate) conjuncts: &'a ConjunctTable,
    /// Carried by one-shot `verify` safety entries; omitted where
    /// byte-stability across runs matters (daemon reports).
    pub(crate) timing: Option<TimingDoc>,
}

impl<'a> PropertyView<'a> {
    fn head(&self) -> api::PropertyHead<'a> {
        api::PropertyHead {
            property: self.name,
            liveness: self.liveness,
            passed: self.summary.all_passed(),
            checks: self.summary.num_checks() as u64,
            timing: self.timing,
        }
    }

    fn failures(&self) -> impl Iterator<Item = api::FailureRow<'a>> {
        let topo = self.topo;
        self.summary
            .failures()
            .iter()
            .map(move |f| api::FailureRow {
                kind: f.check.kind.as_str(),
                location: f.check.location.display_parts(topo),
                route_map: f.check.map_name.as_deref(),
                description: &f.check.description,
            })
    }

    fn cores(&self) -> impl Iterator<Item = api::CoreRow<'a>> {
        let (topo, conjuncts) = (self.topo, self.conjuncts);
        self.summary
            .cores()
            .iter()
            .map(move |(head, core)| api::CoreRow {
                check: head.id,
                kind: head.kind.as_str(),
                location: head.location.display_parts(topo),
                core,
                conjuncts: conjuncts.conjuncts(head.id),
            })
    }

    /// The owned document, for a surface that stores it.
    pub(crate) fn to_doc(&self) -> api::PropertyReport {
        let head = self.head();
        api::PropertyReport {
            property: head.property.to_string(),
            liveness: head.liveness,
            passed: head.passed,
            checks: head.checks,
            timing: head.timing,
            failures: self.failures().map(|f| f.to_doc()).collect(),
            cores: self.cores().map(|c| c.to_doc()).collect(),
        }
    }
}

impl Serialize for PropertyView<'_> {
    fn stream<S: Sink>(&self, out: &mut S) {
        write_property(
            out,
            &self.head(),
            &Rows(|| self.failures()),
            &Rows(|| self.cores()),
        );
    }
}

/// The solver/timing statistics of a one-shot safety run.
pub(crate) fn run_timing(report: &ReportSummary) -> TimingDoc {
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
