//! Check descriptors, results, counterexamples and reports.
//!
//! Every generated check pertains to a single BGP filter on a single
//! router (§2.1 "Localization"): a failed check carries the edge, the
//! route-map name and a concrete input/output route pair, pinpointing the
//! erroneous policy directly.

use crate::engine::SolvedCheck;
use crate::invariants::Location;
use crate::symbolic::ConcreteRoute;
use bgp_model::topology::{EdgeId, Topology};
use orchestrator::RunStats;
use smt::SolverStats;
use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// What a check verifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Import filter preserves the invariants (§4.2 check 1).
    Import,
    /// Export filter preserves the invariants (§4.2 check 2).
    Export,
    /// Originated routes satisfy the edge invariant (§4.2 check 3).
    Originate,
    /// The invariant at the property location implies the property.
    Subsumption,
    /// Liveness: a "good" route survives a path step (§5.2).
    Propagation,
    /// Liveness: same-prefix routes accepted on the path are "good" (§5.2).
    NoInterference,
}

impl CheckKind {
    /// The kind's rendered name (`import`, `no-interference`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            CheckKind::Import => "import",
            CheckKind::Export => "export",
            CheckKind::Originate => "originate",
            CheckKind::Subsumption => "subsumption",
            CheckKind::Propagation => "propagation",
            CheckKind::NoInterference => "no-interference",
        }
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A local check to be discharged.
#[derive(Clone, Debug)]
pub struct Check {
    /// Stable id within a run.
    pub id: usize,
    /// What kind of check.
    pub kind: CheckKind,
    /// The location the check pertains to.
    pub location: Location,
    /// The edge whose filter is checked (when applicable).
    pub edge: Option<EdgeId>,
    /// The route-map under test, if one is attached.
    pub map_name: Option<String>,
    /// Human-readable description.
    pub description: String,
}

/// What the blame view renders of a check: its id, kind and location.
/// A [`ReportSummary`] keeps this much of a passing check whose core it
/// retains, and builds no [`Check`] for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckHead {
    /// Stable id within a run.
    pub id: usize,
    /// What kind of check.
    pub kind: CheckKind,
    /// The location the check pertains to.
    pub location: Location,
}

impl From<&Check> for CheckHead {
    fn from(c: &Check) -> CheckHead {
        CheckHead {
            id: c.id,
            kind: c.kind,
            location: c.location,
        }
    }
}

/// A counterexample to a failed check.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// The input route violating the check.
    pub input: ConcreteRoute,
    /// The filter output (when the check involves a transfer and the
    /// route was not rejected).
    pub output: Option<ConcreteRoute>,
    /// Whether the filter rejected the input in the model.
    pub rejected: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input:  {}", self.input)?;
        if self.rejected {
            write!(f, "\noutput: (rejected)")?;
        } else if let Some(o) = &self.output {
            write!(f, "\noutput: {o}")?;
        }
        Ok(())
    }
}

/// The outcome of one check.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckResult {
    /// The check holds.
    Pass,
    /// The check fails, with a concrete counterexample (boxed: the
    /// overwhelmingly common outcome is `Pass`, and reports hold one
    /// `CheckResult` per check).
    Fail(Box<Counterexample>),
}

impl CheckResult {
    /// True on pass.
    pub fn passed(&self) -> bool {
        matches!(self, CheckResult::Pass)
    }
}

/// One executed check: descriptor, outcome and solver statistics.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The check.
    pub check: Check,
    /// Its result.
    pub result: CheckResult,
    /// SMT statistics for this check (Figure 3b metrics).
    pub stats: SolverStats,
    /// Unsat-core localization of a **passing** check solved on an
    /// assumption-based session: the indices (into
    /// `RoutePred::conjuncts()` of the check's assumed invariant) of the
    /// conjuncts the UNSAT proof actually used. `Some(vec![])` means the
    /// check holds vacuously — no invariant conjunct was load-bearing.
    /// `None` for failures, concrete originate checks, and the
    /// one-fresh-instance-per-check reference oracle. A core is
    /// sound but not necessarily minimal, and — like solver timings — not
    /// deterministic across runs, so it is never part of the `Display`
    /// rendering (see `--json` and [`Report::cores`]).
    pub core: Option<Vec<usize>>,
}

/// The result of verifying a property: all check outcomes plus timing
/// and orchestration statistics.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-check outcomes, sorted by check id.
    pub outcomes: Vec<CheckOutcome>,
    /// Wall-clock time for the whole run.
    pub total_time: Duration,
    /// Orchestration statistics (all zero for the reference oracle).
    pub exec: RunStats,
}

impl Report {
    /// Solver invocations actually executed: the orchestrated count
    /// when available, otherwise every check ran individually.
    pub fn solver_invocations(&self) -> usize {
        if self.exec.generated > 0 {
            self.exec.executed
        } else {
            self.outcomes.len()
        }
    }
    /// True when every check passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.passed())
    }

    /// The failed outcomes.
    pub fn failures(&self) -> Vec<&CheckOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.result.passed())
            .collect()
    }

    /// The passing outcomes that carry an unsat core, as
    /// `(check, load-bearing conjunct indices)` — the blame view: which
    /// invariant conjuncts each proof actually needed.
    pub fn cores(&self) -> Vec<(&Check, &[usize])> {
        self.outcomes
            .iter()
            .filter_map(|o| o.core.as_deref().map(|c| (&o.check, c)))
            .collect()
    }

    /// Number of checks run.
    pub fn num_checks(&self) -> usize {
        self.outcomes.len()
    }

    /// Maximum SAT variable count over all checks (Figure 3b, left axis).
    pub fn max_vars(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.stats.num_vars)
            .max()
            .unwrap_or(0)
    }

    /// Maximum clause count over all checks (Figure 3b, right axis).
    pub fn max_clauses(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.stats.num_clauses)
            .max()
            .unwrap_or(0)
    }

    /// Total time spent inside the SAT solver (Figure 3d, solving curve).
    pub fn solve_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.stats.solve_time).sum()
    }

    /// Render failures with topology names.
    pub fn format_failures(&self, topo: &Topology) -> String {
        format_failure_outcomes(self.failures().into_iter(), topo)
    }

    /// Fold this report into a [`ReportSummary`] (cores retained).
    /// Callers that render through the summary type but still hold a
    /// full report — the liveness path, the daemon — convert here.
    pub fn summarize(&self) -> ReportSummary {
        let mut s = ReportSummary::new(true);
        for o in &self.outcomes {
            let core = o.core.as_deref().map(Cow::Borrowed);
            s.fold_in((&o.check).into(), &o.result, &o.stats, core, || {
                o.check.clone()
            });
        }
        if self.exec.generated > 0 {
            s.set_solver_invocations(self.exec.executed);
        }
        s.total_time = self.total_time;
        s
    }
}

fn format_failure_outcomes<'a>(
    fails: impl Iterator<Item = &'a CheckOutcome>,
    topo: &Topology,
) -> String {
    let mut s = String::new();
    for o in fails {
        use std::fmt::Write;
        let _ = writeln!(
            s,
            "FAILED [{}] at {}{}",
            o.check.kind,
            o.check.location.display(topo),
            o.check
                .map_name
                .as_deref()
                .map(|m| format!(" (route-map {m})"))
                .unwrap_or_default()
        );
        let _ = writeln!(s, "  {}", o.check.description);
        if let CheckResult::Fail(cex) = &o.result {
            for line in cex.to_string().lines() {
                let _ = writeln!(s, "  {line}");
            }
        }
    }
    s
}

/// A streaming fold over check outcomes: everything report rendering
/// reads from a [`Report`], without retaining the outcomes themselves.
/// Passing checks collapse into aggregates the moment they arrive
/// (their heads and unsat cores optionally retained for the blame
/// view); only failures are kept whole. This is what keeps `verify` memory
/// O(solve frontier + failures) instead of O(checks) on an
/// internet-scale corpus entry — see `Verifier::verify_safety_batch_streaming`.
///
/// Outcomes must be pushed in check-id order; every accessor then
/// renders byte-identically to the equivalent [`Report`] (pinned by
/// the CLI golden test).
#[derive(Clone, Debug, Default)]
pub struct ReportSummary {
    checks: usize,
    failures: Vec<CheckOutcome>,
    keep_cores: bool,
    cores: Vec<(CheckHead, Vec<usize>)>,
    max_vars: u64,
    max_clauses: u64,
    solve_time: Duration,
    /// Orchestrated solver-invocation count, when one applies
    /// (mirrors [`Report::solver_invocations`]'s `exec` branch).
    solver_invocations: Option<usize>,
    /// Wall-clock time for the run that produced this summary.
    pub total_time: Duration,
}

impl ReportSummary {
    /// An empty summary. `keep_cores` retains passing checks' unsat
    /// cores (needed for the `--json` blame view); without it a
    /// passing check leaves no per-check residue at all.
    pub fn new(keep_cores: bool) -> Self {
        ReportSummary {
            keep_cores,
            ..ReportSummary::default()
        }
    }

    /// Fold in one verdict of the pipeline (call in check-id order). A
    /// borrowed verdict is copied in what the summary keeps, an owned
    /// one gives up its core. `describe` is called (at most once) only
    /// for a failure: a passing check leaves its head and core under
    /// `keep_cores`, and nothing at all otherwise — four aggregate
    /// updates and no allocation.
    pub(crate) fn push(
        &mut self,
        head: CheckHead,
        solved: Cow<'_, SolvedCheck>,
        describe: impl FnOnce() -> Check,
    ) {
        match solved {
            Cow::Borrowed(s) => {
                let core = s.core.as_deref().map(Cow::Borrowed);
                self.fold_in(head, &s.result, &s.stats, core, describe)
            }
            Cow::Owned(SolvedCheck {
                result,
                stats,
                core,
            }) => self.fold_in(head, &result, &stats, core.map(Cow::Owned), describe),
        }
    }

    /// The fold behind [`ReportSummary::push`] and [`Report::summarize`].
    fn fold_in(
        &mut self,
        head: CheckHead,
        result: &CheckResult,
        stats: &SolverStats,
        core: Option<Cow<'_, [usize]>>,
        describe: impl FnOnce() -> Check,
    ) {
        self.checks += 1;
        self.max_vars = self.max_vars.max(stats.num_vars);
        self.max_clauses = self.max_clauses.max(stats.num_clauses);
        self.solve_time += stats.solve_time;
        if !result.passed() {
            let core = core.map(Cow::into_owned);
            if let (true, Some(core)) = (self.keep_cores, &core) {
                self.cores.push((head, core.clone()));
            }
            self.failures.push(CheckOutcome {
                check: describe(),
                result: result.clone(),
                stats: *stats,
                core,
            });
        } else if let (true, Some(core)) = (self.keep_cores, core) {
            self.cores.push((head, core.into_owned()));
        }
    }

    /// Pin the orchestrated solver-invocation count (otherwise one
    /// invocation per check is assumed).
    fn set_solver_invocations(&mut self, n: usize) {
        self.solver_invocations = Some(n);
    }

    /// Mirrors [`Report::solver_invocations`].
    pub fn solver_invocations(&self) -> usize {
        self.solver_invocations.unwrap_or(self.checks)
    }

    /// True when every folded check passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of checks folded in.
    pub fn num_checks(&self) -> usize {
        self.checks
    }

    /// The retained failed outcomes, in push (check-id) order.
    pub fn failures(&self) -> &[CheckOutcome] {
        &self.failures
    }

    /// The retained `(check head, load-bearing conjunct indices)` pairs
    /// of passing checks, in check-id order (empty unless constructed
    /// with `keep_cores`).
    pub fn cores(&self) -> &[(CheckHead, Vec<usize>)] {
        &self.cores
    }

    /// Mirrors [`Report::max_vars`].
    pub fn max_vars(&self) -> u64 {
        self.max_vars
    }

    /// Mirrors [`Report::max_clauses`].
    pub fn max_clauses(&self) -> u64 {
        self.max_clauses
    }

    /// Mirrors [`Report::solve_time`].
    pub fn solve_time(&self) -> Duration {
        self.solve_time
    }

    /// Render failures with topology names, byte-identical to
    /// [`Report::format_failures`] on the same outcomes.
    pub fn format_failures(&self, topo: &Topology) -> String {
        format_failure_outcomes(self.failures.iter(), topo)
    }
}

/// Deterministic rendering: depends only on the sorted check outcomes,
/// never on wall-clock times or execution strategy, so sequential and
/// orchestrated runs of the same problem render byte-identically.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failed = self.failures().len();
        write!(
            f,
            "{} checks, {} passed, {} failed",
            self.num_checks(),
            self.num_checks() - failed,
            failed,
        )?;
        if failed > 0 {
            let mut fails = self.failures();
            fails.sort_by_key(|o| o.check.id);
            for o in fails {
                write!(
                    f,
                    "\n  failed: {} #{} ({})",
                    o.check.kind, o.check.id, o.check.description
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_check(id: usize) -> Check {
        Check {
            id,
            kind: CheckKind::Import,
            location: Location::Edge(EdgeId(0)),
            edge: Some(EdgeId(0)),
            map_name: Some("M".into()),
            description: "test".into(),
        }
    }

    #[test]
    fn report_aggregates() {
        let mut r = Report::default();
        r.outcomes.push(CheckOutcome {
            check: dummy_check(0),
            result: CheckResult::Pass,
            stats: SolverStats {
                num_vars: 10,
                num_clauses: 20,
                ..Default::default()
            },
            core: Some(vec![0]),
        });
        r.outcomes.push(CheckOutcome {
            check: dummy_check(1),
            result: CheckResult::Pass,
            stats: SolverStats {
                num_vars: 30,
                num_clauses: 5,
                ..Default::default()
            },
            core: None,
        });
        assert!(r.all_passed());
        assert_eq!(r.num_checks(), 2);
        assert_eq!(r.max_vars(), 30);
        assert_eq!(r.max_clauses(), 20);
        assert!(r.failures().is_empty());
    }

    #[test]
    fn summary_agrees_with_report() {
        let mut r = Report::default();
        r.outcomes.push(CheckOutcome {
            check: dummy_check(0),
            result: CheckResult::Pass,
            stats: SolverStats {
                num_vars: 10,
                num_clauses: 20,
                ..Default::default()
            },
            core: Some(vec![1, 2]),
        });
        r.outcomes.push(CheckOutcome {
            check: dummy_check(1),
            result: CheckResult::Fail(Box::new(Counterexample {
                input: ConcreteRoute {
                    route: bgp_model::route::Route::new("10.0.0.0/8".parse().unwrap()),
                    comm_other: false,
                    aspath_matches: Default::default(),
                    ghosts: Default::default(),
                },
                output: None,
                rejected: true,
            })),
            stats: SolverStats {
                num_vars: 5,
                num_clauses: 50,
                ..Default::default()
            },
            core: None,
        });
        let s = r.summarize();
        assert_eq!(s.all_passed(), r.all_passed());
        assert_eq!(s.num_checks(), r.num_checks());
        assert_eq!(s.max_vars(), r.max_vars());
        assert_eq!(s.max_clauses(), r.max_clauses());
        assert_eq!(s.solver_invocations(), r.solver_invocations());
        assert_eq!(s.failures().len(), r.failures().len());
        assert_eq!(s.failures()[0].check.id, 1);
        // The blame rows: (id, kind, location, core), as the report has them.
        let rows: Vec<(CheckHead, Vec<usize>)> = (r.cores().iter())
            .map(|&(c, k)| (c.into(), k.to_vec()))
            .collect();
        assert_eq!(s.cores(), rows.as_slice());
        // The pipeline's fold: a borrowed and an owned verdict leave the
        // same rows, and only the failure is described.
        let (mut lent, mut given, mut described) =
            (ReportSummary::new(true), ReportSummary::new(true), 0);
        for o in &r.outcomes {
            let solved = SolvedCheck {
                result: o.result.clone(),
                stats: o.stats,
                core: o.core.clone(),
            };
            let mut describe = || {
                described += 1;
                o.check.clone()
            };
            lent.push((&o.check).into(), Cow::Borrowed(&solved), &mut describe);
            given.push((&o.check).into(), Cow::Owned(solved), describe);
        }
        assert_eq!(described, 2, "one failure, described once per summary");
        assert_eq!(lent.cores(), rows.as_slice());
        assert_eq!(given.cores(), rows.as_slice());
        assert_eq!(given.failures()[0].check.id, 1);
        // Without keep_cores, passing checks leave no residue.
        let mut lean = ReportSummary::new(false);
        for o in &r.outcomes {
            let core = o.core.as_deref().map(Cow::Borrowed);
            lean.fold_in((&o.check).into(), &o.result, &o.stats, core, || {
                o.check.clone()
            });
        }
        assert!(lean.cores().is_empty());
        assert_eq!(lean.num_checks(), 2);
    }
}
