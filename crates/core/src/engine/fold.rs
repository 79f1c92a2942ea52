//! The run path and the fold of its verdicts: partition, decide each
//! class once (cache first), and hand every verdict to a sink in check
//! order through a reorder window, then into a [`Report`], a
//! [`ReportSummary`] or a batch's per-suite ones.

use super::generate::{count_described, ResolvedCheck};
use super::partition::Class;
use super::solve::{size_only, SolvedCheck};
use super::{timed, CheckCache, Verifier};
use crate::check::{CheckOutcome, Report, ReportSummary};
use crate::fingerprint::{universe_digest, FpParts};
use crate::universe::Universe;
use orchestrator::{run_grouped, Executor, RunStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The result of a cross-property batch
/// ([`Verifier::verify_safety_batch`]): one [`Report`] per input suite —
/// each byte-identical to a standalone run of that suite — plus the
/// orchestration statistics of the single shared run.
#[derive(Clone, Debug, Default)]
pub struct MultiReport {
    /// Per-suite reports, in input order. Each report's `total_time` is
    /// the whole batch's wall-clock time (the run is shared; per-suite
    /// attribution would be fiction) and its `exec` is empty — the
    /// batch-level statistics live in [`MultiReport::exec`].
    pub reports: Vec<Report>,
    /// Orchestration statistics of the one shared run.
    pub exec: RunStats,
    /// Wall-clock time of the whole batch.
    pub total_time: Duration,
}

impl MultiReport {
    /// True when every suite's every check passed.
    pub fn all_passed(&self) -> bool {
        self.reports.iter().all(Report::all_passed)
    }

    /// Total checks across all suites.
    pub fn num_checks(&self) -> usize {
        self.reports.iter().map(Report::num_checks).sum()
    }
}

/// The streaming counterpart of [`MultiReport`]: per-suite
/// [`ReportSummary`] accumulators instead of full per-check outcome
/// vectors, produced by [`Verifier::verify_safety_batch_streaming`].
/// Memory stays proportional to the in-flight solve frontier plus the
/// failures/cores worth rendering, not to the total check count.
#[derive(Clone, Debug)]
pub struct MultiSummary {
    /// Per-suite summaries, in input order. Each summary's `total_time`
    /// is the whole batch's wall-clock time, matching the convention of
    /// [`MultiReport::reports`].
    pub summaries: Vec<ReportSummary>,
    /// Orchestration statistics of the one shared run.
    pub exec: RunStats,
    /// Wall-clock time of the whole batch.
    pub total_time: Duration,
}

impl MultiSummary {
    /// True when every suite's every check passed.
    pub fn all_passed(&self) -> bool {
        self.summaries.iter().all(ReportSummary::all_passed)
    }

    /// Total checks across all suites.
    pub fn num_checks(&self) -> usize {
        self.summaries.iter().map(ReportSummary::num_checks).sum()
    }
}

impl<'a> Verifier<'a> {
    /// The public outcome of a check the pipeline decided.
    pub(crate) fn outcome_of(&self, rc: &ResolvedCheck, solved: SolvedCheck) -> CheckOutcome {
        CheckOutcome {
            check: self.describe(rc.id, &rc.site),
            result: solved.result,
            stats: solved.stats,
            core: solved.core,
        }
    }

    /// Execute generated checks and collect every outcome into a
    /// [`Report`]: a collecting sink over [`Verifier::execute`].
    pub(crate) fn run(&self, universe: &Universe, checks: &[ResolvedCheck]) -> Report {
        let t0 = Instant::now();
        let mut outcomes = Vec::with_capacity(checks.len());
        let exec = self.execute(universe, checks, &mut |i, solved| {
            outcomes.push(self.outcome_of(&checks[i], solved.clone()))
        });
        count_described();
        Report {
            outcomes,
            total_time: t0.elapsed(),
            exec,
        }
    }

    /// The one run path: the fingerprint stage partitions the checks
    /// into classes, then [`Verifier::fold`] decides them against the
    /// attached cache.
    pub(crate) fn execute(
        &self,
        universe: &Universe,
        checks: &[ResolvedCheck],
        sink: &mut dyn FnMut(usize, &SolvedCheck),
    ) -> RunStats {
        obs::add("engine.checks_posed", checks.len() as u64);
        let _span = obs::span!("run_checks", checks = checks.len(), jobs = self.jobs);
        let classes = timed("engine.fingerprint_ns", || {
            let mut parts = FpParts::new(universe_digest(universe), self.policy_digests());
            self.partition(&mut parts, checks.iter().enumerate())
        });
        self.fold(universe, classes, self.cache.as_deref(), sink)
    }

    /// Decide each class of [`Verifier::partition`] once (its lowest
    /// position represents it), consult `cache` (re-validating spilled
    /// failures), batch the remainder by encoding-base key, solve whole
    /// groups on the orchestrator's pool — inline on the calling thread
    /// at `jobs = 1` — and deliver every verdict to `sink(member
    /// position, verdict)` in position order without ever materialising
    /// an outcome vector: the sink borrows the verdict and copies out
    /// only what it keeps.
    ///
    /// Groups complete out of order, so verdicts pass through a reorder
    /// window: one entry per structure that is decided but not yet fully
    /// released, keyed by its lowest unreleased member, which each
    /// member's turn lends to the sink — the frontier of the streaming
    /// report; everything before `next` has already left through `sink`.
    /// Its peak size is the `engine.report_frontier_peak` gauge.
    pub(crate) fn fold(
        &self,
        universe: &Universe,
        classes: Vec<Class>,
        cache: Option<&CheckCache>,
        sink: &mut dyn FnMut(usize, &SolvedCheck),
    ) -> RunStats {
        let total: usize = classes.iter().map(|c| c.members.len()).sum();
        let mut next = 0usize;
        let mut pending: BTreeMap<usize, (SolvedCheck, Vec<usize>, usize)> = BTreeMap::new();
        let mut frontier_peak = 0usize;
        let stats = run_grouped(
            &Executor::with_threads(Some(self.jobs)),
            cache,
            classes,
            |rc: &&ResolvedCheck, v: &SolvedCheck| self.cached_result_still_valid(universe, rc, v),
            |group: &[&&ResolvedCheck]| {
                let refs: Vec<&ResolvedCheck> = group.iter().map(|rc| **rc).collect();
                self.run_group(universe, &refs)
            },
            |members, mut solved: SolvedCheck, executed| {
                if !executed {
                    solved.stats = size_only(solved.stats);
                }
                pending.insert(members[0], (solved, members, 0));
                frontier_peak = frontier_peak.max(pending.len());
                while let Some((mut solved, members, mut at)) = pending.remove(&next) {
                    sink(next, &solved);
                    next += 1;
                    at += 1;
                    if let Some(&m) = members.get(at) {
                        // Only the representative (released first) ran.
                        solved.stats = size_only(solved.stats);
                        pending.insert(m, (solved, members, at));
                    }
                }
            },
        );
        debug_assert!(pending.is_empty() && next == total);
        obs::gauge_max("engine.report_frontier_peak", frontier_peak as u64);
        stats
    }
}
