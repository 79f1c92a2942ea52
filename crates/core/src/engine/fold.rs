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
use std::borrow::Cow;
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
            outcomes.push(self.outcome_of(&checks[i], solved.into_owned()))
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
        sink: &mut dyn FnMut(usize, Cow<'_, SolvedCheck>),
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
    /// position represents it), answer what `cache` holds, batch the
    /// remainder by session key ([`Verifier::solve_key`]), solve whole
    /// groups on the orchestrator's pool — inline on the calling thread
    /// at `jobs = 1` — and deliver every verdict to `sink(member
    /// position, verdict)` in position order without ever materialising
    /// an outcome vector: the sink borrows the verdict and copies out
    /// only what it keeps, except from a class's last member, which is
    /// handed the verdict itself.
    ///
    /// Groups complete out of order, so verdicts pass through a reorder
    /// window: a position → class table built from the partition, and
    /// per class a slot holding its verdict once decided and the count
    /// of members not yet released. The cursor `next` advances while its
    /// position's class is decided, lending the slot's verdict to the
    /// sink; the representative leaves first with the full stats, every
    /// later member with [`size_only`] ones, and the slot is emptied
    /// into its last member. Decided classes with members still to release
    /// are the frontier of the streaming report; everything before
    /// `next` has already left through `sink`. The frontier's peak is the
    /// `engine.report_frontier_peak` gauge.
    pub(crate) fn fold(
        &self,
        universe: &Universe,
        classes: Vec<Class>,
        cache: Option<&CheckCache>,
        sink: &mut dyn FnMut(usize, Cow<'_, SolvedCheck>),
    ) -> RunStats {
        let total: usize = classes.iter().map(|c| c.members.len()).sum();
        let mut class_of = vec![0u32; total];
        let mut slots: Vec<(Option<SolvedCheck>, u32)> = Vec::with_capacity(classes.len());
        for (k, class) in classes.iter().enumerate() {
            for &m in &class.members {
                class_of[m] = k as u32;
            }
            slots.push((None, class.members.len() as u32));
        }
        let (mut next, mut open, mut frontier_peak) = (0usize, 0usize, 0usize);
        let stats = run_grouped(
            &Executor::with_threads(Some(self.jobs)),
            cache,
            classes,
            |group: &[&&ResolvedCheck]| {
                let refs: Vec<&ResolvedCheck> = group.iter().map(|rc| **rc).collect();
                self.run_group(universe, &refs)
            },
            |members, mut solved: SolvedCheck, executed| {
                if !executed {
                    solved.stats = size_only(solved.stats);
                }
                slots[class_of[members[0]] as usize].0 = Some(solved);
                open += 1;
                frontier_peak = frontier_peak.max(open);
                while let Some(&k) = class_of.get(next) {
                    let (decided, left) = &mut slots[k as usize];
                    let Some(solved) = decided else { break };
                    *left -= 1;
                    if *left > 0 {
                        sink(next, Cow::Borrowed(solved));
                        // Only the representative (released first) ran.
                        solved.stats = size_only(solved.stats);
                    } else {
                        sink(next, Cow::Owned(decided.take().expect("decided")));
                        open -= 1;
                    }
                    next += 1;
                }
            },
        );
        // A verdict that never arrived must fail the run, not shorten it.
        assert!(
            open == 0 && next == total,
            "fold released {next} of {total} checks"
        );
        obs::gauge_max("engine.report_frontier_peak", frontier_peak as u64);
        stats
    }
}
