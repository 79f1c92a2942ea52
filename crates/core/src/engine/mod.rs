//! The verification engine: the [`Verifier`] and the pipeline every
//! run takes, one module per stage.
//!
//! For a safety property, `generate` poses the §4.2 checks:
//!
//! * per edge `A -> B` with `B` internal, an **Import** check:
//!   `I_{A->B}(r) ∧ r' = Import(A->B, r) ⟹ r' = Reject ∨ I_B(r')`;
//! * per edge `A -> B` with `A` internal, an **Export** check:
//!   `I_A(r) ∧ r' = Export(A->B, r) ⟹ r' = Reject ∨ I_{A->B}(r')`,
//!   and an **Originate** check: every `r ∈ Originate(A->B)` satisfies
//!   `I_{A->B}`;
//! * one **Subsumption** check: `I_ℓ ⟹ P`.
//!
//! Check size depends only on one router's configuration (the property
//! behind Figure 3b of the paper), which makes checks embarrassingly
//! parallel (design decision D3) and incrementally re-checkable.
//! `partition` splits a run's checks into classes of structurally
//! identical ones, `solve` decides each class the cache does not answer
//! once on a session shared by every edge with the same transfer
//! relation, and `fold` streams the verdicts out in check order;
//! `spill` is the cache's disk form, which holds passes only. A session
//! answers a verdict, never a model: every counterexample comes from
//! its check's one-shot instance (`Verifier::run_one`), whether the
//! run is cold or warm. Re-verify rounds
//! ([`crate::reverify::ReverifyEngine`]) partition only their dirty
//! checks and enter at the fold. One fresh SMT instance per check
//! survives only as [`Verifier::verify_safety_reference`], the oracle
//! the tests and the fuzzer compare the pipeline against; outcomes are
//! identical either way.

pub(crate) mod fold;
pub(crate) mod generate;
pub(crate) mod partition;
pub(crate) mod solve;
pub(crate) mod spill;

pub use fold::{MultiReport, MultiSummary};
pub use generate::ConjunctTable;
pub use partition::CheckDigests;
pub use solve::SolvedCheck;
pub use spill::{load_pass_cache, load_pass_cache_bounded, save_check_cache};

use crate::check::{CheckHead, Report, ReportSummary};
use crate::fingerprint::PolicyDigests;
use crate::ghost::GhostAttr;
use crate::invariants::NetworkInvariants;
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::topology::Topology;
use generate::{count_described, ResolvedCheck};
use orchestrator::{Executor, ResultCache, RunStats};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A name for a worker count (see [`Verifier::with_mode`]); it selects
/// no code path — every run goes through the same pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RunMode {
    /// One worker: the pipeline runs inline on the calling thread
    /// (paper's sequential numbers, §6.1).
    #[default]
    Sequential,
    /// One worker per core on the orchestrator's pool (D3).
    Parallel,
}

/// The cross-run check-result cache, keyed by structural fingerprint.
pub type CheckCache = ResultCache<SolvedCheck>;

/// The Lightyear verifier for one network.
#[derive(Clone)]
pub struct Verifier<'a> {
    topo: &'a Topology,
    policy: &'a Policy,
    ghosts: Vec<GhostAttr>,
    /// Worker threads; at 1 the pipeline runs inline on the caller.
    jobs: usize,
    /// Cross-run result cache.
    cache: Option<Arc<CheckCache>>,
    /// The policy's fingerprint bases, digested on first use and shared
    /// by every run, round and engine on this verifier (and its clones).
    /// Reset by any builder that changes the ghosts.
    policy_digests: OnceLock<Arc<PolicyDigests>>,
}

/// Charge the wall time of `f` to the counter `name` — under
/// [`obs::enabled`] only: the disabled path never reads the clock.
fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !obs::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    obs::add(name, t0.elapsed().as_nanos() as u64);
    out
}

impl<'a> Verifier<'a> {
    /// A verifier over a topology and policy.
    pub fn new(topo: &'a Topology, policy: &'a Policy) -> Self {
        Verifier {
            topo,
            policy,
            ghosts: Vec::new(),
            jobs: 1,
            cache: None,
            policy_digests: OnceLock::new(),
        }
    }

    /// Register a ghost attribute.
    pub fn with_ghost(mut self, g: GhostAttr) -> Self {
        self.ghosts.push(g);
        self.policy_digests = OnceLock::new();
        self
    }

    /// Set the worker count by name: [`RunMode::Sequential`] is
    /// `with_jobs(1)`, [`RunMode::Parallel`] one worker per core. The
    /// mode is not stored — of `with_mode` and `with_jobs`, the last
    /// call wins.
    pub fn with_mode(self, mode: RunMode) -> Self {
        self.with_jobs(match mode {
            RunMode::Sequential => 1,
            RunMode::Parallel => Executor::with_threads(None).threads(),
        })
    }

    /// Set the worker-thread count (at least 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attach a cross-run result cache. The cache is shared: clone the
    /// `Arc` to reuse it across verifier instances or runs. It keeps the
    /// failures this process derived and answers them directly; a cache
    /// loaded from a spill holds passes only.
    pub fn with_cache(mut self, cache: Arc<CheckCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The topology under verification.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The policy under verification.
    pub fn policy(&self) -> &Policy {
        self.policy
    }

    /// The fingerprint bases of the policy under the registered ghosts,
    /// digested once per verifier.
    pub(crate) fn policy_digests(&self) -> &PolicyDigests {
        self.policy_digests.get_or_init(|| {
            Arc::new(PolicyDigests::new(
                self.topo.num_edges(),
                self.policy,
                &self.ghosts,
            ))
        })
    }

    /// Build the attribute universe: policy + ghosts + the given
    /// predicates (property and invariants).
    pub(crate) fn universe(&self, extra: &[&RoutePred]) -> Universe {
        let mut u = Universe::from_policy(self.policy);
        for g in &self.ghosts {
            u.add_ghost(&g.name);
        }
        for p in extra {
            p.register(&mut u);
        }
        u
    }

    /// Verify a safety property under the given network invariants.
    pub fn verify_safety(&self, prop: &SafetyProperty, inv: &NetworkInvariants) -> Report {
        self.verify_safety_multi(std::slice::from_ref(prop), inv)
    }

    /// Verify several safety properties that share one invariant
    /// assignment. The Import/Export/Originate checks depend only on the
    /// invariants (the §4.3 lemma), so they run once; each property adds a
    /// single subsumption check `I_ℓ ⟹ P`.
    pub fn verify_safety_multi(&self, props: &[SafetyProperty], inv: &NetworkInvariants) -> Report {
        if props.is_empty() {
            return Report::default();
        }
        let g = self.generate(self.universe(&[]), &[(props, inv)]);
        self.run(&g.universe, &g.checks)
    }

    /// Cross-property shared-encoding verification: run several
    /// `(property suite, invariants)` problems as **one** batch, so
    /// checks from different suites that share an encoding base — above
    /// all, one transfer relation — are solved on a single persistent
    /// session instead of re-encoding that relation once per suite, and every subsumption/implication check shares one
    /// implication session. The batch runs over the union attribute
    /// universe of all suites.
    ///
    /// The returned per-suite reports are **byte-identical** to what a
    /// standalone [`Verifier::verify_safety_multi`] of that suite
    /// renders: passes are pure verdicts; failures always re-derive
    /// their counterexample on a fresh one-shot instance whose CNF does
    /// not depend on the other suites' universe atoms (unreferenced
    /// atoms never enter a check's formula cone and are reported as
    /// don't-care, not fabricated). The result cache — when attached —
    /// still records one entry per (check, property) structure.
    pub fn verify_safety_batch(
        &self,
        suites: &[(&[SafetyProperty], &NetworkInvariants)],
    ) -> MultiReport {
        let mut reports: Vec<Report> = suites.iter().map(|_| Report::default()).collect();
        let (exec, total_time) = self.run_batch(suites, |si, rc, solved| {
            reports[si]
                .outcomes
                .push(self.outcome_of(rc, solved.into_owned()))
        });
        for r in &mut reports {
            r.total_time = total_time;
        }
        MultiReport {
            reports,
            exec,
            total_time,
        }
    }

    /// Streaming variant of [`Verifier::verify_safety_batch`]: the same
    /// run, but per-check outcomes fold into per-suite
    /// [`ReportSummary`] accumulators as they leave the pipeline
    /// instead of being collected into full per-suite outcome vectors.
    /// Verdict content is identical — the golden CLI output is
    /// byte-for-byte the same — while peak report memory tracks the
    /// solve frontier (the reorder window between completion order and
    /// check-id order) plus the failures worth rendering, not the total
    /// check count.
    ///
    /// `keep_cores` controls whether passing checks retain their heads
    /// and load-bearing assumption cores (only the `--json` `cores`
    /// rendering reads them); failing outcomes are always kept whole,
    /// and only they are described.
    pub fn verify_safety_batch_streaming(
        &self,
        suites: &[(&[SafetyProperty], &NetworkInvariants)],
        keep_cores: bool,
    ) -> MultiSummary {
        let mut summaries: Vec<ReportSummary> = suites
            .iter()
            .map(|_| ReportSummary::new(keep_cores))
            .collect();
        let (exec, total_time) = self.run_batch(suites, |si, rc, solved| {
            let head = CheckHead {
                id: rc.id,
                kind: rc.site.kind(),
                location: rc.site.location(self.topo),
            };
            summaries[si].push(head, solved, || self.describe(rc.id, &rc.site))
        });
        for s in &mut summaries {
            s.total_time = total_time;
        }
        MultiSummary {
            summaries,
            exec,
            total_time,
        }
    }

    /// The shared body of the batch entry points: generate every
    /// suite's checks (ids stay suite-local), execute the whole batch as
    /// one run over the union universe, and hand each verdict — in
    /// ascending id order per suite — to `push(suite index, check,
    /// verdict)`.
    fn run_batch<'s>(
        &self,
        suites: &[(&'s [SafetyProperty], &'s NetworkInvariants)],
        mut push: impl FnMut(usize, &ResolvedCheck<'s>, Cow<'_, SolvedCheck>),
    ) -> (RunStats, Duration) {
        let t0 = Instant::now();
        let g = self.generate(self.universe(&[]), suites);
        let exec = self.execute(&g.universe, &g.checks, &mut |i, solved| {
            push(g.suite_of(i), &g.checks[i], solved)
        });
        count_described();
        (exec, t0.elapsed())
    }

    /// The reference oracle: every check of the `(props, inv)` suite
    /// decided on its own fresh one-shot SMT instance, in order — no
    /// dedup, no cache, no sessions, no pool. This is what the pipeline
    /// must agree with byte for byte (differential tests, the fuzz
    /// parity oracle, bench baselines); failing checks on the pipeline
    /// re-derive their counterexample through the same per-check
    /// solve. Reports carry no unsat cores and empty `exec` statistics.
    pub fn verify_safety_reference(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> Report {
        let t0 = Instant::now();
        let g = self.generate(self.universe(&[]), &[(props, inv)]);
        let outcomes = (g.checks.iter())
            .map(|c| self.outcome_of(c, self.run_one(&g.universe, c)))
            .collect();
        count_described();
        Report {
            outcomes,
            total_time: t0.elapsed(),
            exec: RunStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::generate::Site;
    use super::*;
    use crate::check::{CheckKind, CheckResult, Counterexample};
    use crate::ghost::GhostUpdate;
    use crate::invariants::Location;
    use crate::symbolic::ConcreteRoute;
    use bgp_model::routemap::{MatchCond, RouteMap, RouteMapEntry, SetAction};
    use bgp_model::{Community, Route};
    use orchestrator::Fingerprint;
    use smt::SolverStats;

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    /// The Figure-1 network with the community-based no-transit scheme.
    fn figure1() -> (Topology, Policy) {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        let r3 = t.add_router("R3", 65000);
        let isp1 = t.add_external("ISP1", 100);
        let isp2 = t.add_external("ISP2", 200);
        let cust = t.add_external("Customer", 300);
        t.add_session(r1, r2);
        t.add_session(r1, r3);
        t.add_session(r2, r3);
        t.add_session(isp1, r1);
        t.add_session(isp2, r2);
        t.add_session(cust, r3);

        let mut pol = Policy::new();
        let mut m = RouteMap::new("FROM-ISP1");
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("100:1")],
            additive: true,
        }));
        pol.set_import(t.edge_between(isp1, r1).unwrap(), m);
        let mut m = RouteMap::new("FROM-CUST");
        m.push(RouteMapEntry::permit(10).setting(SetAction::ClearCommunities));
        pol.set_import(t.edge_between(cust, r3).unwrap(), m);
        let mut m = RouteMap::new("FROM-ISP2");
        m.push(RouteMapEntry::permit(10).setting(SetAction::ClearCommunities));
        pol.set_import(t.edge_between(isp2, r2).unwrap(), m);
        let mut m = RouteMap::new("TO-ISP2");
        m.push(RouteMapEntry::deny(10).matching(MatchCond::Community {
            comms: vec![c("100:1")],
            match_all: false,
        }));
        m.push(RouteMapEntry::permit(20));
        pol.set_export(t.edge_between(r2, isp2).unwrap(), m);
        (t, pol)
    }

    fn from_isp1_ghost(t: &Topology) -> GhostAttr {
        let isp1 = t.node_by_name("ISP1").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let cust = t.node_by_name("Customer").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        let r2 = t.node_by_name("R2").unwrap();
        let r3 = t.node_by_name("R3").unwrap();
        GhostAttr::new("FromISP1")
            .with_import(t.edge_between(isp1, r1).unwrap(), GhostUpdate::SetTrue)
            .with_import(t.edge_between(isp2, r2).unwrap(), GhostUpdate::SetFalse)
            .with_import(t.edge_between(cust, r3).unwrap(), GhostUpdate::SetFalse)
    }

    fn no_transit_inputs(t: &Topology) -> (SafetyProperty, NetworkInvariants) {
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let to_isp2 = t.edge_between(r2, isp2).unwrap();
        let prop = SafetyProperty::new(Location::Edge(to_isp2), RoutePred::ghost("FromISP1").not())
            .named("no-transit");
        let key = RoutePred::ghost("FromISP1").implies(RoutePred::has_community(c("100:1")));
        let inv = NetworkInvariants::with_default(key)
            .with(Location::Edge(to_isp2), RoutePred::ghost("FromISP1").not());
        (prop, inv)
    }

    #[test]
    fn table2_no_transit_verifies() {
        let (t, pol) = figure1();
        let (prop, inv) = no_transit_inputs(&t);
        let v = Verifier::new(&t, &pol).with_ghost(from_isp1_ghost(&t));
        let report = v.verify_safety(&prop, &inv);
        assert!(report.all_passed(), "{}", report.format_failures(&t));
        // Linear check count: one import + one export per internal-incident
        // edge direction, plus subsumption.
        assert!(report.num_checks() >= t.num_edges());
    }

    #[test]
    fn seeded_bug_is_localized_to_r1_import() {
        let (t, mut pol) = figure1();
        // Break R1's import: forget to tag some routes (prefix-matched).
        let isp1 = t.node_by_name("ISP1").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        let e = t.edge_between(isp1, r1).unwrap();
        let mut m = RouteMap::new("FROM-ISP1-BUGGY");
        m.push(
            RouteMapEntry::permit(5).matching(MatchCond::PrefixList(vec![(
                true,
                bgp_model::PrefixRange::orlonger("10.0.0.0/8".parse().unwrap()),
            )])), // forgot the set community!
        );
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("100:1")],
            additive: true,
        }));
        pol.set_import(e, m);

        let (prop, inv) = no_transit_inputs(&t);
        let v = Verifier::new(&t, &pol).with_ghost(from_isp1_ghost(&t));
        let report = v.verify_safety(&prop, &inv);
        assert!(!report.all_passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1, "{}", report.format_failures(&t));
        let f = failures[0];
        assert_eq!(f.check.kind, CheckKind::Import);
        assert_eq!(f.check.edge, Some(e));
        assert_eq!(f.check.map_name.as_deref(), Some("FROM-ISP1-BUGGY"));
        // The counterexample is a 10/8-covered route without the tag.
        if let CheckResult::Fail(cex) = &f.result {
            // The invariant on an edge from an external neighbor is True,
            // so the input's ghost bit never reaches the solver: it must
            // be reported as unwitnessed, not fabricated as false.
            assert!(!cex.input.ghosts.contains_key("FromISP1"));
            let out = cex.output.as_ref().expect("accepted");
            assert!(out.ghosts["FromISP1"]);
            assert!(!out.route.has_community(c("100:1")));
        } else {
            panic!("expected failure");
        }
    }

    #[test]
    fn a_resolved_check_is_a_site_and_borrowed_predicates() {
        assert_eq!(std::mem::size_of::<Site>(), 16);
        assert!(std::mem::size_of::<ResolvedCheck>() <= 64);
    }

    #[test]
    fn mode_is_a_name_for_jobs_and_the_last_call_wins() {
        let (t, pol) = figure1();
        let (prop, inv) = no_transit_inputs(&t);
        // The worker count a run actually used.
        let threads = |v: &Verifier| v.verify_safety(&prop, &inv).exec.threads;
        let v = Verifier::new(&t, &pol);
        assert_eq!(threads(&v), 1);
        let v = v.with_mode(RunMode::Sequential).with_jobs(2);
        assert_eq!(threads(&v), 2);
        let v = v.with_jobs(2).with_mode(RunMode::Sequential);
        assert_eq!(threads(&v), 1);
        let v = v.with_mode(RunMode::Parallel);
        assert_eq!(threads(&v), Executor::with_threads(None).threads());
        assert_eq!(threads(&v.with_jobs(0)), 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (t, pol) = figure1();
        let (prop, inv) = no_transit_inputs(&t);
        let seq = Verifier::new(&t, &pol)
            .with_ghost(from_isp1_ghost(&t))
            .verify_safety(&prop, &inv);
        let par = Verifier::new(&t, &pol)
            .with_ghost(from_isp1_ghost(&t))
            .with_mode(RunMode::Parallel)
            .verify_safety(&prop, &inv);
        assert_eq!(seq.num_checks(), par.num_checks());
        for (a, b) in seq.outcomes.iter().zip(par.outcomes.iter()) {
            assert_eq!(a.check.id, b.check.id);
            assert_eq!(a.result.passed(), b.result.passed());
        }
    }

    #[test]
    fn streaming_batch_agrees_with_batch() {
        let (t, pol) = figure1();
        let (prop, inv) = no_transit_inputs(&t);
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let to_isp2 = t.edge_between(r2, isp2).unwrap();
        // Second suite fails its subsumption check, so the parity below
        // covers failure retention, not just pass aggregation.
        let bad_prop = SafetyProperty::new(
            Location::Edge(to_isp2),
            RoutePred::local_pref(crate::pred::Cmp::Eq, 7),
        )
        .named("unprovable");
        let bad_inv = NetworkInvariants::new();
        for mode in [RunMode::Sequential, RunMode::Parallel] {
            let v = Verifier::new(&t, &pol)
                .with_ghost(from_isp1_ghost(&t))
                .with_mode(mode);
            let suites: Vec<(&[SafetyProperty], &NetworkInvariants)> = vec![
                (std::slice::from_ref(&prop), &inv),
                (std::slice::from_ref(&bad_prop), &bad_inv),
            ];
            let batch = v.verify_safety_batch(&suites);
            let streamed = v.verify_safety_batch_streaming(&suites, true);
            assert_eq!(batch.reports.len(), streamed.summaries.len());
            assert!(!streamed.all_passed());
            assert_eq!(batch.num_checks(), streamed.num_checks());
            for (r, s) in batch.reports.iter().zip(&streamed.summaries) {
                assert_eq!(r.num_checks(), s.num_checks());
                assert_eq!(r.all_passed(), s.all_passed());
                assert_eq!(r.solver_invocations(), s.solver_invocations());
                assert_eq!(r.max_vars(), s.max_vars());
                assert_eq!(r.max_clauses(), s.max_clauses());
                let rf: Vec<(usize, String)> = r
                    .failures()
                    .iter()
                    .map(|f| (f.check.id, format!("{:?}", f.result)))
                    .collect();
                let sf: Vec<(usize, String)> = s
                    .failures()
                    .iter()
                    .map(|f| (f.check.id, format!("{:?}", f.result)))
                    .collect();
                assert_eq!(rf, sf);
                let rc: Vec<(usize, &[usize])> =
                    r.cores().iter().map(|&(c, k)| (c.id, k)).collect();
                let sc: Vec<(usize, &[usize])> = s
                    .cores()
                    .iter()
                    .map(|(c, k)| (c.id, k.as_slice()))
                    .collect();
                assert_eq!(rc, sc);
            }
        }
    }

    #[test]
    fn subsumption_failure_detected() {
        let (t, pol) = figure1();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let to_isp2 = t.edge_between(r2, isp2).unwrap();
        // Property asks for something the invariant does not imply.
        let prop = SafetyProperty::new(
            Location::Edge(to_isp2),
            RoutePred::local_pref(crate::pred::Cmp::Eq, 7),
        );
        let inv = NetworkInvariants::new(); // all True
        let v = Verifier::new(&t, &pol);
        let report = v.verify_safety(&prop, &inv);
        let fails = report.failures();
        assert!(fails.iter().any(|f| f.check.kind == CheckKind::Subsumption));
    }

    #[test]
    fn failures_do_not_spill_and_passes_roundtrip() {
        let fail = SolvedCheck {
            result: CheckResult::Fail(Box::new(Counterexample {
                input: ConcreteRoute {
                    route: Route::new("10.1.2.0/24".parse().unwrap()),
                    comm_other: true,
                    aspath_matches: Default::default(),
                    ghosts: [("G".to_string(), false)].into_iter().collect(),
                },
                output: None,
                rejected: true,
            })),
            stats: SolverStats::default(),
            core: None,
        };
        let pass = SolvedCheck {
            result: CheckResult::Pass,
            stats: SolverStats {
                num_vars: 12,
                num_clauses: 34,
                ..SolverStats::default()
            },
            core: Some(vec![1, 3]),
        };
        let cache = CheckCache::new();
        cache.insert(Fingerprint(1), fail);
        cache.insert(Fingerprint(2), pass);
        let dir = std::env::temp_dir().join(format!("ly-spill-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(save_check_cache(&cache, &dir).unwrap(), 1, "the pass only");
        let (back, held) = load_pass_cache(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(held, 1);
        assert!(back.peek(Fingerprint(1)).is_none());
        let back = back.peek(Fingerprint(2)).expect("the pass reloads");
        assert!(back.result.passed());
        assert_eq!(back.core, Some(vec![1, 3]), "cores must spill and reload");
        assert_eq!(back.stats.num_vars, 12);
        assert_eq!(back.stats.num_clauses, 34);
    }

    #[test]
    fn group_neighbours_do_not_leak_into_counterexamples() {
        // Two subsumption checks share one implication session: the first
        // references ghost G, the second is ghost-free and fails. The
        // second's counterexample must not "witness" G just because the
        // session encoded it for the first check — reference and pipeline
        // failure listings stay byte-identical.
        let mut t = Topology::new();
        let r = t.add_router("R", 65000);
        let x = t.add_external("X", 1);
        t.add_session(r, x);
        let pol = Policy::new();
        let props = vec![
            SafetyProperty::new(Location::Node(r), RoutePred::ghost("G")).named("ghostly"),
            SafetyProperty::new(
                Location::Node(r),
                RoutePred::local_pref(crate::pred::Cmp::Eq, 7),
            )
            .named("ghost-free"),
        ];
        let inv = NetworkInvariants::new(); // all True: both subsumptions fail
        let ghost = crate::ghost::GhostAttr::new("G");
        let fresh = Verifier::new(&t, &pol)
            .with_ghost(ghost.clone())
            .verify_safety_reference(&props, &inv);
        let inc = Verifier::new(&t, &pol)
            .with_ghost(ghost)
            .verify_safety_multi(&props, &inv);
        assert!(!fresh.all_passed());
        assert_eq!(fresh.to_string(), inc.to_string());
        assert_eq!(fresh.format_failures(&t), inc.format_failures(&t));
        // And specifically: the ghost-free failure claims nothing about G.
        let inc_fail = inc
            .failures()
            .into_iter()
            .find(|f| f.check.description.contains("ghost-free"))
            .expect("ghost-free property must fail");
        let CheckResult::Fail(cex) = &inc_fail.result else {
            panic!("expected failure");
        };
        assert!(
            !cex.input.ghosts.contains_key("G"),
            "unwitnessed ghost leaked into the counterexample: {}",
            cex.input
        );
    }

    #[test]
    fn passing_checks_report_unsat_cores() {
        let (t, pol) = figure1();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let to_isp2 = t.edge_between(r2, isp2).unwrap();
        let prop = SafetyProperty::new(Location::Edge(to_isp2), RoutePred::ghost("FromISP1").not())
            .named("no-transit");
        // Two-conjunct override at the property edge: the ghost conjunct
        // carries the subsumption proof; the second conjunct is implied
        // by it (so every check still passes) but is dead weight for the
        // subsumption proof itself.
        let key = RoutePred::ghost("FromISP1").implies(RoutePred::has_community(c("100:1")));
        let not_g = RoutePred::ghost("FromISP1").not();
        let inv = NetworkInvariants::with_default(key).with(
            Location::Edge(to_isp2),
            not_g
                .clone()
                .and(not_g.or(RoutePred::local_pref(crate::pred::Cmp::Le, 1_000_000))),
        );
        let v = Verifier::new(&t, &pol).with_ghost(from_isp1_ghost(&t));
        let props = [prop];
        let report = v.verify_safety_multi(&props, &inv);
        assert!(report.all_passed(), "{}", report.format_failures(&t));
        let sub = report
            .outcomes
            .iter()
            .find(|o| o.check.kind == CheckKind::Subsumption)
            .expect("subsumption check exists");
        let core = sub.core.as_ref().expect("session solves report cores");
        assert_eq!(core, &vec![0], "only the ghost conjunct is load-bearing");
        // Replaying the core alone still proves the check; the dead
        // conjunct alone does not.
        assert_eq!(
            v.check_passes_with_conjuncts(&props, &inv, sub.check.id, core),
            Some(true)
        );
        assert_eq!(
            v.check_passes_with_conjuncts(&props, &inv, sub.check.id, &[1]),
            Some(false)
        );
        // Every reported core replays to UNSAT, and the blame view lists
        // them.
        for (check, core) in report.cores() {
            assert_eq!(
                v.check_passes_with_conjuncts(&props, &inv, check.id, core),
                Some(true),
                "core of check #{} is unsound",
                check.id
            );
        }
        // Fresh per-check solving has no assumption session to read
        // cores from.
        let fresh = v.verify_safety_reference(&props, &inv);
        assert!(fresh.outcomes.iter().all(|o| o.core.is_none()));
        assert_eq!(fresh.to_string(), report.to_string());
    }

    #[test]
    fn batch_matches_standalone_suites_byte_for_byte() {
        let (t, pol) = figure1();
        let (prop, inv) = no_transit_inputs(&t);
        let r1 = t.node_by_name("R1").unwrap();
        // Suite 2: a trivially-true bound under its own invariants.
        let always = RoutePred::local_pref(crate::pred::Cmp::Le, u32::MAX);
        let prop2 = SafetyProperty::new(Location::Node(r1), always.clone()).named("lp-bounded");
        let inv2 = NetworkInvariants::with_default(always);
        // Suite 3: fails (nothing implies lp == 7).
        let prop3 = SafetyProperty::new(
            Location::Node(r1),
            RoutePred::local_pref(crate::pred::Cmp::Eq, 7),
        )
        .named("lp-seven");
        let inv3 = NetworkInvariants::new();
        let v = Verifier::new(&t, &pol).with_ghost(from_isp1_ghost(&t));
        let suites: Vec<(&[SafetyProperty], &NetworkInvariants)> = vec![
            (std::slice::from_ref(&prop), &inv),
            (std::slice::from_ref(&prop2), &inv2),
            (std::slice::from_ref(&prop3), &inv3),
        ];
        let multi = v.verify_safety_batch(&suites);
        assert_eq!(multi.reports.len(), 3);
        assert!(!multi.all_passed());
        for ((props, sinv), got) in suites.iter().zip(&multi.reports) {
            let solo = v.verify_safety_multi(props, sinv);
            assert_eq!(solo.to_string(), got.to_string());
            assert_eq!(solo.format_failures(&t), got.format_failures(&t));
        }
        // Cross-property sharing really happened: one property per suite
        // means a standalone run has only singleton session groups, while
        // the batch solves the suites' same-relation checks as warm
        // assumption queries on shared sessions.
        assert!(multi.exec.groups > 0, "{:?}", multi.exec);
        assert!(multi.exec.assumption_solves > 0, "{:?}", multi.exec);
        // The batch shape holds in parallel mode too.
        let par = Verifier::new(&t, &pol)
            .with_ghost(from_isp1_ghost(&t))
            .with_mode(RunMode::Parallel)
            .verify_safety_batch(&suites);
        for (a, b) in multi.reports.iter().zip(&par.reports) {
            assert_eq!(a.to_string(), b.to_string());
            assert_eq!(a.format_failures(&t), b.format_failures(&t));
        }
    }

    #[test]
    fn incremental_and_fresh_agree_on_figure1() {
        let (t, pol) = figure1();
        let (prop, inv) = no_transit_inputs(&t);
        let v = Verifier::new(&t, &pol).with_ghost(from_isp1_ghost(&t));
        let fresh = v.verify_safety_reference(std::slice::from_ref(&prop), &inv);
        let inc = v.verify_safety(&prop, &inv);
        assert_eq!(fresh.to_string(), inc.to_string());
        assert_eq!(fresh.format_failures(&t), inc.format_failures(&t));
    }

    #[test]
    fn originate_check_concrete() {
        let mut t = Topology::new();
        let r = t.add_router("R", 65000);
        let x = t.add_external("X", 1);
        t.add_session(r, x);
        let rx = t.edge_between(r, x).unwrap();
        let mut pol = Policy::new();
        pol.add_origination(rx, Route::new("198.51.100.0/24".parse().unwrap()));

        // Invariant on R -> X: must carry community 9:9 (it does not).
        let prop = SafetyProperty::new(Location::Edge(rx), RoutePred::True);
        let inv = NetworkInvariants::with_default(RoutePred::True)
            .with(Location::Edge(rx), RoutePred::has_community(c("9:9")));
        let v = Verifier::new(&t, &pol);
        let report = v.verify_safety(&prop, &inv);
        let fails = report.failures();
        assert!(
            fails.iter().any(|f| f.check.kind == CheckKind::Originate),
            "{}",
            report.format_failures(&t)
        );
    }

    /// R1 -> ISP and R2 -> ISP originate the same two routes in opposite
    /// orders, and neither carries the community the edge invariant asks
    /// for. The two originate checks have one fingerprint, so their
    /// counterexamples must not depend on the order: the deduplicated
    /// pipeline and the per-check reference print the same route for both.
    #[test]
    fn originate_counterexample_ignores_origination_order() {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        let isp = t.add_external("ISP", 100);
        t.add_session(r1, isp);
        t.add_session(r2, isp);
        let mut routes = vec![
            Route::new("10.0.0.0/8".parse().unwrap()),
            Route::new("192.168.0.0/16".parse().unwrap()),
        ];
        let mut pol = Policy::new();
        for r in [r1, r2] {
            for route in &routes {
                pol.add_origination(t.edge_between(r, isp).unwrap(), route.clone());
            }
            routes.reverse();
        }
        let prop = SafetyProperty::new(Location::Node(r1), RoutePred::True);
        let inv = NetworkInvariants::with_default(RoutePred::has_community(c("100:1")));
        let v = Verifier::new(&t, &pol);
        let props = std::slice::from_ref(&prop);
        let (multi, reference) = (
            v.verify_safety_multi(props, &inv),
            v.verify_safety_reference(props, &inv),
        );
        let fps = v.check_fingerprints(props, &inv);
        let printed = |r: &Report| -> Vec<(Fingerprint, String)> {
            (r.failures().iter())
                .filter(|f| f.check.kind == CheckKind::Originate)
                .map(|f| (fps[f.check.id], format!("{:?}", f.result)))
                .collect()
        };
        let want = printed(&reference);
        assert_eq!(want.len(), 2, "{}", reference.format_failures(&t));
        assert_eq!(want[0], want[1], "one multiset, one counterexample");
        assert_eq!(printed(&multi), want);
        assert_eq!(multi.format_failures(&t), reference.format_failures(&t));
    }
}
