//! The verification engine: check generation, the one execution
//! pipeline and statistics.
//!
//! For a safety property, the engine generates the §4.2 checks:
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
//! parallel (design decision D3) and incrementally re-checkable: when a
//! node's configuration changes, only the checks touching its edges
//! re-run.
//!
//! Every run takes the same path (`Verifier::execute`), in two
//! stages. The fingerprint stage (`Verifier::partition`) partitions
//! the checks into classes of structurally identical ones on
//! small-integer class keys (see [`crate::fingerprint`]), fingerprints
//! each class once and keys it by its representative's **encoding
//! base** — the same edge's transfer function, or the pure-implication
//! shape. The solve stage (`Verifier::solve`) answers what the cache
//! already knows and solves each remaining group of classes on one
//! persistent [`smt::IncrementalSession`] (shared universe/router
//! constraints encoded once, each check an assumption-gated query
//! carrying learnt clauses forward), with groups spread over `jobs`
//! workers and outcomes streamed to a sink in check order. Re-verify
//! rounds ([`crate::reverify::ReverifyEngine`]) partition only their
//! dirty checks and enter at the solve stage. One fresh SMT
//! instance per check survives only as
//! [`Verifier::verify_safety_reference`], the oracle the tests and the
//! fuzzer compare the pipeline against; outcomes are identical either
//! way.

use crate::check::{
    Check, CheckKind, CheckOutcome, CheckResult, Counterexample, Report, ReportSummary,
};
use crate::encode::{encode_export, encode_import, Transfer};
use crate::fingerprint::{universe_digest, ClassKey, FpParts, FP_VERSION};
use crate::ghost::GhostAttr;
use crate::invariants::{Location, NetworkInvariants};
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::symbolic::{ConcreteRoute, SymRoute};
use crate::universe::Universe;
use bgp_model::policy::Policy;
use bgp_model::routemap::RouteMap;
use bgp_model::topology::{EdgeId, NodeId, Topology};
use orchestrator::{run_grouped, Executor, Fingerprint, ResultCache, RunStats, Structure};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use smt::{
    solve_with_stats, Assumption, IncrementalSession, SatResult, SolverStats, TermId, TermPool,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// A check's solver-facing outcome, detached from its descriptor so one
/// solved structure can answer every renamed instantiation.
#[derive(Clone, Debug)]
pub struct SolvedCheck {
    /// Pass, or fail with a counterexample.
    pub result: CheckResult,
    /// Solver statistics of the one real invocation.
    pub stats: SolverStats,
    /// For session-solved passes, the unsat core over the assumed
    /// invariant's conjuncts (see [`crate::check::CheckOutcome::core`]).
    /// Equal fingerprints mean equal conjunct lists, so a core replicates
    /// soundly to every dedup copy and cache hit of the structure.
    pub core: Option<Vec<usize>>,
}

impl SolvedCheck {
    /// Spill encoding for the disk cache, rendered through the shared
    /// [`api::SpilledCheck`] schema. Both passes and failures are
    /// durable; a failure carries its counterexample, which is
    /// **re-validated** against the live configuration before the cached
    /// verdict is trusted (see `Verifier::cached_result_still_valid`), so
    /// warm runs no longer re-prove every failure yet can never replay a
    /// stale one.
    pub fn spill_value(&self) -> Option<Value> {
        let doc = match &self.result {
            CheckResult::Pass => api::SpilledCheck::Pass {
                vars: self.stats.num_vars,
                clauses: self.stats.num_clauses,
                core: self.core.clone(),
            },
            CheckResult::Fail(cex) => api::SpilledCheck::Fail {
                vars: self.stats.num_vars,
                clauses: self.stats.num_clauses,
                rejected: cex.rejected,
                input: cex.input.to_value(),
                output: cex
                    .output
                    .as_ref()
                    .map(|o| o.to_value())
                    .unwrap_or(Value::Null),
            },
        };
        Some(doc.to_value())
    }

    /// Decode the [`SolvedCheck::spill_value`] form.
    pub fn from_spill(v: &Value) -> Option<Self> {
        match api::SpilledCheck::from_value(v)? {
            api::SpilledCheck::Pass {
                vars,
                clauses,
                core,
            } => Some(SolvedCheck {
                result: CheckResult::Pass,
                stats: SolverStats {
                    num_vars: vars,
                    num_clauses: clauses,
                    ..SolverStats::default()
                },
                core,
            }),
            api::SpilledCheck::Fail {
                vars,
                clauses,
                rejected,
                input,
                output,
            } => {
                let input = ConcreteRoute::from_value(&input).ok()?;
                let output = if output.is_null() {
                    None
                } else {
                    Some(ConcreteRoute::from_value(&output).ok()?)
                };
                Some(SolvedCheck {
                    result: CheckResult::Fail(Box::new(Counterexample {
                        input,
                        output,
                        rejected,
                    })),
                    stats: SolverStats {
                        num_vars: vars,
                        num_clauses: clauses,
                        ..SolverStats::default()
                    },
                    core: None,
                })
            }
        }
    }
}

/// Load a [`CheckCache`] spilled to `dir` by [`save_check_cache`].
/// Returns the cache and the number of entries loaded (zero when the
/// directory or file does not exist yet).
pub fn load_check_cache(dir: &std::path::Path) -> std::io::Result<(Arc<CheckCache>, usize)> {
    load_check_cache_bounded(dir, None)
}

/// [`load_check_cache`] with an optional LRU entry bound for long-lived
/// processes (`None`: unbounded). When the spill holds more entries than
/// the bound, the excess is evicted least-recently-loaded-first.
pub fn load_check_cache_bounded(
    dir: &std::path::Path,
    capacity: Option<usize>,
) -> std::io::Result<(Arc<CheckCache>, usize)> {
    let cache = Arc::new(match capacity {
        Some(cap) => CheckCache::bounded(cap),
        None => CheckCache::new(),
    });
    let loaded = cache.load_from_dir(dir, FP_VERSION, SolvedCheck::from_spill)?;
    Ok((cache, loaded))
}

/// Spill a [`CheckCache`] to `dir/cache.json` (passes and failures; see
/// [`SolvedCheck::spill_value`]). Returns the number of entries written.
pub fn save_check_cache(cache: &CheckCache, dir: &std::path::Path) -> std::io::Result<usize> {
    cache.save_to_dir(dir, FP_VERSION, SolvedCheck::spill_value)
}

/// Load a [`CheckCache`] keeping only **passing** entries. This is the
/// trust level a [`crate::reverify::ReverifyEngine`] extends to a spilled
/// cache on daemon restart: equal fingerprints mean bit-identical
/// formulas, so replaying a pass is sound, while a spilled failure's
/// counterexample would be replayed without the run pipeline's
/// re-validation — so failures are dropped and simply re-proved.
pub fn load_pass_cache(dir: &std::path::Path) -> std::io::Result<(Arc<CheckCache>, usize)> {
    let cache = Arc::new(CheckCache::new());
    let loaded = cache.load_from_dir(dir, FP_VERSION, |v| {
        SolvedCheck::from_spill(v).filter(|s| s.result.passed())
    })?;
    Ok((cache, loaded))
}

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
    pub total_time: std::time::Duration,
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
    pub total_time: std::time::Duration,
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

/// The negated goal of a transfer obligation: `goal = reject ∨
/// ensure(out)` for safety or `¬reject ∧ ensure(out)` for liveness
/// propagation (`require_accept`). One definition shared by one-shot
/// queries ([`Verifier::one_shot`]) and grouped session solving, so the
/// obligation shape cannot drift between them. Session solving poses the
/// `assume(input)` half as one assumption literal **per assume
/// conjunct** (so an UNSAT proof's failed assumptions localize which
/// conjuncts were load-bearing) and this negated goal behind one more.
fn transfer_goal_negation(
    pool: &mut TermPool,
    universe: &Universe,
    transfer: &Transfer,
    ensure: &RoutePred,
    require_accept: bool,
) -> TermId {
    let post = ensure.encode(pool, universe, &transfer.out);
    let goal = if require_accept {
        let not_rej = pool.not(transfer.reject);
        pool.and2(not_rej, post)
    } else {
        pool.or2(transfer.reject, post)
    };
    pool.not(goal)
}

/// The negated goal `¬ensure(r)` of an implication obligation (see
/// [`transfer_goal_negation`]).
fn implication_goal_negation(
    pool: &mut TermPool,
    universe: &Universe,
    r: &SymRoute,
    ensure: &RoutePred,
) -> TermId {
    let post = ensure.encode(pool, universe, r);
    pool.not(post)
}

/// A symbolic check's violation query on its own fresh pool (see
/// [`Verifier::one_shot`]).
struct OneShot {
    pool: TermPool,
    input: SymRoute,
    /// The edge's transfer relation; `None` for implication checks.
    transfer: Option<Transfer>,
    /// `wf(input) [∧ input = pin] ∧ assume(input) ∧ ¬goal`.
    query: Vec<TermId>,
}

impl OneShot {
    /// What the check does to the model's input, as `(rejected,
    /// output)`: the transfer's verdict, or `(false, None)` for an
    /// implication, which transforms nothing.
    fn effect(&self, universe: &Universe, model: &smt::Model) -> (bool, Option<ConcreteRoute>) {
        let Some(t) = &self.transfer else {
            return (false, None);
        };
        let rejected = model.eval_bool(&self.pool, t.reject).unwrap_or(false);
        let output = (!rejected).then(|| t.out.concretize(&self.pool, universe, model));
        (rejected, output)
    }
}

/// Decide one check's violation query on a shared session, with the
/// assumed invariant split at conjunct granularity: every conjunct of
/// `assume` and the negated goal each sit behind their own activation
/// literal, and the query is the assumption solve under all of them —
/// the same conjunction as the monolithic `pre ∧ ¬goal` query, so
/// verdicts are identical, but an UNSAT answer now comes with
/// `failed_assumptions` naming exactly which conjuncts the proof used
/// (a sound, not necessarily minimal, unsat core).
///
/// Returns `(verdict, stats, core)`; `core` is `Some` iff UNSAT.
fn solve_conjunct_gated(
    sess: &mut IncrementalSession,
    universe: &Universe,
    input: &SymRoute,
    conjuncts: &[&RoutePred],
    neg: TermId,
) -> (SatResult, SolverStats, Option<Vec<usize>>) {
    let encoded: Vec<TermId> = timed("engine.terms_ns", || {
        conjuncts
            .iter()
            .map(|cp| cp.encode(sess.pool_mut(), universe, input))
            .collect()
    });
    // Fold the whole violation query in the term pool first:
    // hash-consing simplification frequently collapses it outright — an
    // identity transfer under a uniform invariant makes `¬goal` the
    // literal complement of the assumed conjunct, folding
    // `assume ∧ ¬goal` to `False`. Such a check is decided without ever
    // bit-blasting its formula (transfer relation included), which is
    // the bulk of a WAN's internal-mesh checks; splitting it into
    // assumption literals would defeat the simplifier, so the split is
    // reserved for queries that do not collapse.
    let folded = timed("engine.terms_ns", || {
        let pool = sess.pool_mut();
        let mut all = encoded.clone();
        all.push(neg);
        let q = pool.and(&all);
        let fls = pool.fls();
        (q == fls).then_some(q)
    });
    if let Some(q) = folded {
        obs::add("engine.checks_folded", 1);
        let core = Some(syntactic_core(sess.pool(), &encoded, neg));
        let act = sess.activation(q);
        let (result, stats) = sess.solve_under(&[act]);
        debug_assert!(!result.is_sat(), "a False query cannot be satisfiable");
        return (result, stats, core);
    }
    let mut acts: Vec<Assumption> = Vec::with_capacity(conjuncts.len() + 1);
    for &t in &encoded {
        acts.push(sess.activation(t));
    }
    let nact = sess.activation(neg);
    let assumed: Vec<Assumption> = acts.iter().copied().chain(std::iter::once(nact)).collect();
    let (result, stats) = sess.solve_under(&assumed);
    let core = match &result {
        SatResult::Unsat => {
            let failed = sess.failed_assumptions();
            Some(
                acts.iter()
                    .enumerate()
                    .filter(|(_, a)| failed.contains(a))
                    .map(|(i, _)| i)
                    .collect(),
            )
        }
        SatResult::Sat(_) => None,
    };
    (result, stats, core)
}

/// The conjunct core of a query the term pool folded to `False`: the
/// simplifier got there through a `False` member or a complementary
/// pair, so blame the responsible conjunct(s) when they are identifiable
/// at the top level, and conservatively all of them otherwise (sound —
/// their conjunction with `¬goal` *is* the folded `False`).
fn syntactic_core(pool: &TermPool, encoded: &[TermId], neg: TermId) -> Vec<usize> {
    use smt::Term;
    let is_false = |t: TermId| matches!(pool.term(t), Term::False);
    let complement =
        |a: TermId, b: TermId| *pool.term(a) == Term::Not(b) || *pool.term(b) == Term::Not(a);
    if is_false(neg) {
        // The goal holds unconditionally: no conjunct is load-bearing.
        return Vec::new();
    }
    if let Some(i) = encoded.iter().position(|&t| is_false(t)) {
        return vec![i];
    }
    if let Some(i) = encoded.iter().position(|&t| complement(t, neg)) {
        return vec![i];
    }
    for i in 0..encoded.len() {
        for j in (i + 1)..encoded.len() {
            if complement(encoded[i], encoded[j]) {
                return vec![i, j];
            }
        }
    }
    (0..encoded.len()).collect()
}

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
}

/// One place a check is posed: a site of a safety suite as visited by
/// [`Verifier::for_each_site`], or of a liveness walk
/// (`Verifier::liveness_checks`). A site is all [`Verifier::describe`]
/// needs to build the check's public descriptor, so the pipeline carries
/// sites and builds a [`Check`] only for an outcome somebody keeps.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Site<'p> {
    /// `I(edge)` through the import filter implies `I(receiver)`.
    Import(EdgeId),
    /// `I(sender)` through the export filter implies `I(edge)`.
    Export(EdgeId),
    /// The routes originated onto the edge satisfy `I(edge)`.
    Originate(EdgeId),
    /// `I(ℓ) ⟹ P` for one property of the suite; `.0` on its first.
    Subsumption(bool, &'p SafetyProperty),
    /// Liveness: good routes survive the path step across the edge.
    Propagation { edge: EdgeId, is_import: bool },
    /// Liveness: site `step` of the no-interference suite at the on-path
    /// `router`.
    NoInterference { router: NodeId, step: NiStep },
    /// Liveness: the last path constraint implies the property there.
    Final(Location),
}

/// A site of an on-path router's no-interference suite, whose one
/// property sits at the router: its subsumption needs no reference.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NiStep {
    Import(EdgeId),
    Export(EdgeId),
    Originate(EdgeId),
    Subsumption,
}

impl NiStep {
    /// The step a safety walk's site is.
    pub(crate) fn of(site: Site) -> NiStep {
        match site {
            Site::Import(e) => NiStep::Import(e),
            Site::Export(e) => NiStep::Export(e),
            Site::Originate(e) => NiStep::Originate(e),
            Site::Subsumption(..) => NiStep::Subsumption,
            _ => unreachable!("a safety walk yields safety sites"),
        }
    }

    /// The safety site a transfer or originate step is; `None` for the
    /// subsumption step.
    fn site(self) -> Option<Site<'static>> {
        match self {
            NiStep::Import(e) => Some(Site::Import(e)),
            NiStep::Export(e) => Some(Site::Export(e)),
            NiStep::Originate(e) => Some(Site::Originate(e)),
            NiStep::Subsumption => None,
        }
    }
}

impl Site<'_> {
    /// The location whose invariant a safety site's check assumes;
    /// `None` for originate checks, which test concrete routes (and for
    /// liveness sites, whose checks the liveness walk builds).
    fn assumes(&self, topo: &Topology) -> Option<Location> {
        match *self {
            Site::Import(e) => Some(Location::Edge(e)),
            Site::Export(e) => Some(Location::Node(topo.edge(e).src)),
            Site::Subsumption(_, p) => Some(p.location),
            _ => None,
        }
    }

    fn kind(&self) -> CheckKind {
        match self {
            Site::Import(_) => CheckKind::Import,
            Site::Export(_) => CheckKind::Export,
            Site::Originate(_) => CheckKind::Originate,
            Site::Subsumption(..) | Site::Final(_) => CheckKind::Subsumption,
            Site::Propagation { .. } => CheckKind::Propagation,
            Site::NoInterference { step, .. } => {
                step.site().map_or(CheckKind::NoInterference, |s| s.kind())
            }
        }
    }

    /// The location the site's check pertains to.
    fn location(&self, topo: &Topology) -> Location {
        match *self {
            Site::Import(e) | Site::Export(e) | Site::Originate(e) => Location::Edge(e),
            Site::Subsumption(_, p) => p.location,
            // The path location the step arrives at.
            Site::Propagation {
                edge,
                is_import: true,
            } => Location::Node(topo.edge(edge).dst),
            Site::Propagation { edge, .. } => Location::Edge(edge),
            Site::NoInterference { router, step } => step
                .site()
                .map_or(Location::Node(router), |s| s.location(topo)),
            Site::Final(loc) => loc,
        }
    }
}

/// A fully-resolved check: its id within the run, the site that posed
/// it and the predicates its formula needs, borrowed from the invariants
/// and properties (or from predicates the caller built and holds beside
/// the checks).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedCheck<'a> {
    pub(crate) id: usize,
    pub(crate) site: Site<'a>,
    pub(crate) body: CheckBody<'a>,
}

/// A class of structurally identical checks as the solve stage takes
/// it: the class fingerprint (the cache key), the representative's
/// encoding-base group key ([`Verifier::solve_key`]), the representative
/// and every member's position.
pub(crate) type Class<'c, 's> = Structure<&'c ResolvedCheck<'s>>;

#[derive(Clone, Copy, Debug)]
pub(crate) enum CheckBody<'a> {
    /// assume(r) ∧ r' = transfer(r) ⟹ reject ∨ ensure(r')
    Transfer {
        edge: EdgeId,
        is_import: bool,
        assume: &'a RoutePred,
        ensure: &'a RoutePred,
        /// Liveness propagation: additionally require non-rejection and
        /// drop the `reject ∨ ...` escape.
        require_accept: bool,
    },
    /// Concrete: every originated route satisfies the predicate.
    Originate { edge: EdgeId, ensure: &'a RoutePred },
    /// assume(r) ⟹ ensure(r)
    Implication {
        assume: &'a RoutePred,
        ensure: &'a RoutePred,
    },
}

/// The digests of one check (see [`Verifier::batch_digests`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckDigests {
    /// The check's class key: what the run partitions on.
    pub class: ClassKey,
    /// The check's fingerprint: the cache key, one per class.
    pub check: Fingerprint,
    /// Everything but the assumed invariant; `None` for originate checks.
    pub rest: Option<Fingerprint>,
    /// The edge's transfer relation alone; `None` off transfer checks.
    pub transfer: Option<Fingerprint>,
}

/// [`Check`] descriptors built by [`Verifier::describe`] in this
/// process, for tests that pin what a run does *not* materialise.
static CHECKS_DESCRIBED: AtomicU64 = AtomicU64::new(0);

/// The number of [`Check`] descriptors built so far in this process.
#[doc(hidden)]
pub fn checks_described() -> u64 {
    CHECKS_DESCRIBED.load(Ordering::Relaxed)
}

thread_local! {
    /// The session this worker thread ran its previous group on, parked
    /// for the next one: a run poses hundreds of small groups per
    /// worker, and building then dropping a pool, a blaster and a solver
    /// for each costs more than some of them take to solve.
    static SPARE_SESSION: Cell<Option<IncrementalSession>> = const { Cell::new(None) };
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

/// What a replicated answer (a dedup copy, a cache hit, a verdict
/// carried across rounds) keeps of the one real solve's statistics: the
/// formula-size stats — the formula is identical — without the work
/// counters, so aggregate solve/encode times count each real solver
/// invocation exactly once.
pub(crate) fn size_only(st: SolverStats) -> SolverStats {
    SolverStats {
        num_vars: st.num_vars,
        num_clauses: st.num_clauses,
        ..SolverStats::default()
    }
}

/// The conjunct table a report's cores index into: each check's assume
/// side rendered for display, `None` for a concrete originate check.
/// Every distinct predicate is rendered once; they are keyed by address,
/// so each must be alive for the whole call.
pub(crate) fn conjunct_table<'p>(
    assumes: impl IntoIterator<Item = Option<&'p RoutePred>>,
) -> Vec<Option<Vec<String>>> {
    let mut rendered: HashMap<*const RoutePred, Vec<String>> = HashMap::new();
    let mut render = |p: &RoutePred| {
        let conjuncts = || p.conjuncts().iter().map(|c| c.to_string()).collect();
        rendered.entry(p).or_insert_with(conjuncts).clone()
    };
    assumes.into_iter().map(|a| a.map(&mut render)).collect()
}

/// A group session: this thread's parked one, reset (hand it back with
/// [`park_session`] when the group is done), so it behaves like a new
/// one but allocates only what the largest group so far did not.
fn group_session() -> IncrementalSession {
    let mut sess = SPARE_SESSION.take().unwrap_or_default();
    sess.reset();
    sess
}

/// A finished group's session goes back to its worker thread for the
/// next group (see [`group_session`]).
fn park_session(sess: IncrementalSession) {
    obs::gauge_max("engine.term_pool_terms", sess.pool().len() as u64);
    SPARE_SESSION.set(Some(sess));
}

impl<'a> CheckBody<'a> {
    /// The predicate the check assumes; `None` for a concrete originate
    /// check.
    pub(crate) fn assume(&self) -> Option<&'a RoutePred> {
        match *self {
            CheckBody::Transfer { assume, .. } | CheckBody::Implication { assume, .. } => {
                Some(assume)
            }
            CheckBody::Originate { .. } => None,
        }
    }

    /// The encoding-base key: checks with equal keys share everything but
    /// their assume/ensure predicates — the symbolic input route, its
    /// well-formedness constraint and (for transfers) the route-map +
    /// ghost-update transfer relation — so they are solved together on
    /// one persistent session. Never part of a fingerprint: grouping
    /// affects scheduling, not verdicts.
    pub(crate) fn group_key(&self) -> u64 {
        match self {
            CheckBody::Transfer {
                edge, is_import, ..
            } => (1 << 40) | ((edge.0 as u64) << 1) | u64::from(*is_import),
            CheckBody::Originate { edge, .. } => (2 << 40) | edge.0 as u64,
            CheckBody::Implication { .. } => 3 << 40,
        }
    }
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
        }
    }

    /// Register a ghost attribute.
    pub fn with_ghost(mut self, g: GhostAttr) -> Self {
        self.ghosts.push(g);
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

    /// The mode the worker count amounts to: sequential at one worker,
    /// parallel above.
    pub fn mode(&self) -> RunMode {
        if self.jobs == 1 {
            RunMode::Sequential
        } else {
            RunMode::Parallel
        }
    }

    /// Set the worker-thread count (at least 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attach a cross-run result cache. The cache is shared: clone the
    /// `Arc` to reuse it across verifier instances or runs.
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

    /// Names of the registered ghost attributes.
    pub fn ghost_names(&self) -> Vec<String> {
        self.ghosts.iter().map(|g| g.name.clone()).collect()
    }

    /// The registered ghost attributes (for fingerprinting).
    pub(crate) fn ghosts(&self) -> &[GhostAttr] {
        &self.ghosts
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

    // ------------------------------------------------------------------
    // Safety
    // ------------------------------------------------------------------

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
        let (checks, u) = self.resolve_multi(props, inv);
        self.run(&u, &checks)
    }

    /// Cross-property shared-encoding verification: run several
    /// `(property suite, invariants)` problems as **one** batch, so
    /// checks from different suites that share an encoding base — above
    /// all, the transfer relation of one edge — are solved on a single
    /// persistent session instead of re-encoding that edge once per
    /// suite, and every subsumption/implication check shares one
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
            reports[si].outcomes.push(self.outcome(rc, solved))
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
    /// `keep_cores` controls whether passing checks retain their
    /// load-bearing assumption cores (only the `--json` `cores`
    /// rendering reads them); failing outcomes are always kept whole.
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
            summaries[si].push_with(&solved.result, &solved.stats, solved.core.as_ref(), || {
                self.describe(rc.id, &rc.site)
            })
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

    /// The shared body of the batch entry points: resolve every suite's
    /// checks (ids stay suite-local), execute the whole batch as one run
    /// over the union universe, and hand each verdict — in ascending id
    /// order per suite — to `push(suite index, check, verdict)`.
    fn run_batch<'s>(
        &self,
        suites: &[(&'s [SafetyProperty], &'s NetworkInvariants)],
        mut push: impl FnMut(usize, &ResolvedCheck<'s>, &SolvedCheck),
    ) -> (RunStats, std::time::Duration) {
        let t0 = Instant::now();
        let mut checks: Vec<ResolvedCheck> = Vec::new();
        let mut bounds = vec![0usize];
        timed("engine.generate_ns", || {
            for (props, inv) in suites {
                self.for_each_check(props, inv, |rc| checks.push(rc));
                bounds.push(checks.len());
            }
        });
        let u = self.suites_universe(suites);
        let exec = self.execute(&u, &checks, &mut |i, solved| {
            // Suites are contiguous in the batch, so the owning suite is
            // the last bound at or below the position (empty suites
            // contribute duplicate bounds and are skipped).
            let si = bounds.partition_point(|&b| b <= i) - 1;
            push(si, &checks[i], solved);
        });
        (exec, t0.elapsed())
    }

    /// The public outcome of a check the pipeline decided.
    pub(crate) fn outcome(&self, rc: &ResolvedCheck, solved: &SolvedCheck) -> CheckOutcome {
        CheckOutcome {
            check: self.describe(rc.id, &rc.site),
            result: solved.result.clone(),
            stats: solved.stats,
            core: solved.core.clone(),
        }
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
        let (checks, u) = self.resolve_multi(props, inv);
        Report {
            outcomes: checks
                .iter()
                .map(|c| self.outcome(c, &self.run_one(&u, c)))
                .collect(),
            total_time: t0.elapsed(),
            exec: RunStats::default(),
        }
    }

    /// The assume-side conjuncts of every check in the `(props, inv)`
    /// suite, rendered for display and indexed by check id — the
    /// namespace the indices of [`crate::check::CheckOutcome::core`]
    /// point into. `None` for concrete originate checks (no symbolic
    /// assume side). Renderers that blame many checks (the `--json`
    /// `cores` output) should use this bulk form.
    ///
    /// No check is generated: the table follows the same site walk as
    /// check generation (`Verifier::for_each_site`), borrows each
    /// site's assumed invariant and renders every distinct predicate
    /// once, however many checks assume it.
    pub fn check_conjuncts_all(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> Vec<Option<Vec<String>>> {
        let (topo, mut assumes) = (self.topo, Vec::new());
        self.for_each_site(props, |site| {
            assumes.push(site.assumes(topo).map(|loc| inv.at_ref(topo, loc)))
        });
        conjunct_table(assumes)
    }

    /// The reference oracle for [`Verifier::check_conjuncts_all`]: the
    /// same table read off the generated checks' bodies, one full check
    /// generation per call, each check's assume side rendered on its own
    /// (no shared memo). Tests compare the two; nothing else should call
    /// it.
    #[doc(hidden)]
    pub fn check_conjuncts_reference(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> Vec<Option<Vec<String>>> {
        self.resolve_suite(props, inv)
            .iter()
            .map(|rc| {
                rc.body
                    .assume()
                    .map(|p| p.conjuncts().iter().map(|c| c.to_string()).collect())
            })
            .collect()
    }

    /// The structural fingerprint of every check in the `(props, inv)`
    /// suite, indexed by check id. Checks with equal fingerprints pose
    /// bit-identical formulas and are answered by one solver call — the
    /// partition behind `RunStats::unique`.
    pub fn check_fingerprints(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> Vec<Fingerprint> {
        let digests = self.batch_digests(&[(props, inv)]).remove(0);
        digests.into_iter().map(|d| d.check).collect()
    }

    /// Every digest a batch run of `suites` derives per check, per
    /// suite and indexed by check id, from one part cache over the
    /// union universe — as [`Verifier::verify_safety_batch`] would.
    /// Tests hold the three partitions against structural equality;
    /// nothing else should call it.
    #[doc(hidden)]
    pub fn batch_digests(
        &self,
        suites: &[(&[SafetyProperty], &NetworkInvariants)],
    ) -> Vec<Vec<CheckDigests>> {
        let universe_fp = universe_digest(&self.suites_universe(suites));
        let mut parts = FpParts::new(universe_fp, self.policy, &self.ghosts);
        suites
            .iter()
            .map(|(props, inv)| {
                let mut digests = Vec::new();
                self.for_each_check(props, inv, |rc| {
                    digests.push(CheckDigests {
                        class: parts.class_key(&rc.body),
                        check: parts.check(&rc.body),
                        rest: parts.rest(&rc.body),
                        transfer: match rc.body {
                            CheckBody::Transfer {
                                edge, is_import, ..
                            } => Some(parts.transfer(edge, is_import)),
                            _ => None,
                        },
                    })
                });
                digests
            })
            .collect()
    }

    /// Replay an unsat core: re-prove check `check_id` of the
    /// `(props, inv)` suite with its assumed invariant **reduced to the
    /// given conjuncts** (indices into `RoutePred::conjuncts()` of the
    /// check's assume predicate), on a fresh one-shot instance. Returns
    /// `Some(true)` when the reduced check still passes — which a sound
    /// core reported by a passing check always guarantees — `Some(false)`
    /// when it does not (the blame set was insufficient), and `None` when
    /// the check does not exist, has no symbolic assume side (concrete
    /// originate checks), or an index is out of range.
    pub fn check_passes_with_conjuncts(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
        check_id: usize,
        conjuncts: &[usize],
    ) -> Option<bool> {
        let (checks, u) = self.resolve_multi(props, inv);
        let mut rc = checks.into_iter().nth(check_id)?;
        let (CheckBody::Transfer { assume, .. } | CheckBody::Implication { assume, .. }) =
            &mut rc.body
        else {
            return None;
        };
        let all = assume.conjuncts();
        let mut kept = RoutePred::True;
        for &i in conjuncts {
            kept = kept.and((*all.get(i)?).clone());
        }
        *assume = &kept;
        Some(self.run_one(&u, &rc).result.passed())
    }

    /// Resolve a multi-property safety problem into its full check set
    /// and attribute universe (shared by [`Verifier::verify_safety_multi`]
    /// and the cross-run re-verify engine, so the two can never disagree
    /// on what a run consists of).
    pub(crate) fn resolve_multi<'s>(
        &self,
        props: &'s [SafetyProperty],
        inv: &'s NetworkInvariants,
    ) -> (Vec<ResolvedCheck<'s>>, Universe) {
        (
            self.resolve_suite(props, inv),
            self.suites_universe(&[(props, inv)]),
        )
    }

    /// Walk the check sites of a safety suite in check-id order: per
    /// edge (in edge order) its import, export and originate checks,
    /// then one subsumption check per property (the §4.3 lemma: the
    /// Import/Export/Originate checks depend only on the invariants).
    /// Check generation and the conjunct table both follow this one
    /// walk, so a site's position is its check id everywhere.
    fn for_each_site<'p>(&self, props: &'p [SafetyProperty], mut visit: impl FnMut(Site<'p>)) {
        if props.is_empty() {
            return;
        }
        for e in self.topo.edge_ids() {
            let edge = self.topo.edge(e);
            if !self.topo.node(edge.dst).external {
                visit(Site::Import(e));
            }
            if !self.topo.node(edge.src).external {
                visit(Site::Export(e));
                if !self.policy.originated(e).is_empty() {
                    visit(Site::Originate(e));
                }
            }
        }
        for (i, p) in props.iter().enumerate() {
            visit(Site::Subsumption(i == 0, p));
        }
    }

    /// The check set of one `(properties, invariants)` suite.
    fn resolve_suite<'s>(
        &self,
        props: &'s [SafetyProperty],
        inv: &'s NetworkInvariants,
    ) -> Vec<ResolvedCheck<'s>> {
        let mut checks = Vec::new();
        self.for_each_check(props, inv, |rc| checks.push(rc));
        checks
    }

    /// One check per site of [`Verifier::for_each_site`], its id the
    /// site's position. Nothing is copied: the predicates are borrowed
    /// from `inv` and `props`.
    pub(crate) fn for_each_check<'s>(
        &self,
        props: &'s [SafetyProperty],
        inv: &'s NetworkInvariants,
        mut visit: impl FnMut(ResolvedCheck<'s>),
    ) {
        let topo = self.topo;
        let mut id = 0;
        self.for_each_site(props, |site| {
            let at = |loc| inv.at_ref(topo, loc);
            let assume = site.assumes(topo).map(at);
            let body = match site {
                Site::Import(e) => CheckBody::Transfer {
                    edge: e,
                    is_import: true,
                    assume: assume.expect("imports assume the edge invariant"),
                    ensure: at(Location::Node(topo.edge(e).dst)),
                    require_accept: false,
                },
                Site::Export(e) => CheckBody::Transfer {
                    edge: e,
                    is_import: false,
                    assume: assume.expect("exports assume the sender's invariant"),
                    ensure: at(Location::Edge(e)),
                    require_accept: false,
                },
                Site::Originate(e) => CheckBody::Originate {
                    edge: e,
                    ensure: at(Location::Edge(e)),
                },
                Site::Subsumption(_, p) => CheckBody::Implication {
                    assume: assume.expect("subsumption assumes the property location's invariant"),
                    ensure: &p.pred,
                },
                Site::Propagation { .. } | Site::NoInterference { .. } | Site::Final(_) => {
                    unreachable!("safety suites have no liveness sites")
                }
            };
            visit(ResolvedCheck { id, site, body });
            id += 1;
        });
    }

    /// The public descriptor of the check posed at `site`, built when an
    /// outcome is handed to someone who keeps it.
    pub(crate) fn describe(&self, id: usize, site: &Site) -> Check {
        CHECKS_DESCRIBED.fetch_add(1, Ordering::Relaxed);
        let (edge, map, description) = self.site_text(site);
        Check {
            id,
            kind: site.kind(),
            location: site.location(self.topo),
            edge,
            map_name: map.map(|m| m.name.clone()),
            description,
        }
    }

    /// The edge, route map and description of the check posed at `site`.
    fn site_text(&self, site: &Site) -> (Option<EdgeId>, Option<&RouteMap>, String) {
        let topo = self.topo;
        match *site {
            Site::Import(e) => (
                Some(e),
                self.policy.import_map(e),
                format!("import on {} preserves the invariants", topo.edge_name(e)),
            ),
            Site::Export(e) => (
                Some(e),
                self.policy.export_map(e),
                format!("export on {} preserves the invariants", topo.edge_name(e)),
            ),
            Site::Originate(e) => (
                Some(e),
                None,
                format!(
                    "originated routes on {} satisfy the edge invariant",
                    topo.edge_name(e)
                ),
            ),
            Site::Subsumption(first, p) => (
                None,
                None,
                // The suite's first property is "the property"; the
                // ones sharing its invariants go by name.
                format!(
                    "invariant at {} implies {}",
                    p.location.display(topo),
                    match (first, p.name.as_deref()) {
                        (false, Some(name)) => name,
                        _ => "the property",
                    }
                ),
            ),
            Site::Propagation { edge, is_import } => (
                Some(edge),
                if is_import {
                    self.policy.import_map(edge)
                } else {
                    self.policy.export_map(edge)
                },
                format!(
                    "good routes propagate across {} ({})",
                    topo.edge_name(edge),
                    if is_import { "import" } else { "export" }
                ),
            ),
            Site::NoInterference { router, step } => {
                let at = &topo.node(router).name;
                let (edge, map, text) = match step.site() {
                    Some(inner) => self.site_text(&inner),
                    // What the `Subsumption` site of a one-property suite says.
                    None => (
                        None,
                        None,
                        format!("invariant at {at} implies the property"),
                    ),
                };
                (edge, map, format!("[no-interference at {at}] {text}"))
            }
            Site::Final(_) => (
                None,
                None,
                "final path constraint implies the liveness property".into(),
            ),
        }
    }

    /// The (union) attribute universe of the given suites: policy +
    /// ghosts + every suite's property predicates and invariants, suite
    /// by suite.
    fn suites_universe(&self, suites: &[(&[SafetyProperty], &NetworkInvariants)]) -> Universe {
        let mut u = self.universe(&[]);
        for (props, inv) in suites {
            for p in *props {
                p.pred.register(&mut u);
            }
            inv.register(&mut u);
        }
        u
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute pre-resolved checks and collect every outcome into a
    /// [`Report`]: a collecting sink over [`Verifier::execute`].
    pub(crate) fn run(&self, universe: &Universe, checks: &[ResolvedCheck]) -> Report {
        let t0 = Instant::now();
        let mut outcomes = Vec::with_capacity(checks.len());
        let exec = self.execute(universe, checks, &mut |i, solved| {
            outcomes.push(self.outcome(&checks[i], solved))
        });
        Report {
            outcomes,
            total_time: t0.elapsed(),
            exec,
        }
    }

    /// The one run path: the fingerprint stage partitions the checks
    /// into classes, then [`Verifier::solve`] runs them against the
    /// attached cache.
    fn execute(
        &self,
        universe: &Universe,
        checks: &[ResolvedCheck],
        sink: &mut dyn FnMut(usize, &SolvedCheck),
    ) -> RunStats {
        obs::add("engine.checks_posed", checks.len() as u64);
        let _span = obs::span!("run_checks", checks = checks.len(), jobs = self.jobs);
        let classes = timed("engine.fingerprint_ns", || {
            let mut parts = FpParts::new(universe_digest(universe), self.policy, &self.ghosts);
            self.partition(&mut parts, checks.iter().enumerate())
        });
        self.solve(universe, classes, self.cache.as_deref(), sink)
    }

    /// The fingerprint stage: partition `checks` — each with its index
    /// in the run, which [`Verifier::solve_key`] reads — into classes of
    /// structurally identical checks on their small-integer class ids
    /// ([`FpParts::class`]), first occurrence first, and fingerprint
    /// each class once. Members are positions in `checks`.
    pub(crate) fn partition<'c, 's>(
        &self,
        parts: &mut FpParts<'s>,
        checks: impl IntoIterator<Item = (usize, &'c ResolvedCheck<'s>)>,
    ) -> Vec<Class<'c, 's>> {
        // Per class id of `parts`: its index in `classes`, if seen.
        let mut seen: Vec<u32> = Vec::new();
        let mut classes: Vec<Class> = Vec::new();
        for (pos, (i, c)) in checks.into_iter().enumerate() {
            let id = parts.class(&c.body) as usize;
            if seen.len() <= id {
                seen.resize(id + 1, u32::MAX);
            }
            match seen[id] {
                u32::MAX => {
                    seen[id] = classes.len() as u32;
                    classes.push(Structure {
                        fp: parts.fingerprint(id as u32),
                        key: self.solve_key(i, c),
                        job: c,
                        members: vec![pos],
                    });
                }
                k => classes[k as usize].members.push(pos),
            }
        }
        classes
    }

    /// The encoding-base key check `i` of a run is solved under. All
    /// implication checks share one encoding base, which would otherwise
    /// serialize every subsumption check of a multi-property run onto a
    /// single worker: that one unbounded group is spread over
    /// worker-count chunks by check index — session reuse within a
    /// chunk, parallelism across chunks. Transfer groups are naturally
    /// bounded (one per edge direction) and stay whole.
    pub(crate) fn solve_key(&self, i: usize, c: &ResolvedCheck) -> u64 {
        match c.body {
            CheckBody::Implication { .. } => c.body.group_key() | (i as u64 % self.jobs as u64),
            _ => c.body.group_key(),
        }
    }

    /// The solve stage. Solve each class of [`Verifier::partition`]
    /// once (its lowest position represents it), consult `cache`
    /// (re-validating spilled failures), batch the remainder by
    /// encoding-base key, solve whole groups on the orchestrator's pool —
    /// inline on the calling thread at `jobs = 1` — and deliver every
    /// verdict to `sink(member position, verdict)` in position order
    /// without ever materialising an outcome vector: the sink borrows
    /// the verdict and copies out only what it keeps.
    ///
    /// Groups complete out of order, so verdicts pass through a reorder
    /// window: one entry per structure that is decided but not yet fully
    /// released, keyed by its lowest unreleased member, which each
    /// member's turn lends to the sink — the frontier of the streaming
    /// report; everything before `next` has already left through `sink`.
    /// Its peak size is the `engine.report_frontier_peak` gauge.
    pub(crate) fn solve(
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

    /// Re-validate a cached verdict before trusting it. Passes are
    /// trusted (equal fingerprints mean bit-identical formulas); spilled
    /// failures are checked by pinning the counterexample's input route
    /// in a fresh encoding of the check and asking the solver whether it
    /// still violates the obligation — essentially unit propagation, far
    /// cheaper than an unconstrained solve. A stale or corrupt entry is
    /// rejected and the check re-proved.
    fn cached_result_still_valid(
        &self,
        universe: &Universe,
        rc: &ResolvedCheck,
        solved: &SolvedCheck,
    ) -> bool {
        obs::add("cache.validates", 1);
        timed("cache.validate_ns", || {
            self.cached_result_still_valid_inner(universe, rc, solved)
        })
    }

    fn cached_result_still_valid_inner(
        &self,
        universe: &Universe,
        rc: &ResolvedCheck,
        solved: &SolvedCheck,
    ) -> bool {
        let CheckResult::Fail(cex) = &solved.result else {
            return true;
        };
        if let CheckBody::Originate { edge, ensure } = rc.body {
            let ghosts = self.originate_ghosts();
            return !cex.rejected
                && cex.output.is_none()
                && self
                    .policy
                    .originated(edge)
                    .iter()
                    .any(|r| *r == cex.input.route && !ensure.eval(r, &ghosts));
        }
        let q = self.one_shot(universe, &rc.body, Some(&cex.input));
        match smt::solve(&q.pool, &q.query) {
            SatResult::Unsat => false,
            // The input still violates — but the spilled *verdict
            // details* must also match what the live check does on that
            // input, or a forged entry could replay fabricated
            // output/rejection data.
            SatResult::Sat(model) => {
                let (rejected, output) = q.effect(universe, &model);
                rejected == cex.rejected && output == cex.output
            }
        }
    }

    /// The violation query of a symbolic (transfer or implication) check
    /// on its own fresh pool, optionally with the input pinned to a
    /// counterexample's: the one builder behind one-shot solves
    /// ([`Verifier::run_one`]) and cached-failure re-validation.
    fn one_shot(
        &self,
        universe: &Universe,
        body: &CheckBody,
        pin: Option<&ConcreteRoute>,
    ) -> OneShot {
        let mut pool = TermPool::new();
        let input = SymRoute::fresh(&mut pool, universe, "r");
        let mut query = vec![input.well_formed(&mut pool)];
        if let Some(cex) = pin {
            query.push(input.equals_counterexample(&mut pool, universe, cex));
        }
        // Terms are created transfer, assume, goal: the pool's order
        // fixes the CNF, and so which counterexample the solver finds.
        let transfer = match *body {
            CheckBody::Transfer {
                edge,
                is_import,
                assume,
                ensure,
                require_accept,
            } => {
                let t = self.encode_transfer(&mut pool, universe, edge, is_import, &input);
                query.push(assume.encode(&mut pool, universe, &input));
                query.push(transfer_goal_negation(
                    &mut pool,
                    universe,
                    &t,
                    ensure,
                    require_accept,
                ));
                Some(t)
            }
            CheckBody::Implication { assume, ensure } => {
                query.push(assume.encode(&mut pool, universe, &input));
                query.push(implication_goal_negation(
                    &mut pool, universe, &input, ensure,
                ));
                None
            }
            CheckBody::Originate { .. } => unreachable!("originate checks are concrete"),
        };
        OneShot {
            pool,
            input,
            transfer,
            query,
        }
    }

    /// The ghost values an originated route starts with.
    fn originate_ghosts(&self) -> BTreeMap<String, bool> {
        self.ghosts
            .iter()
            .map(|g| (g.name.clone(), g.originate_value))
            .collect()
    }

    fn encode_transfer(
        &self,
        pool: &mut TermPool,
        universe: &Universe,
        edge: EdgeId,
        is_import: bool,
        input: &SymRoute,
    ) -> Transfer {
        if is_import {
            encode_import(
                pool,
                universe,
                self.policy.import_map(edge),
                &self.ghosts,
                edge,
                input,
            )
        } else {
            encode_export(
                pool,
                universe,
                self.policy.export_map(edge),
                &self.ghosts,
                edge,
                input,
            )
        }
    }

    /// Solve one encoding-base group on a persistent assumption-based
    /// session: the symbolic route, its well-formedness constraint and
    /// (for transfer groups) the route-map transfer relation are encoded
    /// once; each check contributes only its assume/ensure predicates —
    /// one activation literal per assume **conjunct** plus one for the
    /// negated goal — and is decided by an assumption solve that reuses
    /// everything the session has learnt. A passing check reads the
    /// failed assumptions back as its conjunct-level unsat core; a
    /// failing check re-derives its counterexample on a fresh one-shot
    /// instance, so session history can never influence what a failure
    /// prints (fresh and grouped runs stay byte-identical).
    ///
    /// Cross-property note: a group may mix checks from *different*
    /// properties — the encoding base (`CheckBody::group_key`) is
    /// deliberately property-agnostic, so a multi-property batch encodes
    /// each edge's transfer relation exactly once for all of them.
    fn run_group(&self, universe: &Universe, checks: &[&ResolvedCheck]) -> Vec<SolvedCheck> {
        let first = checks.first().expect("groups are non-empty");
        // Label groups by their representative check — the encoding base
        // is per edge-direction (or the shared implication base), so the
        // first member names the group for the profile's hot-group view.
        let _span = obs::span!(
            "solve_group",
            group = format!(
                "{} {}",
                first.site.kind(),
                first.site.location(self.topo).display(self.topo)
            ),
            checks = checks.len()
        );
        // One record path for both session shapes: a passing check
        // reads its core off the session, a failing one re-derives its
        // counterexample on a fresh one-shot instance.
        let settle = |rc: &ResolvedCheck, result, stats, core| match result {
            SatResult::Unsat => SolvedCheck {
                result: CheckResult::Pass,
                stats,
                core,
            },
            SatResult::Sat(_) => self.run_one(universe, rc),
        };
        let out: Vec<SolvedCheck> = match first.body {
            CheckBody::Originate { .. } => {
                checks.iter().map(|rc| self.run_one(universe, rc)).collect()
            }
            CheckBody::Transfer {
                edge, is_import, ..
            } => {
                let mut sess = group_session();
                let (input, wf, transfer) = timed("engine.terms_ns", || {
                    let pool = sess.pool_mut();
                    let input = SymRoute::fresh(pool, universe, "r");
                    let wf = input.well_formed(pool);
                    let transfer = self.encode_transfer(pool, universe, edge, is_import, &input);
                    (input, wf, transfer)
                });
                sess.assert(wf);
                let out = checks
                    .iter()
                    .map(|rc| {
                        let CheckBody::Transfer {
                            assume,
                            ensure,
                            require_accept,
                            ..
                        } = rc.body
                        else {
                            unreachable!("transfer group mixes check shapes");
                        };
                        let conjs = assume.conjuncts();
                        let neg = timed("engine.terms_ns", || {
                            transfer_goal_negation(
                                sess.pool_mut(),
                                universe,
                                &transfer,
                                ensure,
                                require_accept,
                            )
                        });
                        let (result, stats, core) =
                            solve_conjunct_gated(&mut sess, universe, &input, &conjs, neg);
                        settle(rc, result, stats, core)
                    })
                    .collect();
                park_session(sess);
                out
            }
            CheckBody::Implication { .. } => {
                let mut sess = group_session();
                let (r, wf) = timed("engine.terms_ns", || {
                    let r = SymRoute::fresh(sess.pool_mut(), universe, "r");
                    let wf = r.well_formed(sess.pool_mut());
                    (r, wf)
                });
                sess.assert(wf);
                let out = checks
                    .iter()
                    .map(|rc| {
                        let CheckBody::Implication { assume, ensure } = rc.body else {
                            unreachable!("implication group mixes check shapes");
                        };
                        let conjs = assume.conjuncts();
                        let neg = timed("engine.terms_ns", || {
                            implication_goal_negation(sess.pool_mut(), universe, &r, ensure)
                        });
                        let (result, stats, core) =
                            solve_conjunct_gated(&mut sess, universe, &r, &conjs, neg);
                        settle(rc, result, stats, core)
                    })
                    .collect();
                park_session(sess);
                out
            }
        };
        if obs::enabled() {
            let (mut encode_ns, mut solve_ns) = (0u64, 0u64);
            for s in &out {
                encode_ns += s.stats.encode_time.as_nanos() as u64;
                solve_ns += s.stats.solve_time.as_nanos() as u64;
            }
            obs::add("engine.group_encode_ns", encode_ns);
            obs::add("engine.group_solve_ns", solve_ns);
        }
        out
    }

    /// Decide one check on its own fresh one-shot instance (no session,
    /// no core): the reference oracle's solve, and where every failing
    /// check's counterexample comes from.
    pub(crate) fn run_one(&self, universe: &Universe, rc: &ResolvedCheck) -> SolvedCheck {
        let (result, stats) = match rc.body {
            CheckBody::Originate { edge, ensure } => (
                self.run_originate_check(edge, ensure),
                SolverStats::default(),
            ),
            _ => {
                let q = self.one_shot(universe, &rc.body, None);
                let (result, stats) = solve_with_stats(&q.pool, &q.query);
                let result = match result {
                    SatResult::Unsat => CheckResult::Pass,
                    SatResult::Sat(model) => {
                        let (rejected, output) = q.effect(universe, &model);
                        CheckResult::Fail(Box::new(Counterexample {
                            input: q.input.concretize(&q.pool, universe, &model),
                            output,
                            rejected,
                        }))
                    }
                };
                (result, stats)
            }
        };
        SolvedCheck {
            result,
            stats,
            core: None,
        }
    }

    fn run_originate_check(&self, edge: EdgeId, ensure: &RoutePred) -> CheckResult {
        // Originate(A -> B) is a concrete, finite set: evaluate directly.
        let ghosts = self.originate_ghosts();
        for r in self.policy.originated(edge) {
            if !ensure.eval(r, &ghosts) {
                return CheckResult::Fail(Box::new(Counterexample {
                    input: crate::symbolic::ConcreteRoute {
                        route: r.clone(),
                        comm_other: false,
                        aspath_matches: BTreeMap::new(),
                        ghosts: ghosts.clone(),
                    },
                    output: None,
                    rejected: false,
                }));
            }
        }
        CheckResult::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghost::GhostUpdate;
    use bgp_model::routemap::{MatchCond, RouteMap, RouteMapEntry, SetAction};
    use bgp_model::{Community, Route};

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
        let v = Verifier::new(&t, &pol);
        assert_eq!((v.jobs, v.mode()), (1, RunMode::Sequential));
        let v = v.with_mode(RunMode::Sequential).with_jobs(2);
        assert_eq!((v.jobs, v.mode()), (2, RunMode::Parallel));
        let v = v.with_jobs(2).with_mode(RunMode::Sequential);
        assert_eq!((v.jobs, v.mode()), (1, RunMode::Sequential));
        let v = v.with_mode(RunMode::Parallel);
        assert_eq!(v.jobs, Executor::with_threads(None).threads());
        assert_eq!(v.with_jobs(0).jobs, 1);
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
                let sc: Vec<(usize, &[usize])> =
                    s.cores().iter().map(|&(c, k)| (c.id, k)).collect();
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
    fn failure_spill_roundtrips_with_counterexample() {
        let mut route = Route::new("10.1.2.0/24".parse().unwrap());
        route.local_pref = 120;
        route.communities.insert(c("100:1"));
        let input = crate::symbolic::ConcreteRoute {
            route: route.clone(),
            comm_other: true,
            aspath_matches: [("_65000_".to_string(), true)].into_iter().collect(),
            ghosts: [("G".to_string(), false)].into_iter().collect(),
        };
        let solved = SolvedCheck {
            result: CheckResult::Fail(Box::new(Counterexample {
                input: input.clone(),
                output: None,
                rejected: true,
            })),
            stats: SolverStats {
                num_vars: 12,
                num_clauses: 34,
                ..SolverStats::default()
            },
            core: None,
        };
        let spilled = solved.spill_value().expect("failures are durable now");
        let back = SolvedCheck::from_spill(&spilled).expect("decodes");
        let CheckResult::Fail(cex) = &back.result else {
            panic!("expected a failure");
        };
        assert_eq!(cex.input, input);
        assert_eq!(cex.output, None);
        assert!(cex.rejected);
        assert_eq!(back.stats.num_vars, 12);
        assert_eq!(back.stats.num_clauses, 34);

        // Passes keep their compact form.
        let pass = SolvedCheck {
            result: CheckResult::Pass,
            stats: SolverStats::default(),
            core: Some(vec![1, 3]),
        };
        let v = pass.spill_value().unwrap();
        let back = SolvedCheck::from_spill(&v).unwrap();
        assert!(back.result.passed());
        assert_eq!(back.core, Some(vec![1, 3]), "cores must spill and reload");
        let pass = SolvedCheck {
            result: CheckResult::Pass,
            stats: SolverStats::default(),
            core: None,
        };
        let v = pass.spill_value().unwrap();
        assert!(SolvedCheck::from_spill(&v).unwrap().result.passed());
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
        // means a standalone run has only singleton encoding-base groups,
        // while the batch solves the suites' same-edge checks as warm
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
}
