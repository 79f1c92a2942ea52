//! Public SMT facade: check satisfiability of a set of boolean terms and
//! extract models over the original term variables.
//!
//! Two entry points:
//!
//! * [`solve`] / [`solve_with_stats`] — one-shot: bit-blast the given
//!   assertions into a fresh CNF and decide it with a fresh SAT solver.
//! * [`IncrementalSession`] — persistent: one term pool, one blaster and
//!   one SAT instance serve a whole family of related queries. Shared
//!   assertions are encoded once ([`IncrementalSession::assert`]), each
//!   query is gated behind an activation literal
//!   ([`IncrementalSession::activation`]) and posed as an assumption
//!   solve, so learnt clauses and variable activities carry over between
//!   queries instead of being rebuilt from scratch.

use crate::bitblast::{bitblast, IncrementalBlaster};
use crate::cnf::Lit;
use crate::sat::{DbStats, SatSolver, SatStats, SolveOutcome, SolverConfig, SolverError};
use crate::term::{Sort, Term, TermId, TermPool};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A concrete value in a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Bitvector value (zero-extended to 64 bits).
    Bv(u64),
}

/// A satisfying assignment, mapping variable terms to values, with an
/// evaluator for arbitrary terms.
///
/// Variables that never reached the solver (they appear in the pool but
/// in no assertion) are tracked as **don't-care**: evaluation still
/// yields the conventional defaults (`false` / `0`) so downstream code
/// keeps working, but [`Model::is_dont_care`] lets counterexample
/// printing distinguish a *witnessed* value from an arbitrary filler.
#[derive(Clone, Debug, Default)]
pub struct Model {
    values: HashMap<TermId, Value>,
    dont_care: HashSet<TermId>,
}

impl Model {
    /// Build a model from a blaster's caches and a satisfied solver.
    /// Variables absent from the caches were never encoded: they are
    /// recorded as don't-care rather than given a fabricated concrete
    /// value.
    ///
    /// `witnessed` (when given) further restricts which variables count
    /// as witnessed: on a shared incremental session the blast caches
    /// accumulate encodings from *every* query posed so far, but the
    /// model of one query must only claim variables in that query's own
    /// formula — anything else is don't-care even though a literal for
    /// it happens to exist.
    fn from_blaster(
        pool: &TermPool,
        blaster: &IncrementalBlaster,
        sat: &SatSolver,
        witnessed: Option<&HashSet<TermId>>,
    ) -> Model {
        let lit_val = |l: Lit| -> bool {
            let v = sat.value(l.var());
            if l.is_pos() {
                v
            } else {
                !v
            }
        };
        let in_scope = |t: TermId| witnessed.is_none_or(|w| w.contains(&t));
        let mut values = HashMap::new();
        let mut dont_care = HashSet::new();
        for &t in pool.bool_vars() {
            match blaster.bool_lit(t) {
                Some(l) if in_scope(t) => {
                    values.insert(t, Value::Bool(lit_val(l)));
                }
                // Variable not in this query's formula: any value
                // satisfies it, so no value is witnessed.
                _ => {
                    dont_care.insert(t);
                }
            }
        }
        for &t in pool.bv_vars() {
            match blaster.bv_bits(t) {
                Some(bits) if in_scope(t) => {
                    let mut v = 0u64;
                    for (i, &b) in bits.iter().enumerate() {
                        if lit_val(b) {
                            v |= 1 << i;
                        }
                    }
                    values.insert(t, Value::Bv(v));
                }
                _ => {
                    dont_care.insert(t);
                }
            }
        }
        Model { values, dont_care }
    }

    /// Construct a model directly from variable assignments (for tests).
    pub fn from_values(values: HashMap<TermId, Value>) -> Model {
        Model {
            values,
            dont_care: HashSet::new(),
        }
    }

    /// True when the variable term never reached the solver, i.e. its
    /// "value" in this model is an arbitrary default, not a witness.
    pub fn is_dont_care(&self, t: TermId) -> bool {
        self.dont_care.contains(&t)
    }

    /// Value of a boolean variable (or any term, by evaluation).
    pub fn eval_bool(&self, pool: &TermPool, t: TermId) -> Option<bool> {
        match self.eval(pool, t)? {
            Value::Bool(b) => Some(b),
            Value::Bv(_) => None,
        }
    }

    /// Value of a bitvector term under this model.
    pub fn eval_bv(&self, pool: &TermPool, t: TermId) -> Option<u64> {
        match self.eval(pool, t)? {
            Value::Bv(v) => Some(v),
            Value::Bool(_) => None,
        }
    }

    /// Evaluate an arbitrary term under this model.
    pub fn eval(&self, pool: &TermPool, t: TermId) -> Option<Value> {
        if let Some(&v) = self.values.get(&t) {
            return Some(v);
        }
        let width_mask = |w: u32| -> u64 {
            if w >= 64 {
                u64::MAX
            } else {
                (1 << w) - 1
            }
        };
        let v = match *pool.term(t) {
            Term::True => Value::Bool(true),
            Term::False => Value::Bool(false),
            Term::BoolVar(_) => Value::Bool(false), // unconstrained
            Term::BvVar { .. } => Value::Bv(0),     // unconstrained
            Term::Not(a) => Value::Bool(!self.eval_bool(pool, a)?),
            Term::And(ref parts) => {
                let mut acc = true;
                for &p in parts {
                    acc &= self.eval_bool(pool, p)?;
                }
                Value::Bool(acc)
            }
            Term::Or(ref parts) => {
                let mut acc = false;
                for &p in parts {
                    acc |= self.eval_bool(pool, p)?;
                }
                Value::Bool(acc)
            }
            Term::Ite(c, a, b) => {
                if self.eval_bool(pool, c)? {
                    self.eval(pool, a)?
                } else {
                    self.eval(pool, b)?
                }
            }
            Term::BvConst { value, .. } => Value::Bv(value),
            Term::BvEq(a, b) => Value::Bool(self.eval_bv(pool, a)? == self.eval_bv(pool, b)?),
            Term::BvUlt(a, b) => Value::Bool(self.eval_bv(pool, a)? < self.eval_bv(pool, b)?),
            Term::BvUle(a, b) => Value::Bool(self.eval_bv(pool, a)? <= self.eval_bv(pool, b)?),
            Term::BvAnd(a, b) => Value::Bv(self.eval_bv(pool, a)? & self.eval_bv(pool, b)?),
            Term::BvOr(a, b) => Value::Bv(self.eval_bv(pool, a)? | self.eval_bv(pool, b)?),
            Term::BvXor(a, b) => Value::Bv(self.eval_bv(pool, a)? ^ self.eval_bv(pool, b)?),
            Term::BvNot(a) => {
                let w = pool.sort(t).width();
                Value::Bv(!self.eval_bv(pool, a)? & width_mask(w))
            }
            Term::BvAdd(a, b) => {
                let w = pool.sort(t).width();
                Value::Bv(
                    self.eval_bv(pool, a)?.wrapping_add(self.eval_bv(pool, b)?) & width_mask(w),
                )
            }
            Term::BvExtract { hi, lo, arg } => {
                let v = self.eval_bv(pool, arg)?;
                Value::Bv((v >> lo) & width_mask(hi - lo + 1))
            }
            Term::BvLshrConst { arg, amount } => {
                let v = self.eval_bv(pool, arg)?;
                Value::Bv(if amount >= 64 { 0 } else { v >> amount })
            }
        };
        Some(v)
    }
}

/// Result of an SMT query.
#[derive(Clone, Debug)]
pub enum SatResult {
    /// Satisfiable, with a model over the pool's variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// True when satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Size and effort statistics for one query (the Figure-3 metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// SAT variables after bit-blasting.
    pub num_vars: u64,
    /// CNF clauses after bit-blasting.
    pub num_clauses: u64,
    /// Time spent bit-blasting.
    pub encode_time: Duration,
    /// Time spent in the SAT solver.
    pub solve_time: Duration,
    /// SAT-level counters.
    pub sat: SatStats,
}

/// Decide the conjunction of `assertions`.
pub fn solve(pool: &TermPool, assertions: &[TermId]) -> SatResult {
    solve_with_stats(pool, assertions).0
}

/// Decide the conjunction of `assertions`, also returning statistics.
pub fn solve_with_stats(pool: &TermPool, assertions: &[TermId]) -> (SatResult, SolverStats) {
    for &a in assertions {
        debug_assert_eq!(pool.sort(a), Sort::Bool, "assertions must be boolean");
    }
    let t0 = Instant::now();
    let blasted = bitblast(pool, assertions);
    let encode_time = t0.elapsed();
    let mut stats = SolverStats {
        num_vars: blasted.num_vars() as u64,
        num_clauses: blasted.num_clauses() as u64,
        encode_time,
        ..Default::default()
    };
    let t1 = Instant::now();
    let mut sat = SatSolver::new(0);
    blasted.feed(&mut sat, 0);
    let outcome = sat.solve();
    stats.solve_time = t1.elapsed();
    stats.sat = sat.stats();
    record_solve_metrics(&stats, encode_time);
    let result = match outcome {
        SolveOutcome::Sat => SatResult::Sat(Model::from_blaster(pool, &blasted, &sat, None)),
        SolveOutcome::Unsat => SatResult::Unsat,
    };
    (result, stats)
}

/// Mirror one solve's statistics into the installed observability sink,
/// if any. The per-solve SAT counters are deltas, so registry totals
/// are exact cumulative counts across all sessions and one-shot solves.
/// `blast` is the bit-blasting share of `stats.encode_time` (the rest is
/// clause feed and inprocessing).
fn record_solve_metrics(stats: &SolverStats, blast: Duration) {
    if !obs::enabled() {
        return;
    }
    obs::add("smt.blast_ns", blast.as_nanos() as u64);
    obs::add("smt.solves", 1);
    obs::add("smt.decisions", stats.sat.decisions);
    obs::add("smt.propagations", stats.sat.propagations);
    obs::add("smt.conflicts", stats.sat.conflicts);
    obs::add("smt.restarts", stats.sat.restarts);
    obs::gauge_max("smt.learnt_db", stats.sat.learnts);
    obs::add("smt.subsumed", stats.sat.subsumed);
    obs::add("smt.strengthened", stats.sat.strengthened);
    obs::add("smt.vivified", stats.sat.vivified);
    obs::add("smt.sweeps", stats.sat.sweeps);
    obs::add("smt.encode_ns", stats.encode_time.as_nanos() as u64);
    obs::add("smt.solve_ns", stats.solve_time.as_nanos() as u64);
    obs::observe("smt.solve_time", stats.solve_time);
}

/// Per-variant portfolio win counters (`&'static` names as the metrics
/// sink requires; the variant count is capped at the same bound as
/// [`PortfolioConfig::k`]).
/// Per-variant portfolio win counters (index = variant), public so
/// profile tooling can read the attribution back out of a snapshot.
pub const PORTFOLIO_WIN_COUNTERS: [&str; 4] = [
    "smt.portfolio_win_v0",
    "smt.portfolio_win_v1",
    "smt.portfolio_win_v2",
    "smt.portfolio_win_v3",
];

/// Hard bound on portfolio width (variant 0 plus up to three jittered
/// clones) — more rarely pays for the clone cost on this workload, and it
/// keeps the win-attribution counter set static.
pub const PORTFOLIO_MAX_K: usize = 4;

/// A shared budget of *extra* solver threads available to portfolio
/// races, so portfolio parallelism composes with group-level parallelism
/// instead of oversubscribing the machine: the engine sizes one slot
/// pool for the whole run (roughly `cores - workers`), every session
/// draws from it at solve time, and a race only happens when at least
/// one extra thread is actually free right now.
pub struct PortfolioSlots {
    free: AtomicUsize,
}

impl PortfolioSlots {
    /// A pool of `extra_threads` slots (0 disables racing through this
    /// pool entirely).
    pub fn new(extra_threads: usize) -> Arc<Self> {
        Arc::new(PortfolioSlots {
            free: AtomicUsize::new(extra_threads),
        })
    }

    /// Currently free slots (informational; racy by nature).
    pub fn available(&self) -> usize {
        self.free.load(Ordering::Relaxed)
    }

    /// Take up to `want` slots, returning how many were actually granted.
    fn try_take(&self, want: usize) -> usize {
        loop {
            let cur = self.free.load(Ordering::Relaxed);
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            if self
                .free
                .compare_exchange(cur, cur - take, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return take;
            }
        }
    }

    fn release(&self, n: usize) {
        self.free.fetch_add(n, Ordering::AcqRel);
    }
}

/// Portfolio solving for an [`IncrementalSession`]: queries on sessions
/// whose encoding is large enough are raced on `k` solver clones with
/// jittered heuristics (see [`SolverConfig::jittered`]); the first
/// verdict wins and the winning clone — with everything it learnt — is
/// adopted as the session's solver, so later queries in the same session
/// benefit.
///
/// Verdicts are deterministic (every variant decides the same formula),
/// so SAT/UNSAT answers never depend on thread timing. Models and unsat
/// cores may legally differ from the sequential ones (a different but
/// equally valid witness/core); callers that require byte-identical
/// reports re-derive counterexamples on a fresh one-shot instance, which
/// is how the verification engine uses this.
#[derive(Clone)]
pub struct PortfolioConfig {
    /// Number of racing variants including the unjittered base (clamped
    /// to [`PORTFOLIO_MAX_K`]; effective width also depends on free
    /// slots).
    pub k: usize,
    /// Only race queries once the session's encoding has at least this
    /// many clauses — below that, cloning the solver costs more than the
    /// search itself.
    pub min_clauses: usize,
    /// Base seed for the per-variant heuristic jitter.
    pub seed: u64,
    /// Label for win-attribution metrics (the engine passes the check
    /// group's label; empty = no attribution span).
    pub label: String,
    /// Shared thread budget; `None` means "always race at full width"
    /// (bench/test use).
    pub slots: Option<Arc<PortfolioSlots>>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            k: 3,
            min_clauses: 50_000,
            seed: 0x1179,
            label: String::new(),
            slots: None,
        }
    }
}

/// Check validity of `formula` (i.e. unsatisfiability of its negation),
/// returning `None` when valid or a counter-model otherwise.
pub fn check_valid(pool: &mut TermPool, formula: TermId) -> Option<Model> {
    let neg = pool.not(formula);
    match solve(pool, &[neg]) {
        SatResult::Sat(m) => Some(m),
        SatResult::Unsat => None,
    }
}

/// Opaque handle to a per-query activation literal created by
/// [`IncrementalSession::activation`]. Passing it to
/// [`IncrementalSession::solve_under`] switches the gated formula on for
/// that query only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Assumption(Lit);

/// A persistent solving session: one encoding, many checks.
///
/// The session owns a [`TermPool`], an [`IncrementalBlaster`] whose
/// `TermId`-keyed structural cache persists across queries, and one
/// [`SatSolver`] that is never torn down. The intended protocol:
///
/// 1. build shared terms via [`IncrementalSession::pool_mut`] and assert
///    them once with [`IncrementalSession::assert`];
/// 2. per check, build the check-specific formula, wrap it with
///    [`IncrementalSession::activation`], and decide it with
///    [`IncrementalSession::solve_under`];
/// 3. repeat — newly-created terms are bit-blasted incrementally (only
///    the not-yet-encoded nodes are lowered), new clauses are fed to the
///    live solver, and learnt clauses from earlier checks prune the
///    search for later ones.
///
/// Soundness of reuse: an activation clause `!a ∨ f` is vacuous unless
/// `a` is assumed, assumptions never enter the clause database (they are
/// decided, not asserted), and Tseitin definitions here are full
/// bi-implications — so the clause set is one consistent theory shared by
/// every query, and anything learnt from it is valid for all of them.
pub struct IncrementalSession {
    pool: TermPool,
    blaster: IncrementalBlaster,
    sat: SatSolver,
    /// Clauses of `blaster.cnf()` already fed to `sat`.
    fed: usize,
    /// Assumption solves posed so far.
    solves: u64,
    /// Encoding time accrued since the last solve (reported in the next
    /// solve's stats so per-check stats stay meaningful).
    pending_encode: Duration,
    /// Terms asserted unconditionally (part of every query's formula).
    asserted: Vec<TermId>,
    /// Gated term behind each activation literal, so a solve can
    /// reconstruct exactly which formula the posed query consists of
    /// (assertions + the assumed activations' terms) and mark every
    /// other variable don't-care in the model.
    gated: HashMap<Lit, TermId>,
    /// Portfolio racing, when enabled (see [`PortfolioConfig`]).
    portfolio: Option<PortfolioConfig>,
    /// Variant index that answered the most recent solve (0 also when
    /// the solve ran sequentially).
    last_winner: usize,
    /// Legacy clause-feed path (owned, sorted, deduplicated `Vec` per
    /// clause) kept as the honest ablation baseline for the solver
    /// benches; see [`IncrementalSession::with_buffered_feed`].
    buffered_feed: bool,
    /// The owned clauses the buffered feed has produced, held for the
    /// session's lifetime the way the old pipeline's `Cnf` held its
    /// `Vec<Vec<Lit>>` — the live-memory footprint is part of the cost
    /// the ablation reproduces. Always empty on the default path.
    buffered: Vec<Vec<Lit>>,
}

impl Default for IncrementalSession {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalSession {
    /// An empty session.
    pub fn new() -> Self {
        IncrementalSession {
            pool: TermPool::new(),
            blaster: IncrementalBlaster::new(),
            sat: SatSolver::new(0),
            fed: 0,
            solves: 0,
            pending_encode: Duration::ZERO,
            asserted: Vec::new(),
            gated: HashMap::new(),
            portfolio: None,
            last_winner: 0,
            buffered_feed: false,
            buffered: Vec::new(),
        }
    }

    /// Back to the state of [`IncrementalSession::new`] — empty pool, no
    /// encoding, default configuration, no portfolio or caps — keeping
    /// the allocations of the pool, the blaster and the solver. A worker
    /// that runs many short-lived sessions recycles one instead of
    /// building and dropping each; every [`TermId`] and [`Assumption`]
    /// from before the reset is invalid after it.
    pub fn reset(&mut self) {
        self.pool.clear();
        self.blaster.clear();
        self.sat.reset();
        self.fed = 0;
        self.solves = 0;
        self.pending_encode = Duration::ZERO;
        self.asserted.clear();
        self.gated.clear();
        self.portfolio = None;
        self.last_winner = 0;
        self.buffered_feed = false;
        self.buffered.clear();
    }

    /// Replace the solver's heuristic/inprocessing configuration. The
    /// session consults `config.sweep` / `config.sweep_every` to decide
    /// when to run [`SatSolver::inprocess_sweep`] between queries;
    /// [`SolverConfig::plain`] therefore reproduces the pre-inprocessing
    /// behavior end to end (bench ablation, differential tests).
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.sat.set_config(config);
        self
    }

    /// Enable portfolio racing for this session's solves (see
    /// [`PortfolioConfig`]).
    pub fn with_portfolio(mut self, portfolio: PortfolioConfig) -> Self {
        self.portfolio = Some(portfolio);
        self
    }

    /// Use the legacy buffered clause feed (one owned, sorted,
    /// deduplicated `Vec` per clause instead of borrowed slices into the
    /// blaster's flat store). Strictly slower; exists so the solver
    /// benches can measure the feed-path win honestly.
    pub fn with_buffered_feed(mut self, buffered: bool) -> Self {
        self.buffered_feed = buffered;
        self
    }

    /// Lower the underlying solver's clause-arena capacity (clamped to
    /// [`crate::sat::ARENA_CAP_WORDS`]). A test hook: capacity-refusal
    /// paths ([`IncrementalSession::try_solve_under`] returning `Err`)
    /// can be forced with a tiny cap instead of a 16 GiB arena.
    pub fn with_arena_cap_words(mut self, cap: u32) -> Self {
        self.sat.set_arena_cap_words(cap);
        self
    }

    /// Lower the blaster's clause-store capacity, in literals. A test
    /// hook like [`IncrementalSession::with_arena_cap_words`]: the real
    /// cap is the `u32` range of the store's offsets.
    pub fn with_clause_lits_cap(mut self, cap: u32) -> Self {
        self.blaster.set_clause_lits_cap(cap);
        self
    }

    /// The session's term pool.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Mutable access to the term pool, for building formulas.
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// Number of assumption solves posed so far.
    pub fn num_solves(&self) -> u64 {
        self.solves
    }

    /// Assert a boolean term unconditionally (shared by every subsequent
    /// query on this session).
    pub fn assert(&mut self, t: TermId) {
        debug_assert_eq!(self.pool.sort(t), Sort::Bool, "assertions must be boolean");
        let t0 = Instant::now();
        self.blaster.assert_true(&self.pool, t);
        self.asserted.push(t);
        self.pending_encode += t0.elapsed();
    }

    /// Gate a boolean term behind a fresh activation literal: the term is
    /// bit-blasted now (cached sub-structure reused), but only constrains
    /// queries that pass the returned [`Assumption`] to
    /// [`IncrementalSession::solve_under`].
    pub fn activation(&mut self, t: TermId) -> Assumption {
        debug_assert_eq!(self.pool.sort(t), Sort::Bool, "activations must be boolean");
        let t0 = Instant::now();
        let l = self.blaster.blast_bool(&self.pool, t);
        let act = self.blaster.fresh_lit();
        self.blaster.add_clause(&[!act, l]);
        self.gated.insert(act, t);
        self.pending_encode += t0.elapsed();
        Assumption(act)
    }

    /// Decide the session's assertions plus the gated formulas of the
    /// given assumptions. Statistics cover this query: sizes are the
    /// session's cumulative encoding, SAT counters are deltas.
    ///
    /// Panics when the solver refuses a verdict (clause arena
    /// exhausted); callers that can recover — by re-posing the query on
    /// a fresh instance or failing the check typed — use
    /// [`IncrementalSession::try_solve_under`].
    pub fn solve_under(&mut self, assumptions: &[Assumption]) -> (SatResult, SolverStats) {
        self.try_solve_under(assumptions)
            .unwrap_or_else(|e| panic!("SMT session refused a verdict: {e}"))
    }

    /// [`IncrementalSession::solve_under`], surfacing solver capacity
    /// failures as a typed [`SolverError`] instead of a panic. After an
    /// `Err` the session refuses every further verdict (the error is
    /// latched on the underlying solver), so callers should rebuild.
    pub fn try_solve_under(
        &mut self,
        assumptions: &[Assumption],
    ) -> Result<(SatResult, SolverStats), SolverError> {
        let t0 = Instant::now();
        self.sync();
        if let Some(e) = self.blaster.capacity_error() {
            // A clause was dropped at blast time: the solver holds a
            // weaker formula than the one posed.
            return Err(e.clone());
        }
        let before = self.sat.stats();
        // Periodic inprocessing: every `sweep_every` queries, simplify /
        // subsume / compact / vivify the clause database (accounted as
        // encode time — it is database maintenance, not search).
        let cfg = self.sat.config();
        if cfg.sweep && self.solves > 0 && self.solves.is_multiple_of(cfg.sweep_every) {
            self.sat.inprocess_sweep();
        }
        let sync_time = t0.elapsed();
        let lits: Vec<Lit> = assumptions.iter().map(|a| a.0).collect();
        let t1 = Instant::now();
        let outcome = match self.solve_racing(&lits) {
            Ok(o) => o,
            Err(e) => {
                obs::add("smt.arena_exhausted", 1);
                return Err(e);
            }
        };
        let solve_time = t1.elapsed();
        let after = self.sat.stats();
        let stats = SolverStats {
            num_vars: self.blaster.num_vars() as u64,
            num_clauses: self.blaster.num_clauses() as u64,
            encode_time: self.pending_encode + sync_time,
            solve_time,
            sat: SatStats {
                decisions: after.decisions - before.decisions,
                propagations: after.propagations - before.propagations,
                conflicts: after.conflicts - before.conflicts,
                restarts: after.restarts - before.restarts,
                learnts: after.learnts,
                subsumed: after.subsumed - before.subsumed,
                strengthened: after.strengthened - before.strengthened,
                vivified: after.vivified - before.vivified,
                sweeps: after.sweeps - before.sweeps,
                viv_propagations: after.viv_propagations - before.viv_propagations,
            },
        };
        record_solve_metrics(&stats, self.pending_encode);
        self.pending_encode = Duration::ZERO;
        self.solves += 1;
        let result = match outcome {
            SolveOutcome::Sat => {
                // The blast maps cover every query this session has seen;
                // the model of *this* query must only witness variables in
                // its own formula (assertions + assumed activations).
                let roots: Vec<TermId> = self
                    .asserted
                    .iter()
                    .copied()
                    .chain(
                        assumptions
                            .iter()
                            .filter_map(|a| self.gated.get(&a.0).copied()),
                    )
                    .collect();
                let witnessed = reachable_terms(&self.pool, &roots);
                SatResult::Sat(Model::from_blaster(
                    &self.pool,
                    &self.blaster,
                    &self.sat,
                    Some(&witnessed),
                ))
            }
            SolveOutcome::Unsat => SatResult::Unsat,
        };
        Ok((result, stats))
    }

    /// The subset of the last solve's assumptions shown inconsistent
    /// (valid after an `Unsat`; empty when the asserted base itself is
    /// unsatisfiable).
    pub fn failed_assumptions(&self) -> Vec<Assumption> {
        self.sat
            .failed_assumptions()
            .iter()
            .map(|&l| Assumption(l))
            .collect()
    }

    /// Feed clauses and variables created since the last solve into the
    /// live SAT instance.
    fn sync(&mut self) {
        let t0 = Instant::now();
        let n0 = self.fed;
        if self.buffered_feed {
            // Legacy path: the pre-flat-store pipeline allocated every
            // clause twice — once building the blaster's Vec-of-Vecs at
            // blast time, once cloning it into the solver at feed time —
            // then sorted and deduplicated. Reproduce both allocations
            // so the ablation bench measures the flat pipeline's win
            // against what the feed actually used to cost.
            self.sat.ensure_num_vars(self.blaster.num_vars());
            while self.fed < self.blaster.num_clauses() {
                let blasted = self.blaster.clause(self.fed).to_vec();
                let mut lits = blasted.clone();
                self.buffered.push(blasted);
                lits.sort();
                lits.dedup();
                self.sat.add_clause(lits);
                self.fed += 1;
            }
        } else {
            self.fed = self.blaster.feed(&mut self.sat, self.fed);
        }
        if obs::enabled() {
            obs::add("smt.sync_ns", t0.elapsed().as_nanos() as u64);
            obs::add("smt.sync_clauses", (self.fed - n0) as u64);
        }
    }

    /// Decide the assumption query, racing jittered clones when the
    /// portfolio is enabled, the encoding is large enough, and thread
    /// slots are free; otherwise solve sequentially in place. On a race,
    /// the winning clone becomes the session's solver (learnt clauses,
    /// activities and phases included) with its configuration reset to
    /// the base, so the race leaves only *extra* derived facts behind.
    ///
    /// `Err` when the solver refused a verdict on capacity grounds
    /// (clause arena exhausted) — on a race, only when *every* variant
    /// refused, since one surviving variant still yields a sound answer.
    fn solve_racing(&mut self, lits: &[Lit]) -> Result<SolveOutcome, SolverError> {
        self.last_winner = 0;
        let sequential = |sat: &mut SatSolver, lits: &[Lit]| {
            sat.solve_under_assumptions_abortable(lits, None)
                .ok_or_else(|| latched_arena_error(sat))
        };
        let Some(pf) = self.portfolio.clone() else {
            return sequential(&mut self.sat, lits);
        };
        let width = pf.k.min(PORTFOLIO_MAX_K);
        if width < 2 || self.blaster.num_clauses() < pf.min_clauses {
            return sequential(&mut self.sat, lits);
        }
        let granted = match &pf.slots {
            Some(slots) => slots.try_take(width - 1),
            None => width - 1,
        };
        if granted == 0 {
            return sequential(&mut self.sat, lits);
        }
        let base_cfg = self.sat.config().clone();
        let mut variants: Vec<SatSolver> = Vec::with_capacity(granted + 1);
        variants.push(self.sat.clone());
        for i in 1..=granted {
            let mut s = self.sat.clone();
            // Vary the seed per solve so a query that defeats one jitter
            // set meets a different one next time.
            s.set_config(base_cfg.jittered(i, pf.seed ^ self.solves.wrapping_mul(0x9e37)));
            s.apply_jitter();
            variants.push(s);
        }
        let abort = AtomicBool::new(false);
        let winner: Mutex<Option<(usize, SolveOutcome)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for (i, solver) in variants.iter_mut().enumerate() {
                let abort = &abort;
                let winner = &winner;
                scope.spawn(move || {
                    if let Some(out) = solver.solve_under_assumptions_abortable(lits, Some(abort)) {
                        let mut w = winner.lock().unwrap();
                        if w.is_none() {
                            *w = Some((i, out));
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        if let Some(slots) = &pf.slots {
            slots.release(granted);
        }
        let Some((wi, outcome)) = winner.into_inner().unwrap() else {
            // No variant posted a result. Aborts only happen after a
            // winner posts, so every variant refused on capacity: adopt
            // the base clone so the latched error stays observable.
            let mut adopted = variants.swap_remove(0);
            adopted.set_config(base_cfg);
            let err = latched_arena_error(&adopted);
            self.sat = adopted;
            return Err(err);
        };
        let mut adopted = variants.swap_remove(wi);
        adopted.set_config(base_cfg);
        self.sat = adopted;
        self.last_winner = wi;
        if obs::enabled() {
            obs::add("smt.portfolio_races", 1);
            obs::add(PORTFOLIO_WIN_COUNTERS[wi.min(PORTFOLIO_MAX_K - 1)], 1);
            if !pf.label.is_empty() {
                // Zero-duration span: span totals key on (name, first
                // arg), giving a per-(group, variant) win count for the
                // profile attribution table.
                drop(obs::span_with(
                    "portfolio_win",
                    vec![("group", format!("{}/v{}", pf.label, wi))],
                ));
            }
        }
        Ok(outcome)
    }

    /// Which portfolio variant answered the most recent solve (0 when the
    /// solve ran sequentially or the unjittered base won).
    pub fn last_portfolio_winner(&self) -> usize {
        self.last_winner
    }

    /// Clause-arena and watcher occupancy of the underlying solver, for
    /// memory-bound assertions on long-lived sessions.
    pub fn sat_db_stats(&self) -> DbStats {
        self.sat.db_stats()
    }
}

/// The capacity error a solver latched when it refused a non-aborted
/// verdict. A refusal with no latch would be a logic bug.
fn latched_arena_error(sat: &SatSolver) -> SolverError {
    sat.arena_error()
        .cloned()
        .expect("a refused non-aborted solve implies a latched arena error")
}

/// Every term reachable from `roots` in the pool's DAG (the cone of the
/// formula they span). Used to scope a shared session's model to one
/// query's variables.
fn reachable_terms(pool: &TermPool, roots: &[TermId]) -> HashSet<TermId> {
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack: Vec<TermId> = roots.to_vec();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        match pool.term(t) {
            Term::True
            | Term::False
            | Term::BoolVar(_)
            | Term::BvVar { .. }
            | Term::BvConst { .. } => {}
            Term::Not(a) | Term::BvNot(a) => stack.push(*a),
            Term::BvExtract { arg, .. } | Term::BvLshrConst { arg, .. } => stack.push(*arg),
            Term::And(parts) | Term::Or(parts) => stack.extend(parts.iter().copied()),
            Term::Ite(c, a, b) => {
                stack.push(*c);
                stack.push(*a);
                stack.push(*b);
            }
            Term::BvEq(a, b)
            | Term::BvUlt(a, b)
            | Term::BvUle(a, b)
            | Term::BvAnd(a, b)
            | Term::BvOr(a, b)
            | Term::BvXor(a, b)
            | Term::BvAdd(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_with_model() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let lo = p.bv_const(10, 8);
        let hi = p.bv_const(20, 8);
        let c1 = p.bv_ult(lo, x);
        let c2 = p.bv_ult(x, hi);
        match solve(&p, &[c1, c2]) {
            SatResult::Sat(m) => {
                let v = m.eval_bv(&p, x).unwrap();
                assert!(v > 10 && v < 20, "model value {v} out of range");
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn unsat_range() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let lo = p.bv_const(20, 8);
        let hi = p.bv_const(10, 8);
        let c1 = p.bv_ult(lo, x);
        let c2 = p.bv_ult(x, hi);
        assert!(!solve(&p, &[c1, c2]).is_sat());
    }

    #[test]
    fn model_evaluates_composites() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let y = p.bv_var("y", 8);
        let c5 = p.bv_const(5, 8);
        let c7 = p.bv_const(7, 8);
        let a1 = p.bv_eq(x, c5);
        let a2 = p.bv_eq(y, c7);
        match solve(&p, &[a1, a2]) {
            SatResult::Sat(m) => {
                let sum = p.bv_add(x, y);
                assert_eq!(m.eval_bv(&p, sum), Some(12));
                let lt = p.bv_ult(x, y);
                assert_eq!(m.eval_bool(&p, lt), Some(true));
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn check_valid_tautology() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let na = p.not(a);
        let taut = p.or2(a, na);
        assert!(check_valid(&mut p, taut).is_none());
        // 'a' alone is not valid; counter-model sets a=false.
        let cm = check_valid(&mut p, a).expect("not valid");
        assert_eq!(cm.eval_bool(&p, a), Some(false));
    }

    #[test]
    fn unconstrained_vars_get_default_values() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        let b = p.bool_var("b");
        let x = p.bv_var("x", 8);
        match solve(&p, &[a]) {
            SatResult::Sat(m) => {
                // `a` is witnessed; `b` and `x` never reached the solver:
                // they evaluate to the defaults but are don't-care.
                assert_eq!(m.eval_bool(&p, a), Some(true));
                assert!(!m.is_dont_care(a));
                assert_eq!(m.eval_bool(&p, b), Some(false));
                assert!(m.is_dont_care(b));
                assert_eq!(m.eval_bv(&p, x), Some(0));
                assert!(m.is_dont_care(x));
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn session_arena_cap_surfaces_typed_error() {
        // A tiny synthetic cap: encoding a non-trivial bitvector
        // constraint overflows the arena during the feed, and the next
        // query must surface the typed capacity error, not a wrapped
        // offset or a panic.
        let mut sess = IncrementalSession::new().with_arena_cap_words(64);
        let x = sess.pool_mut().bv_var("x", 32);
        let y = sess.pool_mut().bv_var("y", 32);
        let sum = sess.pool_mut().bv_add(x, y);
        let c = sess.pool_mut().bv_const(12345, 32);
        let eq = sess.pool_mut().bv_eq(sum, c);
        sess.assert(eq);
        match sess.try_solve_under(&[]) {
            Err(SolverError::ArenaExhausted { cap_words, .. }) => assert_eq!(cap_words, 64),
            other => panic!("a 64-word arena cannot hold a 32-bit adder: {other:?}"),
        }
        // The refusal is sticky: later queries refuse too.
        assert!(sess.try_solve_under(&[]).is_err());
    }

    #[test]
    fn session_clause_store_cap_surfaces_typed_error() {
        // x = 5 and x = 6 is unsatisfiable, but a 16-literal store
        // drops most of its clauses at blast time. What is left is
        // satisfiable: the session must refuse, not answer Sat.
        let mut sess = IncrementalSession::new().with_clause_lits_cap(16);
        let x = sess.pool_mut().bv_var("x", 32);
        for v in [5, 6] {
            let c = sess.pool_mut().bv_const(v, 32);
            let eq = sess.pool_mut().bv_eq(x, c);
            sess.assert(eq);
        }
        match sess.try_solve_under(&[]) {
            Err(SolverError::ClauseStoreExhausted { cap_lits, .. }) => assert_eq!(cap_lits, 16),
            other => panic!("16 literals cannot hold two 32-bit equalities: {other:?}"),
        }
        // The refusal is sticky: later queries refuse too.
        assert!(sess.try_solve_under(&[]).is_err());
        // A reset session is a new session, cap included.
        sess.reset();
        let x = sess.pool_mut().bv_var("x", 32);
        let c = sess.pool_mut().bv_const(5, 32);
        let eq = sess.pool_mut().bv_eq(x, c);
        sess.assert(eq);
        assert!(sess.try_solve_under(&[]).unwrap().0.is_sat());
    }

    #[test]
    fn reset_session_replays_a_fresh_one() {
        // The same script on a new session and on one recycled from an
        // unrelated, bigger problem: verdicts, models, sizes and search
        // counters must all agree — a reset leaves nothing behind.
        fn script(sess: &mut IncrementalSession) -> Vec<(Option<u64>, u64, u64, u64, u64)> {
            let x = sess.pool_mut().bv_var("x", 8);
            let y = sess.pool_mut().bv_var("y", 8);
            let sum = sess.pool_mut().bv_add(x, y);
            let c200 = sess.pool_mut().bv_const(200, 8);
            let big = sess.pool_mut().bv_ult(c200, sum);
            sess.assert(big);
            (0..4u64)
                .map(|k| {
                    let ck = sess.pool_mut().bv_const(60 * k, 8);
                    let pin = sess.pool_mut().bv_eq(x, ck);
                    let a = sess.activation(pin);
                    let (r, st) = sess.solve_under(&[a]);
                    let witness = match r {
                        SatResult::Sat(m) => m.eval_bv(sess.pool(), y),
                        SatResult::Unsat => None,
                    };
                    let sat = st.sat;
                    (
                        witness,
                        st.num_vars,
                        st.num_clauses,
                        sat.decisions,
                        sat.conflicts,
                    )
                })
                .collect()
        }
        let expected = script(&mut IncrementalSession::new());
        let mut recycled = IncrementalSession::new();
        let p = recycled.pool_mut().bv_var("p", 32);
        let q = recycled.pool_mut().bv_var("q", 32);
        let pq = recycled.pool_mut().bv_add(p, q);
        let c = recycled.pool_mut().bv_const(12345, 32);
        let eq = recycled.pool_mut().bv_eq(pq, c);
        recycled.assert(eq);
        assert!(recycled.solve_under(&[]).0.is_sat());
        recycled.reset();
        assert_eq!((recycled.num_solves(), recycled.pool().len()), (0, 0));
        assert_eq!(script(&mut recycled), expected);
    }

    #[test]
    fn incremental_session_matches_fresh_solves() {
        // One encoding, three checks: 10 < x, x < 20 asserted; per-check
        // pin x to a value and compare against one-shot solving.
        let mut sess = IncrementalSession::new();
        let x = sess.pool_mut().bv_var("x", 8);
        let lo = sess.pool_mut().bv_const(10, 8);
        let hi = sess.pool_mut().bv_const(20, 8);
        let c1 = sess.pool_mut().bv_ult(lo, x);
        let c2 = sess.pool_mut().bv_ult(x, hi);
        sess.assert(c1);
        sess.assert(c2);
        for v in [5u64, 15, 25] {
            let cv = sess.pool_mut().bv_const(v, 8);
            let eq = sess.pool_mut().bv_eq(x, cv);
            let a = sess.activation(eq);
            let (res, stats) = sess.solve_under(&[a]);
            let expect = v > 10 && v < 20;
            assert_eq!(res.is_sat(), expect, "x = {v}");
            assert!(stats.num_vars > 0);
            if let SatResult::Sat(m) = res {
                assert_eq!(m.eval_bv(sess.pool(), x), Some(v));
            }
        }
        assert_eq!(sess.num_solves(), 3);
    }

    #[test]
    fn session_unsat_core_names_the_failing_activations() {
        let mut sess = IncrementalSession::new();
        let a = sess.pool_mut().bool_var("a");
        let b = sess.pool_mut().bool_var("b");
        let na = sess.pool_mut().not(a);
        let ga = sess.activation(a);
        let gna = sess.activation(na);
        let gb = sess.activation(b);
        let (res, _) = sess.solve_under(&[ga, gb, gna]);
        assert!(!res.is_sat());
        let core = sess.failed_assumptions();
        assert!(core.contains(&ga) && core.contains(&gna));
        assert!(!core.contains(&gb), "b is irrelevant to the conflict");
        // The same session still answers consistent queries.
        let (res2, _) = sess.solve_under(&[ga, gb]);
        assert!(res2.is_sat());
    }

    #[test]
    fn session_models_scope_to_the_posed_query() {
        // Two gated queries over disjoint variables: query 2's model must
        // not claim a witnessed value for query 1's variable even though
        // the shared session has a literal for it.
        let mut sess = IncrementalSession::new();
        let a = sess.pool_mut().bool_var("a");
        let b = sess.pool_mut().bool_var("b");
        let ga = sess.activation(a);
        let gb = sess.activation(b);
        let (r1, _) = sess.solve_under(&[ga]);
        match r1 {
            SatResult::Sat(m) => {
                assert_eq!(m.eval_bool(sess.pool(), a), Some(true));
                assert!(!m.is_dont_care(a));
                assert!(m.is_dont_care(b), "b is not part of query 1");
            }
            SatResult::Unsat => panic!("expected sat"),
        }
        let (r2, _) = sess.solve_under(&[gb]);
        match r2 {
            SatResult::Sat(m) => {
                assert_eq!(m.eval_bool(sess.pool(), b), Some(true));
                assert!(!m.is_dont_care(b));
                assert!(
                    m.is_dont_care(a),
                    "a was encoded for query 1 only; query 2 must not witness it"
                );
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn session_base_unsat_has_empty_core() {
        let mut sess = IncrementalSession::new();
        let a = sess.pool_mut().bool_var("a");
        let na = sess.pool_mut().not(a);
        sess.assert(a);
        sess.assert(na);
        let g = sess.activation(a);
        let (res, _) = sess.solve_under(&[g]);
        assert!(!res.is_sat());
        assert!(sess.failed_assumptions().is_empty());
    }

    #[test]
    fn session_grows_after_solves() {
        // Clause addition after a solve: the hallmark of incrementality.
        let mut sess = IncrementalSession::new();
        let x = sess.pool_mut().bv_var("x", 8);
        let c10 = sess.pool_mut().bv_const(10, 8);
        let lt = sess.pool_mut().bv_ult(x, c10);
        sess.assert(lt);
        let (r1, _) = sess.solve_under(&[]);
        assert!(r1.is_sat());
        // Strengthen: x > 3 (new terms blasted after the first solve).
        let c3 = sess.pool_mut().bv_const(3, 8);
        let gt = sess.pool_mut().bv_ult(c3, x);
        sess.assert(gt);
        let (r2, _) = sess.solve_under(&[]);
        match r2 {
            SatResult::Sat(m) => {
                let v = m.eval_bv(sess.pool(), x).unwrap();
                assert!(v > 3 && v < 10, "witness {v}");
            }
            SatResult::Unsat => panic!("expected sat"),
        }
        // Contradictory permanent assertion: unsat forever after.
        let c2t = sess.pool_mut().bv_const(2, 8);
        let eq2 = sess.pool_mut().bv_eq(x, c2t);
        sess.assert(eq2);
        let (r3, _) = sess.solve_under(&[]);
        assert!(!r3.is_sat());
    }

    #[test]
    fn stats_reported() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 16);
        let y = p.bv_var("y", 16);
        let c = p.bv_ult(x, y);
        let (r, stats) = solve_with_stats(&p, &[c]);
        assert!(r.is_sat());
        assert!(stats.num_vars > 16);
        assert!(stats.num_clauses > 0);
    }
}
