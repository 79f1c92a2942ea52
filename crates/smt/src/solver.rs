//! Public SMT facade: check satisfiability of a set of boolean terms and
//! extract models over the original term variables.
//!
//! Two entry points:
//!
//! * [`solve`] / [`solve_with_stats`] — one-shot: bit-blast the given
//!   assertions into a fresh CNF and decide it with a fresh SAT solver.
//!   The only source of [`Model`]s.
//! * [`IncrementalSession`] — persistent: one term pool, one blaster and
//!   one SAT instance serve a whole family of related queries. Shared
//!   assertions are encoded once ([`IncrementalSession::assert`]), each
//!   query is gated behind an activation literal
//!   ([`IncrementalSession::activation`]) and posed as an assumption
//!   solve, so learnt clauses and variable activities carry over between
//!   queries instead of being rebuilt from scratch. A session answers a
//!   [`SolveOutcome`] and, after `Unsat`, the failed assumptions — never
//!   a model.

use crate::bitblast::{bitblast, IncrementalBlaster};
use crate::cnf::Lit;
use crate::sat::{SatSolver, SatStats, SolveOutcome, SolverError};
use crate::term::{Sort, Term, TermId, TermPool};
use std::collections::{HashMap, HashSet};
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
    fn from_blaster(pool: &TermPool, blaster: &IncrementalBlaster, sat: &SatSolver) -> Model {
        let lit_val = |l: Lit| -> bool {
            let v = sat.value(l.var());
            if l.is_pos() {
                v
            } else {
                !v
            }
        };
        let mut values = HashMap::new();
        let mut dont_care = HashSet::new();
        for &t in pool.bool_vars() {
            match blaster.bool_lit(t) {
                Some(l) => {
                    values.insert(t, Value::Bool(lit_val(l)));
                }
                // Variable not in the formula: any value satisfies it,
                // so no value is witnessed.
                None => {
                    dont_care.insert(t);
                }
            }
        }
        for &t in pool.bv_vars() {
            match blaster.bv_bits(t) {
                Some(bits) => {
                    let mut v = 0u64;
                    for (i, &b) in bits.iter().enumerate() {
                        if lit_val(b) {
                            v |= 1 << i;
                        }
                    }
                    values.insert(t, Value::Bv(v));
                }
                None => {
                    dont_care.insert(t);
                }
            }
        }
        Model { values, dont_care }
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
            Term::And(ops) => {
                let mut acc = true;
                for &p in pool.operands(ops) {
                    acc &= self.eval_bool(pool, p)?;
                }
                Value::Bool(acc)
            }
            Term::Or(ops) => {
                let mut acc = false;
                for &p in pool.operands(ops) {
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
            Term::BvAdd(a, b) => {
                let w = pool.sort(t).width();
                Value::Bv(
                    self.eval_bv(pool, a)?.wrapping_add(self.eval_bv(pool, b)?) & width_mask(w),
                )
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
    /// Time spent bit-blasting and feeding the clauses to the solver.
    pub encode_time: Duration,
    /// Time spent in the SAT solver's search.
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
    let blast_time = t0.elapsed();
    let mut sat = SatSolver::new(0);
    let (_, feed_time) = feed(&blasted, &mut sat, 0);
    let t1 = Instant::now();
    let outcome = sat.solve();
    let stats = SolverStats {
        num_vars: blasted.num_vars() as u64,
        num_clauses: blasted.num_clauses() as u64,
        encode_time: blast_time + feed_time,
        solve_time: t1.elapsed(),
        sat: sat.stats(),
    };
    record_solve_metrics(&stats, blast_time);
    let result = match outcome {
        SolveOutcome::Sat => SatResult::Sat(Model::from_blaster(pool, &blasted, &sat)),
        SolveOutcome::Unsat => SatResult::Unsat,
    };
    (result, stats)
}

/// Feed `blaster`'s clauses from `from` on into `sat`, booking the time
/// and the clauses fed as the clause feed (`smt.sync_*`). Returns the new
/// watermark and the time taken. Sessions and one-shot solves both feed
/// through here, so for every solve `smt.encode_ns` is exactly
/// `smt.blast_ns` plus `smt.sync_ns`.
fn feed(blaster: &IncrementalBlaster, sat: &mut SatSolver, from: usize) -> (usize, Duration) {
    let t0 = Instant::now();
    let fed = blaster.feed(sat, from);
    let took = t0.elapsed();
    if obs::enabled() {
        obs::add("smt.sync_ns", took.as_nanos() as u64);
        obs::add("smt.sync_clauses", (fed - from) as u64);
    }
    (fed, took)
}

/// Mirror one solve's statistics into the installed observability sink,
/// if any. The per-solve SAT counters are deltas, so registry totals
/// are exact cumulative counts across all sessions and one-shot solves.
/// `blast` is the bit-blasting share of `stats.encode_time` (the rest is
/// clause feed).
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
    obs::add("smt.encode_ns", stats.encode_time.as_nanos() as u64);
    obs::add("smt.solve_ns", stats.solve_time.as_nanos() as u64);
    obs::observe("smt.solve_time", stats.solve_time);
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
/// `a` is assumed, and assumptions never enter the clause database (they
/// are decided, not asserted). Every asserted or gated formula is used
/// in positive position only, so the session blasts it with
/// [`IncrementalBlaster::blast_implied`]: an AND or OR gate gets only the
/// half of its Tseitin definition its uses need, and the other half when
/// a later formula uses it the other way. That keeps the two facts a
/// verdict rests on. Any model of the formulas extends to the gates (give
/// each gate its function's value), so a satisfiable query is never
/// answered `Unsat`. Any model of the clauses, restricted to the input
/// variables, satisfies every formula it activates, so an `Unsat` answer
/// and its core are sound. The clause set is one theory shared by every
/// query, only ever extended, and anything learnt from it stays valid
/// for all of them. One-shot solves ([`solve`]) keep full definitions:
/// every witness comes from one, and the witness a search finds depends
/// on the clauses it searches, so one-sided gates there would change
/// which counterexample a failure reports.
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
    /// Scratch: the literals of the assumptions posed.
    assumed: Vec<Lit>,
    /// The failed assumptions of the last `Unsat` solve.
    failed: Vec<Assumption>,
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
            assumed: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Back to the state of [`IncrementalSession::new`] — empty pool, no
    /// encoding, no caps — keeping
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
        self.failed.clear();
    }

    /// Lower the underlying solver's clause-arena capacity (clamped to
    /// [`crate::sat::ARENA_CAP_WORDS`]). A test hook: capacity-refusal
    /// paths ([`IncrementalSession::try_solve_under`] returning `Err`)
    /// can be forced with a tiny cap instead of a formula that fills the
    /// arena or learns past a query's ceiling.
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
        let l = self.blaster.blast_implied(&self.pool, t);
        self.blaster.add_clause(&[l]);
        self.pending_encode += t0.elapsed();
    }

    /// Gate a boolean term behind a fresh activation literal: the term is
    /// bit-blasted now (cached sub-structure reused), but only constrains
    /// queries that pass the returned [`Assumption`] to
    /// [`IncrementalSession::solve_under`].
    pub fn activation(&mut self, t: TermId) -> Assumption {
        debug_assert_eq!(self.pool.sort(t), Sort::Bool, "activations must be boolean");
        let t0 = Instant::now();
        let l = self.blaster.blast_implied(&self.pool, t);
        let act = self.blaster.fresh_lit();
        self.blaster.add_clause(&[!act, l]);
        self.pending_encode += t0.elapsed();
        Assumption(act)
    }

    /// Decide the session's assertions plus the gated formulas of the
    /// given assumptions. Statistics cover this query: sizes are the
    /// session's cumulative encoding, SAT counters are deltas. A session
    /// answers a verdict, and after `Unsat` its core
    /// ([`IncrementalSession::failed_assumptions`]); it never answers a
    /// model — a witness is posed on a one-shot instance ([`solve`]), so
    /// no session history can shape it.
    ///
    /// Panics when the solver refuses a verdict (clause arena
    /// exhausted); callers that can recover — by re-posing the query on
    /// a fresh instance or failing the check typed — use
    /// [`IncrementalSession::try_solve_under`].
    pub fn solve_under(&mut self, assumptions: &[Assumption]) -> (SolveOutcome, SolverStats) {
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
    ) -> Result<(SolveOutcome, SolverStats), SolverError> {
        // Feed clauses and variables created since the last solve into
        // the live SAT instance.
        let (fed, sync_time) = feed(&self.blaster, &mut self.sat, self.fed);
        self.fed = fed;
        if let Some(e) = self.blaster.capacity_error() {
            // A clause was dropped at blast time: the solver holds a
            // weaker formula than the one posed.
            return Err(e.clone());
        }
        let before = self.sat.stats();
        self.assumed.clear();
        self.assumed.extend(assumptions.iter().map(|a| a.0));
        self.failed.clear();
        let t1 = Instant::now();
        let outcome = self.sat.try_solve_under_assumptions(&self.assumed)?;
        let solve_time = t1.elapsed();
        if outcome == SolveOutcome::Unsat {
            let failed = self.sat.failed_assumptions().iter();
            self.failed.extend(failed.map(|&l| Assumption(l)));
        }
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
            },
        };
        record_solve_metrics(&stats, self.pending_encode);
        self.pending_encode = Duration::ZERO;
        self.solves += 1;
        Ok((outcome, stats))
    }

    /// The subset of the last solve's assumptions shown inconsistent
    /// (valid after an `Unsat`; empty when the asserted base itself is
    /// unsatisfiable).
    pub fn failed_assumptions(&self) -> &[Assumption] {
        &self.failed
    }
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
        assert_eq!(sess.try_solve_under(&[]).unwrap().0, SolveOutcome::Sat);
    }

    #[test]
    fn reset_session_replays_a_fresh_one() {
        // The same script on a new session and on one recycled from an
        // unrelated, bigger problem: verdicts, sizes and search counters
        // must all agree — a reset leaves nothing behind.
        fn script(sess: &mut IncrementalSession) -> Vec<(SolveOutcome, u64, u64, u64, u64)> {
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
                    let sat = st.sat;
                    (r, st.num_vars, st.num_clauses, sat.decisions, sat.conflicts)
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
        assert_eq!(recycled.solve_under(&[]).0, SolveOutcome::Sat);
        recycled.reset();
        assert_eq!((recycled.num_solves(), recycled.pool().len()), (0, 0));
        assert_eq!(script(&mut recycled), expected);
    }

    #[test]
    fn incremental_session_matches_fresh_solves() {
        // One encoding, three checks: 10 < x, x < 20 asserted; per-check
        // pin x to a value and compare against one-shot solving, which
        // supplies the witness.
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
            assert_eq!(res == SolveOutcome::Sat, expect, "x = {v}");
            assert!(stats.num_vars > 0);
            match solve(sess.pool(), &[c1, c2, eq]) {
                SatResult::Sat(m) => assert_eq!(m.eval_bv(sess.pool(), x), Some(v)),
                SatResult::Unsat => assert!(!expect, "x = {v}"),
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
        assert_eq!(res, SolveOutcome::Unsat);
        let core = sess.failed_assumptions();
        assert!(core.contains(&ga) && core.contains(&gna));
        assert!(!core.contains(&gb), "b is irrelevant to the conflict");
        // The same session still answers consistent queries.
        let (res2, _) = sess.solve_under(&[ga, gb]);
        assert_eq!(res2, SolveOutcome::Sat);
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
        assert_eq!(res, SolveOutcome::Unsat);
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
        assert_eq!(r1, SolveOutcome::Sat);
        // Strengthen: x > 3 (new terms blasted after the first solve).
        let c3 = sess.pool_mut().bv_const(3, 8);
        let gt = sess.pool_mut().bv_ult(c3, x);
        sess.assert(gt);
        let (r2, _) = sess.solve_under(&[]);
        assert_eq!(r2, SolveOutcome::Sat);
        // The witness comes from a one-shot instance of the same formula.
        match solve(sess.pool(), &[lt, gt]) {
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
        assert_eq!(r3, SolveOutcome::Unsat);
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
