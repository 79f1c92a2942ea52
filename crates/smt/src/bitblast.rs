//! Tseitin bit-blasting: lowers a term DAG into CNF.
//!
//! Boolean terms map to single SAT literals; bitvector terms map to runs
//! of literals (least-significant bit first). Composite nodes get a
//! definitional encoding, memoized over the hash-consed [`TermId`] so
//! shared sub-formulas are encoded once.
//!
//! **Constant-aware gates.** A constant is the one "true" literal or its
//! complement, and every gate constructor (`and2`,
//! `xnor`, `mux`, the n-ary AND) folds on literal identity before it
//! allocates anything: a true, false, repeated or complementary input
//! returns an existing literal — no variable, no clause — or a smaller
//! gate. BGP formulas are mostly symbolic-against-constant (a prefix
//! range is `addr & mask == pattern`, a bounded length is `len <= 32`, a
//! `set` action muxes an attribute with a constant), so the CNF pays only
//! for what is symbolic: a /24 range match is one 24-input AND, not 32
//! AND gates under 32 XNOR gates under a 32-input AND. The comparator,
//! the adder and the bitwise lowerings are built from the same three
//! gates and inherit the folding.
//!
//! The workhorse is [`IncrementalBlaster`], which keeps its structural
//! cache (`TermId -> Lit`) *across* calls: terms added to the pool after a
//! first blast are lowered on demand while everything already encoded is
//! reused, which is what makes one persistent SAT instance able to serve a
//! whole group of related checks (see `solver::IncrementalSession`). The
//! cache is sound because [`crate::term::TermPool`] is append-only and
//! hash-consed: a `TermId` never changes meaning. The one-shot
//! [`bitblast`] entry point is a thin wrapper.
//!
//! Storage is flat, and blasting allocates nothing per node: clauses live
//! in one contiguous literal buffer with an offset table (the session
//! streams them into the solver as borrowed slices), bitvector bits live
//! in one literal buffer addressed by `(offset, width)`, n-ary gate
//! inputs are staged on a reusable stack, and the structural caches are
//! dense `TermId`-indexed vectors rather than hash maps. [`IncrementalBlaster::clear`] empties all of it
//! but keeps the capacity, so one blaster can serve group after group.
//!
//! **Trusted attach.** No stored clause repeats a variable: the gates
//! fold repeated and complementary inputs before they emit a clause, and
//! the public [`IncrementalBlaster::add_clause`] normalises what it is
//! given. So [`IncrementalBlaster::feed`] hands each clause to the solver
//! as it is stored — attached straight from the slice unless a literal
//! is already assigned at the root — and skips the duplicate /
//! tautology scan that [`SatSolver::add_clause_slice`] runs on arbitrary
//! input. The solver ends up in the state that scan would have left, so
//! the search is unchanged (`tests/proptests.rs` holds the two feeds in
//! agreement).

use crate::cnf::{Cnf, Lit, Var};
use crate::sat::{SatSolver, SolverError};
use crate::term::{Term, TermId, TermPool};

/// Sentinel for "term not blasted yet" in the dense boolean cache.
const NO_LIT: u32 = u32::MAX;

/// Bit-blast `assertions` (all boolean sorted) over `pool`, asserting each
/// one true. Returns the loaded blaster; build a solver from it with
/// [`IncrementalBlaster::feed`] and read models through its cache
/// accessors.
pub fn bitblast(pool: &TermPool, assertions: &[TermId]) -> IncrementalBlaster {
    let mut b = IncrementalBlaster::new();
    for &a in assertions {
        b.assert_true(pool, a);
    }
    b
}

/// A run of bit literals in the flat bit store.
#[derive(Clone, Copy, Default)]
struct Bits {
    start: usize,
    width: usize,
}

/// A bit-blaster whose definitional encodings persist across calls.
///
/// Unlike the one-shot [`bitblast`], the blaster does not borrow the pool:
/// each call takes the pool by reference, so callers may interleave term
/// construction and blasting on the same growing pool.
#[derive(Clone)]
pub struct IncrementalBlaster {
    /// All clause literals, concatenated.
    clause_lits: Vec<Lit>,
    /// End offset of each clause in `clause_lits` (start = previous end).
    clause_ends: Vec<u32>,
    /// Ceiling on `clause_lits.len()`: `u32::MAX` (what `clause_ends` can
    /// address) unless a test lowers it.
    clause_lits_cap: u32,
    /// Latched when a clause did not fit under the cap; see
    /// [`IncrementalBlaster::capacity_error`].
    capacity_error: Option<SolverError>,
    num_vars: u32,
    /// Literal for each blasted boolean term, indexed by `TermId` (raw
    /// literal; `NO_LIT` = not blasted).
    bool_map: Vec<u32>,
    /// Bit literals (LSB first) of every blasted bitvector term.
    bits: Vec<Lit>,
    /// Where each blasted bitvector term's bits sit in `bits`, indexed by
    /// `TermId` (width 0 = not blasted; every real bitvector has width at
    /// least one).
    bv_map: Vec<Bits>,
    true_lit: Option<Lit>,
    /// Staging stack for n-ary gate inputs: a gate's inputs are the
    /// entries above the length it found, so nested blasts share it.
    gate_inputs: Vec<Lit>,
    /// Per-literal mark of the last n-ary gate that took it as an input
    /// (duplicate / complement detection without sorting).
    seen: Vec<u32>,
    stamp: u32,
}

impl Default for IncrementalBlaster {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalBlaster {
    /// An empty blaster.
    pub fn new() -> Self {
        IncrementalBlaster {
            clause_lits: Vec::new(),
            clause_ends: Vec::new(),
            clause_lits_cap: u32::MAX,
            capacity_error: None,
            num_vars: 0,
            bool_map: Vec::new(),
            bits: Vec::new(),
            bv_map: Vec::new(),
            true_lit: None,
            gate_inputs: Vec::new(),
            seen: Vec::new(),
            stamp: 0,
        }
    }

    /// Back to the state of [`IncrementalBlaster::new`], keeping every
    /// buffer's capacity.
    pub fn clear(&mut self) {
        self.clause_lits.clear();
        self.clause_ends.clear();
        self.clause_lits_cap = u32::MAX;
        self.capacity_error = None;
        self.num_vars = 0;
        self.bool_map.clear();
        self.bits.clear();
        self.bv_map.clear();
        self.true_lit = None;
        self.gate_inputs.clear();
        self.seen.clear();
        self.stamp = 0;
    }

    /// Lower the clause store's literal capacity (a test hook, like
    /// [`SatSolver::set_arena_cap_words`]).
    pub fn set_clause_lits_cap(&mut self, cap: u32) {
        self.clause_lits_cap = cap;
    }

    /// The latched capacity failure, if a clause ever failed to fit in
    /// the flat store. That clause was dropped, so the accumulated CNF is
    /// weaker than the formula: nothing may be concluded from it.
    pub fn capacity_error(&self) -> Option<&SolverError> {
        self.capacity_error.as_ref()
    }

    /// Number of SAT variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses accumulated so far (clauses are only appended).
    pub fn num_clauses(&self) -> usize {
        self.clause_ends.len()
    }

    /// The `i`-th clause, as a borrowed slice into the flat buffer.
    pub fn clause(&self, i: usize) -> &[Lit] {
        let end = self.clause_ends[i] as usize;
        let start = if i == 0 {
            0
        } else {
            self.clause_ends[i - 1] as usize
        };
        &self.clause_lits[start..end]
    }

    /// Feed clauses `[from, num_clauses)` into `sat`, growing its
    /// variable tables and reserving its arena first. Returns the new fed
    /// watermark. This is the one way blasted clauses reach a solver —
    /// the incremental session's sync and every one-shot solve (a `from`
    /// of 0 fills a fresh solver). No stored clause repeats a variable,
    /// so each is attached straight from its borrowed slice, with no
    /// normalising pass (see [`IncrementalBlaster::add_clause`]).
    pub fn feed(&self, sat: &mut SatSolver, from: usize) -> usize {
        sat.ensure_num_vars(self.num_vars);
        let mut start = match from {
            0 => 0,
            _ => self.clause_ends[from - 1] as usize,
        };
        let ends = &self.clause_ends[from..];
        sat.reserve_clauses(ends.len(), self.clause_lits.len() - start);
        for &end in ends {
            sat.add_normal_clause(&self.clause_lits[start..end as usize]);
            start = end as usize;
        }
        self.num_clauses()
    }

    /// The accumulated formula as a classic [`Cnf`] (owned clause vectors;
    /// test/debug convenience, not a hot path).
    pub fn to_cnf(&self) -> Cnf {
        let mut cnf = Cnf::new();
        for _ in 0..self.num_vars {
            cnf.fresh_var();
        }
        for i in 0..self.num_clauses() {
            cnf.add_clause(self.clause(i).to_vec());
        }
        cnf
    }

    /// Literal of an already-blasted boolean term, if any.
    pub fn bool_lit(&self, t: TermId) -> Option<Lit> {
        match self.bool_map.get(t.0 as usize) {
            Some(&raw) if raw != NO_LIT => Some(Lit(raw)),
            _ => None,
        }
    }

    /// Bit literals of an already-blasted bitvector term, if any.
    pub fn bv_bits(&self, t: TermId) -> Option<&[Lit]> {
        match self.bv_map.get(t.0 as usize) {
            Some(r) if r.width > 0 => Some(&self.bits[r.start..r.start + r.width]),
            _ => None,
        }
    }

    /// Blast `t` and assert it true at the top level.
    pub fn assert_true(&mut self, pool: &TermPool, t: TermId) {
        let l = self.blast_bool(pool, t);
        self.push_clause(&[l]);
    }

    /// A fresh literal with no attached meaning — the activation-literal
    /// primitive: gate a formula `f` per query via `clause(!a, blast(f))`
    /// and assume `a` only in the queries that want `f`.
    pub fn fresh_lit(&mut self) -> Lit {
        self.fresh()
    }

    /// Append a clause over already-created literals, normalised on the
    /// way in: a repeated literal is kept once and a clause holding a
    /// literal and its complement is a tautology, stored not at all. The
    /// gates' own clauses need none of this (they fold repeated,
    /// complementary and constant inputs before they emit anything), so
    /// after it no stored clause repeats a variable — what lets
    /// [`IncrementalBlaster::feed`] attach clauses unexamined.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let start = self.clause_lits.len();
        for &l in lits {
            let kept = &self.clause_lits[start..];
            if kept.contains(&!l) {
                self.clause_lits.truncate(start);
                return;
            }
            if !kept.contains(&l) {
                self.clause_lits.push(l);
            }
        }
        self.end_clause();
    }

    /// Append a clause to the flat store.
    fn push_clause(&mut self, lits: &[Lit]) {
        self.clause_lits.extend_from_slice(lits);
        self.end_clause();
    }

    /// Close the clause whose literals were just appended to
    /// `clause_lits`. Its end offset is stored as a `u32`; a clause that
    /// would end past the cap is dropped whole and the failure latched,
    /// never stored under a wrapped offset.
    fn end_clause(&mut self) {
        let start = self.clause_ends.last().map_or(0, |&e| e as usize);
        let end = self.clause_lits.len();
        debug_assert!(
            self.clause_lits[start..]
                .iter()
                .all(|l| l.var().0 < self.num_vars),
            "clause references unallocated variable"
        );
        match u32::try_from(end) {
            Ok(e) if e <= self.clause_lits_cap => self.clause_ends.push(e),
            _ => {
                self.clause_lits.truncate(start);
                self.capacity_error
                    .get_or_insert(SolverError::ClauseStoreExhausted {
                        requested_lits: end as u64,
                        cap_lits: self.clause_lits_cap,
                    });
            }
        }
    }

    /// A literal constrained to be true (allocated lazily).
    fn tru(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = self.fresh();
        self.push_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn fls(&mut self) -> Lit {
        !self.tru()
    }

    fn is_true(&self, l: Lit) -> bool {
        self.true_lit == Some(l)
    }

    fn is_false(&self, l: Lit) -> bool {
        self.true_lit == Some(!l)
    }

    fn fresh(&mut self) -> Lit {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v.pos()
    }

    fn cache_bool(&mut self, t: TermId, l: Lit) {
        let i = t.0 as usize;
        if i >= self.bool_map.len() {
            self.bool_map.resize(i + 1, NO_LIT);
        }
        self.bool_map[i] = l.0;
    }

    /// Record the bits appended to the store since `start` as term `t`'s.
    fn cache_bv_from(&mut self, t: TermId, start: usize) -> Bits {
        let run = Bits {
            start,
            width: self.bits.len() - start,
        };
        self.cache_bv(t, run);
        run
    }

    fn cache_bv(&mut self, t: TermId, run: Bits) {
        debug_assert!(run.width > 0);
        let i = t.0 as usize;
        if i >= self.bv_map.len() {
            self.bv_map.resize(i + 1, Bits::default());
        }
        self.bv_map[i] = run;
    }

    /// Blast a boolean-sorted term to a single literal.
    pub fn blast_bool(&mut self, pool: &TermPool, t: TermId) -> Lit {
        if let Some(l) = self.bool_lit(t) {
            return l;
        }
        let lit = match pool.term(t) {
            Term::True => self.tru(),
            Term::False => self.fls(),
            Term::BoolVar(_) => self.fresh(),
            Term::Not(a) => !self.blast_bool(pool, *a),
            Term::And(parts) => {
                let base = self.gate_inputs.len();
                for &p in parts {
                    let l = self.blast_bool(pool, p);
                    self.gate_inputs.push(l);
                }
                self.and_staged(base)
            }
            Term::Or(parts) => {
                let base = self.gate_inputs.len();
                for &p in parts {
                    let l = self.blast_bool(pool, p);
                    self.gate_inputs.push(!l);
                }
                !self.and_staged(base)
            }
            Term::Ite(c, a, b) => {
                // Boolean ite is normally rewritten away by the pool, but
                // handle it defensively.
                let lc = self.blast_bool(pool, *c);
                let la = self.blast_bool(pool, *a);
                let lb = self.blast_bool(pool, *b);
                self.mux(lc, la, lb)
            }
            Term::BvEq(a, b) => {
                let xa = self.blast_bv(pool, *a);
                let xb = self.blast_bv(pool, *b);
                let base = self.gate_inputs.len();
                for i in 0..xa.width {
                    let eq = self.xnor(self.bits[xa.start + i], self.bits[xb.start + i]);
                    self.gate_inputs.push(eq);
                }
                self.and_staged(base)
            }
            Term::BvUlt(a, b) => {
                let xa = self.blast_bv(pool, *a);
                let xb = self.blast_bv(pool, *b);
                self.ult(xa, xb)
            }
            Term::BvUle(a, b) => {
                let xa = self.blast_bv(pool, *a);
                let xb = self.blast_bv(pool, *b);
                !self.ult(xb, xa)
            }
            other => panic!("blast_bool on non-boolean term {other:?}"),
        };
        self.cache_bool(t, lit);
        lit
    }

    /// Blast a bitvector-sorted term to a run of literals (LSB first) in
    /// the flat bit store. Operand runs are complete before the result's
    /// first bit is appended, so a result is always contiguous.
    fn blast_bv(&mut self, pool: &TermPool, t: TermId) -> Bits {
        if let Some(&run) = self.bv_map.get(t.0 as usize) {
            if run.width > 0 {
                return run;
            }
        }
        match pool.term(t) {
            Term::BvConst { width, value } => {
                let tru = self.tru();
                let start = self.bits.len();
                self.bits
                    .extend((0..*width).map(|i| match (value >> i) & 1 {
                        1 => tru,
                        _ => !tru,
                    }));
                self.cache_bv_from(t, start)
            }
            Term::BvVar { width, .. } => {
                let start = self.bits.len();
                for _ in 0..*width {
                    let l = self.fresh();
                    self.bits.push(l);
                }
                self.cache_bv_from(t, start)
            }
            Term::BvAnd(a, b) => self.bitwise(pool, t, *a, *b, Self::and2),
            Term::BvAdd(a, b) => {
                let (xa, xb) = (self.blast_bv(pool, *a), self.blast_bv(pool, *b));
                let start = self.bits.len();
                self.adder(xa, xb);
                self.cache_bv_from(t, start)
            }
            Term::Ite(c, a, b) => {
                let lc = self.blast_bool(pool, *c);
                self.bitwise(pool, t, *a, *b, |s, p, q| s.mux(lc, p, q))
            }
            other => panic!("blast_bv on non-bitvector term {other:?}"),
        }
    }

    /// Blast `a` and `b`, then lower `t` bit by bit through `gate`.
    fn bitwise(
        &mut self,
        pool: &TermPool,
        t: TermId,
        a: TermId,
        b: TermId,
        mut gate: impl FnMut(&mut Self, Lit, Lit) -> Lit,
    ) -> Bits {
        let (xa, xb) = (self.blast_bv(pool, a), self.blast_bv(pool, b));
        let start = self.bits.len();
        for i in 0..xa.width {
            let (p, q) = (self.bits[xa.start + i], self.bits[xb.start + i]);
            let l = gate(self, p, q);
            self.bits.push(l);
        }
        self.cache_bv_from(t, start)
    }

    /// AND gate over the inputs staged on `gate_inputs` above `base`
    /// (popped on return): `out <-> /\ inputs`. True and repeated inputs
    /// drop out; a false input or a complementary pair makes it false;
    /// what is left gets a variable only if it is two or more literals.
    fn and_staged(&mut self, base: usize) -> Lit {
        if self.seen.len() < 2 * self.num_vars as usize {
            self.seen.resize(2 * self.num_vars as usize, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let mut kept = base;
        for i in base..self.gate_inputs.len() {
            let l = self.gate_inputs[i];
            if self.is_true(l) || self.seen[l.index()] == self.stamp {
                continue;
            }
            if self.is_false(l) || self.seen[(!l).index()] == self.stamp {
                self.gate_inputs.truncate(base);
                return self.fls();
            }
            self.seen[l.index()] = self.stamp;
            self.gate_inputs[kept] = l;
            kept += 1;
        }
        let out = match kept - base {
            0 => self.tru(),
            1 => self.gate_inputs[base],
            _ => {
                let out = self.fresh();
                // out -> each input
                for i in base..kept {
                    let l = self.gate_inputs[i];
                    self.push_clause(&[!out, l]);
                }
                // all inputs -> out
                for i in base..kept {
                    let l = self.gate_inputs[i];
                    self.clause_lits.push(!l);
                }
                self.clause_lits.push(out);
                self.end_clause();
                out
            }
        };
        self.gate_inputs.truncate(base);
        out
    }

    /// AND gate: `out <-> a /\ b`.
    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b || self.is_true(b) {
            return a;
        }
        if self.is_true(a) {
            return b;
        }
        if a == !b || self.is_false(a) || self.is_false(b) {
            return self.fls();
        }
        let out = self.fresh();
        self.push_clause(&[!out, a]);
        self.push_clause(&[!out, b]);
        self.push_clause(&[!a, !b, out]);
        out
    }

    /// XNOR gate: `out <-> (a == b)`.
    fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return self.tru();
        }
        if a == !b {
            return self.fls();
        }
        for (k, other) in [(a, b), (b, a)] {
            if self.is_true(k) {
                return other;
            }
            if self.is_false(k) {
                return !other;
            }
        }
        let out = self.fresh();
        self.push_clause(&[!out, !a, b]);
        self.push_clause(&[!out, a, !b]);
        self.push_clause(&[out, a, b]);
        self.push_clause(&[out, !a, !b]);
        out
    }

    /// MUX gate: `out <-> (c ? a : b)`. Whenever the selector or a branch
    /// is a constant, or two of the three inputs are the same variable,
    /// the mux is a constant, an input, an XNOR or a single AND.
    fn mux(&mut self, c: Lit, a: Lit, b: Lit) -> Lit {
        if self.is_true(c) || a == b {
            return a;
        }
        if self.is_false(c) {
            return b;
        }
        if a == !b {
            return self.xnor(c, a);
        }
        // c ? T : b  =  c \/ b, and the three mirror images.
        if self.is_true(a) || a == c {
            return !self.and2(!c, !b);
        }
        if self.is_false(a) || a == !c {
            return self.and2(!c, b);
        }
        if self.is_true(b) || b == !c {
            return !self.and2(c, !a);
        }
        if self.is_false(b) || b == c {
            return self.and2(c, a);
        }
        let out = self.fresh();
        self.push_clause(&[!c, !a, out]);
        self.push_clause(&[!c, a, !out]);
        self.push_clause(&[c, !b, out]);
        self.push_clause(&[c, b, !out]);
        out
    }

    /// Unsigned less-than comparator: a literal true iff `a < b`. From the
    /// LSB up, `lt_i = (a_i == b_i) ? lt_{i-1} : b_i`: against a constant
    /// operand every step folds to at most one AND.
    fn ult(&mut self, a: Bits, b: Bits) -> Lit {
        debug_assert_eq!(a.width, b.width);
        let mut lt = self.fls();
        for i in 0..a.width {
            let (ai, bi) = (self.bits[a.start + i], self.bits[b.start + i]);
            let eq = self.xnor(ai, bi);
            lt = self.mux(eq, lt, bi);
        }
        lt
    }

    /// Ripple-carry adder (modular); appends the sum's bits to the store.
    fn adder(&mut self, a: Bits, b: Bits) {
        debug_assert_eq!(a.width, b.width);
        let mut carry = self.fls();
        for i in 0..a.width {
            let (ai, bi) = (self.bits[a.start + i], self.bits[b.start + i]);
            // xnor(a,b); its negation is xor(a,b).
            let axb = self.xnor(ai, bi);
            // sum = xor(xor(a,b), carry) = !xnor(xor(a,b), carry)
            let s = !self.xnor(!axb, carry);
            // carry_out = (a & b) | (carry & xor(a,b))
            let ab = self.and2(ai, bi);
            let cx = self.and2(carry, !axb);
            carry = !self.and2(!ab, !cx);
            self.bits.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SolveOutcome;

    fn is_sat(pool: &TermPool, assertions: &[TermId]) -> bool {
        let blasted = bitblast(pool, assertions);
        let mut s = SatSolver::new(0);
        blasted.feed(&mut s, 0);
        s.solve() == SolveOutcome::Sat
    }

    #[test]
    fn bool_var_sat() {
        let mut p = TermPool::new();
        let a = p.bool_var("a");
        assert!(is_sat(&p, &[a]));
        let na = p.not(a);
        assert!(!is_sat(&p, &[a, na]));
    }

    #[test]
    fn bv_eq_const() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let c = p.bv_const(42, 8);
        let eq = p.bv_eq(x, c);
        assert!(is_sat(&p, &[eq]));
        // x == 42 and x == 43 is unsat.
        let c2 = p.bv_const(43, 8);
        let eq2 = p.bv_eq(x, c2);
        assert!(!is_sat(&p, &[eq, eq2]));
    }

    #[test]
    fn ult_antisymmetric() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 6);
        let y = p.bv_var("y", 6);
        let xy = p.bv_ult(x, y);
        let yx = p.bv_ult(y, x);
        assert!(is_sat(&p, &[xy]));
        assert!(!is_sat(&p, &[xy, yx]));
    }

    #[test]
    fn ule_total() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 4);
        let y = p.bv_var("y", 4);
        let xy = p.bv_ule(x, y);
        let yx = p.bv_ule(y, x);
        let nxy = p.not(xy);
        let nyx = p.not(yx);
        // !(x<=y) and !(y<=x) is unsat (totality).
        assert!(!is_sat(&p, &[nxy, nyx]));
    }

    #[test]
    fn adder_concrete() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let a = p.bv_const(100, 8);
        let b = p.bv_const(56, 8);
        let sum = p.bv_add(x, b);
        let eq_in = p.bv_eq(x, a);
        let expect = p.bv_const(156, 8);
        let eq_out = p.bv_eq(sum, expect);
        let neq_out = p.not(eq_out);
        assert!(is_sat(&p, &[eq_in, eq_out]));
        assert!(!is_sat(&p, &[eq_in, neq_out]));
    }

    #[test]
    fn adder_wraps() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let c = p.bv_const(200, 8);
        let sum = p.bv_add(x, c); // x + 200
        let eq_in = p.bv_eq(x, c); // x = 200
        let expect = p.bv_const(400 % 256, 8);
        let eq_out = p.bv_eq(sum, expect);
        let bad = p.not(eq_out);
        assert!(!is_sat(&p, &[eq_in, bad]));
    }

    #[test]
    fn bitwise_ops() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let a = p.bv_const(0b1100, 8);
        let b = p.bv_const(0b1010, 8);
        let ex = p.bv_eq(x, a);
        let and = p.bv_and(x, b);
        let e = p.bv_const(0b1000, 8);
        let eq = p.bv_eq(and, e);
        let ne = p.not(eq);
        assert!(!is_sat(&p, &[ex, ne]));
    }

    #[test]
    fn ite_bv() {
        let mut p = TermPool::new();
        let c = p.bool_var("c");
        let a = p.bv_const(1, 4);
        let b = p.bv_const(2, 4);
        let x = p.ite(c, a, b);
        let is_one = p.bv_eq(x, a);
        // c and x != 1 is unsat
        let ne = p.not(is_one);
        assert!(!is_sat(&p, &[c, ne]));
        // !c and x == 1 is unsat
        let nc = p.not(c);
        assert!(!is_sat(&p, &[nc, is_one]));
    }

    /// One gate input of the exhaustive fold tests: a constant, or one
    /// of two free variables in either polarity.
    #[derive(Clone, Copy, Debug)]
    enum In {
        T,
        F,
        X,
        NotX,
        Y,
        NotY,
    }
    const INPUTS: [In; 6] = [In::T, In::F, In::X, In::NotX, In::Y, In::NotY];

    /// A blaster holding `x`, `y` and the true literal, and the literal
    /// each [`In`] stands for.
    fn gate_bench() -> (IncrementalBlaster, impl Fn(In) -> Lit) {
        let mut b = IncrementalBlaster::new();
        let (x, y, t) = (b.fresh_lit(), b.fresh_lit(), b.tru());
        let lit = move |i: In| match i {
            In::T => t,
            In::F => !t,
            In::X => x,
            In::NotX => !x,
            In::Y => y,
            In::NotY => !y,
        };
        (b, lit)
    }

    /// `out` must equal the gate whose full definitional clauses over a
    /// fresh `d` the caller added: neither `out /\ !d` nor `!out /\ d`
    /// is satisfiable.
    fn assert_equivalent(b: &IncrementalBlaster, out: Lit, d: Lit, what: &str) {
        let mut s = SatSolver::new(0);
        b.feed(&mut s, 0);
        for (p, q) in [(out, !d), (!out, d)] {
            assert_eq!(
                s.solve_under_assumptions(&[p, q]),
                SolveOutcome::Unsat,
                "{what}: folded {out:?} differs from definition {d:?}"
            );
        }
    }

    #[test]
    fn folded_binary_gates_match_their_definitions_on_every_input_shape() {
        for a in INPUTS {
            for c in INPUTS {
                let (mut b, lit) = gate_bench();
                let (la, lc) = (lit(a), lit(c));
                let and = b.and2(la, lc);
                let d = b.fresh_lit();
                b.add_clause(&[!d, la]);
                b.add_clause(&[!d, lc]);
                b.add_clause(&[!la, !lc, d]);
                assert_equivalent(&b, and, d, &format!("and2({a:?}, {c:?})"));

                let xnor = b.xnor(la, lc);
                let d = b.fresh_lit();
                b.add_clause(&[!d, !la, lc]);
                b.add_clause(&[!d, la, !lc]);
                b.add_clause(&[d, la, lc]);
                b.add_clause(&[d, !la, !lc]);
                assert_equivalent(&b, xnor, d, &format!("xnor({a:?}, {c:?})"));
            }
        }
    }

    #[test]
    fn folded_ternary_gates_match_their_definitions_on_every_input_shape() {
        for c in INPUTS {
            for a in INPUTS {
                for e in INPUTS {
                    let (mut b, lit) = gate_bench();
                    let (lc, la, le) = (lit(c), lit(a), lit(e));
                    let mux = b.mux(lc, la, le);
                    let d = b.fresh_lit();
                    b.add_clause(&[!lc, !la, d]);
                    b.add_clause(&[!lc, la, !d]);
                    b.add_clause(&[lc, !le, d]);
                    b.add_clause(&[lc, le, !d]);
                    assert_equivalent(&b, mux, d, &format!("mux({c:?}, {a:?}, {e:?})"));

                    b.gate_inputs.extend([lc, la, le]);
                    let and = b.and_staged(0);
                    assert!(b.gate_inputs.is_empty(), "the gate pops its inputs");
                    let d = b.fresh_lit();
                    for l in [lc, la, le] {
                        b.add_clause(&[!d, l]);
                    }
                    b.add_clause(&[!lc, !la, !le, d]);
                    assert_equivalent(&b, and, d, &format!("and({c:?}, {a:?}, {e:?})"));
                }
            }
        }
    }

    #[test]
    fn gates_over_constants_and_repeats_allocate_nothing() {
        let (mut b, lit) = gate_bench();
        let (t, x) = (lit(In::T), lit(In::X));
        let (vars, clauses) = (b.num_vars(), b.num_clauses());
        assert_eq!(b.and2(x, t), x);
        assert_eq!(b.and2(x, !t), !t);
        assert_eq!(b.and2(x, !x), !t);
        assert_eq!(b.xnor(x, t), x);
        assert_eq!(b.xnor(!t, x), !x);
        assert_eq!(b.xnor(x, x), t);
        assert_eq!(b.mux(t, x, !x), x);
        assert_eq!(b.mux(x, t, !t), x);
        assert_eq!(b.mux(x, !t, t), !x);
        b.gate_inputs.extend([t, x, x, t]);
        assert_eq!(b.and_staged(0), x);
        assert_eq!((b.num_vars(), b.num_clauses()), (vars, clauses));
    }

    /// Gate variables and clauses `t` costs on top of `input_bits` free
    /// input bits and the shared true literal with its unit clause.
    fn gate_cost(pool: &TermPool, t: TermId, input_bits: u32) -> (u32, usize) {
        let mut b = IncrementalBlaster::new();
        b.blast_bool(pool, t);
        (b.num_vars() - input_bits - 1, b.num_clauses() - 1)
    }

    /// Said by every size pin below when it trips.
    const SIZE_IS_SPEED: &str = "a CNF-size regression is a performance regression on the \
        `zoo-hetero` benchmark workload, whose time is blasting and feeding these clauses";

    #[test]
    fn prefix_range_match_is_one_and_gate() {
        // `addr & 255.255.255.0 == 10.1.2.0`: 8 bits vanish under the
        // mask, 24 become the (possibly negated) address bit itself.
        let mut p = TermPool::new();
        let addr = p.bv_var("addr", 32);
        let mask = p.bv_const(0xffff_ff00, 32);
        let masked = p.bv_and(addr, mask);
        let pattern = p.bv_const(0x0a01_0200, 32);
        let hit = p.bv_eq(masked, pattern);
        assert_eq!(gate_cost(&p, hit, 32), (1, 25), "{SIZE_IS_SPEED}");
        // A pattern with a bit outside the mask can never match.
        let off_mask = p.bv_const(0x0a01_0201, 32);
        let never = p.bv_eq(masked, off_mask);
        assert_eq!(gate_cost(&p, never, 32), (0, 0), "{SIZE_IS_SPEED}");
    }

    #[test]
    fn bounded_compare_against_a_constant_is_a_short_chain() {
        // `len <= 32` over 8 bits: the unfolded comparator spends four
        // gates per bit (32 variables, 104 clauses).
        let mut p = TermPool::new();
        let len = p.bv_var("len", 8);
        let c32 = p.bv_const(32, 8);
        let le = p.bv_ule(len, c32);
        assert_eq!(gate_cost(&p, le, 8), (7, 21), "{SIZE_IS_SPEED}");
    }

    #[test]
    fn clear_forgets_everything_but_capacity() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let c = p.bv_const(9, 8);
        let lt = p.bv_ult(x, c);
        let mut b = IncrementalBlaster::new();
        b.assert_true(&p, lt);
        let first = b.to_cnf();
        b.clear();
        assert_eq!((b.num_vars(), b.num_clauses()), (0, 0));
        assert!(b.bool_lit(lt).is_none() && b.bv_bits(x).is_none());
        // The same formula blasts to the same CNF on the recycled blaster.
        b.assert_true(&p, lt);
        assert_eq!(b.to_cnf().clauses(), first.clauses());
    }

    #[test]
    fn clause_store_cap_latches_and_drops_the_clause_whole() {
        let mut b = IncrementalBlaster::new();
        b.set_clause_lits_cap(4);
        let (x, y, z) = (b.fresh_lit(), b.fresh_lit(), b.fresh_lit());
        b.add_clause(&[x, y, z]);
        assert!(b.capacity_error().is_none());
        b.add_clause(&[!x, !y]);
        assert_eq!(
            b.capacity_error(),
            Some(&SolverError::ClauseStoreExhausted {
                requested_lits: 5,
                cap_lits: 4
            })
        );
        assert_eq!(b.num_clauses(), 1, "no partial clause is stored");
        // A later clause that happens to fit is stored, but the latch stays.
        b.add_clause(&[z]);
        assert_eq!(b.clause(1), &[z]);
        assert!(b.capacity_error().is_some());
    }

    #[test]
    fn incremental_blaster_reuses_encodings() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let c5 = p.bv_const(5, 8);
        let lt = p.bv_ult(x, c5);
        let mut b = IncrementalBlaster::new();
        b.assert_true(&p, lt);
        let vars_after_first = b.num_vars();
        // New term over the same sub-DAG: only the new comparator is
        // encoded, x's bits are reused.
        let c3 = p.bv_const(3, 8);
        let lt2 = p.bv_ult(x, c3);
        let l2 = b.blast_bool(&p, lt2);
        assert!(b.num_vars() > vars_after_first);
        // Re-blasting either term is free (cache hit, no new vars).
        let before = b.num_vars();
        let l2_again = b.blast_bool(&p, lt2);
        assert_eq!(l2, l2_again);
        assert_eq!(b.num_vars(), before);
        assert_eq!(b.bool_lit(lt2), Some(l2));
    }

    #[test]
    fn flat_store_round_trips_to_cnf() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 4);
        let c = p.bv_const(9, 4);
        let eq = p.bv_eq(x, c);
        let b = bitblast(&p, &[eq]);
        let cnf = b.to_cnf();
        assert_eq!(cnf.num_vars(), b.num_vars());
        assert_eq!(cnf.num_clauses(), b.num_clauses());
        for (i, cl) in cnf.clauses().iter().enumerate() {
            assert_eq!(cl.as_slice(), b.clause(i));
        }
        let mut s = SatSolver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }
}
