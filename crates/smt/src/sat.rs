//! A MiniSat-style CDCL SAT solver.
//!
//! Features: two-watched-literal unit propagation over struct-of-arrays
//! watcher lists with inlined blocker literals, a flat clause arena (one
//! contiguous `u32` buffer instead of one heap allocation per clause),
//! first-UIP conflict analysis with clause minimization, VSIDS variable
//! activities with an indexed binary heap, phase saving and Luby-sequence
//! restarts.
//!
//! The clause database is **additions-only**: nothing is ever deleted,
//! so there is no learnt-clause reduction, no tombstone and no
//! compaction, and every learnt clause is a lemma that stays. What bounds
//! its memory is one ceiling per query: a solve may add at most
//! `LEARNT_WORDS_PER_QUERY` words of learnt clauses, and a clause past
//! that ends the query in [`SolverError::ArenaExhausted`].
//!
//! That is the whole kernel, and it has no settings: Lightyear's local
//! checks are small (hundreds of variables, a few thousand clauses), so
//! search is never where a verdict's time goes, and every heuristic
//! constant below is the one value every query runs with.
//!
//! Clauses arrive two ways. Arbitrary input ([`SatSolver::add_clause_slice`],
//! [`SatSolver::from_cnf`]) is normalised first: duplicate and false
//! literals dropped, tautologies and satisfied clauses skipped. The
//! bit-blaster's clauses, which never repeat a variable, take the
//! trusted attach behind `IncrementalBlaster::feed`: attached as given
//! unless a literal is assigned at the root, with the arena reserved
//! once per feed — the same resulting state without the per-clause scan.
//!
//! The solver is **incremental**: every solve backtracks to the root
//! decision level instead of tearing the instance down, so callers can
//! keep adding clauses and variables
//! ([`SatSolver::ensure_num_vars`]) between solves while learnt clauses,
//! variable activities and saved phases carry over. Related queries are
//! posed with [`SatSolver::solve_under_assumptions`], which decides the
//! given literals first (MiniSat's assumption mechanism); on an
//! assumption-caused `Unsat` the failing-assumption core is available
//! through [`SatSolver::failed_assumptions`]. A solver whose clause
//! arena filled up, or whose query learnt past its ceiling, refuses
//! verdicts; [`SatSolver::try_solve_under_assumptions`] returns that
//! refusal as a typed [`SolverError`].
//!
//! The solver is deliberately self-contained (no `unsafe`, no external
//! dependencies) — it is the substrate on which every Lightyear local check
//! and every Minesweeper monolithic query in this workspace is decided.

use crate::cnf::{Cnf, Lit, Var};

/// Tri-state assignment value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Result of a satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveOutcome {
    /// A satisfying assignment was found (read it via [`SatSolver::value`]).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
}

/// Reference to a clause: the word offset of its header in the arena.
type ClauseRef = u32;
const REASON_NONE: ClauseRef = u32::MAX;

/// Hard ceiling on clause-arena size, in `u32` words: one below
/// `u32::MAX` so every valid clause offset stays distinguishable from
/// the `REASON_NONE` sentinel.
pub const ARENA_CAP_WORDS: u32 = u32::MAX - 1;

/// Arena words one query may add in learnt clauses. The database is
/// never reduced, so this ceiling, set at the start of each solve, is
/// what bounds its memory: a learnt clause past it ends the query in
/// [`SolverError::ArenaExhausted`].
const LEARNT_WORDS_PER_QUERY: u32 = 1 << 20;

/// A typed solver failure. Before this existed, the flat clause arena
/// grew unchecked: past `u32::MAX` words the `as u32` offset cast
/// silently wrapped, aliasing fresh clauses onto old ones and
/// corrupting the watcher lists — a wrong-verdict bug, not a crash.
/// Allocation is now checked, and an exhausted arena latches this error
/// on the solver: the instance refuses every further verdict instead of
/// risking one derived from a dropped or aliased clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The flat clause arena hit its addressing cap (the real `u32`
    /// ceiling, or a synthetic test cap from
    /// [`SatSolver::set_arena_cap_words`]), or a query's learnt clauses
    /// hit its per-query ceiling.
    ArenaExhausted {
        /// Words the arena would have needed for the failed allocation.
        requested_words: u64,
        /// The cap or ceiling in force when the allocation failed.
        cap_words: u32,
    },
    /// The bit-blaster's flat clause store hit its addressing cap
    /// (clause end offsets are `u32`; a long-lived session that blasted
    /// past 2^32 literals used to wrap the offset silently). The clause
    /// that did not fit was dropped, so the session refuses every
    /// verdict from then on.
    ClauseStoreExhausted {
        /// Literals the store would have held after the failed append.
        requested_lits: u64,
        /// The cap in force when the append failed.
        cap_lits: u32,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::ArenaExhausted {
                requested_words,
                cap_words,
            } => write!(
                f,
                "clause arena exhausted: allocation needs {requested_words} words, \
                 cap is {cap_words} words"
            ),
            SolverError::ClauseStoreExhausted {
                requested_lits,
                cap_lits,
            } => write!(
                f,
                "blasted clause store exhausted: append needs {requested_lits} literals, \
                 cap is {cap_lits} literals"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// Conflicts allowed before the first restart (scaled by Luby).
const RESTART_BASE: u64 = 100;
/// VSIDS activity decay per conflict.
const VAR_DECAY: f64 = 0.95;

/// Cumulative counters exposed for benchmarking (Figure 3c/3d) and the
/// `lightyear profile` solver section.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts found.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses on the instance. The database is never
    /// reduced, so this only grows.
    pub learnts: u64,
}

/// Flat clause storage: every clause is `[len, lits...]` in one
/// contiguous `u32` buffer, addressed by the offset of its length word.
/// The database is additions-only — no clause is ever deleted, moved or
/// rewritten except for the order of its literals — so a [`ClauseRef`]
/// stays valid for the life of the instance, and the clauses learnt by a
/// query are exactly the words appended while it ran.
#[derive(Default)]
struct ClauseDb {
    data: Vec<u32>,
}

const HEADER_WORDS: usize = 1;

impl ClauseDb {
    /// Allocate a clause, refusing — with **no partial state** — when
    /// the arena would grow past `cap` words. `ClauseRef` offsets are
    /// `u32`; unchecked growth past that range used to wrap the offset
    /// cast and alias earlier clauses.
    fn alloc(&mut self, lits: &[Lit], cap: u32) -> Option<ClauseRef> {
        debug_assert!(lits.len() >= 2);
        let needed = self.data.len() as u64 + (HEADER_WORDS + lits.len()) as u64;
        if needed > cap as u64 {
            return None;
        }
        let c = self.data.len() as ClauseRef;
        self.data.push(lits.len() as u32);
        self.data.extend(lits.iter().map(|l| l.0));
        Some(c)
    }

    fn len(&self, c: ClauseRef) -> usize {
        self.data[c as usize] as usize
    }

    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit(self.data[c as usize + HEADER_WORDS + k])
    }

    fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }
}

/// One literal's watcher list: each entry packs the blocker literal
/// (high word) next to the clause reference (low word), so the hot path
/// — most watched clauses are already satisfied through their blocker —
/// streams through one dense array without touching the clause arena.
///
/// The first two entries live inline in the list itself: most literals
/// watch at most a couple of clauses, so on a fresh feed the bulk of
/// watcher attachment never touches the heap at all (feeding a 50-router
/// WAN otherwise performs one small allocation per watching literal,
/// which dominates the feed). Entries beyond two spill into a `Vec`,
/// and indexed access resolves against the inline count with a single
/// predictable branch.
#[derive(Default)]
struct WatchList {
    head_len: u8,
    head: [u64; 2], // blocker (raw Lit) << 32 | cref
    spill: Vec<u64>,
}

impl WatchList {
    fn len(&self) -> usize {
        self.head_len as usize + self.spill.len()
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        // Entries are head[0..head_len] followed by the spill.
        let h = self.head_len as usize;
        if i < h {
            self.head[i]
        } else {
            self.spill[i - h]
        }
    }

    #[inline]
    fn set(&mut self, i: usize, e: u64) {
        let h = self.head_len as usize;
        if i < h {
            self.head[i] = e;
        } else {
            self.spill[i - h] = e;
        }
    }

    /// Append an entry. The inline slots are only skipped once the
    /// spill is in use, keeping the head-then-spill order contiguous.
    #[inline]
    fn push_entry(&mut self, e: u64) {
        if self.head_len < 2 && self.spill.is_empty() {
            self.head[self.head_len as usize] = e;
            self.head_len += 1;
        } else {
            self.spill.push(e);
        }
    }

    fn push(&mut self, cref: ClauseRef, blocker: Lit) {
        self.push_entry((blocker.0 as u64) << 32 | cref as u64);
    }

    fn cref(&self, i: usize) -> ClauseRef {
        self.get(i) as u32
    }

    fn blocker(&self, i: usize) -> Lit {
        Lit((self.get(i) >> 32) as u32)
    }

    fn set_blocker(&mut self, i: usize, b: Lit) {
        let e = self.get(i);
        self.set(i, (b.0 as u64) << 32 | (e & 0xffff_ffff));
    }

    fn swap_remove(&mut self, i: usize) {
        let last = match self.spill.pop() {
            Some(e) => e,
            None => {
                self.head_len -= 1;
                self.head[self.head_len as usize]
            }
        };
        if i < self.len() {
            self.set(i, last);
        }
    }

    fn clear(&mut self) {
        self.head_len = 0;
        self.spill.clear();
    }

    fn append_from(&mut self, other: &WatchList) {
        for i in 0..other.len() {
            self.push_entry(other.get(i));
        }
    }
}

/// The CDCL solver.
pub struct SatSolver {
    db: ClauseDb,
    watches: Vec<WatchList>, // indexed by Lit::index()
    assigns: Vec<LBool>,     // indexed by var
    phase: Vec<bool>,        // saved phases
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: OrderHeap,
    seen: Vec<bool>,
    scratch: Vec<Lit>, // a clause stripped of its false literals
    ok: bool,          // false once a top-level conflict is found
    stats: SatStats,
    /// Clause-arena size ceiling in words ([`ARENA_CAP_WORDS`] in
    /// production; tests lower it to force near-capacity growth).
    arena_cap: u32,
    /// Latched capacity failure: once set, every solve refuses a
    /// verdict ([`SatSolver::try_solve_under_assumptions`] returns it).
    arena_error: Option<SolverError>,
    /// Assignment snapshot from the most recent `Sat` answer; solves
    /// backtrack to the root level before returning, so the model must
    /// outlive the trail.
    model: Vec<LBool>,
    /// On an assumption-caused `Unsat`: the subset of the assumptions
    /// that is jointly inconsistent with the clauses. Empty when the
    /// clause set itself is unsatisfiable.
    conflict_core: Vec<Lit>,
}

impl SatSolver {
    /// Create a solver over `num_vars` variables.
    pub fn new(num_vars: u32) -> Self {
        let mut s = SatSolver {
            db: ClauseDb::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: OrderHeap::new(0),
            seen: Vec::new(),
            scratch: Vec::new(),
            ok: true,
            stats: SatStats::default(),
            arena_cap: ARENA_CAP_WORDS,
            arena_error: None,
            model: Vec::new(),
            conflict_core: Vec::new(),
        };
        s.ensure_num_vars(num_vars);
        s
    }

    /// Back to the state of [`SatSolver::new`]`(0)` — no variables, no
    /// clauses, default arena cap, zeroed statistics —
    /// keeping every buffer's capacity, so a worker that decides one
    /// small formula after another allocates for the largest of them
    /// once. The next formula sees exactly what a new solver would show
    /// it.
    pub fn reset(&mut self) {
        // Exhaustive on purpose: a new field must decide what reset
        // means for it.
        let SatSolver {
            db,
            watches,
            assigns,
            phase,
            level,
            reason,
            trail,
            trail_lim,
            qhead,
            activity,
            var_inc,
            heap,
            seen,
            scratch,
            ok,
            stats,
            arena_cap,
            arena_error,
            model,
            conflict_core,
        } = self;
        db.data.clear();
        watches.iter_mut().for_each(WatchList::clear);
        assigns.clear();
        phase.clear();
        level.clear();
        reason.clear();
        trail.clear();
        trail_lim.clear();
        *qhead = 0;
        activity.clear();
        *var_inc = 1.0;
        heap.heap.clear();
        heap.pos.clear();
        seen.clear();
        scratch.clear();
        *ok = true;
        *stats = SatStats::default();
        *arena_cap = ARENA_CAP_WORDS;
        *arena_error = None;
        model.clear();
        conflict_core.clear();
    }

    /// Number of variables the solver currently knows about.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Grow the variable tables to hold at least `n` variables. New
    /// variables start unassigned, with a negative saved phase and zero
    /// activity. Used by incremental callers whose formula grows between
    /// solves.
    pub fn ensure_num_vars(&mut self, n: u32) {
        let n = n as usize;
        let cur = self.assigns.len();
        if n <= cur {
            return;
        }
        // Only ever grow: after `reset` the table keeps its (emptied)
        // lists, spill buffers included, for the next formula.
        if self.watches.len() < 2 * n {
            self.watches.resize_with(2 * n, WatchList::default);
        }
        self.assigns.resize(n, LBool::Undef);
        self.phase.resize(n, false);
        self.level.resize(n, 0);
        self.reason.resize(n, REASON_NONE);
        self.activity.resize(n, 0.0);
        self.seen.resize(n, false);
        for v in cur..n {
            self.heap.push_new(v);
        }
    }

    /// Build a solver directly from a [`Cnf`].
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = SatSolver::new(cnf.num_vars());
        for c in cnf.clauses() {
            s.add_clause_slice(c);
        }
        s
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    fn value_lit(&self, l: Lit) -> LBool {
        match self.assigns[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(l.is_pos()),
            LBool::False => LBool::from_bool(!l.is_pos()),
        }
    }

    /// Value of a variable in the satisfying assignment (valid after `Sat`).
    pub fn value(&self, v: Var) -> bool {
        // Solves backtrack to the root before returning, so read the
        // snapshot taken at the moment of the `Sat` answer.
        match self.model.get(v.0 as usize) {
            Some(&m) => m == LBool::True,
            None => self.assigns[v.0 as usize] == LBool::True,
        }
    }

    /// The subset of the last solve's assumptions shown inconsistent with
    /// the clause set (valid after an `Unsat` answer from
    /// [`SatSolver::solve_under_assumptions`]). An empty slice means the
    /// clauses are unsatisfiable regardless of assumptions.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Add a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (conflict at decision level 0).
    pub fn add_clause(&mut self, lits: Vec<Lit>) -> bool {
        self.add_clause_slice(&lits)
    }

    /// Add an arbitrary clause from a borrowed slice (`from_cnf`, tests,
    /// hand-built instances). Returns `false` if the formula became
    /// trivially unsatisfiable (conflict at decision level 0).
    pub fn add_clause_slice(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        // Normalize into the scratch buffer: drop duplicate and false
        // literals, detect tautologies and satisfied clauses. Clauses
        // are short, so the quadratic duplicate scan beats sorting an
        // owned copy.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let mut ok = true;
        'lits: for &l in lits {
            match self.value_lit(l) {
                LBool::True => {
                    ok = false; // satisfied at level 0: drop the clause
                    break;
                }
                LBool::False => continue,
                LBool::Undef => {}
            }
            for &k in scratch.iter() {
                if k == l {
                    continue 'lits; // duplicate
                }
                if k == !l {
                    ok = false; // tautology
                    break 'lits;
                }
            }
            scratch.push(l);
        }
        let result = !ok || self.attach_unassigned(&scratch);
        self.scratch = scratch;
        result
    }

    /// Add a clause that repeats no variable — the bit-blaster's store
    /// guarantees it for every clause it holds — straight from the
    /// borrowed slice: when none of its literals is assigned (the common
    /// case) it is attached as given, with no normalising pass and no
    /// copy. Otherwise false literals are dropped and a satisfied clause
    /// is skipped, exactly as [`SatSolver::add_clause_slice`] would,
    /// so both feeds leave the solver in the same state.
    pub(crate) fn add_normal_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(
            lits.iter()
                .enumerate()
                .all(|(i, l)| lits[..i].iter().all(|k| k.var() != l.var())),
            "clause repeats a variable: {lits:?}"
        );
        if !self.ok {
            return false;
        }
        if lits.iter().all(|&l| self.value_lit(l) == LBool::Undef) {
            return self.attach_unassigned(lits);
        }
        if lits.iter().any(|&l| self.value_lit(l) == LBool::True) {
            return true;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(lits.iter().filter(|&&l| self.value_lit(l) == LBool::Undef));
        let result = self.attach_unassigned(&scratch);
        self.scratch = scratch;
        result
    }

    /// Room in the arena for `clauses` more clauses of `lits` literals
    /// in total, so one feed grows it at most once.
    pub(crate) fn reserve_clauses(&mut self, clauses: usize, lits: usize) {
        self.db.data.reserve(HEADER_WORDS * clauses + lits);
    }

    /// Record a clause none of whose literals is assigned and which
    /// repeats no variable: the empty clause makes the formula
    /// unsatisfiable, a unit is enqueued and propagated, anything longer
    /// is attached. Returns `false` on a conflict at level 0.
    fn attach_unassigned(&mut self, lits: &[Lit]) -> bool {
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], REASON_NONE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                // On arena exhaustion the clause is NOT recorded, but the
                // latched error already blocks every future verdict, so
                // the dropped clause can never be observed.
                let _ = self.attach_clause(lits, self.arena_cap);
                true
            }
        }
    }

    /// `None` when the clause would take the arena past `cap` words
    /// (the arena cap for input clauses, the query's learnt ceiling for
    /// learnt ones): nothing is allocated, no watcher is pushed, and the
    /// capacity error is latched on the solver. Callers must not derive
    /// a verdict past a `None`.
    #[must_use]
    fn attach_clause(&mut self, lits: &[Lit], cap: u32) -> Option<ClauseRef> {
        debug_assert!(lits.len() >= 2);
        let Some(cref) = self.db.alloc(lits, cap) else {
            self.arena_error = Some(SolverError::ArenaExhausted {
                requested_words: self.db.data.len() as u64 + (HEADER_WORDS + lits.len()) as u64,
                cap_words: cap,
            });
            return None;
        };
        self.watches[(!lits[0]).index()].push(cref, lits[1]);
        self.watches[(!lits[1]).index()].push(cref, lits[0]);
        Some(cref)
    }

    /// Lower the clause-arena capacity (clamped to
    /// [`ARENA_CAP_WORDS`]). A test hook: forcing near-capacity growth
    /// with a tiny synthetic cap exercises the same refusal path the
    /// real `u32` ceiling would, without gigabytes of clauses.
    pub fn set_arena_cap_words(&mut self, cap: u32) {
        self.arena_cap = cap.min(ARENA_CAP_WORDS);
    }

    /// The latched capacity error, if the arena ever filled. Once set,
    /// [`SatSolver::try_solve_under_assumptions`] returns it without
    /// searching and the other entry points panic with the typed message
    /// instead of returning a possibly-unsound verdict.
    pub fn arena_error(&self) -> Option<&SolverError> {
        self.arena_error.as_ref()
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.assigns[v], LBool::Undef);
        self.assigns[v] = LBool::from_bool(l.is_pos());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                // Fast path: blocker already true. Only the watcher
                // array is touched until a clause actually needs work.
                let blocker = ws.blocker(i);
                if self.value_lit(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = ws.cref(i);
                // Make sure the false literal (!p) is at position 1.
                if self.db.lit(cref, 0) == !p {
                    self.db.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.db.lit(cref, 1), !p);
                let first = self.db.lit(cref, 0);
                if first != blocker && self.value_lit(first) == LBool::True {
                    ws.set_blocker(i, first);
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lit(cref, k);
                    if self.value_lit(lk) != LBool::False {
                        self.db.swap_lits(cref, 1, k);
                        self.watches[(!lk).index()].push(cref, first);
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    // Conflict: keep remaining watchers, restore and bail.
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, cref);
                    i += 1;
                }
            }
            // Put back the (possibly shrunk) watcher list, preserving any
            // watchers that were appended to the fresh list during the scan
            // (can happen when a clause watches both p and !p's variable).
            let appended = std::mem::take(&mut self.watches[p.index()]);
            ws.append_from(&appended);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = confl;
        let cur_level = self.decision_level();

        loop {
            let start = usize::from(p.is_some());
            for k in start..self.db.len(cref) {
                let q = self.db.lit(cref, k);
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_bump(v);
                    if self.level[v] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            let v = pl.var().0 as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            cref = self.reason[v];
            debug_assert_ne!(cref, REASON_NONE);
            p = Some(pl);
        }
        learnt[0] = !p.unwrap();

        // Clause minimization: drop literals implied by the rest. Keep a
        // copy so the `seen` flags of *removed* literals are cleared too.
        let to_clear = learnt.clone();
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if !self.lit_redundant(l) {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);

        // Compute backtrack level = second-highest level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().0 as usize]
                    > self.level[learnt[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().0 as usize]
        };

        // Clear the `seen` flags we set on clause literals.
        for &l in &to_clear {
            self.seen[l.var().0 as usize] = false;
        }
        (learnt, bt_level)
    }

    /// Simple (non-recursive) redundancy test: a literal is redundant if its
    /// reason clause exists and all the reason's other literals are already
    /// seen (i.e. already in the learnt clause) or at level 0.
    fn lit_redundant(&self, l: Lit) -> bool {
        let v = l.var().0 as usize;
        let r = self.reason[v];
        if r == REASON_NONE {
            return false;
        }
        (1..self.db.len(r)).all(|k| {
            let qv = self.db.lit(r, k).var().0 as usize;
            self.seen[qv] || self.level[qv] == 0
        })
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            self.phase[v] = l.is_pos();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = REASON_NONE;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v] == LBool::Undef {
                return Some(Var(v as u32));
            }
        }
        None
    }

    /// Solve the formula. Returns `Sat` or `Unsat`; on `Sat` the model is
    /// available through [`SatSolver::value`]. The solver backtracks to
    /// the root level afterwards, so clauses may be added and the solver
    /// re-queried (learnt clauses and activities are kept).
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_under_assumptions(&[])
    }

    /// Solve the formula under the given assumption literals: a model (if
    /// any) must make every assumption true. Assumptions are decided
    /// before any free decision, MiniSat-style, so the clause database —
    /// including everything learnt here — never depends on them and
    /// remains valid for later solves under different assumptions.
    ///
    /// On `Unsat` caused by the assumptions, the failing subset is
    /// available via [`SatSolver::failed_assumptions`]; if the clause set
    /// itself is unsatisfiable the core is empty and every later solve
    /// answers `Unsat` immediately.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.try_solve_under_assumptions(assumptions)
            .unwrap_or_else(|e| panic!("SAT solver refused a verdict: {e}"))
    }

    /// [`SatSolver::solve_under_assumptions`], returning the latched
    /// capacity error — before and after any search — once the clause
    /// arena has hit its cap or a query has learnt past its ceiling,
    /// instead of panicking. The solver stays consistent, but every
    /// later solve refuses too.
    pub fn try_solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
    ) -> Result<SolveOutcome, SolverError> {
        debug_assert_eq!(self.decision_level(), 0);
        self.model.clear();
        self.conflict_core.clear();
        if let Some(e) = &self.arena_error {
            // A past allocation failure may have dropped a clause; any
            // verdict from this instance would be untrustworthy.
            return Err(e.clone());
        }
        if !self.ok {
            return Ok(SolveOutcome::Unsat);
        }
        let learnt_cap = self.learnt_ceiling();
        let mut restart_idx = 0;
        let mut conflicts_budget = RESTART_BASE * luby(restart_idx);

        let outcome = 'search: loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break 'search SolveOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], REASON_NONE);
                } else {
                    let asserting = learnt[0];
                    let Some(cref) = self.attach_clause(&learnt, learnt_cap) else {
                        // Past the ceiling: the learnt clause cannot be
                        // attached, and the asserting literal has no
                        // reason without it. Unwind and refuse.
                        self.cancel_until(0);
                        return Err(self
                            .arena_error
                            .clone()
                            .expect("a failed attach latches the arena error"));
                    };
                    self.stats.learnts += 1;
                    self.unchecked_enqueue(asserting, cref);
                }
                self.var_decay();
                conflicts_budget = conflicts_budget.saturating_sub(1);
            } else {
                if conflicts_budget == 0 {
                    // Restart (assumptions are re-decided below).
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_budget = RESTART_BASE * luby(restart_idx);
                    self.cancel_until(0);
                }
                // Decide assumptions before any free decision.
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value_lit(p) {
                        LBool::True => {
                            // Already implied: open a dummy level so the
                            // level-to-assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(p);
                            break 'search SolveOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, REASON_NONE);
                            continue 'search; // propagate before the next one
                        }
                    }
                }
                match self.pick_branch_var() {
                    None => break 'search SolveOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v.0 as usize];
                        self.unchecked_enqueue(v.lit(phase), REASON_NONE);
                    }
                }
            }
        };
        if outcome == SolveOutcome::Sat {
            self.model = self.assigns.clone();
        }
        // Return to the root so the instance stays reusable: clauses can
        // be added and new (assumption) queries posed.
        self.cancel_until(0);
        Ok(outcome)
    }

    /// The arena size a query starting now may grow to with learnt
    /// clauses: [`LEARNT_WORDS_PER_QUERY`] past the words already there,
    /// never past the arena cap. The database only grows, so this one
    /// ceiling bounds what the query may learn.
    fn learnt_ceiling(&self) -> u32 {
        (self.db.data.len() as u32)
            .saturating_add(LEARNT_WORDS_PER_QUERY)
            .min(self.arena_cap)
    }

    /// Compute the failing-assumption core when assumption `p` is found
    /// false: walk the implication graph from `!p` back to the assumption
    /// decisions responsible. Every decision on the trail at this point
    /// is an assumption (assumptions are decided before free decisions,
    /// and we only get here while still enqueuing them).
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            // `!p` is implied by the clauses alone; the core is `{p}`.
            self.conflict_core.sort();
            return;
        }
        self.seen[p.var().0 as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            if !self.seen[v] {
                continue;
            }
            if self.reason[v] == REASON_NONE {
                debug_assert!(self.level[v] > 0);
                self.conflict_core.push(l);
            } else {
                let r = self.reason[v];
                for k in 1..self.db.len(r) {
                    let q = self.db.lit(r, k);
                    if self.level[q.var().0 as usize] > 0 {
                        self.seen[q.var().0 as usize] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().0 as usize] = false;
        self.conflict_core.sort();
        self.conflict_core.dedup();
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(x: u64) -> u64 {
    // Find the finite subsequence that contains index x and its size.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Indexed binary max-heap over variable activities.
struct OrderHeap {
    heap: Vec<usize>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

impl OrderHeap {
    fn new(n: usize) -> Self {
        OrderHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
        }
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != usize::MAX
    }

    /// Register a brand-new variable (index = current table size) and
    /// queue it for decision. Zero activity keeps the heap ordered with
    /// the new entry at the bottom.
    fn push_new(&mut self, v: usize) {
        debug_assert_eq!(v, self.pos.len());
        self.pos.push(self.heap.len());
        self.heap.push(v);
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v], act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.pos[top] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i]] <= act[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l]] > act[self.heap[best]] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r]] > act[self.heap[best]] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;

    fn solve_clauses(num_vars: u32, clauses: &[&[i32]]) -> SolveOutcome {
        let mut s = SatSolver::new(num_vars);
        for c in clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&x| {
                    let v = Var(x.unsigned_abs() - 1);
                    v.lit(x > 0)
                })
                .collect();
            if !s.add_clause(lits) {
                return SolveOutcome::Unsat;
            }
        }
        s.solve()
    }

    #[test]
    fn trivially_sat() {
        assert_eq!(solve_clauses(1, &[&[1]]), SolveOutcome::Sat);
    }

    #[test]
    fn trivially_unsat() {
        assert_eq!(solve_clauses(1, &[&[1], &[-1]]), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        assert_eq!(solve_clauses(3, &[]), SolveOutcome::Sat);
    }

    #[test]
    fn simple_implication_chain_unsat() {
        // a, a->b, b->c, !c
        assert_eq!(
            solve_clauses(3, &[&[1], &[-1, 2], &[-2, 3], &[-3]]),
            SolveOutcome::Unsat
        );
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b), (b xor c): satisfiable
        assert_eq!(
            solve_clauses(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3]]),
            SolveOutcome::Sat
        );
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_ij: pigeon i in hole j. vars: p11=1,p12=2,p21=3,p22=4,p31=5,p32=6
        let clauses: &[&[i32]] = &[
            &[1, 2],
            &[3, 4],
            &[5, 6],
            // no two pigeons share hole 1
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            // no two pigeons share hole 2
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ];
        assert_eq!(solve_clauses(6, clauses), SolveOutcome::Unsat);
    }

    #[test]
    fn arena_cap_latches_typed_error_instead_of_wrapping() {
        // A tiny synthetic cap forces the same refusal path the real
        // u32 ceiling would. Cap = 7 words: one ternary clause (1
        // header + 3 lits = 4 words) fits, the next does not.
        let mut s = SatSolver::new(6);
        s.set_arena_cap_words(7);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos(), Var(2).pos()]));
        assert!(s.arena_error().is_none());
        assert!(s.add_clause(vec![Var(3).pos(), Var(4).pos(), Var(5).pos()]));
        let err = s.arena_error().cloned().expect("cap must latch");
        match &err {
            SolverError::ArenaExhausted {
                requested_words,
                cap_words,
            } => {
                assert_eq!(*cap_words, 7);
                assert_eq!(*requested_words, 8); // 4 live + 4 requested
            }
            other => panic!("the arena cap latches an arena error, not {other:?}"),
        }
        // Every further solve refuses a verdict; state stays consistent.
        assert_eq!(s.try_solve_under_assumptions(&[]), Err(err.clone()));
        assert_eq!(
            s.try_solve_under_assumptions(&[Var(0).pos()]),
            Err(err.clone())
        );
        assert_eq!(s.arena_error(), Some(&err));
    }

    #[test]
    #[should_panic(expected = "clause arena exhausted")]
    fn arena_cap_panics_typed_on_non_abortable_entry() {
        let mut s = SatSolver::new(4);
        s.set_arena_cap_words(5);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos()]));
        assert!(s.add_clause(vec![Var(2).pos(), Var(3).pos()]));
        let _ = s.solve();
    }

    #[test]
    fn model_satisfies_formula() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..8).map(|_| cnf.fresh_var()).collect();
        // Random-ish structured formula.
        cnf.add_clause(vec![vars[0].pos(), vars[1].neg(), vars[2].pos()]);
        cnf.add_clause(vec![vars[3].neg(), vars[4].pos()]);
        cnf.add_clause(vec![vars[5].pos(), vars[6].pos(), vars[7].neg()]);
        cnf.add_clause(vec![vars[0].neg(), vars[3].pos()]);
        cnf.add_clause(vec![vars[2].neg(), vars[5].neg()]);
        let mut s = SatSolver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        let assignment: Vec<bool> = vars.iter().map(|&v| s.value(v)).collect();
        assert!(cnf.eval(&assignment));
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        // (a \/ a) dedups to the unit clause (a); (a \/ !a) is dropped as a
        // tautology; then (!a) conflicts at level 0 -> Unsat.
        let mut s = SatSolver::new(1);
        assert!(s.add_clause(vec![Var(0).pos(), Var(0).pos()]));
        assert!(s.add_clause(vec![Var(0).pos(), Var(0).neg()]));
        assert!(!s.add_clause(vec![Var(0).neg()]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);

        // Tautology alone stays satisfiable either way.
        let mut s2 = SatSolver::new(2);
        assert!(s2.add_clause(vec![Var(0).pos(), Var(0).neg()]));
        assert!(s2.add_clause(vec![Var(1).neg()]));
        assert_eq!(s2.solve(), SolveOutcome::Sat);
        assert!(!s2.value(Var(1)));
    }

    #[test]
    fn assumptions_flip_outcomes_on_one_instance() {
        // (a -> b), (b -> c): solve the same instance under different
        // assumption sets without rebuilding anything.
        let mut s = SatSolver::new(3);
        let (a, b, c) = (Var(0), Var(1), Var(2));
        assert!(s.add_clause(vec![a.neg(), b.pos()]));
        assert!(s.add_clause(vec![b.neg(), c.pos()]));
        assert_eq!(
            s.solve_under_assumptions(&[a.pos(), c.neg()]),
            SolveOutcome::Unsat
        );
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&a.pos()) && core.contains(&c.neg()));
        // Same instance, satisfiable assumptions; model respects them.
        assert_eq!(
            s.solve_under_assumptions(&[a.pos(), c.pos()]),
            SolveOutcome::Sat
        );
        assert!(s.value(a) && s.value(b) && s.value(c));
        // And with no assumptions it is still satisfiable.
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn failed_assumption_core_is_minimal_here() {
        // x1..x4 free; clause (!x1 \/ !x2). Assume all four positively:
        // the core must mention only x1 and x2.
        let mut s = SatSolver::new(4);
        assert!(s.add_clause(vec![Var(0).neg(), Var(1).neg()]));
        let assumptions: Vec<Lit> = (0..4).map(|i| Var(i).pos()).collect();
        assert_eq!(s.solve_under_assumptions(&assumptions), SolveOutcome::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&Var(0).pos()) && core.contains(&Var(1).pos()));
        assert!(!core.contains(&Var(2).pos()) && !core.contains(&Var(3).pos()));
        // The core itself must be jointly unsatisfiable.
        let mut s2 = SatSolver::new(4);
        assert!(s2.add_clause(vec![Var(0).neg(), Var(1).neg()]));
        assert_eq!(s2.solve_under_assumptions(&core), SolveOutcome::Unsat);
    }

    #[test]
    fn base_unsat_yields_empty_core() {
        let mut s = SatSolver::new(2);
        assert!(s.add_clause(vec![Var(0).pos()]));
        assert!(!s.add_clause(vec![Var(0).neg()]));
        assert_eq!(
            s.solve_under_assumptions(&[Var(1).pos()]),
            SolveOutcome::Unsat
        );
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn clauses_added_between_solves() {
        // Incremental use: solve, learn the answer, constrain, solve again.
        let mut s = SatSolver::new(3);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.add_clause(vec![Var(0).neg()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(Var(1)));
        assert!(!s.add_clause(vec![Var(1).neg()]) || s.solve() == SolveOutcome::Unsat);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn variables_grow_between_solves() {
        let mut s = SatSolver::new(1);
        assert!(s.add_clause(vec![Var(0).pos()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        s.ensure_num_vars(3);
        assert_eq!(s.num_vars(), 3);
        assert!(s.add_clause(vec![Var(0).neg(), Var(2).pos()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(Var(0)) && s.value(Var(2)));
    }

    fn pigeonhole(pigeons: u32, holes: u32) -> SatSolver {
        let var = |p: u32, h: u32| Var(p * holes + h);
        let mut s = SatSolver::new(pigeons * holes);
        for p in 0..pigeons {
            assert!(s.add_clause((0..holes).map(|h| var(p, h).pos()).collect()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    assert!(s.add_clause(vec![var(p1, h).neg(), var(p2, h).neg()]));
                }
            }
        }
        s
    }

    #[test]
    fn learnt_ceiling_is_per_query_and_under_the_arena_cap() {
        let mut s = SatSolver::new(3);
        assert_eq!(s.learnt_ceiling(), LEARNT_WORDS_PER_QUERY);
        // The ceiling moves with the words already on the instance.
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos(), Var(2).pos()]));
        assert_eq!(s.learnt_ceiling(), 4 + LEARNT_WORDS_PER_QUERY);
        s.set_arena_cap_words(10);
        assert_eq!(s.learnt_ceiling(), 10);
    }

    #[test]
    fn arena_cap_learnt_clause_refuses_mid_search() {
        // Pigeonhole 5 into 4 is refuted only after learning clauses of
        // three and more literals. With the arena cap at exactly the
        // input's words the query's ceiling is that cap, so the first
        // non-unit learnt clause crosses it (the assertion below sees
        // one of at least three literals) and the solve refuses rather
        // than mis-attach.
        let mut s = pigeonhole(5, 4);
        let words = s.db.data.len() as u32;
        s.set_arena_cap_words(words);
        for _ in 0..2 {
            // Refused mid-search, then latched: the same error both times.
            match s.try_solve_under_assumptions(&[]) {
                Err(SolverError::ArenaExhausted {
                    requested_words,
                    cap_words,
                }) => {
                    assert_eq!(cap_words, words);
                    assert!(requested_words >= words as u64 + 4, "{requested_words}");
                }
                other => panic!("pigeonhole 5 into 4 must learn past the ceiling: {other:?}"),
            }
        }
        assert_eq!(s.stats().learnts, 0);
    }

    #[test]
    fn at_most_one_constraints() {
        // Exactly-one over 4 vars, forced to var 2.
        let mut clauses: Vec<Vec<i32>> = vec![vec![1, 2, 3, 4]];
        for i in 1..=4 {
            for j in (i + 1)..=4 {
                clauses.push(vec![-i, -j]);
            }
        }
        clauses.push(vec![-1]);
        clauses.push(vec![-3]);
        clauses.push(vec![-4]);
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let mut s = SatSolver::new(4);
        for c in &refs {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&x| Var(x.unsigned_abs() - 1).lit(x > 0))
                .collect();
            assert!(s.add_clause(lits));
        }
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(Var(1)));
    }

    #[test]
    fn compaction_preserves_model_queries() {
        // Pigeonhole 5 into 4 behind an activation literal: the gated
        // query learns long clauses, every one of them stays in the
        // database, and the grown instance still answers both queries.
        let act = Var(20);
        let var = |p: u32, h: u32| Var(p * 4 + h);
        let mut s = SatSolver::new(21);
        for p in 0..5u32 {
            let mut c: Vec<Lit> = (0..4).map(|h| var(p, h).pos()).collect();
            c.push(act.neg());
            assert!(s.add_clause(c));
        }
        for h in 0..4u32 {
            for p1 in 0..5 {
                for p2 in (p1 + 1)..5 {
                    assert!(s.add_clause(vec![act.neg(), var(p1, h).neg(), var(p2, h).neg()]));
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[act.pos()]), SolveOutcome::Unsat);
        assert_eq!(s.failed_assumptions(), &[act.pos()]);
        assert_eq!(s.solve_under_assumptions(&[act.pos()]), SolveOutcome::Unsat);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(!s.value(act));
    }
}
