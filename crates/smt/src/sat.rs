//! A MiniSat-style CDCL SAT solver.
//!
//! Features: two-watched-literal unit propagation over struct-of-arrays
//! watcher lists with inlined blocker literals, a flat clause arena (one
//! contiguous `u32` buffer instead of one heap allocation per clause),
//! first-UIP conflict analysis with clause minimization, VSIDS variable
//! activities with an indexed binary heap, phase saving, Luby-sequence
//! restarts, activity-driven learnt-clause database reduction, on-the-fly
//! binary-clause subsumption, and an inprocessing sweep
//! ([`SatSolver::inprocess_sweep`]) that simplifies, subsumes,
//! strengthens and vivifies the clause database between queries.
//!
//! The solver is **incremental**: every solve backtracks to the root
//! decision level instead of tearing the instance down, so callers can
//! keep adding clauses ([`SatSolver::add_clause_slice`]) and variables
//! ([`SatSolver::ensure_num_vars`]) between solves while learnt clauses,
//! variable activities and saved phases carry over. Related queries are
//! posed with [`SatSolver::solve_under_assumptions`], which decides the
//! given literals first (MiniSat's assumption mechanism); on an
//! assumption-caused `Unsat` the failing-assumption core is available
//! through [`SatSolver::failed_assumptions`].
//!
//! Heuristics are configurable through [`SolverConfig`] — restart base
//! and offset, initial-phase polarity seeding, activity-noise seeding —
//! which is what the portfolio layer in [`crate::solver`] varies across
//! racing clones. A solve can be cancelled from another thread via
//! [`SatSolver::solve_under_assumptions_abortable`].
//!
//! The solver is deliberately self-contained (no `unsafe`, no external
//! dependencies) — it is the substrate on which every Lightyear local check
//! and every Minesweeper monolithic query in this workspace is decided.

use crate::cnf::{Cnf, Lit, Var};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

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
    /// [`SatSolver::set_arena_cap_words`]).
    ArenaExhausted {
        /// Words the arena would have needed for the failed allocation.
        requested_words: u64,
        /// The cap in force when the allocation failed.
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

/// Heuristic and inprocessing knobs. [`SolverConfig::default`] is the
/// tuned configuration every production path uses;
/// [`SolverConfig::plain`] disables the inprocessing features (the
/// ablation baseline the benches and differential proptests compare
/// against); [`SolverConfig::jittered`] derives the perturbed variants
/// the portfolio races.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Conflicts allowed before the first restart (scaled by Luby).
    pub restart_base: u64,
    /// Starting index into the Luby sequence (portfolio jitter).
    pub restart_offset: u64,
    /// Initial saved phase for fresh variables.
    pub init_phase: bool,
    /// When nonzero, fresh variables get pseudorandom initial phases
    /// seeded here instead of `init_phase` (portfolio jitter).
    pub phase_seed: u64,
    /// When nonzero, fresh variables get tiny pseudorandom initial
    /// activities, perturbing the VSIDS tie-break order (portfolio
    /// jitter: a different exploration order over equal-activity vars).
    pub activity_seed: u64,
    /// VSIDS decay factor.
    pub var_decay: f64,
    /// Learn through an existing binary clause instead of attaching a
    /// subsumed learnt clause (on-the-fly binary subsumption).
    pub otf_subsume: bool,
    /// Enable the periodic inprocessing sweep (consulted by the session
    /// layer; the solver itself sweeps only when asked).
    pub sweep: bool,
    /// Queries between sweeps (session layer).
    pub sweep_every: u64,
    /// Unit-propagation budget per sweep for vivification.
    pub viv_budget: u64,
    /// Only vivify learnt clauses up to this many literals.
    pub viv_max_len: usize,
    /// Vivify at most this many clauses per sweep (most active first).
    pub viv_max_clauses: usize,
    /// Bypass the watcher lists' inline slots and heap-allocate every
    /// list (the pre-flat-layout `Vec`-per-literal behavior). Strictly
    /// slower; exists so [`SolverConfig::plain`] reproduces the old
    /// feed cost and the ablation benches measure the layout win
    /// honestly.
    pub spill_watchers: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            restart_base: 100,
            restart_offset: 0,
            init_phase: false,
            phase_seed: 0,
            activity_seed: 0,
            var_decay: 0.95,
            otf_subsume: true,
            sweep: true,
            sweep_every: 32,
            viv_budget: 2000,
            viv_max_len: 16,
            viv_max_clauses: 64,
            spill_watchers: false,
        }
    }
}

impl SolverConfig {
    /// The plain CDCL loop: no on-the-fly subsumption, no sweeps. The
    /// pre-inprocessing baseline for ablation benches and differential
    /// proptests.
    pub fn plain() -> Self {
        SolverConfig {
            otf_subsume: false,
            sweep: false,
            spill_watchers: true,
            ..SolverConfig::default()
        }
    }

    /// The `variant`-th jittered configuration for a portfolio race
    /// seeded by `seed`. Variant 0 is the base configuration unchanged
    /// (so a race is never strictly worse than the sequential solver on
    /// the search it would have run); higher variants perturb polarity,
    /// restart schedule, and VSIDS decay.
    pub fn jittered(&self, variant: usize, seed: u64) -> Self {
        if variant == 0 {
            return self.clone();
        }
        let decays = [0.95, 0.92, 0.975, 0.90];
        let mut cfg = self.clone();
        cfg.restart_offset = self.restart_offset + variant as u64;
        cfg.phase_seed = splitmix64(seed ^ (variant as u64).wrapping_mul(0x9e37_79b9)).max(1);
        cfg.activity_seed = splitmix64(cfg.phase_seed).max(1);
        cfg.var_decay = decays[variant % decays.len()];
        cfg
    }
}

/// One round of splitmix64 — the solver's only pseudorandomness, used
/// for seeded phase/activity jitter. Deterministic per seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

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
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Learnt clauses dropped because an existing binary clause
    /// subsumes them (on-the-fly at learn time, plus sweep passes).
    pub subsumed: u64,
    /// Literals removed from learnt clauses by binary self-subsumption
    /// during sweeps.
    pub strengthened: u64,
    /// Learnt clauses shortened by propagation-based vivification.
    pub vivified: u64,
    /// Inprocessing sweeps performed.
    pub sweeps: u64,
    /// Unit propagations spent inside vivification (not counted in
    /// `propagations`, so per-query deltas stay meaningful).
    pub viv_propagations: u64,
}

/// Arena and watcher occupancy, for memory-bound assertions (the
/// session-churn stress tests) and the profile report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Live (non-deleted) clauses in the arena.
    pub live_clauses: u64,
    /// Live learnt clauses.
    pub live_learnts: u64,
    /// Live learnt clauses longer than two literals.
    pub live_long_learnts: u64,
    /// Total arena words, including tombstoned clauses awaiting
    /// compaction.
    pub arena_words: u64,
    /// Arena words wasted by tombstones.
    pub wasted_words: u64,
    /// Total entries across all watcher lists.
    pub watcher_entries: u64,
}

/// Flat clause storage: every clause is `[header, activity, lits...]`
/// in one contiguous `u32` buffer. The header packs `len << 4 | flags`;
/// deleting a clause sets a flag and leaves a tombstone whose space is
/// reclaimed by [`SatSolver::inprocess_sweep`]'s compaction.
#[derive(Clone, Default)]
struct ClauseDb {
    data: Vec<u32>,
    wasted: u64,
}

const FLAG_DELETED: u32 = 1;
const FLAG_LEARNT: u32 = 2;
const HEADER_WORDS: usize = 2;

impl ClauseDb {
    /// Allocate a clause, refusing — with **no partial state** — when
    /// the arena would grow past `cap` words. `ClauseRef` offsets are
    /// `u32`; unchecked growth past that range used to wrap the offset
    /// cast and alias earlier clauses.
    fn alloc(&mut self, lits: &[Lit], learnt: bool, cap: u32) -> Option<ClauseRef> {
        debug_assert!(lits.len() >= 2);
        let needed = self.data.len() as u64 + (HEADER_WORDS + lits.len()) as u64;
        if needed > cap as u64 {
            return None;
        }
        let c = self.data.len() as ClauseRef;
        let flags = if learnt { FLAG_LEARNT } else { 0 };
        self.data.push((lits.len() as u32) << 4 | flags);
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.0));
        Some(c)
    }

    fn len(&self, c: ClauseRef) -> usize {
        (self.data[c as usize] >> 4) as usize
    }

    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & FLAG_DELETED != 0
    }

    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & FLAG_LEARNT != 0
    }

    fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.data[c as usize] |= FLAG_DELETED;
        self.wasted += (HEADER_WORDS + self.len(c)) as u64;
    }

    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit(self.data[c as usize + HEADER_WORDS + k])
    }

    fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }

    fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c as usize + 1])
    }

    fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.data[c as usize + 1] = a.to_bits();
    }

    /// Offset of the clause following `c` (tombstones keep their length,
    /// so the arena stays walkable).
    fn next(&self, c: ClauseRef) -> ClauseRef {
        c + (HEADER_WORDS + self.len(c)) as ClauseRef
    }

    /// Visit every live clause header offset.
    fn for_each_live(&self, mut f: impl FnMut(ClauseRef)) {
        let mut c = 0u32;
        while (c as usize) < self.data.len() {
            if !self.is_deleted(c) {
                f(c);
            }
            c = self.next(c);
        }
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
#[derive(Clone, Default)]
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
        // Entries are head[0..head_len] followed by the spill, in
        // either attachment mode.
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

    /// Append an entry. `spill` forces the heap path (the
    /// [`SolverConfig::spill_watchers`] ablation); the inline slots are
    /// otherwise only skipped once the spill is in use, keeping the
    /// head-then-spill order contiguous.
    #[inline]
    fn push_entry(&mut self, e: u64, spill: bool) {
        if !spill && self.head_len < 2 && self.spill.is_empty() {
            self.head[self.head_len as usize] = e;
            self.head_len += 1;
        } else {
            self.spill.push(e);
        }
    }

    fn push(&mut self, cref: ClauseRef, blocker: Lit, spill: bool) {
        self.push_entry((blocker.0 as u64) << 32 | cref as u64, spill);
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

    fn append_from(&mut self, other: &WatchList, spill: bool) {
        for i in 0..other.len() {
            self.push_entry(other.get(i), spill);
        }
    }
}

/// The CDCL solver.
#[derive(Clone)]
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
    cla_inc: f32,
    heap: OrderHeap,
    seen: Vec<bool>,
    scratch: Vec<Lit>, // add_clause normalization buffer
    ok: bool,          // false once a top-level conflict is found
    stats: SatStats,
    max_learnts: f64,
    config: SolverConfig,
    /// Clause-arena size ceiling in words ([`ARENA_CAP_WORDS`] in
    /// production; tests lower it to force near-capacity growth).
    arena_cap: u32,
    /// Latched capacity failure: once set, every solve refuses a
    /// verdict (the abortable entry point returns `None`).
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

fn pair_key(a: Lit, b: Lit) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    (lo as u64) << 32 | hi as u64
}

impl SatSolver {
    /// Create a solver over `num_vars` variables with the default
    /// configuration.
    pub fn new(num_vars: u32) -> Self {
        SatSolver::with_config(num_vars, SolverConfig::default())
    }

    /// Create a solver with an explicit [`SolverConfig`].
    pub fn with_config(num_vars: u32, config: SolverConfig) -> Self {
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
            cla_inc: 1.0,
            heap: OrderHeap::new(0),
            seen: Vec::new(),
            scratch: Vec::new(),
            ok: true,
            stats: SatStats::default(),
            max_learnts: 0.0,
            config,
            arena_cap: ARENA_CAP_WORDS,
            arena_error: None,
            model: Vec::new(),
            conflict_core: Vec::new(),
        };
        s.ensure_num_vars(num_vars);
        s
    }

    /// Back to the state of [`SatSolver::new`]`(0)` — no variables, no
    /// clauses, default configuration and arena cap, zeroed statistics —
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
            cla_inc,
            heap,
            seen,
            scratch,
            ok,
            stats,
            max_learnts,
            config,
            arena_cap,
            arena_error,
            model,
            conflict_core,
        } = self;
        db.data.clear();
        db.wasted = 0;
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
        *cla_inc = 1.0;
        heap.heap.clear();
        heap.pos.clear();
        seen.clear();
        scratch.clear();
        *ok = true;
        *stats = SatStats::default();
        *max_learnts = 0.0;
        *config = SolverConfig::default();
        *arena_cap = ARENA_CAP_WORDS;
        *arena_error = None;
        model.clear();
        conflict_core.clear();
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Replace the configuration (heuristic knobs only; sound at any
    /// point between solves).
    pub fn set_config(&mut self, config: SolverConfig) {
        self.config = config;
    }

    /// Re-seed heuristic state on an existing solver per the configured
    /// phase/activity seeds — how a freshly cloned portfolio variant
    /// diverges from its siblings. Touches saved phases and VSIDS
    /// activities only; verdicts are unaffected.
    pub fn apply_jitter(&mut self) {
        if self.config.phase_seed != 0 {
            for v in 0..self.phase.len() {
                if self.assigns[v] == LBool::Undef {
                    self.phase[v] = splitmix64(self.config.phase_seed ^ v as u64) & 1 == 1;
                }
            }
        }
        if self.config.activity_seed != 0 {
            for v in 0..self.activity.len() {
                let r = splitmix64(self.config.activity_seed ^ v as u64);
                self.activity[v] += (r % 1024) as f64 * (self.var_inc / 1_000_000.0);
            }
            self.heap.heapify(&self.activity);
        }
    }

    /// Number of variables the solver currently knows about.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Grow the variable tables to hold at least `n` variables. New
    /// variables start unassigned; their initial phase and activity
    /// follow the configured polarity/activity seeds. Used by
    /// incremental callers whose formula grows between solves.
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
        self.phase.resize(n, self.config.init_phase);
        if self.config.phase_seed != 0 {
            for v in cur..n {
                self.phase[v] = splitmix64(self.config.phase_seed ^ v as u64) & 1 == 1;
            }
        }
        self.level.resize(n, 0);
        self.reason.resize(n, REASON_NONE);
        self.activity.resize(n, 0.0);
        if self.config.activity_seed != 0 {
            for v in cur..n {
                // Tiny noise: reorders equal-activity ties without
                // outweighing a single real bump.
                let r = splitmix64(self.config.activity_seed ^ v as u64);
                self.activity[v] = (r % 1024) as f64 * (self.var_inc / 1_000_000.0);
            }
        }
        self.seen.resize(n, false);
        for v in cur..n {
            self.heap.push_new(v);
        }
        if self.config.activity_seed != 0 {
            self.heap.heapify(&self.activity);
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

    /// Clause-arena and watcher-list occupancy (memory accounting).
    pub fn db_stats(&self) -> DbStats {
        let mut d = DbStats {
            arena_words: self.db.data.len() as u64,
            wasted_words: self.db.wasted,
            watcher_entries: self.watches.iter().map(|w| w.len() as u64).sum(),
            ..DbStats::default()
        };
        self.db.for_each_live(|c| {
            d.live_clauses += 1;
            if self.db.is_learnt(c) {
                d.live_learnts += 1;
                if self.db.len(c) > 2 {
                    d.live_long_learnts += 1;
                }
            }
        });
        d
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

    /// Add a clause from a borrowed slice — the allocation-free feed the
    /// incremental session uses to stream bit-blaster output straight
    /// into the arena. Returns `false` if the formula became trivially
    /// unsatisfiable (conflict at decision level 0).
    pub fn add_clause_slice(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        // Normalize into the scratch buffer: drop duplicate and false
        // literals, detect tautologies and satisfied clauses. Clauses
        // are short (Tseitin output is 2-3 literals), so the quadratic
        // duplicate scan beats sorting an owned copy.
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
        if !ok {
            self.scratch = scratch;
            return true;
        }
        let result = match scratch.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(scratch[0], REASON_NONE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                // On arena exhaustion the clause is NOT recorded, but the
                // latched error already blocks every future verdict, so
                // the dropped clause can never be observed.
                let _ = self.attach_clause(&scratch, false);
                true
            }
        };
        self.scratch = scratch;
        result
    }

    /// `None` when the clause arena is full: nothing is allocated, no
    /// watcher is pushed, and the capacity error is latched on the
    /// solver. Callers must not derive a verdict past a `None`.
    #[must_use]
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> Option<ClauseRef> {
        debug_assert!(lits.len() >= 2);
        let Some(cref) = self.db.alloc(lits, learnt, self.arena_cap) else {
            self.arena_error = Some(SolverError::ArenaExhausted {
                requested_words: self.db.data.len() as u64 + (HEADER_WORDS + lits.len()) as u64,
                cap_words: self.arena_cap,
            });
            return None;
        };
        let spill = self.config.spill_watchers;
        self.watches[(!lits[0]).index()].push(cref, lits[1], spill);
        self.watches[(!lits[1]).index()].push(cref, lits[0], spill);
        if learnt {
            self.stats.learnts += 1;
        }
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
    /// [`SatSolver::solve_under_assumptions_abortable`] returns `None`
    /// without searching and the non-abortable entry points panic with
    /// the typed message instead of returning a possibly-unsound
    /// verdict.
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
        let spill = self.config.spill_watchers;
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
                if self.db.is_deleted(cref) {
                    ws.swap_remove(i);
                    continue;
                }
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
                        self.watches[(!lk).index()].push(cref, first, spill);
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
            ws.append_from(&appended, spill);
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
        self.var_inc /= self.config.var_decay;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        let a = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, a);
        if a > 1e20 {
            let mut c = 0u32;
            while (c as usize) < self.db.data.len() {
                let scaled = self.db.activity(c) * 1e-20;
                self.db.set_activity(c, scaled);
                c = self.db.next(c);
            }
            self.cla_inc *= 1e-20;
        }
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
            self.cla_bump(cref);
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

    /// An existing binary clause `{learnt[0], q}` (for some other
    /// `q` in the learnt clause) subsumes the clause about to be learnt
    /// and — because `q` is false after the backjump — can serve
    /// directly as the asserting reason. Binaries watch both their
    /// literals forever (a two-literal clause has no third literal to
    /// migrate to), so scanning `learnt[0]`'s watcher list finds every
    /// candidate without any auxiliary index on the clause-feed path.
    /// Returns the binary's cref with `learnt[0]` moved to position 0.
    fn subsuming_binary(&mut self, learnt: &[Lit]) -> Option<ClauseRef> {
        if !self.config.otf_subsume || learnt.len() < 3 || learnt.len() > 32 {
            return None;
        }
        let l0 = learnt[0];
        let ws = &self.watches[(!l0).index()];
        let mut found = None;
        for k in 0..ws.len() {
            let cref = ws.cref(k);
            if self.db.is_deleted(cref) || self.db.len(cref) != 2 {
                continue;
            }
            let (a, b) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
            let other = if a == l0 {
                b
            } else if b == l0 {
                a
            } else {
                continue;
            };
            if learnt[1..].contains(&other) {
                found = Some(cref);
                break;
            }
        }
        let bref = found?;
        // Binary watch lists are symmetric in both literals, so swapping
        // positions keeps the watch invariant intact.
        if self.db.lit(bref, 0) != l0 {
            self.db.swap_lits(bref, 0, 1);
        }
        Some(bref)
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

    /// Remove the less active half of the (non-binary, unlocked) learnt
    /// clauses — the in-search reduction, expressed as a cap.
    fn reduce_db(&mut self) {
        let mut long_learnts = 0u64;
        self.db.for_each_live(|c| {
            if self.db.is_learnt(c) && self.db.len(c) > 2 {
                long_learnts += 1;
            }
        });
        self.reduce_learnts_to(self.stats.learnts.saturating_sub(long_learnts / 2));
    }

    /// Shrink the learnt-clause database to at most `cap` clauses,
    /// deleting least-active learnts first (this one routine backs both
    /// the in-search reduction and the session-level GC, so the activity
    /// order and locked-clause rules cannot drift apart). Binary learnt
    /// clauses and clauses currently the reason for an assignment are
    /// kept, so the cap is a target, not a hard guarantee. Deletion
    /// tombstones the clause in the arena; when called at the root level
    /// with enough accumulated waste, the arena is compacted and the
    /// watcher lists rebuilt, so a capped long-lived session's memory
    /// stays proportional to its live clause set.
    pub fn reduce_learnts_to(&mut self, cap: u64) {
        if self.stats.learnts > cap {
            let mut learnt_refs: Vec<ClauseRef> = Vec::new();
            self.db.for_each_live(|c| {
                if self.db.is_learnt(c) && self.db.len(c) > 2 {
                    learnt_refs.push(c);
                }
            });
            learnt_refs.sort_by(|&a, &b| {
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &c in &learnt_refs {
                if self.stats.learnts <= cap {
                    break;
                }
                let locked = (0..2).any(|k| {
                    let l = self.db.lit(c, k);
                    self.reason[l.var().0 as usize] == c && self.value_lit(l) == LBool::True
                });
                if locked {
                    continue;
                }
                self.db.delete(c);
                self.stats.learnts = self.stats.learnts.saturating_sub(1);
            }
        }
        // Reclaim tombstone space once it dominates; root level only,
        // since compaction rewrites the reason references.
        if self.decision_level() == 0 && self.db.wasted * 4 > self.db.data.len() as u64 {
            self.compact();
        }
    }

    /// Rebuild the arena without tombstones and the watcher lists from
    /// scratch. Root level only. Reasons of root-level assignments are
    /// dropped (they are never dereferenced: conflict analysis skips
    /// level-0 variables).
    fn compact(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for &l in &self.trail {
            self.reason[l.var().0 as usize] = REASON_NONE;
        }
        let old = std::mem::take(&mut self.db);
        let mut live: Vec<ClauseRef> = Vec::new();
        old.for_each_live(|c| live.push(c));
        self.db.data.reserve(old.data.len() - old.wasted as usize);
        for w in &mut self.watches {
            w.clear();
        }
        let spill = self.config.spill_watchers;
        for c in live {
            let len = old.len(c);
            let start = c as usize + HEADER_WORDS;
            let lits: Vec<Lit> = old.data[start..start + len]
                .iter()
                .map(|&r| Lit(r))
                .collect();
            let learnt = old.is_learnt(c);
            let nc = self
                .db
                .alloc(&lits, learnt, ARENA_CAP_WORDS)
                .expect("compaction never grows the arena");
            self.db.set_activity(nc, old.activity(c));
            self.watches[(!lits[0]).index()].push(nc, lits[1], spill);
            self.watches[(!lits[1]).index()].push(nc, lits[0], spill);
        }
    }

    /// One inprocessing sweep over the clause database, between queries
    /// (root level only; no-op otherwise):
    ///
    /// 1. **Simplify** by the root-level assignment: clauses with a true
    ///    literal are deleted, false literals are removed.
    /// 2. **Subsume / strengthen** long learnt clauses against the
    ///    binary-clause map (backward subsumption and binary
    ///    self-subsumption).
    /// 3. **Compact** the arena and rebuild the watcher lists.
    /// 4. **Vivify** the most active long learnt clauses under a
    ///    propagation budget: re-derive each clause by asserting the
    ///    negation of its literals one at a time; a conflict or implied
    ///    literal along the way proves a shorter clause.
    pub fn inprocess_sweep(&mut self) {
        if self.decision_level() != 0 || !self.ok {
            return;
        }
        self.stats.sweeps += 1;
        // Transient binary index for the subsumption passes, built once
        // per sweep (the feed path deliberately maintains no such index).
        let mut bin_map: HashMap<u64, ClauseRef> = HashMap::new();
        self.db.for_each_live(|c| {
            if self.db.len(c) == 2 {
                bin_map
                    .entry(pair_key(self.db.lit(c, 0), self.db.lit(c, 1)))
                    .or_insert(c);
            }
        });
        // Pass 1+2: mark deletions and rewrites.
        let mut rewrites: Vec<(ClauseRef, Vec<Lit>)> = Vec::new();
        let mut units: Vec<Lit> = Vec::new();
        let mut empty = false;
        let mut to_delete: Vec<ClauseRef> = Vec::new();
        let mut lits: Vec<Lit> = Vec::new();
        let end = self.db.data.len();
        let mut c = 0u32;
        while (c as usize) < end {
            let cref = c;
            c = self.db.next(cref);
            if self.db.is_deleted(cref) {
                continue;
            }
            let len = self.db.len(cref);
            lits.clear();
            let mut satisfied = false;
            for k in 0..len {
                let l = self.db.lit(cref, k);
                match self.value_lit(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => continue,
                    LBool::Undef => lits.push(l),
                }
            }
            if satisfied {
                to_delete.push(cref);
                continue;
            }
            let learnt = self.db.is_learnt(cref);
            // Binary-map passes for long learnt clauses.
            if learnt && lits.len() >= 3 && lits.len() <= 32 {
                let mut subsumed = false;
                'pairs: for i in 0..lits.len() {
                    for j in (i + 1)..lits.len() {
                        if let Some(&bref) = bin_map.get(&pair_key(lits[i], lits[j])) {
                            if bref != cref && !self.db.is_deleted(bref) {
                                subsumed = true;
                                break 'pairs;
                            }
                        }
                    }
                }
                if subsumed {
                    self.stats.subsumed += 1;
                    to_delete.push(cref);
                    continue;
                }
                // Self-subsumption: a binary {!l, q} with q also in the
                // clause resolves away l.
                let mut i = 0;
                while i < lits.len() {
                    let l = lits[i];
                    let mut drop = false;
                    for (j, &q) in lits.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        if let Some(&bref) = bin_map.get(&pair_key(!l, q)) {
                            if !self.db.is_deleted(bref) {
                                drop = true;
                                break;
                            }
                        }
                    }
                    if drop {
                        lits.swap_remove(i);
                        self.stats.strengthened += 1;
                    } else {
                        i += 1;
                    }
                }
            }
            match lits.len().cmp(&len) {
                std::cmp::Ordering::Equal => {}
                _ => {
                    match lits.len() {
                        0 => empty = true,
                        1 => units.push(lits[0]),
                        _ => rewrites.push((cref, lits.clone())),
                    }
                    to_delete.push(cref);
                }
            }
        }
        for cref in to_delete {
            if self.db.is_learnt(cref) {
                self.stats.learnts = self.stats.learnts.saturating_sub(1);
            }
            self.db.delete(cref);
        }
        for (cref, new_lits) in rewrites {
            let learnt = self.db.is_learnt(cref);
            let act = self.db.activity(cref);
            match self.attach_clause(&new_lits, learnt) {
                Some(nc) => self.db.set_activity(nc, act),
                // Arena full mid-rewrite: the original clause is already
                // tombstoned, but the latched error blocks every future
                // verdict, so stop sweeping and bail out.
                None => return,
            }
        }
        if empty {
            self.ok = false;
            return;
        }
        // Pass 3: compact and rebuild watches.
        self.compact();
        for u in units {
            if self.value_lit(u) == LBool::False {
                self.ok = false;
                return;
            }
            if self.value_lit(u) == LBool::Undef {
                self.unchecked_enqueue(u, REASON_NONE);
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        // Pass 4: vivification, under a propagation budget. Phases are
        // snapshotted so the probe assignments don't pollute phase
        // saving (keeps the subsequent search deterministic w.r.t. a
        // sweep-free run of the same query order).
        if self.config.viv_budget > 0 {
            self.vivify();
        }
    }

    fn vivify(&mut self) {
        let mut candidates: Vec<(ClauseRef, f32)> = Vec::new();
        self.db.for_each_live(|c| {
            let len = self.db.len(c);
            if self.db.is_learnt(c) && len >= 3 && len <= self.config.viv_max_len {
                candidates.push((c, self.db.activity(c)));
            }
        });
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(self.config.viv_max_clauses);
        if candidates.is_empty() {
            return;
        }
        let saved_phase = self.phase.clone();
        let saved = self.stats;
        let budget = self.config.viv_budget;
        let mut spent = 0u64;
        for (cref, _) in candidates {
            if spent >= budget || !self.ok {
                break;
            }
            if self.db.is_deleted(cref) {
                continue;
            }
            let len = self.db.len(cref);
            let lits: Vec<Lit> = (0..len).map(|k| self.db.lit(cref, k)).collect();
            let before = self.stats.propagations;
            let mut kept: Vec<Lit> = Vec::with_capacity(len);
            let mut changed = false;
            for &l in &lits {
                match self.value_lit(l) {
                    LBool::True => {
                        // (kept -> l) is implied: the clause shrinks to
                        // kept + l.
                        kept.push(l);
                        changed = true;
                        break;
                    }
                    LBool::False => {
                        // !l is implied by the kept prefix: drop l.
                        changed = true;
                        continue;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(!l, REASON_NONE);
                        let confl = self.propagate().is_some();
                        kept.push(l);
                        if confl {
                            changed = kept.len() < lits.len();
                            break;
                        }
                    }
                }
            }
            self.cancel_until(0);
            spent += self.stats.propagations - before;
            if changed && kept.len() < lits.len() {
                self.db.delete(cref);
                self.stats.vivified += 1;
                match kept.len() {
                    0 => {
                        self.ok = false;
                    }
                    1 => {
                        self.stats.learnts = self.stats.learnts.saturating_sub(1);
                        match self.value_lit(kept[0]) {
                            LBool::False => self.ok = false,
                            LBool::True => {}
                            LBool::Undef => {
                                self.unchecked_enqueue(kept[0], REASON_NONE);
                                if self.propagate().is_some() {
                                    self.ok = false;
                                }
                            }
                        }
                    }
                    _ => {
                        let act = self.db.activity(cref);
                        let Some(nc) = self.attach_clause(&kept, true) else {
                            break; // arena full: latched, stop vivifying
                        };
                        // attach_clause counted a new learnt; the old one
                        // was deleted, so the net count is unchanged.
                        self.stats.learnts = self.stats.learnts.saturating_sub(1);
                        self.db.set_activity(nc, act);
                    }
                }
            }
        }
        // Vivification work is accounted separately so per-query deltas
        // (and differential stats tests) stay meaningful.
        let viv_props = self.stats.propagations - saved.propagations;
        self.stats.propagations = saved.propagations;
        self.stats.decisions = saved.decisions;
        self.stats.viv_propagations += viv_props;
        self.phase = saved_phase;
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
        match self.solve_under_assumptions_abortable(assumptions, None) {
            Some(outcome) => outcome,
            None => match self.arena_error() {
                Some(e) => panic!("SAT solver refused a verdict: {e}"),
                None => unreachable!("non-abortable solve cannot be aborted"),
            },
        }
    }

    /// [`SatSolver::solve_under_assumptions`] with a cooperative abort
    /// flag: when `abort` is set (by a racing portfolio sibling), the
    /// search unwinds to the root and returns `None`. All state stays
    /// consistent — clauses learnt before the abort are kept and the
    /// solver remains usable.
    ///
    /// Also returns `None` — before and after any search — once the
    /// clause arena has hit its capacity cap; the typed reason is then
    /// available via [`SatSolver::arena_error`].
    pub fn solve_under_assumptions_abortable(
        &mut self,
        assumptions: &[Lit],
        abort: Option<&AtomicBool>,
    ) -> Option<SolveOutcome> {
        debug_assert_eq!(self.decision_level(), 0);
        self.model.clear();
        self.conflict_core.clear();
        if self.arena_error.is_some() {
            // A past allocation failure may have dropped a clause; any
            // verdict from this instance would be untrustworthy.
            return None;
        }
        if !self.ok {
            return Some(SolveOutcome::Unsat);
        }
        self.max_learnts = (self.db.data.len() as f64 / 16.0).max(1000.0);
        let mut restart_idx = self.config.restart_offset;
        let mut conflicts_budget = self.config.restart_base * luby(restart_idx);
        let mut abort_check = 0u32;

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
                } else if let Some(bref) = self.subsuming_binary(&learnt) {
                    // On-the-fly binary subsumption: the binary clause
                    // both subsumes the would-be learnt clause and is
                    // asserting after the backjump, so learn nothing and
                    // use it as the reason directly.
                    self.stats.subsumed += 1;
                    self.unchecked_enqueue(learnt[0], bref);
                } else {
                    let asserting = learnt[0];
                    match self.attach_clause(&learnt, true) {
                        Some(cref) => self.unchecked_enqueue(asserting, cref),
                        None => {
                            // Arena full: the learnt clause cannot be
                            // attached, and the asserting literal has no
                            // reason without it. Unwind and refuse.
                            self.cancel_until(0);
                            return None;
                        }
                    }
                }
                self.var_decay();
                self.cla_inc *= 1.001;
                conflicts_budget = conflicts_budget.saturating_sub(1);
                abort_check += 1;
                if abort_check >= 64 {
                    abort_check = 0;
                    if let Some(flag) = abort {
                        if flag.load(Ordering::Relaxed) {
                            self.cancel_until(0);
                            return None;
                        }
                    }
                }
            } else {
                if conflicts_budget == 0 {
                    // Restart (assumptions are re-decided below).
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_budget = self.config.restart_base * luby(restart_idx);
                    self.cancel_until(0);
                    if let Some(flag) = abort {
                        if flag.load(Ordering::Relaxed) {
                            return None;
                        }
                    }
                }
                if self.stats.learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
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
        Some(outcome)
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
#[derive(Clone)]
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

    /// Restore the heap property after a batch of out-of-band activity
    /// writes (seeded jitter).
    fn heapify(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
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
        // u32 ceiling would. Cap = 8 words: one ternary clause (2
        // header + 3 lits = 5 words) fits, the next does not.
        let mut s = SatSolver::new(6);
        s.set_arena_cap_words(8);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos(), Var(2).pos()]));
        assert!(s.arena_error().is_none());
        assert!(s.add_clause(vec![Var(3).pos(), Var(4).pos(), Var(5).pos()]));
        let err = s.arena_error().cloned().expect("cap must latch");
        match err {
            SolverError::ArenaExhausted {
                requested_words,
                cap_words,
            } => {
                assert_eq!(cap_words, 8);
                assert_eq!(requested_words, 10); // 5 live + 5 requested
            }
            other => panic!("the arena cap latches an arena error, not {other:?}"),
        }
        // Every further solve refuses a verdict; state stays consistent.
        assert_eq!(s.solve_under_assumptions_abortable(&[], None), None);
        assert_eq!(
            s.solve_under_assumptions_abortable(&[Var(0).pos()], None),
            None
        );
        assert!(s.arena_error().is_some());
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
    fn arena_cap_learnt_clause_refuses_mid_search() {
        // Leave room for the original clauses but nothing else, then
        // pose a query that must learn: the learn-path allocation fails
        // and the solve refuses rather than mis-attach.
        let clauses: &[&[i32]] = &[
            &[1, 2],
            &[3, 4],
            &[5, 6],
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ];
        let mut s = SatSolver::new(6);
        let mut words = 0u32;
        for c in clauses {
            words += (HEADER_WORDS + c.len()) as u32;
            let lits: Vec<Lit> = c
                .iter()
                .map(|&x| Var(x.unsigned_abs() - 1).lit(x > 0))
                .collect();
            assert!(s.add_clause(lits));
        }
        s.set_arena_cap_words(words); // exactly full: no learnt fits
        let out = s.solve_under_assumptions_abortable(&[], None);
        if out.is_none() {
            assert!(matches!(
                s.arena_error(),
                Some(SolverError::ArenaExhausted { .. })
            ));
        } else {
            // The solver may finish the pigeonhole proof through
            // binary subsumption without attaching a long learnt; the
            // verdict must then be the correct one.
            assert_eq!(out, Some(SolveOutcome::Unsat));
        }
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
    fn reduce_learnts_to_bounds_the_database() {
        // A formula hard enough to learn from: pigeonhole 4 into 3.
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        // Whatever was learnt, the GC caps it (binary learnts may stay).
        s.reduce_learnts_to(0);
        assert_eq!(
            s.db_stats().live_long_learnts,
            0,
            "non-binary learnts must be GCed"
        );
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
    fn plain_and_default_configs_agree() {
        // The inprocessing features must not change verdicts.
        let mut a = pigeonhole(5, 4);
        let mut b = SatSolver::with_config(5 * 4, SolverConfig::plain());
        // Rebuild the same formula into b.
        let var = |p: u32, h: u32| Var(p * 4 + h);
        for p in 0..5u32 {
            assert!(b.add_clause((0..4).map(|h| var(p, h).pos()).collect()));
        }
        for h in 0..4u32 {
            for p1 in 0..5 {
                for p2 in (p1 + 1)..5 {
                    assert!(b.add_clause(vec![var(p1, h).neg(), var(p2, h).neg()]));
                }
            }
        }
        assert_eq!(a.solve(), b.solve());
    }

    #[test]
    fn inprocess_sweep_reclaims_satisfied_clauses() {
        let mut s = SatSolver::new(4);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos(), Var(2).pos()]));
        assert!(s.add_clause(vec![Var(0).neg(), Var(3).pos(), Var(2).pos()]));
        let before = s.db_stats();
        assert_eq!(before.live_clauses, 2);
        // Asserting v2 satisfies both clauses; the sweep must drop them
        // and compact the arena to nothing.
        assert!(s.add_clause(vec![Var(2).pos()]));
        s.inprocess_sweep();
        let after = s.db_stats();
        assert_eq!(after.live_clauses, 0);
        assert_eq!(after.arena_words, 0);
        assert_eq!(after.watcher_entries, 0);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(Var(2)));
    }

    #[test]
    fn inprocess_sweep_strengthens_by_root_assignment() {
        let mut s = SatSolver::new(4);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos(), Var(2).pos()]));
        assert!(s.add_clause(vec![Var(0).pos()])); // does not touch the ternary
        assert!(s.add_clause(vec![Var(1).neg()])); // falsifies v1 in the ternary
        s.inprocess_sweep();
        let d = s.db_stats();
        // The ternary shrank to (v0 \/ v2)... which is satisfied at root
        // by v0 — so it must have been deleted outright.
        assert_eq!(d.live_clauses, 0);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(Var(0)) && !s.value(Var(1)));
    }

    #[test]
    fn sweep_preserves_verdicts_on_unsat_instance() {
        let mut s = pigeonhole(5, 4);
        s.inprocess_sweep();
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn sweep_between_assumption_queries_preserves_answers() {
        let mut s = SatSolver::new(3);
        let (a, b, c) = (Var(0), Var(1), Var(2));
        assert!(s.add_clause(vec![a.neg(), b.pos()]));
        assert!(s.add_clause(vec![b.neg(), c.pos()]));
        assert_eq!(
            s.solve_under_assumptions(&[a.pos(), c.neg()]),
            SolveOutcome::Unsat
        );
        s.inprocess_sweep();
        assert_eq!(
            s.solve_under_assumptions(&[a.pos(), c.neg()]),
            SolveOutcome::Unsat
        );
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&a.pos()) && core.contains(&c.neg()));
        assert_eq!(
            s.solve_under_assumptions(&[a.pos(), c.pos()]),
            SolveOutcome::Sat
        );
    }

    #[test]
    fn jittered_configs_agree_on_verdicts() {
        for variant in 0..4usize {
            let cfg = SolverConfig::default().jittered(variant, 0xfeed);
            let mut s = SatSolver::with_config(5 * 4, cfg);
            let var = |p: u32, h: u32| Var(p * 4 + h);
            for p in 0..5u32 {
                assert!(s.add_clause((0..4).map(|h| var(p, h).pos()).collect()));
            }
            for h in 0..4u32 {
                for p1 in 0..5 {
                    for p2 in (p1 + 1)..5 {
                        assert!(s.add_clause(vec![var(p1, h).neg(), var(p2, h).neg()]));
                    }
                }
            }
            assert_eq!(s.solve(), SolveOutcome::Unsat, "variant {variant}");
        }
    }

    #[test]
    fn abort_flag_cancels_search() {
        let mut s = pigeonhole(8, 7);
        let abort = AtomicBool::new(true); // pre-set: abort at first check
        let out = s.solve_under_assumptions_abortable(&[], Some(&abort));
        assert_eq!(out, None);
        // Solver remains usable after the abort.
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn clone_races_to_the_same_verdict() {
        let mut a = pigeonhole(6, 5);
        let mut b = a.clone();
        b.set_config(SolverConfig::default().jittered(1, 42));
        assert_eq!(a.solve(), SolveOutcome::Unsat);
        assert_eq!(b.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn compaction_preserves_model_queries() {
        let mut s = SatSolver::new(6);
        assert!(s.add_clause(vec![Var(0).pos(), Var(1).pos()]));
        assert!(s.add_clause(vec![Var(2).pos(), Var(3).pos(), Var(4).pos()]));
        assert!(s.add_clause(vec![Var(2).neg(), Var(5).pos()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        s.inprocess_sweep();
        assert_eq!(s.solve(), SolveOutcome::Sat);
        // Model still satisfies the original formula.
        assert!(s.value(Var(0)) || s.value(Var(1)));
        assert!(s.value(Var(2)) || s.value(Var(3)) || s.value(Var(4)));
        assert!(!s.value(Var(2)) || s.value(Var(5)));
    }
}
