//! A from-scratch SMT substrate for quantifier-free formulas over booleans
//! and fixed-width bitvectors, decided by bit-blasting into CNF and solving
//! with a CDCL SAT solver.
//!
//! This crate plays the role that the Zen library + Z3 play in the Lightyear
//! paper (§6.1): route-map verification conditions are quantifier-free
//! formulas over route attributes (32-bit prefixes, 32-bit integers, finite
//! community sets), which is exactly the fragment that bit-blasting decides.
//!
//! # Architecture
//!
//! * [`term`] — hash-consed term DAG with smart constructors that perform
//!   local simplification (constant folding, flattening, negation pushing).
//! * [`bitblast`] — Tseitin conversion of the term DAG into CNF; bitvector
//!   operations are lowered to per-bit boolean circuits. Sessions emit
//!   only the half of an AND / OR definition a use needs.
//! * [`sat`] — a MiniSat-style CDCL solver: two-watched-literal propagation,
//!   first-UIP conflict analysis, VSIDS decision heuristic with phase
//!   saving and Luby restarts over an additions-only clause database,
//!   whose memory one per-query ceiling on learnt clauses bounds — the
//!   whole kernel, with no settings.
//! * [`solver`] — the public facade: assert [`TermId`]s, check satisfiability
//!   and extract models; also reports the statistics (variable and clause
//!   counts) used to regenerate Figure 3 of the paper.
//!
//! # Example
//!
//! ```
//! use smt::{TermPool, solve, SatResult};
//!
//! let mut pool = TermPool::new();
//! let x = pool.bv_var("x", 8);
//! let five = pool.bv_const(5, 8);
//! let c = pool.bv_ult(x, five); // x < 5
//! match solve(&pool, &[c]) {
//!     SatResult::Sat(model) => assert!(model.eval_bv(&pool, x).unwrap() < 5),
//!     _ => panic!("expected sat"),
//! }
//! ```

pub mod bitblast;
pub mod cnf;
pub mod sat;
pub mod solver;
pub mod term;

pub use bitblast::IncrementalBlaster;
pub use cnf::{Cnf, Lit, Var};
pub use sat::{SatSolver, SatStats, SolveOutcome, SolverError, ARENA_CAP_WORDS};
pub use solver::{
    solve, solve_with_stats, Assumption, IncrementalSession, Model, SatResult, SolverStats, Value,
};
pub use term::{FastMap, Ops, Sort, Term, TermId, TermPool, VarKey};
