//! A Minesweeper-style **monolithic** control-plane verifier, used as the
//! baseline in the paper's scaling evaluation (§6.2, Figure 3).
//!
//! Minesweeper ("A General Approach to Network Configuration Verification",
//! SIGCOMM 2017) encodes the *whole network* as one SMT problem: a
//! symbolic route record per directed edge, per-router best-route
//! selection with optimality constraints, and the negated property; a
//! satisfying assignment is a stable routing solution violating the
//! property.
//!
//! Following the paper's methodology, this implementation shares the same
//! parser (`bgp_config`-lowered policies), route-map encoder
//! ([`lightyear::encode`]) and constraint substrate ([`smt`]) as our
//! Lightyear implementation, so Figure 3 compares *encodings*, not
//! toolchains ("For a fair comparison, we created an implementation of
//! Lightyear that is built on top of the same parser and constraint
//! generation system as Minesweeper").
//!
//! Modeling notes:
//!
//! * Single-destination slicing: all route records share one symbolic
//!   prefix (Minesweeper's per-destination-equivalence-class analysis).
//! * Every export increments a symbolic AS-path length, which both drives
//!   the decision process and rules out spurious routing loops in stable
//!   solutions (a loop would force `len = len + k`, unsatisfiable).
//! * External neighbors announce arbitrary symbolic routes, or nothing —
//!   the same "all possible external announcements" semantics Lightyear
//!   provides.

pub mod encode;

pub use encode::{Minesweeper, MsOutcome, MsReport};
