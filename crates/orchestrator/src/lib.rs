//! # Check orchestration for WAN-scale verification
//!
//! Lightyear's local checks are self-contained and embarrassingly
//! parallel (design decision D3), but at WAN scale most of them are also
//! *structurally identical*: hundreds of routers instantiate the same
//! route-map template under the same invariant template, so a naive run
//! spends most of its time re-solving the same SMT query under different
//! router names. This crate is the subsystem that exploits that:
//!
//! * [`fingerprint`] — 128-bit structural fingerprints built from a
//!   canonical byte stream. Callers (see `lightyear::engine`) encode the
//!   *resolved check body* — transfer function, assume/ensure
//!   predicates, and the attribute-universe slice — and deliberately
//!   exclude router names, node/edge ids and route-map names, so the
//!   fingerprint is invariant under router/edge renaming and identical
//!   template instantiations collapse to one solver call.
//! * [`cache`] — a sharded fingerprint-keyed result cache with optional
//!   JSON spill to disk, powering cross-router dedup within a run and
//!   incremental re-verification across runs.
//! * [`deque`] + [`executor`] — a work-stealing thread pool (per-worker
//!   deques plus steal-half balancing, `--jobs` configurable) that
//!   hands each result to the caller, tagged with its submission index,
//!   while the remaining jobs are still running.
//! * [`orchestrate`] — the glue: group jobs by fingerprint, consult the
//!   cache, execute one representative per structure, deliver results
//!   to every duplicate as they become known, and report [`RunStats`].
//!
//! ## Fingerprint canonicalization rules
//!
//! A fingerprint must identify the *mathematical content* of a check and
//! nothing else. The rules callers follow:
//!
//! 1. **No identities.** Never write router names, node ids, edge ids,
//!    check ids, or route-map *names*; write route-map *contents*.
//! 2. **Self-delimiting writes.** Every variable-length write is length-
//!    prefixed ([`fingerprint::FpHasher::write_bytes`]) and every
//!    composite is introduced by a tag ([`fingerprint::FpHasher::write_tag`]),
//!    so distinct structures cannot collide by concatenation ambiguity.
//! 3. **Canonical order.** Unordered collections (community sets, ghost
//!    update tables) are written in sorted order; ordered collections
//!    (route-map entries) in their semantic order.
//! 4. **Version the format.** Streams start with a format-version tag;
//!    bump it whenever the encoding of any component changes, which
//!    safely invalidates spilled caches.
//! 5. **Hash the universe slice.** The SMT encoding of a predicate
//!    depends on the attribute universe (community/regex/ghost tables),
//!    so the universe digest is part of every fingerprint; two checks
//!    are only merged when their formulas would be bit-identical.

pub mod cache;
pub mod deque;
pub mod executor;
pub mod fingerprint;
pub mod orchestrate;

pub use cache::{CacheSnapshot, ResultCache};
pub use executor::Executor;
pub use fingerprint::{Fingerprint, FpHasher};
pub use orchestrate::{run_grouped, RunStats};
