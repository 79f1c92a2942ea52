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
//! * [`cache`] — a fingerprint-keyed result cache behind one lock, with
//!   an optional LRU bound and JSON spill to disk, powering cross-router
//!   dedup within a run and incremental re-verification across runs.
//! * [`executor`] — a scoped thread pool (`--jobs` configurable) whose
//!   workers claim jobs in submission order from one shared cursor and
//!   hand each result to the caller, tagged with its submission index,
//!   while the remaining jobs are still running.
//! * [`orchestrate`] — the glue: take the caller's partition of jobs
//!   into structures (equal fingerprints), consult the cache, execute
//!   one representative per structure, deliver results to every
//!   duplicate as they become known, and report [`RunStats`].
//!
//! ## Fingerprint canonicalization rules
//!
//! A fingerprint must identify the *mathematical content* of a check and
//! nothing else. The rules callers follow:
//!
//! 1. **No identities.** Never write router names, node ids, edge ids,
//!    check ids, or route-map *names*; write route-map *contents*.
//! 2. **Prefix-free streams, written by walking the value.** A
//!    composite is introduced by a tag ([`FpHasher::write_tag`], a
//!    length-prefixed string) and a model value is written with
//!    `x.hash(&mut h)` — [`FpHasher`] is a [`std::hash::Hasher`] — never
//!    through a rendering of it. What the standard `Hash` impls emit is
//!    self-delimiting, so distinct structures cannot collide by
//!    concatenation ambiguity: a derived `Hash` on an enum writes the
//!    variant discriminant (an `isize`) before the fields, so `None`,
//!    `Some(None)` and `Some(Some(n))` differ; on a struct, the fields in
//!    declaration order; `Vec<T>`, slices and `BTreeSet<T>` write their
//!    length (a `usize`) before the elements, so `[[a], [b, c]]` and
//!    `[[a, b], [c]]` differ; `str`/`String` write their bytes followed
//!    by `0xff`, which no UTF-8 text contains, so `"ab" "c"` and
//!    `"a" "bc"` differ; `Box<T>` and `&T` are transparent. Every
//!    integer write is overridden to a fixed width in little-endian
//!    order (`usize`/`isize` widen to 64 bits), so the stream — and a
//!    spilled cache key — does not depend on the host's word size
//!    (slices of primitive integers arrive as raw memory, so keys are
//!    portable between little-endian hosts only). Derived `Hash`
//!    agrees with derived `PartialEq` field for field, which is what
//!    makes fingerprint equality *exactly* structural equality.
//! 3. **Canonical order; no unordered or inexact fields.** Ordered
//!    collections (route-map entries, predicate operands) are hashed in
//!    their semantic order. Collections whose order carries no meaning
//!    are hashed in sorted order: ghost tables by name, the originated
//!    multiset by sorted per-route digests, `BTreeSet`s as they iterate.
//!    No `HashMap`/`HashSet` (iteration order varies per process) and no
//!    float (`-0.0 == 0.0`, `NaN != NaN`: equality and bytes disagree)
//!    may ever enter a hashed type.
//! 4. **Version the format.** Streams start with a format-version tag;
//!    bump it whenever the encoding of any component changes — and the
//!    layout of a hashed type is part of the encoding: adding, removing
//!    or reordering a field or variant changes what derived `Hash`
//!    emits — which safely invalidates spilled caches (old keys miss;
//!    nothing is answered under a stale one).
//! 5. **Hash the universe slice.** The SMT encoding of a predicate
//!    depends on the attribute universe (community/regex/ghost tables),
//!    so the universe digest is part of every fingerprint; two checks
//!    are only merged when their formulas would be bit-identical.

pub mod cache;
pub mod executor;
pub mod fingerprint;
pub mod orchestrate;

pub use cache::ResultCache;
pub use executor::Executor;
pub use fingerprint::{Fingerprint, FpHasher};
pub use orchestrate::{run_grouped, RunStats, Structure};
