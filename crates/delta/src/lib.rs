//! Semantic configuration diff for Lightyear's delta verification.
//!
//! Re-verifying a network after an edit starts with one question: *what
//! actually changed?* Textual diffs over-approximate wildly — renaming a
//! route map touches every line that references it yet changes nothing
//! the verifier can observe. This crate answers the question
//! semantically: [`diff_configs`] compares two sets of parsed router
//! configurations by their **resolved** meaning (route maps with all
//! referenced prefix/community/AS-path lists inlined, peerings by peer
//! name, originations) and classifies every difference into a typed
//! [`DeltaKind`]:
//!
//! | classification | example edit | dirty set |
//! |---|---|---|
//! | `Cosmetic` | route-map rename, unused object edit, reformatting | empty |
//! | `RouteMapChanged` | a `set`/`match`/action term edited | edited router + neighbors |
//! | `PrefixListEdited` / `CommunityListEdited` / `AsPathAclEdited` | a referenced list edited (map text unchanged) | edited router + neighbors |
//! | `PeeringAdded` / `PeeringRemoved` / `PeeringChanged` | neighbor block added/removed/retargeted | edited router + the peer |
//! | `OriginationChanged` | `network` statement added/removed | edited router + neighbors |
//! | `AsnChanged` | `router bgp` ASN edited | edited router + neighbors |
//! | `RouterAdded` / `RouterRemoved` | configuration file added/removed | the router + neighbors |
//!
//! The "dirty set" column is what the edit is expected to dirty; the
//! verifier never reads it. `lightyear::reverify` decides what to
//! re-solve from check fingerprints alone. A [`ConfigDelta`] is for
//! display (the `watch` / `plan` round line), the re-verify candidates
//! stat and the fuzzer's cosmetic cross-check: a delta with no semantic
//! edits must leave every fingerprint unchanged.

pub mod diff;

pub use diff::{diff_configs, ConfigDelta, DeltaEdit, DeltaKind};
