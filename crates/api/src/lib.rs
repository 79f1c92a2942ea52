//! The versioned engine-facing API shared by every lightyear surface.
//!
//! This crate is deliberately a **leaf**: it depends on nothing but the
//! serde shims, so `crates/core` (the spill format), `crates/cli` (the
//! `verify --json` renderer) and the `lightyear serve` daemon can all
//! depend on it — one schema, one serializer, no drift.
//!
//! Two halves:
//!
//! * [`report`] — the report document types ([`report::PropertyReport`],
//!   [`report::FailureDoc`], [`report::CoreDoc`], [`report::ExecDoc`]),
//!   the borrowed rows that stream as the same entries
//!   ([`report::PropertyHead`], [`report::FailureRow`],
//!   [`report::CoreRow`]) and the cached-result spill schema
//!   ([`report::SpilledCheck`]). `verify --json`, the daemon's
//!   `GetReport`, and the on-disk result cache all render through one
//!   field order per entry; the `verify --json` bytes are pinned by a
//!   golden test in `crates/cli`.
//! * [`wire`] — the request/response envelope of the `serve` daemon
//!   ([`wire::ApiRequest`] / [`wire::ApiResponse`] with an explicit
//!   `api_version` field, and the typed calls in [`wire::ApiCall`]).
//!
//! Versioning policy: [`wire::API_VERSION`] is bumped on any breaking
//! change to the envelope, the calls, or the report schema. A request
//! carrying a different version is rejected up front with a typed
//! error, never half-interpreted.

pub mod report;
pub mod wire;

pub use report::{
    CoreDoc, CoreRow, ExecDoc, FailureDoc, FailureRow, PropertyHead, PropertyReport, SpilledCheck,
};
pub use wire::{ApiCall, ApiRequest, ApiResponse, ConfigFile, API_VERSION};
