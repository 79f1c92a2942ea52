//! # Lightyear: modular BGP control-plane verification
//!
//! An implementation of *"Lightyear: Using Modularity to Scale BGP Control
//! Plane Verification"* (SIGCOMM 2023). End-to-end network properties are
//! verified through a set of purely **local checks** on individual nodes
//! and edges: the user supplies per-location *network invariants* (for
//! safety) or *path constraints* (for liveness), and Lightyear generates
//! assume-guarantee checks — one per BGP import/export/originate filter —
//! whose conjunction implies the global property for **all possible
//! external route announcements** and (for safety) **arbitrary failures**.
//!
//! ## Module map
//!
//! * [`universe`] — the finite attribute universe (communities, AS-path
//!   regexes, ghost attributes) collected from configurations and
//!   properties; determines the width of the symbolic encoding.
//! * [`symbolic`] — symbolic routes: one SMT term per attribute.
//! * [`pred`] — the route-predicate language used for properties,
//!   invariants and path constraints (the role Zen functions play in the
//!   paper's implementation), with both symbolic and concrete semantics.
//! * [`ghost`] — ghost attributes (§4.4): user-defined boolean fields
//!   updated by specified filters, e.g. `FromISP1`.
//! * [`encode`] — symbolic transfer functions for route maps.
//! * [`invariants`] — per-location network invariants with role-based
//!   assignment helpers.
//! * [`safety`] — safety properties `(ℓ, P)` (§4); [`engine`] generates
//!   and decides their local checks.
//! * [`liveness`] — path constraints, propagation checks and
//!   no-interference checks (§5).
//! * [`check`] — check descriptors, results, counterexamples.
//! * [`fingerprint`] — structural fingerprints of resolved checks:
//!   rename-invariant hashes taken by walking the values themselves
//!   (route-map contents, predicates, ghost updates, universe digest —
//!   never router names or ids, never a serialized rendering) keying the
//!   orchestrator's dedup and cross-run cache.
//! * [`engine`] — the [`Verifier`] and its pipeline, one module per
//!   stage: generate the local checks (§4.2, §5), partition them by
//!   fingerprint, solve each class once on a session per distinct
//!   transfer relation (cache hits answer directly), fold verdicts into
//!   reports in check order, and spill the result cache's passes to
//!   disk.
//! * [`reverify`] — the cross-run re-verification engine behind daemon
//!   (`lightyear watch`) and migration-plan (`lightyear plan`) modes:
//!   fingerprint-diffed dirty sets answered from carried verdicts and
//!   unsat cores, with superseded fingerprints invalidated each round.
//!
//! ## Quick start
//!
//! ```
//! use bgp_model::{Topology, Policy, Community};
//! use lightyear::pred::RoutePred;
//! use lightyear::ghost::{GhostAttr, GhostUpdate};
//! use lightyear::invariants::{Location, NetworkInvariants};
//! use lightyear::safety::SafetyProperty;
//! use lightyear::engine::Verifier;
//!
//! // Tiny network: ISP1 -> R1 -> R2 -> ISP2.
//! let mut topo = Topology::new();
//! let r1 = topo.add_router("R1", 65000);
//! let r2 = topo.add_router("R2", 65000);
//! let isp1 = topo.add_external("ISP1", 100);
//! let isp2 = topo.add_external("ISP2", 200);
//! topo.add_session(r1, r2);
//! topo.add_session(isp1, r1);
//! topo.add_session(r2, isp2);
//!
//! // Import at R1 tags 100:1; export at R2 to ISP2 drops tagged routes.
//! use bgp_model::routemap::{RouteMap, RouteMapEntry, SetAction, MatchCond};
//! let c = Community::new(100, 1);
//! let mut pol = Policy::new();
//! let mut tag = RouteMap::new("FROM-ISP1");
//! tag.push(RouteMapEntry::permit(10)
//!     .setting(SetAction::Community { comms: vec![c], additive: true }));
//! pol.set_import(topo.edge_between(isp1, r1).unwrap(), tag);
//! let mut drop = RouteMap::new("TO-ISP2");
//! drop.push(RouteMapEntry::deny(10)
//!     .matching(MatchCond::Community { comms: vec![c], match_all: false }));
//! drop.push(RouteMapEntry::permit(20));
//! pol.set_export(topo.edge_between(r2, isp2).unwrap(), drop);
//!
//! // Ghost attribute FromISP1: set true by R1's import from ISP1, false
//! // by imports from every other external neighbor (§4.4).
//! let mut ghost = GhostAttr::new("FromISP1");
//! ghost.on_import(topo.edge_between(isp1, r1).unwrap(), GhostUpdate::SetTrue);
//! ghost.on_import(topo.edge_between(isp2, r2).unwrap(), GhostUpdate::SetFalse);
//!
//! // Property: no route from ISP1 is sent to ISP2.
//! let to_isp2 = topo.edge_between(r2, isp2).unwrap();
//! let prop = SafetyProperty::new(
//!     Location::Edge(to_isp2),
//!     RoutePred::ghost("FromISP1").not(),
//! );
//!
//! // Invariants: the three-part pattern of §2.1.
//! let key = RoutePred::ghost("FromISP1").implies(RoutePred::has_community(c));
//! let mut inv = NetworkInvariants::with_default(key);
//! inv.set(Location::Edge(to_isp2), RoutePred::ghost("FromISP1").not());
//!
//! let verifier = Verifier::new(&topo, &pol).with_ghost(ghost);
//! let report = verifier.verify_safety(&prop, &inv);
//! assert!(report.all_passed(), "{report}");
//! ```

pub mod check;
pub mod encode;
pub mod engine;
pub mod fingerprint;
pub mod ghost;
pub mod infer;
pub mod invariants;
pub mod liveness;
pub mod pred;
pub mod reverify;
pub mod safety;
pub mod symbolic;
pub mod universe;

pub use check::{Check, CheckHead, CheckKind, CheckResult, Counterexample, Report};
pub use engine::{
    load_pass_cache, load_pass_cache_bounded, save_check_cache, CheckCache, MultiReport, RunMode,
    SolvedCheck, Verifier,
};
pub use ghost::{GhostAttr, GhostUpdate};
pub use invariants::{Location, NetworkInvariants};
pub use liveness::LivenessSpec;
pub use pred::RoutePred;
pub use reverify::{ReverifyEngine, ReverifyStats};
pub use safety::SafetyProperty;
