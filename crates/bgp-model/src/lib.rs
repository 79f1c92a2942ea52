//! BGP substrate: the formal model of §3 of the Lightyear paper, plus the
//! concrete machinery needed to exercise it.
//!
//! * [`prefix`] — IPv4 prefixes, prefix ranges (`ge`/`le` filters) and a
//!   binary prefix trie.
//! * [`route`] — BGP route announcements (§3.1) and the BGP decision
//!   process used to order candidate routes.
//! * [`aspath`] — an AS-path regular-expression engine (token-level NFA)
//!   backing `ip as-path access-list` matching.
//! * [`routemap`] — the route-map intermediate representation: match
//!   conditions, set actions, permit/deny entries with `continue` support.
//! * [`interp`] — the concrete route-map interpreter defining the
//!   `Import`/`Export` functions of §3.1.
//! * [`topology`] — BGP topology: configured routers, external neighbors
//!   and directed peering edges.
//! * [`policy`] — the network policy triple (`Import`, `Export`,
//!   `Originate`) keyed by edge.
//! * [`trace`] — BGP trace events (`recv`/`slct`/`frwd`) and the validity
//!   axioms of Appendix A, checkable against concrete traces.
//! * [`sim`] — a message-passing BGP simulator that produces valid traces;
//!   used to differentially test the verifier.

#![warn(clippy::or_fun_call)]

pub mod aspath;
pub mod interp;
pub mod policy;
pub mod prefix;
pub mod route;
pub mod routemap;
pub mod sim;
pub mod topology;
pub mod trace;

pub use aspath::AsPathRegex;
pub use interp::apply_route_map;
pub use policy::Policy;
pub use prefix::{Ipv4Prefix, PrefixRange, PrefixTrie};
pub use route::{Community, Route};
pub use routemap::{Action, MatchCond, RouteMap, RouteMapEntry, SetAction};
pub use topology::{EdgeId, NodeId, Topology};
pub use trace::{Event, Trace};
