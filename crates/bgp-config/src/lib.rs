//! Cisco-IOS-flavoured BGP configuration front-end.
//!
//! Parses per-router configuration text covering the feature set the
//! Lightyear paper's checks exercise — prefix lists (with `ge`/`le`),
//! standard community lists, AS-path access lists, route maps with
//! `match`/`set`/`continue`, and `router bgp` neighbor blocks with
//! per-session in/out route maps and network origination — and lowers a
//! set of router configurations into a [`bgp_model::Topology`] +
//! [`bgp_model::Policy`] pair.
//!
//! ```text
//! ip prefix-list BOGONS seq 5 deny 10.0.0.0/8 le 32
//! ip prefix-list BOGONS seq 10 permit 0.0.0.0/0 le 32
//! ip community-list standard REGION permit 100:1
//! ip as-path access-list 1 deny _65001_
//! ip as-path access-list 1 permit .*
//! route-map FROM-PEER permit 10
//!  match ip address prefix-list BOGONS
//!  set community 100:1 additive
//! router bgp 65000
//!  neighbor 10.0.0.1 remote-as 65001
//!  neighbor 10.0.0.1 description ISP1
//!  neighbor 10.0.0.1 route-map FROM-PEER in
//!  network 198.51.100.0/24
//! ```
//!
//! The grammar is line-oriented like IOS: top-level statements start at
//! column 0 and block bodies are indented. See [`parser`] for the grammar
//! and [`lower`] for how neighbor descriptions are matched to topology
//! nodes.

#![warn(clippy::or_fun_call)]

pub mod ast;
pub mod lexer;
pub mod lint;
pub mod lower;
pub mod parser;
pub mod printer;

pub use ast::{ConfigAst, RouterBgp};
pub use lint::{lint, Finding, Severity};
pub use lower::{lower, LowerError, Network};
pub use parser::{parse_config, ParseError};
pub use printer::print_config;
