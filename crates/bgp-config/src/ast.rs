//! Abstract syntax for one router's configuration.
//!
//! The AST mirrors the configuration text: route maps still refer to
//! prefix-lists, community-lists and AS-path ACLs *by name*; resolution
//! happens during lowering ([`crate::lower`](mod@crate::lower)).

use bgp_model::prefix::Ipv4Prefix;
use bgp_model::route::{Community, Origin};
use std::collections::BTreeMap;

/// One `ip prefix-list NAME seq N permit|deny P [ge G] [le L]` entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PrefixListEntry {
    /// Sequence number.
    pub seq: u32,
    /// Permit (true) or deny.
    pub permit: bool,
    /// The pattern prefix.
    pub prefix: Ipv4Prefix,
    /// Optional `ge` bound.
    pub ge: Option<u8>,
    /// Optional `le` bound.
    pub le: Option<u8>,
}

/// One `ip community-list standard NAME permit|deny c1 c2 ...` entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CommunityListEntry {
    /// Permit (true) or deny.
    pub permit: bool,
    /// The listed communities (an entry matches when the route carries
    /// all of them).
    pub communities: Vec<Community>,
}

/// One `ip as-path access-list NAME permit|deny REGEX` entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AsPathAclEntry {
    /// Permit (true) or deny.
    pub permit: bool,
    /// The regex source text.
    pub regex: String,
}

/// A `match` clause inside a route-map entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MatchAst {
    /// `match ip address prefix-list NAME...` (any listed name may match).
    PrefixList(Vec<String>),
    /// `match community NAME... [exact-match]`.
    Community {
        /// Referenced community-list names.
        lists: Vec<String>,
        /// `exact-match` flag (require all listed communities).
        exact: bool,
    },
    /// `match as-path NAME...`.
    AsPath(Vec<String>),
    /// `match metric N`.
    Med(u32),
    /// `match local-preference N`.
    LocalPref(u32),
}

/// A `set` clause inside a route-map entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SetAst {
    /// `set local-preference N`.
    LocalPref(u32),
    /// `set metric N`.
    Med(u32),
    /// `set community c1 c2 ... [additive]` or `set community none`.
    Community {
        /// Communities to set (empty together with `none=true` clears).
        communities: Vec<Community>,
        /// Keep existing communities.
        additive: bool,
        /// `set community none`.
        none: bool,
    },
    /// `set comm-list NAME delete`.
    CommListDelete(String),
    /// `set as-path prepend a1 a2 ...`.
    Prepend(Vec<u32>),
    /// `set ip next-hop A.B.C.D`.
    NextHop(u32),
    /// `set origin igp|egp|incomplete`.
    Origin(Origin),
}

/// One route-map stanza (`route-map NAME permit|deny SEQ` + body).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RouteMapEntryAst {
    /// Sequence number.
    pub seq: u32,
    /// Permit (true) or deny.
    pub permit: bool,
    /// Match clauses (conjunction).
    pub matches: Vec<MatchAst>,
    /// Set clauses.
    pub sets: Vec<SetAst>,
    /// `continue [N]`.
    pub continue_to: Option<Option<u32>>,
}

/// A neighbor declaration inside `router bgp`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NeighborAst {
    /// Session address (used as an opaque key).
    pub addr: String,
    /// `remote-as`.
    pub remote_as: Option<u32>,
    /// `description` — names the peer router; lowering matches peers by
    /// this name (see crate docs).
    pub description: Option<String>,
    /// Inbound route-map name.
    pub route_map_in: Option<String>,
    /// Outbound route-map name.
    pub route_map_out: Option<String>,
}

/// The `router bgp ASN` block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterBgp {
    /// The local AS number.
    pub asn: u32,
    /// Neighbor declarations keyed by address.
    pub neighbors: BTreeMap<String, NeighborAst>,
    /// `network P` statements (routes originated into BGP).
    pub networks: Vec<Ipv4Prefix>,
}

/// A full single-router configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfigAst {
    /// `hostname`.
    pub hostname: String,
    /// Prefix lists by name (entries seq-sorted).
    pub prefix_lists: BTreeMap<String, Vec<PrefixListEntry>>,
    /// Community lists by name.
    pub community_lists: BTreeMap<String, Vec<CommunityListEntry>>,
    /// AS-path access lists by name.
    pub aspath_acls: BTreeMap<String, Vec<AsPathAclEntry>>,
    /// Route maps by name (entries seq-sorted).
    pub route_maps: BTreeMap<String, Vec<RouteMapEntryAst>>,
    /// The BGP process.
    pub router_bgp: Option<RouterBgp>,
}
