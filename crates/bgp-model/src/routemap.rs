//! Route-map intermediate representation.
//!
//! A route map is an ordered list of entries. Each entry has a sequence
//! number, a permit/deny action, a conjunction of match conditions and a
//! list of set actions. Evaluation scans entries in sequence order: the
//! first entry whose matches all hold decides the fate of the route
//! (permit: apply the sets and accept, possibly `continue`-ing to a later
//! entry; deny: reject). A route matching no entry is rejected (the
//! implicit deny), mirroring IOS semantics.
//!
//! References to named prefix-lists / community-lists / as-path ACLs are
//! resolved by the configuration front-end (`bgp-config`), so this IR is
//! self-contained — both the concrete interpreter ([`crate::interp`]) and
//! Lightyear's symbolic encoder consume it directly.

use crate::aspath::AsPathRegex;
use crate::prefix::PrefixRange;
use crate::route::{Community, Origin};
use serde::Serialize;
use std::fmt;

/// Permit or deny.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Action {
    /// Accept matching routes (after applying set actions).
    Permit,
    /// Reject matching routes.
    Deny,
}

/// A single match condition (all conditions in an entry must hold).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum MatchCond {
    /// `match ip address prefix-list ...` — any of the ranges matches.
    /// The bool on each range is the permit flag: a prefix-list is itself
    /// an ordered permit/deny sequence, first match wins, implicit deny.
    PrefixList(Vec<(bool, PrefixRange)>),
    /// `match community ...` — the route carries *any* of these
    /// communities (`match_all = false`) or *all* of them (`true`).
    Community {
        /// Communities to look for.
        comms: Vec<Community>,
        /// Require all (true) or any (false).
        match_all: bool,
    },
    /// A resolved `ip community-list`: ordered permit/deny entries, first
    /// match wins, implicit deny. An entry matches when the route carries
    /// all of the entry's communities (or, with `exact`, when the route's
    /// community set equals the entry's set exactly).
    CommunityList {
        /// `(permit, communities)` entries in order.
        entries: Vec<(bool, Vec<Community>)>,
        /// `exact-match` semantics.
        exact: bool,
    },
    /// `match as-path <acl>` — the AS path matches any of the listed
    /// (permit, regex) entries; first match wins, implicit deny.
    AsPath(Vec<(bool, AsPathRegex)>),
    /// `match metric <n>` — MED equals the value.
    Med(u32),
    /// `match local-preference <n>`.
    LocalPref(u32),
    /// Always true (used for unconditional entries in tests/generators).
    Always,
}

/// A set (transform) action applied by a permitting entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum SetAction {
    /// `set local-preference <n>`.
    LocalPref(u32),
    /// `set metric <n>`.
    Med(u32),
    /// `set community <c>... [additive]` — replaces all communities unless
    /// `additive` is set.
    Community {
        /// Communities to set/add.
        comms: Vec<Community>,
        /// Keep existing communities (true) or replace (false).
        additive: bool,
    },
    /// `set comm-list <list> delete` — remove the listed communities.
    DeleteCommunities(Vec<Community>),
    /// `set community none` — strip all communities.
    ClearCommunities,
    /// `set as-path prepend <asn>...`.
    PrependAsPath(Vec<u32>),
    /// `set ip next-hop <addr>`.
    NextHop(u32),
    /// `set origin igp|egp|incomplete`.
    Origin(Origin),
}

/// One route-map entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct RouteMapEntry {
    /// Sequence number (entries are evaluated in increasing order).
    pub seq: u32,
    /// Permit or deny.
    pub action: Action,
    /// Conjunction of match conditions (empty = match everything).
    pub matches: Vec<MatchCond>,
    /// Transformations applied on permit.
    pub sets: Vec<SetAction>,
    /// `continue [seq]`: after a permit, continue evaluation at the given
    /// sequence number (or the next entry when `Some(None)`).
    pub continue_to: Option<Option<u32>>,
}

impl RouteMapEntry {
    /// A permit-everything entry with no transformations.
    pub fn permit(seq: u32) -> Self {
        RouteMapEntry {
            seq,
            action: Action::Permit,
            matches: Vec::new(),
            sets: Vec::new(),
            continue_to: None,
        }
    }

    /// A deny-everything entry.
    pub fn deny(seq: u32) -> Self {
        RouteMapEntry {
            action: Action::Deny,
            ..Self::permit(seq)
        }
    }

    /// Builder: add a match condition.
    pub fn matching(mut self, m: MatchCond) -> Self {
        self.matches.push(m);
        self
    }

    /// Builder: add a set action.
    pub fn setting(mut self, s: SetAction) -> Self {
        self.sets.push(s);
        self
    }

    /// Builder: continue to a specific (or the next) sequence.
    pub fn continuing(mut self, seq: Option<u32>) -> Self {
        self.continue_to = Some(seq);
        self
    }
}

/// A named, ordered route map.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RouteMap {
    /// The route-map name.
    pub name: String,
    /// Entries sorted by sequence number.
    pub entries: Vec<RouteMapEntry>,
}

impl RouteMap {
    /// An empty route map (rejects everything via the implicit deny).
    pub fn new(name: impl Into<String>) -> Self {
        RouteMap {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// A permit-all route map (the identity transform).
    pub fn permit_all(name: impl Into<String>) -> Self {
        let mut rm = RouteMap::new(name);
        rm.push(RouteMapEntry::permit(10));
        rm
    }

    /// Add an entry, keeping entries sorted by sequence number. An entry
    /// goes after every entry with an equal sequence number, where a
    /// stable sort would put it; pushing in sequence order appends.
    pub fn push(&mut self, e: RouteMapEntry) {
        let at = self.entries.partition_point(|x| x.seq <= e.seq);
        self.entries.insert(at, e);
    }

    /// Index of the first entry with sequence number >= `seq`.
    pub fn index_of_seq_at_least(&self, seq: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.seq >= seq)
    }
}

impl fmt::Display for RouteMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "route-map {} {} {}",
                self.name,
                match e.action {
                    Action::Permit => "permit",
                    Action::Deny => "deny",
                },
                e.seq
            )?;
            for m in &e.matches {
                writeln!(f, " match {m:?}")?;
            }
            for s in &e.sets {
                writeln!(f, " set {s:?}")?;
            }
            if let Some(c) = &e.continue_to {
                match c {
                    Some(s) => writeln!(f, " continue {s}")?,
                    None => writeln!(f, " continue")?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Ipv4Prefix;

    #[test]
    fn entries_stay_sorted() {
        let mut rm = RouteMap::new("T");
        rm.push(RouteMapEntry::permit(30));
        rm.push(RouteMapEntry::permit(10));
        rm.push(RouteMapEntry::deny(20));
        let seqs: Vec<u32> = rm.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![10, 20, 30]);
    }

    #[test]
    fn equal_seqs_keep_insertion_order() {
        let mut rm = RouteMap::new("T");
        rm.push(RouteMapEntry::permit(20));
        rm.push(RouteMapEntry::deny(10));
        rm.push(RouteMapEntry::deny(20));
        rm.push(RouteMapEntry::permit(10).setting(SetAction::Med(1)));
        let got: Vec<(u32, Action, usize)> = rm
            .entries
            .iter()
            .map(|e| (e.seq, e.action, e.sets.len()))
            .collect();
        assert_eq!(
            got,
            [
                (10, Action::Deny, 0),
                (10, Action::Permit, 1),
                (20, Action::Permit, 0),
                (20, Action::Deny, 0)
            ]
        );
    }

    #[test]
    fn seq_lookup() {
        let mut rm = RouteMap::new("T");
        rm.push(RouteMapEntry::permit(10));
        rm.push(RouteMapEntry::permit(30));
        assert_eq!(rm.index_of_seq_at_least(20), Some(1));
        assert_eq!(rm.index_of_seq_at_least(31), None);
    }

    #[test]
    fn builders() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let e = RouteMapEntry::permit(10)
            .matching(MatchCond::PrefixList(vec![(true, PrefixRange::exact(p))]))
            .setting(SetAction::LocalPref(200))
            .continuing(None);
        assert_eq!(e.matches.len(), 1);
        assert_eq!(e.sets.len(), 1);
        assert_eq!(e.continue_to, Some(None));
    }

    #[test]
    fn display_smoke() {
        let mut rm = RouteMap::permit_all("OUT");
        rm.push(RouteMapEntry::deny(20));
        let s = rm.to_string();
        assert!(s.contains("route-map OUT permit 10"));
        assert!(s.contains("route-map OUT deny 20"));
    }
}
