//! BGP routes (§3.1): `(Prefix, ASPath, NextHop, LocalPref, MED, Comm)`,
//! plus the BGP decision process used by the simulator and the liveness
//! axioms.

use crate::prefix::Ipv4Prefix;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

/// A BGP community tag, a 32-bit value conventionally written `asn:tag`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Community(pub u32);

impl Community {
    /// Build from the conventional `high:low` pair.
    pub fn new(high: u16, low: u16) -> Self {
        Community((high as u32) << 16 | low as u32)
    }

    /// The high (ASN) half.
    pub fn high(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low (tag) half.
    pub fn low(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.high(), self.low())
    }
}

impl fmt::Debug for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Community {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (h, l) = s
            .split_once(':')
            .ok_or_else(|| format!("bad community {s:?}: missing ':'"))?;
        let h: u16 = h.parse().map_err(|_| format!("bad community {s:?}"))?;
        let l: u16 = l.parse().map_err(|_| format!("bad community {s:?}"))?;
        Ok(Community::new(h, l))
    }
}

/// The BGP origin attribute (how the route entered BGP).
///
/// Lower is preferred in the decision process: `Igp < Egp < Incomplete`.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Origin {
    /// Originated by an IGP / `network` statement.
    Igp,
    /// Learned via EGP (historic).
    Egp,
    /// Redistributed from elsewhere.
    #[default]
    Incomplete,
}

impl Origin {
    /// The 2-bit encoding used by the symbolic layer.
    pub fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Inverse of [`Origin::code`]; values > 2 clamp to `Incomplete`.
    pub fn from_code(c: u8) -> Self {
        match c {
            0 => Origin::Igp,
            1 => Origin::Egp,
            _ => Origin::Incomplete,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Igp => "igp",
            Origin::Egp => "egp",
            Origin::Incomplete => "incomplete",
        };
        write!(f, "{s}")
    }
}

/// A BGP route announcement.
///
/// Matches the paper's model: real BGP messages carry more attributes, but
/// these are the ones the verification conditions range over. The default
/// local preference is 100, per common vendor defaults.
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// AS path, most recent AS first.
    pub as_path: Vec<u32>,
    /// Next-hop address.
    pub next_hop: u32,
    /// Local preference (higher preferred).
    pub local_pref: u32,
    /// Multi-exit discriminator (lower preferred).
    pub med: u32,
    /// Origin attribute (lower preferred).
    pub origin: Origin,
    /// Community tags.
    pub communities: BTreeSet<Community>,
}

impl Route {
    /// A route to `prefix` with default attributes.
    pub fn new(prefix: Ipv4Prefix) -> Self {
        Route {
            prefix,
            as_path: Vec::new(),
            next_hop: 0,
            local_pref: 100,
            med: 0,
            origin: Origin::default(),
            communities: BTreeSet::new(),
        }
    }

    /// Builder: set the AS path.
    pub fn with_as_path(mut self, path: Vec<u32>) -> Self {
        self.as_path = path;
        self
    }

    /// Builder: set the next hop.
    pub fn with_next_hop(mut self, nh: u32) -> Self {
        self.next_hop = nh;
        self
    }

    /// Builder: set the local preference.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = lp;
        self
    }

    /// Builder: set the MED.
    pub fn with_med(mut self, med: u32) -> Self {
        self.med = med;
        self
    }

    /// Builder: set the origin attribute.
    pub fn with_origin(mut self, o: Origin) -> Self {
        self.origin = o;
        self
    }

    /// Builder: add a community.
    pub fn with_community(mut self, c: Community) -> Self {
        self.communities.insert(c);
        self
    }

    /// True if the route carries the community.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.contains(&c)
    }

    /// True if the AS path contains the given ASN (loop detection).
    pub fn as_path_contains(&self, asn: u32) -> bool {
        self.as_path.contains(&asn)
    }

    /// BGP route preference: returns `Greater` when `self` is preferred
    /// over `other` for the same prefix.
    ///
    /// Implements the standard decision-process prefix the paper's liveness
    /// axioms rely on: higher local-pref, then shorter AS path, then lower
    /// MED, then lower next-hop as the final deterministic tie-break.
    pub fn prefer(&self, other: &Route) -> Ordering {
        debug_assert_eq!(
            self.prefix, other.prefix,
            "preference compares same-prefix routes"
        );
        self.local_pref
            .cmp(&other.local_pref)
            .then_with(|| other.as_path.len().cmp(&self.as_path.len()))
            .then_with(|| other.origin.cmp(&self.origin))
            .then_with(|| other.med.cmp(&self.med))
            .then_with(|| other.next_hop.cmp(&self.next_hop))
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let comms: Vec<String> = self.communities.iter().map(|c| c.to_string()).collect();
        let path: Vec<String> = self.as_path.iter().map(|a| a.to_string()).collect();
        write!(
            f,
            "{} as-path [{}] lp {} med {} origin {} nh {} comm {{{}}}",
            self.prefix,
            path.join(" "),
            self.local_pref,
            self.med,
            self.origin,
            self.next_hop,
            comms.join(",")
        )
    }
}

impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn community_roundtrip() {
        let c = Community::new(100, 1);
        assert_eq!(c.to_string(), "100:1");
        assert_eq!("100:1".parse::<Community>().unwrap(), c);
        assert_eq!(c.high(), 100);
        assert_eq!(c.low(), 1);
        assert!("100".parse::<Community>().is_err());
        assert!("100:x".parse::<Community>().is_err());
        assert!("99999:1".parse::<Community>().is_err());
    }

    #[test]
    fn preference_local_pref_dominates() {
        let base = Route::new(p("10.0.0.0/8"));
        let a = base
            .clone()
            .with_local_pref(200)
            .with_as_path(vec![1, 2, 3]);
        let b = base.clone().with_local_pref(100).with_as_path(vec![1]);
        assert_eq!(a.prefer(&b), Ordering::Greater);
        assert_eq!(b.prefer(&a), Ordering::Less);
    }

    #[test]
    fn preference_as_path_len_then_med() {
        let base = Route::new(p("10.0.0.0/8"));
        let short = base.clone().with_as_path(vec![1]);
        let long = base.clone().with_as_path(vec![1, 2]);
        assert_eq!(short.prefer(&long), Ordering::Greater);

        let low_med = base.clone().with_med(5);
        let high_med = base.clone().with_med(10);
        assert_eq!(low_med.prefer(&high_med), Ordering::Greater);
    }

    #[test]
    fn preference_origin_between_path_and_med() {
        let base = Route::new(p("10.0.0.0/8"));
        let igp = base.clone().with_origin(Origin::Igp).with_med(9);
        let incomplete = base.clone().with_origin(Origin::Incomplete).with_med(0);
        // Origin beats MED.
        assert_eq!(igp.prefer(&incomplete), Ordering::Greater);
        // But AS-path length beats origin.
        let short_inc = base
            .clone()
            .with_origin(Origin::Incomplete)
            .with_as_path(vec![1]);
        let long_igp = base
            .clone()
            .with_origin(Origin::Igp)
            .with_as_path(vec![1, 2]);
        assert_eq!(short_inc.prefer(&long_igp), Ordering::Greater);
        assert_eq!(Origin::from_code(Origin::Egp.code()), Origin::Egp);
        assert_eq!(Origin::from_code(7), Origin::Incomplete);
    }

    #[test]
    fn preference_total_on_distinct_next_hops() {
        let base = Route::new(p("10.0.0.0/8"));
        let a = base.clone().with_next_hop(1);
        let b = base.clone().with_next_hop(2);
        assert_ne!(a.prefer(&b), Ordering::Equal);
        assert_eq!(a.prefer(&b), b.prefer(&a).reverse());
    }

    #[test]
    fn builders_compose() {
        let r = Route::new(p("192.168.0.0/16"))
            .with_as_path(vec![65001])
            .with_local_pref(150)
            .with_med(7)
            .with_next_hop(42)
            .with_community(Community::new(100, 1));
        assert!(r.has_community(Community::new(100, 1)));
        assert!(!r.has_community(Community::new(100, 2)));
        assert!(r.as_path_contains(65001));
        assert!(!r.as_path_contains(65002));
        assert_eq!(r.local_pref, 150);
    }
}
