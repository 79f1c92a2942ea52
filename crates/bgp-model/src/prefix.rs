//! IPv4 prefixes, prefix ranges and a binary prefix trie.
//!
//! The paper models a prefix as "a pair consisting of an IP address and a
//! length, both of which are integer values" (§3.1). [`PrefixRange`] adds
//! the `ge`/`le` modifiers of `ip prefix-list` entries, which match a
//! prefix when it is covered by the pattern network and its length falls in
//! the given bounds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix: network address plus prefix length.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    /// Network address as a 32-bit integer (host byte order).
    pub addr: u32,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl Ipv4Prefix {
    /// Build a prefix; the address is masked to the prefix length.
    pub fn new(addr: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        Ipv4Prefix {
            addr: addr & Self::mask(len),
            len,
        }
    }

    /// The network mask for a given length.
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// True if `self` covers `other` (i.e. `other`'s network lies inside
    /// `self`'s and `other` is at least as long).
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// True if this prefix contains the given host address.
    pub fn contains_addr(&self, addr: u32) -> bool {
        (addr & Self::mask(self.len)) == self.addr
    }

    /// The i-th bit of the network address counting from the top
    /// (bit 0 = most significant).
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.addr >> (31 - i)) & 1 == 1
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.addr.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}/{}", self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Errors from parsing prefixes and prefix ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError(format!("{s}: missing '/'")))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixParseError(format!("{s}: bad length")))?;
        if len > 32 {
            return Err(PrefixParseError(format!("{s}: length > 32")));
        }
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in ip.split('.') {
            if n == 4 {
                return Err(PrefixParseError(format!("{s}: too many octets")));
            }
            octets[n] = part
                .parse()
                .map_err(|_| PrefixParseError(format!("{s}: bad octet {part}")))?;
            n += 1;
        }
        if n != 4 {
            return Err(PrefixParseError(format!("{s}: expected 4 octets")));
        }
        Ok(Ipv4Prefix::new(u32::from_be_bytes(octets), len))
    }
}

/// A prefix-list entry: pattern network plus length bounds.
///
/// Matches prefix `p` when `pattern.covers(p)` and `min_len <= p.len <=
/// max_len`. An exact `ip prefix-list ... permit 10.0.0.0/8` (no `ge`/`le`)
/// has `min_len == max_len == 8`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefixRange {
    /// The pattern network.
    pub pattern: Ipv4Prefix,
    /// Minimum matching prefix length (the `ge` modifier).
    pub min_len: u8,
    /// Maximum matching prefix length (the `le` modifier).
    pub max_len: u8,
}

impl PrefixRange {
    /// An exact-match range for one prefix.
    pub fn exact(p: Ipv4Prefix) -> Self {
        PrefixRange {
            pattern: p,
            min_len: p.len,
            max_len: p.len,
        }
    }

    /// A range with explicit bounds; bounds are clamped to be coherent.
    pub fn with_bounds(pattern: Ipv4Prefix, min_len: u8, max_len: u8) -> Self {
        assert!(min_len >= pattern.len, "ge must be >= pattern length");
        assert!(max_len >= min_len && max_len <= 32, "bad le bound");
        PrefixRange {
            pattern,
            min_len,
            max_len,
        }
    }

    /// "Orlonger": the pattern prefix and anything underneath it.
    pub fn orlonger(pattern: Ipv4Prefix) -> Self {
        PrefixRange {
            pattern,
            min_len: pattern.len,
            max_len: 32,
        }
    }

    /// Does this range match the given prefix?
    pub fn matches(&self, p: &Ipv4Prefix) -> bool {
        self.pattern.covers(p) && p.len >= self.min_len && p.len <= self.max_len
    }
}

impl fmt::Display for PrefixRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pattern)?;
        if self.min_len != self.pattern.len {
            write!(f, " ge {}", self.min_len)?;
        }
        if self.max_len != self.min_len {
            write!(f, " le {}", self.max_len)?;
        }
        Ok(())
    }
}

/// A set of prefixes stored in a binary trie, supporting exact insert,
/// exact lookup, longest-prefix match and covered/covering queries.
#[derive(Clone, Debug, Default)]
pub struct PrefixTrie<T = ()> {
    root: Option<Box<TrieNode<T>>>,
    len: usize,
}

#[derive(Clone, Debug)]
struct TrieNode<T> {
    value: Option<T>,
    children: [Option<Box<TrieNode<T>>>; 2],
}

impl<T> TrieNode<T> {
    fn new() -> Self {
        TrieNode {
            value: None,
            children: [None, None],
        }
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie { root: None, len: 0 }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value at a prefix, returning the previous value if any.
    pub fn insert(&mut self, p: Ipv4Prefix, value: T) -> Option<T> {
        let mut node = self.root.get_or_insert_with(|| Box::new(TrieNode::new()));
        for i in 0..p.len {
            let b = p.bit(i) as usize;
            node = node.children[b].get_or_insert_with(|| Box::new(TrieNode::new()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, p: &Ipv4Prefix) -> Option<&T> {
        let mut node = self.root.as_deref()?;
        for i in 0..p.len {
            node = node.children[p.bit(i) as usize].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Longest stored prefix covering the given host address.
    pub fn longest_match(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        let mut node = self.root.as_deref()?;
        let mut best: Option<(Ipv4Prefix, &T)> = None;
        let mut acc: u32 = 0;
        for i in 0..=32u8 {
            if let Some(v) = &node.value {
                best = Some((Ipv4Prefix::new(acc, i), v));
            }
            if i == 32 {
                break;
            }
            let bit = (addr >> (31 - i)) & 1;
            match node.children[bit as usize].as_deref() {
                Some(next) => {
                    acc |= bit << (31 - i);
                    node = next;
                }
                None => break,
            }
        }
        best
    }

    /// True if any stored prefix covers `p` (including `p` itself).
    pub fn any_covering(&self, p: &Ipv4Prefix) -> bool {
        let mut node = match self.root.as_deref() {
            Some(n) => n,
            None => return false,
        };
        if node.value.is_some() {
            return true;
        }
        for i in 0..p.len {
            node = match node.children[p.bit(i) as usize].as_deref() {
                Some(n) => n,
                None => return false,
            };
            if node.value.is_some() {
                return true;
            }
        }
        false
    }

    /// Iterate over all stored `(prefix, value)` pairs in lexicographic
    /// order of (address, length).
    pub fn iter(&self) -> Vec<(Ipv4Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        fn walk<'a, T>(
            node: &'a TrieNode<T>,
            acc: u32,
            depth: u8,
            out: &mut Vec<(Ipv4Prefix, &'a T)>,
        ) {
            if let Some(v) = &node.value {
                out.push((Ipv4Prefix::new(acc, depth), v));
            }
            if depth == 32 {
                return;
            }
            if let Some(c) = node.children[0].as_deref() {
                walk(c, acc, depth + 1, out);
            }
            if let Some(c) = node.children[1].as_deref() {
                walk(c, acc | 1 << (31 - depth), depth + 1, out);
            }
        }
        if let Some(r) = self.root.as_deref() {
            walk(r, 0, 0, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        let x = p("10.0.0.0/8");
        assert_eq!(x.addr, 0x0a00_0000);
        assert_eq!(x.len, 8);
        assert_eq!(x.to_string(), "10.0.0.0/8");
        assert_eq!(p("0.0.0.0/0").to_string(), "0.0.0.0/0");
        assert_eq!(p("255.255.255.255/32").to_string(), "255.255.255.255/32");
    }

    #[test]
    fn parse_masks_host_bits() {
        assert_eq!(p("10.1.2.3/8"), p("10.0.0.0/8"));
    }

    #[test]
    fn parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0.1/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.x/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn covers() {
        assert!(p("10.0.0.0/8").covers(&p("10.1.0.0/16")));
        assert!(p("10.0.0.0/8").covers(&p("10.0.0.0/8")));
        assert!(!p("10.1.0.0/16").covers(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").covers(&p("11.0.0.0/8")));
        assert!(p("0.0.0.0/0").covers(&p("192.168.1.0/24")));
    }

    #[test]
    fn range_matching() {
        let r = PrefixRange::with_bounds(p("10.0.0.0/8"), 16, 24);
        assert!(r.matches(&p("10.1.0.0/16")));
        assert!(r.matches(&p("10.1.2.0/24")));
        assert!(!r.matches(&p("10.0.0.0/8"))); // too short
        assert!(!r.matches(&p("10.1.2.128/25"))); // too long
        assert!(!r.matches(&p("11.1.0.0/16"))); // outside pattern

        let exact = PrefixRange::exact(p("192.168.0.0/16"));
        assert!(exact.matches(&p("192.168.0.0/16")));
        assert!(!exact.matches(&p("192.168.1.0/24")));

        let orlonger = PrefixRange::orlonger(p("10.0.0.0/8"));
        assert!(orlonger.matches(&p("10.0.0.0/8")));
        assert!(orlonger.matches(&p("10.200.1.0/24")));
        assert!(!orlonger.matches(&p("12.0.0.0/8")));
    }

    #[test]
    fn trie_insert_get() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), "a"), None);
        assert_eq!(t.insert(p("10.1.0.0/16"), "b"), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), "a2"), Some("a"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&"a2"));
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&"b"));
        assert_eq!(t.get(&p("10.2.0.0/16")), None);
    }

    #[test]
    fn trie_longest_match() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        let addr = u32::from_be_bytes([10, 1, 2, 3]);
        assert_eq!(t.longest_match(addr), Some((p("10.1.0.0/16"), &2)));
        let addr2 = u32::from_be_bytes([10, 9, 9, 9]);
        assert_eq!(t.longest_match(addr2), Some((p("10.0.0.0/8"), &1)));
        let addr3 = u32::from_be_bytes([8, 8, 8, 8]);
        assert_eq!(t.longest_match(addr3), Some((p("0.0.0.0/0"), &0)));
    }

    #[test]
    fn trie_any_covering() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.any_covering(&p("10.0.0.0/8")));
        assert!(t.any_covering(&p("10.5.0.0/16")));
        assert!(!t.any_covering(&p("11.0.0.0/8")));
        assert!(!t.any_covering(&p("0.0.0.0/0")));
    }

    #[test]
    fn trie_iter_sorted() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.168.0.0/16"), 3);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.64.0.0/10"), 2);
        let items: Vec<Ipv4Prefix> = t.iter().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            items,
            vec![p("10.0.0.0/8"), p("10.64.0.0/10"), p("192.168.0.0/16")]
        );
    }
}
