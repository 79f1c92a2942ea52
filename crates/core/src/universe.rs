//! The finite attribute universe underlying the symbolic encoding.
//!
//! The symbolic route representation tracks one boolean per community that
//! appears *anywhere* in the configurations or the properties being
//! checked, plus a single "other communities" summary bit for everything
//! outside that set. AS-path regexes are interned so each distinct pattern
//! gets one boolean match atom per symbolic route. Ghost attributes (§4.4)
//! are named booleans.
//!
//! This is design decision **D1/D2** in DESIGN.md: the universe is finite
//! and syntactic, keeping each local check's encoding size independent of
//! the network size (the property behind Figure 3b of the paper).

use bgp_model::policy::Policy;
use bgp_model::route::Community;
use bgp_model::routemap::{MatchCond, RouteMap, SetAction};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Walk every community and AS-path-regex mention in a route map (the
/// one definition both scan entry points share).
fn for_each_mention<'m>(
    m: &'m RouteMap,
    comm: &mut dyn FnMut(Community),
    regex: &mut dyn FnMut(&'m str),
) {
    for e in &m.entries {
        for cond in &e.matches {
            match cond {
                MatchCond::Community { comms, .. } => comms.iter().for_each(|c| comm(*c)),
                MatchCond::CommunityList { entries, .. } => {
                    for (_, comms) in entries {
                        comms.iter().for_each(|c| comm(*c));
                    }
                }
                MatchCond::AsPath(entries) => {
                    for (_, re) in entries {
                        regex(re.pattern());
                    }
                }
                _ => {}
            }
        }
        for set in &e.sets {
            match set {
                SetAction::Community { comms, .. } | SetAction::DeleteCommunities(comms) => {
                    comms.iter().for_each(|c| comm(*c));
                }
                _ => {}
            }
        }
    }
}

/// Interned id of an AS-path regex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegexId(pub u32);

/// The attribute universe for one verification problem.
#[derive(Clone, Debug, Default)]
pub struct Universe {
    communities: Vec<Community>,
    comm_index: BTreeMap<Community, usize>,
    regexes: Vec<String>,
    regex_index: BTreeMap<String, RegexId>,
    ghosts: Vec<String>,
}

impl Universe {
    /// An empty universe.
    pub fn new() -> Self {
        Universe::default()
    }

    /// Collect every community and AS-path regex mentioned in a policy.
    pub fn from_policy(policy: &Policy) -> Self {
        let mut u = Universe::new();
        u.scan_policy(policy);
        u
    }

    /// Scan a policy, adding everything it mentions — in **sorted**
    /// order, independent of map names, scan order or hash-map
    /// iteration. The universe *layout* (registration order) must be a
    /// pure function of the policy's semantic content: cross-run
    /// re-verification reuses symbolic encodings only while the layout
    /// is unchanged, and a cosmetic edit (e.g. a route-map rename,
    /// which reorders a name-based scan) must not move anything.
    /// A map shared by several edges is scanned once.
    pub fn scan_policy(&mut self, policy: &Policy) {
        let mut comms = BTreeSet::new();
        let mut regexes = BTreeSet::new();
        let mut maps: Vec<&Arc<RouteMap>> = (policy.imports().chain(policy.exports()))
            .map(|(_, m)| m)
            .collect();
        maps.sort_unstable_by_key(|m| Arc::as_ptr(m));
        maps.dedup_by(|a, b| Arc::ptr_eq(a, b));
        for m in maps {
            for_each_mention(
                m,
                &mut |c| {
                    comms.insert(c);
                },
                &mut |re| {
                    regexes.insert(re);
                },
            );
        }
        for (_, routes) in policy.originations() {
            for r in routes {
                comms.extend(r.communities.iter().copied());
            }
        }
        for c in comms {
            self.add_community(c);
        }
        for p in regexes {
            self.add_regex(p);
        }
    }

    /// Scan one route map (attributes register in encounter order; use
    /// [`Universe::scan_policy`] for the canonical whole-policy layout).
    pub fn scan_route_map(&mut self, m: &RouteMap) {
        let mut comms = Vec::new();
        let mut regexes = Vec::new();
        for_each_mention(m, &mut |c| comms.push(c), &mut |re| {
            regexes.push(re.to_string())
        });
        for c in comms {
            self.add_community(c);
        }
        for p in regexes {
            self.add_regex(&p);
        }
    }

    /// Register a community; returns its bit index.
    pub fn add_community(&mut self, c: Community) -> usize {
        if let Some(&i) = self.comm_index.get(&c) {
            return i;
        }
        let i = self.communities.len();
        self.communities.push(c);
        self.comm_index.insert(c, i);
        i
    }

    /// Register an AS-path regex; returns its id.
    pub fn add_regex(&mut self, pattern: &str) -> RegexId {
        if let Some(&id) = self.regex_index.get(pattern) {
            return id;
        }
        let id = RegexId(self.regexes.len() as u32);
        self.regexes.push(pattern.to_string());
        self.regex_index.insert(pattern.to_string(), id);
        id
    }

    /// Register a ghost attribute name; returns its index.
    pub fn add_ghost(&mut self, name: &str) -> usize {
        if let Some(i) = self.ghosts.iter().position(|g| g == name) {
            return i;
        }
        self.ghosts.push(name.to_string());
        self.ghosts.len() - 1
    }

    /// Bit index of a community, if registered.
    pub fn community_index(&self, c: Community) -> Option<usize> {
        self.comm_index.get(&c).copied()
    }

    /// Id of a regex, if registered.
    pub fn regex_id(&self, pattern: &str) -> Option<RegexId> {
        self.regex_index.get(pattern).copied()
    }

    /// Index of a ghost attribute, if registered.
    pub fn ghost_index(&self, name: &str) -> Option<usize> {
        self.ghosts.iter().position(|g| g == name)
    }

    /// The registered communities, in registration order.
    pub fn communities(&self) -> &[Community] {
        &self.communities
    }

    /// The registered regex patterns.
    pub fn regexes(&self) -> &[String] {
        &self.regexes
    }

    /// The registered ghost names.
    pub fn ghosts(&self) -> &[String] {
        &self.ghosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::{RouteMapEntry, SetAction};
    use bgp_model::topology::EdgeId;

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    #[test]
    fn collects_from_policy() {
        let mut pol = Policy::new();
        let mut m = RouteMap::new("A");
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("1:1"), c("2:2")],
            additive: true,
        }));
        m.push(RouteMapEntry::deny(20).matching(MatchCond::Community {
            comms: vec![c("3:3")],
            match_all: false,
        }));
        pol.set_import(EdgeId(0), m);
        let re = bgp_model::AsPathRegex::compile("_65001_").unwrap();
        let mut m2 = RouteMap::new("B");
        m2.push(RouteMapEntry::deny(10).matching(MatchCond::AsPath(vec![(true, re)])));
        pol.set_export(EdgeId(1), m2);

        let u = Universe::from_policy(&pol);
        assert_eq!(u.communities().len(), 3);
        assert!(u.community_index(c("1:1")).is_some());
        assert!(u.community_index(c("3:3")).is_some());
        assert!(u.community_index(c("9:9")).is_none());
        assert_eq!(u.regexes().len(), 1);
        assert!(u.regex_id("_65001_").is_some());
    }

    #[test]
    fn interning_is_idempotent() {
        let mut u = Universe::new();
        let a = u.add_community(c("1:1"));
        let b = u.add_community(c("1:1"));
        assert_eq!(a, b);
        let r1 = u.add_regex("_1_");
        let r2 = u.add_regex("_1_");
        assert_eq!(r1, r2);
        let g1 = u.add_ghost("G");
        let g2 = u.add_ghost("G");
        assert_eq!(g1, g2);
        assert_eq!(u.ghosts(), &["G".to_string()]);
    }

    #[test]
    fn deterministic_order() {
        // Policies built in different insertion orders yield the same
        // universe (important for reproducible check encodings).
        let mk = |order: &[&str]| {
            let mut pol = Policy::new();
            for (i, name) in order.iter().enumerate() {
                let mut m = RouteMap::new(*name);
                let comm = if *name == "A" { c("1:1") } else { c("2:2") };
                m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
                    comms: vec![comm],
                    additive: true,
                }));
                pol.set_import(EdgeId(i as u32), m);
            }
            Universe::from_policy(&pol).communities().to_vec()
        };
        assert_eq!(mk(&["A", "B"]), mk(&["B", "A"]));
    }
}
