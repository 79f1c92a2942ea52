//! Per-location network invariants (§4.1).
//!
//! An invariant assignment maps every location — router or directed edge —
//! to a route predicate. The paper requires exactly one invariant per
//! location and forces `True` on edges out of external routers ("we make
//! no assumption about routes coming from external neighbors"); this
//! module enforces the latter.
//!
//! In structured networks most locations share the same "key invariant"
//! (the three-part pattern of §2.1) and the rest fall into a handful of
//! classes — one per region, cluster or role. The representation follows
//! that shape: every *distinct* predicate is stored once, interned by
//! content, and each location maps to the index of its predicate; a
//! location without an entry takes the default. [`NetworkInvariants::from_node_fn`]
//! builds each class's predicate once. A 754-router assignment over 13
//! clusters therefore holds 13 predicates besides the default, and
//! everything keyed by a predicate's address downstream — fingerprint
//! part digests, the rendered conjunct table — sees 13 instances, not one
//! per location.

use crate::pred::RoutePred;
use bgp_model::topology::{EdgeId, NodeId, Topology};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A verification location: a router or a directed edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// A configured router.
    Node(NodeId),
    /// A directed edge (peering session direction).
    Edge(EdgeId),
}

impl Location {
    /// Render with topology names (`R1` or `R1 -> ISP2`).
    pub fn display(&self, topo: &Topology) -> String {
        self.display_parts(topo).concat()
    }

    /// [`Location::display`] in pieces, for splicing into a longer
    /// string or streaming without joining: a node's name (and two
    /// empty pieces), or an edge's [`Topology::edge_name_parts`].
    pub fn display_parts<'t>(&self, topo: &'t Topology) -> [&'t str; 3] {
        match self {
            Location::Node(n) => [&topo.node(*n).name, "", ""],
            Location::Edge(e) => topo.edge_name_parts(*e),
        }
    }
}

/// A location slot with no override: the location takes the default.
const UNSET: u32 = u32::MAX;

/// The invariant assignment `I`.
#[derive(Clone, Debug)]
pub struct NetworkInvariants {
    /// Every distinct predicate once; `preds[0]` is the default.
    preds: Vec<RoutePred>,
    /// Content hash → index into `preds`. A hash shared by two unequal
    /// predicates keeps the first: the second is stored unshared, which
    /// costs memory, never correctness.
    by_content: HashMap<u64, u32>,
    /// Per node id: the index of its override, or [`UNSET`].
    nodes: Vec<u32>,
    /// Per edge id: the index of its override, or [`UNSET`].
    edges: Vec<u32>,
}

impl NetworkInvariants {
    /// All locations get `True` (no constraint) unless overridden.
    pub fn new() -> Self {
        Self::with_default(RoutePred::True)
    }

    /// All locations get `default` unless overridden. This is the usual
    /// entry point: `default` is the key inductive invariant, and the
    /// handful of special locations (the property edge, external-facing
    /// edges) are overridden with [`NetworkInvariants::set`].
    pub fn with_default(default: RoutePred) -> Self {
        let mut inv = NetworkInvariants {
            preds: Vec::new(),
            by_content: HashMap::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        inv.intern(default);
        inv
    }

    /// The index of `pred`'s content, stored on first sight.
    fn intern(&mut self, pred: RoutePred) -> u32 {
        let mut h = DefaultHasher::new();
        pred.hash(&mut h);
        let next = self.preds.len() as u32;
        match self.by_content.entry(h.finish()) {
            Entry::Occupied(e) if self.preds[*e.get() as usize] == pred => return *e.get(),
            Entry::Occupied(_) => {}
            Entry::Vacant(e) => {
                e.insert(next);
            }
        }
        self.preds.push(pred);
        next
    }

    /// The override slot of `loc`, grown on demand.
    fn slot_mut(&mut self, loc: Location) -> &mut u32 {
        let (slots, i) = match loc {
            Location::Node(n) => (&mut self.nodes, n.0 as usize),
            Location::Edge(e) => (&mut self.edges, e.0 as usize),
        };
        if slots.len() <= i {
            slots.resize(i + 1, UNSET);
        }
        &mut slots[i]
    }

    /// The index of `loc`'s override, if it has one.
    fn slot(&self, loc: Location) -> Option<usize> {
        let (slots, i) = match loc {
            Location::Node(n) => (&self.nodes, n.0),
            Location::Edge(e) => (&self.edges, e.0),
        };
        slots
            .get(i as usize)
            .filter(|&&p| p != UNSET)
            .map(|&p| p as usize)
    }

    /// Every override as `(location, predicate index)`, in location order.
    fn slots(&self) -> impl Iterator<Item = (Location, usize)> + '_ {
        let nodes =
            (self.nodes.iter().enumerate()).map(|(i, &p)| (Location::Node(NodeId(i as u32)), p));
        let edges =
            (self.edges.iter().enumerate()).map(|(i, &p)| (Location::Edge(EdgeId(i as u32)), p));
        nodes
            .chain(edges)
            .filter(|&(_, p)| p != UNSET)
            .map(|(loc, p)| (loc, p as usize))
    }

    /// Override the invariant at one location. A predicate equal to one
    /// already held is not stored again: the location shares it.
    pub fn set(&mut self, loc: Location, pred: RoutePred) -> &mut Self {
        let i = self.intern(pred);
        *self.slot_mut(loc) = i;
        self
    }

    /// Builder-style [`NetworkInvariants::set`].
    pub fn with(mut self, loc: Location, pred: RoutePred) -> Self {
        self.set(loc, pred);
        self
    }

    /// The invariant at a location, applying the paper's rule that edges
    /// out of external routers are unconstrained (`True`) regardless of
    /// overrides.
    pub fn at(&self, topo: &Topology, loc: Location) -> RoutePred {
        self.at_ref(topo, loc).clone()
    }

    /// [`NetworkInvariants::at`] without the copy: the shared instance of
    /// the location's override, the default, or a static `True`.
    pub fn at_ref(&self, topo: &Topology, loc: Location) -> &RoutePred {
        static TRUE: RoutePred = RoutePred::True;
        if let Location::Edge(e) = loc {
            if topo.node(topo.edge(e).src).external {
                return &TRUE;
            }
        }
        &self.preds[self.slot(loc).unwrap_or(0)]
    }

    /// The raw override at a location, if any (ignores the external rule).
    pub fn override_at(&self, loc: Location) -> Option<&RoutePred> {
        self.slot(loc).map(|i| &self.preds[i])
    }

    /// The default invariant.
    pub fn default_pred(&self) -> &RoutePred {
        &self.preds[0]
    }

    /// Build an assignment from router classes, following the common
    /// "edges have the same invariant as the sending router" rule (Table
    /// 4b of the paper): `class(n)` names router `n`'s invariant class —
    /// its region, cluster or role — and `pred` builds each class's
    /// predicate, once per class. Node `n` gets its class's predicate; an
    /// edge gets its source router's (edges from externals are `True`
    /// automatically).
    pub fn from_node_fn<K: Eq + Hash>(
        topo: &Topology,
        class: impl Fn(NodeId) -> K,
        mut pred: impl FnMut(&K) -> RoutePred,
    ) -> Self {
        let mut inv = NetworkInvariants::new();
        let mut of_class: HashMap<K, u32> = HashMap::new();
        let mut nodes = vec![UNSET; topo.num_nodes()];
        for n in topo.router_ids() {
            nodes[n.0 as usize] = match of_class.entry(class(n)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let i = inv.intern(pred(e.key()));
                    *e.insert(i)
                }
            };
        }
        // An external source's slot is unset, so its edges stay unset.
        inv.edges = topo
            .edge_ids()
            .map(|e| nodes[topo.edge(e).src.0 as usize])
            .collect();
        inv.nodes = nodes;
        inv
    }

    /// Register everything the invariants mention into a universe: the
    /// default, then every predicate some location holds, each once.
    pub fn register(&self, universe: &mut crate::universe::Universe) {
        let mut held = vec![false; self.preds.len()];
        held[0] = true;
        for (_, i) in self.slots() {
            held[i] = true;
        }
        for (p, _) in self.preds.iter().zip(held).filter(|(_, h)| *h) {
            p.register(universe);
        }
    }
}

impl Default for NetworkInvariants {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for NetworkInvariants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "default: {}", self.default_pred())?;
        let mut rendered: Vec<Option<String>> = vec![None; self.preds.len()];
        for (loc, i) in self.slots() {
            let text = rendered[i].get_or_insert_with(|| self.preds[i].to_string());
            writeln!(f, "{loc:?}: {text}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::Community;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    fn topo() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let r = t.add_router("R", 65000);
        let x = t.add_external("X", 1);
        t.add_session(r, x);
        (t, r, x)
    }

    fn comm(n: u16) -> RoutePred {
        RoutePred::has_community(Community::new(1, n))
    }

    #[test]
    fn default_and_overrides() {
        let (t, r, _x) = topo();
        let key = comm(1);
        let inv =
            NetworkInvariants::with_default(key.clone()).with(Location::Node(r), RoutePred::True);
        assert_eq!(inv.at(&t, Location::Node(r)), RoutePred::True);
        // Edge R -> X uses the default.
        let rx = t.edge_between(r, t.node_by_name("X").unwrap()).unwrap();
        assert_eq!(inv.at(&t, Location::Edge(rx)), key);
    }

    #[test]
    fn external_edges_forced_true() {
        let (t, r, x) = topo();
        let key = comm(1);
        let xr = t.edge_between(x, r).unwrap();
        // Even with an explicit override, the external in-edge is True.
        let inv = NetworkInvariants::with_default(key.clone()).with(Location::Edge(xr), key);
        assert_eq!(inv.at(&t, Location::Edge(xr)), RoutePred::True);
        assert_eq!(inv.override_at(Location::Edge(xr)), Some(&comm(1)));
    }

    #[test]
    fn location_display() {
        let (t, r, x) = topo();
        assert_eq!(Location::Node(r).display(&t), "R");
        let rx = t.edge_between(r, x).unwrap();
        assert_eq!(Location::Edge(rx).display(&t), "R -> X");
    }

    /// A ring of `n` routers with one external neighbour on router 0.
    fn ring(n: usize) -> Topology {
        let mut t = Topology::new();
        let rs: Vec<NodeId> = (0..n)
            .map(|i| t.add_router(format!("R{i}"), 65000))
            .collect();
        for i in 0..n {
            t.add_session(rs[i], rs[(i + 1) % n]);
        }
        let x = t.add_external("X", 1);
        t.add_session(rs[0], x);
        t
    }

    #[test]
    fn content_equal_sets_share_one_instance() {
        let t = ring(4);
        let (r0, r1, r2) = (NodeId(0), NodeId(1), NodeId(2));
        let mut inv = NetworkInvariants::with_default(comm(9));
        inv.set(Location::Node(r0), comm(1).and(comm(2)));
        inv.set(Location::Node(r1), comm(1).and(comm(2)));
        inv.set(Location::Node(r2), comm(9));
        let at = |n| inv.at_ref(&t, Location::Node(n));
        assert!(std::ptr::eq(at(r0), at(r1)));
        // An override equal to the default shares the default.
        assert!(std::ptr::eq(at(r2), inv.default_pred()));
        assert!(std::ptr::eq(at(NodeId(3)), inv.default_pred()));
        assert!(!std::ptr::eq(at(r0), inv.default_pred()));
        assert!(std::ptr::eq(
            inv.override_at(Location::Node(r1)).unwrap(),
            at(r0)
        ));
    }

    #[test]
    fn from_node_fn_builds_each_class_once() {
        let t = ring(6);
        let calls = Cell::new(0);
        let inv = NetworkInvariants::from_node_fn(
            &t,
            |n| n.0 % 3,
            |&k| {
                calls.set(calls.get() + 1);
                comm(k as u16)
            },
        );
        assert_eq!(calls.get(), 3, "one predicate per class");
        for e in t.edge_ids() {
            let src = t.edge(e).src;
            let want = if t.node(src).external {
                RoutePred::True
            } else {
                comm((src.0 % 3) as u16)
            };
            assert_eq!(inv.at(&t, Location::Edge(e)), want);
            if !t.node(src).external {
                assert!(std::ptr::eq(
                    inv.at_ref(&t, Location::Edge(e)),
                    inv.at_ref(&t, Location::Node(NodeId(src.0 % 3)))
                ));
            }
        }
    }

    #[test]
    fn external_rule_beats_a_shared_override() {
        let t = ring(3);
        let x = t.node_by_name("X").unwrap();
        let x_r0 = t.edge_between(x, NodeId(0)).unwrap();
        let inv = NetworkInvariants::from_node_fn(&t, |_| (), |_| comm(1))
            .with(Location::Edge(x_r0), comm(1));
        assert_eq!(inv.at(&t, Location::Edge(x_r0)), RoutePred::True);
        assert!(std::ptr::eq(
            inv.override_at(Location::Edge(x_r0)).unwrap(),
            inv.at_ref(&t, Location::Node(NodeId(0)))
        ));
    }

    /// Random set sequences against a plain per-location map: the same
    /// `at`, `override_at` and `Display` text.
    #[test]
    fn interned_assignment_matches_a_plain_map() {
        let t = ring(5);
        let locs: Vec<Location> = (t.node_ids().map(Location::Node))
            .chain(t.edge_ids().map(Location::Edge))
            .collect();
        let mut seed = 0x9e37_79b9_u64;
        let mut next = |m: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize % m
        };
        for round in 0..40 {
            let default = comm(next(3) as u16);
            let mut inv = NetworkInvariants::with_default(default.clone());
            let mut plain: BTreeMap<Location, RoutePred> = BTreeMap::new();
            for _ in 0..round % 12 {
                let loc = locs[next(locs.len())];
                let pred = match next(3) {
                    0 => comm(next(3) as u16),
                    1 => comm(next(3) as u16).and(comm(7)),
                    _ => RoutePred::True,
                };
                inv.set(loc, pred.clone());
                plain.insert(loc, pred);
            }
            let mut text = format!("default: {default}\n");
            for (loc, p) in &plain {
                text += &format!("{loc:?}: {p}\n");
            }
            assert_eq!(inv.to_string(), text, "round {round}");
            for &loc in &locs {
                assert_eq!(inv.override_at(loc), plain.get(&loc), "round {round}");
                let forced = matches!(loc, Location::Edge(e) if t.node(t.edge(e).src).external);
                let want = match (forced, plain.get(&loc)) {
                    (true, _) => RoutePred::True,
                    (false, Some(p)) => p.clone(),
                    (false, None) => default.clone(),
                };
                assert_eq!(inv.at(&t, loc), want, "round {round} {loc:?}");
            }
        }
    }
}
