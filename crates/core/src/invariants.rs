//! Per-location network invariants (§4.1).
//!
//! An invariant assignment maps every location — router or directed edge —
//! to a route predicate. The paper requires exactly one invariant per
//! location and forces `True` on edges out of external routers ("we make
//! no assumption about routes coming from external neighbors"); this
//! module enforces the latter and provides a default-plus-overrides
//! representation, since in structured networks most locations share the
//! same "key invariant" (the three-part pattern of §2.1).

use crate::pred::RoutePred;
use bgp_model::topology::{EdgeId, NodeId, Topology};
use std::collections::HashMap;
use std::fmt;

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
        match self {
            Location::Node(n) => topo.node(*n).name.clone(),
            Location::Edge(e) => topo.edge_name(*e),
        }
    }
}

/// The invariant assignment `I`.
#[derive(Clone, Debug)]
pub struct NetworkInvariants {
    default: RoutePred,
    overrides: HashMap<Location, RoutePred>,
}

impl NetworkInvariants {
    /// All locations get `True` (no constraint) unless overridden.
    pub fn new() -> Self {
        NetworkInvariants {
            default: RoutePred::True,
            overrides: HashMap::new(),
        }
    }

    /// All locations get `default` unless overridden. This is the usual
    /// entry point: `default` is the key inductive invariant, and the
    /// handful of special locations (the property edge, external-facing
    /// edges) are overridden with [`NetworkInvariants::set`].
    pub fn with_default(default: RoutePred) -> Self {
        NetworkInvariants {
            default,
            overrides: HashMap::new(),
        }
    }

    /// Override the invariant at one location.
    pub fn set(&mut self, loc: Location, pred: RoutePred) -> &mut Self {
        self.overrides.insert(loc, pred);
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

    /// [`NetworkInvariants::at`] without the copy: the override's entry,
    /// the default, or a static `True`.
    pub fn at_ref(&self, topo: &Topology, loc: Location) -> &RoutePred {
        static TRUE: RoutePred = RoutePred::True;
        if let Location::Edge(e) = loc {
            if topo.node(topo.edge(e).src).external {
                return &TRUE;
            }
        }
        self.overrides.get(&loc).unwrap_or(&self.default)
    }

    /// The raw override at a location, if any (ignores the external rule).
    pub fn override_at(&self, loc: Location) -> Option<&RoutePred> {
        self.overrides.get(&loc)
    }

    /// The per-location overrides (unordered).
    pub(crate) fn overrides_iter(&self) -> impl Iterator<Item = (&Location, &RoutePred)> {
        self.overrides.iter()
    }

    /// The default invariant.
    pub fn default_pred(&self) -> &RoutePred {
        &self.default
    }

    /// Build an assignment from a per-router function, following the
    /// common "edges have the same invariant as the sending router" rule
    /// (Table 4b of the paper): node `n` gets `f(n)`; an edge gets its
    /// source router's predicate (edges from externals are `True`
    /// automatically).
    pub fn from_node_fn(topo: &Topology, f: impl Fn(NodeId) -> RoutePred) -> Self {
        let mut inv = NetworkInvariants::new();
        for n in topo.router_ids() {
            inv.set(Location::Node(n), f(n));
        }
        for e in topo.edge_ids() {
            let src = topo.edge(e).src;
            if !topo.node(src).external {
                inv.set(Location::Edge(e), f(src));
            }
        }
        inv
    }

    /// Register everything the invariants mention into a universe.
    pub fn register(&self, universe: &mut crate::universe::Universe) {
        self.default.register(universe);
        for p in self.overrides.values() {
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
        writeln!(f, "default: {}", self.default)?;
        let mut keys: Vec<_> = self.overrides.keys().copied().collect();
        keys.sort();
        for k in keys {
            writeln!(f, "{k:?}: {}", self.overrides[&k])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::Community;

    fn topo() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let r = t.add_router("R", 65000);
        let x = t.add_external("X", 1);
        t.add_session(r, x);
        (t, r, x)
    }

    #[test]
    fn default_and_overrides() {
        let (t, r, _x) = topo();
        let key = RoutePred::has_community(Community::new(1, 1));
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
        let key = RoutePred::has_community(Community::new(1, 1));
        let xr = t.edge_between(x, r).unwrap();
        // Even with an explicit override, the external in-edge is True.
        let inv = NetworkInvariants::with_default(key.clone()).with(Location::Edge(xr), key);
        assert_eq!(inv.at(&t, Location::Edge(xr)), RoutePred::True);
    }

    #[test]
    fn location_display() {
        let (t, r, x) = topo();
        assert_eq!(Location::Node(r).display(&t), "R");
        let rx = t.edge_between(r, x).unwrap();
        assert_eq!(Location::Edge(rx).display(&t), "R -> X");
    }
}
