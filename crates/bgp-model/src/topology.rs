//! BGP network topology (§3.1): configured routers, external neighbors,
//! and directed edges representing BGP peering sessions.
//!
//! Node and edge ids are dense (`0..num_nodes`, `0..num_edges`), so
//! every table keyed by one is a `Vec` indexed by it: the adjacency
//! lists here, the route maps of [`crate::policy::Policy`]. The one
//! hashed id table, `(src, dst) -> edge`, packs its key into a `u64`
//! under a multiply hasher. The name index is keyed by configuration
//! text and keeps the standard hasher.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a node (router or external neighbor).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A node in the topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable router name.
    pub name: String,
    /// The node's AS number.
    pub asn: u32,
    /// True for external neighbors (no configuration provided).
    pub external: bool,
}

/// A directed edge `src -> dst` (one direction of a peering session).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

/// Hasher for the packed `(src, dst)` keys of `edge_index`: ids the
/// program assigns, where a DoS-resistant hash buys nothing. One
/// 64×64→128-bit multiply, folded, so every key bit reaches the bucket
/// bits.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("edge_index keys are u64s")
    }

    fn write_u64(&mut self, key: u64) {
        let product = key as u128 * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `edge_index` key of `src -> dst`.
fn pair(src: NodeId, dst: NodeId) -> u64 {
    (src.0 as u64) << 32 | dst.0 as u64
}

/// The serialized form of a [`Topology`]: its nodes and edges. The
/// indexes are derived from these on the way in.
#[derive(Deserialize)]
struct TopologyWire {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

/// The BGP topology graph.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(try_from = "TopologyWire")]
pub struct Topology {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    #[serde(skip)]
    name_index: HashMap<String, NodeId>,
    #[serde(skip)]
    edge_index: HashMap<u64, EdgeId, BuildHasherDefault<PairHasher>>,
    /// Outgoing edges by node id.
    #[serde(skip)]
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edges by node id.
    #[serde(skip)]
    in_edges: Vec<Vec<EdgeId>>,
}

impl TryFrom<TopologyWire> for Topology {
    type Error = String;

    /// Rebuild a topology node by node and edge by edge, so a decoded
    /// one answers every lookup; a name or edge given twice, or an edge
    /// naming a node that is not there, is an error.
    fn try_from(wire: TopologyWire) -> Result<Self, String> {
        let mut t = Topology::new();
        for n in wire.nodes {
            if t.name_index.contains_key(&n.name) {
                return Err(format!("duplicate node name {:?}", n.name));
            }
            t.add_node(n.name, n.asn, n.external);
        }
        for Edge { src, dst } in wire.edges {
            if src.0 as usize >= t.nodes.len() || dst.0 as usize >= t.nodes.len() {
                return Err(format!("edge {src:?} -> {dst:?} names a missing node"));
            }
            if t.edge_between(src, dst).is_some() {
                return Err(format!("duplicate edge {src:?} -> {dst:?}"));
            }
            t.add_edge(src, dst);
        }
        Ok(t)
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add an internal (configured) router. Panics on duplicate names.
    pub fn add_router(&mut self, name: impl Into<String>, asn: u32) -> NodeId {
        self.add_node(name.into(), asn, false)
    }

    /// Add an external neighbor.
    pub fn add_external(&mut self, name: impl Into<String>, asn: u32) -> NodeId {
        self.add_node(name.into(), asn, true)
    }

    fn add_node(&mut self, name: String, asn: u32, external: bool) -> NodeId {
        assert!(
            !self.name_index.contains_key(&name),
            "duplicate node name {name:?}"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.name_index.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            asn,
            external,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Add a directed edge. Panics on duplicates.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        match self.edge_index.entry(pair(src, dst)) {
            Entry::Occupied(_) => panic!("duplicate edge {src:?} -> {dst:?}"),
            Entry::Vacant(slot) => slot.insert(id),
        };
        self.edges.push(Edge { src, dst });
        self.out_edges[src.0 as usize].push(id);
        self.in_edges[dst.0 as usize].push(id);
        id
    }

    /// Add a bidirectional peering session (both directed edges).
    pub fn add_session(&mut self, a: NodeId, b: NodeId) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b), self.add_edge(b, a))
    }

    /// Node data.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Edge data.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.0 as usize]
    }

    /// Look up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Look up a directed edge by endpoints.
    pub fn edge_between(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.edge_index.get(&pair(src, dst)).copied()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Ids of configured (internal) routers.
    pub fn router_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| !self.node(n).external)
    }

    /// Ids of external neighbors.
    pub fn external_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.node(n).external)
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        self.out_edges.get(n.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        self.in_edges.get(n.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when `e` is an eBGP edge (endpoint AS numbers differ).
    pub fn is_ebgp(&self, e: EdgeId) -> bool {
        let edge = self.edge(e);
        self.node(edge.src).asn != self.node(edge.dst).asn
    }

    /// Human-readable rendering of an edge, e.g. `R1 -> ISP1`.
    pub fn edge_name(&self, e: EdgeId) -> String {
        self.edge_name_parts(e).concat()
    }

    /// [`Topology::edge_name`] in pieces — sender, ` -> `, receiver —
    /// for callers that splice it into a longer string.
    pub fn edge_name_parts(&self, e: EdgeId) -> [&str; 3] {
        let edge = self.edge(e);
        [&self.node(edge.src).name, " -> ", &self.node(edge.dst).name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_router("A", 65000);
        let b = t.add_router("B", 65000);
        let x = t.add_external("X", 174);
        t.add_session(a, b);
        t.add_session(a, x);
        (t, a, b, x)
    }

    #[test]
    fn build_and_lookup() {
        let (t, a, b, x) = tri();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.node_by_name("A"), Some(a));
        assert_eq!(t.node_by_name("missing"), None);
        assert!(t.edge_between(a, b).is_some());
        assert!(t.edge_between(b, a).is_some());
        assert!(t.edge_between(b, x).is_none());
        assert_eq!(t.router_ids().count(), 2);
        assert_eq!(t.external_ids().count(), 1);
    }

    #[test]
    fn ebgp_vs_ibgp() {
        let (t, a, b, x) = tri();
        let ab = t.edge_between(a, b).unwrap();
        let ax = t.edge_between(a, x).unwrap();
        assert!(!t.is_ebgp(ab));
        assert!(t.is_ebgp(ax));
    }

    #[test]
    fn adjacency() {
        let (t, a, _b, _x) = tri();
        assert_eq!(t.out_edges(a).len(), 2);
        assert_eq!(t.in_edges(a).len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_router("A", 1);
        t.add_router("A", 2);
    }

    #[test]
    fn serde_roundtrip_rebuilds_indexes() {
        let (t, a, b, _x) = tri();
        let json = serde_json::to_string(&t).unwrap();
        let t2: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t2.node_by_name("A"), Some(a));
        assert!(t2.edge_between(a, b).is_some());
        for n in t.node_ids() {
            assert_eq!(t2.out_edges(n), t.out_edges(n));
            assert_eq!(t2.in_edges(n), t.in_edges(n));
        }
        assert_eq!(serde_json::to_string(&t2).unwrap(), json);
    }

    #[test]
    fn malformed_topology_json_is_an_error() {
        let node = r#"{"name":"A","asn":1,"external":false}"#;
        for (json, want) in [
            (
                format!(r#"{{"nodes":[{node},{node}],"edges":[]}}"#),
                "duplicate node name",
            ),
            (
                format!(r#"{{"nodes":[{node}],"edges":[{{"src":0,"dst":1}}]}}"#),
                "names a missing node",
            ),
            (
                format!(
                    r#"{{"nodes":[{node}],"edges":[{{"src":0,"dst":0}},{{"src":0,"dst":0}}]}}"#
                ),
                "duplicate edge",
            ),
        ] {
            let err = serde_json::from_str::<Topology>(&json).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }
}
