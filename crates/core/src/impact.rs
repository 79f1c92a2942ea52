//! Change-impact analysis: the router→checks adjacency index.
//!
//! Lightyear's checks are local (§4.2): every Import/Export/Originate
//! check depends on exactly one edge's filter, so a configuration change
//! on router `R` can only affect checks on edges incident to `R` — the
//! router's own filters plus each neighbor's sessions with it. The
//! [`CheckIndex`] materializes that adjacency for one round's generated
//! check set, giving re-verification its *dirty candidate* set in
//! O(degree) instead of O(network).
//!
//! Candidates are an over-approximation by design: the definitive dirty
//! test is fingerprint equality (rename-invariant, see
//! [`crate::fingerprint`]), which weeds out cosmetic edits — a route-map
//! rename or a semantics-preserving rewrite leaves every fingerprint
//! unchanged and therefore an empty dirty set even though the edited
//! router is a candidate. The index is also what scopes **delta-aware
//! cache invalidation**: only the changed neighborhood's superseded
//! fingerprints are dropped from the carried result cache, never the
//! whole table.

use crate::engine::{CheckBody, ResolvedCheck};
use bgp_model::topology::{NodeId, Topology};
use std::collections::{BTreeSet, HashMap};

/// Adjacency from routers to the checks a change there can dirty.
#[derive(Clone, Debug, Default)]
pub struct CheckIndex {
    /// Node → indices of checks on an incident edge.
    by_node: HashMap<NodeId, Vec<usize>>,
    /// Location-free checks (subsumption/implication): tied to the spec,
    /// not to any edge, but conservatively part of every candidate set.
    global: Vec<usize>,
    /// Total checks indexed.
    total: usize,
}

impl CheckIndex {
    /// Build the index over one round's generated checks.
    pub(crate) fn build(topo: &Topology, checks: &[ResolvedCheck]) -> CheckIndex {
        let mut by_node: HashMap<NodeId, Vec<usize>> = HashMap::new();
        let mut global = Vec::new();
        for (i, c) in checks.iter().enumerate() {
            match c.body {
                CheckBody::Transfer { edge, .. } | CheckBody::Originate { edge, .. } => {
                    let e = topo.edge(edge);
                    by_node.entry(e.src).or_default().push(i);
                    if e.dst != e.src {
                        by_node.entry(e.dst).or_default().push(i);
                    }
                }
                CheckBody::Implication { .. } => global.push(i),
            }
        }
        CheckIndex {
            by_node,
            global,
            total: checks.len(),
        }
    }

    /// Number of checks indexed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Indices of the checks a change to `changed` routers can possibly
    /// affect: every check on an edge incident to a changed node (the
    /// edited router's filters and its neighbors' sessions with it) plus
    /// the location-free implication checks. A sound over-approximation;
    /// fingerprints decide which candidates are actually dirty.
    pub fn dirty_candidates(&self, changed: &[NodeId]) -> BTreeSet<usize> {
        let mut out: BTreeSet<usize> = self.global.iter().copied().collect();
        for n in changed {
            if let Some(v) = self.by_node.get(n) {
                out.extend(v.iter().copied());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Site;
    use crate::pred::RoutePred;
    use bgp_model::topology::EdgeId;

    fn transfer(id: usize, edge: EdgeId) -> ResolvedCheck<'static> {
        ResolvedCheck {
            id,
            site: Site::Import(edge),
            body: CheckBody::Transfer {
                edge,
                is_import: true,
                assume: &RoutePred::True,
                ensure: &RoutePred::True,
                require_accept: false,
            },
        }
    }

    #[test]
    fn candidates_cover_the_neighborhood_only() {
        // Line topology: A - B - C (plus an external X on A).
        let mut t = Topology::new();
        let a = t.add_router("A", 1);
        let b = t.add_router("B", 1);
        let c = t.add_router("C", 1);
        let x = t.add_external("X", 2);
        t.add_session(a, b);
        t.add_session(b, c);
        t.add_session(x, a);

        let checks: Vec<ResolvedCheck> = t
            .edge_ids()
            .enumerate()
            .map(|(i, e)| transfer(i, e))
            .chain(std::iter::once(ResolvedCheck {
                id: t.edge_ids().count(),
                site: Site::Final(crate::invariants::Location::Node(c)),
                body: CheckBody::Implication {
                    assume: &RoutePred::True,
                    ensure: &RoutePred::True,
                },
            }))
            .collect();
        let index = CheckIndex::build(&t, &checks);
        assert_eq!(index.total(), checks.len());

        // A change on C touches only B↔C edges plus the global check.
        let cand = index.dirty_candidates(&[c]);
        for &i in &cand {
            match &checks[i].body {
                CheckBody::Transfer { edge, .. } => {
                    let e = t.edge(*edge);
                    assert!(e.src == c || e.dst == c, "check {i} not incident to C");
                }
                CheckBody::Implication { .. } => {}
                CheckBody::Originate { .. } => unreachable!(),
            }
        }
        // A↔X and A↔B checks are not candidates for a C-only change.
        let edge_ax = t.edge_between(x, a).unwrap();
        let ax_idx = checks
            .iter()
            .position(|ck| matches!(ck.body, CheckBody::Transfer { edge, .. } if edge == edge_ax))
            .unwrap();
        assert!(!cand.contains(&ax_idx));
        // The candidate set is a strict subset of the full check set.
        assert!(cand.len() < checks.len());
    }
}
