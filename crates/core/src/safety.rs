//! Safety properties (§4).
//!
//! A safety property `(ℓ, P)` states that every route that can reach
//! location `ℓ` — selected at a router, or forwarded/received on an edge —
//! satisfies `P`, for all possible external announcements and arbitrary
//! node/link failures (§4.5). This module only states properties: their
//! checks are generated and decided by the stages of [`crate::engine`],
//! solved in groups on persistent assumption-based SMT sessions (one
//! session per distinct transfer relation, however many edges carry it,
//! and implication sessions shared by the batch), which is what makes verifying many properties against one invariant
//! assignment (`Verifier::verify_safety_multi`) cheap: the §4.3 lemma
//! already shares the Import/Export/Originate checks across properties,
//! and the per-property subsumption checks then share one solver.
//!
//! The sharing compounds across *independent* property suites too:
//! `Verifier::verify_safety_batch` runs several `(properties,
//! invariants)` problems as one batch, the property-agnostic session
//! key putting same-relation checks from different suites on one
//! persistent session — each distinct relation is encoded once for the
//! whole spec. Passing checks additionally report the unsat core of invariant
//! conjuncts their proof needed (`CheckOutcome::core`).

use crate::invariants::Location;
use crate::pred::RoutePred;
use bgp_model::topology::Topology;
use std::fmt;

/// A network safety property `(ℓ, P)`.
#[derive(Clone, Debug)]
pub struct SafetyProperty {
    /// The location the property constrains.
    pub location: Location,
    /// The predicate every route reaching the location must satisfy.
    pub pred: RoutePred,
    /// Optional human-readable name used in reports.
    pub name: Option<String>,
}

impl SafetyProperty {
    /// A property at a location.
    pub fn new(location: Location, pred: RoutePred) -> Self {
        SafetyProperty {
            location,
            pred,
            name: None,
        }
    }

    /// Attach a display name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Render with topology names.
    pub fn display(&self, topo: &Topology) -> String {
        format!(
            "{}: routes at {} satisfy {}",
            self.name.as_deref().unwrap_or("property"),
            self.location.display(topo),
            self.pred
        )
    }
}

impl fmt::Display for SafetyProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: routes at {:?} satisfy {}",
            self.name.as_deref().unwrap_or("property"),
            self.location,
            self.pred
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::topology::NodeId;

    #[test]
    fn display_includes_name() {
        let p = SafetyProperty::new(Location::Node(NodeId(0)), RoutePred::True).named("no-bogons");
        assert!(p.to_string().contains("no-bogons"));
    }
}
