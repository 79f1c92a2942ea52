//! The JSON verification-spec format.
//!
//! A spec names locations by router names (`"R1"`) or edge strings
//! (`"R1 -> ISP2"`), defines ghost attributes by their update edges, and
//! states properties/invariants as [`RoutePred`] values (which serialize
//! naturally via serde).
//!
//! ```json
//! {
//!   "ghosts": [
//!     { "name": "FromISP1",
//!       "set_true_on_import": ["ISP1 -> R1"],
//!       "set_false_on_import": ["ISP2 -> R2"] }
//!   ],
//!   "safety": [
//!     { "name": "no-transit",
//!       "location": "R2 -> ISP2",
//!       "property": { "Not": { "Ghost": "FromISP1" } },
//!       "invariant_default": { "Or": [ { "Not": { "Ghost": "FromISP1" } },
//!                                       { "HasCommunity": 6553601 } ] },
//!       "invariant_overrides": {
//!         "R2 -> ISP2": { "Not": { "Ghost": "FromISP1" } } } }
//!   ]
//! }
//! ```

use bgp_config::Network;
use bgp_model::topology::{EdgeId, Topology};
use lightyear::engine::Verifier;
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::{Location, NetworkInvariants};
use lightyear::liveness::LivenessSpec;
use lightyear::pred::RoutePred;
use lightyear::safety::SafetyProperty;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A ghost-attribute definition in the spec.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct GhostSpec {
    /// Attribute name.
    pub name: String,
    /// Edges whose import sets the attribute true.
    #[serde(default)]
    pub set_true_on_import: Vec<String>,
    /// Edges whose import sets the attribute false.
    #[serde(default)]
    pub set_false_on_import: Vec<String>,
    /// Edges whose export sets the attribute true.
    #[serde(default)]
    pub set_true_on_export: Vec<String>,
    /// Edges whose export sets the attribute false.
    #[serde(default)]
    pub set_false_on_export: Vec<String>,
    /// Value on originated routes (default false).
    #[serde(default)]
    pub originate_value: bool,
}

/// One safety property with its invariants.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SafetySpec {
    /// Display name.
    pub name: String,
    /// Property location (router name or `"A -> B"`).
    pub location: String,
    /// The property predicate.
    pub property: RoutePred,
    /// Default invariant for all locations.
    #[serde(default = "RoutePred::tru")]
    pub invariant_default: RoutePred,
    /// Per-location overrides.
    #[serde(default)]
    pub invariant_overrides: BTreeMap<String, RoutePred>,
}

/// One liveness property with its witness path and interference
/// invariants (§5): a route satisfying `constraints[0]` entering the
/// path eventually produces a route satisfying `property` at
/// `location`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LivenessSpecJson {
    /// Display name.
    pub name: String,
    /// The property location (must equal the last path location).
    pub location: String,
    /// The predicate a route reaching the location must satisfy.
    pub property: RoutePred,
    /// The witness path: alternating edge (`"A -> B"`) and router
    /// locations ending at `location`.
    pub path: Vec<String>,
    /// One "good routes here" constraint per path location.
    pub constraints: Vec<RoutePred>,
    /// The prefix scope of the no-interference checks.
    pub prefix_scope: RoutePred,
    /// Default interference invariant for all locations.
    #[serde(default = "RoutePred::tru")]
    pub interference_default: RoutePred,
    /// Per-location interference overrides.
    #[serde(default)]
    pub interference_overrides: BTreeMap<String, RoutePred>,
}

/// The whole verification spec.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct Spec {
    /// Ghost attribute definitions.
    #[serde(default)]
    pub ghosts: Vec<GhostSpec>,
    /// Safety properties to verify.
    #[serde(default)]
    pub safety: Vec<SafetySpec>,
    /// Liveness properties to verify.
    #[serde(default)]
    pub liveness: Vec<LivenessSpecJson>,
}

/// A spec bound to one network: everything a run needs, resolved before
/// any check runs.
pub struct Bound<'n> {
    /// A verifier over the network with every ghost attached.
    pub verifier: Verifier<'n>,
    /// Each safety property with its invariants, in spec order.
    pub safety: Vec<(SafetyProperty, NetworkInvariants)>,
    /// Each liveness property, in spec order.
    pub liveness: Vec<LivenessSpec>,
}

impl Spec {
    /// Resolve the whole spec against `net`. Every command binds its spec
    /// here, so a name that does not resolve fails the run before any
    /// check is posed, whichever command asked.
    pub fn bind<'n>(&self, net: &'n Network) -> Result<Bound<'n>, SpecResolveError> {
        let topo = &net.topology;
        let mut verifier = Verifier::new(topo, &net.policy);
        for g in &self.ghosts {
            verifier = verifier.with_ghost(g.resolve(topo)?);
        }
        Ok(Bound {
            verifier,
            safety: self
                .safety
                .iter()
                .map(|s| s.resolve(topo))
                .collect::<Result<_, _>>()?,
            liveness: self
                .liveness
                .iter()
                .map(|l| l.resolve(topo))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Spec-resolution errors (unknown router/edge names).
#[derive(Clone, Debug)]
pub struct SpecResolveError(pub String);

impl fmt::Display for SpecResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecResolveError {}

/// Resolve a location string against a topology.
pub fn resolve_location(topo: &Topology, s: &str) -> Result<Location, SpecResolveError> {
    if let Some((a, b)) = s.split_once("->") {
        let a = a.trim();
        let b = b.trim();
        let na = topo
            .node_by_name(a)
            .ok_or_else(|| SpecResolveError(format!("unknown router {a:?}")))?;
        let nb = topo
            .node_by_name(b)
            .ok_or_else(|| SpecResolveError(format!("unknown router {b:?}")))?;
        let e = topo
            .edge_between(na, nb)
            .ok_or_else(|| SpecResolveError(format!("no edge {a} -> {b}")))?;
        Ok(Location::Edge(e))
    } else {
        let n = topo
            .node_by_name(s.trim())
            .ok_or_else(|| SpecResolveError(format!("unknown router {s:?}")))?;
        Ok(Location::Node(n))
    }
}

fn resolve_edge(topo: &Topology, s: &str) -> Result<EdgeId, SpecResolveError> {
    match resolve_location(topo, s)? {
        Location::Edge(e) => Ok(e),
        Location::Node(_) => Err(SpecResolveError(format!(
            "{s:?} names a router; an edge (\"A -> B\") is required"
        ))),
    }
}

impl GhostSpec {
    /// Resolve into a [`GhostAttr`].
    fn resolve(&self, topo: &Topology) -> Result<GhostAttr, SpecResolveError> {
        let mut g = GhostAttr::new(&self.name).with_originate_value(self.originate_value);
        for s in &self.set_true_on_import {
            g.on_import(resolve_edge(topo, s)?, GhostUpdate::SetTrue);
        }
        for s in &self.set_false_on_import {
            g.on_import(resolve_edge(topo, s)?, GhostUpdate::SetFalse);
        }
        for s in &self.set_true_on_export {
            g.on_export(resolve_edge(topo, s)?, GhostUpdate::SetTrue);
        }
        for s in &self.set_false_on_export {
            g.on_export(resolve_edge(topo, s)?, GhostUpdate::SetFalse);
        }
        Ok(g)
    }
}

impl LivenessSpecJson {
    /// Resolve into a [`LivenessSpec`] (path-shape validation happens in
    /// `Verifier::verify_liveness`).
    fn resolve(&self, topo: &Topology) -> Result<LivenessSpec, SpecResolveError> {
        let mut interference = NetworkInvariants::with_default(self.interference_default.clone());
        for (l, p) in &self.interference_overrides {
            interference.set(resolve_location(topo, l)?, p.clone());
        }
        Ok(LivenessSpec {
            location: resolve_location(topo, &self.location)?,
            pred: self.property.clone(),
            path: self
                .path
                .iter()
                .map(|l| resolve_location(topo, l))
                .collect::<Result<_, _>>()?,
            constraints: self.constraints.clone(),
            prefix_scope: self.prefix_scope.clone(),
            interference_invariants: interference,
            name: Some(self.name.clone()),
        })
    }
}

impl SafetySpec {
    /// Resolve into verifier inputs.
    fn resolve(
        &self,
        topo: &Topology,
    ) -> Result<(SafetyProperty, NetworkInvariants), SpecResolveError> {
        let loc = resolve_location(topo, &self.location)?;
        let prop = SafetyProperty::new(loc, self.property.clone()).named(&self.name);
        let mut inv = NetworkInvariants::with_default(self.invariant_default.clone());
        for (l, p) in &self.invariant_overrides {
            inv.set(resolve_location(topo, l)?, p.clone());
        }
        Ok((prop, inv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let x = t.add_external("ISP1", 100);
        t.add_session(x, r1);
        t
    }

    #[test]
    fn location_resolution() {
        let t = topo();
        assert!(matches!(resolve_location(&t, "R1"), Ok(Location::Node(_))));
        assert!(matches!(
            resolve_location(&t, "ISP1 -> R1"),
            Ok(Location::Edge(_))
        ));
        assert!(matches!(
            resolve_location(&t, " ISP1->R1 "),
            Ok(Location::Edge(_))
        ));
        assert!(resolve_location(&t, "NOPE").is_err());
        assert!(resolve_location(&t, "R1 -> NOPE").is_err());
    }

    #[test]
    fn ghost_resolution() {
        let t = topo();
        let gs = GhostSpec {
            name: "G".into(),
            set_true_on_import: vec!["ISP1 -> R1".into()],
            ..Default::default()
        };
        let g = gs.resolve(&t).unwrap();
        let e = resolve_edge(&t, "ISP1 -> R1").unwrap();
        assert_eq!(g.import_update(e), GhostUpdate::SetTrue);
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = Spec {
            ghosts: vec![GhostSpec {
                name: "FromISP1".into(),
                set_true_on_import: vec!["ISP1 -> R1".into()],
                ..Default::default()
            }],
            safety: vec![SafetySpec {
                name: "p".into(),
                location: "R1".into(),
                property: RoutePred::ghost("FromISP1").not(),
                invariant_default: RoutePred::True,
                invariant_overrides: BTreeMap::new(),
            }],
            liveness: vec![LivenessSpecJson {
                name: "l".into(),
                location: "R1".into(),
                property: RoutePred::True,
                path: vec!["ISP1 -> R1".into(), "R1".into()],
                constraints: vec![RoutePred::True, RoutePred::True],
                prefix_scope: RoutePred::True,
                interference_default: RoutePred::True,
                interference_overrides: BTreeMap::new(),
            }],
        };
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: Spec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ghosts[0].name, "FromISP1");
        assert_eq!(back.safety[0].property, RoutePred::ghost("FromISP1").not());
        assert_eq!(back.liveness[0].name, "l");
        assert_eq!(back.liveness[0].path.len(), 2);
        let resolved = back.liveness[0].resolve(&topo()).unwrap();
        assert_eq!(resolved.path.len(), 2);
        assert_eq!(resolved.name.as_deref(), Some("l"));
    }

    #[test]
    fn edge_required_for_ghosts() {
        let t = topo();
        let gs = GhostSpec {
            name: "G".into(),
            set_true_on_import: vec!["R1".into()],
            ..Default::default()
        };
        assert!(gs.resolve(&t).is_err());
    }
}
