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
use bgp_model::aspath::AsPathRegex;
use bgp_model::topology::{EdgeId, Topology};
use lightyear::engine::Verifier;
use lightyear::ghost::{GhostAttr, GhostUpdate};
use lightyear::invariants::{Location, NetworkInvariants};
use lightyear::liveness::LivenessSpec;
use lightyear::pred::RoutePred;
use lightyear::safety::SafetyProperty;
use lightyear::universe::Universe;
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
    /// Per-location overrides. An edge out of an external router is
    /// always `True` (the paper's rule), so overriding one is an error.
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
    /// Per-location interference overrides, refused on an edge out of
    /// an external router as [`SafetySpec::invariant_overrides`] are.
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
    /// Read a spec from its JSON text, as `--spec` is read.
    pub fn parse(text: &str) -> Result<Spec, String> {
        serde_json::from_str(text).map_err(|e| format!("bad spec: {e}"))
    }

    /// Resolve the whole spec against `net`. Every command binds its spec
    /// here, so a name that does not resolve (a router, an edge, a ghost
    /// or an AS-path pattern) fails the run before any check is posed,
    /// whichever command asked.
    pub fn bind<'n>(&self, net: &'n Network) -> Result<Bound<'n>, SpecResolveError> {
        for s in &self.safety {
            let preds = [&s.property, &s.invariant_default].into_iter();
            self.check_names(&s.name, preds.chain(s.invariant_overrides.values()))?;
        }
        for l in &self.liveness {
            let preds = [&l.property, &l.prefix_scope, &l.interference_default];
            let preds = preds.into_iter().chain(&l.constraints);
            self.check_names(&l.name, preds.chain(l.interference_overrides.values()))?;
        }
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

    /// Refuse a predicate of property `prop` that names what does not
    /// exist: an AS-path pattern that does not compile, or a ghost no
    /// `ghosts` entry declares. The encoder would read either as a free
    /// boolean and report counterexamples that no route can produce.
    fn check_names<'p>(
        &self,
        prop: &str,
        preds: impl IntoIterator<Item = &'p RoutePred>,
    ) -> Result<(), SpecResolveError> {
        let mut named = Universe::new();
        for p in preds {
            p.register(&mut named);
        }
        for pattern in named.regexes() {
            AsPathRegex::compile(pattern)
                .map_err(|e| SpecResolveError(format!("{prop:?}: {e}")))?;
        }
        let declared = |g: &&String| self.ghosts.iter().any(|d| d.name == **g);
        match named.ghosts().iter().find(|g| !declared(g)) {
            Some(g) => Err(SpecResolveError(format!(
                "{prop:?}: ghost {g:?} is not declared in \"ghosts\""
            ))),
            None => Ok(()),
        }
    }
}

/// Spec-resolution errors (unknown router/edge names, predicates that
/// name an unparsable AS-path pattern or an undeclared ghost).
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

/// Resolve the location of property `name`'s invariant override. The
/// paper's rule makes every edge out of an external router `True`
/// whatever an override says (`NetworkInvariants::at_ref`), so an
/// override there is refused rather than dropped without a word.
fn resolve_override(topo: &Topology, name: &str, s: &str) -> Result<Location, SpecResolveError> {
    let loc = resolve_location(topo, s)?;
    if let Location::Edge(e) = loc {
        let src = topo.node(topo.edge(e).src);
        if src.external {
            return Err(SpecResolveError(format!(
                "{name:?}: invariant override on {s:?}, an edge out of external router {}: \
                 edges out of external routers are unconstrained (True), so the override \
                 would be ignored",
                src.name
            )));
        }
    }
    Ok(loc)
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
            interference.set(resolve_override(topo, &self.name, l)?, p.clone());
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
            inv.set(resolve_override(topo, &self.name, l)?, p.clone());
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
    fn override_on_an_edge_out_of_an_external_router_is_refused() {
        let t = topo();
        let spec = |edge: &str| SafetySpec {
            name: "p".into(),
            location: "R1".into(),
            property: RoutePred::True,
            invariant_default: RoutePred::True,
            invariant_overrides: [(edge.to_string(), RoutePred::False)].into(),
        };
        let err = spec("ISP1 -> R1").resolve(&t).unwrap_err().to_string();
        assert!(err.contains("\"ISP1 -> R1\""), "{err}");
        assert!(err.contains("external router ISP1"), "{err}");
        assert!(err.contains("unconstrained (True)"), "{err}");
        // The other direction leaves an internal router: the override holds.
        let (_, inv) = spec("R1 -> ISP1").resolve(&t).unwrap();
        let e = resolve_edge(&t, "R1 -> ISP1").unwrap();
        assert_eq!(inv.at(&t, Location::Edge(e)), RoutePred::False);
        // A liveness property's interference overrides follow the same rule.
        let live = LivenessSpecJson {
            name: "l".into(),
            location: "R1".into(),
            property: RoutePred::True,
            path: vec!["ISP1 -> R1".into(), "R1".into()],
            constraints: vec![RoutePred::True, RoutePred::True],
            prefix_scope: RoutePred::True,
            interference_default: RoutePred::True,
            interference_overrides: [("ISP1 -> R1".to_string(), RoutePred::False)].into(),
        };
        let err = live.resolve(&t).unwrap_err().to_string();
        assert!(
            err.contains("\"l\": invariant override on \"ISP1 -> R1\""),
            "{err}"
        );
    }

    /// `examples/configs` and its spec, bound with `edit` applied.
    fn bind_example(edit: impl FnOnce(&mut Spec)) -> Result<(), SpecResolveError> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let read = |name: &str| std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        let asts = ["r1.cfg", "r2.cfg"].map(|f| bgp_config::parse_config(&read(f)).unwrap());
        let net = bgp_config::lower(&asts).unwrap();
        let mut spec: Spec = serde_json::from_str(&read("spec.json")).unwrap();
        edit(&mut spec);
        spec.bind(&net).map(drop)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Bytes of `examples/configs/spec.json` flipped, inserted,
        /// deleted or cut off: each mutant is read as `--spec` reads it
        /// and bound to the examples network, and either binds or is an
        /// error, never a panic.
        #[test]
        fn a_mutated_spec_binds_or_is_an_error(
            edits in proptest::prop::collection::vec(
                (0u8..4, proptest::any::<u32>(), proptest::any::<u8>()),
                1..5,
            ),
        ) {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
            let read = |name: &str| std::fs::read(format!("{dir}/{name}")).unwrap();
            let asts = ["r1.cfg", "r2.cfg"].map(|f| {
                bgp_config::parse_config(std::str::from_utf8(&read(f)).unwrap()).unwrap()
            });
            let net = bgp_config::lower(&asts).unwrap();
            let mut bytes = read("spec.json");
            for (kind, at, byte) in edits {
                let at = at as usize % (bytes.len() + 1);
                match kind {
                    // Flips keep ASCII bytes ASCII; inserts may not.
                    0 if at < bytes.len() => bytes[at] ^= (byte & 0x7f) | 1,
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => drop(bytes.remove(at)),
                    3 => bytes.truncate(at),
                    _ => {}
                }
            }
            // `--spec` is read as UTF-8 text; other bytes fail the read.
            let outcome = std::panic::catch_unwind(|| {
                let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
                Spec::parse(text)?.bind(&net).map(drop).map_err(|e| e.to_string())
            });
            proptest::prop_assert!(
                outcome.is_ok(),
                "panicked on {:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }

    #[test]
    fn a_predicate_naming_a_bad_as_path_pattern_is_refused() {
        bind_example(|_| {}).unwrap();
        let err = bind_example(|s| s.safety[0].property = RoutePred::aspath("(1").not())
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("spec error: \"no-transit\": "), "{err}");
        assert!(
            err.contains("bad as-path regex") && err.contains("\"(1\""),
            "{err}"
        );
        // Every predicate a property binds is walked: an override, and a
        // liveness property's constraints, too.
        let err = bind_example(|s| {
            let bad = RoutePred::aspath("_65000_").and(RoutePred::aspath("[1"));
            s.safety[0].invariant_overrides.insert("R1".into(), bad);
        })
        .unwrap_err();
        assert!(err.0.contains("\"[1\""), "{err}");
        let err = bind_example(|s| {
            s.liveness.push(LivenessSpecJson {
                name: "l".into(),
                location: "R1".into(),
                property: RoutePred::True,
                path: vec!["ISP1 -> R1".into(), "R1".into()],
                constraints: vec![RoutePred::True, RoutePred::aspath("1)")],
                prefix_scope: RoutePred::True,
                interference_default: RoutePred::True,
                interference_overrides: BTreeMap::new(),
            })
        })
        .unwrap_err();
        assert!(err.0.starts_with("\"l\": bad as-path regex"), "{err}");
    }

    #[test]
    fn a_predicate_naming_an_undeclared_ghost_is_refused() {
        let err = bind_example(|s| s.safety[0].property = RoutePred::ghost("FromISP9").not())
            .unwrap_err()
            .to_string();
        assert_eq!(
            err,
            "spec error: \"no-transit\": ghost \"FromISP9\" is not declared in \"ghosts\""
        );
        // Declaring it is enough.
        bind_example(|s| {
            s.ghosts.push(GhostSpec {
                name: "FromISP9".into(),
                ..Default::default()
            });
            s.safety[0].property = RoutePred::ghost("FromISP9").not();
        })
        .unwrap();
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
