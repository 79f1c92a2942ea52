//! The BGP network policy (§3.1): the `Import`, `Export` and `Originate`
//! functions, represented as per-edge route maps and origination sets.

use crate::interp::apply_route_map;
use crate::route::Route;
use crate::routemap::RouteMap;
use crate::topology::EdgeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The network policy: route maps keyed by directed edge.
///
/// * `Import(A -> B, r)` applies `import[A -> B]` (the import filter at
///   `B` for routes received from `A`).
/// * `Export(A -> B, r)` applies `export[A -> B]` (the export filter at
///   `A` for routes sent to `B`).
/// * `Originate(A -> B)` is the set of routes `A` injects toward `B`.
///
/// An edge with no configured map uses `permit all` (the identity), which
/// matches vendor behaviour for sessions without an attached route map.
///
/// Maps are held by [`Arc`] so one resolved map can serve many edges:
/// the configuration front end resolves each named map once per router
/// and attaches that one instance to every session of the router that
/// names it. Sharing is an allocation detail only — which edges share an
/// `Arc` means nothing for equality or fingerprints, which compare and
/// hash a map's contents.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Policy {
    /// Import route maps per directed edge.
    pub import: HashMap<EdgeId, Arc<RouteMap>>,
    /// Export route maps per directed edge.
    pub export: HashMap<EdgeId, Arc<RouteMap>>,
    /// Routes originated per directed edge.
    pub originate: HashMap<EdgeId, Vec<Route>>,
}

impl Policy {
    /// An empty policy (everything permit-all, nothing originated).
    pub fn new() -> Self {
        Policy::default()
    }

    /// The import map on an edge, if explicitly configured.
    pub fn import_map(&self, e: EdgeId) -> Option<&RouteMap> {
        self.import.get(&e).map(|m| &**m)
    }

    /// The export map on an edge, if explicitly configured.
    pub fn export_map(&self, e: EdgeId) -> Option<&RouteMap> {
        self.export.get(&e).map(|m| &**m)
    }

    /// Concrete `Import` function: `None` = Reject.
    pub fn import_route(&self, e: EdgeId, r: &Route) -> Option<Route> {
        match self.import.get(&e) {
            Some(m) => apply_route_map(m, r),
            None => Some(r.clone()),
        }
    }

    /// Concrete `Export` function: `None` = Reject.
    pub fn export_route(&self, e: EdgeId, r: &Route) -> Option<Route> {
        match self.export.get(&e) {
            Some(m) => apply_route_map(m, r),
            None => Some(r.clone()),
        }
    }

    /// Routes originated on an edge.
    pub fn originated(&self, e: EdgeId) -> &[Route] {
        self.originate.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Attach an import map to an edge: an owned map, or an `Arc` shared
    /// with other edges.
    pub fn set_import(&mut self, e: EdgeId, m: impl Into<Arc<RouteMap>>) {
        self.import.insert(e, m.into());
    }

    /// Attach an export map to an edge: an owned map, or an `Arc` shared
    /// with other edges.
    pub fn set_export(&mut self, e: EdgeId, m: impl Into<Arc<RouteMap>>) {
        self.export.insert(e, m.into());
    }

    /// Add an originated route on an edge.
    pub fn add_origination(&mut self, e: EdgeId, r: Route) {
        self.originate.entry(e).or_default().push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Ipv4Prefix;
    use crate::routemap::{RouteMapEntry, SetAction};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn missing_maps_are_identity() {
        let pol = Policy::new();
        let r = Route::new(p("10.0.0.0/8")).with_local_pref(42);
        assert_eq!(pol.import_route(EdgeId(0), &r), Some(r.clone()));
        assert_eq!(pol.export_route(EdgeId(0), &r), Some(r));
        assert!(pol.originated(EdgeId(0)).is_empty());
    }

    #[test]
    fn configured_maps_apply() {
        let mut pol = Policy::new();
        let mut m = RouteMap::new("IN");
        m.push(RouteMapEntry::permit(10).setting(SetAction::LocalPref(7)));
        pol.set_import(EdgeId(3), m);
        let r = Route::new(p("10.0.0.0/8"));
        assert_eq!(pol.import_route(EdgeId(3), &r).unwrap().local_pref, 7);
        // Other edges untouched.
        assert_eq!(pol.import_route(EdgeId(4), &r).unwrap().local_pref, 100);
    }

    #[test]
    fn origination() {
        let mut pol = Policy::new();
        pol.add_origination(EdgeId(1), Route::new(p("192.168.0.0/16")));
        pol.add_origination(EdgeId(1), Route::new(p("192.169.0.0/16")));
        assert_eq!(pol.originated(EdgeId(1)).len(), 2);
    }
}
