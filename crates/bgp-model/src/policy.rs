//! The BGP network policy (§3.1): the `Import`, `Export` and `Originate`
//! functions, represented as per-edge route maps and origination sets.

use crate::interp::apply_route_map;
use crate::route::Route;
use crate::routemap::RouteMap;
use crate::topology::EdgeId;
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
/// Edge ids are dense, so each table is a `Vec` indexed by edge id
/// (grown on first write; an edge past its end has nothing configured)
/// and is read and written through the methods below. Iteration is in
/// edge order.
///
/// Maps are held by [`Arc`] so one resolved map can serve many edges:
/// the configuration front end resolves each map once per distinct set
/// of inputs across the network and attaches that one instance to every
/// session, on any router, whose map has those inputs. Sharing is an allocation detail only — which edges share an
/// `Arc` means nothing for equality or fingerprints, which compare and
/// hash a map's contents.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Import route maps by edge id.
    import: Vec<Option<Arc<RouteMap>>>,
    /// Export route maps by edge id.
    export: Vec<Option<Arc<RouteMap>>>,
    /// Routes originated by edge id.
    originate: Vec<Vec<Route>>,
}

/// The slot of `e` in a per-edge table, growing it to reach.
fn slot<T: Default>(table: &mut Vec<T>, e: EdgeId) -> &mut T {
    let i = e.0 as usize;
    if table.len() <= i {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

/// The configured entries of a per-edge map table, in edge order.
fn configured(
    table: &[Option<Arc<RouteMap>>],
) -> impl Iterator<Item = (EdgeId, &Arc<RouteMap>)> + '_ {
    (table.iter().enumerate()).filter_map(|(i, m)| Some((EdgeId(i as u32), m.as_ref()?)))
}

impl Policy {
    /// An empty policy (everything permit-all, nothing originated).
    pub fn new() -> Self {
        Policy::default()
    }

    /// The import map on an edge, if explicitly configured.
    pub fn import_map(&self, e: EdgeId) -> Option<&RouteMap> {
        self.import.get(e.0 as usize)?.as_deref()
    }

    /// The export map on an edge, if explicitly configured.
    pub fn export_map(&self, e: EdgeId) -> Option<&RouteMap> {
        self.export.get(e.0 as usize)?.as_deref()
    }

    /// Every configured import map, in edge order.
    pub fn imports(&self) -> impl Iterator<Item = (EdgeId, &Arc<RouteMap>)> + '_ {
        configured(&self.import)
    }

    /// Every configured export map, in edge order.
    pub fn exports(&self) -> impl Iterator<Item = (EdgeId, &Arc<RouteMap>)> + '_ {
        configured(&self.export)
    }

    /// Every edge that originates routes, with its routes, in edge order.
    pub fn originations(&self) -> impl Iterator<Item = (EdgeId, &[Route])> + '_ {
        (self.originate.iter().enumerate())
            .filter(|(_, routes)| !routes.is_empty())
            .map(|(i, routes)| (EdgeId(i as u32), routes.as_slice()))
    }

    /// Concrete `Import` function: `None` = Reject.
    pub fn import_route(&self, e: EdgeId, r: &Route) -> Option<Route> {
        match self.import_map(e) {
            Some(m) => apply_route_map(m, r),
            None => Some(r.clone()),
        }
    }

    /// Concrete `Export` function: `None` = Reject.
    pub fn export_route(&self, e: EdgeId, r: &Route) -> Option<Route> {
        match self.export_map(e) {
            Some(m) => apply_route_map(m, r),
            None => Some(r.clone()),
        }
    }

    /// Routes originated on an edge.
    pub fn originated(&self, e: EdgeId) -> &[Route] {
        self.originate.get(e.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Attach an import map to an edge: an owned map, or an `Arc` shared
    /// with other edges.
    pub fn set_import(&mut self, e: EdgeId, m: impl Into<Arc<RouteMap>>) {
        *slot(&mut self.import, e) = Some(m.into());
    }

    /// Attach an export map to an edge: an owned map, or an `Arc` shared
    /// with other edges.
    pub fn set_export(&mut self, e: EdgeId, m: impl Into<Arc<RouteMap>>) {
        *slot(&mut self.export, e) = Some(m.into());
    }

    /// Detach an edge's import map (it becomes permit-all); the map it
    /// had, if any.
    pub fn remove_import(&mut self, e: EdgeId) -> Option<Arc<RouteMap>> {
        self.import.get_mut(e.0 as usize)?.take()
    }

    /// Detach an edge's export map (it becomes permit-all); the map it
    /// had, if any.
    pub fn remove_export(&mut self, e: EdgeId) -> Option<Arc<RouteMap>> {
        self.export.get_mut(e.0 as usize)?.take()
    }

    /// Add an originated route on an edge.
    pub fn add_origination(&mut self, e: EdgeId, r: Route) {
        slot(&mut self.originate, e).push(r);
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
