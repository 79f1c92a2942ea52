//! A message-passing BGP simulator.
//!
//! Produces concrete traces that are valid by construction (they satisfy
//! the Appendix-A axioms, which `trace::check_safety_axioms` verifies in
//! tests). The simulator is used to differentially test Lightyear: every
//! invariant the verifier proves must hold on every simulated trace.
//!
//! The simulator is deliberately *stricter* than the paper's trace model —
//! it implements split-horizon, iBGP non-readvertisement and eBGP loop
//! prevention — because the verifier over-approximates the set of valid
//! traces; any trace the simulator can produce is valid in the model.

use crate::policy::Policy;
use crate::prefix::Ipv4Prefix;
use crate::route::Route;
use crate::topology::{EdgeId, NodeId, Topology};
use crate::trace::{Event, Trace};
use std::collections::{HashMap, VecDeque};

/// Simulator options.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Drop received routes whose AS path contains the receiver's ASN
    /// (standard eBGP loop prevention).
    pub loop_prevention: bool,
    /// Do not re-advertise iBGP-learned routes to iBGP peers.
    pub ibgp_no_readvertise: bool,
    /// Do not advertise a route back to the session it was learned from.
    pub split_horizon: bool,
    /// Hard cap on delivered messages (guards against policy-induced
    /// oscillation).
    pub max_messages: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            loop_prevention: true,
            ibgp_no_readvertise: true,
            split_horizon: true,
            max_messages: 1_000_000,
        }
    }
}

/// Outcome of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The produced event trace.
    pub trace: Trace,
    /// Best route per (router, prefix) at quiescence.
    pub best: HashMap<(NodeId, Ipv4Prefix), Route>,
    /// Routes received by external neighbors, keyed by the delivering edge.
    pub external_rib: HashMap<EdgeId, Vec<Route>>,
    /// False if `max_messages` was hit before quiescence.
    pub converged: bool,
}

#[derive(Clone, Debug, Default)]
struct RibIn {
    /// Post-import route per incoming edge.
    entries: HashMap<EdgeId, Route>,
}

/// Simulate BGP message exchange.
///
/// `announcements` are the routes external neighbors send, given as
/// `(edge, route)` pairs where the edge's source must be external.
pub fn simulate(
    topo: &Topology,
    policy: &Policy,
    announcements: &[(EdgeId, Route)],
    opts: SimOptions,
) -> SimResult {
    let mut trace = Trace::new();
    let mut queue: VecDeque<(EdgeId, Route)> = VecDeque::new();

    // Seed: originations from internal routers.
    for (e, routes) in policy.originations() {
        if topo.node(topo.edge(e).src).external {
            continue; // external "originations" must come via announcements
        }
        for r in routes {
            trace.push(Event::Frwd {
                edge: e,
                route: r.clone(),
            });
            queue.push_back((e, r.clone()));
        }
    }
    // Seed: external announcements.
    for (e, r) in announcements {
        debug_assert!(
            topo.node(topo.edge(*e).src).external,
            "announcements must originate at external nodes"
        );
        queue.push_back((*e, r.clone()));
    }

    // adj-rib-in and best route per (router, prefix).
    let mut rib_in: HashMap<(NodeId, Ipv4Prefix), RibIn> = HashMap::new();
    // Best route and the edge it was learned on.
    let mut best: HashMap<(NodeId, Ipv4Prefix), (Route, EdgeId)> = HashMap::new();
    let mut external_rib: HashMap<EdgeId, Vec<Route>> = HashMap::new();

    let mut delivered = 0usize;
    let mut converged = true;
    while let Some((edge, route)) = queue.pop_front() {
        if delivered >= opts.max_messages {
            converged = false;
            break;
        }
        delivered += 1;
        trace.push(Event::Recv {
            edge,
            route: route.clone(),
        });
        let dst = topo.edge(edge).dst;
        if topo.node(dst).external {
            external_rib.entry(edge).or_default().push(route);
            continue;
        }
        // Import filter.
        let Some(imported) = policy.import_route(edge, &route) else {
            continue;
        };
        // eBGP loop prevention.
        if opts.loop_prevention
            && topo.is_ebgp(edge)
            && imported.as_path_contains(topo.node(dst).asn)
        {
            continue;
        }
        let key = (dst, imported.prefix);
        let rib = rib_in.entry(key).or_default();
        if rib.entries.get(&edge) == Some(&imported) {
            continue; // no change
        }
        rib.entries.insert(edge, imported);

        // Recompute best route (deterministic: preference, then edge id).
        let new_best = rib
            .entries
            .iter()
            .max_by(|(ea, ra), (eb, rb)| {
                ra.prefer(rb).then_with(|| eb.cmp(ea)) // lower edge id wins ties
            })
            .map(|(e, r)| (r.clone(), *e));
        let Some((best_route, learned_on)) = new_best else {
            continue;
        };
        if best.get(&key).map(|(r, _)| r) == Some(&best_route) {
            continue; // selection unchanged
        }
        best.insert(key, (best_route.clone(), learned_on));
        trace.push(Event::Slct {
            node: dst,
            route: best_route.clone(),
        });

        // Re-advertise to neighbors.
        for &out in topo.out_edges(dst) {
            let out_edge = topo.edge(out);
            if opts.split_horizon && out_edge.dst == topo.edge(learned_on).src {
                continue;
            }
            if opts.ibgp_no_readvertise && !topo.is_ebgp(learned_on) && !topo.is_ebgp(out) {
                continue;
            }
            if let Some(exported) = policy.export_route(out, &best_route) {
                trace.push(Event::Frwd {
                    edge: out,
                    route: exported.clone(),
                });
                queue.push_back((out, exported));
            }
        }
    }

    let best_routes = best
        .into_iter()
        .map(|(k, (r, _))| (k, r))
        .collect::<HashMap<_, _>>();
    SimResult {
        trace,
        best: best_routes,
        external_rib,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Community;
    use crate::routemap::{MatchCond, RouteMap, RouteMapEntry, SetAction};
    use crate::trace::check_safety_axioms;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    /// The Figure-1 network: R1, R2, R3 internal (AS 65000); ISP1 on R1,
    /// ISP2 on R2, Customer on R3; internal full mesh.
    fn figure1() -> (Topology, Policy) {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        let r3 = t.add_router("R3", 65000);
        let isp1 = t.add_external("ISP1", 100);
        let isp2 = t.add_external("ISP2", 200);
        let cust = t.add_external("Customer", 300);
        t.add_session(r1, r2);
        t.add_session(r1, r3);
        t.add_session(r2, r3);
        t.add_session(isp1, r1);
        t.add_session(isp2, r2);
        t.add_session(cust, r3);

        let mut pol = Policy::new();
        // R1 import from ISP1: tag 100:1.
        let mut m = RouteMap::new("FROM-ISP1");
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("100:1")],
            additive: true,
        }));
        pol.set_import(t.edge_between(isp1, r1).unwrap(), m);
        // R3 import from Customer: strip communities.
        let mut m = RouteMap::new("FROM-CUST");
        m.push(RouteMapEntry::permit(10).setting(SetAction::ClearCommunities));
        pol.set_import(t.edge_between(cust, r3).unwrap(), m);
        // R2 export to ISP2: drop routes tagged 100:1.
        let mut m = RouteMap::new("TO-ISP2");
        m.push(RouteMapEntry::deny(10).matching(MatchCond::Community {
            comms: vec![c("100:1")],
            match_all: false,
        }));
        m.push(RouteMapEntry::permit(20));
        pol.set_export(t.edge_between(r2, isp2).unwrap(), m);
        (t, pol)
    }

    #[test]
    fn no_transit_holds_in_simulation() {
        let (t, pol) = figure1();
        let isp1 = t.node_by_name("ISP1").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        let isp1_r1 = t.edge_between(isp1, r1).unwrap();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let r2_isp2 = t.edge_between(r2, isp2).unwrap();

        let ann = Route::new(p("8.0.0.0/8")).with_as_path(vec![100]);
        let res = simulate(&t, &pol, &[(isp1_r1, ann)], SimOptions::default());
        assert!(res.converged);
        // Nothing tagged 100:1 (i.e. nothing from ISP1) reaches ISP2.
        assert!(!res.external_rib.contains_key(&r2_isp2));
        // The trace is valid.
        assert!(check_safety_axioms(&res.trace, &t, &pol).is_ok());
    }

    #[test]
    fn customer_route_reaches_isp2() {
        let (t, pol) = figure1();
        let cust = t.node_by_name("Customer").unwrap();
        let r3 = t.node_by_name("R3").unwrap();
        let cust_r3 = t.edge_between(cust, r3).unwrap();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let r2_isp2 = t.edge_between(r2, isp2).unwrap();

        let ann = Route::new(p("203.0.113.0/24")).with_as_path(vec![300]);
        let res = simulate(&t, &pol, &[(cust_r3, ann)], SimOptions::default());
        assert!(res.converged);
        let got = res
            .external_rib
            .get(&r2_isp2)
            .expect("route must reach ISP2");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].prefix, p("203.0.113.0/24"));
        assert!(check_safety_axioms(&res.trace, &t, &pol).is_ok());
    }

    #[test]
    fn best_route_selection_prefers_local_pref() {
        // One router, two externals announcing the same prefix.
        let mut t = Topology::new();
        let r = t.add_router("R", 65000);
        let a = t.add_external("A", 1);
        let b = t.add_external("B", 2);
        t.add_session(a, r);
        t.add_session(b, r);
        let a_r = t.edge_between(a, r).unwrap();
        let b_r = t.edge_between(b, r).unwrap();

        let mut pol = Policy::new();
        let mut m = RouteMap::new("FROM-B");
        m.push(RouteMapEntry::permit(10).setting(SetAction::LocalPref(200)));
        pol.set_import(b_r, m);

        let pfx = p("10.0.0.0/8");
        let ra = Route::new(pfx).with_as_path(vec![1]).with_next_hop(1);
        let rb = Route::new(pfx).with_as_path(vec![2, 3, 4]).with_next_hop(2);
        let res = simulate(&t, &pol, &[(a_r, ra), (b_r, rb)], SimOptions::default());
        // B's route wins despite longer path because of local-pref 200.
        let best = res.best.get(&(r, pfx)).unwrap();
        assert_eq!(best.local_pref, 200);
        assert_eq!(best.next_hop, 2);
    }

    #[test]
    fn loop_prevention_drops_own_asn() {
        let mut t = Topology::new();
        let r = t.add_router("R", 65000);
        let a = t.add_external("A", 1);
        t.add_session(a, r);
        let a_r = t.edge_between(a, r).unwrap();
        let pol = Policy::new();

        let looped = Route::new(p("10.0.0.0/8")).with_as_path(vec![1, 65000, 2]);
        let res = simulate(&t, &pol, &[(a_r, looped)], SimOptions::default());
        assert!(res.best.is_empty());

        let opts = SimOptions {
            loop_prevention: false,
            ..SimOptions::default()
        };
        let looped = Route::new(p("10.0.0.0/8")).with_as_path(vec![1, 65000, 2]);
        let res = simulate(&t, &pol, &[(a_r, looped)], opts);
        assert_eq!(res.best.len(), 1);
    }

    #[test]
    fn ibgp_no_readvertise() {
        // chain: X(ext) - R1 - R2 - R3 all same AS; iBGP line (not mesh).
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        let r3 = t.add_router("R3", 65000);
        let x = t.add_external("X", 1);
        t.add_session(x, r1);
        t.add_session(r1, r2);
        t.add_session(r2, r3);
        let x_r1 = t.edge_between(x, r1).unwrap();
        let pol = Policy::new();

        let ann = Route::new(p("10.0.0.0/8")).with_as_path(vec![1]);
        let res = simulate(&t, &pol, &[(x_r1, ann)], SimOptions::default());
        // R2 learns it over iBGP but must not pass it on to R3.
        assert!(res.best.contains_key(&(r2, p("10.0.0.0/8"))));
        assert!(!res.best.contains_key(&(r3, p("10.0.0.0/8"))));
    }

    #[test]
    fn origination_is_forwarded() {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let x = t.add_external("X", 1);
        t.add_session(r1, x);
        let r1_x = t.edge_between(r1, x).unwrap();
        let mut pol = Policy::new();
        pol.add_origination(r1_x, Route::new(p("198.51.100.0/24")));

        let res = simulate(&t, &pol, &[], SimOptions::default());
        let got = res.external_rib.get(&r1_x).unwrap();
        assert_eq!(got[0].prefix, p("198.51.100.0/24"));
        assert!(check_safety_axioms(&res.trace, &t, &pol).is_ok());
    }

    #[test]
    fn simulation_is_deterministic() {
        let (t, pol) = figure1();
        let isp1 = t.node_by_name("ISP1").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        let isp1_r1 = t.edge_between(isp1, r1).unwrap();
        let ann = Route::new(p("8.0.0.0/8")).with_as_path(vec![100]);
        let res1 = simulate(&t, &pol, &[(isp1_r1, ann.clone())], SimOptions::default());
        let res2 = simulate(&t, &pol, &[(isp1_r1, ann)], SimOptions::default());
        assert_eq!(res1.trace.events, res2.trace.events);
    }
}
