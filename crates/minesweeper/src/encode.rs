//! The monolithic network encoding.

use bgp_model::policy::Policy;
use bgp_model::topology::{EdgeId, NodeId, Topology};
use lightyear::encode::{encode_export, encode_import};
use lightyear::ghost::GhostAttr;
use lightyear::invariants::Location;
use lightyear::pred::RoutePred;
use lightyear::symbolic::{ConcreteRoute, SymRoute};
use lightyear::universe::Universe;
use smt::{solve_with_stats, SatResult, SolverStats, TermId, TermPool};
use std::collections::HashMap;

/// A route record in the monolithic encoding: symbolic attributes plus a
/// path-length counter and a validity flag ("is any route present here?").
#[derive(Clone, Debug)]
struct MsRoute {
    sym: SymRoute,
    /// Symbolic AS-path length (bv16, grows on every export).
    path_len: TermId,
    /// False when no route is present at this point.
    valid: TermId,
}

/// Outcome of a monolithic verification query.
#[derive(Clone, Debug)]
pub enum MsOutcome {
    /// No stable routing solution violates the property.
    Verified,
    /// A stable solution violating the property exists; the offending
    /// route at the property location is included.
    Violated(ConcreteRoute),
}

/// Result and statistics of one monolithic query.
#[derive(Clone, Debug)]
pub struct MsReport {
    /// The verification outcome.
    pub outcome: MsOutcome,
    /// Encoding/solving statistics (Figure 3a/3c metrics).
    pub stats: SolverStats,
}

impl MsReport {
    /// True when the property was verified.
    pub fn verified(&self) -> bool {
        matches!(self.outcome, MsOutcome::Verified)
    }
}

/// The monolithic verifier.
pub struct Minesweeper<'a> {
    topo: &'a Topology,
    policy: &'a Policy,
    ghosts: Vec<GhostAttr>,
}

impl<'a> Minesweeper<'a> {
    /// A verifier over a topology and policy.
    pub fn new(topo: &'a Topology, policy: &'a Policy) -> Self {
        Minesweeper {
            topo,
            policy,
            ghosts: Vec::new(),
        }
    }

    /// Register a ghost attribute (same semantics as in Lightyear).
    pub fn with_ghost(mut self, g: GhostAttr) -> Self {
        self.ghosts.push(g);
        self
    }

    /// Verify the safety property `(ℓ, P)`: no stable routing solution
    /// places a route violating `P` at `ℓ`.
    pub fn verify(&self, location: Location, pred: &RoutePred) -> MsReport {
        let mut universe = Universe::from_policy(self.policy);
        for g in &self.ghosts {
            universe.add_ghost(&g.name);
        }
        pred.register(&mut universe);

        let mut pool = TermPool::new();
        let mut assertions: Vec<TermId> = Vec::new();

        // Shared symbolic destination prefix (single-destination slice).
        let dest_addr = pool.bv_var("dest.addr", 32);
        let dest_len = pool.bv_var("dest.len", 8);
        let c32 = pool.bv_const(32, 8);
        assertions.push(pool.bv_ule(dest_len, c32));

        // Exported record per edge and best record per internal router.
        let mut exported: HashMap<EdgeId, MsRoute> = HashMap::new();
        let mut best: HashMap<NodeId, MsRoute> = HashMap::new();

        // External announcements: a fresh arbitrary route per external
        // out-edge, possibly absent.
        for e in self.topo.edge_ids() {
            let edge = self.topo.edge(e);
            if self.topo.node(edge.src).external {
                let sym = SymRoute::fresh(&mut pool, &universe, &format!("ann{}", e.0));
                let valid = pool.bool_var(&format!("ann{}.valid", e.0));
                let path_len = pool.bv_var(&format!("ann{}.len", e.0), 16);
                // The announcement targets the shared destination.
                let ea = pool.bv_eq(sym.prefix_addr, dest_addr);
                let el = pool.bv_eq(sym.prefix_len, dest_len);
                let targets = pool.and2(ea, el);
                assertions.push(pool.implies(valid, targets));
                // Ghost attributes start false outside the network.
                for (gi, _) in universe.ghosts().iter().enumerate() {
                    let not_set = pool.not(sym.ghost_bits()[gi]);
                    assertions.push(pool.implies(valid, not_set));
                }
                exported.insert(
                    e,
                    MsRoute {
                        sym,
                        path_len,
                        valid,
                    },
                );
            }
        }

        // Best-route records for internal routers (declared first so
        // exports can reference them; constraints added below).
        let routers: Vec<NodeId> = self.topo.router_ids().collect();
        for &r in &routers {
            let sym = SymRoute::fresh(&mut pool, &universe, &format!("best{}", r.0));
            let valid = pool.bool_var(&format!("best{}.valid", r.0));
            let path_len = pool.bv_var(&format!("best{}.len", r.0), 16);
            best.insert(
                r,
                MsRoute {
                    sym,
                    path_len,
                    valid,
                },
            );
        }

        // Exported record for internal out-edges: Export(best of src).
        for e in self.topo.edge_ids() {
            let edge = self.topo.edge(e);
            if self.topo.node(edge.src).external {
                continue;
            }
            let src_best = best[&edge.src].clone();
            let t = encode_export(
                &mut pool,
                &universe,
                self.policy.export_map(e),
                &self.ghosts,
                e,
                &src_best.sym,
            );
            let not_rej = pool.not(t.reject);
            let valid = pool.and2(src_best.valid, not_rej);
            // Path length grows by one on every export (kills loops).
            let one = pool.bv_const(1, 16);
            let path_len = pool.bv_add(src_best.path_len, one);
            exported.insert(
                e,
                MsRoute {
                    sym: t.out,
                    path_len,
                    valid,
                },
            );
        }

        // Imported candidates and best-route selection per router.
        for &r in &routers {
            let mut candidates: Vec<MsRoute> = Vec::new();
            for &e in self.topo.in_edges(r) {
                let exp = exported[&e].clone();
                let t = encode_import(
                    &mut pool,
                    &universe,
                    self.policy.import_map(e),
                    &self.ghosts,
                    e,
                    &exp.sym,
                );
                let not_rej = pool.not(t.reject);
                let valid = pool.and2(exp.valid, not_rej);
                candidates.push(MsRoute {
                    sym: t.out,
                    path_len: exp.path_len,
                    valid,
                });
            }
            let b = best[&r].clone();
            self.encode_selection(
                &mut pool,
                &universe,
                &b,
                &candidates,
                &mut assertions,
                &format!("r{}", r.0),
            );
        }

        // Property: a violating route at the location.
        let (loc_route, loc_valid) = match location {
            Location::Node(n) => {
                let b = &best[&n];
                (b.sym.clone(), b.valid)
            }
            Location::Edge(e) => {
                let x = &exported[&e];
                (x.sym.clone(), x.valid)
            }
        };
        let holds = pred.encode(&mut pool, &universe, &loc_route);
        let violated = pool.not(holds);
        assertions.push(loc_valid);
        assertions.push(violated);

        let (result, stats) = solve_with_stats(&pool, &assertions);
        let outcome = match result {
            SatResult::Unsat => MsOutcome::Verified,
            SatResult::Sat(model) => {
                MsOutcome::Violated(loc_route.concretize(&pool, &universe, &model))
            }
        };
        MsReport { outcome, stats }
    }

    /// Encode `b = best(candidates)` with one-hot choice variables and
    /// optimality constraints.
    #[allow(clippy::too_many_arguments)]
    fn encode_selection(
        &self,
        pool: &mut TermPool,
        universe: &Universe,
        b: &MsRoute,
        candidates: &[MsRoute],
        assertions: &mut Vec<TermId>,
        tag: &str,
    ) {
        let any_valid = {
            let vs: Vec<TermId> = candidates.iter().map(|c| c.valid).collect();
            pool.or(&vs)
        };
        let biff = pool.iff(b.valid, any_valid);
        assertions.push(biff);

        // One choice variable per candidate.
        let mut choices = Vec::with_capacity(candidates.len());
        for (i, _) in candidates.iter().enumerate() {
            choices.push(pool.bool_var(&format!("choice[{tag}][{i}]")));
        }
        // Choice implies candidate valid and field equality with best.
        for (c, &ch) in candidates.iter().zip(&choices) {
            assertions.push(pool.implies(ch, c.valid));
            let eq = self.fields_equal(pool, universe, b, c);
            assertions.push(pool.implies(ch, eq));
            // Optimality: the chosen candidate is weakly preferred over
            // every valid candidate.
            for other in candidates {
                let pref = self.weakly_preferred(pool, c, other);
                let both = pool.and2(ch, other.valid);
                assertions.push(pool.implies(both, pref));
            }
        }
        // If any candidate is valid, exactly one is chosen.
        let any_choice = pool.or(&choices);
        let pick = pool.iff(any_valid, any_choice);
        assertions.push(pick);
        for i in 0..choices.len() {
            for j in (i + 1)..choices.len() {
                let bothij = pool.and2(choices[i], choices[j]);
                let amo = pool.not(bothij);
                assertions.push(amo);
            }
        }
    }

    fn fields_equal(
        &self,
        pool: &mut TermPool,
        _universe: &Universe,
        a: &MsRoute,
        c: &MsRoute,
    ) -> TermId {
        let mut parts = vec![
            pool.bv_eq(a.sym.prefix_addr, c.sym.prefix_addr),
            pool.bv_eq(a.sym.prefix_len, c.sym.prefix_len),
            pool.bv_eq(a.sym.local_pref, c.sym.local_pref),
            pool.bv_eq(a.sym.med, c.sym.med),
            pool.bv_eq(a.sym.next_hop, c.sym.next_hop),
            pool.bv_eq(a.sym.origin, c.sym.origin),
            pool.bv_eq(a.path_len, c.path_len),
        ];
        for (x, y) in a.sym.comm_bits().iter().zip(c.sym.comm_bits()) {
            parts.push(pool.iff(*x, *y));
        }
        parts.push(pool.iff(a.sym.comm_other, c.sym.comm_other));
        for (x, y) in a.sym.aspath_atoms().iter().zip(c.sym.aspath_atoms()) {
            parts.push(pool.iff(*x, *y));
        }
        for (x, y) in a.sym.ghost_bits().iter().zip(c.sym.ghost_bits()) {
            parts.push(pool.iff(*x, *y));
        }
        pool.and(&parts)
    }

    /// BGP decision process as a circuit: `a` weakly preferred over `b`.
    fn weakly_preferred(&self, pool: &mut TermPool, a: &MsRoute, b: &MsRoute) -> TermId {
        let lp_gt = pool.bv_ugt(a.sym.local_pref, b.sym.local_pref);
        let lp_eq = pool.bv_eq(a.sym.local_pref, b.sym.local_pref);
        let len_lt = pool.bv_ult(a.path_len, b.path_len);
        let len_eq = pool.bv_eq(a.path_len, b.path_len);
        let og_lt = pool.bv_ult(a.sym.origin, b.sym.origin);
        let og_eq = pool.bv_eq(a.sym.origin, b.sym.origin);
        let med_lt = pool.bv_ult(a.sym.med, b.sym.med);
        let med_eq = pool.bv_eq(a.sym.med, b.sym.med);
        let nh_le = pool.bv_ule(a.sym.next_hop, b.sym.next_hop);

        let t4 = pool.and2(med_eq, nh_le);
        let t3 = pool.or2(med_lt, t4);
        let t3 = pool.and2(og_eq, t3);
        let t2 = pool.or2(og_lt, t3);
        let t2 = pool.and2(len_eq, t2);
        let t1 = pool.or2(len_lt, t2);
        let t1 = pool.and2(lp_eq, t1);
        pool.or2(lp_gt, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::{MatchCond, RouteMap, RouteMapEntry, SetAction};
    use bgp_model::Community;
    use lightyear::ghost::GhostUpdate;

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    /// Figure-1 network with the community-based no-transit scheme.
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
        let mut m = RouteMap::new("FROM-ISP1");
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("100:1")],
            additive: true,
        }));
        pol.set_import(t.edge_between(isp1, r1).unwrap(), m);
        let mut m = RouteMap::new("TO-ISP2");
        m.push(RouteMapEntry::deny(10).matching(MatchCond::Community {
            comms: vec![c("100:1")],
            match_all: false,
        }));
        m.push(RouteMapEntry::permit(20));
        pol.set_export(t.edge_between(r2, isp2).unwrap(), m);
        (t, pol)
    }

    fn ghost(t: &Topology) -> GhostAttr {
        let isp1 = t.node_by_name("ISP1").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        GhostAttr::new("FromISP1")
            .with_import(t.edge_between(isp1, r1).unwrap(), GhostUpdate::SetTrue)
    }

    #[test]
    fn no_transit_verified_monolithically() {
        let (t, pol) = figure1();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let e = t.edge_between(r2, isp2).unwrap();
        let ms = Minesweeper::new(&t, &pol).with_ghost(ghost(&t));
        let report = ms.verify(
            Location::Edge(e),
            &lightyear::pred::RoutePred::ghost("FromISP1").not(),
        );
        assert!(report.verified(), "{:?}", report.outcome);
        assert!(report.stats.num_vars > 0);
    }

    #[test]
    fn broken_filter_found_monolithically() {
        let (t, mut pol) = figure1();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let e = t.edge_between(r2, isp2).unwrap();
        // Remove the export filter: transit becomes possible.
        pol.remove_export(e);
        let ms = Minesweeper::new(&t, &pol).with_ghost(ghost(&t));
        let report = ms.verify(
            Location::Edge(e),
            &lightyear::pred::RoutePred::ghost("FromISP1").not(),
        );
        match report.outcome {
            MsOutcome::Violated(cex) => {
                assert!(
                    cex.ghosts["FromISP1"],
                    "violating route came from ISP1: {cex}"
                );
            }
            MsOutcome::Verified => panic!("expected violation"),
        }
    }

    #[test]
    fn no_spurious_loop_routes() {
        // A network with NO external announcements possible (no externals)
        // and no originations has no valid routes anywhere; the property
        // "false" at a node cannot be violated (vacuously verified).
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        t.add_session(r1, r2);
        let pol = Policy::new();
        let ms = Minesweeper::new(&t, &pol);
        let report = ms.verify(Location::Node(r1), &lightyear::pred::RoutePred::False);
        // If spurious loops could conjure routes, this would be Violated.
        assert!(report.verified());
    }

    #[test]
    fn monolithic_larger_than_local() {
        // The monolithic query is (much) larger than any single Lightyear
        // local check on the same network — the Figure 3a/3b contrast.
        let (t, pol) = figure1();
        let r2 = t.node_by_name("R2").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let e = t.edge_between(r2, isp2).unwrap();
        let pred = lightyear::pred::RoutePred::ghost("FromISP1").not();

        let ms_report = Minesweeper::new(&t, &pol)
            .with_ghost(ghost(&t))
            .verify(Location::Edge(e), &pred);

        use lightyear::invariants::NetworkInvariants;
        use lightyear::safety::SafetyProperty;
        let prop = SafetyProperty::new(Location::Edge(e), pred.clone());
        let key = lightyear::pred::RoutePred::ghost("FromISP1")
            .implies(lightyear::pred::RoutePred::has_community(c("100:1")));
        let inv = NetworkInvariants::with_default(key).with(Location::Edge(e), pred);
        let ly_report = lightyear::engine::Verifier::new(&t, &pol)
            .with_ghost(ghost(&t))
            .verify_safety(&prop, &inv);

        assert!(ms_report.stats.num_vars > ly_report.max_vars());
        assert!(ms_report.stats.num_clauses > ly_report.max_clauses());
    }
}
