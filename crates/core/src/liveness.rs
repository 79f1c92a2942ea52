//! Liveness verification (§5).
//!
//! A liveness property `(ℓ, P)` states that a route satisfying `P` will
//! *eventually* reach `ℓ`. The user provides a topological path
//! `ℓ_1, ..., ℓ_n = ℓ` (alternating routers and edges) and a constraint
//! `C_i` per path location describing the "good" routes there. Lightyear
//! generates:
//!
//! * **propagation checks** along the path: good routes are not rejected
//!   and stay good across each import/export step;
//! * **no-interference checks**: at every router on the path, any
//!   acceptable route sharing a prefix with the good routes is itself good
//!   (so a preferred route from elsewhere cannot break the property).
//!   These are safety properties `prefix_scope ⟹ C_i`, proven under the
//!   spec's interference invariants by the §4 site walk;
//! * the **final implication** `C_n ⟹ P`.
//!
//! All three are local checks of one suite: one walk yields every check
//! with its id equal to its position, and one run over one universe
//! decides them, so dedup, grouping and the cache work across on-path
//! routers exactly as across the sites of a safety suite.
//!
//! The theorem (§5.3) then guarantees: if an announcement satisfying `C_1`
//! arrives at `ℓ_1` and no link on the path fails, a route satisfying `P`
//! eventually appears at `ℓ` — failures elsewhere in the network are
//! tolerated.

use crate::check::Report;
use crate::engine::generate::{CheckBody, ConjunctTable, NiStep, Relation, ResolvedCheck, Site};
use crate::engine::Verifier;
use crate::invariants::{Location, NetworkInvariants};
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::universe::Universe;
use std::fmt;
use std::time::Instant;

/// A liveness verification problem.
#[derive(Clone, Debug)]
pub struct LivenessSpec {
    /// The property location (must equal the last path location).
    pub location: Location,
    /// The predicate a route reaching the location must satisfy.
    pub pred: RoutePred,
    /// The witness path `ℓ_1 ... ℓ_n` (alternating router/edge locations,
    /// consistent with the topology).
    pub path: Vec<Location>,
    /// One constraint per path location (`C_1 ... C_n`). `C_1` is the
    /// assumption on the announcement entering the path.
    pub constraints: Vec<RoutePred>,
    /// The prefix scope: a predicate over prefixes equal to
    /// "Prefix(r) ∈ Prefix(C_i)" (§5.2). Used in no-interference checks.
    pub prefix_scope: RoutePred,
    /// Invariants used to prove the no-interference safety properties.
    pub interference_invariants: NetworkInvariants,
    /// Optional display name.
    pub name: Option<String>,
}

/// Errors in a liveness specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid liveness spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl LivenessSpec {
    /// Validate path shape against a topology: locations alternate
    /// node/edge, each edge connects its neighbors, and the path ends at
    /// the property location.
    pub fn validate(&self, topo: &bgp_model::Topology) -> Result<(), SpecError> {
        if self.path.is_empty() {
            return Err(SpecError("path is empty".into()));
        }
        if self.path.len() != self.constraints.len() {
            return Err(SpecError(format!(
                "{} path locations but {} constraints",
                self.path.len(),
                self.constraints.len()
            )));
        }
        if *self.path.last().unwrap() != self.location {
            return Err(SpecError("path must end at the property location".into()));
        }
        for w in self.path.windows(2) {
            match (w[0], w[1]) {
                (Location::Node(r), Location::Edge(e)) => {
                    if topo.edge(e).src != r {
                        return Err(SpecError(format!(
                            "edge {} does not leave router {}",
                            topo.edge_name(e),
                            topo.node(r).name
                        )));
                    }
                }
                (Location::Edge(e), Location::Node(r)) => {
                    if topo.edge(e).dst != r {
                        return Err(SpecError(format!(
                            "edge {} does not enter router {}",
                            topo.edge_name(e),
                            topo.node(r).name
                        )));
                    }
                }
                _ => {
                    return Err(SpecError("path must alternate routers and edges".into()));
                }
            }
        }
        Ok(())
    }
}

impl<'a> Verifier<'a> {
    /// Verify a liveness property: one run decides every check of the
    /// spec's walk over one universe (policy, ghosts, `P`, the prefix
    /// scope, the path constraints and the interference invariants), so
    /// dedup, grouping, the cache and the worker pool apply across
    /// on-path routers. Check ids are walk positions.
    pub fn verify_liveness(&self, spec: &LivenessSpec) -> Result<Report, SpecError> {
        let t0 = Instant::now();
        let ni = self.no_interference_props(spec)?;
        let (checks, universe) = self.liveness_checks(spec, &ni);
        let mut report = self.run(&universe, &checks);
        report.total_time = t0.elapsed();
        Ok(report)
    }

    /// The assume-side conjuncts of every check
    /// [`Verifier::verify_liveness`] generates for `spec`, rendered for
    /// display and indexed by check id — the namespace the indices of a
    /// liveness report's [`crate::check::CheckOutcome::core`] point
    /// into, read off the same walk's check bodies. The concrete
    /// originate checks of the no-interference suites assume nothing.
    pub fn liveness_conjunct_table(&self, spec: &LivenessSpec) -> Result<ConjunctTable, SpecError> {
        let ni = self.no_interference_props(spec)?;
        let (checks, _) = self.liveness_checks(spec, &ni);
        Ok(ConjunctTable::new(checks.iter().map(|rc| rc.body.assume())))
    }

    /// Validate `spec` and build the no-interference property of every
    /// on-path router, in path order: `prefix_scope ⟹ C_i` at router
    /// `ℓ_i` (§5.2). The liveness walk borrows them.
    fn no_interference_props(&self, spec: &LivenessSpec) -> Result<Vec<SafetyProperty>, SpecError> {
        spec.validate(self.topology())?;
        Ok(spec
            .path
            .iter()
            .zip(&spec.constraints)
            .filter(|(loc, _)| matches!(loc, Location::Node(_)))
            .map(|(&loc, c)| SafetyProperty::new(loc, spec.prefix_scope.clone().implies(c.clone())))
            .collect())
    }

    /// Every check of a validated `spec`, its id its position: the
    /// propagation step across each path edge (`C_i` through the step's
    /// filter is accepted and satisfies `C_{i+1}`), then the generated
    /// suite of each on-path router's no-interference property in `ni`,
    /// then the final implication `C_n ⟹ P`; and the universe they are
    /// posed over (policy, ghosts, `P`, the prefix scope, the path
    /// constraints and the interference invariants).
    fn liveness_checks<'s>(
        &self,
        spec: &'s LivenessSpec,
        ni: &'s [SafetyProperty],
    ) -> (Vec<ResolvedCheck<'s>>, Universe) {
        let inv = &spec.interference_invariants;
        let mut extra = vec![&spec.pred, &spec.prefix_scope];
        extra.extend(&spec.constraints);
        let mut universe = self.universe(&extra);
        inv.register(&mut universe);
        let suites: Vec<_> = ni.iter().map(|p| (std::slice::from_ref(p), inv)).collect();
        let g = self.generate(universe, &suites);
        let mut sites = Vec::new();
        for (i, w) in spec.path.windows(2).enumerate() {
            let (edge, is_import) = match (w[0], w[1]) {
                (Location::Node(_), Location::Edge(e)) => (e, false),
                (Location::Edge(e), Location::Node(_)) => (e, true),
                _ => unreachable!("validated"),
            };
            let body = CheckBody::Symbolic {
                relation: Some(Relation { edge, is_import }),
                assume: &spec.constraints[i],
                ensure: &spec.constraints[i + 1],
                require_accept: true,
            };
            sites.push((Site::Propagation { edge, is_import }, body));
        }
        for (i, rc) in g.checks.iter().enumerate() {
            let Location::Node(router) = ni[g.suite_of(i)].location else {
                unreachable!("no-interference properties sit at routers")
            };
            let step = NiStep::of(rc.site);
            sites.push((Site::NoInterference { router, step }, rc.body))
        }
        let body = CheckBody::Symbolic {
            relation: None,
            assume: spec.constraints.last().unwrap(),
            ensure: &spec.pred,
            require_accept: false,
        };
        sites.push((Site::Final(spec.location), body));
        let checks = (sites.into_iter().enumerate())
            .map(|(id, (site, body))| ResolvedCheck { id, site, body })
            .collect();
        (checks, g.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckKind, CheckResult};
    use crate::engine::Verifier;
    use crate::ghost::{GhostAttr, GhostUpdate};
    use bgp_model::routemap::{MatchCond, RouteMap, RouteMapEntry, SetAction};
    use bgp_model::topology::NodeId;
    use bgp_model::{Community, Policy, PrefixRange, Topology};

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    /// Figure-1 network (same as engine tests).
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
        // R3 strips communities on customer routes (needed so good routes
        // lack 100:1).
        let mut m = RouteMap::new("FROM-CUST");
        m.push(RouteMapEntry::permit(10).setting(SetAction::ClearCommunities));
        pol.set_import(t.edge_between(cust, r3).unwrap(), m);
        // R2 strips communities on routes from ISP2 (so interfering routes
        // from ISP2 cannot carry 100:1 either).
        let mut m = RouteMap::new("FROM-ISP2");
        m.push(RouteMapEntry::permit(10).setting(SetAction::ClearCommunities));
        pol.set_import(t.edge_between(isp2, r2).unwrap(), m);
        let mut m = RouteMap::new("TO-ISP2");
        m.push(RouteMapEntry::deny(10).matching(MatchCond::Community {
            comms: vec![c("100:1")],
            match_all: false,
        }));
        m.push(RouteMapEntry::permit(20));
        pol.set_export(t.edge_between(r2, isp2).unwrap(), m);
        (t, pol)
    }

    fn cust_prefix() -> RoutePred {
        RoutePred::prefix_in(vec![PrefixRange::orlonger(
            "203.0.113.0/24".parse().unwrap(),
        )])
    }

    fn table3_spec(t: &Topology) -> LivenessSpec {
        let r2 = t.node_by_name("R2").unwrap();
        let r3 = t.node_by_name("R3").unwrap();
        let cust = t.node_by_name("Customer").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let cust_r3 = t.edge_between(cust, r3).unwrap();
        let r3_r2 = t.edge_between(r3, r2).unwrap();
        let r2_isp2 = t.edge_between(r2, isp2).unwrap();

        let has_cust = cust_prefix();
        let good = has_cust
            .clone()
            .and(RoutePred::has_community(c("100:1")).not());

        // Interference invariants: routes with customer prefixes inside
        // the network never carry 100:1. ISP1's import tags 100:1 but the
        // key invariant holds because... it does NOT hold for routes from
        // ISP1 with customer prefixes unless R1 filters them; for this
        // test, restrict interference invariants to the locations involved
        // by using a default that matches the network behaviour: routes
        // with a customer prefix carry 100:1 only if they came from ISP1.
        // The standard trick (as in Table 3) is the invariant
        // "HasCustPrefix(r) => !100:1 in Comm(r)" which requires R1 to
        // drop customer prefixes from ISP1. Add that filter here.
        let interference = NetworkInvariants::with_default(
            has_cust
                .clone()
                .implies(RoutePred::has_community(c("100:1")).not()),
        );

        LivenessSpec {
            location: Location::Edge(r2_isp2),
            pred: has_cust.clone(),
            path: vec![
                Location::Edge(cust_r3),
                Location::Node(r3),
                Location::Edge(r3_r2),
                Location::Node(r2),
                Location::Edge(r2_isp2),
            ],
            constraints: vec![
                has_cust.clone(), // assumption at Customer -> R3
                good.clone(),     // at R3
                good.clone(),     // on R3 -> R2
                good,             // at R2
                has_cust,         // on R2 -> ISP2
            ],
            prefix_scope: cust_prefix(),
            interference_invariants: interference,
            name: Some("customer-liveness".into()),
        }
    }

    /// Add the R1 filter that drops customer prefixes from ISP1, needed
    /// for the no-interference invariant to hold.
    fn add_r1_cust_filter(t: &Topology, pol: &mut Policy) {
        let isp1 = t.node_by_name("ISP1").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        let e = t.edge_between(isp1, r1).unwrap();
        let mut m = RouteMap::new("FROM-ISP1");
        m.push(RouteMapEntry::deny(5).matching(MatchCond::PrefixList(vec![(
            true,
            PrefixRange::orlonger("203.0.113.0/24".parse().unwrap()),
        )])));
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("100:1")],
            additive: true,
        }));
        pol.set_import(e, m);
    }

    #[test]
    fn table3_liveness_verifies() {
        let (t, mut pol) = figure1();
        add_r1_cust_filter(&t, &mut pol);
        let spec = table3_spec(&t);
        let v = Verifier::new(&t, &pol);
        let report = v.verify_liveness(&spec).unwrap();
        assert!(report.all_passed(), "{}", report.format_failures(&t));
        // 4 propagation checks + no-interference sub-reports + final.
        let props = report
            .outcomes
            .iter()
            .filter(|o| o.check.kind == CheckKind::Propagation)
            .count();
        assert_eq!(props, 4);
    }

    #[test]
    fn missing_strip_breaks_propagation() {
        let (t, mut pol) = figure1();
        add_r1_cust_filter(&t, &mut pol);
        // Remove R3's community strip: customer routes may carry 100:1
        // (the subtlety §2.2 calls out).
        let cust = t.node_by_name("Customer").unwrap();
        let r3 = t.node_by_name("R3").unwrap();
        pol.remove_import(t.edge_between(cust, r3).unwrap());

        let spec = table3_spec(&t);
        let v = Verifier::new(&t, &pol);
        let report = v.verify_liveness(&spec).unwrap();
        assert!(!report.all_passed());
        let fail = report
            .failures()
            .iter()
            .find(|o| o.check.kind == CheckKind::Propagation)
            .cloned()
            .expect("a propagation check must fail");
        // The failing step is the customer import at R3.
        assert_eq!(
            fail.check.edge,
            Some(t.edge_between(cust, r3).unwrap()),
            "{}",
            report.format_failures(&t)
        );
    }

    /// Specs [`LivenessSpec::validate`] rejects against Figure 1.
    fn malformed_specs(t: &Topology) -> [LivenessSpec; 3] {
        let mut short = table3_spec(t);
        short.path.pop(); // no longer ends at ℓ
        short.constraints.pop();
        let mut mismatched = table3_spec(t);
        mismatched.constraints.pop(); // length mismatch
        let mut swapped = table3_spec(t);
        swapped.path.swap(1, 3); // breaks alternation consistency
        [short, mismatched, swapped]
    }

    #[test]
    fn invalid_paths_rejected() {
        let (t, pol) = figure1();
        let v = Verifier::new(&t, &pol);
        for spec in malformed_specs(&t) {
            assert!(v.verify_liveness(&spec).is_err());
        }
    }

    #[test]
    fn conjunct_table_rejects_invalid_paths() {
        let (t, pol) = figure1();
        let v = Verifier::new(&t, &pol);
        for spec in malformed_specs(&t) {
            assert_eq!(
                v.liveness_conjunct_table(&spec).unwrap_err(),
                v.verify_liveness(&spec).unwrap_err()
            );
        }
    }

    #[test]
    fn liveness_reports_carry_cores_aligned_with_conjuncts() {
        let (t, mut pol) = figure1();
        add_r1_cust_filter(&t, &mut pol);
        let spec = table3_spec(&t);
        let v = Verifier::new(&t, &pol);
        let report = v.verify_liveness(&spec).unwrap();
        assert!(report.all_passed());
        // Incremental group solving is the default, so session-solved
        // passing checks must surface conjunct-level unsat cores.
        let cores = report.cores();
        assert!(!cores.is_empty(), "liveness passes must report cores");
        // The conjunct namespace aligns with the report's id space, and
        // every core index points into its check's conjunct list.
        let conjs = v.liveness_conjunct_table(&spec).unwrap().expand();
        assert_eq!(conjs.len(), report.num_checks());
        for (check, core) in &cores {
            let names = conjs[check.id]
                .as_ref()
                .expect("a check with a core has a symbolic assume side");
            for &i in *core {
                assert!(
                    i < names.len(),
                    "core index {i} out of range for check #{} ({} conjuncts)",
                    check.id,
                    names.len()
                );
            }
        }
        // Propagation checks assume the path constraints.
        assert_eq!(
            conjs[0].as_ref().unwrap().len(),
            spec.constraints[0].conjuncts().len()
        );
    }

    #[test]
    fn final_implication_failure() {
        let (t, mut pol) = figure1();
        add_r1_cust_filter(&t, &mut pol);
        let mut spec = table3_spec(&t);
        // Strengthen the property beyond what C_n guarantees.
        spec.pred = spec
            .pred
            .and(RoutePred::local_pref(crate::pred::Cmp::Eq, 7));
        let v = Verifier::new(&t, &pol);
        let report = v.verify_liveness(&spec).unwrap();
        assert!(report
            .failures()
            .iter()
            .any(|o| o.check.kind == CheckKind::Subsumption));
    }

    /// The WAN 2x2 network of `netgen::wan` (2 regions of 2 routers, 2
    /// edge routers with 2 peers each, seed 0), stored as the
    /// configuration text netgen prints, in its order.
    fn wan2x2() -> (Topology, Policy) {
        let configs = [
            include_str!("testdata/wan2x2/R0-0.cfg"),
            include_str!("testdata/wan2x2/R0-1.cfg"),
            include_str!("testdata/wan2x2/R1-0.cfg"),
            include_str!("testdata/wan2x2/R1-1.cfg"),
            include_str!("testdata/wan2x2/EDGE0.cfg"),
            include_str!("testdata/wan2x2/EDGE1.cfg"),
        ]
        .map(|text| bgp_config::parse_config(text).unwrap());
        let net = bgp_config::lower(&configs).unwrap();
        (net.topology, net.policy)
    }

    /// `netgen::wan`'s reuse-liveness spec for region `k` of
    /// [`wan2x2`], with its `FromRegion{k}` ghost: a reused-prefix route
    /// from `DC{k}` reaches the gateway `R{k}-0` via `R{k}-1`. A copy of
    /// `netgen::wan::Scenario::reuse_liveness_spec` and
    /// `Scenario::from_region_ghost` (this
    /// crate cannot depend on netgen); keep it in step with them.
    fn wan_reuse_spec(t: &Topology, k: usize) -> (LivenessSpec, GhostAttr) {
        let node = |name: String| t.node_by_name(&name).unwrap();
        let (dc, attach, gw) = (
            node(format!("DC{k}")),
            node(format!("R{k}-1")),
            node(format!("R{k}-0")),
        );
        let region_of = |n: NodeId| {
            let name = &t.node(n).name;
            match name.strip_prefix("EDGE") {
                Some(m) => m.parse::<usize>().unwrap() % 2,
                None => name[1..2].parse().unwrap(),
            }
        };
        // Reused routes carry region j's community and no other's.
        let exactly = |j: usize| {
            let comm = |j: usize| RoutePred::has_community(Community::new(100, 10 + j as u16));
            comm(j).and(comm(1 - j).not())
        };
        let from_region = RoutePred::ghost(format!("FromRegion{k}"));
        let reused = RoutePred::prefix_in(vec![PrefixRange::orlonger(
            "100.64.0.0/16".parse().unwrap(),
        )]);
        let good = from_region.clone().and(reused.clone()).and(exactly(k));
        let interference = NetworkInvariants::from_node_fn(t, region_of, |&j| {
            let origin = if j == k {
                from_region.clone()
            } else {
                from_region.clone().not()
            };
            reused.clone().implies(exactly(j).and(origin))
        });
        let spec = LivenessSpec {
            location: Location::Node(gw),
            pred: from_region.clone().and(reused.clone()),
            path: vec![
                Location::Edge(t.edge_between(dc, attach).unwrap()),
                Location::Node(attach),
                Location::Edge(t.edge_between(attach, gw).unwrap()),
                Location::Node(gw),
            ],
            constraints: vec![
                from_region.and(reused.clone()),
                good.clone(),
                good.clone(),
                good,
            ],
            prefix_scope: reused,
            interference_invariants: interference,
            name: Some(format!("reuse-liveness-region{k}")),
        };
        let ghost = t
            .edge_ids()
            .filter(|&e| t.node(t.edge(e).src).external)
            .fold(GhostAttr::new(format!("FromRegion{k}")), |g, e| {
                let update = if t.edge(e).src == dc {
                    GhostUpdate::SetTrue
                } else {
                    GhostUpdate::SetFalse
                };
                g.with_import(e, update)
            });
        (spec, ghost)
    }

    /// `None` on a pass, the rendered counterexample on a failure.
    fn verdict(result: &CheckResult) -> Option<String> {
        match result {
            CheckResult::Pass => None,
            CheckResult::Fail(cex) => Some(cex.to_string()),
        }
    }

    /// The [`verdict`] of every check of the liveness walk, each decided
    /// on its own fresh one-shot instance, in id order.
    fn reference(v: &Verifier, spec: &LivenessSpec) -> Vec<Option<String>> {
        let ni = v.no_interference_props(spec).unwrap();
        let (checks, universe) = v.liveness_checks(spec, &ni);
        checks
            .iter()
            .map(|rc| verdict(&v.run_one(&universe, rc).result))
            .collect()
    }

    #[test]
    fn pipeline_matches_per_check_reference() {
        let (t, mut pol) = figure1();
        add_r1_cust_filter(&t, &mut pol);
        let spec = table3_spec(&t);
        let mut strong = spec.clone();
        strong.pred = strong
            .pred
            .and(RoutePred::local_pref(crate::pred::Cmp::Eq, 7));
        let mut no_strip = pol.clone();
        let cust_r3 = t.edge_between(
            t.node_by_name("Customer").unwrap(),
            t.node_by_name("R3").unwrap(),
        );
        no_strip.remove_import(cust_r3.unwrap());
        let (wt, wpol) = wan2x2();
        // (name, network, ghost, spec, failing checks): the seeded bugs
        // fail the strengthened final check, and R3's customer import in
        // the propagation step and both no-interference suites.
        let mut cases = vec![
            ("figure1", &t, &pol, None, spec.clone(), 0),
            ("figure1-strong-final", &t, &pol, None, strong, 1),
            ("figure1-no-strip", &t, &no_strip, None, spec, 3),
        ];
        for k in 0..2 {
            let (spec, ghost) = wan_reuse_spec(&wt, k);
            cases.push(("wan2x2", &wt, &wpol, Some(ghost), spec, 0));
        }
        for (name, t, pol, ghost, spec, fails) in &cases {
            let mut v = Verifier::new(t, pol);
            if let Some(g) = ghost {
                v = v.with_ghost(g.clone());
            }
            let want = reference(&v, spec);
            assert_eq!(want.iter().flatten().count(), *fails, "{name}");
            for jobs in [1, 4] {
                let report = v.clone().with_jobs(jobs).verify_liveness(spec).unwrap();
                let got: Vec<_> = report.outcomes.iter().map(|o| verdict(&o.result)).collect();
                assert_eq!(got, want, "{name} at jobs {jobs}");
                let ids = report.outcomes.iter().map(|o| o.check.id);
                assert!(ids.eq(0..want.len()), "{name}: ids are positions");
            }
        }
    }
}
