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
//!   These are safety properties, proven with their own invariants via the
//!   §4 machinery;
//! * the **final implication** `C_n ⟹ P`.
//!
//! The theorem (§5.3) then guarantees: if an announcement satisfying `C_1`
//! arrives at `ℓ_1` and no link on the path fails, a route satisfying `P`
//! eventually appears at `ℓ` — failures elsewhere in the network are
//! tolerated.

use crate::check::{CheckKind, Report};
use crate::engine::{CheckBody, ResolvedCheck, Site, Verifier};
use crate::invariants::{Location, NetworkInvariants};
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
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
    /// Verify a liveness property. Returns the combined report over
    /// propagation checks, no-interference sub-verifications and the
    /// final implication.
    ///
    /// The propagation checks and the final implication are lowered to
    /// resolved check bodies and dispatched through the engine's one
    /// execution pipeline, so they get group solving, dedup, the cache
    /// and the worker pool like every safety check.
    pub fn verify_liveness(&self, spec: &LivenessSpec) -> Result<Report, SpecError> {
        spec.validate(self.topology())?;
        let t0 = Instant::now();
        let mut id = 0usize;

        // Universe: policy + ghosts + every predicate involved.
        let mut extra: Vec<&RoutePred> = vec![&spec.pred, &spec.prefix_scope];
        extra.extend(spec.constraints.iter());
        let universe = self.liveness_universe(&extra, &spec.interference_invariants);

        // Propagation checks along the path: good routes must be accepted
        // and stay good, i.e. transfer checks with `require_accept`.
        let mut prop_checks = Vec::new();
        for i in 0..spec.path.len() - 1 {
            let (edge, is_import) = match (spec.path[i], spec.path[i + 1]) {
                (Location::Node(_), Location::Edge(e)) => (e, false), // export step
                (Location::Edge(e), Location::Node(_)) => (e, true),  // import step
                _ => unreachable!("validated"),
            };
            prop_checks.push(ResolvedCheck {
                id,
                site: Site::Propagation { edge, is_import },
                body: CheckBody::Transfer {
                    edge,
                    is_import,
                    assume: &spec.constraints[i],
                    ensure: &spec.constraints[i + 1],
                    require_accept: true,
                },
            });
            id += 1;
        }
        let mut report = self.run(&universe, &prop_checks);

        // No-interference: safety property at each router on the path.
        for (i, loc) in spec.path.iter().enumerate() {
            let Location::Node(r) = *loc else { continue };
            let prop = SafetyProperty::new(
                Location::Node(r),
                spec.prefix_scope
                    .clone()
                    .implies(spec.constraints[i].clone()),
            )
            .named(format!(
                "no-interference at {}",
                self.topology().node(r).name
            ));
            let sub = self.verify_safety(&prop, &spec.interference_invariants);
            report.exec.merge(&sub.exec);
            for mut o in sub.outcomes {
                o.check.id = id;
                id += 1;
                o.check.description = format!(
                    "[no-interference at {}] {}",
                    self.topology().node(r).name,
                    o.check.description
                );
                if o.check.kind == CheckKind::Subsumption {
                    o.check.kind = CheckKind::NoInterference;
                }
                report.outcomes.push(o);
            }
        }

        // Final implication: C_n => P.
        let final_check = ResolvedCheck {
            id,
            site: Site::Final(spec.location),
            body: CheckBody::Implication {
                assume: spec.constraints.last().unwrap(),
                ensure: &spec.pred,
            },
        };
        let fin = self.run(&universe, std::slice::from_ref(&final_check));
        report.exec.merge(&fin.exec);
        report.outcomes.extend(fin.outcomes);

        report.sort_by_id();
        report.total_time = t0.elapsed();
        Ok(report)
    }

    /// The assume-side conjuncts of every check
    /// [`Verifier::verify_liveness`] generates for `spec`, rendered for
    /// display and indexed by check id — the namespace the indices of a
    /// liveness report's [`crate::check::CheckOutcome::core`] point
    /// into (the liveness counterpart of
    /// [`Verifier::check_conjuncts_all`], and what the CLI's `--json`
    /// liveness `cores` output renders `load_bearing` from).
    ///
    /// Mirrors the generation order exactly: propagation checks along
    /// the path (assume = `C_i`), then each on-path router's
    /// no-interference sub-suite, then the final implication (assume =
    /// `C_n`). Returns `None` entries for checks with no symbolic
    /// assume side (concrete originate checks of the sub-suites).
    pub fn liveness_check_conjuncts(&self, spec: &LivenessSpec) -> Vec<Option<Vec<String>>> {
        let render = |p: &RoutePred| -> Option<Vec<String>> {
            Some(p.conjuncts().iter().map(|c| c.to_string()).collect())
        };
        let mut out = Vec::new();
        for i in 0..spec.path.len().saturating_sub(1) {
            out.push(render(&spec.constraints[i]));
        }
        for (i, loc) in spec.path.iter().enumerate() {
            let Location::Node(r) = *loc else { continue };
            let prop = SafetyProperty::new(
                Location::Node(r),
                spec.prefix_scope
                    .clone()
                    .implies(spec.constraints[i].clone()),
            );
            out.extend(
                self.check_conjuncts_all(
                    std::slice::from_ref(&prop),
                    &spec.interference_invariants,
                ),
            );
        }
        if let Some(last) = spec.constraints.last() {
            out.push(render(last));
        }
        out
    }

    fn liveness_universe(
        &self,
        extra: &[&RoutePred],
        interference_inv: &NetworkInvariants,
    ) -> crate::universe::Universe {
        let mut u = crate::universe::Universe::from_policy(self.policy());
        for g in self.ghost_names() {
            u.add_ghost(&g);
        }
        for p in extra {
            p.register(&mut u);
        }
        interference_inv.register(&mut u);
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Verifier;
    use bgp_model::routemap::{MatchCond, RouteMap, RouteMapEntry, SetAction};
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
        pol.import.remove(&t.edge_between(cust, r3).unwrap());

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

    #[test]
    fn invalid_paths_rejected() {
        let (t, pol) = figure1();
        let mut spec = table3_spec(&t);
        spec.path.pop();
        spec.constraints.pop();
        let v = Verifier::new(&t, &pol);
        assert!(v.verify_liveness(&spec).is_err()); // no longer ends at ℓ

        let mut spec2 = table3_spec(&t);
        spec2.constraints.pop();
        assert!(v.verify_liveness(&spec2).is_err()); // length mismatch

        let mut spec3 = table3_spec(&t);
        spec3.path.swap(1, 3); // breaks alternation consistency
        assert!(v.verify_liveness(&spec3).is_err());
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
        let conjs = v.liveness_check_conjuncts(&spec);
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
}
