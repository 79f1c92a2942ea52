//! BGP traces (§3.2) and the validity axioms of Appendix A.
//!
//! A trace is a sequence of `recv` / `slct` / `frwd` events. The paper's
//! correctness proofs quantify over all *valid* traces; this module lets us
//! check concrete traces (produced by the simulator) against the safety
//! axioms, closing the loop between the formal model and the verifier in
//! differential tests.

use crate::policy::Policy;
use crate::route::Route;
use crate::topology::{EdgeId, NodeId, Topology};
use std::fmt;

/// A BGP event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// `recv(N -> R, r)`: `R` receives route `r` from neighbor `N`.
    Recv {
        /// The edge `N -> R`.
        edge: EdgeId,
        /// The received route.
        route: Route,
    },
    /// `slct(R, r)`: `R` selects `r` as best and installs it.
    Slct {
        /// The selecting router.
        node: NodeId,
        /// The selected route.
        route: Route,
    },
    /// `frwd(R -> N, r)`: `R` forwards `r` to neighbor `N`.
    Frwd {
        /// The edge `R -> N`.
        edge: EdgeId,
        /// The forwarded route.
        route: Route,
    },
}

impl Event {
    /// The route carried by the event.
    pub fn route(&self) -> &Route {
        match self {
            Event::Recv { route, .. } | Event::Slct { route, .. } | Event::Frwd { route, .. } => {
                route
            }
        }
    }
}

/// A sequence of events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The events, in order.
    pub events: Vec<Event>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events occurred.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A violation of a safety axiom by a concrete trace.
#[derive(Clone, Debug)]
pub struct AxiomViolation {
    /// Index of the offending event.
    pub index: usize,
    /// Which axiom was violated.
    pub axiom: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for AxiomViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event #{}: axiom {} violated: {}",
            self.index, self.axiom, self.detail
        )
    }
}

/// Check the safety axioms of Appendix A against a concrete trace:
///
/// 1. `recv(N -> R, r)` requires `N` external or an earlier
///    `frwd(N -> R, r)`.
/// 2. `slct(R, r)` requires an earlier `recv(N -> R, r')` with
///    `r = Import(N -> R, r')`.
/// 3. `frwd(R -> N, r)` requires `r ∈ Originate(R -> N)` or an earlier
///    `slct(R, r')` with `r = Export(R -> N, r')`.
pub fn check_safety_axioms(
    trace: &Trace,
    topo: &Topology,
    policy: &Policy,
) -> Result<(), AxiomViolation> {
    for (k, ev) in trace.events.iter().enumerate() {
        match ev {
            Event::Recv { edge, route } => {
                let e = topo.edge(*edge);
                if topo.node(e.src).external {
                    continue; // axiom 1a
                }
                let justified = trace.events[..k].iter().any(|prev| {
                    matches!(prev, Event::Frwd { edge: pe, route: pr }
                        if pe == edge && pr == route)
                });
                if !justified {
                    return Err(AxiomViolation {
                        index: k,
                        axiom: "recv",
                        detail: format!(
                            "recv on {} of {route} with no earlier matching frwd",
                            topo.edge_name(*edge)
                        ),
                    });
                }
            }
            Event::Slct { node, route } => {
                let justified = trace.events[..k].iter().any(|prev| {
                    if let Event::Recv {
                        edge,
                        route: recv_r,
                    } = prev
                    {
                        let e = topo.edge(*edge);
                        e.dst == *node && policy.import_route(*edge, recv_r).as_ref() == Some(route)
                    } else {
                        false
                    }
                });
                if !justified {
                    return Err(AxiomViolation {
                        index: k,
                        axiom: "slct",
                        detail: format!(
                            "slct at {} of {route} with no earlier import-justifying recv",
                            topo.node(*node).name
                        ),
                    });
                }
            }
            Event::Frwd { edge, route } => {
                if policy.originated(*edge).contains(route) {
                    continue; // axiom 3a
                }
                let e = topo.edge(*edge);
                let justified = trace.events[..k].iter().any(|prev| {
                    if let Event::Slct { node, route: sel_r } = prev {
                        *node == e.src && policy.export_route(*edge, sel_r).as_ref() == Some(route)
                    } else {
                        false
                    }
                });
                if !justified {
                    return Err(AxiomViolation {
                        index: k,
                        axiom: "frwd",
                        detail: format!(
                            "frwd on {} of {route} neither originated nor export-justified",
                            topo.edge_name(*edge)
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Check the liveness axioms of Appendix A against a **quiescent**
/// concrete trace (one where no more events are pending, as produced by a
/// converged simulation):
///
/// 1. `slct(R, r)` with `r' = Export(R -> N, r) ≠ Reject` demands a later
///    `frwd(R -> N, r')` — unless a *later* `slct(R, r'')` for the same
///    prefix supersedes it (the simulator re-advertises only the final
///    choice) or the forwarding is suppressed by split-horizon/iBGP rules
///    (pass `strict = false` to tolerate those, matching the simulator's
///    options).
/// 2. `r ∈ Originate(R -> N)` demands a `frwd(R -> N, r)`.
/// 3. `frwd(R -> N, r)` demands a later `recv(N -> R, r)` when the link
///    is up (we assume no failures here).
///
/// Originations are checked in edge order, so of several violations
/// the one reported is the same in every process.
///
/// Axiom 4 (best-route selection) is checked structurally: for every
/// router and prefix, the *last* `slct` must be weakly preferred over the
/// import of every received same-prefix route that the import filter
/// accepts.
pub fn check_liveness_axioms(
    trace: &Trace,
    topo: &Topology,
    policy: &Policy,
) -> Result<(), AxiomViolation> {
    // Axiom 2: originations are forwarded.
    for (edge, routes) in policy.originations() {
        if topo.node(topo.edge(edge).src).external {
            continue;
        }
        for r in routes {
            let found = trace
                .events
                .iter()
                .any(|e| matches!(e, Event::Frwd { edge: fe, route } if *fe == edge && route == r));
            if !found {
                return Err(AxiomViolation {
                    index: usize::MAX,
                    axiom: "liveness-originate",
                    detail: format!("originated {r} never forwarded on {}", topo.edge_name(edge)),
                });
            }
        }
    }
    // Axiom 3: forwarded routes are received (no failures assumed).
    for (k, ev) in trace.events.iter().enumerate() {
        if let Event::Frwd { edge, route } = ev {
            let delivered = trace.events[k + 1..].iter().any(
                |e| matches!(e, Event::Recv { edge: re, route: rr } if re == edge && rr == route),
            );
            if !delivered {
                return Err(AxiomViolation {
                    index: k,
                    axiom: "liveness-frwd",
                    detail: format!(
                        "frwd on {} of {route} never delivered",
                        topo.edge_name(*edge)
                    ),
                });
            }
        }
    }
    // Axiom 4 (quiescent form): the final selection at each router is
    // weakly preferred over every acceptable received candidate.
    use std::collections::HashMap;
    let mut last_slct: HashMap<(NodeId, crate::prefix::Ipv4Prefix), &Route> = HashMap::new();
    for ev in &trace.events {
        if let Event::Slct { node, route } = ev {
            last_slct.insert((*node, route.prefix), route);
        }
    }
    for (k, ev) in trace.events.iter().enumerate() {
        let Event::Recv { edge, route } = ev else {
            continue;
        };
        let dst = topo.edge(*edge).dst;
        if topo.node(dst).external {
            continue;
        }
        let Some(imported) = policy.import_route(*edge, route) else {
            continue;
        };
        // Loop-prevented candidates are legitimately ignored.
        if topo.is_ebgp(*edge) && imported.as_path_contains(topo.node(dst).asn) {
            continue;
        }
        match last_slct.get(&(dst, imported.prefix)) {
            Some(best) => {
                if best.prefer(&imported) == std::cmp::Ordering::Less {
                    return Err(AxiomViolation {
                        index: k,
                        axiom: "liveness-slct",
                        detail: format!(
                            "{} selected {best} but a preferred candidate {imported} was receivable",
                            topo.node(dst).name
                        ),
                    });
                }
            }
            None => {
                return Err(AxiomViolation {
                    index: k,
                    axiom: "liveness-slct",
                    detail: format!(
                        "{} accepted {imported} but never selected any route for {}",
                        topo.node(dst).name,
                        imported.prefix
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Ipv4Prefix;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn setup() -> (Topology, Policy, EdgeId, EdgeId, NodeId) {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        let x = t.add_external("X", 174);
        t.add_session(x, r1);
        t.add_session(r1, r2);
        let x_r1 = t.edge_between(x, r1).unwrap();
        let r1_r2 = t.edge_between(r1, r2).unwrap();
        (t, Policy::new(), x_r1, r1_r2, r1)
    }

    #[test]
    fn valid_trace_passes() {
        let (t, pol, x_r1, r1_r2, r1) = setup();
        let r = Route::new(p("10.0.0.0/8"));
        let mut tr = Trace::new();
        tr.push(Event::Recv {
            edge: x_r1,
            route: r.clone(),
        });
        tr.push(Event::Slct {
            node: r1,
            route: r.clone(),
        });
        tr.push(Event::Frwd {
            edge: r1_r2,
            route: r.clone(),
        });
        tr.push(Event::Recv {
            edge: r1_r2,
            route: r,
        });
        assert!(check_safety_axioms(&tr, &t, &pol).is_ok());
    }

    #[test]
    fn recv_from_external_always_allowed() {
        let (t, pol, x_r1, _, _) = setup();
        let mut tr = Trace::new();
        tr.push(Event::Recv {
            edge: x_r1,
            route: Route::new(p("1.0.0.0/8")),
        });
        assert!(check_safety_axioms(&tr, &t, &pol).is_ok());
    }

    #[test]
    fn recv_on_internal_edge_needs_frwd() {
        let (t, pol, _, r1_r2, _) = setup();
        let mut tr = Trace::new();
        tr.push(Event::Recv {
            edge: r1_r2,
            route: Route::new(p("1.0.0.0/8")),
        });
        let err = check_safety_axioms(&tr, &t, &pol).unwrap_err();
        assert_eq!(err.axiom, "recv");
    }

    #[test]
    fn slct_needs_justifying_recv() {
        let (t, pol, _, _, r1) = setup();
        let mut tr = Trace::new();
        tr.push(Event::Slct {
            node: r1,
            route: Route::new(p("1.0.0.0/8")),
        });
        let err = check_safety_axioms(&tr, &t, &pol).unwrap_err();
        assert_eq!(err.axiom, "slct");
    }

    #[test]
    fn frwd_needs_slct_or_origination() {
        let (t, mut pol, _, r1_r2, _) = setup();
        let r = Route::new(p("1.0.0.0/8"));
        let mut tr = Trace::new();
        tr.push(Event::Frwd {
            edge: r1_r2,
            route: r.clone(),
        });
        assert_eq!(
            check_safety_axioms(&tr, &t, &pol).unwrap_err().axiom,
            "frwd"
        );

        // Origination justifies it.
        pol.add_origination(r1_r2, r.clone());
        assert!(check_safety_axioms(&tr, &t, &pol).is_ok());
    }

    #[test]
    fn liveness_axioms_on_simulated_trace() {
        use crate::sim::{simulate, SimOptions};
        let (t, pol, x_r1, _, _) = setup();
        let ann = Route::new(p("10.0.0.0/8")).with_as_path(vec![174]);
        let res = simulate(&t, &pol, &[(x_r1, ann)], SimOptions::default());
        assert!(res.converged);
        check_liveness_axioms(&res.trace, &t, &pol).expect("quiescent trace satisfies liveness");
    }

    #[test]
    fn liveness_frwd_without_recv_violates() {
        let (t, mut pol, _, r1_r2, _) = setup();
        let r = Route::new(p("10.0.0.0/8"));
        pol.add_origination(r1_r2, r.clone());
        let mut tr = Trace::new();
        tr.push(Event::Frwd {
            edge: r1_r2,
            route: r,
        });
        let err = check_liveness_axioms(&tr, &t, &pol).unwrap_err();
        assert_eq!(err.axiom, "liveness-frwd");
    }

    #[test]
    fn liveness_unforwarded_origination_violates() {
        let (t, mut pol, _, r1_r2, _) = setup();
        pol.add_origination(r1_r2, Route::new(p("10.0.0.0/8")));
        let tr = Trace::new();
        let err = check_liveness_axioms(&tr, &t, &pol).unwrap_err();
        assert_eq!(err.axiom, "liveness-originate");
    }

    #[test]
    fn liveness_reports_the_first_unforwarded_origination_in_edge_order() {
        let (t, mut pol, _, r1_r2, _) = setup();
        let r2_r1 = t.edge(r1_r2);
        let r2_r1 = t.edge_between(r2_r1.dst, r2_r1.src).unwrap();
        assert!(r1_r2 < r2_r1);
        // Added later edge first: the report follows edge ids, not
        // insertion or hashing order.
        pol.add_origination(r2_r1, Route::new(p("10.2.0.0/16")));
        pol.add_origination(r1_r2, Route::new(p("10.1.0.0/16")));
        let err = check_liveness_axioms(&Trace::new(), &t, &pol).unwrap_err();
        assert_eq!(err.axiom, "liveness-originate");
        let detail = err.detail;
        assert!(detail.starts_with("originated 10.1.0.0/16 "), "{detail}");
        assert!(detail.ends_with(" never forwarded on R1 -> R2"), "{detail}");
    }

    #[test]
    fn liveness_ignoring_better_candidate_violates() {
        let (t, pol, x_r1, _, r1) = setup();
        let good = Route::new(p("10.0.0.0/8")).with_local_pref(200);
        let bad = Route::new(p("10.0.0.0/8")).with_local_pref(50);
        let mut tr = Trace::new();
        tr.push(Event::Recv {
            edge: x_r1,
            route: good,
        });
        tr.push(Event::Recv {
            edge: x_r1,
            route: bad.clone(),
        });
        tr.push(Event::Slct {
            node: r1,
            route: bad,
        });
        let err = check_liveness_axioms(&tr, &t, &pol).unwrap_err();
        assert_eq!(err.axiom, "liveness-slct");
    }

    #[test]
    fn slct_respects_import_transform() {
        use crate::routemap::{RouteMap, RouteMapEntry, SetAction};
        let (t, mut pol, x_r1, _, r1) = setup();
        let mut m = RouteMap::new("IN");
        m.push(RouteMapEntry::permit(10).setting(SetAction::LocalPref(200)));
        pol.set_import(x_r1, m);

        let sent = Route::new(p("1.0.0.0/8"));
        let mut tr = Trace::new();
        tr.push(Event::Recv {
            edge: x_r1,
            route: sent.clone(),
        });
        // Selecting the untransformed route violates the slct axiom.
        tr.push(Event::Slct {
            node: r1,
            route: sent.clone(),
        });
        assert_eq!(
            check_safety_axioms(&tr, &t, &pol).unwrap_err().axiom,
            "slct"
        );

        // Selecting the transformed route is fine.
        let mut tr2 = Trace::new();
        tr2.push(Event::Recv {
            edge: x_r1,
            route: sent.clone(),
        });
        tr2.push(Event::Slct {
            node: r1,
            route: sent.with_local_pref(200),
        });
        assert!(check_safety_axioms(&tr2, &t, &pol).is_ok());
    }
}
