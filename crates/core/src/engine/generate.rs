//! Check generation (§4.2): the site walk of a safety suite, the one
//! generation entry every run takes, and the public descriptor of a
//! site. Nothing here encodes or solves.

use super::{timed, Verifier};
use crate::check::{Check, CheckKind};
use crate::invariants::{Location, NetworkInvariants};
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::universe::Universe;
use bgp_model::routemap::RouteMap;
use bgp_model::topology::{EdgeId, NodeId, Topology};
use std::cell::Cell;
use std::collections::HashMap;

/// One place a check is posed: a site of a safety suite as visited by
/// [`Verifier::for_each_site`], or of a liveness walk
/// (`Verifier::liveness_checks`). A site is all [`Verifier::describe`]
/// needs to build the check's public descriptor, so the pipeline carries
/// sites and builds a [`Check`] only for an outcome somebody keeps.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Site<'p> {
    /// `I(edge)` through the import filter implies `I(receiver)`.
    Import(EdgeId),
    /// `I(sender)` through the export filter implies `I(edge)`.
    Export(EdgeId),
    /// The routes originated onto the edge satisfy `I(edge)`.
    Originate(EdgeId),
    /// `I(ℓ) ⟹ P` for one property of the suite; `.0` on its first.
    Subsumption(bool, &'p SafetyProperty),
    /// Liveness: good routes survive the path step across the edge.
    Propagation { edge: EdgeId, is_import: bool },
    /// Liveness: site `step` of the no-interference suite at the on-path
    /// `router`.
    NoInterference { router: NodeId, step: NiStep },
    /// Liveness: the last path constraint implies the property there.
    Final(Location),
}

/// A site of an on-path router's no-interference suite, whose one
/// property sits at the router: its subsumption needs no reference.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NiStep {
    Import(EdgeId),
    Export(EdgeId),
    Originate(EdgeId),
    Subsumption,
}

impl NiStep {
    /// The step a safety walk's site is.
    pub(crate) fn of(site: Site) -> NiStep {
        match site {
            Site::Import(e) => NiStep::Import(e),
            Site::Export(e) => NiStep::Export(e),
            Site::Originate(e) => NiStep::Originate(e),
            Site::Subsumption(..) => NiStep::Subsumption,
            _ => unreachable!("a safety walk yields safety sites"),
        }
    }

    /// The safety site a transfer or originate step is; `None` for the
    /// subsumption step.
    fn site(self) -> Option<Site<'static>> {
        match self {
            NiStep::Import(e) => Some(Site::Import(e)),
            NiStep::Export(e) => Some(Site::Export(e)),
            NiStep::Originate(e) => Some(Site::Originate(e)),
            NiStep::Subsumption => None,
        }
    }
}

impl Site<'_> {
    /// The location whose invariant a safety site's check assumes;
    /// `None` for originate checks, which test concrete routes (and for
    /// liveness sites, whose checks the liveness walk builds).
    fn assumes(&self, topo: &Topology) -> Option<Location> {
        match *self {
            Site::Import(e) => Some(Location::Edge(e)),
            Site::Export(e) => Some(Location::Node(topo.edge(e).src)),
            Site::Subsumption(_, p) => Some(p.location),
            _ => None,
        }
    }

    pub(crate) fn kind(&self) -> CheckKind {
        match self {
            Site::Import(_) => CheckKind::Import,
            Site::Export(_) => CheckKind::Export,
            Site::Originate(_) => CheckKind::Originate,
            Site::Subsumption(..) | Site::Final(_) => CheckKind::Subsumption,
            Site::Propagation { .. } => CheckKind::Propagation,
            Site::NoInterference { step, .. } => {
                step.site().map_or(CheckKind::NoInterference, |s| s.kind())
            }
        }
    }

    /// The location the site's check pertains to.
    pub(crate) fn location(&self, topo: &Topology) -> Location {
        match *self {
            Site::Import(e) | Site::Export(e) | Site::Originate(e) => Location::Edge(e),
            Site::Subsumption(_, p) => p.location,
            // The path location the step arrives at.
            Site::Propagation {
                edge,
                is_import: true,
            } => Location::Node(topo.edge(edge).dst),
            Site::Propagation { edge, .. } => Location::Edge(edge),
            Site::NoInterference { router, step } => step
                .site()
                .map_or(Location::Node(router), |s| s.location(topo)),
            Site::Final(loc) => loc,
        }
    }
}

/// A fully-resolved check: its id within the run, the site that posed
/// it and the predicates its formula needs, borrowed from the invariants
/// and properties (or from predicates the caller built and holds beside
/// the checks).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedCheck<'a> {
    pub(crate) id: usize,
    pub(crate) site: Site<'a>,
    pub(crate) body: CheckBody<'a>,
}

/// The transfer relation of one edge direction: its route map (the
/// identity when absent) followed by its ghost updates (§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Relation {
    pub(crate) edge: EdgeId,
    pub(crate) is_import: bool,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum CheckBody<'a> {
    /// assume(r) ∧ r' = f(r) ⟹ reject ∨ ensure(r'), with `f` the
    /// relation's transfer, or with no relation the identity, which
    /// rejects nothing: assume(r) ⟹ ensure(r) (a subsumption).
    Symbolic {
        relation: Option<Relation>,
        assume: &'a RoutePred,
        ensure: &'a RoutePred,
        /// Liveness propagation: additionally require non-rejection and
        /// drop the `reject ∨ ...` escape.
        require_accept: bool,
    },
    /// Concrete: every originated route satisfies the predicate.
    Originate { edge: EdgeId, ensure: &'a RoutePred },
}

impl<'a> CheckBody<'a> {
    /// The predicate the check assumes; `None` for a concrete originate
    /// check.
    pub(crate) fn assume(&self) -> Option<&'a RoutePred> {
        match *self {
            CheckBody::Symbolic { assume, .. } => Some(assume),
            CheckBody::Originate { .. } => None,
        }
    }

    /// The edge the check sits on; `None` for a subsumption.
    pub(crate) fn edge(&self) -> Option<EdgeId> {
        match *self {
            CheckBody::Symbolic { relation, .. } => relation.map(|r| r.edge),
            CheckBody::Originate { edge, .. } => Some(edge),
        }
    }
}

/// The checks of a run's suites, ids counted per suite, and the
/// attribute universe they are posed over.
pub(crate) struct Generated<'s> {
    pub(crate) checks: Vec<ResolvedCheck<'s>>,
    /// Suite `s` is `checks[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
    pub(crate) universe: Universe,
}

impl Generated<'_> {
    /// The suite check `i` of the run belongs to. Empty suites
    /// contribute duplicate bounds and are skipped.
    pub(crate) fn suite_of(&self, i: usize) -> usize {
        self.bounds.partition_point(|&b| b <= i) - 1
    }
}

thread_local! {
    /// Descriptors [`Verifier::describe`] built on this thread since the
    /// last [`count_described`]: one counter update per run, not one per
    /// check.
    static DESCRIBED: Cell<u64> = const { Cell::new(0) };
}

/// Add this thread's new descriptors to `engine.checks_described`; every
/// entry point that describes checks calls it before it returns.
pub(crate) fn count_described() {
    obs::add("engine.checks_described", DESCRIBED.take());
}

/// The conjunct table a report's cores index into: the assume side of
/// every check, rendered for display, in compact form — each distinct
/// predicate's conjunct list once, and per check id the index of its
/// list (`None` for a concrete originate check, which assumes nothing).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConjunctTable {
    lists: Vec<Vec<String>>,
    of_check: Vec<Option<u32>>,
}

impl ConjunctTable {
    /// The table of checks assuming `assumes`, in check-id order.
    /// Predicates are keyed by address, so each must be alive for the
    /// whole call.
    pub(crate) fn new<'p>(assumes: impl IntoIterator<Item = Option<&'p RoutePred>>) -> Self {
        let mut index: HashMap<*const RoutePred, u32> = HashMap::new();
        let mut lists: Vec<Vec<String>> = Vec::new();
        let of_check = (assumes.into_iter())
            .map(|a| {
                a.map(|p| {
                    *index.entry(p).or_insert_with(|| {
                        lists.push(p.conjuncts().iter().map(|c| c.to_string()).collect());
                        (lists.len() - 1) as u32
                    })
                })
            })
            .collect();
        ConjunctTable { lists, of_check }
    }

    /// The rendered conjuncts check `id` assumes: empty for a check
    /// that assumes nothing (or an id past the table).
    pub fn conjuncts(&self, id: usize) -> &[String] {
        match self.of_check.get(id) {
            Some(&Some(list)) => &self.lists[list as usize],
            _ => &[],
        }
    }

    /// The check-id-indexed expansion: one owned row per check, `None`
    /// where the check assumes nothing.
    pub fn expand(&self) -> Vec<Option<Vec<String>>> {
        (self.of_check.iter())
            .map(|at| at.map(|list| self.lists[list as usize].clone()))
            .collect()
    }
}

impl<'a> Verifier<'a> {
    /// The assume-side conjuncts of every check in the `(props, inv)`
    /// suite, rendered for display and indexed by check id — the
    /// namespace the indices of [`crate::check::CheckOutcome::core`]
    /// point into. Renderers that blame many checks (the `--json`
    /// `cores` output) read this compact form.
    ///
    /// No check is generated: the table follows the same site walk as
    /// check generation (`Verifier::for_each_site`), borrows each
    /// site's assumed invariant and renders every distinct predicate
    /// once, however many checks assume it.
    pub fn conjunct_table(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> ConjunctTable {
        let (topo, mut assumes) = (self.topo, Vec::new());
        self.for_each_site(props, |site| {
            assumes.push(site.assumes(topo).map(|loc| inv.at_ref(topo, loc)))
        });
        ConjunctTable::new(assumes)
    }

    /// [`Verifier::conjunct_table`], expanded to one owned row per
    /// check: `None` for concrete originate checks (no symbolic assume
    /// side).
    pub fn check_conjuncts_all(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> Vec<Option<Vec<String>>> {
        self.conjunct_table(props, inv).expand()
    }

    /// Walk the check sites of a safety suite in check-id order: per
    /// edge (in edge order) its import, export and originate checks,
    /// then one subsumption check per property (the §4.3 lemma: the
    /// Import/Export/Originate checks depend only on the invariants).
    /// Check generation and the conjunct table both follow this one
    /// walk, so a site's position is its check id everywhere.
    fn for_each_site<'p>(&self, props: &'p [SafetyProperty], mut visit: impl FnMut(Site<'p>)) {
        if props.is_empty() {
            return;
        }
        for e in self.topo.edge_ids() {
            let edge = self.topo.edge(e);
            if !self.topo.node(edge.dst).external {
                visit(Site::Import(e));
            }
            if !self.topo.node(edge.src).external {
                visit(Site::Export(e));
                if !self.policy.originated(e).is_empty() {
                    visit(Site::Originate(e));
                }
            }
        }
        for (i, p) in props.iter().enumerate() {
            visit(Site::Subsumption(i == 0, p));
        }
    }

    /// The one generation entry: one check per site of
    /// [`Verifier::for_each_site`] for every suite, its id the site's
    /// position in its suite, over `base` extended by every suite's
    /// properties and invariants, suite by suite. Nothing is copied:
    /// the predicates are borrowed from the suites. Charged to
    /// `engine.generate_ns`.
    pub(crate) fn generate<'s>(
        &self,
        base: Universe,
        suites: &[(&'s [SafetyProperty], &'s NetworkInvariants)],
    ) -> Generated<'s> {
        timed("engine.generate_ns", || {
            let topo = self.topo;
            let (mut checks, mut bounds, mut universe) = (Vec::new(), vec![0], base);
            for &(props, inv) in suites {
                let (at, start) = (|loc| inv.at_ref(topo, loc), checks.len());
                self.for_each_site(props, |site| {
                    let assume = site.assumes(topo).map(at);
                    let symbolic = |relation, ensure| CheckBody::Symbolic {
                        relation,
                        assume: assume.expect("a symbolic safety site assumes an invariant"),
                        ensure,
                        require_accept: false,
                    };
                    let transfer = |edge, is_import, ensure| {
                        symbolic(Some(Relation { edge, is_import }), ensure)
                    };
                    let body = match site {
                        Site::Import(e) => transfer(e, true, at(Location::Node(topo.edge(e).dst))),
                        Site::Export(e) => transfer(e, false, at(Location::Edge(e))),
                        Site::Originate(e) => CheckBody::Originate {
                            edge: e,
                            ensure: at(Location::Edge(e)),
                        },
                        Site::Subsumption(_, p) => symbolic(None, &p.pred),
                        Site::Propagation { .. } | Site::NoInterference { .. } | Site::Final(_) => {
                            unreachable!("safety suites have no liveness sites")
                        }
                    };
                    let id = checks.len() - start;
                    checks.push(ResolvedCheck { id, site, body });
                });
                bounds.push(checks.len());
                for p in props {
                    p.pred.register(&mut universe);
                }
                inv.register(&mut universe);
            }
            Generated {
                checks,
                bounds,
                universe,
            }
        })
    }

    /// The public descriptor of the check posed at `site`, built when an
    /// outcome is handed to someone who keeps it.
    pub(crate) fn describe(&self, id: usize, site: &Site) -> Check {
        DESCRIBED.set(DESCRIBED.get() + 1);
        let (edge, map, description) = self.site_text(site);
        Check {
            id,
            kind: site.kind(),
            location: site.location(self.topo),
            edge,
            map_name: map.map(|m| m.name.clone()),
            description,
        }
    }

    /// The edge, route map and description of the check posed at `site`.
    /// Each description is spliced from its pieces into one string of
    /// exact capacity.
    fn site_text(&self, site: &Site) -> (Option<EdgeId>, Option<&RouteMap>, String) {
        let topo = self.topo;
        let on_edge = |pre: &str, e: EdgeId, post: &str| {
            let [src, arrow, dst] = topo.edge_name_parts(e);
            [pre, src, arrow, dst, post].concat()
        };
        match *site {
            Site::Import(e) => (
                Some(e),
                self.policy.import_map(e),
                on_edge("import on ", e, " preserves the invariants"),
            ),
            Site::Export(e) => (
                Some(e),
                self.policy.export_map(e),
                on_edge("export on ", e, " preserves the invariants"),
            ),
            Site::Originate(e) => (
                Some(e),
                None,
                on_edge("originated routes on ", e, " satisfy the edge invariant"),
            ),
            Site::Subsumption(first, p) => {
                let [a, b, c] = p.location.display_parts(topo);
                // The suite's first property is "the property"; the
                // ones sharing its invariants go by name.
                let name = match (first, p.name.as_deref()) {
                    (false, Some(name)) => name,
                    _ => "the property",
                };
                (
                    None,
                    None,
                    ["invariant at ", a, b, c, " implies ", name].concat(),
                )
            }
            Site::Propagation { edge, is_import } => (
                Some(edge),
                if is_import {
                    self.policy.import_map(edge)
                } else {
                    self.policy.export_map(edge)
                },
                on_edge(
                    "good routes propagate across ",
                    edge,
                    if is_import { " (import)" } else { " (export)" },
                ),
            ),
            Site::NoInterference { router, step } => {
                let at = topo.node(router).name.as_str();
                let (edge, map, text) = match step.site() {
                    Some(inner) => self.site_text(&inner),
                    // What the `Subsumption` site of a one-property suite says.
                    None => (
                        None,
                        None,
                        ["invariant at ", at, " implies the property"].concat(),
                    ),
                };
                (
                    edge,
                    map,
                    ["[no-interference at ", at, "] ", &text].concat(),
                )
            }
            Site::Final(_) => (
                None,
                None,
                "final path constraint implies the liveness property".into(),
            ),
        }
    }
}
