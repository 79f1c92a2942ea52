//! Cross-run re-verification: one long-lived engine, many rounds.
//!
//! [`ReverifyEngine`] is the substrate of daemon (`lightyear watch`) and
//! migration-plan (`lightyear plan`) verification. Local checks are
//! independent, so what a round hands the next is **verdicts**, never
//! solver state — all of it O(live checks):
//!
//! * a fingerprint-keyed result cache (an [`orchestrator::ResultCache`])
//!   carrying every previously-proved verdict, so clean checks are
//!   answered in O(1) without touching a solver;
//! * a bounded conjunct-core cache (see `ReverifyEngine::cores`), so an
//!   invariant edit that leaves a proof's load-bearing conjuncts intact
//!   is answered without solving;
//! * the previous round's fingerprints and universe layout: a round
//!   drops every previous fingerprint that is no longer live, so the
//!   carried cache stays proportional to the live check set.
//!
//! Dirty checks take the same path as a fresh run: generated by the one
//! generation entry (`Verifier::generate`), partitioned into classes on
//! the round's part cache (`Verifier::partition`), then decided and
//! folded by `Verifier::fold` — one solve per class, grouped by
//! transfer relation, groups spread over the verifier's `jobs` workers.
//! Nothing a round encodes outlives it, so a round's cost and memory do
//! not depend on the engine's age.
//!
//! The dirty set itself is decided by the rename-invariant fingerprints
//! of [`crate::fingerprint`], and by nothing else: every round
//! fingerprints every check, and a check is re-solved iff its
//! fingerprint has never been proved before. Cosmetic edits (route-map
//! renames, unused-object edits, reformatting) leave every fingerprint
//! unchanged and produce an **empty** dirty set; a single-router
//! semantic edit dirties only the checks on that router's incident
//! edges. What the caller says changed is reported, never trusted.
//!
//! Reports are byte-identical to a fresh run of the same round: passes
//! are pure verdicts, and a dirty check that fails on a group session is
//! re-derived on a fresh one-shot instance so the reported counterexample
//! can never depend on what else the group solved.

use crate::check::{CheckOutcome, CheckResult, Report};
use crate::engine::generate::{count_described, ResolvedCheck};
use crate::engine::solve::{size_only, SolvedCheck};
use crate::engine::{CheckCache, Verifier};
use crate::fingerprint::{pred_digest, universe_digest, FpParts};
use crate::invariants::NetworkInvariants;
use crate::safety::SafetyProperty;
use crate::universe::Universe;
use bgp_model::topology::{NodeId, Topology};
use orchestrator::Fingerprint;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// What one re-verify round did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReverifyStats {
    /// Checks the round consists of.
    pub total: usize,
    /// Checks actually re-solved (fingerprint never proved before).
    pub dirty: usize,
    /// Size of the neighborhood of the routers the caller named changed:
    /// checks on an edge incident to one of them, plus the location-free
    /// implication checks; `total` when the caller named none (`None`)
    /// or there is no previous round. Reported only — it never decides
    /// what a round solves. With a complete list and a stable attribute
    /// universe, `dirty <= candidates`: the locality the paper's local
    /// checks promise.
    pub candidates: usize,
    /// Checks answered from the carried cross-run result cache.
    pub reused: usize,
    /// Fingerprint-missed checks answered by **conjunct-core
    /// subsumption** without solving: the check's assume-free "rest" was
    /// unchanged and every conjunct of a previously-reported unsat core
    /// still occurs in its (edited) assume predicate, so the old proof
    /// still applies. Not counted in `dirty`.
    pub core_clean: usize,
    /// Superseded fingerprints dropped from the carried cache: the
    /// previous round's that are not live this round.
    pub invalidated: usize,
    /// Always 0: no session outlives a round. Kept only because the
    /// `benchmark/` harness compiles against it.
    pub sessions_reused: usize,
    /// Encoding-base groups the round's solve stage ran. Named for the
    /// per-edge sessions it used to count; kept only because the
    /// `benchmark/` harness compiles against it.
    pub sessions_created: usize,
    /// True when the attribute universe changed shape and the engine had
    /// to drop its carried results and cores (full re-verify).
    pub universe_reset: bool,
}

impl ReverifyStats {
    /// The canonical one-line rendering used by the daemon's per-round
    /// output (and asserted by the CI smoke test).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "dirty {}/{} checks ({} candidates), {} cached, ",
            self.dirty, self.total, self.candidates, self.reused,
        );
        if self.core_clean > 0 {
            s.push_str(&format!("{} core-clean, ", self.core_clean));
        }
        s.push_str(&format!("{} invalidated", self.invalidated));
        if self.universe_reset {
            s.push_str("; universe changed, state reset");
        }
        s
    }
}

/// What a round keeps of the previous one: its universe layout (for the
/// reset test) and its fingerprints (for invalidation).
struct PrevRound {
    universe: Universe,
    fps: Vec<Fingerprint>,
}

/// The `candidates` stat: checks on an edge incident to a router named
/// in `changed`, plus the location-free implication checks. Reported
/// only; fingerprints decide what is solved.
fn neighborhood(topo: &Topology, checks: &[ResolvedCheck], changed: &[String]) -> usize {
    let named: HashSet<NodeId> = changed
        .iter()
        .filter_map(|n| topo.node_by_name(n))
        .collect();
    checks
        .iter()
        .filter(|c| match c.body.edge() {
            Some(edge) => {
                let e = topo.edge(edge);
                named.contains(&e.src) || named.contains(&e.dst)
            }
            None => true,
        })
        .count()
}

/// The most known cores kept per rest fingerprint. Small on purpose: a
/// rest structure rarely proves UNSAT through more than a couple of
/// genuinely different conjunct sets, and every entry is scanned on a
/// fingerprint miss.
const MAX_CORES_PER_REST: usize = 4;

/// The most rest fingerprints the core cache holds. Every distinct
/// route-map content an edge has ever carried mints a new rest key, so
/// a daemon polling a frequently-edited config would otherwise grow the
/// map monotonically (the same long-lived-process concern the result
/// cache's LRU bound addresses).
/// Overflow evicts oldest-first; eviction only costs a re-solve.
const MAX_CORE_RESTS: usize = 4096;

/// The long-lived re-verification engine (see module docs).
pub struct ReverifyEngine {
    results: Arc<CheckCache>,
    /// Conjunct-core cache: per assume-free rest fingerprint
    /// ([`FpParts::rest`]), the sets of conjunct fingerprints that
    /// alone forced UNSAT in earlier rounds (sorted by size, at most
    /// [`MAX_CORES_PER_REST`]). Lets an invariant edit that only touches
    /// non-load-bearing conjuncts stay clean: the old proof still
    /// applies whenever a recorded core is a subset of the new assume's
    /// conjuncts. Dropped with everything else on a universe reset —
    /// conjunct fingerprints are only comparable under one layout.
    cores: HashMap<u128, Vec<BTreeSet<u128>>>,
    /// Rest fingerprints in first-insertion order, driving oldest-first
    /// eviction once `cores` passes [`MAX_CORE_RESTS`].
    core_order: std::collections::VecDeque<u128>,
    prev: Option<PrevRound>,
}

impl Default for ReverifyEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReverifyEngine {
    /// A fresh engine with nothing carried over.
    pub fn new() -> Self {
        Self::with_results(Arc::new(CheckCache::new()))
    }

    /// An engine whose carried result cache starts from `results` —
    /// typically a pass-only spill reloaded from disk
    /// ([`crate::engine::load_pass_cache`]), so a restarted daemon's
    /// first round answers every unchanged passing check without
    /// touching a solver.
    pub fn with_results(results: Arc<CheckCache>) -> Self {
        ReverifyEngine {
            results,
            cores: HashMap::new(),
            core_order: std::collections::VecDeque::new(),
            prev: None,
        }
    }

    /// The carried cross-run result cache (e.g. for spilling to disk).
    pub fn cache(&self) -> Arc<CheckCache> {
        self.results.clone()
    }

    /// Verify the given problem against the *current* network behind
    /// `v`, re-solving only what changed since the previous round.
    ///
    /// `changed` names the routers the caller believes were edited. It
    /// only feeds the [`ReverifyStats::candidates`] stat and never
    /// decides what is solved: every check is fingerprinted every round,
    /// so an incomplete (or `None`) list still yields a correct round.
    ///
    /// The verifier must be configured like the previous rounds' (same
    /// ghosts, sequential or not does not matter); properties and
    /// invariants may change freely — their checks simply come out dirty.
    pub fn reverify(
        &mut self,
        v: &Verifier,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
        changed: Option<&[String]>,
    ) -> (Report, ReverifyStats) {
        let t0 = Instant::now();
        let _span = obs::span!(
            "reverify_round",
            changed = changed.map_or(0, <[String]>::len)
        );
        let g = v.generate(v.universe(&[]), &[(props, inv)]);
        let (checks, universe) = (g.checks, g.universe);
        // One part cache for the round: the dirty test and the core
        // cache's rest keys read the same per-edge and per-predicate
        // digests.
        let mut parts = FpParts::new(universe_digest(&universe), v.policy_digests());
        let mut stats = ReverifyStats {
            total: checks.len(),
            ..ReverifyStats::default()
        };

        // A change to the attribute universe's *shape* (a community,
        // regex or ghost appearing, disappearing, or changing position)
        // re-lays-out every symbolic route: carried verdicts and cores
        // are tied to the old layout, so drop them
        // and fall back to a full round. Note this is ordered equality —
        // the order-insensitive digest inside each fingerprint is not
        // enough, because cached counterexamples must match what a fresh
        // run under the *current* layout would print.
        if let Some(prev) = &self.prev {
            let same_layout = prev.universe.communities() == universe.communities()
                && prev.universe.regexes() == universe.regexes()
                && prev.universe.ghosts() == universe.ghosts();
            if !same_layout {
                stats.universe_reset = true;
                stats.invalidated = self.results.len();
                self.cores.clear();
                self.core_order.clear();
                self.results = Arc::new(CheckCache::new());
                self.prev = None;
            }
        }

        stats.candidates = match (&self.prev, changed) {
            (Some(_), Some(names)) => neighborhood(v.topology(), &checks, names),
            _ => checks.len(),
        };
        // Every check is fingerprinted, whatever the caller says changed.
        let fps: Vec<Fingerprint> = checks.iter().map(|c| parts.check(&c.body)).collect();

        // Answer clean checks from the carried cache; collect the dirty.
        // A fingerprint miss gets one more chance before it counts as
        // dirty: conjunct-core subsumption — when the check's assume-free
        // rest is unchanged and some previously-reported core's conjuncts
        // all still occur in the new assume, the old UNSAT proof covers
        // the new check (a stronger assume only removes models from
        // `assume ∧ ¬goal`), so it is answered Pass without solving.
        let mut outcomes: Vec<Option<CheckOutcome>> = (0..checks.len()).map(|_| None).collect();
        let mut dirty: Vec<usize> = Vec::new();
        for (i, c) in checks.iter().enumerate() {
            match self.results.get(fps[i]) {
                // Identical formula ⇒ identical verdict.
                Some(mut solved) => {
                    stats.reused += 1;
                    solved.stats = size_only(solved.stats);
                    outcomes[i] = Some(v.outcome_of(c, solved));
                }
                None => match self.core_subsumed(&mut parts, c) {
                    Some(solved) => {
                        stats.core_clean += 1;
                        outcomes[i] = Some(v.outcome_of(c, solved.clone()));
                        self.results.insert(fps[i], solved);
                    }
                    None => dirty.push(i),
                },
            }
        }
        stats.dirty = dirty.len();

        // Dirty checks take a fresh run's partition, on the part cache
        // that keyed the round, and its fold. The fold gets no cache:
        // the carried one already answered every hit. Passes record
        // their conjunct core, so later rounds can answer invariant
        // edits that leave the load-bearing conjuncts intact without
        // solving.
        let classes = v.partition(&mut parts, dirty.iter().map(|&i| (i, &checks[i])));
        let exec = v.fold(&universe, classes, None, &mut |pos, solved| {
            let i = dirty[pos];
            let rc = &checks[i];
            if let (true, Some(core), Some(rest)) =
                (solved.result.passed(), &solved.core, parts.rest(&rc.body))
            {
                let assume = rc.body.assume().expect("only symbolic checks carry cores");
                let conjs = assume.conjuncts();
                self.remember_core(
                    rest.0,
                    core.iter().map(|&ci| pred_digest(conjs[ci]).0).collect(),
                );
            }
            outcomes[i] = Some(v.outcome_of(rc, (*solved).clone()));
            self.results.insert(fps[i], solved.into_owned());
        });
        stats.sessions_created = exec.groups;
        while self.cores.len() > MAX_CORE_RESTS {
            let Some(oldest) = self.core_order.pop_front() else {
                break;
            };
            self.cores.remove(&oldest);
        }

        // Invalidation: the previous round's fingerprints that are not
        // live this round are dropped from the carried cache, keeping it
        // proportional to the live check set no matter how many rounds
        // the daemon has seen. A position whose fingerprint did not move
        // is live; a fingerprint that left its position is stale unless
        // it is one of the round's class fingerprints — every fingerprint
        // the round poses, once each.
        if let Some(prev) = &self.prev {
            let left: Vec<Fingerprint> = prev
                .fps
                .iter()
                .enumerate()
                .filter(|&(i, f)| fps.get(i) != Some(f))
                .map(|(_, f)| *f)
                .collect();
            if !left.is_empty() {
                let live: HashSet<u128> = parts.fingerprints().map(|f| f.0).collect();
                let stale: Vec<Fingerprint> =
                    left.into_iter().filter(|f| !live.contains(&f.0)).collect();
                stats.invalidated += self.results.remove_many(&stale);
            }
        }

        self.prev = Some(PrevRound { universe, fps });
        count_described();

        let report = Report {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every check answered by cache or solve"))
                .collect(),
            total_time: t0.elapsed(),
            exec: orchestrator::RunStats::default(),
        };
        if obs::enabled() {
            obs::add("reverify.rounds", 1);
            obs::add("reverify.checks", stats.total as u64);
            obs::add("reverify.dirty", stats.dirty as u64);
            obs::add("reverify.reused", stats.reused as u64);
            obs::add("reverify.core_clean", stats.core_clean as u64);
            obs::add("reverify.invalidated", stats.invalidated as u64);
            if stats.universe_reset {
                obs::add("reverify.universe_resets", 1);
            }
        }
        (report, stats)
    }

    /// Answer a fingerprint-missed check from the conjunct-core cache
    /// when a previously-proved core is subsumed by its current assume
    /// predicate (see the `cores` field for the soundness argument).
    /// Returns the replayed pass with the core re-indexed into the
    /// current conjunct list.
    fn core_subsumed<'a>(
        &self,
        parts: &mut FpParts<'a>,
        rc: &ResolvedCheck<'a>,
    ) -> Option<SolvedCheck> {
        let assume = rc.body.assume()?;
        let rest = parts.rest(&rc.body)?;
        let entries = self.cores.get(&rest.0)?;
        let conjs = assume.conjuncts();
        let fp_of: Vec<u128> = conjs.iter().map(|c| pred_digest(c).0).collect();
        let have: HashSet<u128> = fp_of.iter().copied().collect();
        let core = entries
            .iter()
            .find(|set| set.iter().all(|f| have.contains(f)))?;
        // Every current conjunct matching a core member is load-bearing
        // (duplicates included: their conjunction is the proved core).
        let idx: Vec<usize> = fp_of
            .iter()
            .enumerate()
            .filter(|(_, f)| core.contains(*f))
            .map(|(i, _)| i)
            .collect();
        Some(SolvedCheck {
            result: CheckResult::Pass,
            stats: smt::SolverStats::default(),
            core: Some(idx),
        })
    }

    /// Merge a newly-proved core into the core cache. A new core is
    /// redundant when an existing (smaller or equal) one already
    /// subsumes it; conversely a strictly smaller new core retires the
    /// supersets it improves on.
    fn remember_core(&mut self, rest: u128, set: BTreeSet<u128>) {
        if !self.cores.contains_key(&rest) {
            self.core_order.push_back(rest);
        }
        let entry = self.cores.entry(rest).or_default();
        if entry.iter().any(|e| e.is_subset(&set)) {
            return;
        }
        entry.retain(|e| !set.is_subset(e));
        entry.push(set);
        entry.sort_by_key(BTreeSet::len);
        entry.truncate(MAX_CORES_PER_REST);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghost::{GhostAttr, GhostUpdate};
    use crate::invariants::Location;
    use crate::pred::RoutePred;
    use bgp_model::policy::Policy;
    use bgp_model::routemap::{RouteMap, RouteMapEntry, SetAction};
    use bgp_model::topology::Topology;
    use bgp_model::Community;

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    fn tag_map(name: &str, comm: Community) -> RouteMap {
        let mut m = RouteMap::new(name);
        m.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![comm],
            additive: true,
        }));
        m
    }

    /// ISP1 -> R1 -> R2 -> ISP2 with the tag/drop no-transit scheme.
    fn network(tag_lp: Option<u32>) -> (Topology, Policy) {
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let r2 = t.add_router("R2", 65000);
        let isp1 = t.add_external("ISP1", 100);
        let isp2 = t.add_external("ISP2", 200);
        t.add_session(r1, r2);
        t.add_session(isp1, r1);
        t.add_session(r2, isp2);
        let mut pol = Policy::new();
        let mut m = tag_map("FROM-ISP1", c("100:1"));
        if let Some(lp) = tag_lp {
            m.entries[0].sets.push(SetAction::LocalPref(lp));
        }
        pol.set_import(t.edge_between(isp1, r1).unwrap(), m);
        let mut drop = RouteMap::new("TO-ISP2");
        drop.push(
            RouteMapEntry::deny(10).matching(bgp_model::routemap::MatchCond::Community {
                comms: vec![c("100:1")],
                match_all: false,
            }),
        );
        drop.push(RouteMapEntry::permit(20));
        pol.set_export(t.edge_between(r2, isp2).unwrap(), drop);
        (t, pol)
    }

    fn inputs(t: &Topology) -> (SafetyProperty, NetworkInvariants, GhostAttr) {
        let r1 = t.node_by_name("R1").unwrap();
        let r2 = t.node_by_name("R2").unwrap();
        let isp1 = t.node_by_name("ISP1").unwrap();
        let isp2 = t.node_by_name("ISP2").unwrap();
        let to_isp2 = t.edge_between(r2, isp2).unwrap();
        let ghost = GhostAttr::new("FromISP1")
            .with_import(t.edge_between(isp1, r1).unwrap(), GhostUpdate::SetTrue)
            .with_import(t.edge_between(isp2, r2).unwrap(), GhostUpdate::SetFalse);
        let prop = SafetyProperty::new(Location::Edge(to_isp2), RoutePred::ghost("FromISP1").not())
            .named("no-transit");
        let key = RoutePred::ghost("FromISP1").implies(RoutePred::has_community(c("100:1")));
        let inv = NetworkInvariants::with_default(key)
            .with(Location::Edge(to_isp2), RoutePred::ghost("FromISP1").not());
        (prop, inv, ghost)
    }

    #[test]
    fn second_identical_round_is_all_cache() {
        let (t, pol) = network(None);
        let (prop, inv, ghost) = inputs(&t);
        let v = Verifier::new(&t, &pol).with_ghost(ghost);
        let mut eng = ReverifyEngine::new();
        let (r1, s1) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
        assert!(r1.all_passed(), "{}", r1.format_failures(&t));
        assert_eq!(s1.dirty, s1.total, "first round is a full run");
        let (r2, s2) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, Some(&[]));
        assert_eq!(r1.to_string(), r2.to_string());
        assert_eq!(s2.dirty, 0, "{s2:?}");
        assert_eq!(s2.reused, s2.total);
        assert_eq!(s2.candidates, 1, "only the location-free subsumption");
    }

    #[test]
    fn single_router_edit_dirties_only_its_neighborhood() {
        let (t, pol) = network(None);
        let (prop, inv, ghost) = inputs(&t);
        let mut eng = ReverifyEngine::new();
        {
            let v = Verifier::new(&t, &pol).with_ghost(ghost.clone());
            let (_, s) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
            assert!(s.total > 0);
        }
        // Edit R1's import map (same communities: universe stable).
        let (t2, pol2) = network(Some(120));
        let (prop2, inv2, ghost2) = inputs(&t2);
        let v2 = Verifier::new(&t2, &pol2).with_ghost(ghost2);
        let changed = vec!["R1".to_string()];
        let (r, s) = eng.reverify(&v2, std::slice::from_ref(&prop2), &inv2, Some(&changed));
        assert!(r.all_passed(), "{}", r.format_failures(&t2));
        assert!(!s.universe_reset, "{s:?}");
        assert!(s.dirty > 0, "a semantic edit must dirty something");
        assert!(
            s.dirty <= s.candidates,
            "dirty set must stay within the delta neighborhood: {s:?}"
        );
        assert!(
            s.candidates < s.total,
            "neighborhood must be a strict subset: {s:?}"
        );
        // The dirty re-solve happened in groups of this round alone:
        // nothing solver-side was carried from the baseline round.
        assert_eq!(s.sessions_reused, 0, "{s:?}");
        assert!((1..=s.dirty).contains(&s.sessions_created), "{s:?}");
        // The fresh engine agrees byte-for-byte.
        let fresh = v2.verify_safety(&prop2, &inv2);
        assert_eq!(fresh.to_string(), r.to_string());
        // Edit reverted: the old fingerprints were invalidated for the
        // changed neighborhood, so the revert is a fingerprint miss — but
        // the baseline round recorded the original check's conjunct core
        // under its (restored) rest fingerprint, so the revert is
        // answered core-clean without touching a solver at all.
        let (t3, pol3) = network(None);
        let (prop3, inv3, ghost3) = inputs(&t3);
        let v3 = Verifier::new(&t3, &pol3).with_ghost(ghost3);
        let (r3, s3) = eng.reverify(&v3, std::slice::from_ref(&prop3), &inv3, Some(&changed));
        assert!(r3.all_passed());
        assert_eq!(s3.dirty, 0, "revert must be core-clean: {s3:?}");
        assert!(s3.core_clean > 0, "{s3:?}");
        let fresh3 = v3.verify_safety(&prop3, &inv3);
        assert_eq!(fresh3.to_string(), r3.to_string());
    }

    #[test]
    fn invariant_edit_on_dead_conjunct_stays_core_clean() {
        // The default invariant is `key ∧ (key ∨ lp ≤ X)`: the second
        // conjunct is implied by the first, so no proof ever needs it.
        // Editing only X re-fingerprints every check that assumes or
        // ensures the default — but checks whose *ensure* side is stable
        // (the export onto the property edge, whose ensure is the
        // unchanged override) keep their rest fingerprint, and the
        // carried conjunct core answers them without solving.
        let (t, pol) = network(None);
        let (prop, _, ghost) = inputs(&t);
        let key = RoutePred::ghost("FromISP1").implies(RoutePred::has_community(c("100:1")));
        let dflt = |lp: u32| {
            key.clone().and(
                key.clone()
                    .or(RoutePred::local_pref(crate::pred::Cmp::Le, lp)),
            )
        };
        let override_pred = RoutePred::ghost("FromISP1").not();
        let inv1 = NetworkInvariants::with_default(dflt(1_000_000))
            .with(prop.location, override_pred.clone());
        let v = Verifier::new(&t, &pol).with_ghost(ghost);
        let mut eng = ReverifyEngine::new();
        let (r1, _) = eng.reverify(&v, std::slice::from_ref(&prop), &inv1, None);
        assert!(r1.all_passed(), "{}", r1.format_failures(&t));
        // Edit only the dead conjunct's bound.
        let inv2 =
            NetworkInvariants::with_default(dflt(2_000_000)).with(prop.location, override_pred);
        let (r2, s2) = eng.reverify(&v, std::slice::from_ref(&prop), &inv2, Some(&[]));
        assert!(!s2.universe_reset, "{s2:?}");
        assert!(r2.all_passed(), "{}", r2.format_failures(&t));
        assert!(
            s2.core_clean > 0,
            "stable-rest checks must be answered by core subsumption: {s2:?}"
        );
        assert_eq!(s2.reused + s2.core_clean + s2.dirty, s2.total, "{s2:?}");
        assert!(s2.dirty < s2.total, "{s2:?}");
        // Byte-identical to a fresh engine on the edited spec.
        let fresh = v.verify_safety(&prop, &inv2);
        assert_eq!(fresh.to_string(), r2.to_string());
        // The core-clean answers carry their (re-indexed) cores.
        assert!(r2
            .outcomes
            .iter()
            .any(|o| o.core.as_ref().is_some_and(|c| !c.is_empty())));
    }

    /// R1's import with the tag dropped (the community stays in the
    /// universe via the TO-ISP2 match, so the layout is stable): the
    /// no-transit property fails.
    fn broken_import() -> (Topology, Policy) {
        let (t, mut pol) = network(None);
        let isp1 = t.node_by_name("ISP1").unwrap();
        let r1 = t.node_by_name("R1").unwrap();
        let e = t.edge_between(isp1, r1).unwrap();
        let mut m = RouteMap::new("FROM-ISP1");
        m.push(RouteMapEntry::permit(10));
        pol.set_import(e, m);
        (t, pol)
    }

    #[test]
    fn failing_rounds_match_fresh_runs_byte_for_byte() {
        let (t, pol) = network(None);
        let (prop, inv, ghost) = inputs(&t);
        let mut eng = ReverifyEngine::new();
        {
            let v = Verifier::new(&t, &pol).with_ghost(ghost.clone());
            eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
        }
        let (t2, pol2) = broken_import();
        let (prop2, inv2, ghost2) = inputs(&t2);
        let v2 = Verifier::new(&t2, &pol2).with_ghost(ghost2);
        let changed = vec!["R1".to_string()];
        let (r, s) = eng.reverify(&v2, std::slice::from_ref(&prop2), &inv2, Some(&changed));
        assert!(!r.all_passed(), "dropping the tag must violate no-transit");
        assert!(s.dirty > 0 && s.dirty <= s.candidates, "{s:?}");
        let fresh = v2.verify_safety(&prop2, &inv2);
        assert_eq!(fresh.to_string(), r.to_string());
        assert_eq!(fresh.format_failures(&t2), r.format_failures(&t2));
    }

    #[test]
    fn edit_missing_from_the_changed_list_still_matches_fresh() {
        // The caller names no router, yet R1's import was broken: the
        // round must still find the failure, because fingerprints, not
        // the caller's list, decide what is re-solved.
        let (t, pol) = network(None);
        let (prop, inv, ghost) = inputs(&t);
        let mut eng = ReverifyEngine::new();
        {
            let v = Verifier::new(&t, &pol).with_ghost(ghost.clone());
            let (r, _) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
            assert!(r.all_passed(), "{}", r.format_failures(&t));
        }
        let (t2, pol2) = broken_import();
        let (prop2, inv2, ghost2) = inputs(&t2);
        let v2 = Verifier::new(&t2, &pol2).with_ghost(ghost2);
        let (r, s) = eng.reverify(&v2, std::slice::from_ref(&prop2), &inv2, Some(&[]));
        let fresh = v2.verify_safety(&prop2, &inv2);
        assert!(
            !fresh.all_passed(),
            "dropping the tag must violate no-transit"
        );
        assert_eq!(fresh.to_string(), r.to_string(), "{s:?}");
        assert_eq!(fresh.format_failures(&t2), r.format_failures(&t2));
        assert!(s.dirty > 0, "{s:?}");
    }

    #[test]
    fn origination_reshuffle_naming_only_a_and_d_matches_fresh() {
        // Moving an origination from one edge to another preserves the
        // check *count* but shifts every check index in between, so the
        // round must not line checks up with the previous round's by
        // position.
        let mut t = Topology::new();
        let a = t.add_router("A", 1);
        let b = t.add_router("B", 1);
        let cc = t.add_router("C", 1);
        let d = t.add_router("D", 1);
        let x1 = t.add_external("X1", 2);
        let x2 = t.add_external("X2", 3);
        t.add_session(x1, a);
        t.add_session(a, b);
        t.add_session(b, cc);
        t.add_session(cc, d);
        t.add_session(d, x2);
        let route = bgp_model::Route::new("198.51.100.0/24".parse().unwrap());
        let mut pol_a = bgp_model::Policy::new();
        pol_a.add_origination(t.edge_between(a, b).unwrap(), route.clone());
        let mut pol_b = bgp_model::Policy::new();
        pol_b.add_origination(t.edge_between(d, x2).unwrap(), route);

        let prop = SafetyProperty::new(Location::Node(cc), RoutePred::True);
        let inv = NetworkInvariants::new();
        let mut eng = ReverifyEngine::new();
        let total_a = {
            let v = Verifier::new(&t, &pol_a);
            let (r, s) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
            assert!(r.all_passed());
            s.total
        };
        // Only the two origination-owning routers are named changed; the
        // B/C checks in between change position, not content.
        let changed = vec!["A".to_string(), "D".to_string()];
        let v = Verifier::new(&t, &pol_b);
        let (r, s) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, Some(&changed));
        assert_eq!(s.total, total_a, "count-preserving reshuffle");
        let fresh = v.verify_safety(&prop, &inv);
        assert_eq!(fresh.to_string(), r.to_string());
    }

    #[test]
    fn reversed_originations_replay_the_fresh_counterexample() {
        // R1 -> ISP originates two routes, neither with the community
        // the edge invariant asks for. Reversing the list keeps every
        // fingerprint, so the second round is all cache, and it must
        // still print the route a fresh run prints.
        let mut t = Topology::new();
        let r1 = t.add_router("R1", 65000);
        let isp = t.add_external("ISP", 100);
        t.add_session(r1, isp);
        let e = t.edge_between(r1, isp).unwrap();
        let prop = SafetyProperty::new(Location::Node(r1), RoutePred::True);
        let inv = NetworkInvariants::with_default(RoutePred::has_community(c("100:1")));
        let mut routes = vec![
            bgp_model::Route::new("10.0.0.0/8".parse().unwrap()),
            bgp_model::Route::new("192.168.0.0/16".parse().unwrap()),
        ];
        let mut eng = ReverifyEngine::new();
        for round in 0..2 {
            let mut pol = Policy::new();
            for r in &routes {
                pol.add_origination(e, r.clone());
            }
            let v = Verifier::new(&t, &pol);
            let (r, s) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
            let fresh = v.verify_safety(&prop, &inv);
            assert!(!fresh.all_passed(), "round {round}");
            assert_eq!(
                fresh.format_failures(&t),
                r.format_failures(&t),
                "round {round}"
            );
            assert_eq!(s.dirty, if round == 0 { s.total } else { 0 }, "{s:?}");
            routes.reverse();
        }
    }

    #[test]
    fn spec_change_invalidates_outside_the_named_delta() {
        // Changing the invariants retires old fingerprints anywhere in
        // the network, even when the caller names an (empty) config
        // delta: the carried cache must not accumulate dead old-spec
        // entries.
        let (t, pol) = network(None);
        let (prop, inv, ghost) = inputs(&t);
        let mut eng = ReverifyEngine::new();
        let v = Verifier::new(&t, &pol).with_ghost(ghost);
        let (r1, s1) = eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
        assert!(r1.all_passed());
        // Strengthen the default invariant (no new universe atoms:
        // local-pref is a built-in bitvector attribute).
        let inv2 = NetworkInvariants::with_default(
            RoutePred::ghost("FromISP1")
                .implies(RoutePred::has_community(c("100:1")))
                .and(RoutePred::local_pref(crate::pred::Cmp::Le, 1_000_000)),
        )
        .with(prop.location, RoutePred::ghost("FromISP1").not());
        let (_, s2) = eng.reverify(&v, std::slice::from_ref(&prop), &inv2, Some(&[]));
        assert!(!s2.universe_reset, "{s2:?}");
        assert!(s2.dirty > 0, "{s2:?}");
        assert!(
            s2.invalidated > 0,
            "old-spec fingerprints must be retired: {s2:?}"
        );
        assert!(
            eng.cache().len() <= s1.total.max(s2.total),
            "carried cache must stay proportional to the live check set"
        );
    }

    #[test]
    fn universe_shape_change_resets_state() {
        let (t, pol) = network(None);
        let (prop, inv, ghost) = inputs(&t);
        let mut eng = ReverifyEngine::new();
        {
            let v = Verifier::new(&t, &pol).with_ghost(ghost.clone());
            eng.reverify(&v, std::slice::from_ref(&prop), &inv, None);
        }
        // A new community enters the universe: full reset.
        let (t2, mut pol2) = network(None);
        let isp1 = t2.node_by_name("ISP1").unwrap();
        let r1 = t2.node_by_name("R1").unwrap();
        let e = t2.edge_between(isp1, r1).unwrap();
        let mut m = tag_map("FROM-ISP1", c("100:1"));
        m.entries[0].sets.push(SetAction::Community {
            comms: vec![c("999:9")],
            additive: true,
        });
        pol2.set_import(e, m);
        let (prop2, inv2, ghost2) = inputs(&t2);
        let v2 = Verifier::new(&t2, &pol2).with_ghost(ghost2);
        let (r, s) = eng.reverify(
            &v2,
            std::slice::from_ref(&prop2),
            &inv2,
            Some(&["R1".to_string()]),
        );
        assert!(s.universe_reset, "{s:?}");
        assert_eq!(s.dirty, s.total, "reset forces a full round");
        let fresh = v2.verify_safety(&prop2, &inv2);
        assert_eq!(fresh.to_string(), r.to_string());
    }
}
