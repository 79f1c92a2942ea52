//! Deciding checks: session groups — one per distinct transfer relation,
//! per originate edge and per subsumption chunk — on persistent
//! assumption-based [`smt::IncrementalSession`]s (the relation encoded
//! once, each check an assumption-gated query carrying learnt clauses
//! forward), the one-shot query every failure's counterexample
//! and the reference oracle come from, and the concrete evaluator of
//! originate checks.

use super::generate::{CheckBody, Relation, ResolvedCheck};
use super::{timed, Verifier};
use crate::check::{CheckResult, Counterexample};
use crate::encode::{encode_transfer, Transfer};
use crate::fingerprint::route_digest;
use crate::invariants::NetworkInvariants;
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::symbolic::{ConcreteRoute, SymRoute};
use crate::universe::Universe;
use bgp_model::topology::EdgeId;
use smt::{
    solve_with_stats, Assumption, IncrementalSession, SatResult, SolveOutcome, SolverStats, TermId,
    TermPool,
};
use std::cell::Cell;
use std::collections::BTreeMap;

/// A check's solver-facing outcome, detached from its descriptor so one
/// solved structure can answer every renamed instantiation.
#[derive(Clone, Debug)]
pub struct SolvedCheck {
    /// Pass, or fail with a counterexample.
    pub result: CheckResult,
    /// Solver statistics of the one real invocation.
    pub stats: SolverStats,
    /// For session-solved passes, the unsat core over the assumed
    /// invariant's conjuncts (see [`crate::check::CheckOutcome::core`]).
    /// Equal fingerprints mean equal conjunct lists, so a core replicates
    /// soundly to every dedup copy and cache hit of the structure.
    pub core: Option<Vec<usize>>,
}

/// What a replicated answer (a dedup copy, a cache hit, a verdict
/// carried across rounds) keeps of the one real solve's statistics: the
/// formula-size stats — the formula is identical — without the work
/// counters, so aggregate solve/encode times count each real solver
/// invocation exactly once.
pub(crate) fn size_only(st: SolverStats) -> SolverStats {
    SolverStats {
        num_vars: st.num_vars,
        num_clauses: st.num_clauses,
        ..SolverStats::default()
    }
}

/// A group's session and the per-query scratch its checks reuse.
#[derive(Default)]
struct GroupSession {
    sess: IncrementalSession,
    /// A query's encoded assume conjuncts, then its negated goal.
    terms: Vec<TermId>,
    /// Their activation literals, in the same order.
    acts: Vec<Assumption>,
}

thread_local! {
    /// The session this thread ran its previous group on, parked for
    /// the next one: a run poses hundreds of small groups per worker,
    /// and building then dropping a pool, a blaster and a solver for
    /// each costs more than some of them take to solve. The calling
    /// thread works in every run, so its parked session survives from
    /// run to run; a helper's ends with the run that spawned it.
    static SPARE_SESSION: Cell<Option<GroupSession>> = const { Cell::new(None) };
}

/// A group session: this thread's parked one, reset (hand it back with
/// [`park_session`] when the group is done), so it behaves like a new
/// one but allocates only what the largest group so far did not.
fn group_session() -> GroupSession {
    let mut gs = SPARE_SESSION.take().unwrap_or_default();
    gs.sess.reset();
    gs
}

/// A finished group's session goes back to its worker thread for the
/// next group (see [`group_session`]).
fn park_session(gs: GroupSession) {
    obs::gauge_max("engine.term_pool_terms", gs.sess.pool().len() as u64);
    SPARE_SESSION.set(Some(gs));
}

/// The negated goal of a symbolic obligation: `goal = reject ∨
/// ensure(out)` for safety or `¬reject ∧ ensure(out)` for liveness
/// propagation (`require_accept`), `out` and `reject` the transfer's;
/// with no transfer (the identity, which rejects nothing) the goal is
/// `ensure(input)`. One definition shared by one-shot queries
/// ([`Verifier::one_shot`]) and grouped session solving, so the
/// obligation shape cannot drift between them. Session solving poses the
/// `assume(input)` half as one assumption literal **per assume
/// conjunct** (so an UNSAT proof's failed assumptions localize which
/// conjuncts were load-bearing) and this negated goal behind one more.
fn goal_negation(
    pool: &mut TermPool,
    universe: &Universe,
    input: &SymRoute,
    transfer: Option<&Transfer>,
    ensure: &RoutePred,
    require_accept: bool,
) -> TermId {
    let goal = match transfer {
        None => ensure.encode(pool, universe, input),
        Some(t) => {
            let post = ensure.encode(pool, universe, &t.out);
            if require_accept {
                let not_rej = pool.not(t.reject);
                pool.and2(not_rej, post)
            } else {
                pool.or2(t.reject, post)
            }
        }
    };
    pool.not(goal)
}

/// Decide one check's violation query on a shared session, with the
/// assumed invariant split at conjunct granularity: every conjunct of
/// `assume` and the negated goal each sit behind their own activation
/// literal, and the query is the assumption solve under all of them —
/// the same conjunction as the monolithic `pre ∧ ¬goal` query, so
/// verdicts are identical, but an UNSAT answer now comes with
/// `failed_assumptions` naming exactly which conjuncts the proof used
/// (a sound, not necessarily minimal, unsat core).
///
/// Returns `(verdict, stats, core)`; `core` is `Some` iff UNSAT.
fn solve_conjunct_gated(
    gs: &mut GroupSession,
    universe: &Universe,
    input: &SymRoute,
    conjuncts: &[&RoutePred],
    neg: TermId,
) -> (SolveOutcome, SolverStats, Option<Vec<usize>>) {
    let GroupSession { sess, terms, acts } = gs;
    terms.clear();
    timed("engine.terms_ns", || {
        for cp in conjuncts {
            let t = cp.encode(sess.pool_mut(), universe, input);
            terms.push(t);
        }
    });
    terms.push(neg);
    let n = conjuncts.len();
    // Fold the whole violation query in the term pool first:
    // hash-consing simplification frequently collapses it outright — an
    // identity transfer under a uniform invariant makes `¬goal` the
    // literal complement of the assumed conjunct, folding
    // `assume ∧ ¬goal` to `False`. Such a check is decided without ever
    // bit-blasting its formula (transfer relation included), which is
    // the bulk of a WAN's internal-mesh checks; splitting it into
    // assumption literals would defeat the simplifier, so the split is
    // reserved for queries that do not collapse.
    let folded = timed("engine.terms_ns", || {
        let pool = sess.pool_mut();
        let q = pool.and(terms);
        let fls = pool.fls();
        (q == fls).then_some(q)
    });
    if let Some(q) = folded {
        obs::add("engine.checks_folded", 1);
        let core = Some(syntactic_core(sess.pool(), &terms[..n], neg));
        let act = sess.activation(q);
        let (result, stats) = sess.solve_under(&[act]);
        debug_assert_eq!(
            result,
            SolveOutcome::Unsat,
            "a False query is unsatisfiable"
        );
        return (result, stats, core);
    }
    acts.clear();
    for &t in terms.iter() {
        acts.push(sess.activation(t));
    }
    let (result, stats) = sess.solve_under(acts);
    let core = (result == SolveOutcome::Unsat).then(|| {
        let failed = sess.failed_assumptions();
        (0..n).filter(|&i| failed.contains(&acts[i])).collect()
    });
    (result, stats, core)
}

/// How many distinct edges a group's checks sit on (a subsumption
/// sits on none).
fn distinct_edges(checks: &[&ResolvedCheck]) -> usize {
    let mut edges: Vec<EdgeId> = checks.iter().filter_map(|rc| rc.body.edge()).collect();
    edges.sort_unstable();
    edges.dedup();
    edges.len()
}

/// The conjunct core of a query the term pool folded to `False`: the
/// simplifier got there through a `False` member or a complementary
/// pair, so blame the responsible conjunct(s) when they are identifiable
/// at the top level, and conservatively all of them otherwise (sound —
/// their conjunction with `¬goal` *is* the folded `False`).
fn syntactic_core(pool: &TermPool, encoded: &[TermId], neg: TermId) -> Vec<usize> {
    use smt::Term;
    let is_false = |t: TermId| matches!(pool.term(t), Term::False);
    let complement =
        |a: TermId, b: TermId| *pool.term(a) == Term::Not(b) || *pool.term(b) == Term::Not(a);
    if is_false(neg) {
        // The goal holds unconditionally: no conjunct is load-bearing.
        return Vec::new();
    }
    if let Some(i) = encoded.iter().position(|&t| is_false(t)) {
        return vec![i];
    }
    if let Some(i) = encoded.iter().position(|&t| complement(t, neg)) {
        return vec![i];
    }
    for i in 0..encoded.len() {
        for j in (i + 1)..encoded.len() {
            if complement(encoded[i], encoded[j]) {
                return vec![i, j];
            }
        }
    }
    (0..encoded.len()).collect()
}

impl<'a> Verifier<'a> {
    /// Replay an unsat core: re-prove check `check_id` of the
    /// `(props, inv)` suite with its assumed invariant **reduced to the
    /// given conjuncts** (indices into `RoutePred::conjuncts()` of the
    /// check's assume predicate), on a fresh one-shot instance. Returns
    /// `Some(true)` when the reduced check still passes — which a sound
    /// core reported by a passing check always guarantees — `Some(false)`
    /// when it does not (the blame set was insufficient), and `None` when
    /// the check does not exist, has no symbolic assume side (concrete
    /// originate checks), or an index is out of range.
    pub fn check_passes_with_conjuncts(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
        check_id: usize,
        conjuncts: &[usize],
    ) -> Option<bool> {
        let g = self.generate(self.universe(&[]), &[(props, inv)]);
        let mut rc = *g.checks.get(check_id)?;
        let CheckBody::Symbolic { assume, .. } = &mut rc.body else {
            return None;
        };
        let all = assume.conjuncts();
        let mut kept = RoutePred::True;
        for &i in conjuncts {
            kept = kept.and((*all.get(i)?).clone());
        }
        *assume = &kept;
        Some(self.run_one(&g.universe, &rc).result.passed())
    }

    /// Decide a symbolic check's violation query `wf(r) ∧ assume(r) ∧
    /// ¬goal` on its own fresh pool and solver, concretizing the model
    /// of a violation into its counterexample: the input, and what the
    /// relation does to it (a subsumption transforms nothing).
    fn one_shot(&self, universe: &Universe, body: &CheckBody) -> (CheckResult, SolverStats) {
        let CheckBody::Symbolic {
            relation,
            assume,
            ensure,
            require_accept,
        } = *body
        else {
            unreachable!("originate checks are concrete");
        };
        let mut pool = TermPool::new();
        let input = SymRoute::fresh(&mut pool, universe, "r");
        let mut query = vec![input.well_formed(&mut pool)];
        // Terms are created relation, assume, goal: the pool's order
        // fixes the CNF, and so which counterexample the solver finds.
        let transfer = relation.map(|rel| self.encode_transfer(&mut pool, universe, rel, &input));
        query.push(assume.encode(&mut pool, universe, &input));
        query.push(goal_negation(
            &mut pool,
            universe,
            &input,
            transfer.as_ref(),
            ensure,
            require_accept,
        ));
        let (result, stats) = solve_with_stats(&pool, &query);
        let SatResult::Sat(model) = result else {
            return (CheckResult::Pass, stats);
        };
        let rejected =
            (transfer.as_ref()).is_some_and(|t| model.eval_bool(&pool, t.reject).unwrap_or(false));
        let output =
            (transfer.filter(|_| !rejected)).map(|t| t.out.concretize(&pool, universe, &model));
        let cex = Counterexample {
            input: input.concretize(&pool, universe, &model),
            output,
            rejected,
        };
        (CheckResult::Fail(Box::new(cex)), stats)
    }

    /// The relation's transfer over `input`, in `pool`.
    fn encode_transfer(
        &self,
        pool: &mut TermPool,
        universe: &Universe,
        Relation { edge, is_import }: Relation,
        input: &SymRoute,
    ) -> Transfer {
        encode_transfer(
            pool,
            universe,
            self.policy,
            &self.ghosts,
            edge,
            is_import,
            input,
        )
    }

    /// Solve one session group (see [`Verifier::solve_key`]) on a
    /// persistent assumption-based session: the symbolic route, its
    /// well-formedness constraint and (unless the group's checks are
    /// subsumptions) the route-map + ghost-update transfer relation are
    /// encoded once — from the representative's edge, since every
    /// member's edge has the same relation — and each check contributes
    /// only its assume/ensure predicates: one activation literal per
    /// assume **conjunct** plus one for the negated goal, decided by an
    /// assumption solve that reuses everything the session has learnt.
    /// A passing check reads the failed assumptions back as its
    /// conjunct-level unsat core; a failing check re-derives its
    /// counterexample on a fresh one-shot instance, so session history
    /// can never influence what a failure prints (fresh and grouped runs
    /// stay byte-identical).
    ///
    /// A session is per relation, not per edge direction: a group may
    /// mix checks of many edges that share one relation, and checks from
    /// *different* properties — the key is deliberately
    /// property-agnostic, so a multi-property batch encodes each distinct
    /// relation exactly once for all of them.
    pub(crate) fn run_group(
        &self,
        universe: &Universe,
        checks: &[&ResolvedCheck],
    ) -> Vec<SolvedCheck> {
        let first = checks.first().expect("groups are non-empty");
        // Label groups by their representative check, and count the
        // distinct edges the group answers for: a transfer group serves
        // every edge with its relation, so the first member's edge alone
        // would misattribute the time of a merged group.
        let _span = obs::span!(
            "solve_group",
            group = format!(
                "{} {}",
                first.site.kind(),
                first.site.location(self.topo).display(self.topo)
            ),
            checks = checks.len(),
            edges = distinct_edges(checks)
        );
        let out: Vec<SolvedCheck> = match first.body {
            CheckBody::Originate { .. } => {
                checks.iter().map(|rc| self.run_one(universe, rc)).collect()
            }
            CheckBody::Symbolic { relation, .. } => {
                let id = |r| self.policy_digests().relation_id(r);
                assert!(
                    checks.iter().all(|rc| matches!(rc.body,
                        CheckBody::Symbolic { relation: r, .. } if id(r) == id(relation))),
                    "a symbolic group spans more than one relation"
                );
                let mut gs = group_session();
                let (input, wf, transfer) = timed("engine.terms_ns", || {
                    let pool = gs.sess.pool_mut();
                    let input = SymRoute::fresh(pool, universe, "r");
                    let wf = input.well_formed(pool);
                    let transfer =
                        relation.map(|rel| self.encode_transfer(pool, universe, rel, &input));
                    (input, wf, transfer)
                });
                gs.sess.assert(wf);
                // Reused by every check: one allocation per group.
                let mut conjs = Vec::new();
                let out = checks
                    .iter()
                    .map(|rc| {
                        let CheckBody::Symbolic {
                            assume,
                            ensure,
                            require_accept,
                            ..
                        } = rc.body
                        else {
                            unreachable!("a symbolic group holds symbolic checks");
                        };
                        conjs.clear();
                        assume.conjuncts_into(&mut conjs);
                        let neg = timed("engine.terms_ns", || {
                            goal_negation(
                                gs.sess.pool_mut(),
                                universe,
                                &input,
                                transfer.as_ref(),
                                ensure,
                                require_accept,
                            )
                        });
                        let (result, stats, core) =
                            solve_conjunct_gated(&mut gs, universe, &input, &conjs, neg);
                        match result {
                            SolveOutcome::Unsat => SolvedCheck {
                                result: CheckResult::Pass,
                                stats,
                                core,
                            },
                            SolveOutcome::Sat => self.run_one(universe, rc),
                        }
                    })
                    .collect();
                park_session(gs);
                out
            }
        };
        if obs::enabled() {
            let (mut encode_ns, mut solve_ns) = (0u64, 0u64);
            for s in &out {
                encode_ns += s.stats.encode_time.as_nanos() as u64;
                solve_ns += s.stats.solve_time.as_nanos() as u64;
            }
            obs::add("engine.group_encode_ns", encode_ns);
            obs::add("engine.group_solve_ns", solve_ns);
        }
        out
    }

    /// Decide one check on its own fresh one-shot instance (no session,
    /// no core): the reference oracle's solve, and the one place every
    /// counterexample comes from — a session only says that a check
    /// fails, and no cache or spill carries a failure in from outside
    /// the process.
    pub(crate) fn run_one(&self, universe: &Universe, rc: &ResolvedCheck) -> SolvedCheck {
        let (result, stats) = match rc.body {
            CheckBody::Originate { edge, ensure } => {
                (self.run_originate(edge, ensure), SolverStats::default())
            }
            _ => self.one_shot(universe, &rc.body),
        };
        SolvedCheck {
            result,
            stats,
            core: None,
        }
    }

    /// The one evaluator of an originate check. Originate(A -> B) is a
    /// concrete, finite set, evaluated directly; the fingerprint hashes
    /// it as a multiset, so the verdict must not depend on the order the
    /// policy lists it in: the counterexample is the violating route
    /// least in per-route digest order.
    fn run_originate(&self, edge: EdgeId, ensure: &RoutePred) -> CheckResult {
        let ghosts: BTreeMap<String, bool> = self
            .ghosts
            .iter()
            .map(|g| (g.name.clone(), g.originate_value))
            .collect();
        let least = (self.policy.originated(edge).iter())
            .filter(|r| !ensure.eval(r, &ghosts))
            .min_by_key(|r| route_digest(r));
        match least {
            None => CheckResult::Pass,
            Some(r) => CheckResult::Fail(Box::new(Counterexample {
                input: ConcreteRoute {
                    route: r.clone(),
                    comm_other: false,
                    aspath_matches: BTreeMap::new(),
                    ghosts,
                },
                output: None,
                rejected: false,
            })),
        }
    }
}
