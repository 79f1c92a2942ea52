//! Deciding checks: session groups — one per distinct transfer relation,
//! per originate edge and per implication chunk — on persistent
//! assumption-based [`smt::IncrementalSession`]s (the relation encoded
//! once, each check an assumption-gated query carrying learnt clauses
//! forward), the one-shot query every failure's counterexample
//! and the reference oracle come from, and the concrete evaluator of
//! originate checks.

use super::generate::{CheckBody, ResolvedCheck};
use super::{timed, Verifier};
use crate::check::{CheckResult, Counterexample};
use crate::encode::{encode_export, encode_import, Transfer};
use crate::fingerprint::route_digest;
use crate::invariants::NetworkInvariants;
use crate::pred::RoutePred;
use crate::safety::SafetyProperty;
use crate::symbolic::{ConcreteRoute, SymRoute};
use crate::universe::Universe;
use bgp_model::topology::EdgeId;
use smt::{
    solve_with_stats, Assumption, IncrementalSession, SatResult, SolverStats, TermId, TermPool,
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

thread_local! {
    /// The session this worker thread ran its previous group on, parked
    /// for the next one: a run poses hundreds of small groups per
    /// worker, and building then dropping a pool, a blaster and a solver
    /// for each costs more than some of them take to solve.
    static SPARE_SESSION: Cell<Option<IncrementalSession>> = const { Cell::new(None) };
}

/// A group session: this thread's parked one, reset (hand it back with
/// [`park_session`] when the group is done), so it behaves like a new
/// one but allocates only what the largest group so far did not.
fn group_session() -> IncrementalSession {
    let mut sess = SPARE_SESSION.take().unwrap_or_default();
    sess.reset();
    sess
}

/// A finished group's session goes back to its worker thread for the
/// next group (see [`group_session`]).
fn park_session(sess: IncrementalSession) {
    obs::gauge_max("engine.term_pool_terms", sess.pool().len() as u64);
    SPARE_SESSION.set(Some(sess));
}

/// The negated goal of a transfer obligation: `goal = reject ∨
/// ensure(out)` for safety or `¬reject ∧ ensure(out)` for liveness
/// propagation (`require_accept`). One definition shared by one-shot
/// queries ([`Verifier::one_shot`]) and grouped session solving, so the
/// obligation shape cannot drift between them. Session solving poses the
/// `assume(input)` half as one assumption literal **per assume
/// conjunct** (so an UNSAT proof's failed assumptions localize which
/// conjuncts were load-bearing) and this negated goal behind one more.
fn transfer_goal_negation(
    pool: &mut TermPool,
    universe: &Universe,
    transfer: &Transfer,
    ensure: &RoutePred,
    require_accept: bool,
) -> TermId {
    let post = ensure.encode(pool, universe, &transfer.out);
    let goal = if require_accept {
        let not_rej = pool.not(transfer.reject);
        pool.and2(not_rej, post)
    } else {
        pool.or2(transfer.reject, post)
    };
    pool.not(goal)
}

/// The negated goal `¬ensure(r)` of an implication obligation (see
/// [`transfer_goal_negation`]).
fn implication_goal_negation(
    pool: &mut TermPool,
    universe: &Universe,
    r: &SymRoute,
    ensure: &RoutePred,
) -> TermId {
    let post = ensure.encode(pool, universe, r);
    pool.not(post)
}

/// A symbolic check's violation query on its own fresh pool (see
/// [`Verifier::one_shot`]).
pub(crate) struct OneShot {
    pub(crate) pool: TermPool,
    input: SymRoute,
    /// The edge's transfer relation; `None` for implication checks.
    transfer: Option<Transfer>,
    /// `wf(input) [∧ input = pin] ∧ assume(input) ∧ ¬goal`.
    pub(crate) query: Vec<TermId>,
}

impl OneShot {
    /// What the check does to the model's input, as `(rejected,
    /// output)`: the transfer's verdict, or `(false, None)` for an
    /// implication, which transforms nothing.
    pub(crate) fn effect(
        &self,
        universe: &Universe,
        model: &smt::Model,
    ) -> (bool, Option<ConcreteRoute>) {
        let Some(t) = &self.transfer else {
            return (false, None);
        };
        let rejected = model.eval_bool(&self.pool, t.reject).unwrap_or(false);
        let output = (!rejected).then(|| t.out.concretize(&self.pool, universe, model));
        (rejected, output)
    }
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
    sess: &mut IncrementalSession,
    universe: &Universe,
    input: &SymRoute,
    conjuncts: &[&RoutePred],
    neg: TermId,
) -> (SatResult, SolverStats, Option<Vec<usize>>) {
    let encoded: Vec<TermId> = timed("engine.terms_ns", || {
        conjuncts
            .iter()
            .map(|cp| cp.encode(sess.pool_mut(), universe, input))
            .collect()
    });
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
        let mut all = encoded.clone();
        all.push(neg);
        let q = pool.and(&all);
        let fls = pool.fls();
        (q == fls).then_some(q)
    });
    if let Some(q) = folded {
        obs::add("engine.checks_folded", 1);
        let core = Some(syntactic_core(sess.pool(), &encoded, neg));
        let act = sess.activation(q);
        let (result, stats) = sess.solve_under(&[act]);
        debug_assert!(!result.is_sat(), "a False query cannot be satisfiable");
        return (result, stats, core);
    }
    let mut acts: Vec<Assumption> = Vec::with_capacity(conjuncts.len() + 1);
    for &t in &encoded {
        acts.push(sess.activation(t));
    }
    let nact = sess.activation(neg);
    let assumed: Vec<Assumption> = acts.iter().copied().chain(std::iter::once(nact)).collect();
    let (result, stats) = sess.solve_under(&assumed);
    let core = match &result {
        SatResult::Unsat => {
            let failed = sess.failed_assumptions();
            Some(
                acts.iter()
                    .enumerate()
                    .filter(|(_, a)| failed.contains(a))
                    .map(|(i, _)| i)
                    .collect(),
            )
        }
        SatResult::Sat(_) => None,
    };
    (result, stats, core)
}

/// How many distinct edges a group's checks sit on (an implication
/// sits on none).
fn distinct_edges(checks: &[&ResolvedCheck]) -> usize {
    let mut edges: Vec<EdgeId> = (checks.iter())
        .filter_map(|rc| match rc.body {
            CheckBody::Transfer { edge, .. } | CheckBody::Originate { edge, .. } => Some(edge),
            CheckBody::Implication { .. } => None,
        })
        .collect();
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
        let (CheckBody::Transfer { assume, .. } | CheckBody::Implication { assume, .. }) =
            &mut rc.body
        else {
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

    /// The violation query of a symbolic (transfer or implication) check
    /// on its own fresh pool, optionally with the input pinned to a
    /// counterexample's: the one builder behind one-shot solves
    /// ([`Verifier::run_one`]) and cached-failure re-validation.
    pub(crate) fn one_shot(
        &self,
        universe: &Universe,
        body: &CheckBody,
        pin: Option<&ConcreteRoute>,
    ) -> OneShot {
        let mut pool = TermPool::new();
        let input = SymRoute::fresh(&mut pool, universe, "r");
        let mut query = vec![input.well_formed(&mut pool)];
        if let Some(cex) = pin {
            query.push(input.equals_counterexample(&mut pool, universe, cex));
        }
        // Terms are created transfer, assume, goal: the pool's order
        // fixes the CNF, and so which counterexample the solver finds.
        let transfer = match *body {
            CheckBody::Transfer {
                edge,
                is_import,
                assume,
                ensure,
                require_accept,
            } => {
                let t = self.encode_transfer(&mut pool, universe, edge, is_import, &input);
                query.push(assume.encode(&mut pool, universe, &input));
                query.push(transfer_goal_negation(
                    &mut pool,
                    universe,
                    &t,
                    ensure,
                    require_accept,
                ));
                Some(t)
            }
            CheckBody::Implication { assume, ensure } => {
                query.push(assume.encode(&mut pool, universe, &input));
                query.push(implication_goal_negation(
                    &mut pool, universe, &input, ensure,
                ));
                None
            }
            CheckBody::Originate { .. } => unreachable!("originate checks are concrete"),
        };
        OneShot {
            pool,
            input,
            transfer,
            query,
        }
    }

    fn encode_transfer(
        &self,
        pool: &mut TermPool,
        universe: &Universe,
        edge: EdgeId,
        is_import: bool,
        input: &SymRoute,
    ) -> Transfer {
        if is_import {
            encode_import(
                pool,
                universe,
                self.policy.import_map(edge),
                &self.ghosts,
                edge,
                input,
            )
        } else {
            encode_export(
                pool,
                universe,
                self.policy.export_map(edge),
                &self.ghosts,
                edge,
                input,
            )
        }
    }

    /// Solve one session group (see [`Verifier::solve_key`]) on a
    /// persistent assumption-based session: the symbolic route, its
    /// well-formedness constraint and (for transfer groups) the
    /// route-map + ghost-update transfer relation are encoded once — from
    /// the representative's edge, since every member's edge has the same
    /// relation — and each check contributes only its assume/ensure
    /// predicates: one activation literal per assume **conjunct** plus
    /// one for the negated goal, decided by an assumption solve that
    /// reuses everything the session has learnt. A passing check reads
    /// the failed assumptions back as its conjunct-level unsat core; a
    /// failing check re-derives its counterexample on a fresh one-shot
    /// instance, so session history can never influence what a failure
    /// prints (fresh and grouped runs stay byte-identical).
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
        // One record path for both session shapes: a passing check
        // reads its core off the session, a failing one re-derives its
        // counterexample on a fresh one-shot instance.
        let settle = |rc: &ResolvedCheck, result, stats, core| match result {
            SatResult::Unsat => SolvedCheck {
                result: CheckResult::Pass,
                stats,
                core,
            },
            SatResult::Sat(_) => self.run_one(universe, rc),
        };
        let out: Vec<SolvedCheck> = match first.body {
            CheckBody::Originate { .. } => {
                checks.iter().map(|rc| self.run_one(universe, rc)).collect()
            }
            CheckBody::Transfer {
                edge, is_import, ..
            } => {
                let digests = self.policy_digests();
                let relation = digests.transfer_id(edge, is_import);
                assert!(
                    checks.iter().all(|rc| match rc.body {
                        CheckBody::Transfer {
                            edge, is_import, ..
                        } => digests.transfer_id(edge, is_import) == relation,
                        _ => false,
                    }),
                    "a transfer group spans more than one relation"
                );
                let mut sess = group_session();
                let (input, wf, transfer) = timed("engine.terms_ns", || {
                    let pool = sess.pool_mut();
                    let input = SymRoute::fresh(pool, universe, "r");
                    let wf = input.well_formed(pool);
                    let transfer = self.encode_transfer(pool, universe, edge, is_import, &input);
                    (input, wf, transfer)
                });
                sess.assert(wf);
                let out = checks
                    .iter()
                    .map(|rc| {
                        let CheckBody::Transfer {
                            assume,
                            ensure,
                            require_accept,
                            ..
                        } = rc.body
                        else {
                            unreachable!("transfer group mixes check shapes");
                        };
                        let conjs = assume.conjuncts();
                        let neg = timed("engine.terms_ns", || {
                            transfer_goal_negation(
                                sess.pool_mut(),
                                universe,
                                &transfer,
                                ensure,
                                require_accept,
                            )
                        });
                        let (result, stats, core) =
                            solve_conjunct_gated(&mut sess, universe, &input, &conjs, neg);
                        settle(rc, result, stats, core)
                    })
                    .collect();
                park_session(sess);
                out
            }
            CheckBody::Implication { .. } => {
                let mut sess = group_session();
                let (r, wf) = timed("engine.terms_ns", || {
                    let r = SymRoute::fresh(sess.pool_mut(), universe, "r");
                    let wf = r.well_formed(sess.pool_mut());
                    (r, wf)
                });
                sess.assert(wf);
                let out = checks
                    .iter()
                    .map(|rc| {
                        let CheckBody::Implication { assume, ensure } = rc.body else {
                            unreachable!("implication group mixes check shapes");
                        };
                        let conjs = assume.conjuncts();
                        let neg = timed("engine.terms_ns", || {
                            implication_goal_negation(sess.pool_mut(), universe, &r, ensure)
                        });
                        let (result, stats, core) =
                            solve_conjunct_gated(&mut sess, universe, &r, &conjs, neg);
                        settle(rc, result, stats, core)
                    })
                    .collect();
                park_session(sess);
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
    /// no core): the reference oracle's solve, and where every failing
    /// check's counterexample comes from.
    pub(crate) fn run_one(&self, universe: &Universe, rc: &ResolvedCheck) -> SolvedCheck {
        let (result, stats) = match rc.body {
            CheckBody::Originate { edge, ensure } => {
                (self.run_originate(edge, ensure), SolverStats::default())
            }
            _ => {
                let q = self.one_shot(universe, &rc.body, None);
                let (result, stats) = solve_with_stats(&q.pool, &q.query);
                let result = match result {
                    SatResult::Unsat => CheckResult::Pass,
                    SatResult::Sat(model) => {
                        let (rejected, output) = q.effect(universe, &model);
                        CheckResult::Fail(Box::new(Counterexample {
                            input: q.input.concretize(&q.pool, universe, &model),
                            output,
                            rejected,
                        }))
                    }
                };
                (result, stats)
            }
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
    pub(crate) fn run_originate(&self, edge: EdgeId, ensure: &RoutePred) -> CheckResult {
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
