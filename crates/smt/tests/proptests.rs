//! Property-based tests for the SMT substrate.
//!
//! Two core soundness/completeness properties:
//!
//! 1. The CDCL solver agrees with a brute-force enumeration on random small
//!    CNF formulas (both SAT answers and, for SAT, it returns a model that
//!    actually satisfies the formula).
//! 2. Bit-blasting agrees with direct 64-bit evaluation on random term DAGs:
//!    a random concrete assignment is asserted via equalities and the model
//!    returned by the solver evaluates every sub-term to the same value the
//!    concrete evaluator computes.
//! 3. Assumption-based incremental solving agrees with fresh per-query
//!    solving: one persistent instance answering a family of queries under
//!    assumptions returns the same answers as a cold solver per query, and
//!    reported unsat cores are genuinely unsatisfiable subsets.
//! 4. A long assumption-query stream on one incremental solver agrees
//!    with a brute-force truth table query for query: verdicts match,
//!    every model satisfies the clauses and the assumptions, and every
//!    UNSAT core is a subset of the assumptions that replays to UNSAT on
//!    a fresh solver.
//! 5. Constant-aware blasting is exact: on random boolean terms mixing
//!    constants with 12 variable bits (two variables of each width 1 to
//!    3) under every operator the blaster lowers, satisfiability of the
//!    term and of its negation agrees with brute force over all 4096
//!    assignments, and every returned model makes the term true under
//!    an evaluator that shares no code with the blaster.
//! 6. The blaster's clause store meets the trusted attach's precondition
//!    on random terms: no clause repeats a variable, and none holds a
//!    constant literal but the true unit; and a solver fed through the
//!    trusted attach agrees with one fed through the normalising
//!    `add_clause_slice` on every query of a stream — verdicts, models
//!    and failed-assumption cores.
//! 7. A session's one-sided definitions decide what full ones do: terms
//!    over shared sub-terms, used in both polarities, are activated one
//!    at a time on one session (so gates blasted one way get their
//!    other half later), and every query's verdict equals a one-shot
//!    solve of the same conjunction, and every UNSAT core replays UNSAT
//!    on a one-shot solve.

use proptest::prelude::*;
use smt::{
    solve, Cnf, IncrementalBlaster, IncrementalSession, Lit, SatResult, SatSolver, SolveOutcome,
    TermId, TermPool, Var,
};

// ---------------------------------------------------------------------------
// CDCL vs brute force
// ---------------------------------------------------------------------------

fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 16, "brute force limited to 16 vars");
    (0u32..(1 << n)).any(|bits| {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        cnf.eval(&assignment)
    })
}

fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = prop::collection::vec((0..max_vars, any::<bool>()), 1..=3).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, sign)| Var(v).lit(sign))
            .collect::<Vec<Lit>>()
    });
    prop::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut cnf = Cnf::new();
        for _ in 0..max_vars {
            cnf.fresh_var();
        }
        for c in clauses {
            cnf.add_clause(c);
        }
        cnf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_agrees_with_brute_force(cnf in arb_cnf(8, 24)) {
        let expected = brute_force_sat(&cnf);
        let mut s = SatSolver::from_cnf(&cnf);
        let got = s.solve() == SolveOutcome::Sat;
        prop_assert_eq!(got, expected);
        if got {
            let assignment: Vec<bool> =
                (0..cnf.num_vars()).map(|i| s.value(Var(i))).collect();
            prop_assert!(cnf.eval(&assignment), "model does not satisfy formula");
        }
    }

    #[test]
    fn cdcl_agrees_on_denser_formulas(cnf in arb_cnf(12, 60)) {
        let expected = brute_force_sat(&cnf);
        let mut s = SatSolver::from_cnf(&cnf);
        let got = s.solve() == SolveOutcome::Sat;
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Incremental assumption solving vs fresh solving
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One persistent instance, many assumption queries == one cold
    /// instance per query. Also checks core sanity: the reported failing
    /// assumptions are a subset of the given ones and are themselves
    /// unsatisfiable with the clause set.
    #[test]
    fn assumption_solving_matches_fresh_solving(
        cnf in arb_cnf(8, 20),
        queries in prop::collection::vec(
            prop::collection::vec((0u32..8, any::<bool>()), 0..=3), 1..=5),
    ) {
        let mut inc = SatSolver::from_cnf(&cnf);
        for q in &queries {
            let assumptions: Vec<Lit> =
                q.iter().map(|&(v, s)| Var(v).lit(s)).collect();
            // Fresh reference: the cnf plus one unit clause per assumption.
            let mut reference = cnf.clone();
            for &l in &assumptions {
                reference.add_clause(vec![l]);
            }
            let expected = brute_force_sat(&reference);
            let got = inc.solve_under_assumptions(&assumptions) == SolveOutcome::Sat;
            prop_assert_eq!(got, expected, "assumptions {:?}", assumptions);
            if got {
                let assignment: Vec<bool> =
                    (0..cnf.num_vars()).map(|i| inc.value(Var(i))).collect();
                prop_assert!(cnf.eval(&assignment), "model violates the clauses");
                for &l in &assumptions {
                    prop_assert_eq!(
                        assignment[l.var().0 as usize], l.is_pos(),
                        "model violates assumption {:?}", l
                    );
                }
            } else {
                let core = inc.failed_assumptions().to_vec();
                for l in &core {
                    prop_assert!(assumptions.contains(l), "core lit {:?} not assumed", l);
                }
                // The core (or the bare clause set when empty) is unsat.
                let mut with_core = cnf.clone();
                for &l in &core {
                    with_core.add_clause(vec![l]);
                }
                prop_assert!(!brute_force_sat(&with_core), "core is not a conflict");
            }
        }
    }

    /// The session facade agrees with one-shot term solving when the same
    /// query set is posed as activation-gated assumption solves.
    #[test]
    fn session_matches_one_shot_term_solving(
        base in 0u64..200, bound in 1u64..255,
        probes in prop::collection::vec(0u64..256, 1..=4),
    ) {
        let mut sess = IncrementalSession::new();
        let x = sess.pool_mut().bv_var("x", 8);
        let lo = sess.pool_mut().bv_const(base, 8);
        let hi = sess.pool_mut().bv_const(bound, 8);
        let above = sess.pool_mut().bv_ule(lo, x);
        let below = sess.pool_mut().bv_ult(x, hi);
        sess.assert(above);
        sess.assert(below);
        for &v in &probes {
            let cv = sess.pool_mut().bv_const(v, 8);
            let eq = sess.pool_mut().bv_eq(x, cv);
            let act = sess.activation(eq);
            let (got, _) = sess.solve_under(&[act]);

            let mut pool = TermPool::new();
            let fx = pool.bv_var("x", 8);
            let flo = pool.bv_const(base, 8);
            let fhi = pool.bv_const(bound, 8);
            let fabove = pool.bv_ule(flo, fx);
            let fbelow = pool.bv_ult(fx, fhi);
            let fcv = pool.bv_const(v, 8);
            let feq = pool.bv_eq(fx, fcv);
            let fresh = solve(&pool, &[fabove, fbelow, feq]);
            prop_assert_eq!(got == SolveOutcome::Sat, fresh.is_sat(), "probe {}", v);
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-blaster vs concrete evaluation
// ---------------------------------------------------------------------------

/// A little expression language we generate randomly and build both as a
/// term DAG and as a concrete 64-bit computation.
#[derive(Clone, Debug)]
enum Expr {
    Var(u8),
    Const(u64),
    Add(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
}

const WIDTH: u32 = 8;
const NVARS: u8 = 4;

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(Expr::Var),
        (0u64..256).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
        ]
    })
}

fn build_term(pool: &mut TermPool, e: &Expr) -> TermId {
    match e {
        Expr::Var(i) => pool.bv_var(&format!("v{i}"), WIDTH),
        Expr::Const(c) => pool.bv_const(*c, WIDTH),
        Expr::Add(a, b) => {
            let (ta, tb) = (build_term(pool, a), build_term(pool, b));
            pool.bv_add(ta, tb)
        }
        Expr::And(a, b) => {
            let (ta, tb) = (build_term(pool, a), build_term(pool, b));
            pool.bv_and(ta, tb)
        }
    }
}

fn eval_expr(e: &Expr, env: &[u64]) -> u64 {
    let m = (1u64 << WIDTH) - 1;
    match e {
        Expr::Var(i) => env[*i as usize],
        Expr::Const(c) => c & m,
        Expr::Add(a, b) => (eval_expr(a, env).wrapping_add(eval_expr(b, env))) & m,
        Expr::And(a, b) => eval_expr(a, env) & eval_expr(b, env),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitblast_matches_concrete_eval(
        e in arb_expr(),
        env in prop::collection::vec(0u64..256, NVARS as usize),
    ) {
        let mut pool = TermPool::new();
        let t = build_term(&mut pool, &e);
        let expected = eval_expr(&e, &env);

        // Pin each variable to its concrete value and assert the composite
        // equals the concrete evaluation; must be SAT.
        let mut assertions = Vec::new();
        for i in 0..NVARS {
            let v = pool.bv_var(&format!("v{i}"), WIDTH);
            let c = pool.bv_const(env[i as usize], WIDTH);
            let eq = pool.bv_eq(v, c);
            assertions.push(eq);
        }
        let expc = pool.bv_const(expected, WIDTH);
        let eq_out = pool.bv_eq(t, expc);
        assertions.push(eq_out);
        prop_assert!(solve(&pool, &assertions).is_sat(), "expected value {expected} for {e:?}");

        // The negation must be UNSAT (the circuit is deterministic).
        let neq = pool.not(eq_out);
        let last = assertions.len() - 1;
        assertions[last] = neq;
        prop_assert!(!solve(&pool, &assertions).is_sat());
    }

    #[test]
    fn comparisons_match_concrete(
        a in 0u64..256, b in 0u64..256,
    ) {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", WIDTH);
        let y = pool.bv_var("y", WIDTH);
        let ca = pool.bv_const(a, WIDTH);
        let cb = pool.bv_const(b, WIDTH);
        let fix_x = pool.bv_eq(x, ca);
        let fix_y = pool.bv_eq(y, cb);
        let ult = pool.bv_ult(x, y);
        let ule = pool.bv_ule(x, y);

        let r = solve(&pool, &[fix_x, fix_y]);
        match r {
            SatResult::Sat(m) => {
                prop_assert_eq!(m.eval_bool(&pool, ult), Some(a < b));
                prop_assert_eq!(m.eval_bool(&pool, ule), Some(a <= b));
            }
            SatResult::Unsat => prop_assert!(false, "pinning must be sat"),
        }
    }
}

// ---------------------------------------------------------------------------
// Constant-aware blasting vs brute force over every assignment
// ---------------------------------------------------------------------------

/// Two variables of each width 1 to 3: 12 variable bits, 4096
/// assignments. Slot `i` holds a variable of width [`slot_width`]`(i)`.
const MIX_VARS: usize = 2;
const MIX_WIDTH: u32 = 3;
const MIX_SLOTS: usize = MIX_VARS * MIX_WIDTH as usize;

fn slot_width(i: usize) -> u32 {
    (i / MIX_VARS) as u32 + 1
}

/// A bitvector expression that knows its width.
#[derive(Clone, Debug)]
enum Bv {
    Var(usize),
    Const(u64, u32),
    Bin(BvOp, Box<Bv>, Box<Bv>),
    Ite(Box<Bl>, Box<Bv>, Box<Bv>),
}

#[derive(Clone, Copy, Debug)]
enum BvOp {
    And,
    Add,
}

#[derive(Clone, Debug)]
enum Bl {
    Const(bool),
    Cmp(CmpOp, Box<Bv>, Box<Bv>),
    Not(Box<Bl>),
    And(Vec<Bl>),
    Or(Vec<Bl>),
    Iff(Box<Bl>, Box<Bl>),
}

#[derive(Clone, Copy, Debug)]
enum CmpOp {
    Eq,
    Ult,
    Ule,
}

/// splitmix64: the generator's only randomness, so a case is its seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

/// A random `width`-bit expression. Leaves are constants about half the
/// time — the blaster's folds only fire next to constants.
fn gen_bv(rng: &mut u64, depth: u32, width: u32) -> Bv {
    if depth == 0 || below(rng, 4) == 0 {
        return match below(rng, 2) {
            0 => Bv::Const(below(rng, 1 << width), width),
            _ => Bv::Var((width as usize - 1) * MIX_VARS + below(rng, MIX_VARS as u64) as usize),
        };
    }
    let sub = |rng: &mut u64| Box::new(gen_bv(rng, depth - 1, width));
    match below(rng, 3) {
        0 => Bv::Bin(BvOp::And, sub(rng), sub(rng)),
        1 => Bv::Bin(BvOp::Add, sub(rng), sub(rng)),
        _ => Bv::Ite(Box::new(gen_bl(rng, depth - 1)), sub(rng), sub(rng)),
    }
}

fn gen_bl(rng: &mut u64, depth: u32) -> Bl {
    if depth == 0 {
        return Bl::Const(below(rng, 2) == 0);
    }
    let sub = |rng: &mut u64| gen_bl(rng, depth - 1);
    match below(rng, 8) {
        0 => Bl::Not(Box::new(sub(rng))),
        1 => Bl::And((0..2 + below(rng, 3)).map(|_| sub(rng)).collect()),
        2 => Bl::Or((0..2 + below(rng, 3)).map(|_| sub(rng)).collect()),
        3 => Bl::Iff(Box::new(sub(rng)), Box::new(sub(rng))),
        k => {
            let width = 1 + below(rng, MIX_WIDTH as u64) as u32;
            let op = [CmpOp::Eq, CmpOp::Ult, CmpOp::Ule][k as usize % 3];
            let (a, b) = (gen_bv(rng, depth - 1, width), gen_bv(rng, depth - 1, width));
            Bl::Cmp(op, Box::new(a), Box::new(b))
        }
    }
}

fn mix_var(pool: &mut TermPool, i: usize) -> TermId {
    pool.bv_var(&format!("m{i}"), slot_width(i))
}

fn build_bv(pool: &mut TermPool, e: &Bv) -> TermId {
    match e {
        Bv::Var(i) => mix_var(pool, *i),
        Bv::Const(c, w) => pool.bv_const(*c, *w),
        Bv::Bin(op, a, b) => {
            let (a, b) = (build_bv(pool, a), build_bv(pool, b));
            match op {
                BvOp::And => pool.bv_and(a, b),
                BvOp::Add => pool.bv_add(a, b),
            }
        }
        Bv::Ite(c, a, b) => {
            let c = build_bl(pool, c);
            let (a, b) = (build_bv(pool, a), build_bv(pool, b));
            pool.ite(c, a, b)
        }
    }
}

fn build_bl(pool: &mut TermPool, e: &Bl) -> TermId {
    match e {
        Bl::Const(b) => pool.bool_const(*b),
        Bl::Cmp(op, a, b) => {
            let (a, b) = (build_bv(pool, a), build_bv(pool, b));
            match op {
                CmpOp::Eq => pool.bv_eq(a, b),
                CmpOp::Ult => pool.bv_ult(a, b),
                CmpOp::Ule => pool.bv_ule(a, b),
            }
        }
        Bl::Not(a) => {
            let a = build_bl(pool, a);
            pool.not(a)
        }
        Bl::And(parts) => {
            let parts: Vec<TermId> = parts.iter().map(|p| build_bl(pool, p)).collect();
            pool.and(&parts)
        }
        Bl::Or(parts) => {
            let parts: Vec<TermId> = parts.iter().map(|p| build_bl(pool, p)).collect();
            pool.or(&parts)
        }
        Bl::Iff(a, b) => {
            let (a, b) = (build_bl(pool, a), build_bl(pool, b));
            pool.iff(a, b)
        }
    }
}

/// `(value, width)` of `e` under `env`, on plain integers.
fn eval_bv(e: &Bv, env: &[u64; MIX_SLOTS]) -> (u64, u32) {
    let mask = |w: u32| (1u64 << w) - 1;
    match e {
        Bv::Var(i) => (env[*i], slot_width(*i)),
        Bv::Const(c, w) => (*c, *w),
        Bv::Bin(op, a, b) => {
            let ((a, w), (b, _)) = (eval_bv(a, env), eval_bv(b, env));
            let v = match op {
                BvOp::And => a & b,
                BvOp::Add => (a + b) & mask(w),
            };
            (v, w)
        }
        Bv::Ite(c, a, b) => eval_bv(if eval_bl(c, env) { a } else { b }, env),
    }
}

fn eval_bl(e: &Bl, env: &[u64; MIX_SLOTS]) -> bool {
    match e {
        Bl::Const(b) => *b,
        Bl::Cmp(op, a, b) => {
            let (a, b) = (eval_bv(a, env).0, eval_bv(b, env).0);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ult => a < b,
                CmpOp::Ule => a <= b,
            }
        }
        Bl::Not(a) => !eval_bl(a, env),
        Bl::And(parts) => parts.iter().all(|p| eval_bl(p, env)),
        Bl::Or(parts) => parts.iter().any(|p| eval_bl(p, env)),
        Bl::Iff(a, b) => eval_bl(a, env) == eval_bl(b, env),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn blasting_constants_and_variables_matches_brute_force(seed in any::<u64>()) {
        let mut rng = seed;
        let e = gen_bl(&mut rng, 4);
        let bits_total: u32 = (0..MIX_SLOTS).map(slot_width).sum();
        let envs = (0..1u64 << bits_total).map(|bits| {
            let mut env = [0u64; MIX_SLOTS];
            let mut shift = 0;
            for (i, slot) in env.iter_mut().enumerate() {
                *slot = bits >> shift & ((1 << slot_width(i)) - 1);
                shift += slot_width(i);
            }
            env
        });
        let (mut can_hold, mut can_fail) = (false, false);
        for env in envs {
            match eval_bl(&e, &env) {
                true => can_hold = true,
                false => can_fail = true,
            }
        }
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..MIX_SLOTS).map(|i| mix_var(&mut pool, i)).collect();
        let t = build_bl(&mut pool, &e);
        let not_t = pool.not(t);
        for (query, want, possible) in [(t, true, can_hold), (not_t, false, can_fail)] {
            match solve(&pool, &[query]) {
                SatResult::Sat(m) => {
                    prop_assert!(possible, "sat, but no assignment makes {e:?} {want}");
                    // Variables the query never mentions read as 0.
                    let mut env = [0u64; MIX_SLOTS];
                    for (slot, &v) in env.iter_mut().zip(&vars) {
                        *slot = m.eval_bv(&pool, v).unwrap();
                    }
                    prop_assert_eq!(eval_bl(&e, &env), want, "model {:?} of {:?}", env, e);
                    prop_assert_eq!(m.eval_bool(&pool, t), Some(want));
                }
                SatResult::Unsat => {
                    prop_assert!(!possible, "unsat, but {e:?} can be {want}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One incremental solver vs a truth table, over a long query stream
// ---------------------------------------------------------------------------

/// Every assignment of `cnf`'s variables that satisfies it, as bitmasks.
fn truth_table(cnf: &Cnf) -> Vec<u32> {
    let n = cnf.num_vars();
    assert!(n <= 16, "truth table limited to 16 vars");
    (0u32..(1 << n))
        .filter(|&bits| {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            cnf.eval(&assignment)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel's only verdict-bearing state across queries is what it
    /// learnt, and it never drops a learnt clause: a stream
    /// of assumption queries on ONE solver must agree with enumerating
    /// the formula's models, query for query. SAT models satisfy the
    /// clauses and the assumptions; UNSAT cores are subsets of the
    /// assumptions and replay to UNSAT on a fresh solver.
    #[test]
    fn assumption_stream_agrees_with_truth_table(
        cnf in arb_cnf(10, 40),
        queries in prop::collection::vec(
            prop::collection::vec((0u32..10, any::<bool>()), 0..=4), 1..=12),
    ) {
        let models = truth_table(&cnf);
        let mut s = SatSolver::from_cnf(&cnf);
        for q in &queries {
            let assumptions: Vec<Lit> =
                q.iter().map(|&(v, sgn)| Var(v).lit(sgn)).collect();
            let holds = |bits: u32, l: &Lit| (bits >> l.var().0 & 1 == 1) == l.is_pos();
            let expected = models.iter().any(|&m| assumptions.iter().all(|l| holds(m, l)));
            let got = s.solve_under_assumptions(&assumptions) == SolveOutcome::Sat;
            prop_assert_eq!(got, expected, "assumptions {:?}", assumptions);
            if got {
                let assignment: Vec<bool> =
                    (0..cnf.num_vars()).map(|i| s.value(Var(i))).collect();
                prop_assert!(cnf.eval(&assignment), "model violates the clauses");
                for l in &assumptions {
                    prop_assert_eq!(
                        assignment[l.var().0 as usize], l.is_pos(),
                        "model violates assumption {:?}", l
                    );
                }
            } else {
                let core = s.failed_assumptions().to_vec();
                for l in &core {
                    prop_assert!(assumptions.contains(l), "core lit {:?} not assumed", l);
                }
                let mut replay = SatSolver::from_cnf(&cnf);
                prop_assert_eq!(
                    replay.solve_under_assumptions(&core),
                    SolveOutcome::Unsat,
                    "core {:?} does not replay to UNSAT", core
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The trusted clause attach: its precondition, and what it must agree with
// ---------------------------------------------------------------------------

/// `n` random boolean terms of the mixed generator in `pool`.
fn random_roots(rng: &mut u64, pool: &mut TermPool, n: usize) -> Vec<TermId> {
    (0..n)
        .map(|_| {
            let e = gen_bl(rng, 4);
            build_bl(pool, &e)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// What lets `IncrementalBlaster::feed` attach clauses unexamined:
    /// blasting random terms, asserting them and gating them behind
    /// activation literals stores no clause that repeats a variable,
    /// and none that holds a constant literal but the true unit itself.
    #[test]
    fn blaster_clauses_repeat_no_variable_and_hold_no_constant(seed in any::<u64>()) {
        let mut rng = seed;
        let mut pool = TermPool::new();
        let tru = pool.tru();
        let roots = random_roots(&mut rng, &mut pool, 4);
        let mut b = IncrementalBlaster::new();
        let lits: Vec<Lit> = roots.iter().map(|&r| b.blast_bool(&pool, r)).collect();
        // Asking for `true` last: a literal no earlier clause can hold
        // unless the blast itself allocated it.
        let t = b.blast_bool(&pool, tru);
        for (i, (&root, &l)) in roots.iter().zip(&lits).enumerate() {
            if l.var() == t.var() {
                continue; // the root folded to a constant
            }
            if i % 2 == 0 {
                b.assert_true(&pool, root);
            } else {
                let act = b.fresh_lit();
                b.add_clause(&[!act, l]);
            }
        }
        for i in 0..b.num_clauses() {
            let c = b.clause(i);
            for (j, l) in c.iter().enumerate() {
                prop_assert!(
                    c[..j].iter().all(|k| k.var() != l.var()),
                    "clause {:?} repeats a variable", c
                );
            }
            if c.iter().any(|l| l.var() == t.var()) {
                prop_assert_eq!(c, &[t][..], "a constant literal outside the true unit");
            }
        }
    }

    /// A solver fed through the trusted attach and one fed the same
    /// clauses through the normalising `add_clause_slice` agree on every
    /// query of a stream: verdicts, models and failed-assumption cores.
    /// The blaster grows between queries, some roots are asserted (their
    /// units assign variables at level 0, which later clauses then hold)
    /// and constant roots are gated too, so both feeds see clauses with
    /// literals already assigned.
    #[test]
    fn trusted_attach_agrees_with_normalising_feed(seed in any::<u64>()) {
        let mut rng = seed;
        let mut pool = TermPool::new();
        let mut b = IncrementalBlaster::new();
        let (mut trusted, mut reference) = (SatSolver::new(0), SatSolver::new(0));
        let mut fed = 0;
        let mut acts: Vec<Lit> = Vec::new();
        for _round in 0..3 {
            for root in random_roots(&mut rng, &mut pool, 3) {
                let l = b.blast_bool(&pool, root);
                if below(&mut rng, 4) == 0 {
                    b.assert_true(&pool, root);
                } else {
                    let act = b.fresh_lit();
                    b.add_clause(&[!act, l]);
                    acts.push(act);
                }
            }
            let watermark = b.feed(&mut trusted, fed);
            reference.ensure_num_vars(b.num_vars());
            for i in fed..watermark {
                reference.add_clause_slice(b.clause(i));
            }
            fed = watermark;
            for _query in 0..4 {
                let mut assumptions: Vec<Lit> =
                    acts.iter().copied().filter(|_| below(&mut rng, 2) == 0).collect();
                for _ in 0..below(&mut rng, 3) {
                    let v = Var(below(&mut rng, b.num_vars() as u64) as u32);
                    assumptions.push(v.lit(below(&mut rng, 2) == 0));
                }
                let got = trusted.solve_under_assumptions(&assumptions);
                prop_assert_eq!(got, reference.solve_under_assumptions(&assumptions));
                if got == SolveOutcome::Sat {
                    for v in 0..b.num_vars() {
                        prop_assert_eq!(trusted.value(Var(v)), reference.value(Var(v)), "var {}", v);
                    }
                } else {
                    prop_assert_eq!(trusted.failed_assumptions(), reference.failed_assumptions());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_sided_session_agrees_with_one_shot_solves(seed in any::<u64>()) {
        let mut rng = seed;
        let mut sess = IncrementalSession::new();
        let shared = random_roots(&mut rng, sess.pool_mut(), 3);
        let (mut roots, mut acts, mut asserted) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..8 {
            // A shared term in either polarity, alone or under a fresh
            // AND / OR: its gates meet uses both ways across activations.
            let pool = sess.pool_mut();
            let s = shared[below(&mut rng, shared.len() as u64) as usize];
            let s = if below(&mut rng, 2) == 0 { s } else { pool.not(s) };
            let x = random_roots(&mut rng, pool, 1)[0];
            let root = match below(&mut rng, 3) {
                0 => s,
                1 => pool.and2(s, x),
                _ => pool.or2(s, x),
            };
            if below(&mut rng, 6) == 0 {
                sess.assert(root);
                asserted.push(root);
            } else {
                acts.push(sess.activation(root));
                roots.push(root);
            }
            // The newest activation, with a random subset of the others.
            let posed: Vec<usize> = (0..acts.len())
                .filter(|&i| i + 1 == acts.len() || below(&mut rng, 2) == 0)
                .collect();
            let assumed: Vec<_> = posed.iter().map(|&i| acts[i]).collect();
            let (got, _) = sess.solve_under(&assumed);
            let mut conj = asserted.clone();
            conj.extend(posed.iter().map(|&i| roots[i]));
            let want = solve(sess.pool(), &conj).is_sat();
            prop_assert_eq!(got == SolveOutcome::Sat, want, "seed {}", seed);
            if got == SolveOutcome::Unsat {
                let mut core = asserted.clone();
                for a in sess.failed_assumptions() {
                    let i = acts.iter().position(|b| b == a).unwrap();
                    prop_assert!(posed.contains(&i), "core names an activation not posed");
                    core.push(roots[i]);
                }
                prop_assert!(!solve(sess.pool(), &core).is_sat(), "core does not replay");
            }
        }
    }
}
