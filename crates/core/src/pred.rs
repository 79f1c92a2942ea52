//! The route-predicate language.
//!
//! [`RoutePred`] is the language in which end-to-end properties, network
//! invariants and liveness path constraints are written — the role that
//! user-supplied Zen functions play in the paper's C# implementation.
//! Every predicate has two semantics, which tests hold in agreement:
//!
//! * **symbolic** ([`RoutePred::encode`]): an SMT term over a [`SymRoute`];
//! * **concrete** ([`RoutePred::eval`]): a boolean over a [`Route`] plus
//!   ghost values (used for counterexample validation, originate checks
//!   and simulator differential tests).

use crate::symbolic::SymRoute;
use crate::universe::Universe;
use bgp_model::prefix::{Ipv4Prefix, PrefixRange};
use bgp_model::route::{Community, Route};
use serde::{Deserialize, Serialize};
use smt::{TermId, TermPool};
use std::collections::BTreeMap;
use std::fmt;

/// Comparison operators for numeric attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl Cmp {
    fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// Numeric route attributes usable in comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NumAttr {
    /// Local preference.
    LocalPref,
    /// MED.
    Med,
    /// Next hop (as a 32-bit integer).
    NextHop,
}

/// A predicate over routes.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutePred {
    /// Always true.
    True,
    /// Always false.
    False,
    /// The route's prefix matches any of the ranges.
    PrefixIn(Vec<PrefixRange>),
    /// The route's prefix equals the given prefix exactly.
    PrefixEq(Ipv4Prefix),
    /// The route carries the community.
    HasCommunity(Community),
    /// The route carries no communities at all.
    NoCommunities,
    /// Numeric attribute comparison against a constant.
    Num(NumAttr, Cmp, u32),
    /// The route's origin attribute equals the given value.
    OriginIs(bgp_model::route::Origin),
    /// The ghost attribute holds.
    Ghost(String),
    /// The AS path matches the regex (source pattern).
    AsPathMatches(String),
    /// Negation.
    Not(Box<RoutePred>),
    /// Conjunction.
    And(Vec<RoutePred>),
    /// Disjunction.
    Or(Vec<RoutePred>),
}

impl RoutePred {
    /// `true`.
    pub fn tru() -> Self {
        RoutePred::True
    }

    /// `false`.
    pub fn fls() -> Self {
        RoutePred::False
    }

    /// Prefix within any of the given ranges.
    pub fn prefix_in(ranges: impl Into<Vec<PrefixRange>>) -> Self {
        RoutePred::PrefixIn(ranges.into())
    }

    /// Prefix equals exactly.
    pub fn prefix_eq(p: Ipv4Prefix) -> Self {
        RoutePred::PrefixEq(p)
    }

    /// Carries the community.
    pub fn has_community(c: Community) -> Self {
        RoutePred::HasCommunity(c)
    }

    /// Ghost attribute by name.
    pub fn ghost(name: impl Into<String>) -> Self {
        RoutePred::Ghost(name.into())
    }

    /// AS-path regex match.
    pub fn aspath(pattern: impl Into<String>) -> Self {
        RoutePred::AsPathMatches(pattern.into())
    }

    /// Local preference comparison.
    pub fn local_pref(cmp: Cmp, v: u32) -> Self {
        RoutePred::Num(NumAttr::LocalPref, cmp, v)
    }

    /// MED comparison.
    pub fn med(cmp: Cmp, v: u32) -> Self {
        RoutePred::Num(NumAttr::Med, cmp, v)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            RoutePred::Not(inner) => *inner,
            RoutePred::True => RoutePred::False,
            RoutePred::False => RoutePred::True,
            other => RoutePred::Not(Box::new(other)),
        }
    }

    /// Conjunction.
    pub fn and(self, other: RoutePred) -> Self {
        match (self, other) {
            (RoutePred::True, b) => b,
            (a, RoutePred::True) => a,
            (RoutePred::False, _) | (_, RoutePred::False) => RoutePred::False,
            (RoutePred::And(mut xs), RoutePred::And(ys)) => {
                xs.extend(ys);
                RoutePred::And(xs)
            }
            (RoutePred::And(mut xs), b) => {
                xs.push(b);
                RoutePred::And(xs)
            }
            (a, b) => RoutePred::And(vec![a, b]),
        }
    }

    /// Disjunction.
    pub fn or(self, other: RoutePred) -> Self {
        match (self, other) {
            (RoutePred::False, b) => b,
            (a, RoutePred::False) => a,
            (RoutePred::True, _) | (_, RoutePred::True) => RoutePred::True,
            (RoutePred::Or(mut xs), RoutePred::Or(ys)) => {
                xs.extend(ys);
                RoutePred::Or(xs)
            }
            (RoutePred::Or(mut xs), b) => {
                xs.push(b);
                RoutePred::Or(xs)
            }
            (a, b) => RoutePred::Or(vec![a, b]),
        }
    }

    /// Implication `self => other`.
    pub fn implies(self, other: RoutePred) -> Self {
        self.not().or(other)
    }

    /// The predicate's top-level conjuncts, with nested conjunctions
    /// flattened: `A ∧ (B ∧ C)` yields `[A, B, C]`, `True` yields `[]`,
    /// and any other predicate yields itself as the single conjunct.
    ///
    /// This is the granularity of unsat-core localization: a check whose
    /// assumed invariant is a conjunction gets one assumption literal per
    /// conjunct, so a passing (UNSAT) check can report exactly which
    /// conjuncts its proof needed (`CheckOutcome::core`).
    pub fn conjuncts(&self) -> Vec<&RoutePred> {
        fn walk<'p>(p: &'p RoutePred, out: &mut Vec<&'p RoutePred>) {
            match p {
                RoutePred::True => {}
                RoutePred::And(xs) => {
                    for x in xs {
                        walk(x, out);
                    }
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Register every community / regex / ghost the predicate mentions.
    pub fn register(&self, universe: &mut Universe) {
        match self {
            RoutePred::HasCommunity(c) => {
                universe.add_community(*c);
            }
            RoutePred::AsPathMatches(p) => {
                universe.add_regex(p);
            }
            RoutePred::Ghost(g) => {
                universe.add_ghost(g);
            }
            RoutePred::Not(inner) => inner.register(universe),
            RoutePred::And(xs) | RoutePred::Or(xs) => {
                for x in xs {
                    x.register(universe);
                }
            }
            _ => {}
        }
    }

    /// Symbolic semantics: an SMT term over `route`.
    pub fn encode(&self, pool: &mut TermPool, universe: &Universe, route: &SymRoute) -> TermId {
        match self {
            RoutePred::True => pool.tru(),
            RoutePred::False => pool.fls(),
            RoutePred::PrefixIn(ranges) => {
                let parts: Vec<TermId> = ranges
                    .iter()
                    .map(|r| encode_range(pool, route, r))
                    .collect();
                pool.or(&parts)
            }
            RoutePred::PrefixEq(p) => {
                let addr = pool.bv_const(p.addr as u64, 32);
                let len = pool.bv_const(p.len as u64, 8);
                let ea = pool.bv_eq(route.prefix_addr, addr);
                let el = pool.bv_eq(route.prefix_len, len);
                pool.and2(ea, el)
            }
            RoutePred::HasCommunity(c) => route.has_community(universe, *c),
            RoutePred::NoCommunities => {
                let mut parts: Vec<TermId> =
                    route.comm_bits().iter().map(|&b| pool.not(b)).collect();
                let no_other = pool.not(route.comm_other);
                parts.push(no_other);
                pool.and(&parts)
            }
            RoutePred::Num(attr, cmp, v) => {
                let term = match attr {
                    NumAttr::LocalPref => route.local_pref,
                    NumAttr::Med => route.med,
                    NumAttr::NextHop => route.next_hop,
                };
                let k = pool.bv_const(*v as u64, 32);
                match cmp {
                    Cmp::Eq => pool.bv_eq(term, k),
                    Cmp::Ne => {
                        let e = pool.bv_eq(term, k);
                        pool.not(e)
                    }
                    Cmp::Lt => pool.bv_ult(term, k),
                    Cmp::Le => pool.bv_ule(term, k),
                    Cmp::Gt => pool.bv_ugt(term, k),
                    Cmp::Ge => pool.bv_uge(term, k),
                }
            }
            RoutePred::OriginIs(o) => {
                let k = pool.bv_const(o.code() as u64, 2);
                pool.bv_eq(route.origin, k)
            }
            RoutePred::Ghost(name) => {
                let i = universe
                    .ghost_index(name)
                    .unwrap_or_else(|| panic!("ghost {name:?} not in universe"));
                route.ghost_bits()[i]
            }
            RoutePred::AsPathMatches(pattern) => {
                let id = universe
                    .regex_id(pattern)
                    .unwrap_or_else(|| panic!("regex {pattern:?} not in universe"));
                route.aspath_atoms()[id.0 as usize]
            }
            RoutePred::Not(inner) => {
                let t = inner.encode(pool, universe, route);
                pool.not(t)
            }
            RoutePred::And(xs) => {
                let parts: Vec<TermId> =
                    xs.iter().map(|x| x.encode(pool, universe, route)).collect();
                pool.and(&parts)
            }
            RoutePred::Or(xs) => {
                let parts: Vec<TermId> =
                    xs.iter().map(|x| x.encode(pool, universe, route)).collect();
                pool.or(&parts)
            }
        }
    }

    /// Concrete semantics over a route plus ghost values.
    pub fn eval(&self, route: &Route, ghosts: &BTreeMap<String, bool>) -> bool {
        match self {
            RoutePred::True => true,
            RoutePred::False => false,
            RoutePred::PrefixIn(ranges) => ranges.iter().any(|r| r.matches(&route.prefix)),
            RoutePred::PrefixEq(p) => route.prefix == *p,
            RoutePred::HasCommunity(c) => route.has_community(*c),
            RoutePred::NoCommunities => route.communities.is_empty(),
            RoutePred::Num(attr, cmp, v) => {
                let x = match attr {
                    NumAttr::LocalPref => route.local_pref,
                    NumAttr::Med => route.med,
                    NumAttr::NextHop => route.next_hop,
                };
                cmp.eval(x, *v)
            }
            RoutePred::OriginIs(o) => route.origin == *o,
            RoutePred::Ghost(name) => ghosts.get(name).copied().unwrap_or(false),
            RoutePred::AsPathMatches(pattern) => bgp_model::AsPathRegex::compile(pattern)
                .map(|re| re.matches(&route.as_path))
                .unwrap_or(false),
            RoutePred::Not(inner) => !inner.eval(route, ghosts),
            RoutePred::And(xs) => xs.iter().all(|x| x.eval(route, ghosts)),
            RoutePred::Or(xs) => xs.iter().any(|x| x.eval(route, ghosts)),
        }
    }
}

fn encode_range(pool: &mut TermPool, route: &SymRoute, r: &PrefixRange) -> TermId {
    let mask = pool.bv_const(Ipv4Prefix::mask(r.pattern.len) as u64, 32);
    let masked = pool.bv_and(route.prefix_addr, mask);
    let pattern = pool.bv_const(r.pattern.addr as u64, 32);
    let net_ok = pool.bv_eq(masked, pattern);
    let lo = pool.bv_const(r.min_len as u64, 8);
    let hi = pool.bv_const(r.max_len as u64, 8);
    let ge = pool.bv_uge(route.prefix_len, lo);
    let le = pool.bv_ule(route.prefix_len, hi);
    pool.and(&[net_ok, ge, le])
}

impl fmt::Display for RoutePred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutePred::True => write!(f, "true"),
            RoutePred::False => write!(f, "false"),
            RoutePred::PrefixIn(ranges) => {
                write!(f, "prefix in [")?;
                for (i, r) in ranges.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "]")
            }
            RoutePred::PrefixEq(p) => write!(f, "prefix = {p}"),
            RoutePred::HasCommunity(c) => write!(f, "{c} in comm"),
            RoutePred::NoCommunities => write!(f, "comm = {{}}"),
            RoutePred::Num(attr, cmp, v) => {
                let a = match attr {
                    NumAttr::LocalPref => "local-pref",
                    NumAttr::Med => "med",
                    NumAttr::NextHop => "next-hop",
                };
                let op = match cmp {
                    Cmp::Eq => "=",
                    Cmp::Ne => "!=",
                    Cmp::Lt => "<",
                    Cmp::Le => "<=",
                    Cmp::Gt => ">",
                    Cmp::Ge => ">=",
                };
                write!(f, "{a} {op} {v}")
            }
            RoutePred::OriginIs(o) => write!(f, "origin = {o}"),
            RoutePred::Ghost(g) => write!(f, "{g}"),
            RoutePred::AsPathMatches(p) => write!(f, "as-path ~ {p}"),
            RoutePred::Not(x) => write!(f, "!({x})"),
            RoutePred::And(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            RoutePred::Or(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt::{solve, SatResult};

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    #[test]
    fn conjuncts_flatten_and_cover() {
        let a = RoutePred::ghost("A");
        let b = RoutePred::has_community(c("1:1"));
        let d = RoutePred::local_pref(Cmp::Eq, 100);
        // Nested conjunction flattens.
        let nested = a.clone().and(RoutePred::And(vec![b.clone(), d.clone()]));
        assert_eq!(nested.conjuncts(), vec![&a, &b, &d]);
        // True contributes nothing; a lone non-And is its own conjunct.
        assert!(RoutePred::True.conjuncts().is_empty());
        assert_eq!(b.conjuncts(), vec![&b]);
        // An Or is atomic at this granularity (no distribution).
        let or = a.clone().or(b.clone());
        assert_eq!(or.conjuncts(), vec![&or]);
        // Semantics: the conjunction of the conjuncts equals the original.
        let route = Route::new("10.0.0.0/8".parse().unwrap()).with_community(c("1:1"));
        let ghosts: BTreeMap<String, bool> = [("A".to_string(), true)].into_iter().collect();
        let again = nested
            .conjuncts()
            .into_iter()
            .fold(RoutePred::True, |acc, c| acc.and(c.clone()));
        assert_eq!(nested.eval(&route, &ghosts), again.eval(&route, &ghosts));
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// Pin a symbolic route to `route`/`ghosts` and check that the encoded
    /// predicate evaluates to the same value as the concrete semantics.
    fn agree(pred: &RoutePred, route: &Route, ghosts: &BTreeMap<String, bool>) {
        let mut u = Universe::new();
        pred.register(&mut u);
        // Also register communities the route carries so pinning is exact.
        for cm in &route.communities {
            u.add_community(*cm);
        }
        let mut pool = TermPool::new();
        let sym = SymRoute::fresh(&mut pool, &u, "r");
        let pin = sym.equals_concrete(&mut pool, &u, route, ghosts);
        let enc = pred.encode(&mut pool, &u, &sym);
        let expected = pred.eval(route, ghosts);
        let want = if expected { enc } else { pool.not(enc) };
        match solve(&pool, &[pin, want]) {
            SatResult::Sat(_) => {}
            SatResult::Unsat => panic!("symbolic/concrete disagree on {pred} for {route}"),
        }
        // And the opposite must be unsat.
        let unwant = if expected { pool.not(enc) } else { enc };
        assert!(
            !solve(&pool, &[pin, unwant]).is_sat(),
            "encoding not functional for {pred}"
        );
    }

    #[test]
    fn prefix_predicates_agree() {
        let ranges = vec![PrefixRange::with_bounds(p("10.0.0.0/8"), 16, 24)];
        let pred = RoutePred::prefix_in(ranges);
        agree(&pred, &Route::new(p("10.5.0.0/16")), &BTreeMap::new());
        agree(&pred, &Route::new(p("10.0.0.0/8")), &BTreeMap::new());
        agree(&pred, &Route::new(p("11.0.0.0/16")), &BTreeMap::new());

        let eq = RoutePred::prefix_eq(p("192.168.0.0/16"));
        agree(&eq, &Route::new(p("192.168.0.0/16")), &BTreeMap::new());
        agree(&eq, &Route::new(p("192.168.0.0/24")), &BTreeMap::new());
    }

    #[test]
    fn community_predicates_agree() {
        let pred = RoutePred::has_community(c("100:1"));
        agree(
            &pred,
            &Route::new(p("1.0.0.0/8")).with_community(c("100:1")),
            &BTreeMap::new(),
        );
        agree(&pred, &Route::new(p("1.0.0.0/8")), &BTreeMap::new());

        let none = RoutePred::NoCommunities;
        agree(&none, &Route::new(p("1.0.0.0/8")), &BTreeMap::new());
        agree(
            &none,
            &Route::new(p("1.0.0.0/8")).with_community(c("5:5")),
            &BTreeMap::new(),
        );
    }

    #[test]
    fn numeric_predicates_agree() {
        for cmp in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            let pred = RoutePred::local_pref(cmp, 100);
            agree(
                &pred,
                &Route::new(p("1.0.0.0/8")).with_local_pref(100),
                &BTreeMap::new(),
            );
            agree(
                &pred,
                &Route::new(p("1.0.0.0/8")).with_local_pref(99),
                &BTreeMap::new(),
            );
            agree(
                &pred,
                &Route::new(p("1.0.0.0/8")).with_local_pref(101),
                &BTreeMap::new(),
            );
        }
    }

    #[test]
    fn ghost_and_aspath_agree() {
        let pred = RoutePred::ghost("G").and(RoutePred::aspath("_65001_"));
        let mut ghosts = BTreeMap::new();
        ghosts.insert("G".to_string(), true);
        agree(
            &pred,
            &Route::new(p("1.0.0.0/8")).with_as_path(vec![65001]),
            &ghosts,
        );
        agree(
            &pred,
            &Route::new(p("1.0.0.0/8")).with_as_path(vec![2]),
            &ghosts,
        );
        ghosts.insert("G".to_string(), false);
        agree(
            &pred,
            &Route::new(p("1.0.0.0/8")).with_as_path(vec![65001]),
            &ghosts,
        );
    }

    #[test]
    fn boolean_combinators_agree() {
        let a = RoutePred::has_community(c("1:1"));
        let b = RoutePred::local_pref(Cmp::Ge, 200);
        let pred = a.clone().and(b.clone()).or(a.clone().not()).implies(b);
        for lp in [100, 200, 300] {
            for has in [true, false] {
                let mut r = Route::new(p("1.0.0.0/8")).with_local_pref(lp);
                if has {
                    r = r.with_community(c("1:1"));
                }
                agree(&pred, &r, &BTreeMap::new());
            }
        }
    }

    #[test]
    fn combinator_simplifications() {
        assert_eq!(RoutePred::tru().and(RoutePred::fls()), RoutePred::False);
        assert_eq!(RoutePred::tru().or(RoutePred::fls()), RoutePred::True);
        assert_eq!(RoutePred::tru().not(), RoutePred::False);
        let g = RoutePred::ghost("G");
        assert_eq!(g.clone().not().not(), g.clone());
        assert_eq!(RoutePred::tru().and(g.clone()), g);
    }

    #[test]
    fn display_smoke() {
        let pred = RoutePred::ghost("FromISP1").implies(RoutePred::has_community(c("100:1")));
        assert_eq!(pred.to_string(), "(!(FromISP1) || 100:1 in comm)");
    }
}
