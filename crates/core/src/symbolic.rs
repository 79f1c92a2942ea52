//! Symbolic routes: one SMT term per route attribute.
//!
//! A [`SymRoute`] carries terms for the concrete BGP attributes of §3.1
//! (prefix, local-pref, MED, next-hop), one boolean per universe community
//! plus an "other communities" summary bit, one boolean match-atom per
//! AS-path regex, and one boolean per ghost attribute.
//!
//! Every variable is declared under an [`smt::VarKey`] — the route's tag,
//! the attribute, the position in the universe — not a formatted name:
//! a fresh route is built once per encoding group, and keying it by
//! numbers keeps that free of string formatting and hashing.
//!
//! AS paths are abstracted by their regex match atoms (design decision D2):
//! filters that do not prepend preserve the atoms exactly (the path is
//! unchanged); `set as-path prepend` refreshes them to unconstrained
//! booleans, a sound over-approximation.

use crate::universe::Universe;
use bgp_model::prefix::Ipv4Prefix;
use bgp_model::route::{Community, Route};
use serde::{Deserialize, Serialize};
use smt::{Model, TermId, TermPool, VarKey};
use std::collections::BTreeMap;

/// A route whose attributes are SMT terms.
#[derive(Clone, Debug)]
pub struct SymRoute {
    /// 32-bit prefix network address.
    pub prefix_addr: TermId,
    /// Prefix length (bv8, constrained <= 32 via [`SymRoute::well_formed`]).
    pub prefix_len: TermId,
    /// Local preference (bv32).
    pub local_pref: TermId,
    /// MED (bv32).
    pub med: TermId,
    /// Next hop (bv32).
    pub next_hop: TermId,
    /// Origin attribute (bv2: 0=igp, 1=egp, 2=incomplete; constrained
    /// <= 2 by [`SymRoute::well_formed`]).
    pub origin: TermId,
    /// One boolean per universe community (same order as the universe).
    pub comm_bits: Vec<TermId>,
    /// True when the route carries any community outside the universe.
    pub comm_other: TermId,
    /// AS-path regex match atoms, keyed by regex id (index).
    pub aspath_atoms: Vec<TermId>,
    /// Ghost attribute values (same order as the universe's ghosts).
    pub ghost_bits: Vec<TermId>,
}

impl SymRoute {
    /// A fresh, fully unconstrained symbolic route. `tag` disambiguates
    /// the variables when several routes live in one pool: each is keyed
    /// by (tag, attribute, position in the universe), so the same tag in
    /// the same pool yields the same route.
    pub fn fresh(pool: &mut TermPool, universe: &Universe, tag: &str) -> SymRoute {
        let tag = pool.scope(tag);
        let bits = |pool: &mut TermPool, attr: &'static str, n: usize| -> Vec<TermId> {
            (0..n)
                .map(|i| pool.bool_var_at(VarKey::indexed(tag, attr, i)))
                .collect()
        };
        let comm_bits = bits(pool, "comm", universe.communities().len());
        let aspath_atoms = bits(pool, "aspath", universe.regexes().len());
        let ghost_bits = bits(pool, "ghost", universe.ghosts().len());
        let mut bv = |attr, width| pool.bv_var_at(VarKey::scalar(tag, attr), width);
        SymRoute {
            prefix_addr: bv("prefix.addr", 32),
            prefix_len: bv("prefix.len", 8),
            local_pref: bv("local_pref", 32),
            med: bv("med", 32),
            next_hop: bv("next_hop", 32),
            origin: bv("origin", 2),
            comm_bits,
            comm_other: pool.bool_var_at(VarKey::scalar(tag, "comm_other")),
            aspath_atoms,
            ghost_bits,
        }
    }

    /// Well-formedness: prefix length <= 32 and origin code <= 2.
    /// Assumed in every check so counterexamples are realizable routes.
    pub fn well_formed(&self, pool: &mut TermPool) -> TermId {
        let c32 = pool.bv_const(32, 8);
        let len_ok = pool.bv_ule(self.prefix_len, c32);
        let c2 = pool.bv_const(2, 2);
        let origin_ok = pool.bv_ule(self.origin, c2);
        pool.and2(len_ok, origin_ok)
    }

    /// The boolean term for carrying community `c` (must be in-universe).
    pub fn has_community(&self, universe: &Universe, c: Community) -> TermId {
        let i = universe
            .community_index(c)
            .unwrap_or_else(|| panic!("community {c} not in universe"));
        self.comm_bits[i]
    }

    /// Extract a concrete route (and ghost values) from a model.
    ///
    /// The AS path is synthesized best-effort from the regex atoms: atoms
    /// that are true are reported in
    /// [`ConcreteRoute::aspath_matches`], and the path itself is left
    /// empty (the abstraction does not determine it).
    ///
    /// Attributes the solver never saw (don't-care in the model) take
    /// their defaults on the route itself, but are *omitted* from the
    /// regex-atom and ghost maps so counterexample printing only reports
    /// values the model actually witnessed.
    pub fn concretize(&self, pool: &TermPool, universe: &Universe, model: &Model) -> ConcreteRoute {
        let addr = model.eval_bv(pool, self.prefix_addr).unwrap_or(0) as u32;
        let len = (model.eval_bv(pool, self.prefix_len).unwrap_or(0) as u8).min(32);
        let mut route = Route::new(Ipv4Prefix::new(addr, len));
        route.local_pref = model.eval_bv(pool, self.local_pref).unwrap_or(0) as u32;
        route.med = model.eval_bv(pool, self.med).unwrap_or(0) as u32;
        route.next_hop = model.eval_bv(pool, self.next_hop).unwrap_or(0) as u32;
        route.origin = bgp_model::route::Origin::from_code(
            model.eval_bv(pool, self.origin).unwrap_or(2) as u8,
        );
        for (i, c) in universe.communities().iter().enumerate() {
            if model.eval_bool(pool, self.comm_bits[i]).unwrap_or(false) {
                route.communities.insert(*c);
            }
        }
        let comm_other = model.eval_bool(pool, self.comm_other).unwrap_or(false);
        let mut aspath_matches = BTreeMap::new();
        for (i, pat) in universe.regexes().iter().enumerate() {
            if model.is_dont_care(self.aspath_atoms[i]) {
                continue;
            }
            let v = model.eval_bool(pool, self.aspath_atoms[i]).unwrap_or(false);
            aspath_matches.insert(pat.clone(), v);
        }
        let mut ghosts = BTreeMap::new();
        for (i, g) in universe.ghosts().iter().enumerate() {
            if model.is_dont_care(self.ghost_bits[i]) {
                continue;
            }
            let v = model.eval_bool(pool, self.ghost_bits[i]).unwrap_or(false);
            ghosts.insert(g.clone(), v);
        }
        ConcreteRoute {
            route,
            comm_other,
            aspath_matches,
            ghosts,
        }
    }

    /// Constrain this symbolic route to equal a counterexample extracted
    /// by [`SymRoute::concretize`]. Unlike [`SymRoute::equals_concrete`],
    /// the AS-path atoms and the other-communities bit are taken from the
    /// counterexample itself (the abstraction does not determine a
    /// concrete path), and attributes the counterexample omitted as
    /// unwitnessed are left unconstrained. Used to re-validate failure
    /// results loaded from the disk cache.
    pub fn equals_counterexample(
        &self,
        pool: &mut TermPool,
        universe: &Universe,
        cex: &ConcreteRoute,
    ) -> TermId {
        let mut parts = Vec::new();
        let addr = pool.bv_const(cex.route.prefix.addr as u64, 32);
        parts.push(pool.bv_eq(self.prefix_addr, addr));
        let len = pool.bv_const(cex.route.prefix.len as u64, 8);
        parts.push(pool.bv_eq(self.prefix_len, len));
        let lp = pool.bv_const(cex.route.local_pref as u64, 32);
        parts.push(pool.bv_eq(self.local_pref, lp));
        let med = pool.bv_const(cex.route.med as u64, 32);
        parts.push(pool.bv_eq(self.med, med));
        let nh = pool.bv_const(cex.route.next_hop as u64, 32);
        parts.push(pool.bv_eq(self.next_hop, nh));
        let og = pool.bv_const(cex.route.origin.code() as u64, 2);
        parts.push(pool.bv_eq(self.origin, og));
        for (i, c) in universe.communities().iter().enumerate() {
            let bit = self.comm_bits[i];
            let want = cex.route.communities.contains(c);
            parts.push(if want { bit } else { pool.not(bit) });
        }
        parts.push(if cex.comm_other {
            self.comm_other
        } else {
            pool.not(self.comm_other)
        });
        for (i, pat) in universe.regexes().iter().enumerate() {
            if let Some(&want) = cex.aspath_matches.get(pat) {
                let atom = self.aspath_atoms[i];
                parts.push(if want { atom } else { pool.not(atom) });
            }
        }
        for (i, g) in universe.ghosts().iter().enumerate() {
            if let Some(&want) = cex.ghosts.get(g) {
                let bit = self.ghost_bits[i];
                parts.push(if want { bit } else { pool.not(bit) });
            }
        }
        pool.and(&parts)
    }

    /// Constrain this symbolic route to equal a concrete route (ghosts and
    /// regex atoms included). Used in tests for symbolic/concrete
    /// agreement.
    pub fn equals_concrete(
        &self,
        pool: &mut TermPool,
        universe: &Universe,
        concrete: &Route,
        ghosts: &BTreeMap<String, bool>,
    ) -> TermId {
        let mut parts = Vec::new();
        let addr = pool.bv_const(concrete.prefix.addr as u64, 32);
        parts.push(pool.bv_eq(self.prefix_addr, addr));
        let len = pool.bv_const(concrete.prefix.len as u64, 8);
        parts.push(pool.bv_eq(self.prefix_len, len));
        let lp = pool.bv_const(concrete.local_pref as u64, 32);
        parts.push(pool.bv_eq(self.local_pref, lp));
        let med = pool.bv_const(concrete.med as u64, 32);
        parts.push(pool.bv_eq(self.med, med));
        let nh = pool.bv_const(concrete.next_hop as u64, 32);
        parts.push(pool.bv_eq(self.next_hop, nh));
        let og = pool.bv_const(concrete.origin.code() as u64, 2);
        parts.push(pool.bv_eq(self.origin, og));
        let mut other = false;
        for c in &concrete.communities {
            if universe.community_index(*c).is_none() {
                other = true;
            }
        }
        for (i, c) in universe.communities().iter().enumerate() {
            let bit = self.comm_bits[i];
            let want = concrete.communities.contains(c);
            parts.push(if want { bit } else { pool.not(bit) });
        }
        parts.push(if other {
            self.comm_other
        } else {
            pool.not(self.comm_other)
        });
        for (i, pat) in universe.regexes().iter().enumerate() {
            let re = bgp_model::AsPathRegex::compile(pat).expect("regex validated earlier");
            let want = re.matches(&concrete.as_path);
            let atom = self.aspath_atoms[i];
            parts.push(if want { atom } else { pool.not(atom) });
        }
        for (i, g) in universe.ghosts().iter().enumerate() {
            let want = ghosts.get(g).copied().unwrap_or(false);
            let bit = self.ghost_bits[i];
            parts.push(if want { bit } else { pool.not(bit) });
        }
        pool.and(&parts)
    }
}

/// A concretized route extracted from a counterexample model.
/// Serializable so failing check results can spill to the disk cache
/// (and be re-validated on load; see `engine`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConcreteRoute {
    /// The concrete BGP attributes.
    pub route: Route,
    /// Whether the route carries communities outside the universe.
    pub comm_other: bool,
    /// AS-path regex match atoms (pattern -> matched).
    pub aspath_matches: BTreeMap<String, bool>,
    /// Ghost attribute values.
    pub ghosts: BTreeMap<String, bool>,
}

impl std::fmt::Display for ConcreteRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.route)?;
        if self.comm_other {
            write!(f, " +other-comms")?;
        }
        for (pat, v) in &self.aspath_matches {
            if *v {
                write!(f, " aspath~{pat}")?;
            }
        }
        for (g, v) in &self.ghosts {
            write!(f, " {g}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt::{solve, SatResult};

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.add_community(c("100:1"));
        u.add_community(c("200:2"));
        u.add_regex("_65001_");
        u.add_ghost("FromISP1");
        u
    }

    #[test]
    fn fresh_route_has_right_shape() {
        let u = universe();
        let mut pool = TermPool::new();
        let r = SymRoute::fresh(&mut pool, &u, "r");
        assert_eq!(r.comm_bits.len(), 2);
        assert_eq!(r.aspath_atoms.len(), 1);
        assert_eq!(r.ghost_bits.len(), 1);
    }

    #[test]
    fn concretize_roundtrip() {
        let u = universe();
        let mut pool = TermPool::new();
        let r = SymRoute::fresh(&mut pool, &u, "r");
        let concrete = Route::new("10.0.0.0/8".parse().unwrap())
            .with_local_pref(150)
            .with_med(9)
            .with_next_hop(7)
            .with_community(c("100:1"))
            .with_as_path(vec![65001]);
        let mut ghosts = BTreeMap::new();
        ghosts.insert("FromISP1".to_string(), true);
        let eq = r.equals_concrete(&mut pool, &u, &concrete, &ghosts);
        let wf = r.well_formed(&mut pool);
        match solve(&pool, &[eq, wf]) {
            SatResult::Sat(m) => {
                let got = r.concretize(&pool, &u, &m);
                assert_eq!(got.route.prefix, concrete.prefix);
                assert_eq!(got.route.local_pref, 150);
                assert_eq!(got.route.med, 9);
                assert_eq!(got.route.next_hop, 7);
                assert!(got.route.has_community(c("100:1")));
                assert!(!got.route.has_community(c("200:2")));
                assert!(!got.comm_other);
                assert!(got.aspath_matches["_65001_"]);
                assert!(got.ghosts["FromISP1"]);
            }
            SatResult::Unsat => panic!("pinning must be satisfiable"),
        }
    }

    #[test]
    fn out_of_universe_community_sets_other_bit() {
        let u = universe();
        let mut pool = TermPool::new();
        let r = SymRoute::fresh(&mut pool, &u, "r");
        let concrete = Route::new("10.0.0.0/8".parse().unwrap()).with_community(c("9:9")); // not in universe
        let eq = r.equals_concrete(&mut pool, &u, &concrete, &BTreeMap::new());
        match solve(&pool, &[eq]) {
            SatResult::Sat(m) => {
                let got = r.concretize(&pool, &u, &m);
                assert!(got.comm_other);
                assert!(got.route.communities.is_empty());
            }
            SatResult::Unsat => panic!(),
        }
    }

    #[test]
    fn well_formed_bounds_length() {
        let u = universe();
        let mut pool = TermPool::new();
        let r = SymRoute::fresh(&mut pool, &u, "r");
        let wf = r.well_formed(&mut pool);
        let c40 = pool.bv_const(40, 8);
        let too_long = pool.bv_eq(r.prefix_len, c40);
        assert!(!solve(&pool, &[wf, too_long]).is_sat());
    }
}
