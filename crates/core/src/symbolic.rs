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
use smt::{Model, TermId, TermPool, VarKey};
use std::collections::BTreeMap;

/// A route whose attributes are SMT terms.
///
/// The per-universe booleans (community bits, AS-path atoms, ghost
/// bits) share one vector, so cloning or merging a route — the encoder
/// does both for every route-map entry — costs one allocation.
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
    /// True when the route carries any community outside the universe.
    pub comm_other: TermId,
    /// The community bits, then the AS-path atoms, then the ghost bits.
    bits: Vec<TermId>,
    /// How many of `bits` are community bits.
    comms: usize,
    /// How many of `bits` are AS-path atoms.
    atoms: usize,
}

impl SymRoute {
    /// A fresh, fully unconstrained symbolic route. `tag` disambiguates
    /// the variables when several routes live in one pool: each is keyed
    /// by (tag, attribute, position in the universe), so the same tag in
    /// the same pool yields the same route.
    pub fn fresh(pool: &mut TermPool, universe: &Universe, tag: &str) -> SymRoute {
        let tag = pool.scope(tag);
        let (comms, atoms) = (universe.communities().len(), universe.regexes().len());
        let mut bits = Vec::with_capacity(comms + atoms + universe.ghosts().len());
        for (attr, n) in [
            ("comm", comms),
            ("aspath", atoms),
            ("ghost", universe.ghosts().len()),
        ] {
            bits.extend((0..n).map(|i| pool.bool_var_at(VarKey::indexed(tag, attr, i))));
        }
        let mut bv = |attr, width| pool.bv_var_at(VarKey::scalar(tag, attr), width);
        SymRoute {
            prefix_addr: bv("prefix.addr", 32),
            prefix_len: bv("prefix.len", 8),
            local_pref: bv("local_pref", 32),
            med: bv("med", 32),
            next_hop: bv("next_hop", 32),
            origin: bv("origin", 2),
            comm_other: pool.bool_var_at(VarKey::scalar(tag, "comm_other")),
            bits,
            comms,
            atoms,
        }
    }

    /// `cond ? self : other`, attribute by attribute. Terms are built in
    /// field order — the scalar attributes, the community bits,
    /// `comm_other`, the AS-path atoms, the ghost bits — which fixes the
    /// pool's order and so the CNF.
    pub fn merge(&self, pool: &mut TermPool, cond: TermId, other: &SymRoute) -> SymRoute {
        let prefix_addr = pool.ite(cond, self.prefix_addr, other.prefix_addr);
        let prefix_len = pool.ite(cond, self.prefix_len, other.prefix_len);
        let local_pref = pool.ite(cond, self.local_pref, other.local_pref);
        let med = pool.ite(cond, self.med, other.med);
        let next_hop = pool.ite(cond, self.next_hop, other.next_hop);
        let origin = pool.ite(cond, self.origin, other.origin);
        let pairs = self.bits.iter().zip(&other.bits);
        let mut bits = Vec::with_capacity(self.bits.len());
        bits.extend((pairs.clone().take(self.comms)).map(|(&x, &y)| pool.ite(cond, x, y)));
        let comm_other = pool.ite(cond, self.comm_other, other.comm_other);
        bits.extend((pairs.skip(self.comms)).map(|(&x, &y)| pool.ite(cond, x, y)));
        SymRoute {
            prefix_addr,
            prefix_len,
            local_pref,
            med,
            next_hop,
            origin,
            comm_other,
            bits,
            comms: self.comms,
            atoms: self.atoms,
        }
    }

    /// One boolean per universe community (same order as the universe).
    pub fn comm_bits(&self) -> &[TermId] {
        &self.bits[..self.comms]
    }

    /// [`SymRoute::comm_bits`], for a set action to rewrite.
    pub fn comm_bits_mut(&mut self) -> &mut [TermId] {
        &mut self.bits[..self.comms]
    }

    /// AS-path regex match atoms, indexed by regex id.
    pub fn aspath_atoms(&self) -> &[TermId] {
        &self.bits[self.comms..self.comms + self.atoms]
    }

    /// [`SymRoute::aspath_atoms`], for a prepend to refresh.
    pub fn aspath_atoms_mut(&mut self) -> &mut [TermId] {
        &mut self.bits[self.comms..self.comms + self.atoms]
    }

    /// Ghost attribute values (same order as the universe's ghosts).
    pub fn ghost_bits(&self) -> &[TermId] {
        &self.bits[self.comms + self.atoms..]
    }

    /// [`SymRoute::ghost_bits`], for a ghost update to rewrite.
    pub fn ghost_bits_mut(&mut self) -> &mut [TermId] {
        &mut self.bits[self.comms + self.atoms..]
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
        self.comm_bits()[i]
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
            if model.eval_bool(pool, self.comm_bits()[i]).unwrap_or(false) {
                route.communities.insert(*c);
            }
        }
        let comm_other = model.eval_bool(pool, self.comm_other).unwrap_or(false);
        let mut aspath_matches = BTreeMap::new();
        for (i, pat) in universe.regexes().iter().enumerate() {
            let atom = self.aspath_atoms()[i];
            if model.is_dont_care(atom) {
                continue;
            }
            let v = model.eval_bool(pool, atom).unwrap_or(false);
            aspath_matches.insert(pat.clone(), v);
        }
        let mut ghosts = BTreeMap::new();
        for (i, g) in universe.ghosts().iter().enumerate() {
            let bit = self.ghost_bits()[i];
            if model.is_dont_care(bit) {
                continue;
            }
            let v = model.eval_bool(pool, bit).unwrap_or(false);
            ghosts.insert(g.clone(), v);
        }
        ConcreteRoute {
            route,
            comm_other,
            aspath_matches,
            ghosts,
        }
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
            let bit = self.comm_bits()[i];
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
            let atom = self.aspath_atoms()[i];
            parts.push(if want { atom } else { pool.not(atom) });
        }
        for (i, g) in universe.ghosts().iter().enumerate() {
            let want = ghosts.get(g).copied().unwrap_or(false);
            let bit = self.ghost_bits()[i];
            parts.push(if want { bit } else { pool.not(bit) });
        }
        pool.and(&parts)
    }
}

/// A concretized route extracted from a counterexample model.
#[derive(Clone, Debug, PartialEq, Eq)]
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
        assert_eq!(r.comm_bits().len(), 2);
        assert_eq!(r.aspath_atoms().len(), 1);
        assert_eq!(r.ghost_bits().len(), 1);
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
