//! Symbolic transfer functions: route maps as SMT relations.
//!
//! [`Encoder::encode_route_map`] turns a route map into a (reject-condition, output
//! route) pair over a symbolic input route, mirroring the concrete
//! interpreter [`bgp_model::interp::apply_route_map`] exactly — the
//! agreement between the two is property-tested in this crate's test
//! suite, which is the core soundness argument for the generated checks.
//!
//! The output is specified for accepted routes only. Nothing reads the
//! output of a rejected one: the safety goal is `reject ∨ ensure(out)`,
//! the liveness goal `¬reject ∧ …`, and a counterexample shows an output
//! only when its route is accepted. So a `deny` entry adds nothing to
//! the output; it is whatever the entries below it make of the route.
//!
//! [`encode_transfer`] wraps an edge's import or export route map with
//! the per-edge ghost-attribute updates of §4.4: the one relation
//! encoder of the engine's symbolic checks and of the Minesweeper
//! baseline.
//!
//! Encoders take the pool by `&mut` and never assume it is empty: the
//! engine calls them both on throwaway pools (fresh per-check solving)
//! and on a persistent [`smt::IncrementalSession`] pool, where one
//! transfer encoding is shared by every check of every edge with that
//! relation (one session group) and the pool keeps growing between
//! assumption solves. Everything here
//! must therefore stay deterministic given the same inputs — fresh
//! variables are namespaced through [`Encoder::new`]'s tag — so grouped
//! and per-check runs produce identical formulas.

use crate::ghost::{GhostAttr, GhostUpdate};
use crate::symbolic::SymRoute;
use crate::universe::Universe;
use bgp_model::prefix::Ipv4Prefix;
use bgp_model::routemap::{Action, MatchCond, RouteMap, SetAction};
use bgp_model::topology::EdgeId;
use bgp_model::Policy;
use smt::{TermId, TermPool};

/// The symbolic result of pushing a route through a filter.
#[derive(Clone, Debug)]
pub struct Transfer {
    /// True when the filter rejects the input route.
    pub reject: TermId,
    /// The output route (meaningful when `!reject`).
    pub out: SymRoute,
}

/// Encoding context: owns fresh-variable numbering for prepend refreshes.
pub struct Encoder<'a> {
    /// The term pool formulas are built in.
    pub pool: &'a mut TermPool,
    /// The attribute universe.
    pub universe: &'a Universe,
    tag: String,
    fresh: u32,
}

impl<'a> Encoder<'a> {
    /// Create an encoder; `tag` namespaces fresh variables.
    pub fn new(pool: &'a mut TermPool, universe: &'a Universe, tag: impl Into<String>) -> Self {
        Encoder {
            pool,
            universe,
            tag: tag.into(),
            fresh: 0,
        }
    }

    fn fresh_bool(&mut self, what: &str) -> TermId {
        let n = self.fresh;
        self.fresh += 1;
        self.pool
            .bool_var(&format!("{}.fresh{}[{}]", self.tag, n, what))
    }

    /// Encode one match condition against a route state.
    pub fn encode_match(&mut self, cond: &MatchCond, route: &SymRoute) -> TermId {
        match cond {
            MatchCond::PrefixList(entries) => {
                // First match wins, implicit deny: fold right-to-left.
                let mut acc = self.pool.fls();
                for (permit, range) in entries.iter().rev() {
                    let hit = self.encode_range(range, route);
                    let verdict = self.pool.bool_const(*permit);
                    acc = self.pool.ite(hit, verdict, acc);
                }
                acc
            }
            MatchCond::Community { comms, match_all } => {
                let bits: Vec<TermId> = comms
                    .iter()
                    .map(|c| route.has_community(self.universe, *c))
                    .collect();
                if *match_all {
                    self.pool.and(&bits)
                } else {
                    self.pool.or(&bits)
                }
            }
            MatchCond::CommunityList { entries, exact } => {
                let mut acc = self.pool.fls();
                for (permit, comms) in entries.iter().rev() {
                    let hit = if *exact {
                        self.encode_exact_comms(comms, route)
                    } else {
                        let bits: Vec<TermId> = comms
                            .iter()
                            .map(|c| route.has_community(self.universe, *c))
                            .collect();
                        self.pool.and(&bits)
                    };
                    let verdict = self.pool.bool_const(*permit);
                    acc = self.pool.ite(hit, verdict, acc);
                }
                acc
            }
            MatchCond::AsPath(entries) => {
                let mut acc = self.pool.fls();
                for (permit, re) in entries.iter().rev() {
                    let id = self
                        .universe
                        .regex_id(re.pattern())
                        .unwrap_or_else(|| panic!("regex {:?} not in universe", re.pattern()));
                    let hit = route.aspath_atoms()[id.0 as usize];
                    let verdict = self.pool.bool_const(*permit);
                    acc = self.pool.ite(hit, verdict, acc);
                }
                acc
            }
            MatchCond::Med(v) => {
                let k = self.pool.bv_const(*v as u64, 32);
                self.pool.bv_eq(route.med, k)
            }
            MatchCond::LocalPref(v) => {
                let k = self.pool.bv_const(*v as u64, 32);
                self.pool.bv_eq(route.local_pref, k)
            }
            MatchCond::Always => self.pool.tru(),
        }
    }

    fn encode_exact_comms(&mut self, comms: &[bgp_model::Community], route: &SymRoute) -> TermId {
        // Route's community set equals `comms` exactly: every listed bit
        // set, every other universe bit clear, no out-of-universe comms.
        let mut parts = Vec::new();
        for (i, c) in self.universe.communities().iter().enumerate() {
            let bit = route.comm_bits()[i];
            if comms.contains(c) {
                parts.push(bit);
            } else {
                parts.push(self.pool.not(bit));
            }
        }
        let no_other = self.pool.not(route.comm_other);
        parts.push(no_other);
        self.pool.and(&parts)
    }

    fn encode_range(&mut self, r: &bgp_model::PrefixRange, route: &SymRoute) -> TermId {
        let p = &mut *self.pool;
        let mask = p.bv_const(Ipv4Prefix::mask(r.pattern.len) as u64, 32);
        let masked = p.bv_and(route.prefix_addr, mask);
        let pattern = p.bv_const(r.pattern.addr as u64, 32);
        let net_ok = p.bv_eq(masked, pattern);
        let lo = p.bv_const(r.min_len as u64, 8);
        let hi = p.bv_const(r.max_len as u64, 8);
        let ge = p.bv_uge(route.prefix_len, lo);
        let le = p.bv_ule(route.prefix_len, hi);
        p.and(&[net_ok, ge, le])
    }

    /// Apply one set action to a route state.
    pub fn encode_set(&mut self, set: &SetAction, route: &SymRoute) -> SymRoute {
        let mut out = route.clone();
        match set {
            SetAction::LocalPref(v) => {
                out.local_pref = self.pool.bv_const(*v as u64, 32);
            }
            SetAction::Med(v) => {
                out.med = self.pool.bv_const(*v as u64, 32);
            }
            SetAction::Community { comms, additive } => {
                for (i, c) in self.universe.communities().iter().enumerate() {
                    let listed = comms.contains(c);
                    let bit = &mut out.comm_bits_mut()[i];
                    if listed {
                        *bit = self.pool.tru();
                    } else if !*additive {
                        *bit = self.pool.fls();
                    }
                }
                if !additive {
                    out.comm_other = self.pool.fls();
                }
            }
            SetAction::DeleteCommunities(comms) => {
                for c in comms {
                    if let Some(i) = self.universe.community_index(*c) {
                        out.comm_bits_mut()[i] = self.pool.fls();
                    }
                }
            }
            SetAction::ClearCommunities => {
                for b in out.comm_bits_mut() {
                    *b = self.pool.fls();
                }
                out.comm_other = self.pool.fls();
            }
            SetAction::PrependAsPath(_) => {
                // The path changes, so every regex atom is refreshed to an
                // unconstrained boolean (sound over-approximation, D2).
                for i in 0..out.aspath_atoms().len() {
                    out.aspath_atoms_mut()[i] = self.fresh_bool(&format!("aspath{i}"));
                }
            }
            SetAction::NextHop(nh) => {
                out.next_hop = self.pool.bv_const(*nh as u64, 32);
            }
            SetAction::Origin(o) => {
                out.origin = self.pool.bv_const(o.code() as u64, 2);
            }
        }
        out
    }

    /// Encode a full route map over an input route.
    pub fn encode_route_map(&mut self, map: &RouteMap, input: &SymRoute) -> Transfer {
        self.encode_from(map, 0, input, false)
    }

    fn encode_from(
        &mut self,
        map: &RouteMap,
        idx: usize,
        route: &SymRoute,
        permitted: bool,
    ) -> Transfer {
        if idx >= map.entries.len() {
            // Off the end: implicit deny unless an earlier entry permitted
            // and continued.
            let reject = self.pool.bool_const(!permitted);
            return Transfer {
                reject,
                out: route.clone(),
            };
        }
        let entry = &map.entries[idx];
        let matches: Vec<TermId> = entry
            .matches
            .iter()
            .map(|m| self.encode_match(m, route))
            .collect();
        let hit = self.pool.and(&matches);

        // Not-taken branch: fall through to the next entry.
        let miss_t = self.encode_from(map, idx + 1, route, permitted);

        // Taken branch. A denied route's output is read nowhere, so a
        // deny leaves the output to the entries below it.
        let hit_t = match entry.action {
            Action::Deny => {
                let reject = self.pool.or2(hit, miss_t.reject);
                return Transfer {
                    reject,
                    out: miss_t.out,
                };
            }
            Action::Permit => {
                let mut transformed = route.clone();
                for s in &entry.sets {
                    transformed = self.encode_set(s, &transformed);
                }
                match &entry.continue_to {
                    None => Transfer {
                        reject: self.pool.fls(),
                        out: transformed,
                    },
                    Some(target) => {
                        let next_idx = match target {
                            None => idx + 1,
                            Some(seq) => match map.index_of_seq_at_least(*seq) {
                                Some(i) if i > idx => i,
                                // Backwards/missing continue target ends
                                // evaluation with an accept.
                                _ => map.entries.len(),
                            },
                        };
                        if next_idx >= map.entries.len() {
                            Transfer {
                                reject: self.pool.fls(),
                                out: transformed,
                            }
                        } else {
                            self.encode_from(map, next_idx, &transformed, true)
                        }
                    }
                }
            }
        };

        let reject = self.pool.ite(hit, hit_t.reject, miss_t.reject);
        let out = hit_t.out.merge(self.pool, hit, &miss_t.out);
        Transfer { reject, out }
    }

    /// Apply the ghost-attribute updates of a filter to an output route.
    pub fn apply_ghosts(
        &mut self,
        ghosts: &[GhostAttr],
        edge: EdgeId,
        is_import: bool,
        route: &SymRoute,
    ) -> SymRoute {
        let mut out = route.clone();
        for g in ghosts {
            let Some(gi) = self.universe.ghost_index(&g.name) else {
                continue;
            };
            let update = if is_import {
                g.import_update(edge)
            } else {
                g.export_update(edge)
            };
            match update {
                GhostUpdate::SetTrue => out.ghost_bits_mut()[gi] = self.pool.tru(),
                GhostUpdate::SetFalse => out.ghost_bits_mut()[gi] = self.pool.fls(),
                GhostUpdate::Unchanged => {}
            }
        }
        out
    }
}

/// Encode `Import(edge, r)` (`is_import`) or `Export(edge, r)`: the
/// edge's configured map in that direction (identity when absent)
/// followed by its ghost updates. Fresh variables are tagged
/// `imp{edge}` / `exp{edge}`.
pub fn encode_transfer(
    pool: &mut TermPool,
    universe: &Universe,
    policy: &Policy,
    ghosts: &[GhostAttr],
    edge: EdgeId,
    is_import: bool,
    input: &SymRoute,
) -> Transfer {
    let (map, dir) = if is_import {
        (policy.import_map(edge), "imp")
    } else {
        (policy.export_map(edge), "exp")
    };
    let mut enc = Encoder::new(pool, universe, format!("{dir}{}", edge.0));
    let t = match map {
        Some(m) => enc.encode_route_map(m, input),
        None => Transfer {
            reject: enc.pool.fls(),
            out: input.clone(),
        },
    };
    let out = enc.apply_ghosts(ghosts, edge, is_import, &t.out);
    Transfer {
        reject: t.reject,
        out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::routemap::RouteMapEntry;
    use bgp_model::{Community, PrefixRange, Route};
    use smt::{solve, SatResult};
    use std::collections::BTreeMap;

    fn c(s: &str) -> Community {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// Assert the symbolic transfer agrees with the concrete interpreter
    /// on the given route.
    fn agree(map: &RouteMap, route: &Route) {
        let mut u = Universe::new();
        u.scan_route_map(map);
        for cm in &route.communities {
            u.add_community(*cm);
        }
        let mut pool = TermPool::new();
        let sym = SymRoute::fresh(&mut pool, &u, "in");
        let pin = sym.equals_concrete(&mut pool, &u, route, &BTreeMap::new());
        let mut enc = Encoder::new(&mut pool, &u, "t");
        let tr = enc.encode_route_map(map, &sym);

        let expected = bgp_model::apply_route_map(map, route);
        match &expected {
            None => {
                // Must be rejected: pin && !reject unsat.
                let no_rej = pool.not(tr.reject);
                assert!(
                    !solve(&pool, &[pin, no_rej]).is_sat(),
                    "concrete rejects {route} but symbolic may accept\n{map}"
                );
            }
            Some(out) => {
                // Must be accepted: pin && reject unsat.
                assert!(
                    !solve(&pool, &[pin, tr.reject]).is_sat(),
                    "concrete accepts {route} but symbolic may reject\n{map}"
                );
                // Output attributes must match (ignore as-path; D2).
                match solve(&pool, &[pin]) {
                    SatResult::Sat(m) => {
                        let got = tr.out.concretize(&pool, &u, &m);
                        assert_eq!(got.route.prefix, out.prefix, "prefix\n{map}");
                        assert_eq!(got.route.local_pref, out.local_pref, "lp\n{map}");
                        assert_eq!(got.route.med, out.med, "med\n{map}");
                        assert_eq!(got.route.next_hop, out.next_hop, "nh\n{map}");
                        assert_eq!(got.route.origin, out.origin, "origin\n{map}");
                        // Compare in-universe communities only.
                        for (i, cm) in u.communities().iter().enumerate() {
                            let sym_has =
                                m.eval_bool(&pool, tr.out.comm_bits()[i]).unwrap_or(false);
                            assert_eq!(sym_has, out.has_community(*cm), "community {cm}\n{map}");
                        }
                    }
                    SatResult::Unsat => panic!("pin must be sat"),
                }
            }
        }
    }

    #[test]
    fn empty_map_rejects_everything() {
        let map = RouteMap::new("EMPTY");
        agree(&map, &Route::new(p("10.0.0.0/8")));
    }

    #[test]
    fn permit_all_is_identity() {
        let map = RouteMap::permit_all("ALL");
        agree(&map, &Route::new(p("10.0.0.0/8")).with_local_pref(77));
    }

    #[test]
    fn sets_apply() {
        let mut map = RouteMap::new("S");
        map.push(
            RouteMapEntry::permit(10)
                .setting(SetAction::LocalPref(200))
                .setting(SetAction::Med(5))
                .setting(SetAction::NextHop(42))
                .setting(SetAction::Community {
                    comms: vec![c("9:9")],
                    additive: true,
                }),
        );
        agree(&map, &Route::new(p("10.0.0.0/8")).with_community(c("1:1")));
        // Symbolically too, however wide the universe the tag is
        // threaded through: an accepted route always carries 9:9.
        for width in [4u16, 32, 128] {
            let mut u = Universe::new();
            for i in 0..width {
                u.add_community(Community::new(1, i));
            }
            u.add_community(c("9:9"));
            let mut pool = TermPool::new();
            let r = SymRoute::fresh(&mut pool, &u, "r");
            let t = Encoder::new(&mut pool, &u, "b").encode_route_map(&map, &r);
            let tagged = t.out.has_community(&u, c("9:9"));
            let untagged = pool.not(tagged);
            let accepted = pool.not(t.reject);
            assert!(
                !solve(&pool, &[accepted, untagged]).is_sat(),
                "width {width}"
            );
        }
    }

    #[test]
    fn community_replace_clears_other() {
        let mut map = RouteMap::new("S");
        map.push(RouteMapEntry::permit(10).setting(SetAction::Community {
            comms: vec![c("9:9")],
            additive: false,
        }));
        agree(&map, &Route::new(p("10.0.0.0/8")).with_community(c("1:1")));
    }

    #[test]
    fn prefix_list_match() {
        let mut map = RouteMap::new("M");
        map.push(
            RouteMapEntry::permit(10).matching(MatchCond::PrefixList(vec![
                (false, PrefixRange::exact(p("10.1.0.0/16"))),
                (true, PrefixRange::orlonger(p("10.0.0.0/8"))),
            ])),
        );
        for r in ["10.1.0.0/16", "10.2.0.0/16", "10.0.0.0/8", "11.0.0.0/8"] {
            agree(&map, &Route::new(p(r)));
        }
    }

    #[test]
    fn community_list_first_match_wins() {
        let mut map = RouteMap::new("M");
        map.push(
            RouteMapEntry::permit(10).matching(MatchCond::CommunityList {
                entries: vec![(false, vec![c("1:1"), c("2:2")]), (true, vec![c("1:1")])],
                exact: false,
            }),
        );
        agree(&map, &Route::new(p("1.0.0.0/8")).with_community(c("1:1")));
        agree(
            &map,
            &Route::new(p("1.0.0.0/8"))
                .with_community(c("1:1"))
                .with_community(c("2:2")),
        );
        agree(&map, &Route::new(p("1.0.0.0/8")));
    }

    #[test]
    fn exact_match_community_list() {
        let mut map = RouteMap::new("M");
        map.push(
            RouteMapEntry::permit(10).matching(MatchCond::CommunityList {
                entries: vec![(true, vec![c("1:1")])],
                exact: true,
            }),
        );
        agree(&map, &Route::new(p("1.0.0.0/8")).with_community(c("1:1")));
        agree(
            &map,
            &Route::new(p("1.0.0.0/8"))
                .with_community(c("1:1"))
                .with_community(c("3:3")), // extra in-universe comm
        );
        agree(&map, &Route::new(p("1.0.0.0/8")));
    }

    #[test]
    fn continue_threading() {
        let mut map = RouteMap::new("M");
        map.push(
            RouteMapEntry::permit(10)
                .setting(SetAction::Med(50))
                .continuing(None),
        );
        map.push(
            RouteMapEntry::permit(20)
                .matching(MatchCond::Med(50))
                .setting(SetAction::LocalPref(999)),
        );
        agree(&map, &Route::new(p("1.0.0.0/8")).with_med(7));
    }

    #[test]
    fn deny_after_continue() {
        let mut map = RouteMap::new("M");
        map.push(RouteMapEntry::permit(10).continuing(None));
        map.push(RouteMapEntry::deny(20));
        agree(&map, &Route::new(p("1.0.0.0/8")));
    }

    #[test]
    fn med_lp_matches() {
        let mut map = RouteMap::new("M");
        map.push(
            RouteMapEntry::permit(10)
                .matching(MatchCond::Med(5))
                .matching(MatchCond::LocalPref(100)),
        );
        agree(&map, &Route::new(p("1.0.0.0/8")).with_med(5));
        agree(&map, &Route::new(p("1.0.0.0/8")).with_med(6));
        agree(
            &map,
            &Route::new(p("1.0.0.0/8")).with_med(5).with_local_pref(99),
        );
    }

    #[test]
    fn set_origin_agrees() {
        use bgp_model::route::Origin;
        let mut map = RouteMap::new("O");
        map.push(RouteMapEntry::permit(10).setting(SetAction::Origin(Origin::Egp)));
        agree(&map, &Route::new(p("10.0.0.0/8")));
        agree(&map, &Route::new(p("10.0.0.0/8")).with_origin(Origin::Igp));
    }

    #[test]
    fn ghost_updates_wrap_transfer() {
        let mut u = Universe::new();
        u.add_ghost("G");
        let mut pool = TermPool::new();
        let sym = SymRoute::fresh(&mut pool, &u, "in");
        let g = GhostAttr::new("G").with_import(EdgeId(5), GhostUpdate::SetTrue);
        let (pol, ghosts) = (Policy::new(), std::slice::from_ref(&g));
        let t = encode_transfer(&mut pool, &u, &pol, ghosts, EdgeId(5), true, &sym);
        // Output ghost bit must be true regardless of input.
        let not_set = pool.not(t.out.ghost_bits()[0]);
        assert!(!solve(&pool, &[not_set]).is_sat());

        // On a different edge, or exporting, the bit is unchanged.
        for (edge, is_import) in [(EdgeId(6), true), (EdgeId(5), false)] {
            let t2 = encode_transfer(&mut pool, &u, &pol, ghosts, edge, is_import, &sym);
            let differs = pool.iff(t2.out.ghost_bits()[0], sym.ghost_bits()[0]);
            let differs = pool.not(differs);
            assert!(!solve(&pool, &[differs]).is_sat());
        }
    }
}
