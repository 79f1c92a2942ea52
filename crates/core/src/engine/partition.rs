//! The fingerprint stage: partition a run's checks into classes of
//! structurally identical ones on small-integer class keys (see
//! [`crate::fingerprint`]), fingerprint each class once and key it by
//! the session its representative is solved on ([`Verifier::solve_key`]).

use super::generate::{CheckBody, ResolvedCheck};
use super::Verifier;
use crate::fingerprint::{universe_digest, ClassKey, FpParts};
use crate::invariants::NetworkInvariants;
use crate::safety::SafetyProperty;
use orchestrator::{Fingerprint, Structure};

/// A class of structurally identical checks as the solve stage takes
/// it: the class fingerprint (the cache key), the representative's
/// session key ([`Verifier::solve_key`]), the representative
/// and every member's position.
pub(crate) type Class<'c, 's> = Structure<&'c ResolvedCheck<'s>>;

/// The digests of one check (see [`Verifier::batch_digests`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckDigests {
    /// The check's class key: what the run partitions on.
    pub class: ClassKey,
    /// The check's fingerprint: the cache key, one per class.
    pub check: Fingerprint,
    /// Everything but the assumed invariant; `None` for originate checks.
    pub rest: Option<Fingerprint>,
    /// The edge's transfer relation alone; `None` off transfer checks.
    pub transfer: Option<Fingerprint>,
}

impl<'a> Verifier<'a> {
    /// The structural fingerprint of every check in the `(props, inv)`
    /// suite, indexed by check id. Checks with equal fingerprints pose
    /// bit-identical formulas and are answered by one solver call — the
    /// partition behind `RunStats::unique`.
    pub fn check_fingerprints(
        &self,
        props: &[SafetyProperty],
        inv: &NetworkInvariants,
    ) -> Vec<Fingerprint> {
        let digests = self.batch_digests(&[(props, inv)]).remove(0);
        digests.into_iter().map(|d| d.check).collect()
    }

    /// Introspection: every digest a batch run of `suites` derives per
    /// check, per suite and indexed by check id, from one part cache
    /// over the union universe — as [`Verifier::verify_safety_batch`]
    /// would. What a run dedups, caches and carries across rounds is
    /// read off these: equal `check` digests share one solve, and equal
    /// `rest` digests share conjunct cores.
    pub fn batch_digests(
        &self,
        suites: &[(&[SafetyProperty], &NetworkInvariants)],
    ) -> Vec<Vec<CheckDigests>> {
        let g = self.generate(self.universe(&[]), suites);
        let mut parts = FpParts::new(universe_digest(&g.universe), self.policy_digests());
        let mut digests = vec![Vec::new(); suites.len()];
        for (i, rc) in g.checks.iter().enumerate() {
            digests[g.suite_of(i)].push(CheckDigests {
                class: parts.class_key(&rc.body),
                check: parts.check(&rc.body),
                rest: parts.rest(&rc.body),
                transfer: match rc.body {
                    CheckBody::Symbolic { relation, .. } => relation.map(|r| parts.transfer(r)),
                    CheckBody::Originate { .. } => None,
                },
            });
        }
        digests
    }

    /// Partition `checks` — each with its index in the run, which
    /// [`Verifier::solve_key`] reads — into classes of structurally
    /// identical checks on their small-integer class ids
    /// ([`FpParts::class`]), first occurrence first, and fingerprint
    /// each class once. Members are positions in `checks`.
    pub(crate) fn partition<'c, 's>(
        &self,
        parts: &mut FpParts<'s>,
        checks: impl IntoIterator<Item = (usize, &'c ResolvedCheck<'s>)>,
    ) -> Vec<Class<'c, 's>> {
        // Per class id of `parts`: its index in `classes`, if seen.
        let mut seen: Vec<u32> = Vec::new();
        let mut classes: Vec<Class> = Vec::new();
        for (pos, (i, c)) in checks.into_iter().enumerate() {
            let id = parts.class(&c.body) as usize;
            if seen.len() <= id {
                seen.resize(id + 1, u32::MAX);
            }
            match seen[id] {
                u32::MAX => {
                    seen[id] = classes.len() as u32;
                    classes.push(Structure {
                        fp: parts.fingerprint(id as u32),
                        key: self.solve_key(i, c),
                        job: c,
                        members: vec![pos],
                    });
                }
                k => classes[k as usize].members.push(pos),
            }
        }
        classes
    }

    /// The session key check `i` of a run is solved under — the one
    /// place a group is decided. Checks with equal keys share everything
    /// but their assume/ensure predicates: the symbolic input route, its
    /// well-formedness constraint and their relation, if any. A check
    /// with a relation is keyed by the relation's interned id in
    /// [`crate::fingerprint::PolicyDigests`] (the base its class key
    /// carries), so every edge that shares a route-map + ghost-update
    /// relation is answered on one session that encodes it once. An
    /// originate check is keyed by its edge. All checks without a
    /// relation (subsumptions) share one encoding base, which would
    /// otherwise serialize every subsumption check of a multi-property
    /// run onto a single worker: that one unbounded group is spread over
    /// worker-count chunks by check index — session reuse within a
    /// chunk, parallelism across chunks. Never part of a fingerprint:
    /// grouping affects scheduling, not verdicts.
    pub(crate) fn solve_key(&self, i: usize, c: &ResolvedCheck) -> u64 {
        match c.body {
            CheckBody::Symbolic { relation: None, .. } => (3 << 40) | (i as u64 % self.jobs as u64),
            CheckBody::Symbolic { relation, .. } => {
                (1 << 40) | u64::from(self.policy_digests().relation_id(relation))
            }
            CheckBody::Originate { edge, .. } => (2 << 40) | u64::from(edge.0),
        }
    }
}
