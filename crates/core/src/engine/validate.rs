//! Re-validation of cached verdicts: a spilled failure is trusted only
//! once the live configuration has been shown to fail the same way.

use super::generate::{CheckBody, ResolvedCheck};
use super::solve::SolvedCheck;
use super::{timed, Verifier};
use crate::check::CheckResult;
use crate::universe::Universe;
use smt::SatResult;

impl<'a> Verifier<'a> {
    /// Re-validate a cached verdict before trusting it. Passes are
    /// trusted (equal fingerprints mean bit-identical formulas). A
    /// cached originate failure must be what the one originate
    /// evaluator says now. A symbolic failure is checked by pinning the
    /// counterexample's input route in a fresh encoding of the check and
    /// asking the solver whether it still violates the obligation —
    /// essentially unit propagation, far cheaper than an unconstrained
    /// solve. A stale or corrupt entry is rejected and the check
    /// re-proved.
    pub(crate) fn cached_result_still_valid(
        &self,
        universe: &Universe,
        rc: &ResolvedCheck,
        solved: &SolvedCheck,
    ) -> bool {
        obs::add("cache.validates", 1);
        timed("cache.validate_ns", || {
            let CheckResult::Fail(cex) = &solved.result else {
                return true;
            };
            if let CheckBody::Originate { edge, ensure } = rc.body {
                return self.run_originate(edge, ensure) == solved.result;
            }
            let q = self.one_shot(universe, &rc.body, Some(&cex.input));
            match smt::solve(&q.pool, &q.query) {
                SatResult::Unsat => false,
                // The input still violates — but the spilled *verdict
                // details* must also match what the live check does on
                // that input, or a forged entry could replay fabricated
                // output/rejection data.
                SatResult::Sat(model) => {
                    let (rejected, output) = q.effect(universe, &model);
                    rejected == cex.rejected && output == cex.output
                }
            }
        })
    }
}
