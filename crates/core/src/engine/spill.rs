//! The disk form of a [`CheckCache`]: [`SolvedCheck`]s rendered through
//! the shared [`api::SpilledCheck`] schema under the fingerprint
//! version their keys were derived with.

use super::solve::SolvedCheck;
use super::CheckCache;
use crate::check::{CheckResult, Counterexample};
use crate::fingerprint::FP_VERSION;
use crate::symbolic::ConcreteRoute;
use serde::{Deserialize, Serialize, Sink};
use serde_json::Value;
use smt::SolverStats;
use std::path::Path;
use std::sync::Arc;

/// The spill encoding of the disk cache: the shared
/// [`api::SpilledCheck`] schema, streamed straight from the verdict. Both
/// passes and failures are durable; a failure carries its
/// counterexample, which is **re-validated** against the live
/// configuration before the cached verdict is trusted (see
/// `Verifier::cached_result_still_valid`), so warm runs no longer
/// re-prove every failure yet can never replay a stale one.
impl Serialize for SolvedCheck {
    fn stream<S: Sink>(&self, out: &mut S) {
        let (vars, clauses) = (self.stats.num_vars, self.stats.num_clauses);
        match &self.result {
            CheckResult::Pass => {
                api::SpilledCheck::stream_pass(out, vars, clauses, self.core.as_deref())
            }
            CheckResult::Fail(cex) => api::SpilledCheck::stream_fail(
                out,
                vars,
                clauses,
                cex.rejected,
                &cex.input,
                cex.output.as_ref(),
            ),
        }
    }
}

impl SolvedCheck {
    /// Decode the spill form its [`Serialize::stream`] writes.
    pub fn from_spill(v: &Value) -> Option<Self> {
        match api::SpilledCheck::from_value(v)? {
            api::SpilledCheck::Pass {
                vars,
                clauses,
                core,
            } => Some(SolvedCheck {
                result: CheckResult::Pass,
                stats: SolverStats {
                    num_vars: vars,
                    num_clauses: clauses,
                    ..SolverStats::default()
                },
                core,
            }),
            api::SpilledCheck::Fail {
                vars,
                clauses,
                rejected,
                input,
                output,
            } => {
                let input = ConcreteRoute::from_value(&input).ok()?;
                let output = if output.is_null() {
                    None
                } else {
                    Some(ConcreteRoute::from_value(&output).ok()?)
                };
                Some(SolvedCheck {
                    result: CheckResult::Fail(Box::new(Counterexample {
                        input,
                        output,
                        rejected,
                    })),
                    stats: SolverStats {
                        num_vars: vars,
                        num_clauses: clauses,
                        ..SolverStats::default()
                    },
                    core: None,
                })
            }
        }
    }
}

/// Load a [`CheckCache`] spilled to `dir` by [`save_check_cache`].
/// Returns the cache and the number of entries loaded (zero when the
/// directory or file does not exist yet).
pub fn load_check_cache(dir: &Path) -> std::io::Result<(Arc<CheckCache>, usize)> {
    load_check_cache_bounded(dir, None)
}

/// [`load_check_cache`] with an optional LRU entry bound for long-lived
/// processes (`None`: unbounded). When the spill holds more entries than
/// the bound, the excess is evicted least-recently-loaded-first.
pub fn load_check_cache_bounded(
    dir: &Path,
    capacity: Option<usize>,
) -> std::io::Result<(Arc<CheckCache>, usize)> {
    let cache = Arc::new(match capacity {
        Some(cap) => CheckCache::bounded(cap),
        None => CheckCache::new(),
    });
    let loaded = cache.load_from_dir(dir, FP_VERSION, SolvedCheck::from_spill)?;
    Ok((cache, loaded))
}

/// Spill a [`CheckCache`] to `dir/cache.json` (passes and failures; see
/// the [`SolvedCheck`] `Serialize` impl). Returns the number of entries
/// written.
pub fn save_check_cache(cache: &CheckCache, dir: &Path) -> std::io::Result<usize> {
    cache.save_to_dir(dir, FP_VERSION, |s| serde_json::to_string(s).ok())
}

/// Load a [`CheckCache`] keeping only **passing** entries. This is the
/// trust level a [`crate::reverify::ReverifyEngine`] extends to a spilled
/// cache on daemon restart: equal fingerprints mean bit-identical
/// formulas, so replaying a pass is sound, while a spilled failure's
/// counterexample would be replayed without the run pipeline's
/// re-validation — so failures are dropped and simply re-proved.
pub fn load_pass_cache(dir: &Path) -> std::io::Result<(Arc<CheckCache>, usize)> {
    let cache = Arc::new(CheckCache::new());
    let loaded = cache.load_from_dir(dir, FP_VERSION, |v| {
        SolvedCheck::from_spill(v).filter(|s| s.result.passed())
    })?;
    Ok((cache, loaded))
}
