//! The disk form of a [`CheckCache`]: its passing verdicts, rendered
//! through the shared [`api::SpilledCheck`] schema under the fingerprint
//! version their keys were derived with.
//!
//! Only passes spill. A pass replays soundly under an equal fingerprint
//! (equal fingerprints mean bit-identical formulas), while a failure's
//! counterexample is re-derived on its check's one-shot instance by
//! every process that reports it; so a spill never puts a failure into
//! a cache, and a warm run re-solves exactly its failing classes.

use super::solve::SolvedCheck;
use super::CheckCache;
use crate::check::CheckResult;
use crate::fingerprint::FP_VERSION;
use serde_json::Value;
use smt::SolverStats;
use std::path::Path;
use std::sync::Arc;

impl SolvedCheck {
    /// The spill text of a pass, streamed straight from the verdict; a
    /// failure has none.
    fn spill_text(&self) -> Option<String> {
        if !self.result.passed() {
            return None;
        }
        let mut out = serde_json::Serializer::new(String::new());
        let (vars, clauses) = (self.stats.num_vars, self.stats.num_clauses);
        api::SpilledCheck::stream_pass(&mut out, vars, clauses, self.core.as_deref());
        Some(out.into_inner())
    }

    /// Decode a spilled pass. Anything else — an old spill's
    /// `"pass": false` entry among them — decodes to nothing.
    fn from_spill(v: &Value) -> Option<Self> {
        let api::SpilledCheck {
            vars,
            clauses,
            core,
        } = api::SpilledCheck::from_value(v)?;
        Some(SolvedCheck {
            result: CheckResult::Pass,
            stats: SolverStats {
                num_vars: vars,
                num_clauses: clauses,
                ..SolverStats::default()
            },
            core,
        })
    }
}

/// Load the passes spilled to `dir` by [`save_check_cache`] into a new
/// cache. Returns the cache and the number of entries it holds (zero
/// when the directory or file does not exist yet).
pub fn load_pass_cache(dir: &Path) -> std::io::Result<(Arc<CheckCache>, usize)> {
    load_pass_cache_bounded(dir, None)
}

/// [`load_pass_cache`] with an optional LRU entry bound (`verify
/// --cache-cap`; `None`: unbounded). When the spill holds more entries than
/// the bound, the excess is evicted least-recently-loaded-first, and the
/// count returned is what the cache holds after the load.
pub fn load_pass_cache_bounded(
    dir: &Path,
    capacity: Option<usize>,
) -> std::io::Result<(Arc<CheckCache>, usize)> {
    let cache = Arc::new(match capacity {
        Some(cap) => CheckCache::bounded(cap),
        None => CheckCache::new(),
    });
    cache.load_from_dir(dir, FP_VERSION, SolvedCheck::from_spill)?;
    let held = cache.len();
    Ok((cache, held))
}

/// Spill the passing verdicts of a [`CheckCache`] to `dir/cache.json`.
/// Returns the number of entries written.
pub fn save_check_cache(cache: &CheckCache, dir: &Path) -> std::io::Result<usize> {
    cache.save_to_dir(dir, FP_VERSION, SolvedCheck::spill_text)
}
