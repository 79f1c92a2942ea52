//! The seeded time-to-verdict benchmark for the Lightyear reproduction.
//!
//! One **op** is one verification request, timed from configuration text
//! in memory (on disk for the CLI workload) to the rendered, timing-free
//! report JSON: `bgp_config::parse_config` → `bgp_config::lower` →
//! `lightyear::Verifier` / `ReverifyEngine` → `api::PropertyReport` →
//! `serde_json::to_string`. The harness is single-threaded and
//! closed-loop: the next op starts when the previous verdict has been
//! checked. See `README.md` for the workloads and the metric glossary.

pub mod cli;
pub mod host;
pub mod ledger;
pub mod render;
pub mod seed;
pub mod spans;
pub mod stats;
pub mod wan;
pub mod zoo;

use spans::Tracer;
use std::collections::BTreeMap;
use std::time::Duration;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["zoo-homog", "zoo-hetero", "wan-edits", "wan-faulty-cli"];

/// Where raw records, traces and the CLI workload's config directories
/// go, relative to the checkout root the command is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// Threads the verifier's own pool may use where a workload says so.
pub fn pool_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The answer an op must give, known from how its input was built and
/// never from the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Generator output (and anything that only drops more routes)
    /// verifies.
    Pass,
    /// An injected `netgen::mutate` bug fails, at the filter it broke.
    Fail {
        /// `InjectedBug::router`.
        router: String,
        /// `InjectedBug::route_map`, under its current name.
        route_map: String,
    },
}

impl Expect {
    /// Compare rendered reports with the known answer.
    pub fn check(&self, reports: &[api::PropertyReport]) -> Result<(), String> {
        let failures: Vec<&api::FailureDoc> = reports.iter().flat_map(|r| &r.failures).collect();
        if reports.iter().any(|r| r.passed != r.failures.is_empty()) {
            return Err("a report's verdict disagrees with its failure list".into());
        }
        match self {
            Expect::Pass => match failures.first() {
                None => Ok(()),
                Some(f) => Err(format!(
                    "expected PASS, got a {} failure at {}",
                    f.kind, f.location
                )),
            },
            Expect::Fail { router, route_map } => {
                if failures.is_empty() {
                    return Err(format!("expected FAIL at {router}/{route_map}, got PASS"));
                }
                for f in failures {
                    let at_router = f.location.split("->").any(|n| n.trim() == router);
                    if !at_router || f.route_map.as_deref() != Some(route_map) {
                        return Err(format!(
                            "expected blame on {router}/{route_map}, got {} / {:?}",
                            f.location, f.route_map
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// What one op produced.
pub struct OpResult {
    /// Wall time of the timed path only (input generation excluded).
    pub wall: Duration,
    /// Local checks the reports cover.
    pub checks: u64,
    /// Op class, for the raw records (`variant3`, `cosmetic`, `bug`, ...).
    pub kind: String,
    /// Identity of the input when the same input recurs within a run;
    /// its report bytes must then recur too.
    pub input: Option<u64>,
    /// The rendered, timing-free report JSON.
    pub report: String,
    /// `Err` says how verdict, blame or dirty set differ from the known
    /// answer, or that the op itself errored.
    pub answer: Result<(), String>,
    /// Per-op counts and sizes read from reports and statistics structs.
    pub counts: Vec<(String, f64)>,
    /// The program's own counters and gauges for this op when they come
    /// from a child process; in-process workloads leave this `None` and
    /// the runner reads the `obs` registry's delta instead.
    pub child_metrics: Option<ProgramMetrics>,
}

/// What the program's `obs` registry counted during one op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramMetrics {
    /// Counter increments during the op.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels after the op.
    pub gauges: BTreeMap<String, u64>,
}

/// A workload after set-up.
pub trait Workload {
    /// Generate the next input (untimed), run the timed path through
    /// `tr`, and compare the verdict with the known answer.
    fn op(&mut self, tr: &mut Tracer) -> OpResult;

    /// Digest of the inputs generated so far; a pure function of the
    /// seed.
    fn input_digest(&self) -> seed::Digest;

    /// Untimed checks after the last op; each string is one failure.
    fn cross_check(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Untimed end-of-run measurements (traced runs only), as extra
    /// per-layer metrics.
    fn finish(&mut self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Peak resident set of the verifying process in kB. The default is
    /// this process; the CLI workload reports its children instead.
    fn peak_rss_kb(&self) -> u64 {
        obs::peak_rss_kb()
    }
}

/// Set a workload up from a seed.
pub fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match workload {
        "zoo-homog" => Ok(Box::new(zoo::Zoo::homog(seed))),
        "zoo-hetero" => Ok(Box::new(zoo::Zoo::hetero(seed))),
        "wan-edits" => Ok(Box::new(wan::Edits::new(seed, wan::full_size()))),
        "wan-faulty-cli" => cli::FaultyCli::new(seed).map(|w| Box::new(w) as Box<dyn Workload>),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(failures: Vec<(&str, &str)>) -> api::PropertyReport {
        api::PropertyReport {
            property: "p".into(),
            liveness: false,
            passed: failures.is_empty(),
            checks: 3,
            timing: None,
            failures: failures
                .into_iter()
                .map(|(location, map)| api::FailureDoc {
                    kind: "import".into(),
                    location: location.into(),
                    route_map: Some(map.into()),
                    description: String::new(),
                })
                .collect(),
            cores: Vec::new(),
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let small_wan = netgen::wan::WanParams {
            regions: 2,
            routers_per_region: 2,
            edge_routers: 2,
            peers_per_edge: 2,
            seed: 0,
        };
        let digests = |seed: u64| {
            let mut edits = wan::Edits::new(seed, small_wan);
            let before = edits.input_digest();
            for _ in 0..20 {
                edits.op(&mut Tracer::new(false));
            }
            [
                zoo::Zoo::corpus(seed, "Kdl", 24, false).input_digest(),
                zoo::Zoo::corpus(seed, "Cogentco", 24, true).input_digest(),
                before,
                edits.input_digest(),
                cli::digest(&cli::generate(seed, small_wan, 8)),
            ]
        };
        let (a, again, b) = (digests(1), digests(1), digests(2));
        assert_eq!(a, again, "the same seed yields the same inputs");
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y, "two seeds yield different inputs");
        }
    }

    #[test]
    fn known_answers_compare_verdict_and_blame() {
        let bug = Expect::Fail {
            router: "EDGE1".into(),
            route_map: "FROM-PEER2".into(),
        };
        let pass = [report(vec![])];
        let blamed = [
            report(vec![]),
            report(vec![("PEER1-2 -> EDGE1", "FROM-PEER2")]),
        ];
        let elsewhere = [report(vec![("PEER1-2 -> EDGE10", "FROM-PEER2")])];
        let other_map = [report(vec![("PEER1-2 -> EDGE1", "FROM-PEER3")])];
        assert!(Expect::Pass.check(&pass).is_ok());
        assert!(Expect::Pass.check(&blamed).is_err());
        assert!(bug.check(&blamed).is_ok());
        assert!(bug.check(&pass).is_err());
        assert!(bug.check(&elsewhere).is_err());
        assert!(bug.check(&other_map).is_err());
    }
}
