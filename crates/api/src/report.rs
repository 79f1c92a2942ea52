//! The report document schema: one serializer for every surface that
//! renders verification results — `verify --json`, the reverify round
//! reports of `watch`/`plan`/`serve`, and the on-disk result-cache
//! spill. Field names, order, and value types are part of the wire
//! contract; the `verify --json` rendering is pinned byte-for-byte by
//! the golden test in `crates/cli/tests/golden.rs`.
//!
//! Each document states its fields once, as a [`Serialize::stream`]
//! body. Serialising a document (`serde_json::to_string(&doc)`) runs
//! that description straight into the text writer; `to_value()` runs
//! the same description into the tree-building sink, so the two
//! renderings cannot disagree on names or order.

use serde::{build_value, Serialize, Sink};
use serde_json::Value;

/// One failing check, as rendered in a report's `failures` array.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureDoc {
    /// Check kind (`import` / `export` / `originate` / `subsumption` /
    /// `propagation` / `no-interference`).
    pub kind: String,
    /// Human-readable location (`"A -> B"` or a router name).
    pub location: String,
    /// The route-map involved, when the check has one.
    pub route_map: Option<String>,
    /// The check's one-line description.
    pub description: String,
}

impl Serialize for FailureDoc {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("kind", &self.kind);
        out.field("location", &self.location);
        out.field("route_map", &self.route_map);
        out.field("description", &self.description);
        out.end_object();
    }
}

impl FailureDoc {
    /// Render in the pinned field order.
    pub fn to_value(&self) -> Value {
        build_value(self)
    }

    /// Decode the [`FailureDoc::to_value`] form.
    pub fn from_value(v: &Value) -> Option<FailureDoc> {
        Some(FailureDoc {
            kind: v["kind"].as_str()?.to_string(),
            location: v["location"].as_str()?.to_string(),
            route_map: v["route_map"].as_str().map(str::to_string),
            description: v["description"].as_str()?.to_string(),
        })
    }
}

/// Core-based blame for one passing check: which invariant conjuncts
/// its UNSAT proof actually needed.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreDoc {
    /// Check id within its property's report.
    pub check: u64,
    /// Check kind.
    pub kind: String,
    /// Human-readable location.
    pub location: String,
    /// Indices of the load-bearing conjuncts.
    pub core: Vec<u64>,
    /// The load-bearing conjuncts, rendered.
    pub load_bearing: Vec<String>,
    /// Total conjuncts the invariant at this location has.
    pub conjuncts: u64,
}

impl Serialize for CoreDoc {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("check", &self.check);
        out.field("kind", &self.kind);
        out.field("location", &self.location);
        out.field("core", &self.core);
        out.field("load_bearing", &self.load_bearing);
        out.field("conjuncts", &self.conjuncts);
        out.end_object();
    }
}

impl CoreDoc {
    /// Render in the pinned field order.
    pub fn to_value(&self) -> Value {
        build_value(self)
    }

    /// Decode the [`CoreDoc::to_value`] form.
    pub fn from_value(v: &Value) -> Option<CoreDoc> {
        Some(CoreDoc {
            check: v["check"].as_u64()?,
            kind: v["kind"].as_str()?.to_string(),
            location: v["location"].as_str()?.to_string(),
            core: v["core"]
                .as_array()?
                .iter()
                .map(|x| x.as_u64())
                .collect::<Option<_>>()?,
            load_bearing: v["load_bearing"]
                .as_array()?
                .iter()
                .map(|x| x.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            conjuncts: v["conjuncts"].as_u64()?,
        })
    }
}

/// Wall-clock/solver statistics of a one-shot run. Carried by `verify
/// --json` safety entries; omitted (`None` on [`PropertyReport`]) by
/// liveness entries and by the daemon's stored reports, which must be
/// byte-stable across runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingDoc {
    /// Real solver invocations.
    pub solver_calls: u64,
    /// Wall-clock seconds of the whole run.
    pub total_seconds: f64,
    /// Seconds spent inside the solver.
    pub solve_seconds: f64,
}

/// One property's verification report — safety or liveness, one-shot
/// (`verify`) or re-verified (`watch`/`plan`/`serve`). The single
/// rendering of results every surface shares.
#[derive(Clone, Debug, PartialEq)]
pub struct PropertyReport {
    /// Property display name.
    pub property: String,
    /// Liveness properties carry a `"kind": "liveness"` marker field.
    pub liveness: bool,
    /// Whether every check passed.
    pub passed: bool,
    /// Total checks generated.
    pub checks: u64,
    /// Solver statistics, when the surface reports them.
    pub timing: Option<TimingDoc>,
    /// Failing checks.
    pub failures: Vec<FailureDoc>,
    /// Core-based blame of passing checks.
    pub cores: Vec<CoreDoc>,
}

impl Serialize for PropertyReport {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("property", &self.property);
        if self.liveness {
            out.field("kind", "liveness");
        }
        out.field("passed", &self.passed);
        out.field("checks", &self.checks);
        if let Some(t) = &self.timing {
            out.field("solver_calls", &t.solver_calls);
            out.field("total_seconds", &t.total_seconds);
            out.field("solve_seconds", &t.solve_seconds);
        }
        out.field("failures", &self.failures);
        out.field("cores", &self.cores);
        out.end_object();
    }
}

impl PropertyReport {
    /// Render in the pinned field order: `property`, \[`"kind"`\],
    /// `passed`, `checks`, \[`solver_calls`, `total_seconds`,
    /// `solve_seconds`\], `failures`, `cores`.
    pub fn to_value(&self) -> Value {
        build_value(self)
    }

    /// Decode the [`PropertyReport::to_value`] form.
    pub fn from_value(v: &Value) -> Option<PropertyReport> {
        let timing = match (
            v.get("solver_calls"),
            v.get("total_seconds"),
            v.get("solve_seconds"),
        ) {
            (Some(c), Some(t), Some(s)) => Some(TimingDoc {
                solver_calls: c.as_u64()?,
                total_seconds: t.as_f64()?,
                solve_seconds: s.as_f64()?,
            }),
            _ => None,
        };
        Some(PropertyReport {
            property: v["property"].as_str()?.to_string(),
            liveness: v.get("kind").and_then(Value::as_str) == Some("liveness"),
            passed: v["passed"].as_bool()?,
            checks: v["checks"].as_u64()?,
            timing,
            failures: v["failures"]
                .as_array()?
                .iter()
                .map(FailureDoc::from_value)
                .collect::<Option<_>>()?,
            cores: v["cores"]
                .as_array()?
                .iter()
                .map(CoreDoc::from_value)
                .collect::<Option<_>>()?,
        })
    }
}

/// The orchestrator-statistics entry appended to `verify --json`
/// output when the run was parallel.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecDoc {
    /// The human-readable one-line summary.
    pub summary: String,
    /// Checks generated.
    pub generated: u64,
    /// Real solver invocations.
    pub solver_calls: u64,
    /// Checks answered by structural dedup.
    pub dedup_hits: u64,
    /// Checks answered from the cross-run cache.
    pub cache_hits: u64,
    /// Cached entries invalidated by re-validation.
    pub stale_cache_entries: u64,
    /// Incremental session groups.
    pub groups: u64,
    /// Warm assumption solves on those sessions.
    pub warm_assumption_solves: u64,
    /// solver_calls / generated.
    pub dedup_ratio: f64,
    /// Worker threads.
    pub threads: u64,
}

impl Serialize for ExecDoc {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("orchestrator", &self.summary);
        out.field("generated", &self.generated);
        out.field("solver_calls", &self.solver_calls);
        out.field("dedup_hits", &self.dedup_hits);
        out.field("cache_hits", &self.cache_hits);
        out.field("stale_cache_entries", &self.stale_cache_entries);
        out.field("groups", &self.groups);
        out.field("warm_assumption_solves", &self.warm_assumption_solves);
        out.field("dedup_ratio", &self.dedup_ratio);
        out.field("threads", &self.threads);
        out.end_object();
    }
}

impl ExecDoc {
    /// Render in the pinned field order.
    pub fn to_value(&self) -> Value {
        build_value(self)
    }
}

/// The on-disk spill encoding of one solved check — the schema behind
/// `crates/core`'s result-cache files (`cache.json`). Passes carry
/// their optional unsat core; failures carry the counterexample routes
/// as opaque values (the route encoding belongs to `crates/core`).
#[derive(Clone, Debug, PartialEq)]
pub enum SpilledCheck {
    /// A passing check.
    Pass {
        /// Solver variable count of the one real invocation.
        vars: u64,
        /// Solver clause count.
        clauses: u64,
        /// Conjunct-index unsat core, for session-solved passes.
        core: Option<Vec<usize>>,
    },
    /// A failing check with its counterexample.
    Fail {
        /// Solver variable count.
        vars: u64,
        /// Solver clause count.
        clauses: u64,
        /// Whether the counterexample output was a rejection.
        rejected: bool,
        /// The counterexample input route (opaque to this crate).
        input: Value,
        /// The counterexample output route, or `Null`.
        output: Value,
    },
}

impl Serialize for SpilledCheck {
    fn to_value(&self) -> Value {
        build_value(self)
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        match self {
            SpilledCheck::Pass {
                vars,
                clauses,
                core,
            } => {
                out.field("pass", &true);
                out.field("vars", vars);
                out.field("clauses", clauses);
                if let Some(core) = core {
                    out.field("core", core);
                }
            }
            SpilledCheck::Fail {
                vars,
                clauses,
                rejected,
                input,
                output,
            } => {
                out.field("pass", &false);
                out.field("vars", vars);
                out.field("clauses", clauses);
                out.field("rejected", rejected);
                out.field("input", input);
                out.field("output", output);
            }
        }
        out.end_object();
    }
}

impl SpilledCheck {
    /// Render in the pinned spill field order: `pass`, `vars`,
    /// `clauses`, then `core` (passes) or `rejected`, `input`,
    /// `output` (failures).
    pub fn to_value(&self) -> Value {
        build_value(self)
    }

    /// Decode the [`SpilledCheck::to_value`] form. Missing `vars` /
    /// `clauses` decode as zero (older spills); a missing or malformed
    /// `pass` field is a schema error (`None`).
    pub fn from_value(v: &Value) -> Option<SpilledCheck> {
        let vars = v["vars"].as_u64().unwrap_or(0);
        let clauses = v["clauses"].as_u64().unwrap_or(0);
        match v["pass"].as_bool()? {
            true => Some(SpilledCheck::Pass {
                vars,
                clauses,
                core: v["core"].as_array().map(|xs| {
                    xs.iter()
                        .filter_map(|x| x.as_u64().map(|n| n as usize))
                        .collect()
                }),
            }),
            false => Some(SpilledCheck::Fail {
                vars,
                clauses,
                rejected: v["rejected"].as_bool()?,
                input: v["input"].clone(),
                output: v["output"].clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_report_field_order_is_pinned() {
        let r = PropertyReport {
            property: "p".into(),
            liveness: false,
            passed: true,
            checks: 3,
            timing: Some(TimingDoc {
                solver_calls: 3,
                total_seconds: 0.0,
                solve_seconds: 0.0,
            }),
            failures: vec![],
            cores: vec![CoreDoc {
                check: 0,
                kind: "import".into(),
                location: "A -> B".into(),
                core: vec![1],
                load_bearing: vec!["x".into()],
                conjuncts: 2,
            }],
        };
        let text = serde_json::to_string(&r.to_value()).unwrap();
        assert_eq!(
            text,
            r#"{"property":"p","passed":true,"checks":3,"solver_calls":3,"total_seconds":0.0,"solve_seconds":0.0,"failures":[],"cores":[{"check":0,"kind":"import","location":"A -> B","core":[1],"load_bearing":["x"],"conjuncts":2}]}"#
        );
        let back = PropertyReport::from_value(&r.to_value()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn liveness_report_carries_kind_and_no_timing() {
        let r = PropertyReport {
            property: "l".into(),
            liveness: true,
            passed: false,
            checks: 1,
            timing: None,
            failures: vec![FailureDoc {
                kind: "subsumption".into(),
                location: "A".into(),
                route_map: None,
                description: "d".into(),
            }],
            cores: vec![],
        };
        let text = serde_json::to_string(&r.to_value()).unwrap();
        assert_eq!(
            text,
            r#"{"property":"l","kind":"liveness","passed":false,"checks":1,"failures":[{"kind":"subsumption","location":"A","route_map":null,"description":"d"}],"cores":[]}"#
        );
        let back = PropertyReport::from_value(&r.to_value()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn spill_roundtrips_both_verdicts() {
        let pass = SpilledCheck::Pass {
            vars: 10,
            clauses: 20,
            core: Some(vec![0, 2]),
        };
        assert_eq!(
            serde_json::to_string(&pass.to_value()).unwrap(),
            r#"{"pass":true,"vars":10,"clauses":20,"core":[0,2]}"#
        );
        assert_eq!(SpilledCheck::from_value(&pass.to_value()), Some(pass));

        let fail = SpilledCheck::Fail {
            vars: 1,
            clauses: 2,
            rejected: true,
            input: Value::Str("route".into()),
            output: Value::Null,
        };
        assert_eq!(
            serde_json::to_string(&fail.to_value()).unwrap(),
            r#"{"pass":false,"vars":1,"clauses":2,"rejected":true,"input":"route","output":null}"#
        );
        assert_eq!(SpilledCheck::from_value(&fail.to_value()), Some(fail));
        assert_eq!(SpilledCheck::from_value(&Value::Null), None);
    }
}
