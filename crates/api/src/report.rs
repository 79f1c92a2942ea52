//! The report document schema: one serializer for every surface that
//! renders verification results — `verify --json`, the reverify round
//! reports of `watch`/`plan`/`serve`, and the on-disk result-cache
//! spill. Field names, order, and value types are part of the wire
//! contract; the `verify --json` rendering is pinned byte-for-byte by
//! the golden test in `crates/cli/tests/golden.rs`.
//!
//! Each property entry's field order is stated once, as writers over
//! borrowed parts: the property head ([`PropertyHead`]), a failure and
//! a core. Two sources feed them. The owned documents
//! ([`PropertyReport`], [`FailureDoc`], [`CoreDoc`]) are what the
//! daemon stores and decodes; the borrowed rows ([`FailureRow`],
//! [`CoreRow`]) point into an engine summary, and `verify --json`
//! streams them without building a document. Every type here states
//! its JSON once, as its `Serialize::stream`: `serde_json::to_string`
//! runs it into the text writer and `serde_json::to_value` into the
//! tree-building sink, so no two renderings can disagree on names or
//! order.

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
    fn stream<S: Sink>(&self, out: &mut S) {
        write_failure(
            out,
            &self.kind,
            &self.location,
            &self.route_map,
            &self.description,
        );
    }
}

/// A failure entry's one field order, whatever owns its parts.
fn write_failure<S: Sink>(
    out: &mut S,
    kind: &str,
    location: &(impl Serialize + ?Sized),
    route_map: &(impl Serialize + ?Sized),
    description: &str,
) {
    out.begin_object();
    out.field("kind", kind);
    out.field("location", location);
    out.field("route_map", route_map);
    out.field("description", description);
    out.end_object();
}

impl FailureDoc {
    /// Decode the form [`Serialize::stream`] writes.
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
    fn stream<S: Sink>(&self, out: &mut S) {
        write_core(
            out,
            self.check,
            &self.kind,
            &self.location,
            &self.core,
            &self.load_bearing,
            self.conjuncts,
        );
    }
}

/// A core entry's one field order, whatever owns its parts.
fn write_core<S: Sink>(
    out: &mut S,
    check: u64,
    kind: &str,
    location: &(impl Serialize + ?Sized),
    core: &(impl Serialize + ?Sized),
    load_bearing: &(impl Serialize + ?Sized),
    conjuncts: u64,
) {
    out.begin_object();
    out.field("check", &check);
    out.field("kind", kind);
    out.field("location", location);
    out.field("core", core);
    out.field("load_bearing", load_bearing);
    out.field("conjuncts", &conjuncts);
    out.end_object();
}

impl CoreDoc {
    /// Decode the form [`Serialize::stream`] writes.
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
/// (`verify`) or re-verified (`watch`/`plan`/`serve`) — as an owned
/// document, for a surface that stores or decodes it. It streams
/// through [`write_property`], the one field order `verify --json`
/// also feeds from borrowed rows.
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
    fn stream<S: Sink>(&self, out: &mut S) {
        write_property(out, &self.head(), &self.failures, &self.cores);
    }
}

/// A property entry's fields before its two arrays, borrowed from
/// whatever holds them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PropertyHead<'a> {
    /// Property display name.
    pub property: &'a str,
    /// Liveness properties carry a `"kind": "liveness"` marker field.
    pub liveness: bool,
    /// Whether every check passed.
    pub passed: bool,
    /// Total checks generated.
    pub checks: u64,
    /// Solver statistics, when the surface reports them.
    pub timing: Option<TimingDoc>,
}

/// Stream one property entry in the pinned field order: `head`'s
/// fields, then `failures` and `cores`, each a sequence of failure or
/// core entries.
pub fn write_property<S: Sink>(
    out: &mut S,
    head: &PropertyHead,
    failures: &(impl Serialize + ?Sized),
    cores: &(impl Serialize + ?Sized),
) {
    out.begin_object();
    out.field("property", head.property);
    if head.liveness {
        out.field("kind", "liveness");
    }
    out.field("passed", &head.passed);
    out.field("checks", &head.checks);
    if let Some(t) = &head.timing {
        out.field("solver_calls", &t.solver_calls);
        out.field("total_seconds", &t.total_seconds);
        out.field("solve_seconds", &t.solve_seconds);
    }
    out.field("failures", failures);
    out.field("cores", cores);
    out.end_object();
}

/// A location's text in pieces that concatenate to it: a router name
/// and two empty pieces, or `["A", " -> ", "B"]` for an edge. Streams
/// as one string, without joining the pieces first.
pub type LocationPieces<'a> = [&'a str; 3];

/// Streams [`LocationPieces`] as the one string they spell.
struct Pieces<'a>(&'a LocationPieces<'a>);

impl Serialize for Pieces<'_> {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.str_pieces(self.0);
    }
}

/// A failing check's entry over borrowed parts. Streams the bytes of the
/// equal [`FailureDoc`].
#[derive(Clone, Copy, Debug)]
pub struct FailureRow<'a> {
    /// Check kind.
    pub kind: &'a str,
    /// Human-readable location, in pieces.
    pub location: LocationPieces<'a>,
    /// The route-map involved, when the check has one.
    pub route_map: Option<&'a str>,
    /// The check's one-line description.
    pub description: &'a str,
}

impl Serialize for FailureRow<'_> {
    fn stream<S: Sink>(&self, out: &mut S) {
        write_failure(
            out,
            self.kind,
            &Pieces(&self.location),
            &self.route_map,
            self.description,
        );
    }
}

impl FailureRow<'_> {
    /// The owned document this row streams as.
    pub fn to_doc(&self) -> FailureDoc {
        FailureDoc {
            kind: self.kind.to_string(),
            location: self.location.concat(),
            route_map: self.route_map.map(str::to_string),
            description: self.description.to_string(),
        }
    }
}

/// A passing check's blame entry over borrowed parts: the conjunct list
/// of the invariant the check assumed, and the core's indices into it.
/// Streams the bytes of the equal [`CoreDoc`].
#[derive(Clone, Copy, Debug)]
pub struct CoreRow<'a> {
    /// Check id within its property's report.
    pub check: usize,
    /// Check kind.
    pub kind: &'a str,
    /// Human-readable location, in pieces.
    pub location: LocationPieces<'a>,
    /// Indices of the load-bearing conjuncts.
    pub core: &'a [usize],
    /// Every conjunct of the assumed invariant, rendered; an index
    /// past the list names nothing.
    pub conjuncts: &'a [String],
}

impl CoreRow<'_> {
    /// The load-bearing conjuncts, in core order.
    fn load_bearing(&self) -> impl Iterator<Item = &String> {
        self.core.iter().filter_map(|&i| self.conjuncts.get(i))
    }

    /// The owned document this row streams as.
    pub fn to_doc(&self) -> CoreDoc {
        CoreDoc {
            check: self.check as u64,
            kind: self.kind.to_string(),
            location: self.location.concat(),
            core: self.core.iter().map(|&i| i as u64).collect(),
            load_bearing: self.load_bearing().cloned().collect(),
            conjuncts: self.conjuncts.len() as u64,
        }
    }
}

impl Serialize for CoreRow<'_> {
    fn stream<S: Sink>(&self, out: &mut S) {
        write_core(
            out,
            self.check as u64,
            self.kind,
            &Pieces(&self.location),
            self.core,
            &Rows(|| self.load_bearing()),
            self.conjuncts.len() as u64,
        );
    }
}

/// A sequence streamed from an iterator made on demand: its items are
/// written as they are produced, never collected.
pub struct Rows<F>(pub F);

impl<F, I> Serialize for Rows<F>
where
    F: Fn() -> I,
    I: IntoIterator,
    I::Item: Serialize,
{
    fn stream<S: Sink>(&self, out: &mut S) {
        out.seq((self.0)());
    }
}

impl PropertyReport {
    /// The entry's fields before its two arrays.
    pub fn head(&self) -> PropertyHead<'_> {
        PropertyHead {
            property: &self.property,
            liveness: self.liveness,
            passed: self.passed,
            checks: self.checks,
            timing: self.timing,
        }
    }

    /// Render in the pinned field order: `property`, \[`"kind"`\],
    /// `passed`, `checks`, \[`solver_calls`, `total_seconds`,
    /// `solve_seconds`\], `failures`, `cores`. Inherent, so a caller can
    /// name it as a path (`PropertyReport::to_value`) without importing
    /// `Serialize`.
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
    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        out.field("orchestrator", &self.summary);
        out.field("generated", &self.generated);
        out.field("solver_calls", &self.solver_calls);
        out.field("dedup_hits", &self.dedup_hits);
        out.field("cache_hits", &self.cache_hits);
        out.field("groups", &self.groups);
        out.field("warm_assumption_solves", &self.warm_assumption_solves);
        out.field("dedup_ratio", &self.dedup_ratio);
        out.field("threads", &self.threads);
        out.end_object();
    }
}

/// The on-disk spill encoding of one passing check — the schema behind
/// `crates/core`'s result-cache files (`cache.json`), which hold passes
/// only: a failure is re-derived by every run that reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpilledCheck {
    /// Solver variable count of the one real invocation.
    pub vars: u64,
    /// Solver clause count.
    pub clauses: u64,
    /// Conjunct-index unsat core, for session-solved passes.
    pub core: Option<Vec<usize>>,
}

impl Serialize for SpilledCheck {
    fn stream<S: Sink>(&self, out: &mut S) {
        SpilledCheck::stream_pass(out, self.vars, self.clauses, self.core.as_deref())
    }
}

impl SpilledCheck {
    /// Stream a pass in the spill form without building one: the
    /// schema's one statement of a pass, which its own
    /// [`Serialize::stream`] uses too.
    pub fn stream_pass<S: Sink>(out: &mut S, vars: u64, clauses: u64, core: Option<&[usize]>) {
        out.begin_object();
        out.field("pass", &true);
        out.field("vars", &vars);
        out.field("clauses", &clauses);
        if let Some(core) = core {
            out.field("core", core);
        }
        out.end_object();
    }

    /// Decode the form [`Serialize::stream`] writes. Missing `vars` /
    /// `clauses` decode as zero (older spills); anything but
    /// `"pass": true` — an older spill's failure entry among them — is
    /// `None`.
    pub fn from_value(v: &Value) -> Option<SpilledCheck> {
        if v["pass"].as_bool() != Some(true) {
            return None;
        }
        Some(SpilledCheck {
            vars: v["vars"].as_u64().unwrap_or(0),
            clauses: v["clauses"].as_u64().unwrap_or(0),
            core: v["core"].as_array().map(|xs| {
                xs.iter()
                    .filter_map(|x| x.as_u64().map(|n| n as usize))
                    .collect()
            }),
        })
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
    fn spill_roundtrips_passes_and_decodes_no_failure() {
        let pass = SpilledCheck {
            vars: 10,
            clauses: 20,
            core: Some(vec![0, 2]),
        };
        assert_eq!(
            serde_json::to_string(&pass.to_value()).unwrap(),
            r#"{"pass":true,"vars":10,"clauses":20,"core":[0,2]}"#
        );
        assert_eq!(SpilledCheck::from_value(&pass.to_value()), Some(pass));

        // The failure form older spills wrote decodes to nothing.
        let fail = serde_json::json!({
            "pass": false,
            "vars": 1,
            "clauses": 2,
            "rejected": true,
            "input": "route",
            "output": Value::Null,
        });
        assert_eq!(SpilledCheck::from_value(&fail), None);
        assert_eq!(SpilledCheck::from_value(&Value::Null), None);
    }
}
