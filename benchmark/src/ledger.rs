//! Raw per-op records, and the step that turns them into numbers: the
//! end-to-end metrics of a plain run, the per-layer metrics of a traced
//! run, and the layer ledger table. Collection (`harness`) writes
//! records; this module reads them — from memory for the result line,
//! from `benchmark/out/*.jsonl` for `report table`.

use crate::spans::OP;
use crate::stats::{median, quantile, samples_beyond};
use crate::ProgramMetrics;
use serde_json::Value;
use std::collections::BTreeMap;

/// Everything recorded about one op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpRecord {
    /// Ordinal within the run.
    pub op: u64,
    /// Op class (`variant3`, `cosmetic`, `faulty`, ...).
    pub kind: String,
    /// Identity of the input when the workload cycles through a fixed
    /// set; `None` when every op's input is new.
    pub input: Option<u64>,
    /// Whether spans and program counters were being recorded.
    pub traced: bool,
    /// Verdict, blame and report bytes all as known.
    pub ok: bool,
    /// Wall time, text to rendered verdict.
    pub wall_ns: u64,
    /// What the host-speed probe took just before the op.
    pub probe_ns: u64,
    /// Local checks the reports cover.
    pub checks: u64,
    /// Self time by span name; the root's is under `"op"`. Sums to
    /// `wall_ns`. Traced ops only.
    pub self_ns: BTreeMap<String, u64>,
    /// Counts and sizes read from reports and statistics structs.
    pub counts: BTreeMap<String, f64>,
    /// The program's own counters and gauges. Traced ops only.
    pub program: ProgramMetrics,
}

fn object<V>(m: &BTreeMap<String, V>, f: impl Fn(&V) -> Value) -> Value {
    Value::Object(m.iter().map(|(k, v)| (k.clone(), f(v))).collect())
}

fn map_of<V>(v: &Value, f: impl Fn(&Value) -> Option<V>) -> Option<BTreeMap<String, V>> {
    let fields = v.as_object()?.iter();
    fields.map(|(k, v)| Some((k.clone(), f(v)?))).collect()
}

impl OpRecord {
    /// One JSONL line.
    pub fn to_value(&self) -> Value {
        serde_json::json!({
            "op": self.op,
            "kind": self.kind,
            "input": self.input,
            "traced": self.traced,
            "ok": self.ok,
            "wall_ns": self.wall_ns,
            "probe_ns": self.probe_ns,
            "checks": self.checks,
            "self_ns": object(&self.self_ns, |&n| Value::UInt(n)),
            "counts": object(&self.counts, |&x| Value::Float(x)),
            "counters": object(&self.program.counters, |&n| Value::UInt(n)),
            "gauges": object(&self.program.gauges, |&n| Value::UInt(n))
        })
    }

    /// Decode [`OpRecord::to_value`].
    pub fn from_value(v: &Value) -> Option<OpRecord> {
        Some(OpRecord {
            op: v["op"].as_u64()?,
            kind: v["kind"].as_str()?.to_string(),
            input: v["input"].as_u64(),
            traced: v["traced"].as_bool()?,
            ok: v["ok"].as_bool()?,
            wall_ns: v["wall_ns"].as_u64()?,
            probe_ns: v["probe_ns"].as_u64()?,
            checks: v["checks"].as_u64()?,
            self_ns: map_of(&v["self_ns"], Value::as_u64)?,
            counts: map_of(&v["counts"], Value::as_f64)?,
            program: ProgramMetrics {
                counters: map_of(&v["counters"], Value::as_u64)?,
                gauges: map_of(&v["gauges"], Value::as_u64)?,
            },
        })
    }
}

/// A named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn walls_ms(records: &[&OpRecord]) -> Vec<f64> {
    records.iter().map(|r| ms(r.wall_ns as f64)).collect()
}

/// Ops grouped by input. An input that recurs within the run counts
/// once, at the median over its repeats: repeats of one input differ
/// only by what the host was doing, and this host's bursts otherwise
/// end up as the tail. Statistics are then taken across inputs, so they
/// describe how the program's time spreads over inputs. Where no input
/// recurs (`wan-edits`) every op is a group of its own.
fn by_input<'a>(ops: impl Iterator<Item = &'a OpRecord>) -> Vec<Vec<&'a OpRecord>> {
    let mut groups: BTreeMap<u64, Vec<&OpRecord>> = BTreeMap::new();
    for (i, r) in ops.enumerate() {
        let key = r.input.unwrap_or(u64::MAX - i as u64);
        groups.entry(key).or_default().push(r);
    }
    groups.into_values().collect()
}

/// One value per input: the median of `f` over the input's repeats.
fn per_input(groups: &[Vec<&OpRecord>], f: &dyn Fn(&OpRecord) -> f64) -> Vec<f64> {
    groups
        .iter()
        .map(|repeats| median(&repeats.iter().map(|r| f(r)).collect::<Vec<_>>()))
        .collect()
}

/// The end-to-end metrics of the untraced ops (see [`by_input`]), with
/// `setup_s` and `peak_rss_mb` as measured by the run itself. Times are
/// reported at the reference host speed: divided by `slowdown` (see
/// [`crate::host`]). Also returns how many samples lie beyond the p90.
pub fn end_to_end(
    records: &[OpRecord],
    setup_s: f64,
    peak_rss_kb: u64,
    slowdown: f64,
) -> (Vec<Metric>, usize) {
    let inputs = by_input(records.iter().filter(|r| !r.traced));
    let walls = per_input(&inputs, &|r| ms(r.wall_ns as f64) / slowdown);
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let checks: f64 = per_input(&inputs, &|r| r.checks as f64).iter().sum();
    let m = |name, unit, value| Metric { name, unit, value };
    (
        vec![
            m("setup_s", "s", setup_s / slowdown),
            m("verdict_ms_p50", "ms", median(&walls)),
            m("verdict_ms_p90", "ms", quantile(&walls, 0.9)),
            m("checks_per_s", "checks/s", checks / total_s.max(1e-9)),
            m("peak_rss_mb", "MB", peak_rss_kb as f64 / 1024.0),
        ],
        samples_beyond(&walls, 0.9),
    )
}

/// Where a per-layer metric's per-op value comes from. Each is reduced
/// over the traced ops by median, except gauges (maximum).
enum Src {
    /// Self time of a harness span, in ms.
    SelfMs(&'static str),
    /// A count read from reports or statistics structs.
    Count(&'static str),
    /// One of the program's own counters.
    Counter(&'static str),
    /// A program counter of nanoseconds, in ms.
    CounterMs(&'static str),
    /// A program gauge: its highest level over the run.
    Gauge(&'static str),
    /// Computed in [`per_layer`] (per op, or once per run).
    Derived,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them:
/// `(name, unit, source)`.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("bgp-config.parse_ms", "ms", Src::SelfMs("bgp-config.parse")),
    ("bgp-config.parse_mb_per_s", "MB/s", Src::Derived),
    (
        "bgp-config.input_bytes",
        "bytes",
        Src::Count("bgp-config.input_bytes"),
    ),
    ("bgp-config.lower_ms", "ms", Src::SelfMs("bgp-config.lower")),
    (
        "bgp-config.route_map_entries",
        "count",
        Src::Count("bgp-config.route_map_entries"),
    ),
    ("netgen.suite_ms", "ms", Src::SelfMs("netgen.suite")),
    ("delta.diff_ms", "ms", Src::SelfMs("delta.diff")),
    (
        "delta.semantic_edits",
        "count",
        Src::Count("delta.semantic_edits"),
    ),
    (
        "delta.cosmetic_edits",
        "count",
        Src::Count("delta.cosmetic_edits"),
    ),
    ("core.verify_ms", "ms", Src::Derived),
    ("core.self_ms", "ms", Src::Derived),
    ("core.conjuncts_ms", "ms", Src::SelfMs("core.conjuncts")),
    ("core.checks", "count", Src::Derived),
    (
        "core.checks_folded",
        "count",
        Src::Counter("engine.checks_folded"),
    ),
    (
        "core.term_pool_terms",
        "count",
        Src::Gauge("engine.term_pool_terms"),
    ),
    (
        "core.report_frontier_peak",
        "count",
        Src::Gauge("engine.report_frontier_peak"),
    ),
    ("core.dirty_share", "ratio", Src::Count("core.dirty_share")),
    (
        "core.reverify_reused",
        "count",
        Src::Count("core.reverify_reused"),
    ),
    (
        "core.reverify_core_clean",
        "count",
        Src::Count("core.reverify_core_clean"),
    ),
    (
        "core.reverify_invalidated",
        "count",
        Src::Count("core.reverify_invalidated"),
    ),
    (
        "core.sessions_reused",
        "count",
        Src::Count("core.sessions_reused"),
    ),
    (
        "core.sessions_created",
        "count",
        Src::Count("core.sessions_created"),
    ),
    ("smt.encode_ms", "ms", Src::CounterMs("smt.encode_ns")),
    ("smt.solve_ms", "ms", Src::CounterMs("smt.solve_ns")),
    ("smt.share_of_verify", "ratio", Src::Derived),
    ("smt.solves", "count", Src::Counter("smt.solves")),
    ("smt.decisions", "count", Src::Counter("smt.decisions")),
    (
        "smt.propagations",
        "count",
        Src::Counter("smt.propagations"),
    ),
    ("smt.conflicts", "count", Src::Counter("smt.conflicts")),
    ("smt.restarts", "count", Src::Counter("smt.restarts")),
    ("smt.learnt_db_peak", "count", Src::Gauge("smt.learnt_db")),
    ("smt.max_vars", "count", Src::Count("smt.max_vars")),
    ("smt.max_clauses", "count", Src::Count("smt.max_clauses")),
    (
        "orchestrator.generated",
        "count",
        Src::Count("orchestrator.generated"),
    ),
    (
        "orchestrator.executed",
        "count",
        Src::Count("orchestrator.executed"),
    ),
    (
        "orchestrator.dedup_ratio",
        "ratio",
        Src::Count("orchestrator.dedup_ratio"),
    ),
    (
        "orchestrator.groups",
        "count",
        Src::Count("orchestrator.groups"),
    ),
    (
        "orchestrator.steals",
        "count",
        Src::Count("orchestrator.steals"),
    ),
    (
        "orchestrator.cache_hits",
        "count",
        Src::Counter("cache.hits"),
    ),
    (
        "orchestrator.cache_misses",
        "count",
        Src::Counter("cache.misses"),
    ),
    (
        "orchestrator.cache_validate_ms",
        "ms",
        Src::CounterMs("cache.validate_ns"),
    ),
    ("orchestrator.spill_save_ms", "ms", Src::Derived),
    ("orchestrator.spill_load_ms", "ms", Src::Derived),
    ("orchestrator.spill_bytes", "bytes", Src::Derived),
    ("api.render_ms", "ms", Src::SelfMs("api.render")),
    ("api.report_bytes", "bytes", Src::Count("api.report_bytes")),
    ("cli.child_wall_ms", "ms", Src::Derived),
    ("cli.overhead_ms", "ms", Src::Count("cli.overhead_ms")),
    ("obs.trace_overhead_pct", "%", Src::Derived),
    ("obs.calls", "count", Src::Counter("obs.calls")),
    ("unattributed_ms", "ms", Src::SelfMs(OP)),
    ("traced_ops", "count", Src::Derived),
    ("host.slowdown", "ratio", Src::Derived),
];

/// The per-layer metrics of a run's traced ops. `end_of_run` carries
/// what was measured once after the last op (the cache spill round
/// trip); anything a workload does not exercise reads 0.
pub fn per_layer(records: &[OpRecord], end_of_run: &[(String, f64)]) -> Vec<Metric> {
    let traced: Vec<&OpRecord> = records.iter().filter(|r| r.traced).collect();
    let plain: Vec<&OpRecord> = records.iter().filter(|r| !r.traced).collect();
    let inputs = by_input(traced.iter().copied());
    let typical = |f: &dyn Fn(&OpRecord) -> f64| median(&per_input(&inputs, f));
    let self_ms = |r: &OpRecord, span: &str| ms(r.self_ns.get(span).copied().unwrap_or(0) as f64);
    let count = |r: &OpRecord, name: &str| r.counts.get(name).copied().unwrap_or(0.0);
    let counter =
        |r: &OpRecord, name: &str| r.program.counters.get(name).copied().unwrap_or(0) as f64;
    // The verifier's wall: the harness span, or for the CLI workload
    // what the child's own clock says.
    let verify_ms = |r: &OpRecord| match r.counts.get("core.verify_ms") {
        Some(&child) => child,
        None => self_ms(r, "core.verify"),
    };
    let smt_ms = |r: &OpRecord| ms(counter(r, "smt.encode_ns") + counter(r, "smt.solve_ns"));
    // Busy time summed over the pool's threads may exceed the wall, so
    // it is subtracted only where the verifier ran on one thread.
    let one_thread = |r: &OpRecord| !r.counts.contains_key("orchestrator.generated");

    let derived = |name: &str| -> f64 {
        match name {
            "bgp-config.parse_mb_per_s" => typical(&|r| {
                let s = self_ms(r, "bgp-config.parse") / 1e3;
                if s > 0.0 {
                    count(r, "bgp-config.input_bytes") / 1e6 / s
                } else {
                    0.0
                }
            }),
            "core.verify_ms" => typical(&verify_ms),
            "core.self_ms" => typical(&|r| {
                if one_thread(r) {
                    verify_ms(r) - smt_ms(r) - ms(counter(r, "cache.validate_ns"))
                } else {
                    verify_ms(r)
                }
            }),
            "core.checks" => typical(&|r| r.checks as f64),
            "smt.share_of_verify" => typical(&|r| smt_ms(r) / verify_ms(r).max(1e-9)),
            "cli.child_wall_ms" => typical(&|r| {
                let spans = ["cli.process", "cli.load_render", "core.verify"];
                match r.self_ns.contains_key("cli.process") {
                    true => spans.iter().map(|s| self_ms(r, s)).sum(),
                    false => 0.0,
                }
            }),
            "obs.trace_overhead_pct" => {
                let base = median(&walls_ms(&plain));
                if base > 0.0 {
                    100.0 * (median(&walls_ms(&traced)) - base) / base
                } else {
                    0.0
                }
            }
            "traced_ops" => traced.len() as f64,
            other => end_of_run
                .iter()
                .find(|(n, _)| n == other)
                .map_or(0.0, |(_, v)| *v),
        }
    };

    PER_LAYER
        .iter()
        .map(|(name, unit, src)| Metric {
            name,
            unit,
            value: match src {
                Src::SelfMs(span) => typical(&|r| self_ms(r, span)),
                Src::Count(c) => typical(&|r| count(r, c)),
                Src::Counter(c) => typical(&|r| counter(r, c)),
                Src::CounterMs(c) => typical(&|r| ms(counter(r, c))),
                Src::Gauge(g) => traced
                    .iter()
                    .filter_map(|r| r.program.gauges.get(*g))
                    .max()
                    .map_or(0.0, |&v| v as f64),
                Src::Derived => derived(name),
            },
        })
        .collect()
}

/// The layer ledger of a run's traced ops: one row per harness span with
/// its median self time and its share of all traced wall time. The
/// shares, with `unattributed`, sum to 100 %. Below it, the split of the
/// verifier's time by the program's own counters.
pub fn table(records: &[OpRecord]) -> String {
    let traced: Vec<&OpRecord> = records.iter().filter(|r| r.traced).collect();
    if traced.is_empty() {
        return "no traced ops in these records\n".to_string();
    }
    let wall_total: u64 = traced.iter().map(|r| r.wall_ns).sum();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &traced {
        for (span, ns) in &r.self_ns {
            *totals.entry(span).or_default() += ns;
        }
    }
    let mut rows: Vec<(&str, u64)> = totals.into_iter().collect();
    rows.sort_by_key(|&(span, ns)| (span == OP, std::cmp::Reverse(ns)));
    let median_of = |span: &str| {
        let per_op: Vec<f64> = traced
            .iter()
            .map(|r| ms(r.self_ns.get(span).copied().unwrap_or(0) as f64))
            .collect();
        median(&per_op)
    };
    let mut out = format!(
        "{:<24} {:>14} {:>9}\n",
        "layer.call", "self ms (p50)", "share"
    );
    let mut share_sum = 0.0;
    for (span, ns) in rows {
        let share = 100.0 * ns as f64 / wall_total as f64;
        share_sum += share;
        let label = if span == OP { "unattributed" } else { span };
        out += &format!("{label:<24} {:>14.3} {share:>8.2}%\n", median_of(span));
    }
    out += &format!(
        "{:<24} {:>14.3} {share_sum:>8.2}%   ({} traced ops)\n",
        "op wall",
        median(&walls_ms(&traced)),
        traced.len()
    );
    out += "inside the verifier, by the program's own counters (busy time where it runs a pool):\n";
    for m in per_layer(records, &[]) {
        if [
            "core.verify_ms",
            "core.self_ms",
            "smt.encode_ms",
            "smt.solve_ms",
            "orchestrator.cache_validate_ms",
            "smt.share_of_verify",
        ]
        .contains(&m.name)
        {
            out += &format!("  {:<32} {:>10.3} {}\n", m.name, m.value, m.unit);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op: u64, traced: bool, wall_ms: u64, parts: &[(&str, u64)]) -> OpRecord {
        OpRecord {
            op,
            kind: "k".into(),
            traced,
            ok: true,
            wall_ns: wall_ms * 1_000_000,
            checks: 100,
            self_ns: parts
                .iter()
                .map(|&(n, v)| (n.to_string(), v * 1_000_000))
                .collect(),
            ..OpRecord::default()
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let mut r = record(3, true, 10, &[("core.verify", 7), (OP, 3)]);
        r.counts.insert("core.dirty_share".into(), 0.25);
        r.program.counters.insert("smt.solves".into(), 12);
        r.program.gauges.insert("smt.learnt_db".into(), 40);
        let line = serde_json::to_string(&r.to_value()).unwrap();
        let back = OpRecord::from_value(&serde_json::from_str(&line).unwrap());
        assert_eq!(back, Some(r));
    }

    #[test]
    fn end_to_end_uses_untraced_ops_only() {
        let mut records: Vec<OpRecord> = (0..10).map(|i| record(i, false, 10 + i, &[])).collect();
        records.push(record(10, true, 1000, &[]));
        // Three repeats of one input count once, at their median: the
        // 500 ms burst is the host's, not the program's.
        for (op, wall_ms) in [(11, 500), (12, 19), (13, 19)] {
            let mut r = record(op, false, wall_ms, &[]);
            r.input = Some(7);
            records.push(r);
        }
        let (m, _) = end_to_end(&records, 0.0, 0, 1.0);
        assert_eq!(m[1].value, 15.0, "p50 over the samples 10..=19 and 19");
        records.truncate(11);
        let (m, beyond) = end_to_end(&records, 1.5, 2048, 1.0);
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("verdict_ms_p50"), 14.5);
        assert!((get("verdict_ms_p90") - 18.1).abs() < 1e-9);
        assert_eq!(beyond, 1);
        // 10 ops x 100 checks over 0.145 s.
        assert!((get("checks_per_s") - 1000.0 / 0.145).abs() < 1e-6);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(get("setup_s"), 1.5);
        // On a host running at half the reference speed the same records
        // report half the times, twice the throughput, the same memory.
        let (slow, _) = end_to_end(&records, 1.5, 2048, 2.0);
        let at = |n: &str| slow.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(at("verdict_ms_p50"), 7.25);
        assert_eq!(at("setup_s"), 0.75);
        assert!((at("checks_per_s") - 2000.0 / 0.145).abs() < 1e-6);
        assert_eq!(at("peak_rss_mb"), 2.0);
    }

    #[test]
    fn per_layer_subtracts_solver_time_only_on_one_thread() {
        let mut seq = record(0, true, 10, &[("core.verify", 8), (OP, 2)]);
        seq.program
            .counters
            .insert("smt.encode_ns".into(), 3_000_000);
        seq.program
            .counters
            .insert("smt.solve_ns".into(), 1_000_000);
        let mut pool = seq.clone();
        pool.counts.insert("orchestrator.generated".into(), 50.0);
        let get = |r: &OpRecord, n: &str| {
            let m = per_layer(std::slice::from_ref(r), &[]);
            m.iter().find(|m| m.name == n).unwrap().value
        };
        assert_eq!(get(&seq, "core.self_ms"), 4.0);
        assert_eq!(get(&pool, "core.self_ms"), 8.0);
        assert_eq!(get(&seq, "smt.share_of_verify"), 0.5);
        assert_eq!(get(&seq, "unattributed_ms"), 2.0);
    }

    #[test]
    fn table_shares_sum_to_the_op_wall() {
        let records = vec![
            record(
                0,
                true,
                10,
                &[("core.verify", 7), ("api.render", 1), (OP, 2)],
            ),
            record(
                1,
                true,
                20,
                &[("core.verify", 15), ("api.render", 4), (OP, 1)],
            ),
        ];
        let t = table(&records);
        assert!(t.contains("unattributed"), "{t}");
        let wall_row = t.lines().find(|l| l.starts_with("op wall")).unwrap();
        assert!(wall_row.contains("100.00%"), "{t}");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |section: &str| -> Vec<(String, String)> {
            doc[section]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("per_layer"), ours(per_layer(&[], &[])));
        let mut e2e = ours(end_to_end(&[], 0.0, 0, 1.0).0);
        let mut want = listed("end_to_end");
        e2e.sort();
        want.sort();
        assert_eq!(want, e2e);
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
