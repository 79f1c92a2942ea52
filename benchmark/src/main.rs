//! `harness --workload W [--seed N] [--seconds S] [--trace 0|1]`: set one
//! workload up from the seed, run ops closed-loop for S seconds, check
//! every verdict, write the raw per-op records, and print every metric
//! by name with its unit. The last stdout line is the result object the
//! benchmark driver reads. Exits non-zero when any op failed.

use lightyear_benchmark::ledger::{self, Metric, OpRecord};
use lightyear_benchmark::seed::Digest;
use lightyear_benchmark::spans::{self, Tracer};
use lightyear_benchmark::stats::median;
use lightyear_benchmark::{host, setup, OpResult, ProgramMetrics, Workload, OUT_DIR, WORKLOADS};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed runs use unless told otherwise. The second recorded seed,
/// 19950321, is the hold-out: a claim must also hold on inputs not seen
/// while the change was written. (`BENCHMARK.json`'s keys are fixed by
/// the driver's contract, so the seeds are recorded here and in the
/// README.)
const DEFAULT_SEED: u64 = 20230910;

/// Seconds of timed ops when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

/// Set-up is repeated and its median reported, so that one slow page
/// fault or file write does not read as a set-up regression.
const SETUP_REPEATS: usize = 3;

/// Untimed ops after each set-up: caches fill and lazy set-up finishes
/// before timing.
const WARM_UP_OPS: usize = 5;

/// In a traced run every third op runs untraced, as the base
/// `obs.trace_overhead_pct` is measured against.
const UNTRACED_EVERY: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 120),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The run's bookkeeping: records, failures, and the report bytes first
/// seen for each recurring input.
#[derive(Default)]
struct Run {
    records: Vec<OpRecord>,
    failures: Vec<String>,
    first_report: HashMap<u64, Digest>,
}

impl Run {
    /// Compare one op's outcome with its known answer and, when its
    /// input has been verified before, with the bytes rendered then.
    fn check(&mut self, label: &str, r: &OpResult) -> bool {
        let mut ok = true;
        if let Err(e) = &r.answer {
            self.failures.push(format!("{label} ({}): {e}", r.kind));
            ok = false;
        }
        if let Some(input) = r.input {
            let digest = Digest::of(&[&r.report]);
            let first = *self.first_report.entry(input).or_insert(digest);
            if first != digest {
                self.failures.push(format!(
                    "{label} ({}): report bytes differ from the first run of this input",
                    r.kind
                ));
                ok = false;
            }
        }
        ok
    }

    fn timed(&mut self, probe: Duration, r: OpResult, program: Option<ProgramMetrics>) {
        let op = self.records.len() as u64;
        let ok = self.check(&format!("op {op}"), &r);
        self.records.push(OpRecord {
            op,
            kind: r.kind,
            input: r.input,
            traced: program.is_some(),
            ok,
            wall_ns: r.wall.as_nanos() as u64,
            probe_ns: probe.as_nanos() as u64,
            checks: r.checks,
            self_ns: Default::default(),
            counts: r.counts.into_iter().collect(),
            program: r.child_metrics.or(program).unwrap_or_default(),
        });
    }
}

/// The registry's counter increments and gauge levels since `prev`.
fn program_delta(reg: &obs::Registry, prev: &mut (obs::MetricsSnapshot, u64)) -> ProgramMetrics {
    let (snap, calls) = (reg.snapshot(), reg.calls());
    let delta = snap.delta_since(&prev.0);
    let mut counters = delta.counters;
    counters.retain(|_, v| *v > 0);
    counters.insert("obs.calls".to_string(), calls - prev.1);
    *prev = (snap, calls);
    ProgramMetrics {
        counters,
        gauges: delta.gauges,
    }
}

fn write_lines(path: &Path, lines: impl Iterator<Item = Value>) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for v in lines {
        let line = serde_json::to_string(&v).expect("a record value always serialises");
        writeln!(f, "{line}")?;
    }
    f.flush()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let mut run = Run::default();
    let mut off = Tracer::new(false);

    // Set-up: synthesis, perturbation, printing, file writes, the warm
    // engines' baseline round, and the warm-up ops.
    let mut setup_s = Vec::new();
    let mut probe = host::Probe::default();
    let mut probes = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t = Instant::now();
        let mut w = setup(&args.workload, args.seed)?;
        for i in 0..WARM_UP_OPS {
            probes.push(probe.run());
            let r = w.op(&mut off);
            run.check(&format!("warm-up op {i}"), &r);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    eprintln!("set-up repeats: {setup_s:.3?} s");
    let mut w = workload.expect("set-up ran at least once");
    let input_digest = w.input_digest();

    // Timed ops, closed loop. A traced run leaves every third op
    // untraced, so the tracing overhead is measured between ops that saw
    // the same machine conditions; three is coprime to every workload's
    // input cycle, so each input is met in both modes.
    let budget = Duration::from_secs(args.seconds);
    let mut on = Tracer::new(true);
    let reg = obs::Registry::new();
    let mut prev = (reg.snapshot(), reg.calls());
    let mut traced_records = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let host = probe.run();
        probes.push(host);
        if args.trace && run.records.len() % UNTRACED_EVERY != UNTRACED_EVERY - 1 {
            obs::install_registry(reg.clone());
            let r = w.op(&mut on);
            obs::uninstall();
            traced_records.push(run.records.len());
            run.timed(host, r, Some(program_delta(&reg, &mut prev)));
        } else {
            let r = w.op(&mut off);
            run.timed(host, r, None);
        }
    }
    for (op, parts) in spans::self_times(on.spans()) {
        run.records[traced_records[op as usize]].self_ns =
            parts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    }
    let peak_rss_kb = w.peak_rss_kb();
    let attempted = run.records.len();
    run.failures.extend(w.cross_check());
    let slowdown = host::slowdown(&probes);
    let mut end_of_run = if args.trace { w.finish() } else { Vec::new() };
    end_of_run.push(("host.slowdown".to_string(), slowdown));
    drop(w);

    // Raw records first; every number below is a function of them.
    let stem = Path::new(OUT_DIR).join(&args.workload);
    let records_path = stem.with_extension(if args.trace { "traced.jsonl" } else { "jsonl" });
    write_lines(&records_path, run.records.iter().map(OpRecord::to_value))
        .map_err(|e| format!("cannot write {}: {e}", records_path.display()))?;
    if args.trace {
        let path = stem.with_extension("trace.json");
        write_lines(&path, std::iter::once(on.chrome_trace()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let (metrics, beyond): (Vec<Metric>, usize) = if args.trace {
        (ledger::per_layer(&run.records, &end_of_run), 0)
    } else {
        ledger::end_to_end(&run.records, median(&setup_s), peak_rss_kb, slowdown)
    };
    println!(
        "workload {} seed {} ({} s, trace {}): inputs {:016x}, {} threads for the verifier's pool",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        input_digest.0,
        lightyear_benchmark::pool_jobs(),
    );
    for m in &metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        println!(
            "  {:<34} {:>16.4} ratio (times above are at the reference host speed: raw = shown x this)",
            "host.slowdown", slowdown
        );
        println!(
            "  {:<34} {:>16} count (samples beyond p90: {beyond})",
            "ops", attempted
        );
        println!("  {:<34} {:>16} count", "failed_ops", run.failures.len());
    }
    for f in &run.failures {
        eprintln!("FAILED {f}");
    }
    let result = serde_json::json!({
        "correct": run.failures.is_empty(),
        "attempted": attempted as u64,
        "failed": run.failures.len() as u64,
        "metrics": Value::Object(
            metrics
                .iter()
                .map(|m| (
                    m.name.to_string(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                ))
                .collect()
        )
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("a result value always serialises")
    );
    Ok(if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: harness --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}
