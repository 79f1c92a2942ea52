//! `wan-faulty-cli`: the pre-merge check as users run it. Each op
//! spawns `lightyear verify --configs DIR --spec FILE --json`, waits,
//! and parses its stdout. The only workload through `cli` (process
//! start, file load, spec resolve, render) and the only cold one with
//! failures (SAT models, counterexample re-derivation, failure
//! rendering): one directory in four carries one injected bug.

use crate::render::to_json;
use crate::seed::{Digest, Rng};
use crate::spans::Tracer;
use crate::wan::full_size;
use crate::{Expect, OpResult, ProgramMetrics, Workload, OUT_DIR};
use bgp_config::print_config;
use lightyear::RoutePred;
use netgen::wan;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Seeded configuration directories cycled by the workload: few enough
/// that each recurs several times within a run, so that an input's
/// repeats can be told from the host's noise.
pub const DIRS: usize = 16;

struct ConfigDir {
    path: PathBuf,
    expect: Expect,
    bytes: usize,
}

/// The workload after set-up.
pub struct FaultyCli {
    bin: PathBuf,
    root: PathBuf,
    spec: PathBuf,
    dirs: Vec<ConfigDir>,
    next: usize,
    setup_digest: Digest,
}

/// The 11 §6.1 peering predicates as a `lightyear verify` spec: each
/// `FromPeer ⇒ Q` stated at the first region gateway under the uniform
/// invariant `FromPeer ⇒ Q`, so every filter in the network gets its
/// local check for every predicate.
pub fn spec_json(scen: &wan::Scenario) -> String {
    let topo = &scen.network.topology;
    let (mut from_peer, mut other) = (Vec::new(), Vec::new());
    for e in topo.edge_ids() {
        let src = topo.node(topo.edge(e).src);
        if src.external {
            let edges = if src.name.starts_with("PEER") {
                &mut from_peer
            } else {
                &mut other
            };
            edges.push(topo.edge_name(e));
        }
    }
    let safety: Vec<Value> = scen
        .peering_predicates()
        .into_iter()
        .map(|(name, q)| {
            let pred = RoutePred::ghost("FromPeer").implies(q);
            serde_json::json!({
                "name": name,
                "location": "R0-0",
                "property": pred,
                "invariant_default": pred
            })
        })
        .collect();
    let spec = serde_json::json!({
        "ghosts": serde_json::json!([serde_json::json!({
            "name": "FromPeer",
            "set_true_on_import": from_peer,
            "set_false_on_import": other
        })]),
        "safety": safety
    });
    serde_json::to_string_pretty(&spec).expect("a spec value always serialises")
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("cannot {what} {}: {e}", path.display())
}

/// One generated configuration set and the answer it must get.
pub struct ConfigSet {
    /// `(hostname, configuration text)` per router.
    pub files: Vec<(String, String)>,
    /// Known by construction.
    pub expect: Expect,
}

/// Synthesize `sets` configuration sets: peer ASNs vary with the seed,
/// and one set in every four gets one `netgen::mutate` bug on a seeded
/// peer import map.
pub fn generate(seed: u64, size: wan::WanParams, sets: usize) -> Vec<ConfigSet> {
    let mut rng = Rng::new(seed, 4);
    let mut buggy_slot = 0;
    (0..sets)
        .map(|d| {
            if d % 4 == 0 {
                buggy_slot = rng.below(4);
            }
            let mut configs = wan::configs(&size.with_seed(rng.next_u64()));
            let expect = if d % 4 == buggy_slot {
                let router = format!("EDGE{}", rng.below(size.edge_routers));
                let map = format!("FROM-PEER{}", rng.below(size.peers_per_edge));
                crate::wan::inject_bug(&mut configs, &mut rng, &router, &map)
            } else {
                Expect::Pass
            };
            ConfigSet {
                files: configs
                    .iter()
                    .map(|c| (c.hostname.clone(), print_config(c)))
                    .collect(),
                expect,
            }
        })
        .collect()
}

/// Digest of generated configuration sets.
pub fn digest(sets: &[ConfigSet]) -> Digest {
    let mut d = Digest::default();
    for (_, text) in sets.iter().flat_map(|s| &s.files) {
        d.feed(text.as_bytes());
    }
    d
}

impl FaultyCli {
    /// Generate [`DIRS`] configuration sets and write them, with the
    /// spec file, under `benchmark/out/`.
    pub fn new(seed: u64) -> Result<FaultyCli, String> {
        let bin = PathBuf::from(
            std::env::var("LIGHTYEAR_BIN").unwrap_or_else(|_| "target/release/lightyear".into()),
        );
        if !bin.is_file() {
            return Err(format!(
                "{} not found; build it with `cargo build --release -p lightyear-cli` \
                 or run benchmark/run.sh, which does",
                bin.display()
            ));
        }
        let root = Path::new(OUT_DIR).join(format!("cli-{}", std::process::id()));
        let size = full_size();
        let spec = root.join("spec.json");
        std::fs::create_dir_all(&root).map_err(|e| io_err("create", &root, e))?;
        std::fs::write(&spec, spec_json(&wan::build(&size)))
            .map_err(|e| io_err("write", &spec, e))?;

        let sets = generate(seed, size, DIRS);
        let setup_digest = digest(&sets);
        let mut dirs = Vec::with_capacity(DIRS);
        for (d, set) in sets.into_iter().enumerate() {
            let path = root.join(format!("set{d:03}"));
            std::fs::create_dir_all(&path).map_err(|e| io_err("create", &path, e))?;
            for (hostname, text) in &set.files {
                let file = path.join(format!("{hostname}.cfg"));
                std::fs::write(&file, text).map_err(|e| io_err("write", &file, e))?;
            }
            dirs.push(ConfigDir {
                path,
                expect: set.expect,
                bytes: set.files.iter().map(|(_, text)| text.len()).sum(),
            });
        }
        Ok(FaultyCli {
            bin,
            root,
            spec,
            dirs,
            next: 0,
            setup_digest,
        })
    }
}

impl Drop for FaultyCli {
    fn drop(&mut self) {
        // Scratch data under the benchmark's own output directory.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The child's stdout, decoded.
struct ChildReport {
    reports: Vec<api::PropertyReport>,
    /// Seconds the child's batch verification took, by its own clock.
    verify_s: f64,
    /// Seconds from the child's `verify` entry to its rendering.
    internal_s: f64,
    metrics: ProgramMetrics,
}

fn decode(stdout: &Value) -> Option<ChildReport> {
    let (tail, entries) = stdout.as_array()?.split_last()?;
    let mut reports = entries
        .iter()
        .map(api::PropertyReport::from_value)
        .collect::<Option<Vec<_>>>()?;
    // One shared run: every property carries the batch's wall time.
    let verify_s = reports.first()?.timing?.total_seconds;
    for r in &mut reports {
        r.timing = None;
    }
    let numbers = |v: &Value| {
        let fields = v.as_object()?.iter();
        fields
            .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect::<Option<_>>()
    };
    Some(ChildReport {
        reports,
        verify_s,
        internal_s: tail["timings"]["wall_seconds"].as_f64()?,
        metrics: ProgramMetrics {
            counters: numbers(&tail["metrics"]["counters"])?,
            gauges: numbers(&tail["metrics"]["gauges"])?,
        },
    })
}

impl Workload for FaultyCli {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let i = self.next % self.dirs.len();
        self.next += 1;
        let dir = &self.dirs[i];
        let mut cmd = Command::new(&self.bin);
        cmd.arg("verify")
            .arg("--configs")
            .arg(&dir.path)
            .arg("--spec")
            .arg(&self.spec)
            .arg("--json")
            .stdin(Stdio::null())
            .stderr(Stdio::null());

        tr.begin_op();
        let child = tr.start("cli.process");
        let output = cmd.output();
        tr.end(child);
        let t = tr.start("api.parse");
        let parsed = output
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))
            .and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout);
                let v: Value = serde_json::from_str(&text)
                    .map_err(|e| format!("child stdout is not JSON: {e}"))?;
                Ok((o.status.code(), v))
            });
        tr.end(t);
        let decoded = parsed.and_then(|(code, v)| {
            let r = decode(&v).ok_or("child stdout is not a verify report")?;
            Ok((code, r))
        });
        // The child's own account of its time, laid inside its span.
        if let Ok((_, r)) = &decoded {
            let mut at = tr.start_ns(child);
            let internal = Duration::from_secs_f64(r.internal_s);
            let load = tr.record(child, "cli.load_render", &mut at, internal);
            let mut at = tr.start_ns(load);
            tr.record(
                load,
                "core.verify",
                &mut at,
                Duration::from_secs_f64(r.verify_s),
            );
        }
        let wall = tr.end_op();

        match decoded {
            Ok((code, r)) => {
                let expect_code = if dir.expect == Expect::Pass { 0 } else { 1 };
                let answer = dir.expect.check(&r.reports).and_then(|()| {
                    if code == Some(expect_code) {
                        Ok(())
                    } else {
                        Err(format!("exit code {code:?}, expected {expect_code}"))
                    }
                });
                let report = to_json(&r.reports);
                let ms = |s: f64| s * 1e3;
                let counts = [
                    ("core.verify_ms", ms(r.verify_s)),
                    ("cli.overhead_ms", ms(wall.as_secs_f64() - r.verify_s)),
                    ("bgp-config.input_bytes", dir.bytes as f64),
                    ("api.report_bytes", report.len() as f64),
                ]
                .map(|(n, v)| (n.to_string(), v))
                .to_vec();
                OpResult {
                    wall,
                    checks: r.reports.iter().map(|p| p.checks).sum(),
                    kind: if expect_code == 0 { "clean" } else { "faulty" }.to_string(),
                    input: Some(i as u64),
                    report,
                    answer,
                    counts,
                    child_metrics: Some(r.metrics),
                }
            }
            Err(e) => OpResult {
                wall,
                checks: 0,
                kind: "error".to_string(),
                input: Some(i as u64),
                report: String::new(),
                answer: Err(e),
                counts: Vec::new(),
                child_metrics: None,
            },
        }
    }

    fn input_digest(&self) -> Digest {
        self.setup_digest
    }

    /// The verifier is a child process here: report the largest resident
    /// set any waited-for child reached.
    fn peak_rss_kb(&self) -> u64 {
        children_max_rss_kb()
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is `ru_maxrss` in kilobytes.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    max_rss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `RUSAGE_CHILDREN`: statistics over all terminated and waited-for
/// children.
const RUSAGE_CHILDREN: i32 = -1;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is 64-bit Linux's");

fn children_max_rss_kb() -> u64 {
    let mut usage = Rusage {
        times: [0; 4],
        max_rss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of the C `struct rusage` on this target (144 bytes, all 64-bit
    // fields), which is all `getrusage` requires of its out-pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.max_rss.max(0) as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_every_external_import_once_and_all_eleven_predicates() {
        let scen = wan::build(&wan::WanParams {
            regions: 2,
            routers_per_region: 2,
            edge_routers: 2,
            peers_per_edge: 2,
            seed: 0,
        });
        let spec: Value = serde_json::from_str(&spec_json(&scen)).unwrap();
        assert_eq!(spec["safety"].as_array().unwrap().len(), 11);
        let ghost = &spec["ghosts"][0];
        let imports = |k: &str| ghost[k].as_array().unwrap().len();
        assert_eq!(imports("set_true_on_import"), 4, "one per peer");
        assert_eq!(imports("set_false_on_import"), 2, "one per data centre");
    }

    #[test]
    fn rusage_struct_matches_the_c_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }
}
