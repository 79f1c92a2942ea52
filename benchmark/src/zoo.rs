//! The two corpus workloads: the same generator, verified cold, once
//! with its near-identical policies (`zoo-homog`: dedup does the work)
//! and once with dedup defeated (`zoo-hetero`: encoding does the work).

use crate::render::{property_report, to_json};
use crate::seed::{Digest, Rng};
use crate::spans::Tracer;
use crate::{pool_jobs, Expect, OpResult, Workload};
use bgp_config::ast::{ConfigAst, MatchAst, PrefixListEntry, RouteMapEntryAst};
use bgp_config::{lower, parse_config, print_config};
use bgp_model::prefix::Ipv4Prefix;
use lightyear::check::ReportSummary;
use lightyear::engine::{RunMode, Verifier};
use netgen::zoo::{self, ZooParams, ZooScenario, CORPUS};

/// Wiring variants cycled by both workloads.
pub const VARIANTS: usize = 8;

/// Router-unique /24s in each router's `QUARANTINE` list. Fixed where
/// the traced run shows `smt.encode_ms + smt.solve_ms` ≥ 55 % of
/// `core.verify_ms` on `zoo-hetero` (see README, "Why these workloads").
pub const QUARANTINE_K: usize = 32;

const QUARANTINE: &str = "QUARANTINE";

/// One generated input: a corpus topology as configuration text.
pub struct Variant {
    params: ZooParams,
    texts: Vec<String>,
    /// Positions (in configuration order) of the reflectors, and every
    /// router's cluster: what the suite builders need beyond the
    /// lowered network, taken from the unperturbed `zoo::build`.
    reflectors: Vec<usize>,
    clusters: Vec<usize>,
    /// Report digest of the latest sequential op, for the mode
    /// cross-check.
    last_report: Option<Digest>,
}

/// A one-entry-per-call prefix-list entry `a.b.c.0/24 le 32`, with the
/// first octet folded into 11..=99: clear of every bogon, the reused and
/// the infrastructure block, so denying it breaks no generated policy.
pub fn slash24(seq: u32, bits: u64) -> PrefixListEntry {
    let (a, b, c) = (11 + (bits >> 16) % 89, (bits >> 8) % 256, bits % 256);
    PrefixListEntry {
        seq,
        permit: true,
        prefix: format!("{a}.{b}.{c}.0/24")
            .parse::<Ipv4Prefix>()
            .expect("a dotted quad with /24 parses"),
        ge: None,
        le: Some(32),
    }
}

/// A `deny` on one prefix-list at seq 1, ahead of anything the
/// generators emit (their first entries are at 5 or 10).
pub fn leading_deny(list: &str) -> RouteMapEntryAst {
    RouteMapEntryAst {
        seq: 1,
        permit: false,
        matches: vec![MatchAst::PrefixList(vec![list.to_string()])],
        sets: vec![],
        continue_to: None,
    }
}

/// Give every router a `QUARANTINE` prefix-list of `k` /24s no other
/// router has, and a leading `deny` on it in every route-map. Dropping
/// more routes cannot break a safety invariant, so every suite still
/// verifies; but no two routers' filters are alike any more, so each
/// policy-bearing edge becomes its own solver call.
pub fn quarantine(configs: &mut [ConfigAst], rng: &mut Rng, k: usize) {
    for cfg in configs {
        let entries = (0..k)
            .map(|j| slash24(5 * (j as u32 + 1), rng.next_u64()))
            .collect();
        cfg.prefix_lists.insert(QUARANTINE.into(), entries);
        for entries in cfg.route_maps.values_mut() {
            entries.insert(0, leading_deny(QUARANTINE));
        }
    }
}

impl Variant {
    /// Synthesize one topology; with `quarantine`, perturb its ASTs
    /// before printing.
    pub fn new(params: ZooParams, quarantine_with: Option<(&mut Rng, usize)>) -> Variant {
        let mut configs = zoo::configs(&params);
        if let Some((rng, k)) = quarantine_with {
            quarantine(&mut configs, rng, k);
        }
        let base = zoo::build(&params);
        let position = |n| {
            base.network
                .config_nodes
                .iter()
                .position(|&m| m == n)
                .expect("a reflector is a configured router")
        };
        Variant {
            texts: configs.iter().map(print_config).collect(),
            reflectors: base.reflectors.iter().map(|&n| position(n)).collect(),
            clusters: base.clusters,
            params,
            last_report: None,
        }
    }
}

/// What the timed path hands back for checking.
pub struct Verdict {
    /// One report per suite: peering, fencing.
    pub reports: Vec<api::PropertyReport>,
    /// Their timing-free JSON text.
    pub json: String,
    /// Per-op counts for the layer ledger.
    pub counts: Vec<(String, f64)>,
}

/// The timed path: text → parse → lower → suites → verify → render.
/// `full_report` keeps every outcome and renders the cores (what
/// `lightyear verify --json` shows); without it outcomes fold into
/// streaming summaries as they complete (what `bench --zoo` runs).
pub fn verify_text(
    v: &Variant,
    mode: RunMode,
    full_report: bool,
    tr: &mut Tracer,
) -> Result<Verdict, String> {
    let t = tr.start("bgp-config.parse");
    let asts = v
        .texts
        .iter()
        .map(|text| parse_config(text))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    tr.end(t);

    let t = tr.start("bgp-config.lower");
    let network = lower(&asts).map_err(|e| e.to_string())?;
    tr.end(t);

    // The suite builders depend on the lowered node ids, so they run
    // per op; the scenario's other fields are the set-up's.
    let t = tr.start("netgen.suite");
    let scen = ZooScenario {
        params: v.params.clone(),
        reflectors: v
            .reflectors
            .iter()
            .map(|&i| network.config_nodes[i])
            .collect(),
        clusters: v.clusters.clone(),
        network,
    };
    let (peering_props, peering_inv) = scen.peering_suite();
    let (fencing_props, fencing_inv) = scen.fencing_suite();
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> = vec![
        (&peering_props, &peering_inv),
        (&fencing_props, &fencing_inv),
    ];
    let topo = &scen.network.topology;
    let verifier = Verifier::new(topo, &scen.network.policy)
        .with_mode(mode)
        .with_jobs(pool_jobs())
        .with_ghost(scen.from_peer_ghost());
    tr.end(t);

    let mut counts: Vec<(String, f64)> = Vec::new();
    let mut count = |name: &str, v: f64| counts.push((name.to_string(), v));
    let t = tr.start("core.verify");
    let (summaries, exec): (Vec<ReportSummary>, _) = if full_report {
        let multi = verifier.verify_safety_batch(&suites);
        let summaries = multi.reports.iter().map(lightyear::Report::summarize);
        (summaries.collect(), multi.exec)
    } else {
        let multi = verifier.verify_safety_batch_streaming(&suites, false);
        (multi.summaries, multi.exec)
    };
    tr.end(t);
    if mode == RunMode::Parallel {
        count("orchestrator.generated", exec.generated as f64);
        count("orchestrator.executed", exec.executed as f64);
        count("orchestrator.groups", exec.groups as f64);
        count("orchestrator.steals", exec.steals as f64);
        count("orchestrator.dedup_ratio", exec.dedup_ratio());
    }

    let t = tr.start("api.render");
    let reports: Vec<api::PropertyReport> = ["zoo-peering", "zoo-fencing"]
        .iter()
        .zip(&suites)
        .zip(&summaries)
        .map(|((name, (props, inv)), summary)| {
            let conjuncts = if full_report {
                let t = tr.start("core.conjuncts");
                let c = verifier.check_conjuncts_all(props, inv);
                tr.end(t);
                c
            } else {
                Vec::new()
            };
            property_report(name, summary, topo, &conjuncts)
        })
        .collect();
    let json = to_json(&reports);
    tr.end(t);

    let max = |f: fn(&ReportSummary) -> u64| summaries.iter().map(f).max().unwrap_or(0) as f64;
    count("smt.max_vars", max(ReportSummary::max_vars));
    count("smt.max_clauses", max(ReportSummary::max_clauses));
    count(
        "bgp-config.input_bytes",
        v.texts.iter().map(String::len).sum::<usize>() as f64,
    );
    count(
        "bgp-config.route_map_entries",
        route_map_entries(&scen.network) as f64,
    );
    count("api.report_bytes", json.len() as f64);

    // Freeing what an op built is part of the op; file it under the
    // layer whose values are freed instead of leaving it unattributed.
    let t = tr.start("core.drop");
    drop((summaries, verifier, suites));
    drop((peering_props, peering_inv, fencing_props, fencing_inv));
    tr.end(t);
    let t = tr.start("bgp-config.drop");
    drop((scen, asts));
    tr.end(t);
    Ok(Verdict {
        reports,
        json,
        counts,
    })
}

/// Size of the lowered policy: entries over every attached route map.
pub fn route_map_entries(net: &bgp_config::Network) -> usize {
    net.topology
        .edge_ids()
        .flat_map(|e| [net.policy.import_map(e), net.policy.export_map(e)])
        .flatten()
        .map(|m| m.entries.len())
        .sum()
}

/// A corpus workload after set-up.
pub struct Zoo {
    variants: Vec<Variant>,
    mode: RunMode,
    next: usize,
}

impl Zoo {
    /// The sequential workload keeps full reports with cores, like
    /// `lightyear verify --json`; the orchestrated one streams.
    fn full_report(&self) -> bool {
        self.mode == RunMode::Sequential
    }

    /// [`VARIANTS`] wirings of one corpus entry, scaled down to at most
    /// `max_routers` (tests; the workloads run full size).
    pub fn corpus(seed: u64, name: &str, max_routers: usize, quarantined: bool) -> Zoo {
        let mut rng = Rng::new(seed, 1 + quarantined as u64);
        let entry = CORPUS
            .iter()
            .find(|e| e.name == name)
            .expect("a corpus entry name");
        let variants = (0..VARIANTS)
            .map(|_| {
                let params = ZooParams::scaled(entry, max_routers).with_seed(rng.next_u64());
                Variant::new(params, quarantined.then_some((&mut rng, QUARANTINE_K)))
            })
            .collect();
        Zoo {
            variants,
            mode: if quarantined {
                RunMode::Sequential
            } else {
                RunMode::Parallel
            },
            next: 0,
        }
    }

    /// `zoo-homog`: Kdl (754 routers), orchestrated on the pool — what
    /// `bench --zoo` and the README headline run.
    pub fn homog(seed: u64) -> Zoo {
        Zoo::corpus(seed, "Kdl", usize::MAX, false)
    }

    /// `zoo-hetero`: Cogentco (197 routers) with the `QUARANTINE`
    /// perturbation, sequential — the `lightyear verify` default.
    pub fn hetero(seed: u64) -> Zoo {
        Zoo::corpus(seed, "Cogentco", usize::MAX, true)
    }
}

impl Workload for Zoo {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let i = self.next % self.variants.len();
        self.next += 1;
        tr.begin_op();
        let verdict = verify_text(&self.variants[i], self.mode, self.full_report(), tr);
        let wall = tr.end_op();
        let (report, checks, answer, counts) = match verdict {
            Ok(v) => (
                v.json,
                v.reports.iter().map(|r| r.checks).sum(),
                Expect::Pass.check(&v.reports),
                v.counts,
            ),
            Err(e) => (String::new(), 0, Err(e), Vec::new()),
        };
        self.variants[i].last_report = Some(Digest::of(&[&report]));
        OpResult {
            wall,
            checks,
            kind: format!("variant{i}"),
            input: Some(i as u64),
            report,
            answer,
            counts,
            child_metrics: None,
        }
    }

    fn input_digest(&self) -> Digest {
        let mut d = Digest::default();
        for v in &self.variants {
            d.feed(&Digest::of(&v.texts).0.to_le_bytes());
        }
        d
    }

    /// One untimed op per variant on the other run mode: it must render
    /// the bytes the sequential run rendered.
    fn cross_check(&mut self) -> Vec<String> {
        if self.mode != RunMode::Sequential {
            return Vec::new();
        }
        let mut tr = Tracer::new(false);
        self.variants
            .iter()
            .enumerate()
            .filter(|(_, v)| v.last_report.is_some())
            .filter_map(
                |(i, v)| match verify_text(v, RunMode::Parallel, true, &mut tr) {
                    Ok(p) if Some(Digest::of(&[&p.json])) == v.last_report => None,
                    Ok(_) => Some(format!(
                        "variant{i}: parallel and sequential reports differ"
                    )),
                    Err(e) => Some(format!("variant{i}: parallel run failed: {e}")),
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cogentco24() -> ZooParams {
        let entry = CORPUS.iter().find(|e| e.name == "Cogentco").unwrap();
        ZooParams::scaled(entry, 24)
    }

    fn dedup_ratio(v: &Verdict) -> f64 {
        v.counts
            .iter()
            .find(|(n, _)| n == "orchestrator.dedup_ratio")
            .expect("parallel runs report the ratio")
            .1
    }

    #[test]
    fn quarantine_keeps_verdict_and_check_count_and_defeats_dedup() {
        let mut tr = Tracer::new(false);
        let plain = Variant::new(cogentco24(), None);
        let mut rng = Rng::new(1, 2);
        let perturbed = Variant::new(cogentco24(), Some((&mut rng, QUARANTINE_K)));
        let a = verify_text(&plain, RunMode::Parallel, false, &mut tr).unwrap();
        let b = verify_text(&perturbed, RunMode::Parallel, false, &mut tr).unwrap();
        assert!(Expect::Pass.check(&a.reports).is_ok());
        assert!(Expect::Pass.check(&b.reports).is_ok());
        let checks = |v: &Verdict| v.reports.iter().map(|r| r.checks).sum::<u64>();
        assert_eq!(checks(&a), checks(&b));
        assert!(dedup_ratio(&b) > 0.2, "perturbed: {}", dedup_ratio(&b));
        assert!(dedup_ratio(&b) > dedup_ratio(&a));
    }

    #[test]
    fn both_run_modes_render_the_same_bytes() {
        let mut tr = Tracer::new(false);
        let mut rng = Rng::new(3, 2);
        let v = Variant::new(cogentco24(), Some((&mut rng, 4)));
        let seq = verify_text(&v, RunMode::Sequential, true, &mut tr).unwrap();
        let par = verify_text(&v, RunMode::Parallel, true, &mut tr).unwrap();
        assert_eq!(seq.json, par.json);
    }
}
