//! `wan-edits`: the delta path. The layers the cold workloads spend
//! their time in are used the other way round here — a stream of small
//! edits against warm `ReverifyEngine`s, so `delta`, fingerprint
//! diffing, the carried result cache and warm sessions do the work and
//! `smt` does little. A cold-path gain bought by making carried state
//! costlier shows on this workload.

use crate::render::{property_report, to_json};
use crate::seed::{Digest, Rng};
use crate::spans::Tracer;
use crate::zoo::{leading_deny, route_map_entries, slash24};
use crate::{Expect, OpResult, Workload, OUT_DIR};
use bgp_config::ast::{ConfigAst, MatchAst, PrefixListEntry, RouteMapEntryAst};
use bgp_config::{lower, parse_config, print_config};
use delta::diff_configs;
use lightyear::engine::Verifier;
use lightyear::reverify::{ReverifyEngine, ReverifyStats};
use netgen::wan::{self, Scenario, WanMetadata, WanParams};
use netgen::{edits, mutate};
use std::time::Instant;

/// The §6.1-sized WAN both WAN workloads use: 8 regions × 4 routers and
/// 16 edge routers × 12 peers (48 routers, 584 edges).
pub fn full_size() -> WanParams {
    WanParams {
        regions: 8,
        routers_per_region: 4,
        edge_routers: 16,
        peers_per_edge: 12,
        seed: 0,
    }
}

/// The four peering predicates verified, each on its own warm engine.
/// Every bug kind in the mix breaks at least one of them.
pub const PREDICATES: [&str; 4] = [
    "no-bogons",
    "no-reused-from-peers",
    "no-private-asn",
    "peer-tagged",
];

/// One block of the edit schedule: 40 % cosmetic, 30 % safe-semantic,
/// 15 % inject a bug, 15 % revert it. Each block is shuffled by the
/// seed; injections and reverts alternate, so a block starts and ends
/// with no bug outstanding and every run sees the same mix.
const BLOCK: [Kind; 20] = {
    use Kind::*;
    [
        Cosmetic, Cosmetic, Cosmetic, Cosmetic, Cosmetic, Cosmetic, Cosmetic, Cosmetic, Safe, Safe,
        Safe, Safe, Safe, Safe, Bug, Bug, Bug, Revert, Revert, Revert,
    ]
};

/// The edit kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A rename or an unused object: the verifier must observe nothing.
    Cosmetic,
    /// A leading `deny` on a fresh prefix: dirties checks, breaks nothing.
    Safe,
    /// One `netgen::mutate` bug on a peer import map.
    Bug,
    /// Undo the outstanding bug.
    Revert,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cosmetic => "cosmetic",
            Kind::Safe => "safe-semantic",
            Kind::Bug => "bug",
            Kind::Revert => "revert",
        }
    }
}

/// The injected bug not yet reverted.
struct Outstanding {
    /// Index of the router's configuration, and that configuration
    /// before the bug. No other edit touches the router meanwhile.
    index: usize,
    before: ConfigAst,
    expect: Expect,
}

/// The workload after set-up.
pub struct Edits {
    params: WanParams,
    rng: Rng,
    /// The editor's side: the configuration set and its text per router.
    configs: Vec<ConfigAst>,
    texts: Vec<String>,
    /// The verifier's side: the set accepted by the previous round.
    accepted: Vec<ConfigAst>,
    engines: Vec<ReverifyEngine>,
    schedule: Vec<Kind>,
    bug: Option<Outstanding>,
    fresh: u32,
}

/// What a round hands back for checking.
struct Round {
    reports: Vec<api::PropertyReport>,
    json: String,
    stats: ReverifyStats,
    cosmetic_delta: bool,
    counts: Vec<(String, f64)>,
}

fn merge(into: &mut ReverifyStats, s: &ReverifyStats) {
    into.total += s.total;
    into.dirty += s.dirty;
    into.candidates += s.candidates;
    into.reused += s.reused;
    into.core_clean += s.core_clean;
    into.invalidated += s.invalidated;
    into.sessions_reused += s.sessions_reused;
    into.sessions_created += s.sessions_created;
    into.universe_reset |= s.universe_reset;
}

/// Peer import maps by content, not by name (renames move the names):
/// the maps that deny the `BOGONS` list.
fn peer_import_maps(cfg: &ConfigAst) -> Vec<String> {
    let denies_bogons = |e: &RouteMapEntryAst| {
        !e.permit
            && e.matches.iter().any(
                |m| matches!(m, MatchAst::PrefixList(names) if names.iter().any(|n| n == "BOGONS")),
            )
    };
    cfg.route_maps
        .iter()
        .filter(|(_, entries)| entries.iter().any(denies_bogons))
        .map(|(name, _)| name.clone())
        .collect()
}

/// Break one peer import map with one of the four `netgen::mutate` bug
/// kinds, seeded; the answer is a failure blamed on that map.
pub fn inject_bug(configs: &mut [ConfigAst], rng: &mut Rng, router: &str, map: &str) -> Expect {
    let bug = match rng.below(4) {
        0 => mutate::drop_community_sets(configs, router, map),
        1 => mutate::drop_aspath_filters(configs, router, map),
        2 => mutate::drop_prefix_deny(configs, router, map, "BOGONS"),
        _ => mutate::drop_prefix_deny(configs, router, map, "REUSED"),
    }
    .expect("a peer import map has all four filters");
    Expect::Fail {
        router: bug.router,
        route_map: bug.route_map,
    }
}

const BENCH_DENY: &str = "BENCH-DENY";
const BENCH_UNUSED: &str = "BENCH-UNUSED";

impl Edits {
    /// Synthesize the WAN, print it, and verify the baseline round on
    /// fresh engines so that every later round is a warm one.
    pub fn new(seed: u64, size: WanParams) -> Edits {
        let mut rng = Rng::new(seed, 3);
        let params = size.with_seed(rng.next_u64());
        let configs = wan::configs(&params);
        let texts: Vec<String> = configs.iter().map(print_config).collect();
        let mut w = Edits {
            params,
            rng,
            configs,
            texts,
            accepted: Vec::new(),
            engines: PREDICATES.iter().map(|_| ReverifyEngine::new()).collect(),
            schedule: Vec::new(),
            bug: None,
            fresh: 0,
        };
        let baseline = w
            .round(&mut Tracer::new(false), true)
            .expect("generator output parses and lowers");
        Expect::Pass
            .check(&baseline.reports)
            .expect("generator output verifies");
        w
    }

    /// The next edit kind: blocks of [`BLOCK`], shuffled, with the bug
    /// and revert slots re-dealt so that they alternate.
    fn next_kind(&mut self) -> Kind {
        if self.schedule.is_empty() {
            let mut block = BLOCK.to_vec();
            self.rng.shuffle(&mut block);
            let mut inject = true;
            for k in &mut block {
                if matches!(k, Kind::Bug | Kind::Revert) {
                    *k = if inject { Kind::Bug } else { Kind::Revert };
                    inject = !inject;
                }
            }
            block.reverse();
            self.schedule = block;
        }
        self.schedule.pop().expect("the block was just refilled")
    }

    /// A router other than the one carrying the outstanding bug.
    fn pick_router(&mut self, edge_only: bool) -> usize {
        loop {
            let i = self.rng.below(self.configs.len());
            let busy = self.bug.as_ref().is_some_and(|b| b.index == i);
            let fits = if edge_only {
                !peer_import_maps(&self.configs[i]).is_empty()
            } else {
                !self.configs[i].route_maps.is_empty()
            };
            if !busy && fits {
                return i;
            }
        }
    }

    /// A one-entry prefix-list body on a /24 no earlier edit has used.
    fn fresh_prefix(&mut self) -> PrefixListEntry {
        self.fresh += 1;
        slash24(5, self.fresh.into())
    }

    fn pick_map(&mut self, i: usize) -> String {
        let names: Vec<&String> = self.configs[i].route_maps.keys().collect();
        names[self.rng.below(names.len())].clone()
    }

    /// Apply one edit of `kind` to the editor's configuration set and
    /// re-print the router it touched. Returns the answer the next round
    /// must give.
    fn apply(&mut self, kind: Kind) -> Expect {
        let i = match kind {
            Kind::Revert => self.bug.as_ref().expect("reverts follow bugs").index,
            Kind::Bug => self.pick_router(true),
            Kind::Cosmetic | Kind::Safe => self.pick_router(false),
        };
        let router = self.configs[i].hostname.clone();
        match kind {
            Kind::Cosmetic if self.rng.below(2) == 0 => {
                // Rename there and back: the configuration stays the size
                // it was, however long the run.
                let map = self.pick_map(i);
                let to = match map.strip_suffix("-R") {
                    Some(base) => base.to_string(),
                    None => format!("{map}-R"),
                };
                edits::rename_route_map(&mut self.configs, &router, &map, &to)
                    .expect("the map exists and the new name is free");
            }
            Kind::Cosmetic => {
                // Add an unreferenced list, or take it away again. The
                // generator's list is empty and an empty list prints as
                // nothing, so it gets one entry to show up in the text.
                if self.configs[i].prefix_lists.remove(BENCH_UNUSED).is_none() {
                    edits::add_unused_prefix_list(&mut self.configs, &router, BENCH_UNUSED)
                        .expect("the list was just found absent");
                    let entry = self.fresh_prefix();
                    self.configs[i]
                        .prefix_lists
                        .insert(BENCH_UNUSED.into(), vec![entry]);
                }
            }
            Kind::Safe => {
                let map = self.pick_map(i);
                let fresh = self.fresh_prefix();
                let n = self.fresh;
                let cfg = &mut self.configs[i];
                let entries = cfg.route_maps.get_mut(&map).expect("picked from the keys");
                // A map carries at most one harness deny; a second edit
                // of the same map moves it to another fresh prefix.
                let list = match entries.first() {
                    Some(RouteMapEntryAst {
                        seq: 1, matches, ..
                    }) => match matches.as_slice() {
                        [MatchAst::PrefixList(names)] => names[0].clone(),
                        _ => unreachable!("seq 1 is the harness's own entry"),
                    },
                    _ => {
                        let list = format!("{BENCH_DENY}-{n}");
                        entries.insert(0, leading_deny(&list));
                        list
                    }
                };
                cfg.prefix_lists.insert(list, vec![fresh]);
            }
            Kind::Bug => {
                let maps = peer_import_maps(&self.configs[i]);
                let map = maps[self.rng.below(maps.len())].clone();
                let before = self.configs[i].clone();
                let expect = inject_bug(&mut self.configs, &mut self.rng, &router, &map);
                self.bug = Some(Outstanding {
                    index: i,
                    before,
                    expect,
                });
            }
            Kind::Revert => {
                let bug = self.bug.take().expect("reverts follow bugs");
                self.configs[i] = bug.before;
            }
        }
        self.texts[i] = print_config(&self.configs[i]);
        self.bug.as_ref().map_or(Expect::Pass, |b| b.expect.clone())
    }

    /// The timed path of one round: parse every router's text → diff
    /// against the accepted set → lower → re-verify on each engine →
    /// render. `full` is round zero: no diff, every check a candidate.
    fn round(&mut self, tr: &mut Tracer, full: bool) -> Result<Round, String> {
        let t = tr.start("bgp-config.parse");
        let asts = self
            .texts
            .iter()
            .map(|text| parse_config(text))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        tr.end(t);

        let t = tr.start("delta.diff");
        let delta = (!full).then(|| diff_configs(&self.accepted, &asts));
        let changed = delta.as_ref().map(delta::ConfigDelta::changed_routers);
        tr.end(t);

        let t = tr.start("bgp-config.lower");
        let network = lower(&asts).map_err(|e| e.to_string())?;
        tr.end(t);

        let t = tr.start("netgen.suite");
        let scen = Scenario {
            params: self.params,
            network,
            metadata: WanMetadata {
                regions: Vec::new(),
            },
        };
        let predicates = scen.peering_predicates();
        let suites: Vec<_> = PREDICATES
            .iter()
            .map(|name| {
                let (_, q) = predicates
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("a §6.1 predicate name");
                scen.peering_property_inputs(q)
            })
            .collect();
        let topo = &scen.network.topology;
        let verifier = Verifier::new(topo, &scen.network.policy).with_ghost(scen.from_peer_ghost());
        tr.end(t);

        let t = tr.start("core.verify");
        let mut stats = ReverifyStats::default();
        let reports: Vec<lightyear::Report> = self
            .engines
            .iter_mut()
            .zip(&suites)
            .map(|(engine, (props, inv))| {
                let (report, s) = engine.reverify(&verifier, props, inv, changed.as_deref());
                merge(&mut stats, &s);
                report
            })
            .collect();
        tr.end(t);

        let t = tr.start("api.render");
        let summaries: Vec<_> = reports.iter().map(lightyear::Report::summarize).collect();
        let rendered: Vec<api::PropertyReport> = PREDICATES
            .iter()
            .zip(&suites)
            .zip(&summaries)
            .map(|((name, (props, inv)), summary)| {
                let t = tr.start("core.conjuncts");
                let conjuncts = verifier.check_conjuncts_all(props, inv);
                tr.end(t);
                property_report(name, summary, topo, &conjuncts)
            })
            .collect();
        let json = to_json(&rendered);
        tr.end(t);

        let edits = delta.as_ref().map_or(&[][..], |d| &d.edits);
        let semantic = edits.iter().filter(|e| e.kind.is_semantic()).count();
        let max = |f: fn(&lightyear::Report) -> u64| reports.iter().map(f).max().unwrap_or(0);
        let counts = [
            ("delta.semantic_edits", semantic as f64),
            ("delta.cosmetic_edits", (edits.len() - semantic) as f64),
            (
                "core.dirty_share",
                stats.dirty as f64 / stats.total.max(1) as f64,
            ),
            ("core.reverify_reused", stats.reused as f64),
            ("core.reverify_core_clean", stats.core_clean as f64),
            ("core.reverify_invalidated", stats.invalidated as f64),
            ("core.sessions_reused", stats.sessions_reused as f64),
            ("core.sessions_created", stats.sessions_created as f64),
            ("smt.max_vars", max(lightyear::Report::max_vars) as f64),
            (
                "smt.max_clauses",
                max(lightyear::Report::max_clauses) as f64,
            ),
            (
                "bgp-config.input_bytes",
                self.texts.iter().map(String::len).sum::<usize>() as f64,
            ),
            (
                "bgp-config.route_map_entries",
                route_map_entries(&scen.network) as f64,
            ),
            ("api.report_bytes", json.len() as f64),
        ]
        .map(|(n, v)| (n.to_string(), v))
        .to_vec();
        let cosmetic_delta = delta.as_ref().is_some_and(delta::ConfigDelta::is_cosmetic);

        // Freeing what a round built is part of the round; file it under
        // the layer whose values are freed instead of leaving it
        // unattributed.
        let t = tr.start("core.drop");
        drop((summaries, reports, verifier, suites, predicates));
        tr.end(t);
        let t = tr.start("bgp-config.drop");
        drop((scen, delta));
        self.accepted = asts;
        tr.end(t);
        Ok(Round {
            reports: rendered,
            json,
            stats,
            cosmetic_delta,
            counts,
        })
    }
}

impl Workload for Edits {
    fn op(&mut self, tr: &mut Tracer) -> OpResult {
        let kind = self.next_kind();
        let expect = self.apply(kind);
        tr.begin_op();
        let round = self.round(tr, false);
        let wall = tr.end_op();
        let (report, checks, answer, counts) = match round {
            Ok(r) => {
                let dirty = r.stats.dirty;
                let answer = expect.check(&r.reports).and_then(|()| match kind {
                    Kind::Cosmetic if dirty != 0 || !r.cosmetic_delta => Err(format!(
                        "a cosmetic edit dirtied {dirty} checks (delta cosmetic: {})",
                        r.cosmetic_delta
                    )),
                    Kind::Safe | Kind::Bug if dirty == 0 => {
                        Err(format!("a {} edit dirtied no check", kind.name()))
                    }
                    _ => Ok(()),
                });
                (r.json, r.stats.total as u64, answer, r.counts)
            }
            Err(e) => (String::new(), 0, Err(e), Vec::new()),
        };
        OpResult {
            wall,
            checks,
            kind: kind.name().to_string(),
            // Every round's input is new: nothing to compare bytes with.
            input: None,
            report,
            answer,
            counts,
            child_metrics: None,
        }
    }

    /// The configuration text as edited so far.
    fn input_digest(&self) -> Digest {
        Digest::of(&self.texts)
    }

    /// One timed save and reload of an engine's carried cache: what a
    /// warm-restarted daemon pays. Informational; no end-to-end metric
    /// covers it today.
    fn finish(&mut self) -> Vec<(String, f64)> {
        let dir = std::path::Path::new(OUT_DIR).join(format!("spill-{}", std::process::id()));
        let cache = self.engines[0].cache();
        let t = Instant::now();
        let saved = lightyear::save_check_cache(&cache, &dir);
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes: u64 = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        let t = Instant::now();
        let loaded = lightyear::load_pass_cache(&dir);
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        // Scratch data under the benchmark's own output directory.
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = saved.and(loaded.map(|(_, n)| n)) {
            eprintln!("warning: cache spill round trip failed: {e}");
        }
        vec![
            ("orchestrator.spill_save_ms".to_string(), save_ms),
            ("orchestrator.spill_load_ms".to_string(), load_ms),
            ("orchestrator.spill_bytes".to_string(), bytes as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_regions() -> WanParams {
        WanParams {
            regions: 2,
            routers_per_region: 2,
            edge_routers: 2,
            peers_per_edge: 2,
            seed: 0,
        }
    }

    #[test]
    fn every_edit_kind_yields_its_stated_verdict() {
        let mut w = Edits::new(5, two_regions());
        let mut tr = Tracer::new(false);
        let mut seen = std::collections::BTreeMap::new();
        // Two blocks: every kind several times, bugs outstanding across
        // cosmetic and safe edits, each bug reverted.
        for _ in 0..2 * BLOCK.len() {
            let r = w.op(&mut tr);
            assert_eq!(r.answer, Ok(()), "{} edit", r.kind);
            *seen.entry(r.kind).or_insert(0) += 1;
        }
        assert_eq!(seen["cosmetic"], 16);
        assert_eq!(seen["safe-semantic"], 12);
        assert_eq!(seen["bug"], 6);
        assert_eq!(seen["revert"], 6);
        assert!(w.bug.is_none(), "a block ends with no bug outstanding");
    }

    #[test]
    fn a_bug_is_blamed_where_it_was_injected_until_reverted() {
        let mut w = Edits::new(9, two_regions());
        let mut tr = Tracer::new(false);
        let bug = w.apply(Kind::Bug);
        assert!(matches!(bug, Expect::Fail { .. }));
        let r = w.round(&mut tr, false).unwrap();
        assert_eq!(bug.check(&r.reports), Ok(()));
        assert!(Expect::Pass.check(&r.reports).is_err());
        assert_eq!(w.apply(Kind::Cosmetic), bug, "the bug is still outstanding");
        let r = w.round(&mut tr, false).unwrap();
        assert_eq!(bug.check(&r.reports), Ok(()));
        assert_eq!(r.stats.dirty, 0);
        assert_eq!(w.apply(Kind::Revert), Expect::Pass);
        let r = w.round(&mut tr, false).unwrap();
        assert_eq!(Expect::Pass.check(&r.reports), Ok(()));
    }
}
