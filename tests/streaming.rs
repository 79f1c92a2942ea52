//! Streaming is the only assembly path, on the pool too: a multi-worker
//! run hands outcomes to the sink in check-id order while later groups
//! are still being solved, and never holds all of them at once.
//!
//! Alone in its test binary because it reads a gauge and a counter off
//! the process-global metrics sink; the tests here take turns.

use lightyear::check::CheckHead;
use lightyear::engine::Verifier;
use netgen::mutate;
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, CORPUS};
use smt::SolverStats;
use std::collections::HashMap;
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

#[test]
fn runs_stream_in_order_through_a_window_of_structures() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let entry = CORPUS.iter().find(|e| e.name == "Uninett").unwrap();
    let scen = zoo::build(&ZooParams::for_entry(entry));
    let (peering_props, peering_inv) = scen.peering_suite();
    let (fencing_props, fencing_inv) = scen.fencing_suite();
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> = vec![
        (&peering_props, &peering_inv),
        (&fencing_props, &fencing_inv),
    ];

    for jobs in [1, 2] {
        let verifier = Verifier::new(&scen.network.topology, &scen.network.policy)
            .with_ghost(scen.from_peer_ghost())
            .with_jobs(jobs);
        let reg = obs::install();
        let multi = verifier.verify_safety_batch_streaming(&suites, true);
        let frontier_peak = reg.snapshot().gauge("engine.report_frontier_peak");
        // Each session's span counts the distinct edges it answered for
        // (what `lightyear profile` prints beside a merged group).
        let edges: Vec<usize> = (reg.spans().iter())
            .filter(|s| s.name == "solve_group")
            .map(|s| {
                let (_, n) = s.args.iter().find(|(k, _)| *k == "edges").unwrap();
                n.parse().unwrap()
            })
            .collect();
        obs::uninstall();
        assert_eq!(edges.len(), multi.exec.groups);
        assert!(edges.iter().any(|&n| n > 1), "no merged group: {edges:?}");

        assert!(multi.all_passed());
        assert_eq!(multi.exec.threads, jobs);
        // Summaries retain cores in push order, so ascending ids there
        // mean the sink saw ascending ids.
        for summary in &multi.summaries {
            let ids: Vec<usize> = summary.cores().iter().map(|(c, _)| c.id).collect();
            assert!(ids.len() > 1, "session-solved passes carry cores");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        }
        // The window holds one entry per decided structure with members
        // still to release, never one per outcome: at any worker count
        // it is bounded by the structure count, which dedup puts far
        // below the check count (a per-outcome window peaks near 800
        // here, and the parent never set the gauge).
        let (unique, checks) = (multi.exec.unique as u64, multi.num_checks() as u64);
        assert!(unique * 10 < checks, "{unique} structures, {checks} checks");
        assert!(
            (1..=unique).contains(&frontier_peak),
            "jobs {jobs}: window peaked at {frontier_peak} of {unique} structures"
        );
        // Entries leave as the cursor passes their last member, not at
        // the end of the run. One worker solves inline, so its peak is
        // fixed: 27 of 34 classes, where a window that counted members
        // or never freed a slot would read otherwise (a session answers
        // every edge with its relation, so a group decides classes far
        // ahead of the cursor). On the pool the
        // same window races the workers and the peak depends on how
        // long the delivering thread is kept off its core.
        if jobs == 1 {
            assert_eq!(frontier_peak, 27, "of {unique} structures");
        }
    }
}

/// The three assembly paths over one faulty WAN say the same thing, and
/// a streaming summary describes a failing check only: a passing one
/// leaves its head and core, never a descriptor.
#[test]
fn a_check_is_described_only_when_its_outcome_is_kept() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let params = WanParams {
        regions: 3,
        routers_per_region: 3,
        edge_routers: 6,
        peers_per_edge: 2,
        seed: 20230910,
    };
    let mut configs = wan::configs(&params);
    mutate::drop_aspath_filters(&mut configs, "EDGE1", "FROM-PEER1").unwrap();
    mutate::drop_prefix_deny(&mut configs, "EDGE2", "FROM-PEER1", "BOGONS").unwrap();
    let scen = wan::build_from_configs(&params, configs);
    let inputs: Vec<_> = scen
        .peering_predicates()
        .iter()
        .map(|(_, q)| scen.peering_property_inputs(q))
        .collect();
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> =
        inputs.iter().map(|(p, i)| (p.as_slice(), i)).collect();
    let topo = &scen.network.topology;
    let verifier = Verifier::new(topo, &scen.network.policy).with_ghost(scen.from_peer_ghost());

    /// A run's result and how many descriptors it built.
    fn counted<T>(run: impl FnOnce() -> T) -> (T, u64) {
        let reg = obs::install();
        let out = run();
        obs::uninstall();
        (out, reg.snapshot().counter("engine.checks_described"))
    }
    let (batch, by_batch) = counted(|| verifier.verify_safety_batch(&suites));
    let (lean, by_lean) = counted(|| verifier.verify_safety_batch_streaming(&suites, false));
    let (full, by_full) = counted(|| verifier.verify_safety_batch_streaming(&suites, true));

    let (mut failures, mut cores) = (0, 0);
    for ((report, lean), full) in batch
        .reports
        .iter()
        .zip(&lean.summaries)
        .zip(&full.summaries)
    {
        assert_eq!(report.num_checks(), lean.num_checks());
        assert_eq!(report.num_checks(), full.num_checks());
        let rendered = report.format_failures(topo);
        assert_eq!(rendered, lean.format_failures(topo));
        assert_eq!(rendered, full.format_failures(topo));
        // The blame rows, (id, kind, location, core): the streaming
        // summary's equal the report's and its summarized form's.
        assert_eq!(full.cores(), report_rows(report).as_slice());
        assert_eq!(full.cores(), report.summarize().cores());
        assert!(lean.cores().is_empty());
        failures += report.failures().len() as u64;
        cores += report.cores().len() as u64;
    }
    assert!(failures >= 2, "both injected bugs are found");
    assert!(cores > failures, "most checks pass with a core");
    // A full report describes every check; a summary only its failures.
    assert_eq!(by_batch, batch.num_checks() as u64);
    assert_eq!(by_lean, failures, "a passing check was materialised");
    assert_eq!(by_full, failures, "a passing check was materialised");
}

/// A report's blame rows, as a summary keeps them.
fn report_rows(report: &lightyear::Report) -> Vec<(CheckHead, Vec<usize>)> {
    (report.cores().iter())
        .map(|&(c, k)| (c.into(), k.to_vec()))
        .collect()
}

/// A liveness report's summary keeps the report's blame rows, ids,
/// kinds and locations of the walk included.
#[test]
fn liveness_summaries_keep_the_reports_blame_rows() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let fig = netgen::figure1::build();
    let verifier =
        Verifier::new(&fig.network.topology, &fig.network.policy).with_ghost(fig.ghost.clone());
    let report = verifier.verify_liveness(&fig.customer_liveness).unwrap();
    let rows = report_rows(&report);
    assert!(rows.len() > 1, "liveness passes carry cores");
    let kinds: std::collections::BTreeSet<_> = rows.iter().map(|(h, _)| h.kind.as_str()).collect();
    assert!(kinds.len() > 1, "{kinds:?}");
    assert_eq!(report.summarize().cores(), rows.as_slice());
}

/// The window releases a class's representative first, with the one
/// real solve's work counters, and every dedup copy after it with the
/// representative's formula size alone — at any worker count, however
/// the pool orders the groups.
#[test]
fn only_a_class_representative_carries_its_solve_work() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let entry = CORPUS.iter().find(|e| e.name == "Uninett").unwrap();
    let scen = zoo::build(&ZooParams::for_entry(entry));
    let (peering_props, peering_inv) = scen.peering_suite();
    let (fencing_props, fencing_inv) = scen.fencing_suite();
    let suites: Vec<(&[lightyear::SafetyProperty], &lightyear::NetworkInvariants)> = vec![
        (&peering_props, &peering_inv),
        (&fencing_props, &fencing_inv),
    ];
    let verifier = Verifier::new(&scen.network.topology, &scen.network.policy)
        .with_ghost(scen.from_peer_ghost());
    // Batch positions run suite by suite, each in check-id order.
    let classes: Vec<_> = (verifier.batch_digests(&suites).into_iter())
        .flatten()
        .map(|d| d.class)
        .collect();
    let sequential = verifier.clone().with_jobs(1).verify_safety_batch(&suites);
    assert!(sequential.all_passed());

    /// What a dedup copy keeps of its representative's stats.
    fn size_only(st: &SolverStats) -> SolverStats {
        SolverStats {
            num_vars: st.num_vars,
            num_clauses: st.num_clauses,
            ..SolverStats::default()
        }
    }
    let worked = |st: &SolverStats| {
        let sat = &st.sat;
        !(st.encode_time + st.solve_time).is_zero()
            || sat.decisions + sat.propagations + sat.conflicts + sat.restarts + sat.learnts > 0
    };

    for jobs in [2, 4] {
        let multi = verifier
            .clone()
            .with_jobs(jobs)
            .verify_safety_batch(&suites);
        assert_eq!(multi.exec.threads, jobs);
        assert_eq!(multi.exec.unique, sequential.exec.unique);
        for (report, seq) in multi.reports.iter().zip(&sequential.reports) {
            let ids: Vec<usize> = report.outcomes.iter().map(|o| o.check.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "jobs {jobs}: {ids:?}");
            assert_eq!(report.to_string(), seq.to_string(), "jobs {jobs}");
        }
        let outcomes: Vec<_> = multi.reports.iter().flat_map(|r| &r.outcomes).collect();
        assert_eq!(outcomes.len(), classes.len());

        let mut rep_of = HashMap::new();
        let (mut solved, mut copies) = (0, 0);
        for (pos, (o, class)) in outcomes.iter().zip(&classes).enumerate() {
            let rep = *rep_of.entry(*class).or_insert(pos);
            let rep_stats = &outcomes[rep].stats;
            if rep == pos {
                // Originate checks are evaluated concretely: no formula.
                if o.stats.num_vars > 0 {
                    assert!(worked(&o.stats), "jobs {jobs}: representative {pos} ran");
                    solved += 1;
                }
            } else {
                let (got, want) = (
                    format!("{:?}", o.stats),
                    format!("{:?}", size_only(rep_stats)),
                );
                assert_eq!(got, want, "jobs {jobs}: copy {pos} of {rep}");
                copies += 1;
            }
        }
        assert_eq!(rep_of.len(), multi.exec.unique);
        assert!(
            solved > 1 && copies > 10 * rep_of.len(),
            "{solved} solved, {copies} copies"
        );
    }
}
