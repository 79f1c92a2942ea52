//! Streaming is the only assembly path, on the pool too: a multi-worker
//! run hands outcomes to the sink in check-id order while later groups
//! are still being solved, and never holds all of them at once.
//!
//! Alone in its test binary because it reads a gauge off the
//! process-global metrics sink.

use lightyear::engine::Verifier;
use netgen::zoo::{self, ZooParams, CORPUS};

#[test]
fn runs_stream_in_order_through_a_window_of_structures() {
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
        obs::uninstall();

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
        // fixed and strictly below the structure count; on the pool the
        // same window races the workers and the peak depends on how
        // long the delivering thread is kept off its core.
        if jobs == 1 {
            assert!(
                frontier_peak < unique,
                "window never drained: peaked at all {unique} structures"
            );
        }
    }
}
