//! End-to-end tests of the differential fuzzing subsystem: campaign
//! greenness across the topology families, injected-bug detection, and the
//! minimize → repro → replay loop (the ISSUE-5 acceptance criteria at
//! test scale; the CI smoke step runs the release binary at 25 cases).

use fuzz::{
    bug_oracle, edit_oracle, injection_sample, minimize, read_repro, replay, rerun, write_repro,
    CampaignConfig, FailingCase, FamilyId, FamilyParams, OracleId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn campaign_is_green_across_every_family() {
    let cfg = CampaignConfig {
        seed: 0xf00d,
        cases: FamilyId::all().len(),
        edit_steps: 2,
        sim_rounds: 1,
        inject: true,
        ..CampaignConfig::default()
    };
    let out = fuzz::run_campaign(&cfg);
    assert!(
        out.failure.is_none(),
        "discrepancy: {}",
        out.failure
            .as_ref()
            .map(|(_, d)| d.to_string())
            .unwrap_or_default()
    );
    assert_eq!(
        out.per_family.len(),
        FamilyId::all().len(),
        "all families covered"
    );
    assert!(out.injections > 0);
    assert_eq!(
        out.injections_caught, out.injections,
        "every curated injected bug must be caught by an oracle"
    );
}

/// Every `netgen::mutate`-injected bug in the seeded sample is caught by
/// at least one oracle, for every family.
#[test]
fn injected_bugs_are_caught_in_every_family() {
    for (fi, family) in FamilyId::all().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xabcd + fi as u64);
        let params = FamilyParams::random(*family, &mut rng);
        let sample = injection_sample(&params);
        assert!(!sample.is_empty(), "{family}: empty injection sample");
        for (desc, inject) in sample {
            let mut configs = params.configs();
            assert!(inject(&mut configs), "{desc}: mutation must apply");
            let case = params.build_from(configs);
            assert!(
                bug_oracle(&case, 7).is_ok(),
                "{desc}: injected bug was not caught"
            );
        }
    }
}

/// The edit-sequence oracle holds on the three new families.
#[test]
fn edit_sequences_stay_byte_identical_on_new_families() {
    for family in [FamilyId::Rr, FamilyId::Stub, FamilyId::HubSpoke] {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let case = FamilyParams::random(family, &mut rng).build();
        let (seeds, result) = edit_oracle(&case, 0x11, 3);
        assert!(
            result.is_ok(),
            "{family}: {:?} (after edits {seeds:?})",
            result.err()
        );
    }
}

/// A known failing case (injected bug, failing-verification oracle)
/// minimizes to a strictly smaller configuration set, and the written
/// repro directory replays to the same failure.
#[test]
fn minimizer_produces_strictly_smaller_replayable_repros() {
    let params = FamilyParams::Wan(netgen::wan::WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 2,
        peers_per_edge: 2,
        seed: 0,
    });
    let mut configs = params.configs();
    assert!(
        netgen::mutate::drop_prefix_deny(&mut configs, "EDGE0", "FROM-PEER0", "BOGONS").is_some()
    );
    let fc = FailingCase {
        params,
        configs,
        edit_seeds: Vec::new(),
        oracle: OracleId::Verify,
        sim_seed: 3,
        sim_rounds: 4,
        detail: "wan bogon filter dropped".into(),
    };
    assert!(
        rerun(&fc).is_some(),
        "the injected bug must fail verification"
    );

    let before = fuzz::case_size(&fc.configs);
    let min = minimize(&fc);
    let after = fuzz::case_size(&min.configs);
    assert!(after < before, "no reduction: {before} -> {after}");
    assert!(rerun(&min).is_some(), "reduced case must still fail");

    let dir = std::env::temp_dir().join(format!("lightyear-fuzz-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_repro(&min, &dir).unwrap();
    // The repro round-trips: same params, same oracle, still failing.
    let back = read_repro(&dir).unwrap();
    assert_eq!(back.params.encode(), min.params.encode());
    assert_eq!(back.oracle, OracleId::Verify);
    assert!(replay(&dir).unwrap().is_some(), "repro must reproduce");
    let _ = std::fs::remove_dir_all(&dir);
}
