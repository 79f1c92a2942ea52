//! Inputs shared by the integration tests that verify generated
//! networks.

use bgp_config::ast::{ConfigAst, MatchAst, PrefixListEntry, RouteMapEntryAst};
use netgen::zoo::{self, ZooParams, ZooScenario};

/// `a.b.c.0/24 le 32` with the first octet in 11..=99, clear of every
/// prefix the generators use.
fn slash24(seq: u32, bits: u64) -> PrefixListEntry {
    let (a, b, c) = (11 + (bits >> 16) % 89, (bits >> 8) % 256, bits % 256);
    PrefixListEntry {
        seq,
        permit: true,
        prefix: format!("{a}.{b}.{c}.0/24").parse().unwrap(),
        ge: None,
        le: Some(32),
    }
}

/// Give every router a `QUARANTINE` list of `k` /24s no other router
/// has, denied at seq 1 of every route-map.
pub fn quarantine(configs: &mut [ConfigAst], k: usize) {
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for cfg in configs {
        let entries = (0..k)
            .map(|j| slash24(5 * (j as u32 + 1), next()))
            .collect();
        cfg.prefix_lists.insert("QUARANTINE".into(), entries);
        for entries in cfg.route_maps.values_mut() {
            entries.insert(
                0,
                RouteMapEntryAst {
                    seq: 1,
                    permit: false,
                    matches: vec![MatchAst::PrefixList(vec!["QUARANTINE".into()])],
                    sets: vec![],
                    continue_to: None,
                },
            );
        }
    }
}

/// Lower `configs` as a zoo scenario of `params`; reflectors and
/// clusters come from the unperturbed build, at the same positions.
pub fn zoo_scenario(params: ZooParams, configs: &[ConfigAst]) -> ZooScenario {
    let network = bgp_config::lower(configs).expect("zoo configs lower");
    let base = zoo::build(&params);
    let position = |n| {
        (base.network.config_nodes.iter())
            .position(|&m| m == n)
            .unwrap()
    };
    let reflectors = (base.reflectors.iter())
        .map(|&n| network.config_nodes[position(n)])
        .collect();
    ZooScenario {
        params,
        network,
        reflectors,
        clusters: base.clusters,
    }
}
