//! Synthetic network generators for the Lightyear evaluation.
//!
//! Every generator builds router configurations as [`bgp_config::ast`]
//! values, prints them to IOS-style text and re-parses them, so the full
//! configuration pipeline (printer -> lexer -> parser -> lowering) is
//! exercised on every generated network.
//!
//! * [`figure1`] — the paper's running example (Figure 1): three routers,
//!   two ISPs, a customer, the community-based no-transit scheme, plus the
//!   ghost attribute / property / invariant definitions of Tables 2 & 3.
//! * [`fullmesh`] — the §6.2 scaling workload: `N` routers in an iBGP
//!   full mesh, one eBGP neighbor each, prefix + community filters, with
//!   the no-transit property inputs for both Lightyear and Minesweeper.
//! * [`wan`] — a synthetic cloud WAN in the image of §6.1: regions,
//!   Internet edge routers with many peers, data centers announcing
//!   reused prefixes, region communities, a metadata file, and the
//!   Table 4a/4b/4c property suites.
//! * [`rr`] — an iBGP route-reflector hierarchy: a reflector full mesh
//!   with per-reflector client routers, the sparse session graph real
//!   deployments migrate to.
//! * [`stub`] — a multi-homed stub AS with anycast ingress: provider
//!   preference via local-pref + provenance communities, no-transit in
//!   both directions.
//! * [`hubspoke`] — a hub-and-spoke enterprise WAN: a star of branch
//!   routers around one hub with the Internet uplink, site prefixes
//!   fenced off the uplink.
//! * [`zoo`] — the Internet-scale corpus: curated Topology Zoo backbone
//!   sizes (11 to 754 routers) synthesized deterministically with a
//!   route-reflector overlay, community fencing and peering hygiene
//!   policy; the workload behind the benchmark's `zoo-homog` and
//!   `zoo-hetero`.
//! * [`mutate`] — failure injection: seeded configuration bugs of the
//!   classes the paper found in production (missing community tag, ad-hoc
//!   AS-path policy on one peering, undocumented region community).
//! * [`edits`] — benign reconfiguration traffic for delta-verification
//!   workloads: cosmetic renames, parameter tweaks, peering churn, and a
//!   seeded random-edit generator over the whole menu.

pub mod edits;
pub mod figure1;
pub mod fullmesh;
pub mod hubspoke;
pub mod mutate;
pub mod rr;
pub mod stub;
pub mod wan;
pub mod zoo;

use bgp_config::ast::ConfigAst;
use bgp_config::{lower, parse_config, print_config, Network};

/// Print each AST, re-parse it, and lower the result — the standard path
/// every generator uses so the parser sees all generated text.
pub fn roundtrip_and_lower(asts: &[ConfigAst]) -> Network {
    let reparsed: Vec<ConfigAst> = asts
        .iter()
        .map(|a| {
            let text = print_config(a);
            parse_config(&text).unwrap_or_else(|e| {
                panic!(
                    "generated config for {} failed to reparse: {e}\n{text}",
                    a.hostname
                )
            })
        })
        .collect();
    lower(&reparsed).unwrap_or_else(|e| panic!("generated configs failed to lower: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_roundtrips() {
        let scen = figure1::build();
        assert_eq!(scen.network.topology.router_ids().count(), 3);
        assert_eq!(scen.network.topology.external_ids().count(), 3);
    }

    #[test]
    fn fullmesh_scales() {
        for n in [2, 5, 10] {
            let scen = fullmesh::build(n);
            let t = &scen.network.topology;
            assert_eq!(t.router_ids().count(), n);
            assert_eq!(t.external_ids().count(), n);
            // iBGP mesh: n*(n-1) directed internal edges + 2n external.
            assert_eq!(t.num_edges(), n * (n - 1) + 2 * n);
        }
    }

    #[test]
    fn wan_structure() {
        let params = wan::WanParams {
            regions: 3,
            routers_per_region: 3,
            edge_routers: 4,
            peers_per_edge: 2,
            ..wan::WanParams::default()
        };
        let scen = wan::build(&params);
        let t = &scen.network.topology;
        assert_eq!(t.router_ids().count(), 3 * 3 + 4);
        // One DC per region + peers.
        assert_eq!(t.external_ids().count(), 3 + 4 * 2);
        assert_eq!(scen.metadata.regions.len(), 3);
    }
}
