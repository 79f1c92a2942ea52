//! `Verifier::conjunct_table` builds its table from the site walk it
//! shares with check generation, without generating a check, and
//! `Verifier::check_conjuncts_all` expands it to one row per check. This
//! pins it to a reference derived from each check's public descriptor
//! alone — an import assumes its edge's invariant, an export its
//! sender's, an originate check nothing and a subsumption the invariant
//! at its location — on every `netgen` family, and makes sure the corpus
//! reaches every shape the table has: per-location overrides,
//! multi-property suites, originate checks (`None`) and edges out of
//! external routers (an empty list).

use fuzz::{FamilyId, FamilyParams};
use lightyear::engine::Verifier;
use lightyear::{Check, CheckKind, Location, NetworkInvariants, SafetyProperty};
use netgen::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the compared tables covered, so an all-trivial corpus cannot
/// pass vacuously.
#[derive(Default)]
struct Seen {
    suites: usize,
    multi_property: usize,
    originate: usize,
    unconstrained: usize,
    /// Most distinct non-empty conjunct lists within one suite.
    distinct_lists: usize,
}

/// The row of the conjunct table `check` should have, read off its
/// descriptor: the rendered conjuncts of the invariant it assumes.
fn reference_row(v: &Verifier, inv: &NetworkInvariants, check: &Check) -> Option<Vec<String>> {
    let topo = v.topology();
    let assumed = match (check.kind, check.edge) {
        (CheckKind::Import, Some(e)) => Location::Edge(e),
        (CheckKind::Export, Some(e)) => Location::Node(topo.edge(e).src),
        (CheckKind::Originate, _) => return None,
        (CheckKind::Subsumption, None) => check.location,
        _ => panic!("not a safety check: {check:?}"),
    };
    let conjuncts = inv.at_ref(topo, assumed).conjuncts();
    Some(conjuncts.iter().map(|c| c.to_string()).collect())
}

fn compare(
    what: &str,
    v: &Verifier,
    props: &[SafetyProperty],
    inv: &NetworkInvariants,
    seen: &mut Seen,
) {
    let table = v.check_conjuncts_all(props, inv);
    // The compact table answers every row the expansion holds.
    let compact = v.conjunct_table(props, inv);
    for (id, row) in table.iter().enumerate() {
        assert_eq!(
            compact.conjuncts(id),
            row.as_deref().unwrap_or(&[]),
            "{what}"
        );
    }
    assert!(compact.conjuncts(table.len()).is_empty(), "{what}");
    if props.is_empty() {
        assert!(table.is_empty(), "{what}");
        return;
    }
    // One row per check, indexed by check id.
    let report = v.verify_safety_reference(props, inv);
    assert_eq!(table.len(), report.num_checks(), "{what}");
    for o in &report.outcomes {
        assert_eq!(
            table[o.check.id],
            reference_row(v, inv, &o.check),
            "{what}: check #{}",
            o.check.id
        );
    }

    seen.suites += 1;
    seen.multi_property += usize::from(props.len() > 1);
    seen.originate += table.iter().filter(|row| row.is_none()).count();
    seen.unconstrained += table
        .iter()
        .filter(|row| row.as_ref().is_some_and(Vec::is_empty))
        .count();
    let mut lists: Vec<&Vec<String>> = table.iter().flatten().filter(|l| !l.is_empty()).collect();
    lists.sort();
    lists.dedup();
    seen.distinct_lists = seen.distinct_lists.max(lists.len());
}

#[test]
fn conjunct_table_matches_the_generated_checks_on_every_family() {
    let mut seen = Seen::default();
    for (fi, family) in FamilyId::all().iter().enumerate() {
        for round in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0xc0de + 16 * fi as u64 + round);
            let params = FamilyParams::random(*family, &mut rng);
            // No generator writes `network` statements; give one router
            // one, so its sessions carry originate checks.
            let mut configs = params.configs();
            if round == 1 {
                let bgp = configs[0].router_bgp.as_mut().expect("a BGP router");
                bgp.networks.push("198.51.100.0/24".parse().unwrap());
            }
            let case = params.build_from(configs);
            let v = case.verifier();
            for s in &case.suites {
                compare(
                    &format!("{family} / {}", s.name),
                    &v,
                    &s.props,
                    &s.inv,
                    &mut seen,
                );
                // A suite's properties one at a time share its walk.
                compare(
                    &format!("{family} / {} [first]", s.name),
                    &v,
                    &s.props[..1.min(s.props.len())],
                    &s.inv,
                    &mut seen,
                );
            }
        }
    }

    // The zoo family: `from_node_fn` invariants give every router and
    // edge an override, all of one cluster sharing one predicate
    // instance, so the table's address-keyed memo answers most rows;
    // both suites carry one property per router or reflector.
    let entry = &zoo::CORPUS[0];
    let scen = zoo::build(&zoo::ZooParams::scaled(entry, 14));
    let v = Verifier::new(&scen.network.topology, &scen.network.policy)
        .with_ghost(scen.from_peer_ghost());
    let (props, inv) = scen.peering_suite();
    compare("zoo / peering", &v, &props, &inv, &mut seen);
    let (props, inv) = scen.fencing_suite();
    compare("zoo / fencing", &v, &props, &inv, &mut seen);
    compare("zoo / no properties", &v, &[], &inv, &mut seen);

    assert!(seen.suites >= 2 * FamilyId::all().len(), "{}", seen.suites);
    assert!(seen.multi_property > 0, "no multi-property suite compared");
    assert!(seen.originate > 0, "no originate check (None row) compared");
    assert!(
        seen.unconstrained > 0,
        "no import from an external router (empty row) compared"
    );
    assert!(
        seen.distinct_lists > 1,
        "no suite with per-location overrides compared"
    );
}
