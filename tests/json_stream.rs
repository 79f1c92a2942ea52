//! The JSON layer's two contracts, over random inputs: text written by
//! the streaming writer parses back to the value it was written from
//! (both layouts), and every `api` document serialises to the same
//! bytes whether it is streamed straight into the writer or rendered
//! to a `Value` tree first — the document's one field description
//! feeds both. A borrowed row (what `verify --json` streams) writes the
//! bytes of the equal owned document (what the daemon stores). And the
//! derive's text is pinned: one value of every shape it emits, against
//! strings an earlier build wrote.

use api::report::{write_property, LocationPieces, Rows, TimingDoc};
use api::{
    ApiCall, ApiRequest, ApiResponse, ConfigFile, CoreDoc, CoreRow, ExecDoc, FailureDoc,
    FailureRow, PropertyReport, SpilledCheck,
};
use bgp_model::aspath::AsPathRegex;
use bgp_model::prefix::Ipv4Prefix;
use bgp_model::route::{Community, Route};
use bgp_model::routemap::MatchCond;
use bgp_model::topology::Topology;
use lightyear::pred::{Cmp, NumAttr, RoutePred};
use lightyear::symbolic::ConcreteRoute;
use proptest::prelude::*;
use serde::Serialize;
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Strings that exercise every escape class: quotes, backslashes, the
/// named and the `\u00XX` control escapes, multi-byte text.
fn arb_string() -> BoxedStrategy<String> {
    const PALETTE: [&str; 16] = [
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "日本",
        "🚀", "->",
    ];
    prop::collection::vec(0usize..PALETTE.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
        .boxed()
}

/// Finite floats from the whole bit range (a non-finite one is written
/// as `null` by design and would not round-trip).
fn arb_float() -> BoxedStrategy<f64> {
    any::<u64>()
        .prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                (bits >> 12) as f64 / 8.0
            }
        })
        .boxed()
}

fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|u| Value::Int(u as i64)),
        any::<u64>().prop_map(|u| Value::UInt(u | 1 << 63)),
        arb_float().prop_map(Value::Float),
        arb_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((arb_string(), inner), 0..4).prop_map(Value::Object),
        ]
    })
}

fn arb_failure() -> BoxedStrategy<FailureDoc> {
    (arb_string(), arb_string(), any::<bool>(), arb_string())
        .prop_map(|(kind, location, has_map, description)| FailureDoc {
            kind,
            route_map: has_map.then(|| location.clone()),
            location,
            description,
        })
        .boxed()
}

fn arb_core() -> BoxedStrategy<CoreDoc> {
    (
        any::<u64>(),
        arb_string(),
        arb_string(),
        prop::collection::vec(any::<u64>(), 0..4),
        prop::collection::vec(arb_string(), 0..4),
    )
        .prop_map(|(check, kind, location, core, load_bearing)| CoreDoc {
            check,
            kind,
            location,
            conjuncts: load_bearing.len() as u64,
            core,
            load_bearing,
        })
        .boxed()
}

/// A location in the pieces a row carries: an edge `A -> B`, or a
/// router name and two empty pieces.
fn arb_pieces() -> BoxedStrategy<[String; 3]> {
    (arb_string(), any::<bool>(), arb_string())
        .prop_map(|(a, edge, b)| match edge {
            true => [a, " -> ".to_string(), b],
            false => [a, String::new(), String::new()],
        })
        .boxed()
}

/// What a borrowed core row points into: a conjunct list and a core
/// that may index past it.
#[derive(Clone, Debug)]
struct CoreParts {
    check: u64,
    kind: String,
    location: [String; 3],
    core: Vec<usize>,
    conjuncts: Vec<String>,
}

impl CoreParts {
    fn row(&self) -> CoreRow<'_> {
        CoreRow {
            check: self.check as usize,
            kind: &self.kind,
            location: pieces(&self.location),
            core: &self.core,
            conjuncts: &self.conjuncts,
        }
    }
}

fn arb_core_parts() -> BoxedStrategy<CoreParts> {
    (
        any::<u64>(),
        arb_string(),
        arb_pieces(),
        prop::collection::vec(0usize..6, 0..5),
        prop::collection::vec(arb_string(), 0..5),
    )
        .prop_map(|(check, kind, location, core, conjuncts)| CoreParts {
            check,
            kind,
            location,
            core,
            conjuncts,
        })
        .boxed()
}

fn pieces(p: &[String; 3]) -> LocationPieces<'_> {
    [&p[0], &p[1], &p[2]]
}

fn arb_report() -> BoxedStrategy<PropertyReport> {
    (
        arb_string(),
        any::<bool>(),
        any::<bool>(),
        (any::<bool>(), any::<u64>(), arb_float(), arb_float()),
        prop::collection::vec(arb_failure(), 0..3),
        prop::collection::vec(arb_core(), 0..3),
    )
        .prop_map(
            |(property, liveness, passed, (timed, calls, total, solve), failures, cores)| {
                PropertyReport {
                    property,
                    liveness,
                    passed,
                    checks: calls >> 7,
                    timing: timed.then_some(TimingDoc {
                        solver_calls: calls,
                        total_seconds: total,
                        solve_seconds: solve,
                    }),
                    failures,
                    cores,
                }
            },
        )
        .boxed()
}

fn arb_exec() -> BoxedStrategy<ExecDoc> {
    (arb_string(), any::<u64>(), any::<u64>(), arb_float())
        .prop_map(|(summary, a, b, dedup_ratio)| ExecDoc {
            summary,
            generated: a,
            solver_calls: b,
            dedup_hits: a >> 3,
            cache_hits: b >> 5,
            stale_cache_entries: a >> 40,
            groups: b >> 40,
            warm_assumption_solves: a ^ b,
            dedup_ratio,
            threads: a & 0xff,
        })
        .boxed()
}

fn arb_spill() -> BoxedStrategy<SpilledCheck> {
    (
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(0usize..64, 0..4),
        arb_value(),
        arb_value(),
    )
        .prop_map(|(pass, vars, clauses, core, input, output)| {
            let (vars, clauses) = (vars as u64, clauses as u64);
            if pass {
                SpilledCheck::Pass {
                    vars,
                    clauses,
                    core: (vars % 2 == 0).then_some(core),
                }
            } else {
                SpilledCheck::Fail {
                    vars,
                    clauses,
                    rejected: clauses % 2 == 0,
                    input,
                    output,
                }
            }
        })
        .boxed()
}

fn arb_request() -> BoxedStrategy<ApiRequest> {
    let configs = prop::collection::vec(
        (arb_string(), arb_string()).prop_map(|(name, text)| ConfigFile { name, text }),
        0..3,
    );
    (0u8..6, arb_string(), configs, arb_value(), any::<bool>())
        .prop_map(|(which, tenant, configs, spec, some)| {
            let call = match which {
                0 => ApiCall::SubmitConfigs { configs, spec },
                1 => ApiCall::SubmitDelta { configs },
                2 => ApiCall::Verify,
                3 => ApiCall::QueryCores {
                    property: some.then(|| tenant.clone()),
                },
                4 => ApiCall::GetReport,
                _ => ApiCall::Health,
            };
            ApiRequest::new(tenant, call)
        })
        .boxed()
}

/// Streamed text equals tree-rendered text, compact and indented.
macro_rules! same_bytes {
    ($doc:expr) => {{
        let (doc, tree) = (&$doc, $doc.to_value());
        let direct = serde_json::to_string(doc).unwrap();
        prop_assert_eq!(&direct, &serde_json::to_string(&tree).unwrap());
        prop_assert_eq!(
            serde_json::to_string_pretty(doc).unwrap(),
            serde_json::to_string_pretty(&tree).unwrap()
        );
        // And the tree is the document: nothing is lost on the way back.
        prop_assert_eq!(serde_json::from_str::<Value>(&direct).unwrap(), tree);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_text_parses_back_to_the_value(v in arb_value()) {
        let compact = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&compact).unwrap(), &v);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).unwrap(), &v);
        // Containers of values stream without going through a tree.
        let both = vec![v.clone(), v];
        prop_assert_eq!(
            serde_json::to_string(&both).unwrap(),
            format!("[{compact},{compact}]")
        );
    }

    #[test]
    fn every_api_document_streams_the_bytes_of_its_tree(
        failure in arb_failure(),
        core in arb_core(),
        report in arb_report(),
        exec in arb_exec(),
        spill in arb_spill(),
        request in arb_request(),
        result in arb_value(),
    ) {
        same_bytes!(failure);
        same_bytes!(core);
        same_bytes!(report);
        same_bytes!(exec);
        same_bytes!(spill);
        same_bytes!(request);
        let response = if report.passed {
            ApiResponse::success(result)
        } else {
            ApiResponse::failure(failure.description.clone())
        };
        same_bytes!(response);
        // The typed decoders read the streamed form back.
        prop_assert_eq!(FailureDoc::from_value(&failure.to_value()), Some(failure));
        prop_assert_eq!(CoreDoc::from_value(&core.to_value()), Some(core));
        prop_assert_eq!(SpilledCheck::from_value(&spill.to_value()), Some(spill));
    }

    #[test]
    fn a_borrowed_row_streams_the_bytes_of_its_owned_document(
        core_parts in arb_core_parts(),
        failure_parts in (arb_string(), arb_pieces(), any::<bool>(), arb_string()),
        report in arb_report(),
    ) {
        let (fkind, flocation, has_map, description) = failure_parts;
        let row = core_parts.row();
        let doc = row.to_doc();
        prop_assert_eq!(&doc.location, &core_parts.location.concat());
        let named = row.core.iter().filter(|&&i| i < row.conjuncts.len()).count();
        prop_assert_eq!(doc.load_bearing.len(), named);
        same_bytes!(row);
        prop_assert_eq!(serde_json::to_string(&row).unwrap(), serde_json::to_string(&doc).unwrap());

        let frow = FailureRow {
            kind: &fkind,
            location: pieces(&flocation),
            route_map: has_map.then_some(description.as_str()),
            description: &description,
        };
        let fdoc = frow.to_doc();
        same_bytes!(frow);
        prop_assert_eq!(serde_json::to_string(&frow).unwrap(), serde_json::to_string(&fdoc).unwrap());

        // A whole entry: the head plus rows streamed lazily, against the
        // owned document holding the same entries.
        let owned = PropertyReport {
            failures: vec![fdoc.clone(), fdoc],
            cores: vec![doc],
            ..report
        };
        let entry = Entry(&owned, frow, row);
        for pretty in [false, true] {
            let (a, b) = match pretty {
                false => (serde_json::to_string(&entry), serde_json::to_string(&owned)),
                true => (serde_json::to_string_pretty(&entry), serde_json::to_string_pretty(&owned)),
            };
            prop_assert_eq!(a.unwrap(), b.unwrap());
        }
    }
}

/// A property entry streamed from `head()` of the owned report and rows
/// made on demand: two copies of the failure row, one core row.
struct Entry<'a>(&'a PropertyReport, FailureRow<'a>, CoreRow<'a>);

impl Serialize for Entry<'_> {
    fn stream<S: serde::Sink>(&self, out: &mut S) {
        write_property(
            out,
            &self.0.head(),
            &Rows(|| [self.1, self.1]),
            &Rows(|| std::iter::once(self.2)),
        );
    }
}

/// Every shape the derive emits, written as text: a named struct, one
/// with `#[serde(skip)]` fields, the four enum variant shapes
/// (externally tagged), an `into = "String"` bridge, and a
/// counterexample route as the spill embeds it. Each string was checked
/// against the output of the tree-building derive this one replaced.
#[test]
fn derived_values_write_their_pinned_text() {
    let mut topo = Topology::new();
    let r1 = topo.add_router("R1", 65000);
    let isp = topo.add_external("ISP", 100);
    topo.add_session(r1, isp);
    assert_eq!(
        serde_json::to_string(&topo).unwrap(),
        r#"{"nodes":[{"name":"R1","asn":65000,"external":false},{"name":"ISP","asn":100,"external":true}],"edges":[{"src":0,"dst":1},{"src":1,"dst":0}]}"#
    );

    let c = Community::new(100, 1);
    let pred = RoutePred::And(vec![
        RoutePred::True,
        RoutePred::Ghost("FromISP1".into()),
        RoutePred::Num(NumAttr::LocalPref, Cmp::Ge, 200),
        RoutePred::Not(Box::new(RoutePred::HasCommunity(c))),
    ]);
    assert_eq!(
        serde_json::to_string(&pred).unwrap(),
        r#"{"And":["True",{"Ghost":"FromISP1"},{"Num":["LocalPref","Ge",200]},{"Not":{"HasCommunity":6553601}}]}"#
    );

    let conds = vec![
        MatchCond::Community {
            comms: vec![c],
            match_all: true,
        },
        MatchCond::AsPath(vec![(false, AsPathRegex::compile("_100_").unwrap())]),
        MatchCond::Med(5),
    ];
    assert_eq!(
        serde_json::to_string(&conds).unwrap(),
        r#"[{"Community":{"comms":[6553601],"match_all":true}},{"AsPath":[[false,"_100_"]]},{"Med":5}]"#
    );

    let mut route = Route::new(Ipv4Prefix::new(0x0a00_0000, 8)).with_as_path(vec![100, 200]);
    route.communities.insert(c);
    let cex = ConcreteRoute {
        route,
        comm_other: false,
        aspath_matches: BTreeMap::from([("_100_".to_string(), true)]),
        ghosts: BTreeMap::from([("FromISP1".to_string(), false)]),
    };
    let route_text = r#"{"route":{"prefix":{"addr":167772160,"len":8},"as_path":[100,200],"next_hop":0,"local_pref":100,"med":0,"origin":"Incomplete","communities":[6553601]},"comm_other":false,"aspath_matches":{"_100_":true},"ghosts":{"FromISP1":false}}"#;
    assert_eq!(serde_json::to_string(&cex).unwrap(), route_text);
    let spill = SpilledCheck::Fail {
        vars: 23,
        clauses: 34,
        rejected: true,
        input: serde_json::to_value(&cex),
        output: Value::Null,
    };
    assert_eq!(
        serde_json::to_string(&spill).unwrap(),
        format!(
            r#"{{"pass":false,"vars":23,"clauses":34,"rejected":true,"input":{route_text},"output":null}}"#
        )
    );

    // The std types the shim streams by hand: a hash map's keys sorted,
    // a char as a string, a duration as its two parts.
    let map = HashMap::from([("b", 2), ("a", 1), ("c", 3)]);
    assert_eq!(
        serde_json::to_string(&map).unwrap(),
        r#"{"a":1,"b":2,"c":3}"#
    );
    assert_eq!(serde_json::to_string(&'é').unwrap(), r#""é""#);
    assert_eq!(
        serde_json::to_string(&Duration::new(3, 7)).unwrap(),
        r#"{"secs":3,"nanos":7}"#
    );
}
