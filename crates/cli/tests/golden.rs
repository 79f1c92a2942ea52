//! Golden byte-identity tests for `verify --json`: the rendered report
//! JSON must not drift — not across the `crates/api` report-type
//! migration, not across a change of CNF encoding, not ever silently.
//! Two pinned inputs: an 8-router WAN (safety, a failing property and
//! liveness) and a 12-router zoo entry with the `QUARANTINE`
//! perturbation (32 router-unique /24s denied at the head of every
//! route-map — the shape whose encoding dominates `zoo-hetero`), clean
//! and with one injected bug so a failing check is pinned too. (The
//! report names a failing check; the witness route is only in the text
//! rendering and is any model of the violation query, so it is not
//! golden material — it may change whenever the CNF does.)
//!
//! A golden file stores the *masked* output: wall-clock fields are
//! zeroed and the trailing `{timings, metrics}` entry is dropped
//! (volatile by design), everything else must match byte for byte.
//! Regenerate deliberately with:
//!
//! ```text
//! LIGHTYEAR_UPDATE_GOLDEN=1 cargo test -p lightyear-cli --test golden
//! ```

use bgp_config::ast::{ConfigAst, MatchAst, PrefixListEntry, RouteMapEntryAst};
use netgen::wan::{self, WanParams};
use netgen::zoo::{self, ZooParams, ZooScenario, CORPUS};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_lightyear")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lightyear-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The pinned scenario: 2 regions x 2 routers + 4 edge routers = 8
/// routers, 2 peers per edge, seed 0. Changing this invalidates the
/// golden file by construction — regenerate it in the same change.
fn wan8() -> WanParams {
    WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 4,
        peers_per_edge: 2,
        seed: 0,
    }
}

fn write_configs(dir: &Path) {
    for ast in wan::configs(&wan8()) {
        std::fs::write(
            dir.join(format!("{}.cfg", ast.hostname)),
            bgp_config::print_config(&ast),
        )
        .unwrap();
    }
}

/// The pinned spec: one passing peer-policy property per region
/// gateway, one deliberately failing property (exercises the
/// `failures` array), and one liveness property (exercises the
/// liveness report shape).
fn write_spec(path: &Path) {
    use lightyear::pred::RoutePred;

    let peer_edges: Vec<String> = (0..4)
        .flat_map(|m| (0..2).map(move |p| format!("PEER{m}-{p} -> EDGE{m}")))
        .collect();
    let dc_edges = vec!["DC0 -> R0-1".to_string(), "DC1 -> R1-1".to_string()];
    let from_peer = RoutePred::ghost("FromPeer");
    let no_reused = from_peer.clone().implies(
        RoutePred::prefix_in(vec![bgp_model::PrefixRange::orlonger(wan::reused_prefix())]).not(),
    );
    let tagged = from_peer
        .clone()
        .implies(RoutePred::has_community(wan::peer_comm()));
    let witness: bgp_model::Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
    let scope = RoutePred::prefix_eq(witness);
    let tagged_scope = scope
        .clone()
        .and(RoutePred::has_community(wan::peer_comm()));

    let spec = serde_json::json!({
        "ghosts": vec![serde_json::json!({
            "name": "FromPeer",
            "set_true_on_import": peer_edges,
            "set_false_on_import": dc_edges,
        })],
        "safety": vec![
            serde_json::json!({
                "name": "no-reused-from-peers",
                "location": "R0-0",
                "property": no_reused,
                "invariant_default": no_reused,
            }),
            serde_json::json!({
                "name": "peer-tagged",
                "location": "R1-0",
                "property": tagged,
                "invariant_default": tagged,
            }),
            serde_json::json!({
                "name": "no-peer-routes",
                "location": "EDGE0",
                "property": from_peer.clone().not(),
            }),
        ],
        "liveness": vec![serde_json::json!({
            "name": "peer-route-delivery",
            "location": "EDGE0 -> R0-0",
            "property": RoutePred::has_community(wan::peer_comm()),
            "path": vec!["PEER0-0 -> EDGE0", "EDGE0", "EDGE0 -> R0-0"],
            "constraints": vec![scope.clone(), tagged_scope.clone(), tagged_scope.clone()],
            "prefix_scope": scope,
            "interference_default": scope.clone().implies(tagged_scope),
        })],
    });
    std::fs::write(path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
}

/// Zero the wall-clock fields and drop the trailing `{timings,
/// metrics}` entry — the only parts of the report that may differ
/// between two runs on the same input.
fn mask(output: &str) -> String {
    let mut entries: Vec<Value> = serde_json::from_str(output).expect("verify --json output");
    if entries
        .last()
        .is_some_and(|e| e.get("timings").is_some() && e.get("metrics").is_some())
    {
        entries.pop();
    }
    for e in &mut entries {
        if let Value::Object(fields) = e {
            for (k, v) in fields.iter_mut() {
                if k == "total_seconds" || k == "solve_seconds" {
                    *v = Value::Float(0.0);
                }
            }
        }
    }
    let mut s = serde_json::to_string_pretty(&entries).unwrap();
    s.push('\n');
    s
}

#[test]
fn verify_json_matches_golden_wan8() {
    let dir = tmpdir("wan8");
    write_configs(&dir);
    let spec_path = dir.join("spec.json");
    write_spec(&spec_path);

    let out = Command::new(bin())
        .args([
            "verify",
            "--configs",
            dir.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The pinned spec contains one deliberately failing property.
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1 (one failing property); stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_golden("verify_wan8.json", &mask(&stdout));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compare `masked` with the golden file `name`, or write it under
/// `LIGHTYEAR_UPDATE_GOLDEN`.
fn check_golden(name: &str, masked: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("LIGHTYEAR_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, masked).unwrap();
        eprintln!("golden: wrote {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with LIGHTYEAR_UPDATE_GOLDEN=1");
    assert_eq!(
        masked, golden,
        "verify --json drifted from the golden report {name} \
         (regenerate deliberately with LIGHTYEAR_UPDATE_GOLDEN=1)"
    );
}

/// The pinned zoo entry: Cogentco scaled to 12 routers (2 clusters, 2
/// peers), the corpus seed.
fn zoo12() -> ZooParams {
    let entry = CORPUS.iter().find(|e| e.name == "Cogentco").unwrap();
    ZooParams::scaled(entry, 12)
}

/// The `zoo-hetero` perturbation, re-stated here so the golden does not
/// depend on `benchmark/`: every router gets a `QUARANTINE` prefix-list
/// of 32 /24s no other router has (first octet 11..=99, clear of every
/// generated policy's ranges) and a leading deny on it in every
/// route-map.
fn quarantine(configs: &mut [ConfigAst]) {
    let mut state = 20260726u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for cfg in configs {
        let entries = (1..=32u32)
            .map(|j| {
                let bits = next();
                let (a, b, c) = (11 + (bits >> 16) % 89, (bits >> 8) % 256, bits % 256);
                PrefixListEntry {
                    seq: 5 * j,
                    permit: true,
                    prefix: format!("{a}.{b}.{c}.0/24").parse().unwrap(),
                    ge: None,
                    le: Some(32),
                }
            })
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

/// The zoo suites as a CLI spec: peering hygiene at every peer host
/// (uniform invariant), fencing at every reflector (per-location
/// invariants as overrides).
fn write_zoo_spec(path: &Path, scen: &ZooScenario) {
    use lightyear::invariants::Location;

    let t = &scen.network.topology;
    let (mut from_peers, mut from_sites, mut peer_hosts) = (Vec::new(), Vec::new(), Vec::new());
    for e in t.edge_ids() {
        let (src, dst) = (t.node(t.edge(e).src), t.node(t.edge(e).dst));
        if src.name.starts_with("PEER") {
            from_peers.push(t.edge_name(e));
            peer_hosts.push(dst.name.clone());
        } else if src.external {
            from_sites.push(t.edge_name(e));
        }
    }
    let (peering_props, peering_inv) = scen.peering_suite();
    let (fencing_props, fencing_inv) = scen.fencing_suite();
    let locations = t
        .router_ids()
        .map(Location::Node)
        .chain(t.edge_ids().map(Location::Edge));
    let fencing_overrides = Value::Object(
        locations
            .filter_map(|l| Some((l.display(t), serde_json::json!(fencing_inv.override_at(l)?))))
            .collect(),
    );
    let peering = peer_hosts.iter().map(|host| {
        serde_json::json!({
            "name": format!("zoo-peering-{host}"),
            "location": host,
            "property": peering_props[0].pred,
            "invariant_default": peering_inv.default_pred(),
        })
    });
    let fencing = fencing_props.iter().map(|p| {
        serde_json::json!({
            "name": p.name,
            "location": p.location.display(t),
            "property": p.pred,
            "invariant_default": fencing_inv.default_pred(),
            "invariant_overrides": fencing_overrides,
        })
    });
    let spec = serde_json::json!({
        "ghosts": vec![serde_json::json!({
            "name": "FromPeer",
            "set_true_on_import": from_peers,
            "set_false_on_import": from_sites,
        })],
        "safety": peering.chain(fencing).collect::<Vec<_>>(),
    });
    std::fs::write(path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
}

/// `verify --json` (with `extra` flags) on the pinned quarantined zoo
/// entry, clean or with the injected bug: the exit code and the masked
/// report.
fn verify_zoo_quarantine(label: &str, extra: &[&str]) -> (Option<i32>, Value) {
    let params = zoo12();
    let scen = zoo::build(&params);
    let dir = tmpdir(&format!("zoo-{label}{}", extra.join("")));
    let mut configs = zoo::configs(&params);
    quarantine(&mut configs);
    if label == "broken" {
        // The first peer host stops denying reused prefixes from
        // its peer: zoo-peering must fail there with a witness.
        let host = configs
            .iter()
            .find(|c| c.route_maps.contains_key("FROM-PEER"))
            .map(|c| c.hostname.clone())
            .unwrap();
        netgen::mutate::drop_prefix_deny(&mut configs, &host, "FROM-PEER", "REUSED")
            .expect("the peer import denies REUSED");
    }
    for ast in &configs {
        std::fs::write(
            dir.join(format!("{}.cfg", ast.hostname)),
            bgp_config::print_config(ast),
        )
        .unwrap();
    }
    let spec_path = dir.join("spec.json");
    write_zoo_spec(&spec_path, &scen);
    let out = Command::new(bin())
        .args(["verify", "--configs", dir.to_str().unwrap(), "--spec"])
        .arg(&spec_path)
        .arg("--json")
        .args(extra)
        .output()
        .unwrap();
    let masked: Value = serde_json::from_str(&mask(&String::from_utf8_lossy(&out.stdout)))
        .unwrap_or_else(|e| {
            panic!(
                "{label}: masked output is not JSON ({e:?}); stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        });
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.code(), masked)
}

#[test]
fn verify_json_matches_golden_zoo_quarantine() {
    let mut runs = Vec::new();
    for (label, exit) in [("clean", 0), ("broken", 1)] {
        let (code, masked) = verify_zoo_quarantine(label, &[]);
        assert_eq!(code, Some(exit), "{label}");
        runs.push((label.to_string(), masked));
    }
    let mut doc = serde_json::to_string_pretty(&Value::Object(runs)).unwrap();
    doc.push('\n');
    check_golden("zoo_quarantine.json", &doc);
}

/// The pool decides nothing: two workers (the caller and one helper)
/// render the report one worker does, byte for byte. Only the trailing
/// `exec` entry may differ — it records the worker count, and
/// implication checks are chunked into one session per worker.
#[test]
fn zoo_quarantine_renders_the_same_on_two_workers() {
    let report = |(code, v): (Option<i32>, Value)| {
        let Value::Array(mut entries) = v else {
            panic!("verify --json prints an array")
        };
        let exec = entries.pop().expect("an exec entry");
        assert!(exec.get("threads").is_some(), "the last entry is exec's");
        (code, serde_json::to_string_pretty(&entries).unwrap())
    };
    for (label, exit) in [("clean", 0), ("broken", 1)] {
        let one = report(verify_zoo_quarantine(label, &["--jobs", "1"]));
        let two = report(verify_zoo_quarantine(label, &["--jobs", "2"]));
        assert_eq!(one.0, Some(exit), "{label}");
        assert!(one == two, "{label}: --jobs 2 drifted from --jobs 1");
    }
}

/// The quarantined entry through the library: the largest session any
/// of its checks is decided on must stay small.
#[test]
fn zoo_quarantine_sessions_stay_small() {
    let params = zoo12();
    let base = zoo::build(&params);
    let mut configs = zoo::configs(&params);
    quarantine(&mut configs);
    // Through the printer and the parser, like a configuration directory.
    let asts: Vec<ConfigAst> = configs
        .iter()
        .map(|c| bgp_config::parse_config(&bgp_config::print_config(c)).unwrap())
        .collect();
    let scen = ZooScenario {
        network: bgp_config::lower(&asts).unwrap(),
        ..base
    };
    let (peering_props, peering_inv) = scen.peering_suite();
    let (fencing_props, fencing_inv) = scen.fencing_suite();
    let multi = lightyear::engine::Verifier::new(&scen.network.topology, &scen.network.policy)
        .with_ghost(scen.from_peer_ghost())
        .verify_safety_batch(&[
            (&peering_props, &peering_inv),
            (&fencing_props, &fencing_inv),
        ]);
    assert!(multi.all_passed());
    let max = |f: fn(&lightyear::Report) -> u64| multi.reports.iter().map(f).max().unwrap();
    let (vars, clauses) = (
        max(lightyear::Report::max_vars),
        max(lightyear::Report::max_clauses),
    );
    assert!(
        vars <= 800 && clauses <= 3300,
        "a route-map behind a 32-range prefix-list deny now takes {vars} variables and \
         {clauses} clauses (constant-oblivious blasting took 2343 / 9790): a CNF-size \
         regression is a performance regression on the `zoo-hetero` benchmark workload"
    );
}
