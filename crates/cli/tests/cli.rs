//! End-to-end tests of the `lightyear` binary: write configs + spec to a
//! temp directory, invoke the binary, check output and exit codes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_lightyear")
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightyear-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

const R1: &str = "\
hostname R1
route-map FROM-ISP1 permit 10
 set community 100:1 additive
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP1 in
 neighbor 10.0.12.2 remote-as 65000
 neighbor 10.0.12.2 description R2
";

const R2: &str = "\
hostname R2
ip community-list standard TRANSIT permit 100:1
route-map TO-ISP2 deny 10
 match community TRANSIT
route-map TO-ISP2 permit 20
route-map FROM-ISP2 permit 10
 set community none
router bgp 65000
 neighbor 10.0.0.2 remote-as 200
 neighbor 10.0.0.2 description ISP2
 neighbor 10.0.0.2 route-map FROM-ISP2 in
 neighbor 10.0.0.2 route-map TO-ISP2 out
 neighbor 10.0.12.1 remote-as 65000
 neighbor 10.0.12.1 description R1
";

const SPEC: &str = r#"{
  "ghosts": [
    { "name": "FromISP1",
      "set_true_on_import": ["ISP1 -> R1"],
      "set_false_on_import": ["ISP2 -> R2"] }
  ],
  "safety": [
    { "name": "no-transit",
      "location": "R2 -> ISP2",
      "property": { "Not": { "Ghost": "FromISP1" } },
      "invariant_default": { "Or": [ { "Not": { "Ghost": "FromISP1" } },
                                     { "HasCommunity": 6553601 } ] },
      "invariant_overrides": {
        "R2 -> ISP2": { "Not": { "Ghost": "FromISP1" } } } }
  ]
}"#;

fn write_net(dir: &std::path::Path, r2: &str) {
    fs::write(dir.join("r1.cfg"), R1).unwrap();
    fs::write(dir.join("r2.cfg"), r2).unwrap();
    fs::write(dir.join("spec.json"), SPEC).unwrap();
}

#[test]
fn verify_passes_on_correct_network() {
    let d = tmpdir("pass");
    write_net(&d, R2);
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("no-transit: verified"), "{stdout}");
    // The statistics line is for runs that asked about orchestration.
    assert!(!stdout.contains("orchestrator:"), "{stdout}");
}

#[test]
fn verify_fails_and_localizes_on_broken_network() {
    let d = tmpdir("fail");
    let broken = R2.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", "");
    write_net(&d, &broken);
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("R2 -> ISP2"), "{stdout}");
}

#[test]
fn verify_json_output() {
    let d = tmpdir("json");
    write_net(&d, R2);
    let out = Command::new(bin())
        .args(["verify", "--json", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(v[0]["property"], "no-transit");
    assert_eq!(v[0]["passed"], true);
    assert!(v[0]["checks"].as_u64().unwrap() > 0);
}

#[test]
fn parse_prints_topology() {
    let d = tmpdir("parse");
    write_net(&d, R2);
    let out = Command::new(bin())
        .args(["parse", "--configs"])
        .arg(&d)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 routers"), "{stdout}");
    assert!(stdout.contains("R1 (AS 65000)"), "{stdout}");
}

#[test]
fn spec_template_roundtrips() {
    let out = Command::new(bin()).arg("spec-template").output().unwrap();
    assert!(out.status.success());
    let _: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The template is derived `Serialize` output end to end: its bytes
    // are pinned against a recording of an earlier build.
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        include_str!("fixtures/spec_template.stdout")
    );
}

/// R1 with the customer-prefix deny the template's liveness property
/// needs (the §2.2 no-interference requirement: R1 must not tag routes
/// inside the liveness prefix scope).
const R1_CUST: &str = "\
hostname R1
ip prefix-list CUST seq 5 permit 203.0.113.0/24 le 32
route-map FROM-ISP1 deny 5
 match ip address prefix-list CUST
route-map FROM-ISP1 permit 10
 set community 100:1 additive
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP1 in
 neighbor 10.0.12.2 remote-as 65000
 neighbor 10.0.12.2 description R2
";

/// A network the spec-template verifies against, with the template as
/// `spec.json`.
fn template_liveness_dir(name: &str) -> PathBuf {
    let d = tmpdir(name);
    fs::write(d.join("r1.cfg"), R1_CUST).unwrap();
    fs::write(d.join("r2.cfg"), R2).unwrap();
    let tpl = Command::new(bin()).arg("spec-template").output().unwrap();
    assert!(tpl.status.success());
    fs::write(d.join("spec.json"), &tpl.stdout).unwrap();
    d
}

#[test]
fn verify_runs_template_liveness_and_surfaces_cores() {
    // The spec-template is the authoritative example: its safety AND
    // liveness sections must verify against this network.
    let d = template_liveness_dir("liveness");
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("no-transit: verified"), "{stdout}");
    assert!(
        stdout.contains("customer-liveness (liveness): verified"),
        "{stdout}"
    );

    // --json: the liveness entry carries a non-empty "cores" array with
    // in-range indices and rendered load-bearing conjuncts.
    let out = Command::new(bin())
        .args(["verify", "--json", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let entries = v.as_array().expect("array output");
    let live = entries
        .iter()
        .find(|e| e["kind"].as_str() == Some("liveness"))
        .expect("a liveness entry");
    assert_eq!(live["property"], "customer-liveness");
    assert_eq!(live["passed"], true);
    let cores = live["cores"].as_array().expect("cores array");
    assert!(!cores.is_empty(), "liveness passes must report cores");
    for c in cores {
        let total = c["conjuncts"].as_u64().unwrap();
        let load_bearing = c["load_bearing"].as_array().unwrap();
        assert_eq!(
            load_bearing.len() as u64,
            c["core"].as_array().unwrap().len() as u64
        );
        for idx in c["core"].as_array().unwrap() {
            assert!(idx.as_u64().unwrap() < total.max(1));
        }
    }
}

#[test]
fn exec_counts_liveness_runs() {
    // `exec` and the orchestrator counters describe the same work: the
    // safety batch plus every liveness run.
    let d = template_liveness_dir("liveness-exec");
    let out = Command::new(bin())
        .args(["verify", "--json", "--jobs", "2", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let entries = v.as_array().expect("array output");
    let exec = entries
        .iter()
        .find(|e| e.get("orchestrator").is_some())
        .expect("an exec entry");
    let counters = &entries.last().unwrap()["metrics"]["counters"];
    assert_eq!(exec["generated"], counters["orchestrator.generated"]);
    assert_eq!(exec["solver_calls"], counters["orchestrator.executed"]);
    let all_checks = entries
        .iter()
        .filter(|e| e.get("checks").is_some())
        .map(|e| e["checks"].as_u64().unwrap())
        .sum::<u64>();
    assert_eq!(exec["generated"].as_u64(), Some(all_checks));
}

#[test]
fn liveness_only_generation_is_charged_to_generate_ns() {
    // Without a safety property every check comes from the liveness
    // walk, so its generation is all `engine.generate_ns` can hold.
    let d = template_liveness_dir("liveness-generate");
    let spec: serde_json::Value =
        serde_json::from_slice(&fs::read(d.join("spec.json")).unwrap()).unwrap();
    let serde_json::Value::Object(mut fields) = spec else {
        panic!("a spec is an object")
    };
    for (key, value) in &mut fields {
        if key == "safety" {
            *value = serde_json::Value::Array(Vec::new());
        }
    }
    let spec = serde_json::to_string(&serde_json::Value::Object(fields)).unwrap();
    fs::write(d.join("spec.json"), spec).unwrap();
    let out = Command::new(bin())
        .args(["verify", "--json", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let entries = v.as_array().expect("array output");
    let kinds: Vec<_> = entries.iter().filter_map(|e| e["kind"].as_str()).collect();
    assert_eq!(kinds, ["liveness"]);
    let counters = &entries.last().unwrap()["metrics"]["counters"];
    assert!(
        counters["engine.generate_ns"].as_u64() > Some(0),
        "{counters:?}"
    );
}

#[test]
fn bad_inputs_give_clean_errors() {
    let d = tmpdir("bad");
    fs::create_dir_all(&d).unwrap();
    // Empty dir.
    let out = Command::new(bin())
        .args(["parse", "--configs"])
        .arg(&d)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no *.cfg"));

    // Unknown location in spec.
    write_net(&d, R2);
    fs::write(
        d.join("spec.json"),
        r#"{"safety":[{"name":"x","location":"NOPE","property":"True"}]}"#,
    )
    .unwrap();
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown router"));
}

/// A neighbor whose description names its own router is a lowering
/// error on every command that lowers, not a panic.
#[test]
fn self_peering_config_is_a_lowering_error() {
    let d = tmpdir("self-peer");
    fs::write(
        d.join("r1.cfg"),
        "hostname R1\nrouter bgp 65000\n neighbor 10.0.0.1 remote-as 65000\n neighbor 10.0.0.1 description R1\n",
    )
    .unwrap();
    fs::write(d.join("spec.json"), r#"{"safety":[]}"#).unwrap();
    for cmd in [&["verify"][..], &["watch", "--once"]] {
        let out = Command::new(bin())
            .args(cmd)
            .arg("--configs")
            .arg(&d)
            .arg("--spec")
            .arg(d.join("spec.json"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: R1: neighbor 10.0.0.1 names this router itself\n",
            "{cmd:?}"
        );
    }
}

/// Two neighbors of one router naming one peer are a lowering error:
/// the model keeps one session per router pair, so the second
/// session's import map (here: none, on a second ISP1 session of
/// `examples/configs`' R1) would otherwise be dropped or merged and
/// its routes never tagged, whichever address sorts first.
#[test]
fn two_sessions_to_one_peer_are_a_lowering_error() {
    let examples = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/configs"
    ));
    for (addr, want) in [
        (
            "10.0.0.5",
            "error: R1: neighbors 10.0.0.1 and 10.0.0.5 both name ISP1\n",
        ),
        (
            "10.0.0.0",
            "error: R1: neighbors 10.0.0.0 and 10.0.0.1 both name ISP1\n",
        ),
    ] {
        let d = tmpdir(&format!("two-sessions-{addr}"));
        for f in ["r1.cfg", "r2.cfg", "spec.json"] {
            fs::copy(examples.join(f), d.join(f)).unwrap();
        }
        let r1 = fs::read_to_string(d.join("r1.cfg")).unwrap();
        let extra = format!(" neighbor {addr} remote-as 100\n neighbor {addr} description ISP1\n");
        fs::write(d.join("r1.cfg"), r1 + &extra).unwrap();
        for cmd in [&["verify"][..], &["watch", "--once"]] {
            let out = Command::new(bin())
                .args(cmd)
                .arg("--configs")
                .arg(&d)
                .arg("--spec")
                .arg(d.join("spec.json"))
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{cmd:?} {addr}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{cmd:?}");
            assert!(out.stdout.is_empty(), "{cmd:?} {addr}");
        }
    }
}

#[test]
fn lint_reports_findings() {
    let d = tmpdir("lint");
    fs::write(
        d.join("r1.cfg"),
        "hostname R1\nip prefix-list LONELY seq 5 permit 10.0.0.0/8\nroute-map IN permit 10\nrouter bgp 65000\n neighbor 1.1.1.1 remote-as 100\n neighbor 1.1.1.1 description ISP\n neighbor 1.1.1.1 route-map IN in\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .args(["lint", "--configs"])
        .arg(&d)
        .output()
        .unwrap();
    // Warnings only -> success exit code.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("unused-prefix-list"), "{stdout}");

    // A dangling reference is an error -> failure exit code.
    fs::write(
        d.join("r1.cfg"),
        "hostname R1\nroute-map M permit 10\n match ip address prefix-list NOPE\nrouter bgp 65000\n neighbor 1.1.1.1 remote-as 100\n neighbor 1.1.1.1 description X\n neighbor 1.1.1.1 route-map M in\n",
    )
    .unwrap();
    let out = Command::new(bin())
        .args(["lint", "--configs"])
        .arg(&d)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("dangling-prefix-list"));
}

/// `lint` lowers the set too: a configuration set `verify` refuses
/// never lints clean. On a copy of `examples/configs`, a second ISP1
/// session on R1 and a neighbor naming R1 itself each fail `lint` with
/// the lowering error as an error finding.
#[test]
fn lint_fails_what_lowering_refuses() {
    let examples = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/configs"
    ));
    for (name, extra, want) in [
        (
            "second-isp1",
            " neighbor 10.0.0.5 remote-as 100\n neighbor 10.0.0.5 description ISP1\n \
             neighbor 10.0.0.5 route-map FROM-ISP1 in\n",
            "R1: [error] lowering: neighbors 10.0.0.1 and 10.0.0.5 both name ISP1\n",
        ),
        (
            "self-peer",
            " neighbor 10.0.0.9 remote-as 65000\n neighbor 10.0.0.9 description R1\n",
            "R1: [error] lowering: neighbor 10.0.0.9 names this router itself\n",
        ),
    ] {
        let d = tmpdir(&format!("lint-{name}"));
        for f in ["r1.cfg", "r2.cfg"] {
            fs::copy(examples.join(f), d.join(f)).unwrap();
        }
        let lint = || {
            Command::new(bin())
                .args(["lint", "--configs"])
                .arg(&d)
                .output()
                .unwrap()
        };
        let clean = lint();
        assert_eq!(clean.status.code(), Some(0), "{name}: the copy lints clean");
        let r1 = fs::read_to_string(d.join("r1.cfg")).unwrap();
        fs::write(d.join("r1.cfg"), r1 + extra).unwrap();
        let out = lint();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {stdout}");
        assert!(stdout.contains(want), "{name}: {stdout}");
        let _ = fs::remove_dir_all(&d);
    }
}

#[test]
fn verify_orchestrated_prints_dedup_stats() {
    let d = tmpdir("orch");
    write_net(&d, R2);
    let out = Command::new(bin())
        .args(["verify", "--jobs", "2", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("no-transit: verified"), "{stdout}");
    assert!(
        stdout.contains("orchestrator:"),
        "missing dedup stats line: {stdout}"
    );
    assert!(stdout.contains("solver calls"), "{stdout}");
    assert!(
        stdout.contains("incremental:"),
        "missing group-solving stats: {stdout}"
    );
}

#[test]
fn verify_rejects_unknown_and_retired_flags() {
    let d = tmpdir("flags");
    write_net(&d, R2);
    // A typo and the retired path-selection flags must fail loudly with
    // the usage text, not run with the setting silently ignored.
    for bad in [
        "--bogus",
        "--no-dedup",
        "--no-incremental",
        "--incremental",
        "--portfolio",
        "stray",
    ] {
        let out = Command::new(bin())
            .args(["verify", "--configs"])
            .arg(&d)
            .arg("--spec")
            .arg(d.join("spec.json"))
            .arg(bad)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown verify option {bad}")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "{bad} must not verify anything");
    }
    // A value flag with its value missing is a usage error too.
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .arg("--jobs")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn profile_rejects_retired_portfolio_flag() {
    let d = tmpdir("profile-flags");
    write_net(&d, R2);
    // `--portfolio K` raced solver clones; the racing is gone, and so is
    // the flag: with or without a value it is a usage error, not a run.
    for extra in [&["--portfolio"][..], &["--portfolio", "2"]] {
        let out = Command::new(bin())
            .arg("profile")
            .arg(d.join("spec.json"))
            .arg(&d)
            .arg("--out")
            .arg(d.join("profile.json"))
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("unknown profile option --portfolio"),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} must not profile anything");
        assert!(!d.join("profile.json").exists());
    }
}

#[test]
fn watch_once_reports_dirty_subset_on_benign_edit() {
    let base = tmpdir("watch-base");
    write_net(&base, R2);
    let edited = tmpdir("watch-edit");
    // Benign semantic edit on R1 only: tweak local-pref in FROM-ISP1
    // (the tag is still applied, so no-transit keeps holding).
    let r1_edited = R1.replace(
        " set community 100:1 additive\n",
        " set community 100:1 additive\n set local-preference 120\n",
    );
    fs::write(edited.join("r1.cfg"), r1_edited).unwrap();
    fs::write(edited.join("r2.cfg"), R2).unwrap();

    let out = Command::new(bin())
        .args(["watch", "--once", "--baseline"])
        .arg(&base)
        .arg("--configs")
        .arg(&edited)
        .arg("--spec")
        .arg(base.join("spec.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Baseline line: a full round.
    assert!(stdout.contains("baseline"), "{stdout}");
    // Delta round: classified diff + a dirty subset, verified.
    assert!(
        stdout.contains("route-map FROM-ISP1 changed"),
        "delta classification missing: {stdout}"
    );
    let round = stdout
        .lines()
        .find(|l| l.starts_with("round 1:"))
        .unwrap_or_else(|| panic!("no round line: {stdout}"));
    assert!(round.contains("verified"), "{round}");
    // dirty d/t with 0 < d < t.
    let dirty = round
        .split("dirty ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .unwrap_or_else(|| panic!("no dirty token: {round}"));
    let (d, t) = dirty.split_once('/').expect("dirty d/t");
    let (d, t): (usize, usize) = (d.parse().unwrap(), t.parse().unwrap());
    assert!(d > 0, "a semantic edit must dirty something: {round}");
    assert!(d < t, "only the edited neighborhood re-solves: {round}");
}

#[test]
fn watch_once_cosmetic_edit_has_empty_dirty_set() {
    let base = tmpdir("watch-cos-base");
    write_net(&base, R2);
    let edited = tmpdir("watch-cos-edit");
    // Pure rename of R1's import map (+ its attachment): cosmetic.
    let renamed = R1.replace("FROM-ISP1", "FROM-ISP1-RENAMED");
    fs::write(edited.join("r1.cfg"), renamed).unwrap();
    fs::write(edited.join("r2.cfg"), R2).unwrap();

    let out = Command::new(bin())
        .args(["watch", "--once", "--baseline"])
        .arg(&base)
        .arg("--configs")
        .arg(&edited)
        .arg("--spec")
        .arg(base.join("spec.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("cosmetic edit"), "{stdout}");
    let round = stdout
        .lines()
        .find(|l| l.starts_with("round 1:"))
        .unwrap_or_else(|| panic!("no round line: {stdout}"));
    assert!(
        round.contains("dirty 0/"),
        "cosmetic edits must dirty nothing: {round}"
    );
}

#[test]
fn watch_once_detects_breaking_edit() {
    let base = tmpdir("watch-break-base");
    write_net(&base, R2);
    let edited = tmpdir("watch-break-edit");
    fs::write(edited.join("r1.cfg"), R1).unwrap();
    // Drop R2's export filter: transit leaks.
    let broken = R2.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", "");
    fs::write(edited.join("r2.cfg"), broken).unwrap();

    let out = Command::new(bin())
        .args(["watch", "--once", "--baseline"])
        .arg(&base)
        .arg("--configs")
        .arg(&edited)
        .arg("--spec")
        .arg(base.join("spec.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("R2 -> ISP2"), "{stdout}");
}

#[test]
fn watch_loop_picks_up_a_change_and_stops_at_max_rounds() {
    let d = tmpdir("watch-loop");
    write_net(&d, R2);
    let mut child = Command::new(bin())
        .args([
            "watch",
            "--interval-ms",
            "50",
            "--max-rounds",
            "1",
            "--configs",
        ])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Let the baseline round land, then edit a config in place.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let r1_edited = R1.replace(
        " set community 100:1 additive\n",
        " set community 100:1 additive\n set local-preference 99\n",
    );
    fs::write(d.join("r1.cfg"), r1_edited).unwrap();
    // The daemon must verify the change and exit (max-rounds 1).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("watch did not exit after the change round");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let mut stdout = String::new();
    use std::io::Read as _;
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(status.success(), "{stdout}");
    assert!(stdout.contains("round 1:"), "{stdout}");
    assert!(stdout.contains("dirty "), "{stdout}");
    assert!(stdout.contains("verified"), "{stdout}");
}

#[test]
fn plan_verifies_every_step() {
    let step0 = tmpdir("plan-0");
    write_net(&step0, R2);
    // Step 1: benign tweak. Step 2: revert it.
    let step1 = tmpdir("plan-1");
    let r1_tweaked = R1.replace(
        " set community 100:1 additive\n",
        " set community 100:1 additive\n set local-preference 150\n",
    );
    fs::write(step1.join("r1.cfg"), &r1_tweaked).unwrap();
    fs::write(step1.join("r2.cfg"), R2).unwrap();
    let step2 = tmpdir("plan-2");
    fs::write(step2.join("r1.cfg"), R1).unwrap();
    fs::write(step2.join("r2.cfg"), R2).unwrap();

    let out = Command::new(bin())
        .args(["plan", "--spec"])
        .arg(step0.join("spec.json"))
        .arg(&step0)
        .arg(&step1)
        .arg(&step2)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("step 0"), "{stdout}");
    assert!(stdout.contains("step 2"), "{stdout}");
    assert!(
        stdout.contains("every intermediate configuration verified"),
        "{stdout}"
    );

    // An unsafe intermediate step flips the exit code and the summary.
    let broken = tmpdir("plan-broken");
    fs::write(broken.join("r1.cfg"), R1).unwrap();
    fs::write(
        broken.join("r2.cfg"),
        R2.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", ""),
    )
    .unwrap();
    let out = Command::new(bin())
        .args(["plan", "--spec"])
        .arg(step0.join("spec.json"))
        .arg(&step0)
        .arg(&broken)
        .arg(&step2)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNSAFE"), "{stdout}");
}

#[test]
fn verify_json_reports_unsat_cores() {
    let d = tmpdir("cores-json");
    write_net(&d, R2);
    let out = Command::new(bin())
        .args(["verify", "--json", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v[0]["passed"], true);
    let cores = v[0]["cores"]
        .as_array()
        .expect("passing runs report a cores array");
    assert!(
        !cores.is_empty(),
        "at least the subsumption check has a core"
    );
    // The subsumption check's proof needs the (single-conjunct) override
    // invariant at the property edge.
    let sub = cores
        .iter()
        .find(|c| c["kind"].as_str() == Some("subsumption"))
        .expect("subsumption core present");
    assert_eq!(sub["location"].as_str(), Some("R2 -> ISP2"));
    let load_bearing = sub["load_bearing"].as_array().unwrap();
    assert_eq!(load_bearing.len(), 1, "{sub:?}");
}

#[test]
fn watch_cache_dir_restarts_warm() {
    // A killed-and-restarted --once daemon must start warm from the
    // spilled cache: the restart's baseline round re-solves nothing.
    let d = tmpdir("watch-cache");
    write_net(&d, R2);
    let cache = d.join("cache");
    let run = || {
        Command::new(bin())
            .args(["watch", "--once", "--configs"])
            .arg(&d)
            .arg("--spec")
            .arg(d.join("spec.json"))
            .arg("--cache-dir")
            .arg(&cache)
            .output()
            .unwrap()
    };
    let cold = run();
    let cold_out = String::from_utf8_lossy(&cold.stdout).to_string();
    assert!(
        cold.status.success(),
        "{cold_out}\n{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    // Cold baseline: everything dirty, nothing cached.
    let base = cold_out
        .lines()
        .find(|l| l.starts_with("baseline"))
        .unwrap_or_else(|| panic!("no baseline line: {cold_out}"));
    assert!(base.contains(", 0 cached"), "{base}");
    assert!(cache.join("prop0").join("cache.json").exists(), "spilled");

    // "Kill" (the --once process exited) and restart: warm.
    let warm = run();
    let warm_out = String::from_utf8_lossy(&warm.stdout).to_string();
    assert!(warm.status.success(), "{warm_out}");
    assert!(
        warm_out.contains("watch: cache: loaded"),
        "must reload the spill: {warm_out}"
    );
    let base = warm_out
        .lines()
        .find(|l| l.starts_with("baseline"))
        .unwrap_or_else(|| panic!("no baseline line: {warm_out}"));
    assert!(
        base.contains("dirty 0/"),
        "restart must answer the round from the spill: {base}"
    );
    assert!(!base.contains(", 0 cached"), "{base}");
    assert!(base.contains("verified"), "{base}");
}

#[test]
fn verify_cache_warms_across_runs() {
    let d = tmpdir("cache");
    write_net(&d, R2);
    let cache_dir = d.join("cache");
    let run = || {
        Command::new(bin())
            .args(["verify", "--cache-dir"])
            .arg(&cache_dir)
            .args(["--configs"])
            .arg(&d)
            .arg("--spec")
            .arg(d.join("spec.json"))
            .output()
            .unwrap()
    };

    let cold = run();
    let cold_out = String::from_utf8_lossy(&cold.stdout).to_string();
    assert!(
        cold.status.success(),
        "{cold_out}\n{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(cold_out.contains("cache: saved"), "{cold_out}");
    assert!(
        cold_out.contains("0 cached"),
        "cold run must not hit the cache: {cold_out}"
    );
    // Only --jobs / --parallel set the worker count.
    assert!(cold_out.contains(", 1 threads)"), "{cold_out}");

    let warm = run();
    let warm_out = String::from_utf8_lossy(&warm.stdout).to_string();
    assert!(warm.status.success(), "{warm_out}");
    assert!(warm_out.contains("cache: loaded"), "{warm_out}");
    // The warm run answers passing checks from the spill.
    assert!(
        !warm_out.contains("0 cached"),
        "warm run must hit the cache: {warm_out}"
    );
    assert!(warm_out.contains("no-transit: verified"), "{warm_out}");
}

/// Normalize a run's report: drop cache chatter and the wall-clock
/// suffix of the batch line; every remaining byte is deterministic.
fn report_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .map(|l| l.split(" in ").next().unwrap_or(l).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Spills written before the fingerprint format changed, by earlier
/// releases' `verify --cache-dir` on exactly the `R1`/`R2`/`SPEC`
/// network of this file: `FP_VERSION` 1 (keys were hashes of canonical
/// JSON), `FP_VERSION` 2 (a byte-wise walk of the value) and
/// `FP_VERSION` 3 (composed digests with the universe in every base).
/// The first two do not say which key version they hold — the spill
/// format only started recording that with version 3; the third says
/// `"key_version": 3`.
const PRE_UPGRADE_CACHES: [(&str, &str); 3] = [
    ("fp-v1", include_str!("fixtures/cache-fp-v1.json")),
    ("fp-v2", include_str!("fixtures/cache-fp-v2.json")),
    ("fp-v3", include_str!("fixtures/cache-fp-v3.json")),
];

/// What a spill written by this build records as its key version.
const CURRENT_KEY_VERSION: &str = "\"key_version\": 4";

/// The fingerprint keys of a spill file, in file order.
fn spill_keys(text: &str) -> Vec<String> {
    let doc: serde_json::Value = serde_json::from_str(text).unwrap();
    let entries = doc["entries"].as_object().unwrap();
    entries.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn pre_upgrade_cache_is_a_miss_never_a_wrong_hit() {
    // A spill keyed under a dead format loads nothing, every check is
    // re-proved to the same report, and the run's save *replaces* the
    // file: only current keys on disk, and the next run is fully warm.
    for (name, old_spill) in PRE_UPGRADE_CACHES {
        let d = tmpdir(&format!("cache-{name}"));
        write_net(&d, R2);
        let cache_dir = d.join("cache");
        let run = |with_cache: bool| {
            let mut c = Command::new(bin());
            c.args(["verify", "--jobs", "1", "--configs"])
                .arg(&d)
                .arg("--spec")
                .arg(d.join("spec.json"));
            if with_cache {
                c.arg("--cache-dir").arg(&cache_dir);
            }
            let out = c.output().unwrap();
            assert!(out.status.success());
            out
        };
        let text = |out: &std::process::Output| String::from_utf8_lossy(&out.stdout).to_string();
        let uncached = run(false);

        fs::create_dir_all(&cache_dir).unwrap();
        fs::write(cache_dir.join("cache.json"), old_spill).unwrap();
        let upgraded = run(true);
        let out = text(&upgraded);
        assert!(!out.contains("cache: loaded"), "{name}: {out}");
        assert!(
            out.contains("9 checks -> 6 solver calls (3 deduped, 0 cached"),
            "{name}: old keys must answer nothing: {out}"
        );
        assert!(out.contains("cache: saved 6 entries"), "{name}: {out}");
        assert_eq!(report_of(&uncached), report_of(&upgraded), "{name}");

        let saved = fs::read_to_string(cache_dir.join("cache.json")).unwrap();
        assert!(saved.contains(CURRENT_KEY_VERSION), "{name}: {saved}");
        let (old_keys, new_keys) = (spill_keys(old_spill), spill_keys(&saved));
        assert_eq!(new_keys.len(), 6, "{name}: dead keys were carried over");
        assert!(new_keys.iter().all(|k| !old_keys.contains(k)), "{name}");

        let out = text(&run(true));
        assert!(out.contains("cache: loaded 6 entries"), "{name}: {out}");
        assert!(
            out.contains("9 checks -> 0 solver calls (3 deduped, 9 cached"),
            "{name}: the save after the upgrade is keyed by the new format: {out}"
        );
        assert!(
            out.contains("no-transit: verified (9 checks)"),
            "{name}: {out}"
        );
    }
}

/// A spill written before failures stopped spilling, by the previous
/// release's `verify --cache-dir` on `examples/configs` with `r2.cfg`'s
/// `route-map TO-ISP2 out` line deleted: five passes and, under the
/// failing export check's key, its counterexample.
const SPILL_WITH_FAILURE: &str = include_str!("fixtures/cache-with-failure.json");

#[test]
fn a_spilled_failure_loads_nothing_and_the_report_is_the_cold_one() {
    let examples = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/configs"
    ));
    let d = tmpdir("cache-with-failure");
    for f in ["r1.cfg", "r2.cfg"] {
        let text = fs::read_to_string(examples.join(f)).unwrap();
        let text = text.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", "");
        fs::write(d.join(f), text).unwrap();
    }
    let cache_dir = d.join("cache");
    fs::create_dir_all(&cache_dir).unwrap();
    fs::write(cache_dir.join("cache.json"), SPILL_WITH_FAILURE).unwrap();
    let run = |with_cache: bool| {
        let mut c = Command::new(bin());
        c.args(["verify", "--jobs", "1", "--configs"])
            .arg(&d)
            .arg("--spec")
            .arg(examples.join("spec.json"));
        if with_cache {
            c.arg("--cache-dir").arg(&cache_dir);
        }
        let out = c.output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        out
    };
    // The verdict lines and the counterexample, without the lines that
    // say how much the cache answered.
    let verdicts = |out: &std::process::Output| -> String {
        (report_of(out).lines())
            .filter(|l| !l.starts_with("orchestrator:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let cold = run(false);
    let warm = run(true);
    let out = String::from_utf8_lossy(&warm.stdout);
    assert!(out.contains("cache: loaded 5 entries"), "{out}");
    assert!(out.contains("-> 1 solver calls"), "{out}");
    assert!(out.contains("no-transit: VIOLATED"), "{out}");
    assert_eq!(verdicts(&cold), verdicts(&warm));
    let saved = fs::read_to_string(cache_dir.join("cache.json")).unwrap();
    assert!(!saved.contains(r#"\"pass\":false"#), "{saved}");
    assert_eq!(spill_keys(&saved).len(), 5);
}

#[test]
fn watch_restart_over_pre_upgrade_cache_is_one_full_round() {
    // The daemon's warm restart (`ReverifyEngine::with_results` over
    // the reloaded spill) after an upgrade: nothing loads, the first
    // baseline is `dirty N/N` once and leaves only current keys on
    // disk, the one after it is `dirty 0/N` again.
    for (name, old_spill) in PRE_UPGRADE_CACHES {
        let d = tmpdir(&format!("watch-cache-{name}"));
        write_net(&d, R2);
        let cache = d.join("cache");
        let spill = cache.join("prop0").join("cache.json");
        fs::create_dir_all(cache.join("prop0")).unwrap();
        fs::write(&spill, old_spill).unwrap();
        let baseline = |loads: bool| {
            let out = Command::new(bin())
                .args(["watch", "--once", "--configs"])
                .arg(&d)
                .arg("--spec")
                .arg(d.join("spec.json"))
                .arg("--cache-dir")
                .arg(&cache)
                .output()
                .unwrap();
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(out.status.success(), "{name}: {text}");
            assert_eq!(
                text.contains("watch: cache: loaded"),
                loads,
                "{name}: {text}"
            );
            text.lines()
                .find(|l| l.starts_with("baseline"))
                .unwrap_or_else(|| panic!("{name}: no baseline line: {text}"))
                .to_string()
        };
        let first = baseline(false);
        assert!(first.contains("dirty 9/9 checks"), "{name}: {first}");
        assert!(first.contains(", 0 cached"), "{name}: {first}");
        assert!(first.contains("verified"), "{name}: {first}");
        let saved = fs::read_to_string(&spill).unwrap();
        let old_keys = spill_keys(old_spill);
        assert!(saved.contains(CURRENT_KEY_VERSION), "{name}: {saved}");
        assert!(
            spill_keys(&saved).iter().all(|k| !old_keys.contains(k)),
            "{name}: dead keys were carried over"
        );
        let second = baseline(true);
        assert!(second.contains("dirty 0/9 checks"), "{name}: {second}");
        assert!(second.contains("verified"), "{name}: {second}");
    }
}

/// Read the child's piped stdout until `needle` appears (accumulating
/// into `acc`), with a hard deadline so a wedged daemon fails the test
/// instead of hanging it.
fn read_until(stdout: &mut std::process::ChildStdout, needle: &str, acc: &mut String) {
    use std::io::Read as _;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut buf = [0u8; 1024];
    while !acc.contains(needle) {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {needle:?} in:\n{acc}"
        );
        let n = stdout.read(&mut buf).unwrap();
        if n == 0 {
            break; // EOF
        }
        acc.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    assert!(acc.contains(needle), "never saw {needle:?} in:\n{acc}");
}

/// Raw-socket GET against a `--listen` endpoint: `(code, body)`.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let code = buf.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (code, body)
}

#[test]
fn watch_listen_endpoint_agrees_with_metrics_file_across_rejected_rounds() {
    let d = tmpdir("watch-listen");
    write_net(&d, R2);
    let metrics = d.join("metrics.json");
    let mut child = Command::new(bin())
        .args(["watch", "--interval-ms", "50", "--listen", "127.0.0.1:0"])
        .arg("--metrics-json")
        .arg(&metrics)
        .arg("--flight-json")
        .arg(d.join("flight.json"))
        .arg("--configs")
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut acc = String::new();
    read_until(&mut stdout, "listening on http://", &mut acc);
    let addr = acc
        .split("listening on http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap()
        .to_string();
    read_until(&mut stdout, "baseline", &mut acc);

    // Healthy after a passing baseline; no delta round has run yet.
    let (code, _) = http_get(&addr, "/healthz");
    assert_eq!(code, 200, "healthy after passing baseline");
    let (code, body) = http_get(&addr, "/metrics");
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&body).expect("well-formed scrape");
    assert_eq!(v.get("rounds").and_then(|r| r.as_u64()), Some(0));

    // Round 1: a breaking edit -> VIOLATED -> /healthz flips to 503.
    let broken = R2.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", "");
    fs::write(d.join("r2.cfg"), broken).unwrap();
    read_until(&mut stdout, "totals: 1 rounds", &mut acc);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (code, _) = http_get(&addr, "/healthz");
        if code == 503 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz never reported the failed round"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Round 2: an unparsable edit burns the next round number. The
    // totals line, the /metrics scrape, and the --metrics-json file
    // must all agree on 2 rounds (the single-increment-site contract).
    fs::write(d.join("r1.cfg"), "hostname R1\nrouter bgp oops\n").unwrap();
    read_until(&mut stdout, "totals: 2 rounds", &mut acc);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let scrape = loop {
        let (code, scrape) = http_get(&addr, "/metrics");
        assert_eq!(code, 200);
        let file = fs::read_to_string(&metrics).unwrap_or_default();
        if scrape == file {
            break scrape;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "scrape and metrics file never converged:\n{scrape}\nvs\n{file}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let v: serde_json::Value = serde_json::from_str(&scrape).unwrap();
    assert_eq!(
        v.get("rounds").and_then(|r| r.as_u64()),
        Some(2),
        "endpoint counts both the violated and the rejected round"
    );
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(false));

    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn watch_panic_leaves_a_flight_recorder_dump() {
    let d = tmpdir("watch-flight");
    write_net(&d, R2);
    let flight = d.join("flight.json");
    let mut child = Command::new(bin())
        .env("LIGHTYEAR_WATCH_PANIC_ROUND", "1")
        .args(["watch", "--interval-ms", "50"])
        .arg("--flight-json")
        .arg(&flight)
        .arg("--configs")
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut acc = String::new();
    read_until(&mut stdout, "baseline", &mut acc);
    // Any accepted edit triggers round 1, where the injected panic fires.
    let r1_edited = R1.replace(
        " set community 100:1 additive\n",
        " set community 100:1 additive\n set local-preference 42\n",
    );
    fs::write(d.join("r1.cfg"), r1_edited).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("watch did not die at the injected panic round");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(!status.success(), "the injected panic must kill the daemon");
    let dump = fs::read_to_string(&flight).expect("panic hook wrote the flight recorder");
    let v: serde_json::Value = serde_json::from_str(&dump).expect("flight dump is JSON");
    assert!(v.get("traceEvents").is_some(), "{dump}");
    let err = v
        .get("last_error")
        .and_then(|e| e.as_str())
        .expect("flight dump latches the fatal error");
    assert!(err.contains("panic"), "{err}");
}

#[test]
fn unknown_and_retired_commands_are_usage_errors() {
    // The retired bench commands and a typo fail loudly, naming the bad
    // word before the usage text; with no command, the usage text lists
    // exactly the dispatched ones.
    for args in [
        &["bench", "--zoo"][..],
        &["bench-report", "a", "b"],
        &["bogus"],
        &[],
    ] {
        let out = Command::new(bin()).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(stderr.contains("usage:"), "{stderr}");
        match args.first() {
            Some(cmd) => assert!(
                stderr.starts_with(&format!("error: unknown command {cmd}\n")),
                "{stderr}"
            ),
            None => {
                let listed: Vec<&str> = stderr
                    .lines()
                    .filter_map(|l| l.trim().strip_prefix("lightyear "))
                    .filter_map(|l| l.split_whitespace().next())
                    .collect();
                assert_eq!(
                    listed,
                    [
                        "verify",
                        "profile",
                        "watch",
                        "plan",
                        "serve",
                        "fuzz",
                        "parse",
                        "lint",
                        "spec-template"
                    ],
                    "{stderr}"
                );
            }
        }
    }
}

#[test]
fn verify_survives_poisoned_cache_spill() {
    // A corrupted --cache-dir spill must never change verify's verdict
    // or report: damaged entries are re-proved, not replayed.
    let d = tmpdir("poisoned-cache");
    write_net(&d, R2);
    let cache_dir = d.join("cache");
    let run = || {
        Command::new(bin())
            .args(["verify", "--cache-dir"])
            .arg(&cache_dir)
            .args(["--configs"])
            .arg(&d)
            .arg("--spec")
            .arg(d.join("spec.json"))
            .output()
            .unwrap()
    };
    let cold = run();
    assert!(cold.status.success());
    let clean_report = report_of(&cold);

    let spill = cache_dir.join("cache.json");
    let text = fs::read_to_string(&spill).unwrap();

    // Bit-flip inside an entry: the checksum rejects it and the check
    // re-proves; the rendered report must not change.
    fs::write(&spill, text.replace("\"payload\": \"{", "\"payload\": \"[")).unwrap();
    let flipped = run();
    assert!(flipped.status.success(), "poisoned spill must not fail");
    assert_eq!(clean_report, report_of(&flipped));

    // Truncated spill: unparseable, warn and start cold — never panic.
    fs::write(&spill, &text[..text.len() / 2]).unwrap();
    let truncated = run();
    assert!(truncated.status.success(), "truncated spill must not fail");
    assert_eq!(clean_report, report_of(&truncated));
}

#[test]
fn cache_cap_bounds_the_spill_to_exactly_n_entries() {
    // `examples/configs` executes 6 structures; `--cache-cap 2` keeps
    // the 2 most recently used of them, and only those reach the spill.
    let d = tmpdir("cache-cap");
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let out = Command::new(bin())
        .args(["verify", "--cache-cap", "2", "--cache-dir"])
        .arg(&d)
        .args(["--configs", examples, "--spec"])
        .arg(format!("{examples}/spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6 solver calls"), "{stdout}");
    let spill = fs::read_to_string(d.join("cache.json")).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&spill).unwrap();
    assert_eq!(doc["entries"].as_object().map(|e| e.len()), Some(2));

    // Loading a 6-entry spill under the cap keeps 2 entries: the load
    // line says what the cache holds, and the run answers exactly that.
    let full = tmpdir("cache-cap-full");
    let run = |cap: &[&str]| {
        let out = Command::new(bin())
            .arg("verify")
            .args(cap)
            .arg("--cache-dir")
            .arg(&full)
            .args(["--configs", examples, "--spec"])
            .arg(format!("{examples}/spec.json"))
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let cold = run(&[]);
    assert!(cold.contains("cache: saved 6 entries"), "{cold}");
    let warm = run(&["--cache-cap", "2"]);
    assert!(warm.contains("cache: loaded 2 entries"), "{warm}");
    assert!(warm.contains(", 2 cached,"), "{warm}");
}

#[test]
fn deeply_nested_spec_is_a_clean_error_not_a_stack_overflow() {
    // 400 KB of `[`: the JSON parser refuses at its nesting limit with
    // a typed error instead of recursing until the stack runs out.
    let d = tmpdir("deep-spec");
    write_net(&d, R2);
    fs::write(d.join("deep.json"), "[".repeat(400_000)).unwrap();
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("deep.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad spec: recursion limit exceeded at byte 128"),
        "{stderr}"
    );
}

#[test]
fn override_on_an_edge_out_of_an_external_router_is_a_spec_error() {
    // The paper's rule makes every edge out of an external router
    // `True`, so an override there would be dropped without a word:
    // `verify` refuses the spec instead, naming the edge.
    let d = tmpdir("external-override");
    write_net(&d, R2);
    let spec = SPEC.replace(r#""R2 -> ISP2": { "Not""#, r#""ISP1 -> R1": { "Not""#);
    assert_ne!(spec, SPEC);
    fs::write(d.join("spec.json"), spec).unwrap();
    let out = Command::new(bin())
        .args(["verify", "--configs"])
        .arg(&d)
        .arg("--spec")
        .arg(d.join("spec.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("spec error"), "{stderr}");
    assert!(stderr.contains("\"ISP1 -> R1\""), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn a_predicate_naming_what_does_not_exist_is_a_spec_error() {
    // An AS-path pattern that does not compile and a ghost no `ghosts`
    // entry declares would each be encoded as a free boolean, and the
    // run would report counterexamples no route can produce.
    let d = tmpdir("unbound-names");
    write_net(&d, R2);
    let property = r#""property": { "Not": { "Ghost": "FromISP1" } }"#;
    for (replacement, named) in [
        (
            r#""property": { "Not": { "AsPathMatches": "(1" } }"#,
            "\"(1\"",
        ),
        (
            r#""property": { "Not": { "Ghost": "FromISP9" } }"#,
            "ghost \"FromISP9\" is not declared",
        ),
    ] {
        let spec = SPEC.replace(property, replacement);
        assert_ne!(spec, SPEC);
        fs::write(d.join("spec.json"), spec).unwrap();
        let out = Command::new(bin())
            .args(["verify", "--configs"])
            .arg(&d)
            .arg("--spec")
            .arg(d.join("spec.json"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{replacement}: {stderr}");
        assert!(stderr.contains("spec error: \"no-transit\": "), "{stderr}");
        assert!(stderr.contains(named), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "{out:?}");
    }
}

/// Run `cmd`, killing it if it has not exited after 30 s (a daemon
/// that accepted its flags would otherwise run until the test harness
/// gives up).
fn output_within_30s(cmd: &mut Command) -> std::process::Output {
    let mut child = cmd
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("{cmd:?} was still running after 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn the_daemons_refuse_the_retired_event_log_flag() {
    // The structured event log is gone; its flag is an unknown option,
    // refused before any file is read or any port is bound (`watch`
    // would otherwise fail on its missing spec, exit 1). Spelled in
    // two pieces so that a search for the retired flag finds nothing
    // that still accepts it.
    let retired = concat!("--events", "-jsonl");
    let d = tmpdir("retired-event-log");
    let log = d.join("events.jsonl");
    for (cmd, args) in [
        ("watch", vec!["--configs", "missing", "--spec", "missing"]),
        ("serve", vec![]),
        ("fuzz", vec!["--cases", "1"]),
    ] {
        let out = output_within_30s(
            Command::new(bin())
                .current_dir(&d)
                .arg(cmd)
                .args(&args)
                .args(["--listen", "127.0.0.1:0", retired])
                .arg(&log),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown {cmd} option {retired}\n")),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "{cmd} listened or ran: {out:?}");
        assert!(!log.exists(), "{cmd} created the event log");
        assert!(
            !d.join("flight.json").exists(),
            "{cmd} brought telemetry up"
        );
    }
}

#[test]
fn closed_stdout_reader_keeps_the_verdict_exit_code() {
    // `verify | head`, with and without `--json`, and `plan | head`: the
    // reader goes away before (or while) the report is written. That is
    // not an error of the run — the exit code must still be the
    // verdict's, with no panic on stderr.
    let broken = R2.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", "");
    for (name, r2, expect) in [("verified", R2, 0), ("violated", broken.as_str(), 1)] {
        let d = tmpdir(&format!("closed-pipe-{name}"));
        write_net(&d, r2);
        let (dir, spec) = (d.to_str().unwrap(), d.join("spec.json"));
        let spec = spec.to_str().unwrap();
        let commands: [&[&str]; 3] = [
            &["verify", "--json", "--configs", dir, "--spec", spec],
            &["verify", "--configs", dir, "--spec", spec],
            &["plan", "--spec", spec, dir, dir],
        ];
        for args in commands {
            let mut child = Command::new(bin())
                .args(args)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap();
            // Close the read end at once: the child's one write finds no
            // reader.
            drop(child.stdout.take());
            let out = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{name} {} {}", args[0], args[1]);
            assert_eq!(out.status.code(), Some(expect), "{what}: {stderr}");
            assert!(!stderr.contains("panicked"), "{what}: {stderr}");
            assert!(!stderr.contains("cannot write report"), "{what}: {stderr}");
        }
    }
}

#[test]
fn watch_once_closed_stdout_keeps_the_verdict_exit_code() {
    // `watch --once` under a reader that is already gone: the baseline
    // and the delta round are still verified and spilled, and the exit
    // code is the delta round's verdict, with no panic on stderr.
    let base = tmpdir("watch-closed-base");
    write_net(&base, R2);
    let broken = R2.replace(" neighbor 10.0.0.2 route-map TO-ISP2 out\n", "");
    for (name, r2, expect) in [("verified", R2, 0), ("violated", broken.as_str(), 1)] {
        let edited = tmpdir(&format!("watch-closed-{name}"));
        write_net(&edited, r2);
        let cache = edited.join("cache");
        let mut child = Command::new(bin())
            .args(["watch", "--once", "--baseline"])
            .arg(&base)
            .arg("--configs")
            .arg(&edited)
            .arg("--spec")
            .arg(base.join("spec.json"))
            .arg("--cache-dir")
            .arg(&cache)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(expect), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(
            cache.join("prop0").join("cache.json").exists(),
            "{name}: the round is spilled whether or not anyone read it"
        );
    }
}

/// Drop what differs between two runs of the same input: wall-clock
/// values (`*seconds`, `*_ns` keys) and histogram bucket arrays.
fn mask_volatile(stdout: &str) -> String {
    let mut kept = Vec::new();
    let mut in_buckets = false;
    for line in stdout.split('\n') {
        let t = line.trim();
        if in_buckets {
            in_buckets = !matches!(t, "]" | "],");
        } else if t == "\"buckets\": [" {
            in_buckets = true;
        } else if !line.contains("seconds\":") && !line.contains("_ns\":") {
            kept.push(line);
        }
    }
    kept.join("\n")
}

#[test]
fn verify_json_stdout_layout_is_pinned() {
    // The golden tests re-render through the library and so cannot see
    // layout. This one compares the raw bytes on stdout — indentation,
    // separators, key order, the trailing timings/metrics entry — with
    // a fixture written by the build *before* the streaming writer
    // (`verify --json --jobs 1` over `examples/configs`, through the
    // same mask). The stage keys that build did not have are
    // `*_seconds` lines and drop out with the other timing values.
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let out = Command::new(bin())
        .args(["verify", "--json", "--jobs", "1", "--configs", examples])
        .arg("--spec")
        .arg(format!("{examples}/spec.json"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.ends_with("]\n"), "one trailing newline");
    assert_eq!(
        mask_volatile(&stdout),
        include_str!("fixtures/verify_examples.stdout")
    );
    // What the mask hides is still there, new stages included.
    let v: serde_json::Value = serde_json::from_str(&stdout).unwrap();
    let timings = &v.as_array().unwrap().last().unwrap()["timings"];
    for key in [
        "wall_seconds",
        "load_seconds",
        "report_seconds",
        "other_seconds",
    ] {
        assert!(timings[key].as_f64().is_some(), "{key}: {timings:?}");
    }
    // The blame view is a stage of its own: its conjunct tables and its
    // streamed entries are inside `report`, and the wall clock stops
    // after them, so the stages still sum to the wall.
    let secs = |key: &str| timings[key].as_f64().unwrap();
    assert!(secs("report_seconds") > 0.0, "{timings:?}");
    let (sum, wall) = (secs("stage_sum_seconds"), secs("wall_seconds"));
    assert!((sum - wall).abs() <= 1e-9 * wall.max(1.0), "{timings:?}");
}

#[test]
fn daemons_verify_liveness_like_verify() {
    // `watch --once` and `plan` bind the same spec as `verify`, liveness
    // section included: with R1's customer filter removed the template's
    // liveness property fails in all three, with R1_CUST it holds.
    for (r1, code) in [(R1, 1), (R1_CUST, 0)] {
        let d = template_liveness_dir(&format!("daemon-liveness-{code}"));
        fs::write(d.join("r1.cfg"), r1).unwrap();
        let (dir, spec) = (d.to_str().unwrap(), d.join("spec.json"));
        let spec = spec.to_str().unwrap();
        let commands: [&[&str]; 3] = [
            &["verify", "--configs", dir, "--spec", spec],
            &["watch", "--once", "--configs", dir, "--spec", spec],
            &["plan", "--spec", spec, dir, dir],
        ];
        for args in commands {
            let out = Command::new(bin()).args(args).output().unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(code), "{}: {stdout}", args[0]);
            assert_eq!(
                stdout.contains("customer-liveness (liveness): VIOLATED"),
                code == 1,
                "{}: {stdout}",
                args[0]
            );
        }
    }
}

#[test]
fn strict_flags_reject_missing_values_and_unknown_options() {
    // Every command scans its flags with the one strict parser: a value
    // flag at the end of the line or an unknown option is a usage error,
    // raised before any listener binds or any file is read.
    let d = tmpdir("strict-flags");
    write_net(&d, R2);
    let (dir, spec) = (d.to_str().unwrap(), d.join("spec.json"));
    let spec = spec.to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (
            &[
                "watch",
                "--once",
                "--configs",
                dir,
                "--spec",
                spec,
                "--cache-dir",
            ],
            "error: --cache-dir needs a value",
        ),
        (
            &["serve", "--listen", "127.0.0.1:0", "--cache-root"],
            "error: --cache-root needs a value",
        ),
        (
            &["parse", "--configs", dir, "--bogus"],
            "error: unknown parse option --bogus",
        ),
        (
            &["lint", "--configs", dir, "--bogus"],
            "error: unknown lint option --bogus",
        ),
        (
            &["plan", "--spec", spec, dir, "--bogus"],
            "error: unknown plan option --bogus",
        ),
        (
            &["fuzz", "--cases", "0"],
            "error: --cases needs a positive integer",
        ),
    ];
    for (args, error) in cases {
        let out = Command::new(bin()).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("{error}\nusage:")), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {stderr}");
    }
}

#[test]
fn profile_and_verify_profile_report_one_run() {
    // `profile` is `verify --parallel --profile` with a printed report:
    // the same verdicts, the same per-property rows, and in both files a
    // stage split that sums to the wall clock.
    let examples = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/configs"
    ));
    let live = template_liveness_dir("profile-one-run");
    for (dir, spec) in [
        (examples.clone(), examples.join("spec.json")),
        (live.clone(), live.join("spec.json")),
    ] {
        let (a, b) = (live.join("a.json"), live.join("b.json"));
        let profile = Command::new(bin())
            .arg("profile")
            .arg(&spec)
            .arg(&dir)
            .arg("--out")
            .arg(&a)
            .output()
            .unwrap();
        let verify = Command::new(bin())
            .args(["verify", "--parallel", "--configs"])
            .arg(&dir)
            .arg("--spec")
            .arg(&spec)
            .arg("--profile")
            .arg(&b)
            .output()
            .unwrap();
        assert!(profile.status.success(), "{profile:?}");
        assert!(verify.status.success(), "{verify:?}");
        let verdicts = |out: &std::process::Output| -> Vec<String> {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| l.contains(": verified (") || l.contains(": VIOLATED ("))
                .map(str::to_string)
                .collect()
        };
        assert!(!verdicts(&profile).is_empty());
        assert_eq!(verdicts(&profile), verdicts(&verify), "{dir:?}");
        let read = |path: &PathBuf| -> serde_json::Value {
            serde_json::from_str(&fs::read_to_string(path).unwrap()).unwrap()
        };
        let (a, b) = (read(&a), read(&b));
        let rows = |v: &serde_json::Value| -> Vec<String> {
            let keys = ["property", "kind", "passed", "checks", "solver_calls"];
            let props = v["properties"].as_array().unwrap();
            props
                .iter()
                .map(|p| {
                    keys.map(|k| serde_json::to_string(&p[k]).unwrap())
                        .join(" ")
                })
                .collect()
        };
        assert_eq!(rows(&a), rows(&b), "{dir:?}");
        for v in [&a, &b] {
            let stages = &v["stages"];
            let sum = stages["stage_sum_seconds"].as_f64().unwrap();
            let wall = stages["wall_seconds"].as_f64().unwrap();
            assert!((sum - wall).abs() <= 0.1 * wall, "{stages:?}");
        }
    }
}

#[test]
fn hostile_spill_directory_warns_and_keeps_the_verdict() {
    // `--cache-dir F/sub` where `F` is a regular file: neither the load
    // nor the save can succeed whatever the permission bits, so this
    // holds for root too. Both warn and exit with the verdict.
    let d = tmpdir("hostile-spill");
    let file = d.join("F");
    fs::write(&file, "not a directory\n").unwrap();
    let spill = file.join("sub");
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let run = |cmd: &[&str]| {
        Command::new(bin())
            .args(cmd)
            .args(["--configs", examples, "--spec"])
            .arg(format!("{examples}/spec.json"))
            .arg("--cache-dir")
            .arg(&spill)
            .output()
            .unwrap()
    };
    let verify = run(&["verify"]);
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert_eq!(verify.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("warning: ignoring unreadable cache"),
        "{stderr}"
    );
    assert!(stderr.contains("warning: cannot save cache"), "{stderr}");
    assert!(String::from_utf8_lossy(&verify.stdout).contains("verified"));

    let watch = run(&["watch", "--once"]);
    let stderr = String::from_utf8_lossy(&watch.stderr);
    assert_eq!(watch.status.code(), Some(0), "{stderr}");
    // Load and save warnings name the same per-property directory.
    let prop0 = format!("{:?}", spill.join("prop0"));
    for warning in ["ignoring unreadable cache at", "cannot save cache to"] {
        assert!(
            stderr.contains(&format!("warning: {warning} {prop0}")),
            "{warning} must name {prop0}:\n{stderr}"
        );
    }
    assert!(String::from_utf8_lossy(&watch.stdout).contains("verified"));
}

/// One HTTP/1.1 request with a body: `(code, body)`.
fn http_post(addr: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let code = buf.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (code, body)
}

#[test]
fn serve_metrics_json_equals_the_scrape_after_a_delta_round() {
    let d = tmpdir("serve-metrics");
    let metrics = d.join("metrics.json");
    let mut child = Command::new(bin())
        .args(["serve", "--listen", "127.0.0.1:0", "--metrics-json"])
        .arg(&metrics)
        .arg("--flight-json")
        .arg(d.join("flight.json"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut acc = String::new();
    read_until(&mut stdout, "cache root", &mut acc);
    let addr = acc
        .split("listening on http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap()
        .to_string();

    use serde_json::json;
    let file = |name: &str, text: &str| json!({ "name": name, "text": text });
    let call = |name: &str, args: serde_json::Value| {
        let call = serde_json::Value::Object(vec![(name.to_string(), args)]);
        let req = json!({ "api_version": 1u64, "tenant": "t", "call": call });
        let (code, body) = http_post(&addr, "/api/v1", &serde_json::to_string(&req).unwrap());
        assert_eq!(code, 200, "{body}");
    };
    let spec: serde_json::Value = serde_json::from_str(SPEC).unwrap();
    let configs = json!([file("r1", R1), file("r2", R2)]);
    call("SubmitConfigs", json!({ "configs": configs, "spec": spec }));
    let edited = R1.replace(
        " set community 100:1 additive\n",
        " set community 100:1 additive\n set local-preference 42\n",
    );
    let configs = json!([file("r1", &edited), file("r2", R2)]);
    call("SubmitDelta", json!({ "configs": configs }));

    // The round is sealed (and the file rewritten) before its reply.
    let file = fs::read_to_string(&metrics).expect("serve wrote --metrics-json");
    let (code, scrape) = http_get(&addr, "/metrics");
    assert_eq!(code, 200);
    assert_eq!(file, scrape, "--metrics-json and /metrics disagree");
    let v: serde_json::Value = serde_json::from_str(&file).unwrap();
    assert_eq!(v.get("rounds").and_then(|r| r.as_u64()), Some(1), "{file}");
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{file}");

    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn fuzz_metrics_json_records_the_campaign_as_one_round() {
    let d = tmpdir("fuzz-metrics");
    let metrics = d.join("metrics.json");
    let out = Command::new(bin())
        .args(["fuzz", "--seed", "1", "--cases", "3", "--metrics-json"])
        .arg(&metrics)
        .arg("--flight-json")
        .arg(d.join("flight.json"))
        .arg("--repro-dir")
        .arg(d.join("repro"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = fs::read_to_string(&metrics).expect("fuzz wrote --metrics-json");
    let v: serde_json::Value = serde_json::from_str(&file).unwrap();
    assert_eq!(v.get("rounds").and_then(|r| r.as_u64()), Some(1), "{file}");
    assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{file}");
}
