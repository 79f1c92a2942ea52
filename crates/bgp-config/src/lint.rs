//! rcc-style best-practice lints on configurations.
//!
//! The paper contrasts Lightyear with rcc \[8\], which "validates important
//! properties of BGP configurations, largely through local checks on
//! individual configuration" but "is limited to specific 'best practice'
//! policies, and there is no guarantee that the local checks together
//! ensure the desired end-to-end properties." This module provides that
//! complementary layer: fast, purely syntactic checks that catch config
//! hygiene issues before (or alongside) semantic verification. The set is
//! also lowered, so a configuration set every other command refuses
//! never lints clean: the lowering error is an `Error` finding.

use crate::ast::{ConfigAst, MatchAst, SetAst};
use std::collections::BTreeSet;
use std::fmt;

/// Severity of a lint finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Stylistic or hygiene issue.
    Warning,
    /// Likely a real misconfiguration.
    Error,
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The router.
    pub router: String,
    /// Lint rule identifier.
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.router,
            match self.severity {
                Severity::Warning => "warn",
                Severity::Error => "error",
            },
            self.rule,
            self.message
        )
    }
}

/// Run every lint rule over a set of configurations.
pub fn lint(configs: &[ConfigAst]) -> Vec<Finding> {
    let mut out = Vec::new();
    for cfg in configs {
        lint_dangling_references(cfg, &mut out);
        lint_unused_definitions(cfg, &mut out);
        lint_unfiltered_ebgp(cfg, configs, &mut out);
        lint_unreachable_entries(cfg, &mut out);
        lint_missing_descriptions(cfg, &mut out);
        lint_deny_with_sets(cfg, &mut out);
    }
    if let Err(e) = crate::lower(configs) {
        out.push(Finding {
            router: e.router,
            rule: "lowering",
            severity: Severity::Error,
            message: e.message,
        });
    }
    out
}

fn finding(cfg: &ConfigAst, rule: &'static str, severity: Severity, message: String) -> Finding {
    Finding {
        router: cfg.hostname.clone(),
        rule,
        severity,
        message,
    }
}

/// Route maps referencing undefined lists (also a lowering error; the
/// lint catches it per-router without needing the whole network).
fn lint_dangling_references(cfg: &ConfigAst, out: &mut Vec<Finding>) {
    for (name, entries) in &cfg.route_maps {
        for e in entries {
            for m in &e.matches {
                match m {
                    MatchAst::PrefixList(ns) => {
                        for n in ns {
                            if !cfg.prefix_lists.contains_key(n) {
                                out.push(finding(
                                    cfg,
                                    "dangling-prefix-list",
                                    Severity::Error,
                                    format!(
                                        "route-map {name} references undefined prefix-list {n}"
                                    ),
                                ));
                            }
                        }
                    }
                    MatchAst::Community { lists, .. } => {
                        for n in lists {
                            if !cfg.community_lists.contains_key(n) {
                                out.push(finding(
                                    cfg,
                                    "dangling-community-list",
                                    Severity::Error,
                                    format!(
                                        "route-map {name} references undefined community-list {n}"
                                    ),
                                ));
                            }
                        }
                    }
                    MatchAst::AsPath(ns) => {
                        for n in ns {
                            if !cfg.aspath_acls.contains_key(n) {
                                out.push(finding(
                                    cfg,
                                    "dangling-aspath-acl",
                                    Severity::Error,
                                    format!(
                                        "route-map {name} references undefined as-path list {n}"
                                    ),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
            for s in &e.sets {
                if let SetAst::CommListDelete(n) = s {
                    if !cfg.community_lists.contains_key(n) {
                        out.push(finding(
                            cfg,
                            "dangling-community-list",
                            Severity::Error,
                            format!("route-map {name} deletes via undefined community-list {n}"),
                        ));
                    }
                }
            }
        }
    }
    if let Some(bgp) = &cfg.router_bgp {
        for nbr in bgp.neighbors.values() {
            for rm in [&nbr.route_map_in, &nbr.route_map_out]
                .into_iter()
                .flatten()
            {
                if !cfg.route_maps.contains_key(rm) {
                    out.push(finding(
                        cfg,
                        "dangling-route-map",
                        Severity::Error,
                        format!("neighbor {} references undefined route-map {rm}", nbr.addr),
                    ));
                }
            }
        }
    }
}

/// Definitions nothing references.
fn lint_unused_definitions(cfg: &ConfigAst, out: &mut Vec<Finding>) {
    let mut used_pl = BTreeSet::new();
    let mut used_cl = BTreeSet::new();
    let mut used_acl = BTreeSet::new();
    let mut used_rm = BTreeSet::new();
    for entries in cfg.route_maps.values() {
        for e in entries {
            for m in &e.matches {
                match m {
                    MatchAst::PrefixList(ns) => used_pl.extend(ns.iter().cloned()),
                    MatchAst::Community { lists, .. } => used_cl.extend(lists.iter().cloned()),
                    MatchAst::AsPath(ns) => used_acl.extend(ns.iter().cloned()),
                    _ => {}
                }
            }
            for s in &e.sets {
                if let SetAst::CommListDelete(n) = s {
                    used_cl.insert(n.clone());
                }
            }
        }
    }
    if let Some(bgp) = &cfg.router_bgp {
        for nbr in bgp.neighbors.values() {
            used_rm.extend(nbr.route_map_in.iter().cloned());
            used_rm.extend(nbr.route_map_out.iter().cloned());
        }
    }
    for name in cfg.prefix_lists.keys() {
        if !used_pl.contains(name) {
            out.push(finding(
                cfg,
                "unused-prefix-list",
                Severity::Warning,
                format!("prefix-list {name} is never referenced"),
            ));
        }
    }
    for name in cfg.community_lists.keys() {
        if !used_cl.contains(name) {
            out.push(finding(
                cfg,
                "unused-community-list",
                Severity::Warning,
                format!("community-list {name} is never referenced"),
            ));
        }
    }
    for name in cfg.aspath_acls.keys() {
        if !used_acl.contains(name) {
            out.push(finding(
                cfg,
                "unused-aspath-acl",
                Severity::Warning,
                format!("as-path access-list {name} is never referenced"),
            ));
        }
    }
    for name in cfg.route_maps.keys() {
        if !used_rm.contains(name) {
            out.push(finding(
                cfg,
                "unused-route-map",
                Severity::Warning,
                format!("route-map {name} is not attached to any neighbor"),
            ));
        }
    }
}

/// eBGP sessions without an inbound route map (a classic rcc check: never
/// accept the Internet unfiltered).
fn lint_unfiltered_ebgp(cfg: &ConfigAst, all: &[ConfigAst], out: &mut Vec<Finding>) {
    let Some(bgp) = &cfg.router_bgp else { return };
    let internal: BTreeSet<&str> = all.iter().map(|c| c.hostname.as_str()).collect();
    for nbr in bgp.neighbors.values() {
        let peer_is_internal = nbr
            .description
            .as_deref()
            .map(|d| internal.contains(d))
            .unwrap_or(false);
        let is_ebgp = nbr.remote_as.map(|ra| ra != bgp.asn).unwrap_or(false);
        if is_ebgp && !peer_is_internal && nbr.route_map_in.is_none() {
            out.push(finding(
                cfg,
                "unfiltered-ebgp-import",
                Severity::Error,
                format!(
                    "eBGP neighbor {} ({}) has no inbound route-map",
                    nbr.addr,
                    nbr.description.as_deref().unwrap_or("?")
                ),
            ));
        }
    }
}

/// Entries after an unconditional terminal entry can never match.
fn lint_unreachable_entries(cfg: &ConfigAst, out: &mut Vec<Finding>) {
    for (name, entries) in &cfg.route_maps {
        let mut terminal_seq: Option<u32> = None;
        for e in entries {
            if let Some(seq) = terminal_seq {
                out.push(finding(
                    cfg,
                    "unreachable-entry",
                    Severity::Warning,
                    format!(
                        "route-map {name} seq {} is unreachable (seq {seq} matches everything)",
                        e.seq
                    ),
                ));
                continue;
            }
            if e.matches.is_empty() && e.continue_to.is_none() {
                terminal_seq = Some(e.seq);
            }
        }
    }
}

/// Neighbors without descriptions (required by this toolchain's lowering,
/// and good practice generally).
fn lint_missing_descriptions(cfg: &ConfigAst, out: &mut Vec<Finding>) {
    let Some(bgp) = &cfg.router_bgp else { return };
    for nbr in bgp.neighbors.values() {
        if nbr.description.is_none() {
            out.push(finding(
                cfg,
                "missing-description",
                Severity::Warning,
                format!("neighbor {} has no description", nbr.addr),
            ));
        }
    }
}

/// `deny` entries with set actions: the sets are dead.
fn lint_deny_with_sets(cfg: &ConfigAst, out: &mut Vec<Finding>) {
    for (name, entries) in &cfg.route_maps {
        for e in entries {
            if !e.permit && !e.sets.is_empty() {
                out.push(finding(
                    cfg,
                    "deny-with-sets",
                    Severity::Warning,
                    format!(
                        "route-map {name} seq {} is a deny but has set actions",
                        e.seq
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_config;

    fn has(findings: &[Finding], rule: &str) -> bool {
        findings.iter().any(|f| f.rule == rule)
    }

    #[test]
    fn clean_config_has_no_errors() {
        let cfg = parse_config(
            "\
hostname R1
ip prefix-list P seq 5 permit 10.0.0.0/8
route-map IN permit 10
 match ip address prefix-list P
router bgp 65000
 neighbor 1.1.1.1 remote-as 100
 neighbor 1.1.1.1 description ISP
 neighbor 1.1.1.1 route-map IN in
",
        )
        .unwrap();
        let findings = lint(&[cfg]);
        assert!(
            findings.iter().all(|f| f.severity != Severity::Error),
            "{findings:?}"
        );
    }

    #[test]
    fn dangling_references_flagged() {
        let cfg = parse_config(
            "\
hostname R1
route-map IN permit 10
 match ip address prefix-list NOPE
 match community NADA
 match as-path ZILCH
router bgp 65000
 neighbor 1.1.1.1 remote-as 100
 neighbor 1.1.1.1 description ISP
 neighbor 1.1.1.1 route-map IN in
 neighbor 1.1.1.1 route-map MISSING out
",
        )
        .unwrap();
        let findings = lint(&[cfg]);
        assert!(has(&findings, "dangling-prefix-list"));
        assert!(has(&findings, "dangling-community-list"));
        assert!(has(&findings, "dangling-aspath-acl"));
        assert!(has(&findings, "dangling-route-map"));
    }

    #[test]
    fn unused_definitions_flagged() {
        let cfg = parse_config(
            "\
hostname R1
ip prefix-list LONELY seq 5 permit 10.0.0.0/8
ip community-list standard QUIET permit 1:1
ip as-path access-list SILENT permit .*
route-map ORPHAN permit 10
",
        )
        .unwrap();
        let findings = lint(&[cfg]);
        assert!(has(&findings, "unused-prefix-list"));
        assert!(has(&findings, "unused-community-list"));
        assert!(has(&findings, "unused-aspath-acl"));
        assert!(has(&findings, "unused-route-map"));
    }

    #[test]
    fn unfiltered_ebgp_flagged_but_not_ibgp() {
        let a = parse_config(
            "\
hostname A
router bgp 65000
 neighbor 1.1.1.1 remote-as 100
 neighbor 1.1.1.1 description EXT
 neighbor 2.2.2.2 remote-as 65000
 neighbor 2.2.2.2 description B
",
        )
        .unwrap();
        let b = parse_config("hostname B\n").unwrap();
        let findings = lint(&[a, b]);
        let ebgp: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "unfiltered-ebgp-import")
            .collect();
        assert_eq!(ebgp.len(), 1);
        assert!(ebgp[0].message.contains("1.1.1.1"));
    }

    #[test]
    fn unreachable_entries_flagged() {
        let cfg = parse_config(
            "\
hostname R1
route-map M permit 10
route-map M deny 20
",
        )
        .unwrap();
        let findings = lint(&[cfg]);
        assert!(has(&findings, "unreachable-entry"));
    }

    #[test]
    fn terminal_with_continue_not_terminal() {
        let cfg = parse_config(
            "\
hostname R1
route-map M permit 10
 continue
route-map M deny 20
",
        )
        .unwrap();
        let findings = lint(&[cfg]);
        assert!(!has(&findings, "unreachable-entry"));
    }

    #[test]
    fn missing_description_and_deny_sets() {
        let cfg = parse_config(
            "\
hostname R1
route-map M deny 10
 set metric 5
router bgp 65000
 neighbor 1.1.1.1 remote-as 100
",
        )
        .unwrap();
        let findings = lint(&[cfg]);
        assert!(has(&findings, "missing-description"));
        assert!(has(&findings, "deny-with-sets"));
    }
}
