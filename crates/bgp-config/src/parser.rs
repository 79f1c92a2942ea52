//! Parser: configuration text -> [`ConfigAst`].
//!
//! Grammar (line-oriented; `[]` optional, `...` repetition):
//!
//! ```text
//! hostname NAME
//! ip prefix-list NAME seq N (permit|deny) A.B.C.D/L [ge G] [le L]
//! ip community-list standard NAME (permit|deny) COMM...
//! ip as-path access-list NAME (permit|deny) REGEX
//! route-map NAME (permit|deny) SEQ
//!   match ip address prefix-list NAME...
//!   match community NAME... [exact-match]
//!   match as-path NAME...
//!   match metric N
//!   match local-preference N
//!   set local-preference N
//!   set metric N
//!   set community (none | COMM... [additive])
//!   set comm-list NAME delete
//!   set as-path prepend ASN...
//!   set ip next-hop A.B.C.D
//!   continue [N]
//! router bgp ASN
//!   neighbor ADDR remote-as ASN
//!   neighbor ADDR description NAME
//!   neighbor ADDR route-map NAME (in|out)
//!   network A.B.C.D/L
//! ```

use crate::ast::*;
use crate::lexer::{Lexer, Line};
use bgp_model::prefix::Ipv4Prefix;
use bgp_model::route::Community;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A parse error with location information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: &Line, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line: line.number,
        message: msg.into(),
    })
}

fn parse_permit(line: &Line, tok: Option<&str>) -> Result<bool, ParseError> {
    match tok {
        Some("permit") => Ok(true),
        Some("deny") => Ok(false),
        other => err(line, format!("expected permit|deny, got {other:?}")),
    }
}

fn parse_u32(line: &Line, tok: Option<&str>, what: &str) -> Result<u32, ParseError> {
    tok.and_then(|t| t.parse().ok()).ok_or_else(|| ParseError {
        line: line.number,
        message: format!("expected {what}, got {tok:?}"),
    })
}

fn parse_u8(line: &Line, tok: Option<&str>, what: &str) -> Result<u8, ParseError> {
    tok.and_then(|t| t.parse().ok()).ok_or_else(|| ParseError {
        line: line.number,
        message: format!("expected {what}, got {tok:?}"),
    })
}

fn parse_prefix(line: &Line, tok: Option<&str>) -> Result<Ipv4Prefix, ParseError> {
    tok.and_then(|t| t.parse().ok()).ok_or_else(|| ParseError {
        line: line.number,
        message: format!("expected prefix A.B.C.D/L, got {tok:?}"),
    })
}

fn parse_community(line: &Line, tok: &str) -> Result<Community, ParseError> {
    tok.parse().map_err(|e: String| ParseError {
        line: line.number,
        message: e,
    })
}

fn parse_ipv4_addr(line: &Line, tok: Option<&str>) -> Result<u32, ParseError> {
    let t = match tok {
        Some(t) => t,
        None => return err(line, "expected IPv4 address"),
    };
    let mut octets = [0u8; 4];
    let mut n = 0;
    for part in t.split('.') {
        if n == 4 {
            return err(line, format!("bad IPv4 address {t:?}"));
        }
        octets[n] = part.parse().map_err(|_| ParseError {
            line: line.number,
            message: format!("bad IPv4 address {t:?}"),
        })?;
        n += 1;
    }
    if n != 4 {
        return err(line, format!("bad IPv4 address {t:?}"));
    }
    Ok(u32::from_be_bytes(octets))
}

/// Where one sequence-numbered entry was declared.
#[derive(Clone, Copy)]
struct Declared<'a> {
    route_map: bool,
    name: &'a str,
    seq: u32,
    line: usize,
}

/// The entry under `name`, made by `new` on first mention; an existing
/// entry is found without building an owned key.
fn entry_mut<'m, V>(
    map: &'m mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), new());
    }
    map.get_mut(name).expect("present or just inserted")
}

fn names(toks: &[&str]) -> Vec<String> {
    toks.iter().map(|t| t.to_string()).collect()
}

struct Parser<'a> {
    ast: ConfigAst,
    /// Every prefix-list and route-map entry pushed so far, in order.
    declared: Vec<Declared<'a>>,
    /// Some list received a sequence number not above its last one: only
    /// then can a list hold a duplicate or be out of order.
    unsorted: bool,
}

/// Parse one router's configuration text.
pub fn parse_config(input: &str) -> Result<ConfigAst, ParseError> {
    let mut p = Parser {
        ast: ConfigAst::default(),
        declared: Vec::new(),
        unsorted: false,
    };
    let parsed = p.statements(&mut Lexer::new(input));
    if p.unsorted {
        // Duplicates are looked for once, here, instead of on every
        // push. The first entry that repeats an earlier `(list, seq)`
        // is reported on its own line — also ahead of a later syntax
        // error, which a check at push time would never have reached.
        let mut seen = HashSet::with_capacity(p.declared.len());
        if let Some(d) = p
            .declared
            .iter()
            .find(|d| !seen.insert((d.route_map, d.name, d.seq)))
        {
            let kind = if d.route_map {
                "route-map"
            } else {
                "prefix-list"
            };
            return Err(ParseError {
                line: d.line,
                message: format!("duplicate {kind} sequence {}", d.seq),
            });
        }
        for list in p.ast.prefix_lists.values_mut() {
            list.sort_by_key(|e| e.seq);
        }
        for list in p.ast.route_maps.values_mut() {
            list.sort_by_key(|e| e.seq);
        }
    }
    parsed?;
    Ok(p.ast)
}

impl<'a> Parser<'a> {
    fn declare(&mut self, d: Declared<'a>, last_seq: Option<u32>) {
        self.unsorted |= last_seq.is_some_and(|last| d.seq <= last);
        self.declared.push(d);
    }

    fn statements(&mut self, lx: &mut Lexer<'a>) -> Result<(), ParseError> {
        let mut more = lx.advance();
        while more {
            let line = lx.line();
            if line.indented {
                return err(line, "unexpected indented line outside a block");
            }
            match line.keyword() {
                "hostname" => {
                    self.ast.hostname = match line.tok(1) {
                        Some(h) => h.to_string(),
                        None => return err(line, "hostname requires a name"),
                    };
                    more = lx.advance();
                }
                "ip" => {
                    self.ip_statement(line)?;
                    more = lx.advance();
                }
                "route-map" => {
                    let name = match line.tok(1) {
                        Some(n) => n,
                        None => return err(line, "route-map requires a name"),
                    };
                    let permit = parse_permit(line, line.tok(2))?;
                    let seq = parse_u32(line, line.tok(3), "sequence number")?;
                    let number = line.number;
                    let mut entry = RouteMapEntryAst {
                        seq,
                        permit,
                        matches: Vec::new(),
                        sets: Vec::new(),
                        continue_to: None,
                    };
                    more = lx.advance();
                    while more && lx.line().indented {
                        parse_route_map_body(lx.line(), &mut entry)?;
                        more = lx.advance();
                    }
                    let entries = entry_mut(&mut self.ast.route_maps, name, Vec::new);
                    let last = entries.last().map(|e| e.seq);
                    entries.push(entry);
                    self.declare(
                        Declared {
                            route_map: true,
                            name,
                            seq,
                            line: number,
                        },
                        last,
                    );
                }
                "router" => {
                    if line.tok(1) != Some("bgp") {
                        return err(line, "only 'router bgp' is supported");
                    }
                    if self.ast.router_bgp.is_some() {
                        return err(line, "duplicate 'router bgp' block");
                    }
                    let asn = parse_u32(line, line.tok(2), "AS number")?;
                    let mut bgp = RouterBgp {
                        asn,
                        ..Default::default()
                    };
                    more = lx.advance();
                    while more && lx.line().indented {
                        parse_bgp_body(lx.line(), &mut bgp)?;
                        more = lx.advance();
                    }
                    self.ast.router_bgp = Some(bgp);
                }
                other => return err(line, format!("unknown statement {other:?}")),
            }
        }
        Ok(())
    }

    fn ip_statement(&mut self, line: &Line<'a>) -> Result<(), ParseError> {
        match line.tok(1) {
            Some("prefix-list") => {
                let name = match line.tok(2) {
                    Some(n) => n,
                    None => return err(line, "prefix-list requires a name"),
                };
                if line.tok(3) != Some("seq") {
                    return err(line, "expected 'seq'");
                }
                let seq = parse_u32(line, line.tok(4), "sequence number")?;
                let permit = parse_permit(line, line.tok(5))?;
                let prefix = parse_prefix(line, line.tok(6))?;
                let mut ge = None;
                let mut le = None;
                let mut k = 7;
                while let Some(t) = line.tok(k) {
                    match t {
                        "ge" => {
                            ge = Some(parse_u8(line, line.tok(k + 1), "ge bound")?);
                            k += 2;
                        }
                        "le" => {
                            le = Some(parse_u8(line, line.tok(k + 1), "le bound")?);
                            k += 2;
                        }
                        other => return err(line, format!("unexpected token {other:?}")),
                    }
                }
                if let Some(g) = ge {
                    if g < prefix.len || g > 32 {
                        return err(line, format!("ge {g} out of range for {prefix}"));
                    }
                }
                if let Some(l) = le {
                    if l < ge.unwrap_or(prefix.len) || l > 32 {
                        return err(line, format!("le {l} out of range for {prefix}"));
                    }
                }
                let entries = entry_mut(&mut self.ast.prefix_lists, name, Vec::new);
                let last = entries.last().map(|e| e.seq);
                entries.push(PrefixListEntry {
                    seq,
                    permit,
                    prefix,
                    ge,
                    le,
                });
                self.declare(
                    Declared {
                        route_map: false,
                        name,
                        seq,
                        line: line.number,
                    },
                    last,
                );
                Ok(())
            }
            Some("community-list") => {
                if line.tok(2) != Some("standard") {
                    return err(line, "only standard community-lists are supported");
                }
                let name = match line.tok(3) {
                    Some(n) => n,
                    None => return err(line, "community-list requires a name"),
                };
                let permit = parse_permit(line, line.tok(4))?;
                let mut communities = Vec::new();
                for t in line.rest(5) {
                    communities.push(parse_community(line, t)?);
                }
                if communities.is_empty() {
                    return err(line, "community-list entry needs at least one community");
                }
                entry_mut(&mut self.ast.community_lists, name, Vec::new).push(CommunityListEntry {
                    permit,
                    communities,
                });
                Ok(())
            }
            Some("as-path") => {
                if line.tok(2) != Some("access-list") {
                    return err(line, "expected 'access-list'");
                }
                let name = match line.tok(3) {
                    Some(n) => n,
                    None => return err(line, "as-path access-list requires a name"),
                };
                let permit = parse_permit(line, line.tok(4))?;
                let regex = line.rest(5).join(" ");
                if regex.is_empty() {
                    return err(line, "as-path access-list entry needs a regex");
                }
                // Validate eagerly so errors carry the line number.
                if let Err(e) = bgp_model::AsPathRegex::compile(&regex) {
                    return err(line, e.to_string());
                }
                entry_mut(&mut self.ast.aspath_acls, name, Vec::new)
                    .push(AsPathAclEntry { permit, regex });
                Ok(())
            }
            other => err(line, format!("unknown ip statement {other:?}")),
        }
    }
}

fn parse_route_map_body(line: &Line, entry: &mut RouteMapEntryAst) -> Result<(), ParseError> {
    match line.keyword() {
        "match" => match line.tok(1) {
            Some("ip") => {
                if line.tok(2) != Some("address") || line.tok(3) != Some("prefix-list") {
                    return err(line, "expected 'match ip address prefix-list NAME...'");
                }
                if line.rest(4).is_empty() {
                    return err(line, "prefix-list match needs at least one name");
                }
                entry
                    .matches
                    .push(MatchAst::PrefixList(names(line.rest(4))));
                Ok(())
            }
            Some("community") => {
                let mut lists = line.rest(2);
                let exact = lists.last() == Some(&"exact-match");
                if exact {
                    lists = &lists[..lists.len() - 1];
                }
                if lists.is_empty() {
                    return err(line, "community match needs at least one list name");
                }
                entry.matches.push(MatchAst::Community {
                    lists: names(lists),
                    exact,
                });
                Ok(())
            }
            Some("as-path") => {
                if line.rest(2).is_empty() {
                    return err(line, "as-path match needs at least one ACL name");
                }
                entry.matches.push(MatchAst::AsPath(names(line.rest(2))));
                Ok(())
            }
            Some("metric") => {
                entry
                    .matches
                    .push(MatchAst::Med(parse_u32(line, line.tok(2), "metric")?));
                Ok(())
            }
            Some("local-preference") => {
                entry.matches.push(MatchAst::LocalPref(parse_u32(
                    line,
                    line.tok(2),
                    "local-preference",
                )?));
                Ok(())
            }
            other => err(line, format!("unknown match clause {other:?}")),
        },
        "set" => match line.tok(1) {
            Some("local-preference") => {
                entry.sets.push(SetAst::LocalPref(parse_u32(
                    line,
                    line.tok(2),
                    "local-preference",
                )?));
                Ok(())
            }
            Some("metric") => {
                entry
                    .sets
                    .push(SetAst::Med(parse_u32(line, line.tok(2), "metric")?));
                Ok(())
            }
            Some("community") => {
                if line.tok(2) == Some("none") {
                    entry.sets.push(SetAst::Community {
                        communities: Vec::new(),
                        additive: false,
                        none: true,
                    });
                    return Ok(());
                }
                let mut toks = line.rest(2);
                let additive = toks.last() == Some(&"additive");
                if additive {
                    toks = &toks[..toks.len() - 1];
                }
                if toks.is_empty() {
                    return err(line, "set community needs values or 'none'");
                }
                let mut communities = Vec::with_capacity(toks.len());
                for t in toks {
                    communities.push(parse_community(line, t)?);
                }
                entry.sets.push(SetAst::Community {
                    communities,
                    additive,
                    none: false,
                });
                Ok(())
            }
            Some("comm-list") => {
                let name = match line.tok(2) {
                    Some(n) => n.to_string(),
                    None => return err(line, "set comm-list needs a name"),
                };
                if line.tok(3) != Some("delete") {
                    return err(line, "expected 'delete'");
                }
                entry.sets.push(SetAst::CommListDelete(name));
                Ok(())
            }
            Some("as-path") => {
                if line.tok(2) != Some("prepend") {
                    return err(line, "expected 'prepend'");
                }
                let mut asns = Vec::new();
                for t in line.rest(3) {
                    asns.push(t.parse().map_err(|_| ParseError {
                        line: line.number,
                        message: format!("bad ASN {t:?}"),
                    })?);
                }
                if asns.is_empty() {
                    return err(line, "prepend needs at least one ASN");
                }
                entry.sets.push(SetAst::Prepend(asns));
                Ok(())
            }
            Some("origin") => {
                let o = match line.tok(2) {
                    Some("igp") => bgp_model::route::Origin::Igp,
                    Some("egp") => bgp_model::route::Origin::Egp,
                    Some("incomplete") => bgp_model::route::Origin::Incomplete,
                    other => return err(line, format!("bad origin {other:?}")),
                };
                entry.sets.push(SetAst::Origin(o));
                Ok(())
            }
            Some("ip") => {
                if line.tok(2) != Some("next-hop") {
                    return err(line, "expected 'next-hop'");
                }
                entry
                    .sets
                    .push(SetAst::NextHop(parse_ipv4_addr(line, line.tok(3))?));
                Ok(())
            }
            other => err(line, format!("unknown set clause {other:?}")),
        },
        "continue" => {
            entry.continue_to = Some(match line.tok(1) {
                Some(t) => Some(parse_u32(line, Some(t), "sequence number")?),
                None => None,
            });
            Ok(())
        }
        other => err(line, format!("unknown route-map clause {other:?}")),
    }
}

fn parse_bgp_body(line: &Line, bgp: &mut RouterBgp) -> Result<(), ParseError> {
    match line.keyword() {
        "neighbor" => {
            let addr = match line.tok(1) {
                Some(a) => a,
                None => return err(line, "neighbor requires an address"),
            };
            let nbr = entry_mut(&mut bgp.neighbors, addr, || NeighborAst {
                addr: addr.to_string(),
                ..Default::default()
            });
            match line.tok(2) {
                Some("remote-as") => {
                    nbr.remote_as = Some(parse_u32(line, line.tok(3), "AS number")?);
                    Ok(())
                }
                Some("description") => {
                    let d = line.rest(3).join(" ");
                    if d.is_empty() {
                        return err(line, "description requires text");
                    }
                    nbr.description = Some(d);
                    Ok(())
                }
                Some("route-map") => {
                    let name = match line.tok(3) {
                        Some(n) => n.to_string(),
                        None => return err(line, "route-map requires a name"),
                    };
                    match line.tok(4) {
                        Some("in") => {
                            nbr.route_map_in = Some(name);
                            Ok(())
                        }
                        Some("out") => {
                            nbr.route_map_out = Some(name);
                            Ok(())
                        }
                        other => err(line, format!("expected in|out, got {other:?}")),
                    }
                }
                other => err(line, format!("unknown neighbor clause {other:?}")),
            }
        }
        "network" => {
            bgp.networks.push(parse_prefix(line, line.tok(1))?);
            Ok(())
        }
        other => err(line, format!("unknown router bgp clause {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
hostname R1
!
ip prefix-list BOGONS seq 5 permit 10.0.0.0/8 le 32
ip prefix-list BOGONS seq 10 permit 192.168.0.0/16 ge 24 le 32
ip community-list standard REGION permit 100:1
ip as-path access-list PRIVATE permit _[64512-65534]_
!
route-map FROM-ISP1 permit 10
 match ip address prefix-list BOGONS
 set community 100:1 additive
 set local-preference 200
route-map FROM-ISP1 deny 20
!
route-map TO-ISP2 deny 10
 match community REGION
route-map TO-ISP2 permit 20
 continue 30
route-map TO-ISP2 permit 30
 set metric 5
!
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP1 in
 neighbor 10.0.0.2 remote-as 200
 neighbor 10.0.0.2 description ISP2
 neighbor 10.0.0.2 route-map TO-ISP2 out
 network 198.51.100.0/24
";

    #[test]
    fn parses_full_sample() {
        let ast = parse_config(SAMPLE).unwrap();
        assert_eq!(ast.hostname, "R1");
        assert_eq!(ast.prefix_lists["BOGONS"].len(), 2);
        assert_eq!(ast.prefix_lists["BOGONS"][0].seq, 5);
        assert_eq!(ast.prefix_lists["BOGONS"][1].ge, Some(24));
        assert_eq!(ast.community_lists["REGION"].len(), 1);
        assert_eq!(ast.aspath_acls["PRIVATE"][0].regex, "_[64512-65534]_");
        assert_eq!(ast.route_maps["FROM-ISP1"].len(), 2);
        let e10 = &ast.route_maps["FROM-ISP1"][0];
        assert_eq!(e10.matches.len(), 1);
        assert_eq!(e10.sets.len(), 2);
        assert_eq!(ast.route_maps["TO-ISP2"][1].continue_to, Some(Some(30)));
        let bgp = ast.router_bgp.unwrap();
        assert_eq!(bgp.asn, 65000);
        assert_eq!(bgp.neighbors.len(), 2);
        let n1 = &bgp.neighbors["10.0.0.1"];
        assert_eq!(n1.remote_as, Some(100));
        assert_eq!(n1.description.as_deref(), Some("ISP1"));
        assert_eq!(n1.route_map_in.as_deref(), Some("FROM-ISP1"));
        assert_eq!(bgp.networks, vec!["198.51.100.0/24".parse().unwrap()]);
    }

    #[test]
    fn error_has_line_number() {
        let e = parse_config("hostname R1\nbogus statement\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn duplicate_seq_rejected() {
        let cfg = "route-map X permit 10\nroute-map X permit 10\n";
        assert!(parse_config(cfg).is_err());
        let cfg2 =
            "ip prefix-list P seq 5 permit 1.0.0.0/8\nip prefix-list P seq 5 deny 2.0.0.0/8\n";
        assert!(parse_config(cfg2).is_err());
    }

    #[test]
    fn bad_bounds_rejected() {
        assert!(parse_config("ip prefix-list P seq 5 permit 10.0.0.0/8 ge 4\n").is_err());
        assert!(parse_config("ip prefix-list P seq 5 permit 10.0.0.0/8 ge 24 le 16\n").is_err());
        assert!(parse_config("ip prefix-list P seq 5 permit 10.0.0.0/8 le 64\n").is_err());
    }

    #[test]
    fn bad_regex_rejected_at_parse_time() {
        let e = parse_config("ip as-path access-list A permit (1\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn set_community_variants() {
        let cfg = "\
route-map X permit 10
 set community none
route-map X permit 20
 set community 1:1 2:2
route-map X permit 30
 set community 3:3 additive
";
        let ast = parse_config(cfg).unwrap();
        let rm = &ast.route_maps["X"];
        assert!(matches!(
            &rm[0].sets[0],
            SetAst::Community { none: true, .. }
        ));
        assert!(
            matches!(&rm[1].sets[0], SetAst::Community { communities, additive: false, none: false } if communities.len() == 2)
        );
        assert!(matches!(
            &rm[2].sets[0],
            SetAst::Community { additive: true, .. }
        ));
    }

    #[test]
    fn bare_continue() {
        let ast = parse_config("route-map X permit 10\n continue\n").unwrap();
        assert_eq!(ast.route_maps["X"][0].continue_to, Some(None));
    }

    #[test]
    fn indented_line_at_top_level_rejected() {
        assert!(parse_config(" set metric 5\n").is_err());
    }
}
