//! `ParseError`s are part of the front-end's contract: the CLI, `watch`
//! and `serve` print them verbatim. The expectations below were recorded
//! from the parser as it stood before the lexer borrowed its tokens and
//! duplicate detection moved to the end of the parse; they must not
//! change.

use bgp_config::{parse_config, ParseError};
use std::time::{Duration, Instant};

/// `(malformed config, line, message)`.
const MALFORMED: &[(&str, usize, &str)] = &[
    ("hostname\n", 1, "hostname requires a name"),
    ("hostname R1\nbogus statement\n", 2, "unknown statement \"bogus\""),
    ("ip\n", 1, "unknown ip statement None"),
    ("ip bogus\n", 1, "unknown ip statement Some(\"bogus\")"),
    ("ip prefix-list\n", 1, "prefix-list requires a name"),
    ("ip prefix-list P 5 permit 10.0.0.0/8\n", 1, "expected 'seq'"),
    ("ip prefix-list P seq x permit 10.0.0.0/8\n", 1, "expected sequence number, got Some(\"x\")"),
    ("ip prefix-list P seq 5 allow 10.0.0.0/8\n", 1, "expected permit|deny, got Some(\"allow\")"),
    ("ip prefix-list P seq 5 permit 10.0.0.0\n", 1, "expected prefix A.B.C.D/L, got Some(\"10.0.0.0\")"),
    ("ip prefix-list P seq 5 permit 10.0.0.0/8 extra\n", 1, "unexpected token \"extra\""),
    ("ip prefix-list P seq 5 permit 10.0.0.0/8 ge 4\n", 1, "ge 4 out of range for 10.0.0.0/8"),
    ("ip prefix-list P seq 5 permit 10.0.0.0/8 ge 24 le 16\n", 1, "le 16 out of range for 10.0.0.0/8"),
    ("ip prefix-list P seq 5 permit 10.0.0.0/8 le 64\n", 1, "le 64 out of range for 10.0.0.0/8"),
    ("ip community-list expanded X permit 1:1\n", 1, "only standard community-lists are supported"),
    ("ip community-list standard X permit\n", 1, "community-list entry needs at least one community"),
    ("ip community-list standard X permit 1:x\n", 1, "bad community \"1:x\""),
    ("ip as-path list A permit .*\n", 1, "expected 'access-list'"),
    ("ip as-path access-list A permit\n", 1, "as-path access-list entry needs a regex"),
    ("ip as-path access-list A permit (1\n", 1, "bad as-path regex: expected ')' in \"(1\""),
    ("route-map\n", 1, "route-map requires a name"),
    ("route-map X\n", 1, "expected permit|deny, got None"),
    ("route-map X allow 10\n", 1, "expected permit|deny, got Some(\"allow\")"),
    ("route-map X permit ten\n", 1, "expected sequence number, got Some(\"ten\")"),
    ("router ospf 1\n", 1, "only 'router bgp' is supported"),
    ("router bgp\n", 1, "expected AS number, got None"),
    ("router bgp 1\nrouter bgp 2\n", 2, "duplicate 'router bgp' block"),
    ("ip prefix-list P seq 5 permit 10.0.0.0/8 ge\n", 1, "expected ge bound, got None"),
    ("ip prefix-list P seq 5 permit\n", 1, "expected prefix A.B.C.D/L, got None"),
    ("route-map X permit\n", 1, "expected sequence number, got None"),
    ("route-map X permit 10\n match\n", 2, "unknown match clause None"),
    ("route-map X permit 10\n match ip address P\n", 2, "expected 'match ip address prefix-list NAME...'"),
    ("route-map X permit 10\n match ip address prefix-list\n", 2, "prefix-list match needs at least one name"),
    ("route-map X permit 10\n match community exact-match\n", 2, "community match needs at least one list name"),
    ("route-map X permit 10\n match as-path\n", 2, "as-path match needs at least one ACL name"),
    ("route-map X permit 10\n match metric\n", 2, "expected metric, got None"),
    ("route-map X permit 10\n match local-preference x\n", 2, "expected local-preference, got Some(\"x\")"),
    ("route-map X permit 10\n set\n", 2, "unknown set clause None"),
    ("route-map X permit 10\n set community\n", 2, "set community needs values or 'none'"),
    ("route-map X permit 10\n set community additive\n", 2, "set community needs values or 'none'"),
    ("route-map X permit 10\n set community 1:1 bad additive\n", 2, "bad community \"bad\": missing ':'"),
    ("route-map X permit 10\n set comm-list\n", 2, "set comm-list needs a name"),
    ("route-map X permit 10\n set comm-list X\n", 2, "expected 'delete'"),
    ("route-map X permit 10\n set as-path append 1\n", 2, "expected 'prepend'"),
    ("route-map X permit 10\n set as-path prepend\n", 2, "prepend needs at least one ASN"),
    ("route-map X permit 10\n set as-path prepend 1 x\n", 2, "bad ASN \"x\""),
    ("route-map X permit 10\n set origin bogus\n", 2, "bad origin Some(\"bogus\")"),
    ("route-map X permit 10\n set ip nexthop 1.2.3.4\n", 2, "expected 'next-hop'"),
    ("route-map X permit 10\n set ip next-hop\n", 2, "expected IPv4 address"),
    ("route-map X permit 10\n set ip next-hop 1.2.3\n", 2, "bad IPv4 address \"1.2.3\""),
    ("route-map X permit 10\n set ip next-hop 1.2.3.4.5\n", 2, "bad IPv4 address \"1.2.3.4.5\""),
    ("route-map X permit 10\n set ip next-hop 1.2.3.256\n", 2, "bad IPv4 address \"1.2.3.256\""),
    ("route-map X permit 10\n continue x\n", 2, "expected sequence number, got Some(\"x\")"),
    ("route-map X permit 10\n bogus clause\n", 2, "unknown route-map clause \"bogus\""),
    ("router bgp 1\n neighbor\n", 2, "neighbor requires an address"),
    ("router bgp 1\n neighbor 1.1.1.1\n", 2, "unknown neighbor clause None"),
    ("router bgp 1\n neighbor 1.1.1.1 remote-as\n", 2, "expected AS number, got None"),
    ("router bgp 1\n neighbor 1.1.1.1 description\n", 2, "description requires text"),
    ("router bgp 1\n neighbor 1.1.1.1 route-map\n", 2, "route-map requires a name"),
    ("router bgp 1\n neighbor 1.1.1.1 route-map X\n", 2, "expected in|out, got None"),
    ("router bgp 1\n neighbor 1.1.1.1 route-map X sideways\n", 2, "expected in|out, got Some(\"sideways\")"),
    ("router bgp 1\n network\n", 2, "expected prefix A.B.C.D/L, got None"),
    ("router bgp 1\n network 10.0.0.0\n", 2, "expected prefix A.B.C.D/L, got Some(\"10.0.0.0\")"),
    ("router bgp 1\n bogus\n", 2, "unknown router bgp clause \"bogus\""),
    (" set metric 5\n", 1, "unexpected indented line outside a block"),
    ("\tset metric 5\n", 1, "unexpected indented line outside a block"),
    ("hostname R1\n neighbor 1.1.1.1 remote-as 1\n", 2, "unexpected indented line outside a block"),
    ("route-map X permit 10\n\tset metric x\n", 2, "expected metric, got Some(\"x\")"),
    ("route-map\tX\tpermit\tten\n", 1, "expected sequence number, got Some(\"ten\")"),
    ("route-map X permit 10\n \t set  metric\t\tx\n", 2, "expected metric, got Some(\"x\")"),
    ("route-map X permit 10\nset metric 5\n", 2, "unknown statement \"set\""),
    ("hostname R1   \nroute-map X permit 10  \n set metric  \n", 3, "expected metric, got None"),
    ("hostname R1\r\nbogus\r\n", 2, "unknown statement \"bogus\""),
    ("route-map X permit 10\r\n set metric 5\r\n set metric x\r\n", 3, "expected metric, got Some(\"x\")"),
    ("hostname R1\r\n\r\n!\r\n   \r\nrouter bgp\r\n", 5, "expected AS number, got None"),
    ("route-map X permit 10\n ! note\n set metric x\n", 3, "expected metric, got Some(\"x\")"),
    ("route-map X permit 10\n!\n set metric 5\n  !\n bogus\n", 5, "unknown route-map clause \"bogus\""),
    ("router bgp 1\n!\n!\n network 10.0.0.0\n", 4, "expected prefix A.B.C.D/L, got Some(\"10.0.0.0\")"),
    ("hostname R1\nroute-map Été permit dix\n", 2, "expected sequence number, got Some(\"dix\")"),
    ("\u{a0}set metric 5\n", 1, "unknown statement \"set\""),
    ("ip prefix-list P seq 5 permit 10.0.0.0/8\u{a0}le 33\n", 1, "le 33 out of range for 10.0.0.0/8"),
    ("router bgp 1\n neighbor 1.1.1.1 description\u{3000}\n", 2, "description requires text"),
    ("routeur bgp 1 — non\n", 1, "unknown statement \"routeur\""),
    ("ip community-list standard 中 permit １:1\n", 1, "bad community \"１:1\""),
    ("route-map X permit 10\nroute-map X permit 10\n", 2, "duplicate route-map sequence 10"),
    ("ip prefix-list P seq 5 permit 1.0.0.0/8\nip prefix-list P seq 5 deny 2.0.0.0/8\n", 2, "duplicate prefix-list sequence 5"),
    ("route-map X permit 10\n set metric 1\nroute-map Y permit 10\nroute-map X deny 10\n set metric 2\nbogus\n", 4, "duplicate route-map sequence 10"),
    ("route-map X permit 10\nroute-map X permit 10\n set metric x\n", 3, "expected metric, got Some(\"x\")"),
    ("ip prefix-list P seq 5 permit 1.0.0.0/8\nip prefix-list P seq 7 permit 2.0.0.0/8\nip prefix-list P seq 7 permit 3.0.0.0/8\nip prefix-list P seq 5 permit 4.0.0.0/8\n", 3, "duplicate prefix-list sequence 7"),
    ("ip prefix-list P seq 5 permit 1.0.0.0/8\nroute-map P permit 5\nip prefix-list Q seq 5 permit 1.0.0.0/8\nroute-map P deny 5\nip prefix-list P seq 5 permit 1.0.0.0/8\n", 4, "duplicate route-map sequence 5"),
    ("ip prefix-list P seq 9 permit 1.0.0.0/8\nip prefix-list P seq 7 permit 2.0.0.0/8\nip prefix-list P seq 8 permit 3.0.0.0/8\nip prefix-list P seq 7 permit 3.0.0.0/8 le 40\n", 4, "le 40 out of range for 3.0.0.0/8"),
    ("ip prefix-list P seq 9 permit 1.0.0.0/8\nip prefix-list P seq 7 permit 2.0.0.0/8\nbogus\n", 3, "unknown statement \"bogus\""),
    ("ip prefix-list P seq 9 permit 1.0.0.0/8\nip prefix-list P seq 7 permit 2.0.0.0/8\nip prefix-list P seq 9 permit 2.0.0.0/8\nbogus\n", 3, "duplicate prefix-list sequence 9"),
];

#[test]
fn malformed_configs_report_the_recorded_line_and_message() {
    assert!(MALFORMED.len() >= 20);
    for &(text, line, message) in MALFORMED {
        assert_eq!(
            parse_config(text).map(|_| ()),
            Err(ParseError {
                line,
                message: message.to_string(),
            }),
            "{text:?}"
        );
    }
}

#[test]
fn out_of_order_sequences_are_sorted_once_at_the_end() {
    let ast = parse_config(
        "ip prefix-list P seq 9 permit 1.0.0.0/8\n\
         ip prefix-list P seq 7 permit 2.0.0.0/8\n\
         ip prefix-list P seq 8 permit 3.0.0.0/8\n\
         route-map M deny 20\nroute-map M permit 10\n set metric 5\n",
    )
    .unwrap();
    let seqs: Vec<u32> = ast.prefix_lists["P"].iter().map(|e| e.seq).collect();
    assert_eq!(seqs, [7, 8, 9]);
    let m = &ast.route_maps["M"];
    assert_eq!((m[0].seq, m[0].sets.len(), m[1].seq), (10, 1, 20));
}

fn prefix_list(entries: u32, descending: bool) -> String {
    let mut text = String::new();
    for i in 0..entries {
        let seq = if descending { entries - i } else { i + 1 };
        let (a, b, c) = (10 + (i >> 16), (i >> 8) & 255, i & 255);
        text.push_str(&format!(
            "ip prefix-list BOGONS seq {seq} deny {a}.{b}.{c}.0/24 le 32\n"
        ));
    }
    text
}

/// The fastest of five parses of each text, the two sizes taking turns
/// (small, large, five times): a burst of load from other tests on a
/// small host then slows both sizes alike instead of only the one that
/// was running, and each minimum is the run the load spared.
fn interleaved_minima(small: (&str, usize), large: (&str, usize)) -> (Duration, Duration) {
    let parse = |(text, entries): (&str, usize)| {
        let t0 = Instant::now();
        let ast = parse_config(text).unwrap();
        let took = t0.elapsed();
        assert_eq!(ast.prefix_lists["BOGONS"].len(), entries);
        took
    };
    (0..5)
        .map(|_| (parse(small), parse(large)))
        .fold((Duration::MAX, Duration::MAX), |(s, l), (ds, dl)| {
            (s.min(ds), l.min(dl))
        })
}

/// A customer or bogon list of tens of thousands of lines used to cost
/// a scan and a sort per line.
#[test]
fn long_prefix_lists_parse_in_near_linear_time() {
    for descending in [false, true] {
        let (small, large) = interleaved_minima(
            (&prefix_list(50_000, descending), 50_000),
            (&prefix_list(200_000, descending), 200_000),
        );
        assert!(
            large < small * 6,
            "4x the entries took {large:?} against {small:?} (descending: {descending})"
        );
    }
    // The last line of a long list repeating its first is still found,
    // on its own line.
    let mut text = prefix_list(50_000, false);
    text.push_str("ip prefix-list BOGONS seq 1 permit 0.0.0.0/0\n");
    let e = parse_config(&text).unwrap_err();
    assert_eq!(
        (e.line, e.message.as_str()),
        (50_001, "duplicate prefix-list sequence 1")
    );
}
