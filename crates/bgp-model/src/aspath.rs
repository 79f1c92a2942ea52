//! AS-path regular expressions (`ip as-path access-list`).
//!
//! Cisco-style AS-path regexes operate on the textual rendering of the AS
//! path; since our model keeps the path as a token sequence, we implement a
//! token-level engine with the same observable semantics for the constructs
//! that occur in practice:
//!
//! * `65001` — match that AS number (one token)
//! * `.` — match any single AS number
//! * `[100-200]` — match an AS number in an inclusive range
//! * `*`, `+`, `?` — postfix repetition on an atom or group
//! * `(...)` — grouping, `|` — alternation
//! * `^` / `$` — anchor at the start / end of the path
//! * `_` — token boundary; in token space every inter-token position is a
//!   boundary, so `_` is an epsilon (it still forces the neighbouring
//!   number to be matched as a complete token, which token-level matching
//!   gives us for free)
//!
//! Without `^` the pattern may match anywhere in the path (substring
//! semantics), mirroring IOS behaviour.
//!
//! The pattern is compiled to a Thompson NFA and matched by subset
//! simulation — linear in `path length x NFA size`, no backtracking.

use serde::{Serialize, Sink};
use std::fmt;

/// A predicate on one AS-number token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TokPred {
    Any,
    Eq(u32),
    Range(u32, u32),
}

impl TokPred {
    fn matches(self, tok: u32) -> bool {
        match self {
            TokPred::Any => true,
            TokPred::Eq(x) => tok == x,
            TokPred::Range(lo, hi) => (lo..=hi).contains(&tok),
        }
    }
}

#[derive(Clone, Debug, Default)]
struct NfaState {
    /// Consuming transitions.
    trans: Vec<(TokPred, usize)>,
    /// Epsilon transitions.
    eps: Vec<usize>,
}

/// A compiled AS-path regular expression.
#[derive(Clone, Debug)]
pub struct AsPathRegex {
    pattern: String,
    states: Vec<NfaState>,
    start: usize,
    accept: usize,
}

impl PartialEq for AsPathRegex {
    fn eq(&self, other: &Self) -> bool {
        self.pattern == other.pattern
    }
}

impl Eq for AsPathRegex {}

impl std::hash::Hash for AsPathRegex {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pattern.hash(state);
    }
}

impl fmt::Display for AsPathRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pattern)
    }
}

/// Its pattern, as a string.
impl Serialize for AsPathRegex {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.str(&self.pattern);
    }
}

/// Error from compiling an AS-path regex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexParseError(pub String);

impl fmt::Display for RegexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad as-path regex: {}", self.0)
    }
}

impl std::error::Error for RegexParseError {}

/// How deeply groups may nest: the parser recurses once per `(`, so a
/// bound keeps a hostile pattern from overflowing the stack.
pub const MAX_GROUP_DEPTH: usize = 128;

/// NFA fragment under construction: entry state and dangling exit state.
struct Frag {
    start: usize,
    end: usize,
}

struct Compiler<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    states: Vec<NfaState>,
    pattern: &'a str,
    /// Groups open at the current position.
    depth: usize,
}

impl<'a> Compiler<'a> {
    fn new_state(&mut self) -> usize {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    fn err(&self, msg: &str) -> RegexParseError {
        RegexParseError(format!("{msg} in {:?}", self.pattern))
    }

    /// alt := concat ('|' concat)*
    fn parse_alt(&mut self) -> Result<Frag, RegexParseError> {
        let first = self.parse_concat()?;
        if self.chars.peek() != Some(&'|') {
            return Ok(first);
        }
        let start = self.new_state();
        let end = self.new_state();
        self.states[start].eps.push(first.start);
        self.states[first.end].eps.push(end);
        while self.chars.peek() == Some(&'|') {
            self.chars.next();
            let alt = self.parse_concat()?;
            self.states[start].eps.push(alt.start);
            self.states[alt.end].eps.push(end);
        }
        Ok(Frag { start, end })
    }

    /// concat := item*
    fn parse_concat(&mut self) -> Result<Frag, RegexParseError> {
        let start = self.new_state();
        let mut cur = start;
        while let Some(&c) = self.chars.peek() {
            if c == '|' || c == ')' {
                break;
            }
            // None is an epsilon atom like '_'.
            if let Some(f) = self.parse_item()? {
                self.states[cur].eps.push(f.start);
                cur = f.end;
            }
        }
        Ok(Frag { start, end: cur })
    }

    /// item := atom postfix?; returns None for pure-epsilon atoms.
    fn parse_item(&mut self) -> Result<Option<Frag>, RegexParseError> {
        let c = match self.chars.peek() {
            Some(&c) => c,
            None => return Err(self.err("unexpected end")),
        };
        let frag: Option<Frag> = match c {
            '_' => {
                self.chars.next();
                None
            }
            ' ' => {
                self.chars.next();
                None
            }
            '.' => {
                self.chars.next();
                Some(self.atom_pred(TokPred::Any))
            }
            '0'..='9' => {
                let n = self.parse_number()?;
                Some(self.atom_pred(TokPred::Eq(n)))
            }
            '[' => {
                self.chars.next();
                let lo = self.parse_number()?;
                if self.chars.next() != Some('-') {
                    return Err(self.err("expected '-' in range"));
                }
                let hi = self.parse_number()?;
                if self.chars.next() != Some(']') {
                    return Err(self.err("expected ']'"));
                }
                if lo > hi {
                    return Err(self.err("empty range"));
                }
                Some(self.atom_pred(TokPred::Range(lo, hi)))
            }
            '(' => {
                self.chars.next();
                if self.depth == MAX_GROUP_DEPTH {
                    return Err(self.err(&format!("groups nested deeper than {MAX_GROUP_DEPTH}")));
                }
                self.depth += 1;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                if self.chars.next() != Some(')') {
                    return Err(self.err("expected ')'"));
                }
                Some(inner)
            }
            other => return Err(self.err(&format!("unexpected character {other:?}"))),
        };
        // postfix
        let frag = match self.chars.peek() {
            Some(&op @ ('*' | '+' | '?')) => {
                self.chars.next();
                let inner = match frag {
                    Some(f) => f,
                    None => return Ok(None), // `_*` etc: still epsilon
                };
                let start = self.new_state();
                let end = self.new_state();
                self.states[start].eps.push(inner.start);
                match op {
                    '*' => {
                        self.states[start].eps.push(end);
                        self.states[inner.end].eps.push(inner.start);
                        self.states[inner.end].eps.push(end);
                    }
                    '+' => {
                        self.states[inner.end].eps.push(inner.start);
                        self.states[inner.end].eps.push(end);
                    }
                    '?' => {
                        self.states[start].eps.push(end);
                        self.states[inner.end].eps.push(end);
                    }
                    _ => unreachable!(),
                }
                Some(Frag { start, end })
            }
            _ => frag,
        };
        Ok(frag)
    }

    fn atom_pred(&mut self, p: TokPred) -> Frag {
        let start = self.new_state();
        let end = self.new_state();
        self.states[start].trans.push((p, end));
        Frag { start, end }
    }

    fn parse_number(&mut self) -> Result<u32, RegexParseError> {
        let mut n: u64 = 0;
        let mut any = false;
        while let Some(&c) = self.chars.peek() {
            if let Some(d) = c.to_digit(10) {
                self.chars.next();
                any = true;
                n = n * 10 + d as u64;
                if n > u32::MAX as u64 {
                    return Err(self.err("AS number too large"));
                }
            } else {
                break;
            }
        }
        if !any {
            return Err(self.err("expected number"));
        }
        Ok(n as u32)
    }
}

impl AsPathRegex {
    /// Compile a pattern.
    pub fn compile(pattern: &str) -> Result<Self, RegexParseError> {
        let anchored_start = pattern.starts_with('^');
        let anchored_end = pattern.ends_with('$') && !pattern.ends_with("\\$");
        let body = {
            let mut b = pattern;
            if anchored_start {
                b = &b[1..];
            }
            if anchored_end {
                b = &b[..b.len() - 1];
            }
            b
        };
        let mut c = Compiler {
            chars: body.chars().peekable(),
            states: Vec::new(),
            pattern,
            depth: 0,
        };
        let frag = c.parse_alt()?;
        if c.chars.peek().is_some() {
            return Err(c.err("trailing characters"));
        }
        let mut start = frag.start;
        let mut accept = frag.end;
        // Unanchored sides get an any-token self-loop.
        if !anchored_start {
            let s = c.new_state();
            c.states[s].trans.push((TokPred::Any, s));
            c.states[s].eps.push(start);
            start = s;
        }
        if !anchored_end {
            let e = c.new_state();
            c.states[e].trans.push((TokPred::Any, e));
            c.states[accept].eps.push(e);
            accept = e;
        }
        Ok(AsPathRegex {
            pattern: pattern.to_string(),
            states: c.states,
            start,
            accept,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Match an AS path (token sequence).
    pub fn matches(&self, path: &[u32]) -> bool {
        let mut cur = vec![false; self.states.len()];
        let mut next = vec![false; self.states.len()];
        let mut stack = Vec::new();
        self.add_closure(self.start, &mut cur, &mut stack);
        for &tok in path {
            next.iter_mut().for_each(|b| *b = false);
            for (i, &active) in cur.iter().enumerate() {
                if !active {
                    continue;
                }
                for &(pred, dst) in &self.states[i].trans {
                    if pred.matches(tok) {
                        self.add_closure(dst, &mut next, &mut stack);
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
            if cur.iter().all(|&b| !b) {
                return false;
            }
        }
        cur[self.accept]
    }

    /// Add `s` and every state its epsilon edges reach to `set`, walking
    /// on `stack` rather than recursing: an epsilon chain is as long as
    /// the pattern.
    fn add_closure(&self, s: usize, set: &mut [bool], stack: &mut Vec<usize>) {
        stack.push(s);
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut set[s], true) {
                stack.extend(&self.states[s].eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> AsPathRegex {
        AsPathRegex::compile(p).unwrap()
    }

    #[test]
    fn literal_substring() {
        let r = re("_65001_");
        assert!(r.matches(&[65001]));
        assert!(r.matches(&[1, 65001, 2]));
        assert!(!r.matches(&[65002]));
        assert!(!r.matches(&[]));
    }

    #[test]
    fn anchored_origin() {
        // Path origin is the last AS in our representation; `65001$`
        // matches paths originated by 65001.
        let r = re("65001$");
        assert!(r.matches(&[65001]));
        assert!(r.matches(&[2, 3, 65001]));
        assert!(!r.matches(&[65001, 2]));
    }

    #[test]
    fn anchored_neighbor() {
        let r = re("^65001");
        assert!(r.matches(&[65001]));
        assert!(r.matches(&[65001, 2]));
        assert!(!r.matches(&[2, 65001]));
    }

    #[test]
    fn empty_path_pattern() {
        let r = re("^$");
        assert!(r.matches(&[]));
        assert!(!r.matches(&[1]));
    }

    #[test]
    fn any_and_star() {
        let r = re("^65001 .* 65002$");
        assert!(r.matches(&[65001, 65002]));
        assert!(r.matches(&[65001, 7, 8, 65002]));
        assert!(!r.matches(&[65001]));
        assert!(!r.matches(&[65001, 7]));
    }

    #[test]
    fn plus_and_question() {
        let r = re("^1 2+ 3$");
        assert!(r.matches(&[1, 2, 3]));
        assert!(r.matches(&[1, 2, 2, 2, 3]));
        assert!(!r.matches(&[1, 3]));

        let q = re("^1 2? 3$");
        assert!(q.matches(&[1, 3]));
        assert!(q.matches(&[1, 2, 3]));
        assert!(!q.matches(&[1, 2, 2, 3]));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("^(1|2) 3$");
        assert!(r.matches(&[1, 3]));
        assert!(r.matches(&[2, 3]));
        assert!(!r.matches(&[4, 3]));

        let nested = re("^((1 2)|(3 4))+$");
        assert!(nested.matches(&[1, 2]));
        assert!(nested.matches(&[1, 2, 3, 4, 1, 2]));
        assert!(!nested.matches(&[1, 4]));
    }

    #[test]
    fn ranges() {
        let r = re("_[64512-65534]_");
        assert!(r.matches(&[64512]));
        assert!(r.matches(&[1, 65000, 2]));
        assert!(!r.matches(&[64000]));
        assert!(!r.matches(&[65535]));
    }

    #[test]
    fn private_asn_detector() {
        // The "no private ASNs in path" property from §6.1-style checks.
        let r = re("_([64512-65534]|[4200000000-4294967294])_");
        assert!(r.matches(&[174, 64512, 3356]));
        assert!(r.matches(&[4200000000]));
        assert!(!r.matches(&[174, 3356]));
    }

    #[test]
    fn parse_errors() {
        assert!(AsPathRegex::compile("(1").is_err());
        assert!(AsPathRegex::compile("[1-").is_err());
        assert!(AsPathRegex::compile("[5-2]").is_err());
        assert!(AsPathRegex::compile("a").is_err());
        assert!(AsPathRegex::compile("1)").is_err());
    }

    /// Run `f` on a thread with a 256 KiB stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        let t = std::thread::Builder::new().stack_size(256 << 10);
        t.spawn(f).unwrap().join().unwrap();
    }

    #[test]
    fn deep_groups_are_a_typed_error() {
        on_small_stack(|| {
            let at_bound = "(".repeat(MAX_GROUP_DEPTH) + "1" + &")".repeat(MAX_GROUP_DEPTH);
            assert!(re(&at_bound).matches(&[1]));
            let deep = "(".repeat(50_000) + &")".repeat(50_000);
            let e = AsPathRegex::compile(&deep).unwrap_err();
            assert!(e.0.starts_with("groups nested deeper than 128"), "{e}");
        });
    }

    #[test]
    fn long_epsilon_chains_match_without_recursing() {
        on_small_stack(|| {
            let r = re(&format!("^{}1$", "()".repeat(200_000)));
            assert!(r.matches(&[1]));
            assert!(!r.matches(&[2]));
        });
    }

    #[test]
    fn unanchored_matches_anywhere() {
        let r = re("5 6");
        assert!(r.matches(&[1, 5, 6, 9]));
        assert!(r.matches(&[5, 6]));
        assert!(!r.matches(&[5, 7, 6]));
    }

    #[test]
    fn display_and_eq() {
        let r = re("^65001_.*$");
        assert_eq!(r.to_string(), "^65001_.*$");
        assert_eq!(r, re("^65001_.*$"));
        assert_ne!(r, re("^65002$"));
    }
}
