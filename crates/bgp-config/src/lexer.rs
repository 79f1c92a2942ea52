//! Line-oriented lexer for IOS-style configuration text.
//!
//! IOS configs are a sequence of lines; top-level statements start at
//! column 0 and block bodies are indented by at least one space. Lines
//! starting with `!` (and blank lines) are comments/separators.
//!
//! Tokens are slices of the input: the lexer is a cursor over the text
//! that refills one token buffer per line, so lexing allocates nothing
//! per line or per token.
//!
//! Tokens are separated by whitespace as [`char::is_whitespace`] defines
//! it. Configurations are almost always ASCII, so a line that is all
//! ASCII is split as bytes on the six ASCII bytes that predicate accepts
//! (space, `\t`, `\n`, `\x0b`, `\x0c`, `\r`), with no UTF-8 decoding. A
//! line holding any non-ASCII byte falls back to [`str::split_whitespace`],
//! which also splits on Unicode spaces such as U+00A0 or U+3000. Both
//! paths yield the same tokens for an ASCII line, so the fast path never
//! changes what a configuration means.

/// A tokenized configuration line; its tokens borrow from the input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number in the source text.
    pub number: usize,
    /// True when the line was indented (block body).
    pub indented: bool,
    /// Whitespace-separated tokens.
    pub tokens: Vec<&'a str>,
}

impl<'a> Line<'a> {
    /// The first token (the keyword).
    pub fn keyword(&self) -> &'a str {
        self.tokens[0]
    }

    /// Token at index `i`, if present.
    pub fn tok(&self, i: usize) -> Option<&'a str> {
        self.tokens.get(i).copied()
    }

    /// All tokens from index `i` on.
    pub fn rest(&self, i: usize) -> &[&'a str] {
        self.tokens.get(i..).unwrap_or(&[])
    }
}

/// A cursor over the non-blank, non-comment lines of a configuration.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line: Line<'a>,
}

impl<'a> Lexer<'a> {
    /// A cursor before the first line of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            lines: input.lines().enumerate(),
            line: Line::default(),
        }
    }

    /// Move to the next line that is neither blank nor a comment and
    /// tokenize it into the reused buffer. False at end of input, after
    /// which [`Lexer::line`] is stale.
    pub fn advance(&mut self) -> bool {
        for (i, raw) in self.lines.by_ref() {
            let tokens = &mut self.line.tokens;
            tokens.clear();
            if raw.is_ascii() {
                split_ascii(raw, tokens);
            } else {
                tokens.extend(raw.split_whitespace());
            }
            match tokens.first() {
                None => continue,
                Some(t) if t.starts_with('!') => continue,
                Some(_) => {}
            }
            self.line.number = i + 1;
            self.line.indented = raw.starts_with([' ', '\t']);
            return true;
        }
        false
    }

    /// The line the last successful [`Lexer::advance`] stopped on.
    pub fn line(&self) -> &Line<'a> {
        &self.line
    }
}

/// The bytes below 0x80 that [`char::is_whitespace`] accepts.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// Push the tokens of an all-ASCII `line` onto `out`: what
/// `line.split_whitespace()` yields, found byte by byte.
fn split_ascii<'a>(line: &'a str, out: &mut Vec<&'a str>) {
    let mut start = None;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        match (is_ascii_space(b), start) {
            (true, Some(s)) => {
                out.push(&line[s..i]);
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push(&line[s..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Vec<Line<'_>> {
        let mut lx = Lexer::new(input);
        let mut out = Vec::new();
        while lx.advance() {
            out.push(lx.line().clone());
        }
        out
    }

    #[test]
    fn lexes_with_indentation() {
        let lines = lex("router bgp 65000\n neighbor 10.0.0.1 remote-as 1\n!\n\nip prefix-list P seq 5 permit 10.0.0.0/8\n");
        assert_eq!(lines.len(), 3);
        assert!(!lines[0].indented);
        assert!(lines[1].indented);
        assert_eq!(lines[0].keyword(), "router");
        assert_eq!(lines[1].tok(1), Some("10.0.0.1"));
        assert_eq!(lines[2].number, 5);
    }

    #[test]
    fn comments_and_blanks_dropped() {
        let lines = lex("! a comment\n\n   \n! another\n");
        assert!(lines.is_empty());
    }

    #[test]
    fn rest_slices() {
        let lines = lex("set community 100:1 200:2 additive\n");
        assert_eq!(lines[0].rest(2), &["100:1", "200:2", "additive"]);
        assert!(lines[0].rest(9).is_empty());
    }

    #[test]
    fn tokens_are_slices_of_the_input() {
        let input = String::from(" match  community\tREGION \r\n");
        let lines = lex(&input);
        let range = input.as_bytes().as_ptr_range();
        for t in &lines[0].tokens {
            assert!(range.contains(&t.as_ptr()));
        }
        assert_eq!(lines[0].tokens, ["match", "community", "REGION"]);
    }

    /// The lexer before the ASCII fast path: trim, skip blanks and
    /// comments, split on Unicode whitespace.
    fn lex_unicode(input: &str) -> Vec<Line<'_>> {
        let mut out = Vec::new();
        for (i, raw) in input.lines().enumerate() {
            let trimmed = raw.trim_end();
            let body = trimmed.trim_start();
            if body.is_empty() || body.starts_with('!') {
                continue;
            }
            out.push(Line {
                number: i + 1,
                indented: trimmed.starts_with(' ') || trimmed.starts_with('\t'),
                tokens: body.split_whitespace().collect(),
            });
        }
        out
    }

    #[test]
    fn ascii_space_bytes_are_the_ascii_whitespace_chars() {
        for b in 0u8..0x80 {
            assert_eq!(is_ascii_space(b), char::from(b).is_whitespace(), "{b:#x}");
        }
    }

    #[test]
    fn byte_split_agrees_with_unicode_split() {
        // ASCII letters and whitespace (`\x0b`, `\x0c` and `\r` too),
        // the comment mark, Unicode spaces and non-ASCII letters.
        const ALPHABET: &[char] = &[
            'a', 'Z', '7', '-', '!', ' ', ' ', '\t', '\x0b', '\x0c', '\r', '\n', '\u{a0}',
            '\u{2003}', '\u{3000}', 'é', 'ß', '\u{4e2d}',
        ];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..2000 {
            let len = next(40);
            let text: String = (0..len).map(|_| ALPHABET[next(ALPHABET.len())]).collect();
            let got = lex(&text);
            let want = lex_unicode(&text);
            assert_eq!(got, want, "{text:?}");
            for l in &got {
                for t in &l.tokens {
                    assert!(text.as_bytes().as_ptr_range().contains(&t.as_ptr()));
                }
            }
        }
    }
}
