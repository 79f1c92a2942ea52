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
//! **One scan.** Each call to [`Lexer::advance`] walks the bytes of one
//! line once, classifying each through a 256-entry table: a `\n` ends
//! the line, a space byte ends a token, any other ASCII byte starts or
//! continues one. Inside a token the scan tests eight bytes at a time
//! for anything outside printable ASCII and asks the table only where
//! that test stops. Line ends and token bounds come out of the same
//! pass; a line whose first token starts with `!` is skipped to its
//! `\n` without looking at the rest.
//!
//! Tokens are separated by whitespace as [`char::is_whitespace`] defines
//! it. Below 0x80 that is six bytes (space, `\t`, `\n`, `\x0b`, `\x0c`,
//! `\r`), and the table splits on exactly those, with no UTF-8 decoding.
//! **The Unicode fallback** runs only for a line that holds a byte at or
//! above 0x80: the scan stops at that byte, finds the line's end, and
//! re-splits the whole line with [`str::split_whitespace`], which also
//! splits on Unicode spaces such as U+00A0 or U+3000. Lines end at `\n`
//! only, as [`str::lines`] has them (a `\r` before it, or a lone `\r`,
//! is whitespace inside the line), so line numbers are those of
//! `lines()`. Both paths yield the same tokens for an ASCII line, so the
//! fast path never changes what a configuration means.

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

/// A byte that is part of a token.
const TOKEN: u8 = 0;
/// One of the ASCII bytes [`char::is_whitespace`] accepts, other than `\n`.
const SPACE: u8 = 1;
/// The line end.
const NEWLINE: u8 = 2;
/// A byte of a multi-byte UTF-8 sequence: the line takes the fallback.
const NON_ASCII: u8 = 3;

/// The class of every byte value.
static CLASS: [u8; 256] = {
    let mut table = [TOKEN; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'\n' => NEWLINE,
            b' ' | b'\t' | 0x0b | 0x0c | b'\r' => SPACE,
            0x80.. => NON_ASCII,
            _ => TOKEN,
        };
        b += 1;
    }
    table
};

/// A cursor over the non-blank, non-comment lines of a configuration.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    text: &'a str,
    /// Start of the next unread line.
    pos: usize,
    /// Lines started so far: the number of the one being read.
    number: usize,
    line: Line<'a>,
}

impl<'a> Lexer<'a> {
    /// A cursor before the first line of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            text: input,
            pos: 0,
            number: 0,
            line: Line::default(),
        }
    }

    /// Move to the next line that is neither blank nor a comment and
    /// tokenize it into the reused buffer. False at end of input, after
    /// which [`Lexer::line`] is stale.
    pub fn advance(&mut self) -> bool {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let n = bytes.len();
        while self.pos < n {
            let start = self.pos;
            self.number += 1;
            let tokens = &mut self.line.tokens;
            tokens.clear();
            let mut i = start;
            let end = loop {
                while i < n && CLASS[bytes[i] as usize] == SPACE {
                    i += 1;
                }
                if i == n || bytes[i] == b'\n' {
                    break i;
                }
                if bytes[i] == b'!' && tokens.is_empty() {
                    // A comment: nothing on it is read.
                    break next_newline(bytes, i);
                }
                let token = i;
                i = token_end(bytes, i);
                if i < n && CLASS[bytes[i] as usize] == NON_ASCII {
                    let end = next_newline(bytes, i);
                    tokens.clear();
                    tokens.extend(text[start..end].split_whitespace());
                    break end;
                }
                tokens.push(&text[token..i]);
            };
            self.pos = end + 1;
            match tokens.first() {
                None => continue,
                Some(t) if t.starts_with('!') => continue,
                Some(_) => {}
            }
            self.line.number = self.number;
            self.line.indented = matches!(bytes[start], b' ' | b'\t');
            return true;
        }
        false
    }

    /// The line the last successful [`Lexer::advance`] stopped on.
    pub fn line(&self) -> &Line<'a> {
        &self.line
    }
}

/// Bytes of `word` outside 0x21..=0x7f (space and below, or non-ASCII),
/// as set high bits. Only the lowest set bit is exact: a borrow may set
/// the bits of bytes above it.
fn non_printable(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    ((word.wrapping_sub(0x21 * ONES) & !word) | word) & HIGHS
}

/// The end of the token that starts at `i`: the first byte at or after
/// it whose class is not [`TOKEN`]. Eight bytes at a time skip the
/// printable ASCII that makes up almost every token; the table decides
/// each byte the word test stops at (an ASCII control byte other than
/// whitespace is part of a token).
fn token_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let stops = non_printable(word);
        if stops == 0 {
            i += 8;
            continue;
        }
        i += stops.trailing_zeros() as usize / 8;
        if CLASS[bytes[i] as usize] != TOKEN {
            return i;
        }
        i += 1;
    }
    while i < bytes.len() && CLASS[bytes[i] as usize] == TOKEN {
        i += 1;
    }
    i
}

/// Index of the first `\n` at or after `from`, or the input's length.
fn next_newline(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |k| from + k)
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

    /// The splitter the one-pass scan replaced, kept as its oracle:
    /// `str::lines`, trim, skip blanks and comments, split on Unicode
    /// whitespace.
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

    /// The scan's lines equal the oracle's, and every token is a slice
    /// of the input.
    fn assert_agrees(text: &str) {
        let got = lex(text);
        assert_eq!(got, lex_unicode(text), "{text:?}");
        for l in &got {
            for t in &l.tokens {
                assert!(text.as_bytes().as_ptr_range().contains(&t.as_ptr()));
            }
        }
    }

    /// A xorshift stream: `next(n)` is uniform enough below `n`.
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        }
    }

    #[test]
    fn ascii_space_bytes_are_the_ascii_whitespace_chars() {
        for b in 0u8..0x80 {
            let space = matches!(CLASS[b as usize], SPACE | NEWLINE);
            assert_eq!(space, char::from(b).is_whitespace(), "{b:#x}");
        }
        assert_eq!(CLASS[b'\n' as usize], NEWLINE);
        assert!(CLASS[0x80..].iter().all(|&c| c == NON_ASCII));
    }

    #[test]
    fn byte_split_agrees_with_unicode_split() {
        // ASCII letters, control bytes and whitespace (`\x0b`, `\x0c`
        // and `\r` too), the comment mark, Unicode spaces and non-ASCII
        // letters; long enough texts that tokens span eight-byte words.
        const ALPHABET: &[char] = &[
            'a', 'Z', '7', '-', '!', '\0', '\x01', '\x7f', ' ', ' ', '\t', '\x0b', '\x0c', '\r',
            '\n', '\u{a0}', '\u{2003}', '\u{3000}', 'é', 'ß', '\u{4e2d}',
        ];
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..4000 {
            let len = next(80);
            let text: String = (0..len).map(|_| ALPHABET[next(ALPHABET.len())]).collect();
            assert_agrees(&text);
        }
    }

    /// The first string literal of each `("…", line, "…")` row of the
    /// parse-error table, unescaped.
    fn parse_error_inputs() -> Vec<String> {
        include_str!("../tests/parse_errors.rs")
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("(\""))
            .map(|row| {
                let (mut out, mut chars) = (String::new(), row.chars());
                while let Some(c) = chars.next() {
                    match c {
                        '"' => break,
                        '\\' => match chars.next() {
                            Some('n') => out.push('\n'),
                            Some('r') => out.push('\r'),
                            Some('t') => out.push('\t'),
                            Some('u') => {
                                let hex: String =
                                    chars.by_ref().skip(1).take_while(|&c| c != '}').collect();
                                let code = u32::from_str_radix(&hex, 16).unwrap();
                                out.push(char::from_u32(code).unwrap());
                            }
                            Some(c) => out.push(c),
                            None => break,
                        },
                        c => out.push(c),
                    }
                }
                out
            })
            .collect()
    }

    /// Hostile bytes against the oracle, and the front end against
    /// panics: mutations of the example configurations and of every
    /// parse-error input, seeded with CR, CRLF, VT, FF, tab, NUL, `!`,
    /// Unicode spaces and non-ASCII letters.
    #[test]
    fn hostile_bytes_lex_like_the_oracle_and_never_panic() {
        const HOSTILE: &[&str] = &[
            "\r", "\r\n", "\n", "\x0b", "\x0c", "\t", "\0", "!", " ", "\u{a0}", "\u{3000}", "é",
            "ß", "\u{4e2d}",
        ];
        let r1 = include_str!("../../../examples/configs/r1.cfg");
        let r2 = include_str!("../../../examples/configs/r2.cfg");
        let errors = parse_error_inputs();
        assert!(errors.len() >= 50, "{} parse-error inputs", errors.len());
        let mut seeds: Vec<String> = vec![r1.into(), r2.into()];
        seeds.extend(errors);
        // Whole-file rewrites: CRLF line ends, U+00A0 / tab / VT
        // indentation, a lone CR for every LF.
        for s in [r1, r2] {
            seeds.push(s.replace('\n', "\r\n"));
            seeds.push(s.replace("\n ", "\n\u{a0}").replace('\n', "\r\n"));
            seeds.push(s.replace("\n ", "\n\t"));
            seeds.push(s.replace("\n ", "\n\x0b"));
            seeds.push(s.replace('\n', "\r"));
        }
        let front_end = |text: &str| {
            let ast = crate::parse_config(text);
            if let Ok(ast) = ast {
                let _ = crate::lower(std::slice::from_ref(&ast));
                if let Ok(other) = crate::parse_config(r2) {
                    let _ = crate::lower(&[ast, other]);
                }
            }
        };
        let mut next = rng(0x2545_f491_4f6c_dd1d);
        let mut cases = 0;
        for seed in &seeds {
            for round in 0..40 {
                let mut text = seed.clone();
                for _ in 0..1 + round % 4 {
                    let mut at = next(text.len() + 1);
                    while !text.is_char_boundary(at) {
                        at -= 1;
                    }
                    let ins = HOSTILE[next(HOSTILE.len())];
                    if next(2) == 0 || at == text.len() {
                        text.insert_str(at, ins);
                    } else {
                        let mut end = at + 1;
                        while !text.is_char_boundary(end) {
                            end += 1;
                        }
                        text.replace_range(at..end, ins);
                    }
                }
                assert_agrees(&text);
                let outcome = std::panic::catch_unwind(|| front_end(&text));
                assert!(outcome.is_ok(), "the front end panicked on {text:?}");
                cases += 1;
            }
            assert_agrees(seed);
            assert!(
                std::panic::catch_unwind(|| front_end(seed)).is_ok(),
                "{seed:?}"
            );
        }
        assert!(cases >= 2000);
    }
}
