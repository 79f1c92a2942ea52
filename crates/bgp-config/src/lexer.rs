//! Line-oriented lexer for IOS-style configuration text.
//!
//! IOS configs are a sequence of lines; top-level statements start at
//! column 0 and block bodies are indented by at least one space. Lines
//! starting with `!` (and blank lines) are comments/separators.
//!
//! Tokens are slices of the input: the lexer is a cursor over the text
//! that refills one token buffer per line, so lexing allocates nothing
//! per line or per token.

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
            let trimmed = raw.trim_end();
            let body = trimmed.trim_start();
            if body.is_empty() || body.starts_with('!') {
                continue;
            }
            self.line.number = i + 1;
            self.line.indented = trimmed.starts_with(' ') || trimmed.starts_with('\t');
            self.line.tokens.clear();
            self.line.tokens.extend(body.split_whitespace());
            return true;
        }
        false
    }

    /// The line the last successful [`Lexer::advance`] stopped on.
    pub fn line(&self) -> &Line<'a> {
        &self.line
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
}
