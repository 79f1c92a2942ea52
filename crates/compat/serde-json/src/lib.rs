//! Offline stand-in for `serde_json`, paired with the local `serde` shim.
//!
//! Provides the subset of the real crate's surface this workspace uses:
//! [`to_string`] / [`to_string_pretty`] / [`from_str`] / [`to_value`] /
//! [`from_value`], the [`Value`] type (re-exported from `serde`), a
//! [`json!`] macro covering object/array literals with expression
//! values, and [`Serializer`], the text writer behind the `to_string`
//! pair.
//!
//! **Writing is one pass.** [`Serializer`] is a [`serde::Sink`]: a value
//! streams itself into it (`serde::Serialize::stream`) and every output
//! byte is appended once — strings are copied in runs up to the next
//! byte that needs an escape, indentation is a slice of a constant,
//! integers are formatted on the stack. No tree is built on the way:
//! `to_string(&value)` over a [`Value`] or a container of them never
//! clones it, and a derived or hand-written type streams its own events.
//!
//! **Parsing is bounded.** Arrays and objects may nest at most
//! [`MAX_DEPTH`] deep (real `serde_json`'s recursion limit); deeper
//! input is a typed [`Error`] with the byte offset, not a stack
//! overflow — request bodies and spec files reach this parser
//! unfiltered. `from_str::<Value>` hands back the parsed tree itself
//! (`serde::Deserialize::from_value_owned`), not a copy of it.
//!
//! The emitted text is RFC 8259 JSON with the same shapes real serde
//! would produce (derive shim notes in `serde_derive`), so specs and
//! metadata files written by one build remain readable by a build against
//! the real crates. A swap back to crates.io touches, beyond the
//! manifests: the hand-written `stream` bodies (see the `serde` shim's
//! header), and the one caller that drives a [`Serializer`] directly
//! (`lightyear verify --json`), where `Serializer::pretty(String)` /
//! `into_inner()` become real `serde_json`'s
//! `Serializer::pretty(&mut Vec<u8>)` + `value.serialize(&mut ser)`.

pub use serde::{DeError, Value};

use serde::{Deserialize, Serialize, Sink};
use std::fmt::{self, Write};

/// Errors from parsing or value conversion.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serialize into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(x: &T) -> Value {
    x.to_value()
}

/// Deserialize out of a [`Value`].
pub fn from_value<T: Deserialize>(v: Value) -> Result<T, Error> {
    Ok(T::from_value_owned(v)?)
}

/// Serialize to compact JSON text. Infallible for tree-shaped data; the
/// `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(x: &T) -> Result<String, Error> {
    let mut ser = Serializer::new(String::new());
    x.stream(&mut ser);
    Ok(ser.into_inner())
}

/// Serialize to 2-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(x: &T) -> Result<String, Error> {
    let mut ser = Serializer::pretty(String::new());
    x.stream(&mut ser);
    Ok(ser.into_inner())
}

/// Parse JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_value_owned(parse_value(s)?)?)
}

/// Parse JSON bytes into any [`Deserialize`] type.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(e.to_string()))?;
    from_str(s)
}

/// Build a [`Value`] from a JSON-ish literal. Object and array literals
/// take arbitrary Rust expressions as values (serialized via the local
/// serde shim); nested `json!` calls cover deeper literal nesting.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( ($key.to_string(), $crate::to_value(&$value)) ),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::to_value(&$value) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Per-byte escape class: 0 = copy through, `u` = `\u00XX`, anything
/// else = the character after the backslash.
const ESCAPE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 0x20 {
        t[i] = b'u';
        i += 1;
    }
    t[b'"' as usize] = b'"';
    t[b'\\' as usize] = b'\\';
    t[b'\n' as usize] = b'n';
    t[b'\r' as usize] = b'r';
    t[b'\t' as usize] = b't';
    t
};

const HEX: &[u8; 16] = b"0123456789abcdef";

const INFALLIBLE: &str = "writing to a String cannot fail";

/// Indentation is sliced from here; deeper levels repeat it.
const SPACES: &str = "                                                                ";

/// The JSON text writer: a [`Sink`] that appends compact or
/// 2-space-indented text to a `String` as the events arrive.
pub struct Serializer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container already holds an element.
    has_elem: bool,
    /// A key was just written: the next value follows it directly.
    after_key: bool,
}

impl Serializer {
    /// A compact writer appending to `out`.
    pub fn new(out: String) -> Serializer {
        Serializer {
            out,
            pretty: false,
            depth: 0,
            has_elem: false,
            after_key: false,
        }
    }

    /// A 2-space-indented writer appending to `out`.
    pub fn pretty(out: String) -> Serializer {
        Serializer {
            pretty: true,
            ..Serializer::new(out)
        }
    }

    /// The text written so far.
    pub fn into_inner(self) -> String {
        self.out
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            let mut n = 2 * self.depth;
            while n > 0 {
                let take = n.min(SPACES.len());
                self.out.push_str(&SPACES[..take]);
                n -= take;
            }
        }
    }

    /// Separator and indentation owed before an array element or a key.
    fn next_slot(&mut self) {
        if self.has_elem {
            self.out.push(',');
        }
        self.newline_indent();
        self.has_elem = true;
    }

    /// What precedes any value: nothing after a key or at the top
    /// level, the element separator inside an array.
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.next_slot();
        }
    }

    fn open(&mut self, bracket: char) {
        self.before_value();
        self.out.push(bracket);
        self.depth += 1;
        self.has_elem = false;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.has_elem {
            self.newline_indent();
        }
        self.out.push(bracket);
        // The closed container is itself an element of its parent.
        self.has_elem = true;
    }

    /// The decimal digits of `u`, formed on the stack, least
    /// significant first, and appended at once.
    fn write_digits(&mut self, mut u: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (u % 10) as u8;
            u /= 10;
            if u == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }

    fn write_str(&mut self, s: &str) {
        self.out.push('"');
        self.write_escaped(s);
        self.out.push('"');
    }

    /// `s` escaped, without quotes.
    fn write_escaped(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let class = ESCAPE[b as usize];
            if class == 0 {
                continue;
            }
            // Escaped bytes are ASCII, so both cuts are char boundaries.
            self.out.push_str(&s[start..i]);
            start = i + 1;
            self.out.push('\\');
            self.out.push(class as char);
            if class == b'u' {
                self.out.push_str("00");
                self.out.push(HEX[(b >> 4) as usize] as char);
                self.out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
        self.out.push_str(&s[start..]);
    }
}

impl Sink for Serializer {
    fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.before_value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    fn int(&mut self, i: i64) {
        self.before_value();
        if i < 0 {
            self.out.push('-');
        }
        self.write_digits(i.unsigned_abs());
    }

    fn uint(&mut self, u: u64) {
        self.before_value();
        self.write_digits(u);
    }

    fn float(&mut self, f: f64) {
        self.before_value();
        if !f.is_finite() {
            self.out.push_str("null");
            return;
        }
        // Match serde_json: floats always carry a decimal point.
        let start = self.out.len();
        write!(self.out, "{f}").expect(INFALLIBLE);
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    fn str(&mut self, s: &str) {
        self.before_value();
        self.write_str(s);
    }

    fn str_pieces(&mut self, pieces: &[&str]) {
        self.before_value();
        self.out.push('"');
        for piece in pieces {
            self.write_escaped(piece);
        }
        self.out.push('"');
    }

    fn begin_array(&mut self) {
        self.open('[');
    }

    fn end_array(&mut self) {
        self.close(']');
    }

    fn begin_object(&mut self) {
        self.open('{');
    }

    fn key(&mut self, k: &str) {
        self.next_slot();
        self.write_str(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    fn end_object(&mut self) {
        self.close('}');
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// How deep arrays and objects may nest in parsed text (real
/// `serde_json`'s recursion limit). The parser recurses once per level,
/// so this is what keeps hostile input from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object, counted against [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // Both ends sit on an ASCII byte or the end of the text.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's data; reject them loudly.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\nthere\""] {
            let v: Value = from_str(text).unwrap();
            let back = to_string(&v).unwrap();
            let v2: Value = from_str(&back).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": "x -> y", "d": {"e": -4}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][2]["b"], Value::Null);
        assert_eq!(v["c"].as_str(), Some("x -> y"));
        assert_eq!(v["d"]["e"].as_i64(), Some(-4));
        let pretty = to_string_pretty(&v).unwrap();
        let v2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn json_macro_shapes() {
        let passed = true;
        let v = json!({
            "name": "p1",
            "passed": passed,
            "count": 3usize,
            "missing": Option::<String>::None,
            "items": vec![json!(1), json!(2)],
        });
        assert_eq!(v["passed"], Value::Bool(true));
        assert_eq!(v["count"].as_u64(), Some(3));
        assert!(v["missing"].is_null());
        assert_eq!(v["items"][1].as_u64(), Some(2));
    }

    /// One nested sample covering every writer rule. The two strings
    /// below are the contract: byte-identical output is what lets
    /// reports be compared across builds.
    fn writer_sample() -> Value {
        Value::Object(vec![
            ("empty_array".to_string(), Value::Array(vec![])),
            ("empty_object".to_string(), Value::Object(vec![])),
            (
                "escapes".to_string(),
                Value::Str("q\" b\\ n\n r\r t\t u\u{1}".to_string()),
            ),
            (
                "text".to_string(),
                Value::Str("naïve — 日本 🚀".to_string()),
            ),
            (
                "numbers".to_string(),
                Value::Array(vec![
                    Value::Float(1.0),
                    Value::Float(-0.25),
                    Value::Float(f64::NAN),
                    Value::Float(f64::INFINITY),
                    Value::UInt(u64::MAX),
                    Value::Int(i64::MIN),
                    Value::Int(0),
                ]),
            ),
            (
                "nested".to_string(),
                Value::Array(vec![
                    Value::Object(vec![("k\"".to_string(), Value::Null)]),
                    Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
                ]),
            ),
        ])
    }

    #[test]
    fn compact_output_is_pinned() {
        assert_eq!(
            to_string(&writer_sample()).unwrap(),
            concat!(
                r#"{"empty_array":[],"empty_object":{},"#,
                r#""escapes":"q\" b\\ n\n r\r t\t u\u0001","#,
                r#""text":"naïve — 日本 🚀","#,
                r#""numbers":[1.0,-0.25,null,null,18446744073709551615,-9223372036854775808,0],"#,
                r#""nested":[{"k\"":null},[true,false]]}"#
            )
        );
    }

    #[test]
    fn pretty_output_is_pinned() {
        let expected = r#"{
  "empty_array": [],
  "empty_object": {},
  "escapes": "q\" b\\ n\n r\r t\t u\u0001",
  "text": "naïve — 日本 🚀",
  "numbers": [
    1.0,
    -0.25,
    null,
    null,
    18446744073709551615,
    -9223372036854775808,
    0
  ],
  "nested": [
    {
      "k\"": null
    },
    [
      true,
      false
    ]
  ]
}"#;
        assert_eq!(to_string_pretty(&writer_sample()).unwrap(), expected);
        // Streaming a value and rendering its tree are the same text.
        let back: Value = from_str(expected).unwrap();
        assert_eq!(to_string_pretty(&back).unwrap(), expected);
    }

    #[test]
    fn integers_render_without_the_formatter() {
        let ints = [
            Value::Int(0),
            Value::Int(9),
            Value::Int(10),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::UInt(u64::MAX),
        ];
        let texts = [
            "0",
            "9",
            "10",
            "-1",
            "-9223372036854775808",
            "9223372036854775807",
            "18446744073709551615",
        ];
        for (v, text) in ints.iter().zip(texts) {
            assert_eq!(to_string(v).unwrap(), text);
            assert_eq!(to_string_pretty(v).unwrap(), text);
        }
        let all = Value::Array(ints.to_vec());
        assert_eq!(to_string(&all).unwrap(), format!("[{}]", texts.join(",")));
        assert_eq!(
            to_string_pretty(&all).unwrap(),
            format!("[\n  {}\n]", texts.join(",\n  "))
        );
        // And through the typed integer impls, which stream `int`/`uint`.
        assert_eq!(
            to_string(&(i64::MIN, u64::MAX, -1i32, 10u8)).unwrap(),
            "[-9223372036854775808,18446744073709551615,-1,10]"
        );
    }

    #[test]
    fn built_values_are_the_parsed_text() {
        let obj = |entries: Vec<(&str, Value)>| {
            Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let samples = [
            Value::Object(vec![]),
            Value::Array(vec![]),
            obj(vec![
                ("a", Value::Object(vec![])),
                ("b", Value::Array(vec![])),
            ]),
            // Keys after a closed object, after a closed array, and an
            // object inside an array inside an object.
            obj(vec![
                (
                    "outer",
                    obj(vec![("inner", obj(vec![("x", Value::Int(-1))]))]),
                ),
                ("after_object", Value::Int(9)),
                (
                    "list",
                    Value::Array(vec![
                        obj(vec![("k", Value::Null), ("l", Value::Array(vec![]))]),
                        Value::Array(vec![Value::Bool(true)]),
                        obj(vec![]),
                    ]),
                ),
                ("after_array", Value::UInt(u64::MAX)),
                ("s", Value::Str("q\"".to_string())),
            ]),
        ];
        for v in samples {
            let built = serde::build_value(&v);
            assert_eq!(built, v);
            assert_eq!(built, from_str::<Value>(&to_string(&v).unwrap()).unwrap());
            assert_eq!(
                built,
                from_str::<Value>(&to_string_pretty(&v).unwrap()).unwrap()
            );
        }
    }

    #[test]
    fn indentation_past_the_slice_repeats_it() {
        // 40 levels = 80 columns, more than one `SPACES` slice.
        let mut v = Value::Int(7);
        for _ in 0..40 {
            v = Value::Array(vec![v]);
        }
        let text = to_string_pretty(&v).unwrap();
        let line = text.lines().find(|l| l.trim() == "7").unwrap();
        assert_eq!(line.len(), 81);
        assert_eq!(from_str::<Value>(&text).unwrap(), v);
    }

    #[test]
    fn nesting_is_limited_with_a_typed_error() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(from_str::<Value>(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nest("{\"k\":", "}", MAX_DEPTH).replace(":}", ":0}")).is_ok());
        let err = from_str::<Value>(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.0,
            format!("recursion limit exceeded at byte {MAX_DEPTH}")
        );
        // Mixed nesting counts both kinds; unclosed hostile input fails
        // the same way instead of recursing to the end of the text.
        let mixed = "[{\"a\":".repeat(MAX_DEPTH);
        let err = from_str::<Value>(&mixed).unwrap_err();
        assert!(err.0.starts_with("recursion limit exceeded"), "{err}");
        let err = from_str::<Value>(&"[".repeat(400_000)).unwrap_err();
        assert!(err.0.starts_with("recursion limit exceeded"), "{err}");
    }

    #[test]
    fn from_str_value_is_the_parsed_tree() {
        // `Value` takes the by-value entry; other types still decode.
        let v: Value = from_str(r#"{"a":[1,2]}"#).unwrap();
        assert_eq!(from_value::<Value>(v.clone()).unwrap(), v);
        let xs: Vec<u8> = from_value(v["a"].clone()).unwrap();
        assert_eq!(xs, [1, 2]);
    }
}
