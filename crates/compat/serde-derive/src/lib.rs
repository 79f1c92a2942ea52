//! Offline stand-in for `serde_derive`.
//!
//! The real serde data model (Serializer/Deserializer visitors) is far
//! larger than this workspace needs: the only serde consumer here is the
//! local `serde_json` shim. The local `serde` crate therefore defines a
//! streaming `Serialize::stream` (events on a `serde::Sink`) and a
//! value-based `Deserialize::from_value`, and this proc-macro derives
//! them for the container shapes the workspace actually uses. A derived
//! `stream` emits its events directly; no tree is built on the way.
//!
//! * structs with named fields — serialized as JSON objects; field
//!   attributes `#[serde(skip)]`, `#[serde(default)]` and
//!   `#[serde(default = "path")]` are honored;
//! * newtype and tuple structs — serialized as the inner value / an array;
//! * enums — externally tagged exactly like real serde: unit variants as
//!   `"Variant"`, newtype variants as `{"Variant": value}`, tuple variants
//!   as `{"Variant": [..]}`, struct variants as `{"Variant": {..}}`;
//! * the container attributes `#[serde(try_from = "T", into = "T")]`.
//!
//! Parsing is done directly over the `proc_macro::TokenStream` (no `syn`
//! in the tree); code is generated as source text. Unsupported shapes
//! (generic containers, other serde attributes) produce a compile error
//! naming the construct, so drift is caught loudly rather than silently.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let item = match parse_item(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let src = match mode {
        Mode::Serialize => gen_serialize(&item),
        Mode::Deserialize => gen_deserialize(&item),
    };
    src.parse()
        .unwrap_or_else(|e| compile_error(&format!("serde_derive generated invalid code: {e}")))
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({:?});", msg).parse().unwrap()
}

// ---------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------

struct Item {
    name: String,
    /// `try_from = "T"` container attribute.
    try_from: Option<String>,
    /// `into = "T"` container attribute.
    into: Option<String>,
    kind: Kind,
}

enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

enum Fields {
    Unit,
    /// Tuple fields (only arity matters; attrs unsupported on these).
    Tuple(usize),
    Named(Vec<Field>),
}

struct Field {
    name: String,
    skip: bool,
    /// `None`: required; `Some(None)`: `#[serde(default)]`;
    /// `Some(Some(path))`: `#[serde(default = "path")]`.
    default: Option<Option<String>>,
}

struct Variant {
    name: String,
    fields: Fields,
}

// ---------------------------------------------------------------------
// Token-level parsing
// ---------------------------------------------------------------------

/// Serde attribute contents gathered from `#[serde(...)]` groups.
#[derive(Default)]
struct SerdeAttrs {
    skip: bool,
    default: Option<Option<String>>,
    try_from: Option<String>,
    into: Option<String>,
}

fn parse_serde_attr(body: &str, out: &mut SerdeAttrs) -> Result<(), String> {
    // body is the text inside `serde(...)`, e.g. `default = "RoutePred::tru"`.
    for part in split_top_level(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if part == "skip" || part == "skip_serializing" || part == "skip_deserializing" {
            out.skip = true;
        } else if part == "default" {
            out.default = Some(None);
        } else if let Some(rest) = part.strip_prefix("default") {
            let path = parse_eq_string(rest)
                .ok_or_else(|| format!("unsupported serde attribute `{part}`"))?;
            out.default = Some(Some(path));
        } else if let Some(rest) = part.strip_prefix("try_from") {
            out.try_from = Some(
                parse_eq_string(rest)
                    .ok_or_else(|| format!("unsupported serde attribute `{part}`"))?,
            );
        } else if let Some(rest) = part.strip_prefix("into") {
            out.into = Some(
                parse_eq_string(rest)
                    .ok_or_else(|| format!("unsupported serde attribute `{part}`"))?,
            );
        } else {
            return Err(format!("unsupported serde attribute `{part}`"));
        }
    }
    Ok(())
}

/// Split on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// Parse `= "text"` (with arbitrary spacing) and return `text`.
fn parse_eq_string(s: &str) -> Option<String> {
    let s = s.trim();
    let s = s.strip_prefix('=')?.trim();
    let s = s.strip_prefix('"')?;
    let s = s.strip_suffix('"')?;
    Some(s.to_string())
}

/// Collect leading attributes from a token cursor, returning accumulated
/// serde attrs. Non-serde attributes (doc comments etc.) are skipped.
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> Result<SerdeAttrs, String> {
    let mut attrs = SerdeAttrs::default();
    while *pos < tokens.len() {
        match &tokens[*pos] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                let Some(TokenTree::Group(g)) = tokens.get(*pos + 1) else {
                    return Err("malformed attribute".into());
                };
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let Some(TokenTree::Ident(id)) = inner.first() {
                    if id.to_string() == "serde" {
                        if let Some(TokenTree::Group(args)) = inner.get(1) {
                            parse_serde_attr(&args.stream().to_string(), &mut attrs)?;
                        }
                    }
                }
                *pos += 2;
            }
            _ => break,
        }
    }
    Ok(attrs)
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], pos: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*pos) {
        if id.to_string() == "pub" {
            *pos += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *pos += 1;
                }
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let container = take_attrs(&tokens, &mut pos)?;
    skip_vis(&tokens, &mut pos);

    let is_enum = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => false,
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => true,
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    pos += 1;
    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected container name, found {other:?}")),
    };
    pos += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic container `{name}` is not supported by the serde shim"
            ));
        }
    }

    let kind = if is_enum {
        let Some(TokenTree::Group(body)) = tokens.get(pos) else {
            return Err("expected enum body".into());
        };
        Kind::Enum(parse_variants(body.stream())?)
    } else {
        match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Struct(Fields::Named(parse_named_fields(g.stream())?))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Struct(Fields::Tuple(count_tuple_fields(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::Struct(Fields::Unit),
            other => return Err(format!("unsupported struct body: {other:?}")),
        }
    };

    Ok(Item {
        name,
        try_from: container.try_from,
        into: container.into,
        kind,
    })
}

/// Advance past a type, tracking `<...>` nesting, stopping at a
/// top-level `,` (which is consumed) or end of input.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut depth: i32 = 0;
    while *pos < tokens.len() {
        match &tokens[*pos] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *pos += 1;
                return;
            }
            _ => {}
        }
        *pos += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < tokens.len() {
        let attrs = take_attrs(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        skip_vis(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        skip_type(&tokens, &mut pos);
        out.push(Field {
            name,
            skip: attrs.skip,
            default: attrs.default,
        });
    }
    Ok(out)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut pos = 0;
    let mut n = 0;
    while pos < tokens.len() {
        // Tuple fields may carry a visibility; attrs on tuple fields are
        // not supported (none exist in this workspace).
        skip_vis(&tokens, &mut pos);
        skip_type(&tokens, &mut pos);
        n += 1;
    }
    n
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < tokens.len() {
        let _attrs = take_attrs(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        pos += 1;
        let fields = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            _ => Fields::Unit,
        };
        // Consume the separating comma, if any.
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == ',' {
                pos += 1;
            }
        }
        out.push(Variant { name, fields });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match (&item.into, &item.kind) {
        (Some(into), _) => format!(
            "let bridged: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             ::serde::Serialize::stream(&bridged, out)"
        ),
        (None, Kind::Struct(Fields::Unit)) => "::serde::Sink::null(out)".to_string(),
        (None, Kind::Struct(Fields::Tuple(1))) => {
            "::serde::Serialize::stream(&self.0, out)".to_string()
        }
        (None, Kind::Struct(Fields::Tuple(n))) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            stream_array(&binds)
        }
        (None, Kind::Struct(Fields::Named(fields))) => stream_object(
            serialized(fields).map(|f| (f, format!("&self.{f}"))),
        ),
        (None, Kind::Enum(variants)) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, value) = match &v.fields {
                    Fields::Unit => {
                        let arm = format!("{name}::{vn} => ::serde::Sink::str(out, {vn:?}),\n");
                        arms.push_str(&arm);
                        continue;
                    }
                    Fields::Tuple(1) => (
                        "(f0)".to_string(),
                        "::serde::Serialize::stream(f0, out);".to_string(),
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        (format!("({})", binds.join(", ")), stream_array(&binds))
                    }
                    Fields::Named(fields) => {
                        let binds: String = serialized(fields).map(|f| format!("{f}, ")).collect();
                        let value = stream_object(serialized(fields).map(|f| (f, f.to_string())));
                        (format!(" {{ {binds}.. }}"), value)
                    }
                };
                // Externally tagged: `{"Variant": value}`.
                arms.push_str(&format!(
                    "{name}::{vn}{pattern} => {{\n\
                     ::serde::Sink::begin_object(out);\n\
                     ::serde::Sink::key(out, {vn:?});\n\
                     {value}\n\
                     ::serde::Sink::end_object(out);\n}}\n"
                ));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn stream<__S: ::serde::Sink>(&self, out: &mut __S) {{\n{body}\n}}\n}}"
    )
}

/// Events streaming the places `binds` (each a `&T` expression) as an
/// array.
fn stream_array(binds: &[String]) -> String {
    let mut s = String::from("::serde::Sink::begin_array(out);\n");
    for b in binds {
        s.push_str(&format!("::serde::Serialize::stream({b}, out);\n"));
    }
    s.push_str("::serde::Sink::end_array(out);");
    s
}

/// The names of the fields a value streams: all but `#[serde(skip)]`.
fn serialized(fields: &[Field]) -> impl Iterator<Item = &str> {
    fields.iter().filter(|f| !f.skip).map(|f| f.name.as_str())
}

/// Events streaming `(key, bind)` entries as an object, each bind a
/// `&T` expression.
fn stream_object<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut s = String::from("::serde::Sink::begin_object(out);\n");
    for (key, b) in entries {
        s.push_str(&format!("::serde::Sink::field(out, {key:?}, {b});\n"));
    }
    s.push_str("::serde::Sink::end_object(out);");
    s
}

/// Code producing field `f` of container `container` from object
/// entries bound as `fields` (a `&[(String, Value)]`).
fn named_field_expr(container: &str, f: &Field) -> String {
    if f.skip {
        return format!("{}: ::core::default::Default::default(),\n", f.name);
    }
    let missing = match &f.default {
        None => format!(
            "return Err(::serde::DeError::custom(::std::format!(\
             \"missing field `{}` for {}\")))",
            f.name, container
        ),
        Some(None) => "::core::default::Default::default()".to_string(),
        Some(Some(path)) => format!("{path}()"),
    };
    format!(
        "{}: match ::serde::obj_get(fields, {:?}) {{\n\
         Some(v) => ::serde::Deserialize::from_value(v)?,\n\
         None => {missing},\n\
         }},\n",
        f.name, f.name
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    if let Some(try_from) = &item.try_from {
        return format!(
            "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::DeError> {{\n\
             let bridged: {try_from} = ::serde::Deserialize::from_value(v)?;\n\
             <Self as ::core::convert::TryFrom<{try_from}>>::try_from(bridged)\n\
             .map_err(|e| ::serde::DeError::custom(::std::format!(\"{{e}}\")))\n\
             }}\n}}"
        );
    }
    let body = match &item.kind {
        Kind::Struct(Fields::Unit) => format!("Ok({name})"),
        Kind::Struct(Fields::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::Struct(Fields::Tuple(n)) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                .collect();
            format!(
                "let arr = v.as_array().ok_or_else(|| ::serde::DeError::custom(\
                 ::std::format!(\"expected array for {name}\")))?;\n\
                 if arr.len() != {n} {{ return Err(::serde::DeError::custom(\
                 ::std::format!(\"expected {n} elements for {name}\"))); }}\n\
                 Ok({name}({}))",
                elems.join(", ")
            )
        }
        Kind::Struct(Fields::Named(fields)) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&named_field_expr(name, f));
            }
            format!(
                "let fields = v.as_object().ok_or_else(|| ::serde::DeError::custom(\
                 ::std::format!(\"expected object for {name}\")))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for vr in variants {
                let vn = &vr.name;
                match &vr.fields {
                    Fields::Unit => {
                        unit_arms.push_str(&format!("{vn:?} => Ok({name}::{vn}),\n"));
                        // Also accept `{"Variant": null}`.
                        tagged_arms.push_str(&format!("{vn:?} => Ok({name}::{vn}),\n"));
                    }
                    Fields::Tuple(1) => tagged_arms.push_str(&format!(
                        "{vn:?} => Ok({name}::{vn}(::serde::Deserialize::from_value(val)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{vn:?} => {{\n\
                             let arr = val.as_array().ok_or_else(|| ::serde::DeError::custom(\
                             ::std::format!(\"expected array for {name}::{vn}\")))?;\n\
                             if arr.len() != {n} {{ return Err(::serde::DeError::custom(\
                             ::std::format!(\"expected {n} elements for {name}::{vn}\"))); }}\n\
                             Ok({name}::{vn}({}))\n}},\n",
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&named_field_expr(&format!("{name}::{vn}"), f));
                        }
                        tagged_arms.push_str(&format!(
                            "{vn:?} => {{\n\
                             let fields = val.as_object().ok_or_else(|| ::serde::DeError::custom(\
                             ::std::format!(\"expected object for {name}::{vn}\")))?;\n\
                             Ok({name}::{vn} {{\n{inits}}})\n}},\n"
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n{unit_arms}\
                 other => Err(::serde::DeError::custom(::std::format!(\
                 \"unknown variant `{{other}}` for {name}\"))),\n\
                 }},\n\
                 ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                 let (tag, val) = &entries[0];\n\
                 let _ = val;\n\
                 match tag.as_str() {{\n{tagged_arms}\
                 other => Err(::serde::DeError::custom(::std::format!(\
                 \"unknown variant `{{other}}` for {name}\"))),\n\
                 }}\n}},\n\
                 _ => Err(::serde::DeError::custom(::std::format!(\
                 \"expected string or single-key object for enum {name}\"))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         #[allow(unused_variables)]\n\
         fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}"
    )
}
