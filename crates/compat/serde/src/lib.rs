//! Offline stand-in for `serde`.
//!
//! The build environment has no network access and no vendored registry,
//! so the workspace carries this shim instead of the real crate. The only
//! serde consumer in the tree is the local `serde_json` shim, which lets
//! the data model collapse from the Serializer/Deserializer visitor
//! architecture to two small traits:
//!
//! * [`Serialize::stream`] describes a value as a sequence of events on
//!   a [`Sink`] — the shim's counterpart of real serde's one method,
//!   `Serialize::serialize<S: Serializer>`, and the one method an impl
//!   writes. The text sink lives in the `serde_json` shim;
//!   [`Serialize::to_value`] runs the same description into the
//!   tree-building sink [`ValueBuilder`] ([`build_value`]), so a type's
//!   tree and its text cannot disagree. Only [`Value`] overrides it, as a
//!   clone.
//! * [`Deserialize::from_value`] reads a [`Value`] back.
//!   [`Deserialize::from_value_owned`] consumes the tree instead of
//!   borrowing it; only `Value` overrides it (by returning its argument),
//!   which makes `serde_json::from_str::<Value>` a parse with no second
//!   copy.
//!
//! The derive macros (re-exported from the local `serde_derive`) stream
//! the same external JSON shapes real serde would: named structs as
//! objects, newtype structs transparently, enums externally tagged.
//! Their one supported attribute is the field attribute `default`
//! (`#[serde(default)]`, `#[serde(default = "path")]`); any other is a
//! compile error. Code written against this shim therefore reads and
//! writes the same JSON it would with real serde, and swapping the real
//! crates back in (by pointing the workspace dependencies at crates.io)
//! requires re-deriving and rewriting the hand-written `stream` bodies
//! as `serialize` bodies (`begin_object` / `field` / `end_object` map
//! onto `serialize_struct` / `serialize_field` / `end` one for one) — no
//! call-site changes.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A JSON-shaped value: the interchange point between `Serialize`,
/// `Deserialize` and the `serde_json` shim.
#[derive(Clone, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (all integers that fit are normalized here).
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Numeric-aware equality: `Int(5) == UInt(5) == Float(5.0)`.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! value_num_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
    )*};
}

value_num_eq!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// The canonical `null` value, used for out-of-bounds indexing.
pub const NULL: Value = Value::Null;

impl Value {
    /// The value as an object's entries, if it is one.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a u64, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an i64, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member lookup (None on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| obj_get(o, key))
    }
}

/// Look up a key in object entries.
pub fn obj_get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// Deserialization error.
#[derive(Clone, Debug)]
pub struct DeError(pub String);

impl DeError {
    /// An error with the given message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Receiver of the events a [`Serialize::stream`] emits: scalars, and
/// `begin_*` / `end_*` brackets around array elements and around
/// `key` + value pairs. Callers must emit well-formed sequences (one
/// value per key, every bracket closed); sinks do not check.
pub trait Sink {
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// A signed integer.
    fn int(&mut self, i: i64);
    /// An unsigned integer.
    fn uint(&mut self, u: u64);
    /// A float (non-finite values render as `null` in text).
    fn float(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// One string given in pieces, as if they were concatenated. The
    /// default concatenates; a text writer can escape them in place.
    fn str_pieces(&mut self, pieces: &[&str]) {
        self.str(&pieces.concat());
    }
    /// Open an array; its elements follow as values.
    fn begin_array(&mut self);
    /// Close the innermost array.
    fn end_array(&mut self);
    /// Open an object; its entries follow as `key` + value pairs.
    fn begin_object(&mut self);
    /// The key of the next object entry.
    fn key(&mut self, k: &str);
    /// Close the innermost object.
    fn end_object(&mut self);

    /// One object entry: `key`, then `value` streamed.
    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T)
    where
        Self: Sized,
    {
        self.key(key);
        value.stream(self);
    }

    /// A whole array of streamed items.
    fn seq<I>(&mut self, items: I)
    where
        Self: Sized,
        I: IntoIterator,
        I::Item: Serialize,
    {
        self.begin_array();
        for item in items {
            item.stream(self);
        }
        self.end_array();
    }
}

/// The tree-building [`Sink`]: collects events into a [`Value`].
#[derive(Default)]
pub struct ValueBuilder {
    /// Open containers, innermost last. An open object's last entry is
    /// the one its latest `key` opened, `null` until its value arrives.
    stack: Vec<Value>,
    done: Option<Value>,
}

impl ValueBuilder {
    /// The value built from the events so far (`Null` if none arrived).
    pub fn finish(self) -> Value {
        self.done.unwrap_or(Value::Null)
    }

    fn put(&mut self, v: Value) {
        match self.stack.last_mut() {
            Some(Value::Array(items)) => items.push(v),
            Some(Value::Object(entries)) => {
                entries
                    .last_mut()
                    .expect("a key precedes every object value")
                    .1 = v;
            }
            _ => self.done = Some(v),
        }
    }

    fn close(&mut self) {
        let v = self.stack.pop().expect("end matches an open container");
        self.put(v);
    }
}

impl Sink for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn int(&mut self, i: i64) {
        self.put(Value::Int(i));
    }
    fn uint(&mut self, u: u64) {
        // Same normalisation as the parser and the integer impls.
        self.put(match i64::try_from(u) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::UInt(u),
        });
    }
    fn float(&mut self, f: f64) {
        self.put(Value::Float(f));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    fn begin_array(&mut self) {
        self.stack.push(Value::Array(Vec::new()));
    }
    fn end_array(&mut self) {
        self.close();
    }
    fn begin_object(&mut self) {
        self.stack.push(Value::Object(Vec::new()));
    }
    fn key(&mut self, k: &str) {
        let Some(Value::Object(entries)) = self.stack.last_mut() else {
            panic!("a key belongs to an open object");
        };
        entries.push((k.to_string(), Value::Null));
    }
    fn end_object(&mut self) {
        self.close();
    }
}

/// `x`'s [`Serialize::stream`] run into a [`ValueBuilder`]: the tree
/// form of any type, which describes itself once, as a stream.
pub fn build_value<T: Serialize + ?Sized>(x: &T) -> Value {
    let mut b = ValueBuilder::default();
    x.stream(&mut b);
    b.finish()
}

/// Describe a value as events on a [`Sink`]; its tree form is derived
/// from that one description.
pub trait Serialize {
    /// Emit `self` as events on `out`.
    fn stream<S: Sink>(&self, out: &mut S);

    /// The value form of `self`: [`build_value`]`(self)`.
    fn to_value(&self) -> Value {
        build_value(self)
    }
}

/// Rebuild from a [`Value`].
pub trait Deserialize: Sized {
    /// Parse from the value form.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Parse from a value form the caller no longer needs.
    fn from_value_owned(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }
}

// ---------------------------------------------------------------------
// Implementations for primitives and std containers
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn stream<S: Sink>(&self, out: &mut S) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.int(*i),
            Value::UInt(u) => out.uint(*u),
            Value::Float(f) => out.float(*f),
            Value::Str(s) => out.str(s),
            Value::Array(items) => out.seq(items),
            Value::Object(entries) => {
                out.begin_object();
                for (k, v) in entries {
                    out.field(k, v);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_value_owned(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

impl Serialize for bool {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::custom("expected bool"))
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn stream<S: Sink>(&self, out: &mut S) {
                if (*self as i128) < 0 {
                    out.int(*self as i64)
                } else {
                    out.uint(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let err = || DeError::custom(concat!("expected ", stringify!($t)));
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| err()),
                    Value::UInt(u) => <$t>::try_from(*u).map_err(|_| err()),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    _ => Err(err()),
                }
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn stream<S: Sink>(&self, out: &mut S) {
                out.float(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                v.as_f64().map(|f| f as $t).ok_or_else(|| DeError::custom("expected number"))
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for String {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::custom("expected string"))
    }
}

impl Serialize for str {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn stream<S: Sink>(&self, out: &mut S) {
        (**self).stream(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn stream<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.null(),
            Some(x) => x.stream(out),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn stream<S: Sink>(&self, out: &mut S) {
        (**self).stream(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.seq(self);
    }
}

/// A map key: serialized as a JSON object key string. Integer-like keys
/// (e.g. id newtypes) serialize as their decimal form, the same behavior
/// real `serde_json` has for integer-keyed maps.
fn key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key {other:?}"),
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn stream<S: Sink>(&self, out: &mut S) {
        out.begin_object();
        for (k, v) in self {
            out.field(&key_to_string(&k.to_value()), v);
        }
        out.end_object();
    }
}

/// Each key is offered to `K` as the string it is in the text.
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::custom("expected object"))?
            .iter()
            .map(|(k, val)| Ok((K::from_value(&Value::Str(k.clone()))?, V::from_value(val)?)))
            .collect()
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn stream<S: Sink>(&self, out: &mut S) {
                out.begin_array();
                $(self.$n.stream(out);)+
                out.end_array();
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}
