//! A minimal JSON document builder and parser.
//!
//! The workspace builds offline with no serialization framework, so
//! structured results are serialized by hand. This covers exactly what
//! the experiment-spec and red-team layers need: objects, arrays, strings,
//! numbers, and booleans, rendered with stable key order, plus a strict
//! parser for round-tripping spec files and results.
//!
//! Records that must come back exactly — cache payloads, heatmaps, wire
//! events — go through [`JsonCodec`]: the one typed reader every decoder
//! in the workspace uses ([`Json::field`], range-checked integers, the
//! `null` → NaN float rule, [`Hex`] for full-width `u64`s), with errors
//! that name the dotted path of the offending value. A flat record
//! declares its field list once with [`json_record!`](crate::json_record)
//! and gets both directions from it.
//!
//! All reading goes through one tokenizer, the pull [`Reader`]:
//! [`Json::parse`] reads one value into a tree with it, and
//! [`JsonCodec::read`] reads a record straight from the text, matching
//! keys as slices borrowed from the document and building no tree
//! ([`read_document`] reads a whole document). Both paths accept the same
//! documents and report the same errors (the read law on [`JsonCodec`]).
//!
//! Cost: reading and writing are both linear in the document. The reader
//! keeps the input `&str`, which is valid UTF-8 already, and takes the
//! text between two escapes of a string as one run, borrowed when the
//! string holds no escape; the writer does the same in reverse and writes
//! keys and numbers straight into its output, spelling an integral number
//! below 2^53 with integer formatting (the text `{n}` gives it, without
//! the shortest-float search).
//! The reader likewise accumulates a number token of at most 15 digits, no
//! fraction and no exponent as an integer, and hands every other token to
//! `str::parse::<f64>`.
//! The reader recurses once per array or object level and accepts at most
//! 128 of them, so a hostile line of brackets is an error at its offset,
//! not a stack overflow.

use std::borrow::Cow;
use std::fmt::Write;

/// Deepest array / object nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes nests a handful of levels.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value. Non-finite floats (±∞, NaN — e.g. the
    /// min/max of an empty [`crate::stats::RunningStats`]) have no JSON
    /// representation and become `null` here, so a document built through
    /// this constructor always round-trips through [`Json::parse`].
    pub fn num(n: impl Into<f64>) -> Json {
        let n = n.into();
        if n.is_finite() {
            Json::Num(n)
        } else {
            Json::Null
        }
    }

    /// Builds a number from a `u64` counter (exact for counts < 2^53;
    /// larger values — e.g. seeds — should use [`Json::hex`]).
    pub fn count(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Renders a `u64` as a hex string, for values (seeds, addresses) that
    /// must survive the round-trip exactly.
    pub fn hex(n: u64) -> Json {
        Json::Str(format!("{n:#x}"))
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes the required member `key` of an object.
    pub fn field<T: JsonCodec>(&self, key: &str) -> Result<T, DecodeError> {
        self.opt_field(key)?.ok_or_else(|| DecodeError::new("missing field").at(key))
    }

    /// Decodes the member `key` of an object if it is there.
    pub fn opt_field<T: JsonCodec>(&self, key: &str) -> Result<Option<T>, DecodeError> {
        let Json::Obj(_) = self else { return mismatch("an object", self) };
        self.get(key).map(|v| T::decode(v).map_err(|e| e.at(key))).transpose()
    }

    /// Serializes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends [`Json::render`]'s bytes to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if is_exact_int(*n) => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Strict: exactly one value, nothing but
    /// whitespace after it, no raw control characters inside strings, no
    /// nesting deeper than 128 arrays or objects. Errors carry a byte
    /// offset.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(input);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }
}

/// 2^53: below it in magnitude every integer is an `f64` and back.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Whether `n` is a count the writer spells with integer formatting, which
/// skips the shortest-float search `{n}` runs on an `f64` and gives the
/// same text: integral, below 2^53 in magnitude, and not `-0.0` (which
/// is `-0`).
fn is_exact_int(n: f64) -> bool {
    n.abs() < EXACT_INT && n == (n as i64) as f64 && (n != 0.0 || n.is_sign_positive())
}

/// Appends `s` as a JSON string literal, the bytes `Json::str(s)` renders
/// to. Only `"`, `\` and bytes below 0x20
/// are escaped; all are ASCII, so the text between two of them starts and
/// ends on char boundaries and is copied as one run.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON parse failure at a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Why a document did not decode: what is wrong, and the dotted path of
/// the value it is wrong with (`cells[3].probe.shape.kind`). Built only
/// when decoding fails; every enclosing decoder prefixes its own segment
/// with [`DecodeError::at`] as the error travels outward.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Dotted path from the document root; empty for the root itself.
    pub path: String,
    /// What is wrong with the value there.
    pub message: String,
}

impl DecodeError {
    /// An error about the value being decoded.
    pub fn new(message: impl Into<String>) -> Self {
        DecodeError { path: String::new(), message: message.into() }
    }

    /// The same error, seen from one level further out.
    pub fn at(mut self, segment: impl std::fmt::Display) -> Self {
        let joint = if self.path.is_empty() || self.path.starts_with('[') { "" } else { "." };
        self.path = format!("{segment}{joint}{}", self.path);
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.path.as_str() {
            "" => f.write_str(&self.message),
            path => write!(f, "`{path}`: {}", self.message),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A syntax error met while reading a document for a codec.
impl From<JsonError> for DecodeError {
    fn from(e: JsonError) -> Self {
        DecodeError::new(e.to_string())
    }
}

/// An exact JSON wire form: `decode(&x.encode()) == x`, and re-encoding
/// renders the same bytes ([`Json::render`] writes floats in shortest
/// round-trip form). Distinct from the lossy, derived-column `to_json`
/// export views some of the same types carry.
///
/// The read law: for every well-formed document `text`,
/// [`read_document`]`::<T>(text)` equals `T::decode(&Json::parse(text)?)`
/// — the same value, or the same [`DecodeError`], path and message — and
/// a document that does not parse is rejected by both. Unknown keys are
/// skipped, the first of two duplicate keys wins, a count may be written
/// `5.0`, and `null` is NaN for an `f64`, on both paths.
/// [`assert_codec_laws`] checks it.
pub trait JsonCodec: Sized {
    /// The value's wire form.
    fn encode(&self) -> Json;
    /// Reads a wire form back, rejecting anything `encode` cannot have
    /// written for this type.
    fn decode(j: &Json) -> Result<Self, DecodeError>;
    /// Reads the next value straight from the document text. The default
    /// builds the value's tree and decodes it, so a hand-written codec
    /// needs no `read` of its own; `json_record!` and the number, string,
    /// container and [`Hex`] codecs walk the text instead (`bool` keeps
    /// the default: its tree is one value on the stack).
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Self::decode(&r.value()?)
    }
}

fn mismatch<T>(expected: &str, got: &Json) -> Result<T, DecodeError> {
    Err(DecodeError::new(format!("expected {expected}, got {}", got.render())))
}

macro_rules! integer_codec {
    ($($t:ty),*) => {$(
        impl JsonCodec for $t {
            fn encode(&self) -> Json {
                Json::count(*self as u64)
            }
            fn decode(j: &Json) -> Result<Self, DecodeError> {
                // Counts travel as f64, exact only up to 2^53: nothing
                // larger can have been written faithfully ([`Hex`] carries
                // full-width values).
                let max = (<$t>::MAX as f64).min(EXACT_INT);
                match j {
                    Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= max => Ok(*n as $t),
                    other => mismatch(&format!("an integer in 0..={max}"), other),
                }
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                // A token that starts with a digit is not negative, so
                // `decode`'s test is "integral and at most `max`".
                if let Some(b'0'..=b'9') = r.peek() {
                    let n = r.number()?;
                    if n <= (<$t>::MAX as f64).min(EXACT_INT) && (n as u64) as f64 == n {
                        return Ok(n as $t);
                    }
                    return Self::decode(&Json::Num(n));
                }
                Self::decode(&r.value()?)
            }
        }
    )*};
}
integer_codec!(u8, u16, u32, u64, usize);

impl JsonCodec for f64 {
    fn encode(&self) -> Json {
        Json::num(*self)
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Num(n) => Ok(*n),
            // `Json::num` writes non-finite floats as null; read them back
            // as NaN so re-rendering stays byte-identical.
            Json::Null => Ok(f64::NAN),
            other => mismatch("a number", other),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.peek() {
            Some(b'-' | b'0'..=b'9') => Ok(r.number()?),
            _ => Self::decode(&r.value()?),
        }
    }
}

impl JsonCodec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => mismatch("a boolean", other),
        }
    }
}

impl JsonCodec for String {
    fn encode(&self) -> Json {
        Json::str(self)
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            other => mismatch("a string", other),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.peek() {
            Some(b'"') => Ok(r.string()?.into_owned()),
            _ => Self::decode(&r.value()?),
        }
    }
}

/// `null` is `None`.
impl<T: JsonCodec> JsonCodec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Null => Ok(None),
            value => T::decode(value).map(Some),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.peek() {
            Some(b'n') => Self::decode(&r.value()?),
            _ => T::read(r).map(Some),
        }
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let Json::Arr(items) = j else { return mismatch("an array", j) };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::decode(item).map_err(|e| e.at(format_args!("[{i}]"))))
            .collect()
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if r.peek() != Some(b'[') {
            return Self::decode(&r.value()?);
        }
        let mut out = Vec::new();
        r.items(|r, i| {
            out.push(T::read(r).map_err(|e| e.at(format_args!("[{i}]")))?);
            Ok::<(), DecodeError>(())
        })?;
        Ok(out)
    }
}

/// A pair is a two-element array.
impl<A: JsonCodec, B: JsonCodec> JsonCodec for (A, B) {
    fn encode(&self) -> Json {
        Json::Arr(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Arr(pair) if pair.len() == 2 => Ok((
                A::decode(&pair[0]).map_err(|e| e.at("[0]"))?,
                B::decode(&pair[1]).map_err(|e| e.at("[1]"))?,
            )),
            other => mismatch("a two-element array", other),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.or_decode(
            |r| {
                let mut pair = (None, None);
                r.items(|r, i| {
                    match i {
                        0 => pair.0 = Some(A::read(r)?),
                        1 => pair.1 = Some(B::read(r)?),
                        _ => return Err(DecodeError::new("more than two elements")),
                    }
                    Ok(())
                })?;
                pair.0.zip(pair.1).ok_or_else(|| DecodeError::new("fewer than two elements"))
            },
            Self::decode,
        )
    }
}

/// Parses the text form of a full-width `u64`: `0x`-prefixed hex (what
/// [`Json::hex`] writes) or plain decimal.
pub fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// A `u64` that must survive the round-trip exactly (seeds, salts):
/// written as a [`Json::hex`] string, read back from one — or from a
/// plain count, which hand-written documents use for small values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex(pub u64);

impl JsonCodec for Hex {
    fn encode(&self) -> Json {
        Json::hex(self.0)
    }
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Str(s) => match parse_u64(s) {
                Some(n) => Ok(Hex(n)),
                None => mismatch("a hex string", j),
            },
            count => u64::decode(count).map(Hex),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        if r.peek() != Some(b'"') {
            return u64::read(r).map(Hex);
        }
        let text = r.string()?;
        match parse_u64(&text) {
            Some(n) => Ok(Hex(n)),
            None => mismatch("a hex string", &Json::Str(text.into_owned())),
        }
    }
}

/// The laws every [`JsonCodec`] record obeys, asserted on one value (each
/// crate's seeded property test feeds it random ones): decode inverts
/// encode, re-encoding renders the same bytes, reading the rendered text
/// gives what decoding its tree gives, and a document with any one key
/// missing or wrong-typed is rejected by both with that key leading the
/// path. A document with a key doubled (a wrong-typed second copy) or an
/// unknown key added reads as it decodes.
pub fn assert_codec_laws<T: JsonCodec + PartialEq + std::fmt::Debug>(value: &T) {
    let doc = value.encode();
    let text = doc.render();
    let back = T::decode(&doc).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(&back, value);
    assert_eq!(back.encode().render(), text, "re-encoding must be byte-identical");
    assert_eq!(read_document::<T>(&text).as_ref(), Ok(value), "read must equal decode: {text}");
    let Json::Obj(pairs) = doc else { panic!("records encode as objects: {text}") };
    let read_as_decoded = |doc: Json| {
        let text = doc.render();
        let decoded = T::decode(&doc);
        assert_eq!(read_document::<T>(&text), decoded, "read must equal decode: {text}");
        decoded
    };
    for (i, (key, _)) in pairs.iter().enumerate() {
        let mut missing = pairs.clone();
        missing.remove(i);
        let mut wrong_typed = pairs.clone();
        wrong_typed[i].1 = Json::Obj(Vec::new());
        for broken in [missing, wrong_typed] {
            let err = read_as_decoded(Json::Obj(broken)).expect_err(key);
            assert!(err.path.starts_with(key.as_str()), "`{key}` broken, error names {err}");
        }
        let mut doubled = pairs.clone();
        doubled.insert(i + 1, (key.clone(), Json::Obj(Vec::new())));
        doubled.insert(i, ("unknown".to_string(), Json::Arr(vec![Json::obj([])])));
        let _ = read_as_decoded(Json::Obj(doubled));
    }
}

/// Implements [`JsonCodec`] for a struct as a flat JSON object, both
/// directions from one field list: each field is written under its own
/// name through its type's codec (`field as Wrapper` routes it through a
/// tuple-struct wrapper such as [`Hex`] instead), and read back the same
/// way. The list is checked against the struct — a field missing from it
/// does not compile.
///
/// ```
/// use sim_core::json::{Hex, JsonCodec};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     seed: u64,
///     score: f64,
/// }
/// sim_core::json_record!(Probe { seed as Hex, score });
///
/// let p = Probe { seed: u64::MAX, score: 1.5 };
/// assert_eq!(p.encode().render(), r#"{"seed":"0xffffffffffffffff","score":1.5}"#);
/// assert_eq!(Probe::decode(&p.encode()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($field:ident $(as $wire:ident)?),* $(,)? }) => {
        impl $crate::json::JsonCodec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((stringify!($field), $crate::json_record!(@encode self.$field $(, $wire)?))),*
                ])
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, $crate::json::DecodeError> {
                Ok(Self { $($field: $crate::json_record!(@decode j, $field $(, $wire)?)),* })
            }
            // Members in any order, the first of a duplicate key kept,
            // unknown keys skipped; on any error the record is decoded
            // from its tree instead, for `decode`'s own error.
            fn read(
                r: &mut $crate::json::Reader<'_>,
            ) -> Result<Self, $crate::json::DecodeError> {
                r.or_decode(
                    |r| {
                        $(let mut $field = None;)*
                        r.members(|r, key| {
                            $(if $field.is_none() && key == stringify!($field) {
                                $field = Some($crate::json_record!(@read r $(, $wire)?));
                                return Ok(true);
                            })*
                            Ok::<bool, $crate::json::DecodeError>(false)
                        })?;
                        let missing = || $crate::json::DecodeError::new("missing field");
                        Ok(Self { $($field: $field.ok_or_else(missing)?),* })
                    },
                    <Self as $crate::json::JsonCodec>::decode,
                )
            }
        }
    };
    (@encode $value:expr) => { $crate::json::JsonCodec::encode(&$value) };
    (@encode $value:expr, $wire:ident) => { $crate::json::JsonCodec::encode(&$wire($value)) };
    (@decode $j:ident, $field:ident) => { $j.field(stringify!($field))? };
    (@decode $j:ident, $field:ident, $wire:ident) => { $j.field::<$wire>(stringify!($field))?.0 };
    (@read $r:ident) => { $crate::json::JsonCodec::read($r)? };
    (@read $r:ident, $wire:ident) => { <$wire as $crate::json::JsonCodec>::read($r)?.0 };
}

/// A pull reader over one JSON document's text, and the workspace's only
/// tokenizer: [`Json::parse`] is "read one value into a tree" on it, and
/// [`JsonCodec::read`] walks it without building one. Every strictness
/// rule lives here once: the 128-level depth bound, no raw control
/// characters in strings, the escapes, the 15-digit integer path and the
/// byte offsets of syntax errors.
///
/// Whitespace before a token is skipped by whoever looks at the token, so
/// a reader may sit on whitespace between values. Strings and keys come
/// back borrowed from the text unless they hold an escape.
///
/// ```
/// use sim_core::json::{DecodeError, Reader};
///
/// let mut r = Reader::new(r#" {"n": 3, "skip": [1, {"x": null}], "s": "aé"} "#);
/// let (mut n, mut s) = (0.0, String::new());
/// r.members(|r, key| {
///     match key.as_ref() {
///         "n" => n = r.number()?,
///         "s" => s = r.string()?.into_owned(),
///         _ => return Ok(false), // the reader skips the value
///     }
///     Ok::<bool, DecodeError>(true)
/// })
/// .unwrap();
/// r.finish().unwrap();
/// assert_eq!((n, s.as_str()), (3.0, "a\u{e9}"));
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0, depth: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: msg.into() }
    }

    /// The byte at the reader's position, whitespace included.
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the first byte of the next token
    /// without consuming it; `None` at the end of the text.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// Reads the next value into a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(|r, _| {
                    items.push(r.value()?);
                    Ok::<(), JsonError>(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.members(|r, key| {
                    let value = r.value()?;
                    pairs.push((key.into_owned(), value));
                    Ok::<bool, JsonError>(true)
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Steps over the next value, checking it as strictly as
    /// [`Reader::value`] does but building nothing (a string holding an
    /// escape is decoded and dropped).
    fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.items(|r, _| r.skip_value()),
            Some(b'{') => self.members(|_, _| Ok::<bool, JsonError>(false)),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            // A literal's tree is one value on the stack.
            _ => self.value().map(drop),
        }
    }

    /// Checks that nothing but whitespace follows: a document is exactly
    /// one value.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after the document")),
        }
    }

    /// Opens the array or object whose bracket `open` comes next, runs
    /// `body` inside it, and closes the level again whatever `body`
    /// returns.
    fn nested<E: From<JsonError>>(
        &mut self,
        open: u8,
        body: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.peek() != Some(open) {
            return Err(self.err(format!("expected '{}'", open as char)).into());
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")).into());
        }
        self.pos += 1;
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    /// Reads an array item by item: `each` gets the reader on the item and
    /// its index, and must consume the item.
    pub fn items<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Self, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        self.nested(b'[', |r| {
            if r.peek() == Some(b']') {
                r.pos += 1;
                return Ok(());
            }
            for i in 0.. {
                each(r, i)?;
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b']') => break,
                    _ => return Err(r.err("expected ',' or ']' in array").into()),
                }
            }
            r.pos += 1;
            Ok(())
        })
    }

    /// Reads an object member by member: `each` gets the reader on the
    /// value and the key, and returns whether it consumed the value; the
    /// reader skips a value it leaves.
    pub fn members<E: From<JsonError>>(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<bool, E>,
    ) -> Result<(), E> {
        self.nested(b'{', |r| {
            if r.peek() == Some(b'}') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                let key = r.string()?;
                r.peek();
                r.expect(b':')?;
                if !each(r, key)? {
                    r.skip_value()?;
                }
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(r.err("expected ',' or '}' in object").into()),
                }
            }
            r.pos += 1;
            Ok(())
        })
    }

    /// Reads a string, borrowed from the text unless it holds an escape.
    /// The input is valid UTF-8 and `"`, `\` and the control characters
    /// are ASCII, so the text between two of them is taken as one run,
    /// already validated.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.peek();
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let rest = &text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let chunk = &text[self.pos..self.pos + run];
            self.pos += run;
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(out) => Cow::Owned(out + chunk),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(chunk);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape whose letter is at `pos` and steps past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| self.err("\\u needs four hex digits"))?;
                let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                // Surrogate pairs are not needed for our specs; reject
                // rather than mis-decode.
                let c = char::from_u32(code).ok_or_else(|| self.err("non-scalar \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads a number. A token that is an optional `-` and 1–15
    /// digits with no fraction or exponent is accumulated as an integer
    /// while it is scanned: below 10^15 < 2^53 every such value is an
    /// `f64`, so this is the value `str::parse::<f64>` gives, `-0` and
    /// leading zeros included, without its general decimal algorithm.
    /// Every other token goes to `str::parse::<f64>`.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected a number"));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let digits = start + usize::from(negative);
        let mut end = digits;
        let mut n = 0u64;
        while let Some(&b) = bytes.get(end).filter(|b| b.is_ascii_digit()) {
            // Wrapping: past 15 digits the value is not used.
            n = n.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            end += 1;
        }
        self.pos = end;
        if (1..=15).contains(&(end - digits))
            && !matches!(self.byte(), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            let n = n as f64;
            return Ok(if negative { -n } else { n });
        }
        while matches!(self.byte(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>().map_err(|_| self.err(format!("bad number '{text}'")))
    }

    /// Runs the tree-free `read` on the next value; if it fails, reads
    /// that value again as a tree and returns what `decode` makes of it.
    /// A record's fast path may stop at the first problem it meets, in
    /// document order; this makes its error the one `decode` reports, in
    /// field order, and a value that is not well-formed fails here with
    /// its syntax error.
    pub fn or_decode<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
        decode: impl FnOnce(&Json) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        self.peek();
        let start = self.pos;
        read(self).or_else(|_| {
            self.pos = start;
            decode(&self.value()?)
        })
    }
}

/// Reads `text` as one `T` document: [`JsonCodec::read`], then nothing
/// but whitespace. Accepts exactly what `T::decode(&Json::parse(text)?)`
/// accepts, building no tree on the way for the codecs that read
/// directly.
pub fn read_document<T: JsonCodec>(text: &str) -> Result<T, DecodeError> {
    let mut r = Reader::new(text);
    let value = T::read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Escapes one CSV field (quotes it when it contains separators).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::stats::MemStats;
    use crate::telemetry::{
        MitigationKindTag, MitigationRecord, Probe, SlowdownPoint, SlowdownTrace, WindowSample,
    };

    /// A count the f64 wire form carries exactly (below 2^53).
    fn count(rng: &mut Xoshiro256) -> u64 {
        rng.next_u64() >> 11
    }

    fn counts(rng: &mut Xoshiro256) -> Vec<u64> {
        (0..rng.gen_range(4)).map(|_| count(rng)).collect()
    }

    fn window(rng: &mut Xoshiro256) -> WindowSample {
        // Every counter random, whatever counters `MemStats` has.
        let Json::Obj(counters) = MemStats::default().encode() else { unreachable!() };
        let mem = Json::Obj(counters.into_iter().map(|(k, _)| (k, count(rng).encode())).collect());
        WindowSample {
            index: count(rng),
            start: count(rng),
            end: count(rng),
            retired: counts(rng),
            core_cycles: counts(rng),
            mem: MemStats::decode(&mem).unwrap(),
        }
    }

    fn point(rng: &mut Xoshiro256, end: u64) -> SlowdownPoint {
        SlowdownPoint { index: count(rng), end, normalized_ipc: rng.gen_f64() }
    }

    fn mitigation(rng: &mut Xoshiro256) -> MitigationRecord {
        let kind = if rng.gen_bool(0.5) {
            MitigationKindTag::Sweep
        } else {
            MitigationKindTag::VictimRefresh {
                row: rng.next_u64() as u32,
                blast_radius: rng.next_u64() as u8,
            }
        };
        let channel = rng.next_u64() as u8;
        MitigationRecord { cycle: count(rng), channel, kind }
    }

    fn trace(rng: &mut Xoshiro256) -> SlowdownTrace {
        let benign = vec![0, rng.gen_range(8) as usize];
        let mut trace = if rng.gen_bool(0.5) {
            SlowdownTrace::flat(vec![rng.gen_f64(), rng.gen_f64()], benign)
        } else {
            SlowdownTrace::per_window(vec![window(rng), window(rng)], benign)
        };
        for _ in 0..rng.gen_range(3) {
            trace.on_window(&window(rng));
        }
        trace
    }

    #[test]
    fn every_record_obeys_the_codec_laws() {
        let mut rng = Xoshiro256::seed_from(0xC0DEC);
        for _ in 0..40 {
            let w = window(&mut rng);
            assert_codec_laws(&w.mem);
            assert_codec_laws(&w);
            assert_codec_laws(&point(&mut rng, w.end));
            assert_codec_laws(&mitigation(&mut rng));
            assert_codec_laws(&trace(&mut rng));
        }
    }

    #[test]
    fn integers_are_range_checked_per_type() {
        let n = |v: f64| Json::Num(v);
        assert_eq!(u8::decode(&n(255.0)), Ok(255));
        assert_eq!(u32::decode(&n(4_294_967_295.0)), Ok(u32::MAX));
        assert_eq!(u64::decode(&n(9_007_199_254_740_992.0)), Ok(1 << 53));
        for bad in [n(-1.0), n(0.5), n(256.0), Json::Null, Json::str("7")] {
            assert!(u8::decode(&bad).is_err(), "{}", bad.render());
        }
        assert!(u32::decode(&n(4_294_967_296.0)).is_err());
        assert!(u64::decode(&n(1e16)).is_err(), "past 2^53 a count is no longer exact");
        assert!(usize::decode(&n(-0.5)).is_err());
    }

    #[test]
    fn hex_reads_what_json_hex_writes_and_plain_counts() {
        for v in [0, 0xDA99E5, u64::MAX] {
            assert_eq!(Hex::decode(&Json::hex(v)), Ok(Hex(v)));
            assert_eq!(parse_u64(&v.to_string()), Some(v));
        }
        assert_eq!(Hex::decode(&Json::count(7)), Ok(Hex(7)));
        assert_eq!(parse_u64("0XfF"), Some(255));
        for bad in ["", "0x", "0xg", "-1", "1.5", "0x10000000000000000"] {
            assert_eq!(parse_u64(bad), None, "{bad:?}");
        }
        assert!(Hex::decode(&Json::Num(-1.0)).is_err());
    }

    #[test]
    fn decode_errors_name_the_dotted_path() {
        let doc = Json::parse(r#"{"rows":[{"pair":[1,2]},{"pair":[1,-2]}]}"#).unwrap();
        struct Row {
            pair: (u32, u64),
        }
        crate::json_record!(Row { pair });
        let err = doc.field::<Vec<Row>>("rows").err().expect("-2 is not a u64");
        assert_eq!(err.path, "rows[1].pair[1]");
        assert!(err.to_string().contains("-2"), "{err}");
        assert_eq!(doc.field::<bool>("absent").unwrap_err().to_string(), "`absent`: missing field");
        assert!(Json::Null
            .field::<bool>("k")
            .unwrap_err()
            .to_string()
            .contains("an object, got null"));
        assert_eq!(doc.opt_field::<bool>("absent"), Ok(None));
    }

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("name", Json::str("redteam")),
            ("seed", Json::hex(0xDA99E5)),
            ("ok", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::num(1.5), Json::count(3), Json::Null])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"redteam","seed":"0xda99e5","ok":true,"rows":[1.5,3,null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::num(f64::INFINITY).render(), "null");
        // The raw variant is also guarded at render time.
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn non_finite_numbers_round_trip_as_null() {
        // Regression: `Json::Num(INFINITY)` used to render as `null` but
        // compare unequal to its own parse. The builder now normalizes
        // non-finite floats to `Null` at construction, so build → render
        // → parse is the identity for documents made through `num`.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let doc = Json::obj([("v", Json::num(bad)), ("ok", Json::num(1.5))]);
            let back = Json::parse(&doc.render()).unwrap();
            assert_eq!(back, doc);
            assert_eq!(doc.get("v"), Some(&Json::Null));
        }
    }

    #[test]
    fn csv_fields_quote_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn parse_round_trips_render() {
        let doc = Json::obj([
            ("name", Json::str("sweep")),
            ("n", Json::num(-2.5e3)),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::str("a\"b"), Json::count(7)])),
            ("nested", Json::obj([("k", Json::str("v"))])),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 ] , \"s\" : \"x\\ny\\u0041\" } ").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])));
        assert_eq!(v.get("s"), Some(&Json::str("x\nyA")));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "{\"a\" 1}", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = Json::parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn get_walks_objects() {
        let v = Json::parse(r#"{"a":{"b":3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.get("b")), Some(&Json::Num(3.0)));
        assert_eq!(v.get("z"), None);
    }

    #[test]
    fn parse_bounds_the_nesting_depth() {
        // 100 KB of brackets, well inside campaignd's 1 MiB request line:
        // unbounded recursion overflowed the stack and aborted the process.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
        // The limit itself parses, and leaving a level gives it back.
        let nest = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let inner = nest(MAX_DEPTH - 1);
        assert!(Json::parse(&format!("[{inner},{inner}]")).is_ok());
    }

    #[test]
    fn parse_rejects_raw_control_characters_in_strings() {
        for (doc, offset) in [
            ("\"a\u{1}b\"", 2),
            ("\"line\nbreak\"", 5),
            ("{\"k\tey\":1}", 3),
            ("[\"\u{1f}\"]", 2),
            ("\"\u{0}\"", 1),
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(err.offset, offset, "{doc:?}: {err}");
            assert!(err.message.contains("control character"), "{err}");
        }
        // Escaped they read back, and DEL is not a control character here.
        assert_eq!(Json::parse(r#""a\u0001b\n\u001f""#), Ok(Json::str("a\u{1}b\n\u{1f}")));
        assert_eq!(Json::parse("\"\u{7f}\""), Ok(Json::str("\u{7f}")));
    }

    #[test]
    fn parse_rejects_u_escapes_that_are_not_four_hex_digits() {
        // `u32::from_str_radix` takes a sign, so `\u+041` used to read as 'A'.
        for doc in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            "\"\\u0é\"",
            r#""\u"#,
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(err.offset, 2, "{doc:?}: {err}");
        }
        assert_eq!(Json::parse(r#""\u0041\u00E9""#), Ok(Json::str("Aé")));
    }

    /// The string escaper as it was before the writer copied runs, one
    /// character at a time: the reference [`write_str`] must match.
    fn escape_char_at_a_time(s: &str) -> String {
        let mut out = String::new();
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A character from one of the writer's classes: a named escape, any
    /// control character, DEL, 2-, 3- or 4-byte UTF-8, or printable ASCII.
    fn escape_class_char(rng: &mut Xoshiro256) -> char {
        let (lo, hi) = match rng.gen_range(7) {
            0 => return ['"', '\\', '\n', '\r', '\t'][rng.gen_range(5) as usize],
            1 => (0x00, 0x20),
            2 => return '\u{7f}',
            3 => (0x80, 0x800),
            4 => (0x800, 0x1_0000),
            5 => (0x1_0000, 0x11_0000),
            _ => (0x20, 0x7f),
        };
        loop {
            // Surrogates are not chars: draw again.
            if let Some(c) = char::from_u32(lo + rng.gen_range(u64::from(hi - lo)) as u32) {
                return c;
            }
        }
    }

    #[test]
    fn writer_is_byte_identical_to_the_char_at_a_time_escaper() {
        let mut rng = Xoshiro256::seed_from(0xE5C);
        for _ in 0..2_000 {
            let s: String = (0..rng.gen_range(24)).map(|_| escape_class_char(&mut rng)).collect();
            let mut written = String::new();
            write_str(&s, &mut written);
            assert_eq!(written, escape_char_at_a_time(&s), "{s:?}");
            assert_eq!(Json::parse(&written), Ok(Json::Str(s.clone())));
            let key = Json::Obj(vec![(s.clone(), Json::Null)]);
            assert_eq!(key.render(), format!("{{{}:null}}", escape_char_at_a_time(&s)));
        }
        // Numbers: integral counts take integer formatting, the rest `{n}`;
        // both must spell what `{n}` spells.
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut numbers = vec![
            0.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            9e15,
            1e16,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            2f64.powi(52) + 0.5,
            (two53 - 1.0) / 2.0,
            0.5,
            1.0 - f64::EPSILON,
            i64::MAX as f64,
        ];
        for _ in 0..4_000 {
            numbers.push(match rng.gen_range(6) {
                0 => f64::from_bits(rng.next_u64()),
                1 => (rng.gen_f64() - 0.5) * 1e6,
                2 => count(&mut rng) as f64,
                3 => (rng.next_u64() >> rng.gen_range(64)) as f64,
                4 => rng.gen_range(100_000) as f64,
                _ => (rng.next_u64() >> 12) as f64 + 0.5,
            });
        }
        for n in numbers.clone() {
            numbers.push(-n);
        }
        for n in numbers.into_iter().filter(|n| n.is_finite()) {
            assert_eq!(Json::Num(n).render(), format!("{n}"), "{n:e}");
        }
        assert_eq!(Json::Num(-0.0).render(), "-0", "-0.0 keeps its sign");
    }

    #[test]
    fn integer_tokens_read_bit_for_bit_like_the_float_parser() {
        let mut rng = Xoshiro256::seed_from(0x1D16);
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "00",
            "-00",
            "007",
            "-0007",
            "000000000000000",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "-",
            "--1",
            "1-",
            "1e5",
            "1.0",
        ]
        .map(String::from)
        .to_vec();
        for _ in 0..20_000 {
            let len = 1 + rng.gen_range(20) as usize;
            let digits: String =
                (0..len).map(|_| char::from(b'0' + rng.gen_range(10) as u8)).collect();
            let sign = if rng.gen_bool(0.5) { "-" } else { "" };
            tokens.push(format!("{sign}{digits}"));
        }
        for token in &tokens {
            let parsed = Json::parse(token).map(|v| match v {
                Json::Num(n) => n.to_bits(),
                other => panic!("{token:?} read as {other:?}"),
            });
            match token.parse::<f64>() {
                Ok(n) => assert_eq!(parsed, Ok(n.to_bits()), "{token:?}"),
                Err(_) => assert!(parsed.is_err(), "{token:?}"),
            }
        }
        assert_eq!(Json::parse("-0").map(|v| v.render()).as_deref(), Ok("-0"), "-0 keeps its sign");
    }

    #[test]
    fn the_fuzz_corpus_renders_back_to_its_own_bytes() {
        for seed in [1, 2, 3, 0xF022] {
            for doc in fuzz_seeds(&mut Xoshiro256::seed_from(seed)) {
                assert_eq!(Json::parse(&doc).map(|v| v.render()), Ok(doc));
            }
        }
    }

    #[test]
    fn parse_time_is_linear_in_the_document() {
        // The reader used to re-validate the rest of the document for every
        // string character: tens of seconds for each of these in debug.
        let long = Json::str("x".repeat(1 << 20)).render();
        let keys = Json::Obj((0..100_000).map(|i| (format!("key{i}"), Json::count(i))).collect());
        for doc in [long, keys.render()] {
            let started = std::time::Instant::now();
            let parsed = Json::parse(&doc).expect("parses");
            let took = started.elapsed();
            assert!(took < std::time::Duration::from_secs(2), "{} B took {took:?}", doc.len());
            assert_eq!(parsed.render(), doc);
        }
    }

    /// The documents the reader fuzz starts from: every record
    /// `every_record_obeys_the_codec_laws` generates, rendered, and one
    /// run-cache entry as the `sim` crate writes it.
    fn fuzz_seeds(rng: &mut Xoshiro256) -> Vec<String> {
        let w = window(rng);
        let records = [
            w.mem.encode(),
            w.encode(),
            point(rng, w.end).encode(),
            mitigation(rng).encode(),
            trace(rng).encode(),
        ];
        let entry = include_str!("../testdata/run_cache_entry.json");
        records.iter().map(Json::render).chain([entry.to_string()]).collect()
    }

    /// Escapes, broken escapes, multi-byte and control characters, and
    /// structure, for the fuzz to splice in.
    const SPLICES: [&str; 24] = [
        "\\", "\"", "\\\"", "\\n", "\\u", "\\u00e9", "\\ud800", "\\u+041", "\\x", "é", "中", "😀",
        "\u{1}", "\u{7f}", "[", "]", "{", "}", ",", ":", "null", "-", "1e999", "0.5",
    ];

    /// One seeded character-level edit: delete, insert, replace, truncate,
    /// duplicate a span, or splice in one of [`SPLICES`].
    fn mutate(doc: &mut Vec<char>, rng: &mut Xoshiro256) {
        let at = |rng: &mut Xoshiro256, last: usize| rng.gen_range(last as u64 + 1) as usize;
        match rng.gen_range(6) {
            0 if !doc.is_empty() => {
                let i = at(rng, doc.len() - 1);
                doc.remove(i);
            }
            1 => {
                let i = at(rng, doc.len());
                doc.insert(i, escape_class_char(rng));
            }
            2 if !doc.is_empty() => {
                let i = at(rng, doc.len() - 1);
                doc[i] = escape_class_char(rng);
            }
            3 => {
                let i = at(rng, doc.len());
                doc.truncate(i);
            }
            4 => {
                let i = at(rng, doc.len());
                let span = doc[i..(i + 1 + rng.gen_range(64) as usize).min(doc.len())].to_vec();
                let k = at(rng, doc.len());
                doc.splice(k..k, span);
            }
            _ => {
                let splice = SPLICES[rng.gen_range(SPLICES.len() as u64) as usize];
                let i = at(rng, doc.len());
                doc.splice(i..i, splice.chars());
            }
        }
    }

    /// `rounds` rounds of one to four edits on every seed document. The
    /// reader must never panic, and whatever it accepts must re-render to
    /// a fixed point. Returns how many mutants were accepted.
    fn fuzz_reader(seed: u64, rounds: usize) -> usize {
        let mut rng = Xoshiro256::seed_from(seed);
        let seeds = fuzz_seeds(&mut rng);
        let mut accepted = 0;
        for _ in 0..rounds {
            for doc in &seeds {
                let mut chars: Vec<char> = doc.chars().collect();
                for _ in 0..=rng.gen_range(4) {
                    mutate(&mut chars, &mut rng);
                }
                let text: String = chars.into_iter().collect();
                let Ok(value) = Json::parse(&text) else { continue };
                accepted += 1;
                let rendered = value.render();
                let again = Json::parse(&rendered)
                    .unwrap_or_else(|e| panic!("{e}: {text:?} re-rendered as {rendered:?}"));
                assert_eq!(again.render(), rendered, "{text:?}");
            }
        }
        accepted
    }

    #[test]
    fn mutated_documents_never_panic_the_reader() {
        for seed in [1, 2, 3, 0xF022] {
            assert!(fuzz_reader(seed, 50) > 0, "seed {seed}: no mutant parsed");
        }
    }

    #[test]
    #[ignore = "long reader fuzz; run with --ignored (CI chaos-smoke)"]
    fn mutated_documents_never_panic_the_reader_long_sweep() {
        for seed in 0..1_000 {
            fuzz_reader(seed, 200);
        }
    }
}
