//! Minimal in-tree JSON: escaping, builders, number formatting, and a
//! small parser.
//!
//! The bench crate emits machine-readable rows (`reproduce --json`) and
//! its tests parse them back. Each row struct is declared through
//! [`json_row!`], which derives its [`ToJsonRow`] impl from the fields.
//! Owning the serializer keeps that output format pinned by this
//! repository's tests rather than by a dependency's formatting choices;
//! the parser exists so tests can make structural assertions without a
//! second implementation drifting from the first.
//!
//! ```
//! use stellar_sim::json::{self, Obj};
//!
//! let row = Obj::new().field_str("algo", "obs").field_f64("gbps", 98.5).finish();
//! assert_eq!(row, r#"{"algo":"obs","gbps":98.5}"#);
//! let v = json::parse(&row).unwrap();
//! assert_eq!(v.get("gbps").and_then(|g| g.as_f64()), Some(98.5));
//! ```

use std::fmt::Write as _;

/// Escape a string's content for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a string as a JSON string literal (quotes included).
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Render an `f64` as a JSON number.
///
/// Integer-valued floats keep a trailing `.0` (so a field's type never
/// flips between runs), fractional values use the shortest representation
/// that round-trips, and non-finite values — which JSON cannot express —
/// become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Builder for a JSON object, emitting fields in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    out: String,
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Obj { out: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.out.is_empty() {
            self.out.push(',');
        }
        let _ = write!(self.out, "\"{}\":", escape(k));
        &mut self.out
    }

    /// Add a string field.
    pub fn field_str(mut self, k: &str, v: &str) -> Self {
        let s = string(v);
        self.key(k).push_str(&s);
        self
    }

    /// Add an unsigned integer field.
    pub fn field_u64(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field (see [`number`] for formatting).
    pub fn field_f64(mut self, k: &str, v: f64) -> Self {
        let s = number(v);
        self.key(k).push_str(&s);
        self
    }

    /// Add an optional float field: `None` renders as `null`.
    pub fn field_opt_f64(mut self, k: &str, v: Option<f64>) -> Self {
        let s = v.map(number).unwrap_or_else(|| "null".to_owned());
        self.key(k).push_str(&s);
        self
    }

    /// Add a boolean field.
    pub fn field_bool(mut self, k: &str, v: bool) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a field whose value is already-rendered JSON.
    pub fn field_raw(mut self, k: &str, v: &str) -> Self {
        self.key(k).push_str(v);
        self
    }

    /// Close the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.out)
    }
}

/// Builder for a JSON array.
#[derive(Debug, Default)]
pub struct Arr {
    out: String,
}

impl Arr {
    /// Start an empty array.
    pub fn new() -> Self {
        Arr { out: String::new() }
    }

    fn sep(&mut self) -> &mut String {
        if !self.out.is_empty() {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Append already-rendered JSON.
    pub fn push_raw(mut self, v: &str) -> Self {
        self.sep().push_str(v);
        self
    }

    /// Append a string element.
    pub fn push_str(mut self, v: &str) -> Self {
        let s = string(v);
        self.sep().push_str(&s);
        self
    }

    /// Append a float element.
    pub fn push_f64(mut self, v: f64) -> Self {
        let s = number(v);
        self.sep().push_str(&s);
        self
    }

    /// Append an optional float element: `None` renders as `null`.
    pub fn push_opt_f64(mut self, v: Option<f64>) -> Self {
        let s = v.map(number).unwrap_or_else(|| "null".to_owned());
        self.sep().push_str(&s);
        self
    }

    /// Close the array.
    pub fn finish(self) -> String {
        format!("[{}]", self.out)
    }
}

/// A row type that renders itself as one JSON object.
pub trait ToJsonRow {
    /// This row as a JSON object, fields in declaration order.
    fn to_json_row(&self) -> String;
}

/// Render a slice of rows as a JSON array.
pub fn rows_to_json<T: ToJsonRow>(rows: &[T]) -> String {
    rows.iter()
        .fold(Arr::new(), |arr, r| arr.push_raw(&r.to_json_row()))
        .finish()
}

/// A value that [`json_row!`] can write as one object field.
pub trait JsonField {
    /// Append `self` to `obj` under `key`.
    fn write_field(&self, obj: Obj, key: &str) -> Obj;
}

impl JsonField for &str {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        obj.field_str(key, self)
    }
}

impl JsonField for String {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        obj.field_str(key, self)
    }
}

impl JsonField for u32 {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        obj.field_u64(key, u64::from(*self))
    }
}

impl JsonField for u64 {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        obj.field_u64(key, *self)
    }
}

impl JsonField for f64 {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        obj.field_f64(key, *self)
    }
}

impl JsonField for Option<f64> {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        obj.field_opt_f64(key, *self)
    }
}

/// A `(optional, required, optional)` triple renders as a three-element
/// array, `None` as `null`.
impl JsonField for (Option<f64>, f64, Option<f64>) {
    fn write_field(&self, obj: Obj, key: &str) -> Obj {
        let arr = Arr::new()
            .push_opt_f64(self.0)
            .push_f64(self.1)
            .push_opt_f64(self.2);
        obj.field_raw(key, &arr.finish())
    }
}

/// Declare a row struct and its [`ToJsonRow`] impl in one place.
///
/// The struct is emitted unchanged, attributes and doc comments included.
/// Its JSON object has one key per field, named after the field, in
/// declaration order; each field's type must implement [`JsonField`].
///
/// ```
/// use stellar_sim::json::{json_row, ToJsonRow};
///
/// json_row! {
///     /// One measured point.
///     pub struct Row {
///         /// Algorithm name.
///         pub algo: &'static str,
///         /// Paths used.
///         pub paths: u32,
///     }
/// }
///
/// let row = Row { algo: "obs", paths: 128 };
/// assert_eq!(row.to_json_row(), r#"{"algo":"obs","paths":128}"#);
/// ```
#[macro_export]
macro_rules! json_row {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty),*
        }

        impl $crate::json::ToJsonRow for $name {
            fn to_json_row(&self) -> String {
                let obj = $crate::json::Obj::new();
                $(let obj = $crate::json::JsonField::write_field(
                    &self.$field,
                    obj,
                    stringify!($field),
                );)*
                obj.finish()
            }
        }
    };
}

pub use crate::json_row;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; fields keep their document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up an object field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index into an array.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parse a JSON document.
///
/// Strict on structure (no trailing garbage, no trailing commas), lenient
/// on nothing; errors carry the byte offset where parsing failed.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON escapes astral-plane
                            // characters as two \uXXXX units.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                self.pos += 1; // consume 'u''s final hex digit position
                                self.eat(b'\\')?;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("expected low surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are guaranteed valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parse the `XXXX` of a `\uXXXX` escape; leaves `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn num(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("tab\there"), "tab\\there");
    }

    #[test]
    fn number_formats() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(-3.25), "-3.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn builders_compose() {
        let inner = Arr::new().push_f64(1.0).push_opt_f64(None).finish();
        let obj = Obj::new()
            .field_str("name", "x\"y")
            .field_u64("n", 7)
            .field_raw("vals", &inner)
            .field_bool("ok", true)
            .finish();
        assert_eq!(obj, r#"{"name":"x\"y","n":7,"vals":[1.0,null],"ok":true}"#);
    }

    json_row! {
        /// One field of every type a bench row uses.
        #[derive(Debug)]
        struct Every {
            label: &'static str,
            name: String,
            paths: u32,
            events: u64,
            gbps: f64,
            present: Option<f64>,
            absent: Option<f64>,
            paper: (Option<f64>, f64, Option<f64>),
        }
    }

    #[test]
    fn json_row_matches_the_hand_built_object() {
        let row = Every {
            label: "obs",
            name: "Llama \"33B\"\n".to_owned(),
            paths: 128,
            events: 14_470_309,
            gbps: 98.0,
            present: Some(4.57),
            absent: None,
            paper: (None, 17.3, Some(2.65)),
        };
        let hand = Obj::new()
            .field_str("label", row.label)
            .field_str("name", &row.name)
            .field_u64("paths", row.paths as u64)
            .field_u64("events", row.events)
            .field_f64("gbps", row.gbps)
            .field_opt_f64("present", row.present)
            .field_opt_f64("absent", row.absent)
            .field_raw(
                "paper",
                &Arr::new()
                    .push_opt_f64(row.paper.0)
                    .push_f64(row.paper.1)
                    .push_opt_f64(row.paper.2)
                    .finish(),
            )
            .finish();
        assert_eq!(row.to_json_row(), hand);
        assert_eq!(
            hand,
            r#"{"label":"obs","name":"Llama \"33B\"\n","paths":128,"events":14470309,"gbps":98.0,"present":4.57,"absent":null,"paper":[null,17.3,2.65]}"#
        );
    }

    #[test]
    fn parse_round_trips_builders() {
        let doc = Obj::new()
            .field_str("s", "a\\b\"c\n\t")
            .field_f64("int_valued", 42.0)
            .field_f64("frac", 0.125)
            .field_opt_f64("missing", None)
            .field_raw("nested", &Arr::new().push_str("x").push_f64(-1.5).finish())
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\\b\"c\n\t"));
        assert_eq!(v.get("int_valued").and_then(Value::as_f64), Some(42.0));
        assert_eq!(v.get("frac").and_then(Value::as_f64), Some(0.125));
        assert!(v.get("missing").unwrap().is_null());
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.idx(0).and_then(Value::as_str), Some("x"));
        assert_eq!(nested.idx(1).and_then(Value::as_f64), Some(-1.5));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_unicode_escapes() {
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
        // Astral plane via surrogate pair.
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }
}
