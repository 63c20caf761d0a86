//! Minimal JSON for the `cachedse` workspace: one value type, an escaping
//! writer, and a strict reader.
//!
//! The workspace builds with no external crates (see the dependency policy
//! in `DESIGN.md`), so the machine-readable surfaces — `cachedse explore
//! --format json`, the `cachedse check` report, and the JSONL job specs and
//! results of the batch exploration service — share this hand-rolled module
//! instead of `serde_json`. The subset is deliberately small:
//!
//! * [`Value`] covers the six JSON types; objects preserve insertion order,
//!   so rendered output is deterministic;
//! * [`Value::render`] writes compact (single-line) JSON with full string
//!   escaping — exactly one line per value, which is what JSONL framing
//!   needs;
//! * [`Value::parse`] is a strict recursive-descent reader (UTF-8 escapes,
//!   surrogate pairs, nested containers) that reports byte offsets on error.
//!   Containers nest at most [`MAX_DEPTH`] deep: the reader recurses once
//!   per level, so an unbounded line of `[` would otherwise overflow the
//!   stack and abort the whole process — a service reading untrusted
//!   lines answers [`JsonErrorKind::TooDeep`] instead.
//!
//! # Examples
//!
//! ```
//! use cachedse_json::Value;
//!
//! let v = Value::object([
//!     ("op", Value::from("job")),
//!     ("budget", Value::from(100u64)),
//! ]);
//! let line = v.render();
//! assert_eq!(line, r#"{"op":"job","budget":100}"#);
//! let back = Value::parse(&line).unwrap();
//! assert_eq!(back.get("budget").and_then(Value::as_u64), Some(100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON value. Objects are insertion-ordered vectors of key/value pairs,
/// so rendering is deterministic and duplicate detection is the caller's
/// concern (the last entry wins in [`Value::get`] lookups, like most JSON
/// readers).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer that fits `i64` (covers every counter in the workspace).
    Int(i64),
    /// A non-integral or out-of-`i64`-range number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Self::Int(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        i64::try_from(n).map_or(Self::Float(n as f64), Self::Int)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Self::Int(i64::from(n))
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Self::from(n as u64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Self::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Self::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Self::Array(items)
    }
}

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Self {
        Self::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Self::Array(items.into_iter().collect())
    }

    /// Looks up a key in an object (last occurrence wins). `None` for
    /// non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Self::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert losslessly up to 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(n) => Some(*n as f64),
            Self::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Self::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders compact single-line JSON (no whitespace), suitable for JSONL
    /// framing.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Int(n) => out.push_str(&n.to_string()),
            Self::Float(x) => {
                // JSON has no NaN/Infinity; degrade to null like serde_json.
                if x.is_finite() {
                    // Guarantee a re-parsable number (never `1e3`-less `inf`).
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Self::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first offending character.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest container nesting [`Value::parse`] accepts. Real job specs
/// and reports nest a handful of levels; 128 leaves ample room while
/// keeping the reader's recursion (and the recursive drop of the parsed
/// value) far from the smallest thread stacks.
pub const MAX_DEPTH: usize = 128;

/// What kind of input a [`JsonError`] rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Not JSON: a malformed token, a missing delimiter, trailing input.
    Syntax,
    /// Well-formed so far, but containers nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// The class of failure.
    pub kind: JsonErrorKind,
    /// What the parser expected or rejected.
    pub message: String,
    /// 0-based byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            kind: JsonErrorKind::Syntax,
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    /// Opens one container level, refusing to go past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                message: format!("containers nest deeper than {MAX_DEPTH} levels"),
                offset: self.pos,
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.enter()?;
                let array = self.array();
                self.depth -= 1;
                array
            }
            Some(b'{') => {
                self.enter()?;
                let object = self.object();
                self.depth -= 1;
                object
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and we only stopped on ASCII
                // boundaries, so this slice is valid UTF-8 too.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a \uXXXX low half must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')
                            .map_err(|_| self.err("expected low surrogate escape"))?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("non-hex digits in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError {
                kind: JsonErrorKind::Syntax,
                message: "invalid number".to_owned(),
                offset: start,
            })
    }
}

/// Splits `input` into JSONL records: one parsed [`Value`] per non-empty
/// line, with 1-based line numbers attached to errors.
///
/// # Errors
///
/// The first malformed line aborts with its line number and the underlying
/// [`JsonError`].
pub fn parse_jsonl(input: &str) -> Result<Vec<Value>, JsonlError> {
    let mut values = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Value::parse(line) {
            Ok(v) => values.push(v),
            Err(error) => {
                return Err(JsonlError {
                    line: idx + 1,
                    error,
                })
            }
        }
    }
    Ok(values)
}

/// A JSONL parse failure: the 1-based line and the JSON error within it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number of the malformed record.
    pub line: usize,
    /// The parse error within that line.
    pub error: JsonError,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for JsonlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_type() {
        let v = Value::object([
            ("null", Value::Null),
            ("flag", Value::from(true)),
            ("count", Value::from(42u64)),
            ("ratio", Value::from(0.5f64)),
            ("name", Value::from("cachedse")),
            (
                "items",
                Value::array([Value::from(1i64), Value::from(2i64)]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"null":null,"flag":true,"count":42,"ratio":0.5,"name":"cachedse","items":[1,2]}"#
        );
    }

    #[test]
    fn escapes_specials_on_write() {
        let v = Value::from("a\"b\\c\nd\te\r\u{08}\u{0C}\u{01}");
        assert_eq!(v.render(), r#""a\"b\\c\nd\te\r\b\f\u0001""#);
    }

    #[test]
    fn escape_round_trips() {
        let originals = [
            "plain",
            "quote\" backslash\\ slash/",
            "newline\n tab\t cr\r",
            "controls \u{01}\u{1f}",
            "unicode ünïcødé 漢字 🦀",
            "",
        ];
        for s in originals {
            let rendered = Value::from(s).render();
            let parsed = Value::parse(&rendered).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "round trip of {s:?}");
        }
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let v = Value::parse(r#""Aé🦀\/""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé🦀/"));
    }

    #[test]
    fn rejects_lone_surrogates() {
        assert!(Value::parse(r#""\ud83e""#).is_err());
        assert!(Value::parse(r#""\udd80""#).is_err());
        assert!(Value::parse(r#""\ud83eA""#).is_err());
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("0.25").unwrap(), Value::Float(0.25));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("-2.5e-1").unwrap(), Value::Float(-0.25));
    }

    #[test]
    fn u64_beyond_i64_degrades_to_float() {
        let v = Value::from(u64::MAX);
        assert!(matches!(v, Value::Float(_)));
        assert_eq!(Value::from(u64::from(u32::MAX)), Value::Int(4294967295));
    }

    #[test]
    fn float_render_reparses_as_number() {
        for x in [1.0f64, -3.0, 0.125, 1e20] {
            let rendered = Value::from(x).render();
            let back = Value::parse(&rendered).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{rendered}");
        }
        assert_eq!(Value::from(f64::NAN).render(), "null");
    }

    #[test]
    fn parses_nested_containers() {
        let v = Value::parse(r#" { "a" : [ 1 , { "b" : null } ] , "c" : "d" } "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("d"));
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let text = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &Value::parse(&text).unwrap();
        for _ in 1..MAX_DEPTH {
            v = &v.as_array().unwrap()[0];
        }
        assert_eq!(v, &Value::Array(Vec::new()));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Value::parse(&objects).is_ok());
    }

    /// One level past the limit is a typed error at the offending bracket,
    /// and a line far deeper — once a stack overflow that aborted the
    /// process — fails the same way.
    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let text = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Value::parse(&text).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        let mixed = format!("{}0", r#"[{"k":"#.repeat(MAX_DEPTH));
        assert_eq!(
            Value::parse(&mixed).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
        let err = Value::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert!(err.to_string().contains("deeper than 128"), "{err}");
        let err = parse_jsonl(&format!("{{}}\n{}\n", "{\"a\":".repeat(200_000))).unwrap_err();
        assert_eq!((err.line, err.error.kind), (2, JsonErrorKind::TooDeep));
    }

    #[test]
    fn syntax_errors_are_kind_syntax() {
        assert_eq!(
            Value::parse("[1,]").unwrap_err().kind,
            JsonErrorKind::Syntax
        );
        // Depth is released on the way out: siblings never accumulate.
        let wide = format!("[{}[]]", "[],".repeat(4 * MAX_DEPTH));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Value::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn rejects_malformed_with_offsets() {
        for (text, offset_at_least) in [
            ("", 0),
            ("{", 1),
            (r#"{"a"}"#, 4),
            ("[1,]", 3),
            ("nul", 0),
            (r#""abc"#, 4),
            ("1 2", 2),
            ("{\"a\":\u{01}}", 5),
        ] {
            let err = Value::parse(text).unwrap_err();
            assert!(
                err.offset >= offset_at_least,
                "{text:?} gave offset {}",
                err.offset
            );
        }
    }

    #[test]
    fn jsonl_parses_and_reports_lines() {
        let ok = parse_jsonl("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(ok.len(), 2);
        let err = parse_jsonl("{\"a\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert_eq!(Value::Null.get("x"), None);
        assert_eq!(Value::from(3i64).as_str(), None);
        assert_eq!(Value::from("s").as_u64(), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
    }

    #[test]
    fn display_matches_render() {
        let v = Value::array([Value::Null, Value::from(false)]);
        assert_eq!(v.to_string(), v.render());
    }
}
