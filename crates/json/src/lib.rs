//! Tiny dependency-free JSON value model and writer.
//!
//! The workspace builds in fully offline environments, so `serde` /
//! `serde_json` cannot be fetched from crates.io.  This crate provides the
//! small serialization surface the evaluation harness needs: building a
//! [`Json`] tree and rendering it as compact or pretty-printed JSON, so BER
//! curves and table rows can be written to machine-readable result files.
//!
//! # Example
//!
//! ```
//! use fec_json::{Json, ToJson};
//!
//! let v = Json::obj([
//!     ("name", Json::str("ldpc-576")),
//!     ("points", Json::arr([Json::from(1.5f64), Json::from(2u64)])),
//! ]);
//! assert_eq!(v.to_string(), r#"{"name":"ldpc-576","points":[1.5,2]}"#);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod stream;

pub use stream::StreamedRows;

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A finite double (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Types that can render themselves as a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an array from an iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders indented JSON (two spaces per level), ending without a
    /// trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

impl Json {
    /// Parses a JSON document (the subset this crate emits: no `\uXXXX`
    /// surrogate pairs beyond the BMP escape form, numbers as i64/u64/f64).
    ///
    /// Arrays and objects may nest at most [`MAX_NESTING`] levels deep, so
    /// untrusted input cannot exhaust the stack of the recursive parser.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_NESTING)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                offset: pos,
                message: "trailing characters after the document",
            });
        }
        Ok(value)
    }

    /// Object field access; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view of `Int` / `UInt` / `Num` values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String view of `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view of `Arr` values.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Error reported by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(
    bytes: &[u8],
    pos: &mut usize,
    token: &[u8],
    message: &'static str,
) -> Result<(), ParseError> {
    if bytes.len() >= *pos + token.len() && &bytes[*pos..*pos + token.len()] == token {
        *pos += token.len();
        Ok(())
    } else {
        Err(ParseError {
            offset: *pos,
            message,
        })
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_NESTING: usize = 128;

/// Parses one value; `depth` is how many more array/object levels may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    if depth == 0 && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(ParseError {
            offset: *pos,
            message: "arrays and objects nest too deeply",
        });
    }
    match bytes.get(*pos) {
        None => Err(ParseError {
            offset: *pos,
            message: "unexpected end of input",
        }),
        Some(b'n') => expect(bytes, pos, b"null", "expected null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, b"true", "expected true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, b"false", "expected false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b":", "expected ':' after object key")?;
                let value = parse_value(bytes, pos, depth - 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b"\"", "expected string")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = bytes.get(*pos).ok_or(ParseError {
                    offset: *pos,
                    message: "unterminated escape",
                })?;
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(ParseError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| ParseError {
                                offset: *pos,
                                message: "invalid \\u escape",
                            })?,
                            16,
                        )
                        .map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or(ParseError {
                            offset: *pos,
                            message: "invalid \\u code point",
                        })?);
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos - 1,
                            message: "unknown escape",
                        })
                    }
                }
            }
            Some(_) => {
                // copy the full UTF-8 character
                let rest = &bytes[*pos..];
                let text = std::str::from_utf8(rest).map_err(|_| ParseError {
                    offset: *pos,
                    message: "invalid UTF-8",
                })?;
                let c = text.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
        offset: start,
        message: "invalid number",
    })?;
    if text.is_empty() {
        return Err(ParseError {
            offset: start,
            message: "expected a value",
        });
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
        offset: start,
        message: "invalid number",
    })
}

impl fmt::Display for Json {
    /// Renders compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{:?}` keeps round-trip precision and always includes a decimal
        // point or exponent, so the value reads back as a float.
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
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
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::UInt(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn floats_round_trip_textually() {
        assert_eq!(Json::Num(0.1).to_string(), "0.1");
        assert_eq!(Json::Num(1e-9).to_string(), "1e-9");
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\n").to_string(), r#""a\"b\\c\n""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj([
            ("xs", Json::arr([Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(v.to_string(), r#"{"xs":[1,2],"empty":[]}"#);
    }

    #[test]
    fn pretty_printing_indents() {
        let v = Json::obj([("a", Json::arr([Json::Int(1)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let v = Json::obj([
            ("name", Json::str("ldpc \"576\"\n")),
            ("speedup", Json::from(1.625f64)),
            ("iters", Json::from(20u64)),
            ("neg", Json::from(-3i64)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::arr([Json::from(1u64), Json::from(1e-9f64)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_accessors() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
        assert!(v.get("a").unwrap().get("b").unwrap().get("c").is_none());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nule",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn parse_limits_nesting_depth() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(Json::parse(&nested("[", "]", MAX_NESTING)).is_ok());
        assert!(Json::parse(&nested("{\"a\":", "}", MAX_NESTING)).is_ok());
        for too_deep in [
            nested("[", "]", MAX_NESTING + 1),
            nested("{\"a\":", "}", MAX_NESTING + 1),
            "[".repeat(300_000),
        ] {
            let err = Json::parse(&too_deep).unwrap_err();
            assert!(err.message.contains("nest too deeply"), "{err}");
        }
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(Json::parse(r#""A\té""#).unwrap(), Json::str("A\té"));
    }

    #[test]
    fn slices_of_tojson_serialize() {
        struct P(u64);
        impl ToJson for P {
            fn to_json(&self) -> Json {
                Json::UInt(self.0)
            }
        }
        let v = vec![P(1), P(2)];
        assert_eq!(v.to_json().to_string(), "[1,2]");
    }

    #[test]
    fn json_is_its_own_tojson() {
        // Identity impl: lets already-built values flow through generic
        // sinks like `StreamedRows::push`.
        let v = Json::obj([("k", Json::from(1u64))]);
        assert_eq!(v.to_json(), v);
    }
}
