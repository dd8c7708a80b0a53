//! The workspace's one JSON reader and value writer.
//!
//! The workspace builds offline with no serialization framework, so JSON
//! is hand-rolled, once, here. Three readers share it: the trace schema's
//! [`TraceEvent::parse`](crate::telemetry::TraceEvent::parse), the
//! `sfqpartd` wire protocol (nested frames: a solve request carries a
//! problem object with arrays inside an object inside the frame) and
//! sfqbench's result files. The subset is the whole value grammar:
//! objects, arrays, strings with escapes, numbers, bools, null. It is
//! strict about structure and permissive about unknown keys, matching the
//! trace schema's compatibility rule.
//!
//! An unsigned digit-only literal that fits a `u64` reads as
//! [`Json::Integer`], exactly; every other number reads as
//! [`Json::Number`]. So every integer a writer emits — seeds included —
//! reads back bit for bit.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal with no sign, fraction or exponent that fits a
    /// `u64`, held exactly.
    Integer(u64),
    /// Any other JSON number.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic on re-emission.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number. An integer converts to
    /// the nearest `f64`, as parsing its digits as a float would.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Integer(n) => Some(*n as f64),
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer: an integer
    /// literal as written, or an integral float no larger than 2^53.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Integer(n) => Some(*n),
            Json::Number(n) => ((0.0..=9_007_199_254_740_992.0).contains(n)
                && crate::float::exactly(n.trunc(), *n))
            .then_some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_into(&mut out);
        out
    }

    /// Appends the compact JSON form to `out`.
    pub fn write_into(&self, out: &mut String) {
        use fmt::Write;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Integer(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `n` in Rust's shortest round-trip spelling (`{}`: 42.0 is `42`,
/// −0.0 is `-0`), which reads back bit for bit. Non-finite values have no
/// JSON encoding; they are emitted as `null`, matching the trace writer's
/// convention for poisoned costs.
pub fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string with the mandatory escapes.
pub fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

/// Nesting bound: the protocol nests at most 4 levels; 64 leaves headroom
/// while keeping hostile input from overflowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, detail: &str) -> JsonError {
        JsonError {
            at: self.pos,
            detail: detail.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(map));
                }
                None => return Err(self.err("unterminated object")),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                None => return Err(self.err("unterminated array")),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not reassembled; the
                            // protocol never emits them, so a lone
                            // surrogate maps to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Advance over one UTF-8 scalar; input is a &str, so
                    // boundaries are valid by construction.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    if let Ok(chunk) = std::str::from_utf8(&self.bytes[start..end]) {
                        out.push_str(chunk);
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // The scan starts at `-` or a digit, so a `u64` parse succeeds on
        // exactly the unsigned digit-only literals in range.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Integer(n));
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-0", "-3", "2.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_json(), text, "{text}");
        }
        assert!(parse("-0")
            .unwrap()
            .as_f64()
            .is_some_and(f64::is_sign_negative));
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2,{"b":"x\ny"}],"c":{"d":null},"e":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json(), text);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn escapes_decode_and_encode() {
        let v = parse(r#""quote \" slash \\ tab \t unicode A""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "quote \" slash \\ tab \t unicode A");
        assert_eq!(parse("\"\\u0041\\u00e9x\"").unwrap().as_str(), Some("Aéx"));
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{0001}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn integers_stay_integral() {
        let v = parse("{\"n\":42}").unwrap();
        assert_eq!(v.get("n"), Some(&Json::Integer(42)));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.to_json(), "{\"n\":42}");
        // Every u64 reads back exactly.
        assert_eq!(parse("18446744073709551615"), Ok(Json::Integer(u64::MAX)));
        for n in [0, (1 << 53) + 1, u64::MAX] {
            assert_eq!(parse(&Json::Integer(n).to_json()), Ok(Json::Integer(n)));
        }
        // A sign, a fraction, an exponent or overflow makes a float.
        for text in ["18446744073709551616", "-1", "1.0", "1e3"] {
            assert!(matches!(parse(text), Ok(Json::Number(_))), "{text}");
        }
        // Fractional or negative numbers refuse integer extraction; an
        // integral float up to 2^53 does not.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn structural_errors_are_rejected() {
        for text in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"open", "1 2", "{]",
        ] {
            assert!(parse(text).is_err(), "{text:?} must fail");
        }
        assert_eq!(parse("{\"a\":1").unwrap_err().detail, "unterminated object");
        assert_eq!(parse("[1, 2").unwrap_err().detail, "unterminated array");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push('[');
        }
        assert!(parse(&text).is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            write_number(&mut out, n);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse("\"π≈3\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "π≈3");
        assert_eq!(v.to_json(), "\"π≈3\"");
    }
}
