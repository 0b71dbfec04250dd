//! A minimal hand-rolled JSON parser — just enough for the JSONL trace
//! records and `aggclust-run-report-v1` documents the main binary emits.
//!
//! Zero dependencies on purpose: the analysis tool must keep working even
//! when the workspace it analyzes does not build. Numbers are kept in both
//! `f64` and (when exact) `u64` form so nanosecond totals above 2^53 do not
//! silently lose precision.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; `u64` form preserved when the literal was a whole
    /// non-negative integer in range.
    Num(f64, Option<u64>),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is irrelevant to every consumer here, so
    /// a sorted map keeps lookups simple and output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a `u64`, when it was written as a plain non-negative
    /// integer literal. A whole-valued float such as `5.0` is not one: the
    /// main binary renders float metrics with a decimal point, and the
    /// point is what tells them apart from counters.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, exact) => *exact,
            _ => None,
        }
    }

    /// This value as an `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f, _) => Some(*f),
            _ => None,
        }
    }

    /// This value's elements, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value's entries, when it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a one-line description.
#[derive(Debug)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

/// Parse a complete JSON document; trailing whitespace is allowed, any
/// other trailing content is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: the traces we parse only
                            // ever contain them via user-supplied paths;
                            // decode them properly anyway.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(|_| {
                        JsonError {
                            offset: start,
                            message: "invalid UTF-8".to_string(),
                        }
                    })?);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        match hex {
            Some(v) => {
                self.pos = end;
                Ok(v)
            }
            None => Err(self.err("invalid \\u escape digits")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let integral_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            offset: start,
            message: "invalid UTF-8 in number".to_string(),
        })?;
        let value: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number {text:?}"),
        })?;
        // Exact u64 form: a plain non-negative integer literal in range.
        let exact = if integral_end == self.pos {
            std::str::from_utf8(&self.bytes[start..integral_end])
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
        } else {
            None
        };
        Ok(Json::Num(value, exact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_record_shapes() {
        let line = r#"{"type":"span_end","ts_ns":1234,"tid":2,"span":"balls","id":7,"elapsed_ns":18446744073709551615,"fields":{"n":6,"alpha":0.4,"ok":true,"note":"a\"b"}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("span_end"));
        assert_eq!(v.get("ts_ns").and_then(Json::as_u64), Some(1234));
        assert_eq!(
            v.get("elapsed_ns").and_then(Json::as_u64),
            Some(u64::MAX),
            "u64 range must not be squeezed through f64"
        );
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("alpha").and_then(Json::as_f64), Some(0.4));
        assert_eq!(fields.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(fields.get("note").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn parses_nested_arrays_and_negatives() {
        let v = parse(r#"{"hist":[0,1.5,-2,1e3],"none":null}"#).unwrap();
        let hist = v.get("hist").and_then(Json::as_arr).unwrap();
        assert_eq!(hist.len(), 4);
        assert_eq!(hist[2].as_f64(), Some(-2.0));
        assert_eq!(hist[3].as_f64(), Some(1000.0));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_passthrough_and_escapes() {
        let v = parse(r#""aé😀b""#).unwrap();
        assert_eq!(v.as_str(), Some("aé😀b"));
        let v = parse(r#""a\u00e9 \ud83d\ude00 b\n""#).unwrap();
        assert_eq!(v.as_str(), Some("aé 😀 b\n"));
    }
}
