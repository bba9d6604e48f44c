//! Minimal JSON support for the campaign journal.
//!
//! The workspace builds with no external dependencies, so the streaming
//! JSONL journal (see `snake-core::journal`) serialises through this small
//! value model instead of serde. Integers are kept exact: `u64`/`i64`
//! values round-trip without passing through `f64`, which matters for
//! 48-bit DCCP sequence numbers and byte counters.

use std::collections::BTreeSet;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers (the common case for counters and ids).
    U64(u64),
    /// Negative integers.
    I64(i64),
    /// Any number that is not an integer.
    F64(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Object with insertion order preserved (stable journal lines).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to compact JSON text (single line, no trailing newline).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out).expect("writing to a String cannot fail");
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f)
    }
}

/// Convenience constructor for object values.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Types that can serialise themselves to a [`Value`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`].
pub trait FromJson: Sized {
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

/// Parse or decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error when parsing text; `None` for decode errors.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A decode (shape-mismatch) error.
    pub fn decode(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn parse(message: impl Into<String>, offset: usize) -> JsonError {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "{} at byte {}", self.message, at),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// Helpers for pulling typed fields out of object values.
pub trait ObjExt {
    fn req(&self, key: &str) -> Result<&Value, JsonError>;
    fn req_u64(&self, key: &str) -> Result<u64, JsonError>;
    fn req_f64(&self, key: &str) -> Result<f64, JsonError>;
    fn req_bool(&self, key: &str) -> Result<bool, JsonError>;
    fn req_str(&self, key: &str) -> Result<&str, JsonError>;
}

impl ObjExt for Value {
    fn req(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::decode(format!("missing field `{key}`")))
    }

    fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` is not a u64")))
    }

    fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` is not a number")))
    }

    fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.req(key)?
            .as_bool()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` is not a bool")))
    }

    fn req_str(&self, key: &str) -> Result<&str, JsonError> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| JsonError::decode(format!("field `{key}` is not a string")))
    }
}

fn write_value(value: &Value, out: &mut impl fmt::Write) -> fmt::Result {
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::U64(v) => write!(out, "{v}"),
        Value::I64(v) => write!(out, "{v}"),
        // `{:?}` always keeps a decimal point or exponent, so the parser
        // reads it back as F64.
        Value::F64(v) if v.is_finite() => write!(out, "{v:?}"),
        // JSON has no Inf/NaN; null is the conventional stand-in.
        Value::F64(_) => out.write_str("null"),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(item, out)?;
            }
            out.write_char(']')
        }
        Value::Obj(pairs) => {
            out.write_char('{')?;
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_string(k, out)?;
                out.write_char(':')?;
                write_value(v, out)?;
            }
            out.write_char('}')
        }
    }
}

fn write_string(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs escaping is ASCII, so the runs between them
    // start and end on char boundaries and are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Deepest container nesting [`parse`] accepts. The parser recurses per
/// level and reads untrusted input (the shard wire, journals on disk), so
/// depth must be bounded; the documents this workspace writes nest 6 deep.
const MAX_DEPTH: usize = 128;

/// Objects up to this many members (every object this workspace writes)
/// check for duplicate keys by scanning the members already parsed; larger
/// ones switch to a set so the check stays sub-quadratic.
const KEY_SCAN_LIMIT: usize = 16;

/// Initial capacity of array and object vectors: most containers in a
/// journal line fit, so they allocate once instead of growing from zero.
const CONTAINER_CAPACITY: usize = 8;

/// Parses one JSON document, requiring it to span the whole input.
///
/// Safe on input the process did not write: time is linear in the length
/// of the text (`n log n` in the members of an object with more than 16),
/// and containers nested more than 128 deep are an error rather than a
/// stack overflow.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(JsonError::parse("trailing characters", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::parse(
                format!("expected `{}`", b as char),
                self.pos,
            ))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(JsonError::parse("unexpected character", self.pos)),
            None => Err(JsonError::parse("unexpected end of input", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::parse(format!("expected `{text}`"), self.pos))
        }
    }

    /// Parses one container, refusing to open it past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::parse(
                format!("nesting deeper than {MAX_DEPTH}"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = container(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(Vec::new()));
        }
        let mut items = Vec::with_capacity(CONTAINER_CAPACITY);
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
                _ => return Err(JsonError::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(Vec::new()));
        }
        let mut pairs: Vec<(String, Value)> = Vec::with_capacity(CONTAINER_CAPACITY);
        // Filled from `pairs` when the object outgrows the scan.
        let mut keys_seen: BTreeSet<String> = BTreeSet::new();
        loop {
            self.skip_ws();
            let key = self.string()?;
            let duplicate = if pairs.len() < KEY_SCAN_LIMIT {
                pairs.iter().any(|(k, _)| *k == key)
            } else {
                if keys_seen.is_empty() {
                    keys_seen.extend(pairs.iter().map(|(k, _)| k.clone()));
                }
                !keys_seen.insert(key.clone())
            };
            if duplicate {
                return Err(JsonError::parse(format!("duplicate key `{key}`"), self.pos));
            }
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
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(JsonError::parse("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next delimiter at once. Both
            // delimiters are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            let Some(len) = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(JsonError::parse("unterminated string", self.text.len()));
            };
            let end = start + len;
            let run = &self.text[start..end];
            self.pos = end + 1;
            if self.bytes()[end] == b'"' {
                // Without an escape the run is the string: one exact-size
                // allocation.
                if out.is_empty() {
                    return Ok(run.to_owned());
                }
                out.push_str(run);
                return Ok(out);
            }
            out.push_str(run);
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000C}'),
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| JsonError::parse("bad \\u escape", end))?;
                    // Surrogates are not paired here; the writer only
                    // emits \u for control characters.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    self.pos += 4;
                }
                _ => return Err(JsonError::parse("bad escape", end)),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The integer's magnitude, read off the digits as they are
        // scanned; `None` once it no longer fits in a `u64`.
        let digits = self.pos;
        let mut magnitude = Some(0u64);
        while let Some(b) = self.peek().filter(u8::is_ascii_digit) {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(b - b'0')));
            self.pos += 1;
        }
        // "-" and "-.5" have no integer digits and go the float way.
        let mut is_integer = self.pos > digits;
        if self.peek() == Some(b'.') {
            is_integer = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if let (true, Some(m)) = (is_integer, magnitude) {
            if !negative {
                return Ok(Value::U64(m));
            }
            if let Some(v) = 0i64.checked_sub_unsigned(m) {
                return Ok(Value::I64(v));
            }
        }
        // Integers too large for 64 bits are read as floats too. Everything
        // scanned is ASCII, so the slice is on char boundaries.
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::F64)
            .map_err(|_| JsonError::parse("invalid number", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn big_integers_stay_exact() {
        let big = (1u64 << 48) + 12345; // 48-bit seq numbers must not lose bits
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string_compact(), big.to_string());
        let huge = u64::MAX;
        assert_eq!(parse(&huge.to_string()).unwrap().as_u64(), Some(huge));
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "tab\there \"quote\" back\\slash\nnewline \u{1}ctrl é";
        let v = Value::Str(s.to_owned());
        let text = v.to_string_compact();
        assert!(
            !text.contains('\n'),
            "journal lines must stay single-line: {text}"
        );
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn objects_preserve_order_and_lookup() {
        let v = parse(r#"{"b": 1, "a": {"x": [1, 2, null]}, "c": -3.25}"#).unwrap();
        assert_eq!(v.req_u64("b").unwrap(), 1);
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(v.req_f64("c").unwrap(), -3.25);
        match &v {
            Value::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["b", "a", "c"]);
            }
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("01x").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse("\"unterminated").is_err());
        let err = parse("nope").unwrap_err();
        assert!(err.to_string().contains("null"));
    }

    #[test]
    fn missing_fields_decode_error() {
        let v = parse(r#"{"a": 1}"#).unwrap();
        let err = v.req_u64("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        let err = v.req_str("a").unwrap_err();
        assert!(err.to_string().contains("not a string"));
    }
}
