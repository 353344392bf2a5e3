//! Offline in-tree stand-in for the `serde_json` crate.
//!
//! Renders the [`serde::Value`] tree produced by the stub `serde` crate as
//! JSON text, and parses JSON text back into a [`Value`] tree via
//! [`from_str`]. Typed deserialization (`serde_json::from_str::<T>`) is not
//! provided; callers that read JSON back (e.g. the sweep runner's resume
//! path) walk the dynamic [`Value`] with its accessor methods instead.

#![warn(missing_docs)]

use std::fmt;

use serde::Serialize;
/// The dynamic JSON tree, re-exported as `serde_json::Value` like the real crate.
pub use serde::Value;

/// Serialization error.
///
/// The stand-in encoder is total over [`Value`], so this is never actually
/// produced; it exists so call sites written against real `serde_json`
/// signatures keep compiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as a pretty-printed JSON string (two-space indent,
/// matching `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0);
    Ok(out)
}

/// Parse a JSON document into a dynamic [`Value`] tree.
///
/// Follows RFC 8259: objects, arrays, strings (with `\uXXXX` escapes,
/// including surrogate pairs), numbers, booleans and `null`. Integral
/// numbers without exponent land in [`Value::U64`] / [`Value::I64`] so that
/// values produced by [`to_string`] round-trip variant-exactly; anything
/// with a fraction or exponent becomes [`Value::F64`].
///
/// ```
/// let v = serde_json::from_str(r#"{"key": "a", "n": 3, "x": [1.5, true]}"#).unwrap();
/// assert_eq!(v.get("key").and_then(|k| k.as_str()), Some("a"));
/// assert_eq!(v.get("n").and_then(|n| n.as_u64()), Some(3));
/// ```
pub fn from_str(input: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    let combined =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Consume one full UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let Some(hex) = self.bytes.get(self.pos..end) else {
            return self.err("truncated \\u escape");
        };
        let s = std::str::from_utf8(hex).map_err(|_| Error("non-ascii \\u escape".into()))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos = end;
        Ok(n)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Value::F64(x)),
            Err(_) => self.err("malformed number"),
        }
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_compound(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Map(entries) => {
            write_compound(out, indent, depth, '{', '}', entries.len(), |out, i| {
                let (k, v) = &entries[i];
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1);
            })
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

/// JSON has no NaN/Infinity; mirror `serde_json`'s behaviour of emitting
/// `null` for non-finite floats.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = if x == x.trunc() && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        };
        out.push_str(&s);
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip_shapes() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::U64(1)),
            (
                "b".to_string(),
                Value::Seq(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn pretty_uses_two_space_indent() {
        let v = Value::Map(vec![("k".to_string(), Value::Str("v".to_string()))]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"k\": \"v\"\n}");
    }

    #[test]
    fn floats_render_like_serde_json() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string("a\"b\n").unwrap(), r#""a\"b\n""#);
    }

    #[test]
    fn parse_round_trips_compact_encoding() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::U64(1)),
            ("neg".to_string(), Value::I64(-7)),
            ("x".to_string(), Value::F64(1.25)),
            (
                "s".to_string(),
                Value::Seq(vec![
                    Value::Bool(false),
                    Value::Null,
                    Value::Str("q".into()),
                ]),
            ),
        ]);
        let text = to_string(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn parse_round_trips_pretty_encoding() {
        let v = Value::Map(vec![(
            "nested".to_string(),
            Value::Map(vec![("k".to_string(), Value::Seq(vec![Value::U64(3)]))]),
        )]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(
            from_str(r#""a\"b\né😀""#).unwrap(),
            Value::Str("a\"b\né😀".to_string())
        );
        assert_eq!(from_str("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(from_str("42").unwrap(), Value::U64(42));
        assert_eq!(from_str("-42").unwrap(), Value::I64(-42));
        assert_eq!(from_str("2.5").unwrap(), Value::F64(2.5));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(from_str("-0.5").unwrap(), Value::F64(-0.5));
        // u64::MAX does not fit i64 but is a valid U64.
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "{,}"] {
            assert!(from_str(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parsed_floats_round_trip_exactly() {
        // The encoder writes non-integral floats with the shortest
        // round-trippable representation, so parse(encode(x)) == x.
        for x in [1.0 / 3.0, 123.456789, 1e-12, 987654321.123] {
            let text = to_string(&x).unwrap();
            assert_eq!(from_str(&text).unwrap(), Value::F64(x));
        }
    }
}
