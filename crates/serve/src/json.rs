//! Minimal dependency-free JSON for the daemon protocol.
//!
//! The workspace builds with no crates.io access, so the wire format is
//! hand-rolled the same way `aep-rng` replaced `rand`: a small
//! depth-limited recursive-descent parser covering exactly the JSON the
//! protocol uses (objects, arrays, strings, numbers, booleans, null),
//! plus the escaping helpers the response writers need. Numbers keep
//! their raw text so callers can demand an exact `u64` (seeds, cycle
//! counts) instead of round-tripping through `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Number(String),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is irrelevant to the protocol, so a
    /// sorted map keeps lookups simple and rendering deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value parsed as an exact `u64`, if this is an unsigned
    /// integer token in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so without a limit a short line of `[`s
/// would overflow the parsing thread's stack; protocol lines are flat
/// objects.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected, nesting limited to [`MAX_DEPTH`]).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Renders `s` as a JSON string literal (quotes included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            b'{' => self.nested(Self::parse_object),
            b'[' => self.nested(Self::parse_array),
            b'"' => Ok(Value::String(self.parse_string()?)),
            b'-' | b'0'..=b'9' => self.parse_number(),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            other => Err(format!(
                "unexpected byte {:?} at {}",
                other as char, self.pos
            )),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => match self.next()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next()?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u codepoint at {}", self.pos))?,
                        );
                    }
                    other => return Err(format!("bad escape \\{} at {}", other as char, self.pos)),
                },
                byte if byte < 0x80 => out.push(byte as char),
                byte => {
                    // Reassemble a multi-byte UTF-8 sequence; input came
                    // from a &str so it is valid by construction.
                    let len = match byte {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(format!("expected number at byte {start}"));
        }
        Ok(Value::Number(
            std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("number bytes are ASCII")
                .to_string(),
        ))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, String> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = self.peek()?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().unwrap_or(0) as char
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v =
            parse(r#"{"type":"submit","bench":"gzip","seed":2006,"scrub":null,"deep":[1,true]}"#)
                .expect("parses");
        let obj = v.as_object().expect("object");
        assert_eq!(obj["type"].as_str(), Some("submit"));
        assert_eq!(obj["seed"].as_u64(), Some(2006));
        assert_eq!(obj["scrub"], Value::Null);
        assert_eq!(
            obj["deep"],
            Value::Array(vec![Value::Number("1".into()), Value::Bool(true)])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Far past the limit the parser stops at the limit, so it never
        // recurses deep enough to exhaust a thread's stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "line\nquote\"slash\\tab\tctrl\u{1}unicode\u{203d}";
        let literal = escape(nasty);
        assert_eq!(parse(&literal).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn u64_is_exact() {
        let v = parse(&format!("{{\"n\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.as_object().unwrap()["n"].as_u64(), Some(u64::MAX));
        // Floats and negatives are not u64s.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }
}
