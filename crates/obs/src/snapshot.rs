//! Machine-readable stats export.
//!
//! A [`StatsSnapshot`] is the serialized form of a [`Registry`](crate::Registry)
//! plus a small metadata block identifying the run (benchmark, scheme, scale,
//! seed). The JSON encoding is hand-rolled so the workspace stays
//! dependency-free, and is laid out one stat per line with keys in sorted
//! order so snapshots are byte-identical across runs, trivially diffable, and
//! easy for `scripts/stats_gate.sh` to perturb in its self-check.
//!
//! Rates are encoded via Rust's shortest-round-trip `f64` `Display`, which
//! parses back to the identical bit pattern; non-finite values are encoded as
//! the JSON strings `"NaN"`, `"inf"`, `"-inf"`.

use crate::registry::{Registry, StatValue};
use std::collections::BTreeMap;

/// Version tag embedded in every snapshot so future layout changes can be
/// detected instead of silently mis-parsed.
const FORMAT_VERSION: u64 = 1;

/// A frozen, serializable view of a stats registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Run-identifying metadata (benchmark, scheme, scale, seed, ...).
    pub meta: BTreeMap<String, String>,
    /// All published stats, keyed by their full hierarchical name.
    pub stats: BTreeMap<String, StatValue>,
}

impl StatsSnapshot {
    /// Freezes a registry into a snapshot with the given metadata pairs.
    pub fn from_registry(registry: Registry, meta: &[(&str, &str)]) -> Self {
        Self {
            meta: meta
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            stats: registry.into_entries(),
        }
    }

    /// Looks up a stat by full key.
    pub fn get(&self, key: &str) -> Option<&StatValue> {
        self.stats.get(key)
    }

    /// Looks up a counter stat by full key (`None` if absent or a rate).
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.stats.get(key)? {
            StatValue::Counter(n) => Some(*n),
            StatValue::Rate(_) => None,
        }
    }

    /// Looks up a rate stat by full key (`None` if absent or a counter).
    pub fn rate_value(&self, key: &str) -> Option<f64> {
        match self.stats.get(key)? {
            StatValue::Rate(x) => Some(*x),
            StatValue::Counter(_) => None,
        }
    }

    /// Serializes to the stable one-stat-per-line JSON layout.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * (self.stats.len() + self.meta.len() + 4));
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
        out.push_str("  \"meta\": {\n");
        let mut first = true;
        for (k, v) in &self.meta {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("    {}: {}", json_string(k), json_string(v)));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"stats\": {\n");
        let mut first = true;
        for (k, v) in &self.stats {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let value = match v {
                StatValue::Counter(n) => format!("{{ \"kind\": \"counter\", \"value\": {n} }}"),
                StatValue::Rate(x) => {
                    format!("{{ \"kind\": \"rate\", \"value\": {} }}", json_f64(*x))
                }
            };
            out.push_str(&format!("    {}: {value}", json_string(k)));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a snapshot previously produced by [`StatsSnapshot::to_json`].
    ///
    /// Accepts arbitrary whitespace and key order; returns a descriptive
    /// error for malformed input or an unknown format version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = Parser::new(text).parse_document()?;
        let Json::Object(fields) = root else {
            return Err("snapshot root is not a JSON object".into());
        };
        let mut meta = BTreeMap::new();
        let mut stats = BTreeMap::new();
        let mut version = None;
        for (key, value) in fields {
            match key.as_str() {
                "version" => match value {
                    Json::Number(raw) => {
                        version = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("bad version number: {raw}"))?,
                        );
                    }
                    _ => return Err("version is not a number".into()),
                },
                "meta" => {
                    let Json::Object(pairs) = value else {
                        return Err("meta is not an object".into());
                    };
                    for (k, v) in pairs {
                        let Json::String(s) = v else {
                            return Err(format!("meta value for {k:?} is not a string"));
                        };
                        meta.insert(k, s);
                    }
                }
                "stats" => {
                    let Json::Object(pairs) = value else {
                        return Err("stats is not an object".into());
                    };
                    for (k, v) in pairs {
                        stats.insert(k, parse_stat(v)?);
                    }
                }
                other => return Err(format!("unknown top-level key {other:?}")),
            }
        }
        match version {
            Some(FORMAT_VERSION) => Ok(Self { meta, stats }),
            Some(v) => Err(format!("unsupported snapshot version {v}")),
            None => Err("snapshot missing version".into()),
        }
    }
}

fn parse_stat(value: Json) -> Result<StatValue, String> {
    let Json::Object(fields) = value else {
        return Err("stat entry is not an object".into());
    };
    let mut kind = None;
    let mut raw = None;
    for (k, v) in fields {
        match (k.as_str(), v) {
            ("kind", Json::String(s)) => kind = Some(s),
            ("value", other) => raw = Some(other),
            (other, _) => return Err(format!("unknown stat field {other:?}")),
        }
    }
    let (kind, raw) = match (kind, raw) {
        (Some(k), Some(r)) => (k, r),
        _ => return Err("stat entry missing kind or value".into()),
    };
    match (kind.as_str(), raw) {
        ("counter", Json::Number(n)) => n
            .parse::<u64>()
            .map(StatValue::Counter)
            .map_err(|_| format!("bad counter value: {n}")),
        ("rate", Json::Number(n)) => n
            .parse::<f64>()
            .map(StatValue::Rate)
            .map_err(|_| format!("bad rate value: {n}")),
        ("rate", Json::String(s)) => match s.as_str() {
            "NaN" => Ok(StatValue::Rate(f64::NAN)),
            "inf" => Ok(StatValue::Rate(f64::INFINITY)),
            "-inf" => Ok(StatValue::Rate(f64::NEG_INFINITY)),
            other => Err(format!("bad non-finite rate: {other:?}")),
        },
        (kind, _) => Err(format!("bad stat kind/value combination for kind {kind:?}")),
    }
}

/// Encodes an `f64` so that parsing the text recovers the identical value.
fn json_f64(x: f64) -> String {
    if x.is_nan() {
        "\"NaN\"".into()
    } else if x == f64::INFINITY {
        "\"inf\"".into()
    } else if x == f64::NEG_INFINITY {
        "\"-inf\"".into()
    } else {
        // Rust's Display prints the shortest decimal that round-trips.
        // Negative zero prints as "-0" which parses back to -0.0.
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            // Keep rates visually distinct from counters in the file.
            format!("{s}.0")
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value tree; numbers keep their raw text so the caller can
/// parse them as `u64` or `f64` depending on the declared stat kind.
enum Json {
    Object(Vec<(String, Json)>),
    String(String),
    Number(String),
}

/// Deepest object nesting the snapshot parser accepts. It recurses once
/// per level, so without a limit a short run of `{"a":` would overflow
/// the parsing thread's stack; a snapshot nests three levels.
const MAX_DEPTH: usize = 64;

/// Minimal recursive-descent parser for the subset of JSON that snapshots
/// use: objects, strings, and numbers.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(value)
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek()? {
            b'{' if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            b'{' => {
                self.depth += 1;
                let value = self.parse_object();
                self.depth -= 1;
                value
            }
            b'"' => Ok(Json::String(self.parse_string()?)),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(format!(
                "unexpected byte {:?} at {}",
                other as char, self.pos
            )),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
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
                    // Reassemble a multi-byte UTF-8 sequence; input came from
                    // a &str so it is valid by construction.
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
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 sequence")?);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
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
        Ok(Json::Number(
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
        let got = self.next()?;
        if got == byte {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos - 1,
                got as char
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsSnapshot {
        let mut reg = Registry::new();
        reg.scoped("cpu", |r| {
            r.counter("committed", 70_164);
            r.rate("ipc", 1.403_28);
        });
        reg.rate("weird", -0.0);
        StatsSnapshot::from_registry(reg, &[("benchmark", "gap"), ("scheme", "proposed:1048576")])
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_json();
        let back = StatsSnapshot::from_json(&text).expect("parse");
        assert_eq!(snap, back);
        // Re-serializing is byte-identical (stable layout).
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn non_finite_rates_round_trip() {
        let mut reg = Registry::new();
        reg.rate("nan", f64::NAN);
        reg.rate("pinf", f64::INFINITY);
        reg.rate("ninf", f64::NEG_INFINITY);
        let snap = StatsSnapshot::from_registry(reg, &[]);
        let back = StatsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert!(matches!(back.get("nan"), Some(StatValue::Rate(x)) if x.is_nan()));
        assert_eq!(back.get("pinf"), Some(&StatValue::Rate(f64::INFINITY)));
        assert_eq!(back.get("ninf"), Some(&StatValue::Rate(f64::NEG_INFINITY)));
    }

    #[test]
    fn rejects_unknown_version() {
        let text = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(StatsSnapshot::from_json(&text)
            .unwrap_err()
            .contains("unsupported snapshot version"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(StatsSnapshot::from_json("not json").is_err());
        assert!(StatsSnapshot::from_json("{\"version\": 1").is_err());
        assert!(StatsSnapshot::from_json("").is_err());
    }

    #[test]
    fn nesting_is_limited() {
        // Far past the limit the parser stops at the limit, so it never
        // recurses deep enough to exhaust a thread's stack.
        let deep = "{\"a\":".repeat(100_000);
        let err = StatsSnapshot::from_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let at_limit = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        let err = StatsSnapshot::from_json(&at_limit).unwrap_err();
        assert!(!err.contains("nesting"), "{err}");
    }
}
