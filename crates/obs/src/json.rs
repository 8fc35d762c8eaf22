//! The workspace's one JSON writer and one JSON reader.
//!
//! The workspace takes no serde dependency, so every JSON byte the repo
//! emits — result lines, `BENCH_engine.json`, the `--metrics-out`
//! documents, Chrome traces, flight events — is rendered by the writer
//! half ([`JsonObject`], [`array_lines`], [`json_escape`],
//! [`json_num`]), and every JSON byte it accepts — the service's
//! newline-delimited protocol, the committed bench baseline — goes
//! through the reader half ([`parse`], [`parse_object`]).
//!
//! Writer conventions: strings pass through [`json_escape`], object keys
//! are emitted in sorted order (stable diffs regardless of insertion
//! order), and an object renders on a single line. The reader's grammar
//! is full JSON (objects, arrays, strings with escapes, numbers,
//! booleans, `null`), restricted only in that numbers are held as `f64`
//! — integers are exact up to 2^53, far beyond any field the protocol
//! carries.

use std::collections::BTreeMap;
use std::fmt;

/// Escapes a string for inclusion inside a JSON string literal
/// (quotes, backslashes and control characters).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number: shortest round-trip form, or a
/// fixed number of `decimals`. JSON has no NaN/Infinity; both collapse
/// to 0.
#[must_use]
pub fn json_num(x: f64, decimals: Option<usize>) -> String {
    match decimals {
        _ if !x.is_finite() => "0".to_owned(),
        Some(decimals) => format!("{x:.decimals$}"),
        None => format!("{x}"),
    }
}

/// A JSON object builder: values render immediately, keys sort at
/// [`JsonObject::render`] time.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, rendered: String) -> Self {
        self.fields.push((key.to_owned(), rendered));
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a signed integer field.
    #[must_use]
    pub fn int(self, key: &str, value: i64) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a float field with a fixed number of decimals.
    #[must_use]
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        self.push(key, json_num(value, Some(decimals)))
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, value.to_string())
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        let escaped = json_escape(value);
        self.push(key, format!("\"{escaped}\""))
    }

    /// Adds every `(key, value)` pair as an unsigned integer field.
    #[must_use]
    pub fn uints(self, fields: &[(&str, u64)]) -> Self {
        fields.iter().fold(self, |obj, &(k, v)| obj.uint(k, v))
    }

    /// Adds a field whose value is already-rendered JSON (an array or a
    /// nested object).
    #[must_use]
    pub fn raw(self, key: &str, rendered: String) -> Self {
        self.push(key, rendered)
    }

    /// Renders `{"a": ..., "b": ...}` with keys in sorted order, on one
    /// line (embedded raw values may span lines).
    #[must_use]
    pub fn render(mut self) -> String {
        self.fields.sort_by(|a, b| a.0.cmp(&b.0));
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a JSON array with one item per line at the given indent.
#[must_use]
pub fn array_lines(items: &[String], indent: usize) -> String {
    if items.is_empty() {
        return "[]".to_owned();
    }
    let pad = " ".repeat(indent);
    let close = " ".repeat(indent.saturating_sub(2));
    let body: Vec<String> = items.iter().map(|i| format!("{pad}{i}")).collect();
    format!("[\n{}\n{close}]", body.join(",\n"))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53).
    Num(f64),
    /// A string, escape sequences decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; duplicate keys keep the last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is one.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Self::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a key → value map, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Self::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure: what was wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What the parser expected or rejected.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

/// Parses one line of the protocol: a single JSON object.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Json>, ParseError> {
    match parse(line)? {
        Json::Obj(map) => Ok(map),
        _ => Err(ParseError {
            at: 0,
            what: "expected a JSON object",
        }),
    }
}

/// Nesting deeper than this is rejected — the protocol needs two levels.
const MAX_DEPTH: usize = 32;

/// `pos` only ever rests on a char boundary of `text`: it advances past
/// whole ASCII tokens, or through a string's plain run up to the next
/// ASCII delimiter.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &'static str, value: Json) -> Result<Json, ParseError> {
        if self.text[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let n: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("bad number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        // Exactly four hex digits: `from_str_radix` would also take a sign.
        let code = self
            .text
            .as_bytes()
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?
            .iter()
            .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote, backslash or
            // control byte in one step. All three are ASCII, so the run
            // ends on a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate must pair with a following
                            // \uXXXX low surrogate.
                            if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            }
                            let ch =
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[', "expected an array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{', "expected an object")?;
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
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_sim::rng::{Rng, SplitMix64};

    #[test]
    fn object_sorts_keys_and_escapes_strings() {
        let text = JsonObject::new()
            .uint("zeta", 3)
            .str("alpha", "a\"b")
            .float("mid", 1.25, 2)
            .render();
        assert_eq!(text, "{\"alpha\": \"a\\\"b\", \"mid\": 1.25, \"zeta\": 3}");
    }

    #[test]
    fn array_lines_lays_one_item_per_line() {
        let text = array_lines(&["{\"a\": 1}".to_owned(), "{\"b\": 2}".to_owned()], 4);
        assert_eq!(text, "[\n    {\"a\": 1},\n    {\"b\": 2}\n  ]");
        assert_eq!(array_lines(&[], 4), "[]");
    }

    #[test]
    fn parses_the_protocol_shapes() {
        let line = r#"{"id": "a-1", "pes": 8, "link_loss": 0.25, "dead_mms": [3, 5], "telemetry": true, "note": null}"#;
        let obj = parse_object(line).unwrap();
        assert_eq!(obj["id"].as_str(), Some("a-1"));
        assert_eq!(obj["pes"].as_u64(), Some(8));
        assert_eq!(obj["link_loss"].as_f64(), Some(0.25));
        assert_eq!(obj["telemetry"], Json::Bool(true));
        assert_eq!(obj["note"], Json::Null);
        let mms: Vec<u64> = obj["dead_mms"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(mms, [3, 5]);
    }

    #[test]
    fn decodes_escapes_including_surrogate_pairs() {
        let obj = parse_object(r#"{"s": "a\"b\\c\n\u0041\ud83d\ude00"}"#).unwrap();
        assert_eq!(obj["s"].as_str(), Some("a\"b\\c\nA\u{1F600}"));
    }

    #[test]
    fn numbers_distinguish_integers_from_floats() {
        let obj = parse_object(r#"{"n": -12, "x": 1.5, "e": 2e3}"#).unwrap();
        assert_eq!(obj["n"].as_i64(), Some(-12));
        assert_eq!(obj["n"].as_u64(), None, "negative is not a u64");
        assert_eq!(obj["x"].as_u64(), None, "fractional is not an integer");
        assert_eq!(obj["e"].as_u64(), Some(2000));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "nul",
            "\"unterminated",
            "{\"s\": \"\\q\"}",
            "{\"s\": \"\\ud800\"}",
            "007a",
            "{\"n\": 1e999}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn protocol_lines_must_be_objects() {
        assert!(parse_object("[1, 2]").is_err());
        assert!(parse_object("42").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [r#""\u+1a2""#, r#""\u-1a2""#, r#""\u 1a2""#, r#""\u1a""#] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
        assert_eq!(parse(r#""\u01a2""#), Ok(Json::Str("\u{1a2}".to_owned())));
    }

    #[test]
    fn a_maximal_request_line_parses_in_linear_time() {
        // The service caps a request line at 1 MiB and parses it on the
        // connection's reader thread: a string field that fills the line
        // must cost time linear in it (quadratic is 26 s, release build).
        let line = format!(
            r#"{{"id": "{}é\n{}"}}"#,
            "a".repeat(1 << 19),
            "b".repeat(1 << 19)
        );
        let started = std::time::Instant::now();
        let obj = parse_object(&line).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
        assert_eq!(obj["id"].as_str().map(str::len), Some((1 << 20) + 3));
    }

    #[test]
    fn mutated_protocol_lines_parse_or_fail_with_a_typed_error() {
        // Seeded replace/insert/delete/truncate mutations of real job and
        // control lines: every outcome is `Ok` or a `ParseError` inside
        // the input, never a panic (a slice off a char boundary would be
        // one — hence the non-ASCII ids).
        let corpus = [
            r#"{"id": "warm", "pes": 8, "seed": 11, "workload": "ticket", "rounds": 40, "cycles": 600, "checkpoint_every": 512, "priority": 10}"#,
            r#"{"id": "faulty-é😀", "pes": 8, "seed": 4, "copies": 2, "dead_copies": [0], "link_loss": 0.25, "workload": "counter"}"#,
            r#"{"id": "a\"b\\c\n\u0041\ud83d\ude00", "telemetry_window": 64, "timeout_ms": null, "x": -1.5e3}"#,
            r#"{"cancel": "some-job"}"#,
            r#"{"metrics": true}"#,
            r#"{"shutdown": true}"#,
        ];
        let palette = br#""\{}[]:,u+-.eE019afnrt "#;
        let mut rng = SplitMix64::new(0x17_5eed);
        for case in 0..100_000 {
            let mut bytes = corpus[rng.below(corpus.len())].as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len().max(1));
                let byte = if rng.chance(0.5) {
                    palette[rng.below(palette.len())]
                } else {
                    rng.next_u64() as u8
                };
                match rng.below(4) {
                    0 if !bytes.is_empty() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 if !bytes.is_empty() => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse(&text) {
                assert!(e.at <= text.len(), "case {case}: {e} outside {text:?}");
            }
        }
    }
}
