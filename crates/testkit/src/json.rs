//! A tiny JSON value type, byte-stable pretty emitter, and parser.
//!
//! Replaces `serde`/`serde_json` for the experiment reports. Object
//! keys keep insertion order (no hashing), the pretty format matches
//! `serde_json::to_string_pretty` (two-space indent, `"key": value`,
//! no trailing newline), and emission is fully deterministic — so
//! committed results files diff cleanly run to run. [`Json::parse`]
//! reads any standard JSON text back (numbers without `.`/`e` become
//! [`Json::Int`], everything else [`Json::Float`]), which the
//! observability tests use to round-trip emitted Chrome traces.
//!
//! # Example
//!
//! ```
//! use flexsim_testkit::json::Json;
//!
//! let doc = Json::obj([
//!     ("id", Json::str("fig15")),
//!     ("rows", Json::arr([Json::from(1i64), Json::from(2i64)])),
//! ]);
//! assert_eq!(doc.pretty(), "{\n  \"id\": \"fig15\",\n  \"rows\": [\n    1,\n    2\n  ]\n}");
//! ```

use std::fmt::Write as _;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (emitted without decimal point).
    Int(i64),
    /// A float (emitted via Rust's shortest-roundtrip `{}` formatting).
    Float(f64),
    /// A string (escaped on emission).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
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

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array of strings (the common report row shape).
    pub fn str_arr<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> Json {
        Json::Arr(items.into_iter().map(|s| Json::str(s.as_ref())).collect())
    }

    /// Parses a JSON document, requiring the whole input to be one
    /// value (surrounding whitespace allowed).
    ///
    /// Numbers lex as [`Json::Int`] when they are plain integers that
    /// fit an `i64` and as [`Json::Float`] otherwise, matching the
    /// emitter's split — `parse(v.pretty())` reproduces `v` for any
    /// finite document.
    ///
    /// # Example
    ///
    /// ```
    /// use flexsim_testkit::json::Json;
    ///
    /// let doc = Json::obj([("n", Json::Int(3)), ("ok", Json::Bool(true))]);
    /// assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    /// assert!(Json::parse("{broken").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Compact single-line form.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // Shortest round-trip; force a decimal point so the
                    // value reads back as a float.
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; emit null like serde_json.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, depth, pretty, '[', ']', items.iter(), |out, v, d| {
                    v.write(out, d, pretty);
                });
            }
            Json::Obj(pairs) => write_seq(
                out,
                depth,
                pretty,
                '{',
                '}',
                pairs.iter(),
                |out, (k, v), d| {
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, d, pretty);
                },
            ),
        }
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v).map_or(Json::Float(v as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::str(v)
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn write_seq<T>(
    out: &mut String,
    depth: usize,
    pretty: bool,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut emit: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    if n == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if pretty {
            out.push('\n');
            indent(out, depth + 1);
        }
        emit(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if pretty {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so hostile input (say 100k `[`) must end in
/// an error, not a stack overflow; real documents nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    // Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8, what: &str) -> Result<(), JsonParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(self.err(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',', "expected ',' or ']' in array")?;
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            self.expect(b',', "expected ',' or '}' in object")?;
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped, non-control) bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Safety of from_utf8: the input is a &str and we only
            // split at ASCII bytes, so every run is valid UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 run"));
            match self.peek() {
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let hi = self.hex4()?;
        // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..0xDC00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.digits() {
            return Err(self.err("expected digits"));
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if !self.digits() {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serde_json_pretty_layout() {
        let doc = Json::obj([
            ("id", Json::str("x")),
            ("notes", Json::str_arr(["n"])),
            (
                "table",
                Json::obj([
                    ("headers", Json::str_arr(["k"])),
                    ("rows", Json::arr([Json::str_arr(["v"])])),
                ]),
            ),
        ]);
        let want = r#"{
  "id": "x",
  "notes": [
    "n"
  ],
  "table": {
    "headers": [
      "k"
    ],
    "rows": [
      [
        "v"
      ]
    ]
  }
}"#;
        assert_eq!(doc.pretty(), want);
    }

    #[test]
    fn empty_containers_are_inline() {
        assert_eq!(Json::arr([]).pretty(), "[]");
        assert_eq!(Json::obj::<String>([]).pretty(), "{}");
    }

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(Json::str("a\"b\\c\nd").compact(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{01}").compact(), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_textually() {
        assert_eq!(Json::Int(-7).compact(), "-7");
        assert_eq!(Json::Float(1.5).compact(), "1.5");
        assert_eq!(Json::Float(2.0).compact(), "2.0");
        assert_eq!(Json::Float(f64::NAN).compact(), "null");
        // u64 values beyond i64 fall back to Float and keep a decimal
        // point so they read back as floats.
        assert_eq!(Json::from(u64::MAX).compact(), "18446744073709552000.0");
    }

    #[test]
    fn parse_round_trips_pretty_and_compact() {
        let doc = Json::obj([
            ("id", Json::str("fig15")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("n", Json::Int(-42)),
            ("f", Json::Float(2.5)),
            (
                "rows",
                Json::arr([Json::arr([]), Json::obj::<String>([]), Json::str("a\"b\n")]),
            ),
        ]);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
    }

    #[test]
    fn parse_number_lexing_matches_the_emitter_split() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-2.5E-1").unwrap(), Json::Float(-0.25));
        // Integers beyond i64 degrade to Float, like From<u64>.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(1e20)
        );
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\u0041\/""#).unwrap(),
            Json::str("a\"b\\c\ndA/")
        );
        // Surrogate pair → one astral char.
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        // Raw non-ASCII passes through.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::str("héllo"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "01x",
            "-",
            "1.",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nullx",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_nesting_past_the_depth_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nest deeper than 128"), "{err}");
        // Deep enough to overflow the stack of a recursion without the
        // limit; objects count toward the same depth.
        let hostile = "[{\"a\": ".repeat(50_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert_eq!(err.offset, 64 * 7);
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_tolerates_whitespace_everywhere() {
        let doc = Json::parse(" {\n \"a\" : [ 1 ,\t2 ] }\r\n").unwrap();
        assert_eq!(
            doc,
            Json::obj([("a", Json::arr([Json::Int(1), Json::Int(2)]))])
        );
    }

    #[test]
    fn emission_is_byte_stable() {
        let build = || Json::obj([("b", Json::from(2i64)), ("a", Json::from(1i64))]).pretty();
        // Insertion order, not key order — and identical across calls.
        assert_eq!(build(), "{\n  \"b\": 2,\n  \"a\": 1\n}");
        assert_eq!(build(), build());
    }
}
