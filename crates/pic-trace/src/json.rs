//! Minimal JSON value parser for validating and inspecting trace output.
//!
//! The workspace builds offline (no serde), so the trace layer carries its
//! own reader: a small recursive-descent parser covering the full JSON
//! grammar, plus an ndjson validator used by tests and the CI smoke check.
//! It is a *consumer-side* tool — the emitter in [`crate::tracer`] writes
//! records by hand and never goes through this module.

use std::fmt;

/// A parsed JSON value. Numbers are kept as `f64` (every value the tracer
/// emits fits; u64 counters up to 2^53 round-trip exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset into the input plus a static message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as u64 (requires an exact non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let span = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        span.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            offset: start,
            msg: "invalid number",
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.expect(b'\\', "expected low surrogate")?;
                                self.expect(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-scan from the byte we consumed so multi-byte UTF-8
                    // sequences pass through intact.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected array")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected object")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Shape summary of a validated ndjson trace (see [`validate_ndjson`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NdjsonCheck {
    /// Non-empty lines parsed.
    pub lines: usize,
    /// Records by type.
    pub runs: usize,
    pub steps: usize,
    pub cuts: usize,
    pub switches: usize,
    /// The (single) summary record, when present.
    pub summary: Option<Json>,
}

/// Validate a newline-delimited JSON trace: every non-empty line must
/// parse as an object carrying a string `"type"` field, and at most one
/// `"summary"` record may appear. Errors name the offending line.
pub fn validate_ndjson(text: &str) -> Result<NdjsonCheck, String> {
    let mut check = NdjsonCheck {
        lines: 0,
        runs: 0,
        steps: 0,
        cuts: 0,
        switches: 0,
        summary: None,
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: record lacks a string \"type\"", lineno + 1))?;
        match ty {
            "run" => check.runs += 1,
            "step" => check.steps += 1,
            "cuts" => check.cuts += 1,
            "switch" => check.switches += 1,
            "summary" => {
                if check.summary.is_some() {
                    return Err(format!("line {}: duplicate summary record", lineno + 1));
                }
                check.summary = Some(v.clone());
            }
            other => {
                return Err(format!(
                    "line {}: unknown record type {other:?}",
                    lineno + 1
                ))
            }
        }
        check.lines += 1;
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            Json::parse("\"a\\nb\\u00e9\"").unwrap(),
            Json::Str("a\nb\u{e9}".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let Some(Json::Arr(arr)) = v.get("a") else {
            panic!("`a` is not an array: {v:?}");
        };
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pair_round_trips() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn validates_ndjson_shape() {
        let good = "{\"type\":\"run\"}\n{\"type\":\"step\",\"step\":1}\n\
                    {\"type\":\"switch\",\"step\":1}\n{\"type\":\"summary\"}\n";
        let check = validate_ndjson(good).unwrap();
        assert_eq!((check.runs, check.steps, check.cuts), (1, 1, 0));
        assert_eq!(check.switches, 1);
        assert!(check.summary.is_some());

        assert!(validate_ndjson("{\"step\":1}\n").is_err(), "missing type");
        assert!(validate_ndjson("not json\n").is_err());
        assert!(
            validate_ndjson("{\"type\":\"summary\"}\n{\"type\":\"summary\"}\n").is_err(),
            "duplicate summary"
        );
    }
}
