//! A minimal, hardened JSON reader/writer: the workspace's one JSON
//! codec. Every JSON artifact the workspace writes escapes its strings
//! with [`escape`], and every JSON reader goes through [`parse`]. It
//! sits at the bottom of the stack, so every crate can reach it.
//!
//! The serve loop parses thousands of untrusted request lines, so the
//! parser is written for containment rather than speed: strict
//! grammar (no trailing garbage, no `NaN`/`Infinity` tokens, no
//! unescaped control characters), a recursion-depth cap so a
//! `[[[[…]]]]` bomb cannot blow the stack, and typed [`JsonError`]s
//! carrying the byte offset of the defect.

use core::fmt;

/// Maximum nesting depth a request document may use. Requests are
/// flat objects with one level of arrays; 32 is generous.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
///
/// Numbers are kept as `f64` (the grammar's only numeric type);
/// objects preserve key order so re-rendering is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON. Whole numbers print
    /// without a fractional part so an echoed request id `7` comes
    /// back as `7`, not `7.0`.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

/// Renders an `f64` deterministically: integral values within the
/// exactly-representable range print as integers, and non-finite
/// values (which JSON cannot spell) as `null`.
pub fn render_number(n: f64, out: &mut String) {
    use core::fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use core::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parse defect: what went wrong and where.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the defect in the input.
    pub offset: usize,
    /// Human-readable description.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON document; trailing non-whitespace is an
/// error (a request line must be one object, not two).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected `{lit}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the 32-level limit"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept a following low
                            // surrogate, reject lone halves.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the whole run of plain bytes. It ends at a
                    // quote, a backslash, a control byte or the end of
                    // input — all ASCII, so never inside a multi-byte
                    // scalar, and the run is a slice of the input str.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = core::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        let n: f64 = text.parse().map_err(|_| self.err("malformed number"))?;
        // `1e999` parses to infinity; a request must not smuggle a
        // non-finite value past the grammar.
        if !n.is_finite() {
            return Err(self.err("number does not fit a finite f64"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_request_shape() {
        let src = r#"{"id":7,"kind":"estimate","graph":"nvmeof","rate_gbps":5.5,"tags":["a","b"],"opts":{"deny_warnings":true,"x":null}}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("estimate"));
        assert_eq!(
            v.get("opts")
                .unwrap()
                .get("deny_warnings")
                .and_then(Json::as_bool),
            Some(true)
        );
        let mut out = String::new();
        v.render(&mut out);
        assert_eq!(out, src, "compact render is the identity on compact input");
        // Non-finite numbers have no JSON spelling: they render as
        // `null` and parse back as one.
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let rendered = Json::Arr(vec![Json::Num(n), Json::Num(1.5)]).to_string();
            assert_eq!(rendered, "[null,1.5]", "{n}");
            assert_eq!(
                parse(&rendered).unwrap(),
                Json::Arr(vec![Json::Null, Json::Num(1.5)])
            );
        }
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for src in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}garbage",
            "nul",
            "{'a':1}",
            "{\"a\":01x}",
            "{\"a\":NaN}",
            "{\"a\":Infinity}",
            "{\"a\":1e999}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":1,\"a\":2}",
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.offset <= src.len(), "{src:?}: {err}");
        }
    }

    #[test]
    fn depth_bomb_is_contained() {
        let bomb = "[".repeat(10_000);
        let err = parse(&bomb).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = parse(r#""tab\t quote\" slash\\ pair\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" slash\\ pair😀"));
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escape("t\tr\r"), "t\\tr\\r");
    }

    #[test]
    fn multi_byte_characters_between_escapes_round_trip() {
        // 2-, 3- and 4-byte scalars, each next to an escape.
        let text = "é\n中\t😀\"ß\\€\u{1}𝄞/x";
        let v = parse(r#""é\n中\t😀\"ß\\€\u0001𝄞\/x""#).unwrap();
        assert_eq!(v.as_str(), Some(text));
        let mut out = String::new();
        v.render(&mut out);
        assert_eq!(parse(&out).unwrap().as_str(), Some(text));
    }

    #[test]
    fn a_string_filling_the_line_limit_parses() {
        // 64 KiB, the service's default `max_line_bytes`, of mixed
        // widths and escapes.
        let unit = "ab\u{e9}\u{4e2d}\u{1f600}\\n";
        let body = unit.repeat((64 * 1024 - r#"{"s":""}"#.len()) / unit.len());
        let line = format!("{{\"s\":\"{body}\"}}");
        assert!(line.len() > 64 * 1024 - unit.len() && line.len() <= 64 * 1024);
        let v = parse(&line).unwrap();
        let want = body.replace("\\n", "\n");
        assert_eq!(v.get("s").and_then(Json::as_str), Some(want.as_str()));
    }

    #[test]
    fn number_rendering_is_integer_aware() {
        let mut out = String::new();
        render_number(7.0, &mut out);
        out.push(' ');
        render_number(2.5, &mut out);
        out.push(' ');
        render_number(-3.0, &mut out);
        assert_eq!(out, "7 2.5 -3");
    }
}
