//! A minimal JSON tree — parser and writer — for the serve protocol.
//!
//! The workspace vendors no serde, and the newline-delimited protocol of
//! `tsg serve` needs only small documents, so this module implements the
//! JSON grammar directly: full string escapes (including `\uXXXX`
//! surrogate pairs), standard number syntax, and a recursion-depth limit
//! so a hostile request cannot overflow the worker's stack. Numbers are
//! `f64` (ample for request ids and counters); `NaN`/infinite literals
//! do not exist in JSON and are never produced.
//!
//! Object fields keep their textual order in a `Vec` rather than a map:
//! requests are tiny, responses are built field-by-field, and order
//! preservation keeps the output byte-deterministic.

use std::fmt::Write as _;

/// Maximum nesting depth a parsed document may have.
const MAX_DEPTH: usize = 64;

/// Maximum byte length of a parsed document — the same defence as
/// `MAX_DEPTH`, for width instead of depth: a hostile request cannot
/// make the parser build an arbitrarily large tree. The protocol reader
/// bounds request lines earlier (and configurably); this cap is the
/// parser's own last line.
pub const MAX_DOCUMENT_BYTES: usize = 8 * 1024 * 1024;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (JSON has only one numeric type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in textual order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the byte offset of the
    /// first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        if text.len() > MAX_DOCUMENT_BYTES {
            return Err(format!(
                "document of {} bytes exceeds the {MAX_DOCUMENT_BYTES}-byte limit",
                text.len()
            ));
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value of field `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's fields, when this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value as compact JSON (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact serialisation to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Writes `n` in canonical JSON form: integers without a fraction (every
/// id and counter round-trips exactly), everything else via Rust's
/// shortest-round-trip `f64` formatting.
fn write_number(n: f64, out: &mut String) {
    debug_assert!(n.is_finite(), "JSON cannot represent {n}");
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an escape
/// (`"`, `\` and the controls below 0x20) is ASCII, so the clean runs
/// between them are whole UTF-8 slices, each copied with one
/// `push_str`.
pub(crate) fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..at]);
        run = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(format!(
                "unexpected character {:?} at byte {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
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
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any byte run is valid UTF-8.
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input slices are valid UTF-8"),
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut s)?;
                }
                Some(&b) => {
                    return Err(format!(
                        "unescaped control character 0x{b:02x} at byte {}",
                        self.pos
                    ))
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn escape(&mut self, s: &mut String) -> Result<(), String> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err("unterminated escape".to_owned());
        };
        self.pos += 1;
        match b {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'b' => s.push('\u{8}'),
            b'f' => s.push('\u{c}'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.bytes.get(self.pos) == Some(&b'\\')
                        && self.bytes.get(self.pos + 1) == Some(&b'u')
                    {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("invalid low surrogate".to_owned());
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or("invalid surrogate pair")?
                    } else {
                        return Err("lone high surrogate".to_owned());
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err("lone low surrogate".to_owned());
                } else {
                    char::from_u32(hi).ok_or("invalid \\u escape")?
                };
                s.push(c);
            }
            other => {
                return Err(format!(
                    "invalid escape character {:?} at byte {}",
                    other as char,
                    self.pos - 1
                ))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(slice).map_err(|_| "non-ASCII \\u escape")?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape digits")?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("number {text:?} overflows at byte {start}"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        Json::parse(text).unwrap().dump()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn roundtrips_compactly() {
        assert_eq!(
            roundtrip(r#"{ "id" : 7 , "cmd" : "stats" }"#),
            r#"{"id":7,"cmd":"stats"}"#
        );
        assert_eq!(roundtrip("[1,2.5,-3]"), "[1,2.5,-3]");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{e9}\u{1F600}"));
        // Dumping re-escapes the required characters only.
        assert_eq!(v.dump(), "\"a\\\"b\\\\c\\ndA\u{e9}\u{1F600}\"");
        assert_eq!(Json::Str("ctrl\u{1}".into()).dump(), "\"ctrl\\u0001\"");
    }

    /// The per-`char` escaper `write_string` replaced, kept as the
    /// oracle of its bytes.
    fn write_string_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn string_escapes_match_the_per_char_writer() {
        // Every escape class and control byte, multibyte text, and runs
        // from empty to long between them.
        let pieces: Vec<String> = (0u8..0x20)
            .map(|b| char::from(b).to_string())
            .chain(["\"", "\\", "/", "\u{7f}", "é", "δ(37)", "\u{1F600}", "日本"].map(String::from))
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cases = vec![String::new(), "plain".to_owned(), "x".repeat(4096)];
        cases.extend(pieces.iter().cloned());
        for _ in 0..2000 {
            let mut s = String::new();
            for _ in 0..next() % 24 {
                s.push_str(&pieces[(next() % pieces.len() as u64) as usize]);
                let run = match next() % 4 {
                    0 => 0,
                    1 => 1,
                    2 => (next() % 16) as usize,
                    _ => (next() % 2048) as usize,
                };
                s.extend(std::iter::repeat_n('a', run));
            }
            cases.push(s);
        }
        for s in cases {
            let (mut runs, mut chars) = (String::new(), String::new());
            write_string(&s, &mut runs);
            write_string_per_char(&s, &mut chars);
            assert_eq!(runs, chars, "{s:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"\\x\"",
            "\"\\ud800\"",
            "nan",
            "{\"a\":1}x",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn rejects_oversized_documents() {
        let huge = format!("\"{}\"", "x".repeat(MAX_DOCUMENT_BYTES + 1));
        assert!(Json::parse(&huge).unwrap_err().contains("byte limit"));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).dump(), "3");
        assert_eq!(Json::Num(3.25).dump(), "3.25");
        assert_eq!(Json::Num(-0.0).dump(), "0");
        // Huge magnitudes fall back to f64 Display (long but valid JSON)
        // and round-trip exactly.
        assert_eq!(
            Json::parse(&Json::Num(1e300).dump()).unwrap(),
            Json::Num(1e300)
        );
    }
}
