//! Minimal hand-rolled JSON emission and parsing.
//!
//! The workspace's zero-dependency policy leaves no serde; this module
//! is the single place where JSON enters or leaves the process. The
//! emitter half ([`ToJson`], [`JsonObject`]) serves the bench reports
//! under `results/` and the [`crate::JsonlSink`] trace stream; the
//! parser half ([`parse`], [`validate`]) exists so the trace checker
//! can verify that every emitted JSONL line round-trips.
//!
//! (It lives in the telemetry crate because that crate sits at the
//! bottom of the dependency graph, so every crate can emit structured
//! events.)

use std::fmt::Write as _;

/// A value that can render itself as a JSON fragment.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// Renders this value as a standalone JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl ToJson for u32 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl ToJson for i64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl ToJson for f64 {
    /// Rust's shortest-roundtrip `Display` output is valid JSON for
    /// every finite value; non-finite values (which JSON cannot
    /// express) become `null`.
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Keys and most values need no escaping: copy them whole.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental JSON object builder.
///
/// # Examples
///
/// ```
/// use helcfl_telemetry::json::{JsonObject, ToJson};
///
/// let mut o = JsonObject::new();
/// o.field("scheme", "helcfl");
/// o.field("accuracy", 0.85);
/// assert_eq!(o.finish(), r#"{"scheme":"helcfl","accuracy":0.85}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self { buf: String::new() }
    }

    /// Appends one `"key": value` member.
    pub fn field<V: ToJson>(&mut self, key: &str, value: V) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write_escaped(key, &mut self.buf);
        self.buf.push(':');
        value.write_json(&mut self.buf);
        self
    }

    /// Appends a member whose value is a nested object.
    pub fn object(&mut self, key: &str, nested: JsonObject) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write_escaped(key, &mut self.buf);
        self.buf.push(':');
        self.buf.push_str(&nested.finish());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

impl ToJson for JsonObject {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{{}}}", self.buf);
    }
}

// ---------------------------------------------------------------------
// Parsing — a strict, allocation-light recursive-descent reader used by
// the trace checker (`check_trace`) and the JSONL tests. Not a DOM for
// application data flow; the simulator itself never *consumes* JSON.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list (duplicate keys kept).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Maximum nesting depth accepted by [`parse`]; prevents stack
/// exhaustion on hostile input.
const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value (with no trailing garbage).
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the
/// first violation.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Validates that `input` is exactly one well-formed JSON value.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (the input is valid UTF-8).
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON encodes astral
                            // chars as \uD8xx\uDCxx.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // consume the 'u' below expects it
                                if self.peek() != Some(b'\\') {
                                    return Err(format!(
                                        "unpaired surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(format!(
                                        "unpaired surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let c =
                                    0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(format!(
                                        "invalid code point at byte {}",
                                        self.pos
                                    ))
                                }
                            }
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Reads the 4 hex digits after a `\u` (cursor on the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let digits = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| format!("invalid \\u escape at byte {start}"))?;
        let cp = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("invalid \\u escape at byte {start}"))?;
        self.pos = end - 1; // leave cursor on the final digit
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("invalid number at byte {start}"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("invalid number at byte {start}"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("unparseable number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(true.to_json(), "true");
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-3i64).to_json(), "-3");
        assert_eq!(0.5f64.to_json(), "0.5");
        assert_eq!(2.0f64.to_json(), "2");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(Option::<u64>::None.to_json(), "null");
        assert_eq!(Some(7u64).to_json(), "7");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("plain".to_json(), r#""plain""#);
        assert_eq!("say \"hi\"\n".to_json(), r#""say \"hi\"\n""#);
        assert_eq!("back\\slash\ttab".to_json(), r#""back\\slash\ttab""#);
        assert_eq!("\u{1}".to_json(), r#""\u0001""#);
        // Non-ASCII passes through unescaped (JSON strings are UTF-8).
        assert_eq!("η = 0.3".to_json(), r#""η = 0.3""#);
    }

    #[test]
    fn vectors_render_as_arrays() {
        assert_eq!(vec![1u64, 2, 3].to_json(), "[1,2,3]");
        assert_eq!(Vec::<u64>::new().to_json(), "[]");
        assert_eq!(vec![0.25f64, 0.5].to_json(), "[0.25,0.5]");
    }

    #[test]
    fn objects_nest_and_preserve_field_order() {
        let mut inner = JsonObject::new();
        inner.field("gflops", 1.5);
        let mut o = JsonObject::new();
        o.field("name", "matmul").field("runs", 3usize).object("kernel", inner);
        assert_eq!(
            o.finish(),
            r#"{"name":"matmul","runs":3,"kernel":{"gflops":1.5}}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn parse_round_trips_emitted_objects() {
        let mut inner = JsonObject::new();
        inner.field("gflops", 1.5).field("label", "a\"b\\c\nd");
        let mut o = JsonObject::new();
        o.field("name", "matmul")
            .field("runs", 3usize)
            .field("ratio", -0.25)
            .field("missing", Option::<u64>::None)
            .field("flags", vec![true, false])
            .object("kernel", inner);
        let text = o.finish();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.get("name").and_then(JsonValue::as_str), Some("matmul"));
        assert_eq!(parsed.get("runs").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(parsed.get("ratio").and_then(JsonValue::as_f64), Some(-0.25));
        assert_eq!(parsed.get("missing"), Some(&JsonValue::Null));
        assert_eq!(
            parsed.get("kernel").and_then(|k| k.get("label")).and_then(JsonValue::as_str),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn parse_accepts_standard_forms() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("0").unwrap(), JsonValue::Number(0.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            JsonValue::String("é😀".to_string())
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "tru", "01", "1.", "1e", "+1", "[1,]", "{\"a\":}", "{\"a\" 1}",
            "\"unterminated", "{\"a\":1} extra", "\"\\x\"", "nan", "[1 2]",
            "\"\u{1}\"",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_unbounded_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(validate(&ok).is_ok());
    }
}
