//! Minimal hand-rolled JSON emission and parsing.
//!
//! The workspace's zero-dependency policy leaves no serde; this module
//! is the single place where JSON enters or leaves the process. The
//! emitter half ([`ToJson`], [`JsonObject`]) serves the bench reports
//! under `results/` and the [`crate::JsonlSink`] trace stream; the
//! parser half ([`parse`], [`validate`]) reads them back. Every field
//! a reader takes from outside input (a trace line, a checkpoint, a
//! bench report) goes through one typed reader, [`JsonValue::field`]:
//! a missing or ill-typed field is a [`FieldError`] naming the key and
//! what its value must be, and the caller adds its own context.
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

    /// Appends `"key": value` like [`Self::field`], refusing a NaN or
    /// an infinity by `key` as [`finite`] does (`None` is `null`).
    ///
    /// # Errors
    ///
    /// A [`FieldError`] naming `key` when `value` is not finite.
    pub fn finite(
        &mut self,
        key: &str,
        value: impl Into<Option<f64>>,
    ) -> Result<&mut Self, FieldError> {
        let value = value.into().map(|v| finite(key, v)).transpose()?;
        Ok(self.field(key, value))
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

/// `value` if it is finite. JSON holds no NaN or infinity ([`ToJson`]
/// writes `null`), so a writer whose reader must get every number back
/// refuses one by `key`.
///
/// # Errors
///
/// A [`FieldError`] naming `key` when `value` is NaN or infinite.
pub fn finite(key: &str, value: f64) -> Result<f64, FieldError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(FieldError::new(key, format!("finite (JSON cannot hold {value})")))
    }
}

// ---------------------------------------------------------------------
// Parsing — a strict, allocation-light recursive-descent reader, and
// the one typed field reader every consumer of outside JSON goes
// through. The round loop itself never consumes JSON.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a sign, a fraction or an exponent, or an integer
    /// literal beyond `u64`: the correctly rounded `f64`.
    Number(f64),
    /// A non-negative integer literal that fits a `u64`, held exactly.
    Integer(u64),
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

    /// The numeric value, if this is a number (an integer literal
    /// rounds to the nearest `f64`, as `str::parse` would).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::Integer(n) => Some(*n as f64),
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

    /// The member `key` of this object read as a `T`.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] naming `key` when this is not an object, the
    /// member is absent, or its value is not a `T`.
    ///
    /// # Examples
    ///
    /// ```
    /// use helcfl_telemetry::json::parse;
    ///
    /// let v = parse(r#"{"round":3,"loss":null}"#).unwrap();
    /// assert_eq!(v.field::<u64>("round"), Ok(3));
    /// assert_eq!(v.field::<Option<f64>>("loss"), Ok(None));
    /// let err = v.field::<u32>("epoch").unwrap_err();
    /// assert_eq!(err.to_string(), r#"field "epoch" must be an integer in [0, 2^32)"#);
    /// ```
    pub fn field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, FieldError> {
        self.get(key).and_then(T::from_json).ok_or_else(|| FieldError::new(key, T::want()))
    }

    /// Like [`Self::field`], but an absent member reads as `None`.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] naming `key` when the member is present and not
    /// a `T`.
    pub fn optional<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, FieldError> {
        self.get(key).map(|_| self.field(key)).transpose()
    }
}

/// A field [`JsonValue::field`] refused: its key and what its value
/// must be. The caller adds the context (the line, span, metric or
/// file the field belongs to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The refused field's key.
    pub key: String,
    /// What its value must be, e.g. `an integer in [0, 2^32)`.
    pub want: String,
}

impl FieldError {
    /// A refusal of `key`, whose value must be `want`.
    pub fn new(key: &str, want: impl Into<String>) -> Self {
        Self { key: key.to_string(), want: want.into() }
    }
}

impl core::fmt::Display for FieldError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "field {:?} must be {}", self.key, self.want)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> Self {
        e.to_string()
    }
}

/// A type a JSON value reads as, through [`JsonValue::field`].
pub trait FromJson<'a>: Sized {
    /// What a value must be to read as this type.
    fn want() -> String;

    /// `v` read as this type, or `None` when it is not one.
    fn from_json(v: &'a JsonValue) -> Option<Self>;
}

/// Implements [`FromJson`] from a `want` text and a reading closure.
macro_rules! from_json {
    ($($t:ty, $want:expr, $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            fn want() -> String {
                $want.to_string()
            }

            fn from_json(v: &'a JsonValue) -> Option<Self> {
                let read: fn(&'a JsonValue) -> Option<Self> = $read;
                read(v)
            }
        }
    )*};
}

from_json! {
    // Seeds, span ids, µs times, counters, lengths and indices: an
    // integer literal read exactly, refused beyond the type's range.
    u64, "an integer in [0, 2^64)", |v| match v {
        JsonValue::Integer(n) => Some(*n),
        _ => None,
    };
    u32, "an integer in [0, 2^32)", |v| u64::from_json(v).and_then(|n| n.try_into().ok());
    usize, format!("an integer in [0, 2^{})", usize::BITS), |v| {
        u64::from_json(v).and_then(|n| n.try_into().ok())
    };
    f64, "a number", JsonValue::as_f64;
    // An `f32` is written widened to `f64`, so it reads back exactly;
    // a number no `f32` equals (an integer literal included) is
    // refused, not rounded.
    f32, "a number an f32 holds exactly", |v| {
        let x = v.as_f64()?;
        let literal = u64::from_json(v).is_none_or(|n| x as u128 == u128::from(n));
        (literal && f64::from(x as f32) == x).then_some(x as f32)
    };
    bool, "a boolean", JsonValue::as_bool;
    &'a str, "a string", JsonValue::as_str;
    &'a [JsonValue], "an array", |v| match v {
        JsonValue::Array(items) => Some(items.as_slice()),
        _ => None,
    };
    &'a [(String, JsonValue)], "an object", |v| match v {
        JsonValue::Object(members) => Some(members.as_slice()),
        _ => None,
    };
    // An object kept whole, to read its own fields from.
    &'a JsonValue, "an object", |v| matches!(v, JsonValue::Object(_)).then_some(v);
}

/// An array every entry of which reads as a `T`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn want() -> String {
        format!("an array, each entry {}", T::want())
    }

    fn from_json(v: &'a JsonValue) -> Option<Self> {
        <&[JsonValue]>::from_json(v)?.iter().map(T::from_json).collect()
    }
}

/// A two-entry array `[a, b]`.
impl<'a, A: FromJson<'a>, B: FromJson<'a>> FromJson<'a> for (A, B) {
    fn want() -> String {
        format!("a pair [{}, {}]", A::want(), B::want())
    }

    fn from_json(v: &'a JsonValue) -> Option<Self> {
        match <&[JsonValue]>::from_json(v)? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

/// `null` reads as `None`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn want() -> String {
        format!("{} or null", T::want())
    }

    fn from_json(v: &'a JsonValue) -> Option<Self> {
        match v {
            JsonValue::Null => Some(None),
            v => T::from_json(v).map(Some),
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
        // A plain non-negative integer stays exact; `u64::from_str`
        // refuses a sign, a fraction, an exponent and overflow.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Integer(n));
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("unparseable number at byte {start}"))
    }
}

/// Every one-member corruption of the object `v`, for the readers'
/// refusal tables: `(key, v without the member, v with the member's
/// value of another JSON type)`.
#[cfg(test)]
pub(crate) fn corruptions(v: &JsonValue) -> Vec<(String, JsonValue, JsonValue)> {
    let JsonValue::Object(members) = v else { panic!("not an object: {v:?}") };
    (0..members.len())
        .map(|i| {
            let mut without = members.clone();
            let (key, value) = without.remove(i);
            let mut wrong = members.clone();
            wrong[i].1 = match value {
                JsonValue::Bool(_) => JsonValue::String("wrong".into()),
                _ => JsonValue::Bool(true),
            };
            (key, JsonValue::Object(without), JsonValue::Object(wrong))
        })
        .collect()
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
        assert_eq!(parse("0").unwrap(), JsonValue::Integer(0));
        assert_eq!(parse("-0").unwrap(), JsonValue::Number(-0.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Number(1000.0));
        // Past u64 an integer literal is only a number.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            JsonValue::Number(18_446_744_073_709_551_616.0)
        );
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
    fn field_reads_each_type_by_its_rule_and_refuses_by_key() {
        let v = parse(
            r#"{"n":3,"big":4294967296,"odd":9007199254740993,"max":18446744073709551615,
                "over":18446744073709551616,"whole":3.0,"exp":1e3,"tenth":0.1,
                "f32":7.038531e-26,"wide":7.038530691851209e-26,
                "neg":-1,"half":1.5,"x":0.25,"t":true,"s":"hi","a":[1,2],"o":{"k":1},
                "p":[7,"q"],"z":null}"#,
        )
        .unwrap();
        assert_eq!(v.field::<u64>("n"), Ok(3));
        // Integers are exact: 2^53 + 1 and u64::MAX have no f64.
        assert_eq!(v.field::<u64>("odd"), Ok((1 << 53) + 1));
        assert_eq!(v.field::<usize>("odd"), Ok((1 << 53) + 1));
        assert_eq!(v.field::<u64>("max"), Ok(u64::MAX));
        assert_eq!(v.field::<u32>("n"), Ok(3));
        assert_eq!(v.field::<f64>("n"), Ok(3.0));
        assert_eq!(v.field::<f64>("odd"), Ok(9_007_199_254_740_992.0));
        assert_eq!(v.field::<f64>("x"), Ok(0.25));
        assert_eq!(v.field::<f32>("x"), Ok(0.25));
        assert_eq!(v.field::<f32>("n"), Ok(3.0));
        // An f32 written widened to f64 comes back bit for bit; its own
        // shortest text, read through f64, would round to the next f32.
        assert_eq!(v.field::<f32>("wide").map(f32::to_bits), Ok(0x15ae_43fd));
        assert_eq!(v.field::<bool>("t"), Ok(true));
        assert_eq!(v.field::<&str>("s"), Ok("hi"));
        assert_eq!(v.field::<&[JsonValue]>("a").map(<[_]>::len), Ok(2));
        assert_eq!(v.field::<Vec<u32>>("a"), Ok(vec![1, 2]));
        assert_eq!(v.field::<(usize, &str)>("p"), Ok((7, "q")));
        assert_eq!(v.field::<&[(String, JsonValue)]>("o").map(<[_]>::len), Ok(1));
        assert_eq!(v.field::<&JsonValue>("o").map(|o| o.field::<u64>("k")), Ok(Ok(1)));
        assert_eq!(v.field::<Option<f64>>("z"), Ok(None));
        assert_eq!(v.field::<Option<f64>>("x"), Ok(Some(0.25)));
        assert_eq!(v.optional::<u64>("absent"), Ok(None));
        assert_eq!(v.optional::<u64>("n"), Ok(Some(3)));
        for (key, err) in [
            ("big", v.field::<u32>("big").unwrap_err()),
            ("over", v.field::<u64>("over").unwrap_err()),
            ("over", v.field::<usize>("over").unwrap_err()),
            // A count is an integer literal, not a whole number.
            ("whole", v.field::<u64>("whole").unwrap_err()),
            ("exp", v.field::<usize>("exp").unwrap_err()),
            // No f32 equals these: refused, not rounded.
            ("tenth", v.field::<f32>("tenth").unwrap_err()),
            ("f32", v.field::<f32>("f32").unwrap_err()),
            ("max", v.field::<f32>("max").unwrap_err()),
            ("neg", v.field::<u64>("neg").unwrap_err()),
            ("half", v.field::<usize>("half").unwrap_err()),
            ("s", v.field::<f64>("s").unwrap_err()),
            ("n", v.field::<bool>("n").unwrap_err()),
            ("t", v.field::<&str>("t").unwrap_err()),
            ("o", v.field::<&[JsonValue]>("o").unwrap_err()),
            ("a", v.field::<&JsonValue>("a").unwrap_err()),
            ("a", v.field::<(u64, &str)>("a").unwrap_err()),
            ("p", v.field::<Vec<u64>>("p").unwrap_err()),
            ("z", v.field::<f64>("z").unwrap_err()),
            ("s", v.optional::<u64>("s").unwrap_err()),
            ("absent", v.field::<u64>("absent").unwrap_err()),
        ] {
            assert_eq!(err.key, key, "{err}");
            assert!(err.to_string().starts_with(&format!("field {key:?} must be ")), "{err}");
        }
        // A non-object has no fields.
        assert_eq!(JsonValue::Null.field::<u64>("n").unwrap_err().key, "n");
    }

    #[test]
    fn parse_rejects_unbounded_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(validate(&ok).is_ok());
    }
}
