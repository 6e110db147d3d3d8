//! The workspace's one JSON codec, matching the `adya-check` house
//! style: the sanctioned dependency set has no serializer and the
//! shapes are small, so a string builder with escaping is the writer
//! and a bounded-depth recursive-descent [`parse`] is the reader.
//! Every crate that emits or reads JSON text does it through here.

use std::fmt::Write as _;

/// Appends `s` to `out`, escaped for inclusion in a JSON string
/// literal. Allocates only when `out` has to grow. `out` may be any
/// [`fmt::Write`](std::fmt::Write), a sink that only counts bytes
/// included; an error it returns is dropped (a `String` returns none).
pub fn write_escaped<W: std::fmt::Write + ?Sized>(out: &mut W, s: &str) {
    for c in s.chars() {
        let _ = match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\t' => out.write_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32),
            c => out.write_char(c),
        };
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// An indentation-aware JSON object/array builder for the export
/// paths. Not general-purpose: keys are emitted in call order and the
/// caller is responsible for calling `open_*`/`close_*` in pairs.
pub struct JsonWriter {
    out: String,
    indent: usize,
    need_comma: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent: 0,
            need_comma: vec![false],
        }
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn begin_item(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        self.pad();
    }

    fn open(&mut self, key: Option<&str>, bracket: char) {
        self.begin_item();
        if let Some(k) = key {
            let _ = write!(self.out, "\"{}\": ", esc(k));
        }
        self.out.push(bracket);
        self.indent += 1;
        self.need_comma.push(false);
    }

    fn close(&mut self, bracket: char) {
        let had_items = self.need_comma.pop().unwrap_or(false);
        self.indent -= 1;
        if had_items {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(bracket);
    }

    /// Opens an object, optionally as the value of `key`.
    pub fn open_object(&mut self, key: Option<&str>) {
        self.open(key, '{');
    }

    /// Closes the innermost object.
    pub fn close_object(&mut self) {
        self.close('}');
    }

    /// Opens an array, optionally as the value of `key`.
    pub fn open_array(&mut self, key: Option<&str>) {
        self.open(key, '[');
    }

    /// Closes the innermost array.
    pub fn close_array(&mut self) {
        self.close(']');
    }

    /// Emits `"key": <raw>` where `raw` is already valid JSON.
    pub fn raw_field(&mut self, key: &str, raw: &str) {
        self.begin_item();
        let _ = write!(self.out, "\"{}\": {raw}", esc(key));
    }

    /// Emits a string field.
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.raw_field(key, &format!("\"{}\"", esc(value)));
    }

    /// Emits an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.raw_field(key, &value.to_string());
    }

    /// Emits a signed integer field.
    pub fn i64_field(&mut self, key: &str, value: i64) {
        self.raw_field(key, &value.to_string());
    }

    /// Emits a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.raw_field(key, if value { "true" } else { "false" });
    }

    /// Emits a raw JSON array element.
    pub fn raw_element(&mut self, raw: &str) {
        self.begin_item();
        self.out.push_str(raw);
    }

    /// Finishes, returning the JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level, so this is also its stack bound: hostile input
/// cannot buy more recursion than this however deep it nests.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON document. Numbers are integers only — every format
/// this workspace reads (control frames, replies, trace segments)
/// carries counts, offsets and nanosecond stamps, never fractions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer in `i64::MIN..=u64::MAX`.
    Int(i128),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field `key` of an object (the first, should a hostile document
    /// repeat it); `None` for absent keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer as a `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// String field `key` of an object.
    pub fn str_at(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Unsigned-integer field `key` of an object.
    pub fn u64_at(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed,
/// trailing bytes refused). Input arrives off sockets and disks, so
/// every malformation — truncation, nesting past [`MAX_DEPTH`], raw
/// control characters, lone surrogates, fractions, integers outside
/// `i64::MIN..=u64::MAX` — is an `Err`, never a panic.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(format!("trailing bytes at offset {}", r.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => self.fail("nesting too deep"),
            Some(b'{') => self
                .members(b'}', |r| {
                    if r.peek() != Some(b'"') {
                        return r.fail("expected a key");
                    }
                    let key = r.string()?;
                    r.skip_ws();
                    if r.peek() != Some(b':') {
                        return r.fail("expected ':'");
                    }
                    r.pos += 1;
                    Ok((key, r.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'[') => self.members(b']', |r| r.value(depth + 1)).map(Value::Array),
            Some(b'-' | b'0'..=b'9') => self.integer(),
            Some(_) => {
                for (word, value) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                self.fail("unexpected byte")
            }
            None => self.fail("unexpected end of input"),
        }
    }

    /// The comma-separated body of an object or array whose opening
    /// bracket is at `pos`; `item` reads one member.
    fn members<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.fail("expected ',' or a closing bracket"),
            }
        }
    }

    fn integer(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let leading_zero = self.text.as_bytes()[digits..self.pos].starts_with(b"0");
        if self.pos == digits || (leading_zero && self.pos - digits > 1) {
            return self.fail("malformed number");
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.fail("only integers are supported");
        }
        match self.text[start..self.pos].parse::<i128>() {
            Ok(n) if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&n) => {
                Ok(Value::Int(n))
            }
            _ => self.fail("integer out of range"),
        }
    }

    /// A string literal whose opening quote is at `pos`.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return self.fail("raw control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One escape sequence, `pos` just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return self.fail("lone high surrogate");
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return self.fail("high surrogate without a low one");
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    _ => hi,
                };
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.fail("lone low surrogate"),
                };
            }
            _ => return self.fail("unsupported escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        match digits {
            Some(d) => {
                self.pos += 4;
                Ok(u32::from_str_radix(d, 16).expect("four hex digits"))
            }
            None => self.fail("\\u needs four hex digits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn nested_structure_renders() {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.u64_field("n", 3);
        w.open_object(Some("inner"));
        w.str_field("s", "x\"y");
        w.bool_field("ok", true);
        w.close_object();
        w.open_array(Some("xs"));
        w.raw_element("1");
        w.raw_element("2");
        w.close_array();
        w.close_object();
        let s = w.finish();
        assert!(s.contains("\"inner\": {"));
        assert!(s.contains("\"s\": \"x\\\"y\""));
        assert!(s.contains("\"xs\": [\n"));
        let unescaped_quotes = s
            .replace("\\\\", "")
            .replace("\\\"", "")
            .matches('"')
            .count();
        assert_eq!(unescaped_quotes % 2, 0, "balanced quotes: {s}");
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn empty_containers_stay_tight() {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.open_array(Some("empty"));
        w.close_array();
        w.close_object();
        assert!(w.finish().contains("\"empty\": []"));
    }
}
