//! The workspace's one JSON reader and one JSON string escaper.
//!
//! Every JSON text the workspace reads goes through [`Cursor`]: the four
//! `tlt-*` exports (`registry`, `profile`, `serve`, `spans`), each JSONL
//! trace line (`TraceEvent::from_jsonl`), `ci/metrics_schema.json` and
//! simlint's cache. Every string any of them writes goes through
//! [`push_str`]. The dialect is what the writers emit: objects, arrays,
//! strings, `true`/`false`/`null` and **unsigned integers only**, so a
//! deterministic producer writes byte-identical text. Raw control
//! characters inside strings are rejected, and nothing here panics on
//! input: every failure is `Err("{what} at byte B, line L (near …)")`.
//!
//! The typed parsers walk their known shapes with the cursor directly.
//! [`parse`] builds a small DOM ([`Value`]) whose strings remember their
//! source line, for documents whose shape is open (simlint's schema and
//! cache, `benchcmp`'s schema dispatch); its nesting depth is capped by
//! [`MAX_DEPTH`], so hostile input cannot overflow the stack.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts; anything deeper is a
/// positioned error, not a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A position in a JSON text plus the line it is on. The small methods
/// are `#[inline]` because `trace_inspect` walks every trace line's fields
/// through them (`TraceEvent::from_jsonl`).
pub struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte; never past `text.len()`.
    i: usize,
    /// 1-based line of byte `i`. Newlines can only appear in whitespace
    /// (strings reject raw control characters), so [`Cursor::skip_ws`] is
    /// the one place that counts them.
    line: u32,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            text,
            i: 0,
            line: 1,
        }
    }

    /// `Err("{what} at byte B, line L (near …)")` at the current position.
    #[cold]
    pub fn fail<T>(&self, what: &str) -> Result<T, String> {
        let rest = &self.text.as_bytes()[self.i..];
        let (i, line) = (self.i, self.line);
        if rest.is_empty() {
            return Err(format!(
                "{what} at byte {i}, line {line} (unexpected end of input)"
            ));
        }
        let near = String::from_utf8_lossy(&rest[..rest.len().min(24)]);
        Err(format!("{what} at byte {i}, line {line} (near {near:?})"))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&c @ (b' ' | b'\t' | b'\r' | b'\n')) = self.text.as_bytes().get(self.i) {
            self.line += u32::from(c == b'\n');
            self.i += 1;
        }
    }

    /// The next non-whitespace byte, not consumed (`None` at the end).
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.i).copied()
    }

    /// Whether the next non-whitespace byte is `c` (not consumed).
    #[inline]
    pub fn peek_close(&mut self, c: char) -> bool {
        self.peek() == Some(c as u8)
    }

    /// Consumes `c` (after whitespace) or fails.
    #[inline]
    pub fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek_close(c) {
            self.i += 1;
            Ok(())
        } else {
            self.fail(&format!("expected {c:?}"))
        }
    }

    /// Consumes a comma if present; `Ok(false)` means the container ends.
    #[inline]
    pub fn comma(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(b'}' | b']') => Ok(false),
            _ => self.fail("expected ',' or a closing bracket"),
        }
    }

    /// Fails unless only whitespace remains.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.fail("trailing data after document"),
        }
    }

    /// Consumes `word` if the text continues with it.
    fn eat(&mut self, word: &str) -> bool {
        let hit = self.text.as_bytes()[self.i..].starts_with(word.as_bytes());
        if hit {
            self.i += word.len();
        }
        hit
    }

    /// Reads a string; borrowed from the text when it holds no escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect('"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let run = self.i;
            let rest = &text.as_bytes()[run..];
            self.i += rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            // `run` and `i` both sit on ASCII bytes (or the end), so on
            // char boundaries.
            let chunk = &text[run..self.i];
            match text.as_bytes().get(self.i) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(chunk),
                        Some(mut s) => {
                            s.push_str(chunk);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(chunk);
                    self.i += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return self.fail("control character in string"),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.text.as_bytes().get(self.i) {
            None => return self.fail("unterminated string"),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .text
                    .get(self.i + 1..self.i + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                match hex
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .and_then(char::from_u32)
                {
                    Some(c) => {
                        self.i += 4;
                        c
                    }
                    None => return self.fail("bad \\u escape"),
                }
            }
            Some(_) => return self.fail("bad string escape"),
        };
        self.i += 1;
        Ok(c)
    }

    /// Reads an unsigned integer that fits a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        let mut v = Some(0u64);
        while let Some(&d @ b'0'..=b'9') = self.text.as_bytes().get(self.i) {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.i += 1;
        }
        match (v, self.text.as_bytes().get(self.i)) {
            _ if start == self.i => self.fail("expected a number"),
            (_, Some(b'.' | b'e' | b'E')) => self.fail("floats are not supported"),
            (None, _) => self.fail("number out of range"),
            (Some(v), _) => Ok(v),
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            self.fail("expected true or false")
        }
    }

    /// Reads `{"key": <value>, ...}`, calling `each` with every key once
    /// the cursor sits on its value; `each` must consume that value.
    pub fn object(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect('{')?;
        if !self.peek_close('}') {
            loop {
                let key = self.string()?;
                self.expect(':')?;
                each(self, key)?;
                if !self.comma()? {
                    break;
                }
            }
        }
        self.expect('}')
    }

    /// Reads `[<value>, ...]`, calling `each` with the cursor on every
    /// element; `each` must consume it.
    pub fn array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect('[')?;
        if !self.peek_close(']') {
            loop {
                each(self)?;
                if !self.comma()? {
                    break;
                }
            }
        }
        self.expect(']')
    }
}

/// Appends `v` as a JSON string literal: `"` and `\` escaped, newline as
/// `\n`, every other control character as `\u00XX`, everything else
/// verbatim (UTF-8 passes through).
pub fn push_str(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Escapes one string as a standalone JSON string literal.
pub fn escape(t: &str) -> String {
    let mut s = String::with_capacity(t.len() + 2);
    push_str(&mut s, t);
    s
}

/// A parsed JSON value. Numbers are unsigned integers — nothing the
/// workspace stores needs more, and refusing floats keeps the writer
/// byte-deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string, with the 1-based line it started on in the source text.
    Str(String, u32),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` so re-serialization is deterministic; the
    /// u32 is the line of the *key*.
    Obj(BTreeMap<String, (Value, u32)>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key).map(|(v, _)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s, _) => Some(s),
            _ => None,
        }
    }

    /// Numeric contents, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array items, if this is an array (empty slice otherwise).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }

    /// The strings of an array of strings, with their source lines.
    pub fn str_items(&self) -> Vec<(&str, u32)> {
        self.items()
            .iter()
            .filter_map(|v| match v {
                Value::Str(s, line) => Some((s.as_str(), *line)),
                _ => None,
            })
            .collect()
    }
}

/// Parses `text` into a [`Value`].
///
/// # Errors
///
/// Returns `Err(message)` with a positioned description on malformed
/// input, including floats, negative numbers and nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut c = Cursor::new(text);
    let v = value(&mut c, 0)?;
    c.end()?;
    Ok(v)
}

fn value(c: &mut Cursor, depth: usize) -> Result<Value, String> {
    match c.peek() {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            c.fail(&format!("nesting deeper than {MAX_DEPTH} levels"))
        }
        Some(b'{') => {
            let mut m = BTreeMap::new();
            c.object(|c, key| {
                let line = c.line;
                m.insert(key.into_owned(), (value(c, depth + 1)?, line));
                Ok(())
            })?;
            Ok(Value::Obj(m))
        }
        Some(b'[') => {
            let mut v = Vec::new();
            c.array(|c| {
                v.push(value(c, depth + 1)?);
                Ok(())
            })?;
            Ok(Value::Arr(v))
        }
        Some(b'"') => {
            let line = c.line;
            Ok(Value::Str(c.string()?.into_owned(), line))
        }
        Some(b'0'..=b'9') => Ok(Value::Num(c.u64()?)),
        Some(b't' | b'f') => Ok(Value::Bool(c.bool()?)),
        Some(b'n') if c.eat("null") => Ok(Value::Null),
        _ => c.fail("expected a JSON value"),
    }
}

/// Serializes `v` compactly and deterministically (object keys are already
/// sorted by the `BTreeMap`).
pub fn write(v: &Value) -> String {
    let mut s = String::new();
    write_into(v, &mut s);
    s
}

fn write_into(v: &Value, s: &mut String) {
    match v {
        Value::Null => s.push_str("null"),
        Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            let _ = write!(s, "{n}");
        }
        Value::Str(t, _) => push_str(s, t),
        Value::Arr(items) => {
            s.push('[');
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                write_into(it, s);
            }
            s.push(']');
        }
        Value::Obj(m) => {
            s.push('{');
            for (i, (k, (val, _))) in m.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_str(s, k);
                s.push(':');
                write_into(val, s);
            }
            s.push('}');
        }
    }
}

/// Asserts that `parse` rejects every char-boundary prefix of `text` short
/// of the whole document (trailing whitespace aside), and that `text`
/// holds an escape and a non-ASCII char, so the cuts include one directly
/// after a backslash and one inside a multi-byte string.
#[cfg(test)]
pub(crate) fn assert_every_prefix_rejected<T>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) {
    assert!(!text.is_ascii(), "no non-ASCII char in the export");
    let mut after_backslash = 0;
    for cut in (0..text.trim_end().len()).filter(|&cut| text.is_char_boundary(cut)) {
        assert!(parse(&text[..cut]).is_err(), "accepted the cut at {cut}");
        after_backslash += usize::from(text[..cut].ends_with('\\'));
    }
    assert!(after_backslash > 0, "no cut directly after a backslash");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_objects_arrays_and_scalars() {
        let text = r#"{"b": true, "arr": [1, 2, "x"], "nested": {"n": null, "k": 7}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("b"), Some(&Value::Bool(true)));
        assert_eq!(v.get("arr").unwrap().items().len(), 3);
        assert_eq!(v.get("nested").unwrap().get("k").unwrap().as_u64(), Some(7));
        let re = parse(&write(&v)).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn strings_remember_their_line() {
        let text = "{\n  \"a\": [\n    \"first\",\n    \"second\"\n  ]\n}";
        let v = parse(text).unwrap();
        let items = v.get("a").unwrap().str_items();
        assert_eq!(items, vec![("first", 3), ("second", 4)]);
    }

    #[test]
    fn escapes_roundtrip() {
        let text = r#"{"k": "a\"b\\c\ndA\/\t\u00e9"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("a\"b\\c\ndA/\té"));
        assert_eq!(parse(&write(&v)).unwrap(), v);
        assert_eq!(escape("q\"b\\n\nt\tx"), r#""q\"b\\n\nt\u0009x""#);
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut c = Cursor::new(r#""plain é" "esc\"aped""#);
        assert!(matches!(c.string().unwrap(), Cow::Borrowed("plain é")));
        assert!(matches!(c.string().unwrap(), Cow::Owned(s) if s == "esc\"aped"));
        c.end().unwrap();
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"k\" 1}",
            "1.5",
            "{\"a\":01x}",
            "-1",
            "18446744073709551616",
            "\"tab\there\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\q\"",
            "{\"schema\\",
            "[1,]",
            "nul",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("at byte"), "{bad:?}: {err}");
        }
        let err = parse("{\n  \"k\": oops\n}").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("near \"oops"), "{err}");
        let err = parse("[1] x").unwrap_err();
        assert!(err.contains("trailing data"), "{err}");
        assert!(parse("18446744073709551615").is_ok());
    }

    #[test]
    fn deep_nesting_is_a_positioned_error_not_a_stack_overflow() {
        for (open, width) in [("[", 1), ("{\"a\":", 5)] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            let at = MAX_DEPTH * width;
            assert!(err.contains("nesting deeper"), "{err}");
            assert!(err.contains(&format!("at byte {at},")), "{err}");
        }
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }
}
