//! The little JSON this benchmark reads and writes: result lines, result
//! files, `BENCHMARK.json`. Parse errors carry a line:column position and
//! never panic, whatever the input.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is preserved (and is the write order).
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(kv) => kv,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }

    /// Compact single-line encoding. Numbers print with every digit they
    /// have (`f64`'s shortest round-trip form); whole numbers print as
    /// integers.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/inf; the caller's correctness flag reports it.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub fn obj<const N: usize>(kv: [(&str, Value); N]) -> Value {
    Value::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i < p.b.len() {
        return p.fail("trailing characters after the document");
    }
    Ok(v)
}

/// Nesting bound: a hostile file must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        let upto = &self.b[..self.i.min(self.b.len())];
        let line = 1 + upto.iter().filter(|&&c| c == b'\n').count();
        let col = 1 + upto.iter().rev().take_while(|&&c| c != b'\n').count();
        Err(format!("{what} at line {line} column {col}"))
    }

    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.b.get(self.i) {
            None => self.fail("unexpected end of input"),
            Some(b'{') | Some(b'[') => {
                if self.depth == MAX_DEPTH {
                    return self.fail("nesting too deep");
                }
                self.depth += 1;
                let v = if self.b[self.i] == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => self.fail("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut kv = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(kv));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return self.fail("expected a string key");
            }
            let k = self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return self.fail("expected ':'");
            }
            self.i += 1;
            kv.push((k, self.value()?));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(kv));
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.i) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out)
                        .or_else(|_| self.fail("invalid UTF-8 in string"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.b.get(self.i) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.b.get(self.i + 1..self.i + 5);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match code.and_then(char::from_u32) {
                                Some(c) => {
                                    self.i += 4;
                                    c
                                }
                                None => return self.fail("bad \\u escape"),
                            }
                        }
                        _ => return self.fail("bad escape"),
                    };
                    self.i += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') || c.is_ascii_digit())
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => {
                self.i = start;
                self.fail("malformed number")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let v = obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1228.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                obj([(
                    "wall_s",
                    obj([
                        ("value", Value::Num(0.8461234567)),
                        ("unit", Value::Str("s".into())),
                    ]),
                )]),
            ),
        ]);
        let line = v.to_line();
        assert!(line.contains("\"attempted\": 1228,"), "{line}");
        assert!(line.contains("0.8461234567"), "{line}");
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn errors_are_positioned_and_never_panic() {
        let e = parse("{\"a\": 1,\n  \"b\": }").unwrap_err();
        assert!(e.contains("line 2 column 8"), "{e}");
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"abc",
            "\"\\u12\"",
            "1e999",
            "-",
            "{} x",
            "nul",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn escapes_and_non_finite_numbers() {
        let v = Value::Str("a\"b\\c\n\u{1}".into());
        assert_eq!(parse(&v.to_line()).unwrap(), v);
        assert_eq!(Value::Num(f64::NAN).to_line(), "null");
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::Str("é".into()));
    }
}
