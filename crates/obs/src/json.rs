//! Minimal JSON encoding/decoding for the obs sinks.
//!
//! The workspace has no serde; the sinks only need flat records with
//! strings, numbers, bools and small arrays, so a hand-rolled encoder
//! and a recursive-descent parser (used by tests and `scoutctl stats`)
//! cover it.

use std::fmt::Write as _;

/// Escape `s` for inclusion inside a JSON string literal (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Format a float the way JSON expects: non-finite values (which JSON
/// cannot represent) become `null`.
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and never drops the fraction
        // into ambiguity ("1.0", not "1").
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Incremental JSON object writer: `Obj::new().str("k", "v").num("n", 1.0).finish()`.
pub struct Obj {
    buf: String,
    empty: bool,
}

impl Obj {
    /// Start an object (`{`).
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Add a numeric field.
    pub fn num(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        number_into(&mut self.buf, v);
        self
    }

    /// Add an unsigned integer field (no float formatting).
    pub fn uint(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-encoded JSON value verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return the encoded string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

/// Incremental JSON array writer, the sibling of [`Obj`]:
/// `Arr::new().str("a").uint(1).raw("{}").finish()`. Fold an iterator
/// into it to render a collection.
pub struct Arr {
    buf: String,
}

impl Arr {
    /// Start an array (`[`).
    pub fn new() -> Arr {
        Arr {
            buf: String::from("["),
        }
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    /// Append a string element.
    pub fn str(mut self, v: &str) -> Arr {
        self.sep();
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Append an unsigned integer element.
    pub fn uint(mut self, v: u64) -> Arr {
        self.sep();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Append a pre-encoded JSON value verbatim.
    pub fn raw(mut self, v: &str) -> Arr {
        self.sep();
        self.buf.push_str(v);
        self
    }

    /// Close the array and return the encoded string.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for Arr {
    fn default() -> Arr {
        Arr::new()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one JSON document. Returns `None` on any syntax error or
    /// trailing garbage.
    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Option<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        match *self.bytes.get(self.pos)? {
            b'n' => self.lit("null", Value::Null),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Some(Value::Arr(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            self.skip_ws();
            fields.push((k, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Some(Value::Obj(fields));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            // Surrogate pairs are not needed by our own
                            // encoder (it emits raw UTF-8); map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Value::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_escapes() {
        let line = Obj::new()
            .str("name", "a \"quoted\"\nvalue")
            .num("x", 1.5)
            .uint("n", 42)
            .raw("arr", "[1,2]")
            .finish();
        assert_eq!(
            line,
            r#"{"name":"a \"quoted\"\nvalue","x":1.5,"n":42,"arr":[1,2]}"#
        );
    }

    #[test]
    fn array_builder_handles_empty_escaping_and_nesting() {
        assert_eq!(Arr::new().finish(), "[]");
        assert_eq!(
            Arr::new().str("a\"b").str("c\n").uint(7).finish(),
            r#"["a\"b","c\n",7]"#
        );
        let inner = Arr::new().uint(1).uint(2).finish();
        let nested = Arr::new()
            .raw(&inner)
            .raw(&Obj::new().raw("xs", &Arr::new().finish()).finish())
            .finish();
        assert_eq!(nested, r#"[[1,2],{"xs":[]}]"#);
        let parsed = Value::parse(&nested).unwrap();
        assert_eq!(parsed.as_arr().unwrap()[0].as_arr().unwrap().len(), 2);
        // Folding a collection is the call-site idiom.
        let folded = ["x", "y"].iter().fold(Arr::new(), |a, s| a.str(s));
        assert_eq!(folded.finish(), r#"["x","y"]"#);
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(Obj::new().num("x", f64::NAN).finish(), r#"{"x":null}"#);
        assert_eq!(Obj::new().num("x", f64::INFINITY).finish(), r#"{"x":null}"#);
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let line = Obj::new()
            .str("k", "v\t√")
            .num("pi", 3.25)
            .uint("n", 7)
            .finish();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("v\t√"));
        assert_eq!(v.get("pi").unwrap().as_f64(), Some(3.25));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn parse_handles_nesting_and_ws() {
        let v = Value::parse(" { \"a\" : [ 1 , {\"b\": false}, null ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b"), Some(&Value::Bool(false)));
        assert_eq!(arr[2], Value::Null);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{\"a\":}").is_none());
        assert!(Value::parse("[1,2").is_none());
        assert!(Value::parse("{} trailing").is_none());
    }
}
