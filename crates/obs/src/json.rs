//! The workspace's one JSON module: a value type, a compact renderer,
//! a string escaper, and a byte-offset recursive-descent parser.
//!
//! The workspace is fully offline (no serde), and every JSON document
//! it reads or writes goes through this file: the experiment cache and
//! campaign manifest (`mpr-exp`), the JSONL profile log (`mpr-obs`),
//! `mpr analyze --json` and its CI baseline, the gate benches'
//! `BENCH_*.json`, and the whole-study benchmark's child reports.
//!
//! Hostile input yields `Err`, never a panic or a pathological run:
//! nesting deeper than [`MAX_DEPTH`] is rejected before it can exhaust
//! the stack, and strings are copied in unescaped runs straight from
//! the input `&str`, so decoding is linear in the input length.
//!
//! The file is std-only and names nothing through `crate::`, because
//! `mpr-analyze` compiles it a second time by path (it may not depend
//! on `mpr-obs`; see its `json` module).

use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`parse`] accepts. Every producer
/// in the workspace writes five levels or fewer.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text so integers read back exactly
    /// through [`Value::as_u64`]; rendered verbatim.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.get(key)
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer
    /// in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }
}

/// Compact rendering: no whitespace, members in key order.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => f.write_str(n),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `s` as a quoted JSON string literal.
pub fn str_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    // Writing into a `String` cannot fail.
    let _ = write_escaped(&mut out, s);
    out
}

/// The one escaper: `"`, `\`, `\n`, `\r` and `\t` by name, other
/// control characters as `\u00XX`, everything else verbatim.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error:
/// truncated input, trailing data, a bad escape or lone surrogate, a
/// malformed number, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing data");
    }
    Ok(value)
}

/// The cursor. `pos` only ever advances over ASCII bytes or whole
/// unescaped runs, so it always sits on a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return self.err(&format!("expected `{}`", c as char));
        }
        self.pos += 1;
        Ok(())
    }

    /// One value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => self.err("nesting too deep"),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    members.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// The comma-separated items after an opening bracket, through the
    /// matching `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected `,` or `{}`", close as char)),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.err(&format!("expected `{word}`"));
        }
        self.pos += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.parse::<f64>().is_err() {
            return Err(format!("bad number `{text}` at offset {start}"));
        }
        Ok(Value::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go:
            // both are ASCII, so the run ends on a char boundary and
            // never needs re-validating.
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character after a backslash.
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
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    // A high surrogate must pair with `\u` + low surrogate.
                    self.eat(b'\\')?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.err("unpaired surrogate");
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.err("unpaired surrogate"),
                };
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `uXXXX` at the cursor; leaves the cursor after the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| self.peek() == Some(b'u') && d.bytes().all(|c| c.is_ascii_hexdigit()));
        let Some(code) = digits.and_then(|d| u32::from_str_radix(d, 16).ok()) else {
            return self.err("bad \\u escape");
        };
        self.pos += 5;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    /// The conformance table: every input either parses to the listed
    /// value (compared through its compact rendering) or is rejected.
    #[test]
    fn conformance_table() {
        let ok = |text: &str, rendered: &str| {
            let v = parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(v.to_string(), rendered, "{text:?}");
            assert_eq!(parse(rendered).as_ref(), Ok(&v), "{rendered:?} re-parses");
        };
        ok("null", "null");
        ok(" true ", "true");
        ok("\tfalse\r\n", "false");
        ok("[1, -2.5e3, 0.015625]", "[1,-2.5e3,0.015625]");
        ok(
            r#"{"b": {"c": "x \"y\" z", "d": null}, "a": [true, false]}"#,
            r#"{"a":[true,false],"b":{"c":"x \"y\" z","d":null}}"#,
        );
        ok(r#""\/\b\f\n\r\t\\\"""#, r#""/\u0008\u000c\n\r\t\\\"""#);
        ok(r#""é\u0001 é""#, "\"é\\u0001 é\"");
        ok(r#""\ud83d\ude00""#, "\"\u{1F600}\"");
        ok("{}", "{}");
        ok("[[], {}]", "[[],{}]");

        for bad in [
            // Truncated input.
            "",
            "{",
            "[1,2",
            "{\"a\": }",
            "{\"a\" 1}",
            "\"abc",
            "\"abc\\",
            "tru",
            // Trailing data.
            "{} trailing",
            "12 34",
            "[1,]",
            "{\"a\":1,}",
            // Bad escapes.
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\uzzzz""#,
            // Lone surrogates.
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800A""#,
            r#""\udc00""#,
            // Malformed numbers and bare words.
            "-",
            "1.2.3",
            "1e",
            "nul",
            "True",
            "'a'",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }

        let max = parse(&u64::MAX.to_string()).expect("u64::MAX");
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(Value::Num("-1".into()).as_u64(), None);
        assert_eq!(Value::Num("1.5".into()).as_num(), Some(1.5));
    }

    #[test]
    fn nesting_is_capped() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting too deep"), "{err}");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn escaper_names_only_the_json_specials() {
        assert_eq!(
            str_json("a\nb\t\"c\"\\\r\u{1}\u{1f}é"),
            r#""a\nb\t\"c\"\\\r\u0001\u001fé""#
        );
        assert_eq!(Value::Str("é".into()).to_string(), str_json("é"));
    }
}
