//! The workspace's one JSON module: a value type, a compact renderer,
//! a string escaper, a byte-offset pull [`Reader`], and [`parse`], the
//! recursive [`Value`] builder over that reader. Decoders that know
//! their shape (the cache and manifest loaders) read straight from the
//! [`Reader`] and build no tree.
//!
//! The workspace is fully offline (no serde), and every JSON document
//! it reads or writes goes through this file: the experiment cache and
//! campaign manifest (`mpr-exp`), the JSONL profile log (`mpr-obs`),
//! the gate benches' `BENCH_*.json`, and the whole-study benchmark's
//! child reports.
//!
//! Hostile input yields `Err`, never a panic or a pathological run:
//! nesting deeper than [`MAX_DEPTH`] is rejected before it can exhaust
//! the stack, and strings are borrowed from the input `&str` (or, with
//! escapes, copied in unescaped runs), so decoding is linear in the
//! input length.
//!
//! The file is std-only and names nothing through `crate::`, because
//! `mpr-analyze` compiles it a second time by path (it may not depend
//! on `mpr-obs`; see its `json` module).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`parse`] and [`Reader`] accept.
/// Every producer in the workspace writes five levels or fewer.
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

/// Parses one JSON document into a [`Value`] tree: the recursive
/// builder over [`Reader`].
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error:
/// truncated input, trailing data, a bad escape or lone surrogate, a
/// malformed number, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// What the next value is, judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

/// A pull reader over one JSON document, for decoders that know the
/// shape they expect and want no [`Value`] tree: the caller asks for
/// the value it wants next, and the reader checks the grammar as it
/// goes, with the same error texts and offsets as [`parse`].
///
/// A typed read ([`Reader::str`], [`Reader::u64`], [`Reader::array`],
/// [`Reader::object`]) whose value has another type skips that value
/// whole and answers `Ok(None)` or `Ok(false)`, so a decoder can mark
/// a field ill-typed and still check the rest of the document. An
/// `Err` is always a syntax error; after one, the reader is spent.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    /// The cursor. It only ever advances over ASCII bytes or whole
    /// unescaped runs, so it always sits on a char boundary of `text`.
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
    /// Whether the innermost open container has yielded no item yet, so
    /// its next item takes no leading comma. Every other container
    /// around the cursor has yielded one: the one the cursor is in.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Enters the array that is the next value, whose elements then
    /// follow [`Reader::next_item`]. `Ok(false)`: the next value is no
    /// array, and has been skipped.
    ///
    /// # Errors
    ///
    /// A syntax error, or nesting deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn array(&mut self) -> Result<bool, String> {
        self.enter(Kind::Arr)
    }

    /// Enters the object that is the next value, whose members then
    /// follow [`Reader::next_key`]. `Ok(false)`: the next value is no
    /// object, and has been skipped.
    ///
    /// # Errors
    ///
    /// A syntax error, or nesting deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn object(&mut self) -> Result<bool, String> {
        self.enter(Kind::Obj)
    }

    /// Moves to the next element of the innermost open array: `true`
    /// when one follows (read or skip it next), `false` once the
    /// closing `]` is consumed.
    ///
    /// # Errors
    ///
    /// A syntax error.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.next(b']')
    }

    /// The next element of the innermost open array, taken only when it
    /// is a string of exactly `n` bytes with no escape that directly
    /// follows the `[` or its `,` (no whitespace between): its contents,
    /// with the cursor after the closing quote. Otherwise `None`, and
    /// the cursor has not moved, so [`Reader::next_item`] reads on from
    /// the same place. This is the fixed-stride path for arrays whose
    /// writer emits one compact shape; anything else falls to the
    /// general grammar, which yields the same values and errors.
    #[inline]
    pub fn next_str_of_len(&mut self, n: usize) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let open = if self.first { self.pos } else { self.pos + 1 };
        let (start, end) = (open + 1, open + 1 + n);
        let framed = (self.first || bytes.get(self.pos) == Some(&b','))
            && bytes.get(open) == Some(&b'"')
            && bytes.get(end) == Some(&b'"');
        if !framed {
            return None;
        }
        // Both ends sit next to an ASCII quote: char boundaries.
        let s = self.text.get(start..end)?;
        if has_special(s.as_bytes()) {
            return None;
        }
        self.pos = end + 1;
        self.first = false;
        Some(s)
    }

    /// The key of the next member of the innermost open object, with
    /// the cursor left on its value (read or skip it next); `None` once
    /// the closing `}` is consumed.
    ///
    /// # Errors
    ///
    /// A syntax error.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// The string that is the next value, borrowed from the input
    /// unless it holds escapes. `Ok(None)`: the next value is no
    /// string, and has been skipped.
    ///
    /// # Errors
    ///
    /// A syntax error.
    #[inline]
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if self.peek_byte() == Some(b'"') {
            return self.string().map(Some);
        }
        self.skip()?;
        Ok(None)
    }

    /// The next value as an exact `u64`. `Ok(None)`: it is no number
    /// (skipped), or a number that is not a non-negative integer in
    /// range.
    ///
    /// # Errors
    ///
    /// A syntax error.
    #[inline]
    pub fn u64(&mut self) -> Result<Option<u64>, String> {
        if self.peek()? != Kind::Num {
            self.skip()?;
            return Ok(None);
        }
        Ok(self.number()?.parse().ok())
    }

    /// Skips the next value whole, whatever its kind, checking its
    /// grammar and nesting as [`parse`] would.
    ///
    /// # Errors
    ///
    /// A syntax error, or nesting deeper than [`MAX_DEPTH`].
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            Kind::Arr => {
                self.open()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Kind::Obj => {
                self.open()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Kind::Str => {
                self.string()?;
            }
            Kind::Num => {
                self.number()?;
            }
            Kind::Null | Kind::Bool => {
                self.bool_or_null()?;
            }
        }
        Ok(())
    }

    /// Ends the document: only whitespace may follow the cursor.
    ///
    /// # Errors
    ///
    /// `trailing data`, which includes any container left open.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return self.err("trailing data");
        }
        Ok(())
    }

    /// The recursive [`Value`] builder behind [`parse`].
    fn value(&mut self) -> Result<Value, String> {
        Ok(match self.peek()? {
            Kind::Arr => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Value::Arr(items)
            }
            Kind::Obj => {
                self.open()?;
                let mut members = BTreeMap::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    members.insert(key.into_owned(), value);
                }
                Value::Obj(members)
            }
            Kind::Str => Value::Str(self.string()?.into_owned()),
            Kind::Num => Value::Num(self.number()?.to_string()),
            Kind::Null | Kind::Bool => self.bool_or_null()?,
        })
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek_byte() != Some(c) {
            return self.err(&format!("expected `{}`", c as char));
        }
        self.pos += 1;
        Ok(())
    }

    /// The kind of the next value, after the whitespace before it.
    #[inline]
    fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'"') => Ok(Kind::Str),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => self.err("expected a value"),
        }
    }

    fn enter(&mut self, kind: Kind) -> Result<bool, String> {
        if self.peek()? != kind {
            self.skip()?;
            return Ok(false);
        }
        self.open()?;
        Ok(true)
    }

    /// Consumes the opening bracket at the cursor.
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// The comma before the next item of the innermost container, or
    /// its `close` bracket.
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek_byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.err(&format!("expected `,` or `{}`", close as char)),
        }
    }

    fn bool_or_null(&mut self) -> Result<Value, String> {
        let (word, value) = match self.peek_byte() {
            Some(b'n') => ("null", Value::Null),
            Some(b't') => ("true", Value::Bool(true)),
            _ => ("false", Value::Bool(false)),
        };
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.err(&format!("expected `{word}`"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<&'a str, String> {
        let text = self.text;
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek_byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let number = &text[start..self.pos];
        if number.parse::<f64>().is_err() {
            return Err(format!("bad number `{number}` at offset {start}"));
        }
        Ok(number)
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        // Runs up to the next quote or backslash: both are ASCII, so a
        // run ends on a char boundary and never needs re-validating.
        let text = self.text;
        let start = self.pos;
        self.pos = run_end(text.as_bytes(), start);
        if self.peek_byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            match self.peek_byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return self.err("unterminated string"),
            }
            let start = self.pos;
            self.pos = run_end(text.as_bytes(), start);
            out.push_str(&text[start..self.pos]);
        }
    }

    /// The character after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek_byte() {
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
            .filter(|d| self.peek_byte() == Some(b'u') && d.bytes().all(|c| c.is_ascii_hexdigit()));
        let Some(code) = digits.and_then(|d| u32::from_str_radix(d, 16).ok()) else {
            return self.err("bad \\u escape");
        };
        self.pos += 5;
        Ok(code)
    }
}

const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
const QUOTES: u64 = u64::from_ne_bytes([b'"'; 8]);
const BACKSLASHES: u64 = u64::from_ne_bytes([b'\\'; 8]);

/// Whether any byte of an eight-byte word is a quote or a backslash:
/// the classic any-zero-byte test, applied to the word XORed with each.
#[inline]
fn word_has_special(word: [u8; 8]) -> bool {
    let has_zero = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let w = u64::from_ne_bytes(word);
    has_zero(w ^ QUOTES) | has_zero(w ^ BACKSLASHES) != 0
}

/// Whether `bytes` holds a quote or a backslash.
#[inline]
fn has_special(bytes: &[u8]) -> bool {
    let mut words = bytes.chunks_exact(8);
    words.any(|w| w.try_into().is_ok_and(word_has_special))
        || words.remainder().iter().any(|b| matches!(b, b'"' | b'\\'))
}

/// The index of the first quote or backslash at or after `i`, or the
/// input length. Whole eight-byte words are passed over while none of
/// their bytes is either.
fn run_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(word) = bytes.get(i..i + 8) {
        if word.try_into().is_ok_and(word_has_special) {
            break;
        }
        i += 8;
    }
    while i < bytes.len() && !matches!(bytes[i], b'"' | b'\\') {
        i += 1;
    }
    i
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
    fn fixed_length_strings_leave_the_cursor_on_any_other_item() {
        // Reads `text`'s one array: fixed-length items while they come,
        // then the general grammar; returns each item and its route.
        let read = |text: &str| -> Result<Vec<String>, String> {
            let mut r = Reader::new(text);
            assert!(r.array()?);
            let mut items = Vec::new();
            while let Some(s) = r.next_str_of_len(2) {
                items.push(format!("fast {s}"));
            }
            while r.next_item()? {
                items.push(format!("slow {}", r.str()?.unwrap_or_default()));
            }
            r.finish()?;
            Ok(items)
        };
        let items = |v: &[&str]| Ok(v.iter().map(|s| s.to_string()).collect());
        assert_eq!(read(r#"["ab","cd"]"#), items(&["fast ab", "fast cd"]));
        assert_eq!(read(r#"[]"#), items(&[]));
        assert_eq!(read(r#"[ "ab"]"#), items(&["slow ab"]));
        assert_eq!(
            read(r#"["ab", "cd","ef"]"#),
            items(&["fast ab", "slow cd", "slow ef"])
        );
        assert_eq!(
            read(r#"["ab","c","de"]"#),
            items(&["fast ab", "slow c", "slow de"])
        );
        assert_eq!(read(r#"["ab","abc"]"#), items(&["fast ab", "slow abc"]));
        assert_eq!(read(r#"["ab"]"#), items(&["fast ab"]));
        assert_eq!(read(r#"["é"]"#), items(&["fast é"]));
        assert_eq!(read(r#"["\"","ab"]"#), items(&["slow \"", "slow ab"]));
        assert_eq!(read(r#"["ab",1]"#), items(&["fast ab", "slow "]));
        assert!(read(r#"["ab",]"#).is_err());
        assert!(read(r#"["ab""#).is_err());
        assert!(read(r#"["a"#).is_err());
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
