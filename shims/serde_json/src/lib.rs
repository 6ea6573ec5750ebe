//! Offline stand-in for `serde_json`.
//!
//! Renders and parses the serde shim's [`Content`] tree as JSON. Output
//! conventions match real `serde_json`: objects keep field order,
//! pretty-printing indents by two spaces, and non-finite floats
//! serialize as `null` (JSON has no NaN/∞). Parsing accepts the full
//! JSON grammar produced by either serializer.

use serde::{Content, Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Infallible for the content model, but kept fallible to match the real
/// crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), None, 0, &mut out);
    Ok(out)
}

/// Serializes a value as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the content model, but kept fallible to match the real
/// crate's signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&value.to_content(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses a value from a JSON string.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a structural mismatch with
/// `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let content = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", p.pos)));
    }
    Ok(T::from_content(&content)?)
}

fn write_content(c: &Content, indent: Option<usize>, depth: usize, out: &mut String) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U128(v) => out.push_str(&v.to_string()),
        Content::I128(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if v.is_finite() {
                // Debug formatting is shortest-round-trip and always
                // keeps a decimal point or exponent (`1.0`, not `1`).
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => write_escaped(s, out),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_content(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(v, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaped exactly as
/// [`to_string`] escapes it. Streaming writers that lay out their own
/// documents use this so there is one JSON escaper.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    /// The input; `bytes` is the same text.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The input from `start` up to the cursor. The parser only ever
    /// stops at an ASCII byte or the end of the input, so the slice
    /// never splits a character and needs no UTF-8 validation.
    fn text_since(&self, start: usize) -> Result<&'a str, Error> {
        self.src
            .get(start..self.pos)
            .ok_or_else(|| Error::new(format!("split character at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Content::Null),
            Some(b't') if self.eat_literal("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(Vec::new()));
                }
                // Room for a typical struct's fields up front, so small
                // objects never reallocate.
                let mut entries = Vec::with_capacity(8);
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(self.text_since(start)?);
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error::new(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error::new(e.to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(Error::new(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self.text_since(start)?;
        if !is_float {
            // Fast path: up to 19 digits always fit a u64. Same variants
            // as the general path below: `U128` unless negative, and
            // negative integers (`-0` too) are `I128`.
            let (negative, digits) = match text.strip_prefix('-') {
                Some(digits) => (true, digits),
                None => (false, text),
            };
            if (1..=19).contains(&digits.len()) {
                let v = digits
                    .bytes()
                    .fold(0u64, |v, d| v * 10 + u64::from(d - b'0'));
                return Ok(if negative {
                    Content::I128(-i128::from(v))
                } else {
                    Content::U128(u128::from(v))
                });
            }
            if let Ok(v) = text.parse::<u128>() {
                return Ok(Content::U128(v));
            }
            if let Ok(v) = text.parse::<i128>() {
                return Ok(Content::I128(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2,\n  3\n]");
        assert_eq!(from_str::<Vec<u64>>("[1,2,3]").unwrap(), v);
        assert_eq!(from_str::<Vec<u64>>("[\n  1,\n  2,\n  3\n]").unwrap(), v);
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.015f64).unwrap(), "0.015");
        assert_eq!(from_str::<f64>("1.5e3").unwrap(), 1500.0);
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("nope").is_err());
        assert!(from_str::<Vec<u64>>("[1,2").is_err());
        assert!(from_str::<f64>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        // The same inputs fail before any type is asked for, as do the
        // edges of the string and integer fast paths.
        for bad in [
            "nope",
            "[1,2",
            "1 2",
            "\"unterminated",
            "\"plain\\",
            "\"plain\\q\"",
            "\"\\u00\"",
            "-",
            "--1",
            "1-2",
            "{\"a\" 1}",
        ] {
            assert!(from_str::<Content>(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn big_u64_survives() {
        let v = u64::MAX;
        assert_eq!(from_str::<u64>(&to_string(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn strings_switching_to_escapes_after_a_plain_prefix() {
        for (json, want) in [
            ("\"\"", ""),
            ("\"plain\"", "plain"),
            ("\"plain\\ntail\"", "plain\ntail"),
            ("\"plain\\\"\"", "plain\""),
            ("\"plain\\u0041\\u00e9tail\"", "plainAétail"),
            ("\"\\\\lead\"", "\\lead"),
            ("\"a\\/b\\tc\\bd\\fe\\rf\"", "a/b\tc\u{8}d\u{c}e\rf"),
            ("\"é and ü\\n\"", "é and ü\n"),
        ] {
            assert_eq!(
                from_str::<Content>(json),
                Ok(Content::Str(want.into())),
                "{json}"
            );
        }
    }

    #[test]
    fn integer_variants_at_the_edges() {
        let u = |v: u128| Ok(Content::U128(v));
        let i = |v: i128| Ok(Content::I128(v));
        let cases = [
            ("0", u(0)),
            ("007", u(7)),
            ("-0", i(0)),
            ("-1", i(-1)),
            ("9999999999999999999", u(9_999_999_999_999_999_999)),
            ("10000000000000000000", u(10_000_000_000_000_000_000)),
            ("-9999999999999999999", i(-9_999_999_999_999_999_999)),
            ("18446744073709551615", u(u64::MAX.into())),
            ("18446744073709551616", u(u128::from(u64::MAX) + 1)),
            ("-9223372036854775808", i(i64::MIN.into())),
            ("-9223372036854775809", i(i128::from(i64::MIN) - 1)),
            ("340282366920938463463374607431768211455", u(u128::MAX)),
            ("-170141183460469231731687303715884105728", i(i128::MIN)),
        ];
        for (json, want) in cases {
            assert_eq!(from_str::<Content>(json), want, "{json}");
        }
        // Past u128 an integer is a float, as it always was.
        assert_eq!(
            from_str::<Content>("340282366920938463463374607431768211456"),
            Ok(Content::F64(2f64.powi(128)))
        );
        assert_eq!(from_str::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(from_str::<i64>("-9223372036854775808"), Ok(i64::MIN));
        assert!(from_str::<u64>("18446744073709551616").is_err());
    }

    #[test]
    fn reparsed_output_writes_the_same_bytes() {
        let value = Content::Map(vec![
            ("key".into(), Content::Str("00d57c9a6a2e4f11".into())),
            ("esc".into(), Content::Str("a\"b\\c\nd\u{1}é".into())),
            (
                "ints".into(),
                Content::Seq(vec![
                    Content::U128(0),
                    Content::U128(u64::MAX.into()),
                    Content::U128(u128::from(u64::MAX) + 1),
                    Content::I128(-1),
                    Content::I128(i64::MIN.into()),
                ]),
            ),
            (
                "floats".into(),
                Content::Seq(vec![Content::F64(0.1), Content::F64(-2.5e-7)]),
            ),
            ("empty".into(), Content::Map(Vec::new())),
            ("none".into(), Content::Null),
            ("yes".into(), Content::Bool(true)),
        ]);
        for json in [
            to_string(&value).unwrap(),
            to_string_pretty(&value).unwrap(),
        ] {
            let back = from_str::<Content>(&json).unwrap();
            assert_eq!(back, value);
            assert_eq!(to_string(&back).unwrap(), to_string(&value).unwrap());
            assert_eq!(
                to_string_pretty(&back).unwrap(),
                to_string_pretty(&value).unwrap()
            );
        }
    }
}
