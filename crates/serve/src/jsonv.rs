//! A minimal JSON value: parser + serializer — the wire format of the
//! `corral-sim serve` JSONL frontend.
//!
//! The workspace stays dependency-free, and `corral_trace::json` is a
//! write-only escaper, so the read side lives here. The subset is full
//! JSON minus two deliberate omissions: no `\u` surrogate-pair
//! stitching (escapes decode to their code point; the wire is
//! ASCII) and numbers parse via `f64` (plenty for wall-clock seconds
//! and counters < 2^53).
//!
//! The parser is hardened against adversarial input: nesting is bounded
//! by [`MAX_DEPTH`] (a 100k-`[` line returns `Err` instead of blowing
//! the stack), every byte access goes through `get` (the lone slice in
//! [`parse`]'s `expect` helper is guarded by the preceding `get`), and
//! no input can make it loop — `pos` strictly advances on every
//! recursion. The unwrap/expect sites in this file live in `#[cfg(test)]`
//! code or are `unwrap_or` defaults; the malformed-input property test
//! (`crates/serve/tests/prop_wire.rs`) mutates valid documents at random
//! and asserts `Err`, never a panic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed JSON value. Objects use a `BTreeMap`, so re-serialized
/// keys come out sorted — stable diffs for the merged report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes back to compact JSON (sorted object keys).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Maximum container nesting the parser accepts. Deeper documents are
/// rejected with an error rather than risking stack exhaustion — the
/// parser recurses once per `[`/`{` level. Generous for every legitimate
/// producer in this workspace (wire events are depth ≤ 2, `BENCH_*.json`
/// depth ≤ 4).
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Value::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (b is from &str, so this is safe
                // to slice on char boundaries found via the leading byte).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_bench_shaped_document() {
        let text = r#"{
  "bench": "sweep_smoke_subset",
  "cells": 8,
  "serial_s": 16.882,
  "speedup": 0.857,
  "note": "",
  "list": [1, 2.5, true, null, {"k": "v"}]
}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("sweep_smoke_subset"));
        assert_eq!(v.get("cells").unwrap().as_u64(), Some(8));
        assert_eq!(v.get("serial_s").unwrap().as_f64(), Some(16.882));
        let list = v.get("list").unwrap().as_arr().unwrap();
        assert_eq!(list.len(), 5);
        assert_eq!(list[4].get("k").unwrap().as_str(), Some("v"));
        // Reparse of the compact form is identity.
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn whole_floats_serialize_as_integers() {
        assert_eq!(Value::Num(7992.0).to_json(), "7992");
        assert_eq!(Value::Num(0.857).to_json(), "0.857");
    }

    #[test]
    fn escape_sequences_decode_and_bad_ones_are_rejected() {
        let v = parse(r#""Aé\t\r\n\b\f\/\"\\""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\t\r\n\u{8}\u{c}/\"\\"));
        // Unpaired surrogate: decoded to U+FFFD, not stitched (documented
        // omission — the emitters are ASCII).
        assert_eq!(parse(r#""\ud834""#).unwrap().as_str(), Some("\u{fffd}"));
        assert!(parse(r#""\u12""#).is_err(), "truncated \\u escape");
        assert!(parse(r#""\u12zz""#).is_err(), "non-hex \\u escape");
        assert!(parse(r#""\q""#).is_err(), "unknown escape letter");
        assert!(parse("\"a\\").is_err(), "escape at end of input");
    }

    #[test]
    fn nested_arrays_and_objects_roundtrip() {
        let text = r#"{"a":[[1,[2,[3]]],{"b":{"c":[{"d":null}]}}],"e":[]}"#;
        let v = parse(text).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(
            a[0].as_arr().unwrap()[1].as_arr().unwrap()[1]
                .as_arr()
                .unwrap()[0]
                .as_u64(),
            Some(3)
        );
        assert!(matches!(
            a[1].get("b").unwrap().get("c").unwrap().as_arr().unwrap()[0]
                .get("d")
                .unwrap(),
            Value::Null
        ));
        assert_eq!(v.get("e").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn duplicate_keys_last_one_wins() {
        // BTreeMap::insert semantics: the later binding replaces the
        // earlier one, matching what most JSON readers do.
        let v = parse(r#"{"k":1,"k":2,"j":0,"k":3}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("j").unwrap().as_u64(), Some(0));
        assert_eq!(v.to_json(), r#"{"j":0,"k":3}"#);
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        // Well past any real document; without the depth bound these
        // would recurse ~100k frames deep.
        let deep_open = "[".repeat(100_000);
        assert!(parse(&deep_open).is_err());
        let deep_balanced = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(parse(&deep_balanced).is_err());
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
        // At the bound itself, parsing still works.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(!too_deep.is_empty() && parse(&too_deep).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{}x").is_err());
        assert!(parse("[1] [2]").is_err());
        assert!(parse("null,").is_err());
        assert!(parse("true false").is_err());
        assert!(parse(r#"{"a":1}{"#).is_err());
        // Trailing whitespace alone is fine.
        assert!(parse("{\"a\":1} \n\t").is_ok());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "   ",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{,}",
            "[1 2]",
            "[,1]",
            "{1:2}",
            "nul",
            "tru",
            "+",
            "--1",
            "1.2.3",
            "[",
            "]",
            "}",
            "\"\\u",
        ] {
            assert!(parse(bad).is_err(), "expected parse error for {bad:?}");
        }
    }
}
