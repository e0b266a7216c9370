//! Minimal hand-rolled JSON: the workspace's one reader and writer.
//!
//! The trace crate is intentionally dependency-free, so JSONL lines and
//! the Chrome trace file are assembled with these helpers instead of a
//! serialization framework. Number formatting uses Rust's shortest
//! round-trip `Display` for `f64`, which is deterministic across runs
//! and platforms — the determinism tests compare traces byte-for-byte.
//!
//! The read side — [`Value`], [`parse`] and its nesting bound
//! [`MAX_DEPTH`] — parses the `corral-sim serve` JSONL wire format.

pub use crate::jsonv::{parse, Value, MAX_DEPTH};

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Appends a finite `f64` as JSON (non-finite values become `null`,
/// which JSON cannot represent natively).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 is the shortest representation that round-trips,
        // deterministic for a given bit pattern.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Appends `"key":` (key must not need escaping).
pub fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

/// Appends `,"key":<uint>`.
pub fn field_u64(out: &mut String, key: &str, v: u64) {
    out.push(',');
    push_key(out, key);
    out.push_str(&v.to_string());
}

/// Appends `,"key":<int>`.
pub fn field_usize(out: &mut String, key: &str, v: usize) {
    out.push(',');
    push_key(out, key);
    out.push_str(&v.to_string());
}

/// Appends `,"key":<float|null>`.
pub fn field_f64(out: &mut String, key: &str, v: f64) {
    out.push(',');
    push_key(out, key);
    push_f64(out, v);
}

/// Appends `,"key":<float|null>` where `None` renders as `null`.
pub fn field_opt_f64(out: &mut String, key: &str, v: Option<f64>) {
    out.push(',');
    push_key(out, key);
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

/// Appends `,"key":"value"` (value escaped).
pub fn field_str(out: &mut String, key: &str, v: &str) {
    out.push(',');
    push_key(out, key);
    push_str_escaped(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn floats_round_trip_and_nonfinite_are_null() {
        let mut s = String::new();
        push_f64(&mut s, 12.5);
        s.push(' ');
        push_f64(&mut s, f64::NAN);
        s.push(' ');
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "12.5 null null");
        let mut t = String::new();
        push_f64(&mut t, 0.1 + 0.2);
        assert_eq!(t.parse::<f64>().unwrap(), 0.1 + 0.2);
    }
}
