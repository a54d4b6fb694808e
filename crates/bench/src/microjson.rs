//! Minimal JSON writer for the `BENCH_*.json` records.
//!
//! The workspace is built fully offline, so instead of `serde` this is
//! a small pretty printer producing `serde_json::to_string_pretty`-style
//! output (two-space indent). Nothing in the harness reads JSON back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order preserved lexicographically.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) if items.is_empty() => out.push_str("[]"),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(map) if map.is_empty() => out.push_str("{}"),
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Convenience: an object from key/value pairs.
pub fn object(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            let _ = write!(out, "{}", n as i64);
            out.push_str(".0");
            // Integral floats round-trip as `N.0`; usize-like fields are
            // accepted back by `as_usize` since fract() == 0.
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_documents_with_sorted_keys() {
        let doc = object(vec![
            ("name", Json::String("covariance".into())),
            ("threads", Json::Number(8.0)),
            ("speedup", Json::Number(4.25)),
            (
                "runs",
                Json::Array(vec![Json::Number(1.5), Json::Null, Json::Bool(true)]),
            ),
            ("empty", Json::Array(vec![])),
        ]);
        let want = r#"{
  "empty": [],
  "name": "covariance",
  "runs": [
    1.5,
    null,
    true
  ],
  "speedup": 4.25,
  "threads": 8.0
}"#;
        assert_eq!(doc.pretty(), want);
    }

    #[test]
    fn strings_are_escaped() {
        let doc = Json::String("line\nbreak \"quote\" \\slash\u{1}".into());
        assert_eq!(doc.pretty(), r#""line\nbreak \"quote\" \\slash\u0001""#);
    }

    #[test]
    fn integral_floats_keep_point_zero() {
        assert_eq!(Json::Number(16.0).pretty(), "16.0");
        assert_eq!(Json::Number(-3.0).pretty(), "-3.0");
        assert_eq!(Json::Number(0.5).pretty(), "0.5");
        assert_eq!(Json::Number(f64::NAN).pretty(), "null");
    }
}
