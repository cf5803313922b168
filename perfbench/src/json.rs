//! Rendering for the workspace's [`JsonValue`] tree (the parser lives in
//! `mcs-prof`), plus the accessors the parent process uses to read its
//! measurement processes' reports.

use std::collections::BTreeMap;

pub use mcs_prof::value::{escape_json, JsonValue};

/// Build an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number node.
pub fn num(x: impl Into<f64>) -> JsonValue {
    JsonValue::Num(x.into())
}

/// A count node. Counts stay exact while below 2^53, which every
/// counter here is by orders of magnitude.
pub fn count(n: u64) -> JsonValue {
    JsonValue::Num(n as f64)
}

/// An array of numbers.
pub fn nums(xs: &[f64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|&x| JsonValue::Num(x)).collect())
}

/// Render compactly on one line. Numbers print with every digit Rust's
/// shortest round-trip formatting gives; non-finite numbers (which no
/// measurement should produce) render as `null` rather than invalid JSON.
pub fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
        JsonValue::Num(_) => out.push_str("null"),
        JsonValue::Str(s) => {
            out.push('"');
            out.push_str(&escape_json(s));
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => write_object(map, out),
    }
}

fn write_object(map: &BTreeMap<String, JsonValue>, out: &mut String) {
    out.push('{');
    for (i, (k, item)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape_json(k));
        out.push_str("\":");
        write(item, out);
    }
    out.push('}');
}

/// Number member `key` of an object report.
pub fn f64_at(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("report has no number `{key}`"))
}

/// Integer member `key` of an object report.
pub fn u64_at(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("report has no count `{key}`"))
}

/// Numeric-array member `key` of an object report.
pub fn f64s_at(v: &JsonValue, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("report has no array `{key}`"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("`{key}` holds a non-number"))
        })
        .collect()
}

/// A 64-bit pattern carried as hex text (JSON numbers cannot hold a
/// full `u64`, and k bits must compare exactly).
pub fn bits(b: u64) -> JsonValue {
    JsonValue::Str(format!("{b:016x}"))
}

/// Read back a [`bits`] member.
pub fn bits_at(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("report has no bit pattern `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_the_workspace_parser() {
        let v = obj([
            ("a", num(1.25)),
            ("b", count(1 << 40)),
            ("c", nums(&[0.1, 2e-9])),
            ("d", JsonValue::Str("x\"y".into())),
            ("e", bits(u64::MAX)),
            ("f", JsonValue::Bool(true)),
        ]);
        let back = JsonValue::parse(&render(&v)).expect("valid JSON");
        assert_eq!(back, v);
        assert_eq!(bits_at(&back, "e"), Ok(u64::MAX));
        assert_eq!(u64_at(&back, "b"), Ok(1 << 40));
        assert_eq!(f64s_at(&back, "c"), Ok(vec![0.1, 2e-9]));
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        let line = render(&nums(&[f64::NAN, 1.0]));
        assert_eq!(line, "[null,1]");
    }
}
