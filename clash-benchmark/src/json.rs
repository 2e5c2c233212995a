//! A minimal JSON value and writer (the workspace has no serde; the
//! harness only ever *writes* JSON).

use std::fmt::{self, Write as _};

/// A JSON value. Objects keep insertion order, so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers are kept apart from floats so counts print without `.0`.
    Int(i64),
    /// Non-finite floats have no JSON form and are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Multi-line rendering with two-space indentation (for files people
    /// read); `to_string()` is the single-line form (for result lines).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() && !items.iter().all(Json::is_scalar) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields)
                if !fields.is_empty() && !fields.iter().all(|(_, v)| v.is_scalar()) =>
            {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    let _ = write!(out, "{}: ", Json::Str(k.clone()));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            // Scalars, and containers of scalars, stay on one line.
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // `{}` on f64 prints the shortest digits that round-trip, so
            // values are reported as measured.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escapes() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-7).to_string(), "-7");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
        assert_eq!(Json::str("µs → é").to_string(), "\"µs → é\"");
    }

    #[test]
    fn containers_keep_order_on_one_line() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(3)),
            (
                "metrics",
                Json::obj([(
                    "run_s",
                    Json::obj([("value", Json::Num(2.25)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("empty", Json::Arr(vec![])),
            ("xs", Json::nums(&[1.0, 2.5])),
        ]);
        let line = v.to_string();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "metrics": {"run_s": {"value": 2.25, "unit": "s"}}, "empty": [], "xs": [1, 2.5]}"#
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn pretty_nests_containers_and_inlines_leaves() {
        let v = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::obj([("x", Json::Num(0.5)), ("y", Json::Null)])),
            ("c", Json::Arr(vec![Json::obj([("k", Json::Int(2))])])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": 1,\n  \"b\": {\"x\": 0.5, \"y\": null},\n  \"c\": [\n    {\"k\": 2}\n  ]\n}\n"
        );
    }
}
