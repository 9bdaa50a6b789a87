//! A minimal JSON value model, serializer, and parser.
//!
//! The workspace builds in environments with no route to a crates
//! registry, so `serde`/`serde_json` are not available. Experiment
//! results and reports are *written* as JSON (for `decarb-cli run
//! --json` and the other `--json` outputs) through a [`Value`] tree
//! with escaping and compact and pretty rendering; the CI
//! emissions-regression gate also reads reports back through
//! [`parse`].
//!
//! # Examples
//!
//! ```
//! use decarb_json::Value;
//!
//! let v = Value::object([
//!     ("id", Value::from("fig5")),
//!     ("rows", Value::array([Value::from(1.5), Value::from(2)])),
//! ]);
//! assert_eq!(v.to_string(), r#"{"id":"fig5","rows":[1.5,2]}"#);
//! ```

use std::fmt;

pub mod envelope;
pub mod merge;
pub mod parse;

pub use envelope::diagnostic_object;
pub use merge::merge_keyed;
pub use parse::{parse, JsonParseError};

/// A JSON value: the full JSON data model.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map) so
/// rendered output is deterministic and mirrors struct field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite floats render as `null` (matching
    /// `serde_json`'s behavior for `f64::NAN`/infinities).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An insertion-ordered object.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an array from anything iterable over values.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Array(items.into_iter().collect())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Self {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out
    }

    /// Renders with two-space indentation into a caller-owned buffer,
    /// appending to whatever `out` already holds. The placement
    /// service's connection loop serializes every response through
    /// this so its steady state reuses one `String` instead of
    /// allocating per request.
    pub fn pretty_into(&self, out: &mut String) {
        self.render(out, Some(0));
    }

    /// Compact (single-line) rendering into a caller-owned buffer,
    /// appending to whatever `out` already holds.
    pub fn compact_into(&self, out: &mut String) {
        self.render(out, None);
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => render_number(*n, out),
            Value::String(s) => render_string(s, out),
            Value::Array(items) => {
                render_seq(out, indent, '[', ']', items.len(), |out, i, inner| {
                    items[i].render(out, inner);
                })
            }
            Value::Object(pairs) => {
                render_seq(out, indent, '{', '}', pairs.len(), |out, i, inner| {
                    let (key, value) = &pairs[i];
                    render_string(key, out);
                    out.push(':');
                    if inner.is_some() {
                        out.push(' ');
                    }
                    value.render(out, inner);
                })
            }
        }
    }
}

/// Shared array/object rendering: compact when `indent` is `None`,
/// otherwise one element per line at `indent + 1` levels.
fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = inner {
            push_indent(out, depth);
        }
        item(out, i, inner);
    }
    if let Some(depth) = indent {
        push_indent(out, depth);
    }
    out.push(close);
}

/// Starts a new line indented `depth` levels, writing straight into
/// `out` rather than building the indentation first.
fn push_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_number(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_string(s: &str, out: &mut String) {
    use fmt::Write as _;
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

impl fmt::Display for Value {
    /// Compact (single-line) rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, None);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Number(f64::from(n))
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(f64::from(n))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Self {
        opt.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from(3.5).to_string(), "3.5");
        assert_eq!(Value::from(42i64).to_string(), "42");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let v = Value::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn integers_do_not_grow_decimal_points() {
        assert_eq!(Value::from(8760usize).to_string(), "8760");
        assert_eq!(Value::from(-3.0).to_string(), "-3");
        assert_eq!(Value::from(1e20).to_string(), "100000000000000000000");
    }

    #[test]
    fn nested_compact_rendering() {
        let v = Value::object([
            ("id", Value::from("fig1")),
            ("empty", Value::array([])),
            (
                "rows",
                Value::array([Value::from(vec![1.0, 2.5]), Value::Null]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"id":"fig1","empty":[],"rows":[[1,2.5],null]}"#
        );
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Value::object([("a", Value::array([Value::from(1i64)]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn render_into_appends_to_a_reused_buffer() {
        let v = Value::object([("a", Value::from(1i64))]);
        let mut buf = String::with_capacity(64);
        v.pretty_into(&mut buf);
        assert_eq!(buf, v.pretty());
        buf.clear();
        v.compact_into(&mut buf);
        assert_eq!(buf, v.to_string());
        // Appending semantics: the caller owns clearing.
        v.compact_into(&mut buf);
        assert_eq!(buf, format!("{v}{v}"));
    }

    #[test]
    fn object_get_finds_keys() {
        let v = Value::object([("x", Value::from(1i64))]);
        assert_eq!(v.get("x"), Some(&Value::Number(1.0)));
        assert_eq!(v.get("y"), None);
        assert_eq!(Value::Null.get("x"), None);
    }

    #[test]
    fn option_and_vec_conversions() {
        assert_eq!(Value::from(None::<f64>), Value::Null);
        assert_eq!(Value::from(Some("s")), Value::from("s"));
        let v: Value = vec![1i64, 2].into();
        assert_eq!(v.to_string(), "[1,2]");
    }
}
