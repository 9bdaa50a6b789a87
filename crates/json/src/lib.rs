//! A minimal JSON value model, serializer, and parser.
//!
//! The workspace builds in environments with no route to a crates
//! registry, so `serde`/`serde_json` are not available. Experiment
//! results and reports are *written* as JSON (for `decarb-cli run
//! --json` and the other `--json` outputs) through a [`Value`] tree
//! with escaping and compact and pretty rendering; the CI
//! emissions-regression gate also reads reports back through
//! [`parse()`]. Hot paths skip the tree: [`Reader`] pulls a document's
//! values one at a time without allocating, and [`SeqWriter`],
//! [`write_number`] and [`write_string`] append the exact text a
//! [`Value`] renders.
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
pub use parse::{parse, JsonParseError, JsonStr, Reader, Token};

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
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                let mut seq = SeqWriter::array(out, indent);
                for item in items {
                    let inner = seq.item(out);
                    item.render(out, inner);
                }
                seq.end(out);
            }
            Value::Object(pairs) => {
                let mut seq = SeqWriter::object(out, indent);
                for (key, value) in pairs {
                    let inner = seq.key(out, key);
                    value.render(out, inner);
                }
                seq.end(out);
            }
        }
    }
}

/// An array or object written element by element straight into a
/// buffer, in the layout [`Value`] renders: compact when `indent` is
/// `None`, otherwise one element per line at `indent + 1` levels of two
/// spaces and `": "` after each key. [`Value`] rendering is built on
/// it, so a writer that skips the tree prints the same bytes.
///
/// ```
/// use decarb_json::{write_number, SeqWriter, Value};
///
/// let mut out = String::new();
/// let mut obj = SeqWriter::object(&mut out, Some(0));
/// let inner = obj.key(&mut out, "rows");
/// let mut rows = SeqWriter::array(&mut out, inner);
/// rows.item(&mut out);
/// write_number(&mut out, 1.5);
/// rows.end(&mut out);
/// obj.end(&mut out);
/// let tree = Value::object([("rows", Value::array([Value::from(1.5)]))]);
/// assert_eq!(out, tree.pretty());
/// ```
#[derive(Debug)]
#[must_use = "a sequence must be closed with `end`"]
pub struct SeqWriter {
    indent: Option<usize>,
    close: char,
    len: usize,
}

impl SeqWriter {
    /// Opens an array whose own line sits at `indent`.
    #[inline]
    pub fn array(out: &mut String, indent: Option<usize>) -> Self {
        Self::open(out, indent, '[', ']')
    }

    /// Opens an object whose own line sits at `indent`.
    #[inline]
    pub fn object(out: &mut String, indent: Option<usize>) -> Self {
        Self::open(out, indent, '{', '}')
    }

    #[inline]
    fn open(out: &mut String, indent: Option<usize>, open: char, close: char) -> Self {
        out.push(open);
        Self {
            indent,
            close,
            len: 0,
        }
    }

    /// Starts the next element: the comma before every element but the
    /// first, then its new line. Returns the indent to write a nested
    /// array or object at.
    #[inline]
    pub fn item(&mut self, out: &mut String) -> Option<usize> {
        if self.len > 0 {
            out.push(',');
        }
        self.len += 1;
        let inner = self.indent.map(|depth| depth + 1);
        if let Some(depth) = inner {
            push_indent(out, depth);
        }
        inner
    }

    /// Starts the next object member: [`SeqWriter::item`], then the
    /// quoted key and its separator. The caller writes the value.
    #[inline]
    pub fn key(&mut self, out: &mut String, key: &str) -> Option<usize> {
        let inner = self.item(out);
        write_string(out, key);
        out.push_str(if inner.is_some() { ": " } else { ":" });
        inner
    }

    /// Closes the sequence, on its own line when pretty and not empty.
    #[inline]
    pub fn end(self, out: &mut String) {
        if self.len > 0 {
            if let Some(depth) = self.indent {
                push_indent(out, depth);
            }
        }
        out.push(self.close);
    }
}

/// Starts a new line indented `depth` levels, writing straight into
/// `out` rather than building the indentation first: the first eight
/// levels in one copy, any deeper ones two spaces at a time.
fn push_indent(out: &mut String, depth: usize) {
    const LINE: &str = "\n                ";
    let head = depth.min((LINE.len() - 1) / 2);
    out.push_str(&LINE[..1 + 2 * head]);
    for _ in head..depth {
        out.push_str("  ");
    }
}

/// Appends `n` as [`Value::Number`] renders it: `null` when not
/// finite, whole numbers below 1e15 in magnitude as integers (digit by
/// digit, `-0` as `0`), and every other value through `f64`'s `Display`.
pub fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // |n| < 1e15: at most 15 digits and a sign.
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        let mut rest = (n as i64).unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.extend(digits[at..].iter().map(|&d| char::from(d)));
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters; runs that need no escape are copied whole.
#[inline]
pub fn write_string(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    let mut run = 0;
    while let Some(skip) = s.as_bytes()[run..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        let at = run + skip;
        // `at` indexes an ASCII byte, so both slices end on a char
        // boundary.
        out.push_str(&s[run..at]);
        match s.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            byte => {
                let _ = write!(out, "\\u{:04x}", byte);
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
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
    fn number_writer_matches_display_formatting() {
        use fmt::Write as _;
        // The pre-digit-loop rendering: `i64` Display for whole values.
        let reference = |n: f64| {
            let mut out = String::new();
            if !n.is_finite() {
                out.push_str("null");
            } else if n == n.trunc() && n.abs() < 1e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
            out
        };
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            19704.0,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e15,
            -1e15,
            1e15 - 1.0,
            0.5,
            -2.5,
            87.01605273648602,
            1e-7,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bits = f64::from_bits(state);
            let scaled = (state >> 11) as f64 / (1u64 << 53) as f64 * 2e15 - 1e15;
            cases.extend([bits, scaled, scaled.trunc(), (scaled / 1e9).trunc()]);
        }
        for n in cases {
            let mut out = String::new();
            write_number(&mut out, n);
            assert_eq!(out, reference(n), "{n:e}");
        }
    }

    #[test]
    fn string_writer_copies_runs_and_escapes_the_rest() {
        let mut out = String::from("x");
        write_string(&mut out, "grön \u{1f} \"q\" a\\b\r\n\t😀");
        assert_eq!(out, "x\"grön \\u001f \\\"q\\\" a\\\\b\\r\\n\\t😀\"");
        out.clear();
        write_string(&mut out, "");
        assert_eq!(out, "\"\"");
        // Every ASCII character, alone and between multi-byte ones,
        // against the character-at-a-time escaping it replaced.
        let reference = |s: &str| {
            use fmt::Write as _;
            let mut out = String::from("\"");
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
            out
        };
        for c in (0u8..0x80).map(char::from) {
            for s in [c.to_string(), format!("é{c}{c}ö"), format!("{c}x😀")] {
                out.clear();
                write_string(&mut out, &s);
                assert_eq!(out, reference(&s), "{s:?}");
            }
        }
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
    fn seq_writer_prints_what_the_tree_renders() {
        let tree = Value::object([
            ("empty", Value::array([])),
            ("none", Value::object::<&str>([])),
            (
                "rows",
                Value::array([Value::from(1i64), Value::object([("k\"", Value::Null)])]),
            ),
        ]);
        for indent in [None, Some(0), Some(3)] {
            let mut out = String::new();
            let mut obj = SeqWriter::object(&mut out, indent);
            let inner = obj.key(&mut out, "empty");
            SeqWriter::array(&mut out, inner).end(&mut out);
            let inner = obj.key(&mut out, "none");
            SeqWriter::object(&mut out, inner).end(&mut out);
            let inner = obj.key(&mut out, "rows");
            let mut rows = SeqWriter::array(&mut out, inner);
            rows.item(&mut out);
            write_number(&mut out, 1.0);
            let inner = rows.item(&mut out);
            let mut row = SeqWriter::object(&mut out, inner);
            row.key(&mut out, "k\"");
            out.push_str("null");
            row.end(&mut out);
            rows.end(&mut out);
            obj.end(&mut out);
            let mut expected = String::new();
            tree.render(&mut expected, indent);
            assert_eq!(out, expected, "{indent:?}");
        }
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
