//! A pull reader for JSON, and the [`Value`] parser built on it.
//!
//! The crate started write-only (experiments only ever *emitted* JSON),
//! but the CI emissions-regression gate needs to read reports back:
//! `decarb-cli scenario diff` parses both the freshly produced report
//! and the committed golden snapshot. The reader accepts exactly the
//! JSON data model [`Value`] renders — no comments, no trailing commas
//! — and reports errors with a byte offset.
//!
//! [`Reader`] hands out one value at a time and builds nothing: strings
//! come back as [`JsonStr`] slices of the input, and a value the caller
//! does not want is validated and skipped in place. [`parse()`] is the
//! [`Value`] builder over the same reader, so there is one grammar and
//! one set of error messages; a decoder that wants a few fields of a
//! document can read them straight from the [`Reader`] without
//! allocating.

use std::borrow::Cow;
use std::fmt;

use crate::Value;

#[cfg(test)]
mod oracle;

/// Maximum array/object nesting accepted before the parser bails (keeps
/// hostile inputs from overflowing the stack).
const MAX_DEPTH: usize = 256;

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses `text` into a [`Value`]. The whole input must be one JSON
/// document (trailing whitespace is allowed, trailing content is not).
pub fn parse(text: &str) -> Result<Value, JsonParseError> {
    let mut reader = Reader::new(text);
    let token = reader.value()?;
    let value = build(&mut reader, token)?;
    reader.finish()?;
    Ok(value)
}

/// Builds the [`Value`] whose head `token` the reader just returned.
fn build(reader: &mut Reader<'_>, token: Token<'_>) -> Result<Value, JsonParseError> {
    Ok(match token {
        Token::Null => Value::Null,
        Token::Bool(b) => Value::Bool(b),
        Token::Number(n) => Value::Number(n),
        Token::String(s) => Value::String(s.decoded().into_owned()),
        Token::Array => {
            let mut items = Vec::new();
            while reader.item()? {
                let token = reader.value()?;
                items.push(build(reader, token)?);
            }
            Value::Array(items)
        }
        Token::Object => {
            let mut pairs = Vec::new();
            while let Some(key) = reader.key()? {
                let token = reader.value()?;
                pairs.push((key.decoded().into_owned(), build(reader, token)?));
            }
            Value::Object(pairs)
        }
    })
}

/// The head of one JSON value, as [`Reader::value`] returns it.
///
/// Scalars are complete. After [`Token::Object`] the caller drains the
/// object with [`Reader::key`] (then one [`Reader::value`] per key), and
/// after [`Token::Array`] with [`Reader::item`] (then one
/// [`Reader::value`] per item), or hands the token to [`Reader::skip`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as `f64` parsing reads its text (`1e400` is `+inf`).
    Number(f64),
    /// A string, borrowed from the input.
    String(JsonStr<'a>),
    /// `{`: an object is open.
    Object,
    /// `[`: an array is open.
    Array,
}

/// A validated JSON string, borrowed from the input: the bytes between
/// its quotes, escapes still in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// The decoded characters, one escape at a time.
    fn chars(&self) -> Unescaped<'a> {
        Unescaped { rest: self.raw }
    }

    /// Whether the decoded string equals `s`, without allocating.
    pub fn eq_str(&self, s: &str) -> bool {
        if self.escaped {
            self.chars().eq(s.chars())
        } else {
            self.raw == s
        }
    }

    /// The decoded string: borrowed from the input unless it holds an
    /// escape.
    pub fn decoded(&self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(self.chars().collect())
        } else {
            Cow::Borrowed(self.raw)
        }
    }
}

/// The decoded characters of a [`JsonStr`].
struct Unescaped<'a> {
    rest: &'a str,
}

impl Iterator for Unescaped<'_> {
    type Item = char;

    fn next(&mut self) -> Option<char> {
        let mut chars = self.rest.chars();
        let c = chars.next()?;
        if c != '\\' {
            self.rest = chars.as_str();
            return Some(c);
        }
        // The reader validated every escape, so this cannot fail.
        let (c, next) = escape_at(self.rest.as_bytes(), 0).ok()?;
        self.rest = self.rest.get(next..).unwrap_or_default();
        Some(c)
    }
}

/// A pull reader over one JSON document: it returns one value head at a
/// time, in document order, and allocates nothing but its errors.
///
/// The caller drives the structure: [`Reader::value`] reads the next
/// value's head, [`Reader::key`] and [`Reader::item`] step through an
/// open object or array, [`Reader::skip`] validates and passes over
/// the rest of a value, and [`Reader::finish`] rejects trailing
/// content. Every syntax error carries the same byte offset and message
/// [`parse()`] reports for it.
///
/// # Examples
///
/// ```
/// use decarb_json::{Reader, Token};
///
/// let mut reader = Reader::new(r#"{"zone": "SE", "tags": [1, 2], "hours": 6}"#);
/// assert_eq!(reader.value().unwrap(), Token::Object);
/// let mut hours = None;
/// while let Some(key) = reader.key().unwrap() {
///     match reader.value().unwrap() {
///         Token::Number(n) if key.eq_str("hours") => hours = Some(n),
///         other => reader.skip(other).unwrap(),
///     }
/// }
/// reader.finish().unwrap();
/// assert_eq!(hours, Some(6.0));
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Open objects and arrays.
    depth: usize,
    /// A container was just opened: its first [`Reader::key`] or
    /// [`Reader::item`] may find it empty, but expects no separator.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's one value.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// Consumes `word` if it is next (used for `true`/`false`/`null`).
    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn open(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        token
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
    }

    /// Reads the head of the next value: the document's own value
    /// first, then the value after each [`Reader::key`] or
    /// [`Reader::item`].
    pub fn value(&mut self) -> Result<Token<'a>, JsonParseError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 256 levels"));
        }
        match self.peek() {
            Some(b'{') => Ok(self.open(Token::Object)),
            Some(b'[') => Ok(self.open(Token::Array)),
            Some(b'"') => Ok(Token::String(self.string()?)),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number(self.number()?)),
            Some(other) => Err(self.error(format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Steps to the next key of the open object: `Some(key)` with the
    /// `:` consumed (read its value next), or `None` once the object
    /// closes.
    pub fn key(&mut self) -> Result<Option<JsonStr<'a>>, JsonParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() == Some(b'}') {
                self.close();
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        Ok(Some(key))
    }

    /// Steps to the next item of the open array: `true` if one follows
    /// (read it next), `false` once the array closes.
    pub fn item(&mut self) -> Result<bool, JsonParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() == Some(b']') {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ => Err(self.error("expected `,` or `]` in array")),
        }
    }

    /// Validates and passes over the rest of the value whose head
    /// `token` is, building nothing.
    pub fn skip(&mut self, token: Token<'a>) -> Result<(), JsonParseError> {
        match token {
            Token::Object => {
                while self.key()?.is_some() {
                    let inner = self.value()?;
                    self.skip(inner)?;
                }
            }
            Token::Array => {
                while self.item()? {
                    let inner = self.value()?;
                    self.skip(inner)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Ends the document: only whitespace may follow its value.
    pub fn finish(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing content after the document"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<JsonStr<'a>, JsonParseError> {
        self.expect_byte(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let raw = self.text.get(start..self.pos).unwrap_or_default();
                    self.pos += 1;
                    return Ok(JsonStr { raw, escaped });
                }
                Some(b'\\') => {
                    let (_, next) = escape_at(self.text.as_bytes(), self.pos)?;
                    self.pos = next;
                    escaped = true;
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                // Bytes of a multi-byte UTF-8 scalar are all >= 0x80, so
                // stepping byte by byte never splits a quote or escape.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Reads a number's text and converts it with `f64` parsing.
    fn number(&mut self) -> Result<f64, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digits after `.`"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected exponent digits"));
            }
            self.digits();
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        text.parse()
            .map_err(|_| self.error(format!("unparseable number `{text}`")))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

/// Decodes the escape whose backslash is at `bytes[at]`: the character
/// and the offset just past the escape, or the error (with its offset)
/// a malformed escape reports.
fn escape_at(bytes: &[u8], at: usize) -> Result<(char, usize), JsonParseError> {
    let error = |offset: usize, message: String| JsonParseError { offset, message };
    let Some(&escape) = bytes.get(at + 1) else {
        return Err(error(at + 1, "dangling escape".into()));
    };
    let c = match escape {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'b' => '\u{0008}',
        b'f' => '\u{000C}',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'u' => return unicode_escape(bytes, at + 2),
        other => return Err(error(at + 1, format!("bad escape `\\{}`", other as char))),
    };
    Ok((c, at + 2))
}

/// Decodes the four hex digits of a `\uXXXX` escape starting at
/// `bytes[at]` (just past the `\u`), combining surrogate pairs.
fn unicode_escape(bytes: &[u8], at: usize) -> Result<(char, usize), JsonParseError> {
    let error = |offset: usize, message: &str| JsonParseError {
        offset,
        message: message.into(),
    };
    let high = hex4(bytes, at)?;
    let mut pos = at + 4;
    if (0xD800..0xDC00).contains(&high) {
        // High surrogate: a `\uXXXX` low surrogate must follow.
        if bytes[pos..].starts_with(b"\\u") {
            pos += 2;
            let low = hex4(bytes, pos)?;
            pos += 4;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(code)
                    .map(|c| (c, pos))
                    .ok_or_else(|| error(pos, "bad surrogate pair"));
            }
        }
        return Err(error(pos, "unpaired high surrogate"));
    }
    if (0xDC00..0xE000).contains(&high) {
        return Err(error(pos, "unpaired low surrogate"));
    }
    char::from_u32(high)
        .map(|c| (c, pos))
        .ok_or_else(|| error(pos, "bad \\u escape"))
}

fn hex4(bytes: &[u8], at: usize) -> Result<u32, JsonParseError> {
    let error = |message: &str| JsonParseError {
        offset: at,
        message: message.into(),
    };
    let digits = bytes
        .get(at..at + 4)
        .ok_or_else(|| error("truncated \\u escape"))?;
    let text = std::str::from_utf8(digits).map_err(|_| error("bad \\u escape"))?;
    u32::from_str_radix(text, 16).map_err(|_| error("non-hex \\u escape digits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-3.25e2").unwrap(), Value::Number(-325.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn containers_parse() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::from("d")));
        let Some(Value::Array(items)) = v.get("a") else {
            panic!("a is an array");
        };
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("b"), Some(&Value::Null));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn escapes_parse() {
        assert_eq!(
            parse(r#""a\n\t\"\\\u0041\u00e9""#).unwrap(),
            Value::from("a\n\t\"\\Aé")
        );
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::from("😀"));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"grön el\"").unwrap(), Value::from("grön el"));
    }

    #[test]
    fn round_trips_rendered_values() {
        let original = Value::object([
            ("name", Value::from("batch-deferral-europe")),
            ("emissions_g", Value::from(123456.789)),
            ("jobs", Value::from(96)),
            ("flags", Value::array([Value::Bool(true), Value::Null])),
            ("nested", Value::object([("k", Value::from("v\n\"q\""))])),
        ]);
        assert_eq!(parse(&original.to_string()).unwrap(), original);
        assert_eq!(parse(&original.pretty()).unwrap(), original);
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "expected `\""),
            ("[1,]", "unexpected byte"),
            ("{\"a\" 1}", "expected `:`"),
            ("[1 2]", "expected `,` or `]`"),
            ("\"abc", "unterminated"),
            ("01", "trailing content"),
            ("1.e3", "digits after `.`"),
            ("\"\\q\"", "bad escape"),
            ("\"\\ud800x\"", "unpaired high surrogate"),
            ("nulll", "trailing content"),
            ("tru", "expected `true`"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?}: got `{}`, wanted `{needle}`",
                err.message
            );
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
        // 200 levels are fine.
        let ok = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn error_display_includes_offset() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(format!("{err}").contains("byte 4"));
    }

    #[test]
    fn reader_borrows_plain_strings_and_decodes_escaped_ones() {
        let mut reader = Reader::new(r#"["PL", "P\u004c", "a\"b"]"#);
        assert_eq!(reader.value().unwrap(), Token::Array);
        let mut seen = Vec::new();
        while reader.item().unwrap() {
            let Token::String(s) = reader.value().unwrap() else {
                panic!("strings only");
            };
            assert!(s.eq_str(&s.decoded()));
            seen.push((s.decoded(), s.eq_str("PL")));
        }
        reader.finish().unwrap();
        assert!(matches!(seen[0].0, Cow::Borrowed("PL")));
        assert_eq!(seen[1], (Cow::Owned::<str>("PL".into()), true));
        assert_eq!(seen[2], (Cow::Owned::<str>("a\"b".into()), false));
    }

    #[test]
    fn skip_validates_what_it_passes_over() {
        let mut reader = Reader::new(r#"{"x": [1, {"y": [true, null]}], "z": "w"}"#);
        let token = reader.value().unwrap();
        reader.skip(token).unwrap();
        reader.finish().unwrap();
        // A syntax error inside a skipped value is still an error, at
        // the offset `parse` reports.
        let text = r#"{"x": [1, {"y": [tru]}]}"#;
        let mut reader = Reader::new(text);
        let token = reader.value().unwrap();
        assert_eq!(reader.skip(token), Err(parse(text).unwrap_err()));
    }

    /// A small deterministic generator for the differential test.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Seed documents covering every token kind, escape form and error
    /// site of the grammar.
    const SEEDS: &[&str] = &[
        r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#,
        r#"[{"a":[1,2.5e-3,-0,true,false,null]},{"b":{"c":"d\n\t\"\\\/\b\f\r"}}]"#,
        r#"{"u":"\u0041\u00e9\ud83d\ude00\u+041","s":"grön el 😀","e":{},"f":[]}"#,
        "  [ 1 , [ [ ] ] , { \"k\" : [ ] } ]  ",
        r#"{"n":[0,-1,12.5,1e400,6e0,6.0,1E+2,3e-2]}"#,
        r#""\ud800\udc00\udbff\udfff""#,
    ];

    /// Mutates `seed` by bit flips, truncation, byte splices and
    /// inserts of grammar bytes, returning valid UTF-8 only.
    fn mutate(rng: &mut XorShift, seed: &str) -> String {
        let mut bytes = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len());
            match rng.below(5) {
                0 => bytes[at] ^= 1 << rng.below(8),
                1 => bytes.truncate(at),
                2 => {
                    let other = SEEDS[rng.below(SEEDS.len())].as_bytes();
                    let from = rng.below(other.len());
                    let len = rng.below(other.len() - from + 1);
                    bytes.splice(at..at, other[from..from + len].iter().copied());
                }
                3 => {
                    let grammar = b"{}[]\",:\\u0123456789eE+-.tfn \n\x01";
                    bytes.insert(at, grammar[rng.below(grammar.len())]);
                }
                _ => {
                    bytes.remove(at);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn parse_matches_the_recursive_oracle_byte_for_byte() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut errors = 0;
        let mut checked = 0;
        for seed in SEEDS {
            assert_eq!(parse(seed), oracle::parse(seed), "{seed}");
            for _ in 0..4000 {
                let text = mutate(&mut rng, seed);
                let got = parse(&text);
                assert_eq!(got, oracle::parse(&text), "{text:?}");
                errors += usize::from(got.is_err());
                checked += 1;
            }
        }
        // The mutations reach both outcomes in bulk.
        assert!(
            errors > checked / 4 && errors < checked,
            "{errors}/{checked}"
        );
        for depth in [255, 256, 257, 258] {
            for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
                for inner in ["", "1", "[]", "[1]"] {
                    let text = open.repeat(depth) + inner + &close.repeat(depth);
                    assert_eq!(parse(&text), oracle::parse(&text), "depth {depth}");
                }
            }
        }
    }
}
