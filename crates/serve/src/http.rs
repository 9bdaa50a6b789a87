//! A bounded HTTP/1.1 request parser and response writer on `std` I/O.
//!
//! The service speaks just enough HTTP for its JSON API: request line,
//! headers, `Content-Length` bodies, and HTTP/1.1 **keep-alive** — a
//! connection serves many requests through one reused [`Request`]
//! buffer, closing only when the peer asks (`Connection: close`, or an
//! HTTP/1.0 request without `Connection: keep-alive`), idles past the
//! server's timeout, or exhausts the per-connection request bound.
//! Every limit is explicit — request line and header lines are capped
//! at [`MAX_LINE_BYTES`], header count at [`MAX_HEADERS`], bodies at
//! [`MAX_BODY_BYTES`] — and every malformed input becomes a typed
//! [`HttpError`] carrying the 4xx status to answer with, never a
//! panic: the daemon's worker threads must survive arbitrary bytes
//! from the network.
//!
//! Allocation discipline: [`read_request_into`] parses into a
//! caller-owned [`Request`] whose buffers (head bytes, header spans,
//! body) are cleared and refilled in place, and [`render_response`]
//! serializes into a caller-owned `Vec<u8>` — so a keep-alive
//! connection's steady state performs no per-request heap churn.

use std::io::{BufRead, Write};

/// Longest accepted request or header line, bytes (including CRLF).
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A byte range into [`Request::head`].
type Span = (usize, usize);

/// One parsed HTTP request, backed by reusable buffers.
///
/// The raw request line and header bytes live in one `head` buffer and
/// the parsed fields are spans into it, so parsing the next request on
/// a keep-alive connection reuses every allocation of the previous
/// one. Construct with [`Request::new`] (empty, ready for
/// [`read_request_into`]) or [`Request::synthetic`] (tests, benches,
/// embedders).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Raw request-line + header bytes; spans index into this.
    head: Vec<u8>,
    method: Span,
    target: Span,
    /// `(name, value)` spans; names are lower-cased in place.
    headers: Vec<(Span, Span)>,
    /// Raw body bytes (empty without a `Content-Length`).
    body: Vec<u8>,
    /// Whether the request line declared `HTTP/1.1` (keep-alive by
    /// default) rather than `HTTP/1.0` (close by default).
    http11: bool,
}

impl Request {
    /// An empty request, ready to be filled by [`read_request_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an owned request without any socket I/O — the test and
    /// bench entry point, and how embedders hand a request straight to
    /// `PlacementService::handle`. Header names are stored lower-cased,
    /// matching the parser.
    pub fn synthetic(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Self {
        let mut req = Self::new();
        req.head.extend_from_slice(method.as_bytes());
        req.method = (0, req.head.len());
        let target_start = req.head.len();
        req.head.extend_from_slice(target.as_bytes());
        req.target = (target_start, req.head.len());
        for (name, value) in headers {
            let name_start = req.head.len();
            req.head
                .extend_from_slice(name.to_ascii_lowercase().as_bytes());
            let name_span = (name_start, req.head.len());
            let value_start = req.head.len();
            req.head.extend_from_slice(value.as_bytes());
            req.headers.push((name_span, (value_start, req.head.len())));
        }
        req.body.extend_from_slice(body);
        req.http11 = true;
        req
    }

    fn str_at(&self, span: Span) -> &str {
        std::str::from_utf8(&self.head[span.0..span.1]).unwrap_or("")
    }

    /// Upper-case method token (`GET`, `POST`, ...).
    pub fn method(&self) -> &str {
        self.str_at(self.method)
    }

    /// The raw request target, e.g. `/v1/rankings?year=2022`.
    pub fn target(&self) -> &str {
        self.str_at(self.target)
    }

    /// Raw body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Header `(name, value)` pairs in arrival order; names
    /// lower-cased.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers
            .iter()
            .map(|&(name, value)| (self.str_at(name), self.str_at(value)))
    }

    /// The first value of header `name` (give the name lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value)
    }

    /// Whether the connection should stay open after answering this
    /// request: HTTP/1.1 defaults to keep-alive unless the peer sent
    /// `Connection: close`; HTTP/1.0 defaults to close unless it sent
    /// `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The target's path component, without the query string.
    pub fn path(&self) -> &str {
        let target = self.target();
        target.split('?').next().unwrap_or(target)
    }

    /// Iterates `key=value` pairs of the query string (no %-decoding;
    /// the API's parameters are plain tokens).
    pub fn query_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.target()
            .split_once('?')
            .map(|(_, q)| q)
            .unwrap_or("")
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
    }

    /// The first value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query_pairs().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A request that could not be read; maps to one 4xx response.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed mid-request (includes an idle-timeout expiry
    /// while waiting for the next keep-alive request).
    Io(std::io::Error),
    /// The request line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine(String),
    /// A request or header line exceeded [`MAX_LINE_BYTES`].
    LineTooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A header line had no `:` separator.
    BadHeader(String),
    /// `Content-Length` was not a non-negative integer.
    BadContentLength(String),
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
}

impl HttpError {
    /// The HTTP status this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 400,
            HttpError::BadRequestLine(_) | HttpError::BadHeader(_) => 400,
            HttpError::BadContentLength(_) => 400,
            HttpError::LineTooLong | HttpError::TooManyHeaders => 431,
            HttpError::BodyTooLarge(_) => 413,
        }
    }

    /// A short machine-readable error code for the JSON body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::Io(_) => "io",
            HttpError::BadRequestLine(_) => "bad-request-line",
            HttpError::LineTooLong => "header-too-large",
            HttpError::TooManyHeaders => "too-many-headers",
            HttpError::BadHeader(_) => "bad-header",
            HttpError::BadContentLength(_) => "bad-content-length",
            HttpError::BodyTooLarge(_) => "body-too-large",
        }
    }

    /// Whether this error is a socket failure (peer gone, idle timeout)
    /// rather than a protocol violation — the connection loop closes
    /// quietly instead of answering a 4xx nobody will read.
    pub fn is_io(&self) -> bool {
        matches!(self, HttpError::Io(_))
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::BadRequestLine(line) => write!(f, "malformed request line `{line}`"),
            HttpError::LineTooLong => {
                write!(f, "request or header line exceeds {MAX_LINE_BYTES} bytes")
            }
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::BadHeader(line) => write!(f, "malformed header `{line}`"),
            HttpError::BadContentLength(v) => write!(f, "bad content-length `{v}`"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "declared body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one `\n`-terminated line, appending its bytes to `buf` and
/// returning the span of the line content (trailing CRLF excluded).
/// Rejects lines over [`MAX_LINE_BYTES`]. `Ok(None)` on EOF before any
/// byte of this line.
fn read_line_into<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
) -> Result<Option<Span>, HttpError> {
    let start = buf.len();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if buf.len() == start {
                return Ok(None);
            }
            break;
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(available.len());
        if buf.len() - start + take > MAX_LINE_BYTES {
            return Err(HttpError::LineTooLong);
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    let mut end = buf.len();
    while end > start && (buf[end - 1] == b'\n' || buf[end - 1] == b'\r') {
        end -= 1;
    }
    // Keep the trimmed CRLF bytes out of the buffer so the next line
    // starts exactly at the span end.
    buf.truncate(end);
    Ok(Some((start, end)))
}

/// Splits a request line span into `(method, target, http11)`,
/// requiring an `HTTP/1.x` version token.
fn parse_request_line(head: &[u8], line: Span) -> Result<(Span, Span, bool), HttpError> {
    let bad =
        || HttpError::BadRequestLine(String::from_utf8_lossy(&head[line.0..line.1]).into_owned());
    let mut tokens: [Span; 3] = [(0, 0); 3];
    let mut count = 0usize;
    let mut i = line.0;
    while i < line.1 {
        if head[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < line.1 && !head[i].is_ascii_whitespace() {
            i += 1;
        }
        if count == 3 {
            return Err(bad());
        }
        tokens[count] = (start, i);
        count += 1;
    }
    if count != 3 {
        return Err(bad());
    }
    let [method, target, version] = tokens;
    let version_bytes = &head[version.0..version.1];
    if !version_bytes.starts_with(b"HTTP/1.") {
        return Err(bad());
    }
    if method.0 == method.1 || head.get(target.0) != Some(&b'/') {
        return Err(bad());
    }
    // Method and target must be valid UTF-8 for the string accessors.
    if std::str::from_utf8(&head[method.0..target.1]).is_err() {
        return Err(bad());
    }
    Ok((method, target, version_bytes == b"HTTP/1.1"))
}

/// Reads one full request from `reader` into `req`, reusing its
/// buffers. Returns `Ok(false)` when the peer closed the connection
/// before sending anything (the clean end of a keep-alive session).
pub fn read_request_into<R: BufRead>(reader: &mut R, req: &mut Request) -> Result<bool, HttpError> {
    req.head.clear();
    req.headers.clear();
    req.body.clear();
    let Some(line) = read_line_into(reader, &mut req.head)? else {
        return Ok(false);
    };
    let (method, target, http11) = parse_request_line(&req.head, line)?;
    req.method = method;
    req.target = target;
    req.http11 = http11;
    let mut content_length = 0usize;
    while let Some(line) = read_line_into(reader, &mut req.head)? {
        if line.0 == line.1 {
            break;
        }
        if req.headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let Some(colon) = req.head[line.0..line.1].iter().position(|&b| b == b':') else {
            return Err(HttpError::BadHeader(
                String::from_utf8_lossy(&req.head[line.0..line.1]).into_owned(),
            ));
        };
        let mut name = (line.0, line.0 + colon);
        let mut value = (line.0 + colon + 1, line.1);
        trim_span(&req.head, &mut name);
        trim_span(&req.head, &mut value);
        req.head[name.0..name.1].make_ascii_lowercase();
        if &req.head[name.0..name.1] == b"content-length" {
            let raw = &req.head[value.0..value.1];
            let parsed = std::str::from_utf8(raw)
                .ok()
                .and_then(|s| s.parse::<usize>().ok());
            let Some(n) = parsed else {
                return Err(HttpError::BadContentLength(
                    String::from_utf8_lossy(raw).into_owned(),
                ));
            };
            if n > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge(n));
            }
            content_length = n;
        }
        req.headers.push((name, value));
    }
    req.body.resize(content_length, 0);
    reader.read_exact(&mut req.body)?;
    Ok(true)
}

/// Shrinks a span to exclude leading/trailing ASCII whitespace.
fn trim_span(bytes: &[u8], span: &mut Span) {
    while span.0 < span.1 && bytes[span.0].is_ascii_whitespace() {
        span.0 += 1;
    }
    while span.1 > span.0 && bytes[span.1 - 1].is_ascii_whitespace() {
        span.1 -= 1;
    }
}

/// Reads one full request from `reader` into a fresh [`Request`].
/// `Ok(None)` when the peer closed the connection before sending
/// anything. Allocating convenience wrapper over [`read_request_into`]
/// for tests and one-shot embedders; the connection loop reuses one
/// `Request` instead.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut req = Request::new();
    Ok(read_request_into(reader, &mut req)?.then_some(req))
}

/// The reason phrase for the statuses this API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one JSON response into `out` (cleared first), with
/// `connection: keep-alive` or `close` per `keep_alive`. The
/// connection loop reuses one output buffer across requests, so the
/// steady state writes each response with zero allocation.
pub fn render_response(out: &mut Vec<u8>, status: u16, body: &str, keep_alive: bool) {
    out.clear();
    // `write!` into a `Vec<u8>` is infallible (it only grows).
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse(b"GET /v1/rankings?year=2022&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path(), "/v1/rankings");
        assert_eq!(req.query("year"), Some("2022"));
        assert_eq!(req.query("limit"), Some("5"));
        assert_eq!(req.query("missing"), None);
        assert_eq!(req.headers().collect::<Vec<_>>(), vec![("host", "x")]);
        assert!(req.body().is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(b"POST /v1/place HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method(), "POST");
        assert_eq!(req.body(), b"{}\r\n");
    }

    #[test]
    fn eof_before_any_byte_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn a_reused_request_is_reparsed_in_place() {
        let mut req = Request::new();
        let first = b"POST /v1/place HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let second = b"GET /v1/healthz HTTP/1.0\r\n\r\n";
        let mut reader = BufReader::new(&first[..]);
        assert!(read_request_into(&mut reader, &mut req).unwrap());
        assert_eq!(req.method(), "POST");
        assert_eq!(req.body(), b"{}");
        assert!(req.keep_alive());
        let mut reader = BufReader::new(&second[..]);
        assert!(read_request_into(&mut reader, &mut req).unwrap());
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path(), "/v1/healthz");
        assert!(req.body().is_empty());
        assert!(req.headers().next().is_none());
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_header_overrides_version_defaults() {
        let close11 = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close11.keep_alive());
        let keep10 = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(keep10.keep_alive());
        let default11 = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(default11.keep_alive());
    }

    #[test]
    fn synthetic_requests_match_parsed_ones() {
        let parsed = parse(b"POST /v1/place HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap()
            .unwrap();
        let built = Request::synthetic("POST", "/v1/place", &[("Content-Length", "2")], b"{}");
        assert_eq!(built.method(), parsed.method());
        assert_eq!(built.target(), parsed.target());
        assert_eq!(built.body(), parsed.body());
        assert_eq!(built.header("content-length"), Some("2"));
        assert!(built.keep_alive());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{err}");
            assert!(matches!(err, HttpError::BadRequestLine(_)));
        }
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, HttpError::LineTooLong));
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = b"GET /v1/healthz HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("x-h-{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, HttpError::TooManyHeaders));
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn colonless_header_is_400() {
        let err = parse(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BadHeader(_)));
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn bad_content_length_is_400_and_huge_is_413() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BadContentLength(_)));
        assert_eq!(err.status(), 400);
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(_)));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, HttpError::Io(_)));
        assert!(err.is_io());
    }

    #[test]
    fn two_pipelined_requests_parse_back_to_back() {
        let raw = b"GET /v1/healthz HTTP/1.1\r\n\r\nPOST /v1/place HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let mut reader = BufReader::new(&raw[..]);
        let mut req = Request::new();
        assert!(read_request_into(&mut reader, &mut req).unwrap());
        assert_eq!(req.path(), "/v1/healthz");
        assert!(read_request_into(&mut reader, &mut req).unwrap());
        assert_eq!(req.path(), "/v1/place");
        assert_eq!(req.body(), b"{}");
        assert!(!read_request_into(&mut reader, &mut req).unwrap());
    }

    #[test]
    fn render_response_reuses_the_buffer_and_marks_keep_alive() {
        let mut out = Vec::with_capacity(256);
        render_response(&mut out, 200, "{}", true);
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        let capacity = out.capacity();
        render_response(&mut out, 404, "{\"error\":1}", false);
        assert_eq!(out.capacity(), capacity, "render must not reallocate");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":1}"), "{text}");
    }
}
