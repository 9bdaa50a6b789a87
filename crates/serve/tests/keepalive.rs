//! Keep-alive edge cases over real TCP: pipelined requests landing in
//! one read, a request trickling in split across many writes, the
//! idle-timeout disconnect, server-initiated close at the request
//! bound, oversized batches, and bit-identical placement answers
//! whether the connection is reused or closed per request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decarb_serve::{PlacementService, Server};
use decarb_traces::builtin_dataset;

/// The CI smoke-test placement query; its exact response bytes are
/// pinned in `tests/golden/serve_place.json`.
const GOLDEN_QUERY: &str =
    r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#;

fn boot(configure: impl FnOnce(Server) -> Server) -> SocketAddr {
    let service = Arc::new(PlacementService::new(builtin_dataset()));
    let server = configure(Server::bind("127.0.0.1:0", service).expect("bind"));
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = server.run(2);
    });
    addr
}

fn place_request(body: &str, connection: &str) -> String {
    format!(
        "POST /v1/place HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// Reads exactly one content-length-framed response off `stream`.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Read header bytes one at a time until the blank line; fine for a
    // test helper.
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("header byte");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).expect("utf8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().expect("length"))
        })
        .expect("content-length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

#[test]
fn pipelined_requests_in_one_write_get_all_their_answers() {
    let addr = boot(|s| s);
    let mut stream = TcpStream::connect(addr).unwrap();
    // Both requests land in the server's buffer in one write; the
    // second must be answered from the leftover buffered bytes.
    let both = format!(
        "{}{}",
        place_request(GOLDEN_QUERY, "keep-alive"),
        place_request(GOLDEN_QUERY, "close")
    );
    stream.write_all(both.as_bytes()).unwrap();
    let (s1, b1) = read_response(&mut stream);
    let (s2, b2) = read_response(&mut stream);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "pipelined answers must agree");
    // After the close-marked second response, the server hangs up.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

#[test]
fn a_request_split_across_many_tiny_writes_still_parses() {
    let addr = boot(|s| s);
    let mut stream = TcpStream::connect(addr).unwrap();
    let raw = place_request(GOLDEN_QUERY, "close");
    // Dribble the request in 7-byte chunks with flushes between them;
    // the parser must assemble it across reads.
    for chunk in raw.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"region\""), "{body}");
}

#[test]
fn idle_connections_are_disconnected_after_the_timeout() {
    let addr = boot(|s| s.with_idle_timeout(Duration::from_millis(200)));
    let mut stream = TcpStream::connect(addr).unwrap();
    // First request answered normally over keep-alive...
    stream
        .write_all(place_request(GOLDEN_QUERY, "keep-alive").as_bytes())
        .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    // ...then we go quiet; the server must hang up, not wedge a worker.
    let started = Instant::now();
    let mut rest = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_end(&mut rest).expect("server-side close");
    assert!(rest.is_empty(), "no bytes expected after idle close");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "disconnect must come from the idle timeout, not our read timeout"
    );
}

#[test]
fn the_request_bound_rotates_connections_mid_stream() {
    let addr = boot(|s| s.with_max_requests_per_connection(3));
    let mut stream = TcpStream::connect(addr).unwrap();
    for i in 0..3 {
        stream
            .write_all(place_request(GOLDEN_QUERY, "keep-alive").as_bytes())
            .unwrap();
        let (status, _) = read_response(&mut stream);
        assert_eq!(status, 200, "request {i}");
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close at the bound");
}

#[test]
fn oversized_batches_get_the_documented_error_code() {
    let addr = boot(|s| s);
    let job = r#"{"origin":"DE","duration_hours":1}"#;
    let body = format!(
        "[{}]",
        std::iter::repeat_n(job, 1001).collect::<Vec<_>>().join(",")
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(place_request(&body, "close").as_bytes())
        .unwrap();
    let (status, text) = read_response(&mut stream);
    assert_eq!(status, 413, "{text}");
    assert!(text.contains("\"batch-too-large\""), "{text}");
}

#[test]
fn placement_answers_match_the_checked_in_golden_over_keep_alive() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/serve_place.json"),
    )
    .expect("golden file");
    let addr = boot(|s| s);
    // Twice over one kept-alive connection, once over close-per-request:
    // all three answers must be byte-identical to the golden.
    let mut stream = TcpStream::connect(addr).unwrap();
    for _ in 0..2 {
        stream
            .write_all(place_request(GOLDEN_QUERY, "keep-alive").as_bytes())
            .unwrap();
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(body, golden, "keep-alive answer drifted from golden");
    }
    drop(stream);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(place_request(GOLDEN_QUERY, "close").as_bytes())
        .unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(body, golden, "close-per-request answer drifted from golden");
}

/// A week of slack and a 500 ms SLO from a fossil origin: nearly every
/// region clears the SLO, and all but one or two are skipped by their
/// floor before any window scan; `tests/golden/serve_place_week.json`
/// pins the answer the exhaustive scan gave.
const WEEK_QUERY: &str =
    r#"{"origin":"PL","duration_hours":6,"slack_hours":168,"slo_ms":500,"arrival_hour":19704}"#;

#[test]
fn week_slack_answer_matches_the_checked_in_golden() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/serve_place_week.json"),
    )
    .expect("golden file");
    let addr = boot(|s| s);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(place_request(WEEK_QUERY, "close").as_bytes())
        .unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(body, golden, "week-slack answer drifted from golden");
}

#[test]
fn batch_answers_equal_sequential_singles_over_the_wire() {
    let addr = boot(|s| s);
    let jobs = [
        r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#,
        r#"{"origin":"DE","duration_hours":2,"slack_hours":6,"slo_ms":100,"arrival_hour":19704}"#,
        r#"{"origin":"SE","duration_hours":1,"arrival_hour":19800}"#,
    ];
    let mut singles = Vec::new();
    let mut stream = TcpStream::connect(addr).unwrap();
    for job in jobs {
        stream
            .write_all(place_request(job, "keep-alive").as_bytes())
            .unwrap();
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        singles.push(decarb_json::parse(&body).unwrap());
    }
    let batch_body = format!("[{}]", jobs.join(","));
    stream
        .write_all(place_request(&batch_body, "close").as_bytes())
        .unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    let batch = decarb_json::parse(&body).unwrap();
    let decarb_json::Value::Array(results) = batch.get("results").unwrap().clone() else {
        panic!("results must be an array")
    };
    assert_eq!(results.len(), singles.len());
    for (slot, single) in results.iter().zip(&singles) {
        assert_eq!(slot, single, "batch slot must equal its single call");
    }
}
