//! The `Value` path `/v1/place` answered through before the pull
//! decoder and the direct writer: parse the whole body into a `Value`
//! tree, validate its fields, build the answer as a `Value` and render
//! it pretty. The tests below hold the service's answers to it, status
//! and body byte for byte, on seeded, mutated and adversarial bodies.

use super::*;
use decarb_traces::time::year_start;

/// Answers one `POST /v1/place` the way the `Value` path did.
fn handle_place(svc: &PlacementService, req: &Request) -> (u16, String) {
    match place(svc, req) {
        Ok(value) => (200, value.pretty()),
        Err(e) => (e.status, body(&e).pretty()),
    }
}

/// The documented error envelope as a `Value`.
fn body(e: &ApiError) -> Value {
    Value::object([(
        "error",
        Value::object([
            ("code", Value::from(e.code)),
            ("message", Value::from(e.message.as_str())),
        ]),
    )])
}

fn place(svc: &PlacementService, req: &Request) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(req.body())
        .map_err(|_| ApiError::bad_request("bad-body", "request body is not valid UTF-8"))?;
    let body = decarb_json::parse(text)
        .map_err(|e| ApiError::bad_request("bad-json", format!("body is not JSON: {e}")))?;
    let snap = svc.snapshot();
    match &body {
        // An array of job objects is a batch; a single object keeps
        // the original one-job contract bit for bit.
        Value::Array(jobs) => place_many(&snap, jobs),
        _ => {
            let (query, origin_code) = parse_place_job(&snap, &body)?;
            let decision = snap.place(&query)?;
            Ok(render_place_decision(&snap, origin_code, &query, &decision))
        }
    }
}

/// Answers a batch of placement jobs: every job gets a result slot
/// in input order (a decision object, or the documented error
/// envelope for that job alone), plus an aggregate summary.
///
/// Valid jobs are evaluated in input order through
/// [`Snapshot::place_batch`], so the answers are bit-identical to
/// N sequential single-job calls.
fn place_many(snap: &Snapshot, jobs: &[Value]) -> Result<Value, ApiError> {
    if jobs.is_empty() {
        return Err(ApiError::bad_request(
            "empty-batch",
            "batch must contain at least one job",
        ));
    }
    if jobs.len() > MAX_BATCH_JOBS {
        return Err(ApiError::new(
            413,
            "batch-too-large",
            format!(
                "batch of {} jobs exceeds the {MAX_BATCH_JOBS}-job limit",
                jobs.len()
            ),
        ));
    }
    let parsed: Vec<Result<(PlaceRequest, &str), ApiError>> =
        jobs.iter().map(|job| parse_place_job(snap, job)).collect();
    // Only well-formed jobs reach the planner — exactly the calls
    // N sequential single-job requests would have made.
    let queries: Vec<PlaceRequest> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok().map(|(query, _)| *query))
        .collect();
    let mut decisions = snap.place_batch(&queries).into_iter();
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut total_saved_g = 0.0;
    let results: Vec<Value> = parsed
        .into_iter()
        .map(|slot| match slot {
            Ok((query, origin_code)) => match decisions.next().expect("one decision per job") {
                Ok(decision) => {
                    ok += 1;
                    total_saved_g += decision.saved_g;
                    render_place_decision(snap, origin_code, &query, &decision)
                }
                Err(e) => {
                    failed += 1;
                    body(&ApiError::from(e))
                }
            },
            Err(e) => {
                failed += 1;
                body(&e)
            }
        })
        .collect();
    Ok(Value::object([
        ("count", Value::from(results.len() as f64)),
        ("results", Value::Array(results)),
        (
            "summary",
            Value::object([
                ("ok", Value::from(ok as f64)),
                ("failed", Value::from(failed as f64)),
                ("total_saved_g", Value::from(total_saved_g)),
                ("generation", Value::from(snap.generation() as f64)),
            ]),
        ),
    ]))
}

/// Validates one job object into a [`PlaceRequest`], returning the
/// origin zone code alongside for the response echo. Shared by the
/// single-job and batch paths so both reject with identical codes.
fn parse_place_job<'a>(
    snap: &Snapshot,
    body: &'a Value,
) -> Result<(PlaceRequest, &'a str), ApiError> {
    if !matches!(body, Value::Object(_)) {
        return Err(ApiError::bad_request(
            "bad-parameter",
            "each job must be a JSON object",
        ));
    }
    let origin_code = match body.get("origin") {
        Some(Value::String(code)) => code.as_str(),
        Some(_) => {
            return Err(ApiError::bad_request(
                "bad-parameter",
                "origin must be a zone-code string",
            ))
        }
        None => {
            return Err(ApiError::bad_request(
                "missing-parameter",
                "origin is required",
            ))
        }
    };
    let origin = snap.traces().id_of(origin_code).map_err(|_| {
        ApiError::new(
            404,
            "unknown-region",
            format!("no trace for origin `{origin_code}`"),
        )
    })?;
    let duration_hours = require_whole(body, "duration_hours")?;
    let slack_hours = optional_whole(body, "slack_hours", 0)?;
    let slo_ms = match body.get("slo_ms") {
        None => 0.0,
        Some(Value::Number(n)) if *n >= 0.0 && n.is_finite() => *n,
        Some(_) => {
            return Err(ApiError::bad_request(
                "bad-parameter",
                "slo_ms must be a finite non-negative number",
            ))
        }
    };
    let origin_start = snap.traces().series_by_id(origin).start();
    let arrival = Hour(optional_whole(body, "arrival_hour", u64::from(origin_start.0))? as u32);
    Ok((
        PlaceRequest {
            origin,
            arrival,
            duration_hours: duration_hours as usize,
            slack_hours: slack_hours as usize,
            slo_ms,
        },
        origin_code,
    ))
}

/// Renders one placement decision as the documented response object —
/// the same shape whether it answers a single call or fills one batch
/// result slot.
fn render_place_decision(
    snap: &Snapshot,
    origin_code: &str,
    query: &PlaceRequest,
    decision: &PlaceDecision,
) -> Value {
    let saved_pct = if decision.naive_g > 0.0 {
        decision.saved_g / decision.naive_g * 100.0
    } else {
        0.0
    };
    Value::object([
        ("origin", Value::from(origin_code)),
        ("arrival_hour", Value::from(f64::from(query.arrival.0))),
        ("duration_hours", Value::from(query.duration_hours as f64)),
        ("slack_hours", Value::from(query.slack_hours as f64)),
        ("slo_ms", Value::from(query.slo_ms)),
        ("region", Value::from(snap.traces().code(decision.region))),
        ("start_hour", Value::from(f64::from(decision.start.0))),
        (
            "wait_hours",
            Value::from(f64::from(decision.start.0 - query.arrival.0)),
        ),
        ("cost_g", Value::from(decision.cost_g)),
        ("naive_g", Value::from(decision.naive_g)),
        ("saved_g", Value::from(decision.saved_g)),
        ("saved_pct", Value::from(saved_pct)),
        ("rtt_ms", Value::from(decision.rtt_ms)),
        ("generation", Value::from(snap.generation() as f64)),
    ])
}

/// Extracts a required non-negative whole number from a JSON body.
fn require_whole(body: &Value, key: &str) -> Result<u64, ApiError> {
    match body.get(key) {
        None => Err(ApiError::bad_request(
            "missing-parameter",
            format!("{key} is required"),
        )),
        Some(value) => whole(value, key),
    }
}

/// Extracts an optional non-negative whole number with a default.
fn optional_whole(body: &Value, key: &str, default: u64) -> Result<u64, ApiError> {
    match body.get(key) {
        None => Ok(default),
        Some(value) => whole(value, key),
    }
}

fn whole(value: &Value, key: &str) -> Result<u64, ApiError> {
    match value {
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => Ok(*n as u64),
        _ => Err(ApiError::bad_request(
            "bad-parameter",
            format!("{key} must be a non-negative whole number"),
        )),
    }
}

/// A small deterministic generator for the differential tests.
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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

fn post(body: &[u8]) -> Request {
    Request::synthetic("POST", "/v1/place", &[], body)
}

/// Answers `body` on both paths and requires the same status and the
/// same body bytes; returns the status.
fn assert_same(svc: &PlacementService, body: &[u8]) -> u16 {
    let req = post(body);
    let (status, text) = svc.handle(&req);
    let (want_status, want) = handle_place(svc, &req);
    assert_eq!(
        (status, text.as_str()),
        (want_status, want.as_str()),
        "body {:?}",
        String::from_utf8_lossy(body)
    );
    status
}

/// The code of the error envelope in `text`, if it is one.
fn error_code(text: &str) -> Option<String> {
    match decarb_json::parse(text).ok()?.get("error")?.get("code")? {
        Value::String(code) => Some(code.clone()),
        _ => None,
    }
}

const ORIGINS: &[&str] = &[
    "PL", "DE", "SE", "FR", "US-CA", "IN-WE", "NOPE", "P\\u004c", "", "\\u0053E",
];
const DURATIONS: &[&str] = &[
    "1", "2", "6", "12", "0", "6.0", "6e0", "-0", "1e400", "-2", "1.5", "\"6\"", "null", "9999999",
];
const SLACKS: &[&str] = &["0", "6", "24", "168", "24.0", "-0", "1e400", "true", "-1"];
const SLOS: &[&str] = &[
    "0", "50", "150", "500", "1000", "1e9", "150.5", "-0", "1e400", "-1", "\"fast\"", "[]",
];
const UNKNOWN: &[&str] = &[
    r#""x":{"origin":"FR","y":[1,{"z":null}]}"#,
    r#""note":"fast \"please\"""#,
    r#""tags":[]"#,
    r#""orig":"DE""#,
];

/// A seeded job object: fields in any order, some missing, some of
/// the wrong type, with duplicates, unknown keys and random spacing.
fn job(rng: &mut XorShift) -> String {
    let arrival = year_start(2022).0 as usize + rng.below(8000);
    let mut fields = Vec::new();
    if rng.below(12) > 0 {
        let key = rng.pick(&["origin", "origin", "orig\\u0069n"]);
        fields.push(format!(r#""{key}":"{}""#, rng.pick(ORIGINS)));
    }
    if rng.below(12) > 0 {
        fields.push(format!(r#""duration_hours":{}"#, rng.pick(DURATIONS)));
    }
    if rng.below(3) > 0 {
        fields.push(format!(r#""slack_hours":{}"#, rng.pick(SLACKS)));
    }
    if rng.below(3) > 0 {
        fields.push(format!(r#""slo_ms":{}"#, rng.pick(SLOS)));
    }
    if rng.below(3) > 0 {
        let value = match rng.below(6) {
            0 => "4000000000".to_string(),
            1 => format!("{arrival}.0"),
            2 => "\"now\"".to_string(),
            _ => arrival.to_string(),
        };
        fields.push(format!(r#""arrival_hour":{value}"#));
    }
    if rng.below(4) == 0 {
        fields.push(rng.pick(UNKNOWN).to_string());
    }
    if !fields.is_empty() && rng.below(4) == 0 {
        // A duplicate of a field already there, before or after it.
        let dup = fields[rng.below(fields.len())].clone();
        let (key, _) = dup.split_once(':').unwrap();
        let at = rng.below(fields.len() + 1);
        fields.insert(at, format!("{key}:{}", rng.pick(DURATIONS)));
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.below(i + 1));
    }
    let sep = rng.pick(&[",", ", ", " ,\n  "]);
    format!("{{{}}}", fields.join(sep))
}

/// A seeded body: mostly one job, sometimes a small batch, now and
/// then a value that is not a job at all.
fn seeded_body(rng: &mut XorShift) -> String {
    match rng.below(10) {
        0..=5 => job(rng),
        6..=8 => {
            let jobs: Vec<String> = (0..1 + rng.below(5))
                .map(|_| match rng.below(8) {
                    0 => rng.pick(&["7", "\"PL\"", "null", "[]", "{}"]).to_string(),
                    _ => job(rng),
                })
                .collect();
            format!("[{}]", jobs.join(","))
        }
        _ => rng
            .pick(&["7", "\"PL\"", "null", "true", "[]", " [ ] ", "{}", "-0"])
            .to_string(),
    }
}

/// Bit flips, truncations, splices of another body, and deletions.
fn mutate(rng: &mut XorShift, body: &[u8], other: &[u8]) -> Vec<u8> {
    let mut bytes = body.to_vec();
    for _ in 0..1 + rng.below(2) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 => {
                let from = rng.below(other.len().max(1));
                let len = rng.below(other.len() - from + 1);
                bytes.splice(at..at, other[from..from + len].iter().copied());
            }
            _ => {
                bytes.remove(at);
            }
        }
    }
    bytes
}

#[test]
fn seeded_and_mutated_bodies_answer_as_the_value_path_did() {
    let svc = PlacementService::new(decarb_traces::builtin_dataset());
    let mut rng = XorShift(0x5EED_0FB0_D1E5);
    let bodies: Vec<String> = (0..1500).map(|_| seeded_body(&mut rng)).collect();
    let mut statuses = std::collections::BTreeMap::new();
    for text in &bodies {
        *statuses
            .entry(assert_same(&svc, text.as_bytes()))
            .or_insert(0) += 1;
    }
    for i in 0..3000 {
        let other = bodies[rng.below(bodies.len())].as_bytes();
        let mutated = mutate(&mut rng, bodies[i % bodies.len()].as_bytes(), other);
        *statuses.entry(assert_same(&svc, &mutated)).or_insert(0) += 1;
    }
    // Both paths were driven through answers and through every kind of
    // rejection, not just one of them.
    for status in [200, 400, 404, 422] {
        assert!(
            statuses.get(&status).copied().unwrap_or(0) > 50,
            "{statuses:?}"
        );
    }
}

#[test]
fn key_order_duplicates_and_unknown_keys_do_not_change_the_answer() {
    let svc = PlacementService::new(decarb_traces::builtin_dataset());
    let golden = include_str!("../../../../tests/golden/serve_place.json");
    for text in [
        r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#,
        r#"{"arrival_hour":19704,"slo_ms":1000,"slack_hours":24,"duration_hours":6,"origin":"PL"}"#,
        r#"{"slo_ms":1000,"origin":"PL","origin":"DE","x":{"origin":"FR","y":[1,{"z":null}]},"arrival_hour":19704,"slack_hours":24,"duration_hours":6,"duration_hours":1}"#,
        r#"{"origin":"PL","duration_hours":6e0,"slack_hours":24.0,"slo_ms":1e3,"arrival_hour":19704}"#,
        " {\n \"origin\" : \"PL\" ,\"duration_hours\":6,\"slack_hours\":24,\"slo_ms\":1000,\"arrival_hour\":19704 } \n",
    ] {
        assert_eq!(assert_same(&svc, text.as_bytes()), 200, "{text}");
        assert_eq!(svc.handle(&post(text.as_bytes())).1, golden, "{text}");
    }
    let batch = include_str!("../../../../tests/golden/serve_batch.json");
    let text = r#"[{"slack_hours":24,"origin":"PL","extra":[[],{}],"duration_hours":6,"slo_ms":1000,"arrival_hour":19704},{"origin":"DE","duration_hours":2,"slack_hours":6,"slo_ms":100,"arrival_hour":19704,"origin":"PL"}]"#;
    assert_eq!(assert_same(&svc, text.as_bytes()), 200);
    assert_eq!(svc.handle(&post(text.as_bytes())).1, batch);
}

#[test]
fn number_spellings_answer_as_the_value_path_did() {
    let svc = PlacementService::new(decarb_traces::builtin_dataset());
    for field in ["duration_hours", "slack_hours", "slo_ms", "arrival_hour"] {
        for value in ["6.0", "6e0", "-0", "1e400", "-1e400", "0.0", "1E1", "19704"] {
            let mut text = r#"{"origin":"DE","duration_hours":2,"slack_hours":6,"slo_ms":100,"arrival_hour":19704}"#.to_string();
            text = text.replacen(
                &format!(r#""{field}":"#),
                &format!(r#""{field}":{value},"_":"#),
                1,
            );
            assert_same(&svc, text.as_bytes());
            assert_same(&svc, format!("[{text},{text}]").as_bytes());
        }
    }
    // `-0` echoes as `0`, and an infinite SLO is a bad parameter.
    let (status, text) = svc.handle(&post(br#"{"origin":"DE","duration_hours":2,"slo_ms":-0}"#));
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"slo_ms\": 0,"), "{text}");
    let (status, text) = svc.handle(&post(
        br#"{"origin":"DE","duration_hours":2,"slo_ms":1e400}"#,
    ));
    assert_eq!(
        (status, error_code(&text).as_deref()),
        (400, Some("bad-parameter"))
    );
}

#[test]
fn every_error_envelope_answers_as_the_value_path_did() {
    let svc = PlacementService::new(decarb_traces::builtin_dataset());
    let deep = "[".repeat(300) + &"]".repeat(300);
    let too_many = format!(
        "[{}]",
        vec![r#"{"origin":"DE","duration_hours":1}"#; MAX_BATCH_JOBS + 1].join(",")
    );
    let cases: Vec<(&[u8], u16, &str)> = vec![
        (b"{\"origin\":\"\xff\"}", 400, "bad-body"),
        (b"", 400, "bad-json"),
        (b"{", 400, "bad-json"),
        (br#"{"origin":"PL",}"#, 400, "bad-json"),
        (br#"{"origin":"PL","duration_hours":1} x"#, 400, "bad-json"),
        (br#"{"origin":7,"x":[tru]}"#, 400, "bad-json"),
        (
            br#"[{"origin":"PL","duration_hours":1},{"origin":"PL" "x":1}]"#,
            400,
            "bad-json",
        ),
        (br#"{"origin":"P\q"}"#, 400, "bad-json"),
        (deep.as_bytes(), 400, "bad-json"),
        (b"[]", 400, "empty-batch"),
        (b" [ \n ] ", 400, "empty-batch"),
        (too_many.as_bytes(), 413, "batch-too-large"),
        (b"7", 400, "bad-parameter"),
        (b"\"PL\"", 400, "bad-parameter"),
        (b"{}", 400, "missing-parameter"),
        (br#"{"origin":7,"duration_hours":1}"#, 400, "bad-parameter"),
        (
            br#"{"origin":null,"duration_hours":1}"#,
            400,
            "bad-parameter",
        ),
        (
            br#"{"origin":"NOPE","duration_hours":1}"#,
            404,
            "unknown-region",
        ),
        (
            br#"{"origin":"N\"OPE","duration_hours":1}"#,
            404,
            "unknown-region",
        ),
        (br#"{"origin":"DE"}"#, 400, "missing-parameter"),
        (
            br#"{"origin":"DE","duration_hours":-2}"#,
            400,
            "bad-parameter",
        ),
        (
            br#"{"origin":"DE","duration_hours":1.5}"#,
            400,
            "bad-parameter",
        ),
        (
            br#"{"origin":"DE","duration_hours":1,"slack_hours":{}}"#,
            400,
            "bad-parameter",
        ),
        (
            br#"{"origin":"DE","duration_hours":1,"slo_ms":"fast"}"#,
            400,
            "bad-parameter",
        ),
        (
            br#"{"origin":"DE","duration_hours":1,"arrival_hour":-1}"#,
            400,
            "bad-parameter",
        ),
        (
            br#"{"origin":"DE","duration_hours":0}"#,
            422,
            "zero-duration",
        ),
        (
            br#"{"origin":"DE","duration_hours":9999999}"#,
            422,
            "beyond-trace-end",
        ),
        (
            br#"{"origin":"DE","duration_hours":1,"arrival_hour":4000000000}"#,
            422,
            "beyond-trace-end",
        ),
    ];
    for (text, status, code) in cases {
        assert_eq!(
            assert_same(&svc, text),
            status,
            "{}",
            String::from_utf8_lossy(text)
        );
        let (_, answer) = svc.handle(&post(text));
        assert_eq!(error_code(&answer).as_deref(), Some(code), "{answer}");
    }
    // The parser's own offset and message reach the client unchanged.
    let (_, answer) = svc.handle(&post(br#"{"origin":"PL","duration_hours":1,"x":[1,]}"#));
    assert!(
        answer.contains("body is not JSON: invalid JSON at byte 41: unexpected byte `]`"),
        "{answer}"
    );
    // One bad job fills its own slot in a batch, whatever its error.
    let slots = br#"[{"origin":"DE","duration_hours":2},{"origin":"NOPE","duration_hours":1},
        {"origin":"DE","duration_hours":0},7,{"origin":"DE"},{"origin":"DE","duration_hours":3}]"#;
    assert_eq!(assert_same(&svc, slots), 200);
}
