//! The `/v1` JSON API: request routing, parameter validation, and the
//! shared service state.
//!
//! A [`PlacementService`] owns the current [`Snapshot`] behind an
//! atomically swapped `Arc`: readers take the read side of an
//! uncontended `RwLock` for two atomic ops to clone the `Arc`, then
//! answer entirely from their private snapshot — `POST /v1/reload`
//! builds the *next* snapshot outside any lock and swaps the pointer,
//! so in-flight queries keep their old dataset and new queries see the
//! new one, with no reader ever blocking on the rebuild.
//!
//! Every validation failure maps to a typed [`ApiError`] (HTTP 4xx
//! with a machine-readable `code`), mirroring how
//! [`decarb_sim::PlaceError`] pre-validates the planner's panicking
//! preconditions. The error body shape is documented in `docs/API.md`.

use std::borrow::Cow;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use decarb_forecast::{visible_history, Forecaster, Persistence, SeasonalNaive, HISTORY_HOURS};
use decarb_json::{
    write_number, write_string, JsonParseError, JsonStr, Reader, SeqWriter, Token, Value,
};
use decarb_sim::{PlaceDecision, PlaceError, PlaceRequest, Snapshot};
use decarb_traces::time::{EPOCH_YEAR, LAST_YEAR};
use decarb_traces::{Hour, TraceSet};

use crate::http::{HttpError, Request};
use crate::metrics::{Endpoint, Metrics};

#[cfg(test)]
mod oracle;

/// Longest forecast horizon served, hours (two weeks).
pub const MAX_FORECAST_HOURS: usize = 336;
/// Most jobs accepted in one batch `POST /v1/place` call; larger
/// arrays are rejected with `batch-too-large` (HTTP 413).
pub const MAX_BATCH_JOBS: usize = 1000;

/// A rejected API call: an HTTP status plus a machine-readable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (4xx/5xx).
    pub status: u16,
    /// Stable error code, e.g. `unknown-region`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
        }
    }

    fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(400, code, message)
    }

    /// Writes the documented error envelope as the object at `indent`
    /// (`Some(0)` for a whole pretty response body).
    pub fn write_body(&self, out: &mut String, indent: Option<usize>) {
        let mut body = SeqWriter::object(out, indent);
        let inner = body.key(out, "error");
        let mut error = SeqWriter::object(out, inner);
        error.key(out, "code");
        write_string(out, self.code);
        error.key(out, "message");
        write_string(out, &self.message);
        error.end(out);
        body.end(out);
    }

    fn bad_json(e: JsonParseError) -> Self {
        Self::bad_request("bad-json", format!("body is not JSON: {e}"))
    }
}

impl From<PlaceError> for ApiError {
    fn from(e: PlaceError) -> Self {
        let code = match e {
            PlaceError::ZeroDuration => "zero-duration",
            PlaceError::BeforeTraceStart(_) => "before-trace-start",
            PlaceError::BeyondTraceEnd(_) => "beyond-trace-end",
        };
        ApiError::new(422, code, e.to_string())
    }
}

impl From<&HttpError> for ApiError {
    fn from(e: &HttpError) -> Self {
        ApiError::new(e.status(), e.code(), e.to_string())
    }
}

/// Reloads the dataset on `POST /v1/reload`; returns a fresh
/// `TraceSet` or a message for the 503 body.
pub type Loader = Box<dyn Fn() -> Result<Arc<TraceSet>, String> + Send + Sync>;

/// The shared state behind every worker thread: the swappable
/// snapshot, the reload hook, and the service counters.
pub struct PlacementService {
    snapshot: RwLock<Arc<Snapshot>>,
    loader: Option<Loader>,
    metrics: Metrics,
}

impl PlacementService {
    /// Creates the service over `traces` with no reload hook
    /// (`POST /v1/reload` answers 503) and no admission limit.
    pub fn new(traces: Arc<TraceSet>) -> Self {
        Self::with_capacity(traces, None)
    }

    /// Creates the service with a same-hour admission limit per region
    /// (the `serve --capacity-per-hour` flag; `None` = unlimited);
    /// reloads keep the limit.
    pub fn with_capacity(
        traces: Arc<TraceSet>,
        capacity_per_hour: impl Into<Option<usize>>,
    ) -> Self {
        Self {
            snapshot: RwLock::new(Arc::new(
                Snapshot::build(traces, 1).with_capacity_per_hour(capacity_per_hour),
            )),
            loader: None,
            metrics: Metrics::new(),
        }
    }

    /// Installs the reload hook.
    pub fn with_loader(mut self, loader: Loader) -> Self {
        self.loader = Some(loader);
        self
    }

    /// The current snapshot (two atomic ops; never blocks on reload).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Rebuilds the snapshot from the loader and swaps it in.
    fn reload(&self) -> Result<Arc<Snapshot>, ApiError> {
        let Some(loader) = &self.loader else {
            return Err(ApiError::new(
                503,
                "reload-unavailable",
                "service was started without a reloadable data source",
            ));
        };
        let traces = loader().map_err(|message| ApiError::new(503, "reload-failed", message))?;
        // Build outside the lock: readers keep serving the old
        // snapshot for the entire rebuild, which keeps its limit.
        let current = self.snapshot();
        let next = Arc::new(
            Snapshot::build(traces, current.generation() + 1)
                .with_capacity_per_hour(current.capacity_per_hour()),
        );
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = Arc::clone(&next);
        Ok(next)
    }

    /// Answers one parsed request: routes, validates, and serializes
    /// into the caller-owned `out` buffer (cleared first), recording
    /// metrics. Returns the HTTP status. The connection loop hands the
    /// same buffer in for every request, so steady-state serialization
    /// reuses its allocation.
    pub fn handle_into(&self, req: &Request, out: &mut String) -> u16 {
        out.clear();
        let endpoint = Endpoint::of(req.path());
        let started = Instant::now();
        let answered = match (endpoint, req.method()) {
            (Endpoint::Place, "POST") => self.place_into(req, out),
            _ => self
                .dispatch(endpoint, req)
                .map(|value| value.pretty_into(out)),
        };
        let status = match answered {
            Ok(()) => 200,
            Err(e) => {
                out.clear();
                e.write_body(out, Some(0));
                e.status
            }
        };
        if endpoint == Endpoint::Place {
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            self.metrics.observe_place_us(us);
        }
        self.metrics.record(endpoint, status);
        status
    }

    /// Answers one parsed request, allocating the body text.
    /// Convenience wrapper over [`PlacementService::handle_into`] for
    /// tests and one-shot embedders.
    pub fn handle(&self, req: &Request) -> (u16, String) {
        let mut body = String::new();
        let status = self.handle_into(req, &mut body);
        (status, body)
    }

    /// Answers an unreadable request (parse failure) with its 4xx.
    pub fn handle_http_error(&self, e: &HttpError) -> (u16, String) {
        let api: ApiError = e.into();
        self.metrics.record(Endpoint::Other, api.status);
        let mut body = String::new();
        api.write_body(&mut body, Some(0));
        (api.status, body)
    }

    fn dispatch(&self, endpoint: Endpoint, req: &Request) -> Result<Value, ApiError> {
        let method = req.method();
        match (endpoint, method) {
            (Endpoint::Healthz, "GET") => Ok(self.healthz()),
            (Endpoint::Regions, "GET") => Ok(self.regions()),
            (Endpoint::Rankings, "GET") => self.rankings(req),
            (Endpoint::Forecast, "GET") => self.forecast(req),
            (Endpoint::Metrics, "GET") => Ok(self.metrics_payload()),
            (Endpoint::Reload, "POST") => {
                let snap = self.reload()?;
                Ok(Value::object([
                    ("generation", Value::from(snap.generation() as f64)),
                    ("regions", Value::from(snap.traces().len() as f64)),
                ]))
            }
            (Endpoint::Other, _) => Err(ApiError::new(
                404,
                "not-found",
                format!("no such endpoint: {}", req.path()),
            )),
            (_, _) => Err(ApiError::new(
                405,
                "method-not-allowed",
                format!("{method} is not supported on {}", req.path()),
            )),
        }
    }

    fn metrics_payload(&self) -> Value {
        let snap = self.snapshot();
        let Value::Object(mut fields) = self.metrics.to_json() else {
            return Value::Null;
        };
        fields.insert(
            0,
            (
                "regions".to_string(),
                Value::from(snap.traces().len() as f64),
            ),
        );
        fields.insert(
            0,
            (
                "generation".to_string(),
                Value::from(snap.generation() as f64),
            ),
        );
        Value::Object(fields)
    }

    fn healthz(&self) -> Value {
        let snap = self.snapshot();
        let hours = snap
            .deployed()
            .first()
            .map(|&id| snap.traces().series_by_id(id).len())
            .unwrap_or(0);
        Value::object([
            ("status", Value::from("ok")),
            ("regions", Value::from(snap.traces().len() as f64)),
            ("trace_hours", Value::from(hours as f64)),
            ("generation", Value::from(snap.generation() as f64)),
        ])
    }

    fn regions(&self) -> Value {
        let snap = self.snapshot();
        let rows: Vec<Value> = snap
            .traces()
            .regions()
            .iter()
            .map(|r| {
                Value::object([
                    ("zone", Value::from(r.code.as_str())),
                    ("name", Value::from(r.name.as_str())),
                    ("group", Value::from(r.group.label())),
                    ("lat", Value::from(r.lat)),
                    ("lon", Value::from(r.lon)),
                    ("datacenter", Value::Bool(r.has_datacenter())),
                ])
            })
            .collect();
        Value::object([
            ("count", Value::from(rows.len() as f64)),
            ("regions", Value::Array(rows)),
        ])
    }

    fn rankings(&self, req: &Request) -> Result<Value, ApiError> {
        let year = parse_query(req, "year", 2022i64)? as i32;
        if !(EPOCH_YEAR..=LAST_YEAR).contains(&year) {
            return Err(ApiError::bad_request(
                "year-out-of-horizon",
                format!("year must lie in {EPOCH_YEAR}..={LAST_YEAR}, got {year}"),
            ));
        }
        let limit = parse_query(req, "limit", 0i64)?;
        if limit < 0 {
            return Err(ApiError::bad_request(
                "bad-parameter",
                "limit must be non-negative",
            ));
        }
        let snap = self.snapshot();
        let mut rows = snap.rankings(year);
        if limit > 0 {
            rows.truncate(limit as usize);
        }
        let rows: Vec<Value> = rows
            .iter()
            .enumerate()
            .map(|(i, (region, mean))| {
                Value::object([
                    ("rank", Value::from((i + 1) as f64)),
                    ("zone", Value::from(region.code.as_str())),
                    ("name", Value::from(region.name.as_str())),
                    ("mean_ci_g_per_kwh", Value::from(*mean)),
                ])
            })
            .collect();
        Ok(Value::object([
            ("year", Value::from(f64::from(year))),
            ("count", Value::from(rows.len() as f64)),
            ("rankings", Value::Array(rows)),
        ]))
    }

    fn forecast(&self, req: &Request) -> Result<Value, ApiError> {
        let zone = req.path().strip_prefix("/v1/forecast/").unwrap_or_default();
        if zone.is_empty() {
            return Err(ApiError::bad_request(
                "missing-zone",
                "usage: /v1/forecast/{zone}",
            ));
        }
        let snap = self.snapshot();
        let id = snap.traces().id_of(zone).map_err(|_| {
            ApiError::new(404, "unknown-region", format!("no trace for zone `{zone}`"))
        })?;
        let hours = parse_query(req, "hours", 48i64)?;
        if !(1..=MAX_FORECAST_HOURS as i64).contains(&hours) {
            return Err(ApiError::bad_request(
                "bad-parameter",
                format!("hours must lie in 1..={MAX_FORECAST_HOURS}"),
            ));
        }
        let model = req.query("model").unwrap_or("seasonal");
        // `hours` is wall-clock; on a sub-hourly dataset the forecast
        // covers the same span with proportionally more samples, and
        // `start_hour` is an index on that finer slot axis.
        let resolution = snap.traces().resolution();
        let sph = resolution.slots_per_hour();
        let series = snap.traces().series_by_id(id);
        let history =
            visible_history(series, series.end(), HISTORY_HOURS * sph).ok_or_else(|| {
                ApiError::new(
                    422,
                    "no-history",
                    format!("zone `{zone}` has no stored samples to forecast from"),
                )
            })?;
        let horizon = hours as usize * sph;
        let predicted = match model {
            "seasonal" => SeasonalNaive::daily_at(resolution).predict_series(&history, horizon),
            "persistence" => Persistence.predict_series(&history, horizon),
            other => {
                return Err(ApiError::bad_request(
                    "unknown-model",
                    format!("unknown model `{other}`; expected seasonal|persistence"),
                ))
            }
        };
        Ok(Value::object([
            ("zone", Value::from(zone)),
            ("model", Value::from(model)),
            ("start_hour", Value::from(f64::from(predicted.start().0))),
            ("hours", Value::from(hours as f64)),
            (
                "resolution_minutes",
                Value::from(f64::from(resolution.minutes())),
            ),
            ("samples", Value::from(predicted.len() as f64)),
            (
                "values_g_per_kwh",
                Value::array(predicted.values().iter().map(|&v| Value::from(v))),
            ),
        ]))
    }

    /// Answers `POST /v1/place` straight into `out`: the body is read
    /// with a pull reader into borrowed fields and the answer written
    /// with `decarb_json`'s writers, so a well-formed request allocates
    /// nothing. The whole body must be valid JSON before any field is
    /// judged, so a syntax error anywhere answers `bad-json`.
    fn place_into(&self, req: &Request, out: &mut String) -> Result<(), ApiError> {
        let text = std::str::from_utf8(req.body())
            .map_err(|_| ApiError::bad_request("bad-body", "request body is not valid UTF-8"))?;
        let mut reader = Reader::new(text);
        let token = reader.value().map_err(ApiError::bad_json)?;
        let snap = self.snapshot();
        // An array of job objects is a batch; a single object keeps
        // the original one-job contract bit for bit.
        if token == Token::Array {
            return self.place_many_into(&snap, reader, out);
        }
        let job = decode_job(&mut reader, token)
            .and_then(|job| reader.finish().map(|()| job))
            .map_err(ApiError::bad_json)?;
        let (query, origin) = job_request(&snap, job)?;
        let decision = snap.place(&query)?;
        write_decision(out, Some(0), &snap, &origin, &query, &decision);
        Ok(())
    }

    /// Answers a batch of placement jobs: every job gets a result slot
    /// in input order (a decision object, or the documented error
    /// envelope for that job alone), plus an aggregate summary.
    ///
    /// A first pass validates the whole body and counts its jobs
    /// without building them; the second decodes, places and writes
    /// one job at a time. Valid jobs are placed in input order, so the
    /// answers are bit-identical to N sequential single-job calls.
    fn place_many_into(
        &self,
        snap: &Snapshot,
        mut reader: Reader<'_>,
        out: &mut String,
    ) -> Result<(), ApiError> {
        // The first pass picks up inside the array the caller opened;
        // the second starts over from the copy taken here.
        let mut second = reader.clone();
        let jobs = count_jobs(&mut reader).map_err(ApiError::bad_json)?;
        if jobs == 0 {
            return Err(ApiError::bad_request(
                "empty-batch",
                "batch must contain at least one job",
            ));
        }
        if jobs > MAX_BATCH_JOBS {
            return Err(ApiError::new(
                413,
                "batch-too-large",
                format!("batch of {jobs} jobs exceeds the {MAX_BATCH_JOBS}-job limit"),
            ));
        }
        self.metrics.record_batch(jobs as u64);
        let mut envelope = SeqWriter::object(out, Some(0));
        envelope.key(out, "count");
        write_number(out, jobs as f64);
        let inner = envelope.key(out, "results");
        let mut results = SeqWriter::array(out, inner);
        let (mut ok, mut failed, mut total_saved_g) = (0u64, 0u64, 0.0);
        while second.item().map_err(ApiError::bad_json)? {
            let slot = results.item(out);
            let job = second
                .value()
                .and_then(|token| decode_job(&mut second, token))
                .map_err(ApiError::bad_json)?;
            let placed = job_request(snap, job).and_then(|(query, origin)| {
                let decision = snap.place(&query)?;
                Ok((query, origin, decision))
            });
            match placed {
                Ok((query, origin, decision)) => {
                    ok += 1;
                    total_saved_g += decision.saved_g;
                    write_decision(out, slot, snap, &origin, &query, &decision);
                }
                Err(e) => {
                    failed += 1;
                    e.write_body(out, slot);
                }
            }
        }
        results.end(out);
        let inner = envelope.key(out, "summary");
        let mut summary = SeqWriter::object(out, inner);
        for (key, n) in [
            ("ok", ok as f64),
            ("failed", failed as f64),
            ("total_saved_g", total_saved_g),
            ("generation", snap.generation() as f64),
        ] {
            summary.key(out, key);
            write_number(out, n);
        }
        summary.end(out);
        envelope.end(out);
        Ok(())
    }
}

/// Counts the items left in the array `reader` is inside, validating
/// them without building them, then ends the document.
fn count_jobs(reader: &mut Reader<'_>) -> Result<usize, JsonParseError> {
    let mut jobs = 0;
    while reader.item()? {
        let job = reader.value()?;
        reader.skip(job)?;
        jobs += 1;
    }
    reader.finish()?;
    Ok(jobs)
}

/// One value of a job object as the decoder found it, borrowed from
/// the body.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Field<'a> {
    #[default]
    Absent,
    Str(JsonStr<'a>),
    Number(f64),
    /// `null`, a boolean, an object or an array: present, never valid.
    Other,
}

/// The fields of one job object: the first value of each known key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct JobFields<'a> {
    origin: Field<'a>,
    duration_hours: Field<'a>,
    slack_hours: Field<'a>,
    slo_ms: Field<'a>,
    arrival_hour: Field<'a>,
}

/// Reads the job value whose head `token` the reader just returned:
/// the job's fields, or `None` when it is not an object. Keys may come
/// in any order, the first of a duplicate key wins, and the values of
/// unknown keys are validated and skipped without being built.
// decarb-analyze: hot-path
fn decode_job<'a>(
    reader: &mut Reader<'a>,
    token: Token<'a>,
) -> Result<Option<JobFields<'a>>, JsonParseError> {
    if token != Token::Object {
        reader.skip(token)?;
        return Ok(None);
    }
    let mut job = JobFields::default();
    while let Some(key) = reader.key()? {
        let slot = if key.eq_str("origin") {
            &mut job.origin
        } else if key.eq_str("duration_hours") {
            &mut job.duration_hours
        } else if key.eq_str("slack_hours") {
            &mut job.slack_hours
        } else if key.eq_str("slo_ms") {
            &mut job.slo_ms
        } else if key.eq_str("arrival_hour") {
            &mut job.arrival_hour
        } else {
            let value = reader.value()?;
            reader.skip(value)?;
            continue;
        };
        let value = reader.value()?;
        let field = match value {
            Token::String(s) => Field::Str(s),
            Token::Number(n) => Field::Number(n),
            other => {
                reader.skip(other)?;
                Field::Other
            }
        };
        if *slot == Field::Absent {
            *slot = field;
        }
    }
    Ok(Some(job))
}

/// Validates one decoded job into a [`PlaceRequest`], returning the
/// decoded origin zone code alongside for the response echo. Shared by
/// the single-job and batch paths so both reject with identical codes;
/// fields are judged in a fixed order whatever order their keys came in.
fn job_request<'a>(
    snap: &Snapshot,
    job: Option<JobFields<'a>>,
) -> Result<(PlaceRequest, Cow<'a, str>), ApiError> {
    let Some(job) = job else {
        return Err(ApiError::bad_request(
            "bad-parameter",
            "each job must be a JSON object",
        ));
    };
    let origin_code = match job.origin {
        Field::Str(code) => code.decoded(),
        Field::Absent => {
            return Err(ApiError::bad_request(
                "missing-parameter",
                "origin is required",
            ))
        }
        _ => {
            return Err(ApiError::bad_request(
                "bad-parameter",
                "origin must be a zone-code string",
            ))
        }
    };
    let origin = snap.traces().id_of(&origin_code).map_err(|_| {
        ApiError::new(
            404,
            "unknown-region",
            format!("no trace for origin `{origin_code}`"),
        )
    })?;
    let duration_hours = match job.duration_hours {
        Field::Absent => {
            return Err(ApiError::bad_request(
                "missing-parameter",
                "duration_hours is required",
            ))
        }
        value => whole(value, "duration_hours")?,
    };
    let slack_hours = optional_whole(job.slack_hours, "slack_hours", 0)?;
    let slo_ms = match job.slo_ms {
        Field::Absent => 0.0,
        Field::Number(n) if n >= 0.0 && n.is_finite() => n,
        _ => {
            return Err(ApiError::bad_request(
                "bad-parameter",
                "slo_ms must be a finite non-negative number",
            ))
        }
    };
    let origin_start = snap.traces().series_by_id(origin).start();
    let arrival = optional_whole(job.arrival_hour, "arrival_hour", origin_start.0.into())?;
    Ok((
        PlaceRequest {
            origin,
            arrival: Hour(arrival as u32),
            duration_hours: duration_hours as usize,
            slack_hours: slack_hours as usize,
            slo_ms,
        },
        origin_code,
    ))
}

/// An optional non-negative whole number with a default.
fn optional_whole(value: Field<'_>, key: &str, default: u64) -> Result<u64, ApiError> {
    match value {
        Field::Absent => Ok(default),
        value => whole(value, key),
    }
}

fn whole(value: Field<'_>, key: &str) -> Result<u64, ApiError> {
    match value {
        Field::Number(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(n as u64),
        _ => Err(ApiError::bad_request(
            "bad-parameter",
            format!("{key} must be a non-negative whole number"),
        )),
    }
}

/// Writes one placement decision as the documented response object at
/// `indent`, byte for byte what the [`Value`] renderer printed: the
/// same shape whether it answers a single call or fills one batch
/// result slot.
// decarb-analyze: hot-path
fn write_decision(
    out: &mut String,
    indent: Option<usize>,
    snap: &Snapshot,
    origin_code: &str,
    query: &PlaceRequest,
    decision: &PlaceDecision,
) {
    let saved_pct = if decision.naive_g > 0.0 {
        decision.saved_g / decision.naive_g * 100.0
    } else {
        0.0
    };
    let mut obj = SeqWriter::object(out, indent);
    obj.key(out, "origin");
    write_string(out, origin_code);
    for (key, n) in [
        ("arrival_hour", f64::from(query.arrival.0)),
        ("duration_hours", query.duration_hours as f64),
        ("slack_hours", query.slack_hours as f64),
        ("slo_ms", query.slo_ms),
    ] {
        obj.key(out, key);
        write_number(out, n);
    }
    obj.key(out, "region");
    write_string(out, snap.traces().code(decision.region));
    for (key, n) in [
        ("start_hour", f64::from(decision.start.0)),
        ("wait_hours", f64::from(decision.start.0 - query.arrival.0)),
        ("cost_g", decision.cost_g),
        ("naive_g", decision.naive_g),
        ("saved_g", decision.saved_g),
        ("saved_pct", saved_pct),
        ("rtt_ms", decision.rtt_ms),
        ("generation", snap.generation() as f64),
    ] {
        obj.key(out, key);
        write_number(out, n);
    }
    obj.end(out);
}

/// Parses an integer query parameter with a default.
fn parse_query(req: &Request, key: &str, default: i64) -> Result<i64, ApiError> {
    match req.query(key) {
        None => Ok(default),
        Some(raw) => raw.parse::<i64>().map_err(|_| {
            ApiError::bad_request(
                "bad-parameter",
                format!("{key} must be an integer, got `{raw}`"),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;

    fn service() -> PlacementService {
        PlacementService::new(builtin_dataset())
    }

    fn get(target: &str) -> Request {
        Request::synthetic("GET", target, &[], b"")
    }

    fn post(target: &str, body: &str) -> Request {
        Request::synthetic("POST", target, &[], body.as_bytes())
    }

    #[test]
    fn subhourly_dataset_scales_forecast_and_place_responses() {
        use decarb_traces::{Resolution, TimeSeries, TraceSet};
        // A 30-day single-zone hourly trace re-expressed at 5 minutes:
        // wall-clock `hours` stay the request unit, samples scale 12×.
        let de = decarb_traces::catalog::region("DE").unwrap().clone();
        let start = year_start(2022);
        let values: Vec<f64> = (0..24 * 30).map(|i| 100.0 + (i % 24) as f64).collect();
        let hourly = TraceSet::from_series(vec![(de, TimeSeries::new(start, values))]);
        let fine = hourly
            .resample_to(Resolution::from_minutes(5).unwrap())
            .unwrap();
        let svc = PlacementService::new(Arc::new(fine));

        let (status, text) = svc.handle(&get("/v1/forecast/DE?hours=24"));
        assert_eq!(status, 200, "{text}");
        let json = decarb_json::parse(&text).unwrap();
        assert_eq!(json.get("hours"), Some(&Value::from(24.0)));
        assert_eq!(json.get("resolution_minutes"), Some(&Value::from(5.0)));
        assert_eq!(json.get("samples"), Some(&Value::from(288.0)));
        let Some(Value::Array(values)) = json.get("values_g_per_kwh") else {
            panic!("values missing")
        };
        assert_eq!(values.len(), 288);

        // Placement: wall-clock duration/slack, slot-axis arrival.
        let arrival = (start.0 + 10 * 24) * 12;
        let body = format!(
            r#"{{"origin":"DE","duration_hours":6,"slack_hours":24,"arrival_hour":{arrival}}}"#
        );
        let (status, text) = svc.handle(&post("/v1/place", &body));
        assert_eq!(status, 200, "{text}");
        let json = decarb_json::parse(&text).unwrap();
        let Some(Value::Number(start_slot)) = json.get("start_hour") else {
            panic!("start_hour missing")
        };
        // The diurnal minimum (hour 0 of the cycle) is hour-aligned.
        assert_eq!(*start_slot as u32 % 12, 0);
        // Grams are normalized to whole hours of draw: a 6-hour run in
        // the cheapest window of this cycle costs 100..=105 g/kWh ×6 h.
        let Some(Value::Number(cost)) = json.get("cost_g") else {
            panic!("cost_g missing")
        };
        assert!((600.0..=640.0).contains(cost), "cost_g {cost}");
    }

    #[test]
    fn forecast_on_a_zone_without_samples_is_unprocessable() {
        use decarb_traces::{container, TimeSeries, TraceSet};
        // A container may carry a zone with no samples; it decodes, and
        // a forecast for it must be a typed error, not a worker panic.
        let de = decarb_traces::catalog::region("DE").unwrap().clone();
        let empty =
            TraceSet::from_series(vec![(de, TimeSeries::new(year_start(2022), Vec::new()))]);
        let bytes = container::encode(&empty).unwrap();
        let decoded = container::decode(&bytes, "empty.dctr").unwrap();
        let svc = PlacementService::new(Arc::new(decoded));
        for model in ["seasonal", "persistence"] {
            let (status, text) =
                svc.handle(&get(&format!("/v1/forecast/DE?hours=2&model={model}")));
            assert_eq!(status, 422, "{text}");
            let json = decarb_json::parse(&text).unwrap();
            let error = json.get("error").expect("error envelope");
            assert_eq!(
                error.get("code"),
                Some(&Value::from("no-history")),
                "{text}"
            );
        }
    }

    #[test]
    fn healthz_reports_the_dataset() {
        let svc = service();
        let (status, body) = svc.handle(&get("/v1/healthz"));
        assert_eq!(status, 200);
        let json = decarb_json::parse(&body).unwrap();
        assert_eq!(json.get("status"), Some(&Value::from("ok")));
        assert_eq!(json.get("regions"), Some(&Value::from(123.0)));
        assert_eq!(json.get("generation"), Some(&Value::from(1.0)));
    }

    #[test]
    fn place_agrees_with_the_planner_ground_truth() {
        let svc = service();
        let arrival = year_start(2022).plus(90 * 24);
        let body = format!(
            r#"{{"origin":"DE","duration_hours":6,"slack_hours":24,"arrival_hour":{}}}"#,
            arrival.0
        );
        let (status, text) = svc.handle(&post("/v1/place", &body));
        assert_eq!(status, 200, "{text}");
        let json = decarb_json::parse(&text).unwrap();
        let snap = svc.snapshot();
        let de = snap.traces().id_of("DE").unwrap();
        let truth = snap.planner(de).best_deferred(arrival, 6, 24);
        assert_eq!(json.get("region"), Some(&Value::from("DE")));
        assert_eq!(
            json.get("start_hour"),
            Some(&Value::from(f64::from(truth.start.0)))
        );
        let Some(Value::Number(cost)) = json.get("cost_g") else {
            panic!("cost_g missing")
        };
        assert!((cost - truth.cost_g).abs() < 1e-9);
    }

    #[test]
    fn place_validates_every_field() {
        let svc = service();
        let cases = [
            ("{", 400, "bad-json"),
            ("{}", 400, "missing-parameter"),
            (r#"{"origin":7,"duration_hours":1}"#, 400, "bad-parameter"),
            (
                r#"{"origin":"NOPE","duration_hours":1}"#,
                404,
                "unknown-region",
            ),
            (r#"{"origin":"DE"}"#, 400, "missing-parameter"),
            (
                r#"{"origin":"DE","duration_hours":-2}"#,
                400,
                "bad-parameter",
            ),
            (
                r#"{"origin":"DE","duration_hours":1.5}"#,
                400,
                "bad-parameter",
            ),
            (
                r#"{"origin":"DE","duration_hours":0}"#,
                422,
                "zero-duration",
            ),
            (
                r#"{"origin":"DE","duration_hours":9999999}"#,
                422,
                "beyond-trace-end",
            ),
            (
                r#"{"origin":"DE","duration_hours":1,"arrival_hour":4000000000}"#,
                422,
                "beyond-trace-end",
            ),
            (
                r#"{"origin":"DE","duration_hours":1,"slo_ms":"fast"}"#,
                400,
                "bad-parameter",
            ),
            // 1e400 parses to +inf, which used to answer 200 and echo
            // `"slo_ms": null`.
            (
                r#"{"origin":"DE","duration_hours":1,"slo_ms":1e400}"#,
                400,
                "bad-parameter",
            ),
        ];
        for (body, expected_status, expected_code) in cases {
            let (status, text) = svc.handle(&post("/v1/place", body));
            assert_eq!(status, expected_status, "{body} → {text}");
            let json = decarb_json::parse(&text).unwrap();
            assert_eq!(
                json.get("error").and_then(|e| e.get("code")),
                Some(&Value::from(expected_code)),
                "{body}"
            );
        }
    }

    #[test]
    fn rankings_sort_and_limit() {
        let svc = service();
        let (status, text) = svc.handle(&get("/v1/rankings?year=2022&limit=3"));
        assert_eq!(status, 200);
        let json = decarb_json::parse(&text).unwrap();
        assert_eq!(json.get("count"), Some(&Value::from(3.0)));
        let Some(Value::Array(rows)) = json.get("rankings") else {
            panic!("rankings missing")
        };
        assert_eq!(rows[0].get("zone"), Some(&Value::from("SE")));
        let (status, _) = svc.handle(&get("/v1/rankings?year=2019"));
        assert_eq!(status, 400);
        let (status, _) = svc.handle(&get("/v1/rankings?year=abc"));
        assert_eq!(status, 400);
    }

    #[test]
    fn forecast_models_and_errors() {
        let svc = service();
        let (status, text) = svc.handle(&get("/v1/forecast/DE?hours=24"));
        assert_eq!(status, 200);
        let json = decarb_json::parse(&text).unwrap();
        assert_eq!(json.get("hours"), Some(&Value::from(24.0)));
        let Some(Value::Array(values)) = json.get("values_g_per_kwh") else {
            panic!("values missing")
        };
        assert_eq!(values.len(), 24);
        let (status, _) = svc.handle(&get("/v1/forecast/NOPE"));
        assert_eq!(status, 404);
        let (status, _) = svc.handle(&get("/v1/forecast/DE?hours=0"));
        assert_eq!(status, 400);
        let (status, _) = svc.handle(&get("/v1/forecast/DE?model=oracle"));
        assert_eq!(status, 400);
        let (status, _) = svc.handle(&get("/v1/forecast/DE?model=persistence"));
        assert_eq!(status, 200);
    }

    #[test]
    fn unknown_paths_and_methods_are_typed() {
        let svc = service();
        let (status, _) = svc.handle(&get("/nope"));
        assert_eq!(status, 404);
        let (status, _) = svc.handle(&post("/v1/rankings", ""));
        assert_eq!(status, 405);
        let (status, _) = svc.handle(&get("/v1/place"));
        assert_eq!(status, 405);
    }

    #[test]
    fn reload_without_a_loader_is_503_and_with_one_bumps_generation() {
        let svc = service();
        let (status, _) = svc.handle(&post("/v1/reload", ""));
        assert_eq!(status, 503);
        let svc = PlacementService::new(builtin_dataset())
            .with_loader(Box::new(|| Ok(builtin_dataset())));
        let before = svc.snapshot().generation();
        let (status, text) = svc.handle(&post("/v1/reload", ""));
        assert_eq!(status, 200);
        let json = decarb_json::parse(&text).unwrap();
        assert_eq!(
            json.get("generation"),
            Some(&Value::from((before + 1) as f64))
        );
        assert_eq!(svc.snapshot().generation(), before + 1);
    }

    #[test]
    fn place_answers_are_bit_identical_across_reload() {
        let svc = PlacementService::new(builtin_dataset())
            .with_loader(Box::new(|| Ok(builtin_dataset())));
        let arrival = year_start(2022).0;
        let body = format!(
            r#"{{"origin":"PL","duration_hours":4,"slack_hours":12,"slo_ms":1000,"arrival_hour":{arrival}}}"#
        );
        let (s1, before) = svc.handle(&post("/v1/place", &body));
        let (s2, _) = svc.handle(&post("/v1/reload", ""));
        let (s3, after) = svc.handle(&post("/v1/place", &body));
        assert_eq!((s1, s2, s3), (200, 200, 200));
        // The only field allowed to differ is the snapshot generation.
        let strip = |text: &str| {
            text.lines()
                .filter(|l| !l.contains("\"generation\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&before), strip(&after));
    }

    #[test]
    fn batch_answers_are_bit_identical_to_sequential_single_calls() {
        let svc = service();
        let arrival = year_start(2022).plus(60 * 24).0;
        let jobs: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    r#"{{"origin":"{}","duration_hours":{},"slack_hours":{},"slo_ms":150,"arrival_hour":{}}}"#,
                    ["DE", "PL", "FR", "SE"][i % 4],
                    1 + i % 4,
                    (i % 3) * 12,
                    arrival + i as u32 * 5,
                )
            })
            .collect();
        let singles: Vec<String> = jobs
            .iter()
            .map(|job| {
                let (status, text) = svc.handle(&post("/v1/place", job));
                assert_eq!(status, 200, "{text}");
                text
            })
            .collect();
        let batch_body = format!("[{}]", jobs.join(","));
        let (status, text) = svc.handle(&post("/v1/place", &batch_body));
        assert_eq!(status, 200, "{text}");
        let json = decarb_json::parse(&text).unwrap();
        assert_eq!(json.get("count"), Some(&Value::from(20.0)));
        let Some(Value::Array(results)) = json.get("results") else {
            panic!("results missing")
        };
        for (result, single_text) in results.iter().zip(&singles) {
            let single = decarb_json::parse(single_text).unwrap();
            assert_eq!(*result, single, "batch slot must match its single call");
        }
        let summary = json.get("summary").unwrap();
        assert_eq!(summary.get("ok"), Some(&Value::from(20.0)));
        assert_eq!(summary.get("failed"), Some(&Value::from(0.0)));
        assert_eq!(summary.get("generation"), Some(&Value::from(1.0)));
    }

    #[test]
    fn batch_errors_fill_their_slot_without_failing_the_batch() {
        let svc = service();
        let body = r#"[
            {"origin":"DE","duration_hours":2},
            {"origin":"NOPE","duration_hours":1},
            {"origin":"DE","duration_hours":0},
            7,
            {"origin":"DE","duration_hours":3}
        ]"#;
        let (status, text) = svc.handle(&post("/v1/place", body));
        assert_eq!(status, 200, "{text}");
        let json = decarb_json::parse(&text).unwrap();
        let Some(Value::Array(results)) = json.get("results") else {
            panic!("results missing")
        };
        assert_eq!(results.len(), 5);
        assert!(results[0].get("region").is_some());
        let code = |i: usize| results[i].get("error").and_then(|e| e.get("code")).cloned();
        assert_eq!(code(1), Some(Value::from("unknown-region")));
        assert_eq!(code(2), Some(Value::from("zero-duration")));
        assert_eq!(code(3), Some(Value::from("bad-parameter")));
        assert!(results[4].get("region").is_some());
        let summary = json.get("summary").unwrap();
        assert_eq!(summary.get("ok"), Some(&Value::from(2.0)));
        assert_eq!(summary.get("failed"), Some(&Value::from(3.0)));
    }

    #[test]
    fn empty_and_oversized_batches_are_rejected() {
        let svc = service();
        let (status, text) = svc.handle(&post("/v1/place", "[]"));
        assert_eq!(status, 400);
        assert!(text.contains("empty-batch"), "{text}");
        let one_job = r#"{"origin":"DE","duration_hours":1}"#;
        let body = format!(
            "[{}]",
            std::iter::repeat_n(one_job, MAX_BATCH_JOBS + 1)
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, text) = svc.handle(&post("/v1/place", &body));
        assert_eq!(status, 413, "{text}");
        assert!(text.contains("batch-too-large"), "{text}");
    }

    #[test]
    fn capacity_limit_saturates_a_region_across_requests() {
        let svc = PlacementService::with_capacity(builtin_dataset(), 1);
        let body = r#"{"origin":"PL","duration_hours":2,"slo_ms":1e9}"#;
        let (s1, first) = svc.handle(&post("/v1/place", body));
        let (s2, second) = svc.handle(&post("/v1/place", body));
        assert_eq!((s1, s2), (200, 200));
        let winner = |text: &str| {
            decarb_json::parse(text)
                .unwrap()
                .get("region")
                .cloned()
                .unwrap()
        };
        assert_ne!(
            winner(&first),
            winner(&second),
            "a saturated region must stop winning placements"
        );
    }

    #[test]
    fn metrics_count_requests() {
        let svc = service();
        let _ = svc.handle(&get("/v1/healthz"));
        let _ = svc.handle(&post("/v1/place", "{}"));
        let (status, text) = svc.handle(&get("/v1/metrics_is_other"));
        assert_eq!(status, 404);
        let (status, text2) = svc.handle(&get("/v1/metrics"));
        assert_eq!(status, 200, "{text}");
        let json = decarb_json::parse(&text2).unwrap();
        assert_eq!(json.get("generation"), Some(&Value::from(1.0)));
        let requests = json.get("requests").unwrap();
        assert_eq!(requests.get("healthz"), Some(&Value::from(1.0)));
        assert_eq!(requests.get("place"), Some(&Value::from(1.0)));
    }
}
