//! The placement workloads.
//!
//! A closed loop over one keep-alive TCP connection to an in-process
//! `Server` with one worker, serving the builtin dataset packed as an
//! hourly container (`PlacementService::new` → `Snapshot::build`). A
//! scheduler waits for each answer, so the client sends its next request
//! only after reading the previous response.
//!
//! - `place` sends single-job `POST /v1/place` bodies: read → parse →
//!   dispatch → place → render → write per request, with spatial and
//!   temporal fan-out that varies per job.
//! - `place-batch` sends 200-job arrays, which the service answers
//!   through `Snapshot::place_batch` fanned out on `decarb-par`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use decarb_core::temporal::TemporalPlanner;
use decarb_json::Value;
use decarb_serve::http::{read_request_into, render_response, Request};
use decarb_serve::{handle_connection, PlacementService, Server};
use decarb_sim::{PlaceRequest, Snapshot};
use decarb_traces::time::{hours_in_year, year_start};
use decarb_traces::{builtin_catalog, container, Hour};

use crate::stats::{median, within};
use crate::trace::Tracer;
use crate::{Config, CpuRotation, Figures, Half, Outcome, Rng, Segments};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Single,
    Batch,
}

/// Jobs in one `place-batch` request.
pub const BATCH_JOBS: usize = 200;
/// The client keeps every n-th answer for checking after the timed loop,
/// one per pooled request at most. The stride is odd and the pools are
/// powers of two, so the kept answers cover every pooled request.
const SAMPLE_EVERY: u64 = 17;
/// Set-ups per run (per half in a traced run). One takes about 0.1 s,
/// less than one phase of the host, so a run takes many.
const SETUPS: usize = 15;
/// Jobs checked in each kept batch answer.
const BATCH_CHECK_STRIDE: usize = 25;

const SLACK_HOURS: [u32; 3] = [0, 24, 168];
/// 0 keeps a job at its origin; 500 admits nearly every region.
const SLO_MS: [u32; 4] = [0, 50, 150, 500];

/// The requests whose answers `tests/golden/serve_place.json` and
/// `tests/golden/serve_batch.json` pin byte for byte.
const GOLDEN_PLACE: &str =
    r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#;
const GOLDEN_BATCH: &str = r#"[{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704},{"origin":"DE","duration_hours":2,"slack_hours":6,"slo_ms":100,"arrival_hour":19704}]"#;

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Single => "place",
            Mode::Batch => "place-batch",
        }
    }

    fn jobs_per_request(self) -> usize {
        match self {
            Mode::Single => 1,
            Mode::Batch => BATCH_JOBS,
        }
    }

    /// Distinct requests generated per run; the timed loop cycles
    /// through them.
    fn pool_requests(self) -> usize {
        match self {
            Mode::Single => 4096,
            Mode::Batch => 64,
        }
    }

    /// Round trips in one timed operation: whole cycles of the pool,
    /// half a second to a second. The median of single round trips is
    /// that of a mixture of the host's fast and slow phases (0.5–1.5 s),
    /// so it jumped between the two modes from run to run (22 against
    /// 30–42 µs on `place`); an operation's mean round trip moves with
    /// the share of slow time in it instead.
    fn requests_per_op(self) -> usize {
        match self {
            Mode::Single => 4 * self.pool_requests(),
            Mode::Batch => self.pool_requests(),
        }
    }

    fn golden(self) -> (&'static str, &'static str) {
        match self {
            Mode::Single => (GOLDEN_PLACE, "tests/golden/serve_place.json"),
            Mode::Batch => (GOLDEN_BATCH, "tests/golden/serve_batch.json"),
        }
    }
}

/// One generated placement job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub origin: &'static str,
    pub duration_hours: u32,
    pub slack_hours: u32,
    pub slo_ms: u32,
    pub arrival_hour: u32,
}

impl Job {
    /// The job as a compact `/v1/place` JSON object.
    pub fn json(&self) -> String {
        format!(
            r#"{{"origin":"{}","duration_hours":{},"slack_hours":{},"slo_ms":{},"arrival_hour":{}}}"#,
            self.origin, self.duration_hours, self.slack_hours, self.slo_ms, self.arrival_hour
        )
    }

    fn query(&self, snap: &Snapshot) -> Result<PlaceRequest, String> {
        Ok(PlaceRequest {
            origin: snap
                .traces()
                .id_of(self.origin)
                .map_err(|e| e.to_string())?,
            arrival: Hour(self.arrival_hour),
            duration_hours: self.duration_hours as usize,
            slack_hours: self.slack_hours as usize,
            slo_ms: f64::from(self.slo_ms),
        })
    }
}

/// The seeded job stream: origin from the 123 builtin zones, 1–24 h
/// long, slack from {0, 24, 168} h, SLO from {0, 50, 150, 500} ms,
/// arriving in an hour of 2022. The trace runs through 2023, so every
/// job fits its coverage even at full slack.
pub fn generate(seed: u64, count: usize) -> Vec<Job> {
    let zones = builtin_catalog();
    let first = year_start(2022).0;
    let hours = hours_in_year(2022);
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| Job {
            origin: zones[rng.below(zones.len())].code.as_str(),
            duration_hours: 1 + rng.below(24) as u32,
            slack_hours: SLACK_HOURS[rng.below(SLACK_HOURS.len())],
            slo_ms: SLO_MS[rng.below(SLO_MS.len())],
            arrival_hour: first + rng.below(hours) as u32,
        })
        .collect()
}

/// One request of the stream: its exact bytes and the jobs it carries.
pub struct Entry {
    pub bytes: Vec<u8>,
    pub jobs: Vec<Job>,
}

fn http_post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/place HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The run's request pool: single jobs, or 200-job JSON arrays.
pub fn requests(mode: Mode, seed: u64) -> Vec<Entry> {
    let per = mode.jobs_per_request();
    generate(seed, mode.pool_requests() * per)
        .chunks(per)
        .map(|jobs| {
            let body = match mode {
                Mode::Single => jobs[0].json(),
                Mode::Batch => {
                    let items: Vec<String> = jobs.iter().map(Job::json).collect();
                    format!("[{}]", items.join(","))
                }
            };
            Entry {
                bytes: http_post(&body),
                jobs: jobs.to_vec(),
            }
        })
        .collect()
}

/// A keep-alive HTTP/1.1 client reading content-length-framed answers.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            line: Vec::with_capacity(256),
            body: Vec::with_capacity(1 << 16),
        })
    }

    fn read_line(&mut self) -> std::io::Result<()> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Sends `request` and reads the answer into `self.body`; returns
    /// the HTTP status.
    fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<u16> {
        let malformed =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.writer.write_all(request)?;
        self.read_line()?;
        let status: u16 = self
            .line
            .get(9..12)
            .and_then(|code| std::str::from_utf8(code).ok())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed("malformed status line"))?;
        let mut length = None;
        loop {
            self.read_line()?;
            if self.line == b"\r\n" {
                break;
            }
            let header =
                std::str::from_utf8(&self.line).map_err(|_| malformed("header is not UTF-8"))?;
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| malformed("answer without content-length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

/// A running server with its one client connection.
struct Live {
    service: Arc<PlacementService>,
    client: Client,
    server: JoinHandle<std::io::Result<()>>,
    server_tid: i32,
    /// `/v1/place` requests sent on this connection.
    sent: u64,
}

impl Live {
    /// Closes the connection, which ends the server's keep-alive loop,
    /// and joins the server thread.
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

fn container_path(cfg: &Config) -> PathBuf {
    cfg.out_dir.join("builtin-hourly.dctr")
}

/// Loads the container, builds the service, starts the server, connects
/// and sends the golden request as the untimed warm-up. Returns the
/// running endpoint, the set-up time and whether the golden answer
/// reproduced byte for byte.
fn set_up(
    mode: Mode,
    cfg: &Config,
    golden: &[u8],
    tr: &mut Tracer,
) -> Result<(Live, f64, bool), String> {
    let started = Instant::now();
    let setup = tr.begin("setup", 0);
    let s = tr.begin("traces.decode", 0);
    let traces =
        container::load_file(&container_path(cfg).to_string_lossy()).map_err(|e| e.to_string())?;
    tr.end(s);
    let s = tr.begin("snapshot.build", 0);
    let service = Arc::new(PlacementService::new(Arc::new(traces)));
    tr.end(s);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind: {e}"))?
        .with_max_requests_per_connection(u64::MAX);
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        // Its id lets the client move it from CPU to CPU.
        let _ = tid_tx.send(crate::thread_id());
        server.serve_one()
    });
    let server_tid = tid_rx
        .recv()
        .map_err(|_| "the server thread ended before it started")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let s = tr.begin("serve.golden", 0);
    let status = client
        .roundtrip(&http_post(mode.golden().0))
        .map_err(|e| format!("golden request: {e}"))?;
    tr.end(s);
    let golden_ok = status == 200 && client.body == golden;
    tr.end(setup);
    let live = Live {
        service,
        client,
        server: handle,
        server_tid,
        sent: 1,
    };
    Ok((live, started.elapsed().as_secs_f64(), golden_ok))
}

struct Measured {
    /// The untraced half, then the traced one when the tracer is on.
    halves: Vec<Half>,
    attempted: u64,
    failed: u64,
    /// The last segment's endpoint.
    live: Live,
}

/// Runs the segments of one run: each sets the server up, checks the
/// golden answer and makes timed operations until its deadline, at
/// least one. With the tracer on, the segments alternate between the
/// untraced and the traced half.
fn measure(
    mode: Mode,
    cfg: &Config,
    pool: &[Entry],
    golden: &[u8],
    rotation: &mut CpuRotation,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let segments = Segments::new(if tr.is_on() { 2 } else { 1 }, SETUPS, cfg.seconds);
    let mut halves: Vec<Half> = (0..segments.halves).map(|_| Half::default()).collect();
    for half in &mut halves {
        half.round_trips.reserve(1 << 20);
    }
    let group = mode.requests_per_op();
    let mut failed = 0u64;
    let mut samples: Vec<(usize, Vec<u8>)> = Vec::with_capacity(pool.len());
    let mut live: Option<Live> = None;
    let mut i = 0u64;
    let started = Instant::now();
    'run: for k in 0..segments.count {
        let half = segments.enter(tr, k);
        if let Some(previous) = live.take() {
            previous.stop()?;
        }
        let (mut next, setup_s, golden_ok) = set_up(mode, cfg, golden, tr)?;
        if !golden_ok {
            eprintln!("perfbench: the golden answer did not reproduce");
            failed += 1;
        }
        halves[half].setups.push(setup_s);
        loop {
            let op_started = Instant::now();
            for _ in 0..group {
                let index = (i % pool.len() as u64) as usize;
                if index == 0 {
                    rotation.advance(&[next.server_tid])?;
                }
                let s = tr.begin("client.roundtrip", i + 1);
                let sent_at = Instant::now();
                let answer = next.client.roundtrip(&pool[index].bytes);
                halves[half]
                    .round_trips
                    .push(sent_at.elapsed().as_secs_f64());
                tr.end(s);
                i += 1;
                next.sent += 1;
                match answer {
                    Ok(200) => {
                        halves[half].units += pool[index].jobs.len() as u64;
                        if i.is_multiple_of(SAMPLE_EVERY) && samples.len() < pool.len() {
                            samples.push((index, next.client.body.clone()));
                        }
                    }
                    Ok(_) => failed += 1,
                    Err(e) => {
                        // The connection is gone: count the failure and stop.
                        eprintln!("perfbench: request {i}: {e}");
                        failed += 1;
                        live = Some(next);
                        break 'run;
                    }
                }
            }
            let op_s = op_started.elapsed().as_secs_f64();
            halves[half].latencies.push(op_s / group as f64);
            halves[half].busy_s += op_s;
            if started.elapsed().as_secs_f64() >= segments.deadline(k) {
                break;
            }
        }
        halves[half].end_segment();
        live = Some(next);
    }
    tr.pause(false);
    for half in &halves {
        eprintln!("perfbench: set-up seconds {:?}", half.setups);
        eprintln!(
            "perfbench: round-trip seconds (mean per operation): {}",
            crate::stats::spread(&half.latencies)
        );
        eprintln!(
            "perfbench: round-trip seconds: {}",
            crate::stats::spread(&half.round_trips)
        );
    }
    let live = live.ok_or("no set-up ran")?;
    let snap = live.service.snapshot();
    for (index, body) in &samples {
        if let Err(e) = check_answer(mode, &snap, &pool[*index], body) {
            eprintln!("perfbench: request {index}: {e}");
            failed += 1;
        }
    }
    let setups: usize = halves.iter().map(|h| h.setups.len()).sum();
    Ok(Measured {
        halves,
        attempted: i + setups as u64,
        failed,
        live,
    })
}

/// Checks one kept answer against in-process `Snapshot::place` calls on
/// the same jobs.
fn check_answer(mode: Mode, snap: &Snapshot, entry: &Entry, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    let doc = decarb_json::parse(text).map_err(|e| format!("answer is not JSON: {e}"))?;
    match mode {
        Mode::Single => check_decision(snap, &entry.jobs[0], &doc),
        Mode::Batch => {
            let jobs = entry.jobs.len() as f64;
            let ok = doc.get("summary").and_then(|s| s.get("ok"));
            if doc.get("count") != Some(&Value::from(jobs)) || ok != Some(&Value::from(jobs)) {
                return Err(format!("batch summary does not place all {jobs} jobs"));
            }
            let Some(Value::Array(results)) = doc.get("results") else {
                return Err("batch answer without results".into());
            };
            for k in (0..entry.jobs.len()).step_by(BATCH_CHECK_STRIDE) {
                let result = results.get(k).ok_or("missing batch result")?;
                check_decision(snap, &entry.jobs[k], result)
                    .map_err(|e| format!("job {k}: {e}"))?;
            }
            Ok(())
        }
    }
}

fn check_decision(snap: &Snapshot, job: &Job, answer: &Value) -> Result<(), String> {
    let decision = snap
        .place(&job.query(snap)?)
        .map_err(|e| format!("in-process place failed: {e}"))?;
    for (key, want) in [
        ("origin", job.origin),
        ("region", snap.traces().code(decision.region)),
    ] {
        match answer.get(key) {
            Some(Value::String(got)) if got == want => {}
            got => return Err(format!("{key}: expected {want}, got {got:?}")),
        }
    }
    for (key, want) in [
        ("arrival_hour", f64::from(job.arrival_hour)),
        ("duration_hours", f64::from(job.duration_hours)),
        ("slack_hours", f64::from(job.slack_hours)),
        ("slo_ms", f64::from(job.slo_ms)),
        ("start_hour", f64::from(decision.start.0)),
        ("cost_g", decision.cost_g),
        ("naive_g", decision.naive_g),
        ("saved_g", decision.saved_g),
        ("rtt_ms", decision.rtt_ms),
    ] {
        match answer.get(key) {
            Some(Value::Number(got)) if within(*got, want, 1e-12) => {}
            got => return Err(format!("{key}: expected {want}, got {got:?}")),
        }
    }
    Ok(())
}

/// Runs one placement workload; `traced` selects the per-layer run.
pub fn run(mode: Mode, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    crate::ensure_container(&container_path(cfg), 60)?;
    let golden_path = mode.golden().1;
    let golden = std::fs::read(golden_path).map_err(|e| format!("{golden_path}: {e}"))?;
    let pool = requests(mode, cfg.seed);
    // Client and server take turns, so one CPU serves both. Left to the
    // scheduler, each round trip woke a thread on the other virtual CPU
    // or not by chance, and the median read 37–54 µs over ten runs; on
    // one CPU, 23–34 µs over twenty. The pair steps to the other CPU
    // every pool cycle. Batches stay unpinned, as they fan out on two
    // workers.
    let mut rotation = match mode {
        Mode::Single => CpuRotation::over_allowed_cpus()?,
        Mode::Batch => CpuRotation::none(),
    };
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    let mut m = measure(mode, cfg, &pool, &golden, &mut rotation, &mut tr)?;
    // The replay below fans batches out on two workers.
    rotation.release()?;
    let mut outcome = Outcome {
        attempted: m.attempted,
        failed: m.failed,
        ..Outcome::default()
    };
    if !traced {
        m.live.stop()?;
        m.halves[0].figures().record(&mut outcome.metrics);
        return Ok(outcome);
    }
    Figures::record_overhead(
        &m.halves[1].figures(),
        &m.halves[0].figures(),
        &tr,
        &mut outcome.metrics,
    );

    // The service's own count of placement requests must equal the
    // client's.
    outcome.attempted += 1;
    let status = m
        .live
        .client
        .roundtrip(b"GET /v1/metrics HTTP/1.1\r\nhost: perfbench\r\n\r\n")
        .map_err(|e| format!("metrics request: {e}"))?;
    let served = std::str::from_utf8(&m.live.client.body)
        .ok()
        .and_then(|text| decarb_json::parse(text).ok())
        .and_then(
            |doc| match doc.get("requests").and_then(|r| r.get("place")) {
                Some(Value::Number(n)) => Some(*n),
                _ => None,
            },
        )
        .unwrap_or(-1.0);
    if status != 200 || served != m.live.sent as f64 {
        eprintln!(
            "perfbench: /v1/metrics counts {served} placements, the client sent {}",
            m.live.sent
        );
        outcome.failed += 1;
    }
    outcome
        .metrics
        .insert("serve.requests_served", served.max(0.0));
    let sent = m.live.sent;
    let service = Arc::clone(&m.live.service);
    m.live.stop()?;

    layers(
        mode,
        cfg,
        &service,
        &pool,
        sent,
        &mut tr,
        &mut outcome.metrics,
    )?;
    outcome.metrics.insert("trace.spans", tr.len() as f64);
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", mode.label()));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

/// Per-layer metrics: set-up spans, then a replay of the exact request
/// bytes the traced run sent through each serve stage in process.
fn layers(
    mode: Mode,
    cfg: &Config,
    service: &PlacementService,
    pool: &[Entry],
    sent: u64,
    tr: &mut Tracer,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let us = |seconds: f64| seconds * 1e6;
    let snap = service.snapshot();
    let bytes = std::fs::metadata(container_path(cfg))
        .map_err(|e| e.to_string())?
        .len();
    metrics.insert("traces.decode_s", median(&tr.seconds("traces.decode")));
    metrics.insert("traces.decode_mb", bytes as f64 / 1e6);
    metrics.insert("snapshot.build_s", median(&tr.seconds("snapshot.build")));
    let roundtrip_s = median(&tr.op_seconds("client.roundtrip"));

    // The traced run sent the golden request, then the pool in order.
    let n = (sent as usize).saturating_sub(1).clamp(1, pool.len());
    let sph = snap.traces().resolution().slots_per_hour();
    let mut req = Request::new();
    let mut body = String::with_capacity(1 << 16);
    let mut out = Vec::with_capacity(1 << 16);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let (mut candidates, mut jobs) = (0usize, 0usize);
    for (r, entry) in pool[..n].iter().enumerate() {
        let op = r as u64 + 1;
        let queries = entry
            .jobs
            .iter()
            .map(|job| job.query(&snap))
            .collect::<Result<Vec<PlaceRequest>, String>>()?;
        // One untimed pass first: the timed loop sent every pooled
        // request many times, so the replay measures warm stages too.
        read_request_into(&mut BufReader::new(&entry.bytes[..]), &mut req)
            .map_err(|e| format!("replayed request {r}: {e}"))?;
        service.handle_into(&req, &mut body);
        let mut reader = BufReader::new(&entry.bytes[..]);
        let s = tr.begin("serve.read", op);
        let read = read_request_into(&mut reader, &mut req);
        tr.end(s);
        if !matches!(read, Ok(true)) {
            return Err(format!("replayed request {r} does not parse"));
        }
        let text = std::str::from_utf8(req.body()).map_err(|e| e.to_string())?;
        let s = tr.begin("serve.json_parse", op);
        let parsed = decarb_json::parse(text);
        tr.end(s);
        std::hint::black_box(parsed.map_err(|e| e.to_string())?);
        let s = tr.begin("serve.place", op);
        match mode {
            Mode::Single => {
                std::hint::black_box(snap.place(&queries[0]).map_err(|e| e.to_string())?);
            }
            Mode::Batch => {
                std::hint::black_box(snap.place_batch(&queries));
            }
        }
        tr.end(s);
        let s = tr.begin("serve.handle", op);
        let status = service.handle_into(&req, &mut body);
        tr.end(s);
        let s = tr.begin("serve.frame", op);
        render_response(&mut out, status, &body, true);
        tr.end(s);
        if status != 200 {
            return Err(format!("replayed request {r} answered {status}"));
        }
        request_bytes += entry.bytes.len();
        response_bytes += out.len();
        for q in &queries {
            candidates += snap
                .deployed()
                .iter()
                .filter(|&&id| snap.rtt_ms(q.origin, id).is_some_and(|rtt| rtt <= q.slo_ms))
                .count();
            let planner = snap.planner(q.origin);
            let s = tr.begin("core.best_deferred", op);
            std::hint::black_box(planner.best_deferred(
                q.arrival,
                q.duration_hours * sph,
                q.slack_hours * sph,
            ));
            tr.end(s);
        }
        jobs += queries.len();
    }
    let handle = tr.op_seconds("serve.handle");
    let parse = tr.op_seconds("serve.json_parse");
    let place = tr.op_seconds("serve.place");
    let render: Vec<f64> = (0..handle.len())
        .map(|i| handle[i] - parse[i] - place[i])
        .collect();
    metrics.insert("serve.read_us", us(median(&tr.op_seconds("serve.read"))));
    metrics.insert("serve.json_parse_us", us(median(&parse)));
    metrics.insert("serve.place_us", us(median(&place)));
    metrics.insert("serve.handle_us", us(median(&handle)));
    metrics.insert("serve.render_us", us(median(&render)));
    metrics.insert("serve.frame_us", us(median(&tr.op_seconds("serve.frame"))));
    metrics.insert("serve.request_bytes", request_bytes as f64 / n as f64);
    metrics.insert("serve.response_bytes", response_bytes as f64 / n as f64);
    metrics.insert(
        "serve.candidates_per_place",
        candidates as f64 / jobs as f64,
    );
    metrics.insert(
        "core.best_deferred_us",
        us(median(&tr.op_seconds("core.best_deferred"))),
    );

    // `decarb-par`: the jobs the run sent, in 200-job batches, placed
    // through `place_batch` and one by one. Both workloads measure it,
    // so that `place`, which `BENCHMARK.json` gates, covers the layer.
    let jobs_sent: Vec<PlaceRequest> = pool[..n]
        .iter()
        .flat_map(|entry| entry.jobs.iter().map(|job| job.query(&snap)))
        .collect::<Result<_, String>>()?;
    for (b, batch) in jobs_sent.chunks(BATCH_JOBS).enumerate() {
        let op = b as u64 + 1;
        let s = tr.begin("par.batch", op);
        std::hint::black_box(snap.place_batch(batch));
        tr.end(s);
        let s = tr.begin("par.sequential", op);
        std::hint::black_box(batch.iter().map(|q| snap.place(q)).collect::<Vec<_>>());
        tr.end(s);
    }
    metrics.insert(
        "par.batch_speedup",
        median(&tr.op_seconds("par.sequential")) / median(&tr.op_seconds("par.batch")),
    );

    // The connection loop over an in-memory stream, one request per
    // stream so that its median compares with the median round trip;
    // what the TCP round trip adds on top is transport. (One stream of
    // every request costs about three times as much per request, as the
    // loop holds all answers back until the reader is drained.)
    let mut sink = Vec::with_capacity(1 << 20);
    for (r, entry) in pool[..n].iter().enumerate() {
        sink.clear();
        let mut reader = BufReader::new(&entry.bytes[..]);
        let s = tr.begin("serve.conn_loop", r as u64 + 1);
        let served = handle_connection(service, &mut reader, &mut sink, u64::MAX);
        tr.end(s);
        if served != 1 {
            return Err(format!("connection loop served {served} of 1 request"));
        }
    }
    let conn_loop_s = median(&tr.op_seconds("serve.conn_loop"));
    metrics.insert("serve.conn_loop_us", us(conn_loop_s));
    if mode == Mode::Single {
        // A batch's transport is far below the run-to-run drift of its
        // 8-ms round trip, so the difference is left out there.
        metrics.insert("serve.transport_us", us(roundtrip_s - conn_loop_s));
    }

    // Planner builds: one per deployed region, as `Snapshot::build` makes.
    let mut build_s = 0.0;
    for &id in snap.deployed() {
        let s = tr.begin("core.planner_build", 1);
        let started = Instant::now();
        let planner = TemporalPlanner::with_resolution(
            snap.traces().series_by_id(id),
            snap.traces().resolution(),
        );
        build_s += started.elapsed().as_secs_f64();
        tr.end(s);
        std::hint::black_box(planner);
    }
    metrics.insert("core.planner_builds", snap.deployed().len() as f64);
    metrics.insert("core.planner_build_ms", build_s * 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::builtin_dataset;

    #[test]
    fn the_same_seed_gives_byte_identical_requests() {
        for mode in [Mode::Single, Mode::Batch] {
            let a = requests(mode, 11);
            let b = requests(mode, 11);
            let c = requests(mode, 12);
            assert_eq!(a.len(), mode.pool_requests());
            assert!(a.len().is_power_of_two(), "SAMPLE_EVERY must walk the pool");
            assert!(a.iter().zip(&b).all(|(x, y)| x.bytes == y.bytes));
            assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
            assert!(a.iter().all(|e| e.jobs.len() == mode.jobs_per_request()));
        }
    }

    #[test]
    fn generated_jobs_cover_the_documented_ranges() {
        let jobs = generate(5, 20_000);
        let first = year_start(2022).0;
        assert!(jobs.iter().all(|j| (1..=24).contains(&j.duration_hours)));
        assert!(jobs
            .iter()
            .all(|j| (first..first + hours_in_year(2022) as u32).contains(&j.arrival_hour)));
        for slack in SLACK_HOURS {
            assert!(jobs.iter().any(|j| j.slack_hours == slack));
        }
        for slo in SLO_MS {
            assert!(jobs.iter().any(|j| j.slo_ms == slo));
        }
        let mut origins: Vec<&str> = jobs.iter().map(|j| j.origin).collect();
        origins.sort_unstable();
        origins.dedup();
        assert_eq!(origins.len(), 123);
    }

    /// Every generated job is accepted with a 200, singly and in
    /// batches, and each answer matches `Snapshot::place`.
    #[test]
    fn every_generated_job_is_placed() {
        let service = PlacementService::new(builtin_dataset());
        let snap = service.snapshot();
        let mut body = String::new();
        for mode in [Mode::Single, Mode::Batch] {
            let pool = requests(mode, 3);
            let take = if mode == Mode::Single { pool.len() } else { 8 };
            for entry in &pool[..take] {
                let mut req = Request::new();
                assert!(
                    read_request_into(&mut BufReader::new(&entry.bytes[..]), &mut req).unwrap()
                );
                let status = service.handle_into(&req, &mut body);
                assert_eq!(status, 200, "{body}");
                check_answer(mode, &snap, entry, body.as_bytes()).unwrap();
            }
        }
    }

    #[test]
    fn the_client_reads_framed_answers_over_tcp() {
        let service = Arc::new(PlacementService::new(builtin_dataset()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve_one());
        let mut client = Client::connect(addr).unwrap();
        let golden = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/golden/serve_place.json"
        ))
        .unwrap();
        assert_eq!(client.roundtrip(&http_post(GOLDEN_PLACE)).unwrap(), 200);
        assert_eq!(client.body, golden);
        let status = client
            .roundtrip(b"GET /v1/nope HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        assert_eq!(status, 404);
        drop(client);
        handle.join().unwrap().unwrap();
    }
}
