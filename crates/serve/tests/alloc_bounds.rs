//! The placement path's heap use, counted.
//!
//! A counting global allocator records every allocation the process
//! makes, on every thread, while a count is armed. The counts pin that
//! a steady-state keep-alive placement through `handle_connection`
//! allocates nothing, and that a hostile body cannot make the handler
//! hold more than a bounded amount of memory while it answers. The
//! tests take one lock, so no other test of this file allocates while a
//! count is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use decarb_serve::{handle_connection, PlacementService, Request};
use decarb_traces::builtin_dataset;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Held by every test of this file for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one allocator call that changes the bytes held by `delta`;
/// `fresh` marks calls that ask the system for memory.
fn note(delta: isize, fresh: bool) {
    if ARMED.load(Ordering::SeqCst) {
        if fresh {
            CALLS.fetch_add(1, Ordering::SeqCst);
        }
        let live = LIVE.fetch_add(delta, Ordering::SeqCst) + delta;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s own contract covers each call; the
// bookkeeping in `note` only touches static atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocator calls (allocs
/// and reallocs) it made and the peak bytes it held above what was held
/// when it started. Callers hold [`serial`].
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    CALLS.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst).max(0) as usize;
    (out, CALLS.load(Ordering::SeqCst), peak)
}

/// A mix of well-formed single-job bodies: the golden request, a week of
/// slack, an origin pinned by a 0 ms SLO, keys out of order and an
/// unknown nested key.
const BODIES: &[&str] = &[
    r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#,
    r#"{"origin":"PL","duration_hours":6,"slack_hours":168,"slo_ms":500,"arrival_hour":19704}"#,
    r#"{"origin":"DE","duration_hours":2,"slack_hours":6,"slo_ms":100,"arrival_hour":20000}"#,
    r#"{"slo_ms":0,"arrival_hour":21000,"duration_hours":12,"origin":"US-CA"}"#,
    r#"{"origin":"IN-WE","duration_hours":1,"x":{"y":[1,{"z":null}]},"slo_ms":150}"#,
    r#"{"origin":"SE","duration_hours":3,"slack_hours":24,"slo_ms":50,"arrival_hour":22000}"#,
];

/// `count` keep-alive `POST /v1/place` requests, cycling through
/// [`BODIES`], as one pipelined byte stream.
fn pipelined(count: usize) -> Vec<u8> {
    let mut raw = Vec::new();
    for body in BODIES.iter().cycle().take(count) {
        write!(
            raw,
            "POST /v1/place HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
    }
    raw
}

#[test]
fn a_steady_state_keep_alive_placement_allocates_nothing() {
    let _serial = serial();
    let svc = PlacementService::new(builtin_dataset());
    let (short, long) = (pipelined(BODIES.len()), pipelined(BODIES.len() + 96));
    let serve = |raw: &[u8]| {
        let mut reader = BufReader::new(raw);
        let mut sink = std::io::sink();
        handle_connection(&svc, &mut reader, &mut sink, u64::MAX)
    };
    // Warm the placement scan's per-thread queue.
    serve(&long);
    let (served_short, short_calls, _) = counted(|| serve(&short));
    let (served_long, long_calls, _) = counted(|| serve(&long));
    assert_eq!((served_short, served_long), (6, 102));
    // Each connection allocates its buffers once; the 96 extra
    // placements add no allocator call at all.
    assert_eq!(
        long_calls,
        short_calls,
        "{} allocations per extra placement",
        (long_calls as f64 - short_calls as f64) / 96.0
    );
    // Every answer was a placement, not an error envelope.
    let mut out = Vec::new();
    handle_connection(&svc, &mut BufReader::new(&long[..]), &mut out, u64::MAX);
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 102);
    assert_eq!(text.matches("\"region\": ").count(), 102);
}

/// A request holding `body`, built before any count is armed.
fn post(body: &str) -> Request {
    Request::synthetic("POST", "/v1/place", &[], body.as_bytes())
}

/// The most zeros a body under the 1 MiB limit holds as `open` + zeros
/// + `close`.
fn zeros_within_limit(open: &str, close: &str) -> String {
    let limit = decarb_serve::http::MAX_BODY_BYTES;
    let zeros = (limit - open.len() - close.len()).div_ceil(2);
    let body = format!("{open}{}{close}", vec!["0"; zeros].join(","));
    assert!(body.len() <= limit, "{}", body.len());
    body
}

#[test]
fn an_oversized_batch_is_counted_without_being_built() {
    let _serial = serial();
    let svc = PlacementService::new(builtin_dataset());
    let body = zeros_within_limit("[", "]");
    let jobs = body.matches('0').count();
    let req = post(&body);
    let mut out = String::with_capacity(4096);
    let (status, _, peak) = counted(|| svc.handle_into(&req, &mut out));
    assert_eq!(status, 413, "{out}");
    assert_eq!(
        out,
        format!(
            "{{\n  \"error\": {{\n    \"code\": \"batch-too-large\",\n    \"message\": \
             \"batch of {jobs} jobs exceeds the 1000-job limit\"\n  }}\n}}"
        )
    );
    assert!(peak < 1 << 20, "held {peak} B answering a 1 MiB batch");
}

#[test]
fn an_unknown_key_is_skipped_without_being_built() {
    let _serial = serial();
    let svc = PlacementService::new(builtin_dataset());
    let plain = r#"{"origin":"PL","duration_hours":1}"#;
    let (status, expected) = svc.handle(&post(plain));
    assert_eq!(status, 200, "{expected}");
    let body = zeros_within_limit(r#"{"origin":"PL","duration_hours":1,"x":["#, "]}");
    let req = post(&body);
    let mut out = String::with_capacity(4096);
    let (status, _, peak) = counted(|| svc.handle_into(&req, &mut out));
    assert_eq!((status, out.as_str()), (200, expected.as_str()));
    assert!(peak < 1 << 20, "held {peak} B skipping a 1 MiB value");
}
