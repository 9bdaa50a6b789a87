//! Hand-built containers whose headers promise more than the file
//! holds must be rejected with a typed error before anything is
//! allocated for the promise.
//!
//! A counting global allocator records the peak bytes the process holds
//! while a decode runs, on every thread, so the test fails if a header
//! count reaches an allocation, not only if the allocation aborts the
//! process. The same count pins that loading a file holds about one
//! copy of it, with the decode workers' buffers included. The tests
//! take one lock, so no other test of this file allocates while a count
//! is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use decarb_traces::container::{self, content_hash, decode, encode, probe};
use decarb_traces::{catalog, Hour, Region, TimeSeries, TraceError, TraceSet};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Held by every test of this file for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn note(delta: isize) {
    if ARMED.load(Ordering::SeqCst) {
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
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak bytes the process
/// held, on any thread, while it ran. Callers hold [`serial`].
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst).max(0) as usize)
}

fn packed() -> Vec<u8> {
    let set = TraceSet::from_series(
        ["SE", "DE", "FR"]
            .iter()
            .map(|code| {
                let region = catalog::region(code).unwrap().clone();
                (region, TimeSeries::new(Hour(0), vec![50.0; 48]))
            })
            .chain(std::iter::once((
                Region::user("XX-NEW"),
                TimeSeries::new(Hour(0), vec![75.0; 48]),
            )))
            .collect(),
    );
    encode(&set).unwrap()
}

/// Overwrites header fields (`(offset, bytes)` pairs) and optionally
/// recomputes the trailer, so the file is either stale or consistent.
fn patched(fields: &[(usize, &[u8])], valid_trailer: bool) -> Vec<u8> {
    let mut bytes = packed();
    for &(at, value) in fields {
        bytes[at..at + value.len()].copy_from_slice(value);
    }
    if valid_trailer {
        let body = bytes.len() - 8;
        let hash = content_hash(&bytes[..body]);
        bytes[body..].copy_from_slice(&hash.to_le_bytes());
    }
    bytes
}

/// Header offsets of the fields the tests inflate.
const REGIONS_AT: usize = 10;
const HOURS_AT: usize = 20;

/// Decodes and probes `bytes`; both must fail with a container error
/// mentioning `expected`, holding at most twice the file size while
/// they run (a file read ahead holds its metadata block at most).
fn assert_rejected_within_file_size(bytes: &[u8], expected: &str) {
    let (decoded, decode_peak) = peak_bytes(|| decode(bytes, "hostile").map(|_| ()));
    let (probed, probe_peak) = peak_bytes(|| probe(bytes, "hostile").map(|_| ()));
    for (what, result, peak) in [
        ("decode", decoded, decode_peak),
        ("probe", probed, probe_peak),
    ] {
        let err = result.unwrap_err();
        assert!(
            matches!(err, TraceError::Container { .. }),
            "{what}: {err:?}"
        );
        assert!(format!("{err}").contains(expected), "{what}: {err}");
        assert!(
            peak <= 2 * bytes.len(),
            "{what} held {peak} bytes for a {}-byte file",
            bytes.len()
        );
    }
}

#[test]
fn header_promising_2_to_the_40_hours_is_a_typed_error() {
    let _serial = serial();
    for hours in [1u64 << 40, u64::MAX] {
        let fields: &[(usize, &[u8])] = &[(HOURS_AT, &hours.to_le_bytes())];
        assert_rejected_within_file_size(&patched(fields, false), "hash mismatch");
        assert_rejected_within_file_size(&patched(fields, true), "header promises");
    }
}

#[test]
fn header_promising_more_regions_than_the_metadata_holds_is_a_typed_error() {
    let _serial = serial();
    for regions in [5u16, u16::MAX] {
        let regions = regions.to_le_bytes();
        // With the hours kept, the value blocks overrun the file; with
        // zero hours they fit, and the metadata block is what overruns.
        for fields in [
            vec![(REGIONS_AT, &regions[..])],
            vec![(REGIONS_AT, &regions[..]), (HOURS_AT, &[0u8; 8][..])],
        ] {
            assert_rejected_within_file_size(&patched(&fields, false), "hash mismatch");
            assert_rejected_within_file_size(&patched(&fields, true), "header promises");
        }
    }
}

#[test]
fn load_file_holds_about_one_copy_of_the_file() {
    let _serial = serial();
    // 4 regions of 2^18 samples: an 8 MiB body, eight hash pieces.
    let hours = 1 << 18;
    let set = TraceSet::from_series(
        ["SE", "DE", "FR", "PL"]
            .iter()
            .enumerate()
            .map(|(k, code)| {
                let values = (0..hours).map(|i| (k * hours + i) as f64 * 0.5).collect();
                let region = catalog::region(code).unwrap().clone();
                (region, TimeSeries::new(Hour(0), values))
            })
            .collect(),
    );
    let dir = std::env::temp_dir().join(format!("decarb-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("eight-mib.dctr");
    let path = path.to_str().unwrap();
    container::write_file(&set, path).unwrap();
    let file_len = std::fs::metadata(path).unwrap().len() as usize;
    let (loaded, peak) = peak_bytes(|| container::load_file(path).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        loaded.series("PL").unwrap().values(),
        set.series("PL").unwrap().values()
    );
    // The samples plus one 64 KiB piece per decode worker; reading the
    // file whole before decoding it would hold twice the file.
    assert!(
        peak <= file_len + file_len / 4,
        "load held {peak} bytes for a {file_len}-byte file"
    );
}
