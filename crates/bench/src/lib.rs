//! `decarb-bench` — benchmark harness.
//!
//! Three bench targets live under `benches/` (all `harness = false`;
//! the container this workspace builds in has no route to a crates
//! registry, so the timing loop below stands in for criterion):
//!
//! * `figures` — one benchmark group per paper table/figure, timing the
//!   computation behind each at full or reduced scale.
//! * `extensions` — forecasting models, elastic scaling, flexible grid
//!   load, merit-order dispatch, and the online simulator.
//! * `kernels` — ablation benchmarks for the kernels' design choices:
//!   sliding-window minimum vs naive rescan, the two-multiset k-smallest
//!   structure vs per-window sorting, prefix sums vs direct summation,
//!   and FFT periodograms vs brute-force ACF — plus the simulator and
//!   placement-service rows the regression gate watches.
//!
//! Usage: `cargo bench -p decarb-bench` runs everything;
//! `cargo bench -p decarb-bench --bench kernels -- deferral` runs only
//! the rows whose name contains the substring; `DECARB_BENCH_QUICK=1`
//! shrinks the per-benchmark time budget for smoke runs.
//!
//! # Regression gate
//!
//! `DECARB_BENCH_CHECK=crates/bench/baseline.json` arms the gate CI
//! runs on the `kernels` target. `baseline.json` is one JSON object
//! mapping each gated row name to its baseline mean in integer
//! nanoseconds; `BASELINE.md` records where those means came from.
//! [`Harness::finish`] fails a row that runs more than [`MAX_RATIO`]
//! times its baseline, and a row a run without a name filter did not
//! measure, so a renamed or deleted bench cannot drop out of the gate.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use decarb_json::Value;

/// A gated row fails when its mean exceeds this multiple of its
/// baseline mean.
pub const MAX_RATIO: f64 = 2.0;

/// A minimal benchmark runner: measures each closure over an adaptive
/// iteration count within a fixed per-benchmark time budget and prints
/// one aligned `name  mean-per-iter (iters)` line. With
/// `DECARB_BENCH_CHECK` set, [`Harness::finish`] gates the measured
/// rows against the baseline file it names (see the crate docs).
pub struct Harness {
    filter: Option<String>,
    budget: Duration,
    /// The armed gate: the baseline file's path and its rows.
    check: Option<(String, Vec<(String, Duration)>)>,
    results: RefCell<Vec<(String, Duration)>>,
}

/// The gate's decision on one baseline row.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// Measured at this mean, within [`MAX_RATIO`] of the baseline.
    Ok(Duration),
    /// Measured at this mean, more than [`MAX_RATIO`] × the baseline.
    Regressed(Duration),
    /// Selected by the run's name filter (or the run had none), but
    /// never measured.
    Missing,
    /// Excluded by the run's name filter.
    Skipped,
}

/// Whether the name filter `filter` selects the row `name`.
fn selects(filter: Option<&str>, name: &str) -> bool {
    filter.is_none_or(|needle| name.contains(needle))
}

/// Reads a baseline file: one JSON object mapping each gated row name
/// to its baseline mean in integer nanoseconds.
fn read_baseline(text: &str) -> Result<Vec<(String, Duration)>, String> {
    let Value::Object(rows) = decarb_json::parse(text).map_err(|e| e.to_string())? else {
        return Err("expected one JSON object of row name → nanoseconds".into());
    };
    rows.into_iter()
        .map(|(name, value)| match value {
            Value::Number(ns) if ns >= 0.0 && ns.fract() == 0.0 => {
                Ok((name, Duration::from_nanos(ns as u64)))
            }
            other => Err(format!(
                "`{name}`: expected integer nanoseconds, found {other}"
            )),
        })
        .collect()
}

/// Judges every baseline row against the measured `results` of a run
/// with name filter `filter`, in baseline order.
fn gate(
    baseline: &[(String, Duration)],
    results: &[(String, Duration)],
    filter: Option<&str>,
) -> Vec<Verdict> {
    baseline
        .iter()
        .map(|(name, base)| {
            if !selects(filter, name) {
                return Verdict::Skipped;
            }
            match results.iter().find(|(measured, _)| measured == name) {
                None => Verdict::Missing,
                Some(&(_, mean)) if ratio(mean, *base) > MAX_RATIO => Verdict::Regressed(mean),
                Some(&(_, mean)) => Verdict::Ok(mean),
            }
        })
        .collect()
}

/// `measured / baseline`, guarding a zero baseline.
fn ratio(measured: Duration, baseline: Duration) -> f64 {
    measured.as_secs_f64() / baseline.as_secs_f64().max(1e-12)
}

impl Harness {
    /// Creates the runner for one bench target, reading the CLI filter
    /// (first non-flag argument after the ones Cargo passes), the
    /// `DECARB_BENCH_QUICK` budget override, and the
    /// `DECARB_BENCH_CHECK` baseline path.
    pub fn from_args(suite: &str) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with("--"))
            .filter(|a| !a.is_empty());
        let quick = std::env::var("DECARB_BENCH_QUICK").is_ok_and(|v| v != "0");
        let budget = if quick {
            Duration::from_millis(150)
        } else {
            Duration::from_millis(900)
        };
        let check = std::env::var("DECARB_BENCH_CHECK")
            .ok()
            .filter(|path| !path.is_empty())
            .map(|path| {
                // Cargo runs bench binaries from the package directory;
                // fall back to workspace-root-relative resolution so
                // `DECARB_BENCH_CHECK=crates/bench/baseline.json` works
                // from the repository root too.
                let candidates = [
                    std::path::PathBuf::from(&path),
                    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join("../../")
                        .join(&path),
                ];
                let text = candidates
                    .iter()
                    .find_map(|p| std::fs::read_to_string(p).ok())
                    .unwrap_or_else(|| panic!("DECARB_BENCH_CHECK={path}: file not found"));
                let baseline = read_baseline(&text)
                    .unwrap_or_else(|e| panic!("DECARB_BENCH_CHECK={path}: {e}"));
                (path, baseline)
            });
        println!("== bench suite: {suite} ==");
        Self {
            filter,
            budget,
            check,
            results: RefCell::new(Vec::new()),
        }
    }

    /// Times `f` and prints its mean per-iteration runtime.
    ///
    /// The first (warmup) call sizes the iteration count so the
    /// measured loop fits the time budget; single calls slower than the
    /// budget run exactly once more.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if !selects(self.filter.as_deref(), name) {
            return;
        }
        let warmup = Instant::now();
        std::hint::black_box(f());
        let once = warmup.elapsed().max(Duration::from_nanos(1));
        let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        let run = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let mean = run.elapsed() / iters;
        println!("{name:<58} {:>12} ({iters} iters)", format_duration(mean));
        self.results.borrow_mut().push((name.to_string(), mean));
    }

    /// Applies the regression gate (when armed) and returns the process
    /// exit code: `0` clean, `1` when any baseline row regressed past
    /// [`MAX_RATIO`] or went unmeasured. Bench mains end with
    /// `std::process::exit(h.finish())`.
    pub fn finish(&self) -> i32 {
        let Some((path, baseline)) = &self.check else {
            return 0;
        };
        println!("== bench check: rows of {path} (fail > {MAX_RATIO:.1}x or unmeasured) ==");
        let verdicts = gate(baseline, &self.results.borrow(), self.filter.as_deref());
        let mut failures = 0usize;
        for ((name, base), verdict) in baseline.iter().zip(verdicts) {
            let measured = |mean: Duration, word: &str| {
                format!(
                    "{:>12} vs {:>12} ({:.2}x) {word}",
                    format_duration(mean),
                    format_duration(*base),
                    ratio(mean, *base),
                )
            };
            let (outcome, failed) = match verdict {
                Verdict::Ok(mean) => (measured(mean, "ok"), false),
                Verdict::Regressed(mean) => (measured(mean, "REGRESSED"), true),
                Verdict::Missing => ("not measured — MISSING".to_string(), true),
                Verdict::Skipped => ("excluded by the name filter".to_string(), false),
            };
            failures += usize::from(failed);
            println!("{name:<58} {outcome}");
        }
        if failures > 0 {
            println!(
                "{failures} of {} baseline rows failed the gate",
                baseline.len()
            );
            1
        } else {
            0
        }
    }
}

/// Formats a duration with an SI-appropriate unit.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_units_scale() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(12)), "12.0 us");
        assert_eq!(format_duration(Duration::from_millis(3)), "3.0 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn every_baseline_row_names_a_kernels_bench() {
        let baseline = read_baseline(include_str!("../baseline.json")).expect("baseline parses");
        assert!(!baseline.is_empty());
        let kernels = include_str!("../benches/kernels.rs");
        for (name, _) in &baseline {
            assert!(
                kernels.contains(&format!("h.bench(\"{name}\"")),
                "baseline row `{name}` names no `h.bench(\"…\")` in benches/kernels.rs"
            );
        }
    }

    #[test]
    fn baseline_rejects_anything_but_integer_nanoseconds() {
        assert_eq!(
            read_baseline(r#"{"a": 5, "b": 0}"#),
            Ok(vec![
                ("a".to_string(), Duration::from_nanos(5)),
                ("b".to_string(), Duration::ZERO)
            ])
        );
        for bad in [
            r#"[1]"#,
            r#"{"a": 1.5}"#,
            r#"{"a": -1}"#,
            r#"{"a": "1 ms"}"#,
        ] {
            assert!(read_baseline(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gate_fails_regressions_and_unmeasured_rows_but_skips_filtered_ones() {
        let ms = Duration::from_millis;
        let baseline: Vec<(String, Duration)> =
            ["kernels/sim/a", "kernels/sim/b", "kernels/serve/c"]
                .into_iter()
                .map(|name| (name.to_string(), ms(10)))
                .collect();
        let results = vec![
            ("kernels/sim/a".to_string(), ms(19)),
            ("kernels/sim/b".to_string(), ms(21)),
            ("kernels/other/unlisted".to_string(), ms(1)),
        ];
        assert_eq!(
            gate(&baseline, &results, None),
            [
                Verdict::Ok(ms(19)),
                Verdict::Regressed(ms(21)),
                Verdict::Missing
            ]
        );
        assert_eq!(
            gate(&baseline, &results, Some("kernels/sim/")),
            [
                Verdict::Ok(ms(19)),
                Verdict::Regressed(ms(21)),
                Verdict::Skipped
            ]
        );
        // A row the filter selects must still be measured.
        assert_eq!(
            gate(&baseline, &results[..1], Some("kernels/sim/")),
            [Verdict::Ok(ms(19)), Verdict::Missing, Verdict::Skipped]
        );

        // `finish` turns the verdicts into the exit code.
        let harness = |filter: Option<&str>| Harness {
            filter: filter.map(str::to_string),
            budget: Duration::from_micros(10),
            check: Some(("baseline.json".to_string(), baseline[..2].to_vec())),
            results: RefCell::new(Vec::new()),
        };
        let unfiltered = harness(None);
        unfiltered.bench("kernels/sim/a", || ());
        assert_eq!(unfiltered.finish(), 1, "kernels/sim/b went unmeasured");
        let filtered = harness(Some("/a"));
        filtered.bench("kernels/sim/a", || ());
        filtered.bench("kernels/sim/b", || ());
        assert_eq!(filtered.finish(), 0, "kernels/sim/b is filtered out");
    }
}
