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
//! * `kernels` — ablation benchmarks for the design choices documented
//!   in `DESIGN.md` §4: sliding-window minimum vs naive rescan, the
//!   two-multiset k-smallest structure vs per-window sorting, prefix
//!   sums vs direct summation, and FFT periodograms vs brute-force ACF.
//!
//! Usage: `cargo bench -p decarb-bench` runs everything;
//! `cargo bench -p decarb-bench --bench kernels -- deferral` filters by
//! substring; `DECARB_BENCH_QUICK=1` shrinks the per-benchmark time
//! budget for smoke runs; `DECARB_BENCH_PRINT=1` additionally prints
//! each figure's regenerated tables so a bench log doubles as a
//! reproduction run.

use std::time::{Duration, Instant};

/// Whether the bench log should also print each experiment's tables.
pub fn print_tables() -> bool {
    std::env::var("DECARB_BENCH_PRINT").is_ok_and(|v| v != "0")
}

/// A minimal benchmark runner: measures each closure over an adaptive
/// iteration count within a fixed per-benchmark time budget and prints
/// one aligned `name  mean-per-iter (iters)` line.
///
/// # Regression check mode
///
/// Setting `DECARB_BENCH_CHECK=<path to BASELINE.md>` arms a threshold
/// gate: every measured row whose name starts with
/// `DECARB_BENCH_CHECK_FILTER` (default `kernels/sim/`) and appears in
/// the baseline file is compared against the recorded mean, and
/// [`Harness::finish`] returns a nonzero exit code when any row runs
/// more than `DECARB_BENCH_CHECK_MAX_RATIO` (default 2.0) times slower
/// — the CI "Bench smoke" gate.
pub struct Harness {
    filter: Option<String>,
    budget: Duration,
    check: Option<CheckConfig>,
    results: std::cell::RefCell<Vec<(String, Duration)>>,
}

/// The armed regression gate: baseline rows plus thresholds.
struct CheckConfig {
    path: String,
    prefix: String,
    max_ratio: f64,
    baseline: std::collections::HashMap<String, Duration>,
}

/// Parses `name  value unit (N iters)` rows out of a BASELINE.md file.
/// Later occurrences of a name override earlier ones, so re-recorded
/// addendum rows win over the original table.
pub fn parse_baseline(text: &str) -> std::collections::HashMap<String, Duration> {
    let mut rows = std::collections::HashMap::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let [name, value, unit, iters, tail] = tokens[..] else {
            continue;
        };
        if !iters.starts_with('(') || tail != "iters)" {
            continue;
        }
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let nanos = match unit {
            "ns" => value,
            "us" => value * 1e3,
            "ms" => value * 1e6,
            "s" => value * 1e9,
            _ => continue,
        };
        rows.insert(name.to_string(), Duration::from_nanos(nanos as u64));
    }
    rows
}

impl Harness {
    /// Creates the runner for one bench target, reading the CLI filter
    /// (first non-flag argument after the ones Cargo passes), the
    /// `DECARB_BENCH_QUICK` budget override, and the
    /// `DECARB_BENCH_CHECK*` regression-gate configuration.
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
                // `DECARB_BENCH_CHECK=crates/bench/BASELINE.md` works
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
                let prefix = std::env::var("DECARB_BENCH_CHECK_FILTER")
                    .unwrap_or_else(|_| "kernels/sim/".to_string());
                let max_ratio = std::env::var("DECARB_BENCH_CHECK_MAX_RATIO")
                    .ok()
                    .and_then(|raw| raw.parse().ok())
                    .unwrap_or(2.0);
                CheckConfig {
                    baseline: parse_baseline(&text),
                    path,
                    prefix,
                    max_ratio,
                }
            });
        println!("== bench suite: {suite} ==");
        Self {
            filter,
            budget,
            check,
            results: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Times `f` and prints its mean per-iteration runtime.
    ///
    /// The first (warmup) call sizes the iteration count so the
    /// measured loop fits the time budget; single calls slower than the
    /// budget run exactly once more.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(needle) = &self.filter {
            if !name.contains(needle.as_str()) {
                return;
            }
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
    /// exit code: `0` clean, `1` when any checked row regressed beyond
    /// the ratio threshold. Bench mains end with
    /// `std::process::exit(h.finish())`.
    pub fn finish(&self) -> i32 {
        let Some(check) = &self.check else {
            return 0;
        };
        let results = self.results.borrow();
        let mut checked = 0usize;
        let mut failures = 0usize;
        println!(
            "== bench check: `{}*` vs {} (fail > {:.1}x) ==",
            check.prefix, check.path, check.max_ratio
        );
        for (name, measured) in results.iter() {
            if !name.starts_with(check.prefix.as_str()) {
                continue;
            }
            let Some(baseline) = check.baseline.get(name) else {
                println!("{name:<58} no baseline row — skipped");
                continue;
            };
            checked += 1;
            let ratio = measured.as_secs_f64() / baseline.as_secs_f64().max(1e-12);
            let verdict = if ratio > check.max_ratio {
                failures += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{name:<58} {:>12} vs {:>12} ({ratio:.2}x) {verdict}",
                format_duration(*measured),
                format_duration(*baseline),
            );
        }
        if checked == 0 {
            println!("no rows matched the check filter — nothing gated");
        }
        if failures > 0 {
            println!("{failures} of {checked} checked rows regressed beyond the threshold");
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
    fn baseline_parser_reads_bench_rows_and_prefers_later_entries() {
        let text = "\
# Benchmark baseline

```text
kernels/sim/run_year                        2.2 ms (401 iters)
kernels/prefix/prefix_sum_queries            544 ns (10000 iters)
kernels/ksmallest/two_multiset_sliding     582.1 us (1336 iters)
slow/row                                    2.00 s (2 iters)
```

prose lines are ignored, as are before/after tables:
extensions/sim/year     3.0 ms      1.7 ms   (1.76x)

```text
kernels/sim/run_year                        1.1 ms (800 iters)
```
";
        let rows = parse_baseline(text);
        assert_eq!(rows.len(), 4);
        // The re-recorded addendum value wins.
        assert_eq!(
            rows["kernels/sim/run_year"],
            Duration::from_nanos(1_100_000)
        );
        assert_eq!(
            rows["kernels/prefix/prefix_sum_queries"],
            Duration::from_nanos(544)
        );
        assert_eq!(
            rows["kernels/ksmallest/two_multiset_sliding"],
            Duration::from_nanos(582_100)
        );
        assert_eq!(rows["slow/row"], Duration::from_secs(2));
        assert!(!rows.contains_key("extensions/sim/year"));
    }

    #[test]
    fn baseline_parser_survives_the_real_baseline_file() {
        let text = include_str!("../BASELINE.md");
        let rows = parse_baseline(text);
        assert!(rows.len() > 30, "found {} rows", rows.len());
        assert!(rows.contains_key("kernels/sim/scenario_batch_deferral_europe"));
    }
}
