//! Order statistics, failure shares and process memory.

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` lies in `(0, 100]`; `values` need
/// not be sorted. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median (the lower middle sample for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `p10/p25/p50/p75/p90/p99` of `values`, for the human-readable log.
pub fn spread(values: &[f64]) -> String {
    let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]
        .iter()
        .map(|&p| format!("{:.6}", percentile(values, p)))
        .collect();
    format!(
        "{} samples, p10/p25/p50/p75/p90/p99 {}",
        values.len(),
        q.join("/")
    )
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `(a - b) / b` in percent; 0 when `b` is 0.
pub fn change_pct(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a - b) / b * 100.0
    }
}

/// `true` when `actual` is within `share` of `expected` (relative to
/// `expected`, or absolute below 1 so zero counts must match exactly).
pub fn within(actual: f64, expected: f64, share: f64) -> bool {
    (actual - expected).abs() <= share * expected.abs().max(1.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage` with the C layout
    // of 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.5), 1.0);
        // Ten samples: p50 is the 5th, p99 the 10th (rank ceil(9.9)).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.0);
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn error_rate_is_failed_over_attempted() {
        assert_eq!(error_rate(0, 10), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(3, 3), 1.0);
        assert_eq!(error_rate(0, 0), 0.0);
    }

    #[test]
    fn tolerance_is_relative_with_an_absolute_floor() {
        assert!(within(1000.9, 1000.0, 0.001));
        assert!(!within(1001.1, 1000.0, 0.001));
        assert!(within(0.0, 0.0, 0.001));
        assert!(!within(1.0, 0.0, 0.001));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
