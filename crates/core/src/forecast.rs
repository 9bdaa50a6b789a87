//! Scheduling under carbon-forecast error (§6.2).
//!
//! The paper's upper bounds assume perfect future knowledge; this module
//! quantifies how much a uniform multiplicative forecast error erodes
//! them. A schedule is chosen against the *erroneous* trace, its emissions
//! are accounted against the *true* trace, and the increase is reported
//! relative to error-free scheduling.

use decarb_traces::rng::Xoshiro256;
use decarb_traces::{Hour, TimeSeries};

use crate::temporal::TemporalPlanner;

/// Applies a uniform multiplicative error to a trace: each hourly sample
/// is scaled by `1 + u` with `u ~ U(−error, +error)`.
///
/// # Panics
///
/// Panics if `error` is negative or ≥ 1 (a 100 % error can make
/// carbon-intensity non-positive).
pub fn with_uniform_error(series: &TimeSeries, error: f64, seed: u64) -> TimeSeries {
    assert!(
        (0.0..1.0).contains(&error),
        "forecast error must be in [0, 1)"
    );
    let mut rng = Xoshiro256::seeded(seed);
    let values = series
        .values()
        .iter()
        .map(|&v| v * (1.0 + rng.uniform_in(-error, error)))
        .collect();
    TimeSeries::new(series.start(), values)
}

/// Quantifies the temporal-scheduling emission increase for one region.
///
/// For every arrival in the sweep, a deferred placement is chosen on the
/// erroneous trace and paid for on the true trace; the total is compared
/// with placements chosen on the true trace.
pub fn temporal_increase_pct(
    truth: &TimeSeries,
    erroneous: &TimeSeries,
    sweep_start: Hour,
    count: usize,
    slots: usize,
    slack: usize,
    stride: usize,
) -> f64 {
    let truth_planner = TemporalPlanner::new(truth);
    let err_planner = TemporalPlanner::new(erroneous);
    let mut with_error = 0.0;
    let mut without_error = 0.0;
    let mut a = 0usize;
    while a < count {
        let arrival = sweep_start.plus(a);
        let chosen = err_planner.best_deferred(arrival, slots, slack).start;
        with_error += truth_planner.baseline_cost(chosen, slots);
        without_error += truth_planner.best_deferred(arrival, slots, slack).cost_g;
        a += stride.max(1);
    }
    if without_error <= 0.0 {
        0.0
    } else {
        (with_error - without_error) / without_error * 100.0
    }
}

/// Quantifies the spatial (∞-migration) emission increase across a set of
/// candidate traces: at each hour the region picked as greenest on the
/// erroneous traces is paid at its true CI, compared with the true
/// per-hour minimum.
pub fn spatial_increase_pct(
    truths: &[&TimeSeries],
    erroneous: &[&TimeSeries],
    from: Hour,
    len: usize,
) -> f64 {
    assert_eq!(
        truths.len(),
        erroneous.len(),
        "trace sets must align one-to-one"
    );
    assert!(!truths.is_empty(), "candidate set must be non-empty");
    let mut with_error = 0.0;
    let mut without_error = 0.0;
    for i in 0..len {
        let hour = from.plus(i);
        let Some(chosen) = (0..erroneous.len())
            .min_by(|&a, &b| erroneous[a].get(hour).total_cmp(&erroneous[b].get(hour)))
        else {
            break;
        };
        with_error += truths[chosen].get(hour);
        without_error += truths
            .iter()
            .map(|t| t.get(hour))
            .fold(f64::INFINITY, f64::min);
    }
    if without_error <= 0.0 {
        0.0
    } else {
        (with_error - without_error) / without_error * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, phase: f64) -> TimeSeries {
        let values = (0..n)
            .map(|t| 300.0 + 120.0 * (std::f64::consts::TAU * t as f64 / 24.0 + phase).sin())
            .collect();
        TimeSeries::new(Hour(0), values)
    }

    #[test]
    fn error_bounds_respected() {
        let truth = wave(500, 0.0);
        let noisy = with_uniform_error(&truth, 0.3, 42);
        for ((_, t), (_, e)) in truth.iter().zip(noisy.iter()) {
            assert!(e >= t * 0.7 - 1e-9 && e <= t * 1.3 + 1e-9);
        }
        assert_eq!(noisy.start(), truth.start());
    }

    #[test]
    fn zero_error_changes_nothing() {
        let truth = wave(200, 0.0);
        let same = with_uniform_error(&truth, 0.0, 1);
        for ((_, a), (_, b)) in truth.iter().zip(same.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let pct = temporal_increase_pct(&truth, &same, Hour(0), 100, 2, 48, 1);
        assert!(pct.abs() < 1e-9);
    }

    #[test]
    fn temporal_increase_nonnegative_and_grows() {
        let truth = wave(24 * 40, 0.0);
        let small = with_uniform_error(&truth, 0.1, 7);
        let large = with_uniform_error(&truth, 0.6, 7);
        let p_small = temporal_increase_pct(&truth, &small, Hour(0), 500, 4, 72, 3);
        let p_large = temporal_increase_pct(&truth, &large, Hour(0), 500, 4, 72, 3);
        assert!(p_small >= -1e-9, "small {p_small}");
        assert!(
            p_large >= p_small - 0.5,
            "large {p_large} vs small {p_small}"
        );
        assert!(p_large > 0.0);
    }

    #[test]
    fn spatial_increase_zero_without_error() {
        let a = wave(300, 0.0);
        let b = wave(300, 1.5);
        let truths = vec![&a, &b];
        let pct = spatial_increase_pct(&truths, &truths, Hour(0), 300);
        assert!(pct.abs() < 1e-12);
    }

    #[test]
    fn spatial_increase_positive_with_error() {
        let a = wave(600, 0.0);
        let b = wave(600, 1.5);
        let ea = with_uniform_error(&a, 0.5, 3);
        let eb = with_uniform_error(&b, 0.5, 4);
        let pct = spatial_increase_pct(&[&a, &b], &[&ea, &eb], Hour(0), 600);
        assert!(pct > 0.0, "pct {pct}");
        // Picking the wrong region occasionally cannot more than double
        // emissions for these bounded waves.
        assert!(pct < 60.0, "pct {pct}");
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn error_of_one_panics() {
        with_uniform_error(&wave(10, 0.0), 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "one-to-one")]
    fn mismatched_sets_panic() {
        let a = wave(10, 0.0);
        spatial_increase_pct(&[&a], &[], Hour(0), 5);
    }
}
