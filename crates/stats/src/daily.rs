//! The paper's variability metric: *average daily coefficient of
//! variation* (§4.1, footnote 1).
//!
//! For an hourly signal, each UTC day's CV (σ/μ within the day) is
//! computed, then averaged across days. Regions below 0.1 are classified
//! as "low daily variation"; the paper finds > 70 % of regions fall there.

/// Hours per day used to chunk hourly signals.
const HOURS_PER_DAY: usize = 24;

/// Computes the average daily CV of an hourly signal.
///
/// Trailing partial days are ignored. Days with non-positive mean are
/// skipped. Returns 0.0 if no complete day is available.
pub fn average_daily_cv(hourly: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut days = 0usize;
    for day in hourly.chunks_exact(HOURS_PER_DAY) {
        let mean: f64 = day.iter().sum::<f64>() / HOURS_PER_DAY as f64;
        if mean <= 0.0 {
            continue;
        }
        let var: f64 =
            day.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / HOURS_PER_DAY as f64;
        acc += var.sqrt() / mean;
        days += 1;
    }
    if days == 0 {
        0.0
    } else {
        acc / days as f64
    }
}

/// Classification threshold: daily CV below this is "low variation".
pub const LOW_VARIATION_THRESHOLD: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_has_zero_cv() {
        let signal = vec![100.0; 24 * 7];
        assert_eq!(average_daily_cv(&signal), 0.0);
    }

    #[test]
    fn known_daily_cv() {
        // Alternate 50/150 within each day: mean 100, std 50 → CV 0.5.
        let day: Vec<f64> = (0..24)
            .map(|h| if h % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let signal: Vec<f64> = day.repeat(10);
        assert!((average_daily_cv(&signal) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_day_drift_does_not_count() {
        // Each day is constant, but the level drifts across days: the
        // *daily* CV must still be zero (this is the metric's point).
        let mut signal = Vec::new();
        for d in 0..30 {
            signal.extend(std::iter::repeat_n(100.0 + d as f64 * 10.0, 24));
        }
        assert_eq!(average_daily_cv(&signal), 0.0);
    }

    #[test]
    fn partial_days_ignored() {
        let signal = vec![1.0; 30];
        // Only one complete day; 6 trailing hours dropped.
        assert_eq!(average_daily_cv(&signal), 0.0);
        let short = vec![1.0; 5];
        assert_eq!(average_daily_cv(&short), 0.0);
    }

    #[test]
    fn non_positive_days_skipped() {
        let mut signal = vec![0.0; 24];
        signal.extend(vec![100.0; 24]);
        assert_eq!(average_daily_cv(&signal), 0.0);
    }
}
