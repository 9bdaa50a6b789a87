//! Naive forecasting baselines: persistence and seasonal persistence.
//!
//! Any learned forecaster must beat these to justify its complexity; the
//! CarbonCast paper reports the same baselines. On strongly diurnal carbon
//! traces the *seasonal* naive (same hour yesterday) is already hard to
//! beat at day-ahead leads, which is exactly why the paper's §4.3
//! periodicity analysis matters for temporal shifting.

use decarb_traces::{Resolution, TimeSeries};

use crate::model::{tail, Forecaster};

/// Carry-forward persistence: every future hour is predicted to equal the
/// last observed sample.
///
/// Good for the first one or two lead hours; degrades quickly across a
/// diurnal cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Persistence;

impl Forecaster for Persistence {
    fn name(&self) -> &'static str {
        "persistence"
    }

    fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>) {
        assert!(!history.is_empty(), "history must be non-empty");
        let last = history.values().last().copied().unwrap_or(0.0);
        out.resize(out.len() + horizon, last);
    }
}

/// Seasonal naive: the prediction for hour `t` is the observation from
/// `t − period` (e.g. the same hour yesterday for `period = 24`).
///
/// When the horizon extends past one period, predictions wrap within the
/// most recent period of history, so a 96-hour forecast from a daily
/// seasonal naive repeats yesterday four times.
#[derive(Debug, Clone, Copy)]
pub struct SeasonalNaive {
    period: usize,
}

impl SeasonalNaive {
    /// Creates a seasonal naive with an arbitrary period in samples of
    /// the trace axis (hours on hourly data).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "seasonal period must be positive");
        Self { period }
    }

    /// Same hour yesterday (24-hour period), the paper's dominant cycle.
    pub fn daily() -> Self {
        Self::new(24)
    }

    /// One-day period on an axis sampled at `resolution`: 24 samples
    /// hourly, 288 at 5-minute resolution. On a 12×-repeated trace the
    /// prediction is the slot-wise expansion of [`SeasonalNaive::daily`].
    pub fn daily_at(resolution: Resolution) -> Self {
        Self::new(resolution.slots_per_day())
    }

    /// Same hour last week (168-hour period), capturing weekday/weekend
    /// effects.
    pub fn weekly() -> Self {
        Self::new(168)
    }

    /// Returns the seasonal period in samples.
    pub fn period(&self) -> usize {
        self.period
    }
}

impl Forecaster for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }

    fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>) {
        assert!(!history.is_empty(), "history must be non-empty");
        let (_, window) = tail(history, self.period);
        // Whole periods, then the head of one more; with less history
        // than one period, repeat what we have.
        out.reserve(horizon);
        let mut left = horizon;
        while left > 0 {
            let take = left.min(window.len());
            out.extend_from_slice(&window[..take]);
            left -= take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::Hour;

    fn diurnal(days: usize) -> TimeSeries {
        let values = (0..days * 24)
            .map(|t| 300.0 + 100.0 * (std::f64::consts::TAU * (t % 24) as f64 / 24.0).sin())
            .collect();
        TimeSeries::new(Hour(0), values)
    }

    #[test]
    fn persistence_repeats_last_value() {
        let history = TimeSeries::new(Hour(0), vec![10.0, 20.0, 30.0]);
        let fc = Persistence.predict(&history, 4);
        assert_eq!(fc, vec![30.0; 4]);
    }

    #[test]
    fn seasonal_naive_is_exact_on_pure_cycle() {
        let history = diurnal(10);
        let fc = SeasonalNaive::daily().predict(&history, 48);
        // A pure 24-hour cycle forecasts itself perfectly.
        for (k, v) in fc.iter().enumerate() {
            let expected = 300.0 + 100.0 * (std::f64::consts::TAU * (k % 24) as f64 / 24.0).sin();
            assert!((v - expected).abs() < 1e-9, "lead {k}");
        }
    }

    #[test]
    fn seasonal_naive_wraps_beyond_one_period() {
        let history = TimeSeries::new(Hour(0), vec![1.0, 2.0, 3.0]);
        let fc = SeasonalNaive::new(3).predict(&history, 7);
        assert_eq!(fc, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn short_history_degrades_gracefully() {
        let history = TimeSeries::new(Hour(0), vec![5.0, 7.0]);
        let fc = SeasonalNaive::daily().predict(&history, 5);
        assert_eq!(fc, vec![5.0, 7.0, 5.0, 7.0, 5.0]);
    }

    #[test]
    fn weekly_period_accessor() {
        assert_eq!(SeasonalNaive::weekly().period(), 168);
        assert_eq!(SeasonalNaive::daily().period(), 24);
    }

    #[test]
    fn daily_period_scales_with_resolution() {
        let five = Resolution::from_minutes(5).unwrap();
        assert_eq!(SeasonalNaive::daily_at(five).period(), 288);
        assert_eq!(SeasonalNaive::daily_at(Resolution::HOURLY).period(), 24);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_panics() {
        SeasonalNaive::new(0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_history_panics() {
        Persistence.predict(&TimeSeries::new(Hour(0), vec![]), 1);
    }
}
