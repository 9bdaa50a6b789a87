//! Rolling-origin backtesting and forecast-trace stitching.
//!
//! Two consumers, two entry points:
//!
//! * [`backtest`] answers "how accurate is this model on this region?" —
//!   the CarbonCast-style MAPE table (overall and per lead day);
//! * [`rolling_forecast_trace`] answers "what trace does a scheduler that
//!   refreshes its forecast every `refresh` hours actually believe?" — its
//!   output slots directly into `decarb_core::forecast`'s
//!   schedule-on-believed / account-on-truth machinery, upgrading §6.2's
//!   uniform random error to realistic structured error.

use decarb_traces::{Hour, TimeSeries};

use crate::metrics::{mape_by_lead_day, ForecastErrors};
use crate::model::{visible_history, Forecaster, HISTORY_HOURS};

/// Backtest parameters.
#[derive(Debug, Clone, Copy)]
pub struct BacktestConfig {
    /// Forecast horizon per origin, in hours (CarbonCast forecasts up to
    /// 96 h).
    pub horizon: usize,
    /// Hours between consecutive forecast origins.
    pub stride: usize,
    /// History supplied to the model at each origin, in hours.
    pub history: usize,
}

impl Default for BacktestConfig {
    fn default() -> Self {
        Self {
            horizon: 96,
            stride: 24,
            history: HISTORY_HOURS,
        }
    }
}

/// The outcome of a rolling-origin backtest.
#[derive(Debug, Clone)]
pub struct BacktestReport {
    /// Model name.
    pub model: &'static str,
    /// Pooled error metrics over every forecast hour.
    pub errors: ForecastErrors,
    /// Pooled MAPE (duplicated from `errors` for ergonomic access).
    pub mape_pct: f64,
    /// MAPE per lead day (index 0 = hours 0–23 ahead, …).
    pub mape_by_lead_day: Vec<f64>,
    /// Number of forecast origins evaluated.
    pub origins: usize,
}

/// Runs a rolling-origin backtest of `model` on `series`.
///
/// Forecast origins start at `eval_start` and advance by `config.stride`
/// while the full horizon still fits inside `[eval_start, eval_start +
/// eval_hours)`. At each origin the model sees the trailing
/// `config.history` hours (clamped to what the series holds) and predicts
/// `config.horizon` hours, which are scored against the actual trace.
///
/// # Panics
///
/// Panics if the series does not cover the requested evaluation window or
/// holds no history before `eval_start`.
pub fn backtest(
    model: &dyn Forecaster,
    series: &TimeSeries,
    eval_start: Hour,
    eval_hours: usize,
    config: &BacktestConfig,
) -> BacktestReport {
    assert!(config.horizon > 0, "horizon must be positive");
    assert!(
        eval_start.0 > series.start().0,
        "need history before the evaluation window"
    );
    let mut actuals: Vec<Vec<f64>> = Vec::new();
    let mut predictions: Vec<Vec<f64>> = Vec::new();
    let mut offset = 0usize;
    while offset + config.horizon <= eval_hours {
        let origin = eval_start.plus(offset);
        // The loop bound keeps every window inside the series; if a
        // caller-supplied eval range still escapes it, stop evaluating
        // rather than panic.
        let Some(history) = visible_history(series, origin, config.history) else {
            break;
        };
        let predicted = model.predict(&history, config.horizon);
        let Ok(actual) = series.window(origin, config.horizon) else {
            break;
        };
        actuals.push(actual.to_vec());
        predictions.push(predicted);
        offset += config.stride.max(1);
    }
    let flat_actual: Vec<f64> = actuals.iter().flatten().copied().collect();
    let flat_pred: Vec<f64> = predictions.iter().flatten().copied().collect();
    let pairs: Vec<(&[f64], &[f64])> = actuals
        .iter()
        .zip(&predictions)
        .map(|(a, p)| (a.as_slice(), p.as_slice()))
        .collect();
    let errors = ForecastErrors::of(&flat_actual, &flat_pred);
    BacktestReport {
        model: model.name(),
        mape_pct: errors.mape_pct,
        errors,
        mape_by_lead_day: mape_by_lead_day(&pairs, config.horizon),
        origins: actuals.len(),
    }
}

/// Stitches rolling forecasts into the "believed" trace of a scheduler
/// that refreshes its forecast every `refresh` hours.
///
/// The returned series covers `[eval_start, eval_start + eval_hours)`;
/// the value at hour `t` is the model's prediction for `t` issued at the
/// most recent refresh boundary at or before `t`. A scheduler planning
/// against this series experiences exactly the lead-time-dependent error
/// a real forecast pipeline would give it: fresh (accurate) values right
/// after a refresh, stale (drifted) values just before the next one.
///
/// # Panics
///
/// Panics if the series does not cover the window, holds no history
/// before `eval_start`, or `refresh` is zero.
pub fn rolling_forecast_trace(
    model: &dyn Forecaster,
    series: &TimeSeries,
    eval_start: Hour,
    eval_hours: usize,
    refresh: usize,
    history: usize,
) -> TimeSeries {
    assert!(refresh > 0, "refresh interval must be positive");
    assert!(
        eval_start.0 > series.start().0,
        "need history before the evaluation window"
    );
    let mut values = Vec::with_capacity(eval_hours);
    let mut offset = 0usize;
    while offset < eval_hours {
        let origin = eval_start.plus(offset);
        let chunk = refresh.min(eval_hours - offset);
        let Some(hist) = visible_history(series, origin, history) else {
            break;
        };
        model.predict_into(&hist, chunk, &mut values);
        offset += chunk;
    }
    TimeSeries::new(eval_start, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{Persistence, SeasonalNaive};
    use crate::template::DiurnalTemplate;
    use decarb_traces::time::year_start;

    fn noisy_diurnal(days: usize, amp: f64, seed: u64) -> TimeSeries {
        let start = year_start(2022);
        let mut state = seed | 1;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let values = (0..days * 24)
            .map(|i| {
                let hour = start.plus(i);
                300.0
                    + amp * (std::f64::consts::TAU * hour.hour_of_day() as f64 / 24.0).sin()
                    + 5.0 * noise()
            })
            .collect();
        TimeSeries::new(start, values)
    }

    #[test]
    fn backtest_counts_origins() {
        let series = noisy_diurnal(60, 100.0, 3);
        let eval_start = series.start().plus(30 * 24);
        let cfg = BacktestConfig {
            horizon: 24,
            stride: 24,
            history: 7 * 24,
        };
        let report = backtest(&Persistence, &series, eval_start, 10 * 24, &cfg);
        assert_eq!(report.origins, 10);
        assert_eq!(report.mape_by_lead_day.len(), 1);
        assert_eq!(report.model, "persistence");
    }

    #[test]
    fn seasonal_beats_persistence_on_diurnal_trace() {
        let series = noisy_diurnal(90, 100.0, 7);
        let eval_start = series.start().plus(45 * 24);
        let cfg = BacktestConfig::default();
        let seasonal = backtest(&SeasonalNaive::daily(), &series, eval_start, 30 * 24, &cfg);
        let persistence = backtest(&Persistence, &series, eval_start, 30 * 24, &cfg);
        assert!(
            seasonal.mape_pct < persistence.mape_pct,
            "seasonal {:.2}% vs persistence {:.2}%",
            seasonal.mape_pct,
            persistence.mape_pct
        );
    }

    #[test]
    fn template_smooths_noise_better_than_seasonal_naive() {
        let series = noisy_diurnal(120, 30.0, 99);
        let eval_start = series.start().plus(60 * 24);
        let cfg = BacktestConfig::default();
        let template = backtest(
            &DiurnalTemplate::default(),
            &series,
            eval_start,
            40 * 24,
            &cfg,
        );
        let naive = backtest(&SeasonalNaive::daily(), &series, eval_start, 40 * 24, &cfg);
        assert!(
            template.mape_pct <= naive.mape_pct,
            "template {:.2}% vs naive {:.2}%",
            template.mape_pct,
            naive.mape_pct
        );
    }

    #[test]
    fn persistence_error_grows_with_lead_day() {
        let series = noisy_diurnal(90, 100.0, 21);
        let eval_start = series.start().plus(45 * 24);
        let cfg = BacktestConfig::default();
        let report = backtest(&Persistence, &series, eval_start, 30 * 24, &cfg);
        assert_eq!(report.mape_by_lead_day.len(), 4);
        // Flat persistence across a strong cycle: every lead day is bad,
        // but day 1 is never *worse* than the pooled tail by much. The
        // robust claim: pooled MAPE is large.
        assert!(report.mape_pct > 10.0);
    }

    #[test]
    fn rolling_trace_covers_window_exactly() {
        let series = noisy_diurnal(60, 100.0, 5);
        let eval_start = series.start().plus(30 * 24);
        let believed = rolling_forecast_trace(
            &SeasonalNaive::daily(),
            &series,
            eval_start,
            20 * 24,
            24,
            28 * 24,
        );
        assert_eq!(believed.start(), eval_start);
        assert_eq!(believed.len(), 20 * 24);
        assert!(believed.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rolling_trace_with_partial_final_chunk() {
        let series = noisy_diurnal(40, 50.0, 11);
        let eval_start = series.start().plus(30 * 24);
        let believed = rolling_forecast_trace(&Persistence, &series, eval_start, 30, 24, 7 * 24);
        assert_eq!(believed.len(), 30);
    }

    #[test]
    fn fresh_forecasts_track_truth_closely_right_after_refresh() {
        let series = noisy_diurnal(60, 100.0, 13);
        let eval_start = series.start().plus(30 * 24);
        let believed = rolling_forecast_trace(
            &SeasonalNaive::daily(),
            &series,
            eval_start,
            10 * 24,
            24,
            28 * 24,
        );
        // At each refresh boundary, the 1-hour-ahead prediction is the
        // value 24 h earlier — tightly correlated with the truth on a
        // diurnal trace.
        let mut total_err = 0.0;
        let mut n = 0;
        for day in 0..10 {
            let h = eval_start.plus(day * 24);
            total_err += (believed.get(h) - series.get(h)).abs();
            n += 1;
        }
        assert!(total_err / n as f64 / 300.0 < 0.1, "mean fresh error < 10%");
    }

    #[test]
    #[should_panic(expected = "refresh interval must be positive")]
    fn zero_refresh_panics() {
        let series = noisy_diurnal(10, 10.0, 1);
        rolling_forecast_trace(&Persistence, &series, series.start().plus(24), 10, 0, 24);
    }

    #[test]
    #[should_panic(expected = "history before the evaluation window")]
    fn eval_at_series_start_panics() {
        let series = noisy_diurnal(10, 10.0, 1);
        let cfg = BacktestConfig::default();
        backtest(&Persistence, &series, series.start(), 48, &cfg);
    }
}
