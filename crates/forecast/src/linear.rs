//! Ridge-regularized autoregression with calendar features.
//!
//! The closest linear stand-in for CarbonCast's learned model: a one-step
//! predictor on lagged carbon-intensity values and hour-of-day harmonics,
//! rolled out recursively for multi-day horizons. Short lags capture the
//! local trend, the 24-/168-hour lags capture the periodic structure §4.3
//! establishes, and the harmonics let the model correct phase where the
//! seasonal lags alone are biased.

use decarb_traces::{Hour, TimeSeries};

use crate::linalg::ridge;
use crate::model::{tail, Forecaster};

/// The autoregressive lags, in hours.
///
/// 1–3 h for local trend; 24/25 h for the diurnal cycle (and its phase
/// drift); 168 h for the weekly cycle.
pub const LAGS: [usize; 6] = [1, 2, 3, 24, 25, 168];

/// Largest lag in [`LAGS`] (they are sorted ascending; pinned by test).
const MAX_LAG: usize = LAGS[LAGS.len() - 1];

/// Number of features: the lags, sin/cos of the daily harmonic, sin/cos of
/// the half-daily harmonic, a weekend flag, and an intercept.
const N_FEATURES: usize = LAGS.len() + 5;

/// A fitted linear autoregressive forecaster.
///
/// Fit once on a training slice with [`LinearAr::fit`], then call
/// [`Forecaster::predict`] at any later origin; prediction uses only the
/// frozen weights and the supplied history, so one fitted model serves a
/// whole rolling backtest.
#[derive(Debug, Clone)]
pub struct LinearAr {
    weights: Vec<f64>,
    /// Mean of the training targets; the fallback prediction when the
    /// history is too short for the longest lag.
    train_mean: f64,
}

/// Builds the feature row for predicting the value at `hour`, where
/// `value_at(k)` returns the (true or already-predicted) value `k` hours
/// before `hour`.
fn features(hour: Hour, mut value_at: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut row = Vec::with_capacity(N_FEATURES);
    for &lag in &LAGS {
        row.push(value_at(lag));
    }
    let phase = std::f64::consts::TAU * hour.hour_of_day() as f64 / 24.0;
    row.push(phase.sin());
    row.push(phase.cos());
    row.push((2.0 * phase).sin());
    row.push((2.0 * phase).cos());
    row.push(if hour.is_weekend() { 1.0 } else { 0.0 });
    row
}

impl LinearAr {
    /// The ridge penalty; small enough to be inert on well-conditioned
    /// fits, large enough to keep collinear seasonal lags stable.
    pub const LAMBDA: f64 = 1e-3;

    /// Fits the model on `train` by least squares over every hour with a
    /// full lag window.
    ///
    /// Returns `None` when the training slice is shorter than the longest
    /// lag plus one target (≤ 168 samples) or the normal equations are
    /// singular.
    ///
    /// # Examples
    ///
    /// ```
    /// use decarb_forecast::{Forecaster, LinearAr};
    /// use decarb_traces::builtin_dataset;
    /// use decarb_traces::time::year_start;
    ///
    /// let data = builtin_dataset();
    /// let series = data.series("US-CA").unwrap();
    /// let train = series.slice(year_start(2021), 8760).unwrap();
    /// let model = LinearAr::fit(&train).unwrap();
    /// let next_day = model.predict(&train, 24);
    /// assert_eq!(next_day.len(), 24);
    /// ```
    pub fn fit(train: &TimeSeries) -> Option<Self> {
        let max_lag = MAX_LAG;
        let values = train.values();
        if values.len() <= max_lag {
            return None;
        }
        let mut rows = Vec::with_capacity(values.len() - max_lag);
        let mut targets = Vec::with_capacity(values.len() - max_lag);
        for t in max_lag..values.len() {
            let hour = train.start().plus(t);
            let mut row = features(hour, |k| values[t - k]);
            row.push(1.0); // Intercept.
            debug_assert_eq!(row.len(), N_FEATURES + 1);
            rows.push(row);
            targets.push(values[t]);
        }
        let weights = ridge(&rows, &targets, Self::LAMBDA)?;
        let train_mean = targets.iter().sum::<f64>() / targets.len() as f64;
        Some(Self {
            weights,
            train_mean,
        })
    }

    /// Returns the fitted weights (lags, harmonics, weekend flag,
    /// intercept), mostly for inspection and tests.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// One-step prediction given a closure over past values.
    fn step(&self, hour: Hour, value_at: impl FnMut(usize) -> f64) -> f64 {
        let mut row = features(hour, value_at);
        row.push(1.0);
        row.iter()
            .zip(&self.weights)
            .map(|(f, w)| f * w)
            .sum::<f64>()
            .max(0.0) // Carbon-intensity cannot be negative.
    }
}

impl Forecaster for LinearAr {
    fn name(&self) -> &'static str {
        "linear-ar"
    }

    fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>) {
        assert!(!history.is_empty(), "history must be non-empty");
        let max_lag = MAX_LAG;
        let (_, window) = tail(history, max_lag);
        if window.len() < max_lag {
            // Not enough context for the longest lag: degrade to the
            // training mean, as documented on the trait.
            out.resize(out.len() + horizon, self.train_mean);
            return;
        }
        let origin = history.end();
        // Rolling buffer of the last `max_lag` values, true history first,
        // then our own predictions as the rollout proceeds.
        let mut buffer: Vec<f64> = window.to_vec();
        out.reserve(horizon);
        for k in 0..horizon {
            let hour = origin.plus(k);
            let len = buffer.len();
            let v = self.step(hour, |lag| buffer[len - lag]);
            buffer.push(v);
            // Keep the buffer bounded: only the last `max_lag` entries are
            // ever read.
            if buffer.len() > 2 * max_lag {
                buffer.drain(..buffer.len() - max_lag);
            }
            out.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::time::year_start;

    fn diurnal(days: usize, noise_seed: Option<u64>) -> TimeSeries {
        let start = year_start(2022);
        let mut state = noise_seed.unwrap_or(0);
        let mut noise = move || {
            if noise_seed.is_none() {
                return 0.0;
            }
            // Tiny xorshift; determinism matters more than quality here.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let values = (0..days * 24)
            .map(|i| {
                let hour = start.plus(i);
                300.0
                    + 100.0 * (std::f64::consts::TAU * hour.hour_of_day() as f64 / 24.0).sin()
                    + 10.0 * noise()
            })
            .collect();
        TimeSeries::new(start, values)
    }

    #[test]
    fn lags_sorted_so_max_lag_is_last() {
        assert!(LAGS.windows(2).all(|w| w[0] < w[1]), "LAGS must be sorted");
        assert_eq!(MAX_LAG, LAGS.iter().copied().max().unwrap());
    }

    #[test]
    fn fit_requires_enough_history() {
        assert!(LinearAr::fit(&diurnal(14, None)).is_some());
        // Exactly the longest lag leaves no target hour to train on.
        let short = TimeSeries::new(Hour(0), vec![1.0; 168]);
        assert!(LinearAr::fit(&short).is_none());
    }

    #[test]
    fn nearly_exact_on_pure_cycle() {
        let train = diurnal(60, None);
        let model = LinearAr::fit(&train).unwrap();
        let history = diurnal(30, None);
        let fc = model.predict(&history, 48);
        let origin = history.end();
        for (k, v) in fc.iter().enumerate() {
            let hour = origin.plus(k);
            let expected =
                300.0 + 100.0 * (std::f64::consts::TAU * hour.hour_of_day() as f64 / 24.0).sin();
            assert!((v - expected).abs() < 1.0, "lead {k}: {v} vs {expected}");
        }
    }

    #[test]
    fn beats_persistence_on_noisy_cycle() {
        use crate::metrics::mape_pct;
        use crate::naive::Persistence;
        let train = diurnal(90, Some(12345));
        let model = LinearAr::fit(&train).unwrap();
        let full = diurnal(120, Some(777));
        let history = full.slice(full.start(), 90 * 24).unwrap();
        let actual = &full.values()[90 * 24..90 * 24 + 48];
        let ar = model.predict(&history, 48);
        let pers = Persistence.predict(&history, 48);
        let ar_err = mape_pct(actual, &ar);
        let pers_err = mape_pct(actual, &pers);
        assert!(
            ar_err < pers_err,
            "AR {ar_err:.2}% should beat persistence {pers_err:.2}%"
        );
    }

    #[test]
    fn short_history_falls_back_to_train_mean() {
        let train = diurnal(30, None);
        let model = LinearAr::fit(&train).unwrap();
        let tiny = TimeSeries::new(Hour(0), vec![50.0; 24]);
        let fc = model.predict(&tiny, 5);
        assert!(fc.iter().all(|v| (*v - model.train_mean).abs() < 1e-9));
    }

    #[test]
    fn predictions_never_negative() {
        // A decaying trace can push a linear extrapolation below zero; the
        // model clamps.
        let values: Vec<f64> = (0..400).map(|t| (400 - t) as f64 * 0.5).collect();
        let train = TimeSeries::new(year_start(2022), values);
        if let Some(model) = LinearAr::fit(&train) {
            let fc = model.predict(&train, 300);
            assert!(fc.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn weight_vector_has_expected_dimension() {
        let model = LinearAr::fit(&diurnal(30, None)).unwrap();
        assert_eq!(model.weights().len(), LAGS.len() + 5 + 1);
    }

    #[test]
    fn long_rollout_stays_bounded() {
        let train = diurnal(60, Some(9));
        let model = LinearAr::fit(&train).unwrap();
        let fc = model.predict(&train, 24 * 30);
        assert_eq!(fc.len(), 24 * 30);
        assert!(fc.iter().all(|v| v.is_finite() && *v >= 0.0 && *v < 2000.0));
    }
}
