//! The forecaster interface.

use decarb_traces::{Hour, TimeSeries};

/// A carbon-intensity forecaster.
///
/// A forecaster sees the trace *history* — every hourly sample strictly
/// before the forecast origin `history.end()` — and predicts the next
/// `horizon` hourly values. Implementations must be deterministic: the
/// same history and horizon always produce the same forecast (schedulers
/// built on top rely on replayability).
pub trait Forecaster {
    /// Returns a short model name for tables and reports.
    fn name(&self) -> &'static str;

    /// Appends the `horizon` hourly values following `history.end()` to
    /// `out`, leaving its existing entries untouched.
    ///
    /// Exactly `horizon` entries are appended; the `k`-th is the
    /// prediction for hour `history.end() + k`. This is the one body each
    /// model implements: a caller that plans many windows reuses one
    /// buffer, and [`Forecaster::predict`] wraps it for one-off calls.
    /// Implementations must cope with histories shorter than their
    /// preferred context by degrading gracefully (e.g. falling back to
    /// the history mean), never by panicking, as long as the history
    /// holds at least one sample.
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty.
    fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>);

    /// Predicts the `horizon` hourly values following `history.end()`
    /// into a fresh vector (see [`Forecaster::predict_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `history` is empty.
    fn predict(&self, history: &TimeSeries, horizon: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(horizon);
        self.predict_into(history, horizon, &mut out);
        out
    }

    /// Predicts and wraps the result as a [`TimeSeries`] anchored at the
    /// forecast origin.
    fn predict_series(&self, history: &TimeSeries, horizon: usize) -> TimeSeries {
        TimeSeries::new(history.end(), self.predict(history, horizon))
    }
}

/// A boxed model forecasts like the model it holds, so a caller can pick
/// the model at run time.
impl<F: Forecaster + ?Sized> Forecaster for Box<F> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>) {
        (**self).predict_into(history, horizon, out)
    }
}

/// The minimum history (in hours) a forecaster can always rely on in the
/// rolling backtests of this workspace: one week of hourly samples.
pub const MIN_HISTORY_HOURS: usize = 168;

/// The history (in wall-clock hours) handed to a forecaster at each
/// decision: four weeks, so weekly seasonality is seen four times.
/// Online policies, `/v1/forecast` and the default backtest all use it.
pub const HISTORY_HOURS: usize = 28 * 24;

/// Slices the history a forecaster may see at `now`: every sample of
/// `series` strictly before `now`, capped at `max_slots` samples.
/// `None` when nothing precedes `now`. The slice is a view onto
/// `series`' buffer, so a decision copies no history.
pub fn visible_history(series: &TimeSeries, now: Hour, max_slots: usize) -> Option<TimeSeries> {
    let available = now.0.checked_sub(series.start().0)? as usize;
    if available == 0 {
        return None;
    }
    let len = available.min(max_slots);
    series.slice(Hour(now.0 - len as u32), len).ok()
}

/// Returns the trailing `len` samples of `history` (or everything when the
/// history is shorter), with the absolute hour of the first returned
/// sample.
///
/// Convenience shared by the concrete models.
pub(crate) fn tail(history: &TimeSeries, len: usize) -> (Hour, &[f64]) {
    let values = history.values();
    let skip = values.len().saturating_sub(len);
    (history.start().plus(skip), &values[skip..])
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat;
    impl Forecaster for Flat {
        fn name(&self) -> &'static str {
            "flat"
        }
        fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>) {
            assert!(!history.is_empty(), "history must be non-empty");
            out.resize(out.len() + horizon, history.mean());
        }
    }

    #[test]
    fn predict_series_is_anchored_at_origin() {
        let history = TimeSeries::new(Hour(5), vec![1.0, 3.0]);
        let fc = Flat.predict_series(&history, 3);
        assert_eq!(fc.start(), Hour(7));
        assert_eq!(fc.len(), 3);
        assert_eq!(fc.values(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn visible_history_never_leaks_the_future() {
        let series = TimeSeries::new(Hour(10), (0..200).map(f64::from).collect());
        let now = series.start().plus(100);
        let history = visible_history(&series, now, 48).unwrap();
        assert_eq!(history.end(), now);
        assert_eq!(history.len(), 48);
        // At the trace start there is no history.
        assert!(visible_history(&series, series.start(), 48).is_none());
        // Before the trace start: also none.
        assert!(visible_history(&series, Hour(series.start().0 - 1), 48).is_none());
        // An empty series has none anywhere.
        assert!(visible_history(&TimeSeries::new(Hour(10), Vec::new()), Hour(50), 48).is_none());
    }

    #[test]
    fn visible_history_is_a_view_onto_the_region_buffer() {
        // The decision path copies no history: the window handed to the
        // forecaster reads the series' own samples.
        let series = TimeSeries::new(Hour(0), (0..2000).map(f64::from).collect());
        let now = series.start().plus(HISTORY_HOURS + 100);
        let history = visible_history(&series, now, HISTORY_HOURS).unwrap();
        let from = (history.start().0 - series.start().0) as usize;
        assert!(std::ptr::eq(
            history.values().as_ptr(),
            &series.values()[from]
        ));
        assert_eq!(
            history.values(),
            &series.values()[from..from + HISTORY_HOURS]
        );
    }

    #[test]
    fn tail_returns_trailing_window() {
        let history = TimeSeries::new(Hour(0), vec![1.0, 2.0, 3.0, 4.0]);
        let (start, values) = tail(&history, 2);
        assert_eq!(start, Hour(2));
        assert_eq!(values, &[3.0, 4.0]);
        // Longer than the history: everything comes back.
        let (start, values) = tail(&history, 10);
        assert_eq!(start, Hour(0));
        assert_eq!(values.len(), 4);
    }

    /// Appending to a non-empty buffer keeps its contents and adds
    /// exactly what `predict` returns, bit for bit.
    fn assert_appends_predict<F: Forecaster + ?Sized>(model: &F, history: &TimeSeries) {
        for horizon in [0, 1, 5, 24, 100] {
            let kept = [-1.5, f64::MAX, 0.25];
            let mut out = kept.to_vec();
            model.predict_into(history, horizon, &mut out);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out[..kept.len()]), bits(&kept), "{}", model.name());
            assert_eq!(
                bits(&out[kept.len()..]),
                bits(&model.predict(history, horizon)),
                "{} over {} samples, horizon {horizon}",
                model.name(),
                history.len()
            );
        }
    }

    #[test]
    fn predict_into_appends_exactly_the_prediction() {
        use crate::{DiurnalTemplate, LinearAr, Persistence, SeasonalNaive};
        use decarb_traces::time::year_start;

        let start = year_start(2022);
        let series = TimeSeries::new(
            start,
            (0..40 * 24)
                .map(|t| 300.0 + 90.0 * ((t % 24) as f64 / 3.0).sin() + (t % 7) as f64 * 1.25)
                .collect(),
        );
        let history = |len: usize| series.slice(start, len).unwrap();
        let period = 24;
        let models: Vec<Box<dyn Forecaster>> = vec![
            Box::new(Persistence),
            Box::new(SeasonalNaive::new(period)),
            Box::new(DiurnalTemplate::default()),
            Box::new(LinearAr::fit(&history(20 * 24)).expect("fits")),
        ];
        for model in &models {
            // A boxed model, and the model it holds.
            for len in [1, period - 5, period, period + 7, 30 * 24] {
                assert_appends_predict(model, &history(len));
                assert_appends_predict(&**model, &history(len));
            }
        }
    }
}
