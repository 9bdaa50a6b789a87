//! Diurnal-template climatology forecaster.
//!
//! §4.3 of the paper shows that most datacenter regions' carbon-intensity
//! repeats with 24-hour (and 168-hour) periods. A climatology that averages
//! the trailing weeks per (hour-of-day, weekday/weekend) bucket therefore
//! captures most of the predictable structure, while smoothing out the
//! sample noise that trips the plain seasonal naive.

use decarb_traces::TimeSeries;

use crate::model::{tail, Forecaster};

/// Hour-of-day / day-type climatology over a trailing window.
///
/// For each of the 48 buckets (24 hours × {weekday, weekend}) the model
/// averages all matching samples in the trailing `window_days` days and
/// predicts the bucket mean. Buckets with no samples fall back to the
/// corresponding hour-of-day mean across both day types, then to the
/// overall mean.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalTemplate {
    window_days: usize,
}

impl Default for DiurnalTemplate {
    fn default() -> Self {
        // Four trailing weeks balances responsiveness to seasonal drift
        // against per-bucket sample counts (≈ 20 weekday / 8 weekend
        // samples per hour bucket).
        Self { window_days: 28 }
    }
}

impl DiurnalTemplate {
    /// Creates a template over the trailing `window_days` days.
    ///
    /// # Panics
    ///
    /// Panics if `window_days` is zero.
    pub fn new(window_days: usize) -> Self {
        assert!(window_days > 0, "window must cover at least one day");
        Self { window_days }
    }

    /// Returns the trailing-window length in days.
    pub fn window_days(&self) -> usize {
        self.window_days
    }
}

impl Forecaster for DiurnalTemplate {
    fn name(&self) -> &'static str {
        "diurnal-template"
    }

    fn predict_into(&self, history: &TimeSeries, horizon: usize, out: &mut Vec<f64>) {
        assert!(!history.is_empty(), "history must be non-empty");
        let (start, window) = tail(history, self.window_days * 24);

        // Accumulate (sum, count) per (hour-of-day, is-weekend) bucket and
        // per hour-of-day regardless of day type.
        let mut bucket = [[0.0f64; 2]; 24];
        let mut bucket_n = [[0usize; 2]; 24];
        let mut hod = [0.0f64; 24];
        let mut hod_n = [0usize; 24];
        let mut total = 0.0;
        for (i, &v) in window.iter().enumerate() {
            let hour = start.plus(i);
            let h = hour.hour_of_day();
            let w = usize::from(hour.is_weekend());
            bucket[h][w] += v;
            bucket_n[h][w] += 1;
            hod[h] += v;
            hod_n[h] += 1;
            total += v;
        }
        let overall = total / window.len() as f64;

        let origin = history.end();
        out.extend((0..horizon).map(|k| {
            let hour = origin.plus(k);
            let h = hour.hour_of_day();
            let w = usize::from(hour.is_weekend());
            if bucket_n[h][w] > 0 {
                bucket[h][w] / bucket_n[h][w] as f64
            } else if hod_n[h] > 0 {
                hod[h] / hod_n[h] as f64
            } else {
                overall
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::time::year_start;
    use decarb_traces::Hour;

    fn diurnal_with_weekend_dip(days: usize) -> TimeSeries {
        // Anchor at a real calendar so weekday/weekend flags are
        // meaningful.
        let start = year_start(2022);
        let values = (0..days * 24)
            .map(|i| {
                let hour = start.plus(i);
                let base = 300.0
                    + 100.0 * (std::f64::consts::TAU * hour.hour_of_day() as f64 / 24.0).sin();
                if hour.is_weekend() {
                    base - 50.0
                } else {
                    base
                }
            })
            .collect();
        TimeSeries::new(start, values)
    }

    #[test]
    fn template_recovers_pure_diurnal_cycle() {
        let history = diurnal_with_weekend_dip(28);
        let model = DiurnalTemplate::default();
        let fc = model.predict(&history, 24);
        let origin = history.end();
        for (k, v) in fc.iter().enumerate() {
            let hour = origin.plus(k);
            let expected = 300.0
                + 100.0 * (std::f64::consts::TAU * hour.hour_of_day() as f64 / 24.0).sin()
                + if hour.is_weekend() { -50.0 } else { 0.0 };
            assert!((v - expected).abs() < 1e-9, "lead {k}: {v} vs {expected}");
        }
    }

    #[test]
    fn weekend_buckets_differ_from_weekday() {
        let history = diurnal_with_weekend_dip(28);
        let model = DiurnalTemplate::default();
        // Predict a full week and split the forecast by day type.
        let fc = model.predict_series(&history, 168);
        let weekday_noon: Vec<f64> = fc
            .iter()
            .filter(|(h, _)| h.hour_of_day() == 12 && !h.is_weekend())
            .map(|(_, v)| v)
            .collect();
        let weekend_noon: Vec<f64> = fc
            .iter()
            .filter(|(h, _)| h.hour_of_day() == 12 && h.is_weekend())
            .map(|(_, v)| v)
            .collect();
        assert!(!weekday_noon.is_empty() && !weekend_noon.is_empty());
        assert!(weekend_noon[0] < weekday_noon[0] - 10.0);
    }

    #[test]
    fn short_history_falls_back_to_hour_means() {
        // Two days of history: some (hour, weekend) buckets may be empty
        // but every hour-of-day bucket has samples.
        let history = diurnal_with_weekend_dip(2);
        let model = DiurnalTemplate::default();
        let fc = model.predict(&history, 48);
        assert_eq!(fc.len(), 48);
        assert!(fc.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn tiny_history_uses_overall_mean() {
        let history = TimeSeries::new(Hour(0), vec![100.0, 200.0]);
        let fc = DiurnalTemplate::new(7).predict(&history, 30);
        // Hours 0 and 1 have samples; all other hours fall back to the
        // overall mean of 150.
        assert!((fc[2] - 150.0).abs() < 1e-9);
        assert!(fc.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn window_accessor_and_validation() {
        assert_eq!(DiurnalTemplate::new(7).window_days(), 7);
        assert_eq!(DiurnalTemplate::default().window_days(), 28);
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_window_panics() {
        DiurnalTemplate::new(0);
    }
}
