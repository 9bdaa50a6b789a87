//! Data-quality validation and repair for imported carbon traces.
//!
//! The built-in synthesizer emits clean data by construction, but the CSV
//! importers accept arbitrary real-world exports, which arrive with the
//! usual defects: missing hours encoded as zeros, sensor spikes, stuck
//! meters repeating one value for days, or NaNs from upstream joins. The
//! scheduling kernels assume strictly positive finite samples, so imports
//! should pass through [`validate`] (and, when acceptable, [`repair`])
//! first.

use crate::series::TimeSeries;
use crate::time::Hour;

/// Thresholds for [`validate`].
#[derive(Debug, Clone, Copy)]
pub struct ValidationConfig {
    /// A sample is a spike when it exceeds `spike_ratio` × (or falls
    /// below 1/ratio of) the mean of its immediate neighbours.
    pub spike_ratio: f64,
    /// A run of at least this many identical consecutive samples is
    /// flagged as a stuck meter.
    pub stuck_run: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            // Real grids rarely triple their CI within one hour; a 3×
            // hour-over-hour excursion against both neighbours is far
            // outside the ramping physics of §2.1.
            spike_ratio: 3.0,
            stuck_run: 24,
        }
    }
}

/// The outcome of validating one trace.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Number of samples inspected.
    pub samples: usize,
    /// Hours holding NaN or ±∞.
    pub non_finite: Vec<Hour>,
    /// Hours holding zero or negative carbon-intensity.
    pub non_positive: Vec<Hour>,
    /// Hours flagged as spikes against both neighbours.
    pub spikes: Vec<Hour>,
    /// Starts and lengths of stuck-meter runs.
    pub stuck_runs: Vec<(Hour, usize)>,
}

impl ValidationReport {
    /// Returns `true` when no defect was found.
    pub fn is_clean(&self) -> bool {
        self.non_finite.is_empty()
            && self.non_positive.is_empty()
            && self.spikes.is_empty()
            && self.stuck_runs.is_empty()
    }
}

/// Validates a trace against `config`.
///
/// # Examples
///
/// ```
/// use decarb_traces::{validate, ValidationConfig, TimeSeries, Hour};
///
/// let dirty = TimeSeries::new(Hour(0), vec![300.0, f64::NAN, 310.0]);
/// let report = validate(&dirty, &ValidationConfig::default());
/// assert_eq!(report.non_finite, vec![Hour(1)]);
/// assert!(!report.is_clean());
/// ```
pub fn validate(series: &TimeSeries, config: &ValidationConfig) -> ValidationReport {
    let values = series.values();
    let start = series.start();
    let mut report = ValidationReport {
        samples: values.len(),
        non_finite: Vec::new(),
        non_positive: Vec::new(),
        spikes: Vec::new(),
        stuck_runs: Vec::new(),
    };
    for (i, &v) in values.iter().enumerate() {
        if !v.is_finite() {
            report.non_finite.push(start.plus(i));
        } else if v <= 0.0 {
            report.non_positive.push(start.plus(i));
        }
    }
    // Spikes: compare each interior sample against its neighbour mean,
    // using only finite positive neighbours.
    for i in 1..values.len().saturating_sub(1) {
        let (prev, here, next) = (values[i - 1], values[i], values[i + 1]);
        if !here.is_finite() || !prev.is_finite() || !next.is_finite() {
            continue;
        }
        if prev <= 0.0 || here <= 0.0 || next <= 0.0 {
            continue;
        }
        let neighbours = (prev + next) / 2.0;
        if here > config.spike_ratio * neighbours || here < neighbours / config.spike_ratio {
            report.spikes.push(start.plus(i));
        }
    }
    // Stuck runs of identical values.
    let mut i = 0usize;
    while i < values.len() {
        let mut j = i + 1;
        while j < values.len() && values[j] == values[i] && values[i].is_finite() {
            j += 1;
        }
        if j - i >= config.stuck_run {
            report.stuck_runs.push((start.plus(i), j - i));
        }
        i = j;
    }
    report
}

/// Repairs a defective trace by linear interpolation.
///
/// Non-finite and non-positive samples are replaced by interpolating the
/// nearest valid samples on each side (extrapolating flat at the edges).
/// Returns `None` when no sample is valid.
pub fn repair(series: &TimeSeries) -> Option<TimeSeries> {
    let values = series.values();
    let valid = |v: f64| v.is_finite() && v > 0.0;
    if !values.iter().any(|&v| valid(v)) {
        return None;
    }
    let mut out = values.to_vec();
    let n = out.len();
    let mut i = 0usize;
    while i < n {
        if valid(out[i]) {
            i += 1;
            continue;
        }
        // Find the defective run [i, j).
        let mut j = i;
        while j < n && !valid(out[j]) {
            j += 1;
        }
        let left = if i > 0 { Some(out[i - 1]) } else { None };
        let right = if j < n { Some(out[j]) } else { None };
        for (offset, slot) in out[i..j].iter_mut().enumerate() {
            *slot = match (left, right) {
                (Some(l), Some(r)) => {
                    let t = (offset + 1) as f64 / (j - i + 1) as f64;
                    l + (r - l) * t
                }
                (Some(l), None) => l,
                (None, Some(r)) => r,
                (None, None) => unreachable!("checked above that some sample is valid"),
            };
        }
        i = j;
    }
    Some(TimeSeries::new(series.start(), out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        TimeSeries::new(Hour(100), values.to_vec())
    }

    #[test]
    fn clean_trace_passes() {
        let s = series(&[300.0, 310.0, 290.0, 305.0, 295.0]);
        let report = validate(&s, &ValidationConfig::default());
        assert!(report.is_clean());
        assert_eq!(report.samples, 5);
    }

    #[test]
    fn non_finite_and_non_positive_flagged() {
        let s = series(&[300.0, f64::NAN, -5.0, 0.0, 310.0]);
        let report = validate(&s, &ValidationConfig::default());
        assert_eq!(report.non_finite, vec![Hour(101)]);
        assert_eq!(report.non_positive, vec![Hour(102), Hour(103)]);
        assert!(!report.is_clean());
    }

    #[test]
    fn spikes_detected_in_both_directions() {
        let s = series(&[300.0, 300.0, 1200.0, 300.0, 80.0, 300.0, 300.0]);
        let report = validate(&s, &ValidationConfig::default());
        assert_eq!(report.spikes, vec![Hour(102), Hour(104)]);
    }

    #[test]
    fn gentle_ramps_are_not_spikes() {
        // A 2× hour-over-hour rise stays under the 3× default ratio.
        let s = series(&[100.0, 200.0, 380.0, 200.0, 100.0]);
        let report = validate(&s, &ValidationConfig::default());
        assert!(report.spikes.is_empty(), "{:?}", report.spikes);
    }

    #[test]
    fn stuck_meter_detected() {
        let mut values = vec![250.0; 30];
        values.extend([300.0, 310.0, 320.0]);
        let report = validate(&series(&values), &ValidationConfig::default());
        assert_eq!(report.stuck_runs, vec![(Hour(100), 30)]);
        // Shorter runs pass.
        let short = vec![250.0; 10];
        assert!(validate(&series(&short), &ValidationConfig::default())
            .stuck_runs
            .is_empty());
    }

    #[test]
    fn repair_interpolates_interior_runs() {
        let s = series(&[100.0, f64::NAN, 0.0, -3.0, 200.0]);
        let fixed = repair(&s).unwrap();
        assert_eq!(fixed.values(), &[100.0, 125.0, 150.0, 175.0, 200.0]);
        assert!(validate(&fixed, &ValidationConfig::default()).is_clean());
    }

    #[test]
    fn repair_extends_flat_at_edges() {
        let s = series(&[f64::NAN, f64::NAN, 300.0, 0.0]);
        let fixed = repair(&s).unwrap();
        assert_eq!(fixed.values(), &[300.0, 300.0, 300.0, 300.0]);
    }

    #[test]
    fn repair_of_hopeless_trace_is_none() {
        let s = series(&[f64::NAN, 0.0, -1.0]);
        assert!(repair(&s).is_none());
    }

    #[test]
    fn repair_extrapolates_trailing_runs_flat() {
        // A trailing defective run has no right anchor: the `(Some,
        // None)` arm extends the last valid sample flat.
        let s = series(&[120.0, 150.0, f64::NAN, 0.0, -8.0]);
        let fixed = repair(&s).unwrap();
        assert_eq!(fixed.values(), &[120.0, 150.0, 150.0, 150.0, 150.0]);
        assert_eq!(fixed.start(), s.start());
        assert!(validate(&fixed, &ValidationConfig::default()).is_clean());
    }

    #[test]
    fn repair_extrapolates_leading_runs_flat() {
        // A leading defective run has no left anchor: the `(None,
        // Some)` arm extends the first valid sample backwards.
        let s = series(&[f64::NAN, -1.0, 0.0, 240.0, 250.0]);
        let fixed = repair(&s).unwrap();
        assert_eq!(fixed.values(), &[240.0, 240.0, 240.0, 240.0, 250.0]);
    }

    #[test]
    fn repair_handles_leading_and_trailing_runs_around_one_anchor() {
        // A single valid sample anchors both edge extrapolations.
        let s = series(&[f64::NAN, f64::NAN, 77.0, 0.0, f64::NAN]);
        let fixed = repair(&s).unwrap();
        assert_eq!(fixed.values(), &[77.0, 77.0, 77.0, 77.0, 77.0]);
    }

    #[test]
    fn repair_of_all_defective_variants_is_none() {
        // Every sample invalid, whatever the defect class.
        assert!(repair(&series(&[f64::NAN, f64::NAN])).is_none());
        assert!(repair(&series(&[0.0, 0.0, 0.0])).is_none());
        assert!(repair(&series(&[f64::NEG_INFINITY, f64::INFINITY])).is_none());
        assert!(repair(&series(&[])).is_none());
    }

    #[test]
    fn repair_preserves_clean_traces() {
        let s = series(&[10.0, 20.0, 30.0]);
        let fixed = repair(&s).unwrap();
        assert_eq!(fixed, s);
    }
}
