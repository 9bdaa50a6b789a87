//! Deterministic synthesis of hourly carbon-intensity traces.
//!
//! The generator turns a [`Region`]'s calibration targets into a multi-year
//! hourly trace with the statistical structure the paper's analysis depends
//! on (§2.1, §4):
//!
//! * **Magnitude** — each calendar year's mean equals the catalog target
//!   exactly (linear 2020→2022 drift, extrapolated to 2023);
//! * **Diurnal shape** — a solar generation dip (scaled by the solar share,
//!   in local solar time, stronger in summer) plus a human-demand
//!   double-peak (scaled by the fossil share);
//! * **Weekly shape** — a weekday/weekend effect (168 h period);
//! * **Seasonal shape** — an annual cycle, phase-flipped by hemisphere;
//! * **Noise** — an AR(1) process scaled by the wind share (wind is the
//!   dominant source of aperiodic CI variance);
//! * **Variability** — the realized *average daily coefficient of
//!   variation* is calibrated to the catalog target by scaling the shape.
//!
//! The output is deterministic: the same `(seed, region)` always produces
//! the same trace, so numbers recorded in `EXPERIMENTS.md` are stable.

use crate::region::Region;
use crate::rng::Xoshiro256;
use crate::series::TimeSeries;
use crate::time::{self, Hour, HOURS_PER_DAY};

/// Configuration for the trace synthesizer.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Master seed; mixed with each region code for independent streams.
    pub seed: u64,
    /// First generated calendar year (inclusive).
    pub first_year: i32,
    /// Last generated calendar year (inclusive).
    pub last_year: i32,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            seed: 0xDECA_2B00,
            first_year: 2020,
            last_year: 2023,
        }
    }
}

/// Deterministic carbon-intensity trace generator.
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    config: SynthConfig,
}

/// AR(1) persistence of the noise component.
const AR_RHO: f64 = 0.85;
/// Weight of the weekly (weekday/weekend) component.
const W_WEEKLY: f64 = 0.10;
/// Weight of the annual seasonal component.
const W_SEASONAL: f64 = 0.40;
/// Floor for generated carbon-intensity values (g·CO2eq/kWh).
const CI_FLOOR: f64 = 0.5;

impl Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthConfig) -> Self {
        Self { config }
    }

    /// Returns the configured horizon as `(start_hour, total_hours)`.
    pub fn horizon(&self) -> (Hour, usize) {
        let start = time::year_start(self.config.first_year);
        let total: usize = (self.config.first_year..=self.config.last_year)
            .map(time::hours_in_year)
            .sum();
        (start, total)
    }

    /// Generates the full multi-year hourly trace for `region`.
    pub fn generate(&self, region: &Region) -> TimeSeries {
        let (start, total) = self.horizon();
        let raw = self.raw_shape(region, start, total);
        let scaled = calibrate(region, self.years(), raw);
        let values = rescale_annual_means(region, start, scaled, self.config.last_year);
        TimeSeries::new(start, values)
    }

    /// The configured calendar years, in order.
    fn years(&self) -> std::ops::RangeInclusive<i32> {
        self.config.first_year..=self.config.last_year
    }

    /// Generates the dimensionless shape signal before calibration.
    ///
    /// The walk goes year by year and day by day, so the terms that
    /// vary only by day (the seasonal cycle and the weekend flag) and
    /// only by hour of day (the solar dip and the demand profile) are
    /// worked out once rather than per sample. Each sample still goes
    /// through the same float operations in the same order.
    fn raw_shape(&self, region: &Region, start: Hour, total: usize) -> Vec<f64> {
        let mut rng = Xoshiro256::from_label(&region.code, self.config.seed);
        let solar_share = region.mix.share(crate::mix::Source::Solar);
        let wind_share = region.mix.share(crate::mix::Source::Wind);
        let fossil_share = region.mix.fossil_share();

        let w_solar = 1.5 * solar_share + 0.05;
        let w_demand = 0.6 * fossil_share + 0.20;
        let w_noise = 0.5 * wind_share + 0.10 + 0.30 * (1.0 - region.periodicity);
        // Local solar time offset from UTC, derived from longitude.
        let solar_offset = (region.lon / 15.0).round() as i64;
        // Every year starts at midnight UTC, so a sample's UTC hour of
        // day is its position within the day.
        let local_hour: [usize; HOURS_PER_DAY] = std::array::from_fn(|hour| {
            (hour as i64 + solar_offset).rem_euclid(HOURS_PER_DAY as i64) as usize
        });
        let dip = local_hour.map(solar_dip);
        let demand = local_hour.map(|h| DEMAND_PROFILE[h]);
        // Annual cycle: CI peaks in local winter (heating demand).
        let season_phase = if region.lat < 0.0 { 0.5 } else { 0.0 };

        let mut day_start = start;
        let mut raw = Vec::with_capacity(total);
        let mut ar = 0.0f64;
        let ar_innovation = (1.0 - AR_RHO * AR_RHO).sqrt();
        for year in self.years() {
            let days = time::days_in_year(year);
            for doy in 0..days {
                let season =
                    (std::f64::consts::TAU * (doy as f64 / days as f64 - season_phase)).cos();
                // Solar output is stronger in local summer.
                let solar_season = 1.0 + 0.5 * -season;
                let weekly = if day_start.is_weekend() { -1.0 } else { 0.4 };
                for hour in 0..HOURS_PER_DAY {
                    let solar = dip[hour] * solar_season;
                    ar = AR_RHO * ar + ar_innovation * rng.normal();
                    let periodic = w_solar * solar + w_demand * demand[hour] + W_WEEKLY * weekly;
                    raw.push(region.periodicity * periodic + w_noise * ar + W_SEASONAL * season);
                }
                day_start = day_start.plus(HOURS_PER_DAY);
            }
        }
        raw
    }
}

/// Hour-of-day demand anomaly (mean-zero over the day): night trough,
/// morning ramp, evening peak.
const DEMAND_PROFILE: [f64; 24] = [
    -1.17, -1.37, -1.47, -1.52, -1.47, -1.27, -0.77, -0.17, 0.33, 0.63, 0.73, 0.73, 0.63, 0.53,
    0.43, 0.43, 0.53, 0.83, 1.13, 1.23, 1.03, 0.63, 0.03, -0.67,
];

/// Solar generation dip by local hour: 0 at night, most negative at noon,
/// mean-adjusted to zero over the day.
fn solar_dip(local_hour: usize) -> f64 {
    let raw = if (6..18).contains(&local_hour) {
        -((local_hour - 6) as f64 * std::f64::consts::PI / 12.0).sin()
    } else {
        0.0
    };
    // The raw profile has mean -(2/π)·(12/24) ≈ -0.2122 over the day.
    raw + 2.0 / std::f64::consts::PI / 2.0
}

/// Scales the raw shape of the calendar `years` so the realized average
/// daily CV matches the region's target, and applies the drifting
/// annual mean, in place.
fn calibrate(
    region: &Region,
    years: std::ops::RangeInclusive<i32>,
    mut shape: Vec<f64>,
) -> Vec<f64> {
    let mean = shape.iter().sum::<f64>() / shape.len() as f64;
    for v in &mut shape {
        *v -= mean;
    }

    // Average intra-day standard deviation of the centered shape.
    let mut acc_std = 0.0;
    let mut days = 0usize;
    for day in shape.chunks_exact(HOURS_PER_DAY) {
        let m: f64 = day.iter().sum::<f64>() / HOURS_PER_DAY as f64;
        let var: f64 = day.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / HOURS_PER_DAY as f64;
        acc_std += var.sqrt();
        days += 1;
    }
    let avg_daily_std = acc_std / days.max(1) as f64;
    let k = if avg_daily_std > 1e-12 {
        region.daily_cv / avg_daily_std
    } else {
        0.0
    };

    let mut rest = shape.as_mut_slice();
    for year in years {
        let hours = time::hours_in_year(year);
        let (chunk, tail) = rest.split_at_mut(hours);
        let means = [
            region.mean_ci(year - 1),
            region.mean_ci(year),
            region.mean_ci(year + 1),
        ];
        for (hour, c) in chunk.iter_mut().enumerate() {
            let m = drifting_mean(means, hour, hours);
            *c = (m * (1.0 + k * *c)).max(CI_FLOOR);
        }
        rest = tail;
    }
    shape
}

/// Smooth annual-mean trajectory: the catalog's per-year means anchored at
/// year centers with linear interpolation between them. `means` holds
/// the previous, current and next year's means; `hour` counts from the
/// start of the current year, which is `hours` long.
#[inline]
fn drifting_mean([prev, this, next]: [f64; 3], hour: usize, hours: usize) -> f64 {
    let frac = hour as f64 / hours as f64;
    if frac < 0.5 {
        let w = frac + 0.5;
        prev * (1.0 - w) + this * w
    } else {
        let w = frac - 0.5;
        this * (1.0 - w) + next * w
    }
}

/// Rescales each calendar year multiplicatively so its realized mean equals
/// the catalog target exactly.
fn rescale_annual_means(
    region: &Region,
    start: Hour,
    mut values: Vec<f64>,
    last_year: i32,
) -> Vec<f64> {
    let mut offset = 0usize;
    let mut year = start.year();
    while offset < values.len() && year <= last_year {
        let len = time::hours_in_year(year).min(values.len() - offset);
        let chunk = &mut values[offset..offset + len];
        let mean: f64 = chunk.iter().sum::<f64>() / len as f64;
        let target = region.mean_ci(year);
        if mean > 1e-12 {
            let scale = target / mean;
            for v in chunk.iter_mut() {
                *v = (*v * scale).max(CI_FLOOR);
            }
        }
        offset += len;
        year += 1;
    }
    values
}

/// Computes the paper's variability metric: the mean over days of each
/// day's coefficient of variation.
pub fn average_daily_cv(series: &TimeSeries) -> f64 {
    let mut acc = 0.0;
    let mut days = 0usize;
    for day in series.values().chunks_exact(HOURS_PER_DAY) {
        let m: f64 = day.iter().sum::<f64>() / HOURS_PER_DAY as f64;
        if m <= 0.0 {
            continue;
        }
        let var: f64 = day.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / HOURS_PER_DAY as f64;
        acc += var.sqrt() / m;
        days += 1;
    }
    if days == 0 {
        0.0
    } else {
        acc / days as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::time::year_start;

    fn series_for(code: &str) -> TimeSeries {
        Synthesizer::default().generate(catalog::region(code).unwrap())
    }

    fn year_slice(series: &TimeSeries, year: i32) -> TimeSeries {
        series
            .slice(year_start(year), time::hours_in_year(year))
            .unwrap()
    }

    #[test]
    fn deterministic_output() {
        let a = series_for("US-CA");
        let b = series_for("US-CA");
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_covers_2020_to_2023() {
        let s = series_for("SE");
        assert_eq!(s.start(), Hour(0));
        assert_eq!(s.len(), time::horizon_hours());
    }

    #[test]
    fn annual_means_match_catalog_targets() {
        for code in ["SE", "US-CA", "IN-WE", "AU-SA", "HK", "DE"] {
            let region = catalog::region(code).unwrap();
            let s = series_for(code);
            for year in 2020..=2022 {
                let mean = year_slice(&s, year).mean();
                let target = region.mean_ci(year);
                assert!(
                    (mean - target).abs() / target < 0.02,
                    "{code} {year}: mean {mean:.2} vs target {target:.2}"
                );
            }
        }
    }

    #[test]
    fn sweden_mean_is_paper_anchor() {
        let s = year_slice(&series_for("SE"), 2022);
        assert!((s.mean() - 16.0).abs() < 0.5, "mean {:.2}", s.mean());
    }

    #[test]
    fn values_positive_everywhere() {
        for code in ["SE", "AL", "CA-MB", "US-CA", "AU-SA"] {
            let s = series_for(code);
            assert!(s.min() >= CI_FLOOR, "{code} min {}", s.min());
        }
    }

    #[test]
    fn daily_cv_matches_target() {
        for code in ["US-CA", "DE", "IN-WE", "HK", "AU-SA", "SE", "PL"] {
            let region = catalog::region(code).unwrap();
            let s = year_slice(&series_for(code), 2022);
            let cv = average_daily_cv(&s);
            let target = region.daily_cv;
            assert!(
                (cv - target).abs() < 0.25 * target + 0.01,
                "{code}: cv {cv:.3} vs target {target:.3}"
            );
        }
    }

    #[test]
    fn california_swings_2x_within_days() {
        // Fig. 1(a): California's CI varies by ≈ 2× over a day.
        let s = year_slice(&series_for("US-CA"), 2022);
        let mut ratios = Vec::new();
        for day in s.values().chunks_exact(HOURS_PER_DAY) {
            let max = day.iter().cloned().fold(f64::MIN, f64::max);
            let min = day.iter().cloned().fold(f64::MAX, f64::min);
            ratios.push(max / min);
        }
        ratios.sort_by(f64::total_cmp);
        let p90 = ratios[(ratios.len() as f64 * 0.9) as usize];
        assert!(p90 > 1.5, "p90 daily swing {p90:.2} should exceed 1.5×");
    }

    #[test]
    fn hong_kong_is_flat_and_aperiodic() {
        let s = year_slice(&series_for("HK"), 2022);
        let cv = average_daily_cv(&s);
        assert!(cv < 0.03, "HK daily cv {cv:.3}");
        // No diurnal structure: hour-of-day means stay within a tight band.
        let mut by_hour = [0.0f64; 24];
        for (i, v) in s.values().iter().enumerate() {
            by_hour[i % 24] += v;
        }
        let days = s.len() as f64 / 24.0;
        let means: Vec<f64> = by_hour.iter().map(|v| v / days).collect();
        let overall = means.iter().sum::<f64>() / 24.0;
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread / overall < 0.02,
            "HK diurnal spread {:.4}",
            spread / overall
        );
    }

    #[test]
    fn california_has_diurnal_structure() {
        let s = year_slice(&series_for("US-CA"), 2022);
        let mut by_hour = [0.0f64; 24];
        for (i, v) in s.values().iter().enumerate() {
            by_hour[i % 24] += v;
        }
        let days = s.len() as f64 / 24.0;
        let means: Vec<f64> = by_hour.iter().map(|v| v / days).collect();
        let overall = means.iter().sum::<f64>() / 24.0;
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread / overall > 0.10,
            "CA diurnal spread {:.4}",
            spread / overall
        );
    }

    #[test]
    fn drift_reproduces_catalog_delta() {
        for code in ["GR", "AU-SA", "IN-WE", "SE"] {
            let region = catalog::region(code).unwrap();
            let s = series_for(code);
            let mean_2020 = year_slice(&s, 2020).mean();
            let mean_2022 = year_slice(&s, 2022).mean();
            let delta = mean_2022 - mean_2020;
            let target = region.ci_delta_2020_2022;
            assert!(
                (delta - target).abs() < 0.05 * region.mean_ci_2022 + 2.0,
                "{code}: delta {delta:.1} vs target {target:.1}"
            );
        }
    }

    #[test]
    fn different_regions_produce_independent_noise() {
        let a = year_slice(&series_for("QA"), 2022);
        let b = year_slice(&series_for("BH"), 2022);
        // Similar gas-dominated profiles but independent noise streams.
        let corr = correlation(a.values(), b.values());
        assert!(corr < 0.9, "corr {corr:.3}");
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt())
    }

    /// The per-sample synthesis the calendar walk replaced: every sample
    /// works out its year, day of year, seasonal cosine and drifting
    /// mean from its hour index. Kept as the oracle the walk must match
    /// bit for bit.
    fn oracle_generate(config: &SynthConfig, region: &Region) -> TimeSeries {
        let synth = Synthesizer::new(config.clone());
        let (start, total) = synth.horizon();
        let mut rng = Xoshiro256::from_label(&region.code, config.seed);
        let solar_share = region.mix.share(crate::mix::Source::Solar);
        let wind_share = region.mix.share(crate::mix::Source::Wind);
        let fossil_share = region.mix.fossil_share();
        let w_solar = 1.5 * solar_share + 0.05;
        let w_demand = 0.6 * fossil_share + 0.20;
        let w_noise = 0.5 * wind_share + 0.10 + 0.30 * (1.0 - region.periodicity);
        let solar_offset = (region.lon / 15.0).round() as i64;
        let southern = region.lat < 0.0;
        let mut raw = Vec::with_capacity(total);
        let mut ar = 0.0f64;
        let ar_innovation = (1.0 - AR_RHO * AR_RHO).sqrt();
        for i in 0..total {
            let hour = start.plus(i);
            let local_hour = (hour.hour_of_day() as i64 + solar_offset).rem_euclid(24) as usize;
            let doy = hour.day_of_year() as f64;
            let days = time::days_in_year(hour.year()) as f64;
            let season_phase = if southern { 0.5 } else { 0.0 };
            let season = (std::f64::consts::TAU * (doy / days - season_phase)).cos();
            let solar_season = 1.0 + 0.5 * -season;
            let solar = solar_dip(local_hour) * solar_season;
            let demand = DEMAND_PROFILE[local_hour];
            let weekly = if hour.is_weekend() { -1.0 } else { 0.4 };
            ar = AR_RHO * ar + ar_innovation * rng.normal();
            let periodic = w_solar * solar + w_demand * demand + W_WEEKLY * weekly;
            raw.push(region.periodicity * periodic + w_noise * ar + W_SEASONAL * season);
        }

        let mean = raw.iter().sum::<f64>() / raw.len() as f64;
        let centered: Vec<f64> = raw.iter().map(|v| v - mean).collect();
        let mut acc_std = 0.0;
        let mut days = 0usize;
        for day in centered.chunks_exact(HOURS_PER_DAY) {
            let m: f64 = day.iter().sum::<f64>() / HOURS_PER_DAY as f64;
            let var: f64 =
                day.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / HOURS_PER_DAY as f64;
            acc_std += var.sqrt();
            days += 1;
        }
        let avg_daily_std = acc_std / days.max(1) as f64;
        let k = if avg_daily_std > 1e-12 {
            region.daily_cv / avg_daily_std
        } else {
            0.0
        };
        let scaled = centered
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let hour = start.plus(i);
                let year = hour.year();
                let frac = hour.hour_of_year() as f64 / time::hours_in_year(year) as f64;
                let m = if frac < 0.5 {
                    let w = frac + 0.5;
                    region.mean_ci(year - 1) * (1.0 - w) + region.mean_ci(year) * w
                } else {
                    let w = frac - 0.5;
                    region.mean_ci(year) * (1.0 - w) + region.mean_ci(year + 1) * w
                };
                (m * (1.0 + k * c)).max(CI_FLOOR)
            })
            .collect();
        let values = rescale_annual_means(region, start, scaled, config.last_year);
        TimeSeries::new(start, values)
    }

    #[test]
    fn calendar_walk_matches_per_sample_oracle_bit_for_bit() {
        let regions = catalog::builtin_catalog();
        // The walk's per-day and per-hour-of-day tables must hold for
        // both hemispheres' seasonal phases and for every solar offset.
        assert!(regions.iter().any(|r| r.lat < 0.0));
        assert!(regions.iter().any(|r| (r.lon / 15.0).round() < 0.0));
        assert!(regions.iter().any(|r| (r.lon / 15.0).round() > 0.0));
        let configs = [
            SynthConfig {
                seed: 1,
                first_year: 2021,
                last_year: 2023,
            },
            SynthConfig {
                first_year: 2022,
                last_year: 2022,
                ..SynthConfig::default()
            },
            SynthConfig {
                first_year: 2023,
                last_year: 2023,
                ..SynthConfig::default()
            },
        ];
        for config in &configs {
            let synth = Synthesizer::new(config.clone());
            for region in regions {
                let walked = synth.generate(region);
                let oracle = oracle_generate(config, region);
                assert_eq!(walked.start(), oracle.start());
                assert_eq!(walked.len(), oracle.len());
                let differs = walked
                    .values()
                    .iter()
                    .zip(oracle.values())
                    .position(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(differs, None, "{} under {config:?}", region.code);
            }
        }
    }

    #[test]
    fn builtin_dataset_packs_to_its_pinned_hash() {
        // `data pack builtin` prints this hash; any change to the
        // synthesized samples, their order or the container layout
        // moves it.
        let bytes = crate::container::encode(&crate::builtin_dataset()).unwrap();
        let info = crate::container::probe(&bytes, "<builtin>").unwrap();
        assert_eq!(
            info.content_hash, 0x40b8_b50e_9e24_f3a9,
            "fnv1a64:{:016x}",
            info.content_hash
        );
    }

    #[test]
    fn average_daily_cv_of_constant_is_zero() {
        let s = TimeSeries::new(Hour(0), vec![5.0; 48]);
        assert_eq!(average_daily_cv(&s), 0.0);
        let empty = TimeSeries::new(Hour(0), vec![]);
        assert_eq!(average_daily_cv(&empty), 0.0);
    }
}
