//! `decarb-forecast` — carbon-intensity forecasting models and their
//! evaluation.
//!
//! The paper's upper bounds assume *perfect* knowledge of future
//! carbon-intensity (§3.2) and then probe sensitivity with a uniform random
//! error (§6.2). Its related-work section points at CarbonCast [28], a
//! multi-day forecaster with a 4.80–13.93 % MAPE, as the practical source
//! of that signal. This crate provides the forecasting substrate the paper
//! references but does not implement:
//!
//! * [`model::Forecaster`] — the common interface: given the trace history
//!   up to a forecast origin, predict the next `horizon` hours;
//! * [`naive`] — [`naive::Persistence`] and [`naive::SeasonalNaive`]
//!   baselines (carry-forward and same-hour-yesterday/last-week);
//! * [`template`] — [`template::DiurnalTemplate`], an hour-of-day /
//!   weekday-aware climatology over a trailing window;
//! * [`linear`] — [`linear::LinearAr`], a ridge-regularized autoregression
//!   on lagged values and calendar harmonics, the closest linear stand-in
//!   for CarbonCast's learned model;
//! * [`metrics`] — MAPE / RMSE / MAE / bias and per-lead-day profiles;
//! * [`backtest`] — rolling-origin evaluation and
//!   [`backtest::rolling_forecast_trace`], which stitches day-ahead
//!   forecasts into the "believed" trace that
//!   `decarb_core::forecast::temporal_increase_pct` consumes, replacing
//!   §6.2's synthetic uniform error with realistic, structured error.
//!
//! # Examples
//!
//! ```
//! use decarb_forecast::{backtest::{backtest, BacktestConfig}, naive::SeasonalNaive};
//! use decarb_traces::{builtin_dataset, time::year_start};
//!
//! let data = builtin_dataset();
//! let series = data.series("US-CA").unwrap();
//! let report = backtest(
//!     &SeasonalNaive::daily(),
//!     series,
//!     year_start(2022),
//!     30 * 24,
//!     &BacktestConfig::default(),
//! );
//! assert!(report.mape_pct > 0.0 && report.mape_pct < 60.0);
//! ```

pub mod backtest;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod naive;
pub mod template;

pub use backtest::{backtest, rolling_forecast_trace, BacktestConfig, BacktestReport};
pub use linear::LinearAr;
pub use metrics::{mae, mape_pct, mean_bias, rmse, ForecastErrors};
pub use model::{visible_history, Forecaster, HISTORY_HOURS, MIN_HISTORY_HOURS};
pub use naive::{Persistence, SeasonalNaive};
pub use template::DiurnalTemplate;
