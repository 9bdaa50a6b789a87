//! `decarb` — facade crate for the EuroSys '24 reproduction of
//! *On the Limitations of Carbon-Aware Temporal and Spatial Workload
//! Shifting in the Cloud*.
//!
//! This crate re-exports the public APIs of the workspace members so
//! applications can depend on a single crate:
//!
//! * [`traces`] — carbon-intensity substrate (123-region catalog,
//!   deterministic synthesizer, merit-order grid dispatch, time series).
//! * [`stats`] — statistics toolkit (FFT periodicity, K-Means++, daily CV).
//! * [`forecast`] — carbon-intensity forecasting models (persistence,
//!   seasonal, climatology, linear AR) and rolling-origin evaluation.
//! * [`workloads`] — cloud workload models (Table 1 job dimensions, Azure-
//!   and Google-like length distributions).
//! * [`core`] — the paper's contribution: temporal and spatial shifting
//!   policies with ideal and constrained bounds, plus the extension
//!   modules (elastic scaling, embodied carbon, flexible grid load).
//! * [`sim`] — a discrete-event cloud simulator executing the same policies
//!   online, with optional suspend/resume/migration overheads.
//! * [`experiments`] — reproduction harness for every figure and table.
//!
//! # Examples
//!
//! ```
//! use decarb::prelude::*;
//!
//! let data = builtin_dataset();
//! let (greenest, mean) = data.greenest_region(2022);
//! assert_eq!(greenest.code, "SE");
//! assert!(mean < 20.0);
//! ```

pub use decarb_analyze as analyze;
pub use decarb_core as core;
pub use decarb_experiments as experiments;
pub use decarb_forecast as forecast;
pub use decarb_serve as serve;
pub use decarb_sim as sim;
pub use decarb_stats as stats;
pub use decarb_traces as traces;
pub use decarb_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use decarb_core::metrics::{absolute_reduction, relative_reduction};
    pub use decarb_core::spatial::{inf_migration, one_migration};
    pub use decarb_core::temporal::TemporalPlanner;
    pub use decarb_forecast::{Forecaster, MIN_HISTORY_HOURS};
    pub use decarb_traces::{builtin_catalog, builtin_dataset, GeoGroup, Hour, TraceSet};
    pub use decarb_workloads::{Job, JobLengthDistribution, Slack};
}
