//! Statistics substrate for the `decarb` workspace.
//!
//! The paper's global carbon analysis (§4) rests on a handful of
//! statistical tools that its artifact borrows from pandas, scikit-learn,
//! and Azure Data Explorer. This crate reimplements each of them from
//! scratch so the workspace has no external analytics dependencies:
//!
//! * [`descriptive`] — the arithmetic mean;
//! * [`daily`] — the paper's *average daily CV* variability metric;
//! * [mod@fft] — an iterative radix-2 Cooley–Tukey FFT;
//! * [`periodicity`] — FFT-periodogram period detection with an
//!   autocorrelation score in `[0, 1]`, equivalent to Azure Data Explorer's
//!   `series_periods_detect()` used for Fig. 4;
//! * [`autocorr`] — normalized autocorrelation;
//! * [mod@kmeans] — deterministic K-Means++ (Fig. 3(b) clustering);
//! * [`regression`] — least-squares linear fit (the idle-capacity ≈
//!   reduction correlation in §5.3.1);
//! * [`rank`] — Kendall's τ (the §5.1.4 rank-order stability claim).

pub mod autocorr;
pub mod daily;
pub mod descriptive;
pub mod fft;
pub mod kmeans;
pub mod periodicity;
pub mod rank;
pub mod regression;
pub mod seasonal;

pub use autocorr::autocorrelation;
pub use daily::average_daily_cv;
pub use fft::{fft, ifft, Complex};
pub use kmeans::{kmeans, KMeansResult};
pub use periodicity::{detect_periods, periodicity_score, DetectedPeriod};
pub use rank::kendall_tau;
pub use regression::{linear_fit, LinearFit};
pub use seasonal::{decompose, Decomposition};
