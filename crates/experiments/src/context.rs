//! Shared experiment context: the dataset plus memoized temporal sweeps.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use decarb_core::temporal::TemporalPlanner;
use decarb_traces::time::{hours_in_year, year_start};
use decarb_traces::{builtin_dataset, Region, TraceSet};

/// The evaluation year used throughout the experiments (matches the
/// paper's headline 2022 analysis).
pub const EVAL_YEAR: i32 = 2022;

/// Per-region, per-configuration temporal statistics, normalized per job
/// hour (g·CO2eq/kWh-equivalent).
#[derive(Debug, Clone)]
pub struct RegionTemporal {
    /// Zone code.
    pub code: String,
    /// Mean baseline cost per job hour across all arrivals.
    pub baseline_per_h: f64,
    /// Mean deferred cost per job hour.
    pub deferred_per_h: f64,
    /// Mean deferrable+interruptible cost per job hour.
    pub interruptible_per_h: f64,
}

impl RegionTemporal {
    /// Deferral saving per job hour.
    pub fn deferral_saving(&self) -> f64 {
        self.baseline_per_h - self.deferred_per_h
    }

    /// Extra saving unlocked by interruptibility, per job hour.
    pub fn interrupt_extra_saving(&self) -> f64 {
        self.deferred_per_h - self.interruptible_per_h
    }

    /// Total deferral+interruptibility saving per job hour.
    pub fn total_saving(&self) -> f64 {
        self.baseline_per_h - self.interruptible_per_h
    }
}

/// Memoized per-`(slots, slack)` sweep results. Each key holds a
/// compute-once cell so concurrent first callers (e.g. figs 7–10
/// scheduled on different `run_all` workers) block on one computation
/// instead of all recomputing the sweep.
type SweepCell = Arc<std::sync::OnceLock<Arc<Vec<RegionTemporal>>>>;
type SweepMemo = Mutex<HashMap<(usize, usize), SweepCell>>;

/// Shared state for all experiments: the dataset and a sweep memo so
/// figures 7–10 reuse each other's computations.
pub struct Context {
    data: Arc<TraceSet>,
    memo: SweepMemo,
}

impl Default for Context {
    fn default() -> Self {
        Self::new(builtin_dataset())
    }
}

/// Returns a process-wide shared context so experiments (and their tests)
/// reuse memoized sweeps.
pub fn shared() -> &'static Context {
    static SHARED: std::sync::OnceLock<Context> = std::sync::OnceLock::new();
    SHARED.get_or_init(Context::default)
}

impl Context {
    /// Creates a context over an explicit dataset.
    pub fn new(data: Arc<TraceSet>) -> Self {
        Self {
            data,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the dataset.
    pub fn data(&self) -> &TraceSet {
        &self.data
    }

    /// Returns the dataset's regions.
    pub fn regions(&self) -> &[Region] {
        self.data.regions()
    }

    /// Computes (or returns memoized) per-region temporal statistics for a
    /// `slots`-hour job with `slack` hours of slack, averaged over every
    /// arrival of [`EVAL_YEAR`].
    ///
    /// The 123 per-region sweeps are independent, so they fan out across
    /// threads with `decarb_par`; the memo keeps figures 7–10 reusing
    /// each other's results.
    pub fn temporal_stats(&self, slots: usize, slack: usize) -> Arc<Vec<RegionTemporal>> {
        // Grab (or install) the key's compute-once cell under the map
        // lock, then compute outside it so other keys stay unblocked.
        let cell: SweepCell = self
            .memo
            .lock()
            .expect("memo lock")
            .entry((slots, slack))
            .or_default()
            .clone();
        cell.get_or_init(|| {
            let start = year_start(EVAL_YEAR);
            let count = hours_in_year(EVAL_YEAR);
            let ids: Vec<_> = self.data.ids().collect();
            let result: Vec<RegionTemporal> = decarb_par::par_map(&ids, |&id| {
                let planner = TemporalPlanner::for_region(&self.data, id);
                let baseline = planner.baseline_sweep(start, count, slots);
                let deferred = planner.deferral_sweep(start, count, slots, slack);
                let interruptible = planner.interruptible_sweep(start, count, slots, slack);
                let n = count as f64;
                let per_h = |total: f64| total / n / slots as f64;
                RegionTemporal {
                    code: self.data.code(id).to_owned(),
                    baseline_per_h: per_h(baseline.iter().sum()),
                    deferred_per_h: per_h(deferred.iter().sum()),
                    interruptible_per_h: per_h(interruptible.iter().sum()),
                }
            });
            Arc::new(result)
        })
        .clone()
    }

    /// Averages a per-region statistic over all regions.
    pub fn global_mean_of(stats: &[RegionTemporal], f: impl Fn(&RegionTemporal) -> f64) -> f64 {
        stats.iter().map(f).sum::<f64>() / stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_same_arc() {
        let ctx = Context::default();
        let a = ctx.temporal_stats(1, 24);
        let b = ctx.temporal_stats(1, 24);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 123);
    }

    #[test]
    fn orderings_hold_per_region() {
        let ctx = Context::default();
        let stats = ctx.temporal_stats(6, 24);
        for s in stats.iter() {
            assert!(s.deferred_per_h <= s.baseline_per_h + 1e-9, "{}", s.code);
            assert!(
                s.interruptible_per_h <= s.deferred_per_h + 1e-9,
                "{}",
                s.code
            );
            assert!(s.deferral_saving() >= -1e-9);
            assert!(s.interrupt_extra_saving() >= -1e-9);
            assert!(
                (s.total_saving() - (s.deferral_saving() + s.interrupt_extra_saving())).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn baseline_matches_annual_mean() {
        let ctx = Context::default();
        let stats = ctx.temporal_stats(1, 24);
        let means = ctx.data().annual_means(EVAL_YEAR);
        for (s, (region, mean)) in stats.iter().zip(means) {
            assert_eq!(s.code, region.code);
            // The average 1-hour baseline over all arrivals is the annual
            // mean CI (up to boundary clamping of the final arrivals).
            assert!(
                (s.baseline_per_h - mean).abs() < 1.0,
                "{}: {} vs {}",
                s.code,
                s.baseline_per_h,
                mean
            );
        }
    }
}
