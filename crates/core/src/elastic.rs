//! Elastic (CarbonScaler-style) workload scaling.
//!
//! The paper's related work (its reference \[22\], CarbonScaler) exploits a
//! third flexibility dimension beyond deferral and interruption: *scaling*.
//! An elastic job with `work` replica-hours of total computation can run
//! more replicas when energy is clean and fewer (or none) when it is
//! dirty, subject to a parallelism ceiling. Interruptibility is the
//! special case `max_replicas = 1`; larger ceilings concentrate the same
//! energy into deeper carbon-intensity valleys, so the clairvoyant cost is
//! non-increasing in the ceiling.
//!
//! The model keeps the paper's assumptions: 1 kW per replica, hourly
//! granularity, perfect scaling efficiency (no parallel overhead), zero
//! scale-up/down cost — an upper bound, like Figs. 7–9.

use decarb_traces::{Hour, TimeSeries};

/// A clairvoyant elastic execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticPlan {
    /// Replica count per executed hour, ascending by hour; hours with
    /// zero replicas are omitted.
    pub schedule: Vec<(Hour, usize)>,
    /// Total emissions, g·CO2eq (1 kWh per replica-hour).
    pub cost_g: f64,
}

impl ElasticPlan {
    /// Total replica-hours executed.
    pub fn work_hours(&self) -> usize {
        self.schedule.iter().map(|&(_, r)| r).sum()
    }

    /// Highest concurrent replica count.
    pub fn peak_replicas(&self) -> usize {
        self.schedule.iter().map(|&(_, r)| r).max().unwrap_or(0)
    }

    /// Hours between the first and last executed slot, inclusive (0 for an
    /// empty plan).
    pub fn makespan_hours(&self) -> usize {
        match (self.schedule.first(), self.schedule.last()) {
            (Some(&(first, _)), Some(&(last, _))) => (last.0 - first.0 + 1) as usize,
            _ => 0,
        }
    }
}

/// Computes the clairvoyant minimum-carbon elastic plan: allocate `work`
/// replica-hours within `[arrival, arrival + window)`, at most
/// `max_replicas` per hour, minimizing total emissions.
///
/// Greedily fills the cheapest hours to the ceiling, which is optimal
/// because hours are independent and each replica-hour in hour `t` costs
/// exactly `CI(t)`. The window is clamped at the trace end.
///
/// # Examples
///
/// ```
/// use decarb_core::elastic::elastic_plan;
/// use decarb_traces::{Hour, TimeSeries};
///
/// let series = TimeSeries::new(Hour(0), vec![500.0, 100.0, 400.0, 100.0]);
/// let plan = elastic_plan(&series, Hour(0), 4, 2, 4);
/// // Two replicas in each of the two 100 g hours.
/// assert_eq!(plan.cost_g, 400.0);
/// assert_eq!(plan.peak_replicas(), 2);
/// ```
///
/// # Panics
///
/// Panics if `max_replicas` is zero or the (clamped) window cannot fit the
/// work (`work > max_replicas × window`).
pub fn elastic_plan(
    series: &TimeSeries,
    arrival: Hour,
    work: usize,
    max_replicas: usize,
    window: usize,
) -> ElasticPlan {
    assert!(max_replicas > 0, "need at least one replica");
    let first = (arrival.0 - series.start().0) as usize;
    let end = (first + window).min(series.len());
    let hours = end.saturating_sub(first);
    assert!(
        work <= max_replicas * hours,
        "window of {hours} h × {max_replicas} replicas cannot fit {work} replica-hours"
    );
    let values = series.values();
    let mut order: Vec<usize> = (first..end).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
    let mut remaining = work;
    let mut schedule: Vec<(usize, usize)> = Vec::new();
    for idx in order {
        if remaining == 0 {
            break;
        }
        let take = max_replicas.min(remaining);
        schedule.push((idx, take));
        remaining -= take;
    }
    schedule.sort_unstable();
    let cost_g = schedule.iter().map(|&(i, r)| values[i] * r as f64).sum();
    ElasticPlan {
        schedule: schedule
            .into_iter()
            .map(|(i, r)| (series.start().plus(i), r))
            .collect(),
        cost_g,
    }
}

/// Sweeps the parallelism ceiling and returns `(max_replicas, cost_g)`
/// pairs — the marginal value of elasticity for this job and window.
pub fn elasticity_curve(
    series: &TimeSeries,
    arrival: Hour,
    work: usize,
    ceilings: &[usize],
    window: usize,
) -> Vec<(usize, f64)> {
    ceilings
        .iter()
        .map(|&m| (m, elastic_plan(series, arrival, work, m, window).cost_g))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalPlanner;

    fn wave(n: usize) -> TimeSeries {
        let values = (0..n)
            .map(|t| 300.0 + 150.0 * (std::f64::consts::TAU * t as f64 / 24.0).sin())
            .collect();
        TimeSeries::new(Hour(0), values)
    }

    #[test]
    fn single_replica_equals_interruptible_bound() {
        let series = wave(24 * 20);
        let planner = TemporalPlanner::new(&series);
        for (work, slack) in [(4usize, 48usize), (12, 24), (24, 168)] {
            let plan = elastic_plan(&series, Hour(10), work, 1, work + slack);
            let (_, interruptible) = planner.best_interruptible(Hour(10), work, slack);
            assert!(
                (plan.cost_g - interruptible).abs() < 1e-9,
                "work {work} slack {slack}: {} vs {interruptible}",
                plan.cost_g
            );
        }
    }

    #[test]
    fn cost_is_non_increasing_in_ceiling() {
        let series = wave(24 * 10);
        let curve = elasticity_curve(&series, Hour(0), 48, &[1, 2, 4, 8, 16], 24 * 8);
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "m={} cost {} vs m={} cost {}",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1
            );
        }
        // More parallelism concentrates work into the deepest valleys:
        // with m=16 the job fits in the 3 cheapest hours of each night.
        assert!(curve.last().unwrap().1 < curve[0].1);
    }

    #[test]
    fn plan_conserves_work_and_respects_ceiling() {
        let series = wave(24 * 5);
        let plan = elastic_plan(&series, Hour(7), 30, 4, 24 * 4);
        assert_eq!(plan.work_hours(), 30);
        assert!(plan.peak_replicas() <= 4);
        assert!(plan.schedule.windows(2).all(|w| w[0].0 < w[1].0));
        for &(hour, _) in &plan.schedule {
            assert!(hour >= Hour(7));
            assert!(hour < Hour(7 + 24 * 4));
        }
    }

    #[test]
    fn full_parallelism_runs_everything_in_the_single_cheapest_hour() {
        let series = wave(48);
        let plan = elastic_plan(&series, Hour(0), 5, 5, 48);
        assert_eq!(plan.schedule.len(), 1);
        assert_eq!(plan.peak_replicas(), 5);
        assert_eq!(plan.makespan_hours(), 1);
        assert!((plan.cost_g - 5.0 * series.min()).abs() < 1e-9);
    }

    #[test]
    fn makespan_shrinks_with_elasticity() {
        let series = wave(24 * 10);
        let narrow = elastic_plan(&series, Hour(0), 48, 1, 24 * 8);
        let wide = elastic_plan(&series, Hour(0), 48, 8, 24 * 8);
        assert!(wide.schedule.len() < narrow.schedule.len());
        assert!(wide.cost_g <= narrow.cost_g + 1e-9);
    }

    #[test]
    fn window_clamped_at_trace_end() {
        let series = wave(30);
        // Window of 100 clamps to the 20 hours left after Hour(10).
        let plan = elastic_plan(&series, Hour(10), 10, 1, 100);
        assert_eq!(plan.work_hours(), 10);
        assert!(plan.schedule.iter().all(|&(h, _)| h < Hour(30)));
    }

    #[test]
    fn empty_plan_metrics() {
        let series = wave(24);
        let plan = elastic_plan(&series, Hour(0), 0, 3, 24);
        assert_eq!(plan.work_hours(), 0);
        assert_eq!(plan.peak_replicas(), 0);
        assert_eq!(plan.makespan_hours(), 0);
        assert_eq!(plan.cost_g, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn infeasible_work_panics() {
        let series = wave(24);
        elastic_plan(&series, Hour(0), 100, 2, 10);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let series = wave(24);
        elastic_plan(&series, Hour(0), 4, 0, 24);
    }
}
