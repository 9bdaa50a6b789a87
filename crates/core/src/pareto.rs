//! The carbon–performance frontier of temporal shifting.
//!
//! Every gram a deferring scheduler saves is bought with waiting: §5.2's
//! bounds trade slack for carbon, and the paper's related work (\[21\],
//! "the war of the efficiencies") studies exactly this tension. This
//! module sweeps the slack budget and reports, per point, the mean
//! carbon cost *and* the mean delay the optimal deferring schedule
//! actually incurs — the frontier a cluster operator picks an SLO from.

use decarb_traces::{Hour, TimeSeries};

use crate::temporal::TemporalPlanner;

/// One point of the carbon–delay frontier.
#[derive(Debug, Clone, Copy)]
pub struct FrontierPoint {
    /// Slack budget, hours.
    pub slack: usize,
    /// Mean job cost, g·CO2eq.
    pub mean_cost_g: f64,
    /// Mean start delay actually used by the optimal schedule, hours.
    pub mean_delay_h: f64,
    /// Mean slowdown ((delay + length) / length).
    pub mean_slowdown: f64,
}

/// Sweeps slack budgets for a `slots`-hour deferrable job, averaging the
/// optimal deferred cost and its realized delay over arrivals
/// `sweep_start, sweep_start + stride, …` (`count` hours of arrivals).
///
/// Delay is what the *optimal* schedule chooses, not the budget: a large
/// slack is only consumed when a deeper valley exists, so the frontier
/// shows both the price of carbon savings and how much of the budget
/// schedules actually spend.
///
/// # Panics
///
/// Panics if `slots` is zero, `stride` is zero, or any job window falls
/// outside the series.
pub fn carbon_delay_frontier(
    series: &TimeSeries,
    sweep_start: Hour,
    count: usize,
    slots: usize,
    slacks: &[usize],
    stride: usize,
) -> Vec<FrontierPoint> {
    assert!(slots > 0, "job length must be positive");
    assert!(stride > 0, "stride must be positive");
    let planner = TemporalPlanner::new(series);
    slacks
        .iter()
        .map(|&slack| {
            let mut cost = 0.0;
            let mut delay = 0.0;
            let mut n = 0usize;
            let mut a = 0usize;
            while a < count {
                let arrival = sweep_start.plus(a);
                let placement = planner.best_deferred(arrival, slots, slack);
                cost += placement.cost_g;
                delay += (placement.start.0 - arrival.0) as f64;
                n += 1;
                a += stride;
            }
            let mean_delay_h = delay / n as f64;
            FrontierPoint {
                slack,
                mean_cost_g: cost / n as f64,
                mean_delay_h,
                mean_slowdown: (mean_delay_h + slots as f64) / slots as f64,
            }
        })
        .collect()
}

/// Returns the Pareto-efficient subset of frontier points: those not
/// dominated (≤ cost *and* ≤ delay, with one strict) by any other point.
pub fn pareto_filter(points: &[FrontierPoint]) -> Vec<FrontierPoint> {
    points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                q.mean_cost_g <= p.mean_cost_g
                    && q.mean_delay_h <= p.mean_delay_h
                    && (q.mean_cost_g < p.mean_cost_g || q.mean_delay_h < p.mean_delay_h)
            })
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> TimeSeries {
        let values = (0..n)
            .map(|t| 300.0 + 150.0 * (std::f64::consts::TAU * t as f64 / 24.0).sin())
            .collect();
        TimeSeries::new(Hour(0), values)
    }

    #[test]
    fn cost_is_non_increasing_in_slack() {
        let series = wave(24 * 30);
        let frontier =
            carbon_delay_frontier(&series, Hour(0), 24 * 20, 4, &[0, 6, 12, 24, 48, 96], 7);
        for pair in frontier.windows(2) {
            assert!(pair[1].mean_cost_g <= pair[0].mean_cost_g + 1e-9);
        }
        // Zero slack means zero delay and slowdown 1.
        assert_eq!(frontier[0].mean_delay_h, 0.0);
        assert!((frontier[0].mean_slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_is_bounded_by_the_budget() {
        let series = wave(24 * 30);
        let frontier = carbon_delay_frontier(&series, Hour(0), 24 * 20, 4, &[0, 12, 24], 5);
        for p in &frontier {
            assert!(p.mean_delay_h <= p.slack as f64 + 1e-9);
            assert!(p.mean_slowdown >= 1.0);
        }
    }

    #[test]
    fn savings_saturate_once_the_valley_is_reachable() {
        // On a pure 24-hour wave, slack past one full period buys nothing.
        let series = wave(24 * 40);
        let frontier = carbon_delay_frontier(&series, Hour(0), 24 * 20, 2, &[24, 48, 96], 3);
        let day = frontier[0].mean_cost_g;
        let four_days = frontier[2].mean_cost_g;
        assert!(
            (day - four_days).abs() < 1.0,
            "a 24h wave is fully exploited with 24h slack ({day} vs {four_days})"
        );
    }

    #[test]
    fn pareto_filter_removes_dominated_points() {
        let points = vec![
            FrontierPoint {
                slack: 0,
                mean_cost_g: 100.0,
                mean_delay_h: 0.0,
                mean_slowdown: 1.0,
            },
            FrontierPoint {
                slack: 12,
                mean_cost_g: 80.0,
                mean_delay_h: 4.0,
                mean_slowdown: 2.0,
            },
            // Dominated: same delay as the previous, higher cost.
            FrontierPoint {
                slack: 24,
                mean_cost_g: 90.0,
                mean_delay_h: 4.0,
                mean_slowdown: 2.0,
            },
        ];
        let efficient = pareto_filter(&points);
        assert_eq!(efficient.len(), 2);
        assert!(efficient.iter().all(|p| p.slack != 24));
    }

    #[test]
    fn real_frontier_is_already_efficient() {
        // The optimal planner's sweep cannot produce a dominated point
        // with *strictly* more cost at equal-or-more delay… unless two
        // slacks tie; the filter keeps at least the extremes.
        let series = wave(24 * 30);
        let frontier = carbon_delay_frontier(&series, Hour(0), 24 * 15, 4, &[0, 12, 24, 48], 7);
        let efficient = pareto_filter(&frontier);
        assert!(efficient.iter().any(|p| p.slack == 0));
        assert!(!efficient.is_empty());
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let series = wave(48);
        carbon_delay_frontier(&series, Hour(0), 10, 2, &[0], 0);
    }
}
