//! Forecast-driven online policies.
//!
//! The paper's deferral and interruptibility bounds are clairvoyant; its
//! §6.2 probes sensitivity to forecast error abstractly. These policies
//! close the loop: they plan with a real [`Forecaster`] over exactly the
//! history an online scheduler could have seen, so the gap between them
//! and [`crate::policy::PlannedDeferral`] *is* the cost of imperfect
//! forecasts, with realistic structured error instead of §6.2's uniform
//! noise.

use std::collections::HashMap;

use decarb_core::temporal::TemporalPlanner;
use decarb_forecast::Forecaster;
use decarb_traces::{Hour, TimeSeries};
use decarb_workloads::Job;

use crate::cluster::CloudView;
use crate::policy::{Placement, Policy};

/// Slices the history an online scheduler is allowed to see at `now`:
/// every sample of `series` strictly before `now`, capped at
/// `max_history` slots. The slice is a view onto `series`' buffer, so a
/// decision copies no history.
pub(crate) fn visible_history(
    series: &TimeSeries,
    now: Hour,
    max_history: usize,
) -> Option<TimeSeries> {
    let available = now.0.checked_sub(series.start().0)? as usize;
    if available == 0 {
        return None;
    }
    let len = available.min(max_history);
    series.slice(Hour(now.0 - len as u32), len).ok()
}

/// Defer a job's start using a forecast of its scheduling window.
///
/// At arrival the policy forecasts the next `slack + length` hours at the
/// job's origin, picks the cheapest contiguous window on the *predicted*
/// trace, and commits to that start. Emissions are then paid on the true
/// trace — the schedule-on-believed / account-on-truth protocol of §6.2.
pub struct ForecastDeferral<F> {
    forecaster: F,
    /// History handed to the forecaster at each decision, hours.
    pub max_history: usize,
}

impl<F: Forecaster> ForecastDeferral<F> {
    /// Creates the policy with a 28-day history window.
    pub fn new(forecaster: F) -> Self {
        Self {
            forecaster,
            max_history: 28 * 24,
        }
    }
}

impl<F: Forecaster> Policy for ForecastDeferral<F> {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        let fallback = Placement {
            region: job.origin,
            start: view.now,
        };
        let Some(series) = view.traces.try_series_by_id(job.origin) else {
            return fallback;
        };
        let resolution = view.traces.resolution();
        let history_slots = self.max_history * resolution.slots_per_hour();
        let Some(history) = visible_history(series, view.now, history_slots) else {
            return fallback;
        };
        let slots = job.length_slots_at(resolution);
        let window = job.slack_slots_at(resolution) + slots;
        // Never plan past the true trace (the simulator could not pay for
        // those hours anyway).
        let available = (series.end().0 - view.now.0) as usize;
        if available < slots {
            return fallback;
        }
        let window = window.min(available);
        let predicted = self.forecaster.predict_series(&history, window);
        let planner = TemporalPlanner::with_resolution(&predicted, resolution);
        let placement = planner.best_deferred(view.now, slots, window - slots);
        Placement {
            region: job.origin,
            start: placement.start,
        }
    }
}

/// Suspend/resume an interruptible job according to a forecast plan.
///
/// At arrival the policy forecasts the job's whole scheduling window,
/// marks the `length` cheapest predicted hours as run-hours, and follows
/// that plan; the simulator's deadline forcing still guarantees
/// completion if the plan was too optimistic.
pub struct ForecastSuspend<F> {
    forecaster: F,
    /// History handed to the forecaster at each decision, hours.
    pub max_history: usize,
    plans: HashMap<u64, Vec<Hour>>,
}

impl<F: Forecaster> ForecastSuspend<F> {
    /// Creates the policy with a 28-day history window.
    pub fn new(forecaster: F) -> Self {
        Self {
            forecaster,
            max_history: 28 * 24,
            plans: HashMap::new(),
        }
    }

    /// Returns the planned run-hours of a job (sorted), for inspection.
    pub fn plan_of(&self, job_id: u64) -> Option<&[Hour]> {
        self.plans.get(&job_id).map(Vec::as_slice)
    }
}

impl<F: Forecaster> Policy for ForecastSuspend<F> {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        let placement = Placement {
            region: job.origin,
            start: view.now,
        };
        if !job.interruptible {
            return placement;
        }
        let Some(series) = view.traces.try_series_by_id(job.origin) else {
            return placement;
        };
        let resolution = view.traces.resolution();
        let history_slots = self.max_history * resolution.slots_per_hour();
        let Some(history) = visible_history(series, view.now, history_slots) else {
            return placement;
        };
        let slots = job.length_slots_at(resolution);
        let available = (series.end().0 - view.now.0) as usize;
        let window = (job.slack_slots_at(resolution) + slots).min(available);
        if window < slots {
            return placement;
        }
        let predicted = self.forecaster.predict(&history, window);
        // The `slots` cheapest predicted hours, preferring earlier on ties.
        let mut order: Vec<usize> = (0..window).collect();
        order.sort_by(|&a, &b| predicted[a].total_cmp(&predicted[b]).then(a.cmp(&b)));
        let mut hours: Vec<Hour> = order[..slots].iter().map(|&i| view.now.plus(i)).collect();
        hours.sort();
        self.plans.insert(job.id, hours);
        placement
    }

    fn should_run(
        &mut self,
        job: &Job,
        remaining_slots: usize,
        deadline: Hour,
        view: &CloudView<'_>,
    ) -> bool {
        // Forced once the remaining window equals the remaining work.
        if view.now.plus(remaining_slots) >= deadline {
            return true;
        }
        match self.plans.get(&job.id) {
            Some(plan) => {
                // Run if any planned slot falls inside the current
                // decision period — one slot on hourly axes (exactly
                // the old membership test), the rest of the hour on
                // sub-hourly axes, where verdicts are replayed until
                // the next hour boundary.
                let sph = view.traces.resolution().slots_per_hour() as u32;
                let period_end = Hour(view.now.0 - view.now.0 % sph + sph);
                let idx = plan.partition_point(|h| *h < view.now);
                plan.get(idx).is_some_and(|h| *h < period_end)
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::policy::{CarbonAgnostic, PlannedDeferral};
    use decarb_forecast::{DiurnalTemplate, Persistence, SeasonalNaive};
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_traces::RegionId;
    use decarb_workloads::Slack;

    fn id(code: &str) -> RegionId {
        builtin_dataset().id_of(code).unwrap()
    }

    /// Run one job under a policy and return its emissions.
    fn run_one<P: Policy>(policy: &mut P, job: Job, horizon: usize) -> f64 {
        let traces = builtin_dataset();
        let rs = vec![job.origin];
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(job.arrival, horizon, 4));
        let report = sim.run(policy, std::slice::from_ref(&job));
        assert_eq!(report.completed_count(), 1, "job must finish");
        report.emissions_of(job.id).unwrap()
    }

    #[test]
    fn forecast_deferral_between_bounds_on_diurnal_region() {
        // Start mid-year so the forecaster has history to look at.
        let arrival = year_start(2022).plus(120 * 24);
        let job = Job::batch(1, id("US-CA"), arrival, 4.0, Slack::Day);
        let agnostic = run_one(&mut CarbonAgnostic, job.clone(), 24 * 10);
        let clairvoyant = run_one(&mut PlannedDeferral, job.clone(), 24 * 10);
        let forecast = run_one(
            &mut ForecastDeferral::new(DiurnalTemplate::default()),
            job,
            24 * 10,
        );
        assert!(
            forecast >= clairvoyant - 1e-9,
            "forecast {forecast} below clairvoyant bound {clairvoyant}"
        );
        // On a strongly diurnal trace the template forecast captures most
        // of the deferral benefit.
        assert!(
            forecast <= agnostic * 1.001,
            "forecast {forecast} vs agnostic {agnostic}"
        );
    }

    #[test]
    fn forecast_deferral_with_no_history_runs_immediately() {
        let arrival = year_start(2020); // Trace start: nothing visible.
        let job = Job::batch(2, id("DE"), arrival, 3.0, Slack::Day);
        let forecast = run_one(&mut ForecastDeferral::new(Persistence), job.clone(), 24 * 5);
        let agnostic = run_one(&mut CarbonAgnostic, job, 24 * 5);
        assert!((forecast - agnostic).abs() < 1e-9);
    }

    #[test]
    fn forecast_suspend_completes_and_respects_bound() {
        let traces = builtin_dataset();
        let arrival = year_start(2022).plus(90 * 24);
        let job = Job::batch(3, id("US-CA"), arrival, 12.0, Slack::Week).with_interruptible();
        let rs = vec![id("US-CA")];
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(arrival, 24 * 30, 4));
        let mut policy = ForecastSuspend::new(SeasonalNaive::daily());
        let report = sim.run(&mut policy, &[job]);
        assert_eq!(report.completed_count(), 1);
        let emitted = report.emissions_of(3).unwrap();
        let planner = TemporalPlanner::new(traces.series("US-CA").unwrap());
        let clairvoyant = planner.best_interruptible(arrival, 12, 168).1;
        let baseline = planner.baseline_cost(arrival, 12);
        assert!(emitted >= clairvoyant - 1e-9);
        assert!(
            emitted < baseline,
            "forecast plan {emitted} should beat contiguous baseline {baseline}"
        );
    }

    #[test]
    fn forecast_suspend_plan_has_job_length_hours() {
        let traces = builtin_dataset();
        let arrival = year_start(2022).plus(60 * 24);
        let job = Job::batch(4, id("DE"), arrival, 6.0, Slack::Day).with_interruptible();
        let rs = vec![id("DE")];
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(arrival, 24 * 5, 4));
        let mut policy = ForecastSuspend::new(SeasonalNaive::daily());
        let report = sim.run(&mut policy, &[job]);
        assert_eq!(report.completed_count(), 1);
        let plan = policy.plan_of(4).expect("plan recorded");
        assert_eq!(plan.len(), 6);
        assert!(plan.windows(2).all(|w| w[0] < w[1]), "sorted unique plan");
        assert!(plan.first().unwrap() >= &arrival);
    }

    #[test]
    fn uninterruptible_jobs_bypass_the_plan() {
        let traces = builtin_dataset();
        let arrival = year_start(2022).plus(30 * 24);
        let job = Job::batch(5, id("DE"), arrival, 3.0, Slack::Day); // Not interruptible.
        let rs = vec![id("DE")];
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(arrival, 24 * 3, 4));
        let mut policy = ForecastSuspend::new(Persistence);
        let report = sim.run(&mut policy, &[job]);
        assert_eq!(report.completed_count(), 1);
        assert!(policy.plan_of(5).is_none(), "no plan for rigid jobs");
        // Ran contiguously from arrival.
        let c = &report.completed[0];
        assert_eq!(c.started, arrival);
        assert_eq!(c.finished, arrival.plus(2));
    }

    #[test]
    fn visible_history_never_leaks_the_future() {
        let traces = builtin_dataset();
        let series = traces.series("SE").unwrap();
        let now = series.start().plus(100);
        let history = visible_history(series, now, 48).unwrap();
        assert_eq!(history.end(), now);
        assert_eq!(history.len(), 48);
        // At the trace start there is no history.
        assert!(visible_history(series, series.start(), 48).is_none());
        // Before the trace start: also none.
        assert!(visible_history(series, Hour(series.start().0.saturating_sub(1)), 48).is_none());
    }

    #[test]
    fn visible_history_is_a_view_onto_the_region_buffer() {
        // The decision path copies no history: the window handed to the
        // forecaster reads the region's own samples.
        let traces = builtin_dataset();
        let series = traces.series("SE").unwrap();
        let now = series.start().plus(28 * 24 + 100);
        let history = visible_history(series, now, 28 * 24).unwrap();
        let from = (history.start().0 - series.start().0) as usize;
        assert!(std::ptr::eq(
            history.values().as_ptr(),
            &series.values()[from]
        ));
        assert_eq!(history.values(), &series.values()[from..from + 28 * 24]);
    }
}
