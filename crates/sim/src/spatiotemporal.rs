//! Combined online spatial + temporal shifting (§6.4 made online).
//!
//! Fig. 12 combines migration with in-destination deferral analytically;
//! this policy is the discrete-event counterpart: at arrival a job is
//! routed to the greenest region within its latency SLO (with the same
//! same-hour admission control as [`crate::routing::LatencyAwareRouter`]),
//! then deferred inside the destination using a forecast of the
//! destination's carbon-intensity. The paper's finding — spatial gains
//! dominate, temporal shifting adds a little on top — emerges online.

use decarb_core::temporal::TemporalPlanner;
use decarb_forecast::Forecaster;
use decarb_traces::{Hour, RegionId, TimeSeries, TraceSet};
use decarb_workloads::Job;

use crate::cluster::CloudView;
use crate::forecast_policy::visible_history;
use crate::policy::{Placement, Policy};
use crate::routing::{HourlyLedger, RttTable};

/// Routes to the greenest feasible region, then forecast-defers there.
pub struct SpatioTemporal<F> {
    matrix: RttTable,
    /// Round-trip-time budget in milliseconds.
    pub slo_ms: f64,
    forecaster: F,
    /// History handed to the forecaster at each decision, hours.
    pub max_history: usize,
    ledger: HourlyLedger,
}

impl<F: Forecaster> SpatioTemporal<F> {
    /// Creates the policy over the deployed regions of `traces`.
    pub fn new(traces: &TraceSet, deployed: &[RegionId], slo_ms: f64, forecaster: F) -> Self {
        Self {
            matrix: RttTable::build(traces, deployed),
            slo_ms,
            forecaster,
            max_history: 28 * 24,
            ledger: HourlyLedger::new(traces.len()),
        }
    }

    /// Picks the greenest admissible destination for `job` (falls back to
    /// the origin).
    fn route(&self, job: &Job, view: &CloudView<'_>) -> RegionId {
        if !job.migratable {
            return job.origin;
        }
        let mut region = job.origin;
        let mut best_ci = view.current_ci(job.origin).unwrap_or(f64::INFINITY);
        for dc in view.datacenters {
            let id = dc.region;
            if dc.free_slots() <= self.ledger.placed(id) {
                continue;
            }
            let Some(rtt) = self.matrix.get(job.origin, id) else {
                continue;
            };
            if rtt > self.slo_ms {
                continue;
            }
            let Some(ci) = view.current_ci(id) else {
                continue;
            };
            if ci < best_ci || (ci == best_ci && self.matrix.code_before(id, region)) {
                best_ci = ci;
                region = id;
            }
        }
        region
    }

    /// Forecast-defers the start inside `region`'s trace.
    fn defer(&self, job: &Job, region: RegionId, view: &CloudView<'_>) -> Hour {
        let Some(series) = view.traces.try_series_by_id(region) else {
            return view.now;
        };
        let resolution = view.traces.resolution();
        let history_slots = self.max_history * resolution.slots_per_hour();
        let Some(history) = visible_history(series, view.now, history_slots) else {
            return view.now;
        };
        let slots = job.length_slots_at(resolution);
        let remaining = (series.end().0 - view.now.0) as usize;
        if remaining < slots {
            return view.now;
        }
        let window = (job.slack_slots_at(resolution) + slots).min(remaining);
        let predicted: TimeSeries = self.forecaster.predict_series(&history, window);
        TemporalPlanner::with_resolution(&predicted, resolution)
            .best_deferred(view.now, slots, window - slots)
            .start
    }
}

impl<F: Forecaster> Policy for SpatioTemporal<F> {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        let sph = view.traces.resolution().slots_per_hour() as u32;
        self.ledger.roll(Hour(view.now.0 - view.now.0 % sph));
        let region = self.route(job, view);
        self.ledger.record(region);
        let start = self.defer(job, region, view);
        Placement { region, start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::forecast_policy::ForecastDeferral;
    use crate::policy::CarbonAgnostic;
    use crate::routing::LatencyAwareRouter;
    use decarb_forecast::SeasonalNaive;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_workloads::Slack;

    const DEPLOYED: [&str; 3] = ["PL", "DE", "SE"];

    fn regions(traces: &TraceSet) -> Vec<RegionId> {
        DEPLOYED.iter().map(|c| traces.id_of(c).unwrap()).collect()
    }

    fn run<P: Policy>(policy: &mut P, jobs: &[Job], horizon: usize) -> crate::SimReport {
        let traces = builtin_dataset();
        let rs = regions(&traces);
        let start = jobs.iter().map(|j| j.arrival).min().unwrap();
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, horizon, 16));
        let report = sim.run(policy, jobs);
        assert_eq!(report.completed_count(), jobs.len());
        report
    }

    fn workload() -> Vec<Job> {
        let traces = builtin_dataset();
        let pl = traces.id_of("PL").unwrap();
        let start = year_start(2022).plus(60 * 24);
        (0..8)
            .map(|i| Job::batch(i + 1, pl, start.plus(i as usize * 7), 6.0, Slack::Day))
            .collect()
    }

    #[test]
    fn combined_policy_beats_both_single_dimension_policies() {
        let traces = builtin_dataset();
        let rs = regions(&traces);
        let jobs = workload();
        let combined = run(
            &mut SpatioTemporal::new(&traces, &rs, 1000.0, SeasonalNaive::daily()),
            &jobs,
            24 * 5,
        );
        let spatial_only = run(
            &mut LatencyAwareRouter::new(&traces, &rs, 1000.0),
            &jobs,
            24 * 5,
        );
        let temporal_only = run(
            &mut ForecastDeferral::new(SeasonalNaive::daily()),
            &jobs,
            24 * 5,
        );
        let agnostic = run(&mut CarbonAgnostic, &jobs, 24 * 5);
        assert!(combined.total_emissions_g <= spatial_only.total_emissions_g + 1e-9);
        assert!(combined.total_emissions_g <= temporal_only.total_emissions_g + 1e-9);
        assert!(combined.total_emissions_g < agnostic.total_emissions_g);
        // Spatial dominates: routing alone captures most of the benefit
        // (the paper's Fig. 12 takeaway).
        let spatial_gain = agnostic.total_emissions_g - spatial_only.total_emissions_g;
        let temporal_gain = agnostic.total_emissions_g - temporal_only.total_emissions_g;
        assert!(
            spatial_gain > temporal_gain,
            "{spatial_gain} vs {temporal_gain}"
        );
    }

    #[test]
    fn zero_slo_reduces_to_forecast_deferral() {
        let traces = builtin_dataset();
        let rs = regions(&traces);
        let pl = traces.id_of("PL").unwrap();
        let jobs = workload();
        let pinned = run(
            &mut SpatioTemporal::new(&traces, &rs, 0.0, SeasonalNaive::daily()),
            &jobs,
            24 * 5,
        );
        let deferral = run(
            &mut ForecastDeferral::new(SeasonalNaive::daily()),
            &jobs,
            24 * 5,
        );
        assert!((pinned.total_emissions_g - deferral.total_emissions_g).abs() < 1e-9);
        assert!(pinned.completed.iter().all(|c| c.region == pl));
    }

    #[test]
    fn jobs_land_in_sweden_and_wait_for_valleys() {
        let traces = builtin_dataset();
        let rs = regions(&traces);
        let se = traces.id_of("SE").unwrap();
        let jobs = workload();
        let report = run(
            &mut SpatioTemporal::new(&traces, &rs, 1000.0, SeasonalNaive::daily()),
            &jobs,
            24 * 5,
        );
        assert!(report.completed.iter().all(|c| c.region == se));
        // At least some job used its slack (started after arrival) or all
        // started immediately because SE is flat — either way waits are
        // bounded by the slack.
        for c in &report.completed {
            assert!(c.wait_hours() <= 24);
        }
    }

    #[test]
    fn pinned_jobs_stay_home_but_still_defer() {
        let traces = builtin_dataset();
        let rs = regions(&traces);
        let de = traces.id_of("DE").unwrap();
        let start = year_start(2022).plus(90 * 24);
        let mut job = Job::batch(1, de, start, 4.0, Slack::Day);
        job.migratable = false;
        let report = run(
            &mut SpatioTemporal::new(&traces, &rs, 1000.0, SeasonalNaive::daily()),
            &[job],
            24 * 4,
        );
        assert_eq!(report.completed[0].region, de);
    }
}
