//! Combined online spatial + temporal shifting (§6.4 made online).
//!
//! Fig. 12 combines migration with in-destination deferral analytically;
//! this policy is the discrete-event counterpart: at arrival a job is
//! routed by a [`LatencyAwareRouter`] to the greenest region within its
//! latency SLO (with the router's same-hour admission control), then
//! deferred inside the destination by a [`ForecastDeferral`] planning on
//! a forecast of the destination's carbon-intensity. The paper's finding
//! — spatial gains dominate, temporal shifting adds a little on top —
//! emerges online.

use decarb_forecast::Forecaster;
use decarb_traces::{RegionId, TraceSet};
use decarb_workloads::Job;

use crate::cluster::CloudView;
use crate::forecast_policy::ForecastDeferral;
use crate::policy::{Placement, Policy};
use crate::routing::LatencyAwareRouter;

/// Routes to the greenest feasible region, then forecast-defers there.
pub struct SpatioTemporal<F> {
    router: LatencyAwareRouter,
    deferral: ForecastDeferral<F>,
}

impl<F: Forecaster> SpatioTemporal<F> {
    /// Creates the policy over the deployed regions of `traces`, routing
    /// within `slo_ms` of each job's origin.
    pub fn new(traces: &TraceSet, deployed: &[RegionId], slo_ms: f64, forecaster: F) -> Self {
        Self {
            router: LatencyAwareRouter::new(traces, deployed, slo_ms),
            deferral: ForecastDeferral::new(forecaster),
        }
    }
}

impl<F: Forecaster> Policy for SpatioTemporal<F> {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        let region = self.router.place(job, view).region;
        Placement {
            region,
            start: self.deferral.start_in(job, region, view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::policy::CarbonAgnostic;
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
