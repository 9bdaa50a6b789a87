//! Pluggable scheduling policies.

use decarb_core::temporal::TemporalPlanner;
use decarb_traces::{Hour, RegionId};
use decarb_workloads::Job;

use crate::cluster::CloudView;

/// Where and when a job should start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Interned id of the destination zone.
    pub region: RegionId,
    /// Hour the job should (first) start running.
    pub start: Hour,
}

/// A scheduling policy driven by the simulator.
pub trait Policy {
    /// Decides where and when an arriving job should run.
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement;

    /// Decides whether an admitted interruptible job should execute during
    /// the current hour (`true`) or stay suspended (`false`).
    ///
    /// `remaining_slots` is the outstanding work and `deadline` the latest
    /// hour by which the job must be *running continuously* to still
    /// finish within its slack. The default runs unconditionally.
    fn should_run(
        &mut self,
        _job: &Job,
        _remaining_slots: usize,
        _deadline: Hour,
        _view: &CloudView<'_>,
    ) -> bool {
        true
    }
}

/// The carbon-agnostic baseline: run immediately at the origin.
#[derive(Debug, Default, Clone)]
pub struct CarbonAgnostic;

impl Policy for CarbonAgnostic {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        Placement {
            region: job.origin,
            start: view.now,
        }
    }
}

/// Clairvoyant deferral: plan the cheapest contiguous window at the origin
/// using the full future trace (the paper's deferral upper bound).
pub struct PlannedDeferral;

impl Policy for PlannedDeferral {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        // No trace for the origin means nothing to plan against; run
        // the job immediately rather than panicking the worker.
        if view.traces.try_series_by_id(job.origin).is_none() {
            return Placement {
                region: job.origin,
                start: view.now,
            };
        }
        let resolution = view.traces.resolution();
        let planner = TemporalPlanner::for_region(view.traces, job.origin);
        let placement = planner.best_deferred(
            view.now,
            job.length_slots_at(resolution),
            job.slack_slots_at(resolution),
        );
        Placement {
            region: job.origin,
            start: placement.start,
        }
    }
}

/// Online threshold suspend/resume: run whenever the origin's current CI
/// is below a fraction of its trailing mean, and always run when the
/// deadline forces it. Non-clairvoyant — it only looks backwards.
pub struct ThresholdSuspend {
    /// Run when `CI(now) ≤ threshold × trailing mean`.
    pub threshold: f64,
    /// Trailing window length in hours.
    pub window: usize,
}

impl Default for ThresholdSuspend {
    fn default() -> Self {
        Self {
            threshold: 0.95,
            window: 24,
        }
    }
}

impl Policy for ThresholdSuspend {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        Placement {
            region: job.origin,
            start: view.now,
        }
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
        let Some(series) = view.traces.try_series_by_id(job.origin) else {
            return true;
        };
        let Some(now_ci) = series.at(view.now) else {
            return true;
        };
        // Trailing mean over up to `window` past hours (scaled to the
        // dataset's slot axis, so a 24 h window covers 288 slots at
        // 5-minute resolution).
        let window_slots = self.window * view.traces.resolution().slots_per_hour();
        let lookback = (view.now.0.saturating_sub(series.start().0) as usize).min(window_slots);
        if lookback == 0 {
            return true;
        }
        let from = Hour(view.now.0 - lookback as u32);
        let Ok(past) = series.window(from, lookback) else {
            return true;
        };
        let mean = past.iter().sum::<f64>() / lookback as f64;
        now_ci <= self.threshold * mean
    }
}

/// Greenest-region router: at arrival, place the job in the feasible
/// region with the lowest *current* CI that has free capacity, falling
/// back to the origin.
#[derive(Debug, Default, Clone)]
pub struct GreenestRouter;

impl Policy for GreenestRouter {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        let region = if job.migratable {
            view.greenest_with_capacity().unwrap_or(job.origin)
        } else {
            job.origin
        };
        Placement {
            region,
            start: view.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Datacenter;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_traces::TraceSet;
    use decarb_workloads::Slack;

    struct Deployment {
        datacenters: Vec<Datacenter>,
        slot_of: Vec<Option<u16>>,
    }

    fn deploy(traces: &TraceSet, codes: &[&str], capacity: usize) -> Deployment {
        let mut ids: Vec<decarb_traces::RegionId> =
            codes.iter().map(|c| traces.id_of(c).unwrap()).collect();
        ids.sort_by(|a, b| traces.code(*a).cmp(traces.code(*b)));
        let datacenters: Vec<Datacenter> = ids
            .iter()
            .map(|&id| Datacenter::new(id, capacity))
            .collect();
        let mut slot_of = vec![None; traces.len()];
        for (i, dc) in datacenters.iter().enumerate() {
            slot_of[dc.region.index()] = Some(i as u16);
        }
        Deployment {
            datacenters,
            slot_of,
        }
    }

    fn view_with<'a>(deployment: &'a Deployment, traces: &'a TraceSet, now: Hour) -> CloudView<'a> {
        CloudView {
            datacenters: &deployment.datacenters,
            slot_of: &deployment.slot_of,
            traces,
            now,
        }
    }

    #[test]
    fn agnostic_runs_immediately_at_origin() {
        let traces = builtin_dataset();
        let empty = deploy(&traces, &[], 1);
        let now = year_start(2022);
        let view = view_with(&empty, &traces, now);
        let de = traces.id_of("DE").unwrap();
        let job = Job::batch(1, de, now, 4.0, Slack::Day);
        let p = CarbonAgnostic.place(&job, &view);
        assert_eq!(p.region, de);
        assert_eq!(p.start, now);
    }

    #[test]
    fn planned_deferral_matches_planner() {
        let traces = builtin_dataset();
        let empty = deploy(&traces, &[], 1);
        let now = year_start(2022);
        let view = view_with(&empty, &traces, now);
        let ca = traces.id_of("US-CA").unwrap();
        let job = Job::batch(1, ca, now, 6.0, Slack::Day);
        let p = PlannedDeferral.place(&job, &view);
        let planner = TemporalPlanner::new(traces.series("US-CA").unwrap());
        let expected = planner.best_deferred(now, 6, 24);
        assert_eq!(p.start, expected.start);
        assert!(p.start >= now);
        assert!(p.start.0 <= now.0 + 24);
    }

    #[test]
    fn router_prefers_greenest_free_region() {
        let traces = builtin_dataset();
        let deployment = deploy(&traces, &["SE", "PL"], 1);
        let now = year_start(2022);
        let view = view_with(&deployment, &traces, now);
        let pl = traces.id_of("PL").unwrap();
        let se = traces.id_of("SE").unwrap();
        let job = Job::batch(1, pl, now, 1.0, Slack::None);
        assert_eq!(GreenestRouter.place(&job, &view).region, se);
        // Pinned jobs stay home.
        let pinned = Job::interactive(2, pl, now);
        assert_eq!(GreenestRouter.place(&pinned, &view).region, pl);
    }

    #[test]
    fn threshold_runs_when_forced_by_deadline() {
        let traces = builtin_dataset();
        let empty = deploy(&traces, &[], 1);
        let now = year_start(2022);
        let view = view_with(&empty, &traces, now);
        let de = traces.id_of("DE").unwrap();
        let job = Job::batch(1, de, now, 4.0, Slack::Day).with_interruptible();
        let mut policy = ThresholdSuspend {
            threshold: 0.0, // Never voluntarily run.
            window: 24,
        };
        // Deadline equals now + remaining: must run.
        assert!(policy.should_run(&job, 4, now.plus(4), &view));
        // Plenty of slack left: suspended under an impossible threshold.
        assert!(!policy.should_run(&job, 4, now.plus(100), &view));
    }

    #[test]
    fn threshold_runs_in_cheap_hours() {
        let traces = builtin_dataset();
        let empty = deploy(&traces, &[], 1);
        // Find a noon hour in California (solar dip → below trailing mean).
        let series = traces.series("US-CA").unwrap();
        let ca = traces.id_of("US-CA").unwrap();
        let start = year_start(2022);
        let mut policy = ThresholdSuspend::default();
        let job = Job::batch(1, ca, start, 4.0, Slack::Week).with_interruptible();
        let mut ran_some = false;
        for offset in 48..120usize {
            let now = start.plus(offset);
            let view = view_with(&empty, &traces, now);
            if policy.should_run(&job, 4, now.plus(1000), &view) {
                ran_some = true;
                // Running hours must be no dirtier than the trailing mean.
                let window = series.window(Hour(now.0 - 24), 24).unwrap();
                let mean = window.iter().sum::<f64>() / 24.0;
                assert!(series.get(now) <= 0.95 * mean + 1e-9);
            }
        }
        assert!(ran_some, "policy should find at least one cheap hour");
    }
}
