//! A shared, thread-safe cache of [`TemporalPlanner`]s.
//!
//! [`crate::policy::PlannedDeferral`] builds a fresh planner for
//! *every* placement. A planner built by
//! [`TemporalPlanner::for_region`] shares the dataset's samples and its
//! cached prefix sums, so a build copies no trace: it is one reference
//! count bump, plus the prefix build for the first planner of a
//! region. A [`PlannerCache`] is created once per
//! [`crate::SweepPlan::execute_with`] call and shared by reference
//! across the worker threads: each region's planner is built the first
//! time any scenario needs it and reused by every later placement.
//! With builds this cheap the cache saves little. Its remaining users
//! are the sweep ([`crate::sweep`] and [`crate::Scenario::run_cached`])
//! and the benchmark's serial replay; the serving [`crate::Snapshot`]
//! holds a plain planner per region instead. Deleting the cache is an
//! open item.
//!
//! A planner spans a region's entire stored trace, so the cache is a
//! dense [`RegionId`]-indexed slot table — scenario horizons never
//! change what a planner contains, and the hot-path hit is one bounds
//! check plus an index, no hashing. One cache must only ever see one
//! dataset (ids are per-dataset; the scenario engine guarantees this by
//! scoping the cache to a run).

use std::sync::{Arc, PoisonError, RwLock};

use decarb_core::temporal::TemporalPlanner;
use decarb_traces::{RegionId, TraceSet};
use decarb_workloads::Job;

use crate::cluster::CloudView;
use crate::policy::{defer_at_origin, Placement, Policy};

/// A [`RegionId`]-indexed cache of temporal planners, safe to share
/// across the scenario engine's worker threads.
#[derive(Debug, Default)]
pub struct PlannerCache {
    planners: RwLock<Vec<Option<Arc<TemporalPlanner>>>>,
}

impl PlannerCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the planner for region `id` of `traces`, building it on
    /// the first request (panics on a foreign id).
    pub fn planner(&self, traces: &TraceSet, id: RegionId) -> Arc<TemporalPlanner> {
        let read = self.planners.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(Some(planner)) = read.get(id.index()) {
            return Arc::clone(planner);
        }
        drop(read);
        let mut planners = self
            .planners
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if planners.len() <= id.index() {
            planners.resize(id.index() + 1, None);
        }
        // Another worker may have built it between the read and write
        // lock; the re-check keeps exactly one build either way.
        Arc::clone(
            planners[id.index()]
                .get_or_insert_with(|| Arc::new(TemporalPlanner::for_region(traces, id))),
        )
    }

    /// Returns how many regions have a cached planner.
    pub fn len(&self) -> usize {
        self.planners
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|slot| slot.is_some())
            .count()
    }

    /// Returns `true` while no planner has been built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`crate::policy::PlannedDeferral`] backed by a shared
/// [`PlannerCache`]: identical placements, amortized planner builds.
///
/// This is what [`crate::scenario::PolicyKind::PlannedDeferral`] runs —
/// the unit-struct `PlannedDeferral` remains the self-contained variant
/// for one-off analytic validation.
pub struct CachedDeferral<'a> {
    cache: &'a PlannerCache,
}

impl<'a> CachedDeferral<'a> {
    /// Creates the policy over a shared cache.
    pub fn new(cache: &'a PlannerCache) -> Self {
        Self { cache }
    }
}

impl Policy for CachedDeferral<'_> {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        defer_at_origin(job, view, || self.cache.planner(view.traces, job.origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::policy::PlannedDeferral;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_workloads::Slack;

    #[test]
    fn planner_is_built_once_per_region() {
        let data = builtin_dataset();
        let cache = PlannerCache::new();
        assert!(cache.is_empty());
        let se = data.id_of("SE").unwrap();
        let de = data.id_of("DE").unwrap();
        let first = cache.planner(&data, se);
        let second = cache.planner(&data, se);
        assert!(Arc::ptr_eq(&first, &second), "same planner instance");
        cache.planner(&data, de);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_deferral_matches_the_uncached_policy() {
        let data = builtin_dataset();
        let start = year_start(2022);
        let ca = data.id_of("US-CA").unwrap();
        let de = data.id_of("DE").unwrap();
        let regions = vec![ca, de];
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                let origin = if i % 2 == 0 { ca } else { de };
                Job::batch(i + 1, origin, start.plus(i as usize * 5), 6.0, Slack::Day)
            })
            .collect();
        let mut plain_sim = Simulator::new(&data, &regions, SimConfig::new(start, 24 * 10, 8));
        let plain = plain_sim.run(&mut PlannedDeferral, &jobs);
        let cache = PlannerCache::new();
        let mut cached_sim = Simulator::new(&data, &regions, SimConfig::new(start, 24 * 10, 8));
        let cached = cached_sim.run(&mut CachedDeferral::new(&cache), &jobs);
        assert_eq!(plain.completed_count(), cached.completed_count());
        assert!((plain.total_emissions_g - cached.total_emissions_g).abs() < 1e-9);
        assert_eq!(cache.len(), 2, "one planner per origin region");
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let data = builtin_dataset();
        let cache = PlannerCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for code in ["SE", "DE", "FR", "GB"] {
                        let id = data.id_of(code).unwrap();
                        let planner = cache.planner(&data, id);
                        assert_eq!(planner.trace_start(), data.series_by_id(id).start());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4);
    }
}
