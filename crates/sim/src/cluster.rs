//! Datacenter and cloud state.

use decarb_traces::{Hour, RegionId, Resolution, TraceSet};
use decarb_workloads::Job;

/// A running (or suspended) job instance inside a datacenter.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The job being executed.
    pub job: Job,
    /// Slots of work still to perform (hours on an hourly axis).
    pub remaining_slots: usize,
    /// Sum of the carbon-intensity samples over every executed slot.
    /// The engine converts it to emissions once, when the job finishes
    /// or the run ends.
    pub ci_sum: f64,
    /// Whether the job is currently suspended.
    pub suspended: bool,
    /// Hour of the job's first executed slot, once it has run.
    pub started: Option<Hour>,
    /// Cached policy verdict for interruptible jobs: the engine
    /// consults `Policy::should_run` only at hour boundaries (the
    /// policies' decision cadence) and replays this verdict on the
    /// slots in between.
    pub cached_decision: bool,
    /// `true` until the policy has been consulted once: a job admitted
    /// mid-hour gets its verdict at admission rather than waiting for
    /// the next hour boundary.
    pub decision_pending: bool,
}

impl RunningJob {
    /// Creates a freshly admitted (not yet running) instance on a trace
    /// axis sampled at `resolution`: the remaining work is the job's
    /// length in *slots* of that axis.
    pub fn admitted(job: Job, resolution: Resolution) -> Self {
        Self {
            remaining_slots: job.length_slots_at(resolution),
            job,
            ci_sum: 0.0,
            suspended: true,
            started: None,
            cached_decision: true,
            decision_pending: true,
        }
    }

    /// Returns `true` once the job has executed at least one slot.
    pub fn has_run(&self) -> bool {
        self.started.is_some()
    }
}

/// One region's datacenter with a fixed capacity in job slots.
#[derive(Debug, Clone)]
pub struct Datacenter {
    /// Interned id of the region this datacenter draws power from.
    pub region: RegionId,
    /// Maximum number of concurrently *running* (non-suspended) jobs.
    pub capacity: usize,
    /// Jobs admitted to this datacenter (running or suspended).
    pub jobs: Vec<RunningJob>,
}

impl Datacenter {
    /// Creates a datacenter with `capacity` slots.
    pub fn new(region: RegionId, capacity: usize) -> Self {
        Self {
            region,
            capacity,
            jobs: Vec::new(),
        }
    }

    /// Returns the number of actively running jobs.
    pub fn running(&self) -> usize {
        self.jobs.iter().filter(|j| !j.suspended).count()
    }

    /// Returns the number of free capacity slots.
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.running())
    }
}

/// A read-only view of the cloud handed to policies.
///
/// Datacenters live in a dense slice ordered lexicographically by zone
/// code (so iteration order — and therefore accounting order — is
/// deterministic whatever order the region set was declared in), with
/// an id-indexed side table for O(1) region→datacenter resolution: no
/// string hashing anywhere on the policy hot path.
pub struct CloudView<'a> {
    /// All datacenters, ordered lexicographically by zone code.
    pub datacenters: &'a [Datacenter],
    /// [`RegionId::index`]-indexed map to positions in `datacenters`
    /// (`None` for ids without a deployed datacenter).
    pub slot_of: &'a [Option<u16>],
    /// The carbon traces.
    pub traces: &'a TraceSet,
    /// The current simulation hour.
    pub now: Hour,
}

/// Resolves a region id against an id-indexed slot table — the one
/// deployed-datacenter invariant shared by the policy view and the
/// engine's placement validation, admission, and inspection paths.
#[inline]
pub(crate) fn slot_in(slot_of: &[Option<u16>], id: RegionId) -> Option<usize> {
    slot_of
        .get(id.index())
        .copied()
        .flatten()
        .map(|slot| slot as usize)
}

impl CloudView<'_> {
    /// Returns the datacenter deployed in `id`'s region, if any.
    #[inline]
    pub fn datacenter(&self, id: RegionId) -> Option<&Datacenter> {
        Some(&self.datacenters[slot_in(self.slot_of, id)?])
    }

    /// Returns `true` if a datacenter is deployed in `id`'s region.
    #[inline]
    pub fn is_deployed(&self, id: RegionId) -> bool {
        slot_in(self.slot_of, id).is_some()
    }

    /// Returns the current carbon-intensity of a zone.
    #[inline]
    pub fn current_ci(&self, id: RegionId) -> Option<f64> {
        self.traces.try_series_by_id(id)?.at(self.now)
    }

    /// Returns the zone with the lowest current CI among those with free
    /// capacity, if any. Ties break to the lexicographically first zone
    /// code for determinism.
    pub fn greenest_with_capacity(&self) -> Option<RegionId> {
        self.datacenters
            .iter()
            .filter(|dc| dc.free_slots() > 0)
            .filter_map(|dc| self.current_ci(dc.region).map(|ci| (dc.region, ci)))
            // `datacenters` is already in code order, so a strict `<`
            // keeps the lexicographically first zone on ties.
            .fold(None, |best: Option<(RegionId, f64)>, (id, ci)| match best {
                Some((_, best_ci)) if best_ci <= ci => best,
                _ => Some((id, ci)),
            })
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_workloads::Slack;

    #[test]
    fn capacity_accounting() {
        let data = builtin_dataset();
        let se = data.id_of("SE").unwrap();
        let mut dc = Datacenter::new(se, 2);
        assert_eq!(dc.free_slots(), 2);
        let mut active = RunningJob::admitted(
            Job::batch(1, se, Hour(0), 4.0, Slack::None),
            Resolution::HOURLY,
        );
        active.suspended = false;
        dc.jobs.push(active);
        dc.jobs.push(RunningJob::admitted(
            Job::batch(2, se, Hour(0), 4.0, Slack::None),
            Resolution::HOURLY,
        ));
        assert_eq!(dc.running(), 1);
        assert_eq!(dc.free_slots(), 1);
    }

    #[test]
    fn admitted_jobs_have_not_run() {
        let job = Job::batch(1, RegionId(0), Hour(0), 3.0, Slack::None);
        let rj = RunningJob::admitted(job.clone(), Resolution::HOURLY);
        assert!(rj.suspended);
        assert!(!rj.has_run());
        assert_eq!(rj.remaining_slots, 3);
        assert_eq!(rj.ci_sum, 0.0);
        let fine = RunningJob::admitted(job, Resolution::from_minutes(5).unwrap());
        assert_eq!(fine.remaining_slots, 36);
    }

    #[test]
    fn view_finds_greenest_free() {
        let traces = builtin_dataset();
        let mut ids: Vec<RegionId> = ["SE", "PL", "IN-WE"]
            .iter()
            .map(|c| traces.id_of(c).unwrap())
            .collect();
        ids.sort_by(|a, b| traces.code(*a).cmp(traces.code(*b)));
        let dcs: Vec<Datacenter> = ids.iter().map(|&id| Datacenter::new(id, 1)).collect();
        let mut slot_of = vec![None; traces.len()];
        for (i, dc) in dcs.iter().enumerate() {
            slot_of[dc.region.index()] = Some(i as u16);
        }
        let view = CloudView {
            datacenters: &dcs,
            slot_of: &slot_of,
            traces: &traces,
            now: year_start(2022),
        };
        let se = traces.id_of("SE").unwrap();
        let pl = traces.id_of("PL").unwrap();
        assert_eq!(view.greenest_with_capacity(), Some(se));
        assert!(view.current_ci(se).unwrap() < view.current_ci(pl).unwrap());
        assert!(view.datacenter(se).is_some());
        assert!(view.is_deployed(pl));
        let de = traces.id_of("DE").unwrap();
        assert!(view.datacenter(de).is_none());
        assert!(!view.is_deployed(de));
        assert!(view.current_ci(RegionId(9999)).is_none());
    }
}
