//! The discrete-event simulation engine.
//!
//! Time runs on the dataset's slot axis ([`TraceSet::resolution`]): one
//! slot per hour on hourly data, twelve on a 5-minute axis. Every axis
//! goes through the same event-driven loop. Each step processes, in
//! order: arrivals → planned starts → run-set selection (capacity and
//! suspend decisions) → execution and accounting. Planned starts live in
//! an event calendar keyed by slot, so deferring policies cost nothing
//! until their chosen start arrives.
//!
//! Between steps the engine jumps straight to the next structural
//! boundary — arrival, planned start, completion, policy decision point
//! (hour boundary), forced deadline flip, trace-coverage edge, or
//! horizon end — and accrues the emissions of every skipped slot in one
//! prefix-sum query per running job. Idle or steady spans therefore
//! cost O(1) however many slots they cover.
//!
//! All region handling is by interned [`RegionId`]: datacenters live in
//! a dense slice (ordered lexicographically by zone code so accounting
//! order is deterministic), region→datacenter resolution is a flat
//! id-indexed table, and per-region emissions accumulate into a dense
//! buffer — the step loop performs no string hashing at all.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use decarb_traces::{ChunkedPrefix, Hour, RegionId, TimeSeries, TraceSet};
use decarb_workloads::Job;

use crate::accounting::{CompletedJob, SimReport};
use crate::cluster::{slot_in, CloudView, Datacenter, RunningJob};
use crate::overheads::OverheadModel;
use crate::policy::Policy;

/// Simulation parameters.
///
/// `start` and `horizon` are expressed on the dataset's axis: hours for
/// hourly traces, *slots* for sub-hourly ones (a 5-minute dataset's
/// `horizon` counts 5-minute slots). `decarb-sim`'s scenario layer does
/// this conversion from wall-clock hours once at the edge.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// First simulated hour (slot index on sub-hourly axes).
    pub start: Hour,
    /// Number of slots to simulate.
    pub horizon: usize,
    /// Capacity (concurrent running jobs) of every datacenter.
    pub capacity_per_region: usize,
    /// Energy overheads for suspend/resume/migration transitions
    /// (defaults to the paper's zero-overhead idealization).
    pub overheads: OverheadModel,
}

impl SimConfig {
    /// Creates a zero-overhead configuration (the paper's idealization).
    pub fn new(start: Hour, horizon: usize, capacity_per_region: usize) -> Self {
        Self {
            start,
            horizon,
            capacity_per_region,
            overheads: OverheadModel::ZERO,
        }
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overheads(mut self, overheads: OverheadModel) -> Self {
        self.overheads = overheads;
        self
    }
}

/// A calendar entry: a job admitted to `region` that should start at
/// `start`.
#[derive(Debug)]
struct PlannedStart {
    start: Hour,
    seq: u64,
    job: Job,
    region: RegionId,
}

impl PartialEq for PlannedStart {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.seq == other.seq
    }
}
impl Eq for PlannedStart {}
impl PartialOrd for PlannedStart {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PlannedStart {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need earliest first.
        other.start.cmp(&self.start).then(other.seq.cmp(&self.seq))
    }
}

/// The simulator: datacenters, an event calendar, and a policy-driven run
/// loop.
pub struct Simulator<'a> {
    traces: &'a TraceSet,
    config: SimConfig,
    /// Datacenters in lexicographic zone-code order.
    datacenters: Vec<Datacenter>,
    /// [`RegionId::index`]-indexed map into `datacenters`.
    slot_of: Vec<Option<u16>>,
    calendar: BinaryHeap<PlannedStart>,
    seq: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with one datacenter per region in `regions`.
    ///
    /// # Panics
    ///
    /// Panics if a region id does not belong to `traces`' table.
    pub fn new(traces: &'a TraceSet, regions: &[RegionId], config: SimConfig) -> Self {
        let mut ids: Vec<RegionId> = regions.to_vec();
        ids.sort_by(|a, b| traces.code(*a).cmp(traces.code(*b)));
        ids.dedup();
        let mut slot_of = vec![None; traces.len()];
        let datacenters: Vec<Datacenter> = ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| {
                slot_of[id.index()] = Some(slot as u16);
                Datacenter::new(id, config.capacity_per_region)
            })
            .collect();
        Self {
            traces,
            config,
            datacenters,
            slot_of,
            calendar: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Runs `jobs` (sorted or unsorted by arrival) under `policy` and
    /// returns the aggregate report.
    ///
    /// Jobs whose arrival lies outside the simulated horizon are counted
    /// as unfinished, as are jobs whose planned start lands at or past
    /// the horizon end (they are never admitted). Jobs arriving before
    /// the simulated window are treated as arriving at its first slot.
    pub fn run<P: Policy + ?Sized>(&mut self, policy: &mut P, jobs: &[Job]) -> SimReport {
        self.simulate(policy, jobs, usize::MAX)
    }

    /// Steps every slot: the reference semantics the event-driven loop
    /// is tested against.
    #[cfg(test)]
    fn run_slot_stepped<P: Policy + ?Sized>(&mut self, policy: &mut P, jobs: &[Job]) -> SimReport {
        self.simulate(policy, jobs, 1)
    }

    /// The engine loop. A step covers at most `max_span` slots: unbounded
    /// for [`Simulator::run`], one for the slot-stepped test oracle.
    ///
    /// * **Slot domain** — `config.start`/`horizon`, arrivals, planned
    ///   starts, and deadlines are slot indices; wall-clock job shapes
    ///   convert once via `Job::{length,slack,window}_slots_at`.
    /// * **Hourly decision cadence** — `Policy::should_run` is consulted
    ///   at hour boundaries (every slot on hourly data) and once at
    ///   admission, its verdict cached on the [`RunningJob`] and replayed
    ///   in between; an engine-side forced-deadline check still runs
    ///   every slot so deadlines keep slot precision.
    /// * **Exact span accounting** — executed slots accumulate raw CI
    ///   into `RunningJob::ci_sum` (one [`ChunkedPrefix`] query per
    ///   span); emissions and energy convert once per job as
    ///   `(ci_sum · length_hours) / length_slots` and
    ///   `(slots_run · length_hours) / length_slots`, multiply before
    ///   divide. On integer-valued traces this is exact, which is what
    ///   makes a 12×-repeated 5-minute trace reproduce the hourly run
    ///   bit for bit.
    /// * **Event-driven spans** — time jumps to the next structural
    ///   boundary: arrival, planned start, completion, hour boundary
    ///   (only while interruptible jobs are admitted), forced-deadline
    ///   flip of a suspended job, trace-coverage edge, or horizon end.
    ///   Run sets are provably stable between those boundaries, so the
    ///   skipped slots differ only by accrual, done in O(1) per job.
    // decarb-analyze: hot-path
    fn simulate<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        jobs: &[Job],
        max_span: usize,
    ) -> SimReport {
        let resolution = self.traces.resolution();
        let mut report = SimReport {
            resolution,
            ..SimReport::default()
        };
        let mut arrivals: Vec<Job> = jobs.to_vec();
        arrivals.sort_by_key(|j| std::cmp::Reverse((j.arrival, j.id)));
        let end = self.config.start.plus(self.config.horizon);
        let mut never_admitted = 0usize;
        let dc_count = self.datacenters.len();
        let sph = resolution.slots_per_hour() as u32;

        let dc_series: Vec<Option<&TimeSeries>> = self
            .datacenters
            .iter()
            .map(|dc| self.traces.try_series_by_id(dc.region))
            .collect();
        // One blocked prefix sum per covered datacenter: span accrual is
        // two O(1) lookups however many slots the span covers. The
        // structures live in the dataset's shared cache, so repeated
        // runs (a scenario matrix, a bench loop) build each one once.
        let dc_prefix: Vec<Option<&ChunkedPrefix>> = self
            .datacenters
            .iter()
            .map(|dc| {
                self.traces
                    .try_chunked_prefix_by_id(dc.region)
                    .map(|p| &**p)
            })
            .collect();
        let mut dc_emissions: Vec<f64> = vec![0.0; dc_count];
        let mut verdicts: Vec<bool> = Vec::with_capacity(self.config.capacity_per_region * 2);
        let mut finished: Vec<usize> = Vec::with_capacity(self.config.capacity_per_region * 2);
        let deadline_of = |job: &Job| -> Hour { job.arrival.plus(job.window_slots_at(resolution)) };

        // Trace-coverage edges, ascending; `next_edge` walks past the
        // ones behind `now`.
        let mut edges: Vec<u32> = dc_series
            .iter()
            .flatten()
            .flat_map(|s| [s.start().0, s.end().0])
            .collect();
        edges.sort_unstable();
        let mut next_edge = 0usize;
        // Admitted interruptible jobs: while any are, verdicts refresh
        // at every hour boundary, so no span may cross one.
        let mut interruptible = 0usize;
        let mut now = self.config.start;
        while now < end {
            let hour_boundary = now.0.is_multiple_of(sph);

            // 1. Place arrivals due now.
            while let Some(job) = arrivals.pop_if(|j| j.arrival <= now) {
                let placement = {
                    let view = CloudView {
                        datacenters: &self.datacenters,
                        slot_of: &self.slot_of,
                        traces: self.traces,
                        now,
                    };
                    policy.place(&job, &view)
                };
                let region = if slot_in(&self.slot_of, placement.region).is_some() {
                    placement.region
                } else {
                    job.origin
                };
                let start = placement.start.max(now);
                if start >= end {
                    never_admitted += 1;
                    continue;
                }
                self.seq += 1;
                self.calendar.push(PlannedStart {
                    start,
                    seq: self.seq,
                    job,
                    region,
                });
            }

            // 2. Admit planned starts due now; migrations (destination ≠
            // origin) pay the state-copy overhead at the origin's current
            // CI — the state leaves the origin's servers.
            while let Some(top) = self.calendar.peek_mut() {
                if top.start > now {
                    break;
                }
                let planned = PeekMut::pop(top);
                if planned.region != planned.job.origin {
                    report.migrations += 1;
                    let kwh = self.config.overheads.migration_kwh();
                    if kwh > 0.0 {
                        let ci = self
                            .traces
                            .try_series_by_id(planned.job.origin)
                            .and_then(|s| s.at(now))
                            .or_else(|| {
                                self.traces
                                    .try_series_by_id(planned.region)
                                    .and_then(|s| s.at(now))
                            })
                            .unwrap_or(0.0);
                        report.overhead_kwh += kwh;
                        report.overhead_g += kwh * ci;
                        report.total_energy_kwh += kwh;
                        report.total_emissions_g += kwh * ci;
                        *report.per_region_g.entry(planned.job.origin).or_insert(0.0) += kwh * ci;
                    }
                }
                // Placement is validated at arrival time, so a missing
                // slot here means an inconsistent table; count the job
                // unfinished rather than crashing the whole shard.
                let Some(slot) = slot_in(&self.slot_of, planned.region) else {
                    never_admitted += 1;
                    continue;
                };
                interruptible += usize::from(planned.job.interruptible);
                self.datacenters[slot]
                    .jobs
                    .push(RunningJob::admitted(planned.job, resolution));
            }

            // 3. Select the run set. Interruptible verdicts refresh at
            // hour boundaries (and at admission), replay otherwise; the
            // forced-deadline check keeps slot precision either way.
            for k in 0..dc_count {
                if self.datacenters[k].jobs.is_empty() {
                    continue;
                }
                verdicts.clear();
                {
                    let dc = &self.datacenters[k];
                    let view = CloudView {
                        datacenters: &self.datacenters,
                        slot_of: &self.slot_of,
                        traces: self.traces,
                        now,
                    };
                    verdicts.extend(dc.jobs.iter().map(|rj| {
                        if !rj.job.interruptible {
                            return true;
                        }
                        if hour_boundary || rj.decision_pending {
                            policy.should_run(
                                &rj.job,
                                rj.remaining_slots,
                                deadline_of(&rj.job),
                                &view,
                            )
                        } else {
                            rj.cached_decision
                        }
                    }));
                }
                let ci_here = dc_series[k].and_then(|s| s.at(now)).unwrap_or(0.0);
                let dc = &mut self.datacenters[k];
                let mut running = 0usize;
                let mut suspends = 0usize;
                let mut resumes = 0usize;
                for (rj, &verdict) in dc.jobs.iter_mut().zip(&verdicts) {
                    let want_run = if rj.job.interruptible {
                        rj.cached_decision = verdict;
                        rj.decision_pending = false;
                        verdict || now.plus(rj.remaining_slots) >= deadline_of(&rj.job)
                    } else {
                        true
                    };
                    let was_suspended = rj.suspended;
                    if want_run && running < dc.capacity {
                        if was_suspended && rj.has_run() {
                            resumes += 1;
                        }
                        rj.suspended = false;
                        running += 1;
                    } else {
                        if !was_suspended && rj.remaining_slots > 0 {
                            suspends += 1;
                        }
                        rj.suspended = true;
                    }
                }
                report.suspends += suspends;
                report.resumes += resumes;
                let kwh = suspends as f64 * self.config.overheads.suspend_kwh
                    + resumes as f64 * self.config.overheads.resume_kwh;
                if kwh > 0.0 {
                    report.overhead_kwh += kwh;
                    report.overhead_g += kwh * ci_here;
                    report.total_energy_kwh += kwh;
                    report.total_emissions_g += kwh * ci_here;
                    dc_emissions[k] += kwh * ci_here;
                }
            }

            // 4. Find the next structural boundary. Every candidate is
            // strictly past `now`, so spans always advance. When the next
            // hour boundary is the next slot (every slot on hourly data)
            // and interruptible jobs are admitted, the span is one slot
            // and the scan can be skipped.
            let next_hour = now.0 - now.0 % sph + sph;
            let span = if max_span == 1 || (interruptible > 0 && next_hour == now.0 + 1) {
                1
            } else {
                let mut next = end.0;
                if let Some(job) = arrivals.last() {
                    next = next.min(job.arrival.0.max(now.0 + 1));
                }
                if let Some(top) = self.calendar.peek() {
                    next = next.min(top.start.0.max(now.0 + 1));
                }
                while edges.get(next_edge).is_some_and(|&e| e <= now.0) {
                    next_edge += 1;
                }
                if let Some(&edge) = edges.get(next_edge) {
                    next = next.min(edge);
                }
                for dc in &self.datacenters {
                    for rj in &dc.jobs {
                        if !rj.suspended {
                            next = next.min(now.0 + rj.remaining_slots as u32);
                        } else if rj.job.interruptible && !rj.cached_decision {
                            // A suspended job's forced-deadline flip is
                            // predictable: remaining stays constant, so
                            // it fires at deadline − remaining.
                            let flip = deadline_of(&rj.job)
                                .0
                                .saturating_sub(rj.remaining_slots as u32);
                            if flip > now.0 {
                                next = next.min(flip);
                            }
                        }
                    }
                }
                if interruptible > 0 {
                    next = next.min(next_hour);
                }
                (next.max(now.0 + 1) - now.0) as usize
            };

            // 5. Execute the span and account completions.
            for k in 0..dc_count {
                let dc = &mut self.datacenters[k];
                if dc.jobs.is_empty() {
                    continue;
                }
                let Some(ci_now) = dc_series[k].and_then(|s| s.at(now)) else {
                    report.stalled_hours +=
                        span * dc.jobs.iter().filter(|rj| !rj.suspended).count();
                    continue;
                };
                // A covered slot implies the series — and therefore the
                // prefix built from it — exists. Every running job draws
                // the same CI over the span; a one-slot span reads it
                // straight off the trace.
                let Some(prefix) = dc_prefix[k] else {
                    continue;
                };
                let span_ci = if span == 1 {
                    ci_now
                } else {
                    prefix.sum(now, span)
                };
                finished.clear();
                for (i, rj) in dc.jobs.iter_mut().enumerate() {
                    if rj.suspended {
                        continue;
                    }
                    if rj.started.is_none() {
                        rj.started = Some(now);
                    }
                    rj.ci_sum += span_ci;
                    rj.remaining_slots -= span;
                    if rj.remaining_slots == 0 {
                        finished.push(i);
                    }
                }
                for &i in finished.iter().rev() {
                    let rj = dc.jobs.swap_remove(i);
                    interruptible -= usize::from(rj.job.interruptible);
                    let slots = rj.job.length_slots_at(resolution) as f64;
                    let emitted = (rj.ci_sum * rj.job.length_hours) / slots;
                    let energy = rj.job.length_hours;
                    report.total_energy_kwh += energy;
                    report.total_emissions_g += emitted;
                    dc_emissions[k] += emitted;
                    let finished_at = now.plus(span - 1);
                    report.completed.push(CompletedJob {
                        region: dc.region,
                        started: rj.started.unwrap_or(now),
                        finished: finished_at,
                        emitted_g: emitted,
                        missed_deadline: finished_at >= deadline_of(&rj.job),
                        job: rj.job,
                    });
                }
            }

            now = now.plus(span);
        }

        // Partial work of unfinished jobs is still accounted, pro rata
        // over the slots actually executed.
        for (k, dc) in self.datacenters.iter().enumerate() {
            for rj in &dc.jobs {
                let slots = rj.job.length_slots_at(resolution);
                let run = slots - rj.remaining_slots;
                if run > 0 {
                    let energy = (run as f64 * rj.job.length_hours) / slots as f64;
                    let emitted = (rj.ci_sum * rj.job.length_hours) / slots as f64;
                    report.total_energy_kwh += energy;
                    report.total_emissions_g += emitted;
                    dc_emissions[k] += emitted;
                }
            }
        }

        for (k, &g) in dc_emissions.iter().enumerate() {
            if g != 0.0 {
                *report
                    .per_region_g
                    .entry(self.datacenters[k].region)
                    .or_insert(0.0) += g;
            }
        }

        report.unfinished = self
            .datacenters
            .iter()
            .map(|dc| dc.jobs.len())
            .sum::<usize>()
            + self.calendar.len()
            + never_admitted
            + arrivals.len();
        report
    }

    /// Returns a datacenter by region id (for inspection in tests).
    pub fn datacenter(&self, id: RegionId) -> Option<&Datacenter> {
        Some(&self.datacenters[slot_in(&self.slot_of, id)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast_policy::ForecastDeferral;
    use crate::policy::{CarbonAgnostic, GreenestRouter, PlannedDeferral, ThresholdSuspend};
    use crate::scenario::{PolicyKind, SPATIOTEMPORAL_SLO_MS};
    use crate::spatiotemporal::SpatioTemporal;
    use decarb_core::temporal::TemporalPlanner;
    use decarb_forecast::SeasonalNaive;
    use decarb_traces::time::year_start;
    use decarb_traces::{builtin_dataset, Resolution};
    use decarb_workloads::Slack;

    /// Named policy constructors for the axis-equivalence tests.
    type PolicyTable = Vec<(&'static str, fn() -> Box<dyn Policy>)>;

    /// The concrete policy behind each [`PolicyKind`], as the scenario
    /// layer builds it with the seasonal forecaster.
    fn policy_of(kind: PolicyKind, traces: &TraceSet, regions: &[RegionId]) -> Box<dyn Policy> {
        let seasonal = SeasonalNaive::daily_at(traces.resolution());
        match kind {
            PolicyKind::CarbonAgnostic => Box::new(CarbonAgnostic),
            PolicyKind::PlannedDeferral => Box::new(PlannedDeferral),
            PolicyKind::ThresholdSuspend => Box::new(ThresholdSuspend::default()),
            PolicyKind::GreenestRouter => Box::new(GreenestRouter),
            PolicyKind::ForecastDeferral => Box::new(ForecastDeferral::new(seasonal)),
            PolicyKind::SpatioTemporal => Box::new(SpatioTemporal::new(
                traces,
                regions,
                SPATIOTEMPORAL_SLO_MS,
                seasonal,
            )),
        }
    }

    fn config(horizon: usize) -> SimConfig {
        SimConfig::new(year_start(2022), horizon, 4)
    }

    fn ids(traces: &TraceSet, codes: &[&str]) -> Vec<RegionId> {
        codes.iter().map(|c| traces.id_of(c).unwrap()).collect()
    }

    #[test]
    fn suspend_resume_overheads_are_charged() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let job = Job::batch(1, rs[0], start, 12.0, Slack::TenX).with_interruptible();
        // Ideal run.
        let mut ideal_sim = Simulator::new(&traces, &rs, config(24 * 30));
        let ideal = ideal_sim.run(&mut ThresholdSuspend::default(), std::slice::from_ref(&job));
        // Same policy, but every transition costs energy.
        let model = OverheadModel {
            suspend_kwh: 0.05,
            resume_kwh: 0.05,
            ..OverheadModel::ZERO
        };
        let mut costed_sim = Simulator::new(&traces, &rs, config(24 * 30).with_overheads(model));
        let costed = costed_sim.run(&mut ThresholdSuspend::default(), &[job]);
        // Decisions are identical (the policy does not see overheads), so
        // transition counts match and only the accounting differs.
        assert_eq!(ideal.suspends, costed.suspends);
        assert_eq!(ideal.resumes, costed.resumes);
        assert!(ideal.suspends > 0, "diurnal CA trace must cause suspends");
        assert_eq!(ideal.overhead_g, 0.0);
        assert!(costed.overhead_g > 0.0);
        let expected_kwh = 0.05 * (costed.suspends + costed.resumes) as f64;
        assert!((costed.overhead_kwh - expected_kwh).abs() < 1e-9);
        assert!(
            costed.total_emissions_g > ideal.total_emissions_g,
            "overheads must raise total emissions"
        );
        assert!(
            (costed.total_emissions_g - ideal.total_emissions_g - costed.overhead_g).abs() < 1e-6
        );
    }

    #[test]
    fn migration_overhead_charged_at_origin() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE", "IN-WE"]);
        let in_we = rs[1];
        let start = year_start(2022);
        let job = Job::batch(1, in_we, start, 4.0, Slack::None);
        let model = OverheadModel {
            migrate_kwh_per_gb: 0.05,
            state_gb: 50.0,
            ..OverheadModel::ZERO
        };
        let mut sim = Simulator::new(&traces, &rs, config(100).with_overheads(model));
        let report = sim.run(&mut GreenestRouter, &[job]);
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.migrations, 1);
        assert!((report.overhead_kwh - 2.5).abs() < 1e-12);
        // Charged at the origin's CI at the migration hour.
        let origin_ci = traces.series("IN-WE").unwrap().get(start);
        assert!((report.overhead_g - 2.5 * origin_ci).abs() < 1e-9);
        // The per-region ledger bills the origin.
        assert!((report.per_region_g[&in_we] - 2.5 * origin_ci).abs() < 1e-9);
    }

    #[test]
    fn local_jobs_pay_no_migration_overhead() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let model = OverheadModel::realistic();
        let mut sim = Simulator::new(&traces, &rs, config(50).with_overheads(model));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 3.0, Slack::None)],
        );
        assert_eq!(report.migrations, 0);
        assert_eq!(report.suspends, 0);
        assert_eq!(report.overhead_g, 0.0);
    }

    #[test]
    fn completed_jobs_record_start_and_wait() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let job = Job::batch(9, rs[0], start, 2.0, Slack::Day);
        let mut sim = Simulator::new(&traces, &rs, config(24 * 3));
        let report = sim.run(&mut PlannedDeferral, &[job]);
        assert_eq!(report.completed_count(), 1);
        let c = &report.completed[0];
        assert!(c.started >= start);
        assert_eq!(c.wait_hours() as u32, c.started.0 - start.0);
        assert!(c.slowdown() >= 1.0);
        assert!(report.mean_slowdown() >= 1.0);
    }

    #[test]
    fn agnostic_job_emissions_match_trace() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["DE"]);
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let start = year_start(2022);
        let job = Job::batch(1, rs[0], start.plus(3), 5.0, Slack::None);
        let report = sim.run(&mut CarbonAgnostic, &[job]);
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.unfinished, 0);
        let expected: f64 = traces
            .series("DE")
            .unwrap()
            .window(start.plus(3), 5)
            .unwrap()
            .iter()
            .sum();
        assert!((report.total_emissions_g - expected).abs() < 1e-9);
        assert!((report.total_energy_kwh - 5.0).abs() < 1e-9);
    }

    #[test]
    fn planned_deferral_reproduces_analytic_bound() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, config(24 * 10));
        let job = Job::batch(7, rs[0], start, 6.0, Slack::Day);
        let report = sim.run(&mut PlannedDeferral, &[job]);
        assert_eq!(report.completed_count(), 1);
        let planner = TemporalPlanner::new(traces.series("US-CA").unwrap());
        let expected = planner.best_deferred(start, 6, 24).cost_g;
        assert!(
            (report.emissions_of(7).unwrap() - expected).abs() < 1e-9,
            "sim {} vs analytic {}",
            report.emissions_of(7).unwrap(),
            expected
        );
    }

    #[test]
    fn capacity_queues_excess_jobs() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(year_start(2022), 50, 1));
        let start = year_start(2022);
        let jobs = vec![
            Job::batch(1, rs[0], start, 3.0, Slack::None),
            Job::batch(2, rs[0], start, 3.0, Slack::None),
        ];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 2);
        // Serialized: job 1 finishes at hour 2, job 2 at hour 5.
        let first = report.completed.iter().find(|c| c.job.id == 1).unwrap();
        let second = report.completed.iter().find(|c| c.job.id == 2).unwrap();
        assert_eq!(first.finished, start.plus(2));
        assert_eq!(second.finished, start.plus(5));
    }

    #[test]
    fn router_sends_batch_to_sweden() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE", "PL", "IN-WE"]);
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let start = year_start(2022);
        let jobs = vec![Job::batch(1, rs[2], start, 4.0, Slack::None)];
        let report = sim.run(&mut GreenestRouter, &jobs);
        assert_eq!(report.completed[0].region, rs[0], "routed to Sweden");
        // Routed emissions far below origin emissions.
        let origin_cost: f64 = traces
            .series("IN-WE")
            .unwrap()
            .window(start, 4)
            .unwrap()
            .iter()
            .sum();
        assert!(report.total_emissions_g < origin_cost / 5.0);
    }

    #[test]
    fn threshold_policy_between_bounds() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["US-CA"]);
        let start = year_start(2022);
        let slots = 12usize;
        let job = Job::batch(3, rs[0], start, slots as f64, Slack::TenX).with_interruptible();
        assert_eq!(job.slack_hours(), 120);
        let mut sim = Simulator::new(&traces, &rs, config(24 * 30));
        let report = sim.run(&mut ThresholdSuspend::default(), &[job]);
        assert_eq!(report.completed_count(), 1);
        let emitted = report.emissions_of(3).unwrap();
        let planner = TemporalPlanner::new(traces.series("US-CA").unwrap());
        let clairvoyant = planner.best_interruptible(start, slots, 120).1;
        let baseline = planner.baseline_cost(start, slots);
        assert!(emitted >= clairvoyant - 1e-9, "below clairvoyant bound");
        // The online policy must capture some of the savings on a
        // strongly diurnal trace.
        assert!(
            emitted < baseline * 1.02,
            "online {emitted} vs baseline {baseline}"
        );
    }

    #[test]
    fn unfinished_jobs_counted() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, config(3));
        let start = year_start(2022);
        let jobs = vec![Job::batch(1, rs[0], start, 10.0, Slack::None)];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.unfinished, 1);
        // Partial work is still accounted.
        assert!(report.total_energy_kwh > 0.0);
    }

    #[test]
    fn fractional_interactive_jobs_scale_energy() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let start = year_start(2022);
        let jobs = vec![Job::interactive(1, rs[0], start)];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 1);
        assert!((report.total_energy_kwh - 0.01).abs() < 1e-12);
        let ci = traces.series("SE").unwrap().get(start);
        assert!((report.total_emissions_g - ci * 0.01).abs() < 1e-12);
    }

    #[test]
    fn short_trace_records_stalled_hours_instead_of_freezing() {
        // A trace covering only 5 of the 10 simulated hours: the 8-hour
        // job executes 5 slots, then stalls (visibly) for the remaining
        // 5 hours instead of silently freezing.
        let start = year_start(2022);
        let short = TimeSeries::new(start, vec![100.0; 5]);
        let se = decarb_traces::catalog::region("SE").unwrap().clone();
        let traces = TraceSet::from_series(vec![(se, short)]);
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 10, 4));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 8.0, Slack::None)],
        );
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.unfinished, 1);
        assert!((report.total_energy_kwh - 5.0).abs() < 1e-9);
        assert!((report.total_emissions_g - 500.0).abs() < 1e-9);
        assert_eq!(report.stalled_hours, 5);
    }

    #[test]
    fn full_coverage_runs_report_no_stalls() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, config(50));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 3.0, Slack::None)],
        );
        assert_eq!(report.stalled_hours, 0);
    }

    /// A policy planning a fixed start offset from the arrival hour.
    struct StartAt(usize);
    impl Policy for StartAt {
        fn place(&mut self, job: &Job, view: &CloudView<'_>) -> crate::policy::Placement {
            crate::policy::Placement {
                region: job.origin,
                start: view.now.plus(self.0),
            }
        }
    }

    #[test]
    fn starts_at_or_past_horizon_end_are_never_admitted() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let job = Job::batch(1, rs[0], start, 1.0, Slack::None);
        // Planned exactly at the horizon end: never admitted, no energy.
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let report = sim.run(&mut StartAt(10), std::slice::from_ref(&job));
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.unfinished, 1);
        assert_eq!(report.total_energy_kwh, 0.0);
        // One hour earlier is admissible and the 1-hour job completes.
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let report = sim.run(&mut StartAt(9), &[job]);
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.completed[0].finished, start.plus(9));
    }

    #[test]
    fn finishing_in_last_window_hour_is_on_time() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        // 2-hour job, 24 h slack: window covers hours [0, 26); the last
        // permissible start is hour 24, finishing in hour 25.
        let job = Job::batch(1, rs[0], start, 2.0, Slack::Day);
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let report = sim.run(&mut StartAt(24), std::slice::from_ref(&job));
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.completed[0].finished, start.plus(25));
        assert!(!report.completed[0].missed_deadline);
        assert_eq!(report.missed_deadlines(), 0);
        // One hour later finishes at hour 26 == deadline: missed.
        let mut sim = Simulator::new(&traces, &rs, config(100));
        let report = sim.run(&mut StartAt(25), &[job]);
        assert_eq!(report.completed_count(), 1);
        assert!(report.completed[0].missed_deadline);
    }

    #[test]
    fn queued_zero_slack_jobs_miss_their_deadline() {
        // Two zero-slack 3-hour jobs on a capacity-1 datacenter: the
        // first is on time, the second finishes at hour 5, past its
        // hour-3 deadline — zero slack does not exempt it.
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 50, 1));
        let jobs = vec![
            Job::batch(1, rs[0], start, 3.0, Slack::None),
            Job::batch(2, rs[0], start, 3.0, Slack::None),
        ];
        let report = sim.run(&mut CarbonAgnostic, &jobs);
        assert_eq!(report.completed_count(), 2);
        let first = report.completed.iter().find(|c| c.job.id == 1).unwrap();
        let second = report.completed.iter().find(|c| c.job.id == 2).unwrap();
        assert!(!first.missed_deadline);
        assert!(second.missed_deadline);
        assert_eq!(report.missed_deadlines(), 1);
    }

    #[test]
    fn immediate_zero_slack_jobs_are_on_time() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, config(20));
        let report = sim.run(
            &mut CarbonAgnostic,
            &[Job::batch(1, rs[0], start, 5.0, Slack::None)],
        );
        assert_eq!(report.completed_count(), 1);
        assert!(!report.completed[0].missed_deadline);
    }

    #[test]
    fn invalid_placement_region_falls_back_to_origin() {
        struct BadPolicy;
        impl Policy for BadPolicy {
            fn place(&mut self, _job: &Job, view: &CloudView<'_>) -> crate::policy::Placement {
                crate::policy::Placement {
                    // An id with no deployed datacenter (and even out of
                    // the table's range).
                    region: RegionId(9999),
                    start: view.now,
                }
            }
        }
        let traces = builtin_dataset();
        let rs = ids(&traces, &["SE"]);
        let mut sim = Simulator::new(&traces, &rs, config(10));
        let start = year_start(2022);
        let report = sim.run(
            &mut BadPolicy,
            &[Job::batch(1, rs[0], start, 2.0, Slack::None)],
        );
        assert_eq!(report.completed_count(), 1);
        assert_eq!(report.completed[0].region, rs[0]);
    }

    /// A two-region dataset with integer-valued hourly traces, so the
    /// sub-hourly accounting identities ((12S·L)/12L == S, exact integer
    /// sums) hold bit for bit.
    fn integer_dataset(hours: usize) -> TraceSet {
        let start = year_start(2022);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 900 + 50) as f64
        };
        let pairs = ["DE", "SE"]
            .iter()
            .map(|code| {
                let region = decarb_traces::catalog::region(code).unwrap().clone();
                let values: Vec<f64> = (0..hours).map(|_| next()).collect();
                (region, TimeSeries::new(start, values))
            })
            .collect();
        TraceSet::from_series(pairs)
    }

    /// Integer-length jobs on hour-aligned arrivals, mixing rigid,
    /// migratable, and interruptible shapes across both regions.
    fn equivalence_jobs(traces: &TraceSet) -> Vec<Job> {
        let de = traces.id_of("DE").unwrap();
        let se = traces.id_of("SE").unwrap();
        let start = year_start(2022);
        let mut jobs = vec![
            Job::batch(1, de, start, 4.0, Slack::None),
            Job::batch(2, de, start.plus(3), 6.0, Slack::Day),
            Job::batch(3, se, start.plus(5), 2.0, Slack::Day),
            Job::batch(4, de, start.plus(7), 12.0, Slack::Week).with_interruptible(),
            Job::batch(5, se, start.plus(7), 8.0, Slack::TenX).with_interruptible(),
            Job::batch(6, de, start.plus(30), 5.0, Slack::Day),
        ];
        for (i, job) in jobs.iter_mut().enumerate() {
            job.migratable = i % 2 == 0;
        }
        jobs
    }

    /// Maps an hourly-domain job list onto a 12-slots-per-hour axis.
    fn jobs_at_5min(jobs: &[Job]) -> Vec<Job> {
        jobs.iter()
            .map(|job| {
                let mut fine = job.clone();
                fine.arrival = Hour(job.arrival.0 * 12);
                fine
            })
            .collect()
    }

    fn fine_config(horizon_hours: usize) -> SimConfig {
        SimConfig::new(Hour(year_start(2022).0 * 12), horizon_hours * 12, 4)
    }

    /// Runs `jobs` under every [`PolicyKind`] twice — event-driven and
    /// slot-stepped — and hands each pair of reports to `check`.
    fn against_oracle(
        traces: &TraceSet,
        jobs: &[Job],
        config: SimConfig,
        check: impl Fn(&str, &SimReport, &SimReport),
    ) {
        let rs = ids(traces, &["DE", "SE"]);
        for kind in PolicyKind::ALL {
            let mut sim = Simulator::new(traces, &rs, config.clone());
            let event = sim.run(policy_of(kind, traces, &rs).as_mut(), jobs);
            let mut sim = Simulator::new(traces, &rs, config.clone());
            let slot = sim.run_slot_stepped(policy_of(kind, traces, &rs).as_mut(), jobs);
            let name = kind.label();
            assert_eq!(slot.completed_count(), event.completed_count(), "{name}");
            assert_eq!(slot.suspends, event.suspends, "{name}");
            assert_eq!(slot.resumes, event.resumes, "{name}");
            assert_eq!(slot.migrations, event.migrations, "{name}");
            assert_eq!(slot.unfinished, event.unfinished, "{name}");
            for (a, b) in slot.completed.iter().zip(&event.completed) {
                assert_eq!(a.job.id, b.job.id, "{name}");
                assert_eq!(a.region, b.region, "{name}: same placement");
                assert_eq!(a.started, b.started, "{name}: same start slot");
                assert_eq!(a.finished, b.finished, "{name}: same finish slot");
                assert_eq!(a.missed_deadline, b.missed_deadline, "{name}");
            }
            assert!(slot.completed_count() >= 5, "{name}: workload must run");
            check(name, &slot, &event);
        }
    }

    #[test]
    fn event_driven_matches_slot_stepped_on_five_minute_axis() {
        // Integer-valued 5-minute replica: every span sum is exact, so
        // the event-driven loop must match the oracle bit for bit.
        let hourly = integer_dataset(24 * 40);
        let fine = hourly
            .resample_to(Resolution::from_minutes(5).unwrap())
            .unwrap();
        let jobs = jobs_at_5min(&equivalence_jobs(&fine));
        against_oracle(&fine, &jobs, fine_config(24 * 20), |name, slot, event| {
            assert_eq!(
                slot.total_emissions_g, event.total_emissions_g,
                "{name}: emissions must be bit-identical"
            );
            assert_eq!(slot.total_energy_kwh, event.total_energy_kwh, "{name}");
            for (a, b) in slot.completed.iter().zip(&event.completed) {
                assert_eq!(a.emitted_g, b.emitted_g, "{name}: same emissions");
            }
        });
        // The builtin hourly dataset is not integer-valued: spans over
        // idle hours sum in a different order than slot by slot, so the
        // emissions agree to rounding while every decision stays equal.
        let builtin = builtin_dataset();
        let jobs = equivalence_jobs(&builtin);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        against_oracle(&builtin, &jobs, config(24 * 20), |name, slot, event| {
            assert!(
                close(slot.total_emissions_g, event.total_emissions_g),
                "{name}: {} vs {}",
                slot.total_emissions_g,
                event.total_emissions_g
            );
            assert!(
                close(slot.total_energy_kwh, event.total_energy_kwh),
                "{name}"
            );
            for (a, b) in slot.completed.iter().zip(&event.completed) {
                assert!(close(a.emitted_g, b.emitted_g), "{name}: job {}", a.job.id);
            }
        });
    }

    #[test]
    fn five_minute_replica_reproduces_hourly_run_bit_for_bit() {
        // The tentpole equivalence property at the engine level: a
        // 5-minute trace that repeats each hour's (integer) CI 12 times
        // is the same physical signal, so emissions totals must be
        // bit-identical and every placement must land on the scaled
        // slot of its hourly counterpart.
        let hourly = integer_dataset(24 * 40);
        let fine = hourly
            .resample_to(Resolution::from_minutes(5).unwrap())
            .unwrap();
        let rs_hourly = ids(&hourly, &["DE", "SE"]);
        let rs_fine = ids(&fine, &["DE", "SE"]);
        let jobs = equivalence_jobs(&hourly);
        let fine_jobs = jobs_at_5min(&jobs);
        let horizon = 24 * 20;
        let policies: PolicyTable = vec![
            ("agnostic", || Box::new(CarbonAgnostic)),
            ("deferral", || Box::new(PlannedDeferral)),
            ("threshold", || Box::new(ThresholdSuspend::default())),
            ("router", || Box::new(GreenestRouter)),
        ];
        for (name, make) in policies {
            let mut hourly_sim = Simulator::new(&hourly, &rs_hourly, config(horizon));
            let coarse = hourly_sim.run(make().as_mut(), &jobs);
            let mut fine_sim = Simulator::new(&fine, &rs_fine, fine_config(horizon));
            let fine_report = fine_sim.run(make().as_mut(), &fine_jobs);
            assert_eq!(
                coarse.total_emissions_g, fine_report.total_emissions_g,
                "{name}: totals must be bit-identical"
            );
            assert_eq!(
                coarse.total_energy_kwh, fine_report.total_energy_kwh,
                "{name}"
            );
            assert_eq!(
                coarse.completed_count(),
                fine_report.completed_count(),
                "{name}"
            );
            assert_eq!(coarse.unfinished, fine_report.unfinished, "{name}");
            for (a, b) in coarse.completed.iter().zip(&fine_report.completed) {
                assert_eq!(a.job.id, b.job.id, "{name}: completion order");
                assert_eq!(a.region, b.region, "{name}: same region");
                assert_eq!(b.started.0, a.started.0 * 12, "{name}: scaled start");
                assert_eq!(
                    b.finished.0,
                    a.finished.0 * 12 + 11,
                    "{name}: finish lands on the last slot of the hour"
                );
                assert_eq!(a.emitted_g, b.emitted_g, "{name}: per-job emissions");
                assert_eq!(a.missed_deadline, b.missed_deadline, "{name}");
            }
            // Slowdown is a ratio of same-axis quantities, so the 12×
            // scaling of numerator and denominator cancels exactly.
            assert_eq!(
                coarse.mean_slowdown(),
                fine_report.mean_slowdown(),
                "{name}: slowdown is axis-independent"
            );
            assert_eq!(
                coarse.mean_wait_hours(),
                fine_report.mean_wait_hours(),
                "{name}: waits are reported in hours on any axis"
            );
            assert!(coarse.completed_count() >= 5, "{name}: workload must run");
        }
    }

    #[test]
    fn datacenter_order_is_lexicographic_whatever_the_input_order() {
        let traces = builtin_dataset();
        let forward = ids(&traces, &["SE", "DE", "PL"]);
        let mut reversed = forward.clone();
        reversed.reverse();
        let a = Simulator::new(&traces, &forward, config(10));
        let b = Simulator::new(&traces, &reversed, config(10));
        let codes = |sim: &Simulator<'_>| -> Vec<String> {
            sim.datacenters
                .iter()
                .map(|dc| traces.code(dc.region).to_string())
                .collect()
        };
        assert_eq!(codes(&a), vec!["DE", "PL", "SE"]);
        assert_eq!(codes(&a), codes(&b));
        assert!(a.datacenter(forward[0]).is_some());
        assert!(a.datacenter(RegionId(9999)).is_none());
    }
}
