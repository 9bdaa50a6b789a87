//! Latency-constrained request routing (§5.1.3 made online).
//!
//! Fig. 6(a) computes the analytic reduction when migration is limited to
//! regions within a latency SLO; this policy is the online counterpart: a
//! router that sends each migratable job to the greenest datacenter whose
//! round-trip time from the job's origin fits the SLO and which has free
//! capacity, falling back to the origin.

use decarb_core::latency::rtt_ms;
use decarb_traces::{Hour, RegionId, Resolution, TraceSet};
use decarb_workloads::Job;

use crate::cluster::CloudView;
use crate::policy::{Placement, Policy};

/// A round-trip-time table over one dataset's deployed regions,
/// precomputed so the per-placement loop does integer indexing only.
/// Storage is O(table + deployed²) — an id→slot side table (like the
/// engine's) plus a dense deployed×deployed matrix — so a huge
/// imported region table with a handful of deployed zones stays cheap.
#[derive(Debug, Clone)]
pub(crate) struct RttTable {
    /// [`RegionId::index`]-indexed map to deployed slots.
    slot: Vec<Option<u16>>,
    /// Deployed-set size.
    d: usize,
    /// `rtt[slot(a) * d + slot(b)]`.
    rtt: Vec<f64>,
    /// Lexicographic rank of every id's code, for deterministic
    /// tie-breaking identical to string comparison.
    lex_rank: Vec<u32>,
}

impl RttTable {
    /// Builds the table for `deployed` regions of `traces`' table.
    pub(crate) fn build(traces: &TraceSet, deployed: &[RegionId]) -> Self {
        let mut slot = vec![None; traces.len()];
        let mut unique: Vec<RegionId> = Vec::with_capacity(deployed.len());
        for &id in deployed {
            if slot[id.index()].is_none() {
                slot[id.index()] = Some(unique.len() as u16);
                unique.push(id);
            }
        }
        let d = unique.len();
        let mut rtt = vec![0.0; d * d];
        for (i, &a) in unique.iter().enumerate() {
            for (j, &b) in unique.iter().enumerate() {
                rtt[i * d + j] = rtt_ms(traces.region_by_id(a), traces.region_by_id(b));
            }
        }
        Self {
            slot,
            d,
            rtt,
            lex_rank: traces.table().lex_ranks(),
        }
    }

    /// RTT between two deployed zones, `None` outside the deployed set.
    #[inline]
    pub(crate) fn get(&self, a: RegionId, b: RegionId) -> Option<f64> {
        let sa = (*self.slot.get(a.index())?)? as usize;
        let sb = (*self.slot.get(b.index())?)? as usize;
        Some(self.rtt[sa * self.d + sb])
    }

    /// `true` when `a`'s zone code sorts lexicographically before `b`'s.
    #[inline]
    pub(crate) fn code_before(&self, a: RegionId, b: RegionId) -> bool {
        self.lex_rank[a.index()] < self.lex_rank[b.index()]
    }
}

/// Same-hour admission control shared by the routing policies: the
/// simulator's capacity view only reflects *running* jobs, so a burst
/// of same-hour arrivals would all see the same free slot. The router
/// remembers what it has placed in the current wall-clock hour and
/// treats those slots as taken. The window is an hour even on
/// sub-hourly axes, the policies' decision cadence.
#[derive(Debug, Clone)]
pub(crate) struct HourlyLedger {
    placed: Vec<u32>,
    slots_per_hour: u32,
    at: Option<Hour>,
}

impl HourlyLedger {
    pub(crate) fn new(regions: usize, resolution: Resolution) -> Self {
        Self {
            placed: vec![0; regions],
            slots_per_hour: resolution.slots_per_hour() as u32,
            at: None,
        }
    }

    /// Resets the counts when slot `now` falls in a new hour.
    pub(crate) fn roll(&mut self, now: Hour) {
        let hour = Hour(now.0 - now.0 % self.slots_per_hour);
        if self.at != Some(hour) {
            self.placed.fill(0);
            self.at = Some(hour);
        }
    }

    #[inline]
    pub(crate) fn placed(&self, id: RegionId) -> usize {
        self.placed.get(id.index()).copied().unwrap_or(0) as usize
    }

    /// Counts one admission into `id`, saturating rather than wrapping.
    pub(crate) fn record(&mut self, id: RegionId) {
        if let Some(slot) = self.placed.get_mut(id.index()) {
            *slot = slot.saturating_add(1);
        }
    }
}

/// Routes to the greenest region within a latency SLO of the origin.
pub struct LatencyAwareRouter {
    matrix: RttTable,
    /// Round-trip-time budget in milliseconds.
    pub slo_ms: f64,
    ledger: HourlyLedger,
}

impl LatencyAwareRouter {
    /// Builds the router over the deployed regions of `traces`.
    pub fn new(traces: &TraceSet, deployed: &[RegionId], slo_ms: f64) -> Self {
        Self {
            matrix: RttTable::build(traces, deployed),
            slo_ms,
            ledger: HourlyLedger::new(traces.len(), traces.resolution()),
        }
    }

    /// Returns the RTT between two zones, if both are deployed.
    pub fn rtt(&self, a: RegionId, b: RegionId) -> Option<f64> {
        self.matrix.get(a, b)
    }
}

impl Policy for LatencyAwareRouter {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        self.ledger.roll(view.now);
        let mut region = job.origin;
        if job.migratable {
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
                // Strict improvement, ties broken to the lexicographically
                // first zone for determinism.
                if ci < best_ci || (ci == best_ci && self.matrix.code_before(id, region)) {
                    best_ci = ci;
                    region = id;
                }
            }
        }
        self.ledger.record(region);
        Placement {
            region,
            start: view.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_workloads::Slack;

    fn ids(traces: &TraceSet, codes: &[&str]) -> Vec<RegionId> {
        codes.iter().map(|c| traces.id_of(c).unwrap()).collect()
    }

    /// Deployed: origin Germany plus near (Sweden) and far (Australia)
    /// green regions.
    const DEPLOYED: [&str; 4] = ["DE", "SE", "PL", "AU-TAS"];

    fn route_one(slo_ms: f64) -> String {
        let traces = builtin_dataset();
        let rs = ids(&traces, &DEPLOYED);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 50, 4));
        let mut router = LatencyAwareRouter::new(&traces, &rs, slo_ms);
        let job = Job::batch(1, rs[0], start, 4.0, Slack::None);
        let report = sim.run(&mut router, &[job]);
        assert_eq!(report.completed_count(), 1);
        traces.code(report.completed[0].region).to_string()
    }

    #[test]
    fn ledger_saturates_instead_of_wrapping() {
        let traces = builtin_dataset();
        let de = traces.id_of("DE").unwrap();
        let mut ledger = HourlyLedger::new(traces.len(), Resolution::HOURLY);
        ledger.roll(Hour(7));
        for _ in 0..65_536 {
            ledger.record(de);
        }
        assert_eq!(ledger.placed(de), 65_536);
    }

    #[test]
    fn ledger_window_is_the_wall_clock_hour() {
        let traces = builtin_dataset();
        let de = traces.id_of("DE").unwrap();
        let five = Resolution::from_minutes(5).unwrap();
        let mut ledger = HourlyLedger::new(traces.len(), five);
        ledger.roll(Hour(24));
        ledger.record(de);
        // Slots 24..36 are one hour at 5 minutes: the count survives.
        ledger.roll(Hour(35));
        assert_eq!(ledger.placed(de), 1);
        // Slot 36 opens the next hour.
        ledger.roll(Hour(36));
        assert_eq!(ledger.placed(de), 0);
    }

    #[test]
    fn zero_slo_keeps_jobs_home() {
        assert_eq!(route_one(0.0), "DE");
    }

    #[test]
    fn regional_slo_reaches_nearby_green_region() {
        // Germany → Sweden is a short intra-European hop; Tasmania is
        // antipodal and must remain out of reach.
        let region = route_one(60.0);
        assert_eq!(region, "SE");
    }

    #[test]
    fn unbounded_slo_still_picks_the_greenest() {
        // With everything feasible the router behaves like the greenest
        // router; SE is greener than AU-TAS at this hour.
        let traces = builtin_dataset();
        let rs = ids(&traces, &DEPLOYED);
        let router = LatencyAwareRouter::new(&traces, &rs, f64::INFINITY);
        assert!(router.rtt(rs[0], rs[3]).unwrap() > 200.0);
        assert_eq!(route_one(f64::INFINITY), "SE");
    }

    #[test]
    fn pinned_jobs_never_move() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &DEPLOYED);
        let start = year_start(2022);
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 10, 4));
        let mut router = LatencyAwareRouter::new(&traces, &rs, f64::INFINITY);
        let pl = rs[2];
        let job = Job::interactive(1, pl, start);
        let report = sim.run(&mut router, &[job]);
        assert_eq!(report.completed[0].region, pl);
    }

    #[test]
    fn full_destinations_are_skipped() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &["DE", "SE"]);
        let (de, se) = (rs[0], rs[1]);
        let start = year_start(2022);
        // Capacity 1: the second simultaneous job finds Sweden full.
        let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 50, 1));
        let mut router = LatencyAwareRouter::new(&traces, &rs, 1000.0);
        let jobs = vec![
            Job::batch(1, de, start, 4.0, Slack::None),
            Job::batch(2, de, start, 4.0, Slack::None),
        ];
        let report = sim.run(&mut router, &jobs);
        assert_eq!(report.completed_count(), 2);
        let to_se = report.completed.iter().filter(|c| c.region == se).count();
        let at_home = report.completed.iter().filter(|c| c.region == de).count();
        assert_eq!(to_se, 1, "exactly one fits in Sweden");
        assert_eq!(at_home, 1, "the other runs at the origin");
    }

    #[test]
    fn tighter_slo_never_lowers_emissions() {
        let traces = builtin_dataset();
        let rs = ids(&traces, &DEPLOYED);
        let start = year_start(2022);
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job::batch(i + 1, rs[0], start.plus(i as usize * 3), 2.0, Slack::None))
            .collect();
        let run = |slo: f64| {
            let mut sim = Simulator::new(&traces, &rs, SimConfig::new(start, 100, 16));
            let mut router = LatencyAwareRouter::new(&traces, &rs, slo);
            sim.run(&mut router, &jobs).total_emissions_g
        };
        let tight = run(0.0);
        let regional = run(60.0);
        let global = run(1000.0);
        assert!(regional <= tight + 1e-9);
        assert!(global <= regional + 1e-9);
    }
}
