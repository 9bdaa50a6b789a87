//! One-shot placement queries over an immutable dataset snapshot.
//!
//! The batch engine answers "what would a year of this policy have
//! emitted"; the placement *service* answers "this job arrives now —
//! where and when should it run" for one job at a time, thousands of
//! times per second. A [`Snapshot`] bundles everything those queries
//! touch — the interned region table and dense series (`Arc<TraceSet>`),
//! a prebuilt [`RttTable`], a prewarmed [`PlannerCache`], and an
//! [`HourlyLedger`] for same-hour admission control — so a query is
//! pure table lookups plus one planner scan, with no allocation or
//! locking on the read path (the ledger is the only mutex, held for a
//! few integer ops). `decarb-serve` keeps the current snapshot behind
//! an atomically swapped `Arc`, so `POST /v1/reload` never stalls
//! in-flight readers.
//!
//! The query mirrors [`crate::spatiotemporal::SpatioTemporal`]'s
//! route-then-defer logic, but against the *actual* stored trace (the
//! planner's oracle view) rather than a forecast, and without a running
//! cluster: capacity is the ledger's same-hour admission count. Every
//! panicking precondition of [`TemporalPlanner`] is pre-validated into
//! a typed [`PlaceError`], so a malformed query becomes an HTTP 4xx,
//! never a worker-thread panic.

use std::sync::{Arc, Mutex, PoisonError};

use decarb_core::temporal::TemporalPlanner;
use decarb_traces::{Hour, Region, RegionId, TraceSet};

use crate::planner_cache::PlannerCache;
use crate::routing::{HourlyLedger, RttTable};

/// One placement query: a job's shape plus its origin and constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceRequest {
    /// Region the job is submitted from.
    pub origin: RegionId,
    /// Slot the job arrives on the dataset's axis (absolute hour index
    /// since 2020-01-01 UTC on hourly data).
    pub arrival: Hour,
    /// Job length in whole wall-clock hours (≥ 1); converted to slots
    /// against the dataset's resolution internally.
    pub duration_hours: usize,
    /// Wall-clock hours the start may be deferred past arrival.
    pub slack_hours: usize,
    /// Round-trip-time budget from the origin, milliseconds.
    pub slo_ms: f64,
}

/// The answer to a [`PlaceRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceDecision {
    /// Chosen destination region.
    pub region: RegionId,
    /// Chosen start slot (`arrival ..= arrival + slack`, on the
    /// dataset's axis).
    pub start: Hour,
    /// Estimated emissions of the chosen placement, g·CO₂eq per kWh of
    /// average draw (carbon intensity summed over the run and scaled to
    /// whole hours of draw whatever the dataset resolution).
    pub cost_g: f64,
    /// Emissions of the naive placement: run at the origin, at arrival.
    pub naive_g: f64,
    /// `naive_g - cost_g`; never negative.
    pub saved_g: f64,
    /// Round-trip time from origin to the chosen region, milliseconds.
    pub rtt_ms: f64,
}

/// A rejected [`PlaceRequest`], mapped by the service to an HTTP 4xx.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// `duration_hours` was zero.
    ZeroDuration,
    /// The arrival hour predates the origin's stored trace.
    BeforeTraceStart(Hour),
    /// The job cannot finish within the origin's stored trace even
    /// unshifted.
    BeyondTraceEnd(Hour),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::ZeroDuration => write!(f, "duration_hours must be at least 1"),
            // `Hour`'s Display resolves the calendar year and panics
            // one-past-the-horizon (exactly where a trace-end bound
            // sits), so these render the raw index.
            PlaceError::BeforeTraceStart(start) => {
                write!(
                    f,
                    "arrival predates the trace, which starts at hour {}",
                    start.0
                )
            }
            PlaceError::BeyondTraceEnd(end) => {
                write!(
                    f,
                    "job cannot finish before the trace ends at hour {}",
                    end.0
                )
            }
        }
    }
}

/// An immutable, shareable view of one dataset, prebuilt for live
/// placement queries. Build once, wrap in an `Arc`, swap on reload.
#[derive(Debug)]
pub struct Snapshot {
    traces: Arc<TraceSet>,
    deployed: Vec<RegionId>,
    rtt: RttTable,
    planners: PlannerCache,
    ledger: Mutex<HourlyLedger>,
    /// Same-hour admissions allowed per region before the router skips
    /// it (`usize::MAX` disables admission control).
    capacity_per_hour: usize,
    generation: u64,
}

impl Snapshot {
    /// Builds a snapshot deploying every region of `traces`, prewarming
    /// one planner per region so first queries pay no prefix build. The
    /// planners share the dataset's samples; prewarming copies none.
    pub fn build(traces: Arc<TraceSet>, generation: u64) -> Self {
        let deployed: Vec<RegionId> = traces.ids().collect();
        let rtt = RttTable::build(&traces, &deployed);
        let planners = PlannerCache::new();
        for &id in &deployed {
            planners.planner(&traces, id);
        }
        let ledger = Mutex::new(HourlyLedger::new(traces.len()));
        Self {
            traces,
            deployed,
            rtt,
            planners,
            ledger,
            capacity_per_hour: usize::MAX,
            generation,
        }
    }

    /// Limits same-hour admissions per region (admission control for
    /// bursts of simultaneous queries).
    pub fn with_capacity_per_hour(mut self, capacity: usize) -> Self {
        self.capacity_per_hour = capacity;
        self
    }

    /// The dataset this snapshot serves.
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// The deployed region set (all regions of the dataset).
    pub fn deployed(&self) -> &[RegionId] {
        &self.deployed
    }

    /// Monotonic reload counter, reported by `/v1/metrics`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Round-trip time between two deployed regions, milliseconds.
    pub fn rtt_ms(&self, a: RegionId, b: RegionId) -> Option<f64> {
        self.rtt.get(a, b)
    }

    /// Regions ranked by mean carbon intensity over `year`, greenest
    /// first. `year` must lie within the dataset horizon
    /// (`decarb_traces::time::EPOCH_YEAR..=LAST_YEAR`).
    pub fn rankings(&self, year: i32) -> Vec<(&Region, f64)> {
        let mut rows = self.traces.annual_means(year);
        rows.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.code.cmp(&b.0.code)));
        rows
    }

    /// Validates that a `slots`-slot run from `arrival` fits `id`'s
    /// stored trace; `Ok` carries the slots remaining from arrival to
    /// the trace end.
    fn fits(&self, id: RegionId, arrival: Hour, slots: usize) -> Result<usize, PlaceError> {
        let series = self.traces.series_by_id(id);
        if arrival < series.start() {
            return Err(PlaceError::BeforeTraceStart(series.start()));
        }
        let remaining = (series.end().0 - arrival.0) as usize;
        if remaining < slots {
            return Err(PlaceError::BeyondTraceEnd(series.end()));
        }
        Ok(remaining)
    }

    /// Answers one placement query: route to the cheapest deferred
    /// window among deployed regions within the SLO, falling back to
    /// the origin. Deterministic — ties break to the lexicographically
    /// first zone code, like the online router.
    // decarb-analyze: hot-path
    pub fn place(&self, req: &PlaceRequest) -> Result<PlaceDecision, PlaceError> {
        if req.duration_hours == 0 {
            return Err(PlaceError::ZeroDuration);
        }
        // Wall-clock hours → slots on the dataset's axis, once at the
        // edge; a planner's cost is a per-slot CI sum, so grams are the
        // sum divided back by slots-per-hour (identity on hourly data).
        let sph = self.traces.resolution().slots_per_hour();
        let slots = req.duration_hours * sph;
        let slack = req.slack_hours * sph;
        self.fits(req.origin, req.arrival, slots)?;
        let origin_planner = self.planners.planner(&self.traces, req.origin);
        let naive_g = origin_planner.baseline_cost(req.arrival, slots) / sph as f64;

        let mut admitted = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        // Hour-floored: admission control counts per wall-clock hour
        // whatever the slot axis, like the simulator's router ledger.
        admitted.roll(Hour(req.arrival.0 - req.arrival.0 % sph as u32));

        // The origin is always feasible (validated above); remote
        // regions must clear RTT, fit, and same-hour admission.
        let origin_best = origin_planner.best_deferred(req.arrival, slots, slack);
        let mut best_region = req.origin;
        let mut best = origin_best;
        for &id in &self.deployed {
            if id == req.origin {
                continue;
            }
            if self.capacity_per_hour != usize::MAX && admitted.placed(id) >= self.capacity_per_hour
            {
                continue;
            }
            let Some(rtt) = self.rtt.get(req.origin, id) else {
                continue;
            };
            if rtt > req.slo_ms {
                continue;
            }
            if self.fits(id, req.arrival, slots).is_err() {
                continue;
            }
            let planner = self.planners.planner(&self.traces, id);
            let candidate = planner.best_deferred(req.arrival, slots, slack);
            if candidate.cost_g < best.cost_g
                || (candidate.cost_g == best.cost_g && self.rtt.code_before(id, best_region))
            {
                best_region = id;
                best = candidate;
            }
        }
        admitted.record(best_region);
        drop(admitted);

        let rtt_ms = self.rtt.get(req.origin, best_region).unwrap_or(0.0);
        let cost_g = best.cost_g / sph as f64;
        Ok(PlaceDecision {
            region: best_region,
            start: best.start,
            cost_g,
            naive_g,
            saved_g: naive_g - cost_g,
            rtt_ms,
        })
    }

    /// The temporal planner for `id` (prewarmed at build time).
    pub fn planner(&self, id: RegionId) -> Arc<TemporalPlanner> {
        self.planners.planner(&self.traces, id)
    }

    /// The configured same-hour admission limit (`usize::MAX` when
    /// admission control is disabled).
    pub fn capacity_per_hour(&self) -> usize {
        self.capacity_per_hour
    }

    /// Whether admission control is active. When it is, placements
    /// mutate the shared ledger, so query *order* matters and batches
    /// must be answered sequentially to stay deterministic.
    pub fn admission_limited(&self) -> bool {
        self.capacity_per_hour != usize::MAX
    }

    /// Answers many placement queries, one result per request in input
    /// order.
    ///
    /// With admission control disabled (the default), `place` never
    /// *reads* the ledger's counts, so no answer depends on any other
    /// and batches of at least [`PAR_BATCH_THRESHOLD`] fan out across
    /// [`decarb_par::par_map`] worker threads — results are
    /// bit-identical to the same requests answered sequentially. With
    /// a capacity limit set, each answer feeds the next one's
    /// admission state, so the batch runs sequentially in input order
    /// (exactly N single calls).
    pub fn place_batch(&self, requests: &[PlaceRequest]) -> Vec<Result<PlaceDecision, PlaceError>> {
        if requests.len() >= PAR_BATCH_THRESHOLD && !self.admission_limited() {
            decarb_par::par_map(requests, |r| self.place(r))
        } else {
            requests.iter().map(|r| self.place(r)).collect()
        }
    }
}

/// Smallest batch worth fanning out across threads — below this the
/// scoped-thread spawn cost exceeds the ~6 µs/decision planner scan.
pub const PAR_BATCH_THRESHOLD: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;

    fn snapshot() -> Snapshot {
        Snapshot::build(builtin_dataset(), 1)
    }

    fn req(snap: &Snapshot, origin: &str, slack: usize, slo: f64) -> PlaceRequest {
        PlaceRequest {
            origin: snap.traces().id_of(origin).unwrap(),
            arrival: year_start(2022).plus(90 * 24),
            duration_hours: 6,
            slack_hours: slack,
            slo_ms: slo,
        }
    }

    #[test]
    fn zero_slo_zero_slack_is_the_naive_placement() {
        let snap = snapshot();
        let r = req(&snap, "DE", 0, 0.0);
        let d = snap.place(&r).unwrap();
        assert_eq!(d.region, r.origin);
        assert_eq!(d.start, r.arrival);
        assert!((d.cost_g - d.naive_g).abs() < 1e-9);
        assert_eq!(d.saved_g, 0.0);
    }

    #[test]
    fn planners_read_the_dataset_sample_buffer() {
        let snap = snapshot();
        let data = snap.traces();
        for id in [data.id_of("DE").unwrap(), data.id_of("SE").unwrap()] {
            let samples = data.series_by_id(id).values().as_ptr();
            let region = TemporalPlanner::for_region(data, id);
            assert!(std::ptr::eq(region.series().values().as_ptr(), samples));
            let prewarmed = snap.planner(id);
            assert!(std::ptr::eq(prewarmed.series().values().as_ptr(), samples));
        }
    }

    #[test]
    fn matches_the_temporal_planner_when_pinned_home() {
        let snap = snapshot();
        let r = req(&snap, "DE", 24, 0.0);
        let d = snap.place(&r).unwrap();
        let planner = snap.planner(r.origin);
        let ground_truth = planner.best_deferred(r.arrival, 6, 24);
        assert_eq!(d.region, r.origin);
        assert_eq!(d.start, ground_truth.start);
        assert!((d.cost_g - ground_truth.cost_g).abs() < 1e-12);
        assert!(d.saved_g >= 0.0);
    }

    #[test]
    fn unbounded_slo_finds_a_greener_region_than_home() {
        let snap = snapshot();
        let home = snap.place(&req(&snap, "PL", 0, 0.0)).unwrap();
        let global = snap.place(&req(&snap, "PL", 0, f64::INFINITY)).unwrap();
        assert!(
            global.cost_g < home.cost_g,
            "routing must beat coal-heavy PL"
        );
        assert_ne!(global.region, home.region);
        assert!(global.saved_g > 0.0);
        assert!(global.rtt_ms > 0.0);
    }

    #[test]
    fn widening_slack_and_slo_never_hurts() {
        let snap = snapshot();
        let base = snap.place(&req(&snap, "DE", 0, 0.0)).unwrap();
        let slack = snap.place(&req(&snap, "DE", 24, 0.0)).unwrap();
        let both = snap.place(&req(&snap, "DE", 24, 100.0)).unwrap();
        assert!(slack.cost_g <= base.cost_g + 1e-9);
        assert!(both.cost_g <= slack.cost_g + 1e-9);
    }

    #[test]
    fn five_minute_replica_answers_the_hourly_decision() {
        // Integer-valued traces: per-slot window sums on the 12×
        // replica are exactly 12× the hourly sums, so the grams-scale
        // normalization must reproduce the hourly answer bit for bit,
        // and the earliest-start tie-break must keep decisions on
        // hour-aligned slots.
        let start = year_start(2022);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 900 + 50) as f64
        };
        let pairs = ["DE", "SE", "PL"]
            .iter()
            .map(|code| {
                let region = decarb_traces::catalog::region(code).unwrap().clone();
                let values: Vec<f64> = (0..24 * 30).map(|_| next()).collect();
                (region, decarb_traces::TimeSeries::new(start, values))
            })
            .collect();
        let hourly = decarb_traces::TraceSet::from_series(pairs);
        let fine = hourly
            .resample_to(decarb_traces::Resolution::from_minutes(5).unwrap())
            .unwrap();
        let snap_h = Snapshot::build(Arc::new(hourly), 1);
        let snap_f = Snapshot::build(Arc::new(fine), 1);
        for (slack, slo) in [(0usize, 0.0), (24, 0.0), (24, f64::INFINITY), (6, 100.0)] {
            let rh = PlaceRequest {
                origin: snap_h.traces().id_of("PL").unwrap(),
                arrival: start.plus(10 * 24),
                duration_hours: 6,
                slack_hours: slack,
                slo_ms: slo,
            };
            let rf = PlaceRequest {
                origin: snap_f.traces().id_of("PL").unwrap(),
                arrival: Hour((start.0 + 10 * 24) * 12),
                duration_hours: 6,
                slack_hours: slack,
                slo_ms: slo,
            };
            let dh = snap_h.place(&rh).unwrap();
            let df = snap_f.place(&rf).unwrap();
            assert_eq!(
                snap_h.traces().code(dh.region),
                snap_f.traces().code(df.region),
                "slack {slack} slo {slo}"
            );
            assert_eq!(df.start.0, dh.start.0 * 12, "slack {slack} slo {slo}");
            assert_eq!(df.cost_g, dh.cost_g, "slack {slack} slo {slo}");
            assert_eq!(df.naive_g, dh.naive_g, "slack {slack} slo {slo}");
            assert_eq!(df.saved_g, dh.saved_g, "slack {slack} slo {slo}");
        }
    }

    #[test]
    fn malformed_queries_become_typed_errors_not_panics() {
        let snap = snapshot();
        let mut r = req(&snap, "DE", 0, 0.0);
        r.duration_hours = 0;
        assert_eq!(snap.place(&r), Err(PlaceError::ZeroDuration));
        // The builtin traces start at the epoch, so an earlier arrival
        // needs a dataset whose trace starts mid-horizon.
        let start = year_start(2022);
        let late_set = decarb_traces::TraceSet::from_series(vec![(
            decarb_traces::Region::user("ZZ"),
            decarb_traces::TimeSeries::new(start, vec![100.0; 500]),
        )]);
        let late_snap = Snapshot::build(Arc::new(late_set), 1);
        let early = PlaceRequest {
            origin: late_snap.traces().id_of("ZZ").unwrap(),
            arrival: Hour(start.0 - 1),
            duration_hours: 2,
            slack_hours: 0,
            slo_ms: 0.0,
        };
        assert!(matches!(
            late_snap.place(&early),
            Err(PlaceError::BeforeTraceStart(_))
        ));
        let mut late = req(&snap, "DE", 0, 0.0);
        late.duration_hours = 10_000_000;
        assert!(matches!(
            snap.place(&late),
            Err(PlaceError::BeyondTraceEnd(_))
        ));
    }

    #[test]
    fn admission_control_spills_the_second_same_hour_job() {
        let snap = Snapshot::build(builtin_dataset(), 1).with_capacity_per_hour(1);
        let r = req(&snap, "PL", 0, f64::INFINITY);
        let first = snap.place(&r).unwrap();
        let second = snap.place(&r).unwrap();
        assert_ne!(
            first.region, second.region,
            "capacity 1: the second job must spill elsewhere"
        );
        assert!(second.cost_g >= first.cost_g);
    }

    #[test]
    fn rankings_are_sorted_greenest_first() {
        let snap = snapshot();
        let rows = snap.rankings(2022);
        assert_eq!(rows.len(), snap.traces().len());
        for pair in rows.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn generation_is_carried() {
        let snap = Snapshot::build(builtin_dataset(), 7);
        assert_eq!(snap.generation(), 7);
    }

    #[test]
    fn parallel_batches_match_sequential_answers_bit_for_bit() {
        let snap = snapshot();
        assert!(!snap.admission_limited());
        let origins = ["DE", "PL", "FR", "SE"];
        // Past the parallel threshold, with varied shapes.
        let requests: Vec<PlaceRequest> = (0..(PAR_BATCH_THRESHOLD * 2 + 3))
            .map(|i| {
                let mut r = req(&snap, origins[i % origins.len()], (i % 5) * 6, 150.0);
                r.duration_hours = 1 + i % 4;
                r.arrival = r.arrival.plus(i * 7);
                r
            })
            .collect();
        let sequential: Vec<_> = requests.iter().map(|r| snap.place(r)).collect();
        let batched = snap.place_batch(&requests);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn admission_limited_batches_run_in_input_order() {
        let limited = Snapshot::build(builtin_dataset(), 1).with_capacity_per_hour(1);
        assert!(limited.admission_limited());
        assert_eq!(limited.capacity_per_hour(), 1);
        let requests = vec![req(&limited, "PL", 0, f64::INFINITY); 3];
        let batched = limited.place_batch(&requests);
        // A fresh identical snapshot answered sequentially must agree:
        // order is the contract under admission control.
        let fresh = Snapshot::build(builtin_dataset(), 1).with_capacity_per_hour(1);
        let sequential: Vec<_> = requests.iter().map(|r| fresh.place(r)).collect();
        assert_eq!(batched, sequential);
        let first = batched[0].as_ref().unwrap();
        let second = batched[1].as_ref().unwrap();
        assert_ne!(first.region, second.region, "capacity 1 must spill");
    }

    #[test]
    fn batch_errors_stay_positional() {
        let snap = snapshot();
        let good = req(&snap, "DE", 0, 0.0);
        let mut bad = good;
        bad.duration_hours = 0;
        let results = snap.place_batch(&[good, bad, good]);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(PlaceError::ZeroDuration));
        assert!(results[2].is_ok());
    }
}
