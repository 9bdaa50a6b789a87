//! One-shot placement queries over an immutable dataset snapshot.
//!
//! The batch engine answers "what would a year of this policy have
//! emitted"; the placement *service* answers "this job arrives now —
//! where and when should it run" for one job at a time, thousands of
//! times per second. A [`Snapshot`] bundles everything those queries
//! touch — the interned region table and dense series (`Arc<TraceSet>`),
//! a prebuilt `RttTable`, one [`TemporalPlanner`] per region (sharing
//! the dataset's samples), and, only when a same-hour admission limit
//! is set, an `HourlyLedger` behind a mutex — so a query is a scan
//! over table lookups and planners, with no allocation past a
//! per-thread buffer's high-water mark and, when admission control is
//! off, no locking on the read path. The scan is bound-first: each
//! remote region inside the SLO gets a lower bound on its cheapest
//! window from its prefix's chunk minima, regions run their window
//! scans smallest bound first, and a region whose bound exceeds the
//! best cost found so far is never scanned. The answer is the one an
//! exhaustive scan gives, bit for bit (see [`Snapshot::place`]).
//! `decarb-serve` keeps the current snapshot behind an atomically
//! swapped `Arc`, so `POST /v1/reload` never stalls in-flight readers.
//!
//! The query mirrors [`crate::spatiotemporal::SpatioTemporal`]'s
//! route-then-defer logic, but against the *actual* stored trace (the
//! planner's oracle view) rather than a forecast, and without a running
//! cluster: capacity is the ledger's same-hour admission count. Every
//! panicking precondition of [`TemporalPlanner`] is pre-validated into
//! a typed [`PlaceError`] for the origin (remote regions that fail it
//! are skipped), so a malformed query becomes an HTTP 4xx, never a
//! worker-thread panic.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, PoisonError};

use decarb_core::temporal::TemporalPlanner;
use decarb_traces::{Hour, Region, RegionId, TraceSet};

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
            // The raw slot index: the unit of the API's `arrival_hour`.
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
    /// One planner per region, indexed by [`RegionId::index`].
    planners: Vec<TemporalPlanner>,
    /// `None` disables admission control.
    admission: Option<Admission>,
    generation: u64,
}

thread_local! {
    /// This thread's queue buffer for [`Snapshot::place`], taken for a
    /// query and put back after it, so a placement allocates only when
    /// it queues more regions than any before it on the same thread.
    static QUEUE: Cell<Vec<Queued>> = const { Cell::new(Vec::new()) };
}

/// A remote region waiting for its window scan in [`Snapshot::place`],
/// ordered so that a max-heap pops the smallest floor first. Floors are
/// never NaN ([`TemporalPlanner::deferred_floor`] reads −∞ instead).
#[derive(Debug, Clone, Copy)]
struct Queued {
    floor: f64,
    id: RegionId,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other.floor.total_cmp(&self.floor)
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Queued {}

/// Same-hour admission control: a region stops winning placements once
/// `limit` of them land in one wall-clock hour.
#[derive(Debug)]
struct Admission {
    limit: usize,
    ledger: Mutex<HourlyLedger>,
}

impl Snapshot {
    /// Builds a snapshot deploying every region of `traces`, with one
    /// planner per region so first queries pay no prefix build. The
    /// planners share the dataset's samples; building them copies none.
    pub fn build(traces: Arc<TraceSet>, generation: u64) -> Self {
        let deployed: Vec<RegionId> = traces.ids().collect();
        let rtt = RttTable::build(&traces, &deployed);
        let planners = deployed
            .iter()
            .map(|&id| TemporalPlanner::for_region(&traces, id))
            .collect();
        Self {
            traces,
            deployed,
            rtt,
            planners,
            admission: None,
            generation,
        }
    }

    /// Limits same-hour admissions per region (admission control for
    /// bursts of simultaneous queries); `None` lifts the limit.
    pub fn with_capacity_per_hour(mut self, capacity: impl Into<Option<usize>>) -> Self {
        self.admission = capacity.into().map(|limit| Admission {
            limit,
            ledger: Mutex::new(HourlyLedger::new(
                self.traces.len(),
                self.traces.resolution(),
            )),
        });
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
    /// stored trace, including an arrival at or past the trace end.
    fn fits(&self, id: RegionId, arrival: Hour, slots: usize) -> Result<(), PlaceError> {
        let series = self.traces.series_by_id(id);
        if arrival < series.start() {
            return Err(PlaceError::BeforeTraceStart(series.start()));
        }
        if (series.end().0.saturating_sub(arrival.0) as usize) < slots {
            return Err(PlaceError::BeyondTraceEnd(series.end()));
        }
        Ok(())
    }

    /// Answers one placement query: route to the cheapest deferred
    /// window among deployed regions within the SLO, falling back to
    /// the origin. Deterministic — ties break to the lexicographically
    /// first zone code, like the online router.
    ///
    /// The origin's window scan runs first. Every remote region that
    /// clears admission, the SLO and the trace fit then gets a floor,
    /// [`TemporalPlanner::deferred_floor`]: a proven lower bound on its
    /// cheapest window cost, read off its prefix's chunk minima. The
    /// regions whose floor does not exceed the best cost so far queue
    /// smallest floor first, and the scan runs their window scans in
    /// that order until the next floor exceeds the best cost; the rest
    /// are never scanned.
    ///
    /// The answer is the one an exhaustive scan in deployed order
    /// gives, bit for bit. The keep rule ("cost lower, or cost equal
    /// and code first") is a strict total order on (cost, zone-code
    /// rank): window costs are never NaN (a scan keeps a window only
    /// if it costs less than the best so far, from +∞) and zone codes
    /// are distinct (the region table rejects duplicates). So the kept
    /// region is the least of the scanned ones under that order,
    /// whatever order they are scanned in. A region left out has a
    /// floor strictly greater than a cost already held, so its own cost
    /// is greater too: it could neither win nor tie, and the least
    /// element is the same with or without it. The winner's `start` and
    /// cost come from its own window scan, the same call the exhaustive
    /// scan makes.
    // decarb-analyze: hot-path
    pub fn place(&self, req: &PlaceRequest) -> Result<PlaceDecision, PlaceError> {
        self.place_scanning(req, |_| {})
    }

    /// [`Snapshot::place`], handing `scanned` each remote region whose
    /// window scan it runs, in scan order.
    // decarb-analyze: hot-path
    fn place_scanning(
        &self,
        req: &PlaceRequest,
        mut scanned: impl FnMut(RegionId),
    ) -> Result<PlaceDecision, PlaceError> {
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
        let origin_planner = self.planner(req.origin);
        let naive_g = origin_planner.baseline_cost(req.arrival, slots) / sph as f64;

        // Held across the scan so each answer sees every earlier
        // admission; no lock at all when admission control is off.
        let admission = self.admission.as_ref().map(|a| {
            let mut ledger = a.ledger.lock().unwrap_or_else(PoisonError::into_inner);
            ledger.roll(req.arrival);
            (a.limit, ledger)
        });

        // The origin is always feasible (validated above); remote
        // regions must clear admission, RTT, and fit.
        let mut best_region = req.origin;
        let mut best = origin_planner.best_deferred(req.arrival, slots, slack);
        let mut queue = QUEUE.take();
        queue.clear();
        for &id in &self.deployed {
            if id == req.origin {
                continue;
            }
            if let Some((limit, ledger)) = &admission {
                if ledger.placed(id) >= *limit {
                    continue;
                }
            }
            let Some(rtt) = self.rtt.get(req.origin, id) else {
                continue;
            };
            if rtt > req.slo_ms || self.fits(id, req.arrival, slots).is_err() {
                continue;
            }
            let floor = self.planner(id).deferred_floor(req.arrival, slots, slack);
            if floor <= best.cost_g {
                queue.push(Queued { floor, id });
            }
        }
        let mut queue = BinaryHeap::from(queue);
        while let Some(Queued { floor, id }) = queue.pop() {
            if floor > best.cost_g {
                break;
            }
            scanned(id);
            let candidate = self.planner(id).best_deferred(req.arrival, slots, slack);
            if candidate.cost_g < best.cost_g
                || (candidate.cost_g == best.cost_g && self.rtt.code_before(id, best_region))
            {
                best_region = id;
                best = candidate;
            }
        }
        QUEUE.set(queue.into_vec());
        if let Some((_, mut ledger)) = admission {
            ledger.record(best_region);
        }

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

    /// The temporal planner for `id`.
    pub fn planner(&self, id: RegionId) -> &TemporalPlanner {
        &self.planners[id.index()]
    }

    /// The configured same-hour admission limit (`None` when admission
    /// control is disabled).
    pub fn capacity_per_hour(&self) -> Option<usize> {
        self.admission.as_ref().map(|a| a.limit)
    }

    /// Answers many placement queries, one result per request in input
    /// order: exactly N single calls, so under admission control each
    /// answer sees the admissions of the requests before it.
    pub fn place_batch(&self, requests: &[PlaceRequest]) -> Vec<Result<PlaceDecision, PlaceError>> {
        requests.iter().map(|r| self.place(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::rng::Xoshiro256;
    use decarb_traces::time::year_start;
    use decarb_traces::{builtin_dataset, Resolution, TimeSeries};
    use decarb_workloads::{Job, Slack};

    use crate::{PlannedDeferral, SimConfig, Simulator};

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
            let built = snap.planner(id);
            assert!(std::ptr::eq(built.series().values().as_ptr(), samples));
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
        // An arrival far past the origin's trace end, not just a run
        // that overruns it.
        let mut beyond = req(&snap, "DE", 0, f64::INFINITY);
        beyond.arrival = Hour(4_000_000_000);
        assert!(matches!(
            snap.place(&beyond),
            Err(PlaceError::BeyondTraceEnd(_))
        ));
        // A ragged dataset: the greener candidate's trace ends before
        // the arrival, so it is skipped and the origin answers.
        let region = |code| decarb_traces::catalog::region(code).unwrap().clone();
        let ragged = decarb_traces::TraceSet::from_series(vec![
            (
                region("DE"),
                decarb_traces::TimeSeries::new(start, vec![300.0; 500]),
            ),
            (
                region("SE"),
                decarb_traces::TimeSeries::new(start, vec![10.0; 100]),
            ),
        ]);
        let ragged_snap = Snapshot::build(Arc::new(ragged), 1);
        let mut query = PlaceRequest {
            origin: ragged_snap.traces().id_of("DE").unwrap(),
            arrival: start.plus(200),
            duration_hours: 2,
            slack_hours: 24,
            slo_ms: f64::INFINITY,
        };
        let routed = ragged_snap.place(&query).unwrap();
        query.slo_ms = 0.0;
        assert_eq!(routed, ragged_snap.place(&query).unwrap());
        assert_eq!(routed.region, query.origin);
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
        assert_eq!(snap.capacity_per_hour(), None);
        let origins = ["DE", "PL", "FR", "SE"];
        // A batch of varied shapes.
        let requests: Vec<PlaceRequest> = (0..35)
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
        assert_eq!(limited.capacity_per_hour(), Some(1));
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

    /// The exhaustive scan [`Snapshot::place`] replaced: every remote
    /// region that clears admission, the SLO and the fit gets its
    /// window scan, in deployed order. The oracle the pruned scan must
    /// match bit for bit.
    fn place_exhaustive(snap: &Snapshot, req: &PlaceRequest) -> Result<PlaceDecision, PlaceError> {
        if req.duration_hours == 0 {
            return Err(PlaceError::ZeroDuration);
        }
        let sph = snap.traces.resolution().slots_per_hour();
        let slots = req.duration_hours * sph;
        let slack = req.slack_hours * sph;
        snap.fits(req.origin, req.arrival, slots)?;
        let origin_planner = snap.planner(req.origin);
        let naive_g = origin_planner.baseline_cost(req.arrival, slots) / sph as f64;
        let admission = snap.admission.as_ref().map(|a| {
            let mut ledger = a.ledger.lock().unwrap_or_else(PoisonError::into_inner);
            ledger.roll(req.arrival);
            (a.limit, ledger)
        });
        let mut best_region = req.origin;
        let mut best = origin_planner.best_deferred(req.arrival, slots, slack);
        for &id in &snap.deployed {
            if id == req.origin {
                continue;
            }
            if let Some((limit, ledger)) = &admission {
                if ledger.placed(id) >= *limit {
                    continue;
                }
            }
            let Some(rtt) = snap.rtt.get(req.origin, id) else {
                continue;
            };
            if rtt > req.slo_ms || snap.fits(id, req.arrival, slots).is_err() {
                continue;
            }
            let candidate = snap.planner(id).best_deferred(req.arrival, slots, slack);
            if candidate.cost_g < best.cost_g
                || (candidate.cost_g == best.cost_g && snap.rtt.code_before(id, best_region))
            {
                best_region = id;
                best = candidate;
            }
        }
        if let Some((_, mut ledger)) = admission {
            ledger.record(best_region);
        }
        let rtt_ms = snap.rtt.get(req.origin, best_region).unwrap_or(0.0);
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

    /// Every bit of an answer: `PartialEq` on `f64` would equate 0.0
    /// with −0.0 and fail NaN against itself.
    fn bits(
        answer: &Result<PlaceDecision, PlaceError>,
    ) -> Result<(RegionId, Hour, [u64; 4]), PlaceError> {
        answer.clone().map(|d| {
            let f = [d.cost_g, d.naive_g, d.saved_g, d.rtt_ms].map(f64::to_bits);
            (d.region, d.start, f)
        })
    }

    /// `count` seeded requests from random origins: arrivals anywhere a
    /// job of up to `max_hours` fits, slack `0..=max_slack` hours, SLO
    /// 0, ∞ or `0..600` ms.
    fn seeded_requests(
        snap: &Snapshot,
        seed: u64,
        count: usize,
        max_hours: usize,
        max_slack: usize,
    ) -> Vec<PlaceRequest> {
        let mut rng = Xoshiro256::seeded(seed);
        let ids: Vec<RegionId> = snap.traces().ids().collect();
        let sph = snap.traces().resolution().slots_per_hour();
        (0..count)
            .map(|_| {
                let origin = ids[rng.below(ids.len())];
                let series = snap.traces().series_by_id(origin);
                let room = series.len().saturating_sub(max_hours * sph).max(1);
                PlaceRequest {
                    origin,
                    arrival: series.start().plus(rng.below(room)),
                    duration_hours: 1 + rng.below(max_hours),
                    slack_hours: rng.below(max_slack + 1),
                    slo_ms: match rng.below(4) {
                        0 => 0.0,
                        1 => f64::INFINITY,
                        _ => rng.uniform_in(0.0, 600.0),
                    },
                }
            })
            .collect()
    }

    fn assert_matches_the_exhaustive_scan(snap: &Snapshot, requests: &[PlaceRequest]) {
        for (k, r) in requests.iter().enumerate() {
            assert_eq!(
                bits(&snap.place(r)),
                bits(&place_exhaustive(snap, r)),
                "request {k}: {r:?}"
            );
        }
    }

    #[test]
    fn pruned_scan_matches_the_exhaustive_scan_on_the_hourly_builtin() {
        let snap = snapshot();
        let requests = seeded_requests(&snap, 0x5eed_0001, 400, 48, 500);
        assert_matches_the_exhaustive_scan(&snap, &requests);
    }

    #[test]
    fn pruned_scan_matches_the_exhaustive_scan_at_five_minutes() {
        let fine = builtin_dataset()
            .resample_to(Resolution::from_minutes(5).unwrap())
            .unwrap();
        let snap = Snapshot::build(Arc::new(fine), 1);
        let requests = seeded_requests(&snap, 0x5eed_0005, 40, 48, 500);
        assert_matches_the_exhaustive_scan(&snap, &requests);
    }

    #[test]
    fn pruned_scan_matches_the_exhaustive_scan_under_admission_control() {
        // Two identical snapshots with a one-job limit take the same
        // burst of same-hour requests, so each answer also depends on
        // the admissions before it.
        let pruned = Snapshot::build(builtin_dataset(), 1).with_capacity_per_hour(1);
        let oracle = Snapshot::build(builtin_dataset(), 1).with_capacity_per_hour(1);
        let mut requests = seeded_requests(&pruned, 0x5eed_00ad, 60, 12, 168);
        for r in &mut requests {
            r.arrival = year_start(2022).plus(500);
        }
        for (k, r) in requests.iter().enumerate() {
            assert_eq!(
                bits(&pruned.place(r)),
                bits(&place_exhaustive(&oracle, r)),
                "request {k}: {r:?}"
            );
        }
    }

    /// Datasets built to break a careless pruning rule, with the arrival
    /// their requests share. The first has regions of zeros and of one
    /// constant that tie exactly, so the code order decides, plus
    /// regions holding NaN and +∞. The second has a region near 1e15
    /// whose window sums the prefix rounds by hundreds, so the
    /// rounding margin decides.
    fn adversarial() -> [(Snapshot, Hour); 2] {
        let start = year_start(2022);
        let n = 4000;
        let c = 1e15 + 200.0;
        let big = TimeSeries::new(start, vec![c; n]).chunked_prefix();
        // A one-slot window whose sum the prefix rounds well below `c`.
        let (deep, low) = (3000..n - 1)
            .map(|i| (i, big.sum(start.plus(i), 1)))
            .find(|&(_, sum)| sum < c - 1.0)
            .unwrap();
        let arrival = start.plus(deep);
        let mut nan = vec![90.0; n];
        nan[deep + 2] = f64::NAN;
        nan[deep + 30] = f64::NAN;
        let mut inf = vec![95.0; n];
        inf[deep + 1] = f64::INFINITY;
        let constant =
            |code: &str, v: f64| (Region::user(code), TimeSeries::new(start, vec![v; n]));
        let ties = TraceSet::from_series(vec![
            constant("ZZ-ORIGIN", 0.0),
            constant("MM-ZERO", 0.0),
            constant("AA-ZERO", 0.0),
            constant("QQ-FLAT", 100.0),
            constant("BB-FLAT", 100.0),
            (Region::user("EE-NAN"), TimeSeries::new(start, nan)),
            (Region::user("FF-INF"), TimeSeries::new(start, inf)),
            constant("GG-ALLNAN", f64::NAN),
        ]);
        let rounding = TraceSet::from_series(vec![
            (Region::user("CC-BIG"), big.series().clone()),
            // Starts at the arrival, so its one-slot sums are its
            // samples exactly: between the rounded `CC-BIG` sum and `c`.
            (
                Region::user("DD-MID"),
                TimeSeries::new(arrival, vec![(low + c) / 2.0; 10]),
            ),
            constant("ZZ-FLAT", c),
        ]);
        [ties, rounding].map(|set| (Snapshot::build(Arc::new(set), 1), arrival))
    }

    #[test]
    fn pruned_scan_matches_the_exhaustive_scan_on_adversarial_traces() {
        for (snap, arrival) in adversarial() {
            let mut requests = Vec::new();
            for origin in snap.traces().ids() {
                for (hours, slack) in [(1, 0), (1, 5), (3, 0), (4, 20), (24, 100)] {
                    for slo_ms in [0.0, f64::INFINITY] {
                        requests.push(PlaceRequest {
                            origin,
                            arrival,
                            duration_hours: hours,
                            slack_hours: slack,
                            slo_ms,
                        });
                    }
                }
            }
            assert_matches_the_exhaustive_scan(&snap, &requests);
        }
    }

    #[test]
    fn exact_ties_and_rounded_sums_are_not_pruned() {
        let [(ties, arrival), (rounding, _)] = adversarial();
        let request = |snap: &Snapshot, origin: &str| PlaceRequest {
            origin: snap.traces().id_of(origin).unwrap(),
            arrival,
            duration_hours: 1,
            slack_hours: 0,
            slo_ms: f64::INFINITY,
        };
        // Zeros tie exactly at a floor of exactly 0: the first code
        // wins, so a region whose floor equals the best cost is scanned.
        let tied = ties.place(&request(&ties, "ZZ-ORIGIN")).unwrap();
        assert_eq!(ties.traces().code(tied.region), "AA-ZERO");
        // Only the rounding margin keeps `CC-BIG`, whose one-slot sum
        // reads below `DD-MID`'s sample though its samples lie above
        // it, from being skipped.
        let rounded = rounding.place(&request(&rounding, "DD-MID")).unwrap();
        assert_eq!(rounding.traces().code(rounded.region), "CC-BIG");
    }

    #[test]
    fn the_scan_runs_smallest_floor_first_and_skips_most_regions() {
        // The perfbench request shape at its widest: a week of slack and
        // a 500 ms SLO admit ~60 remote regions per request, and the
        // exhaustive scan ran a window scan on every one of them.
        let snap = snapshot();
        let mut requests = seeded_requests(&snap, 0x5eed_0168, 200, 12, 0);
        for r in &mut requests {
            r.slack_hours = 168;
            r.slo_ms = 500.0;
        }
        let mut scans = 0;
        for r in &requests {
            let mut floors = Vec::new();
            snap.place_scanning(r, |id| {
                let planner = snap.planner(id);
                floors.push(planner.deferred_floor(r.arrival, r.duration_hours, r.slack_hours));
            })
            .unwrap();
            assert!(floors.is_sorted(), "{r:?}: floors {floors:?}");
            scans += floors.len();
        }
        // 374 window scans on this seed, 1.9 per request.
        assert!(scans <= 5 * requests.len() / 2, "{scans} window scans");
    }

    #[test]
    fn zero_slo_answers_the_planned_deferral_start() {
        // Pinned to its origin, a placement is the start the
        // clairvoyant deferral policy runs the same job at in an
        // uncapacitated simulation.
        let snap = snapshot();
        let data = builtin_dataset();
        let mut rng = Xoshiro256::seeded(0x5eed_0000);
        let ids: Vec<RegionId> = data.ids().collect();
        for k in 0..24 {
            let origin = ids[rng.below(ids.len())];
            let arrival = year_start(2021).plus(rng.below(8000));
            let hours = 1 + rng.below(24);
            let slack = [Slack::None, Slack::Day, Slack::Week, Slack::TenX][k % 4];
            let job = Job::batch(k as u64, origin, arrival, hours as f64, slack);
            let mut sim = Simulator::new(&data, &[origin], SimConfig::new(arrival, 24 * 20, 1000));
            let report = sim.run(&mut PlannedDeferral, &[job]);
            assert_eq!(report.completed_count(), 1);
            let answer = snap
                .place(&PlaceRequest {
                    origin,
                    arrival,
                    duration_hours: hours,
                    slack_hours: job.slack_hours(),
                    slo_ms: 0.0,
                })
                .unwrap();
            assert_eq!(answer.region, origin);
            assert_eq!(answer.start, report.completed[0].started, "job {k}");
        }
    }
}
