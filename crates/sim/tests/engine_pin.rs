//! A bit-level pin of the engine's output.
//!
//! The golden scenario reports pin totals to 1e-9 relative and say
//! nothing about completion order. This test runs a seeded,
//! deliberately awkward multi-datacenter workload under every
//! [`PolicyKind`], [`ForecastSuspend`] and a staggered-start policy, on
//! hourly and 5-minute data, and compares every report against
//! `tests/fixtures/engine_pin.txt`: the completion order with each
//! job's region, start, finish, emissions bits and deadline verdict,
//! then every count and every total by [`f64::to_bits`]. A change that
//! reorders a float sum or a completion shows here even when the
//! goldens cannot see it.
//!
//! The workload mixes unsorted input, duplicate `(arrival, id)` pairs,
//! arrivals before the window and past its end, mid-hour arrivals on
//! the 5-minute axis, interruptible, rigid and interactive jobs,
//! saturated capacity and realistic transition overheads. The
//! staggered policy defers every other job by a few slots, so
//! deferred starts land on slots where immediate placements also
//! start.
//!
//! The fixture changes only when a change is meant to move the
//! engine's bits: regenerate it with
//! `cargo test -p decarb-sim --test engine_pin -- --ignored`.

use std::fmt::Write as _;

use decarb_forecast::SeasonalNaive;
use decarb_sim::scenario::SPATIOTEMPORAL_SLO_MS;
use decarb_sim::{
    CachedDeferral, CarbonAgnostic, CloudView, ForecastDeferral, ForecastSuspend, GreenestRouter,
    OverheadKind, Placement, PlannerCache, Policy, PolicyKind, SimConfig, SimReport, Simulator,
    SpatioTemporal, ThresholdSuspend,
};
use decarb_traces::time::year_start;
use decarb_traces::{builtin_dataset, Hour, RegionId, Resolution, TimeSeries, TraceSet};
use decarb_workloads::{Job, Slack};

const FIXTURE: &str = "tests/fixtures/engine_pin.txt";

/// Concurrent running jobs per datacenter: small enough that the dense
/// arrivals queue.
const CAPACITY: usize = 2;

/// Job origins; every run deploys a datacenter in each.
const ORIGINS: [&str; 4] = ["DE", "PL", "SE", "US-CA"];

/// Starts even-numbered jobs `id % 4` slots after their arrival and
/// the rest at once, at the origin.
struct Staggered;

impl Policy for Staggered {
    fn place(&mut self, job: &Job, view: &CloudView<'_>) -> Placement {
        let delay = if job.id.is_multiple_of(2) {
            (job.id % 4) as usize
        } else {
            0
        };
        Placement {
            region: job.origin,
            start: view.now.plus(delay),
        }
    }
}

/// A deterministic 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The seeded workload on an axis with `sph` slots per hour, simulated
/// from `start` for `horizon` slots.
fn pin_jobs(origins: &[RegionId], start: Hour, horizon: usize, sph: u32) -> Vec<Job> {
    const LENGTHS: [f64; 7] = [1.0, 2.5, 4.0, 7.0, 12.0, 0.25, 0.5];
    const SLACKS: [Slack; 4] = [Slack::None, Slack::Day, Slack::TenX, Slack::Week];
    let mut rng = Lcg(0x5eed_0000 + u64::from(sph));
    let mut jobs = Vec::new();
    // One zero-slack 3-hour job per hour at the first origin: they
    // overrun its capacity, and whatever start a deferring policy picks
    // on an hour boundary, an immediate placement starts there too.
    for hour in 0..48u32 {
        jobs.push(Job::batch(
            1000 + u64::from(hour),
            origins[0],
            Hour(start.0 + hour * sph),
            3.0,
            Slack::None,
        ));
    }
    // Random shapes, some arriving before the window or past its end.
    let span = horizon as u64 + 6 * u64::from(sph);
    for id in 0..48u64 {
        let arrival = Hour((start.0 + rng.below(span) as u32).saturating_sub(3 * sph));
        let origin = origins[rng.below(origins.len() as u64) as usize];
        let mut job = if rng.below(8) == 0 {
            Job::interactive(id, origin, arrival)
        } else {
            let length = LENGTHS[rng.below(LENGTHS.len() as u64) as usize];
            let slack = SLACKS[rng.below(SLACKS.len() as u64) as usize];
            Job::batch(id, origin, arrival, length, slack)
        };
        if rng.below(3) == 0 {
            job = job.with_interruptible();
        }
        job.migratable = rng.below(2) == 0;
        jobs.push(job);
    }
    // Duplicate `(arrival, id)` pairs with a different shape: their
    // relative order is part of the pin.
    for k in [3usize, 17, 40] {
        let base = &jobs[48 + k];
        let twin = Job {
            length_hours: base.length_hours + 1.0,
            interruptible: !base.interruptible,
            ..*base
        };
        jobs.push(twin);
    }
    // Unsorted input: a seeded Fisher–Yates shuffle.
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    jobs
}

/// The 5-minute dataset: four regions whose samples vary within every
/// hour, covering eight days of history before the window and a day
/// past its end.
fn five_minute_dataset(start: Hour, days: usize) -> TraceSet {
    let mut rng = Lcg(0xf1e5);
    let first = Hour(start.0 - 8 * 288);
    let pairs = ORIGINS
        .iter()
        .map(|code| {
            let region = decarb_traces::catalog::region(code).unwrap().clone();
            let values: Vec<f64> = (0..(days + 9) * 288)
                .map(|slot| {
                    let diurnal = ((slot % 288) as f64 / 288.0 * std::f64::consts::TAU).sin();
                    300.0 + 150.0 * diurnal + rng.below(1000) as f64 / 10.0
                })
                .collect();
            (region, TimeSeries::new(first, values))
        })
        .collect();
    TraceSet::from_series(pairs).with_resolution(Resolution::from_minutes(5).unwrap())
}

/// One engine run's inputs.
struct PinRun<'a> {
    traces: &'a TraceSet,
    regions: &'a [RegionId],
    config: &'a SimConfig,
    jobs: &'a [Job],
}

impl PinRun<'_> {
    fn run<P: Policy>(&self, mut policy: P) -> SimReport {
        Simulator::new(self.traces, self.regions, self.config.clone()).run(&mut policy, self.jobs)
    }

    /// Runs the policy `kind` names, built as a scenario builds it with
    /// the seasonal forecaster.
    fn run_kind(&self, kind: PolicyKind, cache: &PlannerCache) -> SimReport {
        let model = || SeasonalNaive::daily_at(self.traces.resolution());
        match kind {
            PolicyKind::CarbonAgnostic => self.run(CarbonAgnostic),
            PolicyKind::PlannedDeferral => self.run(CachedDeferral::new(cache)),
            PolicyKind::ThresholdSuspend => self.run(ThresholdSuspend::default()),
            PolicyKind::GreenestRouter => self.run(GreenestRouter),
            PolicyKind::ForecastDeferral => self.run(ForecastDeferral::new(model())),
            PolicyKind::SpatioTemporal => self.run(SpatioTemporal::new(
                self.traces,
                self.regions,
                SPATIOTEMPORAL_SLO_MS,
                model(),
            )),
        }
    }
}

/// Appends one report: its completion order, then its counts and
/// totals, floats by their bits.
fn render(out: &mut String, label: &str, traces: &TraceSet, report: &SimReport) {
    let _ = writeln!(out, "# {label}");
    for c in &report.completed {
        let _ = writeln!(
            out,
            "job {} {} {} {} {:016x} {}",
            c.job.id,
            traces.code(c.region),
            c.started.0,
            c.finished.0,
            c.emitted_g.to_bits(),
            u8::from(c.missed_deadline),
        );
    }
    let _ = writeln!(
        out,
        "counts completed {} unfinished {} stalled {} suspends {} resumes {} migrations {}",
        report.completed.len(),
        report.unfinished,
        report.stalled_hours,
        report.suspends,
        report.resumes,
        report.migrations,
    );
    let _ = writeln!(
        out,
        "totals energy {:016x} emissions {:016x} overhead_kwh {:016x} overhead_g {:016x}",
        report.total_energy_kwh.to_bits(),
        report.total_emissions_g.to_bits(),
        report.overhead_kwh.to_bits(),
        report.overhead_g.to_bits(),
    );
    let mut regions: Vec<(&str, f64)> = report
        .per_region_g
        .iter()
        .map(|(&id, &g)| (traces.code(id), g))
        .collect();
    regions.sort_by(|a, b| a.0.cmp(b.0));
    for (code, g) in regions {
        let _ = writeln!(out, "region {code} {:016x}", g.to_bits());
    }
}

/// Runs every policy on one axis and renders the reports.
fn render_axis(
    out: &mut String,
    axis: &str,
    traces: &TraceSet,
    regions: &[RegionId],
    config: SimConfig,
) {
    let origins: Vec<RegionId> = ORIGINS.iter().map(|c| traces.id_of(c).unwrap()).collect();
    let sph = traces.resolution().slots_per_hour() as u32;
    let jobs = pin_jobs(&origins, config.start, config.horizon, sph);
    let end = config.start.plus(config.horizon);
    assert!(jobs.iter().any(|j| j.arrival < config.start));
    assert!(jobs.iter().any(|j| j.arrival >= end));
    assert!(!jobs.is_sorted_by_key(|j| (j.arrival, j.id)));
    let run = PinRun {
        traces,
        regions,
        config: &config,
        jobs: &jobs,
    };
    let cache = PlannerCache::new();
    for kind in PolicyKind::ALL {
        let report = run.run_kind(kind, &cache);
        render(out, &format!("{axis} {}", kind.label()), traces, &report);
    }
    let forecast = ForecastSuspend::new(SeasonalNaive::daily_at(traces.resolution()));
    render(
        out,
        &format!("{axis} forecast-suspend"),
        traces,
        &run.run(forecast),
    );
    render(
        out,
        &format!("{axis} staggered"),
        traces,
        &run.run(Staggered),
    );
}

/// Renders the whole pin: hourly over all 123 builtin regions (more
/// datacenters than fit one machine word), 5-minute over four.
fn render_pin() -> String {
    let mut out = String::new();
    let overheads = OverheadKind::Realistic.model();
    let hourly = builtin_dataset();
    let every: Vec<RegionId> = (0..hourly.len()).map(|i| RegionId(i as u16)).collect();
    let config =
        SimConfig::new(year_start(2022).plus(24 * 40), 24 * 5, CAPACITY).with_overheads(overheads);
    render_axis(&mut out, "hourly", &hourly, &every, config);

    let start = Hour(year_start(2022).0 * 12 + 24 * 288 + 7);
    let fine = five_minute_dataset(start, 3);
    let regions: Vec<RegionId> = ORIGINS.iter().map(|c| fine.id_of(c).unwrap()).collect();
    let config = SimConfig::new(start, 3 * 288, CAPACITY).with_overheads(overheads);
    render_axis(&mut out, "5min", &fine, &regions, config);
    out
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

#[test]
fn engine_output_matches_its_bit_level_pin() {
    let actual = render_pin();
    let expected = std::fs::read_to_string(fixture_path()).expect("engine pin fixture is readable");
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{FIXTURE}:{}: engine output moved", n + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{FIXTURE}: line count moved"
    );
    // Some runs suspend and some migrate, so every overhead path is
    // pinned.
    let counts: Vec<&str> = actual.lines().filter(|l| l.starts_with("counts")).collect();
    assert!(counts.iter().any(|l| !l.contains(" suspends 0 ")));
    assert!(counts.iter().any(|l| !l.ends_with(" migrations 0")));
}

#[test]
#[ignore = "rewrites the fixture; run only when the engine's bits are meant to move"]
fn write_engine_pin() {
    std::fs::write(fixture_path(), render_pin()).expect("engine pin fixture is writable");
}
