//! The year-long sweep workloads.
//!
//! Both run the builtin matrix axes stretched to a year (3 classes × 6
//! policies × 3 region sets, 352,800 jobs per pass) through plan →
//! `SweepPlan::execute_with` → JSON render. A timed operation is a
//! group of passes, about a second of work, and its latency is the mean
//! pass time within the group. Each set-up ends with one such group as
//! its untimed warm-up.
//!
//! - `sweep-hourly` runs on the builtin dataset synthesized in-process:
//!   the hourly engine loop, with synthesis in set-up.
//! - `sweep-5min` runs on the builtin dataset re-expressed at 5-minute
//!   resolution and loaded from a packed container: event-driven
//!   stepping, the chunked prefix cache and container decode in set-up.
//!
//! `sweep-hourly` runs on one worker, `sweep-5min` fans the matrix out
//! on two.
//!
//! The matrix is fixed so that each axis can be checked against its own
//! recorded reference; the seed rotates the order the plan runs the
//! scenarios in.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use decarb_core::temporal::TemporalPlanner;
use decarb_json::Value;
use decarb_sim::{
    builtin_matrix, PlannerCache, PolicyKind, Scenario, ScenarioMatrix, ScenarioReport, SweepPlan,
};
use decarb_traces::{builtin_catalog, container, Hour, RegionId, SynthConfig, TraceSet};
use decarb_workloads::WorkloadSpec;

use crate::stats::{median, within};
use crate::trace::Tracer;
use crate::{Config, CpuRotation, Figures, Half, Outcome, Rng, Segments};

/// Set-ups per run (per half in a traced run), about 1.5 s each.
const SETUPS: usize = 5;
/// Largest relative difference from the reference an answer may show.
const REFERENCE_SHARE: f64 = 0.001;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    Hourly,
    FiveMinute,
}

impl Axis {
    fn label(self) -> &'static str {
        match self {
            Axis::Hourly => "hourly",
            Axis::FiveMinute => "5min",
        }
    }

    /// Passes in one operation, timed or warm-up. The host runs fast and
    /// slow in phases of 0.5–1.5 s; single passes (125–240 ms hourly)
    /// fell into one phase or the other, so their median jumped between
    /// the two modes from run to run (a 30% IQR over ten runs). An
    /// operation of about a second spans the phases.
    fn passes_per_op(self) -> usize {
        match self {
            Axis::Hourly => 8,
            Axis::FiveMinute => 2,
        }
    }

    fn other(self) -> Axis {
        match self {
            Axis::Hourly => Axis::FiveMinute,
            Axis::FiveMinute => Axis::Hourly,
        }
    }

    fn reference_path(self) -> PathBuf {
        PathBuf::from(format!("perfbench/reference/sweep-{}.json", self.label()))
    }
}

/// The builtin matrix stretched to 360 days from 2022: per origin, 350
/// batch jobs every 24 h, 1400 interactive jobs every 6 h and 700 mixed
/// jobs every 12 h; capacity 8, seasonal forecaster, 120 ms SLO.
pub fn year_matrix() -> ScenarioMatrix {
    let mut matrix = builtin_matrix();
    for (_, spec) in &mut matrix.workloads {
        match spec {
            WorkloadSpec::Batch { per_origin, .. } => *per_origin = 350,
            WorkloadSpec::Interactive { per_origin, .. } => *per_origin = 1400,
            WorkloadSpec::Mixed { per_origin, .. } => *per_origin = 700,
        }
    }
    matrix.horizon = 360 * 24;
    matrix
}

/// The fields every pass is checked on, per scenario.
#[derive(Debug, Clone, PartialEq)]
struct Row([f64; 5]);

const FIELDS: [&str; 5] = [
    "completed",
    "unfinished",
    "missed_deadlines",
    "migrations",
    "emissions_g",
];

impl Row {
    fn of(report: &ScenarioReport) -> Row {
        Row([
            report.completed as f64,
            report.unfinished as f64,
            report.missed_deadlines as f64,
            report.migrations as f64,
            report.total_emissions_g,
        ])
    }
}

/// Checked fields by scenario name.
type Rows = BTreeMap<String, Row>;

fn read_reference(path: &Path) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = decarb_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(items)) = doc.get("scenarios") else {
        return Err(format!("{}: no `scenarios` array", path.display()));
    };
    let mut rows = Rows::new();
    for item in items {
        let Some(Value::String(name)) = item.get("name") else {
            return Err(format!("{}: scenario without a name", path.display()));
        };
        let mut row = Row([0.0; 5]);
        for (slot, field) in row.0.iter_mut().zip(FIELDS) {
            let Some(Value::Number(value)) = item.get(field) else {
                return Err(format!("{}: {name} lacks `{field}`", path.display()));
            };
            *slot = *value;
        }
        rows.insert(name.clone(), row);
    }
    Ok(rows)
}

fn write_reference(path: &Path, axis: Axis, rows: &Rows) -> Result<(), String> {
    let scenarios = rows.iter().map(|(name, row)| {
        let mut pairs = vec![("name".to_string(), Value::from(name.as_str()))];
        pairs.extend(
            FIELDS
                .iter()
                .zip(row.0)
                .map(|(field, value)| (field.to_string(), Value::from(value))),
        );
        Value::Object(pairs)
    });
    let doc = Value::object([
        ("axis", Value::from(axis.label())),
        ("scenarios", Value::array(scenarios)),
    ]);
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Largest relative difference, in percent, between `rows` and
/// `reference` over every scenario and the given fields; infinite when
/// the two do not cover the same scenarios.
fn max_drift_pct(rows: &Rows, reference: &Rows, fields: std::ops::Range<usize>) -> f64 {
    if rows.len() != reference.len() {
        return f64::INFINITY;
    }
    let mut worst: f64 = 0.0;
    for (name, expected) in reference {
        let Some(actual) = rows.get(name) else {
            return f64::INFINITY;
        };
        for i in fields.clone() {
            let (a, b) = (actual.0[i], expected.0[i]);
            worst = worst.max((a - b).abs() / b.abs().max(1.0) * 100.0);
        }
    }
    worst
}

/// Index of `emissions_g` in [`FIELDS`].
const EMISSIONS: usize = 4;

fn matches_reference(rows: &Rows, reference: &Rows) -> bool {
    rows.len() == reference.len()
        && reference.iter().all(|(name, expected)| {
            rows.get(name).is_some_and(|actual| {
                actual
                    .0
                    .iter()
                    .zip(expected.0)
                    .all(|(&a, b)| within(a, b, REFERENCE_SHARE))
            })
        })
}

fn container_path(cfg: &Config) -> PathBuf {
    cfg.out_dir.join("builtin-5min.dctr")
}

fn load(axis: Axis, cfg: &Config, tr: &mut Tracer) -> Result<TraceSet, String> {
    Ok(match axis {
        Axis::Hourly => {
            let s = tr.begin("traces.synth", 0);
            let data = TraceSet::synthesize(builtin_catalog().to_vec(), SynthConfig::default());
            tr.end(s);
            data
        }
        Axis::FiveMinute => {
            let s = tr.begin("traces.decode", 0);
            let data = container::load_file(&container_path(cfg).to_string_lossy())
                .map_err(|e| e.to_string())?;
            tr.end(s);
            data
        }
    })
}

/// The plan order for `seed`: the matrix's own order, rotated to start
/// at a seeded scenario. Neighbours in the matrix share their workload
/// and region set, so a rotation keeps the plan's locality, which a
/// shuffle does not: over full shuffles the mean pass time differed by
/// up to a tenth between seeds, in the same phase of the host.
fn rotated(mut scenarios: Vec<Scenario>, seed: u64) -> Vec<Scenario> {
    if !scenarios.is_empty() {
        let start = Rng::new(seed).below(scenarios.len());
        scenarios.rotate_left(start);
    }
    scenarios
}

/// The union of the regions `scenarios` deploy in (all of them, or only
/// those of one policy).
fn regions_of(
    data: &TraceSet,
    scenarios: &[Scenario],
    policy: Option<PolicyKind>,
) -> Result<Vec<RegionId>, String> {
    let mut ids = Vec::new();
    for scenario in scenarios {
        if policy.is_none_or(|p| p == scenario.policy) {
            ids.extend(scenario.regions.try_resolve(data)?);
        }
    }
    ids.sort_unstable_by_key(|id| id.index());
    ids.dedup();
    Ok(ids)
}

/// One pass over the matrix.
struct Pass {
    rows: Rows,
    jobs: u64,
    latency_s: f64,
}

fn pass(data: &TraceSet, scenarios: &[Scenario], tr: &mut Tracer, op: u64) -> Result<Pass, String> {
    let started = Instant::now();
    let whole = tr.begin("sweep.pass", op);
    let s = tr.begin("sweep.plan", op);
    let plan = SweepPlan::plan(data, scenarios.to_vec()).map_err(|e| e.to_string())?;
    tr.end(s);
    let s = tr.begin("sweep.execute", op);
    let mut reports = Vec::with_capacity(plan.len());
    plan.execute_with(data, |report| {
        reports.push(report);
        true
    });
    tr.end(s);
    let s = tr.begin("sweep.render", op);
    let mut json = String::new();
    Value::Array(reports.iter().map(ScenarioReport::to_json).collect()).pretty_into(&mut json);
    tr.end(s);
    tr.end(whole);
    let latency_s = started.elapsed().as_secs_f64();
    std::hint::black_box(&json);
    Ok(Pass {
        rows: reports
            .iter()
            .map(|r| (r.name.clone(), Row::of(r)))
            .collect(),
        jobs: reports.iter().map(|r| r.jobs as u64).sum(),
        latency_s,
    })
}

/// A loaded dataset, the rotated matrix and the first pass of its
/// untimed warm-up operation.
struct Ready {
    data: TraceSet,
    scenarios: Vec<Scenario>,
    warm: Pass,
    /// Every warm-up pass gave the same rows as the first.
    warm_stable: bool,
}

fn set_up(
    axis: Axis,
    cfg: &Config,
    rotation: &mut CpuRotation,
    tr: &mut Tracer,
) -> Result<(Ready, f64), String> {
    let started = Instant::now();
    let s = tr.begin("setup", 0);
    let data = load(axis, cfg, tr)?;
    let scenarios = rotated(year_matrix().expand(), cfg.seed);
    if tr.is_on() && axis == Axis::FiveMinute {
        // Traced runs fill the lazy prefix cache up front so its cost is
        // a span of its own; untraced runs leave it to the warm-up pass.
        let p = tr.begin("traces.prefix_cache", 0);
        for id in regions_of(&data, &scenarios, None)? {
            std::hint::black_box(data.chunked_prefix_by_id(id));
        }
        tr.end(p);
    }
    rotation.advance(&[])?;
    let warm = pass(&data, &scenarios, tr, 0)?;
    let mut warm_stable = true;
    for _ in 1..axis.passes_per_op() {
        rotation.advance(&[])?;
        warm_stable &= pass(&data, &scenarios, tr, 0)?.rows == warm.rows;
    }
    tr.end(s);
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Ready {
            data,
            scenarios,
            warm,
            warm_stable,
        },
        setup_s,
    ))
}

struct Measured {
    /// The untraced half, then the traced one when the tracer is on.
    halves: Vec<Half>,
    attempted: u64,
    failed: u64,
    ready: Ready,
}

/// Runs the segments of one run: each sets the workload up, checks its
/// warm-up against `reference` and makes timed operations until its
/// deadline, at least one. With the tracer on, the segments alternate
/// between the untraced and the traced half.
fn measure(
    axis: Axis,
    cfg: &Config,
    reference: &Rows,
    rotation: &mut CpuRotation,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let segments = Segments::new(if tr.is_on() { 2 } else { 1 }, SETUPS, cfg.seconds);
    let mut halves: Vec<Half> = (0..segments.halves).map(|_| Half::default()).collect();
    let group = axis.passes_per_op();
    let (mut attempted, mut failed, mut n) = (0u64, 0u64, 0u64);
    let mut ready = None;
    let started = Instant::now();
    for k in 0..segments.count {
        let half = segments.enter(tr, k);
        // Drop the previous copy before loading the next one.
        drop(ready.take());
        let (next, setup_s) = set_up(axis, cfg, rotation, tr)?;
        halves[half].setups.push(setup_s);
        let ok = next.warm_stable && matches_reference(&next.warm.rows, reference);
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!(
                "perfbench: warm-up drifts {:.4}% from {} (stable across its passes: {})",
                max_drift_pct(&next.warm.rows, reference, 0..FIELDS.len()),
                axis.reference_path().display(),
                next.warm_stable
            );
        }
        loop {
            n += 1;
            let mut op_s = 0.0;
            for _ in 0..group {
                rotation.advance(&[])?;
                let p = pass(&next.data, &next.scenarios, tr, n)?;
                attempted += 1;
                if !ok || p.rows != next.warm.rows {
                    failed += 1;
                }
                halves[half].units += p.jobs;
                op_s += p.latency_s;
            }
            halves[half].latencies.push(op_s / group as f64);
            halves[half].busy_s += op_s;
            if started.elapsed().as_secs_f64() >= segments.deadline(k) {
                break;
            }
        }
        halves[half].end_segment();
        ready = Some(next);
    }
    tr.pause(false);
    for half in &halves {
        eprintln!("perfbench: set-up seconds {:?}", half.setups);
        eprintln!(
            "perfbench: pass seconds (mean per operation): {}",
            crate::stats::spread(&half.latencies)
        );
    }
    Ok(Measured {
        halves,
        attempted,
        failed,
        ready: ready.ok_or("no set-up ran")?,
    })
}

/// Runs one sweep workload; `traced` selects the per-layer run.
pub fn run(axis: Axis, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    if axis == Axis::FiveMinute {
        crate::ensure_container(&container_path(cfg), 5)?;
    }
    let reference = if cfg.record_reference {
        let (ready, _) = set_up(axis, cfg, &mut CpuRotation::none(), &mut Tracer::off())?;
        write_reference(&axis.reference_path(), axis, &ready.warm.rows)?;
        ready.warm.rows
    } else {
        read_reference(&axis.reference_path())?
    };
    // The hourly sweep's one worker is the calling thread; it steps to
    // the other CPU every pass. The 5-minute sweep's two workers are
    // left to the scheduler.
    let mut rotation = match axis {
        Axis::Hourly => CpuRotation::over_allowed_cpus()?,
        Axis::FiveMinute => CpuRotation::none(),
    };
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    let m = measure(axis, cfg, &reference, &mut rotation, &mut tr)?;
    let mut outcome = Outcome {
        attempted: m.attempted,
        failed: m.failed,
        ..Outcome::default()
    };
    if !traced {
        m.halves[0].figures().record(&mut outcome.metrics);
        return Ok(outcome);
    }
    Figures::record_overhead(
        &m.halves[1].figures(),
        &m.halves[0].figures(),
        &tr,
        &mut outcome.metrics,
    );
    layers(axis, cfg, &m.ready, &mut tr, &mut outcome.metrics)?;
    outcome.metrics.insert("trace.spans", tr.len() as f64);
    let path = cfg
        .out_dir
        .join(format!("trace-sweep-{}.jsonl", axis.label()));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

fn policy_names(policy: PolicyKind) -> (&'static str, &'static str) {
    match policy {
        PolicyKind::CarbonAgnostic => ("sim.run.agnostic", "sim.policy.agnostic_ms"),
        PolicyKind::PlannedDeferral => ("sim.run.deferral", "sim.policy.deferral_ms"),
        PolicyKind::ThresholdSuspend => ("sim.run.threshold", "sim.policy.threshold_ms"),
        PolicyKind::GreenestRouter => ("sim.run.greenest", "sim.policy.greenest_ms"),
        PolicyKind::ForecastDeferral => ("sim.run.forecast", "sim.policy.forecast_ms"),
        PolicyKind::SpatioTemporal => ("sim.run.spatiotemporal", "sim.policy.spatiotemporal_ms"),
    }
}

/// Per-layer metrics from the traced passes plus a serial replay of the
/// matrix through `Scenario::run_cached`.
fn layers(
    axis: Axis,
    cfg: &Config,
    ready: &Ready,
    tr: &mut Tracer,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let data = &ready.data;
    match axis {
        Axis::Hourly => {
            metrics.insert("traces.synth_s", median(&tr.seconds("traces.synth")));
        }
        Axis::FiveMinute => {
            let bytes = std::fs::metadata(container_path(cfg))
                .map_err(|e| e.to_string())?
                .len();
            metrics.insert("traces.decode_s", median(&tr.seconds("traces.decode")));
            metrics.insert("traces.decode_mb", bytes as f64 / 1e6);
            metrics.insert(
                "traces.prefix_cache_s",
                median(&tr.seconds("traces.prefix_cache")),
            );
        }
    }
    let execute_s = median(&tr.op_seconds("sweep.execute"));
    metrics.insert("sweep.plan_ms", median(&tr.op_seconds("sweep.plan")) * 1e3);
    metrics.insert("sweep.execute_ms", execute_s * 1e3);
    metrics.insert(
        "sweep.render_ms",
        median(&tr.op_seconds("sweep.render")) * 1e3,
    );
    metrics.insert("sweep.scenarios", ready.scenarios.len() as f64);
    metrics.insert("sweep.jobs", ready.warm.jobs as f64);

    // Serial replay: materialize and run each scenario on its own.
    let cache = PlannerCache::new();
    let sph = data.resolution().slots_per_hour();
    let (mut engine_s, mut busy_s) = (0.0, 0.0);
    let (mut completed, mut migrations, mut missed) = (0usize, 0usize, 0usize);
    for policy in PolicyKind::ALL {
        metrics.insert(policy_names(policy).1, 0.0);
    }
    for (i, scenario) in ready.scenarios.iter().enumerate() {
        let op = i as u64 + 1;
        let regions = scenario.regions.try_resolve(data)?;
        let start = Hour(scenario.start.0 * sph as u32);
        let s = tr.begin("workloads.materialize", op);
        let jobs = scenario
            .workload
            .materialize_at(&regions, start, data.resolution());
        tr.end(s);
        std::hint::black_box(jobs);
        let (span_name, metric) = policy_names(scenario.policy);
        let started = Instant::now();
        let s = tr.begin(span_name, op);
        let report = scenario.run_cached(data, &cache);
        tr.end(s);
        let wall_s = started.elapsed().as_secs_f64();
        engine_s += report.elapsed.as_secs_f64();
        busy_s += wall_s;
        *metrics.entry(metric).or_default() += wall_s * 1e3;
        completed += report.completed;
        migrations += report.migrations;
        missed += report.missed_deadlines;
    }
    let materialize_s: f64 = tr.op_seconds("workloads.materialize").iter().sum();
    metrics.insert("workloads.materialize_ms", materialize_s * 1e3);
    metrics.insert("sim.engine_ms", engine_s * 1e3);
    metrics.insert("sim.prepare_ms", (busy_s - engine_s) * 1e3);
    metrics.insert("sim.jobs_completed", completed as f64);
    metrics.insert("sim.migrations", migrations as f64);
    metrics.insert("sim.missed_deadlines", missed as f64);
    let workers = decarb_par::thread_count() as f64;
    metrics.insert("sweep.parallel_efficiency", busy_s / (workers * execute_s));

    // Planner builds: the replay's cache holds one per deferral origin.
    metrics.insert("core.planner_builds", cache.len() as f64);
    let mut build_s = 0.0;
    for id in regions_of(data, &ready.scenarios, Some(PolicyKind::PlannedDeferral))? {
        let s = tr.begin("core.planner_build", 1);
        let started = Instant::now();
        let planner = TemporalPlanner::with_resolution(data.series_by_id(id), data.resolution());
        build_s += started.elapsed().as_secs_f64();
        tr.end(s);
        std::hint::black_box(planner);
    }
    metrics.insert("core.planner_build_ms", build_s * 1e3);

    // Emissions drift between the two axes (reported, not failed).
    let other = read_reference(&axis.other().reference_path())?;
    metrics.insert(
        "sim.axis_drift_max_pct",
        max_drift_pct(&ready.warm.rows, &other, EMISSIONS..EMISSIONS + 1),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::builtin_dataset;

    #[test]
    fn year_matrix_has_the_documented_shape_and_checks_clean() {
        let scenarios = year_matrix().expand();
        assert_eq!(scenarios.len(), 54);
        let data = builtin_dataset();
        let jobs: usize = scenarios
            .iter()
            .map(|s| {
                let regions = s.regions.try_resolve(&data).unwrap();
                s.workload
                    .materialize_at(&regions, s.start, data.resolution())
                    .len()
            })
            .sum();
        assert_eq!(jobs, 352_800);
        let diagnostics = decarb_sim::check_scenarios("year", &scenarios, &data);
        assert!(diagnostics.is_empty(), "{} diagnostics", diagnostics.len());
    }

    #[test]
    fn rotation_is_seeded_and_keeps_every_scenario() {
        let names = |seed| -> Vec<String> {
            rotated(year_matrix().expand(), seed)
                .into_iter()
                .map(|s| s.name)
                .collect()
        };
        assert_eq!(names(3), names(3));
        assert_ne!(names(3), names(4));
        let mut sorted = names(3);
        sorted.sort();
        let mut plain: Vec<String> = year_matrix().expand().into_iter().map(|s| s.name).collect();
        plain.sort();
        assert_eq!(sorted, plain);
    }

    #[test]
    fn drift_and_reference_checks() {
        let mut reference = Rows::new();
        reference.insert("a".into(), Row([10.0, 0.0, 0.0, 2000.0, 5000.0]));
        let mut rows = reference.clone();
        assert_eq!(max_drift_pct(&rows, &reference, 0..5), 0.0);
        assert!(matches_reference(&rows, &reference));
        rows.get_mut("a").unwrap().0[4] = 5004.0;
        assert!((max_drift_pct(&rows, &reference, 0..5) - 0.08).abs() < 1e-9);
        assert_eq!(max_drift_pct(&rows, &reference, 0..4), 0.0);
        assert!(matches_reference(&rows, &reference));
        rows.get_mut("a").unwrap().0[3] = 2003.0;
        assert!(!matches_reference(&rows, &reference));
        rows.get_mut("a").unwrap().0[3] = 2000.0;
        rows.get_mut("a").unwrap().0[1] = 1.0;
        assert!(
            !matches_reference(&rows, &reference),
            "zero counts match exactly"
        );
        rows.clear();
        assert_eq!(max_drift_pct(&rows, &reference, 0..5), f64::INFINITY);
    }

    #[test]
    fn checked_in_references_cover_the_matrix() {
        let names: Vec<String> = year_matrix().expand().into_iter().map(|s| s.name).collect();
        for axis in [Axis::Hourly, Axis::FiveMinute] {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("reference/sweep-{}.json", axis.label()));
            let rows = read_reference(&path).unwrap();
            assert_eq!(rows.len(), names.len(), "{}", axis.label());
            assert!(names.iter().all(|n| rows.contains_key(n)));
        }
    }
}
