//! Subcommand implementations: each renders a `String` for `main` to
//! print, so tests can assert on the exact output. The scenario runner
//! additionally has a streaming variant writing to any `io::Write`
//! sink, so thousand-scenario sweeps emit reports incrementally.

use std::fmt::Write as _;
use std::io;

use decarb_core::rankings::rank_stability;
use decarb_core::spatial::{inf_migration, one_migration};
use decarb_core::temporal::TemporalPlanner;
use decarb_experiments::{registry, Experiment};
use decarb_forecast::{
    backtest, BacktestConfig, DiurnalTemplate, Forecaster, LinearAr, Persistence, SeasonalNaive,
};
use decarb_json::Value;
use decarb_stats::daily::{average_daily_cv, LOW_VARIATION_THRESHOLD};
use decarb_stats::periodicity::periodicity_score;
use decarb_traces::time::{hours_in_year, year_start};
use decarb_traces::{container, csv, TimeSeries, TraceError, TraceSet};

use decarb_sim::sweep::SweepPlan;
use decarb_sim::{Scenario, ScenarioFile, ScenarioFileError, ScenarioReport};

use crate::args::{DataCommand, MergeExpect, ParseError, ScenarioTarget, ShardSpec};

/// A CLI failure. [`CliError::Parse`] is a usage error (the binary
/// exits 2); every other variant is a failure raised while doing the
/// work (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// The arguments are wrong: an unknown, missing or invalid flag or
    /// value, or an unknown scenario or experiment name.
    Parse(ParseError),
    /// The trace layer rejected a request (unknown zone, out of range).
    Trace(TraceError),
    /// Writing the output failed (e.g. a closed pipe mid-stream).
    Io(io::Error),
    /// The work failed: an unreadable or malformed input, a port that
    /// cannot be bound, or a gate that found violations.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "{e}"),
            CliError::Trace(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Failed(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<TraceError> for CliError {
    fn from(e: TraceError) -> Self {
        CliError::Trace(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A [`CliError::Failed`] saying what failed (a path, a subcommand) and
/// why.
pub(crate) fn failed(what: impl std::fmt::Display, why: impl std::fmt::Display) -> CliError {
    CliError::Failed(format!("{what}: {why}"))
}

/// `serve`: builds the placement service over the imported `--data`
/// set (with its `--data` path and optional `--regions` sidecar path)
/// or the built-in one, prints the bound address, and blocks in the
/// accept loop. The imported set is moved into the service, not loaded
/// a second time, so a reload frees it. The daemon re-imports `--data`
/// from its path on every `POST /v1/reload`, so a repacked container or
/// refreshed CSV is picked up without a restart.
pub(crate) fn serve_cmd(
    out: &mut dyn io::Write,
    data: crate::ImportedData,
    addr: &str,
    threads: usize,
    capacity_per_hour: Option<usize>,
) -> Result<(), CliError> {
    use std::sync::Arc;
    let (traces, loader): (Arc<TraceSet>, decarb_serve::Loader) = match data {
        Some((data_path, regions_path, set)) => (
            Arc::new(set),
            Box::new(move || {
                crate::load_dataset(&data_path, regions_path.as_deref())
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            }),
        ),
        None => (
            decarb_traces::builtin_dataset(),
            Box::new(|| Ok(decarb_traces::builtin_dataset())),
        ),
    };
    let regions = traces.len();
    let service = Arc::new(
        decarb_serve::PlacementService::with_capacity(traces, capacity_per_hour)
            .with_loader(loader),
    );
    let server = decarb_serve::Server::bind(addr, service)
        .map_err(|e| failed(format_args!("serve: cannot bind {addr}"), e))?;
    let local = server.local_addr().map_err(|e| failed("serve", e))?;
    let admission = match capacity_per_hour {
        Some(n) => format!(", capacity {n}/hour"),
        None => String::new(),
    };
    writeln!(
        out,
        "decarb-serve listening on http://{local} ({regions} regions, {threads} thread{}{admission})",
        if threads == 1 { "" } else { "s" }
    )?;
    out.flush()?;
    server.run(threads)?;
    Ok(())
}

/// Renders the experiment registry, one `id  description` line per
/// registered experiment.
pub(crate) fn list() -> String {
    let mut out = String::new();
    for experiment in registry::all() {
        let _ = writeln!(out, "{:<14} {}", experiment.id(), experiment.description());
    }
    let _ = writeln!(
        out,
        "{} experiments; `run <id>` or `run all`",
        registry::count()
    );
    out
}

/// Runs the experiments `ids` names (or the whole registry for `all`)
/// in parallel and renders them in the order given, as text tables or
/// JSON: one id prints its object, several ids or `all` an array of
/// them. Every id resolves before anything runs.
pub(crate) fn run_experiments(ids: &[String], json: bool) -> Result<String, CliError> {
    let all = matches!(ids, [id] if id == "all");
    let experiments: Vec<&Experiment> = if all {
        registry::all().collect()
    } else {
        ids.iter()
            .map(|id| {
                registry::find(id).ok_or_else(|| {
                    CliError::Parse(ParseError(format!(
                        "unknown experiment id `{id}` (see `list`)"
                    )))
                })
            })
            .collect::<Result<_, _>>()?
    };
    let runs = registry::run_all(decarb_experiments::context::shared(), &experiments);
    if json {
        let mut values: Vec<Value> = runs.iter().map(|run| run.to_json()).collect();
        let value = match values.len() {
            1 if !all => values.swap_remove(0),
            _ => Value::Array(values),
        };
        return Ok(value.pretty());
    }
    let mut out = String::new();
    for table in runs.iter().flat_map(|run| &run.tables) {
        let _ = writeln!(out, "{table}");
    }
    Ok(out)
}

/// Renders the built-in scenario matrix, one `name  description` line
/// per scenario.
pub(crate) fn scenario_list() -> String {
    let scenarios = decarb_sim::builtin_scenarios();
    let mut out = String::new();
    for scenario in &scenarios {
        let _ = writeln!(out, "{:<34} {}", scenario.name, scenario.describe());
    }
    let _ = writeln!(
        out,
        "{} scenarios; `scenario run <name>`, `scenario run all`, or \
         `scenario run --file FILE`",
        scenarios.len()
    );
    out
}

/// A `scenario run`/`scenario check` target, read once.
enum Target {
    /// Built-in scenarios: one by name, or the whole matrix for `all`.
    Builtin(Vec<Scenario>),
    /// A scenario file: its path, its text (the static checker takes
    /// its line spans from the text) and the parse of that text.
    File {
        path: String,
        text: String,
        parsed: Result<ScenarioFile, ScenarioFileError>,
    },
}

impl Target {
    /// Looks a built-in name up (an unknown one lists the valid names)
    /// or reads and parses a scenario file.
    fn read(target: &ScenarioTarget) -> Result<Target, CliError> {
        match target {
            ScenarioTarget::Name(name) => {
                let mut all = decarb_sim::builtin_scenarios();
                if name == "all" {
                    return Ok(Target::Builtin(all));
                }
                match all.iter().position(|s| s.name == *name) {
                    Some(i) => Ok(Target::Builtin(vec![all.swap_remove(i)])),
                    None => {
                        let names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
                        Err(CliError::Parse(ParseError(format!(
                            "unknown scenario `{name}`; valid names: {}",
                            names.join(", ")
                        ))))
                    }
                }
            }
            ScenarioTarget::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| failed(format_args!("--file {path}"), e))?;
                let parsed = decarb_sim::parse_scenario_file_full(&text);
                Ok(Target::File {
                    path: path.clone(),
                    text,
                    parsed,
                })
            }
        }
    }

    /// Statically checks the scenarios against `data`: how many were
    /// checked (none when a file does not parse) and the diagnostics.
    fn check(&self, data: &TraceSet) -> (usize, Vec<decarb_analyze::Diagnostic>) {
        match self {
            Target::Builtin(scenarios) => (
                scenarios.len(),
                decarb_sim::check_scenarios("<builtin>", scenarios, data),
            ),
            Target::File { path, text, parsed } => (
                parsed.as_ref().map_or(0, |file| file.scenarios.len()),
                decarb_sim::check_file(path, text, data),
            ),
        }
    }

    /// Plans the scenarios against `data` into a validated
    /// [`SweepPlan`]; scenarios that cannot run against the dataset are
    /// *all* collected into one error instead of panicking mid-sweep. A
    /// file's `[region CODE]` declarations that `data` lacks get traces
    /// synthesized from their calibration targets, so scenarios can
    /// deploy into entirely hypothetical grids; the dataset extended
    /// with them is returned alongside the plan.
    fn plan(self, data: &TraceSet) -> Result<(SweepPlan, Option<TraceSet>), CliError> {
        let (scenarios, extended) = match self {
            Target::Builtin(scenarios) => (scenarios, None),
            Target::File { path, parsed, .. } => {
                let file = parsed.map_err(|e| failed(path, e))?;
                let missing: Vec<decarb_traces::Region> = file
                    .custom_regions
                    .into_iter()
                    .filter(|r| data.id_of(&r.code).is_err())
                    .collect();
                let extended = (!missing.is_empty()).then(|| {
                    let mut set = data.clone();
                    set.extend_synthesized(missing, decarb_traces::SynthConfig::default());
                    set
                });
                (file.scenarios, extended)
            }
        };
        let plan = SweepPlan::plan(extended.as_ref().unwrap_or(data), scenarios)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        Ok((plan, extended))
    }
}

/// The header row of the `scenario run` text table.
fn scenario_table_header() -> String {
    format!(
        "{:<34} {:>5} {:>5} {:>6} {:>6} {:>8} {:>12} {:>11} {:>9}\n",
        "scenario", "jobs", "done", "unfin", "missed", "migrate", "kWh", "avg g/kWh", "slowdown"
    )
}

/// One row of the `scenario run` text table.
fn scenario_table_row(r: &ScenarioReport) -> String {
    format!(
        "{:<34} {:>5} {:>5} {:>6} {:>6} {:>8} {:>12.1} {:>11.1} {:>9.2}\n",
        r.name,
        r.jobs,
        r.completed,
        r.unfinished,
        r.missed_deadlines,
        r.migrations,
        r.total_energy_kwh,
        r.average_ci,
        r.mean_slowdown,
    )
}

/// Runs scenarios (built-in by name, the whole matrix, or a scenario
/// file) in parallel against `data`, streaming each report to `out` in
/// plan order as soon as it and every report before it are done — a
/// thousand-scenario sweep never buffers the full result set.
///
/// The target is statically checked first: findings print as warnings,
/// or fail the run under `strict`. `shard` restricts the run to one
/// disjoint shard of the sweep plan (the multi-host partition unit;
/// sharded JSON output is always an array, so shard reports merge
/// uniformly) and skips the check, which the N shards of a sweep would
/// otherwise repeat N times.
pub(crate) fn run_scenarios_to(
    out: &mut dyn io::Write,
    target: &ScenarioTarget,
    json: bool,
    shard: Option<ShardSpec>,
    strict: bool,
    data: &TraceSet,
) -> Result<(), CliError> {
    let target = Target::read(target)?;
    if shard.is_none() {
        let (_, diags) = target.check(data);
        if strict && !diags.is_empty() {
            return Err(CliError::Failed(format!(
                "scenario check failed (rerun without --strict to run anyway):\n{}",
                decarb_analyze::render_report(&diags)
            )));
        }
        for diagnostic in &diags {
            eprintln!("warning: {}", diagnostic.render());
        }
    }
    let (plan, extended) = target.plan(data)?;
    let data = extended.as_ref().unwrap_or(data);
    let single = plan.len() == 1 && shard.is_none();
    let plan = match shard {
        None => plan,
        Some(spec) => plan
            .shard(spec.shards, spec.index)
            .map_err(|e| CliError::Parse(ParseError(e.to_string())))?,
    };
    let mut sink_error: Option<io::Error> = None;
    {
        // Returns `false` once the sink has failed, so the scenario
        // engine aborts the sweep instead of simulating into a closed
        // pipe.
        let mut emit = |text: String| -> bool {
            if sink_error.is_none() {
                if let Err(e) = out.write_all(text.as_bytes()) {
                    sink_error = Some(e);
                }
            }
            sink_error.is_none()
        };
        if json {
            // One scenario renders as an object, many (or any sharded
            // run) as an array — in both cases one valid JSON document,
            // emitted incrementally.
            if !single {
                emit("[".to_string());
            }
            let mut index = 0usize;
            plan.execute_with(data, |report| {
                let pretty = report.to_json().pretty();
                let keep_going = if single {
                    emit(pretty)
                } else {
                    let mut chunk = if index > 0 {
                        ",\n".to_string()
                    } else {
                        "\n".to_string()
                    };
                    for (i, line) in pretty.lines().enumerate() {
                        if i > 0 {
                            chunk.push('\n');
                        }
                        chunk.push_str("  ");
                        chunk.push_str(line);
                    }
                    emit(chunk)
                };
                index += 1;
                keep_going
            });
            if !single {
                emit(if index == 0 {
                    "]".to_string()
                } else {
                    "\n]".to_string()
                });
            }
        } else {
            emit(scenario_table_header());
            plan.execute_with(data, |r| emit(scenario_table_row(&r)));
        }
    }
    match sink_error {
        Some(e) => Err(CliError::Io(e)),
        None => Ok(()),
    }
}

/// `scenario check <NAME|all|--file FILE> [--json]` — static semantic
/// validation without simulating. Clean targets summarize and exit 0;
/// any diagnostic renders the shared report format (or a JSON array
/// under `--json`) and fails via [`CliError::Failed`].
pub(crate) fn scenario_check_cmd(
    target: &ScenarioTarget,
    json: bool,
    data: &TraceSet,
) -> Result<String, CliError> {
    let (checked, diags) = Target::read(target)?.check(data);
    if json {
        let payload = decarb_analyze::diagnostics_to_json(&diags).pretty();
        return if diags.is_empty() {
            Ok(payload)
        } else {
            Err(CliError::Failed(payload))
        };
    }
    if diags.is_empty() {
        Ok(format!("{checked} scenario(s) checked, 0 diagnostics"))
    } else {
        Err(CliError::Failed(decarb_analyze::render_report(&diags)))
    }
}

/// `analyze --workspace [PATH] [--json]` — the in-tree source lints
/// (`decarb-analyze`) over a workspace checkout. Exit codes mirror
/// `scenario check`: clean trees exit 0, findings exit non-zero.
pub(crate) fn analyze_workspace_cmd(path: &str, json: bool) -> Result<String, CliError> {
    let outcome = decarb_analyze::analyze_workspace(std::path::Path::new(path))?;
    if json {
        let payload = decarb_analyze::diagnostics_to_json(&outcome.diagnostics).pretty();
        return if outcome.diagnostics.is_empty() {
            Ok(payload)
        } else {
            Err(CliError::Failed(payload))
        };
    }
    if outcome.diagnostics.is_empty() {
        Ok(format!("{} files scanned, 0 diagnostics", outcome.files))
    } else {
        Err(CliError::Failed(decarb_analyze::render_report(
            &outcome.diagnostics,
        )))
    }
}

/// One scenario's numeric report fields, `(key, value)` in report order.
type NumericFields = Vec<(String, f64)>;

/// The numeric fields of each scenario in a `scenario run --json`
/// report document (a single object or an array of objects), keyed by
/// scenario name, without the wall-clock field.
fn report_fields(path: &str) -> Result<Vec<(String, NumericFields)>, CliError> {
    let doc = read_report_doc(path)?;
    let reports = decarb_json::merge_keyed(&[doc], "name").map_err(|e| failed(path, e))?;
    Ok(reports
        .into_iter()
        .map(|(name, report)| {
            let fields = match report {
                Value::Object(pairs) => pairs
                    .into_iter()
                    .filter_map(|(key, value)| match value {
                        Value::Number(x) if key != ScenarioReport::WALL_CLOCK_FIELD => {
                            Some((key, x))
                        }
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            (name, fields)
        })
        .collect())
}

/// The CI report-regression gate: compares every numeric field of each
/// scenario in a fresh report against a committed golden snapshot.
/// Counts ([`ScenarioReport::COUNT_FIELDS`]) must match exactly, float
/// fields within `tolerance_pct` percent; a missing or extra scenario or
/// field fails too.
pub(crate) fn scenario_diff(
    report_path: &str,
    golden_path: &str,
    tolerance_pct: f64,
) -> Result<String, CliError> {
    let report = report_fields(report_path)?;
    let golden = report_fields(golden_path)?;
    let mut violations: Vec<String> = Vec::new();
    let mut max_drift = 0.0f64;
    for (name, expected) in &golden {
        let Some((_, actual)) = report.iter().find(|(n, _)| n == name) else {
            violations.push(format!("  {name}: missing from the report"));
            continue;
        };
        for (key, want) in expected {
            let Some(&(_, got)) = actual.iter().find(|(k, _)| k == key) else {
                violations.push(format!("  {name}: `{key}` missing from the report"));
                continue;
            };
            if ScenarioReport::COUNT_FIELDS.contains(&key.as_str()) {
                if got != *want {
                    violations.push(format!(
                        "  {name}: {key} {got} vs golden {want} (counts must match exactly)"
                    ));
                }
                continue;
            }
            let drift_pct = if want.abs() > f64::EPSILON {
                (got - want).abs() / want.abs() * 100.0
            } else if got.abs() > f64::EPSILON {
                f64::INFINITY
            } else {
                0.0
            };
            max_drift = max_drift.max(drift_pct);
            if drift_pct > tolerance_pct {
                // `emissions_g` reads as "emissions 1.5 g".
                let (label, unit) = key
                    .strip_suffix("_g")
                    .map_or((key.as_str(), ""), |k| (k, " g"));
                violations.push(format!(
                    "  {name}: {label} {got}{unit} vs golden {want}{unit} \
                     ({}% > {tolerance_pct}%)",
                    drift_text(drift_pct, 3)
                ));
            }
        }
        for (key, _) in actual {
            if !expected.iter().any(|(k, _)| k == key) {
                violations.push(format!("  {name}: `{key}` not in the golden snapshot"));
            }
        }
    }
    for (name, _) in &report {
        if !golden.iter().any(|(n, _)| n == name) {
            violations.push(format!(
                "  {name}: not in the golden snapshot (re-record {golden_path})"
            ));
        }
    }
    if !violations.is_empty() {
        return Err(CliError::Failed(format!(
            "scenario reports drifted beyond ±{tolerance_pct}% or changed a count ({} violation{}):\n{}",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" },
            violations.join("\n")
        )));
    }
    Ok(format!(
        "{} scenarios within ±{tolerance_pct}% of {golden_path}, counts exact (max drift {}%)\n",
        golden.len(),
        drift_text(max_drift, 4)
    ))
}

/// A drift in percent at `digits` decimals, or in scientific notation
/// when those decimals would print a nonzero drift as zero.
fn drift_text(pct: f64, digits: usize) -> String {
    if pct == 0.0 || pct >= 10f64.powi(-(digits as i32)) {
        format!("{pct:.digits$}")
    } else {
        format!("{pct:.3e}")
    }
}

/// Reads and parses one JSON report document.
fn read_report_doc(path: &str) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| failed(path, e))?;
    decarb_json::parse(&text).map_err(|e| failed(path, e))
}

/// Routes the `data pack|probe|append` container subcommands.
pub(crate) fn data_cmd(cmd: &DataCommand) -> Result<String, CliError> {
    match cmd {
        DataCommand::Pack {
            source,
            regions,
            resolution,
            out,
        } => data_pack(source, regions.as_deref(), *resolution, out),
        DataCommand::Probe { file, json } => data_probe(file, *json),
        DataCommand::Append { file, from, pad } => data_append(file, from, *pad),
    }
}

/// `data pack`: encodes a CSV dataset (or the built-in one) as a binary
/// container, written atomically. `--resolution MIN` re-expresses the
/// dataset on a finer axis first (hourly samples embed losslessly by
/// repetition), so `data pack builtin --resolution 5` yields a
/// sub-hourly container without any external data.
fn data_pack(
    source: &str,
    regions: Option<&str>,
    resolution: Option<u32>,
    out: &str,
) -> Result<String, CliError> {
    let mut set = if source == "builtin" {
        (*decarb_traces::builtin_dataset()).clone()
    } else {
        crate::load_dataset(source, regions)?
    };
    if let Some(minutes) = resolution {
        let target = decarb_traces::Resolution::from_minutes(minutes)
            .map_err(|e| CliError::Parse(ParseError(e)))?;
        set = set.resample_to(target)?;
    }
    let bytes = container::encode(&set).map_err(|e| match e {
        TraceError::Container { reason, .. } => TraceError::Container {
            path: source.to_string(),
            reason,
        },
        other => other,
    })?;
    container::write_bytes_atomic(out, &bytes)?;
    let info = container::probe(&bytes, out)?;
    // "hours" on the hourly axis, explicit sample cadence otherwise.
    let span = if info.resolution_minutes == 60 {
        format!("{} hours", info.hours)
    } else {
        format!(
            "{} samples at {} min/sample",
            info.hours, info.resolution_minutes
        )
    };
    Ok(format!(
        "packed {} regions × {span} into {out} \
         ({} bytes, fnv1a64:{:016x})",
        info.regions, info.file_bytes, info.content_hash
    ))
}

/// `data probe`: verifies a container (magic, version, content hash,
/// segment structure) and reports its header facts.
fn data_probe(file: &str, json: bool) -> Result<String, CliError> {
    let info = container::probe_file(file)?;
    // The content hash is a full u64; f64 JSON numbers cannot hold it
    // exactly, so it is rendered as a hex string in both formats.
    let hash = format!("fnv1a64:{:016x}", info.content_hash);
    if json {
        return Ok(Value::object([
            ("path", Value::from(file)),
            ("version", Value::from(usize::from(info.version))),
            ("regions", Value::from(info.regions)),
            ("start_hour", Value::from(info.start.0)),
            ("hours", Value::from(info.hours)),
            ("resolution_minutes", Value::from(info.resolution_minutes)),
            ("segments", Value::from(info.segments)),
            ("content_hash", Value::from(hash)),
            ("file_bytes", Value::from(info.file_bytes)),
        ])
        .pretty());
    }
    let mut output = String::new();
    let _ = writeln!(output, "container {file}");
    let _ = writeln!(output, "  version       {}", info.version);
    let _ = writeln!(output, "  regions       {}", info.regions);
    // Raw hour indices: appended datasets may extend past the hour
    // range the calendar helpers cover.
    let _ = writeln!(
        output,
        "  hours         {} (start hour {}, end hour {})",
        info.hours,
        info.start.0,
        info.start.0 as usize + info.hours
    );
    let _ = writeln!(
        output,
        "  resolution    {} min/sample",
        info.resolution_minutes
    );
    let _ = writeln!(output, "  segments      {}", info.segments);
    let _ = writeln!(output, "  content hash  {hash}");
    let _ = writeln!(output, "  file size     {} bytes", info.file_bytes);
    output.push_str("ok: magic, version, content hash, and block structure verified");
    Ok(output)
}

/// `data append`: extends a container with newly observed hours from a
/// CSV, rewriting the file atomically without re-encoding history.
fn data_append(file: &str, from: &str, pad: bool) -> Result<String, CliError> {
    let existing = std::fs::read(file).map_err(|e| TraceError::Io(format!("{file}: {e}")))?;
    let update = crate::load_dataset(from, None)?;
    let (bytes, added) = container::append(&existing, file, &update, pad)?;
    container::write_bytes_atomic(file, &bytes)?;
    let info = container::probe(&bytes, file)?;
    Ok(format!(
        "appended {added} hour{} from {from} to {file}; now {} hours × {} regions \
         in {} segments (fnv1a64:{:016x})",
        if added == 1 { "" } else { "s" },
        info.hours,
        info.regions,
        info.segments,
        info.content_hash
    ))
}

/// The standalone shard recombiner: merges `scenario run --json` shard
/// reports into one JSON array, failing on duplicate scenarios
/// (overlapping shards) and — when `--expect` names a sweep — on
/// missing or unexpected ones. The merged document is ordered like the
/// expected sweep (or by name without one), so it is directly
/// comparable with a single-process run and feeds `scenario diff`.
pub(crate) fn scenario_merge(
    reports: &[String],
    expect: Option<&MergeExpect>,
) -> Result<String, CliError> {
    let docs = reports
        .iter()
        .map(|path| read_report_doc(path))
        .collect::<Result<Vec<_>, _>>()?;
    let expected: Option<Vec<String>> = match expect {
        None => None,
        Some(MergeExpect::All) => Some(
            decarb_sim::builtin_scenarios()
                .iter()
                .map(|s| s.name.clone())
                .collect(),
        ),
        Some(MergeExpect::File(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| failed(format_args!("--expect {path}"), e))?;
            let scenarios = decarb_sim::parse_scenario_file(&text).map_err(|e| failed(path, e))?;
            Some(scenarios.iter().map(|s| s.name.clone()).collect())
        }
    };
    let merged = decarb_sim::merge_reports(expected.as_deref(), &docs)
        .map_err(|e| CliError::Failed(format!("scenario merge: {e}")))?;
    Ok(Value::Array(merged).pretty())
}

/// The trace of a zone named on the command line. An unknown code is a
/// usage error (exit 2), like an unknown experiment or scenario name.
fn zone_series<'a>(data: &'a TraceSet, zone: &str) -> Result<&'a TimeSeries, CliError> {
    data.series(zone)
        .map_err(|_| CliError::Parse(ParseError(format!("unknown zone `{zone}` (see `regions`)"))))
}

fn year_values<'a>(data: &'a TraceSet, zone: &str, year: i32) -> Result<&'a [f64], CliError> {
    Ok(data
        .series(zone)?
        .window(year_start(year), hours_in_year(year))?)
}

pub(crate) fn regions(data: &TraceSet, group: Option<&str>, year: i32) -> Result<String, CliError> {
    let needle = group.map(str::to_lowercase);
    let mut rows: Vec<(&str, &str, f64, f64)> = Vec::new();
    for (region, _) in data.iter() {
        if let Some(ref n) = needle {
            if !region.group.label().to_lowercase().starts_with(n) {
                continue;
            }
        }
        let values = year_values(data, &region.code, year)?;
        rows.push((
            region.code.as_str(),
            region.group.label(),
            decarb_stats::descriptive::mean(values),
            average_daily_cv(values),
        ));
    }
    if rows.is_empty() {
        return Err(CliError::Parse(ParseError(format!(
            "no regions match group `{}`",
            group.unwrap_or("")
        ))));
    }
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));
    let mut out = format!(
        "{} regions, {year} (sorted by mean CI)\n{:<8} {:<11} {:>10} {:>9}\n",
        rows.len(),
        "zone",
        "group",
        "mean g/kWh",
        "daily CV"
    );
    for (code, label, mean, cv) in rows {
        let _ = writeln!(out, "{code:<8} {label:<11} {mean:>10.1} {cv:>9.3}");
    }
    Ok(out)
}

pub(crate) fn analyze(data: &TraceSet, zone: &str, year: i32) -> Result<String, CliError> {
    let series = zone_series(data, zone)?;
    let region = data.region(zone)?;
    // Imported datasets (`--data`) may not cover the whole requested
    // year; fall back to the full stored range rather than failing.
    let (values, range_label) = match series.window(year_start(year), hours_in_year(year)) {
        Ok(window) => (window, format!("year {year}")),
        Err(_) => (
            series.values(),
            format!("full stored range ({} hours)", series.len()),
        ),
    };
    let mean = decarb_stats::descriptive::mean(values);
    let cv = average_daily_cv(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let p24 = periodicity_score(values, 24);
    let p168 = periodicity_score(values, 168);
    let drift = year_values(data, zone, 2020)
        .ok()
        .map(|first| mean - decarb_stats::descriptive::mean(first));

    let mut out = String::new();
    let _ = writeln!(out, "{} — {} ({})", region.code, region.name, region.group);
    let _ = writeln!(out, "  {range_label}");
    let _ = writeln!(out, "  mean CI        {mean:8.1} g/kWh");
    let _ = writeln!(
        out,
        "  daily CV       {cv:8.3}  ({})",
        if cv < LOW_VARIATION_THRESHOLD {
            "low variation — weak temporal-shifting case (§4)"
        } else {
            "variable — temporal shifting can help"
        }
    );
    let _ = writeln!(out, "  min / max      {min:8.1} / {max:.1} g/kWh");
    let _ = writeln!(out, "  period scores  24h {p24:.2}, 168h {p168:.2}");
    if let Some(d) = decarb_stats::seasonal::decompose(values, 24) {
        let _ = writeln!(
            out,
            "  seasonality    {:8.2} (daily strength), trend {:.2}",
            d.seasonal_strength(),
            d.trend_strength()
        );
    }
    match drift {
        Some(drift) => {
            let _ = writeln!(out, "  drift 2020→{year} {drift:+8.1} g/kWh");
        }
        None => {
            let _ = writeln!(out, "  drift 2020→{year}      n/a (no 2020 data)");
        }
    }
    let _ = writeln!(
        out,
        "  generation mix fossil {:.0}%, renewable {:.0}%",
        region.mix.fossil_share() * 100.0,
        region.mix.renewable_share() * 100.0
    );
    Ok(out)
}

pub(crate) fn plan(
    data: &TraceSet,
    zone: &str,
    hours: usize,
    slack: usize,
    arrive: usize,
    year: i32,
) -> Result<String, CliError> {
    let series = zone_series(data, zone)?;
    let arrival = year_start(year).plus(arrive);
    // Check the job itself fits the stored data before the (panicking)
    // planner kernels see it — imported datasets may be short. The
    // planners clamp the *slack* at the trace end themselves.
    series.window(arrival, hours)?;
    let planner = TemporalPlanner::new(series);
    let baseline = planner.baseline_cost(arrival, hours);
    let deferred = planner.best_deferred(arrival, hours, slack);
    let (_, interrupted) = planner.best_interruptible(arrival, hours, slack);
    let candidates: Vec<&decarb_traces::Region> = data.regions().iter().collect();
    // Full calendar coverage unlocks the paper's annual-mean migration
    // policies; short imports fall back to stored-range means.
    let full_year = data
        .iter()
        .all(|(_, s)| s.window(year_start(year), hours_in_year(year)).is_ok());
    let (migrated, hopped, hops) = if full_year {
        let migrated = one_migration(data, &candidates, year, arrival, hours);
        let (hopped, hops) = inf_migration(data, &candidates, arrival, hours);
        (migrated, hopped, hops)
    } else {
        let (dest, _) = data
            .stored_means()
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("dataset is non-empty");
        let cost: f64 = data
            .series(&dest.code)?
            .window(arrival, hours)?
            .iter()
            .sum();
        let migrated = decarb_core::spatial::SpatialOutcome {
            destination: dest.code.clone(),
            cost_g: cost,
        };
        // Hourly hop on the instantaneous minimum across candidates.
        let mut hop_cost = 0.0;
        let mut hops = 0usize;
        let mut last: Option<&str> = None;
        for k in 0..hours {
            let hour = arrival.plus(k);
            let (code, ci) = data
                .iter()
                .filter_map(|(r, s)| s.at(hour).map(|ci| (r.code.as_str(), ci)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(b.0)))
                .ok_or(TraceError::OutOfRange { hour })?;
            hop_cost += ci;
            if last.is_some_and(|l| l != code) {
                hops += 1;
            }
            last = Some(code);
        }
        let hopped = decarb_core::spatial::SpatialOutcome {
            destination: last.unwrap_or(&dest.code).to_string(),
            cost_g: hop_cost,
        };
        (migrated, hopped, hops)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{hours}h job at {zone}, arriving hour {arrive} of {year}, slack {slack}h"
    );
    let pct = |cost: f64| (cost - baseline) / baseline * 100.0;
    let _ = writeln!(out, "  run now             {baseline:9.1} g");
    let _ = writeln!(
        out,
        "  defer               {:9.1} g ({:+5.1}%, start {})",
        deferred.cost_g,
        pct(deferred.cost_g),
        deferred.start
    );
    let _ = writeln!(
        out,
        "  defer + interrupt   {:9.1} g ({:+5.1}%)",
        interrupted,
        pct(interrupted)
    );
    let _ = writeln!(
        out,
        "  migrate once → {:<6}{:9.1} g ({:+5.1}%)",
        migrated.destination,
        migrated.cost_g,
        pct(migrated.cost_g)
    );
    let _ = writeln!(
        out,
        "  hop hourly ({hops:>2} hops){:9.1} g ({:+5.1}%)",
        hopped.cost_g,
        pct(hopped.cost_g)
    );
    Ok(out)
}

pub(crate) fn forecast(
    data: &TraceSet,
    zone: &str,
    days: usize,
    year: i32,
) -> Result<String, CliError> {
    let series = zone_series(data, zone)?;
    let eval_start = year_start(year);
    let eval_hours = (days * 24).min(hours_in_year(year));
    let config = BacktestConfig::default();
    let train = series.slice(year_start(year - 1), 8760)?;
    let mut models: Vec<(&str, Box<dyn Forecaster>)> = vec![
        ("persistence", Box::new(Persistence)),
        ("seasonal-naive", Box::new(SeasonalNaive::daily())),
        ("diurnal-template", Box::new(DiurnalTemplate::default())),
    ];
    if let Some(ar) = LinearAr::fit(&train) {
        models.push(("linear-ar", Box::new(ar)));
    }
    let mut out = format!(
        "backtesting {zone}, {days} days of {year}, 96h horizon\n{:<18} {:>8} {:>8} {:>8}\n",
        "model", "MAPE %", "day1 %", "day4 %"
    );
    for (name, model) in &models {
        let report = backtest(model.as_ref(), series, eval_start, eval_hours, &config);
        let _ = writeln!(
            out,
            "{name:<18} {:>8.2} {:>8.2} {:>8.2}",
            report.mape_pct, report.mape_by_lead_day[0], report.mape_by_lead_day[3]
        );
    }
    Ok(out)
}

pub(crate) fn rank(data: &TraceSet, year: i32) -> Result<String, CliError> {
    let s = rank_stability(data, year, 73, 5);
    let mut out = String::new();
    let _ = writeln!(out, "rank-order stability, {} regions, {year}", data.len());
    let _ = writeln!(
        out,
        "  mean Kendall tau vs annual ranking  {:.3}",
        s.mean_tau
    );
    let _ = writeln!(
        out,
        "  worst sampled hour                  {:.3}",
        s.min_tau
    );
    let _ = writeln!(
        out,
        "  greenest == annual greenest         {:.1}% of hours",
        s.greenest_match * 100.0
    );
    let _ = writeln!(
        out,
        "  top-{} set overlap                   {:.1}%",
        s.k,
        s.topk_overlap * 100.0
    );
    let _ = writeln!(
        out,
        "stable ranks mean one migration captures nearly everything (§5.1.4)"
    );
    Ok(out)
}

pub(crate) fn export(data: &TraceSet, zone: &str, year: i32) -> Result<String, CliError> {
    let series = zone_series(data, zone)?.slice(year_start(year), hours_in_year(year))?;
    let mut buffer = Vec::new();
    csv::write_series(&series, &mut buffer)?;
    Ok(String::from_utf8(buffer).expect("CSV output is ASCII"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dispatch, Command};

    /// Executes `command` against `data` as an imported dataset.
    fn run_on(command: &Command, data: &TraceSet) -> Result<String, CliError> {
        let imported = Some(("<memory>".to_string(), None, data.clone()));
        let mut out = Vec::new();
        crate::execute(command, imported, &mut out)?;
        Ok(String::from_utf8(out).unwrap().trim_end().to_string())
    }

    /// [`run_scenarios_to`] buffered into a `String`.
    fn run_scenarios_cmd(
        target: &ScenarioTarget,
        json: bool,
        shard: Option<ShardSpec>,
        strict: bool,
        data: &TraceSet,
    ) -> Result<String, CliError> {
        let mut out = Vec::new();
        run_scenarios_to(&mut out, target, json, shard, strict, data)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_shows_usage() {
        let out = dispatch(&argv(&["help"])).unwrap();
        assert!(out.contains("usage: decarb-cli"));
        // No command at all is a usage error, not help.
        let err = dispatch(&[]).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        assert!(format!("{err}").contains("usage: decarb-cli"));
    }

    #[test]
    fn regions_sorted_by_mean() {
        let out = dispatch(&argv(&["regions"])).unwrap();
        assert!(out.starts_with("123 regions"));
        // Sweden is the global minimum and must appear before Poland.
        let se = out.find("SE ").expect("SE listed");
        let pl = out.find("PL ").expect("PL listed");
        assert!(se < pl);
    }

    #[test]
    fn regions_group_filter() {
        let out = dispatch(&argv(&["regions", "--group", "oce"])).unwrap();
        assert!(out.contains("AU-"));
        assert!(!out.contains("DE "));
        assert!(dispatch(&argv(&["regions", "--group", "atlantis"])).is_err());
    }

    #[test]
    fn analyze_renders_profile() {
        let out = dispatch(&argv(&["analyze", "us-ca"])).unwrap();
        assert!(out.contains("US-CA"));
        assert!(out.contains("mean CI"));
        assert!(out.contains("period scores"));
        assert!(out.contains("temporal shifting can help"));
        let stable = dispatch(&argv(&["analyze", "IN-WE"])).unwrap();
        assert!(stable.contains("low variation"));
    }

    #[test]
    fn unknown_zone_is_a_usage_error() {
        for run in [
            &["analyze", "XX-NOPE"][..],
            &["plan", "XX-NOPE", "--hours", "6"],
            &["forecast", "XX-NOPE"],
            &["export", "XX-NOPE"],
        ] {
            let err = dispatch(&argv(run)).unwrap_err();
            assert!(matches!(err, CliError::Parse(_)), "{run:?}: {err:?}");
            assert!(format!("{err}").contains("unknown zone `XX-NOPE`"), "{err}");
        }
    }

    #[test]
    fn plan_orders_costs() {
        let out = dispatch(&argv(&["plan", "DE", "--hours", "6", "--slack", "48"])).unwrap();
        assert!(out.contains("run now"));
        assert!(out.contains("migrate once → SE"));
        // Interruption cannot be worse than deferral, which cannot be
        // worse than running now: all percentages non-positive. The
        // percentage lives in the *last* parenthesized group (the hop
        // line has an earlier "(N hops)" group).
        for line in out.lines().filter(|l| l.contains('%')) {
            let group = line.rsplit('(').next().unwrap();
            let pct: f64 = group.split('%').next().unwrap().trim().parse().unwrap();
            assert!(pct <= 1e-9, "line {line}");
        }
    }

    #[test]
    fn plan_rejects_overlong_windows() {
        let err = dispatch(&argv(&[
            "plan", "DE", "--hours", "24", "--arrive", "8750", "--slack", "24",
        ]))
        .unwrap_err();
        assert!(format!("{err}").contains("past the year end"));
        assert!(
            format!("{err}").ends_with(
                "usage: decarb-cli plan <ZONE> --hours L [--slack H] [--arrive H0] [--year Y]"
            ),
            "{err}"
        );
        // Windows whose end overflows `usize` are usage errors too.
        let max = usize::MAX.to_string();
        for flags in [
            ["--hours", "1", "--slack", &max],
            ["--hours", "2", "--arrive", &max],
        ] {
            let mut command = vec!["plan", "DE"];
            command.extend(flags);
            let err = dispatch(&argv(&command)).unwrap_err();
            assert!(matches!(err, CliError::Parse(_)), "{flags:?}: {err}");
            assert!(format!("{err}").contains("past the year end"), "{flags:?}");
            assert!(
                format!("{err}").contains("usage: decarb-cli plan <ZONE>"),
                "{flags:?}"
            );
        }
        let err = dispatch(&argv(&["forecast", "DE", "--days", &max])).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)), "{err}");
        assert!(format!("{err}").contains("--days must lie in"), "{err}");
    }

    #[test]
    fn forecast_lists_all_models() {
        let out = dispatch(&argv(&["forecast", "US-CA", "--days", "20"])).unwrap();
        for model in [
            "persistence",
            "seasonal-naive",
            "diurnal-template",
            "linear-ar",
        ] {
            assert!(out.contains(model), "missing {model}");
        }
    }

    #[test]
    fn rank_reports_stability() {
        let out = dispatch(&argv(&["rank"])).unwrap();
        assert!(out.contains("Kendall tau"));
        assert!(out.contains("123 regions"));
    }

    #[test]
    fn export_is_csv_round_trippable() {
        let out = dispatch(&argv(&["export", "SE", "--year", "2021"])).unwrap();
        let parsed = csv::read_series(out.as_bytes()).unwrap();
        assert_eq!(parsed.len(), hours_in_year(2021));
        assert_eq!(parsed.start(), year_start(2021));
    }

    #[test]
    fn parse_errors_render_usage() {
        let err = dispatch(&argv(&["plan", "DE"])).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("--hours"));
        assert!(msg.contains("usage:"));
    }

    /// Writes a tiny two-zone dataset (with injected defects) to a temp
    /// file and returns its path.
    fn write_defective_dataset(name: &str) -> std::path::PathBuf {
        use std::io::Write as _;
        let path = std::env::temp_dir().join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "zone,hour,ci_g_per_kwh").unwrap();
        // 10 days of diurnal data for SE, one NaN and one zero inside.
        for h in 0..240u32 {
            let v = if h == 50 {
                "NaN".to_string()
            } else if h == 51 {
                "0".to_string()
            } else {
                format!(
                    "{}",
                    20.0 + 5.0 * (std::f64::consts::TAU * (h % 24) as f64 / 24.0).sin()
                )
            };
            writeln!(file, "SE,{h},{v}").unwrap();
        }
        for h in 0..240u32 {
            writeln!(
                file,
                "DE,{h},{}",
                400.0 + 80.0 * (std::f64::consts::TAU * (h % 24) as f64 / 24.0).sin()
            )
            .unwrap();
        }
        path
    }

    #[test]
    fn data_option_loads_validates_and_repairs() {
        let path = write_defective_dataset("decarb_cli_test_data.csv");
        let out = dispatch(&argv(&["--data", path.to_str().unwrap(), "analyze", "se"])).unwrap();
        // Falls back to the stored range (no full 2022 coverage) and
        // reports no drift baseline.
        assert!(out.contains("full stored range (240 hours)"), "{out}");
        assert!(out.contains("n/a (no 2020 data)"), "{out}");
        // The NaN/zero were repaired: the mean stays near 20.
        let mean_line = out.lines().find(|l| l.contains("mean CI")).unwrap();
        assert!(mean_line.contains("20."), "{mean_line}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn data_option_supports_planning_on_imported_traces() {
        let path = write_defective_dataset("decarb_cli_test_plan.csv");
        // Hour 0 of the import is hour 0 of 2020.
        let out = dispatch(&argv(&[
            "--data",
            path.to_str().unwrap(),
            "plan",
            "DE",
            "--hours",
            "2",
            "--slack",
            "12",
            "--year",
            "2020",
        ]))
        .unwrap();
        assert!(out.contains("migrate once → SE"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn data_option_rejects_missing_files_and_bad_zones() {
        let err = dispatch(&argv(&["--data", "/nonexistent/x.csv", "rank"])).unwrap_err();
        assert!(matches!(err, CliError::Trace(TraceError::Io(_))));
        let err = dispatch(&argv(&["--data"])).unwrap_err();
        assert!(format!("{err}").contains("needs a file path"));
    }

    #[test]
    fn analyze_reports_seasonal_strength() {
        let out = dispatch(&argv(&["analyze", "US-CA"])).unwrap();
        assert!(out.contains("seasonality"), "{out}");
    }

    #[test]
    fn list_shows_every_registered_experiment() {
        let out = dispatch(&argv(&["list"])).unwrap();
        for id in registry::ids() {
            assert!(
                out.lines().any(|l| l.split_whitespace().next() == Some(id)),
                "missing {id}"
            );
        }
        assert!(out.contains(&format!("{} experiments", registry::count())));
    }

    #[test]
    fn run_unknown_experiment_is_a_parse_error() {
        let err = dispatch(&argv(&["run", "fig99"])).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        assert!(format!("{err}").contains("unknown experiment id `fig99`"));
    }

    #[test]
    fn run_single_experiment_renders_tables() {
        let out = dispatch(&argv(&["run", "table1"])).unwrap();
        assert!(out.contains("[table1]"), "{out}");
    }

    #[test]
    fn run_json_emits_id_and_tables() {
        let out = dispatch(&argv(&["run", "table1", "--json"])).unwrap();
        assert!(out.contains("\"id\": \"table1\""), "{out}");
        assert!(out.contains("\"tables\""), "{out}");
        // One id and `all` print the same object shape.
        let keys = |run: &Value| match run {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other}"),
        };
        let one = decarb_json::parse(&out).unwrap();
        // The golden is `run all --json` without its `elapsed_s` fields.
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/repro.json");
        let golden = std::fs::read_to_string(golden).unwrap();
        let Value::Array(runs) = decarb_json::parse(&golden).unwrap() else {
            panic!("the golden `run all --json` report is an array");
        };
        let table1 = runs
            .iter()
            .find(|run| run.get("id") == Some(&Value::from("table1")))
            .expect("table1 in `run all`");
        let mut expected = keys(table1);
        expected.insert(2, "elapsed_s".into());
        assert_eq!(keys(&one), expected);
    }

    #[test]
    fn run_on_refuses_explicit_datasets_for_registry_commands() {
        let data = decarb_traces::builtin_dataset();
        for command in [
            Command::List,
            Command::Run {
                ids: vec!["table1".into()],
                json: false,
            },
            Command::ScenarioList,
            Command::ScenarioDiff {
                report: "r.json".into(),
                golden: "g.json".into(),
                tolerance_pct: 0.1,
            },
        ] {
            let err = run_on(&command, &data).unwrap_err();
            assert!(format!("{err}").contains("built-in dataset"));
        }
    }

    #[test]
    fn scenario_list_shows_every_builtin_scenario() {
        let out = dispatch(&argv(&["scenario", "list"])).unwrap();
        for scenario in decarb_sim::builtin_scenarios() {
            assert!(
                out.lines()
                    .any(|l| l.split_whitespace().next() == Some(scenario.name.as_str())),
                "missing {}",
                scenario.name
            );
        }
        assert!(out.contains("54 scenarios"));
    }

    #[test]
    fn scenario_run_single_renders_table_row() {
        let out = dispatch(&argv(&["scenario", "run", "batch-agnostic-us"])).unwrap();
        assert!(out.contains("scenario"), "{out}");
        assert!(out.contains("batch-agnostic-us"), "{out}");
    }

    #[test]
    fn scenario_run_single_json_is_an_object() {
        let out = dispatch(&argv(&[
            "scenario",
            "run",
            "interactive-agnostic-europe",
            "--json",
        ]))
        .unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"name\": \"interactive-agnostic-europe\""));
        assert!(out.contains("\"avg_ci_g_per_kwh\""));
        assert!(out.contains("\"overheads\": \"zero\""));
    }

    #[test]
    fn scenario_run_unknown_name_is_a_parse_error_listing_valid_names() {
        let err = dispatch(&argv(&["scenario", "run", "nope-nope-nope"])).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        let text = format!("{err}");
        assert!(text.contains("unknown scenario `nope-nope-nope`"));
        assert!(text.contains("valid names:"), "{text}");
        assert!(text.contains("batch-agnostic-europe"), "{text}");
        assert!(text.contains("mixed-spatiotemporal-global"), "{text}");
    }

    #[test]
    fn scenario_run_streams_same_bytes_as_buffered_dispatch() {
        let argv = argv(&["scenario", "run", "batch-deferral-us", "--json"]);
        let buffered = dispatch(&argv).unwrap();
        let mut streamed = Vec::new();
        crate::dispatch_stream(&argv, &mut streamed).unwrap();
        // Byte-identical up to the wall-clock `elapsed_s` field (the two
        // calls are separate simulation runs).
        let strip = |text: &str| -> String {
            text.lines()
                .filter(|l| !l.contains("\"elapsed_s\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&String::from_utf8(streamed).unwrap()),
            strip(&format!("{buffered}\n"))
        );
    }

    #[test]
    fn scenario_run_accepts_imported_datasets_when_zones_are_covered() {
        let data = decarb_traces::builtin_dataset();
        let command = Command::ScenarioRun {
            target: crate::args::ScenarioTarget::Name("batch-agnostic-europe".into()),
            json: false,
            shard: None,
            strict: false,
        };
        let out = run_on(&command, &data).unwrap();
        assert!(out.contains("batch-agnostic-europe"), "{out}");
    }

    #[test]
    fn scenario_check_passes_the_builtin_matrix() {
        let data = decarb_traces::builtin_dataset();
        let out = scenario_check_cmd(
            &crate::args::ScenarioTarget::Name("all".into()),
            false,
            &data,
        )
        .unwrap();
        assert_eq!(out, "54 scenario(s) checked, 0 diagnostics");
        let single = scenario_check_cmd(
            &crate::args::ScenarioTarget::Name("batch-agnostic-europe".into()),
            false,
            &data,
        )
        .unwrap();
        assert_eq!(single, "1 scenario(s) checked, 0 diagnostics");
        assert!(matches!(
            scenario_check_cmd(
                &crate::args::ScenarioTarget::Name("frobnicate".into()),
                false,
                &data
            ),
            Err(CliError::Parse(_))
        ));
    }

    const UNSATISFIABLE_SCENARIO: &str = "\
[workload nightly]
class = batch
per_origin = 6
spacing = 48
length = 8
slack = week

[scenario doomed]
workload = nightly
policy = deferral
regions = europe
horizon = 240
";

    #[test]
    fn scenario_check_fails_files_with_line_spanned_diagnostics() {
        let data = decarb_traces::builtin_dataset();
        let path = temp_file("check-doomed.scenario", UNSATISFIABLE_SCENARIO);
        let target = crate::args::ScenarioTarget::File(path.to_str().unwrap().to_string());
        let Err(CliError::Failed(report)) = scenario_check_cmd(&target, false, &data) else {
            panic!("unsatisfiable file must fail the check");
        };
        assert!(report.contains("[unsatisfiable-job]"), "{report}");
        assert!(report.contains("check-doomed.scenario:8:"), "{report}");
        // The JSON form carries the same spans machine-readably.
        let Err(CliError::Failed(json)) = scenario_check_cmd(&target, true, &data) else {
            panic!("unsatisfiable file must fail the JSON check too");
        };
        let value = decarb_json::parse(&json).unwrap();
        let Value::Array(items) = &value else {
            panic!("JSON diagnostics must be an array: {json}");
        };
        assert_eq!(items.len(), 1, "{json}");
        assert_eq!(
            items[0].get("rule"),
            Some(&Value::from("unsatisfiable-job"))
        );
        assert_eq!(items[0].get("line"), Some(&Value::from(8.0)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scenario_run_warns_by_default_and_fails_under_strict() {
        let data = decarb_traces::builtin_dataset();
        let path = temp_file("run-strict.scenario", UNSATISFIABLE_SCENARIO);
        let target = crate::args::ScenarioTarget::File(path.to_str().unwrap().to_string());
        // Default: findings warn (to stderr) but the sweep still runs.
        let out = run_scenarios_cmd(&target, false, None, false, &data).unwrap();
        assert!(out.contains("doomed"), "{out}");
        // --strict: the same findings abort before simulating.
        let Err(CliError::Failed(report)) = run_scenarios_cmd(&target, false, None, true, &data)
        else {
            panic!("--strict must fail on findings");
        };
        assert!(report.contains("unsatisfiable-job"), "{report}");
        assert!(report.contains("--strict"), "{report}");
        // A clean target passes --strict untouched.
        let ok = run_scenarios_cmd(
            &crate::args::ScenarioTarget::Name("batch-agnostic-europe".into()),
            false,
            None,
            true,
            &data,
        )
        .unwrap();
        assert!(ok.contains("batch-agnostic-europe"), "{ok}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shipped_example_files_check_as_documented() {
        // examples/custom.scenario is advertised as check-clean;
        // examples/unsatisfiable.scenario as caught with a line span.
        let data = decarb_traces::builtin_dataset();
        let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap()
            .join("examples");
        let custom = examples.join("custom.scenario");
        let out = scenario_check_cmd(
            &crate::args::ScenarioTarget::File(custom.to_str().unwrap().to_string()),
            false,
            &data,
        )
        .unwrap();
        assert!(out.ends_with("0 diagnostics"), "{out}");
        let doomed = examples.join("unsatisfiable.scenario");
        let Err(CliError::Failed(report)) = scenario_check_cmd(
            &crate::args::ScenarioTarget::File(doomed.to_str().unwrap().to_string()),
            false,
            &data,
        ) else {
            panic!("examples/unsatisfiable.scenario must fail the check");
        };
        assert!(report.contains("[unsatisfiable-job]"), "{report}");
        assert!(report.contains("unsatisfiable.scenario:23:"), "{report}");
    }

    #[test]
    fn analyze_workspace_is_clean_on_this_repo_and_fails_on_seeded_violations() {
        // The workspace itself must lint clean — this is the same gate
        // CI runs via `decarb-cli analyze --workspace`.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap();
        let out = analyze_workspace_cmd(root.to_str().unwrap(), false).unwrap();
        assert!(out.contains("0 diagnostics"), "{out}");
        // A seeded violation tree must fail with a rendered report.
        let seed = std::env::temp_dir().join("analyze-seed-test");
        std::fs::create_dir_all(seed.join("src")).unwrap();
        std::fs::write(
            seed.join("src/lib.rs"),
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .unwrap();
        let Err(CliError::Failed(report)) = analyze_workspace_cmd(seed.to_str().unwrap(), false)
        else {
            panic!("seeded violation must fail the analyze gate");
        };
        assert!(report.contains("[no-panic]"), "{report}");
        std::fs::remove_dir_all(seed).ok();
        // The checked-in CI seed (`ci/analyze-seed`) must keep tripping
        // the gate with exactly its documented findings — CI negates
        // this command and would go green-forever if the seed rotted.
        let ci_seed = root.join("ci/analyze-seed");
        let Err(CliError::Failed(report)) = analyze_workspace_cmd(ci_seed.to_str().unwrap(), false)
        else {
            panic!("the checked-in CI seed must fail the analyze gate");
        };
        assert!(report.contains("[no-panic]"), "{report}");
        assert!(report.contains("[hot-path]"), "{report}");
        assert!(report.contains("3 diagnostics"), "{report}");
    }

    /// Writes `text` to a unique temp file and returns its path.
    fn temp_file(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn scenario_file_runs_parse_execute_and_serialize() {
        let path = temp_file(
            "decarb_cli_test_run.scenario",
            "\
[workload tiny]
class = batch
per_origin = 2
spacing = 24
length = 3
slack = day

[scenario tiny-forecast]
workload = tiny
policy = forecast
regions = europe

[scenario tiny-spatiotemporal]
workload = tiny
policy = spatiotemporal
regions = europe
",
        );
        let out = dispatch(&argv(&[
            "scenario",
            "run",
            "--file",
            path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = decarb_json::parse(&out).expect("valid JSON document");
        let decarb_json::Value::Array(items) = value else {
            panic!("two scenarios render as an array: {out}");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("name"), Some(&Value::from("tiny-forecast")));
        assert_eq!(items[1].get("policy"), Some(&Value::from("spatiotemporal")));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_zones_import_with_defaults_and_sidecar_metadata() {
        // A dataset whose zone is absent from the built-in catalog: the
        // import succeeds with default metadata instead of erroring.
        use std::io::Write as _;
        let path = std::env::temp_dir().join("decarb-cli-unknown-zone.csv");
        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "zone,hour,ci_g_per_kwh").unwrap();
        for h in 0..480u32 {
            writeln!(file, "XX-NOWHERE,{h},{}", 120.0 + (h % 24) as f64).unwrap();
        }
        for h in 0..480u32 {
            writeln!(file, "SE,{h},16.0").unwrap();
        }
        drop(file);
        // Without a sidecar the unknown zone gets default metadata.
        let set = crate::load_dataset(path.to_str().unwrap(), None).unwrap();
        let region = set.region("XX-NOWHERE").unwrap();
        assert_eq!(region.name, "XX-NOWHERE");
        assert_eq!(region.group, decarb_traces::GeoGroup::Other);
        // A sidecar upgrades the default metadata.
        let sidecar = temp_file(
            "decarb-cli-sidecar.regions",
            "[region XX-NOWHERE]
name = Nowhere Grid
group = africa
lat = 5
lon = 10
",
        );
        let set =
            crate::load_dataset(path.to_str().unwrap(), Some(sidecar.to_str().unwrap())).unwrap();
        let region = set.region("XX-NOWHERE").unwrap();
        assert_eq!(region.name, "Nowhere Grid");
        assert_eq!(region.group, decarb_traces::GeoGroup::Africa);
        assert_eq!(region.lat, 5.0);
        // Scenario sweeps complete over the unknown-zone dataset.
        let scenario_file = temp_file(
            "decarb-cli-unknown-zone.scenario",
            "[workload w]
class = batch
per_origin = 3
length = 2
slack = day

             [regions offgrid]
codes = XX-NOWHERE, SE

             [matrix m]
workloads = w
policies = agnostic, greenest
regions = offgrid
             horizon = 240
year = 2020
",
        );
        let out = dispatch(&argv(&[
            "--data",
            path.to_str().unwrap(),
            "--regions",
            sidecar.to_str().unwrap(),
            "scenario",
            "run",
            "--file",
            scenario_file.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = decarb_json::parse(&out).unwrap();
        let Value::Array(reports) = value else {
            panic!("expected an array: {out}");
        };
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert_eq!(report.get("completed"), report.get("jobs"), "{report}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(&scenario_file).ok();
    }

    #[test]
    fn scenario_files_declaring_custom_regions_run_on_synthesized_traces() {
        // No --data at all: the [region] sections alone carry the zones,
        // and the runner synthesizes their traces from the declared
        // calibration targets.
        let scenario_file = temp_file(
            "decarb-cli-custom-region.scenario",
            "[region XX-HYDRO]
name = Hydrotopia
group = south-america
mean_ci = 45
             mix = hydro:0.8, wind:0.2

             [region XX-COAL]
name = Coalville
group = asia
mean_ci = 700
             mix = coal:0.9, solar:0.1

             [workload w]
class = batch
per_origin = 4
length = 4
slack = day

             [regions synthetic]
codes = XX-HYDRO, XX-COAL

             [matrix m]
workloads = w
policies = agnostic, greenest
regions = synthetic
             horizon = 240
",
        );
        let out = dispatch(&argv(&[
            "scenario",
            "run",
            "--file",
            scenario_file.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = decarb_json::parse(&out).unwrap();
        let Value::Array(reports) = value else {
            panic!("expected an array: {out}");
        };
        assert_eq!(reports.len(), 2);
        let ci_of = |policy: &str| -> f64 {
            reports
                .iter()
                .find(|r| r.get("policy") == Some(&Value::from(policy)))
                .and_then(|r| match r.get("avg_ci_g_per_kwh") {
                    Some(Value::Number(n)) => Some(*n),
                    _ => None,
                })
                .expect("policy present")
        };
        assert!(
            ci_of("greenest") < ci_of("agnostic"),
            "routing to the hypothetical hydro grid must help"
        );
        std::fs::remove_file(&scenario_file).ok();
    }

    #[test]
    fn scenario_file_runs_against_imported_datasets() {
        // A two-zone `--data` import plus a scenario file deploying
        // exactly those zones: the sweep must run on the imported
        // traces, and region sets the import lacks must error cleanly.
        let data_path = write_defective_dataset("decarb_cli_test_scenario_data.csv");
        let scenario_path = temp_file(
            "decarb_cli_test_imported.scenario",
            "\
[defaults]
year = 2020
horizon = 120

[workload tiny]
class = batch
per_origin = 2
spacing = 24
length = 3
slack = day

[regions pair]
codes = SE, DE

[scenario tiny-deferral-pair]
workload = tiny
policy = deferral
regions = pair
",
        );
        let out = dispatch(&argv(&[
            "--data",
            data_path.to_str().unwrap(),
            "scenario",
            "run",
            "--file",
            scenario_path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(out.contains("\"name\": \"tiny-deferral-pair\""), "{out}");
        assert!(out.contains("\"completed\": 4"), "{out}");
        // A built-in region set the import cannot cover errors instead
        // of panicking.
        let err = dispatch(&argv(&[
            "--data",
            data_path.to_str().unwrap(),
            "scenario",
            "run",
            "batch-agnostic-europe",
        ]))
        .unwrap_err();
        assert!(format!("{err}").contains("not in the dataset"), "{err}");
        std::fs::remove_file(data_path).ok();
        std::fs::remove_file(scenario_path).ok();
    }

    #[test]
    fn scenario_file_errors_surface_with_line_numbers() {
        let path = temp_file(
            "decarb_cli_test_bad.scenario",
            "[workload w]\nclass = batch\n\n[scenario s]\nworkload = w\npolicy = psychic\nregions = europe\n",
        );
        let err = dispatch(&argv(&[
            "scenario",
            "run",
            "--file",
            path.to_str().unwrap(),
        ]))
        .unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("line 6"), "{text}");
        assert!(text.contains("unknown policy `psychic`"), "{text}");
        std::fs::remove_file(path).ok();
        let err = dispatch(&argv(&[
            "scenario",
            "run",
            "--file",
            "/nonexistent.scenario",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }

    #[test]
    fn scenario_diff_passes_identical_reports_and_catches_drift() {
        let report = temp_file(
            "decarb_cli_test_diff_report.json",
            r#"[{"name": "a", "emissions_g": 100.0}, {"name": "b", "emissions_g": 50.0}]"#,
        );
        let golden = temp_file(
            "decarb_cli_test_diff_golden.json",
            r#"[{"name": "a", "emissions_g": 100.0}, {"name": "b", "emissions_g": 50.0}]"#,
        );
        let out = dispatch(&argv(&[
            "scenario",
            "diff",
            "--report",
            report.to_str().unwrap(),
            "--golden",
            golden.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("2 scenarios within"), "{out}");
        assert!(out.contains("max drift 0.0000%"), "{out}");
        // Drift beyond tolerance fails with the offending scenario named.
        let drifted = temp_file(
            "decarb_cli_test_diff_drifted.json",
            r#"[{"name": "a", "emissions_g": 103.0}, {"name": "b", "emissions_g": 50.0}]"#,
        );
        let err = dispatch(&argv(&[
            "scenario",
            "diff",
            "--report",
            drifted.to_str().unwrap(),
            "--golden",
            golden.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
        let text = format!("{err}");
        assert!(
            text.contains("a: emissions 103 g vs golden 100 g"),
            "{text}"
        );
        assert!(!text.contains("b:"), "{text}");
        // A generous tolerance lets the same drift pass.
        let out = dispatch(&argv(&[
            "scenario",
            "diff",
            "--report",
            drifted.to_str().unwrap(),
            "--golden",
            golden.to_str().unwrap(),
            "--tolerance-pct",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("max drift 3."), "{out}");
        // A drift the fixed-point digits would round to zero prints in
        // scientific notation, both as a violation and as the maximum.
        let tiny = temp_file(
            "decarb_cli_test_diff_tiny.json",
            r#"[{"name": "a", "emissions_g": 100.000001}, {"name": "b", "emissions_g": 50.0}]"#,
        );
        let tiny_diff = |tolerance: &str| {
            dispatch(&argv(&[
                "scenario",
                "diff",
                "--report",
                tiny.to_str().unwrap(),
                "--golden",
                golden.to_str().unwrap(),
                "--tolerance-pct",
                tolerance,
            ]))
        };
        let text = format!("{}", tiny_diff("1e-7").unwrap_err());
        assert!(text.contains("(1.000e-6% > 0.0000001%)"), "{text}");
        // Both sides print exactly, so they differ wherever the drift
        // is below the printed decimals.
        assert!(
            text.contains("a: emissions 100.000001 g vs golden 100 g"),
            "{text}"
        );
        let out = tiny_diff("1e-5").unwrap();
        assert!(out.contains("max drift 1.000e-6%"), "{out}");
        for path in [report, golden, drifted, tiny] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn scenario_diff_catches_missing_and_extra_scenarios() {
        let report = temp_file(
            "decarb_cli_test_diff_extra.json",
            r#"[{"name": "a", "emissions_g": 100.0}, {"name": "new", "emissions_g": 1.0}]"#,
        );
        let golden = temp_file(
            "decarb_cli_test_diff_base.json",
            r#"[{"name": "a", "emissions_g": 100.0}, {"name": "gone", "emissions_g": 2.0}]"#,
        );
        let err = dispatch(&argv(&[
            "scenario",
            "diff",
            "--report",
            report.to_str().unwrap(),
            "--golden",
            golden.to_str().unwrap(),
        ]))
        .unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("gone: missing from the report"), "{text}");
        assert!(text.contains("new: not in the golden snapshot"), "{text}");
        std::fs::remove_file(report).ok();
        std::fs::remove_file(golden).ok();
    }
}
