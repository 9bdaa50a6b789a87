//! `decarb-cli` — a command-line interface to the carbon-aware scheduling
//! toolkit.
//!
//! [`args::COMMANDS`] is the command table: it parses `argv` into a
//! [`Command`] and renders the help (`decarb-cli help` lists every
//! subcommand). [`execute`] runs a parsed command, writing its output to
//! any `io::Write` sink, so the whole surface is unit-testable; `main`
//! only splits off `--data`, parses and executes.
//!
//! A leading global option `--data FILE [--regions FILE]` replaces the
//! built-in synthetic dataset with a `zone,hour,value` CSV (e.g. a real
//! Electricity Maps export re-keyed to hours since 2020-01-01 UTC) or a
//! binary trace container packed by `data pack` — the two are told
//! apart by the container's magic bytes, so every subcommand and the
//! sweep pipeline accept either transparently.
//! Zone codes are *not* restricted to the built-in catalog: known codes
//! take catalog metadata, `--regions` supplies a `[region CODE]`
//! metadata sidecar for the rest, and anything else gets neutral
//! defaults. Imported CSV traces are validated and repaired
//! (interpolating NaN/non-positive samples) before use; containers
//! carry their own region metadata and load verbatim, integrity-checked
//! by their content hash.

use std::cell::OnceCell;
use std::io::{Read, Write};

use decarb_traces::{
    builtin_dataset, container, csv, repair, validate, TraceSet, ValidationConfig,
};

pub mod args;
pub mod commands;

pub use args::{
    parse, usage, Command, DataCommand, MergeExpect, ParseError, ScenarioTarget, ShardSpec,
};
use commands::failed;
pub use commands::CliError;

/// Loads a `--data` dataset: a binary trace container (detected by its
/// magic bytes) or a `zone,hour,value` CSV.
///
/// Containers carry their own region metadata and are integrity-checked
/// by their content hash, so they load verbatim — no sidecar, no
/// validation pass. CSV datasets are validated and repaired;
/// `regions_path` optionally names a `[region CODE]` metadata sidecar
/// (see `decarb_traces::sidecar`) describing zones outside the built-in
/// catalog; zones with neither catalog nor sidecar metadata are
/// interned with defaults instead of being rejected. A sidecar
/// `[dataset] resolution = MIN` section declares the CSV rows' sample
/// cadence — without one, rows are hourly.
///
/// Only the first eight bytes are read to tell the formats apart, so a
/// container streams through [`container::load_file`] without first
/// being read whole.
pub fn load_dataset(path: &str, regions_path: Option<&str>) -> Result<TraceSet, CliError> {
    let io = |e: std::io::Error| decarb_traces::TraceError::Io(format!("{path}: {e}"));
    let mut magic = Vec::with_capacity(container::MAGIC.len());
    std::fs::File::open(path)
        .and_then(|file| {
            file.take(container::MAGIC.len() as u64)
                .read_to_end(&mut magic)
        })
        .map_err(io)?;
    if container::is_container(&magic) {
        if regions_path.is_some() {
            return Err(CliError::Parse(ParseError(format!(
                "{path} is a binary trace container and carries its own region \
                 metadata; drop --regions"
            ))));
        }
        return Ok(container::load_file(path)?);
    }
    let (extra, declared_resolution) = match regions_path {
        None => (Vec::new(), None),
        Some(sidecar_path) => {
            let text =
                std::fs::read_to_string(sidecar_path).map_err(|e| failed(sidecar_path, e))?;
            let doc = decarb_traces::parse_sidecar(&text).map_err(|e| failed(sidecar_path, e))?;
            (doc.regions, doc.resolution)
        }
    };
    let text = std::fs::read_to_string(path).map_err(io)?;
    let raw = csv::read_dataset_str_with(&text, &extra)?;
    let config = ValidationConfig::default();
    let pairs = raw
        .iter()
        .map(|(region, series)| {
            let report = validate(series, &config);
            let series = if report.non_finite.is_empty() && report.non_positive.is_empty() {
                series.clone()
            } else {
                repair(series).ok_or_else(|| {
                    CliError::Failed(format!(
                        "zone {} has no valid samples to repair from",
                        region.code
                    ))
                })?
            };
            Ok((region.clone(), series))
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    let set = TraceSet::from_series(pairs);
    // The sidecar declared the rows' cadence; the series' slot anchors
    // and lengths are already counts on that axis, so stamping suffices.
    Ok(match declared_resolution {
        Some(resolution) => set.with_resolution(resolution),
        None => set,
    })
}

/// An imported `--data` dataset together with the paths it came from
/// (`--data`, optional `--regions` sidecar) — the paths ride along so
/// `serve` can re-import the dataset on `POST /v1/reload`.
pub type ImportedData = Option<(String, Option<String>, TraceSet)>;

/// Splits the global `--data FILE [--regions FILE]` options off `argv`,
/// loading the dataset (plus the optional metadata sidecar) when
/// present.
fn split_data(argv: &[String]) -> Result<(ImportedData, &[String]), CliError> {
    if argv.first().map(String::as_str) == Some("--data") {
        let Some(path) = argv.get(1) else {
            return Err(CliError::Parse(ParseError(
                "--data needs a file path".into(),
            )));
        };
        let (regions_path, rest) = if argv.get(2).map(String::as_str) == Some("--regions") {
            let Some(sidecar) = argv.get(3) else {
                return Err(CliError::Parse(ParseError(
                    "--regions needs a file path".into(),
                )));
            };
            (Some(sidecar.as_str()), &argv[4..])
        } else {
            (None, &argv[2..])
        };
        Ok((
            Some((
                path.clone(),
                regions_path.map(str::to_string),
                load_dataset(path, regions_path)?,
            )),
            rest,
        ))
    } else {
        Ok((None, argv))
    }
}

impl Command {
    /// Whether the command reads a dataset, and so accepts `--data`.
    fn reads_dataset(&self) -> bool {
        !matches!(
            self,
            Command::List
                | Command::Run { .. }
                | Command::ScenarioList
                | Command::ScenarioMerge { .. }
                | Command::ScenarioDiff { .. }
                | Command::AnalyzeWorkspace { .. }
                | Command::Data(_)
        )
    }
}

/// Runs a parsed command against the imported `--data` dataset, or the
/// built-in one, writing its output to `out`. `scenario run` streams
/// each report in plan order as soon as it and every report before it
/// are done, and `serve` prints its address and then blocks in the
/// accept loop.
pub fn execute(command: &Command, data: ImportedData, out: &mut dyn Write) -> Result<(), CliError> {
    if data.is_some() && !command.reads_dataset() {
        return Err(CliError::Parse(ParseError(
            "--data replaces the built-in dataset, which this command does not read; drop --data"
                .into(),
        )));
    }
    // Synthesized on first use, so dataset-free commands never pay for it.
    let builtin = OnceCell::new();
    let dataset = || match &data {
        Some((_, _, set)) => set,
        None => &**builtin.get_or_init(builtin_dataset),
    };
    let text = match command {
        Command::Help => usage(),
        Command::CommandHelp { usage, help } => format!("{usage}\n\n{help}"),
        Command::Regions { group, year } => commands::regions(dataset(), group.as_deref(), *year)?,
        Command::Analyze { zone, year } => commands::analyze(dataset(), zone, *year)?,
        Command::Plan {
            zone,
            hours,
            slack,
            arrive,
            year,
        } => commands::plan(dataset(), zone, *hours, *slack, *arrive, *year)?,
        Command::Forecast { zone, days, year } => {
            commands::forecast(dataset(), zone, *days, *year)?
        }
        Command::Rank { year } => commands::rank(dataset(), *year)?,
        Command::Export { zone, year } => commands::export(dataset(), zone, *year)?,
        Command::List => commands::list(),
        Command::Run { ids, json } => commands::run_experiments(ids, *json)?,
        Command::ScenarioList => commands::scenario_list(),
        Command::ScenarioRun {
            target,
            json,
            shard,
            strict,
        } => {
            commands::run_scenarios_to(out, target, *json, *shard, *strict, dataset())?;
            String::new()
        }
        Command::ScenarioCheck { target, json } => {
            commands::scenario_check_cmd(target, *json, dataset())?
        }
        Command::ScenarioMerge { reports, expect } => {
            commands::scenario_merge(reports, expect.as_ref())?
        }
        Command::ScenarioDiff {
            report,
            golden,
            tolerance_pct,
        } => commands::scenario_diff(report, golden, *tolerance_pct)?,
        Command::Data(cmd) => commands::data_cmd(cmd)?,
        Command::AnalyzeWorkspace { path, json } => commands::analyze_workspace_cmd(path, *json)?,
        Command::Serve {
            addr,
            threads,
            capacity_per_hour,
        } => return commands::serve_cmd(out, data, addr, *threads, *capacity_per_hour),
    };
    writeln!(out, "{text}")?;
    Ok(())
}

/// Entry point of `main`: splits off the global `--data FILE`, parses
/// the rest and executes it, writing to `out`.
pub fn dispatch_stream(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (data, rest) = split_data(argv)?;
    let command = parse(rest).map_err(CliError::Parse)?;
    execute(&command, data, out)
}

/// [`dispatch_stream`] buffered into a `String`, without the final
/// newline.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let mut buffer = Vec::new();
    dispatch_stream(argv, &mut buffer)?;
    let mut text = String::from_utf8_lossy(&buffer).into_owned();
    if text.ends_with('\n') {
        text.pop();
    }
    Ok(text)
}
