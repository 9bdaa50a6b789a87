//! The scenario-file format: user-defined scenario sweeps.
//!
//! The built-in matrix covers 54 scenarios; everything beyond it —
//! custom region sets, workload recipes, overhead/capacity grids,
//! different horizons — is declared in a plain-text scenario file and
//! run via `decarb-cli scenario run --file <path>`. The format is the
//! INI-like section grammar of `decarb_traces::sections`, which region
//! sidecars share: `[kind name]` section headers, `key = value` lines,
//! `#` comments, comma-separated lists.
//!
//! ```text
//! [defaults]
//! capacity = 8
//! horizon = 384
//! year = 2022
//!
//! [workload nightly]
//! class = batch
//! per_origin = 12
//! spacing = 24
//! length = 8
//! slack = day
//!
//! [regions nordics]
//! codes = SE, NO, FI
//!
//! [scenario nightly-forecast-nordics]
//! workload = nightly
//! policy = forecast
//! regions = nordics
//!
//! [matrix sweep]
//! workloads = nightly
//! policies = agnostic, deferral, spatiotemporal
//! regions = europe, nordics
//! overheads = zero, realistic
//! capacities = 4, 8
//! ```
//!
//! Section kinds:
//!
//! * `[defaults]` — run-wide settings: `capacity`, `horizon`, `year`,
//!   `start_offset` (hours into the year), `overheads`, `forecaster`
//!   (`naive` / `seasonal` — what the forecast-backed policies plan
//!   with), `slo_ms` (the spatiotemporal round-trip budget).
//! * `[workload NAME]` — a [`WorkloadSpec`] recipe; keys are parsed by
//!   [`WorkloadSpec::from_pairs`]. Arrivals default to a fixed cadence
//!   (`spacing = N`); `arrival = poisson:<rate>` (jobs per hour, with
//!   an optional `arrival_seed`) draws seeded exponential gaps instead.
//! * `[regions NAME]` — a custom region set: `codes = A, B, C`.
//! * `[region CODE]` — a fully custom region: metadata for a zone the
//!   dataset (or catalog) does not know, keys per
//!   `decarb_traces::Region::from_pairs` (`name`, `group`, `lat`,
//!   `lon`, `mean_ci`, `ci_delta`, `daily_cv`, `periodicity`, `mix`),
//!   built by the same `decarb_traces::sidecar::push_region` a sidecar
//!   uses.
//!   The CLI synthesizes a trace for it when the active dataset lacks
//!   one, so scenarios can deploy into entirely hypothetical grids.
//! * `[scenario NAME]` — one scenario: `workload`, `policy`, `regions`
//!   (a built-in label or a `[regions]` section name), plus optional
//!   overrides of any default.
//! * `[matrix NAME]` — a cartesian sweep: `workloads`, `policies`
//!   (labels or `all`), `regions`, `overheads`, `capacities`, plus
//!   optional `horizon`/`year`/`start_offset`/`forecaster`/`slo_ms`
//!   overrides. Expanded names follow
//!   [`crate::scenario::ScenarioMatrix::expand`].
//!
//! Scenario names must be unique across the whole file; region codes
//! are validated against the active dataset by the CLI before running.
//! A window (`year` + `start_offset`, then `horizon`) must end within
//! `decarb_traces::time::CLOCK_HOURS`, the hours the `u32` slot clock
//! addresses at 1-minute resolution. A workload recipe must fit the
//! clock too (`WorkloadSpec::check_bounds`); a recipe error points at
//! the line of the key it blames.

use std::collections::HashMap;

use decarb_traces::sections::{parse_sections, Section, SectionError};
use decarb_traces::sidecar::push_region;
use decarb_traces::time::{year_start, CLOCK_HOURS, EPOCH_YEAR, LAST_YEAR};
use decarb_traces::{Hour, Region};
use decarb_workloads::WorkloadSpec;

use crate::scenario::{
    ForecasterKind, OverheadKind, PolicyKind, RegionSet, RegionSpec, Scenario, ScenarioMatrix,
    SPATIOTEMPORAL_SLO_MS,
};

/// A scenario-file parse failure, with the 1-based line it points at.
pub type ScenarioFileError = SectionError;

fn err(line: usize, message: impl Into<String>) -> ScenarioFileError {
    SectionError::new(line, message)
}

/// The section headers a scenario file accepts.
const KINDS: &[&str] = &[
    "defaults",
    "workload NAME",
    "regions NAME",
    "region CODE",
    "scenario NAME",
    "matrix NAME",
];

/// The keys a section of `kind` accepts.
fn allowed_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "defaults" => &[
            "capacity",
            "horizon",
            "year",
            "start_offset",
            "overheads",
            "forecaster",
            "slo_ms",
        ],
        "workload" => WorkloadSpec::KNOWN_KEYS,
        "regions" => &["codes"],
        "region" => Region::KNOWN_KEYS,
        "scenario" => &[
            "workload",
            "policy",
            "regions",
            "capacity",
            "horizon",
            "year",
            "start_offset",
            "overheads",
            "forecaster",
            "slo_ms",
        ],
        "matrix" => &[
            "workloads",
            "policies",
            "regions",
            "overheads",
            "capacities",
            "capacity",
            "horizon",
            "year",
            "start_offset",
            "forecaster",
            "slo_ms",
        ],
        _ => &[],
    }
}

/// Splits a scenario file into its sections.
pub(crate) fn sections(text: &str) -> Result<Vec<Section>, ScenarioFileError> {
    parse_sections(text, KINDS)
}

/// Every key its section's kind does not accept, in file order — the
/// parser rejects the first, the static checker reports them all.
pub(crate) fn unknown_keys(sections: &[Section]) -> impl Iterator<Item = SectionError> + '_ {
    sections
        .iter()
        .flat_map(|section| section.unknown_keys(allowed_keys(&section.kind)))
}

/// Run-wide defaults, overridable per scenario/matrix section. The
/// start is kept as its `year` + `start_offset` components so a
/// section overriding one of the pair still inherits the other.
#[derive(Debug, Clone, Copy)]
struct Defaults {
    capacity: usize,
    horizon: usize,
    year: i32,
    start_offset: usize,
    overheads: OverheadKind,
    forecaster: ForecasterKind,
    slo_ms: f64,
}

impl Defaults {
    fn builtin() -> Self {
        Self {
            capacity: 8,
            horizon: 16 * 24,
            year: 2022,
            start_offset: 0,
            overheads: OverheadKind::Zero,
            forecaster: ForecasterKind::Seasonal,
            slo_ms: SPATIOTEMPORAL_SLO_MS,
        }
    }

    fn start(&self) -> Hour {
        year_start(self.year).plus(self.start_offset)
    }
}

/// Reads `year`/`start_offset`/`horizon`/`capacity` — and, unless the
/// caller treats `overheads` as a list axis (matrix sections),
/// `overheads` — from `section` on top of `base`.
fn settings_from(
    section: &Section,
    base: Defaults,
    include_overheads: bool,
) -> Result<Defaults, ScenarioFileError> {
    let year: i32 = section.parsed("year", base.year)?;
    if !(EPOCH_YEAR..LAST_YEAR).contains(&year) {
        return Err(err(
            section.line_of("year"),
            format!("`year` must lie in {EPOCH_YEAR}..{}", LAST_YEAR - 1),
        ));
    }
    let start_offset: usize = section.parsed("start_offset", base.start_offset)?;
    let capacity: usize = section.parsed("capacity", base.capacity)?;
    if capacity == 0 {
        return Err(err(section.line_of("capacity"), "`capacity` must be ≥ 1"));
    }
    let horizon: usize = section.parsed("horizon", base.horizon)?;
    if horizon == 0 {
        return Err(err(section.line_of("horizon"), "`horizon` must be ≥ 1"));
    }
    // The window must end on the slot clock at its finest resolution,
    // or `Hour` arithmetic would wrap.
    let start = year_start(year).index().saturating_add(start_offset);
    if start.saturating_add(horizon) > CLOCK_HOURS {
        let (key, value) = if start > CLOCK_HOURS {
            ("start_offset", start_offset)
        } else {
            ("horizon", horizon)
        };
        return Err(err(
            section.line_of(key),
            format!(
                "`{key}` {value} puts the window past the slot clock's end \
                 ({CLOCK_HOURS} h after {EPOCH_YEAR}-01-01)"
            ),
        ));
    }
    let overheads = match section.get("overheads").filter(|_| include_overheads) {
        Some(raw) => OverheadKind::parse(raw).map_err(|e| err(section.line_of("overheads"), e))?,
        None => base.overheads,
    };
    let forecaster = match section.get("forecaster") {
        Some(raw) => {
            ForecasterKind::parse(raw).map_err(|e| err(section.line_of("forecaster"), e))?
        }
        None => base.forecaster,
    };
    let slo_ms: f64 = section.parsed("slo_ms", base.slo_ms)?;
    if !slo_ms.is_finite() || slo_ms <= 0.0 {
        return Err(err(section.line_of("slo_ms"), "`slo_ms` must be positive"));
    }
    Ok(Defaults {
        capacity,
        horizon,
        year,
        start_offset,
        overheads,
        forecaster,
        slo_ms,
    })
}

/// Resolves a region reference: a built-in label or a `[regions]`
/// section name.
fn resolve_regions(
    name: &str,
    custom: &HashMap<String, RegionSpec>,
    line: usize,
) -> Result<RegionSpec, ScenarioFileError> {
    if let Ok(set) = RegionSet::parse(name) {
        return Ok(set.into());
    }
    custom.get(name).cloned().ok_or_else(|| {
        let mut valid: Vec<&str> = RegionSet::ALL.iter().map(|s| s.label()).collect();
        valid.extend(custom.keys().map(String::as_str));
        err(
            line,
            format!("unknown region set `{name}` (valid: {})", valid.join(", ")),
        )
    })
}

/// A parsed scenario file: the expanded scenario list plus any fully
/// custom regions its `[region CODE]` sections declared.
#[derive(Debug)]
pub struct ScenarioFile {
    /// Expanded scenarios in declaration order.
    pub scenarios: Vec<Scenario>,
    /// Custom regions, in declaration order; the runner interns (and
    /// synthesizes traces for) the ones the active dataset lacks.
    pub custom_regions: Vec<Region>,
    /// 1-based line of the `[scenario]` or `[matrix]` section each
    /// entry of `scenarios` came from, index-aligned — the spans the
    /// static checker anchors its diagnostics to.
    pub(crate) lines: Vec<usize>,
}

/// Parses a scenario file into its expanded scenario list, dropping
/// any `[region CODE]` declarations (see [`parse_scenario_file_full`]).
pub fn parse_scenario_file(text: &str) -> Result<Vec<Scenario>, ScenarioFileError> {
    parse_scenario_file_full(text).map(|file| file.scenarios)
}

/// Parses a scenario file into scenarios plus custom regions.
///
/// Scenarios appear in declaration order (`[scenario]` entries as-is,
/// `[matrix]` entries expanded in axis order). Names must be unique
/// across the file.
pub fn parse_scenario_file_full(text: &str) -> Result<ScenarioFile, ScenarioFileError> {
    let sections = sections(text)?;
    if let Some(e) = unknown_keys(&sections).next() {
        return Err(e);
    }

    let mut defaults = Defaults::builtin();
    let mut workloads: HashMap<String, WorkloadSpec> = HashMap::new();
    let mut region_sets: HashMap<String, RegionSpec> = HashMap::new();
    let mut custom_regions: Vec<Region> = Vec::new();

    // First pass: defaults and named definitions (usable by any later —
    // or earlier — scenario/matrix section).
    for section in &sections {
        match section.kind.as_str() {
            "defaults" => {
                defaults = settings_from(section, defaults, true)?;
            }
            "workload" => {
                let spec = WorkloadSpec::from_pairs(section.pairs()).map_err(|e| {
                    let line = e.key.map_or(section.line, |key| section.line_of(key));
                    err(line, e.message)
                })?;
                if workloads.insert(section.name.clone(), spec).is_some() {
                    return Err(section.error(format!("duplicate workload `{}`", section.name)));
                }
            }
            "region" => push_region(&mut custom_regions, section)?,
            "regions" => {
                if RegionSet::parse(&section.name).is_ok() {
                    return Err(section.error(format!(
                        "region set `{}` shadows a built-in set",
                        section.name
                    )));
                }
                let codes: Vec<String> = section
                    .list("codes")
                    .ok_or_else(|| section.error("regions section needs `codes`"))?
                    .iter()
                    .map(|c| c.to_uppercase())
                    .collect();
                if codes.is_empty() {
                    return Err(err(section.line_of("codes"), "`codes` must list a zone"));
                }
                let spec = RegionSpec::Custom {
                    label: section.name.clone(),
                    codes,
                };
                if region_sets.insert(section.name.clone(), spec).is_some() {
                    return Err(section.error(format!("duplicate region set `{}`", section.name)));
                }
            }
            _ => {}
        }
    }

    // Second pass: scenarios and matrices, in order.
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut lines: Vec<usize> = Vec::new();
    for section in &sections {
        match section.kind.as_str() {
            "scenario" => {
                let settings = settings_from(section, defaults, true)?;
                let workload_name = section
                    .get("workload")
                    .ok_or_else(|| section.error("scenario needs `workload`"))?;
                let workload = workloads.get(workload_name).cloned().ok_or_else(|| {
                    err(
                        section.line_of("workload"),
                        format!("unknown workload `{workload_name}`"),
                    )
                })?;
                let policy = section
                    .get("policy")
                    .ok_or_else(|| section.error("scenario needs `policy`"))
                    .and_then(|raw| {
                        PolicyKind::parse(raw).map_err(|e| err(section.line_of("policy"), e))
                    })?;
                let regions_name = section
                    .get("regions")
                    .ok_or_else(|| section.error("scenario needs `regions`"))?;
                let regions =
                    resolve_regions(regions_name, &region_sets, section.line_of("regions"))?;
                lines.push(section.line);
                scenarios.push(Scenario {
                    name: section.name.clone(),
                    workload,
                    policy,
                    regions,
                    overheads: settings.overheads,
                    capacity_per_region: settings.capacity,
                    forecaster: settings.forecaster,
                    slo_ms: settings.slo_ms,
                    start: settings.start(),
                    horizon: settings.horizon,
                });
            }
            "matrix" => {
                let settings = settings_from(section, defaults, false)?;
                let matrix_workloads: Vec<(String, WorkloadSpec)> = section
                    .list("workloads")
                    .ok_or_else(|| section.error("matrix needs `workloads`"))?
                    .iter()
                    .map(|name| {
                        workloads
                            .get(*name)
                            .cloned()
                            .map(|spec| (name.to_string(), spec))
                            .ok_or_else(|| {
                                err(
                                    section.line_of("workloads"),
                                    format!("unknown workload `{name}`"),
                                )
                            })
                    })
                    .collect::<Result<_, _>>()?;
                let policies: Vec<PolicyKind> = match section.list("policies") {
                    None => return Err(section.error("matrix needs `policies`")),
                    Some(labels) if labels == ["all"] => PolicyKind::ALL.to_vec(),
                    Some(labels) => labels
                        .iter()
                        .map(|label| {
                            PolicyKind::parse(label)
                                .map_err(|e| err(section.line_of("policies"), e))
                        })
                        .collect::<Result<_, _>>()?,
                };
                let matrix_regions: Vec<RegionSpec> = section
                    .list("regions")
                    .ok_or_else(|| section.error("matrix needs `regions`"))?
                    .iter()
                    .map(|name| resolve_regions(name, &region_sets, section.line_of("regions")))
                    .collect::<Result<_, _>>()?;
                let overheads: Vec<OverheadKind> = match section.list("overheads") {
                    None => vec![settings.overheads],
                    Some(labels) => labels
                        .iter()
                        .map(|label| {
                            OverheadKind::parse(label)
                                .map_err(|e| err(section.line_of("overheads"), e))
                        })
                        .collect::<Result<_, _>>()?,
                };
                let capacities: Vec<usize> = match section.list("capacities") {
                    None => vec![settings.capacity],
                    Some(raws) => raws
                        .iter()
                        .map(|raw| {
                            raw.parse::<usize>()
                                .ok()
                                .filter(|&c| c >= 1)
                                .ok_or_else(|| {
                                    err(
                                        section.line_of("capacities"),
                                        format!("invalid capacity `{raw}`"),
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?,
                };
                if matrix_workloads.is_empty() || policies.is_empty() || matrix_regions.is_empty() {
                    return Err(section.error("matrix axes must be non-empty"));
                }
                let matrix = ScenarioMatrix {
                    workloads: matrix_workloads,
                    policies,
                    region_sets: matrix_regions,
                    overheads,
                    capacities,
                    forecaster: settings.forecaster,
                    slo_ms: settings.slo_ms,
                    start: settings.start(),
                    horizon: settings.horizon,
                };
                let expanded = matrix.expand();
                lines.extend(std::iter::repeat_n(section.line, expanded.len()));
                scenarios.extend(expanded);
            }
            _ => {}
        }
    }

    if scenarios.is_empty() {
        return Err(err(
            1,
            "file declares no `[scenario]` or `[matrix]` section",
        ));
    }
    let mut seen: HashMap<&str, ()> = HashMap::new();
    for scenario in &scenarios {
        if seen.insert(scenario.name.as_str(), ()).is_some() {
            return Err(err(
                1,
                format!(
                    "duplicate scenario id `{}` (rename the section or matrix workloads)",
                    scenario.name
                ),
            ));
        }
    }
    Ok(ScenarioFile {
        scenarios,
        custom_regions,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPlan;
    use decarb_traces::builtin_dataset;

    const EXAMPLE: &str = "\
# A worked example exercising every section kind.
[defaults]
capacity = 6
horizon = 480
year = 2022
start_offset = 24

[workload nightly]
class = batch
per_origin = 4
spacing = 24
length = 6
slack = day

[workload web]
class = interactive
per_origin = 8
spacing = 12

[regions nordics]
codes = se, NO, FI

[scenario nightly-forecast-nordics]
workload = nightly
policy = forecast
regions = nordics

[matrix sweep]
workloads = nightly, web
policies = agnostic, spatiotemporal
regions = europe, nordics
overheads = zero, realistic
";

    #[test]
    fn example_file_parses_and_expands() {
        let scenarios = parse_scenario_file(EXAMPLE).unwrap();
        // 1 single + 2 workloads × 2 policies × 2 region sets × 2 overheads.
        assert_eq!(scenarios.len(), 1 + 16);
        let single = &scenarios[0];
        assert_eq!(single.name, "nightly-forecast-nordics");
        assert_eq!(single.policy, PolicyKind::ForecastDeferral);
        assert_eq!(single.capacity_per_region, 6);
        assert_eq!(single.horizon, 480);
        assert_eq!(single.start, year_start(2022).plus(24));
        assert_eq!(single.regions.codes(), vec!["SE", "NO", "FI"]);
        assert!(scenarios
            .iter()
            .any(|s| s.name == "web-spatiotemporal-nordics-realistic"));
        assert!(scenarios
            .iter()
            .any(|s| s.name == "nightly-agnostic-europe-zero"));
        // Matrix entries inherit the overridden defaults.
        assert!(scenarios[1..].iter().all(|s| s.horizon == 480));
    }

    #[test]
    fn parsed_scenarios_run_and_serialize() {
        // The round-trip: parse → run → JSON.
        let data = builtin_dataset();
        let scenarios = parse_scenario_file(EXAMPLE).unwrap();
        for s in &scenarios {
            s.validate_against(&data).unwrap();
        }
        let subset: Vec<Scenario> = scenarios
            .iter()
            .filter(|s| s.name.contains("nordics"))
            .take(3)
            .cloned()
            .collect();
        let reports = SweepPlan::plan(&data, subset.clone())
            .unwrap()
            .execute(&data);
        assert_eq!(reports.len(), subset.len());
        for report in &reports {
            assert!(report.completed > 0, "{}", report.name);
            assert!(report.total_emissions_g > 0.0);
            let json = report.to_json();
            assert_eq!(
                json.get("name"),
                Some(&decarb_json::Value::from(report.name.as_str()))
            );
        }
    }

    #[test]
    fn year_and_start_offset_inherit_independently() {
        // A section overriding only one of the year/start_offset pair
        // must inherit the other from [defaults].
        let text = "\
[defaults]
year = 2020
start_offset = 24

[workload w]
class = batch

[scenario offset-only]
workload = w
policy = agnostic
regions = europe
start_offset = 48

[scenario year-only]
workload = w
policy = agnostic
regions = europe
year = 2021
";
        let scenarios = parse_scenario_file(text).unwrap();
        assert_eq!(scenarios[0].start, year_start(2020).plus(48));
        assert_eq!(scenarios[1].start, year_start(2021).plus(24));
    }

    #[test]
    fn comments_blank_lines_and_inline_comments_are_ignored() {
        let text = "\
[workload w]  # trailing comment
class = batch # another

[scenario s]
workload = w
policy = deferral
regions = europe
";
        let scenarios = parse_scenario_file(text).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].policy, PolicyKind::PlannedDeferral);
    }

    #[test]
    fn malformed_sections_error_with_line_numbers() {
        for (text, line, needle) in [
            ("key = value\n", 1, "before any section"),
            ("[scenario\n", 1, "unterminated section header"),
            ("[defaults extra]\n", 1, "takes no name"),
            ("[workload]\n", 1, "needs a name"),
            ("[party time]\n", 1, "unknown section kind"),
            ("[workload w]\nclass batch\n", 2, "expected `key = value`"),
            (
                "[workload w]\nclass = batch\nclass = mixed\n",
                3,
                "duplicate key",
            ),
            ("[scenario s]\nworkload = w\n", 2, "unknown workload"),
            ("[regions r]\n", 1, "needs `codes`"),
            ("[regions europe]\ncodes = SE\n", 1, "shadows a built-in"),
            ("[defaults]\nyear = 1999\n", 2, "`year` must lie"),
            ("[defaults]\ncapacity = 0\n", 2, "`capacity` must be"),
        ] {
            let error = parse_scenario_file(text).unwrap_err();
            assert_eq!(error.line, line, "{text:?}: {error}");
            assert!(error.message.contains(needle), "{text:?}: {error}");
        }
    }

    #[test]
    fn forecaster_and_slo_keys_parse_inherit_and_validate() {
        let text = "\
[defaults]
forecaster = naive
slo_ms = 60

[workload w]
class = batch

[scenario inherit-defaults]
workload = w
policy = forecast
regions = europe

[scenario override-both]
workload = w
policy = spatiotemporal
regions = europe
forecaster = seasonal
slo_ms = 250

[matrix m]
workloads = w
policies = spatiotemporal
regions = us
slo_ms = 40
";
        let scenarios = parse_scenario_file(text).unwrap();
        assert_eq!(scenarios[0].forecaster, ForecasterKind::Naive);
        assert_eq!(scenarios[0].slo_ms, 60.0);
        assert_eq!(scenarios[1].forecaster, ForecasterKind::Seasonal);
        assert_eq!(scenarios[1].slo_ms, 250.0);
        // Matrix sections inherit the forecaster and override the SLO.
        assert_eq!(scenarios[2].forecaster, ForecasterKind::Naive);
        assert_eq!(scenarios[2].slo_ms, 40.0);
        // Unknown forecasters list the valid names; bad SLOs error with
        // their line.
        let bad_forecaster = "\
[workload w]
class = batch

[scenario s]
workload = w
policy = forecast
regions = europe
forecaster = psychic
";
        let error = parse_scenario_file(bad_forecaster).unwrap_err();
        assert_eq!(error.line, 8);
        assert!(error.message.contains("unknown forecaster `psychic`"));
        assert!(error.message.contains("naive"), "{error}");
        assert!(error.message.contains("seasonal"), "{error}");
        let bad_slo = "\
[defaults]
slo_ms = -5
";
        let error = parse_scenario_file(bad_slo).unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("`slo_ms` must be positive"));
    }

    #[test]
    fn poisson_arrival_workloads_parse_and_run() {
        let text = "\
[workload bursty]
class = batch
per_origin = 6
arrival = poisson:0.1
length = 2
slack = day

[scenario bursty-agnostic]
workload = bursty
policy = agnostic
regions = europe
horizon = 480
";
        let data = builtin_dataset();
        let scenarios = parse_scenario_file(text).unwrap();
        assert_eq!(scenarios.len(), 1);
        let reports = SweepPlan::plan(&data, scenarios.clone())
            .unwrap()
            .execute(&data);
        assert_eq!(reports[0].jobs, 6 * 8);
        assert!(reports[0].completed > 0);
        // The recipe is part of the content address.
        let again = parse_scenario_file(text).unwrap();
        assert_eq!(scenarios[0].content_id(), again[0].content_id());
        let fixed =
            parse_scenario_file(&text.replace("arrival = poisson:0.1", "spacing = 24")).unwrap();
        assert_ne!(scenarios[0].content_id(), fixed[0].content_id());
    }

    #[test]
    fn unknown_policy_names_list_the_valid_set() {
        let text = "\
[workload w]
class = batch

[scenario s]
workload = w
policy = psychic
regions = europe
";
        let error = parse_scenario_file(text).unwrap_err();
        assert_eq!(error.line, 6);
        assert!(error.message.contains("unknown policy `psychic`"));
        assert!(error.message.contains("forecast"), "{error}");
        assert!(error.message.contains("spatiotemporal"), "{error}");
    }

    #[test]
    fn duplicate_scenario_ids_are_rejected() {
        let text = "\
[workload w]
class = batch

[scenario twin]
workload = w
policy = agnostic
regions = europe

[scenario twin]
workload = w
policy = deferral
regions = us
";
        let error = parse_scenario_file(text).unwrap_err();
        assert!(error.message.contains("duplicate scenario id `twin`"));
        // A matrix colliding with a single scenario is also caught.
        let matrix_clash = "\
[workload w]
class = batch

[scenario w-agnostic-europe]
workload = w
policy = agnostic
regions = europe

[matrix m]
workloads = w
policies = agnostic
regions = europe
";
        let error = parse_scenario_file(matrix_clash).unwrap_err();
        assert!(error
            .message
            .contains("duplicate scenario id `w-agnostic-europe`"));
    }

    #[test]
    fn empty_or_scenario_free_files_are_rejected() {
        assert!(parse_scenario_file("")
            .unwrap_err()
            .message
            .contains("no `[scenario]`"));
        let defs_only = "[workload w]\nclass = batch\n";
        assert!(parse_scenario_file(defs_only)
            .unwrap_err()
            .message
            .contains("no `[scenario]`"));
    }

    #[test]
    fn policies_all_expands_the_full_axis() {
        let text = "\
[workload w]
class = batch

[matrix m]
workloads = w
policies = all
regions = us
";
        let scenarios = parse_scenario_file(text).unwrap();
        assert_eq!(scenarios.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn custom_region_declarations_parse_and_run_end_to_end() {
        // A fully custom (non-catalog) region set: two hypothetical
        // grids declared inline, synthesized into the dataset, swept by
        // a matrix — no built-in zone involved anywhere.
        let text = "\
[region XX-HYDRO]
name = Hydrotopia
group = south-america
lat = -10.5
lon = -55.0
mean_ci = 45
daily_cv = 0.03
mix = hydro:0.8, wind:0.2

[region xx-coal]
name = Coalville
group = asia
lat = 30.0
lon = 110.0
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
";
        let file = parse_scenario_file_full(text).unwrap();
        assert_eq!(file.scenarios.len(), 2);
        assert_eq!(file.custom_regions.len(), 2);
        assert_eq!(file.custom_regions[0].code, "XX-HYDRO");
        assert_eq!(file.custom_regions[1].code, "XX-COAL", "codes upper-cased");
        // Against the plain builtin dataset the zones are unknown…
        let data = builtin_dataset();
        let err = file.scenarios[0].validate_against(&data).unwrap_err();
        assert!(err.contains("XX-HYDRO"), "{err}");
        // …but extending the dataset with the declared regions runs the
        // sweep end-to-end.
        let mut extended = (*data).clone();
        extended.extend_synthesized(
            file.custom_regions.clone(),
            decarb_traces::SynthConfig::default(),
        );
        assert_eq!(extended.len(), data.len() + 2);
        let reports = SweepPlan::plan(&extended, file.scenarios.clone())
            .unwrap()
            .execute(&extended);
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert_eq!(report.completed, report.jobs, "{}", report.name);
            assert!(report.total_emissions_g > 0.0);
        }
        // Routing away from Coalville toward Hydrotopia must pay off.
        let agnostic = reports.iter().find(|r| r.policy == "agnostic").unwrap();
        let greenest = reports.iter().find(|r| r.policy == "greenest").unwrap();
        assert!(
            greenest.average_ci < agnostic.average_ci,
            "greenest {} vs agnostic {}",
            greenest.average_ci,
            agnostic.average_ci
        );
        // The hypothetical grids' synthesized traces track their declared
        // calibration targets.
        let hydro = extended.series("XX-HYDRO").unwrap();
        let start = year_start(2022);
        let len = decarb_traces::time::hours_in_year(2022);
        let mean = hydro.window(start, len).unwrap().iter().sum::<f64>() / len as f64;
        assert!((mean - 45.0).abs() < 2.0, "synthesized mean {mean}");
    }

    #[test]
    fn duplicate_and_malformed_region_sections_error() {
        let dup = "\
[region XX]
[region xx]
";
        let error = parse_scenario_file_full(dup).unwrap_err();
        assert!(error.message.contains("duplicate region"), "{error}");
        let bad = "\
[region XX]
mix = plutonium:1
";
        let error = parse_scenario_file_full(bad).unwrap_err();
        assert!(error.message.contains("unknown energy source"), "{error}");
    }

    #[test]
    fn windows_past_the_slot_clock_are_rejected_with_their_line() {
        // The two windows that wrapped `Hour` arithmetic before they
        // were bounded: a start past the clock, and a horizon of
        // `usize::MAX` hours.
        let overflow = include_str!("../../../ci/scenario-seed/overflow.scenario");
        let error = parse_scenario_file(overflow).unwrap_err();
        assert_eq!(error.line, 24, "{error}");
        assert!(
            error.message.contains("`start_offset` 4294967295"),
            "{error}"
        );
        let base = "\
[workload w]
class = batch

[scenario s]
workload = w
policy = agnostic
regions = europe
";
        let horizon = format!("{base}horizon = 18446744073709551615\n");
        let error = parse_scenario_file(&horizon).unwrap_err();
        assert_eq!(error.line, 8, "{error}");
        assert!(
            error.message.contains("`horizon` 18446744073709551615"),
            "{error}"
        );

        // The bound counts 1-minute slots: the last hour the clock
        // addresses at 60 slots per hour closes the longest window.
        let room = CLOCK_HOURS - year_start(2022).index();
        let fits = format!("{base}horizon = {room}\n");
        assert_eq!(parse_scenario_file(&fits).unwrap()[0].horizon, room);
        let one_more = format!("{base}horizon = {}\n", room + 1);
        assert_eq!(parse_scenario_file(&one_more).unwrap_err().line, 8);

        // A window built from inherited halves anchors at the key that
        // breaks the sum, in [defaults], [scenario] and [matrix] alike
        // (the default horizon is 384 h).
        let late = format!("[defaults]\nstart_offset = {}\n", room - 384);
        let cases = [
            (format!("[defaults]\nstart_offset = {}\n", room + 1), 2),
            (format!("[defaults]\nstart_offset = {room}\n"), 1),
            (format!("{late}{base}horizon = 385\n"), 10),
            (
                format!(
                    "{late}\n[workload w]\nclass = batch\n\n[matrix m]\nworkloads = w\n\
                     policies = agnostic\nregions = europe\nhorizon = 385\n"
                ),
                11,
            ),
        ];
        for (text, line) in cases {
            let error = parse_scenario_file(&text).unwrap_err();
            assert_eq!(error.line, line, "{text}: {error}");
            assert!(error.message.contains("slot clock"), "{text}: {error}");
        }
    }

    #[test]
    fn unknown_keys_are_rejected_per_section() {
        let text = "\
[defaults]
frobnicate = 1
";
        let error = parse_scenario_file(text).unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("unknown key `frobnicate`"));
    }
}
