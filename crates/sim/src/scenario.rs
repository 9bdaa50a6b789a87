//! The scenario-matrix engine: declarative simulation configurations,
//! cartesian expansion, and parallel execution.
//!
//! The paper's central claim — shifting savings are small and
//! workload-dependent — only generalizes across *many* workload ×
//! policy × geography combinations. A [`Scenario`] names one such
//! combination declaratively (workload spec, policy, region set,
//! overheads, capacity, horizon); a [`ScenarioMatrix`] expands the
//! cartesian product — including overhead-model and capacity axes —
//! into named scenarios; [`crate::sweep::SweepPlan`] validates them and
//! fans them out across threads with `decarb_par` against one shared
//! dataset and a shared [`PlannerCache`], handing each condensed
//! [`ScenarioReport`] to a sink in input order as soon as it and every
//! report before it are done, so thousand-scenario sweeps stream
//! instead of buffering.
//! Reports serialize with `decarb_json` for machine consumers
//! (`decarb-cli scenario run all --json`, the CI emissions-regression
//! gate).
//!
//! Beyond the built-in matrix, users declare their own sweeps in
//! scenario files (see [`crate::scenario_file`]) with custom region
//! sets, workload recipes, and policy grids.

use std::time::{Duration, Instant};

use decarb_forecast::{Forecaster, Persistence, SeasonalNaive};
use decarb_json::Value;
use decarb_traces::time::{year_start, CLOCK_HOURS};
use decarb_traces::{Hour, RegionId, Resolution, TraceSet};
use decarb_workloads::{Arrival, Job, Slack, WorkloadSpec};

use crate::accounting::SimReport;
use crate::engine::{SimConfig, Simulator};
use crate::forecast_policy::ForecastDeferral;
use crate::overheads::OverheadModel;
use crate::planner_cache::{CachedDeferral, PlannerCache};
use crate::policy::{CarbonAgnostic, GreenestRouter, Policy, ThresholdSuspend};
use crate::spatiotemporal::SpatioTemporal;

/// Round-trip-time budget for the built-in spatiotemporal policy, ms —
/// generous enough for intra-continental migration, tight enough to
/// exclude antipodal hops.
pub const SPATIOTEMPORAL_SLO_MS: f64 = 120.0;

/// A named, fixed set of regions scenarios deploy datacenters in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionSet {
    /// Eight European zones spanning the continent's CI extremes.
    Europe,
    /// Six United States zones with hyperscale presence.
    UnitedStates,
    /// Ten zones across five continents.
    Global,
}

impl RegionSet {
    /// All built-in region sets, in display order.
    pub const ALL: [RegionSet; 3] = [
        RegionSet::Europe,
        RegionSet::UnitedStates,
        RegionSet::Global,
    ];

    /// Returns the set's short label (used in scenario names).
    pub fn label(self) -> &'static str {
        match self {
            RegionSet::Europe => "europe",
            RegionSet::UnitedStates => "us",
            RegionSet::Global => "global",
        }
    }

    /// Returns the zone codes in the set.
    pub fn codes(self) -> &'static [&'static str] {
        match self {
            RegionSet::Europe => &["SE", "DE", "FR", "GB", "PL", "ES", "NO", "FI"],
            RegionSet::UnitedStates => &["US-CA", "US-TX", "US-NY", "US-WA", "US-VA", "US-OR"],
            RegionSet::Global => &[
                "SE", "DE", "GB", "US-CA", "US-TX", "IN-WE", "JP-TK", "AU-NSW", "BR-S", "ZA",
            ],
        }
    }

    /// Parses a built-in region-set label.
    pub fn parse(label: &str) -> Result<RegionSet, String> {
        RegionSet::ALL
            .into_iter()
            .find(|set| set.label() == label)
            .ok_or_else(|| {
                let valid: Vec<&str> = RegionSet::ALL.iter().map(|s| s.label()).collect();
                format!("unknown region set `{label}` (valid: {})", valid.join(", "))
            })
    }
}

/// Where a scenario deploys: a built-in named set or a user-defined
/// list of zone codes (from a scenario file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionSpec {
    /// One of the built-in [`RegionSet`]s.
    Named(RegionSet),
    /// A custom set declared in a scenario file.
    Custom {
        /// The set's name (used in scenario names).
        label: String,
        /// Zone codes, resolved against the active dataset at run time.
        codes: Vec<String>,
    },
}

impl From<RegionSet> for RegionSpec {
    fn from(set: RegionSet) -> Self {
        RegionSpec::Named(set)
    }
}

impl RegionSpec {
    /// Returns the set's label (used in scenario names).
    pub fn label(&self) -> &str {
        match self {
            RegionSpec::Named(set) => set.label(),
            RegionSpec::Custom { label, .. } => label,
        }
    }

    /// Returns the zone codes in the set.
    pub fn codes(&self) -> Vec<&str> {
        match self {
            RegionSpec::Named(set) => set.codes().to_vec(),
            RegionSpec::Custom { codes, .. } => codes.iter().map(String::as_str).collect(),
        }
    }

    /// Resolves the set to interned ids against `data`, erroring on
    /// zones the dataset does not cover (custom sets and `--data`
    /// imports can miss).
    pub fn try_resolve(&self, data: &TraceSet) -> Result<Vec<RegionId>, String> {
        self.codes()
            .iter()
            .map(|code| {
                data.id_of(code).map_err(|_| {
                    format!(
                        "region set `{}`: zone `{code}` is not in the dataset",
                        self.label()
                    )
                })
            })
            .collect()
    }
}

/// Which scheduling policy a scenario drives the simulator with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Run immediately at the origin (the baseline).
    CarbonAgnostic,
    /// Clairvoyant deferral inside the origin region.
    PlannedDeferral,
    /// Online threshold suspend/resume at the origin.
    ThresholdSuspend,
    /// Route to the greenest region with free capacity at arrival.
    GreenestRouter,
    /// Forecast-driven deferral at the origin (seasonal-naive model —
    /// the online counterpart of the clairvoyant bound).
    ForecastDeferral,
    /// Greenest-within-SLO routing plus forecast deferral in the
    /// destination (§6.4 made online).
    SpatioTemporal,
}

impl PolicyKind {
    /// All built-in policies, baseline first.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::CarbonAgnostic,
        PolicyKind::PlannedDeferral,
        PolicyKind::ThresholdSuspend,
        PolicyKind::GreenestRouter,
        PolicyKind::ForecastDeferral,
        PolicyKind::SpatioTemporal,
    ];

    /// Returns the policy's short label (used in scenario names).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::CarbonAgnostic => "agnostic",
            PolicyKind::PlannedDeferral => "deferral",
            PolicyKind::ThresholdSuspend => "threshold",
            PolicyKind::GreenestRouter => "greenest",
            PolicyKind::ForecastDeferral => "forecast",
            PolicyKind::SpatioTemporal => "spatiotemporal",
        }
    }

    /// Parses a policy label (scenario files, CLI errors).
    pub fn parse(label: &str) -> Result<PolicyKind, String> {
        PolicyKind::ALL
            .into_iter()
            .find(|kind| kind.label() == label)
            .ok_or_else(|| {
                let valid: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.label()).collect();
                format!("unknown policy `{label}` (valid: {})", valid.join(", "))
            })
    }

    /// Builds the concrete policy a scenario runs and hands it to
    /// `work`. Forecast-backed policies plan with `forecaster`; the
    /// spatiotemporal router honors `slo_ms` over `regions`;
    /// clairvoyant deferral reads its planners from `cache`.
    pub(crate) fn build<W: WithPolicy>(
        self,
        data: &TraceSet,
        regions: &[RegionId],
        cache: &PlannerCache,
        forecaster: ForecasterKind,
        slo_ms: f64,
        work: W,
    ) -> W::Output {
        let model = || forecaster.model(data.resolution());
        match self {
            PolicyKind::CarbonAgnostic => work.with(CarbonAgnostic),
            PolicyKind::PlannedDeferral => work.with(CachedDeferral::new(cache)),
            PolicyKind::ThresholdSuspend => work.with(ThresholdSuspend::default()),
            PolicyKind::GreenestRouter => work.with(GreenestRouter),
            PolicyKind::ForecastDeferral => work.with(ForecastDeferral::new(model())),
            PolicyKind::SpatioTemporal => {
                work.with(SpatioTemporal::new(data, regions, slo_ms, model()))
            }
        }
    }
}

/// Work that runs with the concrete policy a [`PolicyKind`] names.
/// [`PolicyKind::build`] hands the policy over by value, so the engine
/// loop is compiled per policy and its per-hour `should_run` calls
/// inline rather than go through a vtable.
pub(crate) trait WithPolicy {
    /// What the work returns.
    type Output;
    /// Runs the work with `policy`.
    fn with<P: Policy>(self, policy: P) -> Self::Output;
}

/// [`Scenario::run_cached`]'s work: one engine run over the jobs.
struct RunJobs<'s, 'd> {
    sim: &'s mut Simulator<'d>,
    jobs: &'s [Job],
}

impl WithPolicy for RunJobs<'_, '_> {
    type Output = SimReport;

    fn with<P: Policy>(self, mut policy: P) -> SimReport {
        self.sim.run(&mut policy, self.jobs)
    }
}

/// Which forecasting model the forecast-backed policies plan with.
///
/// The built-in matrix uses the seasonal-naive model; scenario files
/// pick per scenario via the `forecaster` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForecasterKind {
    /// Persistence: tomorrow looks like the last observed hour.
    Naive,
    /// Seasonal-naive with a daily period (the built-in default).
    #[default]
    Seasonal,
}

impl ForecasterKind {
    /// Both forecaster choices, simplest first.
    pub const ALL: [ForecasterKind; 2] = [ForecasterKind::Naive, ForecasterKind::Seasonal];

    /// Returns the forecaster's short label (scenario files).
    pub fn label(self) -> &'static str {
        match self {
            ForecasterKind::Naive => "naive",
            ForecasterKind::Seasonal => "seasonal",
        }
    }

    /// Parses a forecaster label (scenario files).
    pub fn parse(label: &str) -> Result<ForecasterKind, String> {
        ForecasterKind::ALL
            .into_iter()
            .find(|kind| kind.label() == label)
            .ok_or_else(|| {
                let valid: Vec<&str> = ForecasterKind::ALL.iter().map(|k| k.label()).collect();
                format!("unknown forecaster `{label}` (valid: {})", valid.join(", "))
            })
    }

    /// The model on `resolution`'s axis. The seasonal period is one day
    /// of the dataset's slots: 24 hourly, 288 at 5-minute resolution.
    fn model(self, resolution: Resolution) -> Box<dyn Forecaster> {
        match self {
            ForecasterKind::Naive => Box::new(Persistence),
            ForecasterKind::Seasonal => Box::new(SeasonalNaive::daily_at(resolution)),
        }
    }
}

/// Which transition-overhead model a scenario charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadKind {
    /// The paper's idealization: all transitions are free.
    Zero,
    /// The checkpoint/restore + WAN-copy cost point of
    /// [`OverheadModel::realistic`].
    Realistic,
}

impl OverheadKind {
    /// Both overhead models, ideal first.
    pub const ALL: [OverheadKind; 2] = [OverheadKind::Zero, OverheadKind::Realistic];

    /// Returns the model's short label (used in scenario names).
    pub fn label(self) -> &'static str {
        match self {
            OverheadKind::Zero => "zero",
            OverheadKind::Realistic => "realistic",
        }
    }

    /// Returns the concrete energy-overhead model.
    pub fn model(self) -> OverheadModel {
        match self {
            OverheadKind::Zero => OverheadModel::ZERO,
            OverheadKind::Realistic => OverheadModel::realistic(),
        }
    }

    /// Parses an overhead-model label (scenario files).
    pub fn parse(label: &str) -> Result<OverheadKind, String> {
        OverheadKind::ALL
            .into_iter()
            .find(|kind| kind.label() == label)
            .ok_or_else(|| format!("unknown overhead model `{label}` (valid: zero, realistic)"))
    }
}

/// One fully specified simulation configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique name, `{workload}-{policy}-{regions}` for built-ins.
    pub name: String,
    /// The workload recipe (materialized against the region set).
    pub workload: WorkloadSpec,
    /// The scheduling policy.
    pub policy: PolicyKind,
    /// The deployed region set (every region is also a job origin).
    pub regions: RegionSpec,
    /// Transition-energy overhead model.
    pub overheads: OverheadKind,
    /// Concurrent running-job capacity per datacenter.
    pub capacity_per_region: usize,
    /// Forecasting model for the forecast-backed policies.
    pub forecaster: ForecasterKind,
    /// Round-trip-time budget for the spatiotemporal policy, ms.
    pub slo_ms: f64,
    /// First simulated hour (wall-clock; scaled to the dataset's slot
    /// axis at run time, so declarations are resolution-independent).
    pub start: Hour,
    /// Simulated hours (wall-clock, scaled like `start`).
    pub horizon: usize,
}

impl Scenario {
    /// One-line human description for `scenario list`.
    pub fn describe(&self) -> String {
        format!(
            "{} workload, {} policy, {} regions ({}), {} h horizon",
            self.workload.label(),
            self.policy.label(),
            self.regions.codes().len(),
            self.regions.label(),
            self.horizon,
        )
    }

    /// Checks the scenario can run against `data`: its window and every
    /// job's scheduling window end within [`CLOCK_HOURS`] (so slot
    /// arithmetic cannot wrap on any axis), its workload recipe passes
    /// [`WorkloadSpec::check_bounds`], and the dataset covers all of its
    /// zones.
    pub fn validate_against(&self, data: &TraceSet) -> Result<(), String> {
        if self.start.index().saturating_add(self.horizon) > CLOCK_HOURS {
            return Err(format!(
                "a {} h horizon from hour {} runs past the slot clock's end at hour \
                 {CLOCK_HOURS}",
                self.horizon, self.start.0
            ));
        }
        self.workload.check_bounds()?;
        let worst = self
            .workload
            .worst_case_completion_offset(self.regions.codes().len());
        if self.start.index().saturating_add(worst) > CLOCK_HOURS {
            return Err(format!(
                "jobs from hour {} may run until {worst} h after it, past the slot clock's \
                 end at hour {CLOCK_HOURS}",
                self.start.0
            ));
        }
        self.regions.try_resolve(data).map(|_| ())
    }

    /// The scenario's content-addressed id: a 64-bit FNV-1a hash of
    /// every field that influences the outcome, in canonical text form.
    ///
    /// Two scenarios with the same id run the same simulation, whatever
    /// file or matrix they were declared in — this is what the sweep
    /// pipeline shards and merges by (see [`crate::sweep`]).
    pub fn content_id(&self) -> String {
        fnv1a64(&format!("{};{}", self.name, self.outcome_canonical()))
    }

    /// The scenario's *outcome* id: [`Scenario::content_id`] minus the
    /// name. Two scenarios with the same outcome id run the exact same
    /// simulation under different labels — a dead matrix axis the
    /// static scenario checker flags (see [`crate::scenario_check`]).
    pub fn outcome_id(&self) -> String {
        fnv1a64(&self.outcome_canonical())
    }

    /// Canonical text form of every outcome-determining field, in the
    /// exact byte layout `content_id` has always hashed after the name.
    fn outcome_canonical(&self) -> String {
        format!(
            "{};{};[{}];{};{};{};{};{};{}",
            self.workload.canonical(),
            self.policy.label(),
            self.regions.codes().join(","),
            self.overheads.label(),
            self.capacity_per_region,
            self.forecaster.label(),
            self.slo_ms,
            self.start.0,
            self.horizon,
        )
    }

    /// Runs the scenario against `data` and condenses the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the dataset lacks one of the scenario's zones; call
    /// [`Scenario::validate_against`] first when the dataset is not the
    /// built-in one.
    pub fn run(&self, data: &TraceSet) -> ScenarioReport {
        self.run_cached(data, &PlannerCache::new())
    }

    /// [`Scenario::run`] against a shared [`PlannerCache`] (one cache
    /// per run and dataset — the scenario engine's hot path).
    pub fn run_cached(&self, data: &TraceSet, cache: &PlannerCache) -> ScenarioReport {
        let regions = self
            .regions
            .try_resolve(data)
            // decarb-analyze: allow(no-panic) -- documented: callers `validate_against` non-builtin datasets first
            .unwrap_or_else(|e| panic!("scenario `{}`: {e}", self.name));
        // Wall-clock hours → dataset slots, once at the edge. Scenario
        // declarations (and their content ids) stay in hours whatever
        // the dataset resolution; on hourly data this is the identity.
        let resolution = data.resolution();
        let sph = resolution.slots_per_hour();
        let start = Hour(self.start.0 * sph as u32);
        let horizon = self.horizon * sph;
        let jobs = self.workload.materialize_at(&regions, start, resolution);
        let config = SimConfig::new(start, horizon, self.capacity_per_region)
            .with_overheads(self.overheads.model());
        let mut sim = Simulator::new(data, &regions, config);
        let started = Instant::now();
        let report = self.policy.build(
            data,
            &regions,
            cache,
            self.forecaster,
            self.slo_ms,
            RunJobs {
                sim: &mut sim,
                jobs: &jobs,
            },
        );
        ScenarioReport::condense(self, jobs.len(), &report, started.elapsed())
    }
}

/// The condensed outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub name: String,
    /// The scenario's content-addressed id ([`Scenario::content_id`]).
    pub id: String,
    /// Workload class label.
    pub workload: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Region-set label.
    pub regions: String,
    /// Overhead-model label.
    pub overheads: &'static str,
    /// Concurrent running-job capacity per datacenter.
    pub capacity_per_region: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs completed within the horizon.
    pub completed: usize,
    /// Jobs unfinished at the horizon end.
    pub unfinished: usize,
    /// Completed jobs that finished past their slack deadline.
    pub missed_deadlines: usize,
    /// Job-hours stalled on missing trace coverage (see
    /// [`SimReport::stalled_hours`]).
    pub stalled_hours: usize,
    /// Cross-region migrations.
    pub migrations: usize,
    /// Suspend + resume transitions.
    pub transitions: usize,
    /// Energy delivered, kWh.
    pub total_energy_kwh: f64,
    /// Emissions, g·CO2eq.
    pub total_emissions_g: f64,
    /// Average CI of delivered energy, g/kWh.
    pub average_ci: f64,
    /// Mean slowdown of completed jobs.
    pub mean_slowdown: f64,
    /// Wall-clock runtime of the simulation.
    pub elapsed: Duration,
}

impl ScenarioReport {
    fn condense(
        scenario: &Scenario,
        jobs: usize,
        report: &SimReport,
        elapsed: Duration,
    ) -> ScenarioReport {
        ScenarioReport {
            name: scenario.name.clone(),
            id: scenario.content_id(),
            workload: scenario.workload.label(),
            policy: scenario.policy.label(),
            regions: scenario.regions.label().to_string(),
            overheads: scenario.overheads.label(),
            capacity_per_region: scenario.capacity_per_region,
            jobs,
            completed: report.completed_count(),
            unfinished: report.unfinished,
            missed_deadlines: report.missed_deadlines(),
            stalled_hours: report.stalled_hours,
            migrations: report.migrations,
            transitions: report.suspends + report.resumes,
            total_energy_kwh: report.total_energy_kwh,
            total_emissions_g: report.total_emissions_g,
            average_ci: report.average_ci(),
            mean_slowdown: report.mean_slowdown(),
            elapsed,
        }
    }

    /// The numeric fields of [`ScenarioReport::to_json`] that count
    /// things, so two runs of one scenario must agree on them exactly;
    /// every other numeric field but [`ScenarioReport::WALL_CLOCK_FIELD`]
    /// accumulates floats.
    pub const COUNT_FIELDS: [&'static str; 8] = [
        "capacity",
        "jobs",
        "completed",
        "unfinished",
        "missed_deadlines",
        "stalled_hours",
        "migrations",
        "transitions",
    ];

    /// The field holding the run's wall-clock time, which differs on
    /// every run.
    pub const WALL_CLOCK_FIELD: &'static str = "elapsed_s";

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("id", Value::from(self.id.as_str())),
            ("workload", Value::from(self.workload)),
            ("policy", Value::from(self.policy)),
            ("regions", Value::from(self.regions.as_str())),
            ("overheads", Value::from(self.overheads)),
            ("capacity", Value::from(self.capacity_per_region as f64)),
            ("jobs", Value::from(self.jobs as f64)),
            ("completed", Value::from(self.completed as f64)),
            ("unfinished", Value::from(self.unfinished as f64)),
            (
                "missed_deadlines",
                Value::from(self.missed_deadlines as f64),
            ),
            ("stalled_hours", Value::from(self.stalled_hours as f64)),
            ("migrations", Value::from(self.migrations as f64)),
            ("transitions", Value::from(self.transitions as f64)),
            ("energy_kwh", Value::from(self.total_energy_kwh)),
            ("emissions_g", Value::from(self.total_emissions_g)),
            ("avg_ci_g_per_kwh", Value::from(self.average_ci)),
            ("mean_slowdown", Value::from(self.mean_slowdown)),
            (
                Self::WALL_CLOCK_FIELD,
                Value::from(self.elapsed.as_secs_f64()),
            ),
        ])
    }
}

/// A cartesian grid of scenarios: every workload × policy × region set
/// × overhead model × capacity under a shared start/horizon.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Named workload recipes (one axis of the product). The name feeds
    /// scenario names; built-ins use the class label.
    pub workloads: Vec<(String, WorkloadSpec)>,
    /// Policies (second axis).
    pub policies: Vec<PolicyKind>,
    /// Region sets (third axis).
    pub region_sets: Vec<RegionSpec>,
    /// Overhead models (fourth axis; single-entry axes leave names
    /// unchanged).
    pub overheads: Vec<OverheadKind>,
    /// Per-datacenter capacities (fifth axis; single-entry axes leave
    /// names unchanged).
    pub capacities: Vec<usize>,
    /// Forecaster applied to every scenario (a setting, not an axis).
    pub forecaster: ForecasterKind,
    /// Spatiotemporal SLO applied to every scenario, ms.
    pub slo_ms: f64,
    /// Start hour applied to every scenario.
    pub start: Hour,
    /// Horizon applied to every scenario.
    pub horizon: usize,
}

impl ScenarioMatrix {
    /// Expands the cartesian product into named scenarios, workload-major
    /// in axis order. Names are `{workload}-{policy}-{regions}`, suffixed
    /// with `-{overheads}` and `-c{capacity}` only when the respective
    /// axis has more than one value (so built-in names stay stable).
    pub fn expand(&self) -> Vec<Scenario> {
        let mut scenarios = Vec::with_capacity(
            self.workloads.len()
                * self.policies.len()
                * self.region_sets.len()
                * self.overheads.len()
                * self.capacities.len(),
        );
        for (workload_name, workload) in &self.workloads {
            for &policy in &self.policies {
                for regions in &self.region_sets {
                    for &overheads in &self.overheads {
                        for &capacity in &self.capacities {
                            let mut name =
                                format!("{}-{}-{}", workload_name, policy.label(), regions.label());
                            if self.overheads.len() > 1 {
                                name.push('-');
                                name.push_str(overheads.label());
                            }
                            if self.capacities.len() > 1 {
                                name.push_str(&format!("-c{capacity}"));
                            }
                            scenarios.push(Scenario {
                                name,
                                workload: workload.clone(),
                                policy,
                                regions: regions.clone(),
                                overheads,
                                capacity_per_region: capacity,
                                forecaster: self.forecaster,
                                slo_ms: self.slo_ms,
                                start: self.start,
                                horizon: self.horizon,
                            });
                        }
                    }
                }
            }
        }
        scenarios
    }
}

/// FNV-1a, 64-bit, rendered as 16 hex digits: tiny, dependency-free,
/// and stable across platforms and compiler versions (unlike
/// `DefaultHasher`). Shared by [`Scenario::content_id`] and
/// [`Scenario::outcome_id`].
fn fnv1a64(canonical: &str) -> String {
    format!(
        "{:016x}",
        decarb_traces::container::fnv1a64(canonical.as_bytes())
    )
}

/// The built-in matrix: 3 workload classes × 6 policies × 3 region sets
/// = 54 scenarios over a 16-day window of the evaluation year.
pub fn builtin_matrix() -> ScenarioMatrix {
    let workloads = vec![
        WorkloadSpec::Batch {
            per_origin: 12,
            arrival: Arrival::fixed(24),
            length_hours: 8.0,
            slack: Slack::Day,
            interruptible: true,
        },
        WorkloadSpec::Interactive {
            per_origin: 48,
            arrival: Arrival::fixed(6),
        },
        WorkloadSpec::Mixed {
            per_origin: 24,
            arrival: Arrival::fixed(12),
            migratable_fraction: 0.5,
            batch_length_hours: 4.0,
            batch_slack: Slack::Day,
            seed: 0x5EED,
        },
    ];
    ScenarioMatrix {
        workloads: workloads
            .into_iter()
            .map(|w| (w.label().to_string(), w))
            .collect(),
        policies: PolicyKind::ALL.to_vec(),
        region_sets: RegionSet::ALL.iter().map(|&s| s.into()).collect(),
        overheads: vec![OverheadKind::Zero],
        capacities: vec![8],
        forecaster: ForecasterKind::Seasonal,
        slo_ms: SPATIOTEMPORAL_SLO_MS,
        start: year_start(2022),
        horizon: 16 * 24,
    }
}

/// The built-in scenario suite, expanded and named.
pub fn builtin_scenarios() -> Vec<Scenario> {
    builtin_matrix().expand()
}

/// Looks a built-in scenario up by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPlan;
    use decarb_traces::builtin_dataset;

    #[test]
    fn builtin_suite_names_are_unique_and_cover_the_product() {
        let scenarios = builtin_scenarios();
        assert_eq!(scenarios.len(), 54);
        assert!(scenarios.len() >= 24, "acceptance floor");
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
        for workload in ["batch", "interactive", "mixed"] {
            for policy in [
                "agnostic",
                "deferral",
                "threshold",
                "greenest",
                "forecast",
                "spatiotemporal",
            ] {
                for regions in ["europe", "us", "global"] {
                    let name = format!("{workload}-{policy}-{regions}");
                    assert!(scenarios.iter().any(|s| s.name == name), "missing {name}");
                }
            }
        }
    }

    #[test]
    fn builtin_horizons_cover_every_job_window() {
        // Every scenario's workload must fit inside its horizon so no
        // built-in run leaks unfinished jobs by construction.
        for s in builtin_scenarios() {
            let origins = s.regions.codes().len();
            let last = s.workload.last_arrival_offset(origins);
            // Worst case: arrive last, defer by full slack, run to length.
            assert!(
                last + 24 + 9 <= s.horizon,
                "{}: last arrival {last} too close to horizon {}",
                s.name,
                s.horizon
            );
        }
    }

    #[test]
    fn outcome_id_ignores_the_name_and_nothing_else() {
        let scenarios = builtin_scenarios();
        let a = &scenarios[0];
        let mut renamed = a.clone();
        renamed.name = "alias".into();
        // Same simulation under a different label: outcome ids agree,
        // content ids (which hash the name first) do not.
        assert_eq!(a.outcome_id(), renamed.outcome_id());
        assert_ne!(a.content_id(), renamed.content_id());
        // Any outcome-bearing field change moves both ids.
        let mut tweaked = a.clone();
        tweaked.horizon += 1;
        assert_ne!(a.outcome_id(), tweaked.outcome_id());
        assert_ne!(a.content_id(), tweaked.content_id());
        // The content hash still covers the exact historical byte
        // layout: name first, then the outcome canonical.
        assert_eq!(
            a.content_id(),
            fnv1a64(&format!("{};{}", a.name, a.outcome_canonical()))
        );
        // The 54 built-in scenarios are pairwise distinct outcomes.
        let mut ids: Vec<String> = scenarios.iter().map(Scenario::outcome_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), scenarios.len());
    }

    #[test]
    fn region_sets_resolve_against_builtin_dataset() {
        let data = builtin_dataset();
        for set in RegionSet::ALL {
            let regions = RegionSpec::from(set).try_resolve(&data).unwrap();
            assert_eq!(regions.len(), set.codes().len());
            assert!(!regions.is_empty());
        }
    }

    #[test]
    fn custom_region_specs_resolve_and_report_missing_zones() {
        let data = builtin_dataset();
        let nordics = RegionSpec::Custom {
            label: "nordics".into(),
            codes: vec!["SE".into(), "NO".into(), "FI".into()],
        };
        assert_eq!(nordics.label(), "nordics");
        assert_eq!(nordics.try_resolve(&data).unwrap().len(), 3);
        let bad = RegionSpec::Custom {
            label: "atlantis".into(),
            codes: vec!["SE".into(), "XX-NOPE".into()],
        };
        let err = bad.try_resolve(&data).unwrap_err();
        assert!(err.contains("XX-NOPE"), "{err}");
        assert!(err.contains("atlantis"), "{err}");
    }

    #[test]
    fn policy_and_axis_labels_parse_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()).unwrap(), kind);
        }
        let err = PolicyKind::parse("psychic").unwrap_err();
        assert!(err.contains("spatiotemporal"), "{err}");
        for kind in OverheadKind::ALL {
            assert_eq!(OverheadKind::parse(kind.label()).unwrap(), kind);
        }
        assert!(OverheadKind::parse("free").is_err());
        for set in RegionSet::ALL {
            assert_eq!(RegionSet::parse(set.label()).unwrap(), set);
        }
        assert!(RegionSet::parse("mars").is_err());
    }

    #[test]
    fn multi_value_axes_suffix_names() {
        let mut matrix = builtin_matrix();
        matrix.workloads.truncate(1);
        matrix.policies = vec![PolicyKind::ThresholdSuspend];
        matrix.region_sets = vec![RegionSet::Europe.into()];
        matrix.overheads = OverheadKind::ALL.to_vec();
        matrix.capacities = vec![4, 8];
        let scenarios = matrix.expand();
        assert_eq!(scenarios.len(), 4);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "batch-threshold-europe-zero-c4",
                "batch-threshold-europe-zero-c8",
                "batch-threshold-europe-realistic-c4",
                "batch-threshold-europe-realistic-c8",
            ]
        );
    }

    #[test]
    fn realistic_overheads_raise_transitioning_scenario_emissions() {
        let data = builtin_dataset();
        let mut zero = find_scenario("batch-threshold-us").unwrap();
        let ideal = zero.run(&data);
        zero.overheads = OverheadKind::Realistic;
        let costed = zero.run(&data);
        assert!(ideal.transitions > 0, "threshold policy must transition");
        assert_eq!(ideal.transitions, costed.transitions);
        assert!(
            costed.total_emissions_g > ideal.total_emissions_g,
            "charged transitions must cost carbon"
        );
    }

    #[test]
    fn find_scenario_roundtrips() {
        let s = find_scenario("batch-deferral-europe").expect("built-in name resolves");
        assert_eq!(s.policy, PolicyKind::PlannedDeferral);
        assert_eq!(s.regions, RegionSpec::Named(RegionSet::Europe));
        assert_eq!(s.workload.label(), "batch");
        assert!(find_scenario("batch-deferral-atlantis").is_none());
    }

    #[test]
    fn scenario_run_completes_all_jobs_and_serializes() {
        let data = builtin_dataset();
        let s = find_scenario("batch-agnostic-europe").unwrap();
        let report = s.run(&data);
        assert_eq!(report.jobs, 12 * 8);
        assert_eq!(report.completed, report.jobs);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.stalled_hours, 0);
        assert!(report.total_energy_kwh > 0.0);
        assert!(report.average_ci > 0.0);
        let json = report.to_json();
        assert_eq!(
            json.get("name"),
            Some(&Value::from("batch-agnostic-europe"))
        );
        assert_eq!(
            json.get("completed"),
            Some(&Value::from(report.jobs as f64))
        );
        assert_eq!(json.get("overheads"), Some(&Value::from("zero")));
        assert_eq!(json.get("capacity"), Some(&Value::from(8)));
    }

    #[test]
    fn carbon_aware_policies_do_not_exceed_the_baseline() {
        let data = builtin_dataset();
        let scenarios = builtin_scenarios()
            .into_iter()
            .filter(|s| {
                s.workload.label() == "batch" && s.regions == RegionSpec::Named(RegionSet::Europe)
            })
            .collect();
        let reports = SweepPlan::plan(&data, scenarios).unwrap().execute(&data);
        let ci_of = |policy: &str| {
            reports
                .iter()
                .find(|r| r.policy == policy)
                .expect("policy present")
                .average_ci
        };
        let base = ci_of("agnostic");
        assert!(ci_of("deferral") <= base + 1e-9);
        assert!(
            ci_of("threshold") <= base * 1.02,
            "online policy near baseline"
        );
        assert!(
            ci_of("greenest") < base,
            "routing to SE must help in Europe"
        );
        // Forecast deferral is non-clairvoyant: bounded below by the
        // clairvoyant deferral, and near the baseline at worst.
        assert!(ci_of("forecast") >= ci_of("deferral") - 1e-9);
        assert!(ci_of("forecast") <= base * 1.02);
        // Spatial routing dominates; adding forecast deferral on top
        // must not hurt materially.
        assert!(ci_of("spatiotemporal") < base);
    }

    #[test]
    fn sweep_plan_preserves_input_order() {
        let data = builtin_dataset();
        let scenarios: Vec<Scenario> = builtin_scenarios().into_iter().take(5).collect();
        let reports = SweepPlan::plan(&data, scenarios.clone())
            .unwrap()
            .execute(&data);
        assert_eq!(reports.len(), 5);
        for (s, r) in scenarios.iter().zip(&reports) {
            assert_eq!(s.name, r.name);
        }
    }

    #[test]
    fn streaming_runner_emits_every_report_in_order() {
        let data = builtin_dataset();
        let scenarios: Vec<Scenario> = builtin_scenarios()
            .into_iter()
            .filter(|s| s.regions == RegionSpec::Named(RegionSet::UnitedStates))
            .collect();
        let mut seen = Vec::new();
        let plan = SweepPlan::plan(&data, scenarios.clone()).unwrap();
        plan.execute_with(&data, |report| {
            seen.push(report.name.clone());
            true
        });
        let expected: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn streaming_runner_aborts_when_the_sink_declines() {
        let data = builtin_dataset();
        let scenarios = builtin_scenarios();
        let mut delivered = 0usize;
        let plan = SweepPlan::plan(&data, scenarios.clone()).unwrap();
        plan.execute_with(&data, |_| {
            delivered += 1;
            delivered < 3
        });
        // The sweep starts no scenario after the sink declines the
        // third report, and hands it no further report, instead of
        // running all 54 scenarios.
        assert!(delivered >= 3);
        assert!(delivered < scenarios.len(), "sweep must abort early");
    }

    #[test]
    fn five_minute_replica_matches_hourly_for_every_policy_kind() {
        // The tentpole equivalence property: a 5-minute dataset whose
        // values are each hour's CI repeated 12× carries the same
        // physical signal, so every policy must produce bit-identical
        // total emissions and the same placements, completions, and
        // transitions as the hourly run. Integer CI values and integer
        // job lengths keep every accumulation exact, so "bit-identical"
        // is meaningful rather than within-epsilon.
        let start = year_start(2022);
        let mut state = 0x0dde_5115_c0ff_ee00_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 700 + 40) as f64
        };
        let pairs = ["DE", "SE", "PL"]
            .iter()
            .map(|code| {
                let region = decarb_traces::catalog::region(code).unwrap().clone();
                let values: Vec<f64> = (0..24 * 70).map(|_| next()).collect();
                (region, decarb_traces::TimeSeries::new(start, values))
            })
            .collect();
        let hourly = TraceSet::from_series(pairs);
        let fine = hourly
            .resample_to(decarb_traces::Resolution::from_minutes(5).unwrap())
            .unwrap();
        let regions = RegionSpec::Custom {
            label: "trio".into(),
            codes: vec!["DE".into(), "SE".into(), "PL".into()],
        };
        for kind in PolicyKind::ALL {
            let scenario = Scenario {
                name: format!("replica-{}", kind.label()),
                workload: WorkloadSpec::Batch {
                    per_origin: 6,
                    arrival: Arrival::fixed(24),
                    length_hours: 8.0,
                    slack: Slack::Day,
                    interruptible: true,
                },
                policy: kind,
                regions: regions.clone(),
                overheads: OverheadKind::Zero,
                capacity_per_region: 8,
                forecaster: ForecasterKind::Seasonal,
                slo_ms: SPATIOTEMPORAL_SLO_MS,
                // Mid-dataset so the forecast policies have a month of
                // history behind them.
                start: start.plus(35 * 24),
                horizon: 16 * 24,
            };
            let coarse = scenario.run(&hourly);
            let replica = scenario.run(&fine);
            let label = kind.label();
            assert_eq!(
                coarse.total_emissions_g, replica.total_emissions_g,
                "{label}: emissions must be bit-identical"
            );
            assert_eq!(
                coarse.total_energy_kwh, replica.total_energy_kwh,
                "{label}: energy must be bit-identical"
            );
            assert_eq!(coarse.completed, replica.completed, "{label}");
            assert_eq!(coarse.unfinished, replica.unfinished, "{label}");
            assert_eq!(coarse.missed_deadlines, replica.missed_deadlines, "{label}");
            assert_eq!(coarse.migrations, replica.migrations, "{label}");
            assert_eq!(coarse.transitions, replica.transitions, "{label}");
            assert_eq!(coarse.jobs, replica.jobs, "{label}: same population");
            assert_eq!(coarse.completed, coarse.jobs, "{label}: all complete");
        }
    }

    #[test]
    fn interactive_scenarios_pin_jobs_to_origin() {
        let data = builtin_dataset();
        let report = find_scenario("interactive-greenest-us").unwrap().run(&data);
        assert_eq!(report.migrations, 0, "interactive jobs never migrate");
        assert_eq!(report.completed, report.jobs);
    }
}
