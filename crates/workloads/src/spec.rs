//! Declarative workload specifications for scenario sweeps.
//!
//! A [`WorkloadSpec`] is a recipe, not a job list: it describes a
//! population shape (class mix, length, slack, cadence) and is
//! materialized against a concrete set of origin regions when a
//! scenario runs. The same spec therefore reuses cleanly across region
//! sets of different sizes, which is what the scenario matrix needs.

use decarb_traces::rng::Xoshiro256;
use decarb_traces::time::CLOCK_HOURS;
use decarb_traces::{Hour, RegionId, Resolution};

use crate::job::{Job, Slack};

/// Default RNG seed for Poisson arrival processes (overridable via the
/// scenario-file `arrival_seed` key).
pub const DEFAULT_ARRIVAL_SEED: u64 = 0xA221;

/// The most jobs one origin may submit: 2^20, about two a minute for a
/// year. Far above any shipped recipe (the largest submits 1,400), and
/// small enough that sizing a recipe's horizon stays a brief pass.
pub const MAX_PER_ORIGIN: usize = 1 << 20;

/// When one origin submits its jobs: a fixed cadence or a seeded
/// Poisson process.
///
/// Both materialize deterministically — the Poisson variant draws its
/// exponential interarrival gaps from a seeded RNG (re-seeded per
/// origin), so the same spec always yields the same job population.
/// Origins are staggered by one hour each so arrivals do not all land
/// on the same instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// One submission every `spacing_hours` hours.
    Fixed {
        /// Hours between consecutive submissions from one origin.
        spacing_hours: usize,
    },
    /// Exponential interarrival gaps with mean `1 / rate_per_hour`.
    Poisson {
        /// Mean submissions per hour from one origin.
        rate_per_hour: f64,
        /// RNG seed the per-origin streams derive from.
        seed: u64,
    },
    /// Bursts of `burst_size` simultaneous submissions whose epochs
    /// follow exponential gaps with mean `burst_size / rate_per_hour`,
    /// so the long-run job rate matches `rate_per_hour`.
    Bursty {
        /// Mean submissions per hour from one origin (long-run).
        rate_per_hour: f64,
        /// Jobs submitted together at each burst epoch.
        burst_size: usize,
        /// RNG seed the per-origin streams derive from.
        seed: u64,
    },
    /// A day/night-modulated Poisson process: the instantaneous rate is
    /// `rate_per_hour × (1 + amplitude · sin(2π(h−6)/24))`, peaking at
    /// local noon and bottoming out overnight.
    Diurnal {
        /// Mean submissions per hour from one origin (daily average).
        rate_per_hour: f64,
        /// Modulation depth in `[0, 1]` (0 = plain Poisson).
        amplitude: f64,
        /// RNG seed the per-origin streams derive from.
        seed: u64,
    },
}

impl Arrival {
    /// The fixed-cadence arrival process (the built-in matrix's choice).
    pub fn fixed(spacing_hours: usize) -> Arrival {
        Arrival::Fixed { spacing_hours }
    }

    /// Parses an arrival recipe: `fixed:<hours>`, `poisson:<rate>`,
    /// `bursty:<rate>,<burst-size>`, or `diurnal:<rate>,<amplitude>`
    /// (rates in jobs per hour; random recipes are seeded with
    /// [`DEFAULT_ARRIVAL_SEED`], overridable via `arrival_seed`).
    pub fn parse(raw: &str) -> Result<Arrival, String> {
        let (kind, value) = raw.split_once(':').unwrap_or((raw, ""));
        let positive_rate = |text: &str| {
            text.trim()
                .parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r > 0.0)
        };
        match kind.trim() {
            "fixed" => value
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&h| h >= 1)
                .map(|spacing_hours| Arrival::Fixed { spacing_hours })
                .ok_or_else(|| format!("invalid arrival `{raw}` (use fixed:<hours ≥ 1>)")),
            "poisson" => value
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r > 0.0)
                .map(|rate_per_hour| Arrival::Poisson {
                    rate_per_hour,
                    seed: DEFAULT_ARRIVAL_SEED,
                })
                .ok_or_else(|| format!("invalid arrival `{raw}` (use poisson:<jobs per hour>)")),
            "bursty" => {
                let invalid =
                    || format!("invalid arrival `{raw}` (use bursty:<rate>,<burst-size ≥ 1>)");
                let (rate, burst) = value.split_once(',').ok_or_else(invalid)?;
                let rate_per_hour = positive_rate(rate).ok_or_else(invalid)?;
                let burst_size = burst
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&b| b >= 1)
                    .ok_or_else(invalid)?;
                Ok(Arrival::Bursty {
                    rate_per_hour,
                    burst_size,
                    seed: DEFAULT_ARRIVAL_SEED,
                })
            }
            "diurnal" => {
                let invalid = || {
                    format!("invalid arrival `{raw}` (use diurnal:<rate>,<amplitude in [0, 1]>)")
                };
                let (rate, amp) = value.split_once(',').ok_or_else(invalid)?;
                let rate_per_hour = positive_rate(rate).ok_or_else(invalid)?;
                let amplitude = amp
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|a| (0.0..=1.0).contains(a))
                    .ok_or_else(invalid)?;
                Ok(Arrival::Diurnal {
                    rate_per_hour,
                    amplitude,
                    seed: DEFAULT_ARRIVAL_SEED,
                })
            }
            other => Err(format!(
                "unknown arrival recipe `{other}` (valid: fixed:<hours>, poisson:<rate>, \
                 bursty:<rate>,<burst-size>, diurnal:<rate>,<amplitude>)"
            )),
        }
    }

    /// Canonical text form, stable across runs — feeds scenario
    /// content-addressing.
    pub fn canonical(&self) -> String {
        match self {
            Arrival::Fixed { spacing_hours } => format!("fixed:{spacing_hours}"),
            Arrival::Poisson {
                rate_per_hour,
                seed,
            } => format!("poisson:{rate_per_hour}:{seed}"),
            Arrival::Bursty {
                rate_per_hour,
                burst_size,
                seed,
            } => format!("bursty:{rate_per_hour}:{burst_size}:{seed}"),
            Arrival::Diurnal {
                rate_per_hour,
                amplitude,
                seed,
            } => format!("diurnal:{rate_per_hour}:{amplitude}:{seed}"),
        }
    }

    /// The per-origin RNG for the seeded recipes: an independent stream
    /// per origin, decorrelated by mixing the origin index through a
    /// SplitMix64 constant while staying deterministic.
    fn origin_rng(seed: u64, origin_index: usize) -> Xoshiro256 {
        Xoshiro256::seeded(seed ^ (origin_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Arrival offsets (hours past the population start) for origin
    /// number `origin_index` submitting `count` jobs. Offsets are
    /// non-decreasing and deterministic.
    pub fn offsets(&self, count: usize, origin_index: usize) -> Vec<usize> {
        match self {
            Arrival::Fixed { spacing_hours } => (0..count)
                .map(|k| origin_index + k * spacing_hours)
                .collect(),
            Arrival::Poisson {
                rate_per_hour,
                seed,
            } => {
                let mut rng = Self::origin_rng(*seed, origin_index);
                let mut t = origin_index as f64;
                (0..count)
                    .map(|_| {
                        // Inverse-CDF exponential gap; uniform() < 1, so
                        // ln(1 - u) is finite.
                        t += -(1.0 - rng.uniform()).ln() / rate_per_hour;
                        t.round() as usize
                    })
                    .collect()
            }
            Arrival::Bursty {
                rate_per_hour,
                burst_size,
                seed,
            } => {
                let mut rng = Self::origin_rng(*seed, origin_index);
                let mut t = origin_index as f64;
                // Burst epochs keep the long-run job rate at
                // `rate_per_hour` by spacing bursts `burst_size / rate`
                // apart on average.
                let epoch_rate = rate_per_hour / *burst_size as f64;
                let mut offsets = Vec::with_capacity(count);
                while offsets.len() < count {
                    t += -(1.0 - rng.uniform()).ln() / epoch_rate;
                    let epoch = t.round() as usize;
                    for _ in 0..*burst_size {
                        if offsets.len() == count {
                            break;
                        }
                        offsets.push(epoch);
                    }
                }
                offsets
            }
            Arrival::Diurnal {
                rate_per_hour,
                amplitude,
                seed,
            } => {
                let mut rng = Self::origin_rng(*seed, origin_index);
                // Time-rescaled inhomogeneous Poisson: draw unit-rate
                // exponential targets in integrated-intensity space and
                // advance hour by hour until the running integral of
                // λ(h) = rate·(1 + amplitude·sin(2π(h−6)/24)) covers
                // them — λ is non-negative for amplitude ≤ 1.
                let lambda = |hour: usize| {
                    let phase = 2.0 * std::f64::consts::PI * ((hour % 24) as f64 - 6.0) / 24.0;
                    rate_per_hour * (1.0 + amplitude * phase.sin())
                };
                let mut hour = origin_index;
                let mut integral = 0.0f64;
                let mut target = 0.0f64;
                (0..count)
                    .map(|_| {
                        target += -(1.0 - rng.uniform()).ln();
                        while integral < target {
                            integral += lambda(hour).max(1e-12);
                            hour += 1;
                        }
                        hour - 1
                    })
                    .collect()
            }
        }
    }

    /// The largest arrival offset any of `origins` origins submitting
    /// `count` jobs each can have, for sizing scenario horizons. The
    /// arithmetic saturates, so an offset past `usize::MAX` reads as
    /// `usize::MAX`, which no horizon or slot clock admits.
    pub fn last_offset(&self, count: usize, origins: usize) -> usize {
        match self {
            Arrival::Fixed { spacing_hours } => count
                .saturating_sub(1)
                .saturating_mul(*spacing_hours)
                .saturating_add(origins.saturating_sub(1)),
            Arrival::Poisson { .. } | Arrival::Bursty { .. } | Arrival::Diurnal { .. } => (0
                ..origins.max(1))
                .map(|o| self.offsets(count, o).last().copied().unwrap_or(0))
                .max()
                .unwrap_or(0),
        }
    }

    /// Checks that `count` submissions from one origin are expected to
    /// arrive within the slot clock: the last fixed-cadence offset, or
    /// the mean time the random recipes take to draw `count` arrivals,
    /// must not pass [`CLOCK_HOURS`].
    pub fn check_span(&self, count: usize) -> Result<(), String> {
        let gaps = count.saturating_sub(1) as f64;
        let span = match self {
            Arrival::Fixed { spacing_hours } => gaps * *spacing_hours as f64,
            Arrival::Poisson { rate_per_hour, .. } | Arrival::Diurnal { rate_per_hour, .. } => {
                count as f64 / rate_per_hour
            }
            Arrival::Bursty {
                rate_per_hour,
                burst_size,
                ..
            } => count.div_ceil(*burst_size) as f64 * *burst_size as f64 / rate_per_hour,
        };
        if !span.is_finite() || span > CLOCK_HOURS as f64 {
            return Err(format!(
                "{count} arrivals on `{}` span about {span:.0} h, past the slot clock's end \
                 ({CLOCK_HOURS} h)",
                self.canonical()
            ));
        }
        Ok(())
    }
}

/// A workload recipe that [`WorkloadSpec::from_pairs`] rejects, with
/// the key to blame when one is (the section header otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeError {
    /// The offending key, if the error is about one value.
    pub key: Option<&'static str>,
    /// Human-readable description.
    pub message: String,
}

impl RecipeError {
    fn at(key: &'static str, message: impl Into<String>) -> Self {
        Self {
            key: Some(key),
            message: message.into(),
        }
    }
}

impl From<String> for RecipeError {
    fn from(message: String) -> Self {
        Self { key: None, message }
    }
}

impl From<&str> for RecipeError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

impl std::fmt::Display for RecipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// A declarative recipe for a population of jobs.
///
/// Every variant submits `per_origin` jobs from each origin region on
/// its [`Arrival`] process (fixed cadence or seeded Poisson).
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Identical delay-tolerant batch jobs.
    Batch {
        /// Jobs submitted per origin region.
        per_origin: usize,
        /// Submission process for each origin.
        arrival: Arrival,
        /// Job length in hours.
        length_hours: f64,
        /// Temporal slack class.
        slack: Slack,
        /// Whether jobs may be suspended and resumed.
        interruptible: bool,
    },
    /// Latency-sensitive interactive requests (no flexibility at all).
    Interactive {
        /// Jobs submitted per origin region.
        per_origin: usize,
        /// Submission process for each origin.
        arrival: Arrival,
    },
    /// A seeded random mix of migratable batch work and pinned
    /// interactive requests (§6.1's what-if, as a population).
    Mixed {
        /// Jobs submitted per origin region.
        per_origin: usize,
        /// Submission process for each origin.
        arrival: Arrival,
        /// Probability that a submission is batch work, in `[0, 1]`.
        migratable_fraction: f64,
        /// Job length of the batch portion, hours.
        batch_length_hours: f64,
        /// Slack of the batch portion.
        batch_slack: Slack,
        /// RNG seed, so materialization is deterministic.
        seed: u64,
    },
}

/// Checks `per_origin` lies in `1..=`[`MAX_PER_ORIGIN`].
fn check_per_origin(per_origin: usize) -> Result<(), RecipeError> {
    if per_origin == 0 {
        return Err(RecipeError::at(
            "per_origin",
            "`per_origin` must be at least 1",
        ));
    }
    if per_origin > MAX_PER_ORIGIN {
        return Err(RecipeError::at(
            "per_origin",
            format!(
                "`per_origin` {per_origin} exceeds the {MAX_PER_ORIGIN} jobs one origin may submit"
            ),
        ));
    }
    Ok(())
}

/// Key-value view used by [`WorkloadSpec::from_pairs`]: lookup with
/// per-key parse errors and leftover-key detection.
struct Pairs<'a> {
    pairs: &'a [(String, String)],
    used: Vec<bool>,
}

impl<'a> Pairs<'a> {
    fn new(pairs: &'a [(String, String)]) -> Self {
        Self {
            pairs,
            used: vec![false; pairs.len()],
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a str> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        self.used[i] = true;
        Some(self.pairs[i].1.as_str())
    }

    fn parsed<T: std::str::FromStr>(
        &mut self,
        key: &'static str,
        default: T,
    ) -> Result<T, RecipeError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                RecipeError::at(
                    key,
                    format!("invalid value `{raw}` for workload key `{key}`"),
                )
            }),
        }
    }

    fn finish(self) -> Result<(), RecipeError> {
        match self.used.iter().position(|&u| !u) {
            Some(i) => Err(format!("unknown workload key `{}`", self.pairs[i].0).into()),
            None => Ok(()),
        }
    }
}

impl WorkloadSpec {
    /// Builds a spec from scenario-file `key = value` pairs.
    ///
    /// The `class` key selects the variant (`batch` / `interactive` /
    /// `mixed`); the remaining keys fill its fields, with the built-in
    /// matrix's values as defaults. Unknown keys, unparseable values,
    /// out-of-range fractions and recipes past
    /// [`WorkloadSpec::check_bounds`] are errors.
    pub fn from_pairs(pairs: &[(String, String)]) -> Result<WorkloadSpec, RecipeError> {
        let mut p = Pairs::new(pairs);
        let class = p.get("class").ok_or("workload section needs `class`")?;
        let per_origin: usize = p.parsed("per_origin", 12)?;
        check_per_origin(per_origin)?;
        let arrival_key = if p.get("spacing").is_some() {
            "spacing"
        } else {
            "arrival"
        };
        let arrival_seed: Option<u64> = match p.get("arrival_seed") {
            None => None,
            Some(_) => Some(p.parsed("arrival_seed", 0)?),
        };
        let mut arrival = match (p.get("spacing"), p.get("arrival")) {
            (Some(_), Some(_)) => {
                return Err("pass `spacing` or `arrival`, not both".into());
            }
            (Some(_), None) => {
                let spacing_hours: usize = p.parsed("spacing", 24)?;
                if spacing_hours == 0 {
                    return Err(RecipeError::at("spacing", "`spacing` must be at least 1"));
                }
                Arrival::Fixed { spacing_hours }
            }
            (None, Some(raw)) => Arrival::parse(raw).map_err(|e| RecipeError::at("arrival", e))?,
            (None, None) => Arrival::fixed(24),
        };
        match (&mut arrival, arrival_seed) {
            (
                Arrival::Poisson { seed, .. }
                | Arrival::Bursty { seed, .. }
                | Arrival::Diurnal { seed, .. },
                Some(override_seed),
            ) => *seed = override_seed,
            (_, None) => {}
            (Arrival::Fixed { .. }, Some(_)) => {
                return Err(RecipeError::at(
                    "arrival_seed",
                    "`arrival_seed` only applies to poisson, bursty, and diurnal arrivals",
                ));
            }
        }
        arrival
            .check_span(per_origin)
            .map_err(|e| RecipeError::at(arrival_key, e))?;
        let spec = match class {
            "batch" => {
                let length_hours: f64 = p.parsed("length", 8.0)?;
                if !length_hours.is_finite() || length_hours <= 0.0 {
                    return Err(RecipeError::at("length", "`length` must be positive"));
                }
                let slack = match p.get("slack") {
                    Some(raw) => Slack::parse(raw).map_err(|e| RecipeError::at("slack", e))?,
                    None => Slack::Day,
                };
                WorkloadSpec::Batch {
                    per_origin,
                    arrival,
                    length_hours,
                    slack,
                    interruptible: p.parsed("interruptible", true)?,
                }
            }
            "interactive" => WorkloadSpec::Interactive {
                per_origin,
                arrival,
            },
            "mixed" => {
                let migratable_fraction: f64 = p.parsed("migratable_fraction", 0.5)?;
                if !(0.0..=1.0).contains(&migratable_fraction) {
                    return Err(RecipeError::at(
                        "migratable_fraction",
                        "`migratable_fraction` must lie in [0, 1]",
                    ));
                }
                let batch_length_hours: f64 = p.parsed("length", 4.0)?;
                if !batch_length_hours.is_finite() || batch_length_hours <= 0.0 {
                    return Err(RecipeError::at("length", "`length` must be positive"));
                }
                let batch_slack = match p.get("slack") {
                    Some(raw) => Slack::parse(raw).map_err(|e| RecipeError::at("slack", e))?,
                    None => Slack::Day,
                };
                WorkloadSpec::Mixed {
                    per_origin,
                    arrival,
                    migratable_fraction,
                    batch_length_hours,
                    batch_slack,
                    seed: p.parsed("seed", 0x5EED)?,
                }
            }
            other => {
                return Err(RecipeError::at(
                    "class",
                    format!("unknown workload class `{other}` (valid: batch, interactive, mixed)"),
                ))
            }
        };
        p.finish()?;
        Ok(spec)
    }

    /// Returns the spec's class label (`batch` / `interactive` / `mixed`).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::Batch { .. } => "batch",
            WorkloadSpec::Interactive { .. } => "interactive",
            WorkloadSpec::Mixed { .. } => "mixed",
        }
    }

    /// Returns the number of jobs each origin submits.
    pub fn per_origin(&self) -> usize {
        match self {
            WorkloadSpec::Batch { per_origin, .. }
            | WorkloadSpec::Interactive { per_origin, .. }
            | WorkloadSpec::Mixed { per_origin, .. } => *per_origin,
        }
    }

    /// Returns the number of jobs materialized for `origins` origin
    /// regions.
    pub fn job_count(&self, origins: usize) -> usize {
        self.per_origin() * origins
    }

    /// Checks the recipe fits the slot clock: `per_origin` lies in
    /// `1..=`[`MAX_PER_ORIGIN`] and its arrivals pass
    /// [`Arrival::check_span`]. Scenario files reject a recipe that
    /// fails at parse time; `decarb_sim::Scenario::validate_against`
    /// rejects one built in code.
    pub fn check_bounds(&self) -> Result<(), String> {
        check_per_origin(self.per_origin()).map_err(|e| e.message)?;
        self.arrival().check_span(self.per_origin())
    }

    /// Returns the spec's arrival process.
    pub fn arrival(&self) -> &Arrival {
        match self {
            WorkloadSpec::Batch { arrival, .. }
            | WorkloadSpec::Interactive { arrival, .. }
            | WorkloadSpec::Mixed { arrival, .. } => arrival,
        }
    }

    /// Returns the largest arrival offset (hours past `start`) any
    /// materialized job can have, for sizing scenario horizons.
    pub fn last_arrival_offset(&self, origins: usize) -> usize {
        self.arrival().last_offset(self.per_origin(), origins)
    }

    /// Returns the latest offset (hours past the scenario start) at
    /// which any materialized job may legitimately still be running:
    /// the last arrival plus the worst job's full scheduling window
    /// (slack + runtime, via [`Job::window_hours`]). A scenario horizon
    /// at or above this value gives every job — even one deferred to
    /// the end of its slack — room to finish; a smaller horizon makes
    /// some deadlines structurally unreachable inside the simulation.
    pub fn worst_case_completion_offset(&self, origins: usize) -> usize {
        let last = self.last_arrival_offset(origins);
        // Probe jobs share the scheduling math with `materialize` so
        // the bound cannot drift from what the engine actually sees.
        let window = match self {
            WorkloadSpec::Batch {
                length_hours,
                slack,
                ..
            } => Job::batch(0, RegionId(0), Hour(0), *length_hours, *slack).window_hours(),
            WorkloadSpec::Interactive { .. } => {
                Job::interactive(0, RegionId(0), Hour(0)).window_hours()
            }
            WorkloadSpec::Mixed {
                batch_length_hours,
                batch_slack,
                ..
            } => Job::batch(0, RegionId(0), Hour(0), *batch_length_hours, *batch_slack)
                .window_hours()
                .max(Job::interactive(0, RegionId(0), Hour(0)).window_hours()),
        };
        last.saturating_add(window)
    }

    /// Every key [`WorkloadSpec::from_pairs`] understands, across all
    /// classes — the vocabulary behind the scenario checker's
    /// unknown-key suggestions.
    pub const KNOWN_KEYS: &'static [&'static str] = &[
        "class",
        "per_origin",
        "spacing",
        "arrival",
        "arrival_seed",
        "length",
        "slack",
        "interruptible",
        "migratable_fraction",
        "seed",
    ];

    /// Canonical text form of the whole recipe, stable across runs —
    /// feeds scenario content-addressing in `decarb-sim`.
    pub fn canonical(&self) -> String {
        match self {
            WorkloadSpec::Batch {
                per_origin,
                arrival,
                length_hours,
                slack,
                interruptible,
            } => format!(
                "batch:{per_origin}:{}:{length_hours}:{}:{interruptible}",
                arrival.canonical(),
                slack.label(),
            ),
            WorkloadSpec::Interactive {
                per_origin,
                arrival,
            } => format!("interactive:{per_origin}:{}", arrival.canonical()),
            WorkloadSpec::Mixed {
                per_origin,
                arrival,
                migratable_fraction,
                batch_length_hours,
                batch_slack,
                seed,
            } => format!(
                "mixed:{per_origin}:{}:{migratable_fraction}:{batch_length_hours}:{}:{seed}",
                arrival.canonical(),
                batch_slack.label(),
            ),
        }
    }

    /// Materializes the spec into concrete jobs submitted from every
    /// origin, starting at `start`. Job ids are unique across the whole
    /// population and the result is deterministic.
    pub fn materialize(&self, origins: &[RegionId], start: Hour) -> Vec<Job> {
        self.materialize_at(origins, start, Resolution::HOURLY)
    }

    /// Materializes the spec onto a sub-hourly slot axis: `start` is a
    /// *slot* index and each hourly arrival offset lands on its
    /// hour-aligned slot (`offset × slots_per_hour`). Arrival recipes
    /// keep their hourly cadence — finer resolution refines the carbon
    /// axis, not the submission process — so a sub-hourly run sees the
    /// same population as its hourly counterpart, just addressed in
    /// slots. At [`Resolution::HOURLY`] this is exactly
    /// [`WorkloadSpec::materialize`].
    pub fn materialize_at(
        &self,
        origins: &[RegionId],
        start: Hour,
        resolution: Resolution,
    ) -> Vec<Job> {
        let slots_per_hour = resolution.slots_per_hour();
        let mut jobs = Vec::with_capacity(self.job_count(origins.len()));
        let mut id = 0u64;
        let mut rng = match self {
            WorkloadSpec::Mixed { seed, .. } => Xoshiro256::seeded(*seed),
            _ => Xoshiro256::seeded(0),
        };
        for (o, &origin) in origins.iter().enumerate() {
            let offsets = self.arrival().offsets(self.per_origin(), o);
            for &offset in &offsets {
                id += 1;
                let arrival = start.plus(offset * slots_per_hour);
                jobs.push(match self {
                    WorkloadSpec::Batch {
                        length_hours,
                        slack,
                        interruptible,
                        ..
                    } => {
                        let job = Job::batch(id, origin, arrival, *length_hours, *slack);
                        if *interruptible {
                            job.with_interruptible()
                        } else {
                            job
                        }
                    }
                    WorkloadSpec::Interactive { .. } => Job::interactive(id, origin, arrival),
                    WorkloadSpec::Mixed {
                        migratable_fraction,
                        batch_length_hours,
                        batch_slack,
                        ..
                    } => {
                        if rng.uniform() < *migratable_fraction {
                            Job::batch(id, origin, arrival, *batch_length_hours, *batch_slack)
                        } else {
                            Job::interactive(id, origin, arrival)
                        }
                    }
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;

    const ORIGINS: [RegionId; 3] = [RegionId(0), RegionId(1), RegionId(2)];

    fn batch_spec() -> WorkloadSpec {
        WorkloadSpec::Batch {
            per_origin: 4,
            arrival: Arrival::fixed(24),
            length_hours: 8.0,
            slack: Slack::Day,
            interruptible: true,
        }
    }

    #[test]
    fn batch_spec_materializes_per_origin_cadence() {
        let spec = batch_spec();
        assert_eq!(spec.label(), "batch");
        assert_eq!(spec.job_count(3), 12);
        assert_eq!(spec.last_arrival_offset(3), 3 * 24 + 2);
        let jobs = spec.materialize(&ORIGINS, Hour(100));
        assert_eq!(jobs.len(), 12);
        assert!(jobs.iter().all(|j| j.interruptible && j.migratable));
        assert!(jobs.iter().all(|j| j.length_hours == 8.0));
        // Ids are unique across origins.
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
        // Origins are staggered by one hour; cadence is 24 h.
        let se: Vec<u32> = jobs
            .iter()
            .filter(|j| j.origin == ORIGINS[0])
            .map(|j| j.arrival.0)
            .collect();
        assert_eq!(se, vec![100, 124, 148, 172]);
        let de: Vec<u32> = jobs
            .iter()
            .filter(|j| j.origin == ORIGINS[1])
            .map(|j| j.arrival.0)
            .collect();
        assert_eq!(de, vec![101, 125, 149, 173]);
    }

    #[test]
    fn worst_case_completion_bounds_every_materialized_job() {
        // The static bound must dominate arrival + window of every job
        // the spec actually materializes, for each class.
        let specs = [
            batch_spec(),
            WorkloadSpec::Interactive {
                per_origin: 5,
                arrival: Arrival::fixed(6),
            },
            WorkloadSpec::Mixed {
                per_origin: 4,
                arrival: Arrival::fixed(12),
                migratable_fraction: 0.5,
                batch_length_hours: 4.0,
                batch_slack: Slack::Day,
                seed: 0x5EED,
            },
        ];
        for spec in &specs {
            let bound = spec.worst_case_completion_offset(ORIGINS.len());
            let jobs = spec.materialize(&ORIGINS, Hour(0));
            let max = jobs
                .iter()
                .map(|j| j.arrival.0 as usize + j.window_hours())
                .max()
                .unwrap();
            assert!(max <= bound, "{}: {max} > {bound}", spec.label());
        }
        // For the batch recipe the bound is exact: last arrival
        // (3 × 24 + 2) plus a day of slack plus the 8-hour runtime.
        assert_eq!(
            batch_spec().worst_case_completion_offset(3),
            3 * 24 + 2 + 24 + 8
        );
    }

    #[test]
    fn known_keys_cover_from_pairs_vocabulary() {
        // Every KNOWN_KEYS entry must be accepted by from_pairs in some
        // class, so the checker's suggestion vocabulary cannot rot.
        let recipes: &[&[(&str, &str)]] = &[
            &[
                ("class", "batch"),
                ("per_origin", "2"),
                ("spacing", "24"),
                ("length", "4"),
                ("slack", "day"),
                ("interruptible", "true"),
            ],
            &[
                ("class", "interactive"),
                ("arrival", "poisson:0.5"),
                ("arrival_seed", "7"),
            ],
            &[
                ("class", "mixed"),
                ("migratable_fraction", "0.4"),
                ("seed", "9"),
            ],
        ];
        let mut used: Vec<&str> = Vec::new();
        for pairs in recipes {
            let owned: Vec<(String, String)> = pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            WorkloadSpec::from_pairs(&owned).unwrap();
            used.extend(pairs.iter().map(|(k, _)| *k));
        }
        for key in WorkloadSpec::KNOWN_KEYS {
            assert!(used.contains(key), "KNOWN_KEYS lists unexercised `{key}`");
        }
    }

    #[test]
    fn interactive_spec_is_inflexible() {
        let spec = WorkloadSpec::Interactive {
            per_origin: 5,
            arrival: Arrival::fixed(6),
        };
        assert_eq!(spec.label(), "interactive");
        let jobs = spec.materialize(&ORIGINS, Hour(0));
        assert_eq!(jobs.len(), 15);
        assert!(jobs
            .iter()
            .all(|j| j.class == JobClass::Interactive && !j.migratable));
        assert!(jobs.iter().all(|j| j.slack_hours() == 0));
    }

    #[test]
    fn mixed_spec_is_deterministic_and_mixes_classes() {
        let spec = WorkloadSpec::Mixed {
            per_origin: 40,
            arrival: Arrival::fixed(2),
            migratable_fraction: 0.5,
            batch_length_hours: 4.0,
            batch_slack: Slack::Day,
            seed: 7,
        };
        assert_eq!(spec.label(), "mixed");
        let a = spec.materialize(&ORIGINS, Hour(0));
        let b = spec.materialize(&ORIGINS, Hour(0));
        assert_eq!(a, b, "same seed must give the same population");
        let batch = a.iter().filter(|j| j.class == JobClass::Batch).count();
        assert!(batch > 0 && batch < a.len(), "both classes present");
        for job in &a {
            match job.class {
                JobClass::Batch => assert!(job.migratable),
                JobClass::Interactive => assert!(!job.migratable),
            }
        }
    }

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn from_pairs_builds_each_class() {
        let batch = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "3"),
            ("spacing", "12"),
            ("length", "6.5"),
            ("slack", "week"),
            ("interruptible", "false"),
        ]))
        .unwrap();
        match batch {
            WorkloadSpec::Batch {
                per_origin,
                arrival,
                length_hours,
                slack,
                interruptible,
            } => {
                assert_eq!(per_origin, 3);
                assert_eq!(arrival, Arrival::fixed(12));
                assert_eq!(length_hours, 6.5);
                assert_eq!(slack, Slack::Week);
                assert!(!interruptible);
            }
            other => panic!("wrong class: {other:?}"),
        }
        let interactive =
            WorkloadSpec::from_pairs(&pairs(&[("class", "interactive"), ("per_origin", "7")]))
                .unwrap();
        assert_eq!(interactive.label(), "interactive");
        assert_eq!(interactive.job_count(2), 14);
        let mixed = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "mixed"),
            ("migratable_fraction", "0.25"),
            ("seed", "99"),
        ]))
        .unwrap();
        assert_eq!(mixed.label(), "mixed");
    }

    #[test]
    fn from_pairs_defaults_match_the_builtin_batch_recipe() {
        let spec = WorkloadSpec::from_pairs(&pairs(&[("class", "batch")])).unwrap();
        match spec {
            WorkloadSpec::Batch {
                per_origin,
                arrival,
                length_hours,
                slack,
                interruptible,
            } => {
                assert_eq!(
                    (per_origin, arrival, length_hours, slack, interruptible),
                    (12, Arrival::fixed(24), 8.0, Slack::Day, true)
                );
            }
            other => panic!("wrong class: {other:?}"),
        }
    }

    #[test]
    fn from_pairs_rejects_bad_inputs() {
        for (kv, needle) in [
            (vec![("per_origin", "3")], "needs `class`"),
            (vec![("class", "streaming")], "unknown workload class"),
            (vec![("class", "batch"), ("slack", "soon")], "unknown slack"),
            (vec![("class", "batch"), ("length", "-1")], "positive"),
            (vec![("class", "batch"), ("per_origin", "0")], "at least 1"),
            (vec![("class", "batch"), ("spacing", "0")], "at least 1"),
            (
                vec![("class", "batch"), ("arrival", "bursty:3")],
                "bursty:<rate>,<burst-size",
            ),
            (
                vec![("class", "batch"), ("arrival", "bursty:0,4")],
                "bursty:<rate>,<burst-size",
            ),
            (
                vec![("class", "batch"), ("arrival", "diurnal:1,2")],
                "amplitude in [0, 1]",
            ),
            (
                vec![("class", "batch"), ("arrival", "sporadic:1")],
                "unknown arrival recipe",
            ),
            (
                vec![("class", "batch"), ("arrival", "poisson:-1")],
                "jobs per hour",
            ),
            (
                vec![("class", "batch"), ("arrival", "fixed:0")],
                "fixed:<hours",
            ),
            (
                vec![
                    ("class", "batch"),
                    ("spacing", "6"),
                    ("arrival", "poisson:0.5"),
                ],
                "not both",
            ),
            (
                vec![("class", "batch"), ("arrival_seed", "9")],
                "only applies to poisson",
            ),
            (
                vec![("class", "batch"), ("per_origin", "many")],
                "invalid value",
            ),
            (
                vec![("class", "mixed"), ("migratable_fraction", "1.5")],
                "[0, 1]",
            ),
            (
                vec![("class", "interactive"), ("length", "4")],
                "unknown workload key",
            ),
            (vec![("class", "batch"), ("bogus", "1")], "unknown workload"),
        ] {
            let err = WorkloadSpec::from_pairs(&pairs(&kv)).unwrap_err();
            assert!(err.message.contains(needle), "{kv:?}: got `{err}`");
        }
    }

    #[test]
    fn from_pairs_names_the_key_a_bound_fails_on() {
        for (kv, key, needle) in [
            (
                vec![("class", "batch"), ("per_origin", "18446744073709551615")],
                "per_origin",
                "exceeds the 1048576 jobs",
            ),
            (
                vec![
                    ("class", "batch"),
                    ("per_origin", "100"),
                    ("spacing", "1000000"),
                ],
                "spacing",
                "past the slot clock's end",
            ),
            (
                vec![("class", "interactive"), ("arrival", "poisson:1e-300")],
                "arrival",
                "past the slot clock's end",
            ),
            (
                vec![("class", "interactive"), ("arrival", "bursty:1,100000000")],
                "arrival",
                "past the slot clock's end",
            ),
            (
                vec![("class", "batch"), ("length", "0")],
                "length",
                "positive",
            ),
        ] {
            let err = WorkloadSpec::from_pairs(&pairs(&kv)).unwrap_err();
            assert_eq!(err.key, Some(key), "{kv:?}: got `{err}`");
            assert!(err.message.contains(needle), "{kv:?}: got `{err}`");
        }
        // Errors that concern the section as a whole name no key.
        let err = WorkloadSpec::from_pairs(&pairs(&[("per_origin", "3")])).unwrap_err();
        assert_eq!(err.key, None);
        // The largest recipe on the clock parses.
        let most = MAX_PER_ORIGIN.to_string();
        let spacing = (CLOCK_HOURS / (MAX_PER_ORIGIN - 1)).to_string();
        let spec = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "interactive"),
            ("per_origin", &most),
            ("spacing", &spacing),
        ]))
        .unwrap();
        assert!(spec.check_bounds().is_ok());
        assert!(spec.last_arrival_offset(1) <= CLOCK_HOURS);
    }

    #[test]
    fn last_offset_saturates_instead_of_overflowing() {
        let flood = Arrival::fixed(1_000_000);
        assert_eq!(flood.last_offset(usize::MAX, 3), usize::MAX);
        let spec = WorkloadSpec::Batch {
            per_origin: usize::MAX,
            arrival: flood,
            length_hours: 8.0,
            slack: Slack::Day,
            interruptible: true,
        };
        assert_eq!(spec.worst_case_completion_offset(8), usize::MAX);
        assert!(spec.check_bounds().unwrap_err().contains("exceeds"));
    }

    #[test]
    fn slack_parse_accepts_aliases() {
        for (text, slack) in [
            ("none", Slack::None),
            ("DAY", Slack::Day),
            ("24h", Slack::Day),
            ("week", Slack::Week),
            ("7d", Slack::Week),
            ("24d", Slack::Days24),
            ("month", Slack::Month),
            ("30d", Slack::Month),
            ("year", Slack::Year),
            ("1y", Slack::Year),
            (" 10x ", Slack::TenX),
        ] {
            assert_eq!(Slack::parse(text).unwrap(), slack, "{text}");
        }
        assert!(Slack::parse("fortnight").is_err());
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_seed_sensitive() {
        let spec = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "16"),
            ("arrival", "poisson:0.25"),
        ]))
        .unwrap();
        let a = spec.materialize(&ORIGINS, Hour(0));
        let b = spec.materialize(&ORIGINS, Hour(0));
        assert_eq!(a, b, "same seed must give the same arrivals");
        assert_eq!(a.len(), 48);
        // Arrivals are non-decreasing per origin and genuinely uneven
        // (a fixed cadence would have constant gaps).
        let se: Vec<u32> = a
            .iter()
            .filter(|j| j.origin == ORIGINS[0])
            .map(|j| j.arrival.0)
            .collect();
        assert!(se.windows(2).all(|w| w[0] <= w[1]), "{se:?}");
        let gaps: Vec<u32> = se.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "poisson gaps vary: {gaps:?}"
        );
        // A different seed shifts the arrival pattern.
        let reseeded = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "16"),
            ("arrival", "poisson:0.25"),
            ("arrival_seed", "7"),
        ]))
        .unwrap();
        let c = reseeded.materialize(&ORIGINS, Hour(0));
        assert_ne!(
            a.iter().map(|j| j.arrival).collect::<Vec<_>>(),
            c.iter().map(|j| j.arrival).collect::<Vec<_>>()
        );
        // Horizon sizing covers the actual last arrival.
        let last = a.iter().map(|j| j.arrival.0).max().unwrap() as usize;
        assert_eq!(spec.last_arrival_offset(ORIGINS.len()), last);
    }

    #[test]
    fn bursty_arrivals_cluster_and_stay_deterministic() {
        let spec = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "24"),
            ("arrival", "bursty:0.5,4"),
        ]))
        .unwrap();
        let a = spec.materialize(&ORIGINS, Hour(0));
        let b = spec.materialize(&ORIGINS, Hour(0));
        assert_eq!(a, b, "same seed must give the same arrivals");
        assert_eq!(a.len(), 72);
        let se: Vec<u32> = a
            .iter()
            .filter(|j| j.origin == ORIGINS[0])
            .map(|j| j.arrival.0)
            .collect();
        assert!(se.windows(2).all(|w| w[0] <= w[1]), "{se:?}");
        // Full bursts land on the same hour: 24 jobs in 6 epochs of 4.
        let mut epochs = se.clone();
        epochs.dedup();
        assert_eq!(se.len(), 24);
        assert_eq!(epochs.len(), 6, "bursts of 4 share an epoch: {se:?}");
        // A different seed moves the epochs.
        let reseeded = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "24"),
            ("arrival", "bursty:0.5,4"),
            ("arrival_seed", "9"),
        ]))
        .unwrap();
        assert_ne!(a, reseeded.materialize(&ORIGINS, Hour(0)));
        // Horizon sizing covers the true last arrival.
        let last = a.iter().map(|j| j.arrival.0).max().unwrap() as usize;
        assert_eq!(spec.last_arrival_offset(ORIGINS.len()), last);
    }

    #[test]
    fn diurnal_arrivals_prefer_daytime_hours() {
        let spec = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "400"),
            ("arrival", "diurnal:1,1"),
        ]))
        .unwrap();
        let a = spec.materialize(&ORIGINS, Hour(0));
        assert_eq!(a, spec.materialize(&ORIGINS, Hour(0)), "deterministic");
        // With full modulation the 06:00–18:00 half-day must receive
        // well over half of the arrivals (its rate integral is ~2x).
        let day = a
            .iter()
            .filter(|j| (6..18).contains(&(j.arrival.0 % 24)))
            .count();
        let frac = day as f64 / a.len() as f64;
        assert!(frac > 0.6, "daytime fraction {frac}");
        // Zero amplitude reduces to a plain Poisson-like spread.
        let flat = WorkloadSpec::from_pairs(&pairs(&[
            ("class", "batch"),
            ("per_origin", "400"),
            ("arrival", "diurnal:1,0"),
        ]))
        .unwrap()
        .materialize(&ORIGINS, Hour(0));
        let flat_day = flat
            .iter()
            .filter(|j| (6..18).contains(&(j.arrival.0 % 24)))
            .count();
        let flat_frac = flat_day as f64 / flat.len() as f64;
        assert!((flat_frac - 0.5).abs() < 0.1, "flat fraction {flat_frac}");
    }

    #[test]
    fn bursty_and_diurnal_canonical_forms_round_trip() {
        let bursty = Arrival::parse("bursty:0.5,4").unwrap();
        assert_eq!(
            bursty,
            Arrival::Bursty {
                rate_per_hour: 0.5,
                burst_size: 4,
                seed: DEFAULT_ARRIVAL_SEED
            }
        );
        assert_eq!(bursty.canonical(), format!("bursty:0.5:4:{}", 0xA221));
        let diurnal = Arrival::parse("diurnal:2,0.75").unwrap();
        assert_eq!(
            diurnal,
            Arrival::Diurnal {
                rate_per_hour: 2.0,
                amplitude: 0.75,
                seed: DEFAULT_ARRIVAL_SEED
            }
        );
        assert_eq!(diurnal.canonical(), format!("diurnal:2:0.75:{}", 0xA221));
        // Errors list the valid forms.
        let err = Arrival::parse("bursty:1").unwrap_err();
        assert!(err.contains("bursty:<rate>,<burst-size"), "{err}");
        let err = Arrival::parse("diurnal:1").unwrap_err();
        assert!(err.contains("amplitude in [0, 1]"), "{err}");
        let err = Arrival::parse("sporadic:1").unwrap_err();
        assert!(err.contains("bursty:<rate>,<burst-size>"), "{err}");
        assert!(err.contains("diurnal:<rate>,<amplitude>"), "{err}");
    }

    #[test]
    fn arrival_parse_round_trips_canonical_forms() {
        assert_eq!(Arrival::parse("fixed:12").unwrap(), Arrival::fixed(12));
        let poisson = Arrival::parse("poisson:0.5").unwrap();
        assert_eq!(
            poisson,
            Arrival::Poisson {
                rate_per_hour: 0.5,
                seed: DEFAULT_ARRIVAL_SEED
            }
        );
        assert_eq!(poisson.canonical(), format!("poisson:0.5:{}", 0xA221));
        assert_eq!(Arrival::fixed(24).canonical(), "fixed:24");
        assert!(Arrival::parse("sometimes").is_err());
        assert!(Arrival::parse("poisson:").is_err());
        assert!(Arrival::parse("poisson:inf").is_err());
    }

    #[test]
    fn canonical_encodings_distinguish_specs() {
        let base = batch_spec();
        let mut other = batch_spec();
        if let WorkloadSpec::Batch { length_hours, .. } = &mut other {
            *length_hours = 9.0;
        }
        assert_ne!(base.canonical(), other.canonical());
        assert_eq!(base.canonical(), batch_spec().canonical());
        assert!(base.canonical().starts_with("batch:4:fixed:24:"));
    }

    #[test]
    fn materialize_at_lands_arrivals_on_hour_aligned_slots() {
        use decarb_traces::Resolution;
        let spec = batch_spec();
        let five = Resolution::from_minutes(5).unwrap();
        let hourly = spec.materialize(&ORIGINS, Hour(100));
        // Slot-domain start = hourly start × 12.
        let fine = spec.materialize_at(&ORIGINS, Hour(1200), five);
        assert_eq!(hourly.len(), fine.len());
        for (h, f) in hourly.iter().zip(&fine) {
            assert_eq!(f.arrival.0, h.arrival.0 * 12, "job {}", h.id);
            assert_eq!((f.id, f.origin, f.class), (h.id, h.origin, h.class));
        }
        // Hourly resolution is the identity.
        assert_eq!(
            spec.materialize_at(&ORIGINS, Hour(100), Resolution::HOURLY),
            hourly
        );
    }

    #[test]
    fn empty_origins_yield_no_jobs() {
        assert!(batch_spec().materialize(&[], Hour(0)).is_empty());
        assert_eq!(batch_spec().job_count(0), 0);
        assert_eq!(batch_spec().last_arrival_offset(0), 3 * 24);
    }
}
