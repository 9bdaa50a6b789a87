//! The sharded sweep pipeline: **plan → partition → execute → merge**.
//!
//! Every sweep runs through these stages. Keeping them apart lets a bad
//! zone code fail the plan before any scenario runs, and lets large
//! sweeps be partitioned across processes (and machines) and
//! recombined:
//!
//! 1. **Plan** — [`SweepPlan::plan`] turns a scenario list (a matrix
//!    expansion or a scenario file) into a deterministic, stably-ordered
//!    plan. Every scenario is pre-validated against the dataset — *all*
//!    invalid scenarios are collected into one [`SweepError`] instead of
//!    panicking mid-sweep — and assigned a content-addressed id
//!    ([`Scenario::content_id`]) that is stable across processes,
//!    revisions, and declaration order.
//! 2. **Partition** — [`SweepPlan::shard`] splits a plan into `n`
//!    disjoint shards keyed by the stable ids, so `decarb-cli scenario
//!    run all --shards N --shard-index I` in `N` separate processes
//!    covers the plan exactly once with no coordination.
//! 3. **Execute** — [`SweepPlan::execute_with`] runs one shard against a
//!    shared [`TraceSet`] + [`PlannerCache`] on one work-stealing
//!    thread scope, streaming each report to a sink in plan order.
//! 4. **Merge** — [`merge_reports`] recombines per-shard JSON reports
//!    into one document, detecting duplicate (overlapping shards),
//!    missing, and unexpected scenarios against the plan.
//!
//! The single-process path is the same pipeline with one shard, so
//! `scenario run all` and a sharded run produce identical per-scenario
//! reports by construction.

use decarb_json::Value;
use decarb_par::{par_map_ordered_with, thread_count};
use decarb_traces::TraceSet;

use crate::planner_cache::PlannerCache;
use crate::scenario::{Scenario, ScenarioReport};

/// One scenario in a plan, with its content-addressed id.
#[derive(Debug, Clone)]
pub struct PlannedScenario {
    /// Stable id: [`Scenario::content_id`] at plan time.
    pub id: String,
    /// The scenario itself.
    pub scenario: Scenario,
}

/// A planning or merge failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// One or more scenarios cannot run against the dataset; every
    /// offender is listed as `(name, reason)`.
    InvalidScenarios(Vec<(String, String)>),
    /// Two scenarios share a name (ambiguous reports).
    DuplicateName(String),
    /// `shard(shards, index)` called with `index >= shards` or zero
    /// shards.
    BadShard {
        /// Requested shard count.
        shards: usize,
        /// Requested shard index.
        index: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::InvalidScenarios(bad) => {
                writeln!(
                    f,
                    "{} scenario{} cannot run against the dataset:",
                    bad.len(),
                    if bad.len() == 1 { "" } else { "s" }
                )?;
                for (name, reason) in bad {
                    writeln!(f, "  {name}: {reason}")?;
                }
                Ok(())
            }
            SweepError::DuplicateName(name) => {
                write!(f, "duplicate scenario name `{name}` in the sweep")
            }
            SweepError::BadShard { shards, index } => {
                write!(f, "shard index {index} out of range for {shards} shard(s)")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// A validated, deterministic, stably-ordered sweep: the unit the
/// pipeline partitions, executes, and merges.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    entries: Vec<PlannedScenario>,
}

impl SweepPlan {
    /// Plans a sweep: validates every scenario against `data` (all
    /// failures are collected, none panic) and assigns stable
    /// content-addressed ids. Scenario order is preserved, so the same
    /// input always yields the same plan.
    pub fn plan(data: &TraceSet, scenarios: Vec<Scenario>) -> Result<SweepPlan, SweepError> {
        let mut invalid: Vec<(String, String)> = Vec::new();
        for scenario in &scenarios {
            if let Err(reason) = scenario.validate_against(data) {
                invalid.push((scenario.name.clone(), reason));
            }
        }
        if !invalid.is_empty() {
            return Err(SweepError::InvalidScenarios(invalid));
        }
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for scenario in &scenarios {
            if !seen.insert(scenario.name.as_str()) {
                return Err(SweepError::DuplicateName(scenario.name.clone()));
            }
        }
        Ok(SweepPlan {
            entries: scenarios
                .into_iter()
                .map(|scenario| PlannedScenario {
                    id: scenario.content_id(),
                    scenario,
                })
                .collect(),
        })
    }

    /// The planned scenarios, in plan order.
    pub fn entries(&self) -> &[PlannedScenario] {
        &self.entries
    }

    /// Number of scenarios in the plan.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plan holds no scenarios (an empty shard is a
    /// valid plan).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Scenario names in plan order (the merge stage's expectation).
    pub fn names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.scenario.name.clone())
            .collect()
    }

    /// Partitions the plan into shard `index` of `shards` disjoint
    /// shards, keyed by the stable content ids: scenario `s` lands in
    /// shard `id(s) mod shards`. The union of all shards is exactly the
    /// plan, shards are pairwise disjoint, and the assignment does not
    /// depend on plan order or on which process computes it.
    pub fn shard(&self, shards: usize, index: usize) -> Result<SweepPlan, SweepError> {
        if shards == 0 || index >= shards {
            return Err(SweepError::BadShard { shards, index });
        }
        Ok(SweepPlan {
            entries: self
                .entries
                .iter()
                .filter(|e| shard_of(&e.id, shards) == index)
                .cloned()
                .collect(),
        })
    }

    /// Executes the plan against `data` on [`thread_count`] workers
    /// that share one [`PlannerCache`] and claim scenarios one at a
    /// time, so a slow scenario never idles the others. Each report
    /// reaches `sink` in plan order as soon as it and every report
    /// before it are done; workers run only a few scenarios past the
    /// last one handed over, so the sweep never buffers the full report
    /// set. A `false` return from `sink` starts no further scenario and
    /// returns once the running ones finish.
    // decarb-analyze: hot-path
    pub fn execute_with(&self, data: &TraceSet, sink: impl FnMut(ScenarioReport) -> bool) {
        let cache = PlannerCache::new();
        par_map_ordered_with(
            thread_count(),
            &self.entries,
            |entry| entry.scenario.run_cached(data, &cache),
            sink,
        );
    }

    /// Buffered [`SweepPlan::execute_with`]: all reports, in plan order.
    pub fn execute(&self, data: &TraceSet) -> Vec<ScenarioReport> {
        let mut reports = Vec::with_capacity(self.len());
        self.execute_with(data, |report| {
            reports.push(report);
            true
        });
        reports
    }
}

/// Which shard an id lands in: the id's 64-bit value modulo `shards`.
fn shard_of(id: &str, shards: usize) -> usize {
    // Ids from `Scenario::content_id` are always 16 hex digits; a
    // foreign id still shards deterministically via a re-hash.
    let value = u64::from_str_radix(id, 16)
        .unwrap_or_else(|_| decarb_traces::container::fnv1a64(id.as_bytes()));
    (value % shards as u64) as usize
}

/// A merge failure: the shard reports do not recombine into the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A shard document is not a scenario report object/array.
    Malformed {
        /// Index of the offending document (argument order).
        doc: usize,
        /// What was wrong.
        message: String,
    },
    /// The same scenario appears in more than one report (overlapping
    /// shards, or the same shard merged twice).
    Duplicate(String),
    /// Scenarios the plan expects but no shard delivered.
    Missing(Vec<String>),
    /// Scenarios no plan entry accounts for (stale shard files).
    Unexpected(Vec<String>),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Malformed { doc, message } => {
                write!(f, "shard report #{doc}: {message}")
            }
            MergeError::Duplicate(name) => write!(
                f,
                "scenario `{name}` appears in more than one shard report (overlapping shards?)"
            ),
            MergeError::Missing(names) => write!(
                f,
                "{} scenario(s) missing from the merged shards: {}",
                names.len(),
                names.join(", ")
            ),
            MergeError::Unexpected(names) => write!(
                f,
                "{} scenario(s) not in the sweep plan: {}",
                names.len(),
                names.join(", ")
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges per-shard JSON report documents (each a report object or an
/// array of report objects, as emitted by `scenario run --json`) into
/// one flat report list.
///
/// Duplicates across shards are always an error. When `expected` names
/// are given (from [`SweepPlan::names`]), the merge also fails on
/// missing or unexpected scenarios and orders the output in plan order
/// — making a sharded sweep's merged report comparable entry-for-entry
/// with a single-process run. Without an expectation the output is
/// ordered by scenario name.
pub fn merge_reports(
    expected: Option<&[String]>,
    docs: &[Value],
) -> Result<Vec<Value>, MergeError> {
    // Hash-indexed throughout: the pipeline targets 10k+ scenario
    // sweeps, where linear rescans per entry would dominate the merge.
    let mut items: Vec<(String, Value)> = Vec::new();
    let mut by_name: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for (doc_index, doc) in docs.iter().enumerate() {
        let keyed =
            decarb_json::merge_keyed(std::slice::from_ref(doc), "name").map_err(|message| {
                MergeError::Malformed {
                    doc: doc_index,
                    message,
                }
            })?;
        for (name, value) in keyed {
            if by_name.contains_key(&name) {
                return Err(MergeError::Duplicate(name));
            }
            by_name.insert(name.clone(), items.len());
            items.push((name, value));
        }
    }
    match expected {
        None => {
            items.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(items.into_iter().map(|(_, v)| v).collect())
        }
        Some(names) => {
            let expected_set: std::collections::HashSet<&str> =
                names.iter().map(String::as_str).collect();
            let unexpected: Vec<String> = items
                .iter()
                .filter(|(n, _)| !expected_set.contains(n.as_str()))
                .map(|(n, _)| n.clone())
                .collect();
            if !unexpected.is_empty() {
                return Err(MergeError::Unexpected(unexpected));
            }
            let mut slots: Vec<Option<Value>> = items.into_iter().map(|(_, v)| Some(v)).collect();
            let mut merged = Vec::with_capacity(names.len());
            let mut missing = Vec::new();
            for name in names {
                // A repeated expected name can only claim one report;
                // the second occurrence counts as missing.
                match by_name.get(name.as_str()).and_then(|&i| slots[i].take()) {
                    Some(value) => merged.push(value),
                    None => missing.push(name.clone()),
                }
            }
            if !missing.is_empty() {
                return Err(MergeError::Missing(missing));
            }
            Ok(merged)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        builtin_scenarios, find_scenario, ForecasterKind, OverheadKind, PolicyKind, RegionSpec,
    };
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;
    use decarb_workloads::{Arrival, Slack, WorkloadSpec};

    fn small_plan(data: &TraceSet) -> SweepPlan {
        let scenarios: Vec<Scenario> = builtin_scenarios()
            .into_iter()
            .filter(|s| s.workload.label() == "batch")
            .collect();
        SweepPlan::plan(data, scenarios).unwrap()
    }

    #[test]
    fn plan_is_deterministic_and_content_addressed() {
        let data = builtin_dataset();
        let a = SweepPlan::plan(&data, builtin_scenarios()).unwrap();
        let b = SweepPlan::plan(&data, builtin_scenarios()).unwrap();
        assert_eq!(a.len(), 54);
        assert_eq!(a.names(), b.names());
        for (ea, eb) in a.entries().iter().zip(b.entries()) {
            assert_eq!(ea.id, eb.id, "{}", ea.scenario.name);
            assert_eq!(ea.id.len(), 16, "16 hex digits");
        }
        // Ids are unique across the whole matrix.
        let mut ids: Vec<&str> = a.entries().iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len());
    }

    #[test]
    fn content_ids_track_every_outcome_field() {
        let base = find_scenario("batch-deferral-europe").unwrap();
        let id = base.content_id();
        let mut changed = base.clone();
        changed.slo_ms = 80.0;
        assert_ne!(changed.content_id(), id);
        let mut changed = base.clone();
        changed.forecaster = ForecasterKind::Naive;
        assert_ne!(changed.content_id(), id);
        let mut changed = base.clone();
        changed.horizon += 1;
        assert_ne!(changed.content_id(), id);
        let mut changed = base.clone();
        changed.overheads = OverheadKind::Realistic;
        assert_ne!(changed.content_id(), id);
        assert_eq!(base.content_id(), id, "id is a pure function");
    }

    #[test]
    fn plan_collects_every_invalid_scenario() {
        let data = builtin_dataset();
        let mut scenarios = vec![find_scenario("batch-agnostic-europe").unwrap()];
        for (name, zone) in [("lost-atlantis", "XX-AT"), ("lost-lemuria", "XX-LE")] {
            let mut bad = find_scenario("batch-agnostic-europe").unwrap();
            bad.name = name.to_string();
            bad.regions = RegionSpec::Custom {
                label: name.to_string(),
                codes: vec!["SE".into(), zone.into()],
            };
            scenarios.push(bad);
        }
        let err = SweepPlan::plan(&data, scenarios).unwrap_err();
        let SweepError::InvalidScenarios(bad) = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(bad.len(), 2, "both bad scenarios collected");
        let text = err.to_string();
        assert!(
            text.contains("lost-atlantis") && text.contains("XX-AT"),
            "{text}"
        );
        assert!(
            text.contains("lost-lemuria") && text.contains("XX-LE"),
            "{text}"
        );
    }

    #[test]
    fn plan_rejects_windows_past_the_slot_clock() {
        let data = builtin_dataset();
        let mut late = find_scenario("batch-agnostic-europe").unwrap();
        late.horizon = usize::MAX;
        let mut edge = find_scenario("batch-agnostic-europe").unwrap();
        edge.name = "edge".into();
        edge.horizon = decarb_traces::time::CLOCK_HOURS - edge.start.index() + 1;
        let err = SweepPlan::plan(&data, vec![late, edge]).unwrap_err();
        let SweepError::InvalidScenarios(bad) = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(bad.len(), 2, "{err}");
        assert!(bad[0].1.contains("slot clock"), "{err}");
        // The longest window that still ends on the clock plans.
        let mut fits = find_scenario("batch-agnostic-europe").unwrap();
        fits.horizon = decarb_traces::time::CLOCK_HOURS - fits.start.index();
        assert!(fits.validate_against(&data).is_ok());
    }

    #[test]
    fn plan_rejects_recipes_past_the_slot_clock() {
        // The recipe of ci/scenario-seed/recipe-overflow.scenario, built
        // in code so it bypasses the parser: sizing its horizon used to
        // overflow, and a release build would wrap and plan it.
        let data = builtin_dataset();
        let mut flood = find_scenario("batch-agnostic-europe").unwrap();
        flood.workload = WorkloadSpec::Batch {
            per_origin: usize::MAX,
            arrival: Arrival::fixed(1_000_000),
            length_hours: 8.0,
            slack: Slack::Day,
            interruptible: true,
        };
        // Within the job cap, but the cadence outruns the clock.
        let mut sparse = flood.clone();
        sparse.name = "sparse".into();
        sparse.workload = WorkloadSpec::Interactive {
            per_origin: 100,
            arrival: Arrival::fixed(1_000_000),
        };
        // Arrivals that span the clock but start late in it.
        let mut late = flood.clone();
        late.name = "late".into();
        late.workload = WorkloadSpec::Interactive {
            per_origin: 2,
            arrival: Arrival::fixed(decarb_traces::time::CLOCK_HOURS),
        };
        let err = SweepPlan::plan(&data, vec![flood, sparse, late]).unwrap_err();
        let SweepError::InvalidScenarios(bad) = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(bad.len(), 3, "{err}");
        assert!(bad[0].1.contains("`per_origin`"), "{err}");
        assert!(bad[1].1.contains("span about"), "{err}");
        assert!(bad[2].1.contains("may run until"), "{err}");
    }

    #[test]
    fn plan_rejects_duplicate_names() {
        let data = builtin_dataset();
        let s = find_scenario("batch-agnostic-europe").unwrap();
        let err = SweepPlan::plan(&data, vec![s.clone(), s]).unwrap_err();
        assert_eq!(
            err,
            SweepError::DuplicateName("batch-agnostic-europe".into())
        );
    }

    #[test]
    fn shards_partition_the_plan_exactly() {
        let data = builtin_dataset();
        let plan = SweepPlan::plan(&data, builtin_scenarios()).unwrap();
        for shards in [1usize, 2, 4, 7] {
            let mut covered: Vec<String> = Vec::new();
            for index in 0..shards {
                let shard = plan.shard(shards, index).unwrap();
                for entry in shard.entries() {
                    assert!(
                        !covered.contains(&entry.scenario.name),
                        "{} appears in two shards ({} shards)",
                        entry.scenario.name,
                        shards
                    );
                    covered.push(entry.scenario.name.clone());
                }
            }
            let mut expected = plan.names();
            covered.sort();
            expected.sort();
            assert_eq!(covered, expected, "union of {shards} shards == plan");
        }
        assert_eq!(plan.shard(1, 0).unwrap().len(), plan.len());
    }

    #[test]
    fn shard_assignment_is_stable_across_plans_and_orderings() {
        let data = builtin_dataset();
        let forward = SweepPlan::plan(&data, builtin_scenarios()).unwrap();
        let mut reversed_input = builtin_scenarios();
        reversed_input.reverse();
        let reversed = SweepPlan::plan(&data, reversed_input).unwrap();
        for index in 0..4 {
            let mut a: Vec<String> = forward.shard(4, index).unwrap().names();
            let mut b: Vec<String> = reversed.shard(4, index).unwrap().names();
            a.sort();
            b.sort();
            assert_eq!(a, b, "shard {index} membership ignores plan order");
        }
    }

    #[test]
    fn non_hex_ids_shard_by_their_fnv1a64_hash() {
        let id = "my-custom-scenario";
        let hash = decarb_traces::container::fnv1a64(id.as_bytes());
        assert_eq!(hash, 0x7864_af28_ba0d_f8d6);
        for shards in [1, 2, 7, 16] {
            assert_eq!(shard_of(id, shards), (hash % shards as u64) as usize);
        }
        assert_eq!(shard_of("00000000000000ff", 16), 15);
    }

    #[test]
    fn bad_shard_requests_error() {
        let data = builtin_dataset();
        let plan = small_plan(&data);
        assert_eq!(
            plan.shard(4, 4).unwrap_err(),
            SweepError::BadShard {
                shards: 4,
                index: 4
            }
        );
        assert_eq!(
            plan.shard(0, 0).unwrap_err(),
            SweepError::BadShard {
                shards: 0,
                index: 0
            }
        );
    }

    #[test]
    fn executing_all_shards_merges_back_to_the_single_process_run() {
        let data = builtin_dataset();
        let plan = small_plan(&data);
        let single: Vec<Value> = plan.execute(&data).iter().map(|r| r.to_json()).collect();
        let mut shard_docs = Vec::new();
        for index in 0..3 {
            let shard = plan.shard(3, index).unwrap();
            let reports: Vec<Value> = shard.execute(&data).iter().map(|r| r.to_json()).collect();
            shard_docs.push(Value::Array(reports));
        }
        let names = plan.names();
        let merged = merge_reports(Some(&names), &shard_docs).unwrap();
        assert_eq!(merged.len(), single.len());
        // Byte-identical per scenario up to wall-clock `elapsed_s`.
        let strip = |v: &Value| -> Value {
            let Value::Object(pairs) = v else {
                panic!("report is an object")
            };
            Value::Object(
                pairs
                    .iter()
                    .filter(|(k, _)| k != "elapsed_s")
                    .cloned()
                    .collect(),
            )
        };
        for (m, s) in merged.iter().zip(&single) {
            assert_eq!(strip(m), strip(s));
        }
    }

    #[test]
    fn merge_detects_duplicates_missing_and_unexpected() {
        let a = Value::Array(vec![Value::object([
            ("name", Value::from("s1")),
            ("emissions_g", Value::from(1.0)),
        ])]);
        let b = Value::Array(vec![Value::object([
            ("name", Value::from("s2")),
            ("emissions_g", Value::from(2.0)),
        ])]);
        let expected: Vec<String> = vec!["s1".into(), "s2".into()];
        // Round trip.
        let merged = merge_reports(Some(&expected), &[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].get("name"), Some(&Value::from("s1")));
        // Overlapping shards.
        let err = merge_reports(Some(&expected), &[a.clone(), a.clone()]).unwrap_err();
        assert_eq!(err, MergeError::Duplicate("s1".into()));
        // Missing scenario.
        let err = merge_reports(Some(&expected), std::slice::from_ref(&a)).unwrap_err();
        assert_eq!(err, MergeError::Missing(vec!["s2".into()]));
        // Unexpected scenario.
        let only_s1: Vec<String> = vec!["s1".into()];
        let err = merge_reports(Some(&only_s1), &[a.clone(), b.clone()]).unwrap_err();
        assert_eq!(err, MergeError::Unexpected(vec!["s2".into()]));
        // Plan-less merge sorts by name and still rejects duplicates.
        let merged = merge_reports(None, &[b.clone(), a.clone()]).unwrap();
        assert_eq!(merged[0].get("name"), Some(&Value::from("s1")));
        assert!(merge_reports(None, &[a.clone(), a]).is_err());
        // Malformed documents name the offending file.
        let err = merge_reports(None, &[Value::from(3.0)]).unwrap_err();
        assert!(
            matches!(err, MergeError::Malformed { doc: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn empty_shards_execute_and_merge_cleanly() {
        let data = builtin_dataset();
        // A one-scenario plan sharded 4 ways leaves three empty shards.
        let scenario = Scenario {
            name: "lone".into(),
            workload: WorkloadSpec::Batch {
                per_origin: 1,
                arrival: Arrival::fixed(24),
                length_hours: 2.0,
                slack: Slack::Day,
                interruptible: true,
            },
            policy: PolicyKind::CarbonAgnostic,
            regions: RegionSpec::Custom {
                label: "se".into(),
                codes: vec!["SE".into()],
            },
            overheads: OverheadKind::Zero,
            capacity_per_region: 8,
            forecaster: ForecasterKind::Seasonal,
            slo_ms: 120.0,
            start: year_start(2022),
            horizon: 48,
        };
        let plan = SweepPlan::plan(&data, vec![scenario]).unwrap();
        let mut docs = Vec::new();
        let mut non_empty = 0;
        for index in 0..4 {
            let shard = plan.shard(4, index).unwrap();
            non_empty += usize::from(!shard.is_empty());
            let reports: Vec<Value> = shard.execute(&data).iter().map(|r| r.to_json()).collect();
            docs.push(Value::Array(reports));
        }
        assert_eq!(non_empty, 1);
        let names = plan.names();
        let merged = merge_reports(Some(&names), &docs).unwrap();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].get("name"), Some(&Value::from("lone")));
    }
}
