//! Static scenario checker: semantic validation without simulating.
//!
//! The parser (`scenario_file`) rejects files that are *malformed*;
//! this module flags files that are *meaningless* — scenarios that
//! parse cleanly but can only waste a sweep:
//!
//! * `unsatisfiable-job` — the workload's worst-case completion (last
//!   arrival + full slack + runtime) overruns the horizon, or jobs
//!   arrive at/past the horizon and never run at all;
//! * `trace-coverage` — the scenario window falls outside the hours
//!   the dataset actually covers for one of its zones;
//! * `resolution-alignment` — a wall-clock job duration that does not
//!   land on whole slots of the dataset's time axis and is silently
//!   quantized up (e.g. a 1.5 h batch length on hourly data runs for
//!   2 h); the hint names the dataset's resolution. Sub-slot durations
//!   (interactive requests) are exempt — they scale energy instead;
//! * `unknown-zone` — a region code that neither the dataset nor a
//!   `[region CODE]` section in the same file defines;
//! * `empty-regions` / `zero-capacity` — degenerate axes that the
//!   parser already rejects in files but programmatic callers can
//!   still construct;
//! * `dead-axis` — two scenarios whose canonical encodings collide
//!   ([`Scenario::outcome_id`]), so one simulates nothing new;
//! * `unknown-key` — a typo'd key in any section, with an
//!   edit-distance suggestion. The parser rejects the first of them
//!   through the same walk (`decarb_traces::sections`); the checker
//!   reports them all;
//! * `parse-error` — fallback span for files the parser rejects for
//!   any other reason.
//!
//! Diagnostics reuse [`decarb_analyze::Diagnostic`], so `scenario
//! check` and `analyze` share one report/JSON format. File-based
//! checks anchor every finding to a 1-based line; programmatic checks
//! (the built-in matrix, in-memory scenario lists) use line 0.

use std::collections::HashMap;

use decarb_analyze::Diagnostic;
use decarb_traces::TraceSet;
use decarb_workloads::WorkloadSpec;

use crate::scenario::Scenario;
use crate::scenario_file::{parse_scenario_file_full, sections, unknown_keys};

/// Checks an in-memory scenario list against `data`.
///
/// `label` names the source in diagnostics (e.g. `<builtin>`); spans
/// are line 0 because in-memory scenarios have no file positions.
pub fn check_scenarios(label: &str, scenarios: &[Scenario], data: &TraceSet) -> Vec<Diagnostic> {
    semantic_diagnostics(label, scenarios, None, &[], data)
}

/// Checks a scenario file's text against `data`.
///
/// Findings are anchored to the declaring section's 1-based line
/// (matrix-expanded scenarios all point at their `[matrix]` header).
/// Zones declared by `[region CODE]` sections are treated as known —
/// the runner synthesizes traces for them — and skipped by the
/// `unknown-zone` and `trace-coverage` rules.
pub fn check_file(path: &str, text: &str, data: &TraceSet) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = sections(text)
        .map(|sections| {
            unknown_keys(&sections)
                .map(|e| Diagnostic::new(path, e.line, "unknown-key", e.message))
                .collect()
        })
        .unwrap_or_default();
    match parse_scenario_file_full(text) {
        // The parser rejects the first unknown key through the same
        // walk, so a parse error on a line that already has an
        // unknown-key finding repeats it.
        Err(e) => {
            if diags.iter().all(|d| d.line != e.line) {
                diags.push(Diagnostic::new(path, e.line, "parse-error", e.message));
            }
        }
        Ok(file) => {
            let synthesized: Vec<String> =
                file.custom_regions.iter().map(|r| r.code.clone()).collect();
            diags.extend(semantic_diagnostics(
                path,
                &file.scenarios,
                Some(&file.lines),
                &synthesized,
                data,
            ));
        }
    }
    diags.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    diags
}

/// The semantic rules shared by the file and in-memory entry points.
fn semantic_diagnostics(
    file: &str,
    scenarios: &[Scenario],
    lines: Option<&[usize]>,
    synthesized: &[String],
    data: &TraceSet,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut outcomes: HashMap<String, usize> = HashMap::new();
    for (i, s) in scenarios.iter().enumerate() {
        let line = lines.and_then(|l| l.get(i).copied()).unwrap_or(0);
        let codes = s.regions.codes();

        if codes.is_empty() {
            diags.push(Diagnostic::new(
                file,
                line,
                "empty-regions",
                format!(
                    "scenario `{}`: region set `{}` lists no zones",
                    s.name,
                    s.regions.label()
                ),
            ));
        }
        if s.capacity_per_region == 0 {
            diags.push(Diagnostic::new(
                file,
                line,
                "zero-capacity",
                format!(
                    "scenario `{}`: capacity_per_region is 0, every job will be rejected",
                    s.name
                ),
            ));
        }

        // Scenario start/horizon are wall-clock hours; series bounds
        // live on the dataset's slot axis. Scale once for comparison,
        // saturating so a window past the slot clock's end (which
        // `Scenario::validate_against` rejects) reads as uncovered.
        let sph = data.resolution().slots_per_hour() as u64;
        let slot_start = u64::from(s.start.0) * sph;
        let window_end = (s.horizon as u64)
            .saturating_mul(sph)
            .saturating_add(slot_start);
        for code in &codes {
            if synthesized.iter().any(|c| c == code) {
                continue;
            }
            match data.series(code) {
                Err(_) => diags.push(Diagnostic::new(
                    file,
                    line,
                    "unknown-zone",
                    format!(
                        "scenario `{}`: zone `{code}` is not in the dataset and no \
                         [region {code}] section declares it",
                        s.name
                    ),
                )),
                Ok(series) => {
                    if slot_start < u64::from(series.start().0)
                        || window_end > u64::from(series.end().0)
                    {
                        diags.push(Diagnostic::new(
                            file,
                            line,
                            "trace-coverage",
                            format!(
                                "scenario `{}`: window [{}, {}) falls outside zone `{code}`'s \
                                 trace coverage [{}, {})",
                                s.name,
                                slot_start,
                                window_end,
                                series.start().0,
                                series.end().0
                            ),
                        ));
                    }
                }
            }
        }

        for (what, hours) in workload_durations(&s.workload) {
            let minutes = data.resolution().minutes() as f64;
            let total_min = hours * 60.0;
            // Sub-slot durations are by design (interactive requests
            // occupy one slot at proportional energy); whole-slot
            // multiples align. Everything between quantizes up.
            let slots = total_min / minutes;
            if total_min > minutes && (slots - slots.round()).abs() > 1e-9 {
                diags.push(Diagnostic::new(
                    file,
                    line,
                    "resolution-alignment",
                    format!(
                        "scenario `{}`: {what} {hours} h does not align to the dataset's \
                         {} slots and quantizes up to {} slots — did you mean a multiple \
                         of {}, or a finer-resolution dataset?",
                        s.name,
                        data.resolution(),
                        slots.ceil() as usize,
                        data.resolution(),
                    ),
                ));
            }
        }

        if !codes.is_empty() {
            let origins = codes.len();
            let last = s.workload.last_arrival_offset(origins);
            let worst = s.workload.worst_case_completion_offset(origins);
            if last >= s.horizon {
                diags.push(Diagnostic::new(
                    file,
                    line,
                    "unsatisfiable-job",
                    format!(
                        "scenario `{}`: the last job arrives {last}h after the start, at or \
                         past the {}h horizon — it can never run (shrink per_origin/spacing \
                         or extend the horizon)",
                        s.name, s.horizon
                    ),
                ));
            } else if worst > s.horizon {
                diags.push(Diagnostic::new(
                    file,
                    line,
                    "unsatisfiable-job",
                    format!(
                        "scenario `{}`: worst-case completion {worst}h after the start \
                         overruns the {}h horizon — jobs deferred through their full slack \
                         cannot finish (reduce slack/length or extend the horizon)",
                        s.name, s.horizon
                    ),
                ));
            }
        }

        match outcomes.get(&s.outcome_id()) {
            Some(&first) => {
                let twin = scenarios
                    .get(first)
                    .map_or("<unknown>", |t| t.name.as_str());
                diags.push(Diagnostic::new(
                    file,
                    line,
                    "dead-axis",
                    format!(
                        "scenario `{}` duplicates `{twin}` (identical canonical encoding) — \
                         a dead matrix axis that simulates nothing new",
                        s.name
                    ),
                ));
            }
            None => {
                outcomes.insert(s.outcome_id(), i);
            }
        }
    }
    diags
}

/// The wall-clock durations a workload materializes, for the
/// resolution-alignment rule. Slack and horizon are integer hours and
/// align to every divisor-of-60 resolution by construction, so only
/// job lengths can misalign.
fn workload_durations(workload: &WorkloadSpec) -> Vec<(&'static str, f64)> {
    match workload {
        WorkloadSpec::Batch { length_hours, .. } => vec![("batch length", *length_hours)],
        WorkloadSpec::Interactive { .. } => Vec::new(),
        WorkloadSpec::Mixed {
            batch_length_hours, ..
        } => vec![("batch length", *batch_length_hours)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builtin_scenarios;
    use decarb_traces::builtin_dataset;
    use decarb_traces::time::year_start;

    #[test]
    fn builtin_matrix_checks_clean() {
        let data = builtin_dataset();
        let scenarios = builtin_scenarios();
        assert_eq!(scenarios.len(), 54);
        let diags = check_scenarios("<builtin>", &scenarios, &data);
        assert!(
            diags.is_empty(),
            "builtin matrix must check clean:\n{}",
            decarb_analyze::render_report(&diags)
        );
    }

    #[test]
    fn edit_distance_and_suggestions() {
        let text = "\
[workload w]
class = batch

[scenario s]
workload = w
policy = agnostic
regions = europe
horzion = 240
capactiy = 2
frobnicate = 1
";
        let diags = check_file("typos.scenario", text, &builtin_dataset());
        let messages: Vec<(usize, &str)> =
            diags.iter().map(|d| (d.line, d.message.as_str())).collect();
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "unknown-key"), "{diags:?}");
        assert_eq!(messages[0].0, 8);
        assert!(
            messages[0].1.contains("did you mean `horizon`?"),
            "{messages:?}"
        );
        assert!(
            messages[1].1.contains("did you mean `capacity`?"),
            "{messages:?}"
        );
        // Nothing within two edits: the hint lists the section's keys.
        assert!(
            messages[2].1.contains("(valid: workload, policy, regions,"),
            "{messages:?}"
        );
    }

    #[test]
    fn unknown_keys_get_typo_suggestions_with_spans() {
        let text = "\
[workload w]
class = batch
lenth = 4

[scenario s]
workload = w
policy = agnostic
regions = europe
horzion = 240
";
        let data = builtin_dataset();
        let diags = check_file("bad.scenario", text, &data);
        let keys: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "unknown-key").collect();
        assert_eq!(keys.len(), 2, "{diags:?}");
        assert_eq!(keys[0].line, 3);
        assert!(
            keys[0].message.contains("did you mean `length`?"),
            "{}",
            keys[0].message
        );
        assert_eq!(keys[1].line, 9);
        assert!(
            keys[1].message.contains("did you mean `horizon`?"),
            "{}",
            keys[1].message
        );
        // The parser's own rejection of the same line is not repeated
        // as a parse-error diagnostic.
        assert!(diags.iter().all(|d| d.rule != "parse-error"), "{diags:?}");
    }

    #[test]
    fn parse_errors_fall_through_with_their_line() {
        let data = builtin_dataset();
        let diags = check_file("bad.scenario", "[scenario s]\nworkload = w\n", &data);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "parse-error");
        assert_eq!(diags[0].line, 2);
        assert!(
            diags[0].message.contains("unknown workload"),
            "{}",
            diags[0].message
        );
        // Broken grammar (not just semantics) also maps to parse-error.
        let diags = check_file("bad.scenario", "[scenario\n", &data);
        assert_eq!(diags[0].rule, "parse-error");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn windows_past_the_slot_clock_are_parse_errors_on_their_line() {
        let data = builtin_dataset();
        let overflow = include_str!("../../../ci/scenario-seed/overflow.scenario");
        let horizon = overflow.replace(
            "start_offset = 4294967295",
            "horizon = 18446744073709551615",
        );
        for (text, needle) in [
            (overflow, "`start_offset`"),
            (horizon.as_str(), "`horizon`"),
        ] {
            let diags = check_file("overflow.scenario", text, &data);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].rule, "parse-error");
            assert_eq!(diags[0].line, 24);
            assert!(diags[0].message.contains(needle), "{}", diags[0].message);
            assert!(
                diags[0].message.contains("slot clock"),
                "{}",
                diags[0].message
            );
        }
        // In-memory scenarios skip the parser; their coverage check
        // saturates instead of wrapping.
        let mut late = builtin_scenarios().remove(0);
        late.horizon = usize::MAX;
        let diags = check_scenarios("<mem>", &[late], &data);
        assert!(
            diags.iter().any(|d| d.rule == "trace-coverage"),
            "{diags:?}"
        );
    }

    #[test]
    fn recipes_past_the_slot_clock_are_parse_errors_on_their_line() {
        let data = builtin_dataset();
        let recipe = include_str!("../../../ci/scenario-seed/recipe-overflow.scenario");
        let sparse = recipe.replace("per_origin = 18446744073709551615", "per_origin = 100");
        let poisson = sparse.replace("spacing = 1000000", "arrival = poisson:0.000001");
        for (text, line, needle) in [
            (recipe, 16, "`per_origin` 18446744073709551615 exceeds"),
            (sparse.as_str(), 17, "`fixed:1000000` span about 99000000 h"),
            (poisson.as_str(), 17, "`poisson:0.000001:41505` span about"),
        ] {
            let diags = check_file("recipe-overflow.scenario", text, &data);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].rule, "parse-error");
            assert_eq!(diags[0].line, line, "{}", diags[0].message);
            assert!(diags[0].message.contains(needle), "{}", diags[0].message);
        }
    }

    #[test]
    fn class_inapplicable_workload_keys_are_parse_errors() {
        // Every key is in the workload vocabulary, but `slack` does not
        // apply to interactive workloads: the parser rejects it at the
        // header, and no unknown-key finding on that line hides it.
        let text = "\
[workload web]
class = interactive
slack = day

[scenario s]
workload = web
policy = agnostic
regions = europe
";
        let diags = check_file("web.scenario", text, &builtin_dataset());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "parse-error");
        assert_eq!(diags[0].line, 1);
        assert!(diags[0].message.contains("`slack`"), "{}", diags[0].message);
    }

    #[test]
    fn unsatisfiable_jobs_are_flagged_with_the_section_line() {
        // 6 jobs/origin × 48h spacing (origins staggered 1h apart): the
        // last of 8 European origins sees its final arrival at
        // 5·48 + 7 = 247h — at or past a 240h horizon.
        let text = "\
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
        let data = builtin_dataset();
        let diags = check_file("doomed.scenario", text, &data);
        let unsat: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "unsatisfiable-job")
            .collect();
        assert_eq!(unsat.len(), 1, "{diags:?}");
        assert_eq!(unsat[0].line, 8, "spans the [scenario] header");
        assert!(
            unsat[0].message.contains("can never run"),
            "{}",
            unsat[0].message
        );
        // Tight-but-possible arrivals (last at 5·12 + 7 = 67h) with a
        // week of slack hit the worst-case-completion variant instead:
        // 67 + 168 + 8 = 243h > 240h.
        let slack_text = text.replace("spacing = 48", "spacing = 12");
        let diags = check_file("doomed.scenario", &slack_text, &data);
        let unsat: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "unsatisfiable-job")
            .collect();
        assert_eq!(unsat.len(), 1, "{diags:?}");
        assert!(
            unsat[0].message.contains("worst-case completion"),
            "{}",
            unsat[0].message
        );
        // Giving the horizon room silences the rule.
        let ok_text = slack_text.replace("horizon = 240", "horizon = 480");
        let diags = check_file("ok.scenario", &ok_text, &data);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn trace_coverage_and_unknown_zones_are_flagged() {
        let data = builtin_dataset();
        let mut doomed = builtin_scenarios().remove(0);
        // Start 100h before the dataset's final covered hour: the 384h
        // window overruns the end of coverage in every zone.
        doomed.start =
            year_start(2023).plus(decarb_traces::time::hours_in_year(2023).saturating_sub(100));
        let doomed_start = doomed.start.0;
        let ahead = {
            let mut s = doomed.clone();
            s.start = year_start(2022);
            s
        };
        let diags = check_scenarios("<mem>", &[doomed, ahead], &data);
        let coverage: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "trace-coverage")
            .collect();
        assert!(!coverage.is_empty(), "{diags:?}");
        assert!(
            coverage[0].message.contains("falls outside"),
            "{}",
            coverage[0].message
        );
        // Only the overrunning twin is flagged, never the 2022 one.
        assert!(
            coverage
                .iter()
                .all(|d| d.message.contains(&format!("window [{doomed_start},"))),
            "{diags:?}"
        );

        // Unknown zones surface per code, but `[region CODE]`
        // declarations suppress them in file checks.
        let text = "\
[workload w]
class = batch
length = 2

[regions mixed]
codes = XX-NEW, ZZ-MISSING

[region XX-NEW]
mean_ci = 100

[scenario s]
workload = w
policy = agnostic
regions = mixed
";
        let diags = check_file("f.scenario", text, &data);
        let unknown: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "unknown-zone").collect();
        assert_eq!(unknown.len(), 1, "{diags:?}");
        assert!(
            unknown[0].message.contains("ZZ-MISSING"),
            "{}",
            unknown[0].message
        );
        assert_eq!(unknown[0].line, 11, "spans the [scenario] header");
    }

    #[test]
    fn misaligned_durations_are_flagged_with_the_dataset_resolution() {
        use decarb_traces::{Resolution, TimeSeries, TraceSet};
        use decarb_workloads::{Arrival, Slack};

        let start = year_start(2022);
        let de = decarb_traces::catalog::region("DE").unwrap().clone();
        let series = TimeSeries::new(start, vec![100.0; 24 * 40]);
        let hourly = TraceSet::from_series(vec![(de, series)]);

        let mut s = builtin_scenarios().remove(0);
        s.regions = crate::scenario::RegionSpec::Custom {
            label: "solo".into(),
            codes: vec!["DE".into()],
        };
        s.workload = WorkloadSpec::Batch {
            per_origin: 2,
            arrival: Arrival::fixed(24),
            length_hours: 1.5,
            slack: Slack::Day,
            interruptible: false,
        };
        s.start = start;
        s.horizon = 24 * 30;

        // 1.5 h on hourly data quantizes up to 2 slots: flagged, with
        // the dataset's resolution in the hint.
        let diags = check_scenarios("<mem>", std::slice::from_ref(&s), &hourly);
        let aligned: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "resolution-alignment")
            .collect();
        assert_eq!(aligned.len(), 1, "{diags:?}");
        assert!(
            aligned[0].message.contains("60min"),
            "{}",
            aligned[0].message
        );
        assert!(
            aligned[0].message.contains("1.5 h"),
            "{}",
            aligned[0].message
        );
        assert!(
            aligned[0].message.contains("2 slots"),
            "{}",
            aligned[0].message
        );

        // The same scenario on a 5-minute dataset aligns (90 min = 18
        // slots) and checks clean.
        let fine = hourly
            .resample_to(Resolution::from_minutes(5).unwrap())
            .unwrap();
        let diags = check_scenarios("<mem>", &[s], &fine);
        assert!(
            diags.iter().all(|d| d.rule != "resolution-alignment"),
            "{diags:?}"
        );
    }

    #[test]
    fn degenerate_scenarios_and_dead_axes_are_flagged() {
        let data = builtin_dataset();
        let mut base = builtin_scenarios().remove(0);
        base.regions = crate::scenario::RegionSpec::Custom {
            label: "nothing".into(),
            codes: Vec::new(),
        };
        base.capacity_per_region = 0;
        let diags = check_scenarios("<mem>", &[base], &data);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
        assert!(rules.contains(&"empty-regions"), "{diags:?}");
        assert!(rules.contains(&"zero-capacity"), "{diags:?}");

        // Two scenarios differing only in name share an outcome id.
        let a = builtin_scenarios().remove(0);
        let mut b = a.clone();
        b.name = "renamed-twin".into();
        let diags = check_scenarios("<mem>", &[a.clone(), b], &data);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "dead-axis");
        assert!(diags[0].message.contains(&a.name), "{}", diags[0].message);
        assert!(
            diags[0].message.contains("renamed-twin"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn dead_axis_catches_aliased_region_sets_in_files() {
        // A custom set with the same codes as `europe` produces the
        // same canonical encoding: the matrix axis is dead even though
        // the labels differ.
        let europe = crate::scenario::RegionSet::Europe.codes().join(", ");
        let text = format!(
            "\
[workload w]
class = batch
length = 2

[regions europa]
codes = {europe}

[matrix m]
workloads = w
policies = agnostic
regions = europe, europa
"
        );
        let data = builtin_dataset();
        let diags = check_file("alias.scenario", &text, &data);
        let dead: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "dead-axis").collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert_eq!(dead[0].line, 8, "spans the [matrix] header");
    }
}
