//! The builtin scenario matrix against its golden report
//! (`tests/golden/scenarios.json`), field by field.
//!
//! `scenario diff` checks every numeric field too, floats within its
//! `--tolerance-pct` (0.1% by default; CI passes 1e-7, this test's
//! bound). This test pins them within 1e-9 relative, so a change to the
//! engine, the policies or the sweep executor shows each field it moves.

use decarb::sim::{builtin_scenarios, SweepPlan};
use decarb::traces::builtin_dataset;
use decarb_json::Value;

/// Fields that count things: they must match exactly.
const COUNTS: &[&str] = &[
    "capacity",
    "jobs",
    "completed",
    "unfinished",
    "missed_deadlines",
    "stalled_hours",
    "migrations",
    "transitions",
];

/// Fields that accumulate floats: they must match within 1e-9 relative.
const MEASURES: &[&str] = &[
    "energy_kwh",
    "emissions_g",
    "avg_ci_g_per_kwh",
    "mean_slowdown",
];

/// Wall-clock time: differs on every run.
const UNPINNED: &[&str] = &["elapsed_s"];

fn golden() -> Vec<Value> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/scenarios.json");
    let text = std::fs::read_to_string(path).expect("golden report is readable");
    match decarb_json::parse(&text).expect("golden report is JSON") {
        Value::Array(reports) => reports,
        other => panic!("golden report is not an array: {other:?}"),
    }
}

fn fields(report: &Value) -> &[(String, Value)] {
    match report {
        Value::Object(pairs) => pairs,
        other => panic!("report is not an object: {other:?}"),
    }
}

#[test]
fn builtin_matrix_matches_the_golden_report_on_every_field() {
    let data = builtin_dataset();
    let plan = SweepPlan::plan(&data, builtin_scenarios()).expect("builtin matrix plans");
    let reports: Vec<Value> = plan.execute(&data).iter().map(|r| r.to_json()).collect();
    let golden = golden();
    let names = |list: &[Value]| -> Vec<String> {
        list.iter()
            .map(|r| format!("{:?}", r.get("name")))
            .collect()
    };
    assert_eq!(
        names(&reports),
        names(&golden),
        "plan order or scenario set drifted"
    );

    for (report, expected) in reports.iter().zip(&golden) {
        let name = expected.get("name");
        // Every numeric field of either side is classified, so a new
        // field cannot slip past the comparison unpinned.
        for (key, value) in fields(report).iter().chain(fields(expected)) {
            if matches!(value, Value::Number(_)) {
                assert!(
                    COUNTS.contains(&key.as_str())
                        || MEASURES.contains(&key.as_str())
                        || UNPINNED.contains(&key.as_str()),
                    "{name:?}: numeric field `{key}` is not classified"
                );
            }
        }
        for (key, want) in fields(expected) {
            if UNPINNED.contains(&key.as_str()) {
                continue;
            }
            let got = report
                .get(key)
                .unwrap_or_else(|| panic!("{name:?}: report lacks `{key}`"));
            match (got, want) {
                (Value::Number(got), Value::Number(want)) if MEASURES.contains(&key.as_str()) => {
                    let scale = want.abs().max(f64::MIN_POSITIVE);
                    assert!(
                        (got - want).abs() <= 1e-9 * scale,
                        "{name:?}: `{key}` {got} vs golden {want}"
                    );
                }
                _ => assert_eq!(got, want, "{name:?}: `{key}`"),
            }
        }
    }
}
