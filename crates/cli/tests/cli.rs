//! Integration tests driving the `decarb-cli` binary end-to-end:
//! usage text, exit codes, registry listing, and error surfaces.
//!
//! The container has no route to a crates registry, so instead of
//! `assert_cmd` these tests spawn the binary Cargo builds for us via
//! `CARGO_BIN_EXE_decarb-cli` and assert on `std::process::Output`
//! directly — same shape, no dependency.

use std::process::{Command, Output};

/// Runs the compiled binary with `args` and returns its output.
fn decarb_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_decarb-cli"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_to_stderr_and_exits_2() {
    let out = decarb_cli(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty());
    assert!(stderr(&out).contains("usage: decarb-cli"));
    let help = decarb_cli(&["--help"]);
    assert!(help.status.success());
    let text = stdout(&help);
    assert!(text.contains("usage: decarb-cli"));
    assert!(text.contains("run      <ID...|all> [--json]"));
}

#[test]
fn help_flag_prints_usage() {
    for flag in ["--help", "-h", "help"] {
        let out = decarb_cli(&[flag]);
        assert!(out.status.success(), "{flag}");
        assert!(stdout(&out).contains("usage: decarb-cli"), "{flag}");
    }
}

#[test]
fn every_subcommand_help_prints_its_row_and_exits_0() {
    for spec in decarb_cli::args::COMMANDS {
        let mut args: Vec<&str> = spec.path.split(' ').collect();
        args.push("--help");
        let out = decarb_cli(&args);
        let path = spec.path;
        assert_eq!(out.status.code(), Some(0), "{path}: {}", stderr(&out));
        assert!(stderr(&out).is_empty(), "{path}");
        assert_eq!(
            stdout(&out),
            format!("{}\n\n{}\n", spec.usage(), spec.help),
            "{path}"
        );
    }
}

#[test]
fn unknown_command_exits_2_with_usage_on_stderr() {
    let out = decarb_cli(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown command `frobnicate`"));
    assert!(err.contains("usage: decarb-cli"));
    assert!(stdout(&out).is_empty());
}

/// Every row of the command table, and whether it needs an argument
/// (so that running it bare is a usage error).
const SUBCOMMANDS: &[(&str, bool)] = &[
    ("regions", false),
    ("analyze", true),
    ("analyze --workspace", false),
    ("plan", true),
    ("forecast", true),
    ("rank", false),
    ("export", true),
    ("list", false),
    ("run", true),
    ("scenario list", false),
    ("scenario run", true),
    ("scenario check", true),
    ("scenario merge", true),
    ("scenario history append", true),
    ("scenario history show", true),
    ("scenario history check", true),
    ("scenario diff", true),
    ("data pack", true),
    ("data probe", true),
    ("data append", true),
    ("serve", false),
    ("serve bench", false),
];

/// Asserts a usage failure: exit 2, nothing on stdout, and stderr ending
/// in `path`'s usage line (the path, then nothing or its synopsis, which
/// opens with `[`, `<` or `-`) as its only `usage:` text.
fn assert_usage_error(out: &Output, path: &str) -> String {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "{path}: {err}");
    assert!(stdout(out).is_empty(), "{path}");
    assert_eq!(err.matches("usage:").count(), 1, "{path}: {err}");
    let last = err.trim_end().lines().last().unwrap_or_default();
    let synopsis = last
        .strip_prefix(&format!("usage: decarb-cli {path}"))
        .unwrap_or_else(|| panic!("{path}: {err}"));
    assert!(
        synopsis.is_empty() || [" [", " <", " -"].iter().any(|p| synopsis.starts_with(p)),
        "{path}: {err}"
    );
    err
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_with_its_usage_line() {
    for (path, _) in SUBCOMMANDS {
        let mut args: Vec<&str> = path.split(' ').collect();
        args.push("--bogus");
        let err = assert_usage_error(&decarb_cli(&args), path);
        assert!(err.contains("unknown option `--bogus`"), "{path}: {err}");
    }
    // One host runs the whole sweep in-process; there is no `--workers`.
    let workers = decarb_cli(&["scenario", "run", "all", "--workers", "2"]);
    let err = assert_usage_error(&workers, "scenario run");
    assert!(err.contains("unknown option `--workers`"), "{err}");
}

#[test]
fn every_subcommand_missing_its_argument_prints_its_usage_line() {
    for (path, _) in SUBCOMMANDS.iter().filter(|(_, needs)| *needs) {
        let args: Vec<&str> = path.split(' ').collect();
        assert_usage_error(&decarb_cli(&args), path);
    }
}

/// Every row of the command table that takes a zone code, given the
/// unknown zone `XX-NOPE` and otherwise valid arguments.
const UNKNOWN_ZONE_RUNS: &[&str] = &[
    "analyze XX-NOPE",
    "plan XX-NOPE --hours 6",
    "forecast XX-NOPE",
    "export XX-NOPE",
];

#[test]
fn every_zone_subcommand_rejects_an_unknown_zone_with_exit_2() {
    for run in UNKNOWN_ZONE_RUNS {
        let args: Vec<&str> = run.split(' ').collect();
        let out = decarb_cli(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{run}: {err}");
        assert!(stdout(&out).is_empty(), "{run}");
        assert!(
            err.contains("unknown zone `XX-NOPE` (see `regions`)"),
            "{run}: {err}"
        );
    }
}

#[test]
fn list_enumerates_the_whole_registry() {
    let out = decarb_cli(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    // Every registered id appears at the start of its own line.
    for id in [
        "table1",
        "fig1",
        "fig3a",
        "fig3b",
        "fig4",
        "fig5",
        "fig6a",
        "fig6b",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11a",
        "fig11b",
        "fig11cd",
        "fig12",
        "ext",
        "ext-forecast",
        "ext-grid",
        "ext-embodied",
        "ext-sim",
        "ext-elastic",
        "ext-rank",
        "ext-pareto",
        "ext-scenarios",
    ] {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(id)),
            "missing {id} in list output"
        );
    }
    assert!(text.contains("25 experiments"));
}

#[test]
fn run_unknown_id_exits_2_and_points_at_list() {
    // Ids resolve before any experiment runs, so a bad one among
    // several prints nothing.
    for argv in [&["run", "fig99"][..], &["run", "table1", "fig99"]] {
        let out = decarb_cli(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(stdout(&out).is_empty(), "{argv:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown experiment id `fig99`"), "{argv:?}");
        assert!(err.contains("see `list`"), "{argv:?}");
    }
}

#[test]
fn run_without_id_exits_2() {
    let out = decarb_cli(&["run"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("needs an experiment id"));
}

#[test]
fn run_rejects_unknown_flags() {
    let out = decarb_cli(&["run", "table1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option `--bogus`"));
}

#[test]
fn run_table1_renders_the_text_table() {
    let out = decarb_cli(&["run", "table1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("[table1]"), "{text}");
    assert!(text.contains('|'), "table body rendered");
}

#[test]
fn run_table1_json_is_structured() {
    let out = decarb_cli(&["run", "table1", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with('{'), "{text}");
    assert!(text.contains("\"id\": \"table1\""));
    assert!(text.contains("\"tables\""));
    assert!(text.contains("\"columns\""));
}

#[test]
fn run_several_ids_prints_them_in_the_order_given() {
    let out = decarb_cli(&["run", "fig1", "table1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let fig1 = text.find("[fig1a]").expect("fig1 tables printed");
    let table1 = text.find("[table1]").expect("table1 printed");
    assert!(fig1 < table1, "{text}");

    let out = decarb_cli(&["run", "--json", "fig1", "table1"]);
    assert!(out.status.success());
    let value = decarb_json::parse(&stdout(&out)).expect("JSON output");
    let decarb_json::Value::Array(runs) = value else {
        panic!("several ids print an array");
    };
    let ids: Vec<_> = runs.iter().map(|r| r.get("id").cloned()).collect();
    assert_eq!(
        ids,
        [Some("fig1".into()), Some("table1".into())],
        "{runs:?}"
    );
}

#[test]
fn plan_and_forecast_reject_overflowing_flags_with_exit_2() {
    let max = usize::MAX.to_string();
    for argv in [
        ["plan", "DE", "--hours", "1", "--slack", &max],
        ["plan", "DE", "--hours", "2", "--arrive", &max],
    ] {
        let err = assert_usage_error(&decarb_cli(&argv), "plan");
        assert!(err.contains("past the year end"), "{argv:?}: {err}");
    }
    let out = decarb_cli(&["forecast", "DE", "--days", &max]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--days must lie in"));
}

#[test]
fn run_and_list_reject_imported_datasets() {
    let out = decarb_cli(&["--data", "/dev/null", "list"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("built-in dataset"));
}

#[test]
fn scenario_list_enumerates_the_matrix() {
    let out = decarb_cli(&["scenario", "list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("batch-agnostic-europe"), "{text}");
    assert!(text.contains("mixed-greenest-global"), "{text}");
    assert!(text.contains("batch-forecast-us"), "{text}");
    assert!(text.contains("batch-spatiotemporal-europe"), "{text}");
    assert!(text.contains("54 scenarios"), "{text}");
}

#[test]
fn scenario_run_one_emits_json_object() {
    let out = decarb_cli(&["scenario", "run", "batch-deferral-europe", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with('{'), "{text}");
    assert!(text.contains("\"name\": \"batch-deferral-europe\""));
    assert!(text.contains("\"emissions_g\""));
}

#[test]
fn scenario_run_all_json_is_one_array_document() {
    let out = decarb_cli(&["scenario", "run", "all", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let trimmed = text.trim();
    assert!(trimmed.starts_with('['), "{text}");
    assert!(trimmed.ends_with(']'), "{text}");
    assert_eq!(text.matches("\"name\":").count(), 54, "{text}");
}

#[test]
fn scenario_run_unknown_name_exits_2_listing_valid_names() {
    let out = decarb_cli(&["scenario", "run", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty());
    let err = stderr(&out);
    assert!(err.contains("unknown scenario `bogus`"), "{err}");
    // The error enumerates the valid names rather than being opaque.
    assert!(err.contains("valid names:"), "{err}");
    assert!(err.contains("batch-agnostic-europe"), "{err}");
    assert!(err.contains("interactive-threshold-us"), "{err}");
    assert!(err.contains("mixed-spatiotemporal-global"), "{err}");
    // `scenario check` reads its target the same way and says the same.
    let check = decarb_cli(&["scenario", "check", "bogus"]);
    assert_eq!(check.status.code(), Some(2));
    assert_eq!(stderr(&check), err);
}

#[test]
fn windows_past_the_slot_clock_fail_with_exit_1_on_their_line() {
    // The seeded fixture CI runs: a start past the slot clock is a
    // failed check (exit 1) anchored at its line — neither a silent
    // pass (0) nor a panic (101) — and `scenario run` refuses it alike.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/scenario-seed/overflow.scenario"
    );
    let check = decarb_cli(&["scenario", "check", "--file", path]);
    let err = stderr(&check);
    assert_eq!(check.status.code(), Some(1), "{err}");
    assert!(err.contains("overflow.scenario:24: [parse-error]"), "{err}");
    assert!(err.contains("`start_offset` 4294967295"), "{err}");
    let run = decarb_cli(&["scenario", "run", "--file", path]);
    let err = stderr(&run);
    assert_eq!(run.status.code(), Some(1), "{err}");
    assert!(err.contains("line 24"), "{err}");
}

#[test]
fn scenario_run_file_round_trips_through_the_binary() {
    // parse → run → JSON, end to end over a real file.
    let path = std::env::temp_dir().join("decarb_cli_e2e.scenario");
    std::fs::write(
        &path,
        "\
[workload tiny]
class = batch
per_origin = 2
spacing = 24
length = 3
slack = day

[matrix m]
workloads = tiny
policies = agnostic, forecast, spatiotemporal
regions = europe
",
    )
    .unwrap();
    let out = decarb_cli(&[
        "scenario",
        "run",
        "--file",
        path.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("\"name\":").count(), 3, "{text}");
    assert!(text.contains("\"tiny-forecast-europe\""), "{text}");
    assert!(text.contains("\"tiny-spatiotemporal-europe\""), "{text}");
    std::fs::remove_file(&path).ok();
    // A missing file is a clean exit-1 failure, not a panic.
    let out = decarb_cli(&["scenario", "run", "--file", "/nonexistent.scenario"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("/nonexistent.scenario"));
}

#[test]
fn scenario_diff_gates_emissions_drift_end_to_end() {
    let dir = std::env::temp_dir();
    let report = dir.join("decarb_cli_e2e_report.json");
    let golden = dir.join("decarb_cli_e2e_golden.json");
    let run = decarb_cli(&["scenario", "run", "batch-agnostic-europe", "--json"]);
    assert!(run.status.success());
    std::fs::write(&report, run.stdout.clone()).unwrap();
    std::fs::write(&golden, run.stdout.clone()).unwrap();
    let out = decarb_cli(&[
        "scenario",
        "diff",
        "--report",
        report.to_str().unwrap(),
        "--golden",
        golden.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("1 scenarios within"),
        "{}",
        stdout(&out)
    );
    // Tamper with the golden: the gate must fail with exit code 1.
    let tampered = String::from_utf8(run.stdout)
        .unwrap()
        .replace("\"emissions_g\": ", "\"emissions_g\": 9");
    std::fs::write(&golden, tampered).unwrap();
    let out = decarb_cli(&[
        "scenario",
        "diff",
        "--report",
        report.to_str().unwrap(),
        "--golden",
        golden.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("drifted beyond"), "{}", stderr(&out));
    std::fs::remove_file(&report).ok();
    std::fs::remove_file(&golden).ok();
}

/// Writes `report` as a golden copy with `edit` applied to its fields,
/// then runs `scenario diff` of `report_path` against it at
/// `tolerance_pct`.
fn diff_against_edited_golden(
    report_path: &std::path::Path,
    report: &decarb_json::Value,
    tag: &str,
    tolerance_pct: &str,
    edit: impl FnOnce(&mut Vec<(String, decarb_json::Value)>),
) -> Output {
    let mut golden = report.clone();
    let decarb_json::Value::Object(fields) = &mut golden else {
        panic!("a single-scenario report is an object: {golden:?}");
    };
    edit(fields);
    let path = std::env::temp_dir().join(format!("decarb_cli_e2e_golden_{tag}.json"));
    std::fs::write(&path, golden.pretty()).unwrap();
    let out = decarb_cli(&[
        "scenario",
        "diff",
        "--report",
        report_path.to_str().unwrap(),
        "--golden",
        path.to_str().unwrap(),
        "--tolerance-pct",
        tolerance_pct,
    ]);
    std::fs::remove_file(&path).ok();
    out
}

fn number_mut<'a>(fields: &'a mut [(String, decarb_json::Value)], key: &str) -> &'a mut f64 {
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, decarb_json::Value::Number(x))) => x,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

#[test]
fn scenario_diff_compares_every_numeric_field() {
    let run = decarb_cli(&["scenario", "run", "batch-spatiotemporal-europe", "--json"]);
    assert!(run.status.success(), "{}", stderr(&run));
    let report_path = std::env::temp_dir().join("decarb_cli_e2e_fields_report.json");
    std::fs::write(&report_path, &run.stdout).unwrap();
    let report = decarb_json::parse(&stdout(&run)).unwrap();
    let diff = |tag: &str, tolerance: &str, edit: fn(&mut Vec<(String, decarb_json::Value)>)| {
        diff_against_edited_golden(&report_path, &report, tag, tolerance, edit)
    };

    // The wall clock is never compared: a golden from another run passes
    // at zero tolerance.
    let out = diff("clock", "0", |f| *number_mut(f, "elapsed_s") += 10.0);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("counts exact"), "{}", stdout(&out));

    // One more migration fails however wide the float tolerance.
    let out = diff("migrations", "50", |f| *number_mut(f, "migrations") += 1.0);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stderr(&out);
    assert!(text.contains("migrations"), "{text}");
    assert!(text.contains("counts must match exactly"), "{text}");
    assert!(text.contains("1 violation)"), "{text}");

    // A perturbed mean slowdown fails at the CI tolerance and passes
    // at a tolerance wider than the perturbation.
    let slower = |f: &mut Vec<(String, decarb_json::Value)>| {
        *number_mut(f, "mean_slowdown") *= 1.002;
    };
    let out = diff("slowdown", "0.1", slower);
    assert_eq!(out.status.code(), Some(1));
    let text = stderr(&out);
    assert!(text.contains("mean_slowdown"), "{text}");
    assert!(text.contains("0.200% > 0.1%"), "{text}");
    let out = diff("slowdown-wide", "1", slower);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("max drift 0.1996"),
        "{}",
        stdout(&out)
    );

    // A numeric field the golden lacks, or one the report lacks, fails.
    let out = diff("lacks", "0.1", |f| f.retain(|(k, _)| k != "transitions"));
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("`transitions` not in the golden snapshot"),
        "{}",
        stderr(&out)
    );
    let out = diff("extra", "0.1", |f| {
        f.push(("retries".into(), decarb_json::Value::from(0.0)));
    });
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("`retries` missing from the report"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&report_path).ok();
}

/// The sharded-sweep acceptance pin: `scenario run all --shards 4
/// --shard-index {0..3} --json`, merged via `scenario merge --expect
/// all`, must reproduce the single-process `scenario run all --json`
/// per-scenario within the CI golden tolerance (0.1%).
#[test]
fn four_shard_sweep_merges_to_the_single_process_report() {
    let dir = std::env::temp_dir();
    let full_path = dir.join("decarb_cli_e2e_sweep_full.json");
    let full = decarb_cli(&["scenario", "run", "all", "--json"]);
    assert!(full.status.success(), "{}", stderr(&full));
    std::fs::write(&full_path, &full.stdout).unwrap();

    let mut shard_paths = Vec::new();
    let mut shard_scenario_total = 0;
    for index in 0..4 {
        let shard = decarb_cli(&[
            "scenario",
            "run",
            "all",
            "--shards",
            "4",
            "--shard-index",
            &index.to_string(),
            "--json",
        ]);
        assert!(shard.status.success(), "shard {index}: {}", stderr(&shard));
        let text = stdout(&shard);
        assert!(
            text.trim_start().starts_with('['),
            "shard output is an array"
        );
        shard_scenario_total += text.matches("\"name\":").count();
        let path = dir.join(format!("decarb_cli_e2e_sweep_shard{index}.json"));
        std::fs::write(&path, shard.stdout).unwrap();
        shard_paths.push(path);
    }
    assert_eq!(shard_scenario_total, 54, "shards cover the matrix exactly");

    let merged_path = dir.join("decarb_cli_e2e_sweep_merged.json");
    let mut merge_args = vec!["scenario".to_string(), "merge".to_string()];
    merge_args.extend(shard_paths.iter().map(|p| p.to_str().unwrap().to_string()));
    merge_args.extend(["--expect".to_string(), "all".to_string()]);
    let merge_argv: Vec<&str> = merge_args.iter().map(String::as_str).collect();
    let merged = decarb_cli(&merge_argv);
    assert!(merged.status.success(), "{}", stderr(&merged));
    let merged_text = stdout(&merged);
    assert_eq!(merged_text.matches("\"name\":").count(), 54);
    std::fs::write(&merged_path, merged.stdout).unwrap();

    // The merged sharded sweep passes the same golden-diff gate the CI
    // applies, against the single-process run, at the CI tolerance.
    let diff = decarb_cli(&[
        "scenario",
        "diff",
        "--report",
        merged_path.to_str().unwrap(),
        "--golden",
        full_path.to_str().unwrap(),
        "--tolerance-pct",
        "0.1",
    ]);
    assert!(diff.status.success(), "{}", stderr(&diff));
    assert!(
        stdout(&diff).contains("54 scenarios within"),
        "{}",
        stdout(&diff)
    );

    // Overlapping shards and incomplete merges are rejected with exit 1.
    let overlap = decarb_cli(&[
        "scenario",
        "merge",
        shard_paths[0].to_str().unwrap(),
        shard_paths[0].to_str().unwrap(),
    ]);
    assert_eq!(overlap.status.code(), Some(1));
    assert!(
        stderr(&overlap).contains("more than one shard report"),
        "{}",
        stderr(&overlap)
    );
    let incomplete = decarb_cli(&[
        "scenario",
        "merge",
        shard_paths[0].to_str().unwrap(),
        "--expect",
        "all",
    ]);
    assert_eq!(incomplete.status.code(), Some(1));
    assert!(
        stderr(&incomplete).contains("missing"),
        "{}",
        stderr(&incomplete)
    );

    for path in shard_paths.iter().chain([&full_path, &merged_path]) {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn scenario_history_appends_and_shows_the_emissions_trend() {
    let dir = std::env::temp_dir();
    let report = dir.join("decarb_cli_e2e_history_report.json");
    let history = dir.join("decarb_cli_e2e_history.jsonl");
    std::fs::remove_file(&history).ok();
    let run = decarb_cli(&["scenario", "run", "batch-agnostic-europe", "--json"]);
    assert!(run.status.success());
    std::fs::write(&report, &run.stdout).unwrap();
    let append = decarb_cli(&[
        "scenario",
        "history",
        "append",
        "--report",
        report.to_str().unwrap(),
        "--file",
        history.to_str().unwrap(),
        "--rev",
        "rev-one",
    ]);
    assert!(append.status.success(), "{}", stderr(&append));
    assert!(
        stdout(&append).contains("recorded rev-one"),
        "{}",
        stdout(&append)
    );
    // A second recorded run with far lower emissions must surface as a
    // delta in the trend table.
    std::fs::write(
        &report,
        r#"{"name": "batch-agnostic-europe", "emissions_g": 100.0}"#,
    )
    .unwrap();
    let append = decarb_cli(&[
        "scenario",
        "history",
        "append",
        "--report",
        report.to_str().unwrap(),
        "--file",
        history.to_str().unwrap(),
        "--rev",
        "rev-two",
    ]);
    assert!(append.status.success(), "{}", stderr(&append));
    // The JSONL file holds one object per line, keyed by rev.
    let raw = std::fs::read_to_string(&history).unwrap();
    assert_eq!(raw.lines().count(), 2, "{raw}");
    assert!(
        raw.lines().next().unwrap().contains("\"rev\":\"rev-one\""),
        "{raw}"
    );
    let show = decarb_cli(&[
        "scenario",
        "history",
        "show",
        "--file",
        history.to_str().unwrap(),
    ]);
    assert!(show.status.success(), "{}", stderr(&show));
    let text = stdout(&show);
    assert!(text.contains("rev-one"), "{text}");
    assert!(text.contains("rev-two"), "{text}");
    assert!(text.contains("2 runs recorded"), "{text}");
    // The second row's delta against the first is a large negative drop.
    let row = text.lines().find(|l| l.starts_with("rev-two")).unwrap();
    assert!(row.contains("-99.9"), "{row}");
    // --limit trims to the newest entries but keeps their deltas.
    let limited = decarb_cli(&[
        "scenario",
        "history",
        "show",
        "--file",
        history.to_str().unwrap(),
        "--limit",
        "1",
    ]);
    let text = stdout(&limited);
    assert!(!text.contains("rev-one "), "{text}");
    assert!(text.contains("rev-two"), "{text}");
    std::fs::remove_file(&report).ok();
    std::fs::remove_file(&history).ok();
}

#[test]
fn scenario_without_subcommand_exits_2() {
    let out = decarb_cli(&["scenario"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`scenario` needs a subcommand"));
}

#[test]
fn export_pipes_csv_to_stdout() {
    let out = decarb_cli(&["export", "SE", "--year", "2021"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let header = text.lines().next().expect("csv header");
    assert!(header.contains("hour"), "{header}");
}

/// Writes a two-zone CSV covering calendar 2022 (hours 17544..26304),
/// optionally truncated/offset, and returns its path.
fn write_fixture_csv(name: &str, start_offset: usize, hours: usize) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut text = String::from("zone,hour,ci_g_per_kwh\n");
    for zone in ["SE", "DE"] {
        let base = if zone == "SE" { 16.0 } else { 380.0 };
        for i in 0..hours {
            let hour = 17544 + start_offset + i;
            let value = base + ((start_offset + i) % 50) as f64 * 0.5;
            text.push_str(&format!("{zone},{hour},{value}\n"));
        }
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn data_pack_probe_append_flow_with_auto_detection() {
    let dir = std::env::temp_dir();
    let csv = write_fixture_csv("decarb_cli_e2e_container.csv", 0, 8760);
    let packed = dir.join("decarb_cli_e2e_container.dct");

    // Pack the CSV and verify the summary names the shape.
    let out = decarb_cli(&[
        "data",
        "pack",
        csv.to_str().unwrap(),
        "-o",
        packed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 regions"), "{text}");
    assert!(text.contains("8760 hours"), "{text}");

    // Probe: text summary and machine-readable JSON agree.
    let out = decarb_cli(&["data", "probe", packed.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("regions       2"), "{text}");
    assert!(text.contains("start hour 17544"), "{text}");
    assert!(text.contains("content hash  fnv1a64:"), "{text}");
    assert!(text.contains("ok:"), "{text}");
    let out = decarb_cli(&["data", "probe", packed.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = decarb_json::parse(&stdout(&out)).expect("probe --json parses");
    let get_num = |key: &str| -> f64 {
        match doc.get(key) {
            Some(decarb_json::Value::Number(n)) => *n,
            other => panic!("{key}: {other:?}"),
        }
    };
    assert_eq!(get_num("regions") as usize, 2);
    assert_eq!(get_num("hours") as usize, 8760);
    assert_eq!(get_num("start_hour") as usize, 17544);
    assert_eq!(get_num("segments") as usize, 1);
    assert_eq!(get_num("resolution_minutes") as usize, 60);
    let Some(decarb_json::Value::String(hash)) = doc.get("content_hash") else {
        panic!("content_hash missing");
    };
    assert!(hash.starts_with("fnv1a64:"), "{hash}");

    // Auto-detection: the container behind --data renders exactly what
    // the CSV it was packed from renders.
    let from_csv = decarb_cli(&[
        "--data",
        csv.to_str().unwrap(),
        "analyze",
        "SE",
        "--year",
        "2022",
    ]);
    let from_packed = decarb_cli(&[
        "--data",
        packed.to_str().unwrap(),
        "analyze",
        "SE",
        "--year",
        "2022",
    ]);
    assert!(from_csv.status.success(), "{}", stderr(&from_csv));
    assert!(from_packed.status.success(), "{}", stderr(&from_packed));
    assert_eq!(stdout(&from_csv), stdout(&from_packed));

    // Append flow: pack the first half, append the second, and the
    // result loads identically to the one-shot pack.
    let first = write_fixture_csv("decarb_cli_e2e_container_h1.csv", 0, 4380);
    let second = write_fixture_csv("decarb_cli_e2e_container_h2.csv", 4380, 4380);
    let grown = dir.join("decarb_cli_e2e_container_grown.dct");
    let out = decarb_cli(&[
        "data",
        "pack",
        first.to_str().unwrap(),
        "-o",
        grown.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = decarb_cli(&[
        "data",
        "append",
        grown.to_str().unwrap(),
        "--from",
        second.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("appended 4380 hours"), "{text}");
    assert!(text.contains("now 8760 hours"), "{text}");
    assert!(text.contains("2 segments"), "{text}");
    let from_grown = decarb_cli(&[
        "--data",
        grown.to_str().unwrap(),
        "analyze",
        "SE",
        "--year",
        "2022",
    ]);
    assert!(from_grown.status.success(), "{}", stderr(&from_grown));
    assert_eq!(stdout(&from_grown), stdout(&from_packed));

    // Appending rows that add nothing new is a clean failure.
    let out = decarb_cli(&[
        "data",
        "append",
        grown.to_str().unwrap(),
        "--from",
        second.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("no hours"), "{}", stderr(&out));

    for path in [&csv, &packed, &first, &second, &grown] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn data_pack_resolution_produces_a_subhourly_container() {
    let dir = std::env::temp_dir();
    let csv = write_fixture_csv("decarb_cli_e2e_subhourly.csv", 0, 48);
    let packed = dir.join("decarb_cli_e2e_subhourly.dct");

    // Hourly rows re-expressed on a 5-minute axis: 48 h → 576 samples.
    let out = decarb_cli(&[
        "data",
        "pack",
        csv.to_str().unwrap(),
        "--resolution",
        "5",
        "-o",
        packed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("576 samples at 5 min/sample"), "{text}");

    let out = decarb_cli(&["data", "probe", packed.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = decarb_json::parse(&stdout(&out)).expect("probe --json parses");
    match doc.get("resolution_minutes") {
        Some(decarb_json::Value::Number(n)) => assert_eq!(*n as u32, 5),
        other => panic!("resolution_minutes: {other:?}"),
    }
    match doc.get("hours") {
        Some(decarb_json::Value::Number(n)) => assert_eq!(*n as usize, 576),
        other => panic!("hours: {other:?}"),
    }

    // Non-divisors of 60 (and values over 60) are rejected at parse time,
    // before any file is touched.
    for bad in ["7", "90", "0"] {
        let out = decarb_cli(&[
            "data",
            "pack",
            csv.to_str().unwrap(),
            "--resolution",
            bad,
            "-o",
            packed.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(2), "--resolution {bad}");
        assert!(
            stderr(&out).contains("invalid resolution"),
            "--resolution {bad}: {}",
            stderr(&out)
        );
    }

    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&packed).ok();
}

#[test]
fn sidecar_dataset_resolution_stamps_imported_csv() {
    let dir = std::env::temp_dir();
    // 96 rows per zone, declared as 30-minute samples by the sidecar:
    // the dataset spans 48 wall-clock hours, not 96.
    let csv = write_fixture_csv("decarb_cli_e2e_sidecar_res.csv", 0, 96);
    let sidecar = dir.join("decarb_cli_e2e_sidecar_res.toml");
    std::fs::write(&sidecar, "[dataset]\nresolution = 30\n").unwrap();
    let packed = dir.join("decarb_cli_e2e_sidecar_res.dct");

    let out = decarb_cli(&[
        "data",
        "pack",
        csv.to_str().unwrap(),
        "--regions",
        sidecar.to_str().unwrap(),
        "-o",
        packed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("96 samples at 30 min/sample"),
        "{}",
        stdout(&out)
    );

    // The declared cadence round-trips through the container.
    let out = decarb_cli(&["data", "probe", packed.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = decarb_json::parse(&stdout(&out)).expect("probe --json parses");
    match doc.get("resolution_minutes") {
        Some(decarb_json::Value::Number(n)) => assert_eq!(*n as u32, 30),
        other => panic!("resolution_minutes: {other:?}"),
    }

    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&sidecar).ok();
    std::fs::remove_file(&packed).ok();
}

#[test]
fn corrupted_container_behind_data_exits_1() {
    let dir = std::env::temp_dir();
    let csv = write_fixture_csv("decarb_cli_e2e_corrupt.csv", 0, 48);
    let packed = dir.join("decarb_cli_e2e_corrupt.dct");
    let out = decarb_cli(&[
        "data",
        "pack",
        csv.to_str().unwrap(),
        "-o",
        packed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Flip one bit in a value block: every consumer must refuse the file.
    let mut bytes = std::fs::read(&packed).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&packed, &bytes).unwrap();

    let out = decarb_cli(&["--data", packed.to_str().unwrap(), "regions"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("hash mismatch"), "{err}");
    assert!(err.contains("decarb_cli_e2e_corrupt.dct"), "{err}");
    let out = decarb_cli(&["data", "probe", packed.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("hash mismatch"), "{}", stderr(&out));

    // A container under --data carries its own metadata: --regions is a
    // usage error, not a silent no-op.
    std::fs::write(&packed, {
        let out = decarb_cli(&[
            "data",
            "pack",
            csv.to_str().unwrap(),
            "-o",
            packed.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        std::fs::read(&packed).unwrap()
    })
    .unwrap();
    let sidecar = dir.join("decarb_cli_e2e_corrupt_sidecar.toml");
    std::fs::write(&sidecar, "[region SE]\nname = Shadowed\n").unwrap();
    let out = decarb_cli(&[
        "--data",
        packed.to_str().unwrap(),
        "--regions",
        sidecar.to_str().unwrap(),
        "regions",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("drop --regions"), "{}", stderr(&out));

    // Probing a CSV reports bad magic instead of garbage.
    let out = decarb_cli(&["data", "probe", csv.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("bad magic"), "{}", stderr(&out));

    for path in [&csv, &packed, &sidecar] {
        std::fs::remove_file(path).ok();
    }
}

/// The acceptance pin for the container path: `data pack builtin`
/// followed by `scenario run` from the packed file must reproduce the
/// in-process built-in run byte-for-byte (modulo wall-clock elapsed).
#[test]
fn packed_builtin_dataset_reproduces_scenario_reports_exactly() {
    let dir = std::env::temp_dir();
    let packed = dir.join("decarb_cli_e2e_builtin.dct");
    let out = decarb_cli(&["data", "pack", "builtin", "-o", packed.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("123 regions"), "{}", stdout(&out));

    let builtin = decarb_cli(&["scenario", "run", "batch-agnostic-europe", "--json"]);
    let from_packed = decarb_cli(&[
        "--data",
        packed.to_str().unwrap(),
        "scenario",
        "run",
        "batch-agnostic-europe",
        "--json",
    ]);
    assert!(builtin.status.success(), "{}", stderr(&builtin));
    assert!(from_packed.status.success(), "{}", stderr(&from_packed));
    let strip = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.contains("\"elapsed_s\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&stdout(&from_packed)), strip(&stdout(&builtin)));
    std::fs::remove_file(&packed).ok();
}

/// Boots `decarb-cli serve` on an ephemeral port, parses the bound
/// address from its first stdout line, and returns the child (killed
/// by the caller) plus the address.
fn spawn_serve(args: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_decarb-cli"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("serve announces its address");
    let addr = first_line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in `{first_line}`"))
        .to_string();
    (child, addr)
}

/// One HTTP request against a spawned server; returns (status, body).
fn http_request(addr: &str, method: &str, target: &str, body: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to serve");
    // `Connection: close` lets the reader below drain to EOF instead of
    // waiting out the server's keep-alive idle timeout.
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .expect("header/body separator");
    (status, body)
}

#[test]
fn serve_answers_every_endpoint_and_place_is_stable_across_reload() {
    let (mut child, addr) = spawn_serve(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    let result = std::panic::catch_unwind(|| {
        let (status, health) = http_request(&addr, "GET", "/v1/healthz", "");
        assert_eq!(status, 200);
        assert!(health.contains("\"status\": \"ok\""), "{health}");
        assert!(health.contains("\"regions\": 123"), "{health}");

        let (status, regions) = http_request(&addr, "GET", "/v1/regions", "");
        assert_eq!(status, 200);
        assert!(regions.contains("\"zone\": \"SE\""));

        let (status, rankings) = http_request(&addr, "GET", "/v1/rankings?limit=1", "");
        assert_eq!(status, 200);
        assert!(rankings.contains("\"zone\": \"SE\""), "{rankings}");

        let (status, forecast) = http_request(&addr, "GET", "/v1/forecast/DE?hours=12", "");
        assert_eq!(status, 200);
        assert!(forecast.contains("\"hours\": 12"), "{forecast}");

        // Place against the in-process planner ground truth: hour
        // 17544 is the start of 2022 (8784 + 8760).
        let body = r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#;
        let (status, before) = http_request(&addr, "POST", "/v1/place", body);
        assert_eq!(status, 200, "{before}");
        assert!(before.contains("\"saved_g\""), "{before}");

        let (status, reload) = http_request(&addr, "POST", "/v1/reload", "");
        assert_eq!(status, 200, "{reload}");
        assert!(reload.contains("\"generation\": 2"), "{reload}");

        let (status, after) = http_request(&addr, "POST", "/v1/place", body);
        assert_eq!(status, 200);
        let strip = |text: &str| {
            text.lines()
                .filter(|l| !l.contains("\"generation\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&before),
            strip(&after),
            "place answers must be bit-identical across a reload"
        );

        let (status, metrics) = http_request(&addr, "GET", "/v1/metrics", "");
        assert_eq!(status, 200);
        assert!(metrics.contains("\"place\": 2"), "{metrics}");
        assert!(metrics.contains("\"generation\": 2"), "{metrics}");

        let (status, err) = http_request(&addr, "POST", "/v1/place", "{not json");
        assert_eq!(status, 400);
        assert!(err.contains("bad-json"), "{err}");
        let (status, _) = http_request(&addr, "GET", "/v1/nope", "");
        assert_eq!(status, 404);
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn serve_agrees_with_the_plan_command_ground_truth() {
    // `serve` must answer the same deferral the TemporalPlanner
    // computes: pinned home (slo 0), the chosen start/cost come from
    // best_deferred on the origin's builtin trace.
    let (mut child, addr) = spawn_serve(&["serve", "--addr", "127.0.0.1:0"]);
    let result = std::panic::catch_unwind(|| {
        let data = decarb_traces::builtin_dataset();
        let de = data.id_of("DE").expect("DE exists");
        let arrival = decarb_traces::time::year_start(2022).plus(90 * 24);
        let truth =
            decarb_core::TemporalPlanner::new(data.series_by_id(de)).best_deferred(arrival, 6, 24);
        let body = format!(
            r#"{{"origin":"DE","duration_hours":6,"slack_hours":24,"arrival_hour":{}}}"#,
            arrival.0
        );
        let (status, answer) = http_request(&addr, "POST", "/v1/place", &body);
        assert_eq!(status, 200, "{answer}");
        assert!(answer.contains("\"region\": \"DE\""), "{answer}");
        assert!(
            answer.contains(&format!("\"start_hour\": {}", truth.start.0)),
            "{answer} vs planner start {}",
            truth.start.0
        );
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn serve_rejects_a_bad_bind_address_with_exit_1() {
    let out = decarb_cli(&["serve", "--addr", "999.999.999.999:0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot bind"));
    assert!(!stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn serve_capacity_per_hour_saturates_the_winning_region() {
    // With one admission slot per region-hour, two identical queries
    // cannot both land on the same region: the second must be pushed
    // to a different region (or start hour) by the admission ledger.
    let (mut child, addr) =
        spawn_serve(&["serve", "--addr", "127.0.0.1:0", "--capacity-per-hour", "1"]);
    let result = std::panic::catch_unwind(|| {
        let body = r#"{"origin":"PL","duration_hours":6,"slack_hours":24,"slo_ms":1000,"arrival_hour":19704}"#;
        let (status, first) = http_request(&addr, "POST", "/v1/place", body);
        assert_eq!(status, 200, "{first}");
        let (status, second) = http_request(&addr, "POST", "/v1/place", body);
        assert_eq!(status, 200, "{second}");
        let pick = |answer: &str, key: &str| {
            answer
                .lines()
                .find(|l| l.contains(&format!("\"{key}\"")))
                .unwrap_or_else(|| panic!("no {key} in {answer}"))
                .to_string()
        };
        assert_ne!(
            (pick(&first, "region"), pick(&first, "start_hour")),
            (pick(&second, "region"), pick(&second, "start_hour")),
            "a saturated region-hour must not win twice\nfirst: {first}\nsecond: {second}"
        );
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn serve_bench_drives_a_spawned_server_and_reports_throughput() {
    let (mut child, addr) = spawn_serve(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    let result = std::panic::catch_unwind(|| {
        let out = decarb_cli(&[
            "serve",
            "bench",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "40",
            "--batch",
            "4",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("keep-alive mode"), "{text}");
        assert!(text.contains("80 requests"), "{text}");
        assert!(text.contains("req/s"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("0 failures"), "{text}");
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn serve_bench_boots_its_own_server_when_no_addr_is_given() {
    let out = decarb_cli(&[
        "serve",
        "bench",
        "--connections",
        "2",
        "--requests",
        "20",
        "--mode",
        "close",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("close-per-request mode"), "{text}");
    assert!(text.contains("0 failures"), "{text}");
}

#[test]
fn serve_bench_rejects_bad_options_with_exit_2() {
    let zero = decarb_cli(&["serve", "bench", "--connections", "0"]);
    assert_eq!(zero.status.code(), Some(2));
    let mode = decarb_cli(&["serve", "bench", "--mode", "pipelined"]);
    assert_eq!(mode.status.code(), Some(2));
    let capacity = decarb_cli(&["serve", "--capacity-per-hour", "0"]);
    assert_eq!(capacity.status.code(), Some(2));
}
