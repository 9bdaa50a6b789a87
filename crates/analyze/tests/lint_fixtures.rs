//! Per-rule lint fixtures: each `.rs` file under `tests/fixtures/` is
//! real Rust source fed through [`lint_source`] exactly as
//! `analyze --workspace` would lint it, with the expected findings
//! pinned here as `(rule, line)` pairs. The `*_violations` fixtures
//! prove each rule fires where documented; the `*_clean` fixtures guard
//! against false positives on lookalikes, suppressed sites, and test
//! code. Cargo does not compile files in `tests/fixtures/` (only
//! top-level `tests/*.rs`), and `analyze_workspace` scans only `src/`
//! trees, so the intentionally broken fixtures never poison the build
//! or the workspace gate.

use std::fs;
use std::path::Path;

use decarb_analyze::{analyze_tree, lint_source, LintConfig};

const LIB: LintConfig = LintConfig { no_panic: true };
const BIN: LintConfig = LintConfig { no_panic: false };

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints a fixture and returns its findings as sorted `(rule, line)`
/// pairs.
fn lint(name: &str, config: &LintConfig) -> Vec<(String, usize)> {
    let path = fixtures_dir().join(name);
    let source =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let mut found: Vec<(String, usize)> = lint_source(name, &source, config)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect();
    found.sort();
    found
}

fn pairs(expected: &[(&str, usize)]) -> Vec<(String, usize)> {
    expected.iter().map(|(r, l)| (r.to_string(), *l)).collect()
}

#[test]
fn no_panic_fixture_flags_every_trigger() {
    assert_eq!(
        lint("no_panic_violations.rs", &LIB),
        pairs(&[
            ("no-panic", 5),  // .unwrap()
            ("no-panic", 9),  // .expect(...)
            ("no-panic", 14), // panic!
            ("no-panic", 19), // todo!
            ("no-panic", 23), // unimplemented!
        ])
    );
}

#[test]
fn no_panic_fixture_clean_on_lookalikes_suppressions_and_tests() {
    assert_eq!(lint("no_panic_clean.rs", &LIB), Vec::new());
}

#[test]
fn hot_path_fixture_flags_allocations_in_marked_region_only() {
    assert_eq!(
        lint("hot_path_violations.rs", &BIN),
        pairs(&[
            ("hot-path", 13), // Vec::new
            ("hot-path", 14), // format!
            ("hot-path", 15), // .to_owned()
            ("hot-path", 16), // string-keyed HashMap
            ("hot-path", 18), // .clone()
        ])
    );
}

#[test]
fn hot_path_fixture_clean_on_preallocated_id_keyed_code() {
    assert_eq!(lint("hot_path_clean.rs", &BIN), Vec::new());
}

#[test]
fn par_safety_fixture_flags_direct_and_bound_captures() {
    assert_eq!(
        lint("par_safety_violations.rs", &BIN),
        pairs(&[
            ("par-safety", 5),  // Mutex spelled inside the closure
            ("par-safety", 11), // binding to a Mutex captured by name
        ])
    );
}

#[test]
fn par_safety_fixture_clean_on_owned_data_and_sequential_locks() {
    assert_eq!(lint("par_safety_clean.rs", &BIN), Vec::new());
}

#[test]
fn directive_hygiene_fixture_flags_every_misuse() {
    assert_eq!(
        lint("directive_hygiene.rs", &LIB),
        pairs(&[
            ("directive", 13),   // unrecognized directive body
            ("no-panic", 5),     // the reasonless allow suppresses nothing
            ("suppression", 5),  // allow without `-- reason`
            ("suppression", 8),  // allow naming an unknown rule
            ("suppression", 10), // stale allow with nothing to suppress
        ])
    );
}

#[test]
fn analyze_tree_totals_match_the_per_fixture_counts() {
    // The whole fixture directory through the same tree walker the
    // workspace gate uses: 7 files, and (under the library config) the
    // sum of every pinned finding above plus the extra no-panic hits
    // that the binary-config fixtures pick up when linted as a library.
    let dir = fixtures_dir();
    let outcome = analyze_tree(&dir, &dir, &LIB).expect("fixture tree scans");
    assert_eq!(outcome.files, 7);
    let per_file: usize = [
        "no_panic_violations.rs",
        "no_panic_clean.rs",
        "hot_path_violations.rs",
        "hot_path_clean.rs",
        "par_safety_violations.rs",
        "par_safety_clean.rs",
        "directive_hygiene.rs",
    ]
    .iter()
    .map(|name| lint(name, &LIB).len())
    .sum();
    assert_eq!(outcome.diagnostics.len(), per_file);
}

#[test]
fn a_test_module_in_its_own_file_is_linted_as_test_code() {
    // `lib.rs` declares `#[cfg(test)] mod pinned;`: `pinned.rs` and the
    // `pinned/deeper.rs` it declares hold test code only, so their
    // `.expect`/`.unwrap` are not findings; `live.rs` is library code.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/module_fixtures");
    let outcome = analyze_tree(&dir, &dir, &LIB).expect("fixture tree scans");
    assert_eq!(outcome.files, 4);
    let found: Vec<(String, String, usize)> = outcome
        .diagnostics
        .into_iter()
        .map(|d| (d.file, d.rule, d.line))
        .collect();
    assert_eq!(
        found,
        vec![("live.rs".to_string(), "no-panic".to_string(), 4)]
    );
}
