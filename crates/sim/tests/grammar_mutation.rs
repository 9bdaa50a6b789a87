//! Seeded mutation test of the section grammar behind scenario files
//! and region sidecars.
//!
//! Starting from the shipped example files, every truncation and, at
//! every offset, one seeded single-byte substitution from a fixed set
//! of grammar-significant ASCII bytes is fed to the sidecar parser, the
//! scenario-file parser and, on a seeded sample, the static checker
//! against the builtin dataset. Each call must return `Ok` or a typed
//! error naming a line of its input — never panic.
//!
//! Run it with `cargo test -p decarb-sim --test grammar_mutation`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use decarb_sim::{check_file, parse_scenario_file_full};
use decarb_traces::rng::Xoshiro256;
use decarb_traces::{builtin_dataset, parse_sidecar, TraceError};

/// The seed corpus: the shipped scenario files and the sidecar example.
const SEEDS: [(&str, &str); 3] = [
    (
        "custom.scenario",
        include_str!("../../../examples/custom.scenario"),
    ),
    (
        "unsatisfiable.scenario",
        include_str!("../../../examples/unsatisfiable.scenario"),
    ),
    (
        "regions.sidecar",
        include_str!("../../../examples/regions.sidecar"),
    ),
];

/// Bytes substituted at every offset: the grammar's punctuation, a
/// line break, a digit and a space.
const SUBSTITUTES: &[u8] = b"[]=#,\n9 ";

/// Mutants checked by the (slower) static checker, per seed.
const CHECKED_PER_SEED: usize = 100;

/// Every truncation of `seed`, then one substitution from
/// [`SUBSTITUTES`] at every offset, each labelled with what was done
/// where.
fn mutants(seed: &[u8], rng: &mut Xoshiro256) -> Vec<(String, Vec<u8>)> {
    let mut all: Vec<(String, Vec<u8>)> = (0..seed.len())
        .map(|cut| (format!("cut at {cut}"), seed[..cut].to_vec()))
        .collect();
    for at in 0..seed.len() {
        let mut pick = rng.below(SUBSTITUTES.len());
        if SUBSTITUTES[pick] == seed[at] {
            pick = (pick + 1 + rng.below(SUBSTITUTES.len() - 1)) % SUBSTITUTES.len();
        }
        let byte = SUBSTITUTES[pick];
        let mut mutant = seed.to_vec();
        mutant[at] = byte;
        all.push((format!("{:?} at {at}", byte as char), mutant));
    }
    all
}

/// The highest line an error may name: the input's last line, or 1 for
/// an empty input (whole-file errors point at line 1).
fn last_line(text: &str) -> usize {
    text.lines().count().max(1)
}

/// Runs `probe`, turning a panic into a finding.
fn no_panic(what: &str, label: &str, probe: impl FnOnce() -> Result<(), String>) -> Vec<String> {
    match catch_unwind(AssertUnwindSafe(probe)) {
        Ok(Ok(())) => Vec::new(),
        Ok(Err(problem)) => vec![format!("{what} on {label}: {problem}")],
        Err(_) => vec![format!("{what} panicked on {label}")],
    }
}

#[test]
fn mutated_inputs_parse_or_fail_with_a_line() {
    let data = builtin_dataset();
    let mut rng = Xoshiro256::seeded(0x5EC7_10A5);
    let mut findings: Vec<String> = Vec::new();
    let mut parsed = 0usize;
    let mut checked = 0usize;
    for (name, seed) in SEEDS {
        let all = mutants(seed.as_bytes(), &mut rng);
        let sample: Vec<usize> = (0..CHECKED_PER_SEED)
            .map(|_| rng.below(all.len()))
            .collect();
        for (i, (mutation, bytes)) in all.iter().enumerate() {
            let text = String::from_utf8_lossy(bytes);
            let last = last_line(&text);
            let label = format!("{name} ({mutation})");
            findings.extend(no_panic("parse_sidecar", &label, || {
                match parse_sidecar(&text) {
                    Ok(_) => Ok(()),
                    Err(TraceError::Parse { line, .. }) if (1..=last).contains(&line) => Ok(()),
                    Err(e) => Err(format!("error outside the input's lines: {e}")),
                }
            }));
            findings.extend(no_panic("parse_scenario_file_full", &label, || {
                match parse_scenario_file_full(&text) {
                    Err(e) if !(1..=last).contains(&e.line) => {
                        Err(format!("error outside the input's lines: {e}"))
                    }
                    _ => Ok(()),
                }
            }));
            parsed += 1;
            if sample.contains(&i) {
                findings.extend(no_panic("check_file", &label, || {
                    match check_file(name, &text, &data)
                        .iter()
                        .find(|d| !(1..=last).contains(&d.line))
                    {
                        Some(d) => Err(format!("diagnostic outside the input's lines: {d:?}")),
                        None => Ok(()),
                    }
                }));
                checked += 1;
            }
        }
    }
    assert!(parsed > 10_000, "only {parsed} mutants generated");
    assert!(checked > 250, "only {checked} mutants checked");
    assert!(
        findings.is_empty(),
        "{} of {parsed} mutants misbehaved:\n{}",
        findings.len(),
        findings.join("\n")
    );
}
