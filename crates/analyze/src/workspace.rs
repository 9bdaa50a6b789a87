//! Workspace walker: applies the lint rules to every crate's sources.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer;
use crate::rules::{lint_source, lint_test_source, LintConfig};
use crate::Diagnostic;

/// Crates whose code runs inside sweep workers / library callers and
/// therefore must not panic. Binary crates (`cli`, `bench`,
/// `experiments`) may still panic at the top level; the other rules
/// apply to them regardless.
pub const LIBRARY_CRATES: &[&str] = &[
    "analyze",
    "core",
    "forecast",
    "json",
    "par",
    "sim",
    "stats",
    "traces",
    "workloads",
];

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct AnalyzeOutcome {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// All surviving (non-suppressed) diagnostics.
    pub diagnostics: Vec<Diagnostic>,
}

/// Analyzes the whole workspace rooted at `root` (the directory
/// holding the top-level `Cargo.toml`): the root facade's `src/` plus
/// every `crates/*/src/` tree.
pub fn analyze_workspace(root: &Path) -> io::Result<AnalyzeOutcome> {
    let mut outcome = AnalyzeOutcome::default();
    // Root facade (`decarb`) is a library.
    scan_dir(
        &root.join("src"),
        root,
        &LintConfig { no_panic: true },
        &mut outcome,
    )?;
    let crates = root.join("crates");
    let mut dirs: Vec<_> = match fs::read_dir(&crates) {
        Ok(iter) => iter
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    dirs.sort();
    for dir in dirs {
        let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
        let no_panic = name.as_deref().is_some_and(|n| LIBRARY_CRATES.contains(&n));
        scan_dir(
            &dir.join("src"),
            root,
            &LintConfig { no_panic },
            &mut outcome,
        )?;
    }
    Ok(outcome)
}

/// Analyzes every `.rs` file under `dir` with one configuration,
/// labelling diagnostics relative to `label_root`. Used for fixture
/// trees in tests and CI seeds.
pub fn analyze_tree(
    dir: &Path,
    label_root: &Path,
    config: &LintConfig,
) -> io::Result<AnalyzeOutcome> {
    let mut outcome = AnalyzeOutcome::default();
    scan_dir(dir, label_root, config, &mut outcome)?;
    Ok(outcome)
}

/// Lints every `.rs` file under `dir`. A file that holds the body of
/// a module declared `#[cfg(test)] mod name;` (as `name.rs` or
/// `name/mod.rs` beside its parent's file, or its parent's own
/// directory for `lib.rs`, `main.rs` and `mod.rs`), and every file
/// below such a module's directory, is linted as test code.
fn scan_dir(
    dir: &Path,
    label_root: &Path,
    config: &LintConfig,
    outcome: &mut AnalyzeOutcome,
) -> io::Result<()> {
    let mut files = Vec::new();
    collect_rs(dir, &mut files)?;
    let mut sources = Vec::with_capacity(files.len());
    let mut test_roots: Vec<PathBuf> = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path)?;
        let lexed = lexer::lex(&source);
        let mask = lexer::test_mask(&lexed.tokens);
        let names = lexer::test_modules(&lexed.tokens, &mask);
        if !names.is_empty() {
            let children = module_dir(&path);
            for name in names {
                test_roots.push(children.join(format!("{name}.rs")));
                test_roots.push(children.join(name));
            }
        }
        sources.push((path, source));
    }
    for (path, source) in sources {
        let label = path
            .strip_prefix(label_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        outcome.files += 1;
        let diagnostics = if test_roots.iter().any(|root| path.starts_with(root)) {
            lint_test_source(&label, &source, config)
        } else {
            lint_source(&label, &source, config)
        };
        outcome.diagnostics.extend(diagnostics);
    }
    Ok(())
}

/// Appends every `.rs` file under `dir` to `out`, in sorted path order
/// (a missing `dir` holds none).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The directory holding the files of the modules `file` declares:
/// its own directory for `lib.rs`, `main.rs` and `mod.rs`, otherwise a
/// directory named after it beside it.
fn module_dir(file: &Path) -> PathBuf {
    let parent = file.parent().unwrap_or(Path::new(""));
    match file.file_stem().and_then(|stem| stem.to_str()) {
        Some("lib" | "main" | "mod") | None => parent.to_path_buf(),
        Some(stem) => parent.join(stem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzer_sources_are_self_clean() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let outcome = analyze_tree(
            &manifest.join("src"),
            manifest,
            &LintConfig { no_panic: true },
        )
        .expect("analyzer sources readable");
        assert!(outcome.files >= 4, "expected the analyzer's own modules");
        assert!(
            outcome.diagnostics.is_empty(),
            "analyzer must lint itself clean:\n{}",
            crate::render_report(&outcome.diagnostics)
        );
    }
}
