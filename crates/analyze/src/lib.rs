//! `decarb-analyze` — in-tree static analysis for the workspace.
//!
//! The sweep pipeline's guarantees (bit-exact sharding, 0.0000% golden
//! drift, content-addressed scenario ids) rest on invariants nothing
//! used to enforce statically: no panics in library code (a worker
//! panic poisons a whole shard), no string hashing or allocation on the
//! `RegionId` hot path, and no shared-mutability primitives smuggled
//! into `decarb-par` fan-outs. This crate enforces them with a small
//! token-level Rust lexer — comments, strings, idents, line numbers; no
//! full parse, in the spirit of the in-tree `decarb-json` — driving
//! three rules over the workspace:
//!
//! | rule | what it flags |
//! |------|---------------|
//! | `no-panic` | `.unwrap()`, `.expect(...)`, `panic!`, `todo!`, `unimplemented!` in library crates outside `#[cfg(test)]` |
//! | `hot-path` | `format!`, `.clone()`, `Vec::new`, `String::new`, `.to_string()`, `.to_owned()`, and `String`-keyed map types inside code annotated `decarb-analyze: hot-path` |
//! | `par-safety` | `Mutex`, `RefCell`, or `static mut` captured inside `decarb_par::par_map` / `par_map_with` / `par_map_ordered_with` / `par_map_owned` / `par_for_each` call arguments |
//!
//! A diagnostic is suppressed with a trailing (or immediately
//! preceding) comment that **must carry a reason**:
//!
//! ```text
//! let slot = table[i].expect("interned above"); // decarb-analyze: allow(no-panic) -- slot filled by the intern loop two lines up
//! ```
//!
//! Reason-less `allow(...)` directives and suppressions that no longer
//! match a diagnostic are themselves diagnostics, so the suppression
//! inventory cannot rot. Hot-path scope is opt-in: `//! decarb-analyze:
//! hot-path` marks a whole file, a standalone `// decarb-analyze:
//! hot-path` line marks the item that follows it.
//!
//! The semantic *scenario* checker (`scenario check`) builds on the
//! [`Diagnostic`] type exported here but lives in `decarb-sim`, next to
//! the scenario types it validates.

pub mod lexer;
pub mod rules;
pub mod workspace;

use decarb_json::Value;

pub use rules::{lint_source, LintConfig};
pub use workspace::{analyze_tree, analyze_workspace, AnalyzeOutcome, LIBRARY_CRATES};

/// One finding, pointing at a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (or a caller-chosen label such as
    /// `<builtin>`).
    pub file: String,
    /// 1-based line the finding anchors to (0 when no span applies).
    pub line: usize,
    /// Rule slug (`no-panic`, `hot-path`, `par-safety`,
    /// `unsatisfiable-job`, ...).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        file: impl Into<String>,
        line: usize,
        rule: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            file: file.into(),
            line,
            rule: rule.into(),
            message: message.into(),
        }
    }

    /// Renders the `file:line: [rule] message` text form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// Serializes the diagnostic as a JSON object in the canonical
    /// envelope field order (`file`, `line`, `rule`, `message`) shared
    /// by every emitter via [`decarb_json::diagnostic_object`].
    pub fn to_json(&self) -> Value {
        decarb_json::diagnostic_object(&self.file, self.line, &self.rule, &self.message)
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serializes a diagnostic list as a JSON array (the machine-readable
/// `analyze --json` / `scenario check --json` payload).
pub fn diagnostics_to_json(diagnostics: &[Diagnostic]) -> Value {
    Value::Array(diagnostics.iter().map(Diagnostic::to_json).collect())
}

/// Renders a diagnostic list as one line per finding, sorted by file
/// then line, with a trailing count.
pub fn render_report(diagnostics: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diagnostics.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let mut out = String::new();
    for diag in &sorted {
        out.push_str(&diag.render());
        out.push('\n');
    }
    out.push_str(&format!(
        "{} diagnostic{}",
        sorted.len(),
        if sorted.len() == 1 { "" } else { "s" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_and_serialize() {
        let d = Diagnostic::new(
            "crates/sim/src/engine.rs",
            42,
            "no-panic",
            "`.unwrap()` call",
        );
        assert_eq!(
            d.render(),
            "crates/sim/src/engine.rs:42: [no-panic] `.unwrap()` call"
        );
        let json = d.to_json();
        assert_eq!(json.get("line"), Some(&Value::from(42.0)));
        assert_eq!(json.get("rule"), Some(&Value::from("no-panic")));
        let list = diagnostics_to_json(std::slice::from_ref(&d));
        let Value::Array(items) = &list else {
            panic!("array expected")
        };
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn envelope_field_order_is_pinned() {
        // `analyze --json` and `scenario check --json` both serialize
        // through this path; docs/API.md documents the field order as
        // `file`, `line`, `rule`, `message`. Byte-exact pin.
        let d = Diagnostic::new("a.rs", 7, "hot-path", "allocation");
        assert_eq!(
            d.to_json().to_string(),
            r#"{"file":"a.rs","line":7,"rule":"hot-path","message":"allocation"}"#
        );
        assert_eq!(
            diagnostics_to_json(std::slice::from_ref(&d)).to_string(),
            r#"[{"file":"a.rs","line":7,"rule":"hot-path","message":"allocation"}]"#
        );
    }

    #[test]
    fn report_sorts_by_file_and_line_and_counts() {
        let diags = vec![
            Diagnostic::new("b.rs", 9, "no-panic", "x"),
            Diagnostic::new("a.rs", 3, "hot-path", "y"),
            Diagnostic::new("a.rs", 1, "no-panic", "z"),
        ];
        let report = render_report(&diags);
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[0].starts_with("a.rs:1:"));
        assert!(lines[1].starts_with("a.rs:3:"));
        assert!(lines[2].starts_with("b.rs:9:"));
        assert_eq!(lines[3], "3 diagnostics");
        assert_eq!(render_report(&[]).trim(), "0 diagnostics");
    }
}
