//! Lint rules over the token stream: `no-panic`, `hot-path`,
//! `par-safety`, plus directive hygiene (suppressions must carry a
//! reason and must actually suppress something).

use crate::lexer::{self, Directive, Token, TokenKind};
use crate::Diagnostic;

/// Rule slugs that can appear in `allow(...)` directives.
pub const SOURCE_RULES: &[&str] = &["no-panic", "hot-path", "par-safety"];

/// Per-file rule configuration.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    /// Enforce `no-panic` (library crates only; binaries may panic at
    /// the top level).
    pub no_panic: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self { no_panic: true }
    }
}

/// Lints one source file. `file` is the label used in diagnostics.
pub fn lint_source(file: &str, source: &str, config: &LintConfig) -> Vec<Diagnostic> {
    lint_file(file, source, config, false)
}

/// Lints one source file that holds test code only, the body of a
/// module its parent declares as `#[cfg(test)] mod name;`: every token
/// counts as test code, as it would inside an inline `#[cfg(test)]`
/// module.
pub fn lint_test_source(file: &str, source: &str, config: &LintConfig) -> Vec<Diagnostic> {
    lint_file(file, source, config, true)
}

fn lint_file(file: &str, source: &str, config: &LintConfig, all_test: bool) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let test = if all_test {
        vec![true; lexed.tokens.len()]
    } else {
        lexer::test_mask(&lexed.tokens)
    };
    let hot = lexer::hot_mask(&lexed.tokens, &lexed.directives);
    let mut findings = Vec::new();
    if config.no_panic {
        scan_no_panic(file, &lexed.tokens, &test, &mut findings);
    }
    scan_hot_path(file, &lexed.tokens, &test, &hot, &mut findings);
    scan_par_safety(file, &lexed.tokens, &test, &mut findings);
    apply_directives(file, &lexed.directives, config, findings)
}

fn scan_no_panic(file: &str, tokens: &[Token<'_>], test: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if test[i] {
            continue;
        }
        let tok = &tokens[i];
        // `.unwrap(` / `.expect(`
        if (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && i > 0
            && tokens[i - 1].is_punct(b'.')
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'('))
        {
            out.push(Diagnostic::new(
                file,
                tok.line,
                "no-panic",
                format!(
                    "`.{}(...)` may panic in library code; return a typed error instead",
                    tok.text
                ),
            ));
        }
        // `panic!` / `todo!` / `unimplemented!`
        if (tok.is_ident("panic") || tok.is_ident("todo") || tok.is_ident("unimplemented"))
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'!'))
        {
            out.push(Diagnostic::new(
                file,
                tok.line,
                "no-panic",
                format!(
                    "`{}!` in library code; return a typed error instead",
                    tok.text
                ),
            ));
        }
    }
}

fn scan_hot_path(
    file: &str,
    tokens: &[Token<'_>],
    test: &[bool],
    hot: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..tokens.len() {
        if test[i] || !hot[i] {
            continue;
        }
        let tok = &tokens[i];
        if tok.is_ident("format") && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'!')) {
            out.push(Diagnostic::new(
                file,
                tok.line,
                "hot-path",
                "`format!` allocates inside a hot-path region",
            ));
        }
        if (tok.is_ident("clone")
            || tok.is_ident("to_string")
            || tok.is_ident("to_owned")
            || tok.is_ident("to_vec"))
            && i > 0
            && tokens[i - 1].is_punct(b'.')
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'('))
        {
            out.push(Diagnostic::new(
                file,
                tok.line,
                "hot-path",
                format!("`.{}()` allocates inside a hot-path region", tok.text),
            ));
        }
        if (tok.is_ident("Vec") || tok.is_ident("String"))
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b':'))
            && matches!(tokens.get(i + 2), Some(t) if t.is_punct(b':'))
            && matches!(tokens.get(i + 3), Some(t) if t.is_ident("new"))
        {
            out.push(Diagnostic::new(
                file,
                tok.line,
                "hot-path",
                format!(
                    "`{}::new` inside a hot-path region; hoist it or preallocate with `with_capacity`",
                    tok.text
                ),
            ));
        }
        if (tok.is_ident("HashMap") || tok.is_ident("BTreeMap"))
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'<'))
        {
            // First generic argument, skipping `&` and lifetimes.
            let mut j = i + 2;
            while matches!(
                tokens.get(j),
                Some(t) if t.is_punct(b'&') || t.kind == TokenKind::Lifetime
            ) {
                j += 1;
            }
            if matches!(tokens.get(j), Some(t) if t.is_ident("String") || t.is_ident("str")) {
                out.push(Diagnostic::new(
                    file,
                    tok.line,
                    "hot-path",
                    format!(
                        "string-keyed `{}` in a hot-path region; intern to `RegionId`/integer keys",
                        tok.text
                    ),
                ));
            }
        }
    }
}

fn scan_par_safety(file: &str, tokens: &[Token<'_>], test: &[bool], out: &mut Vec<Diagnostic>) {
    // Prepass: locals bound to a shared-mutability primitive
    // (`let m = Mutex::new(...)`), so captures by name are caught too.
    let mut bindings: Vec<(&str, &str)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("let") {
            let mut n = i + 1;
            if matches!(tokens.get(n), Some(t) if t.is_ident("mut")) {
                n += 1;
            }
            if let Some(name) = tokens.get(n).filter(|t| t.kind == TokenKind::Ident) {
                let mut j = n + 1;
                while j < tokens.len() && !tokens[j].is_punct(b';') {
                    if tokens[j].is_ident("Mutex") || tokens[j].is_ident("RefCell") {
                        bindings.push((name.text, tokens[j].text));
                        break;
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        let is_call = !test[i]
            && (tok.is_ident("par_map")
                || tok.is_ident("par_map_with")
                || tok.is_ident("par_map_ordered_with")
                || tok.is_ident("par_map_owned")
                || tok.is_ident("par_for_each"))
            && matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'('));
        if !is_call {
            i += 1;
            continue;
        }
        let end = lexer::matching(tokens, i + 1, b'(', b')').unwrap_or(tokens.len() - 1);
        for j in (i + 2)..end {
            let inner = &tokens[j];
            if inner.is_ident("Mutex") || inner.is_ident("RefCell") {
                out.push(Diagnostic::new(
                    file,
                    inner.line,
                    "par-safety",
                    format!(
                        "`{}` captured in a `{}` closure; pass owned/immutable data instead",
                        inner.text, tok.text
                    ),
                ));
            } else if inner.kind == TokenKind::Ident {
                if let Some((_, primitive)) = bindings.iter().find(|(name, _)| *name == inner.text)
                {
                    out.push(Diagnostic::new(
                        file,
                        inner.line,
                        "par-safety",
                        format!(
                            "`{}` (bound to a `{}`) captured in a `{}` closure; pass owned/immutable data instead",
                            inner.text, primitive, tok.text
                        ),
                    ));
                }
            }
            if inner.is_ident("static") && matches!(tokens.get(j + 1), Some(t) if t.is_ident("mut"))
            {
                out.push(Diagnostic::new(
                    file,
                    inner.line,
                    "par-safety",
                    format!("`static mut` touched in a `{}` closure", tok.text),
                ));
            }
        }
        i = end + 1;
    }
}

/// One parsed `allow(...)` suppression.
struct Suppression {
    line: usize,
    rule: String,
    used: bool,
}

/// Applies `allow(rule) -- reason` suppressions to the findings and
/// emits directive-hygiene diagnostics (missing reason, unknown rule or
/// directive, stale suppression).
fn apply_directives(
    file: &str,
    directives: &[Directive],
    config: &LintConfig,
    findings: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut suppressions: Vec<Suppression> = Vec::new();
    for directive in directives {
        if directive.body == "hot-path" {
            continue;
        }
        match parse_allow(&directive.body) {
            Some((rule, Some(_reason))) if SOURCE_RULES.contains(&rule.as_str()) => {
                suppressions.push(Suppression {
                    line: directive.line,
                    rule,
                    used: false,
                });
            }
            Some((rule, Some(_reason))) => {
                out.push(Diagnostic::new(
                    file,
                    directive.line,
                    "suppression",
                    format!("`allow({rule})` names an unknown rule"),
                ));
            }
            Some((rule, None)) => {
                out.push(Diagnostic::new(
                    file,
                    directive.line,
                    "suppression",
                    format!("`allow({rule})` requires a reason: `allow({rule}) -- <why>`"),
                ));
            }
            None => {
                out.push(Diagnostic::new(
                    file,
                    directive.line,
                    "directive",
                    format!(
                        "unrecognized directive `decarb-analyze: {}`",
                        directive.body
                    ),
                ));
            }
        }
    }
    for finding in findings {
        let suppressed = suppressions.iter_mut().find(|s| {
            s.rule == finding.rule && (s.line == finding.line || s.line + 1 == finding.line)
        });
        match suppressed {
            Some(s) => s.used = true,
            None => out.push(finding),
        }
    }
    for s in &suppressions {
        // A no-panic allow in a crate where the rule is off is inert,
        // not stale (the same file may be compiled into a lib later).
        if !s.used && (config.no_panic || s.rule != "no-panic") {
            out.push(Diagnostic::new(
                file,
                s.line,
                "suppression",
                format!("`allow({})` suppresses nothing (stale; remove it)", s.rule),
            ));
        }
    }
    out
}

/// Parses `allow(<rule>) -- <reason>`; returns `(rule, reason)` or
/// `None` when the body is not an allow form at all.
fn parse_allow(body: &str) -> Option<(String, Option<String>)> {
    let rest = body.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim();
    let reason = tail
        .strip_prefix("--")
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(str::to_string);
    Some((rule, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: LintConfig = LintConfig { no_panic: true };
    const BIN: LintConfig = LintConfig { no_panic: false };

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn no_panic_flags_unwrap_expect_and_macros() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let a = x.unwrap();\n    let b = x.expect(\"msg\");\n    if a > b { panic!(\"boom\") }\n    todo!()\n}\n";
        let diags = lint_source("f.rs", src, &LIB);
        assert_eq!(rules_of(&diags), vec!["no-panic"; 4]);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn no_panic_skips_binaries_tests_and_lookalikes() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn g() { std::panic::catch_unwind(|| {}); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(); }\n}\n";
        assert!(lint_source("f.rs", src, &LIB).is_empty());
        let src_bin = "fn main() { std::fs::read(\"x\").unwrap(); }\n";
        assert!(lint_source("main.rs", src_bin, &BIN).is_empty());
    }

    #[test]
    fn hot_path_flags_alloc_only_in_marked_regions() {
        let src = "fn cold() { let v: Vec<u8> = Vec::new(); let s = format!(\"x\"); }\n// decarb-analyze: hot-path\nfn hot(xs: &[u8]) -> Vec<u8> {\n    let v: Vec<u8> = Vec::new();\n    let s = format!(\"{}\", xs.len());\n    let c = xs.to_owned();\n    c.clone()\n}\n";
        let diags = lint_source("f.rs", src, &BIN);
        assert_eq!(rules_of(&diags), vec!["hot-path"; 4]);
        assert!(diags.iter().all(|d| d.line >= 4));
    }

    #[test]
    fn hot_path_flags_to_vec_copies() {
        let src = "// decarb-analyze: hot-path\nfn hot(xs: &[u8]) -> usize {\n    let mut v = xs.to_vec();\n    v.sort();\n    let to_vec = v.len();\n    to_vec\n}\nfn cold(xs: &[u8]) -> Vec<u8> { xs.to_vec() }\n";
        let diags = lint_source("f.rs", src, &BIN);
        assert_eq!(rules_of(&diags), vec!["hot-path"]);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("`.to_vec()`"));
    }

    #[test]
    fn hot_path_flags_string_keyed_maps_not_id_keyed() {
        let src = "//! decarb-analyze: hot-path\nuse std::collections::HashMap;\nfn f() {\n    let a: HashMap<String, u8> = HashMap::with_capacity(4);\n    let b: HashMap<&str, u8> = HashMap::with_capacity(4);\n    let c: HashMap<u16, u8> = HashMap::with_capacity(4);\n    let _ = (a, b, c);\n}\n";
        let diags = lint_source("f.rs", src, &BIN);
        assert_eq!(rules_of(&diags), vec!["hot-path", "hot-path"]);
        assert_eq!(diags[0].line, 4);
        assert_eq!(diags[1].line, 5);
    }

    #[test]
    fn hot_path_allows_with_capacity() {
        let src = "// decarb-analyze: hot-path\nfn hot() -> Vec<u8> { Vec::with_capacity(8) }\n";
        assert!(lint_source("f.rs", src, &BIN).is_empty());
    }

    #[test]
    fn par_safety_flags_shared_mutability_in_closures() {
        for call in [
            "par_map(xs, ",
            "par_map_ordered_with(2, xs, ",
            "par_map_owned(xs, ",
        ] {
            let src = format!("fn f(xs: &[u8]) {{\n    let m = std::sync::Mutex::new(0);\n    {call}|x| {{ *m.lock().unwrap() += 1; x }});\n}}\n");
            let diags = lint_source("f.rs", &src, &BIN);
            assert_eq!(rules_of(&diags), vec!["par-safety"], "{call}");
            assert_eq!(diags[0].line, 3);
        }
    }

    #[test]
    fn par_safety_ignores_mutex_outside_fanout_and_definitions() {
        let src = "fn f() { let m = std::sync::Mutex::new(0); drop(m); }\npub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R> { Vec::new() }\n";
        assert!(lint_source("f.rs", src, &BIN).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_and_without_reason_reports() {
        let with = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // decarb-analyze: allow(no-panic) -- validated by caller\n}\n";
        assert!(lint_source("f.rs", with, &LIB).is_empty());
        let above = "fn f(x: Option<u8>) -> u8 {\n    // decarb-analyze: allow(no-panic) -- validated by caller\n    x.unwrap()\n}\n";
        assert!(lint_source("f.rs", above, &LIB).is_empty());
        let without =
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // decarb-analyze: allow(no-panic)\n}\n";
        let diags = lint_source("f.rs", without, &LIB);
        assert_eq!(rules_of(&diags), vec!["suppression", "no-panic"]);
    }

    #[test]
    fn stale_and_unknown_directives_are_reported() {
        let stale = "// decarb-analyze: allow(no-panic) -- nothing here panics\nfn f() {}\n";
        let diags = lint_source("f.rs", stale, &LIB);
        assert_eq!(rules_of(&diags), vec!["suppression"]);
        let unknown_rule = "fn f() {} // decarb-analyze: allow(speed) -- go fast\n";
        assert_eq!(
            rules_of(&lint_source("f.rs", unknown_rule, &LIB)),
            vec!["suppression"]
        );
        let unknown_directive = "fn f() {} // decarb-analyze: warp-drive\n";
        assert_eq!(
            rules_of(&lint_source("f.rs", unknown_directive, &LIB)),
            vec!["directive"]
        );
    }

    #[test]
    fn inert_no_panic_allow_in_binary_is_not_stale() {
        let src = "fn main() { std::fs::read(\"x\").unwrap() /* ok in bin */; }\n// decarb-analyze: allow(no-panic) -- only fires when compiled as lib\nfn helper() {}\n";
        assert!(lint_source("main.rs", src, &BIN).is_empty());
    }
}
