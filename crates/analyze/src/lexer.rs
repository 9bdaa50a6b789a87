//! Token-level Rust lexer for the lint rules.
//!
//! Deliberately not a parser: it produces a flat token stream with line
//! numbers, strips comments/strings/char literals (they become opaque
//! [`TokenKind::Literal`] tokens), collects `decarb-analyze:` directive
//! comments, and can mask `#[cfg(test)]` items and resolve
//! `hot-path`-annotated regions by brace matching. That is enough for
//! every rule in [`crate::rules`] while staying dependency-free and
//! fast (the whole workspace lexes in milliseconds).

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation byte (`.`, `(`, `!`, ...).
    Punct(u8),
    /// String/char/numeric literal, content opaque to the rules.
    Literal,
    /// `'label` / `'lifetime` (distinct from char literals).
    Lifetime,
}

/// One token with its source text and 1-based line.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    pub kind: TokenKind,
    pub text: &'a str,
    pub line: usize,
}

impl<'a> Token<'a> {
    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token of exactly this byte.
    pub fn is_punct(&self, byte: u8) -> bool {
        self.kind == TokenKind::Punct(byte)
    }
}

/// A `decarb-analyze:` comment, with its placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line of the comment.
    pub line: usize,
    /// True for inner doc comments (`//! decarb-analyze: ...`), which
    /// scope to the whole file rather than the next item.
    pub inner: bool,
    /// Text after `decarb-analyze:`, trimmed.
    pub body: String,
}

/// Lexed view of one source file.
#[derive(Debug)]
pub struct LexedFile<'a> {
    pub tokens: Vec<Token<'a>>,
    pub directives: Vec<Directive>,
}

const DIRECTIVE_PREFIX: &str = "decarb-analyze:";

/// Lexes `source` into tokens and directives.
pub fn lex(source: &str) -> LexedFile<'_> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut directives = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                collect_directive(&source[start..i], line, &mut directives);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment; count newlines as we skip it.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tok_line = line;
                i = skip_string(bytes, i + 1, true, 0, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: "\"...\"",
                    line: tok_line,
                });
            }
            b'r' | b'b' | b'c' if is_raw_or_byte_string(bytes, i) => {
                let tok_line = line;
                let (body_start, hashes, raw) = string_prefix(bytes, i);
                i = skip_string(bytes, body_start, !raw, hashes, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: "\"...\"",
                    line: tok_line,
                });
            }
            b'\'' => {
                let tok_line = line;
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let mut j = i + 1;
                if j < bytes.len() && is_ident_start(bytes[j]) {
                    let ident_start = j;
                    while j < bytes.len() && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'\'') {
                        // Char literal such as 'a'.
                        tokens.push(Token {
                            kind: TokenKind::Literal,
                            text: "'.'",
                            line: tok_line,
                        });
                        i = j + 1;
                    } else {
                        tokens.push(Token {
                            kind: TokenKind::Lifetime,
                            text: &source[ident_start..j],
                            line: tok_line,
                        });
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '('.
                    while j < bytes.len() {
                        if bytes[j] == b'\\' {
                            j += 2;
                        } else if bytes[j] == b'\'' {
                            j += 1;
                            break;
                        } else {
                            if bytes[j] == b'\n' {
                                line += 1;
                            }
                            j += 1;
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: "'.'",
                        line: tok_line,
                    });
                    i = j;
                }
            }
            _ if is_ident_start(b) => {
                let start = i;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: &source[start..i],
                    line,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                // Covers hex/octal/binary, underscores, and suffixes;
                // `1.5` lexes as Literal Punct('.') Literal, which the
                // rules never confuse with a method call.
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: &source[start..i],
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct(b),
                    text: &source[i..i + 1],
                    line,
                });
                i += 1;
            }
        }
    }
    LexedFile { tokens, directives }
}

fn collect_directive(comment: &str, line: usize, directives: &mut Vec<Directive>) {
    // comment starts with "//"; "///" outer docs never carry directives,
    // "//!" inner docs scope to the file.
    let rest = &comment[2..];
    let (inner, rest) = match rest.as_bytes().first() {
        Some(b'!') => (true, &rest[1..]),
        Some(b'/') => return,
        _ => (false, rest),
    };
    let rest = rest.trim_start();
    if let Some(body) = rest.strip_prefix(DIRECTIVE_PREFIX) {
        directives.push(Directive {
            line,
            inner,
            body: body.trim().to_string(),
        });
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does the ident starting at `i` begin a raw/byte/C string literal
/// (`r"`, `r#"`, `b"`, `br#"`, `c"`, `cr#"`)?
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < bytes.len() && j - i < 2 && matches!(bytes[j], b'r' | b'b' | b'c') {
        j += 1;
    }
    // Only prefixes containing `r` may take hashes.
    let raw = bytes[i..j].contains(&b'r');
    if raw {
        while j < bytes.len() && bytes[j] == b'#' {
            j += 1;
        }
    }
    // Reject plain idents like `radius` (no quote follows) and byte
    // char literals like `b'x'` (handled by the `'` arm after the `b`
    // lexes as an ident — close enough for linting purposes).
    bytes.get(j) == Some(&b'"')
}

/// Returns (index just past the opening quote, hash count, raw?).
fn string_prefix(bytes: &[u8], i: usize) -> (usize, usize, bool) {
    let mut j = i;
    while j < bytes.len() && matches!(bytes[j], b'r' | b'b' | b'c') && j - i < 2 {
        j += 1;
    }
    let raw = bytes[i..j].contains(&b'r');
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j + 1, hashes, raw)
}

/// Skips a string body starting just past the opening quote; returns
/// the index just past the closing delimiter.
fn skip_string(
    bytes: &[u8],
    mut i: usize,
    escapes: bool,
    hashes: usize,
    line: &mut usize,
) -> usize {
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            *line += 1;
            i += 1;
        } else if escapes && b == b'\\' {
            i += 2;
        } else if b == b'"' {
            if hashes == 0 {
                return i + 1;
            }
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < bytes.len() && bytes[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Marks every token belonging to a `#[cfg(test)]` / `#[test]` item
/// (including the attribute itself and any stacked attributes).
pub fn test_mask(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct(b'#') || !matches!(tokens.get(i + 1), Some(t) if t.is_punct(b'[')) {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, i + 1, b'[', b']') else {
            break;
        };
        if !is_test_attr(&tokens[i + 2..close]) {
            i = close + 1;
            continue;
        }
        // Mark this attribute, any further stacked attributes, and the
        // item they decorate (to its closing `}` or terminating `;`).
        let mut end = close;
        let mut k = close + 1;
        while k < tokens.len()
            && tokens[k].is_punct(b'#')
            && matches!(tokens.get(k + 1), Some(t) if t.is_punct(b'['))
        {
            match matching(tokens, k + 1, b'[', b']') {
                Some(c) => {
                    end = c;
                    k = c + 1;
                }
                None => break,
            }
        }
        // Walk the item: the first top-level `{...}` block or `;` ends it.
        while k < tokens.len() {
            if tokens[k].is_punct(b'{') {
                match matching(tokens, k, b'{', b'}') {
                    Some(c) => end = c,
                    None => end = tokens.len() - 1,
                }
                break;
            }
            if tokens[k].is_punct(b';') {
                end = k;
                break;
            }
            end = k;
            k += 1;
        }
        for slot in mask.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    mask
}

/// Names the out-of-line modules (`mod name;`) that a file declares at
/// its top level inside test-masked tokens, such as
/// `#[cfg(test)] mod name;`: their files hold test code only. `test` is
/// [`test_mask`] of the same tokens.
pub fn test_modules<'a>(tokens: &[Token<'a>], test: &[bool]) -> Vec<&'a str> {
    let mut names = Vec::new();
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.is_punct(b'{') {
            depth += 1;
        } else if tok.is_punct(b'}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && test[i] && tok.is_ident("mod") {
            if let [name, semi, ..] = &tokens[i + 1..] {
                if name.kind == TokenKind::Ident && semi.is_punct(b';') {
                    names.push(name.text);
                }
            }
        }
    }
    names
}

/// `cfg ( test )` (possibly inside `cfg(all(test, ...))`) or a bare
/// `test` attribute. `cfg(not(test))` is explicitly NOT a test attr.
fn is_test_attr(attr: &[Token<'_>]) -> bool {
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    if attr.first().is_some_and(|t| t.is_ident("cfg")) {
        // Find a `test` ident not preceded by `not (`.
        for (idx, tok) in attr.iter().enumerate() {
            if tok.is_ident("test") {
                let negated =
                    idx >= 2 && attr[idx - 1].is_punct(b'(') && attr[idx - 2].is_ident("not");
                if !negated {
                    return true;
                }
            }
        }
    }
    false
}

/// Index of the token closing the delimiter opened at `open_idx`.
pub fn matching(tokens: &[Token<'_>], open_idx: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open_idx) {
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Marks tokens inside `hot-path` regions: the whole file when an inner
/// (`//!`) directive declares it, otherwise the item following each
/// standalone `// decarb-analyze: hot-path` line.
pub fn hot_mask(tokens: &[Token<'_>], directives: &[Directive]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    if directives.iter().any(|d| d.inner && d.body == "hot-path") {
        mask.iter_mut().for_each(|slot| *slot = true);
        return mask;
    }
    for directive in directives
        .iter()
        .filter(|d| !d.inner && d.body == "hot-path")
    {
        let Some(start) = tokens.iter().position(|t| t.line > directive.line) else {
            continue;
        };
        let mut end = start;
        let mut k = start;
        while k < tokens.len() {
            if tokens[k].is_punct(b'{') {
                end = matching(tokens, k, b'{', b'}').unwrap_or(tokens.len() - 1);
                break;
            }
            if tokens[k].is_punct(b';') {
                end = k;
                break;
            }
            end = k;
            k += 1;
        }
        for slot in mask.iter_mut().take(end + 1).skip(start) {
            *slot = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* nested */ block */
            let s = "unwrap() inside a string";
            let r = r#"raw with "quote" and unwrap"#;
            let c = 'x';
            let esc = '\n';
        "##;
        let names = idents(src);
        assert!(!names.contains(&"unwrap".to_string()));
        assert!(!names.contains(&"panic".to_string()));
        assert!(names.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) {}").tokens;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nlet b = 1;";
        let toks = lex(src).tokens;
        let b_tok = toks.iter().find(|t| t.is_ident("b")).expect("b lexed");
        assert_eq!(b_tok.line, 3);
    }

    #[test]
    fn directives_are_collected_with_placement() {
        let src = "//! decarb-analyze: hot-path\n// decarb-analyze: allow(no-panic) -- reason here\n/// decarb-analyze: not-a-directive\nfn f() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 2);
        assert!(lexed.directives[0].inner);
        assert_eq!(lexed.directives[0].body, "hot-path");
        assert!(!lexed.directives[1].inner);
        assert!(lexed.directives[1].body.starts_with("allow(no-panic)"));
        assert_eq!(lexed.directives[1].line, 2);
    }

    #[test]
    fn test_mask_covers_cfg_test_modules_only() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        for (tok, masked) in lexed.tokens.iter().zip(&mask) {
            if tok.is_ident("live") || tok.is_ident("live2") {
                assert!(!masked, "{} wrongly masked", tok.text);
            }
            if tok.is_ident("t") || tok.is_ident("tests") {
                assert!(masked, "{} not masked", tok.text);
            }
        }
    }

    #[test]
    fn test_modules_names_only_top_level_test_declarations() {
        let src = "mod live;\n#[cfg(test)]\nmod pinned;\n#[cfg(all(test, unix))]\npub(crate) mod other;\n#[cfg(test)]\nmod inline { mod nested; }\n#[cfg(not(test))]\nmod shipping;\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        assert_eq!(test_modules(&lexed.tokens, &mask), vec!["pinned", "other"]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn shipping() { x.unwrap(); }\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        assert!(mask.iter().all(|m| !m));
    }

    #[test]
    fn stacked_attributes_mask_the_whole_test_fn() {
        let src = "#[test]\n#[ignore]\nfn slow() { x.unwrap(); }\nfn live() {}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        for (tok, masked) in lexed.tokens.iter().zip(&mask) {
            if tok.is_ident("unwrap") {
                assert!(masked);
            }
            if tok.is_ident("live") {
                assert!(!masked);
            }
        }
    }

    #[test]
    fn hot_mask_scopes_to_next_item() {
        let src = "fn cold() { a(); }\n// decarb-analyze: hot-path\nfn hot() { b(); }\nfn cold2() { c(); }\n";
        let lexed = lex(src);
        let mask = hot_mask(&lexed.tokens, &lexed.directives);
        for (tok, masked) in lexed.tokens.iter().zip(&mask) {
            match tok.text {
                "b" | "hot" => assert!(masked, "{} should be hot", tok.text),
                "a" | "c" | "cold" | "cold2" => {
                    assert!(!masked, "{} should be cold", tok.text)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn inner_hot_directive_marks_whole_file() {
        let src = "//! decarb-analyze: hot-path\nfn a() {}\nfn b() {}\n";
        let lexed = lex(src);
        let mask = hot_mask(&lexed.tokens, &lexed.directives);
        assert!(!mask.is_empty());
        assert!(mask.iter().all(|m| *m));
    }
}
