//! The section grammar shared by region sidecars and scenario files.
//!
//! Both inputs are INI-like documents:
//!
//! ```text
//! # a comment; `#` also starts a trailing comment
//! [dataset]            # a section without a name
//! resolution = 5
//!
//! [region XX-HYDRO]    # a named section
//! mean_ci = 45         # `key = value`, belonging to the header above
//! mix = hydro:0.8, wind:0.2
//! ```
//!
//! [`parse_sections`] splits a document into [`Section`]s and rejects
//! every malformed line with its 1-based number: an unterminated
//! header, a header of a kind the caller does not accept (or with the
//! wrong number of names), a line that is not `key = value`, a pair
//! before any header, an empty key, and a key repeated within one
//! section. The [`Section`] accessors read typed values and
//! comma-separated lists, and [`Section::unknown_keys`] yields every
//! key outside a vocabulary with a "did you mean" hint — the parsers
//! reject the first one, the static scenario checker reports them all.
//!
//! [`crate::sidecar`] accepts `[region CODE]` and `[dataset]`;
//! `decarb_sim::scenario_file` accepts `[defaults]`, `[workload NAME]`,
//! `[regions NAME]`, `[region CODE]`, `[scenario NAME]` and
//! `[matrix NAME]`.
//!
//! ```
//! use decarb_traces::sections::parse_sections;
//!
//! let text = "[region XX]\nmean_ci = 45\nmixx = 1\n";
//! let sections = parse_sections(text, &["region CODE"]).unwrap();
//! assert_eq!(sections[0].parsed("mean_ci", 0.0).unwrap(), 45.0);
//! let typo = sections[0].unknown_keys(&["mean_ci", "mix"]).next().unwrap();
//! assert_eq!(typo.line, 3);
//! assert!(typo.message.contains("did you mean `mix`?"));
//! ```

use crate::error::TraceError;

/// A malformed line or value, with the 1-based line it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionError {
    /// 1-based line number of the offending header or pair.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl SectionError {
    /// An error anchored to `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SectionError {}

impl From<SectionError> for TraceError {
    fn from(e: SectionError) -> Self {
        TraceError::Parse {
            line: e.line,
            message: e.message,
        }
    }
}

/// One `[kind]` or `[kind name]` section with its `key = value` pairs,
/// in file order.
#[derive(Debug, Clone)]
pub struct Section {
    /// The header's first word.
    pub kind: String,
    /// The header's second word; empty for `[kind]`.
    pub name: String,
    /// 1-based line of the header.
    pub line: usize,
    /// Trimmed `(key, value)` pairs; keys are unique within a section.
    pairs: Vec<(String, String)>,
    /// 1-based line of each pair, index-aligned with `pairs`.
    pair_lines: Vec<usize>,
}

impl Section {
    /// The header as written: `[kind]` or `[kind name]`.
    pub fn header(&self) -> String {
        if self.name.is_empty() {
            format!("[{}]", self.kind)
        } else {
            format!("[{} {}]", self.kind, self.name)
        }
    }

    /// The `(key, value)` pairs, trimmed, in file order; keys are
    /// unique within a section.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// An error anchored to the header line.
    pub fn error(&self, message: impl Into<String>) -> SectionError {
        SectionError::new(self.line, message)
    }

    /// The value of `key`, if the section sets it.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The line that sets `key`, or the header line when none does.
    pub fn line_of(&self, key: &str) -> usize {
        self.pairs
            .iter()
            .position(|(k, _)| k == key)
            .map_or(self.line, |i| self.pair_lines[i])
    }

    /// `key` parsed as a `T`, or `default` when the section omits it.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, SectionError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                SectionError::new(
                    self.line_of(key),
                    format!("invalid value `{raw}` for `{key}`"),
                )
            }),
        }
    }

    /// `key` split on commas, trimmed, with empty items dropped.
    pub fn list(&self, key: &str) -> Option<Vec<&str>> {
        self.get(key).map(|raw| {
            raw.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect()
        })
    }

    /// Every key outside `allowed`, in file order, anchored to its own
    /// line. Each message names the section and suggests the closest
    /// allowed key within edit distance 2, or lists them all.
    pub fn unknown_keys<'a>(
        &'a self,
        allowed: &'a [&'a str],
    ) -> impl Iterator<Item = SectionError> + 'a {
        self.pairs
            .iter()
            .zip(&self.pair_lines)
            .filter(|((key, _), _)| !allowed.contains(&key.as_str()))
            .map(move |((key, _), &line)| {
                let hint = match suggest(key, allowed) {
                    Some(near) => format!("did you mean `{near}`?"),
                    None => format!("valid: {}", allowed.join(", ")),
                };
                SectionError::new(
                    line,
                    format!("unknown key `{key}` in {} ({hint})", self.header()),
                )
            })
    }

    /// The first of [`Section::unknown_keys`], as an error.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), SectionError> {
        self.unknown_keys(allowed).next().map_or(Ok(()), Err)
    }
}

/// Splits `text` into sections, validating the line grammar.
///
/// `kinds` lists the headers the caller accepts, each written as it
/// appears in a file: `"dataset"` for a kind that takes no name,
/// `"region CODE"` for one that takes exactly one (the second word only
/// names the placeholder in error messages).
pub fn parse_sections(text: &str, kinds: &[&str]) -> Result<Vec<Section>, SectionError> {
    let mut sections: Vec<Section> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        push_line(&mut sections, line, kinds, i + 1).map_err(|e| SectionError::new(i + 1, e))?;
    }
    Ok(sections)
}

/// Adds one comment-stripped line to `sections`: a header opens a
/// section, a pair joins the last one, a blank line does nothing.
fn push_line(
    sections: &mut Vec<Section>,
    line: &str,
    kinds: &[&str],
    line_no: usize,
) -> Result<(), String> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(header) = line.strip_prefix('[') {
        let header = header
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated section header `{line}`"))?;
        sections.push(open_section(header, kinds, line_no)?);
        return Ok(());
    }
    let (key, value) = line
        .split_once('=')
        .ok_or_else(|| format!("expected `key = value`, got `{line}`"))?;
    let section = sections
        .last_mut()
        .ok_or("`key = value` before any section header")?;
    let key = key.trim();
    if key.is_empty() {
        return Err("empty key".into());
    }
    if section.get(key).is_some() {
        return Err(format!("duplicate key `{key}` in {}", section.header()));
    }
    section.pairs.push((key.into(), value.trim().into()));
    section.pair_lines.push(line_no);
    Ok(())
}

/// Opens the section a header's words (the text between the brackets)
/// declare, if `kinds` accepts them.
fn open_section(header: &str, kinds: &[&str], line: usize) -> Result<Section, String> {
    let mut words = header.split_whitespace();
    let (kind, name) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
    let Some(form) = kinds
        .iter()
        .find(|form| form.split(' ').next() == Some(kind))
    else {
        let valid: Vec<String> = kinds.iter().map(|form| format!("`[{form}]`")).collect();
        return Err(format!(
            "unknown section kind `{kind}` (valid: {})",
            valid.join(", ")
        ));
    };
    let named = form.contains(' ');
    if !named && !name.is_empty() {
        return Err(format!("`[{kind}]` takes no name"));
    }
    if words.next().is_some() {
        return Err(format!("section headers take one name, as in `[{form}]`"));
    }
    if named && name.is_empty() {
        return Err(format!("`[{kind}]` needs a name, as in `[{form}]`"));
    }
    Ok(Section {
        kind: kind.into(),
        name: name.into(),
        line,
        pairs: Vec::new(),
        pair_lines: Vec::new(),
    })
}

/// Returns the closest allowed key within edit distance 2, if any.
fn suggest<'a>(key: &str, allowed: &[&'a str]) -> Option<&'a str> {
    allowed
        .iter()
        .map(|candidate| (edit_distance(key, candidate), *candidate))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, candidate)| candidate)
}

/// Levenshtein distance over bytes (keys are ASCII), two-row DP.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            curr[j + 1] = substitute.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: &[&str] = &["defaults", "region CODE"];

    #[test]
    fn sections_keep_headers_pairs_and_lines() {
        let text = "\
# leading comment
[defaults]   # trailing comment
horizon = 48
codes = a, , b ,c

[region xx-hydro]
name = Hydro = Town
";
        let sections = parse_sections(text, KINDS).unwrap();
        assert_eq!(sections.len(), 2);
        let (defaults, region) = (&sections[0], &sections[1]);
        assert_eq!(
            (defaults.header().as_str(), defaults.line),
            ("[defaults]", 2)
        );
        assert_eq!(defaults.parsed("horizon", 0usize).unwrap(), 48);
        assert_eq!(defaults.parsed("missing", 7usize).unwrap(), 7);
        assert_eq!(defaults.line_of("codes"), 4);
        assert_eq!(
            defaults.line_of("missing"),
            2,
            "absent keys point at the header"
        );
        assert_eq!(defaults.list("codes").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            region.header(),
            "[region xx-hydro]",
            "names keep their case"
        );
        assert_eq!(
            region.get("name"),
            Some("Hydro = Town"),
            "values may hold `=`"
        );
        let bad = parse_sections("[defaults]\nhorizon = soon\n", KINDS).unwrap();
        let error = bad[0].parsed("horizon", 0usize).unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.message.contains("invalid value `soon` for `horizon`"));
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        for (text, line, needle) in [
            ("key = value\n", 1, "before any section header"),
            ("[defaults\n", 1, "unterminated section header"),
            ("[zone XX]\n", 1, "unknown section kind `zone`"),
            ("[zone XX]\n", 1, "`[region CODE]`"),
            ("[defaults extra]\n", 1, "`[defaults]` takes no name"),
            ("[region]\n", 1, "needs a name, as in `[region CODE]`"),
            (
                "[region XX extra]\n",
                1,
                "take one name, as in `[region CODE]`",
            ),
            ("[defaults]\nhorizon 48\n", 2, "expected `key = value`"),
            ("[defaults]\n = 48\n", 2, "empty key"),
            (
                "[defaults]\na = 1\n\na = 2\n",
                4,
                "duplicate key `a` in [defaults]",
            ),
        ] {
            let error = parse_sections(text, KINDS).unwrap_err();
            assert_eq!(error.line, line, "{text:?}: {error}");
            assert!(error.message.contains(needle), "{text:?}: {error}");
        }
        // The same key may repeat across sections.
        assert!(parse_sections("[region A]\nx = 1\n[region B]\nx = 2\n", KINDS).is_ok());
    }

    #[test]
    fn unknown_keys_name_every_offender_with_a_hint() {
        let text = "[region XX]\nname = A\nnmae = B\nfrobnicate = C\n";
        let sections = parse_sections(text, KINDS).unwrap();
        let allowed = &["name", "lat", "lon"];
        let unknown: Vec<SectionError> = sections[0].unknown_keys(allowed).collect();
        assert_eq!(unknown.len(), 2);
        assert_eq!(unknown[0].line, 3);
        assert!(
            unknown[0]
                .message
                .contains("unknown key `nmae` in [region XX] (did you mean `name`?)"),
            "{}",
            unknown[0].message
        );
        assert_eq!(unknown[1].line, 4);
        assert!(
            unknown[1].message.contains("(valid: name, lat, lon)"),
            "{}",
            unknown[1].message
        );
        assert_eq!(sections[0].reject_unknown(allowed), Err(unknown[0].clone()));
        assert_eq!(
            sections[0].reject_unknown(&["name", "nmae", "frobnicate"]),
            Ok(())
        );
    }

    #[test]
    fn edit_distance_counts_single_byte_edits() {
        assert_eq!(edit_distance("horizon", "horizon"), 0);
        assert_eq!(edit_distance("horzion", "horizon"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(suggest("horzion", &["year", "horizon"]), Some("horizon"));
        assert_eq!(suggest("frobnicate", &["year", "horizon"]), None);
    }

    #[test]
    fn errors_convert_to_trace_parse_errors() {
        let error: TraceError = SectionError::new(4, "empty key").into();
        assert_eq!(
            error,
            TraceError::Parse {
                line: 4,
                message: "empty key".into()
            }
        );
        assert_eq!(
            SectionError::new(4, "empty key").to_string(),
            "line 4: empty key"
        );
    }
}
