//! The rule engine's file model: lexed sources, `#[cfg(test)]` region
//! tracking, suppression directives, and the workspace walk.

use crate::lexer::{lex, Token};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Rule names the engine knows. Directives naming anything else are
/// themselves findings.
pub const RULES: &[&str] = &[
    "no-fma",
    "unsafe-hygiene",
    "panic-policy",
    "determinism-hazards",
];

/// One reported violation, with a workspace-relative `file:line` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of [`RULES`], or `directive` for a
    /// malformed suppression comment).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A validated `// oplix-lint: allow(<rule>, reason = "...")` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// Line the directive comment starts on.
    pub line: u32,
}

/// A lexed source file plus the derived structure rules need.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw source lines (for line-oriented checks like SAFETY comments).
    pub lines: Vec<String>,
    /// The token stream, comments included.
    pub tokens: Vec<Token>,
    /// Lines inside `#[cfg(test)]` items (whole test modules, test fns).
    pub test_lines: BTreeSet<u32>,
    /// Valid suppression directives found in the file.
    pub allows: Vec<Allow>,
    /// Findings produced while parsing directives (malformed ones).
    pub directive_findings: Vec<Finding>,
}

impl SourceFile {
    /// Lex and annotate a source file. Never fails — a file the lexer
    /// struggles with degrades to fewer tokens, not an error.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let test_lines = test_region_lines(&tokens);
        let (allows, directive_findings) = parse_directives(path, &tokens);
        SourceFile {
            path: path.to_string(),
            lines: text.lines().map(|l| l.to_string()).collect(),
            tokens,
            test_lines,
            allows,
            directive_findings,
        }
    }

    /// True if `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// True if a finding of `rule` at `line` is suppressed by an
    /// `allow` directive on the same line or the line directly above.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }

    /// Drop findings covered by a scoped `allow(...)` directive.
    pub fn apply_allows(&self, findings: Vec<Finding>) -> Vec<Finding> {
        findings
            .into_iter()
            .filter(|f| !self.is_allowed(&f.rule, f.line))
            .collect()
    }
}

/// Compute the set of lines covered by `#[cfg(test)]` items.
///
/// On seeing a `#[cfg(test)]` (or `#[cfg(all(test, …))]`) attribute, the
/// following item is skipped: everything up to the matching close brace
/// of its first `{`, or up to a `;` if one appears first (attribute on a
/// brace-less item such as a `use`).
fn test_region_lines(tokens: &[Token]) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
            // Find the matching `]` and check the attribute mentions
            // `cfg` and `test`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let (mut saw_cfg, mut saw_test) = (false, false);
            while j < code.len() && depth > 0 {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                } else if code[j].is_ident("cfg") {
                    saw_cfg = true;
                } else if code[j].is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                let start_line = code[i].line;
                // Skip the annotated item: to the `;` of a brace-less
                // item, or through the matching `}` of its first block.
                let mut k = j;
                let mut brace_depth = 0usize;
                let mut entered = false;
                while k < code.len() {
                    let t = code[k];
                    if !entered && t.is_punct(';') {
                        break;
                    }
                    if t.is_punct('{') {
                        brace_depth += 1;
                        entered = true;
                    } else if t.is_punct('}') {
                        brace_depth = brace_depth.saturating_sub(1);
                        if entered && brace_depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let end_line = code.get(k).map_or(u32::MAX, |t| t.line);
                for l in start_line..=end_line {
                    out.insert(l);
                }
                i = k + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Parse every `oplix-lint:` comment in the stream. Valid directives
/// become [`Allow`]s; malformed ones (unknown rule, missing reason)
/// become findings so a typo can't silently un-suppress.
fn parse_directives(path: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let body = t.text.trim_start_matches(['/', '!', '*']).trim();
        let Some(rest) = body.strip_prefix("oplix-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let err = |msg: String| Finding {
            rule: "directive".into(),
            path: path.to_string(),
            line: t.line,
            message: msg,
        };
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.trim_end().strip_suffix(')'))
        else {
            findings.push(err(format!(
                "malformed directive `{rest}`: expected \
                 `allow(<rule>, reason = \"...\")`"
            )));
            continue;
        };
        let Some((rule, reason)) = inner.split_once(',') else {
            findings.push(err(format!(
                "directive `allow({inner})` is missing a `reason = \"...\"`"
            )));
            continue;
        };
        let rule = rule.trim();
        if !RULES.contains(&rule) {
            findings.push(err(format!(
                "directive names unknown rule `{rule}` (known: {})",
                RULES.join(", ")
            )));
            continue;
        }
        let reason = reason.trim();
        let reason_text = reason
            .strip_prefix("reason")
            .map(|r| r.trim_start())
            .and_then(|r| r.strip_prefix('='))
            .map(|r| r.trim())
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.strip_suffix('"'));
        match reason_text {
            Some(text) if !text.trim().is_empty() => allows.push(Allow {
                rule: rule.to_string(),
                line: t.line,
            }),
            Some(_) => findings.push(err(format!(
                "directive `allow({rule}, ...)` has an empty reason — say why"
            ))),
            None => findings.push(err(format!(
                "directive `allow({rule}, ...)` is missing `reason = \"...\"`"
            ))),
        }
    }
    (allows, findings)
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files_under(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Enumerate the workspace source set the checker walks: `src/`,
/// `tests/` and `crates/*/src/` under `root`.
/// Returns workspace-relative paths with `/` separators, sorted.
pub fn workspace_files(root: &Path) -> Vec<String> {
    let mut abs = Vec::new();
    rust_files_under(&root.join("src"), &mut abs);
    rust_files_under(&root.join("tests"), &mut abs);
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            rust_files_under(&d.join("src"), &mut abs);
        }
    }
    let mut rel: Vec<String> = abs
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    rel.dedup();
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_whole_modules() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn cfg_test_on_braceless_item_stops_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.in_test_region(2));
        assert!(!f.in_test_region(3));
    }

    #[test]
    fn valid_allow_suppresses_same_and_next_line() {
        let src =
            "// oplix-lint: allow(no-fma, reason = \"test fixture\")\nlet y = a.mul_add(b, c);\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.directive_findings.is_empty());
        assert!(f.is_allowed("no-fma", 1));
        assert!(f.is_allowed("no-fma", 2));
        assert!(!f.is_allowed("no-fma", 3));
        assert!(!f.is_allowed("panic-policy", 2));
    }

    #[test]
    fn malformed_directives_are_findings() {
        let cases = [
            (
                "// oplix-lint: allow(not-a-rule, reason = \"x\")",
                "unknown rule",
            ),
            ("// oplix-lint: allow(no-fma)", "missing"),
            (
                "// oplix-lint: allow(no-fma, reason = \"\")",
                "empty reason",
            ),
            ("// oplix-lint: disallow(no-fma)", "malformed"),
        ];
        for (src, want) in cases {
            let f = SourceFile::parse("x.rs", src);
            assert_eq!(f.directive_findings.len(), 1, "{src}");
            assert!(
                f.directive_findings[0].message.contains(want),
                "{src}: {}",
                f.directive_findings[0].message
            );
            assert!(f.allows.is_empty(), "{src}");
        }
    }
}
