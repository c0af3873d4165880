//! # oplix-lint — the workspace invariant checker
//!
//! A self-contained static-analysis pass over the OplixNet workspace
//! source. The repo's value proposition — paper-faithful results served
//! at production speed — rests on contracts that property tests can only
//! sample: the no-FMA rule behind the lanes layer's bitwise guarantee,
//! one documented `unsafe` per hazard, typed errors instead of panics on
//! public API paths, and deterministic iteration on serving paths.
//! `oplix-lint` checks all of them on every file, on every push — the
//! violation is caught the day it is written, not the day a property test
//! happens to sample it.
//!
//! ## Quickstart
//!
//! ```text
//! cargo run -p oplix-lint              # check the workspace, exit 1 on findings
//! cargo run -p oplix-lint -- --write-baseline   # ratchet the pins after a cleanup
//! ```
//!
//! ## The rule catalogue
//!
//! | rule | contract it enforces |
//! |------|----------------------|
//! | `no-fma` | no `mul_add`/`fma` in kernel crates (`linalg`, `photonics`) — FMA rounds once and breaks the lanes layer's scalar≡SIMD bitwise guarantee |
//! | `unsafe-hygiene` | every `unsafe` site carries a preceding `// SAFETY:` comment, and the per-file site count is pinned in `lint-baseline.toml` |
//! | `panic-policy` | no `.unwrap()`/`.expect(`/`panic!` in non-test library code beyond the pinned per-file counts — public paths return the typed [`oplixnet` `Error`] instead |
//! | `determinism-hazards` | no iteration over `HashMap`/`HashSet` on serving/deploy paths (keyed lookup is fine); no `Instant::now`/thread-identity reads in kernel crates |
//!
//! [`oplixnet` `Error`]: https://docs.rs/oplixnet
//!
//! ## Suppression
//!
//! A finding that is intentional is suppressed *in scope*, with a reason,
//! on the line above (or the same line):
//!
//! ```text
//! // oplix-lint: allow(determinism-hazards, reason = "results collect into a BTreeMap")
//! for (name, lane) in lanes.iter() {
//! ```
//!
//! The directive itself is validated: an unknown rule name, a missing or
//! empty `reason`, or a malformed shape is an error — a typo cannot
//! silently widen the suppression.
//!
//! ## Baseline workflow
//!
//! `lint-baseline.toml` pins the current per-file counts of `unsafe`
//! sites and panic sites. Adding a site fails the lint until the pin is
//! bumped in the same diff (making growth a visible, reviewable act);
//! removing sites prints a ratchet note until `--write-baseline`
//! regenerates the pins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod engine;
pub mod lexer;
pub mod rules;

use baseline::Baseline;
use engine::{Finding, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Everything one full check of a workspace produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Actionable findings: violations not covered by an `allow`
    /// directive or the checked-in baseline. Non-empty ⇒ exit 1.
    pub findings: Vec<Finding>,
    /// Non-fatal observations (counts below baseline that could be
    /// ratcheted down, stale baseline entries).
    pub notes: Vec<String>,
    /// Current `unsafe` sites per file (the `[unsafe-hygiene]` pins).
    pub unsafe_counts: BTreeMap<String, usize>,
    /// Current panic sites per file (the `[panic-policy]` pins).
    pub panic_counts: BTreeMap<String, usize>,
}

impl Report {
    /// The baseline that would pin the workspace exactly as it is now.
    pub fn as_baseline(&self) -> Baseline {
        Baseline {
            unsafe_sites: self.unsafe_counts.clone(),
            panic_sites: self.panic_counts.clone(),
        }
    }
}

/// Lint a single file (rules R1–R4 plus directive validation), as the
/// workspace pass would see it at `path`. The path determines rule
/// applicability — kernel-crate rules, serving-path rules, the panic
/// policy's library scope — so fixture tests lint snippets under
/// *virtual* paths.
///
/// Returned findings are already filtered through the file's `allow`
/// directives. Counting rules (the baseline side of `unsafe-hygiene` /
/// `panic-policy`) are not applied here; use [`lint_workspace`] for the
/// pinned-count comparison.
pub fn lint_file(path: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, text);
    let mut findings = file.directive_findings.clone();
    let mut raw = Vec::new();
    raw.extend(rules::no_fma(&file));
    raw.extend(rules::unsafe_hygiene(&file));
    raw.extend(rules::determinism_hazards(&file));
    raw.extend(rules::panic_sites(&file).into_iter().map(|line| {
        Finding {
            rule: "panic-policy".into(),
            path: file.path.clone(),
            line,
            message: "panic site (`unwrap`/`expect`/`panic!`) in library code — \
                          return the typed error instead"
                .into(),
        }
    }));
    findings.extend(file.apply_allows(raw));
    findings
}

/// Check the whole workspace rooted at `root` against `baseline`.
///
/// Walks `src/`, `tests/` and `crates/*/src/`,
/// runs every rule, applies suppressions, and folds the counting rules
/// against the pinned baseline: counts above a pin are findings, counts
/// below it are ratchet notes.
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    let mut report = Report::default();
    let rel_paths = engine::workspace_files(root);
    let mut panic_lines: BTreeMap<String, Vec<u32>> = BTreeMap::new();

    for rel in &rel_paths {
        let text = std::fs::read_to_string(root.join(rel))?;
        let file = SourceFile::parse(rel, &text);

        // Directive validation is never suppressible.
        report.findings.extend(file.directive_findings.clone());

        let mut raw = Vec::new();
        raw.extend(rules::no_fma(&file));
        raw.extend(rules::unsafe_hygiene(&file));
        raw.extend(rules::determinism_hazards(&file));
        report.findings.extend(file.apply_allows(raw));

        // Counting rules: unsafe sites count regardless of allows (the
        // pin tracks existence, not documentation); panic sites with a
        // scoped allow are excluded from the count.
        let n_unsafe = rules::unsafe_sites(&file).len();
        if n_unsafe > 0 {
            report.unsafe_counts.insert(rel.clone(), n_unsafe);
        }
        let sites: Vec<u32> = rules::panic_sites(&file)
            .into_iter()
            .filter(|&l| !file.is_allowed("panic-policy", l))
            .collect();
        if !sites.is_empty() {
            report.panic_counts.insert(rel.clone(), sites.len());
            panic_lines.insert(rel.clone(), sites);
        }
    }

    // Fold counts against the pins.
    compare_counts(
        "unsafe-hygiene",
        "unsafe site(s)",
        &report.unsafe_counts,
        &baseline.unsafe_sites,
        &BTreeMap::new(),
        &mut report.findings,
        &mut report.notes,
    );
    compare_counts(
        "panic-policy",
        "panic site(s)",
        &report.panic_counts,
        &baseline.panic_sites,
        &panic_lines,
        &mut report.findings,
        &mut report.notes,
    );
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(report)
}

/// Compare measured per-file counts against pinned ones. Above the pin
/// is a finding (bump the baseline explicitly, in the same diff); below
/// it is a ratchet note; a pin for a vanished file is a stale-entry note.
fn compare_counts(
    rule: &str,
    noun: &str,
    actual: &BTreeMap<String, usize>,
    pinned: &BTreeMap<String, usize>,
    lines: &BTreeMap<String, Vec<u32>>,
    findings: &mut Vec<Finding>,
    notes: &mut Vec<String>,
) {
    for (path, &count) in actual {
        let pin = pinned.get(path).copied().unwrap_or(0);
        if count > pin {
            let at = lines
                .get(path)
                .map(|ls| {
                    format!(
                        " (sites at line{} {})",
                        if ls.len() == 1 { "" } else { "s" },
                        ls.iter()
                            .map(|l| l.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
                .unwrap_or_default();
            findings.push(Finding {
                rule: rule.to_string(),
                path: path.clone(),
                line: lines
                    .get(path)
                    .and_then(|ls| ls.first().copied())
                    .unwrap_or(1),
                message: format!(
                    "{count} {noun} but lint-baseline.toml pins {pin}{at} — \
                     remove the new site or bump the pin in this diff"
                ),
            });
        } else if count < pin {
            notes.push(format!(
                "{path}: {count} {noun}, baseline pins {pin} — ratchet down with \
                 --write-baseline"
            ));
        }
    }
    for (path, &pin) in pinned {
        if pin > 0 && !actual.contains_key(path) {
            notes.push(format!(
                "{path}: baseline pins {pin} {noun} but the file has none (or was \
                 removed) — ratchet with --write-baseline"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_file_applies_scoped_allows() {
        let src = "\
// oplix-lint: allow(no-fma, reason = \"documented divergence experiment\")
let y = a.mul_add(b, c);
let z = d.mul_add(e, f);
";
        let findings = lint_file("crates/linalg/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn counts_above_pin_are_findings_below_are_notes() {
        let mut findings = Vec::new();
        let mut notes = Vec::new();
        let actual = BTreeMap::from([("a.rs".to_string(), 3), ("b.rs".to_string(), 1)]);
        let pinned = BTreeMap::from([
            ("a.rs".to_string(), 2),
            ("b.rs".to_string(), 4),
            ("gone.rs".to_string(), 2),
        ]);
        compare_counts(
            "panic-policy",
            "panic site(s)",
            &actual,
            &pinned,
            &BTreeMap::new(),
            &mut findings,
            &mut notes,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("3 panic site(s)"));
        assert_eq!(notes.len(), 2);
    }
}
