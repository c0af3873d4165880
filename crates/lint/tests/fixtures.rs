//! Fixture tests: every rule has a *hit* (a planted violation the lint
//! must flag), a *miss* (a compliant twin it must not), and an *allow*
//! (the violation suppressed in scope, with a reason). The fixture files
//! live under `tests/fixtures/` and are linted under virtual workspace
//! paths, since rule applicability is path-dependent.

use oplix_lint::lint_file;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint a fixture as if it sat at `virtual_path`, returning the rules hit.
fn lint(virtual_path: &str, name: &str) -> Vec<String> {
    lint_file(virtual_path, &fixture(name))
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

const KERNEL_PATH: &str = "crates/linalg/src/fixture.rs";
const SERVE_PATH: &str = "crates/core/src/serve.rs";
const LIB_PATH: &str = "crates/nn/src/fixture.rs";

#[test]
fn no_fma_hit_miss_allow() {
    assert_eq!(lint(KERNEL_PATH, "no_fma_hit.rs"), ["no-fma"]);
    assert!(lint(KERNEL_PATH, "no_fma_miss.rs").is_empty());
    assert!(lint(KERNEL_PATH, "no_fma_allow.rs").is_empty());
    // The rule is scoped to kernel crates: the same hit elsewhere is fine.
    assert!(lint("crates/core/src/fixture.rs", "no_fma_hit.rs").is_empty());
}

#[test]
fn unsafe_hygiene_hit_miss_allow() {
    assert_eq!(lint(LIB_PATH, "unsafe_hygiene_hit.rs"), ["unsafe-hygiene"]);
    assert!(lint(LIB_PATH, "unsafe_hygiene_miss.rs").is_empty());
    assert!(lint(LIB_PATH, "unsafe_hygiene_allow.rs").is_empty());
}

#[test]
fn panic_policy_hit_miss_allow() {
    assert_eq!(lint(LIB_PATH, "panic_policy_hit.rs"), ["panic-policy"]);
    // The miss twin's only `unwrap` sits inside `#[cfg(test)]`.
    assert!(lint(LIB_PATH, "panic_policy_miss.rs").is_empty());
    assert!(lint(LIB_PATH, "panic_policy_allow.rs").is_empty());
    // Test code (a `tests/` path) is out of the policy's scope entirely.
    assert!(lint("tests/fixture.rs", "panic_policy_hit.rs").is_empty());
}

#[test]
fn determinism_hit_miss_allow() {
    assert_eq!(
        lint(SERVE_PATH, "determinism_hit.rs"),
        ["determinism-hazards"]
    );
    // Keyed lookup on a hash map is allowed even on serving paths; the
    // `unwrap_or` in the miss twin is not a panic site either.
    assert!(lint(SERVE_PATH, "determinism_miss.rs").is_empty());
    assert!(lint(SERVE_PATH, "determinism_allow.rs").is_empty());
    // Hash iteration off the serving paths is not a hazard.
    assert!(lint(LIB_PATH, "determinism_hit.rs").is_empty());
}

#[test]
fn determinism_flags_wall_clock_in_kernel_crates() {
    assert_eq!(
        lint(KERNEL_PATH, "determinism_clock_hit.rs"),
        ["determinism-hazards"]
    );
    assert!(lint("crates/core/src/fixture.rs", "determinism_clock_hit.rs").is_empty());
}

#[test]
fn malformed_directives_are_findings_not_suppressions() {
    let unknown = lint(LIB_PATH, "directive_unknown_rule.rs");
    assert_eq!(unknown, ["directive"]);

    // A directive missing its reason is invalid AND does not suppress:
    // both the directive error and the no-fma hit surface.
    let mut missing = lint(KERNEL_PATH, "directive_missing_reason.rs");
    missing.sort();
    assert_eq!(missing, ["directive", "no-fma"]);
}
