//! The rule catalogue. Each rule encodes a contract the workspace
//! already documents in prose (ARCHITECTURE.md, module docs) — the rule
//! is the machine-checkable form of that contract.
//!
//! Rules pattern-match over the comment-preserving token stream from
//! [`crate::lexer`]; none of them parse an AST. That keeps the pass
//! self-contained (no `syn`, no rustc internals) at the cost of being
//! heuristic — which is why findings can be suppressed with a scoped,
//! reasoned `// oplix-lint: allow(<rule>, reason = "...")` that the
//! engine itself validates.

use crate::engine::{Finding, SourceFile};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose kernels carry the bitwise-determinism contract: the
/// lanes-layer no-FMA rule and the ban on wall-clock / thread-identity
/// reads inside numeric paths.
pub const KERNEL_CRATES: &[&str] = &["linalg", "photonics"];

/// Files on serving/deploy paths where iteration order of a hash
/// collection can leak into outputs or stats. Keyed lookup is fine;
/// iteration needs an ordered collection or a reasoned `allow`.
pub const ORDER_SENSITIVE_PATHS: &[&str] = &[
    "crates/core/src/lane.rs",
    "crates/core/src/serve.rs",
    "crates/core/src/router.rs",
    "crates/core/src/deploy.rs",
    "crates/core/src/engine.rs",
];

/// Workspace-local stand-ins for crates.io dependencies. Panicking is
/// part of the API they emulate (`proptest` assertion failures), so the
/// panic policy exempts them.
const STUB_CRATES: &[&str] = &["rand", "proptest"];

/// The crate a workspace-relative path belongs to, if under `crates/`.
pub fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

fn in_kernel_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| KERNEL_CRATES.contains(&c))
}

/// True where the panic policy applies: library source (`src/` trees),
/// excluding test/bench harness code and the dependency stubs. Bench code
/// is the `bench` crate path: `perfbench/`'s own tests lint its sources as
/// `crates/bench/benches/perfbench/…`.
pub fn panic_policy_applies(path: &str) -> bool {
    let in_src = path.starts_with("src/") || path.contains("/src/");
    let exempt_crate = crate_of(path).is_some_and(|c| c == "bench" || STUB_CRATES.contains(&c));
    in_src && !exempt_crate
}

fn finding(rule: &str, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        path: file.path.clone(),
        line,
        message,
    }
}

/// Code tokens only (comments stripped), for sequence matching.
fn code(file: &SourceFile) -> Vec<&Token> {
    file.tokens.iter().filter(|t| !t.is_comment()).collect()
}

// ---------------------------------------------------------------------------
// R1: no-fma
// ---------------------------------------------------------------------------

/// Forbid `mul_add` / `fma` tokens in kernel crates. The lanes layer's
/// bitwise contract requires separate mul and add — a fused multiply-add
/// rounds once instead of twice and silently changes every downstream
/// bit pattern (see `oplix_linalg::lanes`).
pub fn no_fma(file: &SourceFile) -> Vec<Finding> {
    if !in_kernel_crate(&file.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for t in &file.tokens {
        if t.kind == TokenKind::Ident && (t.text == "mul_add" || t.text == "fma") {
            out.push(finding(
                "no-fma",
                file,
                t.line,
                format!(
                    "`{}` in a kernel crate: fused multiply-add rounds once, \
                     breaking the lanes-layer bitwise contract (use separate \
                     mul and add)",
                    t.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R2: unsafe-hygiene
// ---------------------------------------------------------------------------

/// Lines of every `unsafe` site in the file (block, fn, or impl).
pub fn unsafe_sites(file: &SourceFile) -> Vec<u32> {
    file.tokens
        .iter()
        .filter(|t| t.is_ident("unsafe"))
        .map(|t| t.line)
        .collect()
}

/// Is a line, trimmed, part of a comment run or attribute stack that a
/// SAFETY scan may step over?
fn scannable_line(trimmed: &str) -> bool {
    trimmed.is_empty()
        || trimmed.starts_with("//")
        || trimmed.starts_with("/*")
        || trimmed.starts_with('*')
        || trimmed.starts_with("#[")
        || trimmed.starts_with("#![")
}

/// Every `unsafe` site must be immediately preceded by a comment run
/// containing `SAFETY` (attributes and blank lines may sit between the
/// comment and the site — `#[target_feature]` fns keep their SAFETY
/// note above the attribute). Doc comments with a `# Safety` section
/// count.
pub fn unsafe_hygiene(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for &site in &unsafe_sites(file) {
        let idx = site as usize - 1;
        let own_line_ok = file
            .lines
            .get(idx)
            .is_some_and(|l| l.to_lowercase().contains("safety"));
        let mut ok = own_line_ok;
        let mut i = idx;
        while !ok && i > 0 {
            i -= 1;
            let trimmed = file.lines[i].trim();
            if !scannable_line(trimmed) {
                break;
            }
            if trimmed.starts_with("//") || trimmed.starts_with("/*") || trimmed.starts_with('*') {
                ok = trimmed.to_lowercase().contains("safety");
                if ok {
                    break;
                }
            }
        }
        if !ok {
            out.push(finding(
                "unsafe-hygiene",
                file,
                site,
                "`unsafe` site without an immediately preceding `// SAFETY:` \
                 comment explaining why the invariants hold"
                    .to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R3: panic-policy
// ---------------------------------------------------------------------------

/// Lines of every panic site (`.unwrap()`, `.expect(`, `panic!`) in
/// non-test library code. `#[cfg(test)]` regions and doc comments are
/// excluded; `unwrap_or`/`unwrap_or_else` are distinct tokens and never
/// match.
pub fn panic_sites(file: &SourceFile) -> Vec<u32> {
    if !panic_policy_applies(&file.path) {
        return Vec::new();
    }
    let code = code(file);
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if file.in_test_region(t.line) {
            continue;
        }
        let hit = (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            || t.is_ident("panic") && code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if hit {
            out.push(t.line);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R4: determinism-hazards
// ---------------------------------------------------------------------------

/// Identify names bound to hash collections in this file: declarations
/// (`name: …HashMap<…>` fields, params, lets) plus a shallow taint pass
/// through `let name = <expr containing a hash name>;` so lock guards
/// over hash-typed fields are tracked too.
pub(crate) fn hash_bound_names(code: &[&Token]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    // Declarations with a type annotation.
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident || !code.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        // `::` is path separation, not a type annotation.
        if code.get(i + 2).is_some_and(|t| t.is_punct(':')) || i > 0 && code[i - 1].is_punct(':') {
            continue;
        }
        let mut angle = 0i32;
        for t in code.iter().skip(i + 2).take(12) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0
                && (t.is_punct(',') || t.is_punct(';') || t.is_punct('=') || t.is_punct(')'))
            {
                break;
            } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                names.insert(code[i].text.clone());
                break;
            }
        }
    }
    // Taint propagation through simple `let` bindings, to fixpoint.
    for _ in 0..4 {
        let before = names.len();
        let mut i = 0;
        while i < code.len() {
            if !code[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = code.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                i += 1;
                continue;
            };
            // Only plain bindings (`let name = …`, `let name: T = …`)
            // taint; `let Some(x) = …` and friends are patterns, not
            // aliases.
            if !code
                .get(j + 1)
                .is_some_and(|t| t.is_punct('=') || t.is_punct(':'))
            {
                i = j + 1;
                continue;
            }
            // Scan the initialiser up to the statement-ending `;`.
            let mut depth = 0i32;
            let mut saw_eq = false;
            let mut tainted = false;
            for (off, t) in code.iter().enumerate().skip(j + 1) {
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct(';') && depth <= 0 {
                    break;
                } else if t.is_punct('=') && depth == 0 {
                    saw_eq = true;
                } else if saw_eq && t.kind == TokenKind::Ident {
                    // A tainted *value* reference, not an unrelated method
                    // that shares the name (`.map(|x| …)` is not the hash
                    // field `self.map`): method invocations — ident both
                    // preceded by `.` and followed by `(` — don't taint.
                    let is_method_call = off > 0
                        && code[off - 1].is_punct('.')
                        && code.get(off + 1).is_some_and(|n| n.is_punct('('));
                    if !is_method_call
                        && (t.text == "HashMap" || t.text == "HashSet" || names.contains(&t.text))
                    {
                        tainted = true;
                    }
                }
            }
            if tainted {
                names.insert(name_tok.text.clone());
            }
            i = j + 1;
        }
        if names.len() == before {
            break;
        }
    }
    names
}

const ITERATION_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Flag (a) iteration over hash collections in order-sensitive
/// serving/deploy files, and (b) wall-clock / thread-identity reads in
/// kernel crates. Hash-keyed lookup (`get`/`insert`/`contains_key`) is
/// untouched — only *order* is the hazard: iteration order of
/// `HashMap`/`HashSet` varies per process (`RandomState`), so anything
/// it feeds — response ordering, stats, eviction choice — silently
/// breaks the bitwise-reproducibility contract.
pub fn determinism_hazards(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let code = code(file);
    if ORDER_SENSITIVE_PATHS.contains(&file.path.as_str()) {
        let hashy = hash_bound_names(&code);
        for i in 0..code.len() {
            let t = code[i];
            if file.in_test_region(t.line) {
                continue;
            }
            // `name.iter()` and friends on a hash-bound name.
            if t.kind == TokenKind::Ident
                && hashy.contains(&t.text)
                && code.get(i + 1).is_some_and(|n| n.is_punct('.'))
            {
                if let Some(m) = code.get(i + 2) {
                    if m.kind == TokenKind::Ident
                        && ITERATION_METHODS.contains(&m.text.as_str())
                        && code.get(i + 3).is_some_and(|n| n.is_punct('('))
                    {
                        out.push(finding(
                            "determinism-hazards",
                            file,
                            m.line,
                            format!(
                                "iteration (`.{}()`) over hash collection `{}` on a \
                                 serving/deploy path: HashMap/HashSet order varies per \
                                 process — use an ordered collection, sort first, or \
                                 `allow` with a reason why order cannot leak",
                                m.text, t.text
                            ),
                        ));
                    }
                }
            }
            // `for pat in [&][mut] name {` over a hash-bound name.
            if t.is_ident("for") {
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < code.len() && !(depth == 0 && code[j].is_ident("in")) {
                    if code[j].is_punct('(') || code[j].is_punct('[') {
                        depth += 1;
                    } else if code[j].is_punct(')') || code[j].is_punct(']') {
                        depth -= 1;
                    } else if code[j].is_punct('{') {
                        break;
                    }
                    j += 1;
                }
                if j < code.len() && code[j].is_ident("in") {
                    let expr: Vec<&&Token> = code[j + 1..]
                        .iter()
                        .take_while(|t| !t.is_punct('{'))
                        .filter(|t| !t.is_punct('&') && !t.is_ident("mut"))
                        .collect();
                    if let [only] = expr.as_slice() {
                        if only.kind == TokenKind::Ident && hashy.contains(&only.text) {
                            out.push(finding(
                                "determinism-hazards",
                                file,
                                only.line,
                                format!(
                                    "`for … in {}` iterates a hash collection on a \
                                     serving/deploy path: HashMap/HashSet order varies \
                                     per process — use an ordered collection, sort \
                                     first, or `allow` with a reason",
                                    only.text
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    if in_kernel_crate(&file.path) {
        for i in 0..code.len() {
            let t = code[i];
            if file.in_test_region(t.line) {
                continue;
            }
            let path2 = |a: &str, b: &str| {
                t.is_ident(a)
                    && code.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && code.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && code.get(i + 3).is_some_and(|x| x.is_ident(b))
            };
            if path2("Instant", "now") {
                out.push(finding(
                    "determinism-hazards",
                    file,
                    t.line,
                    "`Instant::now` inside a kernel crate: wall-clock reads in \
                     numeric paths are a determinism hazard (time belongs in the \
                     bench/serving layers)"
                        .to_string(),
                ));
            }
            if path2("thread", "current") || t.is_ident("ThreadId") {
                out.push(finding(
                    "determinism-hazards",
                    file,
                    t.line,
                    "thread-identity read inside a kernel crate: per-thread \
                     branching breaks the bitwise worker-count-invariance \
                     contract"
                        .to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    #[test]
    fn no_fma_scopes_to_kernel_crates_and_code_tokens() {
        let src =
            "// mul_add in a comment is fine\nlet s = \"mul_add\";\nlet y = a.mul_add(b, c);\n";
        let hits = no_fma(&file("crates/linalg/src/x.rs", src));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        assert!(no_fma(&file("crates/core/src/x.rs", src)).is_empty());
    }

    #[test]
    fn unsafe_hygiene_accepts_comment_runs_over_attributes() {
        let ok = "// SAFETY: verified at runtime.\n#[target_feature(enable = \"avx2\")]\nunsafe fn f() {}\n";
        assert!(unsafe_hygiene(&file("crates/core/src/x.rs", ok)).is_empty());
        let bad = "fn g() {\n    let x = unsafe { erase() };\n}\n";
        assert_eq!(unsafe_hygiene(&file("crates/core/src/x.rs", bad)).len(), 1);
        let multiline = "// SAFETY: the pointee is pinned\n// and outlives the scope.\nunsafe impl Send for X {}\n";
        assert!(unsafe_hygiene(&file("crates/core/src/x.rs", multiline)).is_empty());
    }

    #[test]
    fn panic_sites_skip_tests_doc_comments_and_unwrap_or() {
        let src = "\
/// let x = foo().unwrap(); // doctest, fine
fn lib() {
    let a = b.unwrap();
    let c = d.unwrap_or_else(|| 0);
    let e = f.expect(\"msg\");
    panic!(\"boom\");
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let sites = panic_sites(&file("crates/core/src/x.rs", src));
        assert_eq!(sites, vec![3, 5, 6]);
        assert!(panic_sites(&file("tests/x.rs", src)).is_empty());
        assert!(panic_sites(&file("crates/bench/src/x.rs", src)).is_empty());
    }

    #[test]
    fn determinism_flags_iteration_not_lookup() {
        let src = "\
struct S { lanes: RwLock<HashMap<String, u32>> }
fn stats(s: &S) {
    let lanes = s.lanes.read().unwrap();
    for (k, v) in lanes.iter() {}
    let hit = lanes.get(\"x\");
}
";
        let hits = determinism_hazards(&file("crates/core/src/router.rs", src));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4);
        // Same code off the serving paths is not flagged.
        assert!(determinism_hazards(&file("crates/core/src/spec.rs", src)).is_empty());
    }

    #[test]
    fn determinism_taints_guards_and_for_loops() {
        let src = "\
struct S { seen: HashSet<u64> }
fn f(s: &S) {
    let mut m = s.seen.lock();
    for x in &m {}
    m.drain();
}
";
        let hits = determinism_hazards(&file("crates/core/src/deploy.rs", src));
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn kernel_crates_reject_wall_clock() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            determinism_hazards(&file("crates/linalg/src/x.rs", src)).len(),
            1
        );
        assert!(determinism_hazards(&file("crates/core/src/spec.rs", src)).is_empty());
    }
}
