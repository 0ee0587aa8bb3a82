//! Workspace layout knowledge: which files are library code, which are
//! exempt, and which token ranges are `#[cfg(test)]`-only.

use crate::annotations::AllowIndex;
use crate::ast::Ast;
use crate::lexer::{Lexed, Token};

/// How a file participates in the invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Result-producing library code: all rules apply.
    Library,
    /// Driver/experiment/benchmark code: nondeterminism and panics are
    /// allowed (`crates/experiments`, `perfbench/`, `examples/`).
    Exempt,
    /// Test-only code (`tests/`, `benches/` directories): panics and exact
    /// float assertions are idiomatic; determinism rules still apply.
    Test,
}

/// Library crates whose `src/` must uphold every invariant. Keep in sync
/// with the workspace members in the root `Cargo.toml`.
pub const LIBRARY_CRATES: &[&str] = &[
    "imaging",
    "nn",
    "core",
    "crowd",
    "augment",
    "eval",
    "baselines",
    "synth",
    "faults",
    "runtime",
];

/// Crates allowed to use wall clocks, OS entropy, and panicking shortcuts:
/// the experiment drivers. The linter itself is deliberately *not* here —
/// it passes its own rules (self-application).
pub const EXEMPT_CRATES: &[&str] = &["experiments"];

/// Imaging/NN hot-path files where the `lossy-cast` rule applies: the NCC
/// feature generation chain and the MLP/L-BFGS numeric kernels.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/imaging/src/ncc.rs",
    "crates/imaging/src/prepared.rs",
    "crates/imaging/src/integral.rs",
    "crates/imaging/src/resize.rs",
    "crates/imaging/src/pyramid.rs",
    "crates/imaging/src/transform.rs",
    "crates/imaging/src/filter.rs",
    "crates/imaging/src/image.rs",
    "crates/nn/src/matrix.rs",
    "crates/nn/src/conv.rs",
    "crates/nn/src/mlp.rs",
    "crates/nn/src/lbfgs.rs",
    "crates/nn/src/optim.rs",
];

/// Persistence modules blessed for ambient effects under P1
/// `stage-purity`: the durable store's disk tier and the run context's
/// artifact plumbing are *where* filesystem work is supposed to live, so
/// effects reachable through them are the contract, not a violation.
pub const PERSISTENCE_FILES: &[&str] = &[
    "crates/runtime/src/store.rs",
    "crates/runtime/src/disk.rs",
    "crates/runtime/src/codec.rs",
    "crates/runtime/src/context.rs",
];

/// Deterministic parallel engines blessed for *thread-spawn* effects only
/// under P1: scoped work-stealing with deterministic reduction. Clock,
/// filesystem, and env access are still violations here.
pub const ENGINE_FILES: &[&str] = &[
    "crates/core/src/features.rs",
    "crates/imaging/src/prepared.rs",
];

/// Files where the C1 `lock-discipline` rule applies: the memory store and
/// disk tier of the runtime, the imaging
/// engine's hot-path cache — the prepared-pattern fitted-variant cache —
/// and the feature engine's per-image slots and spare list.
pub fn lock_scope(rel_path: &str) -> bool {
    rel_path == "crates/runtime/src/store.rs"
        || rel_path == "crates/runtime/src/disk.rs"
        || rel_path == "crates/imaging/src/prepared.rs"
        || rel_path == "crates/core/src/features.rs"
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    // Any tests/ or benches/ directory level marks test-only code.
    if parts
        .iter()
        .take(parts.len().saturating_sub(1))
        .any(|p| *p == "tests" || *p == "benches")
    {
        return FileClass::Test;
    }
    // Examples and the benchmark driver time and print by design.
    if matches!(parts.first(), Some(&"examples" | &"perfbench")) {
        return FileClass::Exempt;
    }
    if parts.first() == Some(&"crates") {
        let krate = parts.get(1).copied().unwrap_or("");
        if EXEMPT_CRATES.contains(&krate) {
            return FileClass::Exempt;
        }
        if parts.get(2) == Some(&"examples") {
            return FileClass::Exempt;
        }
        return FileClass::Library;
    }
    // Root src/ facade crate.
    FileClass::Library
}

/// Everything a rule needs to inspect one file.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes, for diagnostics.
    pub path: &'a str,
    pub class: FileClass,
    pub tokens: &'a [Token],
    /// `in_test[i]` is true when token `i` sits inside a `#[cfg(test)]`
    /// item or a `#[test]` function.
    pub in_test: &'a [bool],
    pub allows: &'a AllowIndex,
    /// True when the `lossy-cast` rule applies to this file.
    pub hot_path: bool,
    /// Parsed AST of the file (possibly partial — see [`Ast::errors`]).
    pub ast: &'a Ast,
}

impl<'a> FileContext<'a> {
    /// Token is in code the invariants govern (not test-only)?
    pub fn governed(&self, i: usize) -> bool {
        !self.in_test.get(i).copied().unwrap_or(false)
    }
}

/// Compute the `#[cfg(test)]` / `#[test]` mask over the token stream.
///
/// Recognizes an attribute whose path is `cfg` and whose argument list
/// mentions the bare ident `test` (covers `cfg(test)`, `cfg(all(test, …))`),
/// or the bare `#[test]` attribute, then masks through the end of the item
/// it decorates: the matching close brace of the first top-level `{`, or a
/// terminating `;` for brace-less items.
pub fn test_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            if let Some(close) = matching(toks, i + 1, "[", "]") {
                if attr_is_test(&toks[i + 2..close]) {
                    let end = item_end(toks, close + 1).unwrap_or(toks.len() - 1);
                    for m in mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Does the attribute body (tokens strictly inside `#[` … `]`) gate on test?
fn attr_is_test(body: &[Token]) -> bool {
    match body.first() {
        Some(t) if t.is_ident("cfg") => body.iter().enumerate().any(|(j, t)| {
            t.is_ident("test")
                // `cfg(not(test))` gates *non*-test code.
                && !(j >= 2 && body[j - 1].is_punct("(") && body[j - 2].is_ident("not"))
        }),
        Some(t) if t.is_ident("test") && body.len() == 1 => true,
        _ => false,
    }
}

/// Find the end (inclusive) of the item starting at `start`: skips any
/// further attributes, then scans to the matching `}` of the first `{` at
/// delimiter depth zero, or to a `;` at depth zero.
fn item_end(toks: &[Token], start: usize) -> Option<usize> {
    let mut i = start;
    // Skip stacked attributes.
    while i < toks.len()
        && toks[i].is_punct("#")
        && toks.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        i = matching(toks, i + 1, "[", "]")? + 1;
    }
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => return matching(toks, i, "{", "}"),
            ";" if paren == 0 && bracket == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the delimiter matching `toks[open_at]`.
pub fn matching(toks: &[Token], open_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open_at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Scan backwards from `close_at` (a `)` token) to its opening `(`.
pub fn matching_back(toks: &[Token], close_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for i in (0..=close_at).rev() {
        let t = &toks[i];
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/imaging/src/ncc.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/runtime/src/context.rs"),
            FileClass::Library
        );
        assert_eq!(
            classify("crates/experiments/src/main.rs"),
            FileClass::Exempt
        );
        assert_eq!(classify("perfbench/src/bench.rs"), FileClass::Exempt);
        assert_eq!(classify("perfbench/tests/self_test.rs"), FileClass::Test);
        assert_eq!(classify("crates/check/src/lib.rs"), FileClass::Library);
        assert_eq!(classify("crates/nn/tests/props.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Exempt);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(classify("tests/integration.rs"), FileClass::Test);
        // Self-application: the linter is library code to itself.
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Library);
    }

    #[test]
    fn lock_scope_paths() {
        for path in [
            "crates/runtime/src/store.rs",
            "crates/runtime/src/disk.rs",
            "crates/imaging/src/prepared.rs",
            "crates/core/src/features.rs",
        ] {
            assert!(lock_scope(path), "{path}");
        }
        assert!(!lock_scope("crates/core/src/pipeline.rs"));
        assert!(!lock_scope("crates/faults/src/health.rs"));
    }

    #[test]
    fn runtime_is_a_library_crate() {
        // The stage-graph runtime (including its persistence modules)
        // must stay under full invariant coverage: D1 keeps wall clocks
        // and ambient entropy out of the durability protocol, P1 keeps
        // panics out of the artifact parser.
        assert!(LIBRARY_CRATES.contains(&"runtime"));
        assert_eq!(classify("crates/runtime/src/disk.rs"), FileClass::Library);
        assert_eq!(classify("crates/runtime/src/codec.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/runtime/tests/durability.rs"),
            FileClass::Test
        );
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let l = lex(src);
        let mask = test_mask(&l);
        let unwrap_pos = l.tokens.iter().position(|t| t.is_ident("unwrap"));
        assert!(mask[unwrap_pos.expect("unwrap token present")]);
        let live2 = l.tokens.iter().position(|t| t.is_ident("live2"));
        assert!(!mask[live2.expect("live2 present")]);
    }

    #[test]
    fn test_fn_attribute_is_masked() {
        let src = "#[test]\nfn check() { assert!(v[0] == 1.0); }\nfn live() {}\n";
        let l = lex(src);
        let mask = test_mask(&l);
        let assert_pos = l.tokens.iter().position(|t| t.is_ident("assert"));
        assert!(mask[assert_pos.expect("assert present")]);
        let live = l.tokens.iter().position(|t| t.is_ident("live"));
        assert!(!mask[live.expect("live present")]);
    }

    #[test]
    fn cfg_feature_is_not_masked() {
        let src = "#[cfg(feature = \"x\")]\nfn gated() {}\n";
        let l = lex(src);
        let mask = test_mask(&l);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn derive_attributes_do_not_confuse_masking() {
        let src =
            "#[derive(Debug, Clone)]\npub struct S { x: f32 }\n#[cfg(test)]\nmod t { fn f() {} }\n";
        let l = lex(src);
        let mask = test_mask(&l);
        let s = l.tokens.iter().position(|t| t.is_ident("S"));
        assert!(!mask[s.expect("S present")]);
        let f = l.tokens.iter().position(|t| t.is_ident("f"));
        assert!(mask[f.expect("f present")]);
    }
}
