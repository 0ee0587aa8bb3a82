//! End-to-end rule tests over the fixture files: each rule fires at the
//! expected `(line)` positions, clean constructs stay silent, and allow
//! annotations (with reasons) suppress.

use ig_lint::context::FileClass;
use ig_lint::report::Diagnostic;
use ig_lint::{check_source_with, collect_rs_files};

/// Run the analyzer on a fixture as library code (hot-path on, so the
/// lossy-cast rule participates).
fn lint_fixture(src: &str) -> Vec<Diagnostic> {
    check_source_with("fixture.rs", src, FileClass::Library, true)
}

/// Lines (sorted, deduped) where `rule` fired.
fn lines_for(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    let mut lines: Vec<u32> = diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[test]
fn d1_nondeterminism_fires_at_expected_lines() {
    let diags = lint_fixture(include_str!("fixtures/d1_nondeterminism.rs"));
    assert_eq!(
        lines_for(&diags, "nondeterminism"),
        vec![7, 8, 13, 14, 18, 19],
        "diags: {diags:#?}"
    );
    // Seeded construction and the annotated SystemTime::now stay silent.
    assert!(!lines_for(&diags, "nondeterminism").contains(&23));
    assert!(!lines_for(&diags, "nondeterminism").contains(&28));
}

#[test]
fn d2_hash_iter_fires_at_expected_lines() {
    let diags = lint_fixture(include_str!("fixtures/d2_hash_iter.rs"));
    assert_eq!(
        lines_for(&diags, "hash-iter"),
        vec![7, 14],
        "diags: {diags:#?}"
    );
}

#[test]
fn p1_panic_fires_at_expected_lines() {
    let diags = lint_fixture(include_str!("fixtures/p1_panic.rs"));
    assert_eq!(
        lines_for(&diags, "panic"),
        vec![4, 5, 11, 12, 13, 19],
        "diags: {diags:#?}"
    );
}

#[test]
fn n1_float_eq_fires_at_expected_lines() {
    let diags = lint_fixture(include_str!("fixtures/n1_float_eq.rs"));
    assert_eq!(
        lines_for(&diags, "float-eq"),
        vec![5, 13, 17],
        "diags: {diags:#?}"
    );
}

#[test]
fn n2_lossy_cast_fires_at_expected_lines() {
    let diags = lint_fixture(include_str!("fixtures/n2_lossy_cast.rs"));
    assert_eq!(
        lines_for(&diags, "lossy-cast"),
        vec![5, 9, 13],
        "diags: {diags:#?}"
    );
}

#[test]
fn n2_is_scoped_to_hot_paths() {
    let src = include_str!("fixtures/n2_lossy_cast.rs");
    let diags = check_source_with("fixture.rs", src, FileClass::Library, false);
    assert!(lines_for(&diags, "lossy-cast").is_empty());
}

#[test]
fn bad_annotations_fail_and_do_not_suppress() {
    let diags = lint_fixture(include_str!("fixtures/bad_annotations.rs"));
    assert_eq!(
        lines_for(&diags, "panic"),
        vec![5, 9, 13, 17],
        "malformed allows must not suppress; diags: {diags:#?}"
    );
    assert_eq!(lines_for(&diags, "bad-annotation"), vec![5, 9, 13, 17]);
    // A retired rule's name is unknown: the stale allow is reported and
    // suppresses nothing.
    let stale = diags
        .iter()
        .find(|d| d.rule == "bad-annotation" && d.line == 17)
        .expect("stale allow reported");
    assert!(
        stale.message.contains("unknown rule `error-flow`"),
        "{}",
        stale.message
    );
}

#[test]
fn exempt_class_skips_library_rules() {
    let src = include_str!("fixtures/p1_panic.rs");
    let diags = check_source_with("fixture.rs", src, FileClass::Exempt, true);
    assert!(diags.is_empty(), "diags: {diags:#?}");
}

#[test]
fn test_class_keeps_determinism_rules_only() {
    let d1 = include_str!("fixtures/d1_nondeterminism.rs");
    let diags = check_source_with("fixture.rs", d1, FileClass::Test, true);
    assert!(!lines_for(&diags, "nondeterminism").is_empty());

    let p1 = include_str!("fixtures/p1_panic.rs");
    let diags = check_source_with("fixture.rs", p1, FileClass::Test, true);
    assert!(lines_for(&diags, "panic").is_empty());
}

#[test]
fn diagnostics_carry_column_and_render() {
    let diags = lint_fixture(include_str!("fixtures/p1_panic.rs"));
    let first = diags.iter().find(|d| d.rule == "panic").expect("fires");
    assert!(first.col > 1);
    let rendered = first.render();
    assert!(rendered.contains("error[panic]"));
    assert!(rendered.contains(&format!("fixture.rs:{}:{}", first.line, first.col)));
}

#[test]
fn malformed_source_degrades_to_token_rules() {
    // `fn broken(((( {` never parses; the token-level panic rule must still
    // fire on the well-formed function below it, and nothing may panic.
    let diags = lint_fixture(include_str!("fixtures/parse_recovery.rs"));
    assert_eq!(lines_for(&diags, "panic"), vec![7], "diags: {diags:#?}");
}

#[test]
fn f1_fingerprint_fires_at_expected_lines() {
    let diags = check_source_with(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/f1_stage.rs"),
        FileClass::Library,
        false,
    );
    // 35: `self.deep` read through the inherent `helper()` (interprocedural);
    // 43: `self.relic` hashed but never read; 47: `self.bins` read-unhashed;
    // 49: `ctx.threads()` influences run() but is not keyed; 85: nor is
    // `ctx.plan()` — the runtime keys on id, fingerprint and seed only.
    assert_eq!(
        lines_for(&diags, "fingerprint-completeness"),
        vec![35, 43, 47, 49, 85],
        "diags: {diags:#?}"
    );
    // The clean stage contributes nothing.
    assert!(diags
        .iter()
        .filter(|d| d.rule == "fingerprint-completeness")
        .all(|d| !d.message.contains("Clean")));
}

#[test]
fn p1_stage_purity_fires_at_expected_lines() {
    let diags = check_source_with(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/p1_stage.rs"),
        FileClass::Library,
        false,
    );
    // 12: `std::fs::read_to_string` reached through the free helper;
    // 26: `std::env::var` called directly in run(). `Pure` stays silent.
    assert_eq!(
        lines_for(&diags, "stage-purity"),
        vec![12, 26],
        "diags: {diags:#?}"
    );
    assert!(diags
        .iter()
        .filter(|d| d.rule == "stage-purity")
        .all(|d| d.message.contains("Impure::run")));
}

#[test]
fn c1_lock_discipline_fires_at_expected_lines() {
    let diags = check_source_with(
        "crates/runtime/src/store.rs",
        include_str!("fixtures/c1_locks.rs"),
        FileClass::Library,
        false,
    );
    // 14: Store.index→Store.journal ordering that `backward()` reverses
    // (cycle); 15: `?` with both guards held. `disciplined()` (read before
    // lock, drop before return) is silent.
    assert_eq!(
        lines_for(&diags, "lock-discipline"),
        vec![14, 15],
        "diags: {diags:#?}"
    );
}

#[test]
fn a1_atomic_ordering_fires_at_expected_lines() {
    let diags = check_source_with(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/a1_atomic.rs"),
        FileClass::Library,
        false,
    );
    // 15: Relaxed load gating an `if` directly; 21: gate through one
    // local binding; 30: consumed RMW; 42: Relaxed store whose target is
    // in the worker closure's escape set. The statement-level counter
    // (16), the blessed `clock` field (34), and the Acquire/Release
    // pairs (46-48) stay silent.
    assert_eq!(
        lines_for(&diags, "atomic-ordering"),
        vec![15, 21, 30, 42],
        "diags: {diags:#?}"
    );
}

#[test]
fn d1_salt_determinism_fires_at_expected_lines() {
    let diags = check_source_with(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d1_salt.rs"),
        FileClass::Library,
        false,
    );
    // 19 + 26: Splitter and Augmenter share salt 0x51; 35: salt is not a
    // compile-time constant; 36: the run seed fed to `seed_from_u64`
    // directly. The unique salt (33) and the helper shared by several
    // stages (42) stay silent.
    assert_eq!(
        lines_for(&diags, "salt-determinism"),
        vec![19, 26, 35, 36],
        "diags: {diags:#?}"
    );
    let collision = diags
        .iter()
        .find(|d| d.rule == "salt-determinism" && d.line == 19)
        .expect("collision diag");
    assert!(
        collision.message.contains("Splitter") && collision.message.contains("Augmenter"),
        "collision must name both stages: {}",
        collision.message
    );
}

#[test]
fn workspace_walk_skips_fixtures_and_target() {
    // Walk this crate's own directory: the fixtures directory (full of
    // deliberate violations) must not be collected.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = collect_rs_files(root).expect("walk");
    assert!(files
        .iter()
        .all(|p| !p.to_string_lossy().contains("fixtures")));
    assert!(files
        .iter()
        .any(|p| p.to_string_lossy().ends_with("src/lib.rs")));
}
