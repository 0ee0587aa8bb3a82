//! `ig-lint` — workspace analyzer enforcing the determinism, panic-freedom,
//! and numeric-safety invariants the fault-injection subsystem's
//! bit-for-bit reproducibility contract rests on.
//!
//! Run as `cargo run -p ig-lint -- check`. See DESIGN.md §"Static
//! invariants" for the rule catalog and the allow-annotation convention.

pub mod annotations;
pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod threads;

use std::fs;
use std::path::{Path, PathBuf};

use annotations::AllowIndex;
use callgraph::CallGraph;
use context::{classify, test_mask, FileClass, FileContext, HOT_PATH_FILES};
use report::{Diagnostic, Report, ReportedAllow};
use symbols::Symbols;
use threads::ThreadTopology;

/// One source file queued for analysis, with class and hot-path pinned.
#[derive(Debug)]
pub struct SourceUnit {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    pub src: String,
    pub class: FileClass,
    pub hot_path: bool,
}

impl SourceUnit {
    /// Classify by path, as the workspace walk does.
    pub fn classified(rel_path: &str, src: String) -> SourceUnit {
        SourceUnit {
            rel_path: rel_path.to_string(),
            src,
            class: classify(rel_path),
            hot_path: HOT_PATH_FILES.contains(&rel_path),
        }
    }
}

/// Per-file analysis artifacts kept alive for the workspace pass.
struct ParsedUnit {
    lexed: lexer::Lexed,
    mask: Vec<bool>,
    allows: AllowIndex,
    ast: ast::Ast,
}

fn parse_unit(u: &SourceUnit) -> ParsedUnit {
    let lexed = lexer::lex(&u.src);
    let mask = test_mask(&lexed);
    let allows = AllowIndex::build(&lexed.comments, &lexed.tokens);
    // The AST may be partial on malformed input (ast.errors records where);
    // the token-level rules are unaffected either way.
    let ast = ast::parse(&lexed.tokens);
    ParsedUnit {
        lexed,
        mask,
        allows,
        ast,
    }
}

fn contexts<'a>(units: &'a [SourceUnit], parsed: &'a [ParsedUnit]) -> Vec<FileContext<'a>> {
    units
        .iter()
        .zip(parsed)
        .map(|(u, p)| FileContext {
            path: &u.rel_path,
            class: u.class,
            tokens: &p.lexed.tokens,
            in_test: &p.mask,
            allows: &p.allows,
            hot_path: u.hot_path,
            ast: &p.ast,
        })
        .collect()
}

/// Analyze a set of units as one workspace: the per-file rules on each
/// unit, then the symbol table + call graph + thread topology and the
/// workspace rule families (F1 fingerprint-completeness, P1
/// stage-purity, C1 lock-discipline, A1 atomic-ordering, D1
/// salt-determinism) across all of them.
pub fn check_units(units: &[SourceUnit]) -> Vec<Diagnostic> {
    let parsed: Vec<ParsedUnit> = units.iter().map(parse_unit).collect();
    let ctxs = contexts(units, &parsed);
    let mut diags = Vec::new();
    for ctx in &ctxs {
        diags.extend(rules::check_file(ctx));
    }
    let sy = Symbols::build(&ctxs);
    let graph = CallGraph::build(&ctxs, &sy);
    let topo = ThreadTopology::build(&ctxs, &sy);
    rules::check_workspace_rules(&ctxs, &sy, &graph, &topo, &mut diags);
    diags
}

/// Analyze one source string as if it lived at `rel_path` (workspace
/// relative, forward slashes). This is the unit-testable core; the binary
/// and the fixture tests both go through it. The file forms a one-file
/// workspace, so the workspace rule families run too.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    check_source_as(rel_path, src, classify(rel_path))
}

/// Like [`check_source`], but with the file class pinned by the caller —
/// fixture tests use this to exercise library-code rules on files that
/// live under `tests/fixtures/`.
pub fn check_source_as(rel_path: &str, src: &str, class: FileClass) -> Vec<Diagnostic> {
    check_source_with(rel_path, src, class, HOT_PATH_FILES.contains(&rel_path))
}

/// Fully-pinned variant: class and hot-path flag both chosen by the caller.
pub fn check_source_with(
    rel_path: &str,
    src: &str,
    class: FileClass,
    hot_path: bool,
) -> Vec<Diagnostic> {
    let units = [SourceUnit {
        rel_path: rel_path.to_string(),
        src: src.to_string(),
        class,
        hot_path,
    }];
    check_units(&units)
}

/// Build the workspace call graph for `root` and return its byte-stable
/// JSON dump (`ig-lint callgraph`, for local inspection).
pub fn callgraph_json(root: &Path) -> std::io::Result<String> {
    Ok(callgraph_json_for_units(&load_units(root)?))
}

/// In-memory variant of [`callgraph_json`]: build the graph over the
/// given units and dump it. Total on malformed input — unparseable files
/// contribute whatever their recovered partial ASTs hold, and unresolved
/// callees become `unknown` nodes rather than errors.
pub fn callgraph_json_for_units(units: &[SourceUnit]) -> String {
    let parsed: Vec<ParsedUnit> = units.iter().map(parse_unit).collect();
    let ctxs = contexts(units, &parsed);
    let sy = Symbols::build(&ctxs);
    let graph = CallGraph::build(&ctxs, &sy);
    graph.to_json()
}

/// Build the workspace thread topology for `root` and return its
/// byte-stable JSON dump (`ig-lint threads`; CI commits it to
/// `results/threads.json` and fails on drift).
pub fn threads_json(root: &Path) -> std::io::Result<String> {
    Ok(threads_json_for_units(&load_units(root)?))
}

/// In-memory variant of [`threads_json`]: every spawn site with its
/// escape set, in (file, line) order. Total on malformed input — sites
/// the recovered AST holds are classified, the rest simply absent.
pub fn threads_json_for_units(units: &[SourceUnit]) -> String {
    let parsed: Vec<ParsedUnit> = units.iter().map(parse_unit).collect();
    let ctxs = contexts(units, &parsed);
    let sy = Symbols::build(&ctxs);
    let topo = ThreadTopology::build(&ctxs, &sy);
    topo.to_json(&ctxs, &sy)
}

/// Directories never scanned: build output, VCS, vendored stubs (perfbench's
/// stand-ins for registry crates), run artifacts, sample data, and the
/// linter's own rule-violation fixtures.
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "stubs", "results", "samples", "fixtures", ".github", ".claude",
];

/// Recursively collect every `.rs` file under `root`, sorted for
/// deterministic reports.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir)?;
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Read every scanned `.rs` file under `root` into classified units.
fn load_units(root: &Path) -> std::io::Result<Vec<SourceUnit>> {
    let files = collect_rs_files(root)?;
    let mut units = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        units.push(SourceUnit::classified(&rel, fs::read_to_string(path)?));
    }
    Ok(units)
}

/// Analyze the whole workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let units = load_units(root)?;
    let mut report = Report {
        files_scanned: units.len(),
        ..Report::default()
    };
    report.violations = check_units(&units);
    // Re-lex to list surviving allow annotations for the audit trail.
    for u in &units {
        let lexed = lexer::lex(&u.src);
        let allows = AllowIndex::build(&lexed.comments, &lexed.tokens);
        for a in allows.allows {
            if let Some(reason) = a.reason {
                report.allows.push(ReportedAllow {
                    path: u.rel_path.clone(),
                    line: a.annotation_line,
                    content_hash: baseline::line_content_hash(&u.src, a.target_line),
                    rules: a.rules,
                    reason,
                });
            }
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}
