//! Thread-topology analysis: every thread-creation site in the
//! workspace, with the closure-capture escape set of each.
//!
//! The stage runtime's reproducibility contract ("same seed, same
//! bytes") survives concurrency only where the shared state crossing a
//! spawn boundary is disciplined — scoped workers with order-independent
//! reductions, atomics whose orderings match their use. The first step
//! of checking any of that statically is knowing *where* threads are
//! born and *what* each worker closure can reach. This pass finds:
//!
//! - `std::thread::spawn(..)` — a detachable thread (the handle can be
//!   dropped, leaving the thread running past every join point);
//! - `thread::scope(..)` — a scope whose children are implicitly joined
//!   at scope exit;
//! - `<scope>.spawn(..)` — a scoped worker (receiver-blind, like the
//!   call graph's method resolution).
//!
//! For each site the **escape set** is the closure's free identifiers:
//! every name the worker body reads that is not bound inside the closure
//! (params, `let` patterns, `for` patterns, nested-closure params). The
//! set is a deliberate lexical over-approximation — method names, path
//! qualifiers, macros, and type/const names are excluded; anything left
//! is assumed captured. Rules built on it must treat membership as
//! suspicion, never proof: over-approximate the reads, under-approximate
//! the claims.
//!
//! Like the call graph, the topology is deterministic and total: files
//! arrive sorted, sites are emitted in (file path, token) order, malformed
//! input degrades to whatever the recovered AST holds, and the JSON dump
//! (`ig-lint threads`, committed at `results/threads.json`) is
//! byte-stable — CI regenerates it and fails on drift.

use std::collections::BTreeSet;

use crate::ast::{walk_block, walk_expr, Expr, ExprKind};
use crate::context::FileContext;
use crate::lexer::TokenKind;
use crate::symbols::Symbols;

/// What kind of thread-creation construct a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnKind {
    /// `std::thread::spawn(..)` — detachable; dropping the handle leaks
    /// a running thread past the function's lifetime.
    Thread,
    /// `thread::scope(..)` — children are joined when the scope closure
    /// returns.
    Scope,
    /// `<scope>.spawn(..)` — a worker inside a scope (receiver-blind).
    ScopedSpawn,
}

impl SpawnKind {
    /// Stable dump label.
    pub fn label(self) -> &'static str {
        match self {
            SpawnKind::Thread => "thread-spawn",
            SpawnKind::Scope => "scope",
            SpawnKind::ScopedSpawn => "scoped-spawn",
        }
    }
}

/// One thread-creation site.
#[derive(Debug)]
pub struct SpawnSite {
    /// Index into the workspace's `FileContext` slice.
    pub file: usize,
    /// Token index of the `spawn`/`scope` identifier (for line lookup).
    pub tok: usize,
    pub kind: SpawnKind,
    /// Symbol index of the enclosing fn.
    pub enclosing: usize,
    /// True when the site sits in `#[cfg(test)]` code.
    pub in_test: bool,
    /// Free identifiers of the worker closure — the escape set.
    pub captures: BTreeSet<String>,
}

/// The workspace thread topology: every spawn site, in deterministic
/// (file path, token) order.
#[derive(Debug, Default)]
pub struct ThreadTopology {
    pub sites: Vec<SpawnSite>,
}

/// Does a call path name a thread-creation entry point? Returns the
/// kind, or `None` for unrelated calls.
fn path_spawn_kind(segs: &[String]) -> Option<SpawnKind> {
    let last = segs.last()?;
    // `thread::spawn`, `std::thread::spawn`.
    if last == "spawn" && segs.len() >= 2 && segs[segs.len() - 2] == "thread" {
        return Some(SpawnKind::Thread);
    }
    // `thread::scope`, `std::thread::scope`.
    if last == "scope" && segs.len() >= 2 && segs[segs.len() - 2] == "thread" {
        return Some(SpawnKind::Scope);
    }
    None
}

impl ThreadTopology {
    /// Scan every fn body in symbol order (files are sorted, so this is
    /// deterministic) and collect the spawn sites.
    pub fn build(ctxs: &[FileContext], sy: &Symbols) -> ThreadTopology {
        let mut topo = ThreadTopology::default();
        for (si, s) in sy.fns.iter().enumerate() {
            let ctx = &ctxs[s.file];
            let body = &ctx.ast.fns[s.fn_idx].body;
            walk_block(body, &mut |e: &Expr| {
                let (kind, tok, closure) = match &e.kind {
                    ExprKind::Call { callee, args } => {
                        let ExprKind::Path(segs) = &callee.kind else {
                            return;
                        };
                        let Some(kind) = path_spawn_kind(segs) else {
                            return;
                        };
                        (kind, callee.span.hi.saturating_sub(1), first_closure(args))
                    }
                    ExprKind::MethodCall {
                        method,
                        method_tok,
                        args,
                        ..
                    } if method == "spawn" => {
                        (SpawnKind::ScopedSpawn, *method_tok, first_closure(args))
                    }
                    _ => return,
                };
                let captures = closure.map_or_else(BTreeSet::new, |c| free_idents(ctx, c));
                topo.sites.push(SpawnSite {
                    file: s.file,
                    tok,
                    kind,
                    enclosing: si,
                    in_test: !ctx.governed(tok),
                    captures,
                });
            });
        }
        // Canonical order is by file *path*, not context index, so the
        // dump is identical no matter how the units were fed in.
        topo.sites
            .sort_by(|a, b| (ctxs[a.file].path, a.tok).cmp(&(ctxs[b.file].path, b.tok)));
        topo
    }

    /// Byte-stable JSON dump mirroring [`crate::callgraph::CallGraph::to_json`]:
    /// sites in (file path, line, col) order with sorted capture lists.
    pub fn to_json(&self, ctxs: &[FileContext], sy: &Symbols) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.sites.len());
        for s in &self.sites {
            let ctx = &ctxs[s.file];
            let (line, col) = ctx.tokens.get(s.tok).map_or((0, 1), |t| (t.line, t.col));
            let caps = s
                .captures
                .iter()
                .map(|c| crate::report::json_str(c))
                .collect::<Vec<_>>()
                .join(", ");
            rows.push(format!(
                "    {{\"file\": {}, \"line\": {line}, \"col\": {col}, \"kind\": \"{}\", \
                 \"enclosing\": {}, \"in_test\": {}, \"captures\": [{caps}]}}",
                crate::report::json_str(ctx.path),
                s.kind.label(),
                crate::report::json_str(&sy.fns[s.enclosing].path),
                s.in_test,
            ));
        }
        let mut out = String::from("{\n  \"version\": 1,\n  \"sites\": [\n");
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// First closure among a call's arguments — the worker body.
fn first_closure(args: &[Expr]) -> Option<&Expr> {
    args.iter()
        .find(|a| matches!(a.kind, ExprKind::Closure { .. }))
}

/// Identifiers that read as syntax, not as captured values.
const NON_CAPTURE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "continue", "dyn", "else", "false", "fn", "for", "if", "impl",
    "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "static", "struct",
    "true", "unsafe", "use", "where", "while",
];

/// The free identifiers of a closure: every ident its span mentions,
/// minus names the closure binds and lexical noise (method names, path
/// segments, macro names, type/const-cased idents, keywords).
fn free_idents(ctx: &FileContext, closure: &Expr) -> BTreeSet<String> {
    let ExprKind::Closure { body } = &closure.kind else {
        return BTreeSet::new();
    };
    let mut bound = BTreeSet::new();
    // Params of this closure: the tokens between the closure's start and
    // its body (`move |a, (b, c)| ...` — every ident in that stretch).
    bind_span_idents(ctx, closure.span.lo, body.span.lo, &mut bound);
    collect_bound(ctx, body, &mut bound);

    let mut free = BTreeSet::new();
    let toks = ctx.tokens;
    let lo = body.span.lo;
    let hi = body.span.hi.min(toks.len());
    for i in lo..hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || t.text == "_" {
            continue;
        }
        // Method names and path tails (`x.load`, `Ordering::Relaxed`).
        if i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")) {
            continue;
        }
        // Path heads and macro names (`std::`, `panic!`).
        if toks
            .get(i + 1)
            .is_some_and(|n| n.is_punct("::") || n.is_punct("!"))
        {
            continue;
        }
        // Types, enum variants, and consts are not captures-by-value of
        // interest; the convention makes them cheap to exclude.
        if t.text.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        if NON_CAPTURE_KEYWORDS.contains(&t.text.as_str()) || bound.contains(&t.text) {
            continue;
        }
        free.insert(t.text.clone());
    }
    free
}

/// Record every ident in the half-open token range as a bound name.
fn bind_span_idents(ctx: &FileContext, lo: usize, hi: usize, out: &mut BTreeSet<String>) {
    for i in lo..hi.min(ctx.tokens.len()) {
        let t = &ctx.tokens[i];
        if t.kind == TokenKind::Ident && !NON_CAPTURE_KEYWORDS.contains(&t.text.as_str()) {
            out.insert(t.text.clone());
        }
    }
}

/// Names bound inside the closure body: `let` patterns, `for` patterns,
/// and nested-closure params. `let` and `for` patterns are read off the
/// token stream (the AST keeps only named/wild `let` patterns, and drops
/// `for` patterns entirely); nested closures come from the AST.
fn collect_bound(ctx: &FileContext, body: &Expr, out: &mut BTreeSet<String>) {
    let toks = ctx.tokens;
    let lo = body.span.lo;
    let hi = body.span.hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.is_ident("let") {
            // Every ident up to `=`, `;`, or a type annotation's end —
            // covers tuple and struct patterns.
            let mut j = i + 1;
            while j < hi && !toks[j].is_punct("=") && !toks[j].is_punct(";") {
                if toks[j].kind == TokenKind::Ident {
                    out.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < hi && !toks[j].is_ident("in") && !toks[j].is_punct("{") {
                if toks[j].kind == TokenKind::Ident {
                    out.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    // Nested closure params bind too.
    walk_nested_closures(body, &mut |c: &Expr| {
        if let ExprKind::Closure { body: inner } = &c.kind {
            bind_span_idents(ctx, c.span.lo, inner.span.lo, out);
        }
    });
}

/// Visit every closure expression strictly inside `e`.
fn walk_nested_closures(e: &Expr, f: &mut impl FnMut(&Expr)) {
    walk_expr(e, &mut |inner| {
        if !std::ptr::eq(inner, e) && matches!(inner.kind, ExprKind::Closure { .. }) {
            f(inner);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileClass;
    use crate::symbols::Symbols;
    use crate::SourceUnit;

    fn topo_for(src: &str) -> (Vec<String>, Vec<(String, Vec<String>)>) {
        let units = vec![SourceUnit {
            rel_path: "crates/core/src/worker.rs".to_string(),
            src: src.to_string(),
            class: FileClass::Library,
            hot_path: false,
        }];
        let parsed: Vec<_> = units.iter().map(crate::parse_unit).collect();
        let ctxs = crate::contexts(&units, &parsed);
        let sy = Symbols::build(&ctxs);
        let topo = ThreadTopology::build(&ctxs, &sy);
        let kinds = topo
            .sites
            .iter()
            .map(|s| s.kind.label().to_string())
            .collect();
        let caps = topo
            .sites
            .iter()
            .map(|s| {
                (
                    s.kind.label().to_string(),
                    s.captures.iter().cloned().collect::<Vec<_>>(),
                )
            })
            .collect();
        (kinds, caps)
    }

    #[test]
    fn detects_all_three_spawn_kinds() {
        let (kinds, _) = topo_for(
            "fn run() {\n\
               let h = std::thread::spawn(|| work());\n\
               std::thread::scope(|s| {\n\
                 s.spawn(|| work());\n\
               });\n\
               let _ = h.join();\n\
             }\nfn work() {}\n",
        );
        assert_eq!(kinds, vec!["thread-spawn", "scope", "scoped-spawn"]);
    }

    #[test]
    fn escape_set_is_free_idents_only() {
        let (_, caps) = topo_for(
            "fn run(total: usize, shared: &Data) {\n\
               let local_outside = 1;\n\
               std::thread::spawn(move || {\n\
                 let inside = 0;\n\
                 for item in shared.iter() {\n\
                   consume(item, inside, total, local_outside);\n\
                 }\n\
               });\n\
             }\nfn consume() {}\n",
        );
        let (_, captures) = &caps[0];
        assert!(captures.contains(&"shared".to_string()), "caps: {caps:?}");
        assert!(captures.contains(&"total".to_string()));
        assert!(captures.contains(&"local_outside".to_string()));
        // Bound inside the closure, a method name, or a fn call.
        assert!(!captures.contains(&"inside".to_string()));
        assert!(!captures.contains(&"item".to_string()));
        assert!(!captures.contains(&"iter".to_string()));
    }

    #[test]
    fn nested_closure_params_are_not_captures() {
        let (_, caps) = topo_for(
            "fn run(xs: Vec<u32>) {\n\
               std::thread::spawn(move || {\n\
                 xs.iter().map(|x| x + 1).sum::<u32>()\n\
               });\n\
             }\n",
        );
        let (_, captures) = &caps[0];
        assert!(captures.contains(&"xs".to_string()));
        assert!(!captures.contains(&"x".to_string()), "caps: {caps:?}");
    }
}
