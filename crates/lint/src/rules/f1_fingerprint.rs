//! F1: fingerprint completeness for `impl Stage` blocks.
//!
//! The memoization contract (DESIGN.md §"Stage contract") is that a
//! stage's cache key — `H(id, fingerprint, seed)` — covers every input
//! `run()` can observe. A field read by `run()` but absent from
//! `fingerprint()` means two differently-configured stages collide on one
//! cache slot and the second run is served the first run's artifact; the
//! inverse (hashed but never read) splits one logical artifact across
//! keys and silently re-runs work the cache should have absorbed.
//!
//! The check is interprocedural but name-based: the `run()` closure is
//! walked for `self.*` field reads and keyed `ctx` accessors (chased
//! through free-fn calls like `effective_threads(config, ctx)`), and the
//! hashed set is the identifier closure of `fingerprint()` plus, for each
//! directly-hashed field, its constructor derivation — the statements of
//! `new()` that feed the field's init expression, found by taint
//! back-propagation (so `fp: h.finish()` expands through every
//! `x.fingerprint_into(&mut h)` statement to the inputs `x`).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_block, walk_expr, walk_stmts, Expr, ExprKind, ImplDecl, Span, Stmt};
use crate::callgraph::CallGraph;
use crate::context::{FileClass, FileContext};
use crate::lexer::TokenKind;
use crate::report::Diagnostic;
use crate::symbols::{Resolution, Symbols};

/// `RunContext` accessors that key the cache only if the stage hashes
/// them. (`seed`/`rng` are folded into the key by the runtime itself;
/// `health`/`store` are observability sinks.)
const KEYED_CTX: &[&str] = &["threads", "plan"];

/// Field names that are observability sinks by convention: a health
/// report collects counters without influencing the artifact bytes.
const SINK_FIELDS: &[&str] = &["health"];

/// Call-chasing depth for the identifier closure and `ctx` threading.
const MAX_CHASE: usize = 3;

/// Taint fixpoint bound inside one constructor body.
const MAX_TAINT_ROUNDS: usize = 16;

pub fn check(ctxs: &[FileContext], sy: &Symbols, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    for (fi, ctx) in ctxs.iter().enumerate() {
        if ctx.class != FileClass::Library {
            continue;
        }
        for im in &ctx.ast.impls {
            let is_stage = im
                .trait_path
                .as_ref()
                .and_then(|t| t.last())
                .is_some_and(|s| s == "Stage");
            if is_stage {
                check_impl(ctxs, sy, graph, fi, im, out);
            }
        }
    }
}

fn check_impl(
    ctxs: &[FileContext],
    sy: &Symbols,
    graph: &CallGraph,
    fi: usize,
    im: &ImplDecl,
    out: &mut Vec<Diagnostic>,
) {
    let ctx = &ctxs[fi];
    let ast = ctx.ast;
    let find = |name: &str| {
        im.fn_ids
            .iter()
            .copied()
            .find(|&f| ast.fns.get(f).is_some_and(|d| d.name == name))
    };
    let (Some(run_idx), Some(fp_idx)) = (find("run"), find("fingerprint")) else {
        return;
    };
    // Test-only stages are never cached across processes.
    if ctx
        .in_test
        .get(ast.fns[run_idx].name_tok)
        .copied()
        .unwrap_or(false)
    {
        return;
    }
    let ty = im.self_path.last().cloned().unwrap_or_default();

    // The run closure: methods of this self type (trait and inherent impl
    // blocks alike) reachable from `run()`.
    let impl_syms: BTreeSet<usize> = ast
        .impls
        .iter()
        .filter(|other| other.self_path.last() == im.self_path.last())
        .flat_map(|other| other.fn_ids.iter())
        .filter_map(|f| sy.fn_of[fi].get(f))
        .copied()
        .collect();
    let Some(&run_sym) = sy.fn_of[fi].get(&run_idx) else {
        return;
    };
    let mut closure = vec![run_sym];
    let mut seen: BTreeSet<usize> = closure.iter().copied().collect();
    let mut qi = 0;
    while qi < closure.len() {
        let n = graph.node_of_sym[closure[qi]];
        qi += 1;
        for &m in &graph.adj[n] {
            if let Some(si) = graph.nodes[m].sym {
                if impl_syms.contains(&si) && seen.insert(si) {
                    closure.push(si);
                }
            }
        }
    }

    // Everything the closure observes: `self.X` reads and keyed `ctx`
    // accessors (including `ctx` threaded through free fns).
    let mut reads: BTreeMap<String, usize> = BTreeMap::new();
    let mut ctx_uses: BTreeMap<String, usize> = BTreeMap::new();
    for &si in &closure {
        let f = &ast.fns[sy.fns[si].fn_idx];
        let ctx_params: BTreeSet<&str> = f
            .params
            .iter()
            .map(String::as_str)
            .filter(|p| p.trim_start_matches('_') == "ctx")
            .collect();
        let module = sy.fn_module(fi, ast, sy.fns[si].fn_idx);
        walk_block(&f.body, &mut |e| match &e.kind {
            ExprKind::Field { base, name } if is_self(base) => {
                reads.entry(name.clone()).or_insert(e.span.lo);
            }
            ExprKind::MethodCall {
                recv,
                method,
                method_tok,
                ..
            } => {
                if let ExprKind::Path(p) = &recv.kind {
                    if matches!(p.as_slice(), [s] if ctx_params.contains(s.as_str()))
                        && KEYED_CTX.contains(&method.as_str())
                    {
                        ctx_uses.entry(method.clone()).or_insert(*method_tok);
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                let ExprKind::Path(segs) = &callee.kind else {
                    return;
                };
                for (pos, a) in args.iter().enumerate() {
                    let passes_ctx = matches!(&strip_refs(a).kind,
                        ExprKind::Path(p)
                            if matches!(p.as_slice(), [s] if ctx_params.contains(s.as_str())));
                    if !passes_ctx {
                        continue;
                    }
                    if let Resolution::Fns(ids) = sy.resolve_path(fi, &module, segs) {
                        for id in ids {
                            for acc in chase_ctx(ctxs, sy, id, pos, MAX_CHASE) {
                                ctx_uses.entry(acc).or_insert(callee.span.lo);
                            }
                        }
                    }
                }
            }
            _ => {}
        });
    }

    // The hashed set: identifier closure of `fingerprint()`.
    let hashed = ident_closure(ctxs, sy, graph, &[sy.fn_of[fi][&fp_idx]], MAX_CHASE);

    // Fields `fingerprint()` hashes directly, and their constructor
    // derivations (what each was computed from in `new()`).
    let mut direct: BTreeMap<String, usize> = BTreeMap::new();
    walk_block(&ast.fns[fp_idx].body, &mut |e| {
        if let ExprKind::Field { base, name } = &e.kind {
            if is_self(base) {
                direct.entry(name.clone()).or_insert(e.span.lo);
            }
        }
    });
    let expansions: BTreeMap<String, BTreeSet<String>> = direct
        .keys()
        .map(|g| (g.clone(), ctor_expansion(ctxs, sy, graph, fi, &ty, g)))
        .collect();
    let effectively_hashed =
        |name: &str| hashed.contains(name) || expansions.values().any(|e| e.contains(name));

    for (field, &tok) in &reads {
        if SINK_FIELDS.contains(&field.as_str()) || effectively_hashed(field) {
            continue;
        }
        out.push(diag(
            ctx,
            tok,
            format!(
                "`self.{field}` is read by `{ty}::run` but never folded into \
                 `fingerprint()` — two stages differing only in `{field}` share one \
                 cache key, so the second is served the first's artifact; hash it or \
                 derive a hashed field from it in the constructor"
            ),
        ));
    }
    for (acc, &tok) in &ctx_uses {
        if effectively_hashed(acc) {
            continue;
        }
        out.push(diag(
            ctx,
            tok,
            format!(
                "`ctx.{acc}()` influences `{ty}::run` but is not folded into \
                 `fingerprint()` — runs under different contexts would share one \
                 cache key; fold the accessor's value into the fingerprint"
            ),
        ));
    }
    for (g, &tok) in &direct {
        if reads.contains_key(g) {
            continue;
        }
        let e = &expansions[g];
        if reads.keys().any(|r| e.contains(r)) || ctx_uses.keys().any(|a| e.contains(a)) {
            continue;
        }
        out.push(diag(
            ctx,
            tok,
            format!(
                "`self.{g}` is hashed by `{ty}::fingerprint` but `run()` never reads \
                 it (directly or through a derived field) — it over-invalidates the \
                 cache, re-running work whose inputs did not change"
            ),
        ));
    }
}

/// Identifiers in the bodies of `starts` and every workspace fn they call,
/// to `depth` hops.
fn ident_closure(
    ctxs: &[FileContext],
    sy: &Symbols,
    graph: &CallGraph,
    starts: &[usize],
    depth: usize,
) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut frontier: Vec<usize> = starts.to_vec();
    for _ in 0..=depth {
        let mut next = Vec::new();
        for &si in &frontier {
            if !seen.insert(si) {
                continue;
            }
            let s = &sy.fns[si];
            let fctx = &ctxs[s.file];
            if let Some(f) = fctx.ast.fns.get(s.fn_idx) {
                span_idents(fctx, f.body.span, &mut set);
            }
            for &m in &graph.adj[graph.node_of_sym[si]] {
                if let Some(ns) = graph.nodes[m].sym {
                    next.push(ns);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    set
}

/// Keyed `ctx` accessors invoked on parameter `arg_pos` of `sym`, chased
/// through further calls to `depth`.
fn chase_ctx(
    ctxs: &[FileContext],
    sy: &Symbols,
    sym: usize,
    arg_pos: usize,
    depth: usize,
) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    if depth == 0 {
        return found;
    }
    let s = &sy.fns[sym];
    let fctx = &ctxs[s.file];
    let Some(f) = fctx.ast.fns.get(s.fn_idx) else {
        return found;
    };
    let Some(pname) = f.params.get(arg_pos).cloned() else {
        return found;
    };
    let module = sy.fn_module(s.file, fctx.ast, s.fn_idx);
    walk_block(&f.body, &mut |e| match &e.kind {
        ExprKind::MethodCall { recv, method, .. } => {
            if let ExprKind::Path(p) = &recv.kind {
                if matches!(p.as_slice(), [s] if *s == pname)
                    && KEYED_CTX.contains(&method.as_str())
                {
                    found.insert(method.clone());
                }
            }
        }
        ExprKind::Call { callee, args } => {
            let ExprKind::Path(segs) = &callee.kind else {
                return;
            };
            for (pos, a) in args.iter().enumerate() {
                let forwards = matches!(&strip_refs(a).kind,
                    ExprKind::Path(p) if matches!(p.as_slice(), [s] if *s == pname));
                if !forwards {
                    continue;
                }
                if let Resolution::Fns(ids) = sy.resolve_path(s.file, &module, segs) {
                    for id in ids {
                        found.extend(chase_ctx(ctxs, sy, id, pos, depth - 1));
                    }
                }
            }
        }
        _ => {}
    });
    found
}

/// What field `field` of a `ty` struct literal was computed from: the
/// identifiers of its init expression, widened by taint back-propagation
/// over the constructor's statements, plus the identifier closure of any
/// workspace fn those statements call.
fn ctor_expansion(
    ctxs: &[FileContext],
    sy: &Symbols,
    graph: &CallGraph,
    fi: usize,
    ty: &str,
    field: &str,
) -> BTreeSet<String> {
    let ctx = &ctxs[fi];
    let ast = ctx.ast;
    let mut expansion = BTreeSet::new();
    // Locate `Ty { .., field: init, .. }` (first occurrence wins).
    let mut found: Option<(usize, Span, &Expr)> = None;
    for (fni, f) in ast.fns.iter().enumerate() {
        if found.is_some() {
            break;
        }
        walk_block(&f.body, &mut |e| {
            if found.is_some() {
                return;
            }
            let ExprKind::StructLit {
                path,
                fields,
                names,
            } = &e.kind
            else {
                return;
            };
            if path.last().map(String::as_str) != Some(ty) {
                return;
            }
            for (i, fe) in fields.iter().enumerate() {
                let hit = match names.get(i) {
                    Some(Some(n)) => n == field,
                    _ => matches!(&fe.kind,
                        ExprKind::Path(p) if matches!(p.as_slice(), [s] if s == field)),
                };
                if hit {
                    found = Some((fni, e.span, fe));
                    return;
                }
            }
        });
    }
    let Some((ctor_idx, lit_span, init)) = found else {
        return expansion;
    };
    span_idents(ctx, init.span, &mut expansion);
    let module = sy.fn_module(fi, ast, ctor_idx);
    let self_type = sy.fn_of[fi]
        .get(&ctor_idx)
        .and_then(|&s| sy.fns[s].self_type.clone());
    let mut call_targets: Vec<usize> = Vec::new();
    calls_in(
        sy,
        fi,
        &module,
        self_type.as_deref(),
        init,
        &mut call_targets,
    );

    // Taint back-propagation: every constructor statement that mentions a
    // tainted name contributes its own identifiers (and its callees). The
    // struct-literal statement itself is excluded — it mentions every
    // field and would conflate their derivations.
    let mut stmts: Vec<&Stmt> = Vec::new();
    walk_stmts(&ast.fns[ctor_idx].body, &mut |s| stmts.push(s));
    for _ in 0..MAX_TAINT_ROUNDS {
        let mut changed = false;
        for s in &stmts {
            let (span, expr) = match s {
                Stmt::Let(l) => (l.span, l.init.as_ref()),
                Stmt::Expr(es) => (es.span, Some(&es.expr)),
                _ => continue,
            };
            if span.lo <= lit_span.lo && lit_span.lo < span.hi {
                continue;
            }
            let mut ids = BTreeSet::new();
            span_idents(ctx, span, &mut ids);
            if ids.iter().any(|i| expansion.contains(i)) && !ids.is_subset(&expansion) {
                expansion.extend(ids);
                changed = true;
                if let Some(e) = expr {
                    calls_in(sy, fi, &module, self_type.as_deref(), e, &mut call_targets);
                }
            }
        }
        if !changed {
            break;
        }
    }
    call_targets.sort_unstable();
    call_targets.dedup();
    expansion.extend(ident_closure(ctxs, sy, graph, &call_targets, 2));
    expansion
}

/// Workspace fns called anywhere inside `e`.
fn calls_in(
    sy: &Symbols,
    fi: usize,
    module: &[String],
    self_type: Option<&str>,
    e: &Expr,
    out: &mut Vec<usize>,
) {
    walk_expr(e, &mut |x| match &x.kind {
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if let Resolution::Fns(ids) = sy.resolve_path(fi, module, segs) {
                    out.extend(ids);
                }
            }
        }
        ExprKind::MethodCall { recv, method, .. } => {
            let st = if is_self(recv) { self_type } else { None };
            if let Resolution::Fns(ids) = sy.resolve_method(st, method) {
                out.extend(ids);
            }
        }
        _ => {}
    });
}

fn is_self(e: &Expr) -> bool {
    matches!(&e.kind, ExprKind::Path(p) if matches!(p.as_slice(), [s] if s == "self"))
}

/// Peel `&`/`*`/`-`/`!` prefixes off an expression.
fn strip_refs(e: &Expr) -> &Expr {
    let mut e = e;
    while let ExprKind::Unary(inner) = &e.kind {
        e = inner;
    }
    e
}

fn span_idents(ctx: &FileContext, span: Span, out: &mut BTreeSet<String>) {
    for t in span.tokens(ctx.tokens) {
        if t.kind == TokenKind::Ident {
            out.insert(t.text.clone());
        }
    }
}

fn diag(ctx: &FileContext, tok: usize, message: String) -> Diagnostic {
    let (line, col) = ctx.tokens.get(tok).map_or((0, 1), |t| (t.line, t.col));
    Diagnostic {
        rule: "fingerprint-completeness".to_string(),
        path: ctx.path.to_string(),
        line,
        col,
        message,
    }
}
