//! C1: lock discipline in the runtime store/disk tier, the imaging
//! prepared-pattern cache and the feature engine's image slots.
//!
//! Two invariants, all over the workspace call graph:
//!
//! 1. **One partial order.** Acquiring lock B while holding lock A adds
//!    the edge A→B (including acquisitions inside callees, via per-fn
//!    transitive summaries); any cycle in that graph is a potential
//!    deadlock and is reported.
//! 2. **No `?` while two RAII guards are held.** A single guard across
//!    `?` is fine (drop unlocks it); two means the early exit's drop
//!    order is an implicit lock-order commitment no one reviewed.
//!
//! Acquisition is recognized structurally: `.lock()` method calls
//! (plus `.read()`/`.write()` on receivers that name a lock) and helper
//! methods whose own body acquires (`Store::lock`).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_expr, Block, Expr, ExprKind, LetPat, Span, Stmt};
use crate::callgraph::CallGraph;
use crate::context::{lock_scope, FileContext};
use crate::report::Diagnostic;
use crate::symbols::{Resolution, Symbols};

/// Depth bound for per-fn transitive acquire summaries.
const MAX_SUMMARY_DEPTH: usize = 4;

/// A lock-order edge with the site that first established it.
type Edges = BTreeMap<(String, String), (usize, usize)>; // -> (file, tok)

pub fn check(ctxs: &[FileContext], sy: &Symbols, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    // Pass 1: direct acquisitions of every fn in scope, then transitive
    // summaries over the call graph (restricted to in-scope files).
    let scoped: BTreeSet<usize> = sy
        .fns
        .iter()
        .enumerate()
        .filter(|(_, s)| lock_scope(ctxs[s.file].path))
        .map(|(i, _)| i)
        .collect();
    if scoped.is_empty() {
        return;
    }
    let mut direct: BTreeMap<usize, Vec<(String, usize)>> = BTreeMap::new();
    for &si in &scoped {
        direct.insert(si, direct_acquires(ctxs, sy, si));
    }
    let mut summary: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for &si in &scoped {
        let mut acc: BTreeSet<String> = BTreeSet::new();
        let mut frontier = vec![si];
        let mut seen = BTreeSet::new();
        for _ in 0..=MAX_SUMMARY_DEPTH {
            let mut next = Vec::new();
            for &f in &frontier {
                if !seen.insert(f) {
                    continue;
                }
                if let Some(ds) = direct.get(&f) {
                    acc.extend(ds.iter().map(|(id, _)| id.clone()));
                }
                for &m in &graph.adj[graph.node_of_sym[f]] {
                    if let Some(ns) = graph.nodes[m].sym {
                        if scoped.contains(&ns) {
                            next.push(ns);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        summary.insert(si, acc);
    }

    // Pass 2: walk each in-scope fn's statements in order, tracking the
    // held set, flagging `?` under locks and recording order edges.
    let mut edges: Edges = BTreeMap::new();
    for &si in &scoped {
        let s = &sy.fns[si];
        let ctx = &ctxs[s.file];
        if s.in_test || !ctx.governed(ctx.ast.fns[s.fn_idx].name_tok) {
            continue;
        }
        let sites: Vec<(usize, usize)> = graph
            .sites
            .iter()
            .filter(|site| graph.nodes[site.caller].sym == Some(si))
            .map(|site| (site.tok, site.callee))
            .collect();
        let mut pass = Pass {
            ctx,
            sy,
            graph,
            fi: s.file,
            self_type: s.self_type.clone().unwrap_or_default(),
            direct: &direct,
            summary: &summary,
            sites,
            edges: &mut edges,
            out,
        };
        let mut state = State::default();
        pass.block(&ctx.ast.fns[s.fn_idx].body, &mut state);
    }

    // Cycle detection over the order edges.
    report_cycles(ctxs, &edges, out);
}

#[derive(Debug, Default, Clone)]
struct State {
    /// Held RAII guards: (lock identity, binding name, acquire token).
    held: Vec<(String, String, usize)>,
}

struct Pass<'a, 'w> {
    ctx: &'a FileContext<'a>,
    sy: &'a Symbols,
    graph: &'a CallGraph,
    fi: usize,
    self_type: String,
    direct: &'w BTreeMap<usize, Vec<(String, usize)>>,
    summary: &'w BTreeMap<usize, BTreeSet<String>>,
    /// This fn's call sites: (token, callee node).
    sites: Vec<(usize, usize)>,
    edges: &'w mut Edges,
    out: &'w mut Vec<Diagnostic>,
}

impl Pass<'_, '_> {
    fn block(&mut self, b: &Block, state: &mut State) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let(l) => {
                    if let Some(init) = &l.init {
                        if self.structured(init, state) {
                            // Bindings of structured exprs are not guards.
                        } else {
                            self.leaf_effects(init, state);
                            if let Some((id, tok)) = self.acquire_in(init) {
                                self.order_edge(&id, tok, state);
                                if let LetPat::Name { name, .. } = &l.pat {
                                    state.held.push((id, name.clone(), tok));
                                }
                            }
                        }
                    }
                    if let Some(eb) = &l.else_block {
                        let mut branch = state.clone();
                        self.block(eb, &mut branch);
                    }
                    self.stmt_releases(l.span, state);
                }
                Stmt::Expr(es) => {
                    if !self.structured(&es.expr, state) {
                        self.leaf_effects(&es.expr, state);
                        if let Some((id, tok)) = self.acquire_in(&es.expr) {
                            // Temporary guard: orders, but is not held after.
                            self.order_edge(&id, tok, state);
                        }
                    }
                    self.stmt_releases(es.span, state);
                }
                Stmt::Item(_) | Stmt::Empty(_) => {}
            }
        }
    }

    /// Handle control-flow expressions by recursing into their blocks.
    /// Returns false for leaf expressions (handled by the caller).
    fn structured(&mut self, e: &Expr, state: &mut State) -> bool {
        match &e.kind {
            ExprKind::If { cond, then, els } => {
                self.leaf_effects(cond, state);
                let mut taken = state.clone();
                self.block(then, &mut taken);
                if let Some(els) = els {
                    let mut other = state.clone();
                    if !self.structured(els, &mut other) {
                        self.leaf_effects(els, &mut other);
                    }
                }
                true
            }
            ExprKind::Loop(body) => {
                self.block(body, state);
                true
            }
            ExprKind::BlockExpr(b) => {
                self.block(b, state);
                true
            }
            ExprKind::Match { scrutinee, arms } => {
                self.leaf_effects(scrutinee, state);
                for (_, arm) in arms {
                    let mut branch = state.clone();
                    if !self.structured(arm, &mut branch) {
                        self.leaf_effects(arm, &mut branch);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Leaf-statement effects: flag `?` under locks and record order
    /// edges for acquisitions inside callees (per-fn summaries).
    fn leaf_effects(&mut self, e: &Expr, state: &mut State) {
        let mut trys: Vec<usize> = Vec::new();
        scan_trys(e, &mut trys);
        for tok in trys {
            if state.held.len() >= 2 {
                let names: Vec<&str> = state.held.iter().map(|(id, _, _)| id.as_str()).collect();
                self.diag(
                    tok,
                    format!(
                        "`?` can exit while {} lock guards are held ({}) — the early \
                         exit's drop order is an unreviewed lock-order commitment; \
                         release one guard before the fallible call",
                        state.held.len(),
                        names.join(", ")
                    ),
                );
            }
        }
        // Acquisitions performed by callees, from the summaries.
        if state.held.is_empty() {
            return;
        }
        let callee_acquires: Vec<(usize, String)> = self
            .sites
            .iter()
            .filter(|(tok, _)| *tok >= e.span.lo && *tok < e.span.hi)
            .filter_map(|&(tok, callee)| {
                let cs = self.graph.nodes[callee].sym?;
                Some((tok, self.summary.get(&cs)?))
            })
            .flat_map(|(tok, acquired)| acquired.iter().map(move |b| (tok, b.clone())))
            .collect();
        for (tok, b) in callee_acquires {
            self.order_edge(&b, tok, state);
        }
    }

    /// Record A→`to` for every held lock A.
    fn order_edge(&mut self, to: &str, tok: usize, state: &State) {
        for (a, _, _) in &state.held {
            if a != to {
                self.edges
                    .entry((a.clone(), to.to_string()))
                    .or_insert((self.fi, tok));
            }
        }
    }

    /// First RAII acquisition inside `e`, as (identity, token).
    fn acquire_in(&self, e: &Expr) -> Option<(String, usize)> {
        let mut found: Option<(String, usize)> = None;
        walk_expr(e, &mut |x| {
            if found.is_some() {
                return;
            }
            let ExprKind::MethodCall {
                recv,
                method,
                method_tok,
                ..
            } = &x.kind
            else {
                return;
            };
            let is_lock = method == "lock"
                || ((method == "read" || method == "write")
                    && span_has(self.ctx, recv.span, &["lock", "rw"]));
            if !is_lock {
                return;
            }
            match &recv.kind {
                ExprKind::Field { base, name } if is_self(base) => {
                    found = Some((format!("{}.{}", self.self_type, name), *method_tok));
                }
                ExprKind::Path(p) if matches!(p.as_slice(), [s] if s == "self") => {
                    // `self.lock()` helper: its identity is whatever the
                    // helper's own body acquires.
                    if let Resolution::Fns(ids) =
                        self.sy.resolve_method(Some(&self.self_type), method)
                    {
                        for id in ids {
                            if let Some((first, _)) = self.direct.get(&id).and_then(|d| d.first()) {
                                found = Some((first.clone(), *method_tok));
                                break;
                            }
                        }
                    }
                }
                _ => {}
            }
        });
        found
    }

    /// End-of-statement releases: `drop(guard)`, recognized over the
    /// statement's tokens.
    fn stmt_releases(&mut self, span: Span, state: &mut State) {
        let toks = span.tokens(self.ctx.tokens);
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                if let Some(arg) = toks.get(i + 2) {
                    state.held.retain(|(_, var, _)| var != &arg.text);
                }
            }
        }
    }

    fn diag(&mut self, tok: usize, message: String) {
        let (line, col) = self.ctx.tokens.get(tok).map_or((0, 1), |t| (t.line, t.col));
        self.out.push(Diagnostic {
            rule: "lock-discipline".to_string(),
            path: self.ctx.path.to_string(),
            line,
            col,
            message,
        });
    }
}

/// Direct acquisitions in the body of `si`: RAII guards on `self` fields.
fn direct_acquires(ctxs: &[FileContext], sy: &Symbols, si: usize) -> Vec<(String, usize)> {
    let s = &sy.fns[si];
    let ctx = &ctxs[s.file];
    let ty = s.self_type.clone().unwrap_or_default();
    let mut acquires = Vec::new();
    walk_expr_in_body(ctx, s.fn_idx, &mut |x| {
        let ExprKind::MethodCall {
            recv,
            method,
            method_tok,
            ..
        } = &x.kind
        else {
            return;
        };
        let is_lock = method == "lock"
            || ((method == "read" || method == "write")
                && span_has(ctx, recv.span, &["lock", "rw"]));
        if !is_lock {
            return;
        }
        if let ExprKind::Field { base, name } = &recv.kind {
            if is_self(base) {
                acquires.push((format!("{ty}.{name}"), *method_tok));
            }
        }
    });
    acquires
}

fn walk_expr_in_body(ctx: &FileContext, fn_idx: usize, f: &mut impl FnMut(&Expr)) {
    if let Some(decl) = ctx.ast.fns.get(fn_idx) {
        crate::ast::walk_block(&decl.body, f);
    }
}

/// Collect the `?` tokens inside `e`, skipping closure bodies (their `?`
/// propagates within the closure, not the enclosing fn).
fn scan_trys(e: &Expr, out: &mut Vec<usize>) {
    match &e.kind {
        ExprKind::Try(inner) => {
            out.push(e.span.hi.saturating_sub(1));
            scan_trys(inner, out);
        }
        ExprKind::Closure { .. } => {}
        ExprKind::Call { callee, args } => {
            scan_trys(callee, out);
            for a in args {
                scan_trys(a, out);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            scan_trys(recv, out);
            for a in args {
                scan_trys(a, out);
            }
        }
        ExprKind::Unary(i) | ExprKind::Cast(i) => scan_trys(i, out),
        ExprKind::Field { base, .. } => scan_trys(base, out),
        ExprKind::Index { base, index } => {
            scan_trys(base, out);
            scan_trys(index, out);
        }
        ExprKind::Binary { children } => {
            for c in children {
                scan_trys(c, out);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for i in items {
                scan_trys(i, out);
            }
        }
        ExprKind::Macro { args, .. } => {
            for a in args {
                scan_trys(a, out);
            }
        }
        ExprKind::Jump(Some(i)) => scan_trys(i, out),
        ExprKind::LetCond { expr, .. } => scan_trys(expr, out),
        _ => {}
    }
}

fn is_self(e: &Expr) -> bool {
    matches!(&e.kind, ExprKind::Path(p) if matches!(p.as_slice(), [s] if s == "self"))
}

fn span_has(ctx: &FileContext, span: Span, names: &[&str]) -> bool {
    span.tokens(ctx.tokens)
        .iter()
        .any(|t| names.iter().any(|n| t.text.contains(n)))
}

/// Report one diagnostic per distinct cycle in the lock-order graph.
fn report_cycles(ctxs: &[FileContext], edges: &Edges, out: &mut Vec<Diagnostic>) {
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut reported: BTreeSet<Vec<&String>> = BTreeSet::new();
    for ((a, b), &(fi, tok)) in edges {
        // A cycle through this edge exists iff `a` is reachable from `b`.
        let mut seen = BTreeSet::new();
        let mut stack = vec![b];
        let mut cyclic = false;
        while let Some(n) = stack.pop() {
            if n == a {
                cyclic = true;
                break;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        if !cyclic {
            continue;
        }
        let mut key = vec![a, b];
        key.sort();
        if !reported.insert(key) {
            continue;
        }
        let ctx = &ctxs[fi];
        let (line, col) = ctx.tokens.get(tok).map_or((0, 1), |t| (t.line, t.col));
        out.push(Diagnostic {
            rule: "lock-discipline".to_string(),
            path: ctx.path.to_string(),
            line,
            col,
            message: format!(
                "lock-order cycle: `{a}` is acquired before `{b}` here, but another \
                 path acquires them in the opposite order — two threads taking the \
                 two paths deadlock; pick one order and hold to it everywhere"
            ),
        });
    }
}
