//! A1: atomic-ordering discipline — `Ordering::Relaxed` is for counters,
//! not coordination.
//!
//! `Relaxed` guarantees atomicity of the single access and nothing else:
//! no happens-before edge, no publication of the writes that preceded it.
//! That is exactly right for statistics counters (`hits.fetch_add(1, _)`
//! as a statement) and exactly wrong the moment the value *means*
//! something to another thread. Three shapes are flagged, over the thread
//! topology from [`crate::threads`]:
//!
//! 1. **Relaxed load gating control flow** — the loaded value feeds an
//!    `if`/`while`/`match` condition, directly or through one local
//!    binding. A gate wants `Acquire` (or the store side wants `Release`)
//!    or the branch can run against stale pre-publication state.
//! 2. **Relaxed store publishing across a spawn boundary** — the stored
//!    atomic's name is in some worker closure's escape set in the same
//!    file. Publication wants `Release`.
//! 3. **Relaxed read-modify-write whose result is consumed** — an RMW
//!    whose return value is bound or used is a handshake (ticket counter,
//!    id allocator), not a counter. Atomicity alone *can* be sufficient
//!    (unique-id allocation needs no ordering), so this one is commonly
//!    blessed — but the blessing must say why.
//!
//! Blessing is per-site (annotation on the firing line) or **per-field**:
//! an `ig-lint: allow(atomic-ordering) -- reason` on an atomic field's
//! declaration blesses every flagged access to `self.<field>` in that
//! file. Statement-level counter increments never fire at all.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{walk_block, walk_stmts, Expr, ExprKind, LetPat, Span, Stmt};
use crate::context::{FileClass, FileContext};
use crate::lexer::TokenKind;
use crate::report::Diagnostic;
use crate::symbols::Symbols;
use crate::threads::ThreadTopology;

/// Atomic read-modify-write method names.
const RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Does any argument name `Ordering::Relaxed` (however qualified)?
fn has_relaxed_arg(args: &[Expr]) -> bool {
    args.iter().any(
        |a| matches!(&a.kind, ExprKind::Path(segs) if segs.last().is_some_and(|s| s == "Relaxed")),
    )
}

/// The name a flagged access is keyed by: the final field name for
/// `self.hits.load(..)` / `inner.clock.store(..)`, the root identifier
/// for a plain local (`cursor.fetch_add(..)`).
fn recv_key(recv: &Expr) -> Option<(String, bool)> {
    match &recv.kind {
        ExprKind::Field { name, .. } => Some((name.clone(), true)),
        ExprKind::Path(segs) => match segs.as_slice() {
            [only] => Some((only.clone(), false)),
            _ => None,
        },
        ExprKind::Unary(inner) => recv_key(inner),
        _ => None,
    }
}

/// Lines of atomic field declarations, keyed by field name: an ident
/// followed by `:` with an `Atomic*` type within reach. Lexical on
/// purpose — struct items are opaque spans to the AST.
fn atomic_field_decl_lines(ctx: &FileContext) -> BTreeMap<String, u32> {
    let toks = ctx.tokens;
    let mut out = BTreeMap::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].kind != TokenKind::Ident || !toks[i + 1].is_punct(":") {
            continue;
        }
        let is_atomic_ty = toks[i + 2..toks.len().min(i + 8)].iter().any(|t| {
            t.kind == TokenKind::Ident && (t.text.starts_with("Atomic") || t.text == "AtomicCell")
        });
        if is_atomic_ty {
            out.entry(toks[i].text.clone()).or_insert(toks[i].line);
        }
    }
    out
}

/// Token ranges of `while` conditions in a fn span. The AST drops loop
/// conditions, so these are recovered lexically: from the `while` keyword
/// to its body's opening `{` at bracket depth zero.
fn while_cond_spans(ctx: &FileContext, fn_span: Span) -> Vec<Span> {
    let toks = ctx.tokens;
    let mut out = Vec::new();
    let hi = fn_span.hi.min(toks.len());
    for i in fn_span.lo..hi {
        if !toks[i].is_ident("while") {
            continue;
        }
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().take(hi).skip(i + 1) {
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                out.push(Span { lo: i + 1, hi: j });
                break;
            } else if t.is_punct(";") && depth == 0 {
                break;
            }
        }
    }
    out
}

/// Does any ident token equal to `name` fall inside one of the spans?
fn name_in_spans(ctx: &FileContext, spans: &[Span], name: &str) -> bool {
    spans.iter().any(|sp| {
        sp.tokens(ctx.tokens)
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == name)
    })
}

fn tok_in_spans(spans: &[Span], tok: usize) -> bool {
    spans.iter().any(|sp| (sp.lo..sp.hi).contains(&tok))
}

fn diag(ctx: &FileContext, tok: usize, message: String) -> Diagnostic {
    let (line, col) = ctx.tokens.get(tok).map_or((0, 1), |t| (t.line, t.col));
    Diagnostic {
        rule: "atomic-ordering".to_string(),
        path: ctx.path.to_string(),
        line,
        col,
        message,
    }
}

pub fn check(ctxs: &[FileContext], sy: &Symbols, topo: &ThreadTopology, out: &mut Vec<Diagnostic>) {
    // Escape sets per file: the union of non-test worker-closure captures.
    let mut escapes: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
    for site in &topo.sites {
        if !site.in_test {
            escapes
                .entry(site.file)
                .or_default()
                .extend(site.captures.iter().map(String::as_str));
        }
    }
    for (fi, ctx) in ctxs.iter().enumerate() {
        if ctx.class != FileClass::Library {
            continue;
        }
        let blessed_fields = atomic_field_decl_lines(ctx);
        let escape = escapes.get(&fi);
        for s in sy.fns.iter().filter(|s| s.file == fi && !s.in_test) {
            let f = &ctx.ast.fns[s.fn_idx];
            // Condition regions: `if`/`match`/`if let` come from the AST,
            // `while` conditions lexically (the parser drops them).
            let mut conds = while_cond_spans(ctx, f.span);
            walk_block(&f.body, &mut |e: &Expr| match &e.kind {
                ExprKind::If { cond, .. } => conds.push(cond.span),
                ExprKind::Match { scrutinee, .. } => conds.push(scrutinee.span),
                ExprKind::LetCond { expr, .. } => conds.push(expr.span),
                _ => {}
            });
            // Named let bindings (for the one-hop gate check) and
            // statement-level RMW discards (never flagged).
            let mut lets: Vec<(&str, Span)> = Vec::new();
            let mut discarded: BTreeSet<usize> = BTreeSet::new();
            walk_stmts(&f.body, &mut |st: &Stmt| match st {
                Stmt::Let(l) => {
                    if let (LetPat::Name { name, .. }, Some(init)) = (&l.pat, &l.init) {
                        lets.push((name, init.span));
                    }
                    if let (LetPat::Wild(_), Some(init)) = (&l.pat, &l.init) {
                        if let ExprKind::MethodCall { method_tok, .. } = &init.kind {
                            discarded.insert(*method_tok);
                        }
                    }
                }
                Stmt::Expr(es) if es.has_semi => {
                    if let ExprKind::MethodCall { method_tok, .. } = &es.expr.kind {
                        discarded.insert(*method_tok);
                    }
                }
                _ => {}
            });
            walk_block(&f.body, &mut |e: &Expr| {
                let ExprKind::MethodCall {
                    recv,
                    method,
                    method_tok,
                    args,
                } = &e.kind
                else {
                    return;
                };
                if !has_relaxed_arg(args) || !ctx.governed(*method_tok) {
                    return;
                }
                let Some((key, is_field)) = recv_key(recv) else {
                    return;
                };
                let fire = |out: &mut Vec<Diagnostic>, msg: String| {
                    // Per-field blessing: an allow on the atomic field's
                    // declaration covers every access to it in this file.
                    if is_field {
                        if let Some(&decl_line) = blessed_fields.get(&key) {
                            if ctx.allows.is_allowed("atomic-ordering", decl_line) {
                                return;
                            }
                        }
                    }
                    out.push(diag(ctx, *method_tok, msg));
                };
                match method.as_str() {
                    "load" => {
                        let direct = tok_in_spans(&conds, *method_tok);
                        let via_local = lets.iter().any(|(name, init)| {
                            (init.lo..init.hi).contains(method_tok)
                                && name_in_spans(ctx, &conds, name)
                        });
                        if direct || via_local {
                            fire(
                                out,
                                format!(
                                    "`Ordering::Relaxed` load of `{key}` gates control flow — a \
                                 Relaxed load carries no happens-before edge, so the branch can \
                                 observe stale pre-publication state; use `Acquire` here (and \
                                 `Release` on the store side), or bless the field declaration \
                                 with `ig-lint: allow(atomic-ordering) -- <why Relaxed is sound>`"
                                ),
                            );
                        }
                    }
                    "store" if escape.is_some_and(|caps| caps.contains(key.as_str())) => {
                        fire(
                            out,
                            format!(
                                "`Ordering::Relaxed` store to `{key}` publishes data across a \
                                 spawn boundary (`{key}` is in a worker closure's escape set) — \
                                 Relaxed does not publish prior writes; use `Release` (with \
                                 `Acquire` loads), or bless the field declaration with \
                                 `ig-lint: allow(atomic-ordering) -- <why Relaxed is sound>`"
                            ),
                        );
                    }
                    m if RMW_METHODS.contains(&m) && !discarded.contains(method_tok) => {
                        fire(
                            out,
                            format!(
                                "`Ordering::Relaxed` read-modify-write on `{key}` has its result \
                                 consumed — an RMW whose value is used is a synchronization \
                                 handshake, not a counter; if only uniqueness of the returned \
                                 value matters Relaxed is sound, but say so: bless the site or \
                                 the field declaration with `ig-lint: allow(atomic-ordering) -- \
                                 <reason>`"
                            ),
                        );
                    }
                    _ => {}
                }
            });
        }
    }
}
