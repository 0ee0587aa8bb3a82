//! J1: join discipline — every spawned thread is joined on every path,
//! and the join's verdict is read.
//!
//! A dropped `JoinHandle` detaches the thread: it keeps running past the
//! end of the function, past the end of the run, holding whatever its
//! closure captured — the quiet way a "finished" pipeline still has a
//! worker mutating shared state. And a joined-but-discarded result
//! swallows the one signal a worker panic ever sends back. Four shapes:
//!
//! 1. `std::thread::spawn(..)` as a statement or `let _ =` — the handle
//!    is discarded at birth. Detaching is occasionally intended
//!    (fire-and-forget logging); it must be blessed with
//!    `ig-lint: allow(join-discipline) -- reason`.
//! 2. A named handle that is never used again — dropped at scope end,
//!    which is the same detach with extra steps. Per the E1 philosophy a
//!    use exonerates: a handle that is returned, stored, or pushed into
//!    a collection escapes to be joined elsewhere, and underscore-prefixed
//!    names are deliberate. Only a handle with *no* further use fires.
//! 3. `?` between the spawn and its `.join()` — the error path returns
//!    while the thread still runs (and the handle drops, detaching it).
//!    Early `return` between the two is flagged the same way.
//! 4. A discarded join result: `h.join();`, `let _ = h.join();`, or
//!    `h.join().ok();`. The `Err` carries the worker's panic payload;
//!    dropping it converts a worker crash into silence. This shape has a
//!    mechanical rewrite (`ig-lint fix`) to an `if let Err` log.
//!
//! Scoped spawns (`scope.spawn(..)`) are exempt from 1–3 — the scope
//! joins its children at exit by construction — but shape 4 still
//! applies if a scoped handle's join result is discarded.

use crate::ast::{walk_block, walk_stmts, Expr, ExprKind, LetPat, Stmt};
use crate::context::{FileClass, FileContext};
use crate::lexer::TokenKind;
use crate::report::Diagnostic;

/// Is this expression a `std::thread::spawn(..)` call? Returns the token
/// index of the `spawn` identifier.
fn std_spawn_tok(e: &Expr) -> Option<usize> {
    let ExprKind::Call { callee, .. } = &e.kind else {
        return None;
    };
    let ExprKind::Path(segs) = &callee.kind else {
        return None;
    };
    if segs.last().is_some_and(|s| s == "spawn")
        && segs.len() >= 2
        && segs[segs.len() - 2] == "thread"
    {
        Some(callee.span.hi.saturating_sub(1))
    } else {
        None
    }
}

/// The chain of method names from the innermost receiver outward, plus
/// the root receiver expression: `h.join().ok()` → (["join", "ok"], `h`).
fn chain(e: &Expr) -> (Vec<&str>, &Expr) {
    match &e.kind {
        ExprKind::MethodCall { recv, method, .. } => {
            let (mut methods, root) = chain(recv);
            methods.push(method);
            (methods, root)
        }
        _ => (Vec::new(), e),
    }
}

/// Token index of the `join` link in a method chain, if present.
fn join_tok(e: &Expr) -> Option<usize> {
    match &e.kind {
        ExprKind::MethodCall {
            recv,
            method,
            method_tok,
            ..
        } => {
            if method == "join" {
                Some(*method_tok)
            } else {
                join_tok(recv)
            }
        }
        _ => None,
    }
}

fn diag(ctx: &FileContext, tok: usize, message: String) -> Diagnostic {
    let (line, col) = ctx.tokens.get(tok).map_or((0, 1), |t| (t.line, t.col));
    Diagnostic {
        rule: "join-discipline".to_string(),
        path: ctx.path.to_string(),
        line,
        col,
        message,
    }
}

pub fn check(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.class != FileClass::Library {
        return;
    }
    for f in &ctx.ast.fns {
        // Named handles spawned in this fn: (name, binding tok, spawn tok).
        let mut handles: Vec<(&str, usize)> = Vec::new();
        walk_stmts(&f.body, &mut |st: &Stmt| match st {
            Stmt::Let(l) => {
                let Some(init) = &l.init else { return };
                let Some(spawn) = std_spawn_tok(init) else {
                    // `let _ = h.join();` — discarded join verdict.
                    if matches!(l.pat, LetPat::Wild(_)) {
                        if let Some(jt) = join_tok(init) {
                            if ctx.governed(jt) {
                                out.push(discarded_join(ctx, jt));
                            }
                        }
                    }
                    return;
                };
                if !ctx.governed(spawn) {
                    return;
                }
                match &l.pat {
                    LetPat::Wild(_) => out.push(detached(ctx, spawn, "`let _ =`")),
                    LetPat::Name { name, tok } if !name.starts_with('_') => {
                        handles.push((name, *tok));
                    }
                    _ => {}
                }
            }
            Stmt::Expr(es) if es.has_semi => {
                if let Some(spawn) = std_spawn_tok(&es.expr) {
                    if ctx.governed(spawn) {
                        out.push(detached(ctx, spawn, "a bare statement"));
                    }
                    return;
                }
                // `h.join();` / `h.join().ok();` — verdict discarded.
                let (methods, _) = chain(&es.expr);
                if let Some(last) = methods.last() {
                    if (*last == "join" || *last == "ok") && methods.contains(&"join") {
                        if let Some(jt) = join_tok(&es.expr) {
                            if ctx.governed(jt) {
                                out.push(discarded_join(ctx, jt));
                            }
                        }
                    }
                }
            }
            _ => {}
        });
        if handles.is_empty() {
            continue;
        }
        // Uses of each handle after its binding. A `.join()` on the
        // handle satisfies the discipline; any other use exonerates
        // (the handle escapes to be joined elsewhere); no use detaches.
        for (name, bind_tok) in handles {
            let toks = ctx.tokens;
            let hi = f.span.hi.min(toks.len());
            let mut join_at: Option<usize> = None;
            let mut other_use = false;
            for i in bind_tok + 1..hi {
                let t = &toks[i];
                if t.kind != TokenKind::Ident || t.text != name {
                    continue;
                }
                // Skip field names / method names (`x.h`), and shadowing
                // `let` rebinding ends the scan conservatively.
                if i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")) {
                    continue;
                }
                if toks.get(i + 1).is_some_and(|n| n.is_punct("."))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("join"))
                {
                    join_at = Some(i + 2);
                    break;
                }
                other_use = true;
            }
            match join_at {
                None if !other_use => out.push(diag(
                    ctx,
                    bind_tok,
                    format!(
                        "thread handle `{name}` is never joined — it drops at scope end, \
                         detaching the thread; join it on every path, or bless an intentional \
                         detach with `ig-lint: allow(join-discipline) -- <reason>`"
                    ),
                )),
                Some(jt) => {
                    // `?` or early `return` between spawn and join exits
                    // with the thread still running.
                    walk_block(&f.body, &mut |e: &Expr| {
                        let exit_tok = match &e.kind {
                            ExprKind::Try(_) => Some(e.span.hi.saturating_sub(1)),
                            ExprKind::Jump(_)
                                if ctx
                                    .tokens
                                    .get(e.span.lo)
                                    .is_some_and(|t| t.is_ident("return")) =>
                            {
                                Some(e.span.lo)
                            }
                            _ => None,
                        };
                        let Some(et) = exit_tok else { return };
                        if et > bind_tok && et < jt && ctx.governed(et) {
                            let what = if matches!(e.kind, ExprKind::Try(_)) {
                                "`?`"
                            } else {
                                "`return`"
                            };
                            out.push(diag(
                                ctx,
                                et,
                                format!(
                                    "{what} exits before `{name}.join()` — the error path \
                                     returns while the spawned thread still runs and the \
                                     dropped handle detaches it; join (or abort) the thread \
                                     before propagating the error"
                                ),
                            ));
                        }
                    });
                }
                None => {}
            }
        }
    }
}

fn detached(ctx: &FileContext, tok: usize, how: &str) -> Diagnostic {
    diag(
        ctx,
        tok,
        format!(
            "spawned thread is detached (handle discarded by {how}) — it outlives every join \
             point and keeps mutating its captures; bind and join the handle, or bless an \
             intentional detach with `ig-lint: allow(join-discipline) -- <reason>`"
        ),
    )
}

fn discarded_join(ctx: &FileContext, tok: usize) -> Diagnostic {
    diag(
        ctx,
        tok,
        "join result discarded — `join()` returns `Err` exactly when the worker panicked, \
         and dropping it converts the crash into silence; match on it \
         (`if let Err(e) = h.join()`) or run `ig-lint fix` for the mechanical rewrite"
            .to_string(),
    )
}
