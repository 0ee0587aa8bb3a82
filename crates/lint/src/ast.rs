//! A tolerant recursive-descent parser over the lexer's token stream.
//!
//! The token-level rules cannot see *structure*: which fields a stage's
//! `run()` reads, which locks a statement holds, or which closure a thread
//! spawn captures. This parser recovers the structure the workspace rules
//! and the call-graph and thread dumps need — items, `use` trees, `impl`
//! headers, blocks, and `let`/`match`/call/method-chain expressions — from
//! the same zero-dependency token stream.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic.** All indexing is checked; a fuel counter bounds the
//!    total work so even adversarial input terminates.
//! 2. **Degrade, don't fail.** Unparseable fragments become [`ExprKind::Opaque`]
//!    spans and a [`ParseError`] is recorded; every other function in the
//!    file still gets a full AST, and the token-level rules are unaffected.
//! 3. **No type system.** The grammar is simplified (operator precedence is
//!    flattened, patterns are spans) because the rules only consume names,
//!    shapes, and nesting — not semantics.

use crate::lexer::{Token, TokenKind};

/// Half-open range of token indices, `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub lo: usize,
    pub hi: usize,
}

impl Span {
    /// Borrow the tokens this span covers (empty on out-of-range).
    pub fn tokens<'t>(&self, toks: &'t [Token]) -> &'t [Token] {
        toks.get(self.lo..self.hi.min(toks.len())).unwrap_or(&[])
    }
}

/// One parsed `fn` item (free function, method, or nested fn).
#[derive(Debug)]
pub struct FnDecl {
    pub name: String,
    /// Token index of the name identifier.
    pub name_tok: usize,
    pub body: Block,
    /// Span from the `fn` keyword through the body's closing brace.
    pub span: Span,
    /// Parameter names in declaration order (`self` included when present;
    /// pattern parameters the parser cannot name are omitted).
    pub params: Vec<String>,
    /// Inline-`mod` path from the file root to this fn (empty at top level).
    pub module: Vec<String>,
}

/// One flattened leaf of a `use` tree: `use a::b::{c, d as e};` yields two
/// decls. Globs record a trailing `*` segment with alias `*`.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Full path segments as written (`crate`/`self`/`super` preserved).
    pub path: Vec<String>,
    /// Name the import binds locally: the alias after `as`, else the last
    /// real segment (`use a::b::{self}` binds `b`).
    pub alias: String,
    /// Inline-`mod` path of the module the `use` sits in.
    pub module: Vec<String>,
}

/// One `impl` block header plus the fns declared inside it.
#[derive(Debug)]
pub struct ImplDecl {
    /// `impl Trait for Type` trait path; `None` for inherent impls.
    pub trait_path: Option<Vec<String>>,
    /// Path of the implementing type, generics stripped (`Type`, `a::Type`).
    pub self_path: Vec<String>,
    /// Indices into [`Ast::fns`] of fns declared in this block (including
    /// fns nested inside method bodies — an over-approximation callers
    /// filter by name when it matters).
    pub fn_ids: Vec<usize>,
}

/// A `{ ... }` block.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    Let(LetStmt),
    Expr(ExprStmt),
    /// A nested item (its fns are also collected into [`Ast::fns`]).
    Item(Span),
    /// A stray `;`.
    Empty(usize),
}

/// The pattern of a `let` binding, simplified.
#[derive(Debug)]
pub enum LetPat {
    /// `let _ = ...` — token index of the `_`.
    Wild(usize),
    /// `let name = ...` / `let mut name = ...`.
    Name { name: String, tok: usize },
    /// Tuple, struct, or enum patterns; the rules treat these as opaque.
    Other(Span),
}

/// `let PAT (: TYPE)? (= EXPR)? (else BLOCK)? ;`
#[derive(Debug)]
pub struct LetStmt {
    pub pat: LetPat,
    pub init: Option<Expr>,
    pub else_block: Option<Block>,
    pub span: Span,
}

/// An expression statement, with or without a trailing `;`.
#[derive(Debug)]
pub struct ExprStmt {
    pub expr: Expr,
    pub has_semi: bool,
    pub span: Span,
}

/// An expression node.
#[derive(Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression shapes the rules consume. Anything else is flattened into
/// `Binary`/`Opaque` with children preserved for recursive walks.
#[derive(Debug)]
pub enum ExprKind {
    /// `a::b::c` — segments without turbofish args.
    Path(Vec<String>),
    /// Literal token (int, float, string, char).
    Lit { kind: TokenKind, tok: usize },
    /// `callee(args)`.
    Call { callee: Box<Expr>, args: Vec<Expr> },
    /// `recv.method(args)`.
    MethodCall {
        recv: Box<Expr>,
        method: String,
        method_tok: usize,
        args: Vec<Expr>,
    },
    /// `name!(args)` / `name![args]` / `name!{args}`; `vec![elem; len]`
    /// holds `[elem, len]`.
    Macro {
        name: String,
        name_tok: usize,
        args: Vec<Expr>,
    },
    /// `expr?`.
    Try(Box<Expr>),
    /// `expr.field` / `expr.0` / `expr.await`.
    Field { base: Box<Expr>, name: String },
    /// `base[index]`.
    Index { base: Box<Expr>, index: Box<Expr> },
    /// Prefix `& * - !` applied to an expression.
    Unary(Box<Expr>),
    /// Flattened operator sequence `a + b * c` (precedence is irrelevant to
    /// the rules; children are in source order).
    Binary { children: Vec<Expr> },
    /// `expr as Type`.
    Cast(Box<Expr>),
    /// `(a, b)` / `(a)`.
    Tuple(Vec<Expr>),
    /// `[a, b, c]`; `[elem; len]` holds `[elem, len]`.
    Array(Vec<Expr>),
    /// `Path { field: expr, .. }`.
    StructLit {
        path: Vec<String>,
        fields: Vec<Expr>,
        /// Field name for each entry of `fields`, in the same order.
        /// `None` for shorthand init (the value expr *is* the name) and
        /// for entries the parser could not attribute.
        names: Vec<Option<String>>,
    },
    /// `if cond { .. } else ..` (`cond` covers `if let` via `Binary`).
    If {
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    /// `match scrutinee { pat => expr, .. }`; patterns stay as spans.
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<(Span, Expr)>,
    },
    /// `for`/`while`/`loop` with its body.
    Loop(Block),
    /// `{ ... }` in expression position.
    BlockExpr(Block),
    /// `|args| body` / `move |args| body`.
    Closure { body: Box<Expr> },
    /// `let PAT = expr` inside an `if`/`while` condition.
    LetCond { pat: Span, expr: Box<Expr> },
    /// `return (expr)?` / `break (expr)?` / `continue`.
    Jump(Option<Box<Expr>>),
    /// Tokens the parser could not structure; span preserved for recovery.
    Opaque,
}

/// A recoverable parse failure.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: u32,
    pub msg: String,
}

/// Parser output: every `fn` in the file plus any recoverable errors.
#[derive(Debug, Default)]
pub struct Ast {
    pub fns: Vec<FnDecl>,
    /// Flattened `use` declarations, in source order.
    pub uses: Vec<UseDecl>,
    /// `impl` blocks, in source order.
    pub impls: Vec<ImplDecl>,
    pub errors: Vec<ParseError>,
}

/// Item-introducing keywords the item scanner understands.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "type",
    "use",
    "const",
    "static",
    "trait",
    "impl",
    "mod",
    "extern",
    "macro_rules",
    "macro",
];

/// Binary / assignment operators (the parser flattens precedence).
const BINOPS: &[&str] = &[
    "+", "-", "*", "/", "%", "==", "!=", "<", ">", "<=", ">=", "&&", "||", "&", "|", "^", "<<",
    ">>", "..", "..=", "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Parse one file's token stream.
pub fn parse(toks: &[Token]) -> Ast {
    let mut p = Parser {
        toks,
        pos: 0,
        nest: 0,
        no_struct: 0,
        mods: Vec::new(),
        fuel: toks.len().saturating_mul(16).saturating_add(1024),
        ast: Ast::default(),
    };
    p.items_until(None);
    p.ast
}

/// Maximum parser recursion depth; beyond this, nested constructs are
/// consumed flat as [`ExprKind::Opaque`] (degrade, don't blow the stack).
const MAX_NEST: u32 = 128;

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
    /// Current parser recursion depth.
    nest: u32,
    /// Nonzero while parsing a condition/scrutinee, where `Path {` is a
    /// block, not a struct literal.
    no_struct: u32,
    /// Inline-`mod` path from the file root to the current item position.
    mods: Vec<String>,
    fuel: usize,
    ast: Ast,
}

impl<'t> Parser<'t> {
    // ---- token plumbing -------------------------------------------------

    fn peek(&self) -> Option<&'t Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'t Token> {
        self.toks.get(self.pos + off)
    }

    fn bump(&mut self) -> Option<&'t Token> {
        let t = self.toks.get(self.pos)?;
        self.pos += 1;
        self.fuel = self.fuel.saturating_sub(1);
        Some(t)
    }

    fn out_of_fuel(&mut self) -> bool {
        if self.fuel == 0 {
            if self
                .ast
                .errors
                .last()
                .is_none_or(|e| e.msg != "parser fuel exhausted")
            {
                self.error("parser fuel exhausted");
            }
            self.pos = self.toks.len();
            true
        } else {
            false
        }
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(s))
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&mut self, msg: &str) {
        let line = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line);
        if self.ast.errors.len() < 64 {
            self.ast.errors.push(ParseError {
                line,
                msg: msg.to_string(),
            });
        }
    }

    fn mk(&self, kind: ExprKind, lo: usize) -> Expr {
        Expr {
            kind,
            span: Span { lo, hi: self.pos },
        }
    }

    /// Skip a balanced `( )` / `[ ]` / `{ }` group starting at the current
    /// open delimiter. Progress is guaranteed. Returns false when the close
    /// was never found (EOF) — callers that can recover should rewind.
    fn skip_group(&mut self, open: &str, close: &str) -> bool {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return false;
            }
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                self.bump();
                if depth == 0 {
                    return true;
                }
                continue;
            }
            self.bump();
        }
        false
    }

    /// Skip generic params `<...>`, tolerating `>>`/`<<` shift tokens.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "(" => {
                    self.skip_group("(", ")");
                    continue;
                }
                "[" => {
                    self.skip_group("[", "]");
                    continue;
                }
                ";" | "{" | "}" => return, // never part of generics at depth we care about
                _ => {}
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Skip type tokens (after `:` in a let, after `as`, in a return type),
    /// stopping at any of `stop` at bracket depth 0.
    fn skip_type(&mut self, stop: &[&str]) {
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            let s = t.text.as_str();
            if angle <= 0 && paren == 0 && bracket == 0 && stop.contains(&s) {
                return;
            }
            match s {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "->" => {}
                "(" => paren += 1,
                ")" => {
                    if paren == 0 {
                        return;
                    }
                    paren -= 1;
                }
                "[" => bracket += 1,
                "]" => {
                    if bracket == 0 {
                        return;
                    }
                    bracket -= 1;
                }
                "{" | "}" | ";" => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip `#[...]` / `#![...]` attributes.
    fn skip_attrs(&mut self) {
        while self.at_punct("#") {
            if self.out_of_fuel() {
                return;
            }
            self.bump();
            self.eat_punct("!");
            if self.at_punct("[") {
                self.skip_group("[", "]");
            }
        }
    }

    // ---- items ----------------------------------------------------------

    /// Parse items until EOF (`close == None`) or a closing `}`.
    fn items_until(&mut self, close: Option<&str>) {
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            if let Some(c) = close {
                if t.is_punct(c) {
                    return;
                }
            }
            self.item();
        }
    }

    fn item(&mut self) {
        self.skip_attrs();
        // Qualifiers before the item keyword.
        loop {
            if self.at_ident("pub") {
                self.bump();
                if self.at_punct("(") {
                    self.skip_group("(", ")"); // pub(crate), pub(in ...)
                }
            } else if self.at_ident("unsafe")
                || self.at_ident("async")
                || self.at_ident("default")
                || self.at_ident("const") && self.peek_at(1).is_some_and(|t| t.is_ident("fn"))
            {
                self.bump();
            } else {
                break;
            }
        }
        let Some(t) = self.peek() else { return };
        match t.text.as_str() {
            "fn" => self.fn_item(),
            "impl" => self.impl_item(),
            "mod" => self.mod_item(),
            "use" => self.use_item(),
            "trait" => {
                self.bump();
                // Scan to the body brace (or `;` for an alias bound).
                let mut found_body = false;
                while let Some(t) = self.peek() {
                    if self.out_of_fuel() {
                        return;
                    }
                    match t.text.as_str() {
                        "{" => {
                            found_body = true;
                            break;
                        }
                        ";" => {
                            self.bump();
                            break;
                        }
                        "<" => {
                            self.skip_angles();
                            continue;
                        }
                        "(" => {
                            self.skip_group("(", ")");
                            continue;
                        }
                        "[" => {
                            self.skip_group("[", "]");
                            continue;
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
                if found_body {
                    self.bump(); // `{`
                    self.items_until(Some("}"));
                    self.eat_punct("}");
                }
            }
            kw if ITEM_KEYWORDS.contains(&kw) => {
                // struct/enum/use/const/static/type/extern/macro…: skip to
                // `;` or the matching close of the first body brace.
                self.bump();
                let mut paren = 0i32;
                let mut bracket = 0i32;
                while let Some(t) = self.peek() {
                    if self.out_of_fuel() {
                        return;
                    }
                    match t.text.as_str() {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "<" => {
                            self.skip_angles();
                            continue;
                        }
                        ";" if paren == 0 && bracket == 0 => {
                            self.bump();
                            return;
                        }
                        "{" if paren == 0 && bracket == 0 => {
                            self.skip_group("{", "}");
                            // `struct S { .. }` ends here; tuple structs
                            // continue to `;`, handled by the next loop turn
                            // only if a `;` immediately follows.
                            self.eat_punct(";");
                            return;
                        }
                        _ => {}
                    }
                    self.bump();
                }
            }
            _ => {
                // Unknown token at item position: record once and advance.
                self.error(&format!("unexpected token `{}` at item position", t.text));
                self.bump();
            }
        }
    }

    fn fn_item(&mut self) {
        let lo = self.pos;
        self.bump(); // `fn`
        let (name, name_tok) = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let out = (t.text.clone(), self.pos);
                self.bump();
                out
            }
            _ => {
                self.error("expected fn name");
                (String::new(), lo)
            }
        };
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.at_punct("(") {
            let params_at = self.pos;
            if !self.skip_group("(", ")") {
                // Unclosed parameter list would swallow the rest of the
                // file; step back inside it and let recovery continue.
                self.pos = params_at + 1;
                self.error("unclosed fn parameter list");
            } else {
                params = param_names(&self.toks[params_at + 1..self.pos.saturating_sub(1)]);
            }
        }
        if self.at_punct("->") {
            self.bump();
            self.skip_type(&["where"]);
        }
        if self.at_ident("where") {
            self.bump();
            self.skip_type(&[]);
        }
        if self.at_punct(";") {
            // Trait method declaration — no body, nothing for the rules.
            self.bump();
            return;
        }
        if !self.at_punct("{") {
            self.error("expected fn body");
            return;
        }
        let body = self.block();
        self.ast.fns.push(FnDecl {
            name,
            name_tok,
            body,
            span: Span { lo, hi: self.pos },
            params,
            module: self.mods.clone(),
        });
    }

    /// Parse the type path after `impl` (or after `for`): ident segments
    /// joined by `::`, generics and leading `&`/`dyn`/`mut` stripped.
    fn type_path(&mut self) -> Vec<String> {
        while self.at_punct("&")
            || self.at_punct("&&")
            || self.at_ident("mut")
            || self.at_ident("dyn")
        {
            self.bump();
        }
        let mut segs = Vec::new();
        loop {
            if self.out_of_fuel() {
                break;
            }
            match self.peek() {
                Some(t)
                    if t.kind == TokenKind::Ident && !t.is_ident("for") && !t.is_ident("where") =>
                {
                    segs.push(t.text.clone());
                    self.bump();
                }
                _ => break,
            }
            if self.at_punct("<") {
                self.skip_angles();
            }
            if self.at_punct("::") {
                self.bump();
                continue;
            }
            break;
        }
        segs
    }

    /// `impl (<..>)? TraitPath (for TypePath)? (where ..)? { items }` —
    /// records the header and the index range of fns parsed in the body.
    fn impl_item(&mut self) {
        self.bump(); // `impl`
        if self.at_punct("<") {
            self.skip_angles();
        }
        self.eat_punct("!"); // negative impls
        let first = self.type_path();
        let (trait_path, self_path) = if self.eat_ident("for") {
            (Some(first), self.type_path())
        } else {
            (None, first)
        };
        // `where` clause / anything else before the body.
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            match t.text.as_str() {
                "{" => break,
                ";" => {
                    self.bump();
                    return;
                }
                "<" => self.skip_angles(),
                "(" => {
                    self.skip_group("(", ")");
                }
                "[" => {
                    self.skip_group("[", "]");
                }
                _ => {
                    self.bump();
                }
            }
        }
        if !self.eat_punct("{") {
            return;
        }
        let fns_lo = self.ast.fns.len();
        self.items_until(Some("}"));
        self.eat_punct("}");
        self.ast.impls.push(ImplDecl {
            trait_path,
            self_path,
            fn_ids: (fns_lo..self.ast.fns.len()).collect(),
        });
    }

    /// `mod name;` or `mod name { items }` — pushes onto the module path
    /// while the body parses.
    fn mod_item(&mut self) {
        self.bump(); // `mod`
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.bump();
                n
            }
            _ => {
                self.error("expected mod name");
                return;
            }
        };
        if self.eat_punct(";") {
            return;
        }
        if !self.eat_punct("{") {
            self.error("expected mod body");
            return;
        }
        self.mods.push(name);
        self.items_until(Some("}"));
        self.eat_punct("}");
        self.mods.pop();
    }

    /// `use tree;` — flattens the use tree into [`Ast::uses`] leaves.
    fn use_item(&mut self) {
        self.bump(); // `use`
        let mut prefix = Vec::new();
        self.use_tree(&mut prefix, 0);
        // Recover to the end of the item whatever the tree looked like.
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            if t.is_punct(";") {
                self.bump();
                return;
            }
            if t.is_punct("{") {
                self.skip_group("{", "}");
                continue;
            }
            if t.is_punct("}") {
                return; // don't eat the enclosing module's close
            }
            self.bump();
        }
    }

    /// One branch of a use tree; `prefix` holds the segments accumulated so
    /// far and is restored before returning.
    fn use_tree(&mut self, prefix: &mut Vec<String>, depth: u32) {
        let mark = prefix.len();
        if depth > 16 {
            return; // pathological nesting; recovery in use_item skips the rest
        }
        loop {
            if self.out_of_fuel() {
                break;
            }
            if self.at_punct("{") {
                self.bump();
                loop {
                    if self.out_of_fuel() {
                        break;
                    }
                    let Some(t) = self.peek() else { break };
                    if t.is_punct("}") {
                        self.bump();
                        break;
                    }
                    if t.is_punct(",") {
                        self.bump();
                        continue;
                    }
                    let before = self.pos;
                    self.use_tree(prefix, depth + 1);
                    if self.pos == before {
                        self.bump();
                    }
                }
                break;
            }
            if self.at_punct("*") {
                self.bump();
                let mut path = prefix.clone();
                path.push("*".to_string());
                self.record_use(path, "*".to_string());
                break;
            }
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident && !t.is_ident("as") => {
                    prefix.push(t.text.clone());
                    self.bump();
                }
                _ => break,
            }
            if self.at_punct("::") {
                self.bump();
                continue;
            }
            // End of this branch's path: optional rename, then record.
            let alias = if self.eat_ident("as") {
                match self.peek() {
                    Some(t) if t.kind == TokenKind::Ident || t.is_punct("_") => {
                        let a = t.text.clone();
                        self.bump();
                        a
                    }
                    _ => String::new(),
                }
            } else {
                String::new()
            };
            let mut path = prefix.clone();
            // `use a::b::{self}` binds `b`, not `self`.
            if path.last().is_some_and(|s| s == "self") && path.len() > 1 {
                path.pop();
            }
            let alias = if alias.is_empty() {
                path.last().cloned().unwrap_or_default()
            } else {
                alias
            };
            self.record_use(path, alias);
            break;
        }
        prefix.truncate(mark);
    }

    fn record_use(&mut self, path: Vec<String>, alias: String) {
        if path.is_empty() || self.ast.uses.len() >= 1024 {
            return;
        }
        self.ast.uses.push(UseDecl {
            path,
            alias,
            module: self.mods.clone(),
        });
    }

    // ---- statements -----------------------------------------------------

    /// Parse a `{ ... }` block; the cursor must sit on `{`.
    fn block(&mut self) -> Block {
        let lo = self.pos;
        let mut stmts = Vec::new();
        if self.nest >= MAX_NEST {
            // Too deep: consume the whole group flat and move on.
            if self.at_punct("{") {
                self.skip_group("{", "}");
            }
            self.error("nesting too deep; block skipped");
            return Block {
                stmts,
                span: Span { lo, hi: self.pos },
            };
        }
        self.nest += 1;
        if !self.eat_punct("{") {
            self.nest -= 1;
            return Block {
                stmts,
                span: Span { lo, hi: self.pos },
            };
        }
        let saved_no_struct = std::mem::take(&mut self.no_struct);
        loop {
            if self.out_of_fuel() {
                break;
            }
            let Some(t) = self.peek() else {
                self.error("unclosed block");
                break;
            };
            if t.is_punct("}") {
                self.bump();
                break;
            }
            if t.is_punct(";") {
                stmts.push(Stmt::Empty(self.pos));
                self.bump();
                continue;
            }
            if t.is_punct("#") {
                self.skip_attrs();
                continue;
            }
            if t.is_ident("let") {
                stmts.push(self.let_stmt());
                continue;
            }
            // Nested items inside the block.
            let is_item = ITEM_KEYWORDS.contains(&t.text.as_str())
                && !t.is_ident("const") // `const { .. }` blocks are exprs; const items rare in fns
                || (t.is_ident("pub"));
            if is_item && !t.is_ident("impl") {
                let item_lo = self.pos;
                self.item();
                if self.pos == item_lo {
                    self.bump(); // guarantee progress
                }
                stmts.push(Stmt::Item(Span {
                    lo: item_lo,
                    hi: self.pos,
                }));
                continue;
            }
            let stmt_lo = self.pos;
            let expr = self.expr();
            let has_semi = self.eat_punct(";");
            if self.pos == stmt_lo {
                // Expression made no progress (shouldn't happen; belt and
                // braces against hangs).
                self.bump();
            }
            stmts.push(Stmt::Expr(ExprStmt {
                expr,
                has_semi,
                span: Span {
                    lo: stmt_lo,
                    hi: self.pos,
                },
            }));
        }
        self.no_struct = saved_no_struct;
        self.nest -= 1;
        Block {
            stmts,
            span: Span { lo, hi: self.pos },
        }
    }

    fn let_stmt(&mut self) -> Stmt {
        let lo = self.pos;
        self.bump(); // `let`
        let pat = self.let_pattern();
        if self.at_punct(":") {
            self.bump();
            self.skip_type(&["=", ";", "else"]);
        }
        let init = if self.eat_punct("=") {
            Some(self.expr())
        } else {
            None
        };
        let else_block = if self.eat_ident("else") {
            Some(self.block())
        } else {
            None
        };
        if !self.eat_punct(";") {
            self.error("expected `;` after let statement");
        }
        Stmt::Let(LetStmt {
            pat,
            init,
            else_block,
            span: Span { lo, hi: self.pos },
        })
    }

    fn let_pattern(&mut self) -> LetPat {
        let lo = self.pos;
        if self.at_ident("_") {
            let tok = self.pos;
            self.bump();
            // `_` alone is wild; `_foo` was already one ident token, and a
            // bare `_` followed by pattern syntax falls through to Other.
            if self.at_punct(":") || self.at_punct("=") || self.at_punct(";") {
                return LetPat::Wild(tok);
            }
        } else {
            self.eat_ident("mut");
            if let Some(t) = self.peek() {
                if t.kind == TokenKind::Ident
                    && self
                        .peek_at(1)
                        .is_some_and(|n| n.is_punct(":") || n.is_punct("=") || n.is_punct(";"))
                {
                    let name = t.text.clone();
                    let tok = self.pos;
                    self.bump();
                    return LetPat::Name { name, tok };
                }
            }
        }
        // Structured pattern: consume to `:`, `=`, or `;` at depth 0.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                break;
            }
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => brace += 1,
                "}" => brace -= 1,
                "<" => {
                    self.skip_angles();
                    continue;
                }
                ":" | "=" | ";" if paren == 0 && bracket == 0 && brace == 0 => break,
                _ => {}
            }
            if paren < 0 || bracket < 0 || brace < 0 {
                break;
            }
            self.bump();
        }
        LetPat::Other(Span {
            lo,
            hi: self.pos.max(lo),
        })
    }

    // ---- expressions ----------------------------------------------------

    /// Parse one expression (flattened precedence).
    fn expr(&mut self) -> Expr {
        if self.nest >= MAX_NEST {
            let lo = self.pos;
            self.error("nesting too deep; expression skipped");
            self.bump(); // guarantee progress
            return self.mk(ExprKind::Opaque, lo);
        }
        self.nest += 1;
        let e = self.expr_inner();
        self.nest -= 1;
        e
    }

    fn expr_inner(&mut self) -> Expr {
        let lo = self.pos;
        let first = self.unary();
        let mut children = vec![first];
        loop {
            if self.out_of_fuel() {
                break;
            }
            let Some(t) = self.peek() else { break };
            if t.is_ident("as") {
                self.bump();
                self.skip_type(&[
                    ";", ",", ")", "]", "}", "==", "!=", "&&", "||", "+", "-", "/", "%", "?", ".",
                    "=",
                ]);
                let inner = children.pop().map(Box::new);
                if let Some(inner) = inner {
                    let cast = Expr {
                        kind: ExprKind::Cast(inner),
                        span: Span { lo, hi: self.pos },
                    };
                    children.push(cast);
                }
                continue;
            }
            if t.kind == TokenKind::Punct && BINOPS.contains(&t.text.as_str()) {
                // A `<` here could be comparison (expr) — generics only
                // follow `::` which the path parser already consumed.
                self.bump();
                // Trailing unary ops after a binop belong to the next chain.
                if self.peek().is_none()
                    || self.at_punct(")")
                    || self.at_punct("]")
                    || self.at_punct("}")
                    || self.at_punct(",")
                    || self.at_punct(";")
                {
                    break; // `..` range with open end, `&mut x =` etc.
                }
                children.push(self.unary());
                continue;
            }
            break;
        }
        if children.len() == 1 {
            children
                .pop()
                .unwrap_or_else(|| self.mk(ExprKind::Opaque, lo))
        } else {
            self.mk(ExprKind::Binary { children }, lo)
        }
    }

    fn unary(&mut self) -> Expr {
        let lo = self.pos;
        let mut prefixed = false;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "&" | "&&" | "*" | "-" | "!" => {
                    prefixed = true;
                    // `&&` in prefix position is two borrows; `|`/`||` stay
                    // closure markers handled in primary.
                    if t.is_punct("&") || t.is_punct("&&") {
                        self.bump();
                        self.eat_ident("mut");
                        self.eat_ident("raw");
                    } else {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let inner = self.postfix_chain();
        if prefixed {
            self.mk(ExprKind::Unary(Box::new(inner)), lo)
        } else {
            inner
        }
    }

    fn postfix_chain(&mut self) -> Expr {
        let lo = self.pos;
        let mut e = self.primary();
        loop {
            if self.out_of_fuel() {
                break;
            }
            let Some(t) = self.peek() else { break };
            match t.text.as_str() {
                "." => {
                    let Some(n) = self.peek_at(1) else { break };
                    match n.kind {
                        TokenKind::Ident => {
                            if self.peek_at(2).is_some_and(|t| t.is_punct("(")) {
                                // Method call.
                                self.bump(); // .
                                let method = n.text.clone();
                                let method_tok = self.pos;
                                self.bump(); // name
                                let args = self.paren_args();
                                e = self.mk(
                                    ExprKind::MethodCall {
                                        recv: Box::new(e),
                                        method,
                                        method_tok,
                                        args,
                                    },
                                    lo,
                                );
                            } else if self.peek_at(2).is_some_and(|t| t.is_punct("::")) {
                                // Turbofish method: `.collect::<Vec<_>>()`.
                                self.bump(); // .
                                let method = n.text.clone();
                                let method_tok = self.pos;
                                self.bump(); // name
                                self.bump(); // ::
                                if self.at_punct("<") {
                                    self.skip_angles();
                                }
                                let args = if self.at_punct("(") {
                                    self.paren_args()
                                } else {
                                    Vec::new()
                                };
                                e = self.mk(
                                    ExprKind::MethodCall {
                                        recv: Box::new(e),
                                        method,
                                        method_tok,
                                        args,
                                    },
                                    lo,
                                );
                            } else {
                                // Field access or `.await`.
                                self.bump();
                                let name = n.text.clone();
                                self.bump();
                                e = self.mk(
                                    ExprKind::Field {
                                        base: Box::new(e),
                                        name,
                                    },
                                    lo,
                                );
                            }
                        }
                        TokenKind::Int | TokenKind::Float => {
                            // Tuple index `.0` (a `.0.1` chain lexes as one
                            // float; both are plain field accesses here).
                            self.bump();
                            let name = n.text.clone();
                            self.bump();
                            e = self.mk(
                                ExprKind::Field {
                                    base: Box::new(e),
                                    name,
                                },
                                lo,
                            );
                        }
                        _ => break,
                    }
                }
                "(" => {
                    let args = self.paren_args();
                    e = self.mk(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        lo,
                    );
                }
                "[" => {
                    self.bump();
                    let saved = std::mem::take(&mut self.no_struct);
                    let index = self.expr();
                    self.no_struct = saved;
                    if !self.eat_punct("]") {
                        self.recover_to_close("]");
                    }
                    e = self.mk(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        lo,
                    );
                }
                "?" => {
                    self.bump();
                    e = self.mk(ExprKind::Try(Box::new(e)), lo);
                }
                _ => break,
            }
        }
        e
    }

    /// Parse `( ... )` call arguments.
    fn paren_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        let saved_no_struct = std::mem::take(&mut self.no_struct);
        loop {
            if self.out_of_fuel() {
                break;
            }
            let Some(t) = self.peek() else {
                self.error("unclosed call arguments");
                break;
            };
            if t.is_punct(")") {
                self.bump();
                break;
            }
            if t.is_punct(",") {
                self.bump();
                continue;
            }
            let before = self.pos;
            args.push(self.expr());
            if self.pos == before {
                self.bump(); // guarantee progress on junk
            }
        }
        self.no_struct = saved_no_struct;
        args
    }

    /// After a failed delimiter match, scan forward to `close` (balanced).
    fn recover_to_close(&mut self, close: &str) {
        let open = match close {
            ")" => "(",
            "]" => "[",
            _ => "{",
        };
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                if depth == 0 {
                    self.bump();
                    return;
                }
                depth -= 1;
            } else if t.is_punct(";") && depth == 0 {
                return; // statement boundary: stop looking
            }
            self.bump();
        }
    }

    fn primary(&mut self) -> Expr {
        if self.nest >= MAX_NEST {
            let lo = self.pos;
            self.error("nesting too deep; expression skipped");
            self.bump();
            return self.mk(ExprKind::Opaque, lo);
        }
        self.nest += 1;
        let e = self.primary_inner();
        self.nest -= 1;
        e
    }

    fn primary_inner(&mut self) -> Expr {
        let lo = self.pos;
        let Some(t) = self.peek() else {
            return self.mk(ExprKind::Opaque, lo);
        };
        // Loop labels: `'outer: for ...`.
        if t.kind == TokenKind::Lifetime && self.peek_at(1).is_some_and(|n| n.is_punct(":")) {
            self.bump();
            self.bump();
            return self.primary();
        }
        match t.kind {
            TokenKind::Int | TokenKind::Float | TokenKind::Str => {
                let kind = t.kind;
                let tok = self.pos;
                self.bump();
                return self.mk(ExprKind::Lit { kind, tok }, lo);
            }
            TokenKind::Lifetime => {
                self.bump();
                return self.mk(ExprKind::Opaque, lo);
            }
            _ => {}
        }
        match t.text.as_str() {
            "if" => self.if_expr(),
            "match" => self.match_expr(),
            "for" => {
                self.bump();
                // Pattern up to `in` at depth 0.
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    if self.out_of_fuel() {
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 => break,
                        "{" | ";" => break, // malformed; bail
                        _ => {}
                    }
                    self.bump();
                }
                self.eat_ident("in");
                self.no_struct += 1;
                let _iter = self.expr();
                self.no_struct -= 1;
                let body = self.block();
                self.mk(ExprKind::Loop(body), lo)
            }
            "while" => {
                self.bump();
                self.no_struct += 1;
                let _cond = self.condition();
                self.no_struct -= 1;
                let body = self.block();
                self.mk(ExprKind::Loop(body), lo)
            }
            "loop" => {
                self.bump();
                let body = self.block();
                self.mk(ExprKind::Loop(body), lo)
            }
            "unsafe" | "async" | "try" => {
                self.bump();
                if self.at_punct("{") {
                    let b = self.block();
                    self.mk(ExprKind::BlockExpr(b), lo)
                } else {
                    self.primary() // `async move |..|`, etc.
                }
            }
            "move" => {
                self.bump();
                self.closure(lo)
            }
            "return" | "break" => {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.bump(); // break 'label
                }
                let arg = if self.expr_can_start() {
                    Some(Box::new(self.expr()))
                } else {
                    None
                };
                self.mk(ExprKind::Jump(arg), lo)
            }
            "continue" => {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.bump();
                }
                self.mk(ExprKind::Jump(None), lo)
            }
            "let" => {
                // `let pat = expr` in a condition (if let / while let / chains).
                self.bump();
                let pat_lo = self.pos;
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    if self.out_of_fuel() {
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "=" if depth == 0 => break,
                        ";" => break,
                        _ => {}
                    }
                    self.bump();
                }
                let pat = Span {
                    lo: pat_lo,
                    hi: self.pos,
                };
                self.eat_punct("=");
                let value = self.unary();
                self.mk(
                    ExprKind::LetCond {
                        pat,
                        expr: Box::new(value),
                    },
                    lo,
                )
            }
            "{" => {
                let b = self.block();
                self.mk(ExprKind::BlockExpr(b), lo)
            }
            "(" => {
                self.bump();
                let saved = std::mem::take(&mut self.no_struct);
                let mut items = Vec::new();
                loop {
                    if self.out_of_fuel() {
                        break;
                    }
                    let Some(t) = self.peek() else {
                        self.error("unclosed parenthesis");
                        break;
                    };
                    if t.is_punct(")") {
                        self.bump();
                        break;
                    }
                    if t.is_punct(",") {
                        self.bump();
                        continue;
                    }
                    let before = self.pos;
                    items.push(self.expr());
                    if self.pos == before {
                        self.bump();
                    }
                }
                self.no_struct = saved;
                self.mk(ExprKind::Tuple(items), lo)
            }
            "[" => {
                self.bump();
                let saved = std::mem::take(&mut self.no_struct);
                let mut items = Vec::new();
                loop {
                    if self.out_of_fuel() {
                        break;
                    }
                    let Some(t) = self.peek() else {
                        self.error("unclosed array literal");
                        break;
                    };
                    if t.is_punct("]") {
                        self.bump();
                        break;
                    }
                    // `[elem; len]` keeps both as items.
                    if t.is_punct(",") || t.is_punct(";") {
                        self.bump();
                        continue;
                    }
                    let before = self.pos;
                    items.push(self.expr());
                    if self.pos == before {
                        self.bump();
                    }
                }
                self.no_struct = saved;
                self.mk(ExprKind::Array(items), lo)
            }
            "|" | "||" => self.closure(lo),
            _ if t.kind == TokenKind::Ident => self.path_or_struct_or_macro(),
            _ => {
                // Junk: consume one token so callers always progress.
                self.bump();
                self.mk(ExprKind::Opaque, lo)
            }
        }
    }

    /// Can the current token begin an expression? (Used after `return`.)
    fn expr_can_start(&self) -> bool {
        let Some(t) = self.peek() else { return false };
        match t.kind {
            TokenKind::Ident => !matches!(t.text.as_str(), "else" | "in" | "as" | "where"),
            TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Lifetime => true,
            TokenKind::Punct => {
                matches!(
                    t.text.as_str(),
                    "(" | "[" | "{" | "&" | "&&" | "*" | "-" | "!" | "|" | "||"
                )
            }
        }
    }

    fn closure(&mut self, lo: usize) -> Expr {
        // `|params| body` / `||` / `move |params| body`.
        if self.at_punct("||") {
            self.bump();
        } else if self.eat_punct("|") {
            // Params: scan to the closing `|` at delimiter depth 0.
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                if self.out_of_fuel() {
                    break;
                }
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "|" if depth <= 0 => {
                        self.bump();
                        break;
                    }
                    "{" | ";" => break, // malformed
                    _ => {}
                }
                self.bump();
            }
        }
        if self.at_punct("->") {
            self.bump();
            self.skip_type(&["{"]);
        }
        let body = self.expr();
        self.mk(
            ExprKind::Closure {
                body: Box::new(body),
            },
            lo,
        )
    }

    fn if_expr(&mut self) -> Expr {
        if self.nest >= MAX_NEST {
            let lo = self.pos;
            self.error("nesting too deep; expression skipped");
            self.bump();
            return self.mk(ExprKind::Opaque, lo);
        }
        self.nest += 1;
        let e = self.if_expr_inner();
        self.nest -= 1;
        e
    }

    fn if_expr_inner(&mut self) -> Expr {
        let lo = self.pos;
        self.bump(); // `if`
        self.no_struct += 1;
        let cond = self.condition();
        self.no_struct -= 1;
        let then = self.block();
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else {
                let b = self.block();
                Some(Box::new(self.mk(ExprKind::BlockExpr(b), lo)))
            }
        } else {
            None
        };
        self.mk(
            ExprKind::If {
                cond: Box::new(cond),
                then,
                els,
            },
            lo,
        )
    }

    /// An `if`/`while` condition: a full expression (covers `let` chains).
    fn condition(&mut self) -> Expr {
        self.expr()
    }

    fn match_expr(&mut self) -> Expr {
        let lo = self.pos;
        self.bump(); // `match`
        self.no_struct += 1;
        let scrutinee = self.expr();
        self.no_struct -= 1;
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            loop {
                if self.out_of_fuel() {
                    break;
                }
                let Some(t) = self.peek() else {
                    self.error("unclosed match");
                    break;
                };
                if t.is_punct("}") {
                    self.bump();
                    break;
                }
                if t.is_punct(",") {
                    self.bump();
                    continue;
                }
                self.skip_attrs();
                // Pattern (plus optional guard) up to `=>` at depth 0.
                let pat_lo = self.pos;
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    if self.out_of_fuel() {
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "=>" if depth == 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                let pat = Span {
                    lo: pat_lo,
                    hi: self.pos,
                };
                if !self.eat_punct("=>") {
                    // Malformed arm; skip one token and retry.
                    if self.pos == pat_lo {
                        self.bump();
                    }
                    continue;
                }
                let arm = self.expr();
                arms.push((pat, arm));
            }
        } else {
            self.error("expected `{` after match scrutinee");
        }
        self.mk(
            ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
            lo,
        )
    }

    /// An identifier begins a path, a macro call, a struct literal, or a
    /// plain name.
    fn path_or_struct_or_macro(&mut self) -> Expr {
        let lo = self.pos;
        let mut segs: Vec<String> = Vec::new();
        if let Some(t) = self.peek() {
            segs.push(t.text.clone());
        }
        self.bump();
        loop {
            if self.out_of_fuel() {
                break;
            }
            if self.at_punct("::") {
                match self.peek_at(1) {
                    Some(n) if n.kind == TokenKind::Ident => {
                        self.bump();
                        segs.push(n.text.clone());
                        self.bump();
                    }
                    Some(n) if n.is_punct("<") => {
                        // Turbofish `Vec::<u8>::new`.
                        self.bump();
                        self.skip_angles();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        // Macro invocation? (`!=` is a single token, so a bare `!` here is
        // unambiguous.)
        if self.at_punct("!") {
            let name = segs.last().cloned().unwrap_or_default();
            let name_tok = self.pos.saturating_sub(1);
            self.bump(); // !
            return self.macro_args(lo, name, name_tok);
        }
        // Struct literal?
        if self.at_punct("{") && self.no_struct == 0 {
            self.bump();
            let mut fields = Vec::new();
            let mut names = Vec::new();
            loop {
                if self.out_of_fuel() {
                    break;
                }
                let Some(t) = self.peek() else {
                    self.error("unclosed struct literal");
                    break;
                };
                if t.is_punct("}") {
                    self.bump();
                    break;
                }
                if t.is_punct(",") || t.is_punct("..") {
                    self.bump();
                    continue;
                }
                // `field: expr` or shorthand `field` (shorthand keeps
                // `None`: the value expr carries the name).
                let mut name = None;
                if t.kind == TokenKind::Ident && self.peek_at(1).is_some_and(|n| n.is_punct(":")) {
                    name = Some(t.text.clone());
                    self.bump();
                    self.bump();
                }
                let before = self.pos;
                fields.push(self.expr());
                names.push(name);
                if self.pos == before {
                    self.bump();
                }
            }
            return self.mk(
                ExprKind::StructLit {
                    path: segs,
                    fields,
                    names,
                },
                lo,
            );
        }
        self.mk(ExprKind::Path(segs), lo)
    }

    fn macro_args(&mut self, lo: usize, name: String, name_tok: usize) -> Expr {
        let (open, close) = match self.peek().map(|t| t.text.as_str()) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            Some("{") => ("{", "}"),
            _ => {
                return self.mk(
                    ExprKind::Macro {
                        name,
                        name_tok,
                        args: Vec::new(),
                    },
                    lo,
                )
            }
        };
        self.bump();
        let saved = std::mem::take(&mut self.no_struct);
        let mut args = Vec::new();
        loop {
            if self.out_of_fuel() {
                break;
            }
            let Some(t) = self.peek() else {
                self.error("unclosed macro invocation");
                break;
            };
            if t.is_punct(close) {
                self.bump();
                break;
            }
            // `vec![elem; len]` keeps both as arguments.
            if t.is_punct(",") || (t.is_punct(";") && open == "[") {
                self.bump();
                continue;
            }
            let before = self.pos;
            args.push(self.expr());
            if self.pos == before {
                // Macro bodies are free-form; skip junk token by token.
                self.bump();
            }
        }
        self.no_struct = saved;
        self.mk(
            ExprKind::Macro {
                name,
                name_tok,
                args,
            },
            lo,
        )
    }
}

/// Extract parameter names from the tokens between a fn's parentheses:
/// at bracket depth 0 and outside type position, `name :` introduces a
/// parameter and a bare `self` is the receiver. Pattern parameters
/// (`(a, b): (u32, u32)`) are omitted — callers treat them as unnamed.
fn param_names(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_type = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "," if depth == 0 => in_type = false,
            ":" if depth == 0 => in_type = true,
            _ => {
                if depth == 0 && !in_type && t.kind == TokenKind::Ident {
                    if t.is_ident("self") {
                        out.push("self".to_string());
                    } else if toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
                        out.push(t.text.clone());
                    }
                }
            }
        }
        i += 1;
    }
    out
}

// ---- AST walking helpers -----------------------------------------------

/// Visit every expression in a block, depth-first.
pub fn walk_block<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let(l) => {
                if let Some(e) = &l.init {
                    walk_expr(e, f);
                }
                if let Some(b) = &l.else_block {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e) => walk_expr(&e.expr, f),
            Stmt::Item(_) | Stmt::Empty(_) => {}
        }
    }
}

/// Visit every statement in `b` and in all nested blocks, depth-first.
pub fn walk_stmts<'a>(b: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &b.stmts {
        f(s);
        match s {
            Stmt::Let(l) => {
                if let Some(e) = &l.init {
                    stmts_in_expr(e, f);
                }
                if let Some(eb) = &l.else_block {
                    walk_stmts(eb, f);
                }
            }
            Stmt::Expr(es) => stmts_in_expr(&es.expr, f),
            Stmt::Item(_) | Stmt::Empty(_) => {}
        }
    }
}

fn stmts_in_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Stmt)) {
    match &e.kind {
        ExprKind::If { cond, then, els } => {
            stmts_in_expr(cond, f);
            walk_stmts(then, f);
            if let Some(e) = els {
                stmts_in_expr(e, f);
            }
        }
        ExprKind::Loop(body) | ExprKind::BlockExpr(body) => walk_stmts(body, f),
        ExprKind::Match { scrutinee, arms } => {
            stmts_in_expr(scrutinee, f);
            for (_, a) in arms {
                stmts_in_expr(a, f);
            }
        }
        ExprKind::Call { callee, args } => {
            stmts_in_expr(callee, f);
            for a in args {
                stmts_in_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            stmts_in_expr(recv, f);
            for a in args {
                stmts_in_expr(a, f);
            }
        }
        ExprKind::Macro { args, .. } => {
            for a in args {
                stmts_in_expr(a, f);
            }
        }
        ExprKind::Try(inner)
        | ExprKind::Unary(inner)
        | ExprKind::Cast(inner)
        | ExprKind::Closure { body: inner } => stmts_in_expr(inner, f),
        ExprKind::Field { base, .. } => stmts_in_expr(base, f),
        ExprKind::Index { base, index } => {
            stmts_in_expr(base, f);
            stmts_in_expr(index, f);
        }
        ExprKind::Binary { children } => {
            for c in children {
                stmts_in_expr(c, f);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for i in items {
                stmts_in_expr(i, f);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for fe in fields {
                stmts_in_expr(fe, f);
            }
        }
        ExprKind::LetCond { expr, .. } => stmts_in_expr(expr, f),
        ExprKind::Jump(Some(inner)) => stmts_in_expr(inner, f),
        ExprKind::Jump(None) | ExprKind::Path(_) | ExprKind::Lit { .. } | ExprKind::Opaque => {}
    }
}

/// Visit `e` and every expression below it, depth-first.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Macro { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Try(inner)
        | ExprKind::Unary(inner)
        | ExprKind::Cast(inner)
        | ExprKind::Closure { body: inner } => walk_expr(inner, f),
        ExprKind::Field { base, .. } => walk_expr(base, f),
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::Binary { children } => {
            for c in children {
                walk_expr(c, f);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for i in items {
                walk_expr(i, f);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for fe in fields {
                walk_expr(fe, f);
            }
        }
        ExprKind::If { cond, then, els } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_expr(scrutinee, f);
            for (_, e) in arms {
                walk_expr(e, f);
            }
        }
        ExprKind::Loop(b) | ExprKind::BlockExpr(b) => walk_block(b, f),
        ExprKind::LetCond { expr, .. } => walk_expr(expr, f),
        ExprKind::Jump(Some(inner)) => walk_expr(inner, f),
        ExprKind::Jump(None) | ExprKind::Path(_) | ExprKind::Lit { .. } | ExprKind::Opaque => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).tokens)
    }

    #[test]
    fn fn_headers_name_their_params() {
        let ast = parse_src(
            "fn a() {}\n\
             fn b(&self, x: &[u8], (p, q): (u8, u8)) -> Result<u32, E> { Ok(1) }\n\
             pub(crate) fn c<T>(v: Vec<T>) -> crate::Result<u8> where T: Clone { Ok(0) }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let params: Vec<&[String]> = ast.fns.iter().map(|f| f.params.as_slice()).collect();
        assert_eq!(params, vec![&[][..], &["self", "x"], &["v"]]);
    }

    #[test]
    fn methods_inside_impl_blocks_are_collected() {
        let ast = parse_src(
            "impl<T: Clone> Foo<T> {\n\
               pub fn get(&self) -> Option<&T> { self.0.first() }\n\
               fn set(&mut self, v: T) { self.0.push(v); }\n\
             }\n\
             mod inner { pub fn helper() -> Result<(), E> { Ok(()) } }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["get", "set", "helper"]);
    }

    #[test]
    fn let_patterns_distinguished() {
        let ast = parse_src(
            "fn f() {\n\
               let _ = g();\n\
               let x = h();\n\
               let mut y = 3;\n\
               let (a, b) = pair();\n\
               let Some(v) = maybe() else { return };\n\
             }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let stmts = &ast.fns[0].body.stmts;
        assert_eq!(stmts.len(), 5);
        assert!(matches!(
            &stmts[0],
            Stmt::Let(l) if matches!(l.pat, LetPat::Wild(_))
        ));
        assert!(matches!(
            &stmts[1],
            Stmt::Let(l) if matches!(&l.pat, LetPat::Name { name, .. } if name == "x")
        ));
        assert!(matches!(
            &stmts[2],
            Stmt::Let(l) if matches!(&l.pat, LetPat::Name { name, .. } if name == "y")
        ));
        assert!(matches!(
            &stmts[3],
            Stmt::Let(l) if matches!(l.pat, LetPat::Other(_))
        ));
        match &stmts[4] {
            Stmt::Let(l) => assert!(l.else_block.is_some(), "let-else parsed"),
            other => panic!("expected let-else, got {other:?}"),
        }
    }

    #[test]
    fn method_chains_and_try_operator() {
        let ast = parse_src(
            "fn f() -> Result<(), E> {\n\
               let v = load(path)?.filter().count();\n\
               g(v)?;\n\
               Ok(())\n\
             }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let Stmt::Let(l) = &ast.fns[0].body.stmts[0] else {
            panic!("let expected")
        };
        // count( filter( try( call(load) ) ) )
        let mut methods = Vec::new();
        walk_expr(l.init.as_ref().expect("init"), &mut |e| {
            if let ExprKind::MethodCall { method, .. } = &e.kind {
                methods.push(method.clone());
            }
        });
        assert_eq!(methods, vec!["count", "filter"]);
        let Stmt::Expr(es) = &ast.fns[0].body.stmts[1] else {
            panic!("expr stmt expected")
        };
        assert!(matches!(es.expr.kind, ExprKind::Try(_)));
    }

    #[test]
    fn match_and_struct_literals() {
        let ast = parse_src(
            "fn f(x: Option<u8>) -> P {\n\
               match x {\n\
                 Some(v) if v > 1 => P { a: v, b: 0 },\n\
                 _ => P { a: 0, b: 1 },\n\
               }\n\
             }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let Stmt::Expr(es) = &ast.fns[0].body.stmts[0] else {
            panic!("match stmt expected")
        };
        let ExprKind::Match { arms, .. } = &es.expr.kind else {
            panic!("match expected, got {:?}", es.expr.kind)
        };
        assert_eq!(arms.len(), 2);
        assert!(matches!(arms[0].1.kind, ExprKind::StructLit { .. }));
    }

    #[test]
    fn vec_macro_shapes() {
        let ast = parse_src(
            "fn f() {\n\
               let a = vec![1, 2, 3];\n\
               let b = vec![0.0; 9];\n\
             }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let arity = |i: usize| match &ast.fns[0].body.stmts[i] {
            Stmt::Let(l) => match &l.init.as_ref().expect("init").kind {
                ExprKind::Macro { name, args, .. } if name == "vec" => args.len(),
                other => panic!("vec! expected, got {other:?}"),
            },
            other => panic!("let expected, got {other:?}"),
        };
        // The repeat form keeps its element and length as two arguments.
        assert_eq!((arity(0), arity(1)), (3, 2));
    }

    #[test]
    fn malformed_source_degrades_without_panicking() {
        // Unbalanced braces, stray operators, truncated fn — the parser
        // must record errors and keep whatever structure it found.
        let srcs = [
            "fn broken( { let x = ; } fn ok() -> Result<u8, E> { Ok(1) }",
            "impl } fn f() { let _ = g(); }",
            "fn f() { match x { Some => } }",
            "fn f() { (((((",
            "== != <<>> :: fn g() {}",
            "fn f() { v.iter().map(|x| } ",
        ];
        for src in srcs {
            let ast = parse_src(src);
            // Never panics; and the trailing well-formed fn is usually found.
            let _ = ast.fns.len();
        }
        let ast = parse_src("fn broken( { let x = ; } fn ok() -> Result<u8, E> { Ok(1) }");
        assert!(ast.fns.iter().any(|f| f.name == "ok"));
        assert!(!ast.errors.is_empty());
    }

    #[test]
    fn deeply_nested_source_is_fuel_bounded() {
        let mut src = String::from("fn f() { ");
        for _ in 0..2000 {
            src.push_str("{ (");
        }
        let ast = parse_src(&src);
        let _ = ast.fns.len(); // terminates; that's the assertion
    }

    #[test]
    fn if_let_and_while_let_conditions() {
        let ast = parse_src(
            "fn f(r: Result<u8, E>) {\n\
               if let Ok(v) = r { use_it(v); }\n\
               while let Some(x) = next() { use_it(x); }\n\
             }\n",
        );
        assert!(ast.errors.is_empty(), "errors: {:?}", ast.errors);
        let Stmt::Expr(ifs) = &ast.fns[0].body.stmts[0] else {
            panic!()
        };
        let ExprKind::If { cond, .. } = &ifs.expr.kind else {
            panic!("if expected, got {:?}", ifs.expr.kind)
        };
        assert!(matches!(cond.kind, ExprKind::LetCond { .. }));
    }
}
