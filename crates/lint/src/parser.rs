//! Recursive-descent parser from the [`crate::lexer`] token stream to
//! the lightweight AST in [`crate::ast`].
//!
//! Design goals, in order: **never panic, always terminate** (every
//! loop provably advances the cursor, enforced by recovery bumps),
//! parse the whole workspace without recoveries (a meta-test asserts
//! this), and stay dependency-free. Fidelity is "enough for the
//! rules": types and patterns flatten to identifier lists, while
//! expressions — the thing dataflow walks — are fully structured via
//! a Pratt loop with Rust's operator precedence.
//!
//! Composite operators (`::`, `=>`, `->`, `..`, `&&`, `+=`, ...) are
//! reassembled from adjacent single-char `Punct` tokens using byte
//! offsets, the same trick the v1 pattern rules used.

use crate::ast::{Arm, BinOp, Block, Expr, FieldDef, File, FnItem, Item, Param, Stmt, TypeRef};
use crate::lexer::{lex, Token, TokenKind};

/// Parses one file of Rust source. Never fails; malformed input shows
/// up as [`crate::ast::File::recoveries`] entries instead.
pub fn parse(src: &str) -> File {
    parse_tokens(&lex(src).tokens)
}

/// Parses an arbitrary token stream (the property tests feed this
/// garbage directly, bypassing the lexer).
pub fn parse_tokens(toks: &[Token]) -> File {
    let mut p = Parser {
        toks,
        pos: 0,
        recoveries: Vec::new(),
    };
    let items = p.items_until_end();
    File {
        items,
        recoveries: p.recoveries,
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    recoveries: Vec<crate::ast::Recovery>,
}

/// Identifiers that cannot be user bindings; pattern/param scans drop
/// these when collecting names.
fn is_pattern_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut"
            | "ref"
            | "box"
            | "_"
            | "if"
            | "in"
            | "as"
            | "const"
            | "move"
            | "dyn"
            | "true"
            | "false"
            | "None" // unit-variant, never a binding in this codebase's patterns
    )
}

impl<'a> Parser<'a> {
    // ---- token helpers ------------------------------------------------

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn nth(&self, k: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + k)
    }

    fn line(&self) -> u32 {
        self.peek()
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Skips one token and records that the parser could not place it.
    fn bump_recover(&mut self, context: &'static str) {
        let line = self.line();
        self.recoveries.push(crate::ast::Recovery { line, context });
        self.bump();
    }

    fn at(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.text == s)
    }

    fn at_kw(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Whether tokens `pos+k` and `pos+k+1` are byte-adjacent (so two
    /// puncts form one composite operator).
    fn joint(&self, k: usize) -> bool {
        match (self.nth(k), self.nth(k + 1)) {
            (Some(a), Some(b)) => a.start + a.text.len() == b.start,
            _ => false,
        }
    }

    /// `at2("&","&")` — two adjacent puncts forming `&&` etc.
    fn at2(&self, a: &str, b: &str) -> bool {
        self.at(a) && self.nth(1).is_some_and(|t| t.text == b) && self.joint(0)
    }

    fn eat2(&mut self, a: &str, b: &str) -> bool {
        if self.at2(a, b) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    /// Path separator `::`.
    fn at_colons(&self) -> bool {
        self.at2(":", ":")
    }

    /// A *single* `:` (not part of `::`).
    fn at_single_colon(&self) -> bool {
        self.at(":") && !self.at2(":", ":")
    }

    // ---- attributes ---------------------------------------------------

    /// Skips `#[...]` / `#![...]` attributes; returns true when any of
    /// them gates the item to test builds (`#[test]`, `#[cfg(test)]`,
    /// but *not* `#[cfg(not(test))]`).
    fn skip_attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.at("#") {
            let mut k = 1;
            if self.nth(k).is_some_and(|t| t.text == "!") {
                k += 1;
            }
            if self.nth(k).is_none_or(|t| t.text != "[") {
                break; // `#` not starting an attribute: leave for expr
            }
            self.pos += k + 1;
            let mut depth = 1i32;
            let mut saw_test = false;
            let mut saw_not = false;
            while let Some(t) = self.bump() {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if t.kind == TokenKind::Ident => saw_test = true,
                    "not" if t.kind == TokenKind::Ident => saw_not = true,
                    _ => {}
                }
            }
            if saw_test && !saw_not {
                cfg_test = true;
            }
        }
        cfg_test
    }

    // ---- items --------------------------------------------------------

    fn items_until_end(&mut self) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < self.toks.len() {
            let before = self.pos;
            items.push(self.parse_item());
            if self.pos == before {
                self.bump_recover("item");
            }
        }
        items
    }

    fn items_until_close(&mut self) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < self.toks.len() && !self.at("}") {
            let before = self.pos;
            items.push(self.parse_item());
            if self.pos == before {
                self.bump_recover("item");
            }
        }
        self.eat("}");
        items
    }

    fn parse_item(&mut self) -> Item {
        let cfg_test = self.skip_attrs();
        let line = self.line();
        if self.eat("pub") {
            // `pub(crate)` / `pub(super)` / `pub(in path)`.
            if self.at("(") {
                self.skip_balanced("(", ")");
            }
        }
        // Fn qualifiers (`const fn`, `unsafe fn`, `async fn`,
        // `extern "C" fn`). A bare `const NAME` is a const item.
        if (self.at_kw("const") && self.nth(1).is_some_and(|t| t.text == "fn"))
            || self.at_kw("unsafe") && self.nth(1).is_some_and(|t| t.text == "fn")
            || self.at_kw("async")
        {
            self.bump();
        }
        if self.at_kw("extern") && self.nth(1).is_some_and(|t| t.kind == TokenKind::Literal) {
            self.bump();
            self.bump();
        }

        if self.at_kw("fn") {
            return Item::Fn(self.parse_fn(cfg_test));
        }
        if self.at_kw("struct") {
            return self.parse_struct();
        }
        if self.at_kw("enum") {
            // Variant payloads are never field-access targets.
            self.skip_to_body();
            self.skip_balanced("{", "}");
            return Item::Other { line };
        }
        if self.at_kw("trait") {
            return self.parse_trait();
        }
        if self.at_kw("impl") {
            return self.parse_impl(cfg_test);
        }
        if self.at_kw("mod") {
            return self.parse_mod(cfg_test);
        }
        if self.at_kw("const") || self.at_kw("static") {
            return self.parse_const();
        }
        if self.at_kw("use") || self.at_kw("extern") || self.at_kw("type") {
            self.skip_to_semi();
            return Item::Other { line };
        }
        // Item-level macro invocation (`macro_rules!`, `thread_local!`).
        if self.peek().is_some_and(|t| t.kind == TokenKind::Ident)
            && self.nth(1).is_some_and(|t| t.text == "!")
        {
            self.bump(); // name
            self.bump(); // !
            if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                self.bump(); // `macro_rules! name`
            }
            match self.peek().map(|t| t.text.as_str()) {
                Some("{") => self.skip_balanced("{", "}"),
                Some("(") => {
                    self.skip_balanced("(", ")");
                    self.eat(";");
                }
                Some("[") => {
                    self.skip_balanced("[", "]");
                    self.eat(";");
                }
                _ => {}
            }
            return Item::Other { line };
        }
        self.bump_recover("item");
        Item::Other { line }
    }

    fn parse_fn(&mut self, cfg_test: bool) -> FnItem {
        let line = self.line();
        self.eat("fn");
        let name = self.ident_or("_fn");
        if self.at("<") {
            self.skip_angles();
        }
        let params = self.parse_params();
        if self.eat2("-", ">") {
            self.parse_type(|p| p.at("{") || p.at(";") || p.at_kw("where"));
        }
        if self.at_kw("where") {
            self.skip_where();
        }
        let body = if self.eat(";") {
            None
        } else if self.at("{") {
            Some(self.parse_block())
        } else {
            None
        };
        FnItem {
            name,
            line,
            params,
            body,
            cfg_test,
        }
    }

    fn parse_params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        if !self.eat("(") {
            return params;
        }
        while self.pos < self.toks.len() && !self.at(")") {
            let before = self.pos;
            self.skip_attrs();
            // Self receiver: `self`, `&self`, `&mut self`, `&'a self`,
            // `mut self`, `self: Type`.
            let mut k = 0;
            while self
                .nth(k)
                .is_some_and(|t| t.text == "&" || t.text == "mut" || t.kind == TokenKind::Lifetime)
            {
                k += 1;
            }
            if self.nth(k).is_some_and(|t| t.text == "self") {
                self.pos += k + 1;
                if self.at_single_colon() {
                    self.bump();
                    self.parse_type(|p| p.at(",") || p.at(")"));
                }
                params.push(Param {
                    name: "self".to_string(),
                    ty: TypeRef::default(),
                });
            } else {
                let idents = self.scan_pattern(|p| p.at_single_colon() || p.at(",") || p.at(")"));
                let ty = if self.at_single_colon() {
                    self.bump();
                    self.parse_type(|p| p.at(",") || p.at(")"))
                } else {
                    TypeRef::default()
                };
                let name = idents.last().cloned().unwrap_or_default();
                params.push(Param { name, ty });
            }
            if !self.eat(",") && !self.at(")") && self.pos == before {
                self.bump_recover("param");
            }
        }
        self.eat(")");
        params
    }

    fn parse_struct(&mut self) -> Item {
        let line = self.line();
        self.eat("struct");
        let name = self.ident_or("_struct");
        if self.at("<") {
            self.skip_angles();
        }
        if self.at_kw("where") {
            self.skip_where();
        }
        let mut fields = Vec::new();
        if self.eat(";") {
            // unit struct
        } else if self.eat("(") {
            while self.pos < self.toks.len() && !self.at(")") {
                let before = self.pos;
                self.skip_attrs();
                if self.eat("pub") && self.at("(") {
                    self.skip_balanced("(", ")");
                }
                let ty = self.parse_type(|p| p.at(",") || p.at(")"));
                fields.push(FieldDef {
                    name: String::new(),
                    ty,
                });
                if !self.eat(",") && self.pos == before {
                    self.bump_recover("struct");
                }
            }
            self.eat(")");
            if self.at_kw("where") {
                self.skip_where();
            }
            self.eat(";");
        } else if self.eat("{") {
            while self.pos < self.toks.len() && !self.at("}") {
                let before = self.pos;
                self.skip_attrs();
                if self.eat("pub") && self.at("(") {
                    self.skip_balanced("(", ")");
                }
                let fname = self.ident_or("");
                let ty = if self.at_single_colon() {
                    self.bump();
                    self.parse_type(|p| p.at(",") || p.at("}"))
                } else {
                    TypeRef::default()
                };
                fields.push(FieldDef { name: fname, ty });
                if !self.eat(",") && !self.at("}") && self.pos == before {
                    self.bump_recover("struct");
                }
            }
            self.eat("}");
        }
        Item::Struct { name, fields, line }
    }

    fn parse_trait(&mut self) -> Item {
        let line = self.line();
        self.eat("trait");
        let name = self.ident_or("_trait");
        self.skip_to_body();
        let items = if self.eat("{") {
            self.items_until_close()
        } else {
            self.eat(";");
            Vec::new()
        };
        Item::Trait { name, items, line }
    }

    fn parse_impl(&mut self, cfg_test: bool) -> Item {
        let line = self.line();
        self.eat("impl");
        if self.at("<") {
            self.skip_angles();
        }
        let first = self.parse_type(|p| p.at("{") || p.at_kw("for") || p.at_kw("where"));
        let self_ty = if self.eat("for") {
            self.parse_type(|p| p.at("{") || p.at_kw("where"))
        } else {
            first
        };
        if self.at_kw("where") {
            self.skip_where();
        }
        let items = if self.eat("{") {
            self.items_until_close()
        } else {
            Vec::new()
        };
        Item::Impl {
            type_name: self_ty.head_ident(),
            cfg_test,
            items,
            line,
        }
    }

    fn parse_mod(&mut self, cfg_test: bool) -> Item {
        let line = self.line();
        self.eat("mod");
        let name = self.ident_or("_mod");
        let items = if self.eat("{") {
            self.items_until_close()
        } else {
            self.eat(";");
            Vec::new()
        };
        Item::Mod {
            name,
            cfg_test,
            items,
            line,
        }
    }

    fn parse_const(&mut self) -> Item {
        let line = self.line();
        self.bump(); // const | static
        self.eat("mut");
        let name = self.ident_or("_const");
        let ty = if self.at_single_colon() {
            self.bump();
            self.parse_type(|p| p.at("=") || p.at(";"))
        } else {
            TypeRef::default()
        };
        let init = if self.eat("=") {
            Some(self.parse_expr(0, false))
        } else {
            None
        };
        self.eat(";");
        Item::Const {
            name,
            ty,
            init,
            line,
        }
    }

    fn ident_or(&mut self, fallback: &str) -> String {
        if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
            self.bump().map(|t| t.text.clone()).unwrap_or_default()
        } else {
            fallback.to_string()
        }
    }

    // ---- skipping utilities -------------------------------------------

    fn skip_balanced(&mut self, open: &str, close: &str) {
        if !self.eat(open) {
            return;
        }
        let mut depth = 1i32;
        while let Some(t) = self.bump() {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips a `<...>` generic group, treating `->` as a unit so
    /// `Fn(u32) -> u64` bounds don't corrupt the depth count.
    /// Returns the identifiers seen inside.
    fn skip_angles(&mut self) -> Vec<String> {
        let mut idents = Vec::new();
        if !self.eat("<") {
            return idents;
        }
        let mut depth = 1i32;
        while self.pos < self.toks.len() && depth > 0 {
            if self.at2("-", ">") {
                self.pos += 2;
                continue;
            }
            let Some(t) = self.bump() else { break };
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "(" => {
                    // Balance parens without angle counting inside.
                    let mut pd = 1i32;
                    while let Some(n) = self.bump() {
                        match n.text.as_str() {
                            "(" => pd += 1,
                            ")" => {
                                pd -= 1;
                                if pd == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                _ if t.kind == TokenKind::Ident => idents.push(t.text.clone()),
                _ => {}
            }
        }
        idents
    }

    /// Skips an item header's generics, bounds and where clause, up to
    /// its body brace or `;`.
    fn skip_to_body(&mut self) {
        while self.pos < self.toks.len() && !self.at("{") && !self.at(";") {
            if self.at("<") {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
    }

    fn skip_where(&mut self) {
        self.eat("where");
        while self.pos < self.toks.len() && !self.at("{") && !self.at(";") {
            if self.at("<") {
                self.skip_angles();
            } else if self.at("(") {
                self.skip_balanced("(", ")");
            } else {
                self.bump();
            }
        }
    }

    fn skip_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                ";" => {
                    self.bump();
                    return;
                }
                "{" => self.skip_balanced("{", "}"),
                "(" => self.skip_balanced("(", ")"),
                "[" => self.skip_balanced("[", "]"),
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- types & patterns ---------------------------------------------

    /// Scans a type until `stop` holds at depth 0 (parens, brackets,
    /// braces and angles all tracked; `->` is a unit).
    fn parse_type(&mut self, stop: impl Fn(&Parser) -> bool) -> TypeRef {
        let mut ty = TypeRef::default();
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            if depth == 0 && stop(self) {
                break;
            }
            if self.at2("-", ">") {
                ty.text.push_str("->");
                self.pos += 2;
                continue;
            }
            let Some(t) = self.bump() else { break };
            match t.text.as_str() {
                "<" | "(" | "[" | "{" => depth += 1,
                ">" | ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        // Closed a group we did not open: the type
                        // ended one token ago. Put it back.
                        self.pos -= 1;
                        break;
                    }
                }
                _ => {}
            }
            if t.kind == TokenKind::Ident {
                ty.idents.push(t.text.clone());
            }
            ty.text.push_str(&t.text);
        }
        ty
    }

    /// Scans a pattern until `stop` holds at depth 0, collecting the
    /// identifiers that could be bindings.
    fn scan_pattern(&mut self, stop: impl Fn(&Parser) -> bool) -> Vec<String> {
        let mut idents = Vec::new();
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            if depth == 0 && stop(self) {
                break;
            }
            if self.at2(".", ".") {
                // `..` / `..=` rest patterns and ranges.
                self.pos += 2;
                self.eat("=");
                continue;
            }
            let Some(t) = self.bump() else { break };
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        self.pos -= 1;
                        break;
                    }
                }
                _ => {}
            }
            if t.kind == TokenKind::Ident && !is_pattern_keyword(&t.text) {
                idents.push(t.text.clone());
            }
        }
        idents
    }

    // ---- blocks & statements ------------------------------------------

    fn parse_block(&mut self) -> Block {
        let line = self.line();
        let mut block = Block {
            stmts: Vec::new(),
            line,
            end_line: line,
        };
        if !self.eat("{") {
            return block;
        }
        while self.pos < self.toks.len() && !self.at("}") {
            let before = self.pos;
            block.stmts.push(self.parse_stmt());
            if self.pos == before {
                self.bump_recover("stmt");
            }
        }
        block.end_line = self.line();
        self.eat("}");
        block
    }

    /// Looks past any `#[...]` attributes at the cursor and reports
    /// whether an item keyword follows (so `#[cfg(test)] mod tests`
    /// parses as an item but `#[allow(..)] for x in ..` stays a
    /// statement).
    fn attrs_precede_item(&self) -> bool {
        let mut k = 0usize;
        while self.nth(k).is_some_and(|t| t.text == "#")
            && self.nth(k + 1).is_some_and(|t| t.text == "[")
        {
            k += 2;
            let mut depth = 1i32;
            while depth > 0 {
                match self.nth(k) {
                    Some(t) if t.text == "[" => depth += 1,
                    Some(t) if t.text == "]" => depth -= 1,
                    Some(_) => {}
                    None => return false,
                }
                k += 1;
            }
        }
        matches!(
            self.nth(k).map(|t| t.text.as_str()),
            Some(
                "fn" | "struct"
                    | "enum"
                    | "trait"
                    | "impl"
                    | "use"
                    | "mod"
                    | "type"
                    | "static"
                    | "const"
                    | "pub"
                    | "unsafe"
                    | "async"
                    | "extern"
            )
        )
    }

    fn parse_stmt(&mut self) -> Stmt {
        if self.at(";") {
            self.bump();
            return Stmt::Empty;
        }
        // Item starters inside blocks. Attributes are handled by
        // parse_item itself so `#[cfg(test)] mod tests` nests right;
        // an attribute followed by a statement (`#[allow(..)] for ..`)
        // is skipped here and the statement parsed normally.
        let item_start = self.at_kw("fn")
            || self.at_kw("struct")
            || self.at_kw("enum")
            || self.at_kw("trait")
            || self.at_kw("impl")
            || self.at_kw("use")
            || self.at_kw("mod")
            || self.at_kw("type")
            || self.at_kw("static")
            || (self.at_kw("const") && self.nth(1).is_none_or(|t| t.text != "{"))
            || self.at_kw("pub")
            || (self.at("#")
                && self.nth(1).is_some_and(|t| t.text == "[")
                && self.attrs_precede_item());
        if item_start {
            return Stmt::Item(Box::new(self.parse_item()));
        }
        if self.at("#") && self.nth(1).is_some_and(|t| t.text == "[") {
            // Attribute on a plain statement: drop it and continue.
            self.skip_attrs();
            return self.parse_stmt();
        }
        if self.at_kw("let") {
            return self.parse_let();
        }
        let expr = self.parse_expr(0, false);
        let semi = self.eat(";");
        Stmt::Expr { expr, semi }
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.eat("let");
        let pat_start = self.pos;
        let pat_idents = self
            .scan_pattern(|p| p.at_single_colon() || (p.at("=") && !p.at2("=", "=")) || p.at(";"));
        // Simple binding: `[mut] name` only.
        let pat_toks = &self.toks[pat_start..self.pos];
        let name = match pat_toks {
            [t] if t.kind == TokenKind::Ident => Some(t.text.clone()),
            [m, t] if m.text == "mut" && t.kind == TokenKind::Ident => Some(t.text.clone()),
            _ => None,
        };
        let ty = if self.at_single_colon() {
            self.bump();
            Some(self.parse_type(|p| (p.at("=") && !p.at2("=", "=")) || p.at(";")))
        } else {
            None
        };
        let init = if self.eat("=") {
            Some(self.parse_expr(0, false))
        } else {
            None
        };
        let else_block = if self.at_kw("else") {
            self.bump();
            Some(self.parse_block())
        } else {
            None
        };
        self.eat(";");
        Stmt::Let {
            name,
            pat_idents,
            ty,
            init,
            else_block,
            line,
        }
    }

    // ---- expressions ---------------------------------------------------

    /// Pratt loop. `no_struct` blocks bare `Path { ... }` literals, as
    /// in `if`/`while`/`match`/`for` headers.
    fn parse_expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_prefix(no_struct);
        loop {
            let line = self.line();
            // Compound assignment: `op=` (joint).
            if let Some((op, n)) = self.compound_assign_op() {
                if min_bp > 1 {
                    break;
                }
                self.pos += n;
                let rhs = self.parse_expr(1, no_struct);
                lhs = Expr::Assign {
                    op: Some(op),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
                continue;
            }
            // Plain `=` (not `==`, not `=>`).
            if self.at("=") && !self.at2("=", "=") && !self.at2("=", ">") {
                if min_bp > 1 {
                    break;
                }
                self.bump();
                let rhs = self.parse_expr(1, no_struct);
                lhs = Expr::Assign {
                    op: None,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
                continue;
            }
            // Range `..` / `..=`.
            if self.at2(".", ".") {
                if min_bp > 3 {
                    break;
                }
                self.pos += 2;
                self.eat("=");
                let hi = if self.expr_can_start() {
                    Some(Box::new(self.parse_expr(5, no_struct)))
                } else {
                    None
                };
                lhs = Expr::Range {
                    lo: Some(Box::new(lhs)),
                    hi,
                    line,
                };
                continue;
            }
            let Some((op, bp, n)) = self.binary_op() else {
                break;
            };
            if bp < min_bp {
                break;
            }
            self.pos += n;
            let rhs = self.parse_expr(bp + 2, no_struct);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    /// The binary operator at the cursor: (op, binding power, tokens).
    fn binary_op(&self) -> Option<(BinOp, u8, usize)> {
        let t = self.peek()?;
        if t.kind != TokenKind::Punct {
            return None;
        }
        Some(match t.text.as_str() {
            "|" if self.at2("|", "|") => (BinOp::Or, 5, 2),
            "&" if self.at2("&", "&") => (BinOp::And, 7, 2),
            "=" if self.at2("=", "=") => (BinOp::Eq, 9, 2),
            "!" if self.at2("!", "=") => (BinOp::Ne, 9, 2),
            "<" if self.at2("<", "=") => (BinOp::Le, 9, 2),
            ">" if self.at2(">", "=") => (BinOp::Ge, 9, 2),
            "<" if self.at2("<", "<") => (BinOp::Shl, 17, 2),
            ">" if self.at2(">", ">") => (BinOp::Shr, 17, 2),
            "<" => (BinOp::Lt, 9, 1),
            ">" => (BinOp::Gt, 9, 1),
            "|" => (BinOp::BitOr, 11, 1),
            "^" => (BinOp::BitXor, 13, 1),
            "&" => (BinOp::BitAnd, 15, 1),
            "+" => (BinOp::Add, 19, 1),
            "-" if !self.at2("-", ">") => (BinOp::Sub, 19, 1),
            "*" => (BinOp::Mul, 21, 1),
            "/" => (BinOp::Div, 21, 1),
            "%" => (BinOp::Rem, 21, 1),
            _ => return None,
        })
    }

    /// The compound-assign operator at the cursor (`+=`, `<<=`, ...).
    fn compound_assign_op(&self) -> Option<(BinOp, usize)> {
        let t = self.peek()?;
        if t.kind != TokenKind::Punct {
            return None;
        }
        let two = |op| Some((op, 2));
        match t.text.as_str() {
            "+" if self.at2("+", "=") => two(BinOp::Add),
            "-" if self.at2("-", "=") => two(BinOp::Sub),
            "*" if self.at2("*", "=") => two(BinOp::Mul),
            "/" if self.at2("/", "=") => two(BinOp::Div),
            "%" if self.at2("%", "=") => two(BinOp::Rem),
            "^" if self.at2("^", "=") => two(BinOp::BitXor),
            "&" if self.at2("&", "=") => two(BinOp::BitAnd),
            "|" if self.at2("|", "=") => two(BinOp::BitOr),
            "<" if self.at2("<", "<")
                && self.nth(2).is_some_and(|x| x.text == "=")
                && self.joint(1) =>
            {
                Some((BinOp::Shl, 3))
            }
            ">" if self.at2(">", ">")
                && self.nth(2).is_some_and(|x| x.text == "=")
                && self.joint(1) =>
            {
                Some((BinOp::Shr, 3))
            }
            _ => None,
        }
    }

    /// Whether the current token could begin an expression (used to
    /// decide if `return` / `break` / range have an operand).
    fn expr_can_start(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Ident => !matches!(t.text.as_str(), "else" | "in"),
                TokenKind::Literal | TokenKind::Lifetime => true,
                TokenKind::Punct => {
                    matches!(
                        t.text.as_str(),
                        "(" | "[" | "{" | "&" | "*" | "-" | "!" | "|" | "<" | "#"
                    ) || self.at2(".", ".")
                }
            },
        }
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        // Prefix unary: `&[mut]`, `*`, `-`, `!`.
        if self.at("&") && !self.at2("&", "=") {
            self.bump();
            self.eat("mut");
            return Expr::Unary {
                op: '&',
                expr: Box::new(self.parse_prefix(no_struct)),
                line,
            };
        }
        for op in ['*', '-', '!'] {
            let s = op.to_string();
            if self.at(&s) && !self.at2(&s, "=") && !(op == '-' && self.at2("-", ">")) {
                self.bump();
                return Expr::Unary {
                    op,
                    expr: Box::new(self.parse_prefix(no_struct)),
                    line,
                };
            }
        }
        let e = self.parse_primary(no_struct);
        self.parse_postfix(e, no_struct)
    }

    fn parse_postfix(&mut self, mut e: Expr, _no_struct: bool) -> Expr {
        loop {
            let line = self.line();
            if self.at("?") {
                self.bump();
                e = Expr::Try {
                    expr: Box::new(e),
                    line,
                };
                continue;
            }
            if self.at("(") {
                let args = self.parse_call_args();
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line,
                };
                continue;
            }
            if self.at("[") {
                self.bump();
                let index = self.parse_expr(0, false);
                self.eat("]");
                e = Expr::Index {
                    recv: Box::new(e),
                    index: Box::new(index),
                    line,
                };
                continue;
            }
            if self.at_kw("as") {
                self.bump();
                let ty = self.parse_cast_type();
                e = Expr::Cast {
                    expr: Box::new(e),
                    ty,
                    line,
                };
                continue;
            }
            if self.at(".") && !self.at2(".", ".") {
                self.bump();
                let Some(t) = self.peek() else { break };
                match t.kind {
                    TokenKind::Ident => {
                        let name = t.text.clone();
                        self.bump();
                        let mut generics = Vec::new();
                        if self.at_colons() && self.nth(2).is_some_and(|x| x.text == "<") {
                            self.pos += 2;
                            generics = self.skip_angles();
                        }
                        if self.at("(") {
                            let args = self.parse_call_args();
                            e = Expr::MethodCall {
                                recv: Box::new(e),
                                name,
                                generics,
                                args,
                                line,
                            };
                        } else {
                            e = Expr::Field {
                                recv: Box::new(e),
                                name,
                                line,
                            };
                        }
                    }
                    TokenKind::Literal => {
                        // Tuple index `x.0` (or `x.0.1` lexed as one).
                        let name = t.text.clone();
                        self.bump();
                        e = Expr::Field {
                            recv: Box::new(e),
                            name,
                            line,
                        };
                    }
                    _ => break,
                }
                continue;
            }
            break;
        }
        e
    }

    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat("(") {
            return args;
        }
        while self.pos < self.toks.len() && !self.at(")") {
            let before = self.pos;
            args.push(self.parse_expr(0, false));
            if !self.eat(",") && !self.at(")") && self.pos == before {
                self.bump_recover("args");
            }
        }
        self.eat(")");
        args
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else {
            return Expr::Opaque { line };
        };
        match t.kind {
            TokenKind::Literal => {
                let text = t.text.clone();
                self.bump();
                Expr::Lit { text, line }
            }
            TokenKind::Lifetime => {
                // Loop label `'a: loop { ... }` or `break 'a`.
                self.bump();
                if self.at_single_colon() {
                    self.bump();
                }
                self.parse_primary(no_struct)
            }
            TokenKind::Punct => self.parse_punct_primary(no_struct, line),
            TokenKind::Ident => self.parse_ident_primary(no_struct, line),
        }
    }

    fn parse_punct_primary(&mut self, _no_struct: bool, line: u32) -> Expr {
        // `#[attr] expr` (attributes on expressions / arm bodies).
        if self.at("#") && self.nth(1).is_some_and(|t| t.text == "[") {
            self.skip_attrs();
            return self.parse_primary(false);
        }
        if self.at2(".", ".") {
            // Leading range `..hi` / `..=hi` / bare `..`.
            self.pos += 2;
            self.eat("=");
            let hi = if self.expr_can_start() {
                Some(Box::new(self.parse_expr(5, false)))
            } else {
                None
            };
            return Expr::Range { lo: None, hi, line };
        }
        if self.at("(") {
            self.bump();
            let mut elems = Vec::new();
            let mut trailing_comma = false;
            while self.pos < self.toks.len() && !self.at(")") {
                let before = self.pos;
                elems.push(self.parse_expr(0, false));
                trailing_comma = self.eat(",");
                if !trailing_comma && !self.at(")") && self.pos == before {
                    self.bump_recover("paren");
                }
            }
            self.eat(")");
            return if elems.len() == 1 && !trailing_comma {
                elems.pop().expect("len checked")
            } else {
                Expr::Tuple { elems, line }
            };
        }
        if self.at("[") {
            self.bump();
            let mut elems = Vec::new();
            while self.pos < self.toks.len() && !self.at("]") {
                let before = self.pos;
                elems.push(self.parse_expr(0, false));
                if !self.eat(",") && !self.eat(";") && !self.at("]") && self.pos == before {
                    self.bump_recover("array");
                }
            }
            self.eat("]");
            return Expr::Array { elems, line };
        }
        if self.at("{") {
            let block = self.parse_block();
            return Expr::Block { block, line };
        }
        if self.at("|") {
            return self.parse_closure(line);
        }
        if self.at("<") {
            // Qualified path `<T as Trait>::seg::seg`.
            let generics = self.skip_angles();
            let mut segs = Vec::new();
            while self.at_colons() {
                self.pos += 2;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                    segs.push(self.bump().map(|t| t.text.clone()).unwrap_or_default());
                } else {
                    break;
                }
            }
            return Expr::Path {
                segs,
                generics,
                line,
            };
        }
        self.bump_recover("expr");
        Expr::Opaque { line }
    }

    fn parse_ident_primary(&mut self, no_struct: bool, line: u32) -> Expr {
        let text = self.peek().map(|t| t.text.clone()).unwrap_or_default();
        match text.as_str() {
            "if" => return self.parse_if(line),
            "while" => {
                self.bump();
                let (pat_idents, cond) = self.parse_cond();
                let body = self.parse_block();
                return Expr::While {
                    pat_idents,
                    cond: Box::new(cond),
                    body,
                    line,
                };
            }
            "loop" => {
                self.bump();
                let body = self.parse_block();
                return Expr::Loop { body, line };
            }
            "for" => {
                self.bump();
                let pat_idents = self.scan_pattern(|p| p.at_kw("in"));
                self.eat("in");
                let iter = self.parse_expr(0, true);
                let body = self.parse_block();
                return Expr::For {
                    pat_idents,
                    iter: Box::new(iter),
                    body,
                    line,
                };
            }
            "match" => return self.parse_match(line),
            "return" => {
                self.bump();
                let value = if self.expr_can_start() {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                return Expr::Return { value, line };
            }
            "break" => {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.bump();
                }
                let value = if self.expr_can_start() {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                return Expr::Break { value, line };
            }
            "continue" => {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.bump();
                }
                return Expr::Continue { line };
            }
            "move" => {
                self.bump();
                if self.at("|") {
                    return self.parse_closure(line);
                }
                if self.at("{") {
                    let block = self.parse_block();
                    return Expr::Block { block, line };
                }
                return Expr::Opaque { line };
            }
            "unsafe" | "async" => {
                self.bump();
                if self.at("{") {
                    let block = self.parse_block();
                    return Expr::Block { block, line };
                }
                return Expr::Opaque { line };
            }
            _ => {}
        }
        // Macro call `name!(...)` / `name![...]` / `name!{...}`.
        if self.nth(1).is_some_and(|t| t.text == "!")
            && self
                .nth(2)
                .is_some_and(|t| matches!(t.text.as_str(), "(" | "[" | "{"))
        {
            let name = text;
            self.pos += 2;
            let (open, close) = match self.peek().map(|t| t.text.as_str()) {
                Some("[") => ("[", "]"),
                Some("{") => ("{", "}"),
                _ => ("(", ")"),
            };
            let body = self.macro_body(open, close);
            return Expr::MacroCall {
                name,
                args: macro_args(body),
                line,
            };
        }
        // Path: `seg (:: seg | ::<T>)*`.
        let mut segs = vec![self.bump().map(|t| t.text.clone()).unwrap_or_default()];
        let mut generics = Vec::new();
        while self.at_colons() {
            if self.nth(2).is_some_and(|t| t.text == "<") {
                self.pos += 2;
                generics.extend(self.skip_angles());
            } else if self.nth(2).is_some_and(|t| t.kind == TokenKind::Ident) {
                self.pos += 2;
                segs.push(self.bump().map(|t| t.text.clone()).unwrap_or_default());
            } else {
                break;
            }
        }
        // Struct literal `Path { field: e, ..base }`.
        if self.at("{") && !no_struct {
            self.bump();
            let mut fields = Vec::new();
            let mut base = None;
            while self.pos < self.toks.len() && !self.at("}") {
                let before = self.pos;
                if self.at2(".", ".") {
                    self.pos += 2;
                    base = Some(Box::new(self.parse_expr(0, false)));
                } else if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                    let fname = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                    let value = if self.at_single_colon() {
                        self.bump();
                        self.parse_expr(0, false)
                    } else {
                        Expr::Path {
                            segs: vec![fname.clone()],
                            generics: Vec::new(),
                            line: self.line(),
                        }
                    };
                    fields.push((fname, value));
                }
                if !self.eat(",") && !self.at("}") && self.pos == before {
                    self.bump_recover("struct-lit");
                }
            }
            self.eat("}");
            return Expr::StructLit {
                segs,
                fields,
                base,
                line,
            };
        }
        Expr::Path {
            segs,
            generics,
            line,
        }
    }

    fn parse_if(&mut self, line: u32) -> Expr {
        self.eat("if");
        let (pat_idents, cond) = self.parse_cond();
        let then = self.parse_block();
        let else_ = if self.at_kw("else") {
            self.bump();
            let eline = self.line();
            if self.at_kw("if") {
                Some(Box::new(self.parse_if(eline)))
            } else {
                let block = self.parse_block();
                Some(Box::new(Expr::Block { block, line: eline }))
            }
        } else {
            None
        };
        Expr::If {
            pat_idents,
            cond: Box::new(cond),
            then,
            else_,
            line,
        }
    }

    /// The condition of an `if`/`while`, handling the `let pat = expr`
    /// form. Struct literals are blocked at the top level.
    fn parse_cond(&mut self) -> (Vec<String>, Expr) {
        if self.at_kw("let") {
            self.bump();
            let pat_idents = self.scan_pattern(|p| p.at("=") && !p.at2("=", "="));
            self.eat("=");
            let cond = self.parse_expr(0, true);
            (pat_idents, cond)
        } else {
            (Vec::new(), self.parse_expr(0, true))
        }
    }

    fn parse_match(&mut self, line: u32) -> Expr {
        self.eat("match");
        let scrutinee = self.parse_expr(0, true);
        let mut arms = Vec::new();
        if self.eat("{") {
            while self.pos < self.toks.len() && !self.at("}") {
                let before = self.pos;
                self.skip_attrs();
                let aline = self.line();
                let pat_idents =
                    self.scan_pattern(|p| p.at2("=", ">") || p.at_kw("if") || p.at("}"));
                let guard = if self.at_kw("if") {
                    self.bump();
                    Some(self.parse_expr(0, true))
                } else {
                    None
                };
                self.eat2("=", ">");
                let body = self.parse_expr(0, false);
                self.eat(",");
                arms.push(Arm {
                    pat_idents,
                    guard,
                    body,
                    line: aline,
                });
                if self.pos == before {
                    self.bump_recover("match-arm");
                }
            }
            self.eat("}");
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        }
    }

    fn parse_closure(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.at2("|", "|") {
            self.pos += 2;
        } else if self.eat("|") {
            while self.pos < self.toks.len() && !self.at("|") {
                let before = self.pos;
                let idents = self.scan_pattern(|p| {
                    p.at(",") || (p.at("|") && !p.at2("|", "|")) || p.at_single_colon()
                });
                if let Some(n) = idents.into_iter().next_back() {
                    params.push(n);
                }
                if self.at_single_colon() {
                    self.bump();
                    self.parse_type(|p| p.at(",") || (p.at("|") && !p.at2("|", "|")));
                }
                if !self.eat(",") && self.pos == before && !self.at("|") {
                    self.bump_recover("closure");
                }
            }
            self.eat("|");
        }
        if self.eat2("-", ">") {
            self.parse_type(|p| p.at("{"));
            let block = self.parse_block();
            return Expr::Closure {
                params,
                body: Box::new(Expr::Block { block, line }),
                line,
            };
        }
        let body = self.parse_expr(1, false);
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    /// Cast target after `as`: `[&] path [<...>]` repeated over `::`.
    fn parse_cast_type(&mut self) -> TypeRef {
        let mut ty = TypeRef::default();
        while self.at("&") {
            ty.text.push('&');
            self.bump();
            if self.eat("mut") {
                ty.text.push_str("mut");
            }
        }
        while self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
            let t = self.bump().expect("peeked");
            ty.idents.push(t.text.clone());
            ty.text.push_str(&t.text);
            if self.at_colons() {
                ty.text.push_str("::");
                self.pos += 2;
                continue;
            }
            break;
        }
        if self.at("<") {
            for id in self.skip_angles() {
                ty.idents.push(id);
            }
        }
        ty
    }

    /// Consumes a macro body (cursor on the opening delimiter) and
    /// returns the token slice inside it.
    fn macro_body(&mut self, open: &str, close: &str) -> &'a [Token] {
        if !self.eat(open) {
            return &[];
        }
        let start = self.pos;
        let mut depth = 1i32;
        while let Some(t) = self.peek() {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    let body = &self.toks[start..self.pos];
                    self.bump();
                    return body;
                }
            }
            self.bump();
        }
        &self.toks[start..self.pos]
    }
}

/// Splits a macro body on top-level `,`/`;` and keeps each segment
/// that parses cleanly as an expression.
fn macro_args(body: &[Token]) -> Vec<Expr> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut seg_start = 0usize;
    let mut k = 0usize;
    while k <= body.len() {
        let at_sep = k == body.len() || (depth == 0 && matches!(body[k].text.as_str(), "," | ";"));
        if at_sep {
            let seg = &body[seg_start..k];
            if !seg.is_empty() {
                let mut p = Parser {
                    toks: seg,
                    pos: 0,
                    recoveries: Vec::new(),
                };
                let e = p.parse_expr(0, false);
                if p.pos == seg.len() && p.recoveries.is_empty() {
                    args.push(e);
                }
            }
            seg_start = k + 1;
        } else {
            match body[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
        }
        k += 1;
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;

    fn parse_clean(src: &str) -> File {
        let f = parse(src);
        assert!(
            f.recoveries.is_empty(),
            "recoveries {:?} parsing: {src}",
            f.recoveries
        );
        f
    }

    fn only_fn(f: &File) -> &FnItem {
        fn first_in(items: &[Item]) -> Option<&FnItem> {
            for item in items {
                match item {
                    Item::Fn(func) => return Some(func),
                    Item::Impl { items: i, .. }
                    | Item::Mod { items: i, .. }
                    | Item::Trait { items: i, .. } => {
                        if let Some(func) = first_in(i) {
                            return Some(func);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        first_in(&f.items).expect("no fn parsed")
    }

    #[test]
    fn parses_fn_with_body() {
        let f = parse_clean("fn add(a: u32, b: u32) -> u32 { a + b }");
        let func = only_fn(&f);
        assert_eq!(func.name, "add");
        assert_eq!(func.params.len(), 2);
        let body = func.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn parses_method_chain_and_turbofish() {
        let f = parse_clean(
            "fn f(m: &HashMap<u64, u32>) -> Vec<u64> { \
             m.keys().copied().collect::<Vec<u64>>() }",
        );
        let func = only_fn(&f);
        let mut methods = Vec::new();
        func.body.as_ref().expect("body").walk_exprs(&mut |e| {
            if let Expr::MethodCall { name, generics, .. } = e {
                methods.push((name.clone(), generics.clone()));
            }
        });
        let names: Vec<_> = methods.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["collect", "copied", "keys"]); // outermost-first
        assert!(methods[0].1.iter().any(|g| g == "Vec"));
    }

    #[test]
    fn parses_if_let_match_loops() {
        let f = parse_clean(
            "fn f(x: Option<u32>) -> u32 {\n\
             if let Some(v) = x { v } else { 0 };\n\
             match x { Some(v) if v > 1 => v, _ => 0 };\n\
             for i in 0..10 { let _ = i; }\n\
             while x.is_some() { break; }\n\
             0 }",
        );
        let func = only_fn(&f);
        let mut kinds = Vec::new();
        func.body
            .as_ref()
            .expect("body")
            .walk_exprs(&mut |e| match e {
                Expr::If { pat_idents, .. } => kinds.push(format!("if:{}", pat_idents.join("+"))),
                Expr::Match { arms, .. } => kinds.push(format!("match:{}", arms.len())),
                Expr::For { .. } => kinds.push("for".to_string()),
                Expr::While { .. } => kinds.push("while".to_string()),
                _ => {}
            });
        assert!(kinds.contains(&"if:Some+v".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"match:2".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"for".to_string()));
        assert!(kinds.contains(&"while".to_string()));
    }

    #[test]
    fn struct_lit_blocked_in_cond() {
        // `if x == S {}` must parse the `{}` as the then-block.
        let f = parse_clean("fn f(x: u32) { if x == LIMIT { go(); } }");
        let func = only_fn(&f);
        let mut saw_if = false;
        func.body.as_ref().expect("body").walk_exprs(&mut |e| {
            if let Expr::If { then, .. } = e {
                saw_if = true;
                assert_eq!(then.stmts.len(), 1);
            }
        });
        assert!(saw_if);
    }

    #[test]
    fn parses_struct_enum_impl_alias() {
        let f = parse_clean(
            "pub struct S { pub m: HashMap<u64, u32>, n: usize }\n\
             enum E<T: Fn() -> u8> where T: Copy { A(T), B { x: u64 } }\n\
             type Cache = [HashMap<u64, Vec<u8>>; 2];\n\
             impl S { fn len(&self) -> usize { self.n } }",
        );
        let mut names = Vec::new();
        for item in &f.items {
            match item {
                Item::Struct { name, fields, .. } => {
                    names.push(name.clone());
                    assert!(fields.iter().any(|fd| fd.ty.mentions("HashMap")));
                }
                Item::Impl { type_name, .. } => names.push(format!("impl {type_name}")),
                Item::Other { .. } => names.push("other".to_string()),
                _ => {}
            }
        }
        assert_eq!(names, ["S", "other", "other", "impl S"]);
    }

    #[test]
    fn macro_args_parse_as_exprs() {
        let f = parse_clean("fn f(n: usize) { let v = vec![0u8; n]; assert_eq!(v.len(), n); }");
        let func = only_fn(&f);
        let mut macros = Vec::new();
        func.body.as_ref().expect("body").walk_exprs(&mut |e| {
            if let Expr::MacroCall { name, args, .. } = e {
                macros.push((name.clone(), args.len()));
            }
        });
        assert!(macros.contains(&("vec".to_string(), 2)), "{macros:?}");
        assert!(macros.contains(&("assert_eq".to_string(), 2)), "{macros:?}");
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let f = parse_clean(
            "fn prod() {}\n#[cfg(test)]\nmod tests { fn t() {} }\n\
             #[cfg(not(test))] fn also_prod() {}",
        );
        let mut seen = Vec::new();
        ast::for_each_fn(&f, &mut |func, in_test| {
            seen.push((func.name.clone(), in_test));
        });
        assert_eq!(
            seen,
            [
                ("prod".to_string(), false),
                ("t".to_string(), true),
                ("also_prod".to_string(), false)
            ]
        );
    }

    #[test]
    fn closures_and_ranges() {
        let f =
            parse_clean("fn f(v: &mut Vec<u32>) { v.sort_by(|a, b| a.cmp(b)); let _ = &v[1..3]; }");
        let func = only_fn(&f);
        let mut saw_closure = false;
        let mut saw_range_index = false;
        func.body
            .as_ref()
            .expect("body")
            .walk_exprs(&mut |e| match e {
                Expr::Closure { params, .. } => {
                    saw_closure = true;
                    assert_eq!(params, &["a".to_string(), "b".to_string()]);
                }
                Expr::Index { index, .. } => {
                    if matches!(index.as_ref(), Expr::Range { .. }) {
                        saw_range_index = true;
                    }
                }
                _ => {}
            });
        assert!(saw_closure && saw_range_index);
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "",
            "fn",
            "fn f(",
            "impl { }",
            "let x = ;",
            "match {",
            "(((",
            ")))",
            "fn f() { 1 + }",
            "struct S {",
            "#[",
            "x.",
            "a::",
            "fn f() { m. }",
        ] {
            let _ = parse(src);
        }
    }
}
