//! The lightweight Rust AST produced by [`crate::parser`].
//!
//! This is not a compiler-fidelity tree: types and patterns are kept
//! as flattened identifier lists ([`TypeRef`]), and generics carry
//! only the identifiers the rules care about. Expressions, however,
//! are fully structured — method chains, calls, indexing, casts,
//! control flow and closures — because that is what the dataflow pass
//! ([`crate::dataflow`]) and every v2 rule family walk.

/// A parsed source file: the items plus any parse recoveries.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Places the parser had to skip tokens it could not structure.
    /// The workspace meta-test asserts this stays empty: an analyzer
    /// that silently skips code is worse than one that fails loudly.
    pub recoveries: Vec<Recovery>,
}

/// One spot where the parser skipped a token it did not understand.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// 1-based source line of the skipped token.
    pub line: u32,
    /// Parser context, e.g. `"item"` or `"expr"`.
    pub context: &'static str,
}

/// A type annotation, kept as flattened text plus its identifiers.
#[derive(Debug, Clone, Default)]
pub struct TypeRef {
    /// The type tokens joined without whitespace (`&[u8]`, `Vec<u8>`).
    pub text: String,
    /// Every identifier appearing in the type, in order.
    pub idents: Vec<String>,
}

impl TypeRef {
    /// Whether the type mentions `name` anywhere (e.g. `HashMap`).
    pub fn mentions(&self, name: &str) -> bool {
        self.idents.iter().any(|i| i == name)
    }

    /// Whether this is a borrowed byte-slice type (`&[u8]`,
    /// `&'a [u8]`, `&mut [u8]`), the wire-input shape.
    pub fn is_byte_slice(&self) -> bool {
        self.text.starts_with('&') && self.text.ends_with("[u8]")
    }

    /// The "head" identifier naming the type: the last identifier
    /// before any generic arguments (`FlowTable` for
    /// `FlowTable<'a, K>`), else the last identifier of the path
    /// (`Reader` for `codec::Reader`). Empty for pure-punct types.
    pub fn head_ident(&self) -> String {
        match self.text.find('<') {
            Some(lt) => {
                // Count idents that appear before the `<`.
                let mut consumed = 0usize;
                let mut last = "";
                for id in &self.idents {
                    if let Some(off) = self.text[consumed..].find(id.as_str()) {
                        let at = consumed + off;
                        if at >= lt {
                            break;
                        }
                        last = id;
                        consumed = at + id.len();
                    }
                }
                last.to_string()
            }
            None => self.idents.last().cloned().unwrap_or_default(),
        }
    }
}

/// One item (top-level or nested).
#[derive(Debug)]
pub enum Item {
    /// A function (free, associated, or trait method).
    Fn(FnItem),
    /// An `impl` block; `items` are its associated items.
    Impl {
        /// Last identifier of the `Self` type (`Reader`, `FlowTable`).
        type_name: String,
        /// Whether the block is `#[cfg(test)]`-gated.
        cfg_test: bool,
        /// Associated items.
        items: Vec<Item>,
        /// 1-based line of the `impl` keyword.
        line: u32,
    },
    /// An inline module (`mod name { ... }`); `mod name;` has no items.
    Mod {
        /// Module name.
        name: String,
        /// Whether the module is `#[cfg(test)]`-gated.
        cfg_test: bool,
        /// Items inside an inline module body.
        items: Vec<Item>,
        /// 1-based line of the `mod` keyword.
        line: u32,
    },
    /// A struct definition with its field types.
    Struct {
        /// Struct name.
        name: String,
        /// Named or tuple fields (tuple fields get empty names).
        fields: Vec<FieldDef>,
        /// 1-based line.
        line: u32,
    },
    /// A trait definition with its (possibly bodiless) items.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items.
        items: Vec<Item>,
        /// 1-based line.
        line: u32,
    },
    /// A `const`/`static` with its initializer expression.
    Const {
        /// Item name.
        name: String,
        /// Declared type.
        ty: TypeRef,
        /// Initializer.
        init: Option<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// Anything rule-irrelevant (`use`, `extern crate`, `enum`, `type`
    /// aliases, item macros).
    Other {
        /// 1-based line.
        line: u32,
    },
}

/// A struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name (empty for tuple fields).
    pub name: String,
    /// Field type.
    pub ty: TypeRef,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters (including a `self` receiver, named `"self"`).
    pub params: Vec<Param>,
    /// Body; `None` for trait-method declarations.
    pub body: Option<Block>,
    /// Whether the fn itself is `#[cfg(test)]`- or `#[test]`-gated.
    pub cfg_test: bool,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name (the last identifier of the pattern).
    pub name: String,
    /// Declared type (empty for `self` receivers).
    pub ty: TypeRef,
}

/// A `{ ... }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order; the tail expression is the final
    /// [`Stmt::Expr`] with `semi == false`.
    pub stmts: Vec<Stmt>,
    /// 1-based line of the opening brace.
    pub line: u32,
    /// 1-based line of the closing brace (0 when unterminated). Gives
    /// functions a span, which the allow-target meta-test uses to
    /// prove every annotation still lands inside a real function.
    pub end_line: u32,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// A `let` binding.
    Let {
        /// Simple binding name (`let x`, `let mut x`); `None` for
        /// destructuring patterns.
        name: Option<String>,
        /// Every identifier bound or mentioned by the pattern.
        pat_idents: Vec<String>,
        /// Declared type, when annotated.
        ty: Option<TypeRef>,
        /// Initializer, when present.
        init: Option<Expr>,
        /// The `else` block of a `let ... else`.
        else_block: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement (with or without trailing `;`).
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` followed.
        semi: bool,
    },
    /// A nested item (fn, struct, const, ...).
    Item(Box<Item>),
    /// A stray `;`.
    Empty,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl BinOp {
    /// Whether this operator yields a boolean comparison — the shape
    /// the taint pass accepts as a bounds guard.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }

    /// Whether this operator is arithmetic that can overflow or grow
    /// a value (`+ - * << >>`).
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl | BinOp::Shr
        )
    }
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Identifiers mentioned by the pattern.
    pub pat_idents: Vec<String>,
    /// Arm guard (`pat if guard => ...`).
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
    /// 1-based line of the pattern start.
    pub line: u32,
}

/// An expression.
#[derive(Debug)]
pub enum Expr {
    /// A (possibly qualified) path: `x`, `self.x` is [`Expr::Field`],
    /// `a::b::c`, `Vec::<u8>::new` (turbofish idents in `generics`).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Turbofish type identifiers, if any.
        generics: Vec<String>,
        /// 1-based line.
        line: u32,
    },
    /// Any literal token (numbers, strings, chars).
    Lit {
        /// Literal text as written.
        text: String,
        /// 1-based line.
        line: u32,
    },
    /// A call `callee(args)`.
    Call {
        /// Callee expression (usually a [`Expr::Path`]).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A method call `recv.name::<T>(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Turbofish type identifiers.
        generics: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A field access `recv.name` (tuple indices keep digit names).
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name.
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// An index `recv[index]`.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression (often a [`Expr::Range`]).
        index: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A prefix unary op: `-x`, `!x`, `*x`, `&x`.
    Unary {
        /// The operator character.
        op: char,
        /// Operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `lhs = rhs` or `lhs op= rhs`.
    Assign {
        /// `None` for plain `=`, the operator for compound assigns.
        op: Option<BinOp>,
        /// Assignee.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `expr as Type`.
    Cast {
        /// Value being cast.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
        /// 1-based line.
        line: u32,
    },
    /// `lo..hi` / `lo..=hi`, either side optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `if cond { .. } else ..`; `if let` records the pattern.
    If {
        /// Pattern identifiers when this is an `if let`.
        pat_idents: Vec<String>,
        /// Condition (the scrutinee for `if let`).
        cond: Box<Expr>,
        /// Then-branch.
        then: Block,
        /// Else-branch: a [`Expr::Block`] or a chained [`Expr::If`].
        else_: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `while cond { .. }`; `while let` records the pattern.
    While {
        /// Pattern identifiers when this is a `while let`.
        pat_idents: Vec<String>,
        /// Condition (the scrutinee for `while let`).
        cond: Box<Expr>,
        /// Body.
        body: Block,
        /// 1-based line.
        line: u32,
    },
    /// `loop { .. }`.
    Loop {
        /// Body.
        body: Block,
        /// 1-based line.
        line: u32,
    },
    /// `for pat in iter { .. }`.
    For {
        /// Pattern identifiers.
        pat_idents: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
        /// 1-based line.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
        /// 1-based line.
        line: u32,
    },
    /// A block used as an expression.
    Block {
        /// The block.
        block: Block,
        /// 1-based line.
        line: u32,
    },
    /// A closure `|params| body`.
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A macro invocation `name!(...)`.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Arguments that parsed as expressions; the rest (patterns in
        /// `matches!`, format specs, ...) are dropped.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A struct literal `Path { fields, ..base }`.
    StructLit {
        /// Path segments of the struct name.
        segs: Vec<String>,
        /// Field initializers (shorthand fields repeat the name).
        fields: Vec<(String, Expr)>,
        /// The `..base` expression.
        base: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// A tuple `(a, b)`; one-element parens collapse to the inner
    /// expression and never produce this node.
    Tuple {
        /// Elements.
        elems: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// An array `[a, b]` or `[elem; len]`.
    Array {
        /// Elements (for `[elem; len]`, both expressions).
        elems: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `return expr?`.
    Return {
        /// Returned value.
        value: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `break expr?` (labels discarded).
    Break {
        /// Break value.
        value: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `continue` (labels discarded).
    Continue {
        /// 1-based line.
        line: u32,
    },
    /// Postfix `?`.
    Try {
        /// The inner expression.
        expr: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// A token the parser could not interpret as an expression.
    Opaque {
        /// 1-based line.
        line: u32,
    },
}

impl Expr {
    /// The 1-based line this expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Range { line, .. }
            | Expr::If { line, .. }
            | Expr::While { line, .. }
            | Expr::Loop { line, .. }
            | Expr::For { line, .. }
            | Expr::Match { line, .. }
            | Expr::Block { line, .. }
            | Expr::Closure { line, .. }
            | Expr::MacroCall { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Return { line, .. }
            | Expr::Break { line, .. }
            | Expr::Continue { line }
            | Expr::Try { line, .. }
            | Expr::Opaque { line } => *line,
        }
    }

    /// Strips reference/deref/try/paren-like wrappers: `&x` → `x`,
    /// `(*x)?` → `x`.
    pub fn unwrapped(&self) -> &Expr {
        match self {
            Expr::Unary { expr, .. } | Expr::Try { expr, .. } => expr.unwrapped(),
            other => other,
        }
    }

    /// Pre-order walk over this expression and every nested
    /// expression, descending into blocks, arms and closures (but not
    /// into nested [`Stmt::Item`]s — those are separate items).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Continue { .. } | Expr::Opaque { .. } => {}
            Expr::Call { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Index { recv, index, .. } => {
                recv.walk(f);
                index.walk(f);
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    e.walk(f);
                }
                if let Some(e) = hi {
                    e.walk(f);
                }
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                cond.walk(f);
                then.walk_exprs(f);
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Expr::While { cond, body, .. } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            Expr::Loop { body, .. } => body.walk_exprs(f),
            Expr::For { iter, body, .. } => {
                iter.walk(f);
                body.walk_exprs(f);
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        g.walk(f);
                    }
                    arm.body.walk(f);
                }
            }
            Expr::Block { block, .. } => block.walk_exprs(f),
            Expr::Closure { body, .. } => body.walk(f),
            Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::StructLit { fields, base, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
                if let Some(b) = base {
                    b.walk(f);
                }
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for e in elems {
                    e.walk(f);
                }
            }
            Expr::Return { value, .. } | Expr::Break { value, .. } => {
                if let Some(v) = value {
                    v.walk(f);
                }
            }
        }
    }

    /// Whether the expression mentions `name` as a path segment or
    /// field name anywhere.
    pub fn mentions(&self, name: &str) -> bool {
        let mut hit = false;
        self.walk(&mut |e| match e {
            Expr::Path { segs, .. } if segs.iter().any(|s| s == name) => hit = true,
            Expr::Field { name: n, .. } if n == name => hit = true,
            _ => {}
        });
        hit
    }
}

impl Block {
    /// Walks every expression in the block (see [`Expr::walk`]).
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                    if let Some(b) = else_block {
                        b.walk_exprs(f);
                    }
                }
                Stmt::Expr { expr, .. } => expr.walk(f),
                Stmt::Item(_) | Stmt::Empty => {}
            }
        }
    }
}

/// Calls `f` for every function in the file with `in_test` true when
/// the fn or any enclosing impl/mod is `#[cfg(test)]`-gated.
pub fn for_each_fn(file: &File, f: &mut impl FnMut(&FnItem, bool)) {
    fn items(list: &[Item], in_test: bool, f: &mut impl FnMut(&FnItem, bool)) {
        for item in list {
            match item {
                Item::Fn(func) => {
                    f(func, in_test || func.cfg_test);
                    if let Some(body) = &func.body {
                        nested(body, in_test || func.cfg_test, f);
                    }
                }
                Item::Impl {
                    cfg_test, items: i, ..
                }
                | Item::Mod {
                    cfg_test, items: i, ..
                } => items(i, in_test || *cfg_test, f),
                Item::Trait { items: i, .. } => items(i, in_test, f),
                _ => {}
            }
        }
    }
    fn nested(block: &Block, in_test: bool, f: &mut impl FnMut(&FnItem, bool)) {
        for stmt in &block.stmts {
            if let Stmt::Item(item) = stmt {
                items(std::slice::from_ref(item), in_test, f);
            }
        }
    }
    items(&file.items, false, f);
}

/// `(name, first_line, last_line)` for every function in the file,
/// including `#[cfg(test)]` ones. The span covers the signature line
/// through the body's closing brace; bodyless functions (trait
/// signatures) span their single line. Used by the allow-target
/// meta-test to prove annotations still point at live code.
pub fn fn_spans(file: &File) -> Vec<(String, u32, u32)> {
    let mut spans = Vec::new();
    for_each_fn(file, &mut |f, _| {
        let end = f
            .body
            .as_ref()
            .map(|b| b.end_line.max(f.line))
            .unwrap_or(f.line);
        spans.push((f.name.clone(), f.line, end));
    });
    spans
}
