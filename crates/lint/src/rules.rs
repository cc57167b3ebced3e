//! The rule families and the annotation grammar, v3: inter-procedural.
//!
//! v1 matched token patterns; v2 parsed every file into the
//! [`crate::ast`] tree and ran intra-procedural rules on it. v3 builds
//! a workspace [`Analysis`]: every file is parsed once, a call graph
//! ([`crate::callgraph`]) connects the functions, and per-function
//! summaries ([`crate::summary`]) are composed bottom-up so wire taint
//! (LS301) flows through helpers, panic paths (LS202) are caught
//! across calls, the hot set (LS401) is derived transitively from seed
//! roots, and the LS5xx concurrency-determinism family compares
//! lock-order summaries across functions. Every rule carries a stable
//! `LS*` diagnostic code for `--json` output. See `DESIGN.md` §13 for
//! the architecture and the full allow-annotation grammar.

use crate::ast::{self, BinOp, Block, Expr, File, FnItem, Item, Stmt, TypeRef};
use crate::callgraph::{self, CallGraph};
use crate::dataflow::{self, Oracle, SinkKind};
use crate::lexer::{lex, Comment, Token};
use crate::parser;
use crate::summary::{self, Summary};
use std::collections::{BTreeMap, BTreeSet};

/// The rules `livesec-lint` enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// The parser had to skip tokens it could not structure; the
    /// analyzer's view of the file is incomplete. Not allowable —
    /// fix the construct or teach the parser.
    ParseError,
    /// Iteration over a `HashMap`/`HashSet` binding whose order
    /// escapes: no in-chain ordering step, no ordered `collect`
    /// target, and no post-hoc sort of the collected result.
    UnorderedIter,
    /// Wall-clock time source (`Instant`, `SystemTime`): virtual
    /// `SimTime` is the only clock the simulator may observe.
    WallClock,
    /// Unseeded or thread-local randomness (`thread_rng`,
    /// `from_entropy`, `OsRng`, `rand::random`).
    UnseededRng,
    /// Float accumulation (`+=` with a float operand, or
    /// `.sum::<f32/f64>()`): metrics must aggregate in integers and
    /// convert to float only at the final division.
    FloatAccum,
    /// `.unwrap()` / `.expect()` outside `#[cfg(test)]` code in the
    /// production crates: one panic takes down the whole controller
    /// or dataplane. Opt-in via [`LintOptions::unwrap_in_prod`].
    UnwrapInProd,
    /// A slice index that can panic in production code: the index
    /// contains an unguarded subtraction (underflow makes a huge
    /// `usize`) or an unguarded integer parameter. Opt-in via
    /// [`LintOptions::panic_path`].
    PanicPath,
    /// A wire-controlled value (byte-reader result, `&[u8]` param)
    /// reaching an allocation, slice index, or amplifying arithmetic
    /// without a bounds guard. Opt-in via [`LintOptions::wire_taint`].
    WireTaint,
    /// Allocation in a hot function (`Vec::new`, `clone`, `to_vec`,
    /// `collect`, `format!`): the packet path must stay
    /// allocation-free. The hot set is the transitive call-graph
    /// closure of the seed roots in [`LintOptions::hot_fns`].
    HotPathAlloc,
    /// Shared mutable state a parallel executor could race on:
    /// `static mut` globals, lock-guarded fields (`Mutex`/`RwLock`),
    /// and interior mutability (`RefCell`/`Cell`) held in a field or
    /// escaping a function boundary through its return type.
    SharedMutState,
    /// Lock acquisition order inconsistent with another function's —
    /// the ABBA deadlock shape, detected by comparing per-function
    /// lock-sequence summaries (own locks plus resolved callees').
    LockOrder,
    /// Order-sensitive reduction (`fold`/`reduce`) over an unordered
    /// collection's iteration: the result depends on hash order even
    /// when each element is visited exactly once.
    UnorderedReduce,
    /// A `livesec-lint:` comment that does not parse — unknown rule
    /// name, missing or empty `reason`, or malformed syntax.
    BadAnnotation,
    /// An allow annotation that suppressed nothing; stale allows
    /// must be deleted so the escape hatch stays auditable.
    UnusedAllow,
}

impl Rule {
    /// Every rule, in code order. The CLI uses this to resolve
    /// `--rule` arguments by code or name.
    pub const ALL: &'static [Rule] = &[
        Rule::ParseError,
        Rule::UnorderedIter,
        Rule::WallClock,
        Rule::UnseededRng,
        Rule::FloatAccum,
        Rule::UnwrapInProd,
        Rule::PanicPath,
        Rule::WireTaint,
        Rule::HotPathAlloc,
        Rule::SharedMutState,
        Rule::LockOrder,
        Rule::UnorderedReduce,
        Rule::BadAnnotation,
        Rule::UnusedAllow,
    ];

    /// The kebab-case name used in reports and allow annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ParseError => "parse-error",
            Rule::UnorderedIter => "unordered-iter",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::FloatAccum => "float-accum",
            Rule::UnwrapInProd => "unwrap-in-prod",
            Rule::PanicPath => "panic-path",
            Rule::WireTaint => "wire-taint",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::SharedMutState => "shared-mut-state",
            Rule::LockOrder => "lock-order",
            Rule::UnorderedReduce => "unordered-reduce",
            Rule::BadAnnotation => "bad-annotation",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// The stable diagnostic code used in `--json` output. Codes are
    /// append-only: a code is never reused for a different rule.
    pub fn code(self) -> &'static str {
        match self {
            Rule::ParseError => "LS000",
            Rule::UnorderedIter => "LS101",
            Rule::WallClock => "LS102",
            Rule::UnseededRng => "LS103",
            Rule::FloatAccum => "LS104",
            Rule::UnwrapInProd => "LS201",
            Rule::PanicPath => "LS202",
            Rule::WireTaint => "LS301",
            Rule::HotPathAlloc => "LS401",
            Rule::SharedMutState => "LS501",
            Rule::LockOrder => "LS502",
            Rule::UnorderedReduce => "LS503",
            Rule::BadAnnotation => "LS901",
            Rule::UnusedAllow => "LS902",
        }
    }

    /// Parses an annotation rule name; only suppressible rules are
    /// legal targets of `allow(...)`. `parse-error`, `bad-annotation`
    /// and `unused-allow` are infrastructure findings and cannot be
    /// waved through.
    fn from_allow_name(s: &str) -> Option<Rule> {
        match s {
            "unordered-iter" => Some(Rule::UnorderedIter),
            "wall-clock" => Some(Rule::WallClock),
            "unseeded-rng" => Some(Rule::UnseededRng),
            "float-accum" => Some(Rule::FloatAccum),
            "unwrap-in-prod" => Some(Rule::UnwrapInProd),
            "panic-path" => Some(Rule::PanicPath),
            "wire-taint" => Some(Rule::WireTaint),
            "hot-path-alloc" => Some(Rule::HotPathAlloc),
            "shared-mut-state" => Some(Rule::SharedMutState),
            "lock-order" => Some(Rule::LockOrder),
            "unordered-reduce" => Some(Rule::UnorderedReduce),
            _ => None,
        }
    }
}

/// Per-file switches for rules that only apply to some of the
/// workspace. [`lint_source`] uses the default — every optional rule
/// off — so generic callers keep the old behavior.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Enable [`Rule::UnwrapInProd`] (production crates).
    pub unwrap_in_prod: bool,
    /// Enable [`Rule::PanicPath`] (production crates).
    pub panic_path: bool,
    /// Enable [`Rule::WireTaint`] (wire-parsing crates).
    pub wire_taint: bool,
    /// Hot *seed roots* in this file: [`Rule::HotPathAlloc`] checks
    /// these functions plus everything they transitively call. Empty
    /// contributes no roots.
    pub hot_fns: Vec<String>,
}

/// One violation in one file.
#[derive(Clone, Debug)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description with a remediation hint.
    pub message: String,
}

/// A parsed `// livesec-lint: allow(rule, reason = "...")` comment.
#[derive(Debug)]
struct Allow {
    rule: Rule,
    /// First line of code this annotation covers.
    target_line: u32,
    /// Last covered line: the same line for a trailing comment; a few
    /// lines of slack for own-line comments, so rustfmt-wrapped
    /// statements stay covered.
    target_end: u32,
    /// Where the annotation itself lives (for unused-allow reports).
    ann_line: u32,
    used: bool,
}

/// Methods whose call on an unordered collection exposes iteration
/// order to the caller.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Sort-family calls: applied downstream in the chain (or to the
/// collected result) they restore a deterministic order.
const SORTERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
];

/// Order-insensitive terminal folds: the statement's value does not
/// depend on iteration order. (`min`/`max` return the extreme *value*
/// — ties are equal values — unlike `min_by_key`/`max_by_key`, which
/// break ties by position and stay flagged.)
const ORDER_FREE_TERMINALS: &[&str] = &[
    "count", "len", "is_empty", "sum", "all", "any", "contains", "min", "max",
];

/// Collections whose `collect` target makes order irrelevant again:
/// ordered ones re-sort, unordered ones never leaked order.
const ORDER_SAFE_COLLECTS: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap", "HashMap", "HashSet"];

/// Order-sensitive reducers: applied downstream of an unordered
/// iteration they make the *value* depend on hash order (LS503).
const REDUCERS: &[&str] = &["fold", "reduce", "try_fold", "try_reduce", "scan"];

/// Wall-clock type names.
const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime"];

/// Unseeded-randomness identifiers.
const UNSEEDED_RNG_IDENTS: &[&str] = &["thread_rng", "ThreadRng", "from_entropy", "OsRng"];

/// Methods that allocate; banned in hot functions.
const HOT_ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];

/// `Type::ctor` paths that allocate; banned in hot functions.
const HOT_ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Box", "new"),
    ("VecDeque", "new"),
];

/// Macros that allocate; banned in hot functions.
const HOT_ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Integer primitive type names, for panic-path parameter tracking.
pub(crate) const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

/// Lints one file's source text with the default options (optional
/// rules off) and returns all unsuppressed findings, sorted by line
/// then rule.
pub fn lint_source(src: &str) -> Vec<Finding> {
    lint_source_with(src, &LintOptions::default())
}

/// Lints one file's source text and returns all unsuppressed
/// findings, sorted by line then rule. Builds a single-file
/// [`Analysis`], so helpers within the file still compose.
pub fn lint_source_with(src: &str, opts: &LintOptions) -> Vec<Finding> {
    let analysis = Analysis::build(vec![(
        "<memory>".to_string(),
        src.to_string(),
        opts.clone(),
    )]);
    analysis.findings(0)
}

/// One file in an [`Analysis`]: parsed once, comments and tokens kept
/// for the annotation pass.
#[derive(Debug)]
struct Unit {
    path: String,
    opts: LintOptions,
    ast: File,
    comments: Vec<Comment>,
    tokens: Vec<Token>,
}

/// Workspace-level analysis state: every file parsed once, the call
/// graph over all of them, per-function summaries, the transitive hot
/// set, and the cross-function lock-order findings. Per-file findings
/// are then extracted with [`Analysis::findings`].
#[derive(Debug)]
pub struct Analysis {
    units: Vec<Unit>,
    graph: CallGraph,
    summaries: Vec<Summary>,
    /// Hot node → the seed root name it is hot via.
    hot: BTreeMap<usize, String>,
    /// LS502 findings, pre-attributed to (unit index, finding).
    lock_findings: Vec<(usize, Finding)>,
    /// Configured hot roots that matched no non-test fn in their file.
    missing_hot_roots: Vec<(String, String)>,
}

impl Analysis {
    /// Parses and analyzes a set of `(path, source, options)` units.
    pub fn build(inputs: Vec<(String, String, LintOptions)>) -> Analysis {
        let units: Vec<Unit> = inputs
            .into_iter()
            .map(|(path, src, opts)| {
                let lexed = lex(&src);
                let ast = parser::parse_tokens(&lexed.tokens);
                Unit {
                    path,
                    opts,
                    ast,
                    comments: lexed.comments,
                    tokens: lexed.tokens,
                }
            })
            .collect();
        let paths: Vec<String> = units.iter().map(|u| u.path.clone()).collect();
        let files: Vec<&File> = units.iter().map(|u| &u.ast).collect();
        let graph = CallGraph::build(&paths, &files);
        let summaries = summary::compute(&graph, &files);

        let mut seeds: Vec<(usize, String)> = Vec::new();
        let mut missing: Vec<(String, String)> = Vec::new();
        for (fi, u) in units.iter().enumerate() {
            if u.opts.hot_fns.is_empty() {
                continue;
            }
            let decls = callgraph::file_fns(&u.ast);
            for root in &u.opts.hot_fns {
                let mut found = false;
                for (di, d) in decls.iter().enumerate() {
                    if d.f.name == *root && !d.in_test {
                        seeds.push((graph.node_id(fi, di), root.clone()));
                        found = true;
                    }
                }
                if !found {
                    missing.push((u.path.clone(), root.clone()));
                }
            }
        }
        let hot = graph.reach_from(&seeds);
        let lock_findings = lock_order_findings(&graph, &summaries);
        Analysis {
            units,
            graph,
            summaries,
            hot,
            lock_findings,
            missing_hot_roots: missing,
        }
    }

    /// Number of analyzed functions (call-graph nodes).
    pub fn fn_count(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Number of directed call-graph edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The transitive hot set as `(unit path, fn name, seed root)`.
    pub fn hot_functions(&self) -> Vec<(String, String, String)> {
        self.hot
            .iter()
            .map(|(&id, root)| {
                let n = &self.graph.nodes[id];
                (
                    self.units[n.file].path.clone(),
                    n.name.clone(),
                    root.clone(),
                )
            })
            .collect()
    }

    /// Configured hot seed roots that resolve to no non-test function
    /// in their file — stale entries a meta-test can fail on.
    pub fn missing_hot_roots(&self) -> &[(String, String)] {
        &self.missing_hot_roots
    }

    /// All unsuppressed findings of unit `idx`, sorted by line then
    /// rule.
    pub fn findings(&self, idx: usize) -> Vec<Finding> {
        let u = &self.units[idx];
        let file = &u.ast;
        let mut findings = Vec::new();
        for r in &file.recoveries {
            findings.push(Finding {
                line: r.line,
                rule: Rule::ParseError,
                message: format!(
                    "livesec-lint could not parse this construct (while parsing {}); \
                     the analyzer's view of the file is incomplete",
                    r.context
                ),
            });
        }

        check_unordered_iteration(file, &mut findings);
        check_wall_clock_and_rng(file, &mut findings);
        check_float_accum(file, &mut findings);
        check_shared_mut_state(file, &mut findings);
        let decls = callgraph::file_fns(file);
        for (di, d) in decls.iter().enumerate() {
            if d.in_test {
                continue;
            }
            let node = self.graph.node_id(idx, di);
            let ctx = InterCtx {
                graph: &self.graph,
                summaries: &self.summaries,
                node,
            };
            if u.opts.unwrap_in_prod {
                check_unwrap(d.f, &mut findings);
            }
            if u.opts.panic_path {
                check_panic_path(d.f, Some(&ctx), &mut findings);
            }
            if u.opts.wire_taint {
                check_wire_taint(d.f, &ctx, &mut findings);
            }
            if let Some(root) = self.hot.get(&node) {
                check_hot_path_alloc(d.f, root, &mut findings);
            }
        }
        for (fi, f) in &self.lock_findings {
            if *fi == idx {
                findings.push(f.clone());
            }
        }

        // Findings can be produced by more than one detector for the
        // same site (e.g. a `for` over `map.keys()`); dedupe per
        // (line, rule).
        findings.sort_by_key(|f| (f.line, f.rule));
        findings.dedup_by_key(|f| (f.line, f.rule));

        let (mut allows, mut bad) = parse_annotations(&u.comments, &u.tokens);
        findings.retain(|f| {
            if f.rule == Rule::ParseError {
                return true; // never suppressible
            }
            for a in allows.iter_mut() {
                if a.rule == f.rule && f.line >= a.target_line && f.line <= a.target_end {
                    a.used = true;
                    return false;
                }
            }
            true
        });
        for a in &allows {
            if !a.used {
                findings.push(Finding {
                    line: a.ann_line,
                    rule: Rule::UnusedAllow,
                    message: format!(
                        "allow({}) suppresses nothing on line {}; delete the stale annotation",
                        a.rule.name(),
                        a.target_line
                    ),
                });
            }
        }
        findings.append(&mut bad);
        findings.sort_by_key(|f| (f.line, f.rule));
        findings
    }
}

/// Call-graph context handed to the inter-procedural rule passes for
/// one function. Doubles as the [`Oracle`] the taint walker consults.
pub(crate) struct InterCtx<'a> {
    graph: &'a CallGraph,
    summaries: &'a [Summary],
    node: usize,
}

impl Oracle for InterCtx<'_> {
    fn resolve(&self, e: &Expr) -> Option<dataflow::CalleeInfo<'_>> {
        let c = self.graph.resolve_unique(self.node, e)?;
        Some(dataflow::CalleeInfo {
            taint: &self.summaries[c].taint,
            has_self: self.graph.nodes[c].has_self,
            name: &self.graph.nodes[c].name,
        })
    }
}

// ---------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------

/// Parses every `livesec-lint:` comment. Returns well-formed allows
/// plus findings for malformed ones.
fn parse_annotations(comments: &[Comment], toks: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are prose — they
        // may *describe* the grammar without being annotations.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("livesec-lint") else {
            continue;
        };
        let rest = &c.text[pos + "livesec-lint".len()..];
        match parse_allow_body(rest) {
            Ok(rule) => {
                // A trailing comment covers its own line; a comment on
                // its own line covers the statement starting on the
                // next code line (with slack for wrapped statements).
                let (target_line, target_end) = if c.own_line {
                    let next = toks
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line + 1);
                    (next, next + 3)
                } else {
                    (c.line, c.line)
                };
                allows.push(Allow {
                    rule,
                    target_line,
                    target_end,
                    ann_line: c.line,
                    used: false,
                });
            }
            Err(why) => bad.push(Finding {
                line: c.line,
                rule: Rule::BadAnnotation,
                message: format!(
                    "malformed livesec-lint annotation ({why}); expected \
                     `// livesec-lint: allow(<rule>, reason = \"...\")`"
                ),
            }),
        }
    }
    (allows, bad)
}

/// Parses the `: allow(rule, reason = "...")` tail of an annotation.
fn parse_allow_body(rest: &str) -> Result<Rule, String> {
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| "missing `:` after livesec-lint".to_string())?
        .trim_start();
    let rest = rest
        .strip_prefix("allow")
        .ok_or_else(|| "expected `allow`".to_string())?
        .trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after allow".to_string())?;
    let close = rest.rfind(')').ok_or_else(|| "missing `)`".to_string())?;
    let body = &rest[..close];
    let (rule_name, tail) = body
        .split_once(',')
        .ok_or_else(|| "missing `, reason = ...`".to_string())?;
    let rule = Rule::from_allow_name(rule_name.trim())
        .ok_or_else(|| format!("unknown rule `{}`", rule_name.trim()))?;
    let tail = tail.trim_start();
    let tail = tail
        .strip_prefix("reason")
        .ok_or_else(|| "expected `reason`".to_string())?
        .trim_start();
    let tail = tail
        .strip_prefix('=')
        .ok_or_else(|| "expected `=` after reason".to_string())?
        .trim_start();
    let quoted = tail
        .strip_prefix('"')
        .and_then(|t| t.rfind('"').map(|e| &t[..e]))
        .ok_or_else(|| "reason must be a quoted string".to_string())?;
    if quoted.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok(rule)
}

/// Every well-formed allow annotation in `src` as
/// `(rule name, annotation line, target line)`. Used by the meta-test
/// that pins each allow to a real statement so stale annotations fail
/// the build.
pub fn annotation_targets(src: &str) -> Vec<(String, u32, u32)> {
    let lexed = lex(src);
    let (allows, _) = parse_annotations(&lexed.comments, &lexed.tokens);
    allows
        .into_iter()
        .map(|a| (a.rule.name().to_string(), a.ann_line, a.target_line))
        .collect()
}

// ---------------------------------------------------------------------
// Unordered iteration (LS101)
// ---------------------------------------------------------------------

/// Collects the file's unordered bindings — names bound to
/// `HashMap`/`HashSet` (directly or through a local type alias) via
/// struct fields, fn params, typed lets, and lets whose initializer
/// constructs one — then checks every function body against them.
fn check_unordered_iteration(file: &File, findings: &mut Vec<Finding>) {
    // Local aliases whose target is unordered (`type Cache = HashMap<..>`).
    let mut aliases: BTreeSet<String> = BTreeSet::new();
    walk_items(&file.items, &mut |item| {
        if let Item::TypeAlias { name, ty, .. } = item {
            if ty.mentions("HashMap") || ty.mentions("HashSet") {
                aliases.insert(name.clone());
            }
        }
    });
    let unordered_ty = |ty: &TypeRef| {
        ty.mentions("HashMap")
            || ty.mentions("HashSet")
            || ty.idents.iter().any(|i| aliases.contains(i))
    };

    let mut set: BTreeSet<String> = BTreeSet::new();
    walk_items(&file.items, &mut |item| match item {
        Item::Struct { fields, .. } | Item::Enum { fields, .. } => {
            for f in fields {
                if !f.name.is_empty() && unordered_ty(&f.ty) {
                    set.insert(f.name.clone());
                }
            }
        }
        Item::Const { name, ty, .. } if unordered_ty(ty) => {
            set.insert(name.clone());
        }
        _ => {}
    });
    ast::for_each_fn(file, &mut |f, _| {
        for p in &f.params {
            if unordered_ty(&p.ty) {
                set.insert(p.name.clone());
            }
        }
        if let Some(body) = &f.body {
            collect_unordered_lets(body, &unordered_ty, &aliases, &mut set);
        }
    });

    let mut checker = UnorderedCheck {
        set: &set,
        findings,
    };
    ast::for_each_fn(file, &mut |f, _| {
        if let Some(body) = &f.body {
            checker.process_block(body);
        }
    });
}

/// Adds `let` bindings that hold an unordered collection: annotated
/// with an unordered type, or initialized from an expression that
/// names one (`HashMap::new()`, `collect::<HashMap<_, _>>()`, a local
/// alias constructor).
fn collect_unordered_lets(
    block: &Block,
    unordered_ty: &dyn Fn(&TypeRef) -> bool,
    aliases: &BTreeSet<String>,
    set: &mut BTreeSet<String>,
) {
    let mentions_unordered = |e: &Expr| {
        let mut hit = false;
        e.walk(&mut |x| {
            let names: &[String] = match x {
                Expr::Path { segs, generics, .. } => {
                    if segs
                        .iter()
                        .any(|s| s == "HashMap" || s == "HashSet" || aliases.contains(s))
                    {
                        hit = true;
                    }
                    generics
                }
                Expr::MethodCall { generics, .. } => generics,
                Expr::StructLit { segs, .. } => {
                    if segs
                        .iter()
                        .any(|s| s == "HashMap" || s == "HashSet" || aliases.contains(s))
                    {
                        hit = true;
                    }
                    &[]
                }
                _ => &[],
            };
            if names
                .iter()
                .any(|g| g == "HashMap" || g == "HashSet" || aliases.contains(g))
            {
                hit = true;
            }
        });
        hit
    };
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                name: Some(n),
                ty,
                init,
                else_block,
                ..
            } => {
                let by_ty = ty.as_ref().is_some_and(unordered_ty);
                let by_init = init.as_ref().is_some_and(&mentions_unordered);
                if by_ty || by_init {
                    set.insert(n.clone());
                }
                if let Some(e) = init {
                    collect_in_expr_blocks(e, unordered_ty, aliases, set);
                }
                if let Some(b) = else_block {
                    collect_unordered_lets(b, unordered_ty, aliases, set);
                }
            }
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    collect_in_expr_blocks(e, unordered_ty, aliases, set);
                }
            }
            Stmt::Expr { expr, .. } => collect_in_expr_blocks(expr, unordered_ty, aliases, set),
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
}

/// Recurses into the blocks nested inside an expression so `let`s in
/// branch arms and loop bodies are collected too.
fn collect_in_expr_blocks(
    e: &Expr,
    unordered_ty: &dyn Fn(&TypeRef) -> bool,
    aliases: &BTreeSet<String>,
    set: &mut BTreeSet<String>,
) {
    e.walk(&mut |x| {
        let block = match x {
            Expr::If { then, .. } => Some(then),
            Expr::While { body, .. } | Expr::Loop { body, .. } | Expr::For { body, .. } => {
                Some(body)
            }
            Expr::Block { block, .. } => Some(block),
            _ => None,
        };
        if let Some(b) = block {
            // Only the direct lets; nested blocks are reached by the
            // outer walk visiting their parent expressions.
            for stmt in &b.stmts {
                if let Stmt::Let {
                    name: Some(n),
                    ty,
                    init,
                    ..
                } = stmt
                {
                    let by_ty = ty.as_ref().is_some_and(unordered_ty);
                    let by_init = init.as_ref().is_some_and(|ie| {
                        let mut hit = false;
                        ie.walk(&mut |p| {
                            if let Expr::Path { segs, generics, .. } = p {
                                if segs.iter().chain(generics.iter()).any(|s| {
                                    s == "HashMap" || s == "HashSet" || aliases.contains(s)
                                }) {
                                    hit = true;
                                }
                            }
                        });
                        hit
                    });
                    if by_ty || by_init {
                        set.insert(n.clone());
                    }
                }
            }
        }
    });
}

/// One flagged iteration site before statement-level rescue checks.
struct IterCandidate {
    line: u32,
    binding: String,
    method: String,
    is_for: bool,
    /// The order-sensitive reducer in the chain above, if any —
    /// upgrades the finding from LS101 to LS503.
    reduce: Option<String>,
}

struct UnorderedCheck<'a> {
    set: &'a BTreeSet<String>,
    findings: &'a mut Vec<Finding>,
}

/// A step in the method chain *above* an iteration call: (name,
/// turbofish generics).
type ChainStep<'e> = (&'e str, &'e [String]);

impl UnorderedCheck<'_> {
    fn process_block(&mut self, block: &Block) {
        for (i, stmt) in block.stmts.iter().enumerate() {
            let mut candidates = Vec::new();
            let mut blocks: Vec<&Block> = Vec::new();
            match stmt {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        let mut chain = Vec::new();
                        self.scan(e, &mut chain, &mut candidates, &mut blocks);
                    }
                    if let Some(b) = else_block {
                        blocks.push(b);
                    }
                }
                Stmt::Expr { expr, .. } => {
                    let mut chain = Vec::new();
                    self.scan(expr, &mut chain, &mut candidates, &mut blocks);
                }
                Stmt::Item(_) | Stmt::Empty => {}
            }
            // Statement-level rescues for collected results:
            // `let x: BTreeMap<..> = ...collect();` and
            // `let mut v = ...collect(); v.sort();` later on.
            if !candidates.is_empty() {
                if let Stmt::Let { ty: Some(t), .. } = stmt {
                    if ORDER_SAFE_COLLECTS.iter().any(|c| t.mentions(c)) {
                        candidates.clear();
                    }
                }
            }
            if !candidates.is_empty() {
                if let Stmt::Let { name: Some(n), .. } = stmt {
                    if sorted_before_use(&block.stmts[i + 1..], n) {
                        candidates.clear();
                    }
                }
            }
            for c in candidates {
                if let Some(r) = &c.reduce {
                    self.findings.push(Finding {
                        line: c.line,
                        rule: Rule::UnorderedReduce,
                        message: format!(
                            "`{}.{}().{r}(..)` reduces in nondeterministic iteration order; \
                             fold over a BTree collection or a sorted snapshot, or use an \
                             order-insensitive accumulator and annotate why",
                            c.binding, c.method
                        ),
                    });
                    continue;
                }
                let message = if c.is_for {
                    format!(
                        "`for` over `{}` observes nondeterministic iteration order; \
                         use a BTree collection or annotate with a reason",
                        c.binding
                    )
                } else {
                    format!(
                        "iteration order of `{}.{}()` is nondeterministic; use a BTree \
                         collection, sort the result, or annotate with a reason",
                        c.binding, c.method
                    )
                };
                self.findings.push(Finding {
                    line: c.line,
                    rule: Rule::UnorderedIter,
                    message,
                });
            }
            for b in blocks {
                self.process_block(b);
            }
        }
    }

    /// Walks one statement's expression. `chain` holds the method
    /// calls applied *above* the current position (outermost first);
    /// nested blocks are deferred to [`Self::process_block`] so their
    /// statements get their own candidate handling.
    fn scan<'e>(
        &mut self,
        e: &'e Expr,
        chain: &mut Vec<ChainStep<'e>>,
        out: &mut Vec<IterCandidate>,
        blocks: &mut Vec<&'e Block>,
    ) {
        match e {
            Expr::MethodCall {
                recv,
                name,
                generics,
                args,
                ..
            } => {
                if ITER_METHODS.contains(&name.as_str()) {
                    if let Some(binding) = self.binding_of(recv) {
                        if !chain_restores(chain) {
                            let reduce = chain
                                .iter()
                                .find(|(n, _)| REDUCERS.contains(n))
                                .map(|(n, _)| n.to_string());
                            out.push(IterCandidate {
                                line: recv.unwrapped().line(),
                                binding,
                                method: name.clone(),
                                is_for: false,
                                reduce,
                            });
                        }
                    }
                }
                chain.push((name.as_str(), generics.as_slice()));
                self.scan(recv, chain, out, blocks);
                chain.pop();
                for a in args {
                    let mut fresh = Vec::new();
                    self.scan(a, &mut fresh, out, blocks);
                }
            }
            Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
                self.scan(expr, chain, out, blocks)
            }
            Expr::For { iter, body, .. } => {
                if let Some(binding) = self.binding_of(iter) {
                    out.push(IterCandidate {
                        line: iter.unwrapped().line(),
                        binding,
                        method: String::new(),
                        is_for: true,
                        reduce: None,
                    });
                }
                let mut fresh = Vec::new();
                self.scan(iter, &mut fresh, out, blocks);
                blocks.push(body);
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                let mut fresh = Vec::new();
                self.scan(cond, &mut fresh, out, blocks);
                blocks.push(then);
                if let Some(el) = else_ {
                    let mut fresh = Vec::new();
                    self.scan(el, &mut fresh, out, blocks);
                }
            }
            Expr::While { cond, body, .. } => {
                let mut fresh = Vec::new();
                self.scan(cond, &mut fresh, out, blocks);
                blocks.push(body);
            }
            Expr::Loop { body, .. } => blocks.push(body),
            Expr::Block { block, .. } => blocks.push(block),
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let mut fresh = Vec::new();
                self.scan(scrutinee, &mut fresh, out, blocks);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        let mut fresh = Vec::new();
                        self.scan(g, &mut fresh, out, blocks);
                    }
                    let mut fresh = Vec::new();
                    self.scan(&arm.body, &mut fresh, out, blocks);
                }
            }
            Expr::Closure { body, .. } => {
                let mut fresh = Vec::new();
                self.scan(body, &mut fresh, out, blocks);
            }
            other => {
                // Generic descent with fresh chains for every child.
                let mut children: Vec<&Expr> = Vec::new();
                match other {
                    Expr::Call { callee, args, .. } => {
                        children.push(callee);
                        children.extend(args.iter());
                    }
                    Expr::Field { recv, .. } => children.push(recv),
                    Expr::Index { recv, index, .. } => {
                        children.push(recv);
                        children.push(index);
                    }
                    Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                        children.push(lhs);
                        children.push(rhs);
                    }
                    Expr::Range { lo, hi, .. } => {
                        children.extend(lo.as_deref());
                        children.extend(hi.as_deref());
                    }
                    Expr::MacroCall { args, .. } => children.extend(args.iter()),
                    Expr::StructLit { fields, base, .. } => {
                        children.extend(fields.iter().map(|(_, v)| v));
                        children.extend(base.as_deref());
                    }
                    Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                        children.extend(elems.iter())
                    }
                    Expr::Return { value, .. } | Expr::Break { value, .. } => {
                        children.extend(value.as_deref())
                    }
                    _ => {}
                }
                for c in children {
                    let mut fresh = Vec::new();
                    self.scan(c, &mut fresh, out, blocks);
                }
            }
        }
    }

    /// The unordered binding an expression denotes, if any: a bare
    /// variable (`m`) or a field access of any depth (`self.m`).
    fn binding_of(&self, e: &Expr) -> Option<String> {
        match e.unwrapped() {
            Expr::Path { segs, .. } if segs.len() == 1 && self.set.contains(&segs[0]) => {
                Some(segs[0].clone())
            }
            Expr::Field { name, .. } if self.set.contains(name) => Some(name.clone()),
            _ => None,
        }
    }
}

/// Whether any chain step above the iteration re-establishes order: a
/// sorter, an order-insensitive terminal, or a `collect` whose
/// turbofish names an order-safe target.
fn chain_restores(chain: &[ChainStep]) -> bool {
    chain.iter().any(|(name, generics)| {
        SORTERS.contains(name)
            || ORDER_FREE_TERMINALS.contains(name)
            || (*name == "collect"
                && generics
                    .iter()
                    .any(|g| ORDER_SAFE_COLLECTS.contains(&g.as_str())))
    })
}

/// Whether the binding `n` is sorted by a following sibling statement
/// before any other use — the post-hoc-sort shape
/// (`let mut v = ..collect(); v.sort();`).
fn sorted_before_use(rest: &[Stmt], n: &str) -> bool {
    for stmt in rest {
        match stmt {
            Stmt::Expr { expr, .. } => {
                if let Expr::MethodCall { recv, name, .. } = expr {
                    let on_n = matches!(
                        recv.unwrapped(),
                        Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == n
                    );
                    if on_n && SORTERS.contains(&name.as_str()) {
                        return true;
                    }
                }
                if expr.mentions(n) {
                    return false;
                }
            }
            Stmt::Let { init, .. } => {
                if init.as_ref().is_some_and(|e| e.mentions(n)) {
                    return false;
                }
            }
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
    false
}

// ---------------------------------------------------------------------
// Wall clock (LS102) & unseeded RNG (LS103)
// ---------------------------------------------------------------------

/// Flags wall-clock sources and unseeded randomness, in expressions
/// and in type positions (a field of type `Instant` is as much a
/// determinism leak as a call to `Instant::now()`). Unlike v1 this
/// skips `use` statements — the use *site* is what gets flagged.
fn check_wall_clock_and_rng(file: &File, findings: &mut Vec<Finding>) {
    let mut seen_ty: Vec<(u32, String)> = Vec::new();
    for_each_type(file, &mut |ty, line| {
        for id in &ty.idents {
            if WALL_CLOCK_IDENTS.contains(&id.as_str())
                || UNSEEDED_RNG_IDENTS.contains(&id.as_str())
            {
                seen_ty.push((line, id.clone()));
            }
        }
    });
    for (line, id) in seen_ty {
        push_clock_or_rng(findings, line, &id);
    }
    for_each_expr(file, &mut |e| match e {
        Expr::Path {
            segs,
            generics,
            line,
        } => {
            for id in segs.iter().chain(generics.iter()) {
                if WALL_CLOCK_IDENTS.contains(&id.as_str())
                    || UNSEEDED_RNG_IDENTS.contains(&id.as_str())
                {
                    push_clock_or_rng(findings, *line, id);
                }
            }
            // `rand::random()` — benign `random` alone stays legal.
            if segs.windows(2).any(|w| w[0] == "rand" && w[1] == "random") {
                findings.push(Finding {
                    line: *line,
                    rule: Rule::UnseededRng,
                    message: "`random` draws unseeded randomness; all RNG must derive from \
                              the run seed"
                        .to_string(),
                });
            }
        }
        Expr::MethodCall { name, line, .. } if UNSEEDED_RNG_IDENTS.contains(&name.as_str()) => {
            push_clock_or_rng(findings, *line, name);
        }
        Expr::Cast { ty, line, .. } => {
            for id in &ty.idents {
                if WALL_CLOCK_IDENTS.contains(&id.as_str()) {
                    push_clock_or_rng(findings, *line, id);
                }
            }
        }
        _ => {}
    });
}

fn push_clock_or_rng(findings: &mut Vec<Finding>, line: u32, id: &str) {
    if WALL_CLOCK_IDENTS.contains(&id) {
        findings.push(Finding {
            line,
            rule: Rule::WallClock,
            message: format!(
                "`{id}` reads the wall clock; simulator code must use virtual SimTime"
            ),
        });
    } else {
        findings.push(Finding {
            line,
            rule: Rule::UnseededRng,
            message: format!(
                "`{id}` draws unseeded randomness; all RNG must derive from the run seed"
            ),
        });
    }
}

// ---------------------------------------------------------------------
// Float accumulation (LS104)
// ---------------------------------------------------------------------

fn check_float_accum(file: &File, findings: &mut Vec<Finding>) {
    for_each_expr(file, &mut |e| match e {
        Expr::MethodCall {
            name,
            generics,
            line,
            ..
        } if (name == "sum" || name == "product")
            && generics.iter().any(|g| g == "f32" || g == "f64") =>
        {
            let g = generics
                .iter()
                .find(|g| *g == "f32" || *g == "f64")
                .cloned()
                .unwrap_or_default();
            findings.push(Finding {
                line: *line,
                rule: Rule::FloatAccum,
                message: format!(
                    "`.{name}::<{g}>()` accumulates floats whose result depends on \
                     order and rounding; aggregate in integers and divide once"
                ),
            });
        }
        Expr::Assign {
            op: Some(BinOp::Add),
            rhs,
            line,
            ..
        } => {
            let mut float = false;
            rhs.walk(&mut |x| match x {
                Expr::Cast { ty, .. } if ty.mentions("f32") || ty.mentions("f64") => float = true,
                Expr::Lit { text, .. } if is_float_literal(text) => float = true,
                Expr::Path { segs, .. } if segs.iter().any(|s| s == "f32" || s == "f64") => {
                    float = true
                }
                _ => {}
            });
            if float {
                findings.push(Finding {
                    line: *line,
                    rule: Rule::FloatAccum,
                    message: "float `+=` accumulation is order- and rounding-sensitive; \
                              aggregate in integers and divide once"
                        .to_string(),
                });
            }
        }
        _ => {}
    });
}

fn is_float_literal(s: &str) -> bool {
    s.ends_with("f32")
        || s.ends_with("f64")
        || (s.contains('.') && s.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

// ---------------------------------------------------------------------
// Unwrap in prod (LS201)
// ---------------------------------------------------------------------

fn check_unwrap(f: &FnItem, findings: &mut Vec<Finding>) {
    let Some(body) = &f.body else { return };
    body.walk_exprs(&mut |e| {
        if let Expr::MethodCall {
            name, line, args, ..
        } = e
        {
            // `Result::expect`/`Option::expect` take exactly one
            // argument; a two-plus-argument `.expect(..)` is some
            // other method (e.g. a parser's token check) and cannot
            // panic through this path.
            if name == "unwrap" && args.is_empty() || name == "expect" && args.len() == 1 {
                findings.push(Finding {
                    line: *line,
                    rule: Rule::UnwrapInProd,
                    message: format!(
                        "`.{name}()` in production code panics the whole controller/dataplane \
                         on the unexpected case; handle it, or annotate why it is infallible"
                    ),
                });
            }
        }
    });
}

// ---------------------------------------------------------------------
// Panic path (LS202)
// ---------------------------------------------------------------------

/// Flags slice indexing that can panic in production: an index whose
/// expression contains an unguarded subtraction (usize underflow
/// yields a huge index) or mentions an unguarded integer parameter
/// (the caller controls it). A preceding comparison or
/// `is_empty`/`len` check over the involved variables sanitizes them,
/// as do `%`, `.min()` and `.clamp()` inside the index itself.
///
/// With an [`InterCtx`], two cross-function shapes are caught too: an
/// index built from a callee that subtracts from its argument without
/// a guard (`v[prev(i)]`), and an unguarded integer parameter passed
/// to a callee that uses it as an unguarded index.
fn check_panic_path(f: &FnItem, ctx: Option<&InterCtx>, findings: &mut Vec<Finding>) {
    let Some(body) = &f.body else { return };
    let int_params: BTreeSet<String> = f
        .params
        .iter()
        .filter(|p| INT_TYPES.contains(&p.ty.text.as_str()))
        .map(|p| p.name.clone())
        .collect();
    let mut guarded: BTreeSet<String> = BTreeSet::new();
    // Forward pass in source order: guards seen earlier sanitize
    // later indexes. walk_exprs visits parents before children and
    // statements in order, which is close enough to evaluation order
    // for guard-before-use code.
    body.walk_exprs(&mut |e| {
        note_panic_guards(e, &mut guarded);
        match e {
            Expr::Index { index, line, .. } => {
                if let Some(why) = index_panic_risk(index, &int_params, &guarded) {
                    findings.push(Finding {
                        line: *line,
                        rule: Rule::PanicPath,
                        message: format!(
                            "slice index {why}; guard it, use `.get()`, or annotate why it \
                             cannot panic"
                        ),
                    });
                } else if let Some(ctx) = ctx {
                    if let Some((callee, var)) = call_sub_risk(index, ctx, &guarded) {
                        findings.push(Finding {
                            line: *line,
                            rule: Rule::PanicPath,
                            message: format!(
                                "slice index uses the result of `{callee}`, which subtracts \
                                 from its argument without a guard; underflow yields a huge \
                                 usize — guard `{var}` (or the call), use `.get()`, or \
                                 annotate why it cannot panic"
                            ),
                        });
                    }
                }
            }
            Expr::Call { .. } | Expr::MethodCall { .. } => {
                if let Some(ctx) = ctx {
                    check_call_idx_passthrough(e, ctx, &int_params, &guarded, findings);
                }
            }
            _ => {}
        }
    });
}

/// Guard-tracking step shared by LS202 and the summary pass: records
/// comparison operands and length-check condition variables into the
/// guarded set.
pub(crate) fn note_panic_guards(e: &Expr, guarded: &mut BTreeSet<String>) {
    match e {
        Expr::Binary { op, lhs, rhs, .. } if op.is_comparison() => {
            record_vars(lhs, guarded);
            record_vars(rhs, guarded);
        }
        Expr::If { cond, .. } | Expr::While { cond, .. } => {
            // `if v.is_empty() { return }` / `if let` guards.
            let mut bounded = false;
            cond.walk(&mut |x| {
                if let Expr::MethodCall { name, .. } = x {
                    if name == "is_empty" || name == "len" || name == "contains_key" {
                        bounded = true;
                    }
                }
            });
            if bounded {
                record_vars(cond, guarded);
            }
        }
        _ => {}
    }
}

/// Whether an index expression calls a function whose summary says it
/// performs an unguarded subtraction on an argument that is itself
/// unguarded here. Returns `(callee name, offending variable)`.
fn call_sub_risk(
    index: &Expr,
    ctx: &InterCtx,
    guarded: &BTreeSet<String>,
) -> Option<(String, String)> {
    let mut hit: Option<(String, String)> = None;
    index.walk(&mut |e| {
        if hit.is_some() || !matches!(e, Expr::Call { .. } | Expr::MethodCall { .. }) {
            return;
        }
        let Some(c) = ctx.graph.resolve_unique(ctx.node, e) else {
            return;
        };
        let sub = ctx.summaries[c].taint.ret_sub;
        if sub == 0 {
            return;
        }
        let (recv, args) = match e {
            Expr::Call { args, .. } => (None, args.as_slice()),
            Expr::MethodCall { recv, args, .. } => (Some(recv.as_ref()), args.as_slice()),
            _ => return,
        };
        for p in dataflow::iter_bits(sub) {
            let Some(a) = dataflow::arg_for_param(p, recv, args, ctx.graph.nodes[c].has_self)
            else {
                continue;
            };
            let mut vars = BTreeSet::new();
            record_vars(a, &mut vars);
            if let Some(v) = vars.iter().find(|v| !guarded.contains(*v)) {
                hit = Some((ctx.graph.nodes[c].name.clone(), v.clone()));
                return;
            }
        }
    });
    hit
}

/// Flags an unguarded integer parameter forwarded to a callee whose
/// summary says it lands in an unguarded slice index.
fn check_call_idx_passthrough(
    e: &Expr,
    ctx: &InterCtx,
    int_params: &BTreeSet<String>,
    guarded: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let Some(c) = ctx.graph.resolve_unique(ctx.node, e) else {
        return;
    };
    let idx = ctx.summaries[c].idx_params;
    if idx == 0 {
        return;
    }
    let (recv, args, line) = match e {
        Expr::Call { args, line, .. } => (None, args.as_slice(), *line),
        Expr::MethodCall {
            recv, args, line, ..
        } => (Some(recv.as_ref()), args.as_slice(), *line),
        _ => return,
    };
    for p in dataflow::iter_bits(idx) {
        let Some(a) = dataflow::arg_for_param(p, recv, args, ctx.graph.nodes[c].has_self) else {
            continue;
        };
        if let Expr::Path { segs, .. } = a.unwrapped() {
            if segs.len() == 1 && int_params.contains(&segs[0]) && !guarded.contains(&segs[0]) {
                findings.push(Finding {
                    line,
                    rule: Rule::PanicPath,
                    message: format!(
                        "caller-controlled `{}` is passed to `{}`, which uses it as an \
                         unguarded slice index; bounds-check it first, or annotate why it \
                         cannot panic",
                        segs[0], ctx.graph.nodes[c].name
                    ),
                });
            }
        }
    }
}

/// Param bits of `f` used as an unguarded slice index — the
/// per-function fact behind the cross-function half of LS202,
/// computed for every node by the summary pass.
pub(crate) fn unguarded_index_params(f: &FnItem) -> u64 {
    let Some(body) = &f.body else { return 0 };
    let int_params: Vec<(usize, &str)> = f
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| INT_TYPES.contains(&p.ty.text.as_str()))
        .map(|(i, p)| (i, p.name.as_str()))
        .collect();
    if int_params.is_empty() {
        return 0;
    }
    let mut guarded: BTreeSet<String> = BTreeSet::new();
    let mut singleton: BTreeSet<String> = BTreeSet::new();
    let mut bits = 0u64;
    body.walk_exprs(&mut |e| {
        note_panic_guards(e, &mut guarded);
        if let Expr::Index { index, .. } = e {
            for &(i, name) in &int_params {
                if guarded.contains(name) || !index.mentions(name) {
                    continue;
                }
                singleton.clear();
                singleton.insert(name.to_string());
                if index_panic_risk(index, &singleton, &guarded).is_some() {
                    bits |= dataflow::param_bit(i);
                }
            }
        }
    });
    bits
}

/// Records every simple variable and field name an expression
/// mentions into the guarded set.
fn record_vars(e: &Expr, guarded: &mut BTreeSet<String>) {
    e.walk(&mut |x| match x {
        Expr::Path { segs, .. } if segs.len() == 1 => {
            guarded.insert(segs[0].clone());
        }
        Expr::Field { name, .. } => {
            guarded.insert(name.clone());
        }
        _ => {}
    });
}

/// Why an index expression is a panic risk, or `None` when it carries
/// bounding evidence.
fn index_panic_risk(
    index: &Expr,
    int_params: &BTreeSet<String>,
    guarded: &BTreeSet<String>,
) -> Option<&'static str> {
    let idx = index.unwrapped();
    if matches!(idx, Expr::Lit { .. }) {
        return None;
    }
    // Bounding evidence inside the index itself.
    let mut bounded = false;
    let mut has_sub = false;
    let mut vars: BTreeSet<String> = BTreeSet::new();
    idx.walk(&mut |x| match x {
        Expr::Binary { op, .. } => match op {
            BinOp::Rem => bounded = true,
            BinOp::Sub => has_sub = true,
            _ => {}
        },
        Expr::MethodCall { name, .. }
            if name == "min" || name == "clamp" || name.starts_with("saturating_") =>
        {
            bounded = true;
        }
        Expr::Path { segs, .. } if segs.len() == 1 => {
            vars.insert(segs[0].clone());
        }
        Expr::Field { name, .. } => {
            vars.insert(name.clone());
        }
        _ => {}
    });
    if bounded {
        return None;
    }
    let all_guarded = !vars.is_empty() && vars.iter().all(|v| guarded.contains(v));
    if has_sub && !all_guarded {
        return Some("contains a subtraction that can underflow to a huge usize");
    }
    let unguarded_param = vars
        .iter()
        .any(|v| int_params.contains(v) && !guarded.contains(v));
    if unguarded_param {
        return Some("uses a caller-controlled integer parameter without a bounds check");
    }
    None
}

// ---------------------------------------------------------------------
// Wire taint (LS301)
// ---------------------------------------------------------------------

fn check_wire_taint(f: &FnItem, oracle: &dyn Oracle, findings: &mut Vec<Finding>) {
    let wire_sinks = dataflow::function_flow(f, oracle, true)
        .sinks
        .into_iter()
        .filter(|s| s.mask & dataflow::WIRE != 0);
    for sink in wire_sinks {
        let hint = match sink.kind {
            SinkKind::Capacity => {
                "clamp the length against the reader's remaining bytes (`.min(remaining)`) \
                 before allocating"
            }
            SinkKind::Index => "bounds-check the value against the buffer length first",
            SinkKind::Arith => "use checked_/saturating_ arithmetic or clamp the operand first",
        };
        findings.push(Finding {
            line: sink.line,
            rule: Rule::WireTaint,
            message: format!("{}; {hint}", sink.what),
        });
    }
}

// ---------------------------------------------------------------------
// Hot-path allocation (LS401)
// ---------------------------------------------------------------------

/// `root` is the seed root the function is hot via; when it differs
/// from the function's own name the message carries the provenance,
/// since the function itself is nowhere in the configured seed list.
fn check_hot_path_alloc(f: &FnItem, root: &str, findings: &mut Vec<Finding>) {
    let Some(body) = &f.body else { return };
    let via = if root == f.name {
        String::new()
    } else {
        format!(" (hot via seed root `{root}`)")
    };
    body.walk_exprs(&mut |e| match e {
        Expr::MethodCall { name, line, .. } if HOT_ALLOC_METHODS.contains(&name.as_str()) => {
            findings.push(Finding {
                line: *line,
                rule: Rule::HotPathAlloc,
                message: format!(
                    "`.{name}()` allocates inside hot function `{}`{via}; the packet path \
                     must stay allocation-free — borrow, reuse a buffer, or annotate why \
                     this is cold",
                    f.name
                ),
            });
        }
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.len() >= 2 {
                    let pair = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                    if HOT_ALLOC_CTORS
                        .iter()
                        .any(|(t, m)| pair.0 == t && pair.1 == m)
                    {
                        findings.push(Finding {
                            line: *line,
                            rule: Rule::HotPathAlloc,
                            message: format!(
                                "`{}::{}` allocates inside hot function `{}`{via}; the \
                                 packet path must stay allocation-free",
                                pair.0, pair.1, f.name
                            ),
                        });
                    }
                }
            }
        }
        Expr::MacroCall { name, line, .. } if HOT_ALLOC_MACROS.contains(&name.as_str()) => {
            findings.push(Finding {
                line: *line,
                rule: Rule::HotPathAlloc,
                message: format!(
                    "`{name}!` allocates inside hot function `{}`{via}; the packet path \
                     must stay allocation-free",
                    f.name
                ),
            });
        }
        _ => {}
    });
}

// ---------------------------------------------------------------------
// Shared mutable state (LS501)
// ---------------------------------------------------------------------

/// Interior-mutability wrappers a parallel executor must not share.
const INTERIOR_MUT: &[&str] = &["Mutex", "RwLock", "RefCell", "Cell"];

/// Flags the shapes a parallel data plane could race on: `static mut`
/// globals, lock-guarded fields, interior-mutability cells in fields,
/// and functions handing interior-mutable state across their boundary
/// via the return type. Test-gated items are exempt.
fn check_shared_mut_state(file: &File, findings: &mut Vec<Finding>) {
    fn walk(items: &[Item], in_test: bool, findings: &mut Vec<Finding>) {
        for item in items {
            match item {
                Item::Const {
                    name,
                    mutable: true,
                    line,
                    ..
                } if !in_test => {
                    findings.push(Finding {
                        line: *line,
                        rule: Rule::SharedMutState,
                        message: format!(
                            "`static mut {name}` is shared mutable state with no merge \
                             discipline; use per-worker state merged in a fixed order, or \
                             annotate why it stays single-threaded"
                        ),
                    });
                }
                Item::Struct { name, fields, .. } | Item::Enum { name, fields, .. } if !in_test => {
                    for fd in fields {
                        let label = if fd.name.is_empty() {
                            name.clone()
                        } else {
                            format!("{name}.{}", fd.name)
                        };
                        if fd.ty.mentions("Mutex") || fd.ty.mentions("RwLock") {
                            findings.push(Finding {
                                line: fd.line,
                                rule: Rule::SharedMutState,
                                message: format!(
                                    "field `{label}` holds lock-guarded shared state \
                                     (`{}`); lock winners serialize nondeterministically — \
                                     shard state per worker and merge in a fixed order, or \
                                     annotate why contention cannot happen",
                                    fd.ty.text
                                ),
                            });
                        } else if fd.ty.mentions("RefCell") || fd.ty.mentions("Cell") {
                            findings.push(Finding {
                                line: fd.line,
                                rule: Rule::SharedMutState,
                                message: format!(
                                    "field `{label}` carries interior mutability (`{}`); \
                                     mutation through shared references defeats the \
                                     single-writer discipline — own the state or annotate \
                                     the merge order",
                                    fd.ty.text
                                ),
                            });
                        }
                    }
                }
                Item::Fn(f) => {
                    let gated = in_test || f.cfg_test;
                    if !gated {
                        if let Some(ret) = &f.ret {
                            if INTERIOR_MUT.iter().any(|t| ret.mentions(t)) {
                                findings.push(Finding {
                                    line: f.line,
                                    rule: Rule::SharedMutState,
                                    message: format!(
                                        "`{}` returns interior-mutable state (`{}`), letting \
                                         shared mutability escape the function boundary; \
                                         return owned data, or annotate the merge discipline",
                                        f.name, ret.text
                                    ),
                                });
                            }
                        }
                    }
                    if let Some(body) = &f.body {
                        for stmt in &body.stmts {
                            if let Stmt::Item(item) = stmt {
                                walk(std::slice::from_ref(item), gated, findings);
                            }
                        }
                    }
                }
                Item::Impl {
                    cfg_test,
                    items: inner,
                    ..
                }
                | Item::Mod {
                    cfg_test,
                    items: inner,
                    ..
                } => walk(inner, in_test || *cfg_test, findings),
                Item::Trait { items: inner, .. } => walk(inner, in_test, findings),
                _ => {}
            }
        }
    }
    walk(&file.items, false, findings);
}

// ---------------------------------------------------------------------
// Lock order (LS502)
// ---------------------------------------------------------------------

/// Compares every function's lock-acquisition sequence (from its
/// summary: own locks plus resolved callees', in order) against every
/// other's. The first function in node order to acquire a pair fixes
/// the global order; a later function acquiring the same pair in the
/// opposite order is an LS502 finding at the line completing the
/// inversion. Findings are attributed to `(unit index, finding)`.
fn lock_order_findings(graph: &CallGraph, summaries: &[Summary]) -> Vec<(usize, Finding)> {
    let mut first: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let locks = &summaries[id].locks;
        for i in 0..locks.len() {
            for j in i + 1..locks.len() {
                let (a, b) = (&locks[i], &locks[j]);
                if let Some(&other) = first.get(&(b.0.clone(), a.0.clone())) {
                    if other != id {
                        let o = &graph.nodes[other];
                        out.push((
                            node.file,
                            Finding {
                                line: b.1,
                                rule: Rule::LockOrder,
                                message: format!(
                                    "`{}` acquires lock `{}` after `{}`, but `{}` (line {}) \
                                     acquires them in the opposite order; pick one global \
                                     acquisition order",
                                    node.name, b.0, a.0, o.name, o.line
                                ),
                            },
                        ));
                    }
                } else {
                    first.entry((a.0.clone(), b.0.clone())).or_insert(id);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Shared walkers
// ---------------------------------------------------------------------

/// Calls `f` on every item, recursing into impl/mod/trait bodies and
/// items nested in function bodies.
fn walk_items(items: &[Item], f: &mut impl FnMut(&Item)) {
    for item in items {
        f(item);
        match item {
            Item::Impl { items, .. } | Item::Mod { items, .. } | Item::Trait { items, .. } => {
                walk_items(items, f)
            }
            Item::Fn(func) => {
                if let Some(body) = &func.body {
                    walk_block_items(body, f);
                }
            }
            _ => {}
        }
    }
}

fn walk_block_items(block: &Block, f: &mut impl FnMut(&Item)) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            walk_items(std::slice::from_ref(item), f);
        }
    }
}

/// Calls `f` on every expression in the file: function bodies and
/// const/static initializers.
fn for_each_expr(file: &File, f: &mut impl FnMut(&Expr)) {
    walk_items(&file.items, &mut |item| match item {
        Item::Fn(func) => {
            if let Some(body) = &func.body {
                body.walk_exprs(f);
            }
        }
        Item::Const {
            init: Some(init), ..
        } => init.walk(f),
        _ => {}
    });
}

/// Calls `f` on every type annotation in the file with its line:
/// struct/enum fields, fn params and returns, lets, aliases, consts.
fn for_each_type(file: &File, f: &mut impl FnMut(&TypeRef, u32)) {
    walk_items(&file.items, &mut |item| match item {
        Item::Struct { fields, .. } | Item::Enum { fields, .. } => {
            for fd in fields {
                f(&fd.ty, fd.line);
            }
        }
        Item::TypeAlias { name: _, ty, line } => f(ty, *line),
        Item::Const { ty, line, .. } => f(ty, *line),
        Item::Fn(func) => {
            for p in &func.params {
                f(&p.ty, func.line);
            }
            if let Some(r) = &func.ret {
                f(r, func.line);
            }
            if let Some(body) = &func.body {
                walk_let_types(body, f);
            }
        }
        _ => {}
    });
}

fn walk_let_types(block: &Block, f: &mut impl FnMut(&TypeRef, u32)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                ty,
                init,
                else_block,
                line,
                ..
            } => {
                if let Some(t) = ty {
                    f(t, *line);
                }
                if let Some(e) = init {
                    walk_expr_blocks_for_lets(e, f);
                }
                if let Some(b) = else_block {
                    walk_let_types(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr_blocks_for_lets(expr, f),
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
}

fn walk_expr_blocks_for_lets(e: &Expr, f: &mut impl FnMut(&TypeRef, u32)) {
    e.walk(&mut |x| {
        let block = match x {
            Expr::If { then, .. } => Some(then),
            Expr::While { body, .. } | Expr::Loop { body, .. } | Expr::For { body, .. } => {
                Some(body)
            }
            Expr::Block { block, .. } => Some(block),
            _ => None,
        };
        if let Some(b) = block {
            for stmt in &b.stmts {
                if let Stmt::Let {
                    ty: Some(t), line, ..
                } = stmt
                {
                    f(t, *line);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<&'static str> {
        lint_source(src).iter().map(|f| f.rule.name()).collect()
    }

    fn rules_with(src: &str, opts: &LintOptions) -> Vec<&'static str> {
        lint_source_with(src, opts)
            .iter()
            .map(|f| f.rule.name())
            .collect()
    }

    #[test]
    fn flags_hashmap_field_iteration() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   impl S { fn f(&self) { for (k, v) in &self.m { emit(k, v); } } }";
        assert_eq!(rules_of(src), ["unordered-iter"]);
    }

    #[test]
    fn flags_method_chain_without_order() {
        let src = "fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                   let v: Vec<u64> = m.keys().copied().collect();\nv }";
        assert_eq!(rules_of(src), ["unordered-iter"]);
    }

    #[test]
    fn sorted_in_statement_passes() {
        let src = "fn f(m: &HashMap<u64, u32>) { \
                   let mut v: Vec<_> = m.keys().collect(); }";
        assert_eq!(rules_of(src).len(), 1);
        let ok = "fn f(m: &HashMap<u64, u32>) -> u32 { m.values().copied().sum() }";
        assert!(rules_of(ok).is_empty());
        let ok2 = "fn f(m: &HashMap<u64, u32>) -> BTreeMap<u64, u32> { \
                   m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u64, u32>>() }";
        assert!(rules_of(ok2).is_empty());
    }

    #[test]
    fn post_hoc_sort_rescues_collect() {
        // The v1 false-positive shape: collect to a Vec, sort on the
        // next statement. v2 sees the sort and stays quiet.
        let src = "fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                   let mut v: Vec<u64> = m.keys().copied().collect();\n\
                   v.sort_unstable();\nv }";
        assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
        // But using it before sorting does not rescue.
        let bad = "fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                   let mut v: Vec<u64> = m.keys().copied().collect();\n\
                   emit(&v);\nv.sort_unstable();\nv }";
        assert_eq!(rules_of(bad), ["unordered-iter"]);
    }

    #[test]
    fn safe_collect_via_let_type_annotation() {
        let src = "fn f(m: &HashMap<u64, u32>) {\n\
                   let b: BTreeSet<u64> = m.keys().copied().collect();\nuse_it(&b); }";
        assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
    }

    #[test]
    fn type_alias_resolves_to_unordered() {
        let src = "type Cache = HashMap<u64, Vec<u8>>;\n\
                   fn f(c: &Cache) { for k in c.keys() { emit(k); } }";
        assert_eq!(rules_of(src), ["unordered-iter"]);
    }

    #[test]
    fn iter_in_call_arg_is_flagged() {
        let src = "fn f(m: &HashMap<u64, u32>, out: &mut Vec<u64>) {\n\
                   out.extend(m.keys()); }";
        assert_eq!(rules_of(src), ["unordered-iter"]);
    }

    #[test]
    fn btreemap_is_clean() {
        let src = "struct S { m: BTreeMap<u64, u32> }\n\
                   impl S { fn f(&self) { for (k, v) in &self.m { emit(k, v); } } }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   impl S { fn f(&self) -> usize {\n\
                   // livesec-lint: allow(unordered-iter, reason = \"order-free fold\")\n\
                   let mut n = 0; for _ in self.m.drain() { n += 1; } n } }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src = "struct S { m: HashSet<u32> }\nimpl S { fn f(&mut self) {\n\
                   self.m.retain(|x| *x > 1); // livesec-lint: allow(unordered-iter, reason = \"set-wise\")\n} }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "// livesec-lint: allow(wall-clock)\nlet t = Instant::now();";
        let r = rules_of(src);
        assert!(r.contains(&"bad-annotation"));
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "fn f() {\n// livesec-lint: allow(wall-clock, reason = \"no clock here\")\nlet x = 1;\nuse_it(x); }";
        assert_eq!(rules_of(src), ["unused-allow"]);
    }

    #[test]
    fn wall_clock_and_rng() {
        assert_eq!(
            rules_of("fn f() { let t = Instant::now(); }"),
            ["wall-clock"]
        );
        assert_eq!(
            rules_of("fn f() { let t = SystemTime::now(); }"),
            ["wall-clock"]
        );
        assert_eq!(
            rules_of("fn f() { let r = thread_rng(); }"),
            ["unseeded-rng"]
        );
        assert_eq!(
            rules_of("fn f() { let r = StdRng::from_entropy(); }"),
            ["unseeded-rng"]
        );
        assert_eq!(
            rules_of("fn f() { let x: u8 = rand::random(); }"),
            ["unseeded-rng"]
        );
        assert!(rules_of("fn f() { let r = StdRng::seed_from_u64(7); }").is_empty());
    }

    #[test]
    fn wall_clock_in_type_position() {
        assert_eq!(rules_of("struct S { started: Instant }"), ["wall-clock"]);
    }

    #[test]
    fn float_accum() {
        assert_eq!(
            rules_of("fn f(xs: &[u64]) { let mut t = 0.0; for x in xs { t += *x as f64; } }"),
            ["float-accum"]
        );
        assert_eq!(
            rules_of("fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }"),
            ["float-accum"]
        );
        assert!(
            rules_of("fn f(xs: &[u64]) -> u64 { let mut t = 0; for x in xs { t += x; } t }")
                .is_empty()
        );
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        assert!(rules_of(
            "// Instant::now() would be wrong here\nfn f() { let s = \"thread_rng\"; }"
        )
        .is_empty());
    }

    #[test]
    fn unwrap_in_prod_is_cfg_test_aware() {
        let opts = LintOptions {
            unwrap_in_prod: true,
            ..Default::default()
        };
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn t(x: Option<u32>) -> u32 { x.unwrap() } }";
        assert_eq!(rules_with(src, &opts), ["unwrap-in-prod"]);
        let expect_src = "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }";
        assert_eq!(rules_with(expect_src, &opts), ["unwrap-in-prod"]);
    }

    #[test]
    fn panic_path_flags_unguarded_sub_and_param() {
        let opts = LintOptions {
            panic_path: true,
            ..Default::default()
        };
        let sub = "fn f(v: &[u8], n: usize) -> u8 { v[n - 1] }";
        assert_eq!(rules_with(sub, &opts), ["panic-path"]);
        let param = "struct S { ports: Vec<u32> }\n\
                     impl S { fn get(&self, port: usize) -> u32 { self.ports[port] } }";
        assert_eq!(rules_with(param, &opts), ["panic-path"]);
    }

    #[test]
    fn panic_path_guards_rescue() {
        let opts = LintOptions {
            panic_path: true,
            ..Default::default()
        };
        let guarded = "fn f(v: &[u8], n: usize) -> u8 {\n\
                       if n == 0 || n > v.len() { return 0; }\nv[n - 1] }";
        assert!(rules_with(guarded, &opts).is_empty());
        let modulo = "fn f(v: &[u8], n: usize) -> u8 { v[n % v.len()] }";
        assert!(rules_with(modulo, &opts).is_empty());
        let clamped = "fn f(v: &[u8], n: usize) -> u8 { v[n.min(v.len() - 1)] }";
        assert!(rules_with(clamped, &opts).is_empty());
    }

    #[test]
    fn wire_taint_flags_prefix_length_alloc() {
        let opts = LintOptions {
            wire_taint: true,
            ..Default::default()
        };
        // The pre-hardening openflow::codec shape: a wire-read length
        // sizing an allocation with no remaining-bytes clamp.
        let src = "fn get_actions(r: &mut Reader) -> Vec<Action> {\n\
                   let n = r.u32() as usize;\n\
                   let mut out = Vec::with_capacity(n);\nout }";
        assert_eq!(rules_with(src, &opts), ["wire-taint"]);
        let fixed = "fn get_actions(r: &mut Reader) -> Vec<Action> {\n\
                     let n = (r.u32() as usize).min(r.remaining());\n\
                     let mut out = Vec::with_capacity(n);\nout }";
        assert!(rules_with(fixed, &opts).is_empty());
    }

    #[test]
    fn hot_path_alloc_flags_configured_fn_only() {
        let opts = LintOptions {
            hot_fns: vec!["lookup".to_string()],
            ..Default::default()
        };
        let src = "impl T {\n\
                   fn lookup(&self) -> Vec<u32> { self.entries.clone() }\n\
                   fn rebuild(&self) -> Vec<u32> { self.entries.clone() }\n}";
        assert_eq!(rules_with(src, &opts), ["hot-path-alloc"]);
    }

    #[test]
    fn rule_codes_are_stable() {
        assert_eq!(Rule::ParseError.code(), "LS000");
        assert_eq!(Rule::UnorderedIter.code(), "LS101");
        assert_eq!(Rule::WireTaint.code(), "LS301");
        assert_eq!(Rule::HotPathAlloc.code(), "LS401");
        assert_eq!(Rule::UnusedAllow.code(), "LS902");
    }

    #[test]
    fn parse_error_is_not_suppressible() {
        // An allow cannot name parse-error at all (bad-annotation),
        // and recoveries surface regardless.
        let src = "// livesec-lint: allow(parse-error, reason = \"nope\")\nfn f() {}";
        let r = rules_of(src);
        assert!(r.contains(&"bad-annotation"), "{r:?}");
    }

    // -----------------------------------------------------------------
    // v3: inter-procedural passes and the LS5xx family
    // -----------------------------------------------------------------

    fn prod_opts() -> LintOptions {
        LintOptions {
            unwrap_in_prod: true,
            panic_path: true,
            wire_taint: true,
            hot_fns: vec!["hot".to_string()],
        }
    }

    /// v2-regression proof for LS202: run the panic-path check the way
    /// v2 did — no oracle — over the inter-procedural fixture. The
    /// cross-function shapes must be invisible without summaries and
    /// caught with them.
    #[test]
    fn panic_path_cross_fn_requires_the_oracle() {
        let src = include_str!("../tests/fixtures/panic_path_interproc_bad.rs");
        let parsed = parser::parse(src);
        let mut v2 = Vec::new();
        for d in callgraph::file_fns(&parsed) {
            // `get_at` has its own intra-procedural finding; the two
            // cross-function callers must be silent under v2.
            if d.f.name == "last" || d.f.name == "pick" {
                check_panic_path(d.f, None, &mut v2);
            }
        }
        assert!(
            v2.is_empty(),
            "v2 unexpectedly caught cross-fn shapes: {v2:?}"
        );
        let v3: Vec<u32> = lint_source_with(src, &prod_opts())
            .into_iter()
            .filter(|f| f.rule == Rule::PanicPath)
            .map(|f| f.line)
            .collect();
        assert!(v3.len() >= 3, "v3 missed cross-fn panic paths: {v3:?}");
    }

    #[test]
    fn shared_mut_state_shapes() {
        let src = "static mut HITS: u64 = 0;\n\
                   struct S {\n\
                   m: Mutex<u32>,\n\
                   c: Cell<u8>,\n\
                   ok: u32,\n\
                   }\n\
                   fn leak() -> RwLock<u32> { RwLock::new(0) }\n\
                   fn fine() -> u32 { 0 }";
        let lines: Vec<u32> = lint_source(src)
            .into_iter()
            .filter(|f| f.rule == Rule::SharedMutState)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [1, 3, 4, 7]);
    }

    #[test]
    fn shared_mut_state_is_test_gated() {
        let src = "#[cfg(test)]\nmod tests { static mut HOOK: u64 = 0;\n\
                   struct P { c: RefCell<u32> } }";
        assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
    }

    #[test]
    fn lock_order_inversion_across_functions() {
        let src = "struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl P {\n\
                   fn fwd(&self) { let x = self.a.lock(); let y = self.b.lock(); }\n\
                   fn rev(&self) { let y = self.b.lock(); let x = self.a.lock(); }\n\
                   }";
        let locks: Vec<u32> = lint_source(src)
            .into_iter()
            .filter(|f| f.rule == Rule::LockOrder)
            .map(|f| f.line)
            .collect();
        assert_eq!(locks, [4]);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl P {\n\
                   fn fwd(&self) { let x = self.a.lock(); let y = self.b.lock(); }\n\
                   fn fwd2(&self) { let x = self.a.lock(); let y = self.b.lock(); }\n\
                   }";
        assert!(lint_source(src).iter().all(|f| f.rule != Rule::LockOrder));
    }

    #[test]
    fn unordered_reduce_fires_instead_of_unordered_iter() {
        let src = "fn f(m: &HashMap<u64, u32>) -> u32 {\n\
                   m.values().fold(0, |a, b| (a << 1) ^ *b) }";
        assert_eq!(rules_of(src), ["unordered-reduce"]);
    }

    #[test]
    fn hot_alloc_provenance_names_the_seed_root() {
        let src = "fn hot(x: u32) -> u32 { helper(x) }\n\
                   fn helper(x: u32) -> u32 { let v = vec![x]; v.len() as u32 }";
        let f = lint_source_with(src, &prod_opts())
            .into_iter()
            .find(|f| f.rule == Rule::HotPathAlloc)
            .expect("transitive hot finding");
        assert!(
            f.message.contains("hot via seed root `hot`"),
            "{}",
            f.message
        );
    }
}
