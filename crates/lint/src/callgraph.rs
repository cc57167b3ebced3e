//! Workspace call graph over the parsed AST.
//!
//! Nodes are function declarations (free functions, inherent and trait
//! methods); edges approximate "may call". Resolution is name- and
//! receiver-hint based — good enough for this workspace's own code,
//! not a general Rust type checker:
//!
//! - `Self::f(..)` / `Type::f(..)` resolve through the owning
//!   impl/trait name;
//! - bare `f(..)` prefers a free function in the same file, falling
//!   back to every same-named free function in the workspace;
//! - `recv.m(..)` resolves when the receiver's type head is known (a
//!   `self` receiver, a typed local/param, a struct field, a
//!   constructor call, or a struct literal). An *untyped* plain
//!   receiver falls back to a workspace-unique method name; chained
//!   receivers (iterator adapters and the like) never resolve, so std
//!   methods do not alias our own.
//!
//! Node order is derived from sorted file paths plus source position,
//! never from insertion order, so two builds over shuffled inputs
//! produce identical graphs (property-tested in `tests/analyzer.rs`).
//! An iterative Tarjan pass groups recursion into SCCs and yields a
//! callee-first order for bottom-up summary propagation.

use crate::ast::{Block, Expr, File, FnItem, Item, Stmt, TypeRef};
use std::collections::BTreeMap;

/// Constructor-ish associated functions whose return type is taken to
/// be the path's owning type (`Reader::new(..) -> Reader`).
const CTOR_NAMES: &[&str] = &["new", "default", "with_capacity", "from", "build"];

/// Smart-pointer / cell wrappers peeled when deriving a receiver's
/// type head from an annotation (`Arc<Mutex<FlowTable>>` → the lock
/// methods still belong to the wrapper, but *our* methods live on
/// `FlowTable`).
const WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option",
];

/// One function declaration found in a file, with its impl/trait owner
/// (empty for free functions) and effective `#[cfg(test)]` status.
pub(crate) struct FnDecl<'a> {
    /// The function item.
    pub f: &'a FnItem,
    /// Owning impl/trait type name; empty for free fns.
    pub owner: String,
    /// True when the fn or an enclosing impl/mod is test-gated.
    pub in_test: bool,
}

/// Collects every function declaration in a file in source order,
/// tracking the owning type and test gating. The returned order is
/// the node order within the file, so it must stay deterministic.
pub(crate) fn file_fns(file: &File) -> Vec<FnDecl<'_>> {
    fn items<'a>(list: &'a [Item], owner: &str, in_test: bool, out: &mut Vec<FnDecl<'a>>) {
        for item in list {
            match item {
                Item::Fn(f) => {
                    let gated = in_test || f.cfg_test;
                    out.push(FnDecl {
                        f,
                        owner: owner.to_string(),
                        in_test: gated,
                    });
                    if let Some(body) = &f.body {
                        nested(body, gated, out);
                    }
                }
                Item::Impl {
                    type_name,
                    cfg_test,
                    items: inner,
                    ..
                } => items(inner, type_name, in_test || *cfg_test, out),
                Item::Trait {
                    name, items: inner, ..
                } => items(inner, name, in_test, out),
                Item::Mod {
                    cfg_test,
                    items: inner,
                    ..
                } => items(inner, "", in_test || *cfg_test, out),
                _ => {}
            }
        }
    }
    fn nested<'a>(block: &'a Block, in_test: bool, out: &mut Vec<FnDecl<'a>>) {
        for stmt in &block.stmts {
            if let Stmt::Item(item) = stmt {
                items(std::slice::from_ref(item), "", in_test, out);
            }
        }
    }
    let mut out = Vec::new();
    items(&file.items, "", false, &mut out);
    out
}

/// Metadata for one call-graph node.
#[derive(Debug, Clone)]
pub struct NodeMeta {
    /// Index into the *input* file list (not the sorted order).
    pub file: usize,
    /// Owning impl/trait type name; empty for free fns.
    pub owner: String,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn is (transitively) `#[cfg(test)]`-gated.
    pub in_test: bool,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
}

/// The workspace call graph. See the module docs for the resolution
/// rules; `build` is deterministic in everything except the *content*
/// of the inputs.
#[derive(Debug)]
pub struct CallGraph {
    /// Input path per input file index.
    pub paths: Vec<String>,
    /// Node metadata, in deterministic node order.
    pub nodes: Vec<NodeMeta>,
    /// Sorted, deduped callee node ids per node.
    pub callees: Vec<Vec<usize>>,
    /// SCC id per node (ids are in callee-first discovery order).
    pub scc_of: Vec<usize>,
    /// SCC member lists, callee-first; members sorted by node id.
    pub sccs: Vec<Vec<usize>>,
    /// `node_of[file][decl]` maps an input file index and declaration
    /// index (in `file_fns` order) to a node id.
    node_of: Vec<Vec<usize>>,
    /// `(owner, name)` → node ids, for `Type::f` and typed receivers.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// Free-fn name → node ids.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Method name → node ids (owner non-empty), for the unique-name
    /// fallback on untyped plain receivers.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// `(struct, field)` → declared field type.
    fields: BTreeMap<(String, String), TypeRef>,
    /// Per-node map from local/param name to its type annotation.
    locals: Vec<BTreeMap<String, TypeRef>>,
}

impl CallGraph {
    /// Builds the graph over parsed files. `paths[i]` names
    /// `files[i]`; node order follows sorted paths, then source order.
    pub fn build(paths: &[String], files: &[&File]) -> CallGraph {
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by(|&a, &b| paths[a].cmp(&paths[b]).then(a.cmp(&b)));

        let decls: Vec<Vec<FnDecl<'_>>> = files.iter().map(|f| file_fns(f)).collect();
        let mut nodes = Vec::new();
        let mut node_of: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for &fi in &order {
            for d in &decls[fi] {
                node_of[fi].push(nodes.len());
                nodes.push(NodeMeta {
                    file: fi,
                    owner: d.owner.clone(),
                    name: d.f.name.clone(),
                    line: d.f.line,
                    in_test: d.in_test,
                    has_self: d.f.params.first().is_some_and(|p| p.name == "self"),
                });
            }
        }

        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.owner.is_empty() {
                free_by_name.entry(n.name.clone()).or_default().push(id);
            } else {
                by_owner
                    .entry((n.owner.clone(), n.name.clone()))
                    .or_default()
                    .push(id);
                methods_by_name.entry(n.name.clone()).or_default().push(id);
            }
        }

        let mut fields: BTreeMap<(String, String), TypeRef> = BTreeMap::new();
        for &fi in &order {
            collect_fields(&files[fi].items, &mut fields);
        }

        let mut locals: Vec<BTreeMap<String, TypeRef>> = vec![BTreeMap::new(); nodes.len()];
        for &fi in &order {
            for (di, d) in decls[fi].iter().enumerate() {
                locals[node_of[fi][di]] = fn_locals(d.f);
            }
        }

        let mut graph = CallGraph {
            paths: paths.to_vec(),
            nodes,
            callees: Vec::new(),
            scc_of: Vec::new(),
            sccs: Vec::new(),
            node_of,
            by_owner,
            free_by_name,
            methods_by_name,
            fields,
            locals,
        };

        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
        for &fi in &order {
            for (di, d) in decls[fi].iter().enumerate() {
                let id = graph.node_of[fi][di];
                if let Some(body) = &d.f.body {
                    body.walk_exprs(&mut |e| {
                        for c in graph.call_candidates(id, e) {
                            callees[id].push(c);
                        }
                    });
                }
                callees[id].sort_unstable();
                callees[id].dedup();
            }
        }
        graph.callees = callees;
        let (scc_of, sccs) = tarjan(graph.nodes.len(), &graph.callees);
        graph.scc_of = scc_of;
        graph.sccs = sccs;
        graph
    }

    /// Node id for declaration `decl` (in [`file_fns`] order) of input
    /// file `file`.
    pub(crate) fn node_id(&self, file: usize, decl: usize) -> usize {
        self.node_of[file][decl]
    }

    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// All candidate callees of a call expression from `node`. Empty
    /// for non-call expressions and unresolvable calls.
    pub(crate) fn call_candidates(&self, node: usize, e: &Expr) -> Vec<usize> {
        match e {
            Expr::Call { callee, .. } => match callee.unwrapped() {
                Expr::Path { segs, .. } => self.path_candidates(node, segs),
                _ => Vec::new(),
            },
            Expr::MethodCall { recv, name, .. } => self.method_candidates(node, recv, name),
            _ => Vec::new(),
        }
    }

    /// The unique callee of a call expression, when resolution is
    /// unambiguous — the only form trusted for summary application.
    pub(crate) fn resolve_unique(&self, node: usize, e: &Expr) -> Option<usize> {
        let c = self.call_candidates(node, e);
        if c.len() == 1 {
            Some(c[0])
        } else {
            None
        }
    }

    fn path_candidates(&self, node: usize, segs: &[String]) -> Vec<usize> {
        let Some(name) = segs.last() else {
            return Vec::new();
        };
        if segs.len() == 1 {
            let Some(all) = self.free_by_name.get(name) else {
                return Vec::new();
            };
            let here = self.nodes[node].file;
            let same_file: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].file == here)
                .collect();
            if same_file.is_empty() {
                all.clone()
            } else {
                same_file
            }
        } else {
            let owner_seg = &segs[segs.len() - 2];
            let owner = if owner_seg == "Self" {
                self.nodes[node].owner.clone()
            } else {
                owner_seg.clone()
            };
            self.by_owner
                .get(&(owner, name.clone()))
                .cloned()
                .unwrap_or_default()
        }
    }

    fn method_candidates(&self, node: usize, recv: &Expr, name: &str) -> Vec<usize> {
        if let Some(ty) = self.recv_type_head(node, recv) {
            // A typed receiver either resolves through its owner or
            // not at all — no fallback, so `BTreeMap::insert` never
            // aliases one of ours.
            return self
                .by_owner
                .get(&(ty, name.to_string()))
                .cloned()
                .unwrap_or_default();
        }
        // Untyped *plain* receivers (a bare local or a field) may use
        // the unique-method-name fallback; chained receivers never do.
        let plain = matches!(recv.unwrapped(), Expr::Path { .. } | Expr::Field { .. });
        if !plain {
            return Vec::new();
        }
        match self.methods_by_name.get(name) {
            Some(v) if v.len() == 1 => v.clone(),
            _ => Vec::new(),
        }
    }

    /// Best-effort type head of a receiver expression: `self` → the
    /// owner, typed locals/params, struct fields, `Type::new(..)`
    /// constructor calls, struct literals. `None` when unknown.
    fn recv_type_head(&self, node: usize, recv: &Expr) -> Option<String> {
        match recv.unwrapped() {
            Expr::Path { segs, .. } if segs.len() == 1 => {
                if segs[0] == "self" {
                    let owner = &self.nodes[node].owner;
                    if owner.is_empty() {
                        None
                    } else {
                        Some(owner.clone())
                    }
                } else {
                    self.locals[node].get(&segs[0]).map(unwrapped_head)
                }
            }
            Expr::Field {
                recv: inner, name, ..
            } => {
                let owner = self.recv_type_head(node, inner)?;
                self.fields.get(&(owner, name.clone())).map(unwrapped_head)
            }
            Expr::Call { callee, .. } => match callee.unwrapped() {
                Expr::Path { segs, .. }
                    if segs.len() >= 2 && CTOR_NAMES.contains(&segs[segs.len() - 1].as_str()) =>
                {
                    Some(segs[segs.len() - 2].clone())
                }
                _ => None,
            },
            Expr::StructLit { segs, .. } => segs.last().cloned(),
            _ => None,
        }
    }

    /// Nodes in bottom-up (callee-first) order: SCCs as emitted by
    /// Tarjan, members by node id.
    pub fn bottom_up(&self) -> impl Iterator<Item = usize> + '_ {
        self.sccs.iter().flat_map(|c| c.iter().copied())
    }

    /// Deterministic closure over callees from seed nodes, skipping
    /// test-gated functions. Returns reached node → the seed root name
    /// it is hot via (first seed in node order wins).
    pub(crate) fn reach_from(&self, seeds: &[(usize, String)]) -> BTreeMap<usize, String> {
        let mut sorted: Vec<(usize, String)> = seeds.to_vec();
        sorted.sort();
        let mut hot: BTreeMap<usize, String> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for (node, root) in sorted {
            if !self.nodes[node].in_test && !hot.contains_key(&node) {
                hot.insert(node, root);
                queue.push(node);
            }
        }
        let mut at = 0;
        while at < queue.len() {
            let v = queue[at];
            at += 1;
            let root = hot.get(&v).cloned().unwrap_or_default();
            for &w in &self.callees[v] {
                if !self.nodes[w].in_test && !hot.contains_key(&w) {
                    hot.insert(w, root.clone());
                    queue.push(w);
                }
            }
        }
        hot
    }

    /// Canonical text form of the graph, independent of input order:
    /// one line per node, `path:line owner::name -> [callee labels]`.
    pub fn render(&self) -> String {
        let label = |id: usize| -> String {
            let n = &self.nodes[id];
            let owner = if n.owner.is_empty() {
                String::new()
            } else {
                format!("{}::", n.owner)
            };
            format!("{}:{}:{}{}", self.paths[n.file], n.line, owner, n.name)
        };
        let mut out = String::new();
        for id in 0..self.nodes.len() {
            out.push_str(&label(id));
            out.push_str(" ->");
            for &c in &self.callees[id] {
                out.push(' ');
                out.push_str(&label(c));
            }
            out.push('\n');
        }
        out
    }
}

/// Peels smart-pointer wrappers off a type annotation to find the
/// ident our methods would hang off: `Arc<Mutex<FlowTable>>` →
/// `FlowTable`, `Vec<u8>` → `Vec`.
fn unwrapped_head(ty: &TypeRef) -> String {
    let head = ty.head_ident();
    if WRAPPERS.contains(&head.as_str()) {
        for id in &ty.idents {
            if !WRAPPERS.contains(&id.as_str()) {
                return id.clone();
            }
        }
    }
    head
}

/// Records `(struct, field) -> type` for every named struct field,
/// walking nested modules. First declaration (in sorted path
/// order) wins on duplicates.
fn collect_fields(items: &[Item], out: &mut BTreeMap<(String, String), TypeRef>) {
    for item in items {
        match item {
            Item::Struct { name, fields, .. } => {
                for fd in fields {
                    if !fd.name.is_empty() {
                        out.entry((name.clone(), fd.name.clone()))
                            .or_insert_with(|| fd.ty.clone());
                    }
                }
            }
            Item::Impl { items: inner, .. }
            | Item::Mod { items: inner, .. }
            | Item::Trait { items: inner, .. } => collect_fields(inner, out),
            _ => {}
        }
    }
}

/// Param and `let` type annotations of a function, plus constructor
/// and struct-literal initializer hints. First binding wins, so a
/// param shadowed by a later `let` keeps its declared type — an
/// acceptable imprecision for receiver hints.
fn fn_locals(f: &FnItem) -> BTreeMap<String, TypeRef> {
    let mut map = BTreeMap::new();
    for p in &f.params {
        if p.name != "self" && !p.ty.idents.is_empty() {
            map.entry(p.name.clone()).or_insert_with(|| p.ty.clone());
        }
    }
    let record = |stmts: &[Stmt], map: &mut BTreeMap<String, TypeRef>| {
        for stmt in stmts {
            if let Stmt::Let {
                name: Some(n),
                ty,
                init,
                ..
            } = stmt
            {
                if let Some(t) = ty {
                    if !t.idents.is_empty() {
                        map.entry(n.clone()).or_insert_with(|| t.clone());
                    }
                } else if let Some(hint) = init.as_ref().and_then(init_type_hint) {
                    map.entry(n.clone()).or_insert(hint);
                }
            }
        }
    };
    if let Some(body) = &f.body {
        record(&body.stmts, &mut map);
        body.walk_exprs(&mut |e| {
            let blocks: Vec<&Block> = match e {
                Expr::If { then, else_, .. } => {
                    let mut bs = vec![then];
                    if let Some(eb) = else_ {
                        if let Expr::Block { block, .. } = eb.as_ref() {
                            bs.push(block);
                        }
                    }
                    bs
                }
                Expr::While { body, .. } | Expr::Loop { body, .. } | Expr::For { body, .. } => {
                    vec![body]
                }
                Expr::Block { block, .. } => vec![block],
                _ => Vec::new(),
            };
            for b in blocks {
                record(&b.stmts, &mut map);
            }
        });
    }
    map
}

/// Type head implied by an initializer: `Reader::new(buf)` → `Reader`,
/// `Config { .. }` → `Config`.
fn init_type_hint(init: &Expr) -> Option<TypeRef> {
    let head = match init.unwrapped() {
        Expr::Call { callee, .. } => match callee.unwrapped() {
            Expr::Path { segs, .. }
                if segs.len() >= 2 && CTOR_NAMES.contains(&segs[segs.len() - 1].as_str()) =>
            {
                Some(segs[segs.len() - 2].clone())
            }
            _ => None,
        },
        Expr::StructLit { segs, .. } => segs.last().cloned(),
        _ => None,
    }?;
    Some(TypeRef {
        text: head.clone(),
        idents: vec![head],
    })
}

/// Iterative Tarjan SCC. Returns the SCC id per node and the member
/// lists; components are emitted callee-first (every edge leaving an
/// SCC points at an earlier-emitted SCC), which is exactly the
/// bottom-up order summary propagation wants.
fn tarjan(n: usize, callees: &[Vec<usize>]) -> (Vec<usize>, Vec<Vec<usize>>) {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut scc_of = vec![0usize; n];
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        // Explicit DFS frames: (node, next-child cursor).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = frames.last() {
            if cursor == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = callees[v].get(cursor) {
                if let Some(frame) = frames.last_mut() {
                    frame.1 += 1;
                }
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    let id = sccs.len();
                    for &w in &comp {
                        scc_of[w] = id;
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    (scc_of, sccs)
}

/// Parses sources and builds the graph — the proptest entry point.
/// `sources` pairs a path label with file text.
pub fn graph_of_sources(sources: &[(String, String)]) -> CallGraph {
    let files: Vec<File> = sources
        .iter()
        .map(|(_, s)| crate::parser::parse(s))
        .collect();
    let paths: Vec<String> = sources.iter().map(|(p, _)| p.clone()).collect();
    let refs: Vec<&File> = files.iter().collect();
    CallGraph::build(&paths, &refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        graph_of_sources(&[("a.rs".to_string(), src.to_string())])
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .expect("node present")
    }

    #[test]
    fn free_fn_and_self_calls_resolve() {
        let g = graph(
            "fn helper(x: u32) -> u32 { x }\n\
             struct S;\n\
             impl S {\n\
                 fn a(&self) { self.b(); Self::c(); helper(1); }\n\
                 fn b(&self) {}\n\
                 fn c() {}\n\
             }\n",
        );
        let a = node(&g, "a");
        let want: Vec<usize> = vec![node(&g, "helper"), node(&g, "b"), node(&g, "c")]
            .into_iter()
            .collect();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(g.callees[a], want);
    }

    #[test]
    fn typed_receiver_resolves_and_std_types_do_not() {
        let g = graph(
            "struct Reader;\n\
             impl Reader { fn next(&mut self) -> u8 { 0 } }\n\
             fn go(buf: Vec<u8>) {\n\
                 let mut r = Reader::new();\n\
                 r.next();\n\
                 buf.len();\n\
             }\n",
        );
        let go = node(&g, "go");
        assert_eq!(g.callees[go], vec![node(&g, "next")]);
    }

    #[test]
    fn field_receiver_resolves_through_struct_type() {
        let g = graph(
            "struct Table;\n\
             impl Table { fn lookup(&self) {} }\n\
             struct Switch { table: Table }\n\
             impl Switch { fn frame(&self) { self.table.lookup(); } }\n",
        );
        let f = node(&g, "frame");
        assert_eq!(g.callees[f], vec![node(&g, "lookup")]);
    }

    #[test]
    fn mutual_recursion_forms_one_scc_emitted_before_caller() {
        let g = graph(
            "fn even(n: u32) -> bool { odd(n) }\n\
             fn odd(n: u32) -> bool { even(n) }\n\
             fn top() { even(2); }\n",
        );
        let (e, o, t) = (node(&g, "even"), node(&g, "odd"), node(&g, "top"));
        assert_eq!(g.scc_of[e], g.scc_of[o]);
        assert_ne!(g.scc_of[e], g.scc_of[t]);
        let order: Vec<usize> = g.bottom_up().collect();
        let pos = |x: usize| order.iter().position(|&v| v == x).expect("in order");
        assert!(pos(e) < pos(t) && pos(o) < pos(t));
    }

    #[test]
    fn chained_receiver_never_uses_unique_name_fallback() {
        let g = graph(
            "struct S;\n\
             impl S { fn count(&self) -> usize { 0 } }\n\
             fn go(v: Vec<u32>) -> usize { v.iter().count() }\n",
        );
        let go = node(&g, "go");
        assert!(g.callees[go].is_empty());
    }

    #[test]
    fn untyped_plain_receiver_uses_unique_name_fallback() {
        let g = graph(
            "struct S;\n\
             impl S { fn observe(&self) {} }\n\
             fn go(s: &S) { let x = mystery(); x.observe(); }\n",
        );
        let go = node(&g, "go");
        assert_eq!(g.callees[go], vec![node(&g, "observe")]);
    }

    #[test]
    fn insertion_order_independent() {
        let a = ("a.rs".to_string(), "fn f() { g(); }".to_string());
        let b = ("b.rs".to_string(), "fn g() {}".to_string());
        let fwd = graph_of_sources(&[a.clone(), b.clone()]);
        let rev = graph_of_sources(&[b, a]);
        assert_eq!(fwd.render(), rev.render());
    }
}
