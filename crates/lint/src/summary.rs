//! Per-function summaries composed bottom-up over the call graph.
//!
//! Each function gets one [`Summary`]: its taint transfer (see
//! [`crate::dataflow::TaintSummary`]), the parameter bits it uses as an
//! unguarded slice index, and the locks it acquires in
//! first-acquisition order. Facts local to a body are computed first;
//! everything transitive is then propagated callee-first over the SCC
//! order from [`crate::callgraph::CallGraph`], with a monotone
//! fixpoint inside each SCC so recursion terminates.
//!
//! The summaries are what make the v3 rules inter-procedural without
//! whole-program re-scans: LS301 substitutes taint summaries at call
//! sites, LS202 reads `ret_sub`/`idx_params`, LS401 walks the hot
//! closure, and LS502 compares lock sequences across functions.

use crate::ast::{Expr, File, FnItem};
use crate::callgraph::{file_fns, CallGraph};
use crate::dataflow::{
    self, arg_for_param, iter_bits, param_bit, CalleeInfo, Oracle, TaintSummary,
};
use crate::rules;
use std::collections::BTreeSet;

/// Methods that acquire a lock on a `Mutex`/`RwLock` receiver.
const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Cap on recorded lock ids per function; deeper sequences are
/// truncated (LS502 compares pairs, so the first few dominate).
const LOCK_CAP: usize = 16;

/// One function's composable behavior.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Param-to-return / param-to-sink taint transfer.
    pub taint: TaintSummary,
    /// Param bits used as an unguarded slice index here or in a
    /// callee the param is forwarded to.
    pub idx_params: u64,
    /// Lock ids in first-acquisition order, with the acquiring line
    /// (call line when inherited from a callee).
    pub locks: Vec<(String, u32)>,
}

impl Summary {
    fn push_lock(&mut self, id: &str, line: u32) -> bool {
        if self.locks.len() >= LOCK_CAP || self.locks.iter().any(|(l, _)| l == id) {
            return false;
        }
        self.locks.push((id.to_string(), line));
        true
    }
}

/// [`Oracle`] backed by the call graph and the taint summaries
/// computed so far — the glue between `dataflow` and `callgraph`.
pub(crate) struct GraphOracle<'a> {
    pub graph: &'a CallGraph,
    pub node: usize,
    pub taints: &'a [TaintSummary],
}

impl Oracle for GraphOracle<'_> {
    fn resolve(&self, e: &Expr) -> Option<CalleeInfo<'_>> {
        let c = self.graph.resolve_unique(self.node, e)?;
        Some(CalleeInfo {
            taint: &self.taints[c],
            has_self: self.graph.nodes[c].has_self,
            name: &self.graph.nodes[c].name,
        })
    }
}

/// Computes every node's summary, bottom-up. `files` must be the same
/// slice the graph was built from.
pub(crate) fn compute(graph: &CallGraph, files: &[&File]) -> Vec<Summary> {
    let n = graph.nodes.len();
    let mut fns: Vec<Option<&FnItem>> = vec![None; n];
    for (fi, file) in files.iter().enumerate() {
        for (di, d) in file_fns(file).iter().enumerate() {
            fns[graph.node_id(fi, di)] = Some(d.f);
        }
    }

    let mut out: Vec<Summary> = vec![Summary::default(); n];
    for id in 0..n {
        if let Some(f) = fns[id] {
            out[id].idx_params = rules::unguarded_index_params(f);
        }
    }

    // Taint fixpoint: summaries join monotonically (bitwise-or), so
    // each SCC converges; single non-recursive nodes need one pass.
    let mut taints: Vec<TaintSummary> = vec![TaintSummary::default(); n];
    for comp in &graph.sccs {
        let single = comp.len() == 1 && !graph.callees[comp[0]].contains(&comp[0]);
        loop {
            let mut changed = false;
            for &v in comp {
                let Some(f) = fns[v] else { continue };
                let oracle = GraphOracle {
                    graph,
                    node: v,
                    taints: &taints,
                };
                let s = dataflow::summarize_fn(f, &oracle);
                changed |= taints[v].join(&s);
            }
            if single || !changed {
                break;
            }
        }
    }

    // Index params and lock sequences propagate over the same order;
    // their joins are monotone too (sets only grow).
    for comp in &graph.sccs {
        let single = comp.len() == 1 && !graph.callees[comp[0]].contains(&comp[0]);
        loop {
            let mut changed = false;
            for &v in comp {
                let Some(f) = fns[v] else { continue };
                changed |= flow_through_calls(graph, v, f, &mut out);
            }
            if single || !changed {
                break;
            }
        }
    }

    for (id, s) in out.iter_mut().enumerate() {
        s.taint = taints[id];
    }
    out
}

/// The lock id a receiver acquires through, when its declared type is
/// a lock: `self.a.lock()` → `a`, `mtx.write()` → `mtx`.
fn lock_id(graph: &CallGraph, node: usize, recv: &Expr) -> Option<String> {
    let is_lock = |t: &crate::ast::TypeRef| t.mentions("Mutex") || t.mentions("RwLock");
    match recv.unwrapped() {
        Expr::Path { segs, .. } if segs.len() == 1 => {
            let ty = graph.local_type(node, &segs[0])?;
            if is_lock(ty) {
                Some(segs[0].clone())
            } else {
                None
            }
        }
        Expr::Field {
            recv: inner, name, ..
        } => {
            let owner = graph.recv_type_head(node, inner)?;
            let ty = graph.field_type(&owner, name)?;
            if is_lock(ty) {
                Some(name.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// One propagation step for `node`: inherit forwarded index params
/// and lock sequences from resolved callees; record own lock
/// acquisitions in source order. Returns whether anything changed.
fn flow_through_calls(graph: &CallGraph, node: usize, f: &FnItem, out: &mut [Summary]) -> bool {
    let Some(body) = &f.body else { return false };
    let int_params: Vec<(usize, &str)> = f
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| rules::INT_TYPES.contains(&p.ty.text.as_str()))
        .map(|(i, p)| (i, p.name.as_str()))
        .collect();

    let mut guarded: BTreeSet<String> = BTreeSet::new();
    let mut idx = 0u64;
    let mut locks: Vec<(String, u32)> = Vec::new();
    body.walk_exprs(&mut |e| {
        rules::note_panic_guards(e, &mut guarded);
        if let Expr::MethodCall {
            recv, name, line, ..
        } = e
        {
            if LOCK_METHODS.contains(&name.as_str()) {
                if let Some(id) = lock_id(graph, node, recv) {
                    locks.push((id, *line));
                }
            }
        }
        let Some(c) = graph.resolve_unique(node, e) else {
            return;
        };
        let callee = &out[c];
        let (recv, args, line) = match e {
            Expr::Call { args, line, .. } => (None, args.as_slice(), *line),
            Expr::MethodCall {
                recv, args, line, ..
            } => (Some(recv.as_ref()), args.as_slice(), *line),
            _ => return,
        };
        for p in iter_bits(callee.idx_params) {
            let Some(a) = arg_for_param(p, recv, args, graph.nodes[c].has_self) else {
                continue;
            };
            if let Expr::Path { segs, .. } = a.unwrapped() {
                if segs.len() == 1 {
                    for &(i, name) in &int_params {
                        if segs[0] == name && !guarded.contains(name) {
                            idx |= param_bit(i);
                        }
                    }
                }
            }
        }
        for (id, _) in &callee.locks {
            locks.push((id.clone(), line));
        }
    });

    let s = &mut out[node];
    let mut changed = false;
    if idx & !s.idx_params != 0 {
        s.idx_params |= idx;
        changed = true;
    }
    for (id, line) in locks {
        changed |= s.push_lock(&id, line);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::graph_of_sources;
    use crate::dataflow::{param_bit, WIRE};

    fn analyze(src: &str) -> (CallGraph, Vec<Summary>) {
        let g = graph_of_sources(&[("a.rs".to_string(), src.to_string())]);
        let file = crate::parser::parse(src);
        let s = compute(&g, &[&file]);
        (g, s)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .expect("node present")
    }

    #[test]
    fn taint_composes_through_two_helpers() {
        let (g, s) = analyze(
            "fn alloc(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
             fn deep(n: usize) -> Vec<u8> { alloc(n) }\n",
        );
        let deep = node(&g, "deep");
        assert_eq!(s[deep].taint.sink_params[0], param_bit(0));
    }

    #[test]
    fn wire_source_bit_survives_composition() {
        let (g, s) = analyze(
            "fn raw(r: &mut Reader) -> u32 { r.u32() }\n\
             fn via(r: &mut Reader) -> u32 { raw(r) }\n",
        );
        assert_eq!(s[node(&g, "via")].taint.ret_mask & WIRE, WIRE);
    }

    #[test]
    fn mutual_recursion_reaches_fixpoint() {
        // The base case returns the param; the taint must then flow
        // around the cycle into *both* summaries (and the fixpoint
        // must terminate despite the mutual recursion). `odd`'s mask
        // can only come from composing `even`'s summary at the call.
        let (g, s) = analyze(
            "fn even(n: usize) -> usize { match n { 0 => n, _ => odd(n) } }\n\
             fn odd(n: usize) -> usize { even(n) }\n",
        );
        assert_eq!(s[node(&g, "even")].taint.ret_mask, param_bit(0));
        assert_eq!(s[node(&g, "odd")].taint.ret_mask, param_bit(0));
    }

    #[test]
    fn idx_params_own_and_forwarded() {
        let (g, s) = analyze(
            "fn pick(v: &[u8], i: usize) -> u8 { v[i] }\n\
             fn via(v: &[u8], j: usize) -> u8 { pick(v, j) }\n\
             fn safe(v: &[u8], j: usize) -> u8 { if j >= v.len() { return 0; } pick(v, j) }\n",
        );
        assert_eq!(s[node(&g, "pick")].idx_params, param_bit(1));
        assert_eq!(s[node(&g, "via")].idx_params, param_bit(1));
        assert_eq!(s[node(&g, "safe")].idx_params, 0);
    }

    #[test]
    fn lock_sequences_record_and_expand() {
        let (g, s) = analyze(
            "struct P { a: Mutex<u64>, b: Mutex<u64> }\n\
             impl P {\n\
                 fn fwd(&self) { let x = self.a.lock(); let y = self.b.lock(); }\n\
                 fn outer(&self) { self.fwd(); }\n\
             }\n",
        );
        let fwd = node(&g, "fwd");
        let ids: Vec<&str> = s[fwd].locks.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
        let outer = node(&g, "outer");
        let ids: Vec<&str> = s[outer].locks.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }
}
