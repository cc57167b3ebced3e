#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! **livesec-lint** — the workspace invariant static-analysis pass.
//!
//! The LiveSec reproduction rests on one property: the discrete-event
//! simulator is *deterministic* — same seed, byte-identical history —
//! and its controller and dataplane never panic on wire input. The
//! toolchain enforces most of that contract by itself: every hash
//! container is a `livesec_net::HashMap`/`HashSet` on `FixedState`
//! (`clippy.toml` disallows the `std` ones and `RandomState`), the
//! wall clock is disallowed the same way, the vendored `rand` has only
//! seeded constructors, and the production crates deny
//! `clippy::unwrap_used`/`expect_used`. This crate keeps only the
//! rules neither the compiler nor clippy can express. A hand-rolled
//! lexer ([`lexer`]) feeds a recursive-descent parser ([`parser`])
//! producing a lightweight AST ([`ast`]); a workspace call graph
//! ([`callgraph`]) links every function to its resolvable callees;
//! per-function summaries ([`summary`]) — taint transfer and unguarded
//! index parameters — are computed bottom-up over the graph's SCC
//! condensation; and the taint walker ([`dataflow`]) composes those
//! summaries at call sites. The rule engine ([`rules`]) analyses the
//! whole workspace at once and flags
//!
//! * **float-accum** (LS104) — float `+=` accumulation and
//!   `.sum::<f32/f64>()` in aggregation paths;
//! * **panic-path** (LS202) — slice indexes that can panic in
//!   production, *including through helpers*: unguarded subtraction
//!   (own or inside a callee whose summary subtracts from its
//!   argument) and caller-controlled integers forwarded to callees
//!   that index with them;
//! * **wire-taint** (LS301) — wire-controlled values (byte-reader
//!   results, `&[u8]` params in `openflow`/`net`) reaching
//!   allocation, indexing or amplifying arithmetic without a bounds
//!   guard — through any chain of resolvable helpers;
//! * **hot-path-alloc** (LS401) — allocation inside the packet-path
//!   hot set, derived *transitively* from the seed roots in
//!   [`HOT_SEED_ROOTS`]: everything a hot root calls is hot.
//!
//! LS000 (parse error), LS901 (bad annotation) and LS902 (unused
//! allow) keep the analysis and its escape hatch honest. Sites where a
//! rule is genuinely inapplicable carry an explicit, reasoned allow:
//!
//! ```text
//! // livesec-lint: allow(float-accum, reason = "slice order is fixed")
//! ```
//!
//! The grammar and the analyzer architecture live in `DESIGN.md` §6
//! and §13. The binary (`cargo run -p livesec-lint --release`) is a
//! tier-1 gate in `scripts/check.sh` (with `--json` archival);
//! `tests/workspace.rs` additionally asserts the live workspace passes
//! with zero unannotated findings, renders byte-identically across
//! runs, that every hot seed root and allow annotation resolves to a
//! real function, and that the parser handles 100% of workspace files
//! without recoveries.
//!
//! The pass is deliberately dependency-free: no type inference, no
//! HIR. It trades a small annotation burden for a checker that
//! builds in milliseconds and cannot drift out of sync with vendored
//! compiler internals.

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod summary;
pub mod walk;

pub use rules::{lint_source, lint_source_with, Analysis, Finding, LintOptions, Rule};

use std::path::{Path, PathBuf};

/// Crate source trees where a panic is a controller or dataplane
/// outage, so `panic-path` applies. The same four crate roots warn on
/// `clippy::unwrap_used`/`expect_used`.
const PROD_CRATE_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/switch/src",
    "crates/conntrack/src",
    // The `.lsp` compiler: a panic while compiling an operator's
    // policy edit takes down the control plane, and its parser
    // contract is total (diagnostics, never panics).
    "crates/policy/src",
];

/// Crate source trees that parse attacker-controlled wire bytes, so
/// `wire-taint` applies.
const WIRE_CRATE_DIRS: &[&str] = &["crates/openflow/src", "crates/net/src"];

/// Seed roots for `hot-path-alloc`: entry points of the per-packet
/// path (dispatch, flow lookup, conntrack state transition,
/// attestation replay). The hot *set* is derived transitively — every
/// function a seed root (or any hot function) calls is hot too — so
/// helpers extracted out of these entry points stay covered without
/// touching this table. `tests/workspace.rs` fails the build if an
/// entry goes stale.
pub const HOT_SEED_ROOTS: &[(&str, &str)] = &[
    ("crates/openflow/src/table.rs", "lookup"),
    ("crates/openflow/src/table.rs", "lookup_counting"),
    ("crates/openflow/src/table.rs", "best_candidate"),
    ("crates/openflow/src/table.rs", "peek"),
    ("crates/switch/src/as_switch.rs", "on_frame"),
    // Every hop of every frame: link model, port slot, event-queue push.
    ("crates/sim/src/world.rs", "transmit"),
    ("crates/conntrack/src/lib.rs", "observe"),
    // Every payload byte an inspecting element sees: the one scan
    // kernel (`find_all`'s collecting `Vec` lives in the wrapper).
    ("crates/services/src/aho.rs", "scan"),
    ("crates/core/src/accountability.rs", "observe"),
    ("crates/core/src/accountability.rs", "check_hop"),
    ("crates/core/src/accountability.rs", "track_chain"),
    // First-match policy lookup runs on every flow setup; the scan
    // must not allocate per decision.
    ("crates/core/src/policy.rs", "decide"),
    ("crates/core/src/policy.rs", "matches"),
];

/// The per-file lint options for a workspace path: production crates
/// get the panic-path rule, wire-parsing crates get taint tracking,
/// and files hosting hot seed roots get them as roots of the
/// transitive allocation ban.
pub fn options_for(path: &Path) -> LintOptions {
    let p = path.to_string_lossy();
    LintOptions {
        panic_path: PROD_CRATE_DIRS.iter().any(|d| p.contains(d)),
        wire_taint: WIRE_CRATE_DIRS.iter().any(|d| p.contains(d)),
        hot_fns: HOT_SEED_ROOTS
            .iter()
            .filter(|(f, _)| p.ends_with(f))
            .map(|(_, name)| name.to_string())
            .collect(),
    }
}

/// A finding tied to the file it was found in.
#[derive(Clone, Debug)]
pub struct FileFinding {
    /// Path of the offending file (as given to [`lint_files`]).
    pub path: PathBuf,
    /// The finding itself.
    pub finding: Finding,
}

impl std::fmt::Display for FileFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path.display(),
            self.finding.line,
            self.finding.rule.code(),
            self.finding.rule.name(),
            self.finding.message
        )
    }
}

/// The full result of analysing a file set: findings plus the
/// workspace-level facts `--json` prints as `LINT.json`'s last line.
#[derive(Clone, Debug)]
pub struct WorkspaceReport {
    /// All findings, sorted by path then line.
    pub findings: Vec<FileFinding>,
    /// Number of files analysed.
    pub files: usize,
    /// Number of functions in the call graph.
    pub fns: usize,
    /// Number of resolved call edges.
    pub edges: usize,
    /// The transitive hot set as `(path, function, seed root)`.
    pub hot: Vec<(String, String, String)>,
    /// Configured hot seed roots that did not resolve to a function
    /// in their file — stale table entries.
    pub missing_hot_roots: Vec<(String, String)>,
}

/// Lints every file in `paths` as ONE analysis unit: a single call
/// graph spans all of them, so summaries and the hot set cross file
/// boundaries. Unreadable files are reported as an error string
/// rather than silently skipped.
pub fn lint_files(paths: &[PathBuf]) -> Result<Vec<FileFinding>, String> {
    Ok(lint_files_report(paths)?.findings)
}

/// As [`lint_files`], but also returns the call-graph statistics and
/// hot-set provenance.
pub fn lint_files_report(paths: &[PathBuf]) -> Result<WorkspaceReport, String> {
    let mut inputs = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        inputs.push((path.to_string_lossy().into_owned(), src, options_for(path)));
    }
    let analysis = Analysis::build(inputs);
    let mut findings = Vec::new();
    for (idx, path) in paths.iter().enumerate() {
        for finding in analysis.findings(idx) {
            findings.push(FileFinding {
                path: path.clone(),
                finding,
            });
        }
    }
    Ok(WorkspaceReport {
        findings,
        files: paths.len(),
        fns: analysis.fn_count(),
        edges: analysis.edge_count(),
        hot: analysis.hot_functions(),
        missing_hot_roots: analysis.missing_hot_roots().to_vec(),
    })
}

/// Walks the workspace at `root` and lints everything, returning
/// findings sorted by path and line.
pub fn lint_workspace(root: &Path) -> Result<Vec<FileFinding>, String> {
    Ok(lint_workspace_report(root)?.findings)
}

/// Walks the workspace at `root` and analyses everything, returning
/// findings plus workspace statistics.
pub fn lint_workspace_report(root: &Path) -> Result<WorkspaceReport, String> {
    let files =
        walk::workspace_rs_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    lint_files_report(&files)
}
