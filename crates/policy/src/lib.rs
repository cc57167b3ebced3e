#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::indexing_slicing)]

//! **livesec-policy**: the declarative security-policy language
//! (`.lsp`) with delta compilation.
//!
//! The paper's operators express policy as a table pre-configured by
//! the administrator (§IV-A); this crate gives that table a concrete
//! surface syntax and an edit model. A `.lsp` program names user
//! groups (by MAC or attachment prefix), service chains, tenants, and
//! first-match rules over the same header fields the dataplane
//! matches on:
//!
//! ```text
//! group eng   = { 0a:0b:0c:0d:0e:01, 10.1.0.0/24 }
//! chain web   = [ ids, protoid ]
//! tenant lab  10.2.0.0/16
//! rule web-ids:  from eng proto tcp port 80 via web
//! rule no-telnet: proto tcp port 23 deny
//! rule capped:   from 10.9.0.0/24 limit 10 mbps
//! default allow
//! on app bittorrent block
//! ```
//!
//! The pipeline is deliberately total and deterministic:
//!
//! - [`parser::parse`] never panics — unknown bytes become error
//!   tokens, malformed declarations become diagnostics with stable
//!   line/column positions, and parsing recovers at the next
//!   top-level keyword.
//! - [`check::check`] resolves names (groups, chains, tenants),
//!   enforces tenant scope containment, and
//!   [`check::shadow_diags`] runs shadow/conflict analysis with the
//!   difference-of-cubes header-space algebra: a rule fully eaten by
//!   earlier rules is an error when they disagree with it, a warning
//!   when they merely repeat it.
//! - [`compile()`] lowers to the controller's [`PolicyTable`].
//! - [`diff`] turns `(old_table, new_table)` into a minimal edit
//!   script of [`PolicyDelta`]s that
//!   `Controller::apply_policy_delta` applies with class-scoped
//!   fast-pass teardown — a one-rule edit tears down only the
//!   fast-passes of flows its classes touch.

pub mod ast;
pub mod builder;
pub mod check;
pub mod compile;
pub mod delta;
pub mod diag;
pub mod lexer;
pub mod parser;

pub use builder::PolicyText;
pub use compile::{compile, CompiledPolicy, RateLimit};
pub use delta::diff;
pub use diag::{has_errors, Diag, Severity};
pub use livesec::policy::{PolicyDelta, PolicyTable};

/// Compiles old and new `.lsp` sources and diffs the results: the
/// edit script that migrates a controller running `old_src` to
/// `new_src`, plus the new compiled policy (for its rate limits and
/// warnings).
pub fn compile_delta(
    old_src: &str,
    new_src: &str,
) -> Result<(Vec<PolicyDelta>, CompiledPolicy), Vec<Diag>> {
    let old = compile(old_src)?;
    let new = compile(new_src)?;
    let deltas = diff(&old.table, &new.table);
    Ok((deltas, new))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_delta_produces_minimal_script() {
        let old = "rule a: proto tcp port 23 deny\ndefault allow\n";
        let new = "rule a: proto tcp port 23 deny\nrule b: proto udp port 69 deny\ndefault allow\n";
        let (deltas, compiled) = compile_delta(old, new).expect("compiles");
        assert_eq!(deltas.len(), 1);
        assert!(matches!(&deltas[0], PolicyDelta::Insert { index: 1, rule } if rule.name == "b"));
        assert_eq!(compiled.table.len(), 2);
        // Identical sources: empty script.
        let (none, _) = compile_delta(new, new).expect("compiles");
        assert!(none.is_empty());
    }
}
