//! Diagnostics: stable, position-carrying messages from the lexer,
//! parser, checker and compiler.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but compilable (e.g. a redundant shadowed rule).
    Warning,
    /// The program cannot be compiled.
    Error,
}

/// One diagnostic, anchored to a source position.
///
/// Positions are 1-based line/column of the offending token (or of
/// the declaration for whole-declaration findings), and are stable:
/// the same source text always yields the same diagnostics in the
/// same order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diag {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl Diag {
    /// An error at `line`:`col`.
    pub fn error(line: u32, col: u32, message: impl Into<String>) -> Self {
        Diag {
            line,
            col,
            severity: Severity::Error,
            message: message.into(),
        }
    }

    /// A warning at `line`:`col`.
    pub fn warning(line: u32, col: u32, message: impl Into<String>) -> Self {
        Diag {
            line,
            col,
            severity: Severity::Warning,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{}:{}: {}: {}", self.line, self.col, sev, self.message)
    }
}

/// Whether any diagnostic in `diags` is an error.
pub fn has_errors(diags: &[Diag]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let d = Diag::error(3, 7, "unknown group `lab`");
        assert_eq!(d.to_string(), "3:7: error: unknown group `lab`");
        let w = Diag::warning(1, 1, "x");
        assert_eq!(w.to_string(), "1:1: warning: x");
        assert!(has_errors(&[w.clone(), d.clone()]));
        assert!(!has_errors(&[w]));
    }
}
