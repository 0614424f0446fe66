//! Structured diagnostics with stable codes.
//!
//! Verifier errors (`V…`) mean the term violates the NRCA typing or
//! well-formedness rules of Fig. 1 — a term that would make the
//! evaluator produce garbage, not just ⊥. Lints (`L…`) are warnings
//! about well-typed terms whose evaluation is statically known to be
//! partially or wholly wasted.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | V001 | error    | unbound variable |
//! | V002 | error    | type mismatch |
//! | V003 | error    | projection arity violation |
//! | V004 | error    | array rank violation |
//! | V005 | error    | function value where an object type is required |
//! | V006 | error    | array literal shape mismatch |
//! | V007 | error    | primitive arity mismatch |
//! | V008 | error    | malformed tuple (arity < 2) |
//! | V010 | —        | retired: de-Bruijn index out of range (the evaluator reports it, `EvalError::Internal`) |
//! | L001 | warning  | provable out-of-bounds subscript (guaranteed ⊥) |
//! | L002 | warning  | zero-extent dimension |
//! | L003 | warning  | dead conditional branch |
//! | L004 | warning  | subscript provably out of bounds by symbolic extent analysis |
//! | L005 | warning  | comprehension over a provably empty source |
//!
//! Codes are append-only: golden tests and CI greps depend on them.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The term is ill-formed; evaluating it is meaningless.
    Error,
    /// The term is well-formed but statically wasteful or ⊥-bound.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One finding of the verifier or the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`V001`, `L001`, …); see the module table.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Path into the term, root-relative (e.g. `tab.head/sub.index`).
    /// Empty for the root.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic from a traversal path.
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        path: &[&'static str],
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic { code, severity, path: path.join("/"), message: message.into() }
    }

    /// Is this an error (as opposed to a lint warning)?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// The one-line rendering used by `\lint` and gate messages:
    /// `V001 error: unbound variable `x` (at lam.body)`.
    pub fn render(&self) -> String {
        if self.path.is_empty() {
            format!("{} {}: {}", self.code, self.severity, self.message)
        } else {
            format!("{} {}: {} (at {})", self.code, self.severity, self.message, self.path)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Canonicalize a diagnostic list for presentation: exact duplicates
/// are collapsed (first occurrence wins) and errors surface before
/// warnings, with each class keeping the traversal order — which *is*
/// source order, since the walkers visit subterms left to right. Both
/// the verifier entry points and [`crate::lint::lint_expr`] pass their
/// output through this, so `\lint` renderings are byte-stable across
/// runs.
pub fn normalize(ds: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<Diagnostic> = Vec::with_capacity(ds.len());
    for d in ds {
        if seen.insert((d.code, d.severity == Severity::Error, d.path.clone(), d.message.clone()))
        {
            out.push(d);
        }
    }
    // Stable sort: only the error/warning rank moves, source order is
    // preserved inside each class.
    out.sort_by_key(|d| !d.is_error());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable() {
        let d = Diagnostic::new(
            "V001",
            Severity::Error,
            &["lam.body", "app.fun"],
            "unbound variable `x`",
        );
        assert_eq!(d.render(), "V001 error: unbound variable `x` (at lam.body/app.fun)");
        assert_eq!(d.to_string(), d.render());
        let root = Diagnostic::new("L002", Severity::Warning, &[], "zero-extent dimension");
        assert_eq!(root.render(), "L002 warning: zero-extent dimension");
        assert!(!root.is_error());
    }

    #[test]
    fn normalize_dedups_and_orders() {
        let w1 = Diagnostic::new("L002", Severity::Warning, &["tab.bound"], "zero extent");
        let w2 = Diagnostic::new("L002", Severity::Warning, &["tab.bound"], "zero extent");
        let w3 = Diagnostic::new("L001", Severity::Warning, &["sub.index"], "always ⊥");
        let e1 = Diagnostic::new("V001", Severity::Error, &["lam.body"], "unbound `x`");
        let got = normalize(vec![w1.clone(), w2, w3.clone(), e1.clone()]);
        // Duplicate collapsed, error hoisted, warnings keep source order.
        assert_eq!(got, vec![e1, w1, w3]);
    }
}
