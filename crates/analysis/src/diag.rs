//! Structured diagnostics with stable codes, the record
//! [`lint`](crate::lint::lint) reports in (DESIGN.md §10).
//!
//! Lints (`L…`) are warnings about well-typed terms whose evaluation
//! is statically known to be partially or wholly wasted. There is no
//! error level: a term that violates Fig. 1 is a
//! `aql_core::error::TypeError` from the one typechecker, never a
//! diagnostic.
//!
//! | code | meaning |
//! |------|---------|
//! | L001 | provable out-of-bounds subscript (guaranteed ⊥) |
//! | L002 | zero-extent dimension |
//! | L003 | dead conditional branch |
//! | L004 | subscript provably out of bounds by symbolic extent analysis |
//! | L005 | comprehension over a provably empty source |
//! | V001–V008 | retired: the term verifier's scope, type, arity, rank, object-type, literal-shape and primitive-arity errors (the typechecker reports each as a `TypeError`; the rewrite gate is `aql_core::check::check_rewrite`) |
//! | V010 | retired: de-Bruijn index out of range (the evaluator reports it, `EvalError::Internal`) |
//!
//! Codes are append-only and a retired code is never reused: golden
//! tests and CI greps depend on them.

use std::fmt;

/// One finding of the lint pass: a warning.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Stable code (`L001`, …); see the module table.
    pub code: &'static str,
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
        path: &[&'static str],
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic { code, path: path.join("/"), message: message.into() }
    }

    /// The one-line rendering used by `\lint`:
    /// `L002 warning: zero-extent dimension (at tab.bound)`.
    pub fn render(&self) -> String {
        if self.path.is_empty() {
            format!("{} warning: {}", self.code, self.message)
        } else {
            format!("{} warning: {} (at {})", self.code, self.message, self.path)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Canonicalize a diagnostic list for presentation: exact duplicates
/// are collapsed (first occurrence wins) and the rest keep the
/// traversal order — which *is* source order, since the walker visits
/// subterms left to right. [`crate::lint::lint`] passes its output
/// through this, so `\lint` renderings are byte-stable across runs.
pub fn normalize(ds: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen = std::collections::HashSet::new();
    ds.into_iter().filter(|d| seen.insert(d.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable() {
        let d = Diagnostic::new("L001", &["lam.body", "sub.index"], "always ⊥");
        assert_eq!(d.render(), "L001 warning: always ⊥ (at lam.body/sub.index)");
        assert_eq!(d.to_string(), d.render());
        let root = Diagnostic::new("L002", &[], "zero-extent dimension");
        assert_eq!(root.render(), "L002 warning: zero-extent dimension");
    }

    #[test]
    fn normalize_dedups_and_keeps_source_order() {
        let w1 = Diagnostic::new("L002", &["tab.bound"], "zero extent");
        let w2 = Diagnostic::new("L001", &["sub.index"], "always ⊥");
        let got = normalize(vec![w1.clone(), w2.clone(), w1.clone()]);
        assert_eq!(got, vec![w1, w2]);
    }
}
