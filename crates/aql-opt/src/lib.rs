//! # aql-opt — the AQL optimizer
//!
//! The rewrite optimizer of §5 of *Libkin, Machlin & Wong (SIGMOD
//! 1996)*: an extensible multi-phase engine over the NRCA equational
//! theory.
//!
//! The standard pipeline ([`standard`]) has three phases:
//!
//! 1. **normalize** — β/π/`let`, the set-monad laws (unit laws, union
//!    splitting, vertical & horizontal fusion, filter promotion,
//!    singleton-η), the sound Σ laws, constant folding, and the three
//!    array rules `β^p`, `η^p`, `δ^p`;
//! 2. **check-elim** — the §5 bound-check elimination rules (inside a
//!    tabulation `i_j < e_j` is true; inside a `gen(e)` loop `x < e`
//!    is true; `if`-propagation), then constant-`if` cleanup;
//! 3. **code-motion** — loop-invariant hoisting into `let` bindings,
//!    recovering sharing that full normalization inlined away.
//!
//! Phases and rules are dynamically extensible
//! ([`engine::Optimizer::add_phase`], [`engine::Phase::add_rule`]),
//! mirroring the paper's open architecture. Every rule carries its own
//! unit tests; the crate-level tests in `tests/` verify the paper's
//! §5 derivations (transpose derivability, `zip`/`subseq`
//! commutation).
//!
//! Soundness conventions follow the paper: rules that discard
//! subexpressions (`δ^p`, empty-head, equal-branch collapse, hoisting)
//! are sound for error-free programs — exactly the caveat §5 states
//! for `δ^p`.

#![warn(missing_docs)]

pub mod engine;
pub mod rules;
pub mod trace;

pub use engine::{
    Gate, OptError, Optimizer, Phase, PhaseCheck, Rule, RuleCounts, RulePanic, RunCounts,
    SoundnessViolation, Trace, TraceStep,
};
pub use rules::{normalize_and_eliminate, normalizer, standard};

/// Optimize with the standard §5 pipeline.
pub fn optimize(e: &aql_core::Expr) -> aql_core::Expr {
    standard().optimize(e)
}

/// Optimize with the standard pipeline, returning the rewrite trace.
pub fn optimize_traced(e: &aql_core::Expr) -> (aql_core::Expr, Trace) {
    standard().optimize_traced(e)
}
