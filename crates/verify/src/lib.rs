//! # aql-verify — static analysis for NRCA terms
//!
//! The optimizer of §5 is a rewrite system whose whole contract is
//! *type and semantics preservation*; this crate supplies the machine
//! checks behind that contract:
//!
//! * a **term verifier** ([`verify_expr`] / [`verify_open`]) — a fast,
//!   unification-free pass over the named AST that re-derives types
//!   bottom-up on a compatibility lattice (`Any` ⊑ everything) and
//!   reports structured [`Diagnostic`]s for scope errors, type
//!   mismatches, and arity/rank violations;
//! * a **rewrite-soundness check** ([`check_rewrite`]) — the per-fire
//!   half of the `aql-opt` gate: given the redex and the contractum of
//!   a rule application, rejects rewrites that introduce unbound
//!   variables, produce internally inconsistent terms, or change the
//!   redex's (locally derivable) type;
//! * a **shape/bounds lint pass** ([`lint_expr`]) — flags
//!   statically-provable out-of-bounds subscripts (guaranteed ⊥, by
//!   constant extent L001 or symbolically L004), zero-extent
//!   dimensions (L002), dead conditional branches (L003) and
//!   provably-empty comprehension sources (L005). Every bounds fact
//!   comes from one run of the `aql-analysis` abstract interpreter;
//!   this crate only walks the term to attach paths.
//!
//! Diagnostic codes are stable (golden tests rely on them); the table
//! lives in [`diag`] and DESIGN.md §10. Every entry point returns its
//! findings through [`diag::normalize`]: duplicates collapsed, errors
//! before warnings, source order within each class — byte-stable
//! across runs.

#![warn(missing_docs)]

pub mod diag;
pub mod lint;
mod vty;
pub mod verify;

pub use diag::{normalize, Diagnostic, Severity};
pub use lint::lint_expr;
pub use verify::{check_rewrite, verify_closed, verify_expr, verify_open};

use aql_core::types::Type;

/// Are two checker-produced types compatible up to inference
/// variables? The unifier numbers its variables per run, so the
/// pre-optimization snapshot and a post-rewrite re-check can disagree
/// on `Var` identities while describing the same type; a `Var` on
/// either side therefore matches anything. Used by the session's
/// phase-level gate to assert type preservation.
pub fn type_compatible(a: &Type, b: &Type) -> bool {
    match (a, b) {
        (Type::Var(_), _) | (_, Type::Var(_)) => true,
        (Type::Bool, Type::Bool)
        | (Type::Nat, Type::Nat)
        | (Type::Real, Type::Real)
        | (Type::Str, Type::Str) => true,
        (Type::Base(x), Type::Base(y)) => x == y,
        (Type::Tuple(xs), Type::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| type_compatible(x, y))
        }
        (Type::Set(x), Type::Set(y)) | (Type::Bag(x), Type::Bag(y)) => type_compatible(x, y),
        (Type::Array(x, j), Type::Array(y, k)) => j == k && type_compatible(x, y),
        (Type::Fun(xa, xr), Type::Fun(ya, yr)) => {
            type_compatible(xa, ya) && type_compatible(xr, yr)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_is_a_wildcard() {
        assert!(type_compatible(&Type::Var(0), &Type::Nat));
        assert!(type_compatible(&Type::set(Type::Var(3)), &Type::set(Type::Bool)));
        assert!(!type_compatible(&Type::Nat, &Type::Bool));
        assert!(!type_compatible(
            &Type::array(Type::Nat, 2),
            &Type::array(Type::Nat, 1)
        ));
        assert!(type_compatible(
            &Type::fun(Type::Var(1), Type::Nat),
            &Type::fun(Type::Real, Type::Nat)
        ));
        assert!(!type_compatible(
            &Type::tuple(vec![Type::Nat, Type::Nat]),
            &Type::tuple(vec![Type::Nat, Type::Nat, Type::Nat])
        ));
    }
}
