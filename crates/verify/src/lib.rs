//! # aql-verify — diagnostics and the `\lint` pass
//!
//! What is statically *wasteful* about a well-typed NRCA term, with
//! stable codes and paths:
//!
//! * a **shape/bounds lint pass** ([`lint_expr`]) — flags
//!   statically-provable out-of-bounds subscripts (guaranteed ⊥, by
//!   constant extent L001 or symbolically L004), zero-extent
//!   dimensions (L002), dead conditional branches (L003) and
//!   provably-empty comprehension sources (L005). Every bounds fact
//!   comes from one run of the `aql-analysis` abstract interpreter;
//!   this crate only walks the term to attach paths (by hand: the
//!   path segments are golden);
//! * the **diagnostic record** ([`Diagnostic`]) the pass reports in,
//!   and the code table ([`diag`], DESIGN.md §10).
//!
//! What is *wrong* with a term is not decided here. Fig. 1 has one
//! implementation, `aql_core::check`: `typecheck` for a closed query,
//! and `check_rewrite` — the same checker in open mode — for the
//! optimizer's per-fire rewrite-soundness gate. This crate used to
//! hold a second one (a term verifier over its own type lattice, codes
//! V001–V008); it is gone and its codes are retired.
//!
//! Diagnostic codes are stable (golden tests rely on them).
//! [`lint_expr`] returns its findings through [`diag::normalize`]:
//! duplicates collapsed, source order — byte-stable across runs.

#![warn(missing_docs)]

pub mod diag;
pub mod lint;

pub use diag::{normalize, Diagnostic};
pub use lint::lint_expr;
