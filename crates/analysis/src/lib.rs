//! Abstract interpretation over NRCA terms.
//!
//! Three cooperating domains, one linear pass ([`analyze()`]):
//!
//! 1. **Symbolic shapes** ([`sym`], [`absval`]) — array extents as
//!    expressions over bound variables and source dimensions
//!    (`dim(A,0)`, `n ∸ 1`), with widening to keep terms small.
//! 2. **Index intervals** — every nat-valued expression carries a
//!    `[lo, hi]` range plus symbolic upper/lower bounds, powering
//!    per-subscript in-bounds/out-of-bounds verdicts. This is the
//!    workspace's one bounds analysis: with the session's `val`
//!    bindings as globals the extents are concrete, without them they
//!    stay symbolic, and the same verdicts serve every consumer.
//! 3. **Effects/fusibility** ([`effect`]) — a four-point purity chain
//!    classifying which loop nests could compile to bulk kernels.
//!
//! Consumers: the evaluator (bounds-check elision marks, via
//! [`eval_elided`]), the cost model ([`cost::estimate`]: cardinality,
//! steps and bytes moved), the L001–L005 shape/bounds lints
//! ([`lint::lint`], reporting in [`diag::Diagnostic`]s), and the REPL's
//! `\analyze` command ([`report`]).

#![warn(missing_docs)]

pub mod absval;
pub mod analyze;
pub mod cost;
pub mod diag;
pub mod effect;
pub mod elide;
pub mod lint;
pub mod report;
pub mod sym;

pub use absval::{absval_of_value, globals_mentioned, AbsVal, NatAbs};
pub use analyze::{
    analyze, AccessRegion, Analysis, AxisFact, Kernel, KernelKind, SubCounts, SubVerdict,
};
pub use effect::Effect;
pub use elide::eval_elided;
pub use sym::SymExt;
