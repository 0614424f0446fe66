//! # aql-core — the NRCA calculus
//!
//! An implementation of **NRCA**, the nested relational calculus with
//! multidimensional arrays of *Libkin, Machlin & Wong, "A Query
//! Language for Multidimensional Arrays" (SIGMOD 1996)*.
//!
//! The crate provides, bottom-up:
//!
//! * [`types`] — the object/function type system (Fig. 1);
//! * [`value`] — complex-object values (sets, bags, tuples, k-d
//!   arrays, the error value `⊥`) with the canonical order `≤_t`, the
//!   §3 data exchange format printer and parser;
//! * [`expr`] — the named AST of every Fig. 1 construct plus the §6
//!   ranked unions, with free-variable analysis, capture-avoiding
//!   substitution and α-equivalence (the optimizer's substrate);
//! * [`check`] — a unification-based typechecker (Fig. 1 rules);
//! * [`mod@eval`] — compilation to de-Bruijn form and strict evaluation
//!   with `⊥` propagation and resource limits;
//! * [`prim`] — the open registry of external primitives (§4);
//! * [`rank`] — the §6 expressiveness results made executable;
//! * [`stack`] — the depth guard every recursive pass shares.
//!
//! Surface syntax (comprehensions, patterns, blocks) lives in the
//! `aql-lang` crate; the rewrite optimizer in `aql-opt`.
//!
//! ## Quick example
//!
//! ```
//! use aql_core::expr::builder::*;
//! use aql_core::eval::eval_closed;
//! use aql_core::value::Value;
//!
//! // [[ i*i | i < 5 ]][3]
//! let e = sub(tab1("i", nat(5), mul(var("i"), var("i"))), vec![nat(3)]);
//! assert_eq!(eval_closed(&e).unwrap(), Value::Nat(9));
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod eval;
pub mod expr;
pub mod prim;
pub mod rank;
pub mod stack;
pub mod types;
pub mod value;

pub use check::{typecheck, typecheck_closed};
pub use error::{EvalError, TypeError};
pub use eval::{eval, eval_closed, EvalCtx, Limits};
pub use expr::{Expr, Name};
pub use prim::{Extensions, NativeFn};
pub use types::Type;
pub use value::Value;
