//! # aql-lang — the AQL surface language and session
//!
//! The higher-level comprehension-style query language of §3–§4 of
//! *Libkin, Machlin & Wong (SIGMOD 1996)*, on top of the `aql-core`
//! calculus:
//!
//! * [`lexer`] / [`parser`] — the surface syntax: comprehensions with
//!   generators/filters, patterns (`\x`, `_`, constants, tuples),
//!   array generators `[P1 : P2] <- A`, tabulations
//!   `[[e | \i < n]]`, row-major literals, `let … in … end`, `fn P =>
//!   e`, and the top-level `val` / `macro` / `readval` / `writeval`
//!   statements;
//! * [`desugar`] — the Fig. 2 translations into the core calculus;
//! * [`session`] — the open top-level environment of Fig. 3:
//!   registries for `val`s, macros, external primitives (Rust
//!   closures), data readers/writers, and the optimizer, all
//!   extensible at run time;
//! * [`report`] — every account of a finished statement (the
//!   `\profile` report, the slow-query log, incident dumps, `\store`,
//!   `\doctor`) as a view of its one record, and the `\explain` /
//!   `\analyze` / `\lint` reports;
//! * [`repl`] — a read-eval-print driver that echoes `typ`/`val`
//!   lines exactly like the paper's sample session;
//! * [`reader`] — the reader/writer traits plus the built-in `COFILE`
//!   exchange-format driver.
//!
//! ```
//! use aql_lang::session::Session;
//!
//! let mut s = Session::new();
//! let (_ty, v) = s.eval_query("{x * x | \\x <- gen!5, x % 2 = 1}").unwrap();
//! assert_eq!(v.to_string(), "{1, 9}");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod desugar;
pub mod errors;
pub mod lexer;
pub mod parser;
pub mod reader;
pub mod repl;
pub mod report;
pub mod session;
mod token;

pub use errors::LangError;
pub use session::{Outcome, OutcomeKind, Session};
