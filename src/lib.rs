//! # aql — umbrella crate
//!
//! Re-exports the full AQL system: the NRCA core calculus
//! ([`aql_core`]), the surface language and session ([`aql_lang`]),
//! the optimizer ([`aql_opt`]), the abstract-interpretation framework
//! with the cost model and the `\lint` pass ([`aql_analysis`]), the
//! NetCDF driver ([`aql_netcdf`]), the query-lifecycle tracer and its
//! flamegraph folds ([`aql_trace`]), and the always-on flight recorder
//! with incident dumps and, as its [`metrics`] module, the
//! process-lifetime metrics registry and its HTTP endpoint
//! ([`aql_journal`]).
//!
//! This is a from-scratch Rust reproduction of *Libkin, Machlin &
//! Wong, "A Query Language for Multidimensional Arrays: Design,
//! Implementation, and Optimization Techniques" (SIGMOD 1996)*.
//! See the repository README for a tour and `examples/` for runnable
//! programs.

pub mod externals;

pub use aql_analysis as analysis;
pub use aql_core as core;
pub use aql_format as format;
pub use aql_journal as journal;
pub use aql_lang as lang;
pub use aql_journal::metrics;
pub use aql_netcdf as netcdf;
pub use aql_opt as opt;
pub use aql_store as store;
pub use aql_trace as trace;
