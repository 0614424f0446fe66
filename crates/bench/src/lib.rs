//! # aql-bench — the experiment harness
//!
//! Reproduces every quantitative claim of the paper as a numbered
//! experiment (E1–E10; see DESIGN.md §5 for the index and
//! EXPERIMENTS.md for recorded results). The SIGMOD '96 paper has no
//! numbered evaluation tables — its quantitative content is complexity
//! claims and optimizer-equivalence claims — so each of those claims
//! gets a workload generator, a measured sweep, and a table of rows.
//!
//! One entry point: `cargo run -p aql-bench --release --bin
//! experiments` prints every table (this is what EXPERIMENTS.md
//! records). Timing the system itself is the job of the repo benchmark
//! in `benchmark/` (BENCHMARK.json), not of this crate.

#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod table;
pub mod workload;

pub use env::BenchEnv;
pub use table::Table;
