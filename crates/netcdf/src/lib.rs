//! # aql-netcdf — a from-scratch NetCDF classic driver for AQL
//!
//! §4 of *Libkin, Machlin & Wong (SIGMOD 1996)* ties AQL to "legacy"
//! scientific data through a NetCDF driver. This crate implements the
//! NetCDF **classic** binary format (CDF-1 and the 64-bit-offset
//! CDF-2) from the published specification — header, dimensions,
//! attributes, fixed and record variables, all six external types —
//! with:
//!
//! * [`mod@write`] — a serializer ([`write::to_bytes`] / [`write::write_file`]);
//! * [`read`] — a header parser and [`read::SlabReader`], which serves
//!   *hyperslab* (subslab) requests reading only the necessary bytes,
//!   exactly what the paper's `NETCDF3` reader does;
//! * [`driver`] — AQL session readers `NETCDF1`…`NETCDF4` (subslab of
//!   a k-d variable by inclusive bounds, as in the §4.2 session) and
//!   `NETCDFINFO` (variable inventory);
//! * [`synth`] — deterministic synthetic weather datasets standing in
//!   for the paper's 1995 NYC observations (see DESIGN.md for the
//!   substitution rationale);
//! * [`io`] — the injectable byte-source abstraction ([`io::IoSource`]);
//! * [`chunk`] — [`chunk::NcChunkSource`], the `aql-store` chunk source
//!   a bound variable is read through: one open and one hyperslab read
//!   per request. No chunk read is retried here — the store's
//!   resilience stack around the source does that (DESIGN.md §12).
//!
//! The parser is hardened against corrupt input: every declared
//! count, length, and offset is validated against the actual source
//! length before any allocation, all offset arithmetic is checked,
//! and failures carry the byte offset at which the contradiction was
//! found ([`NcError::Corrupt`]).

#![warn(missing_docs)]

pub mod chunk;
pub mod driver;
pub mod format;
pub mod io;
pub mod model;
pub mod read;
pub mod synth;
pub mod write;

pub use driver::register_netcdf;
pub use format::NcType;
pub use model::{NcAttr, NcDim, NcError, NcFile, NcValues, NcVar};
