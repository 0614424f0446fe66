//! # aql-format — AQF, the native persistent chunk format
//!
//! Until now the engine could only *read* external data (NetCDF) and
//! write it back through eager, materialize-everything paths. AQF is
//! the system's own on-disk array format, designed around the chunk
//! machinery in `aql-store`:
//!
//! * **Chunk-structured**: the file records a
//!   [`ChunkLayout`](aql_store::ChunkLayout) and stores each chunk as
//!   an independently encoded, independently checksummed payload — so
//!   a point probe reads one chunk, not the variable.
//! * **Streaming writes** ([`AqfWriter`]): chunks are appended in id
//!   order with only the 33-byte-per-chunk table held in memory, so
//!   `writeval` can spill a lazy query result far larger than RAM.
//! * **Validated reads** ([`AqfFile`]): structure and table bounds are
//!   checked at `open`; payloads are checksum-verified as read. A
//!   corrupted file yields a classified
//!   [`StoreError`](aql_store::StoreError), never a panic.
//! * **Per-chunk codecs** ([`codec`]): bit-packing for integers and
//!   booleans, frame-of-reference packing for integral reals, with a
//!   provably lossless raw fallback per chunk.
//! * **First-class source** ([`AqfChunkSource`]): plugs into the
//!   `LazyArray` / cache / governor / resilience stack; being `Send`,
//!   it can feed a configured read-ahead
//!   [`Prefetcher`](aql_store::Prefetcher) a worker-owned handle.
//!
//! The [`driver`] module closes the loop at the language level: an
//! `AQF` reader/writer pair for `readval`/`writeval`, and
//! [`SessionAqfExt`] for programmatic save/spill.

#![warn(missing_docs)]

pub mod codec;
pub mod driver;
pub mod file;
pub mod source;

pub use codec::Codec;
pub use driver::{
    register_aqf, write_array, AqfArrayWriter, AqfReader, SessionAqfExt, DEFAULT_CACHE_BUDGET,
    DEFAULT_CHUNK_ELEMS,
};
pub use file::{AqfFile, AqfSummary, AqfWriter, ChunkEntry, END_MARKER, MAGIC, MAX_RANK, VERSION};
pub use source::AqfChunkSource;
