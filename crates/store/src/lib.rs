//! # aql-store — chunked, lazily-materialized array storage
//!
//! The paper's central optimization claim (§5) is that treating arrays
//! as *functions* lets the system avoid materializing intermediates.
//! This crate supplies the storage half of that claim for *on-disk*
//! arrays: instead of reading a whole variable eagerly, an array can be
//! **lazy** — a [`ChunkLayout`] partitioning its index space into
//! row-major chunks, a [`ChunkSource`] that can fetch any chunk, and a
//! [`ChunkCache`] holding recently used chunks under a byte budget with
//! LRU eviction. Only the chunks a query actually touches ever leave
//! the source.
//!
//! The crate is deliberately free of any dependency on the AQL value
//! model: elements are plain scalars ([`Scalar`] / [`ScalarBuf`]), so
//! `aql-core` can wrap a [`LazyArray`] behind its `ArrayVal` without a
//! dependency cycle, and any driver crate (NetCDF today, others later)
//! can implement [`ChunkSource`] against its own byte format.
//!
//! A cache keeps no counters: each hit, miss, eviction and load error
//! is one event into the statement's attribution row
//! (`aql_journal::attr`), and [`CacheStats`] — hits, misses, evictions,
//! bytes read, load errors — is read from sums of those rows: a
//! statement's own, or this thread's in all ([`stats::global`]).
//!
//! ## Resilience (DESIGN.md §12)
//!
//! Chunk I/O is where a production engine meets flaky hardware, so the
//! crate also carries the resilience stack:
//!
//! * [`error::FaultClass`] — the retryable/fatal failure taxonomy
//!   every [`StoreError`] classifies into;
//! * [`ResilientSource`] — retry with jittered backoff, a per-source
//!   circuit breaker ([`CircuitBreaker`]), and checksum verification
//!   wrapped around any [`ChunkSource`];
//! * [`governor`] — a process-wide byte ledger that counts what cache
//!   residency and warm pools hold;
//! * [`interrupt`] — cooperative deadline/cancellation hooks polled on
//!   the chunk-load path, so a hung source cannot outlive a
//!   statement's limits;
//! * [`FaultyChunkSource`] — the one fault injector: a schedule
//!   closure decides, per chunk read, on a [`Fault`] (the chaos
//!   harness's seeded draws, a test's explicit ops, the fault axis).

#![warn(missing_docs)]

pub mod buffer;
pub mod cache;
pub mod error;
pub mod fault;
pub mod governor;
pub mod interrupt;
pub mod layout;
pub mod lazy;
pub mod mem;
pub mod prefetch;
pub mod remote;
pub mod resilient;
pub mod source;
pub mod stats;

pub use buffer::{Scalar, ScalarBuf, ScalarKind};
pub use cache::{ChunkCache, Loaded};
pub use error::{FaultClass, Interrupt, StoreError};
pub use fault::{Fault, FaultyChunkSource};
pub use layout::{ChunkAddr, ChunkLayout};
pub use lazy::LazyArray;
pub use mem::{MemChunkSource, MEM_SOURCE_LABEL};
pub use prefetch::{PrefetchConfig, PrefetchStats, Prefetcher};
pub use remote::RemoteChunkSource;
pub use resilient::{
    BreakerPolicy, BreakerState, CircuitBreaker, ResiliencePolicy, ResilientSource, RetryPolicy,
};
pub use source::ChunkSource;
pub use stats::CacheStats;
