//! The [`ChunkSource`] adapter over an [`AqfFile`].

use std::path::Path;

use aql_store::{ChunkSource, ScalarBuf, StoreError};

use crate::file::AqfFile;

/// Serves an AQF file's chunks through the `aql-store` source
/// interface, so a [`LazyArray`](aql_store::LazyArray), the resilience
/// stack, and the prefetcher all work over AQF unchanged.
///
/// Reads must be chunk-aligned against the file's own layout — which
/// is exactly how a `LazyArray` built over that layout asks for them.
/// A default [`AqfReader`](crate::AqfReader) binding opens one and no
/// thread. The type is `Send` (it owns a plain `File`), so a reader
/// configured for read-ahead can feed a
/// [`Prefetcher`](aql_store::Prefetcher) worker a second handle.
#[derive(Debug)]
pub struct AqfChunkSource {
    file: AqfFile,
}

impl AqfChunkSource {
    /// Open (and fully validate) `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<AqfChunkSource, StoreError> {
        Ok(AqfChunkSource { file: AqfFile::open(path)? })
    }

    /// The underlying file (layout, kind, table).
    pub fn file(&self) -> &AqfFile {
        &self.file
    }

    /// The chunk id whose bounds are exactly `(start, count)`.
    fn locate(&self, start: &[u64], count: &[u64]) -> Result<u64, StoreError> {
        let layout = self.file.layout();
        let id = layout
            .locate(start)
            .map(|addr| addr.chunk)
            .ok_or_else(|| {
                StoreError::Shape(format!("aqf: slab start {start:?} outside the array"))
            })?;
        match layout.chunk_bounds(id) {
            Some((s, c)) if s == start && c == count => Ok(id),
            _ => Err(StoreError::Shape(format!(
                "aqf: slab ({start:?}, {count:?}) is not a chunk of the file's layout"
            ))),
        }
    }
}

impl ChunkSource for AqfChunkSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let id = self.locate(start, count)?;
        self.file.read_chunk_by_id(id)
    }

    /// Served from the chunk table — no payload read. Because the
    /// stored checksum covers the decoded payload, this is exactly
    /// what [`ResilientSource`](aql_store::ResilientSource)
    /// verification expects.
    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        let id = self.locate(start, count).ok()?;
        self.file.entry(id).map(|e| e.checksum)
    }
}
