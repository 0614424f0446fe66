//! An in-memory chunk source: the trivial backend of the multi-backend
//! story.
//!
//! A [`MemChunkSource`] serves hyperslabs of a resident row-major
//! [`ScalarBuf`]. It exists for three reasons: it is the reference
//! implementation every other backend's semantics are tested against
//! (the same element values must come back regardless of backend); it
//! lets a computed array be re-chunked and served through the same
//! cache/governor/resilience machinery as on-disk data (e.g. to bound
//! the residency of a large intermediate); and — being `Send` — it is
//! the simplest source a [`Prefetcher`](crate::Prefetcher) worker
//! thread can own.

use crate::buffer::ScalarBuf;
use crate::error::StoreError;
use crate::fault::checksum;
use crate::layout::{checked_product, for_each_run};
use crate::source::ChunkSource;

/// The canonical label in-memory sources report in per-source metrics.
pub const MEM_SOURCE_LABEL: &str = "mem";

/// A [`ChunkSource`] over a resident row-major buffer.
#[derive(Debug, Clone)]
pub struct MemChunkSource {
    dims: Vec<u64>,
    data: ScalarBuf,
}

impl MemChunkSource {
    /// A source serving `data` (row-major) shaped as `dims`. Fails
    /// with [`StoreError::Shape`] when the element count does not
    /// match the extent product.
    pub fn new(dims: Vec<u64>, data: ScalarBuf) -> Result<MemChunkSource, StoreError> {
        let want = checked_product(&dims)
            .ok_or_else(|| StoreError::Shape("element count overflows u64".into()))?;
        if want != data.len() as u64 {
            return Err(StoreError::Shape(format!(
                "dims {dims:?} require {want} elements, buffer holds {}",
                data.len()
            )));
        }
        Ok(MemChunkSource { dims, data })
    }

    /// Array extents.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Extract the hyperslab `(start, count)` as a flat buffer.
    fn slab(&self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        if start.len() != self.dims.len() || count.len() != self.dims.len() {
            return Err(StoreError::Shape(format!(
                "slab rank {} does not match source rank {}",
                start.len().max(count.len()),
                self.dims.len()
            )));
        }
        for j in 0..self.dims.len() {
            let end = start[j]
                .checked_add(count[j])
                .ok_or_else(|| StoreError::Shape("slab extent overflows u64".into()))?;
            if end > self.dims[j] {
                return Err(StoreError::Shape(format!(
                    "slab [{}, {end}) exceeds extent {} on dimension {j}",
                    start[j], self.dims[j]
                )));
            }
        }
        let n = checked_product(count)
            .ok_or_else(|| StoreError::Shape("slab element count overflows u64".into()))?;
        let mut out = ScalarBuf::zeroed(self.data.kind(), n as usize);
        let origin = vec![0; count.len()];
        for_each_run(count, start, &self.dims, &origin, count, |from, to, run| {
            if out.copy_run(to, &self.data, from, run) {
                Ok(())
            } else {
                Err(StoreError::Corrupt(format!(
                    "offsets {from}..{} missing despite validated shape",
                    from + run
                )))
            }
        })?;
        Ok(out)
    }
}

impl ChunkSource for MemChunkSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        self.slab(start, count)
    }

    /// In-memory data can always self-verify: the checksum of a fresh
    /// extraction.
    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.slab(start, count).ok().map(|b| checksum(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Scalar, ScalarKind};
    use crate::layout::ChunkLayout;
    use crate::lazy::LazyArray;

    #[test]
    fn serves_slabs_of_every_kind() {
        let mut f = MemChunkSource::new(
            vec![2, 3],
            ScalarBuf::F64((0..6).map(|i| i as f64).collect()),
        )
        .unwrap();
        assert_eq!(f.read_chunk(&[1, 1], &[1, 2]).unwrap(), ScalarBuf::F64(vec![4.0, 5.0]));
        let mut b = MemChunkSource::new(vec![4], ScalarBuf::Bool(vec![true, false, true, true]))
            .unwrap();
        assert_eq!(b.read_chunk(&[1], &[2]).unwrap(), ScalarBuf::Bool(vec![false, true]));
        let sum = b.chunk_checksum(&[1], &[2]).unwrap();
        assert_eq!(sum, checksum(&ScalarBuf::Bool(vec![false, true])));
    }

    #[test]
    fn shape_errors_are_classified() {
        assert!(matches!(
            MemChunkSource::new(vec![2, 2], ScalarBuf::I64(vec![1, 2, 3])),
            Err(StoreError::Shape(_))
        ));
        let mut s = MemChunkSource::new(vec![3], ScalarBuf::I64(vec![1, 2, 3])).unwrap();
        assert!(matches!(s.read_chunk(&[2], &[2]), Err(StoreError::Shape(_))));
        assert!(matches!(s.read_chunk(&[0, 0], &[1, 1]), Err(StoreError::Shape(_))));
    }

    #[test]
    fn composes_with_lazy_array() {
        let src =
            MemChunkSource::new(vec![7], ScalarBuf::I64((0..7).map(|i| i * 3).collect())).unwrap();
        let layout = ChunkLayout::new(vec![7], vec![3]).unwrap();
        let mut a = LazyArray::new(layout, ScalarKind::I64, Box::new(src), 1 << 10);
        assert_eq!(a.get(&[6]).unwrap(), Some(Scalar::I64(18)));
        assert_eq!(a.get(&[7]).unwrap(), None);
    }

    #[test]
    fn zero_extent_slab_is_empty() {
        let mut s = MemChunkSource::new(vec![2, 0], ScalarBuf::F64(vec![])).unwrap();
        let got = s.read_chunk(&[0, 0], &[2, 0]).unwrap();
        assert!(got.is_empty());
    }
}
