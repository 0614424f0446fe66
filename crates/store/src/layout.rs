//! Row-major chunk layouts.
//!
//! A [`ChunkLayout`] partitions the index space of an array with
//! extents `dims` into a grid of rectangular chunks with (at most)
//! extents `chunk` each. Chunks are numbered row-major over the grid;
//! chunks on the trailing edge of each dimension are *clipped* to the
//! array bounds, so a layout tiles the array exactly with no padding.
//!
//! Because both the grid and the elements inside each chunk use
//! row-major order, a layout built by [`ChunkLayout::row_major`] —
//! which greedily assigns the chunk budget to the *innermost*
//! dimensions first — produces chunks that are contiguous runs of the
//! underlying row-major element order, which is exactly the access
//! pattern a hyperslab reader serves fastest.

use crate::error::StoreError;

/// The location of one element: which chunk it lives in, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAddr {
    /// Row-major chunk number within the grid.
    pub chunk: u64,
    /// Row-major element offset *within* the (clipped) chunk.
    pub offset: u64,
}

/// A row-major partition of an index space into rectangular chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLayout {
    dims: Vec<u64>,
    chunk: Vec<u64>,
    grid: Vec<u64>,
    total_elems: u64,
    num_chunks: u64,
}

impl ChunkLayout {
    /// Build a layout for an array with extents `dims` tiled by chunks
    /// with extents `chunk`.
    ///
    /// `dims` and `chunk` must have the same non-zero rank, every chunk
    /// extent must be ≥ 1, and the total element/grid counts must not
    /// overflow `u64`. Array extents of zero are allowed (the grid is
    /// empty along that dimension).
    pub fn new(dims: Vec<u64>, chunk: Vec<u64>) -> Result<ChunkLayout, StoreError> {
        if dims.is_empty() {
            return Err(StoreError::Shape("layout rank must be at least 1".into()));
        }
        if dims.len() != chunk.len() {
            return Err(StoreError::Shape(format!(
                "layout rank mismatch: {} dims vs {} chunk extents",
                dims.len(),
                chunk.len()
            )));
        }
        if chunk.contains(&0) {
            return Err(StoreError::Shape("chunk extents must all be at least 1".into()));
        }
        let total_elems = checked_product(&dims)
            .ok_or_else(|| StoreError::Shape("array element count overflows u64".into()))?;
        checked_product(&chunk)
            .ok_or_else(|| StoreError::Shape("chunk element count overflows u64".into()))?;
        let grid: Vec<u64> = dims
            .iter()
            .zip(&chunk)
            .map(|(&d, &c)| if d == 0 { 0 } else { d.div_ceil(c) })
            .collect();
        let num_chunks = checked_product(&grid)
            .ok_or_else(|| StoreError::Shape("chunk grid size overflows u64".into()))?;
        Ok(ChunkLayout { dims, chunk, grid, total_elems, num_chunks })
    }

    /// Build a layout whose chunks hold about `target_elems` elements,
    /// assigned greedily to the innermost (fastest-varying) dimensions
    /// so each chunk is a contiguous run of the row-major element
    /// order.
    pub fn row_major(dims: Vec<u64>, target_elems: u64) -> Result<ChunkLayout, StoreError> {
        let mut budget = target_elems.max(1);
        let mut chunk = vec![1u64; dims.len()];
        for (j, &d) in dims.iter().enumerate().rev() {
            let extent = d.max(1);
            chunk[j] = extent.min(budget).max(1);
            budget /= extent.max(1);
            if budget == 0 {
                budget = 1;
            }
        }
        ChunkLayout::new(dims, chunk)
    }

    /// Array extents.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Nominal (unclipped) chunk extents.
    pub fn chunk_dims(&self) -> &[u64] {
        &self.chunk
    }

    /// Grid extents: number of chunks along each dimension.
    pub fn grid_dims(&self) -> &[u64] {
        &self.grid
    }

    /// Total number of elements in the array.
    pub fn total_elems(&self) -> u64 {
        self.total_elems
    }

    /// Total number of chunks in the grid.
    pub fn num_chunks(&self) -> u64 {
        self.num_chunks
    }

    /// Locate the element at multidimensional index `idx`, or `None`
    /// if the index is out of bounds (including wrong rank).
    pub fn locate(&self, idx: &[u64]) -> Option<ChunkAddr> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut chunk = 0u64;
        let mut offset = 0u64;
        for (j, &i) in idx.iter().enumerate() {
            let (d, c) = (self.dims[j], self.chunk[j]);
            if i >= d {
                return None;
            }
            let cj = i / c;
            // Extent of chunk `cj` along this axis, clipped at the edge.
            let extent = c.min(d - cj * c);
            chunk = chunk * self.grid[j] + cj;
            offset = offset * extent + (i - cj * c);
        }
        Some(ChunkAddr { chunk, offset })
    }

    /// Locate the element at row-major linear offset `off`, or `None`
    /// past the end. Equal to `locate` of the index `off` unflattens
    /// to, for any rank, without building that index: the axes are
    /// peeled innermost-first and each one's share of the chunk number
    /// and in-chunk offset is scaled by the strides gathered so far.
    pub fn locate_linear(&self, off: u64) -> Option<ChunkAddr> {
        if off >= self.total_elems {
            return None;
        }
        let mut rem = off;
        let (mut chunk, mut offset) = (0u64, 0u64);
        let (mut grid_stride, mut elem_stride) = (1u64, 1u64);
        for j in (0..self.dims.len()).rev() {
            let (d, c) = (self.dims[j], self.chunk[j]);
            let i = rem % d;
            rem /= d;
            let cj = i / c;
            chunk += cj * grid_stride;
            offset += (i - cj * c) * elem_stride;
            grid_stride *= self.grid[j];
            elem_stride *= c.min(d - cj * c);
        }
        Some(ChunkAddr { chunk, offset })
    }

    /// Grid coordinates of chunk `id`, or `None` if `id` is out of
    /// range.
    pub fn chunk_coords(&self, id: u64) -> Option<Vec<u64>> {
        if id >= self.num_chunks() {
            return None;
        }
        let mut rem = id;
        let mut coords = vec![0u64; self.grid.len()];
        for j in (0..self.grid.len()).rev() {
            coords[j] = rem % self.grid[j];
            rem /= self.grid[j];
        }
        Some(coords)
    }

    /// The hyperslab `(start, count)` covered by chunk `id`, clipped to
    /// the array bounds, or `None` if `id` is out of range.
    pub fn chunk_bounds(&self, id: u64) -> Option<(Vec<u64>, Vec<u64>)> {
        let coords = self.chunk_coords(id)?;
        let mut start = vec![0u64; coords.len()];
        let mut count = vec![0u64; coords.len()];
        for j in 0..coords.len() {
            start[j] = coords[j] * self.chunk[j];
            count[j] = self.chunk[j].min(self.dims[j] - start[j]);
        }
        Some((start, count))
    }

    /// Number of elements in (clipped) chunk `id`, or `None` if out of
    /// range.
    pub fn chunk_len(&self, id: u64) -> Option<u64> {
        let (_, count) = self.chunk_bounds(id)?;
        checked_product(&count)
    }
}

/// Enumerate the contiguous runs of a box that lies inside two
/// row-major boxes at once — the geometry of every slab copy.
///
/// The box has extents `len`; it starts at `src_at` inside a row-major
/// box of extents `src_dims` and at `dst_at` inside one of extents
/// `dst_dims`. `f(src_off, dst_off, run)` is called once per run, in
/// row-major order of the box, with the run's element offset in each
/// enclosing box. A run is the innermost axis plus every trailing axis
/// the box spans whole in *both* enclosing boxes, so a chunk that is a
/// contiguous stretch of its array is a single run. Allocates nothing.
///
/// All six slices must have one rank ≥ 1, `at[j] + len[j] <= dims[j]`
/// on every axis of both boxes, and both boxes' element counts must
/// fit `usize` (callers validate all three before allocating).
pub fn for_each_run<E>(
    len: &[u64],
    src_at: &[u64],
    src_dims: &[u64],
    dst_at: &[u64],
    dst_dims: &[u64],
    mut f: impl FnMut(usize, usize, usize) -> Result<(), E>,
) -> Result<(), E> {
    if len.contains(&0) {
        return Ok(());
    }
    // Axes `split..` make up one run; axes `..split` count the runs.
    let mut split = len.len() - 1;
    let mut run = len[split];
    while split > 0 && len[split] == src_dims[split] && len[split] == dst_dims[split] {
        split -= 1;
        run *= len[split];
    }
    let runs: u64 = len[..split].iter().product();
    for r in 0..runs {
        let mut rem = r;
        let (mut src_off, mut dst_off) = (0u64, 0u64);
        let (mut src_stride, mut dst_stride) = (1u64, 1u64);
        for j in (0..len.len()).rev() {
            let mut i = 0;
            if j < split {
                i = rem % len[j];
                rem /= len[j];
            }
            src_off += (src_at[j] + i) * src_stride;
            dst_off += (dst_at[j] + i) * dst_stride;
            src_stride *= src_dims[j];
            dst_stride *= dst_dims[j];
        }
        f(src_off as usize, dst_off as usize, run as usize)?;
    }
    Ok(())
}

/// Product of extents, or `None` on overflow.
pub(crate) fn checked_product(extents: &[u64]) -> Option<u64> {
    extents.iter().try_fold(1u64, |acc, &e| acc.checked_mul(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_assigns_inner_dims_first() {
        let l = ChunkLayout::row_major(vec![100, 10, 10], 200).unwrap();
        // 200 elements: the inner 10×10 face (100 elems) is fully
        // covered, leaving a budget of 2 rows of the outer dimension.
        assert_eq!(l.chunk_dims(), &[2, 10, 10]);
        assert_eq!(l.grid_dims(), &[50, 1, 1]);
    }

    #[test]
    fn locate_matches_bounds_on_edge_chunks() {
        // 7 elements chunked by 3 → chunks of len 3, 3, 1.
        let l = ChunkLayout::new(vec![7], vec![3]).unwrap();
        assert_eq!(l.num_chunks(), 3);
        assert_eq!(l.chunk_len(2), Some(1));
        assert_eq!(l.locate(&[6]), Some(ChunkAddr { chunk: 2, offset: 0 }));
        assert_eq!(l.locate(&[7]), None);
        assert_eq!(l.locate(&[0, 0]), None); // wrong rank
    }

    #[test]
    fn zero_extent_dimension_yields_empty_grid() {
        let l = ChunkLayout::new(vec![4, 0], vec![2, 2]).unwrap();
        assert_eq!(l.num_chunks(), 0);
        assert_eq!(l.total_elems(), 0);
        assert_eq!(l.locate(&[0, 0]), None);
        assert_eq!(l.chunk_bounds(0), None);
    }

    #[test]
    fn offsets_use_clipped_extents() {
        // 2D array 4×5 chunked 3×3: chunk 1 covers rows 0..3, cols
        // 3..5 — its clipped extents are 3×2, so element (1,4) is at
        // offset 1*2 + 1 = 3 within chunk 1.
        let l = ChunkLayout::new(vec![4, 5], vec![3, 3]).unwrap();
        assert_eq!(l.locate(&[1, 4]), Some(ChunkAddr { chunk: 1, offset: 3 }));
        let (start, count) = l.chunk_bounds(1).unwrap();
        assert_eq!(start, vec![0, 3]);
        assert_eq!(count, vec![3, 2]);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(ChunkLayout::new(vec![], vec![]).is_err());
        assert!(ChunkLayout::new(vec![4], vec![2, 2]).is_err());
        assert!(ChunkLayout::new(vec![4], vec![0]).is_err());
    }

    /// Row-major index of offset `off` — the reference `locate_linear`
    /// must agree with.
    fn index_of(off: u64, dims: &[u64]) -> Vec<u64> {
        let mut rem = off;
        let mut idx = vec![0; dims.len()];
        for j in (0..dims.len()).rev() {
            idx[j] = rem % dims[j];
            rem /= dims[j];
        }
        idx
    }

    #[test]
    fn locate_linear_is_locate_of_the_row_major_index() {
        let cases: [(&[u64], &[u64]); 5] = [
            (&[7], &[3]),
            (&[4, 5], &[3, 3]),
            (&[5, 4, 3], &[2, 3, 2]),
            (&[3, 1, 4, 1, 5], &[2, 1, 3, 1, 2]),
            // Rank 10: no fixed-size index buffer to outgrow.
            (&[2, 3, 1, 2, 2, 1, 3, 2, 1, 2], &[1, 2, 1, 2, 1, 1, 2, 2, 1, 1]),
        ];
        for (dims, chunk) in cases {
            let l = ChunkLayout::new(dims.to_vec(), chunk.to_vec()).unwrap();
            for off in 0..l.total_elems() {
                assert_eq!(l.locate_linear(off), l.locate(&index_of(off, dims)), "{dims:?} @ {off}");
            }
            assert_eq!(l.locate_linear(l.total_elems()), None);
            assert_eq!(l.locate_linear(u64::MAX), None);
        }
        let empty = ChunkLayout::new(vec![4, 0], vec![2, 2]).unwrap();
        assert_eq!(empty.locate_linear(0), None);
    }

    /// Collect `for_each_run`'s calls.
    fn runs(
        len: &[u64],
        src: (&[u64], &[u64]),
        dst: (&[u64], &[u64]),
    ) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for_each_run(len, src.0, src.1, dst.0, dst.1, |s, d, n| {
            out.push((s, d, n));
            Ok::<(), ()>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn runs_follow_the_innermost_axis() {
        // A 2×3 box at (1,2) of a 4×6 source, landing at (0,1) of a 2×5
        // destination: two runs of three.
        assert_eq!(
            runs(&[2, 3], (&[1, 2], &[4, 6]), (&[0, 1], &[2, 5])),
            vec![(8, 1, 3), (14, 6, 3)]
        );
        // An empty box has no runs.
        assert_eq!(runs(&[2, 0], (&[0, 0], &[4, 6]), (&[0, 0], &[2, 5])), vec![]);
    }

    #[test]
    fn runs_fold_axes_that_are_whole_on_both_sides() {
        // Rows 2..4 of a 5×3×2 array into a 2×3×2 buffer: the two inner
        // axes are whole in both, so it is one run of 12.
        assert_eq!(
            runs(&[2, 3, 2], (&[2, 0, 0], &[5, 3, 2]), (&[0, 0, 0], &[2, 3, 2])),
            vec![(12, 0, 12)]
        );
        // Whole in the source only: the destination rows are wider, so
        // the fold stops at the innermost axis.
        assert_eq!(
            runs(&[2, 3], (&[0, 0], &[2, 3]), (&[1, 1], &[4, 5])),
            vec![(0, 6, 3), (3, 11, 3)]
        );
        // Rank 1 is always a single run.
        assert_eq!(runs(&[4], (&[3], &[9]), (&[0], &[4])), vec![(3, 0, 4)]);
    }
}
