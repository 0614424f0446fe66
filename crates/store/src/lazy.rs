//! Lazy arrays: a layout + a source + a cache.

use std::rc::Rc;

use crate::buffer::{Scalar, ScalarBuf, ScalarKind};
use crate::cache::{ChunkCache, Loaded};
use crate::error::StoreError;
use crate::layout::{checked_product, for_each_run, ChunkAddr, ChunkLayout};
use crate::prefetch::{PrefetchStats, Prefetcher};
use crate::source::ChunkSource;

/// An array whose elements live behind a [`ChunkSource`] and are
/// fetched chunk-at-a-time through a budgeted [`ChunkCache`].
///
/// A `LazyArray` never materializes more than the chunks a caller
/// actually touches (plus whatever the cache retains under its
/// budget). Element reads are fallible — the source may hit I/O
/// errors — so [`get`](LazyArray::get) returns
/// `Result<Option<Scalar>, StoreError>`: the `Option` is the usual
/// out-of-bounds signal, the `Result` is the storage layer.
pub struct LazyArray {
    layout: ChunkLayout,
    kind: ScalarKind,
    cache: ChunkCache,
    source: Box<dyn ChunkSource>,
    prefetch: Option<Prefetcher>,
}

impl LazyArray {
    /// A lazy array over `layout` whose elements have kind `kind`,
    /// served by `source` through a cache of `budget_bytes`.
    pub fn new(
        layout: ChunkLayout,
        kind: ScalarKind,
        source: Box<dyn ChunkSource>,
        budget_bytes: u64,
    ) -> LazyArray {
        LazyArray { layout, kind, cache: ChunkCache::new(budget_bytes), source, prefetch: None }
    }

    /// Like [`new`](LazyArray::new), but miss-path I/O is attributed
    /// to a source `label` (`netcdf:<var>`, `aqf:<file>`, `mem`) in
    /// the per-source metric series and the `\store;` report.
    pub fn labeled(
        layout: ChunkLayout,
        kind: ScalarKind,
        source: Box<dyn ChunkSource>,
        budget_bytes: u64,
        label: impl Into<String>,
    ) -> LazyArray {
        LazyArray {
            layout,
            kind,
            cache: ChunkCache::labeled(budget_bytes, label),
            source,
            prefetch: None,
        }
    }

    /// The chunk layout.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// The element kind.
    pub fn kind(&self) -> ScalarKind {
        self.kind
    }

    /// The source label miss-path I/O is attributed to, if any.
    pub fn label(&self) -> Option<&str> {
        self.cache.label()
    }

    /// Payload bytes currently resident in this array's cache.
    pub fn cache_bytes_held(&self) -> u64 {
        self.cache.bytes_held()
    }

    /// This array's cache byte budget.
    pub fn cache_budget_bytes(&self) -> u64 {
        self.cache.budget_bytes()
    }

    /// Chunks currently resident in this array's cache.
    pub fn chunks_held(&self) -> usize {
        self.cache.chunks_held()
    }

    /// Attach a read-ahead [`Prefetcher`]. Every chunk access is
    /// reported to it, and misses consult its warm pool before going
    /// to the source. Replaces (and shuts down) any previous one.
    pub fn attach_prefetcher(&mut self, prefetcher: Prefetcher) {
        // The worker's flight-recorder events carry the owning
        // binding's source label, not whatever statement is running.
        prefetcher.set_journal_label(self.cache.jlabel());
        self.prefetch = Some(prefetcher);
    }

    /// Detach and shut down the prefetcher, if any.
    pub fn detach_prefetcher(&mut self) {
        self.prefetch = None;
    }

    /// Effectiveness counters of the attached prefetcher, if any.
    pub fn prefetch_stats(&self) -> Option<PrefetchStats> {
        self.prefetch.as_ref().map(Prefetcher::stats)
    }

    /// The element at multidimensional index `idx`; `Ok(None)` when
    /// the index is out of bounds.
    pub fn get(&mut self, idx: &[u64]) -> Result<Option<Scalar>, StoreError> {
        match self.layout.locate(idx) {
            Some(addr) => self.element(addr).map(Some),
            None => Ok(None),
        }
    }

    /// The element at row-major linear offset `off`; `Ok(None)` past
    /// the end.
    pub fn get_linear(&mut self, off: u64) -> Result<Option<Scalar>, StoreError> {
        match self.layout.locate_linear(off) {
            Some(addr) => self.element(addr).map(Some),
            None => Ok(None),
        }
    }

    /// The element at `addr`, through the cache.
    fn element(&mut self, addr: ChunkAddr) -> Result<Scalar, StoreError> {
        let buf = self.chunk(addr.chunk)?;
        buf.get(addr.offset as usize).ok_or_else(|| short_chunk(addr.chunk, addr.offset))
    }

    /// Chunk `id` through the cache: one lookup, one prefetcher
    /// observation. On a miss the prefetcher's warm pool is consulted
    /// before the source, and whichever buffer arrives is validated
    /// against the layout's length and the array's kind — geometry
    /// only a miss needs, so only a miss computes it.
    fn chunk(&mut self, id: u64) -> Result<Rc<ScalarBuf>, StoreError> {
        if let Some(pf) = &mut self.prefetch {
            pf.observe(id);
        }
        let LazyArray { layout, kind, cache, source, prefetch } = self;
        let kind = *kind;
        cache.get_or_load_with(id, || {
            // Miss path only: hits never reach this closure, so the span
            // (and the sampling profiler reading it) sees exactly the
            // time spent materializing chunks from warm pools or sources.
            let _span = aql_trace::span("cache.load");
            let (start, count) = layout
                .chunk_bounds(id)
                .ok_or_else(|| StoreError::Shape(format!("chunk id {id} out of range")))?;
            let want = checked_product(&count).expect("a chunk is no larger than its array");
            let validate = |buf: ScalarBuf| -> Result<ScalarBuf, StoreError> {
                if buf.len() as u64 != want {
                    return Err(StoreError::Corrupt(format!(
                        "chunk {id}: source returned {} elements, layout expects {want}",
                        buf.len()
                    )));
                }
                if buf.kind() != kind {
                    return Err(StoreError::Corrupt(format!(
                        "chunk {id}: source returned {} elements, array is {kind}",
                        buf.kind()
                    )));
                }
                Ok(buf)
            };
            if let Some(buf) = prefetch.as_mut().and_then(|pf| pf.take(id)) {
                // Warm buffers get the same validation: the worker's
                // source handle could misbehave independently. They
                // are accounted as `Warm` — the background worker
                // already paid the source read, so the consuming
                // statement's `bytes_read` must not count them.
                return Ok(Loaded::Warm(validate(buf)?));
            }
            Ok(Loaded::Source(validate(source.read_chunk(&start, &count)?)?))
        })
    }

    /// Materialize the hyperslab `(start, count)` into a flat buffer
    /// in row-major order, loading only the chunks it overlaps.
    ///
    /// Each overlapped chunk is looked up once, in row-major order of
    /// the chunk grid — one hit or miss and one prefetcher observation
    /// per chunk, which is also the recency order the cache is left in
    /// — and its share of the slab is copied run by run.
    pub fn read_slab(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let rank = self.layout.dims().len();
        if start.len() != rank || count.len() != rank {
            return Err(StoreError::Shape(format!(
                "slab rank {} does not match array rank {rank}",
                start.len().max(count.len()),
            )));
        }
        for (j, &extent) in self.layout.dims().iter().enumerate() {
            let end = start[j]
                .checked_add(count[j])
                .ok_or_else(|| StoreError::Shape("slab extent overflows u64".into()))?;
            if end > extent {
                return Err(StoreError::Shape(format!(
                    "slab [{}, {end}) exceeds extent {extent} on dimension {j}",
                    start[j]
                )));
            }
        }
        let n = checked_product(count)
            .ok_or_else(|| StoreError::Shape("slab element count overflows u64".into()))?;
        let mut out = ScalarBuf::zeroed(self.kind, n as usize);
        if n == 0 {
            return Ok(out);
        }
        // The grid box [first, last] of overlapped chunks, an odometer
        // over it, and per-chunk scratch — the only allocations besides
        // `out`, however many chunks and elements the slab covers.
        let chunk = self.layout.chunk_dims();
        let first: Vec<u64> = (0..rank).map(|j| start[j] / chunk[j]).collect();
        let last: Vec<u64> = (0..rank).map(|j| (start[j] + count[j] - 1) / chunk[j]).collect();
        let mut at = first.clone();
        let (mut len, mut in_chunk, mut in_slab, mut extent) =
            (vec![0; rank], vec![0; rank], vec![0; rank], vec![0; rank]);
        loop {
            let layout = &self.layout;
            let mut id = 0u64;
            for j in 0..rank {
                let chunk = layout.chunk_dims()[j];
                let origin = at[j] * chunk;
                extent[j] = chunk.min(layout.dims()[j] - origin);
                // This chunk's overlap with the slab along axis j.
                let lo = start[j].max(origin);
                let hi = (start[j] + count[j]).min(origin + extent[j]);
                len[j] = hi - lo;
                in_chunk[j] = lo - origin;
                in_slab[j] = lo - start[j];
                id = id * layout.grid_dims()[j] + at[j];
            }
            let buf = self.chunk(id)?;
            for_each_run(&len, &in_chunk, &extent, &in_slab, count, |from, to, run| {
                if out.copy_run(to, &buf, from, run) {
                    Ok(())
                } else {
                    Err(short_chunk(id, (from + run - 1) as u64))
                }
            })?;
            // Next chunk of the box, row-major.
            let mut j = rank;
            loop {
                if j == 0 {
                    return Ok(out);
                }
                j -= 1;
                if at[j] < last[j] {
                    at[j] += 1;
                    break;
                }
                at[j] = first[j];
            }
        }
    }
}

/// A cached chunk turned out shorter than (or of another kind than)
/// the length and kind it was validated against when it was loaded.
fn short_chunk(chunk: u64, offset: u64) -> StoreError {
    StoreError::Corrupt(format!(
        "chunk {chunk} has no offset {offset} despite validated length"
    ))
}

impl std::fmt::Debug for LazyArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyArray")
            .field("layout", &self.layout)
            .field("kind", &self.kind)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// A source over an in-memory row-major f64 vector.
    pub(crate) struct VecSource {
        pub dims: Vec<u64>,
        pub data: Vec<f64>,
        pub reads: u64,
    }

    impl VecSource {
        pub fn new(dims: Vec<u64>, data: Vec<f64>) -> VecSource {
            assert_eq!(dims.iter().product::<u64>() as usize, data.len());
            VecSource { dims, data, reads: 0 }
        }
    }

    impl ChunkSource for VecSource {
        fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
            self.reads += 1;
            let n: u64 = count.iter().product();
            let mut out = Vec::with_capacity(n as usize);
            if n > 0 {
                let mut idx = start.to_vec();
                'outer: loop {
                    let mut off = 0u64;
                    for (&d, &i) in self.dims.iter().zip(idx.iter()) {
                        off = off * d + i;
                    }
                    out.push(self.data[off as usize]);
                    let mut j = self.dims.len();
                    loop {
                        if j == 0 {
                            break 'outer;
                        }
                        j -= 1;
                        idx[j] += 1;
                        if idx[j] < start[j] + count[j] {
                            break;
                        }
                        idx[j] = start[j];
                    }
                }
            }
            Ok(ScalarBuf::F64(out))
        }
    }

    fn lazy_over(dims: Vec<u64>, chunk: Vec<u64>, budget: u64) -> LazyArray {
        let n: u64 = dims.iter().product();
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        LazyArray::new(layout, ScalarKind::F64, Box::new(VecSource::new(dims, data)), budget)
    }

    #[test]
    fn point_reads_match_row_major_order() {
        let mut a = lazy_over(vec![4, 5], vec![3, 3], 1 << 16);
        assert_eq!(a.get(&[0, 0]).unwrap(), Some(Scalar::F64(0.0)));
        assert_eq!(a.get(&[1, 4]).unwrap(), Some(Scalar::F64(9.0)));
        assert_eq!(a.get(&[3, 4]).unwrap(), Some(Scalar::F64(19.0)));
        assert_eq!(a.get(&[4, 0]).unwrap(), None);
        assert_eq!(a.get_linear(7).unwrap(), Some(Scalar::F64(7.0)));
        assert_eq!(a.get_linear(20).unwrap(), None);
    }

    #[test]
    fn slab_matches_dense_extraction() {
        let mut a = lazy_over(vec![4, 5], vec![2, 2], 1 << 16);
        let got = a.read_slab(&[1, 2], &[2, 3]).unwrap();
        // Rows 1..3, cols 2..5 of the 4×5 iota array.
        assert_eq!(got, ScalarBuf::F64(vec![7.0, 8.0, 9.0, 12.0, 13.0, 14.0]));
    }

    #[test]
    fn slab_costs_one_lookup_per_chunk_and_leaves_grid_order_recency() {
        // 4×5 in 2×2 chunks: a 2×3 grid, chunk ids 0..6 row-major.
        let (mut a, base) = (lazy_over(vec![4, 5], vec![2, 2], 1 << 16), stats::global());
        let lookups = || stats::global().delta_since(&base);
        a.read_slab(&[0, 0], &[4, 5]).unwrap();
        assert_eq!(a.cache.lru_order(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!((lookups().hits, lookups().misses), (0, 6));
        // Rows 1..3 × cols 3..5 overlap chunks 1, 2, 4, 5 — visited in
        // that order whatever order their elements interleave in.
        a.read_slab(&[1, 3], &[2, 2]).unwrap();
        assert_eq!(a.cache.lru_order(), vec![0, 3, 1, 2, 4, 5]);
        assert_eq!((lookups().hits, lookups().misses), (4, 6));
    }

    #[test]
    fn zero_extent_slab_is_empty() {
        let mut a = lazy_over(vec![4, 5], vec![2, 2], 1 << 16);
        let got = a.read_slab(&[2, 1], &[0, 3]).unwrap();
        assert!(got.is_empty());
        assert_eq!(got.kind(), ScalarKind::F64);
    }

    #[test]
    fn out_of_bounds_slab_is_shape_error() {
        let mut a = lazy_over(vec![4, 5], vec![2, 2], 1 << 16);
        assert!(matches!(a.read_slab(&[3, 0], &[2, 1]), Err(StoreError::Shape(_))));
        assert!(matches!(a.read_slab(&[0], &[1]), Err(StoreError::Shape(_))));
    }

    #[test]
    fn point_probe_touches_one_chunk() {
        let (mut a, base) = (lazy_over(vec![100, 10], vec![10, 10], 1 << 20), stats::global());
        a.get(&[55, 5]).unwrap();
        let s = stats::global().delta_since(&base);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bytes_read, 100 * 8);
        // Second probe in the same chunk hits.
        a.get(&[55, 6]).unwrap();
        assert_eq!(stats::global().delta_since(&base).hits, 1);
    }

    /// Scan 64 elements in 16 chunks of 4 in order, a depth-2
    /// prefetcher attached, letting the worker settle after every
    /// access so who loads which chunk is deterministic.
    fn sequential_scan_with_prefetcher(label: &str) -> LazyArray {
        use crate::mem::MemChunkSource;
        use crate::prefetch::{PrefetchConfig, Prefetcher};

        let n = 64u64;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mem = MemChunkSource::new(vec![n], ScalarBuf::F64(data)).unwrap();
        let layout = ChunkLayout::new(vec![n], vec![4]).unwrap();
        let consumer = Box::new(mem.clone());
        let mut a = LazyArray::labeled(layout.clone(), ScalarKind::F64, consumer, 1 << 20, label);
        a.attach_prefetcher(Prefetcher::spawn(
            Box::new(mem),
            layout,
            PrefetchConfig { depth: 2, pool_bytes: 1 << 16 },
        ));
        for i in 0..n {
            assert_eq!(a.get(&[i]).unwrap(), Some(Scalar::F64(i as f64)));
            a.prefetch.as_ref().unwrap().quiesce();
        }
        a
    }

    #[test]
    fn prefetcher_serves_sequential_misses() {
        use crate::prefetch::PrefetchStats;

        let mut a = sequential_scan_with_prefetcher("mem");
        // The consumer loads chunks 0, 1 and 2 — the third access in
        // stride is the one that confirms it — and every later chunk is
        // a warm handover: read-ahead hides all 13 remaining loads.
        assert_eq!(a.prefetch_stats(), Some(PrefetchStats { issued: 13, hits: 13, wasted: 0 }));
        assert_eq!(a.label(), Some("mem"));
        a.detach_prefetcher();
        assert_eq!(a.get(&[5]).unwrap(), Some(Scalar::F64(5.0)));
    }

    #[test]
    fn warm_pool_bytes_are_not_counted_as_consumer_reads() {
        // Regression: warm-pool handovers used to be charged to the
        // consuming statement's `bytes_read`, racing the prefetcher's
        // background thread into whatever statement was running. They
        // must land in `prefetched_bytes` instead, attributed to the
        // binding's own label.
        let chunk_bytes = 4 * 8; // 4 f64 elements per chunk
        let base = stats::global();
        sequential_scan_with_prefetcher("mem:warm-regression");
        let s = stats::global().delta_since(&base);
        // Every miss moved exactly one chunk; warm handovers and
        // consumer reads split the traffic without double counting.
        assert_eq!((s.hits, s.misses), (48, 16));
        assert_eq!(s.prefetched_bytes, 13 * chunk_bytes);
        assert_eq!(s.bytes_read, 3 * chunk_bytes);
    }

    #[test]
    fn kind_mismatch_is_corrupt() {
        struct BoolSource;
        impl ChunkSource for BoolSource {
            fn read_chunk(&mut self, _s: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
                Ok(ScalarBuf::Bool(vec![true; count.iter().product::<u64>() as usize]))
            }
        }
        let layout = ChunkLayout::new(vec![4], vec![2]).unwrap();
        let mut a = LazyArray::new(layout, ScalarKind::F64, Box::new(BoolSource), 1 << 10);
        assert!(matches!(a.get(&[0]), Err(StoreError::Corrupt(_))));
    }
}
