//! Property tests: lazy chunked access agrees element-for-element with
//! dense row-major extraction, including edge chunks and zero-extent
//! dimensions.

use proptest::prelude::*;

use std::cell::RefCell;
use std::rc::Rc;

use aql_store::{
    stats, ChunkLayout, ChunkSource, LazyArray, MemChunkSource, Scalar, ScalarBuf, ScalarKind,
    StoreError,
};

/// A chunk source over a dense in-memory row-major f64 vector — the
/// ground truth the lazy path is compared against.
struct VecSource {
    dims: Vec<u64>,
    data: Vec<f64>,
}

impl ChunkSource for VecSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
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

/// Dense row-major slab extraction — the reference implementation.
fn dense_slab(dims: &[u64], data: &[f64], start: &[u64], count: &[u64]) -> Vec<f64> {
    let n: u64 = count.iter().product();
    let mut out = Vec::with_capacity(n as usize);
    if n == 0 {
        return out;
    }
    let mut idx = start.to_vec();
    'outer: loop {
        let mut off = 0u64;
        for j in 0..dims.len() {
            off = off * dims[j] + idx[j];
        }
        out.push(data[off as usize]);
        let mut j = dims.len();
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
    out
}

/// Random rank-1..=3 extents (zero extents allowed), chunk extents,
/// and a slab request inside them.
fn arb_case() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>)> {
    (1usize..4)
        .prop_flat_map(|rank| {
            (
                prop::collection::vec(0u64..7, rank..=rank),
                prop::collection::vec(1u64..5, rank..=rank),
                prop::collection::vec(0.0f64..1.0, rank..=rank),
                prop::collection::vec(0.0f64..1.0, rank..=rank),
            )
        })
        .prop_map(|(dims, chunk, sf, cf)| {
            // Derive an in-bounds slab from the unit fractions: pick a
            // start in [0, d] and a count in [0, d - start].
            let mut start = Vec::with_capacity(dims.len());
            let mut count = Vec::with_capacity(dims.len());
            for j in 0..dims.len() {
                let s = (sf[j] * (dims[j] + 1) as f64).floor() as u64;
                let s = s.min(dims[j]);
                let c = (cf[j] * (dims[j] - s + 1) as f64).floor() as u64;
                start.push(s);
                count.push(c.min(dims[j] - s));
            }
            (dims, chunk, start, count)
        })
}

/// Row-major test data of `kind` for an array with extents `dims`:
/// distinct values where the kind allows, a non-periodic pattern for
/// booleans.
fn data_of(kind: ScalarKind, dims: &[u64]) -> ScalarBuf {
    let n: u64 = dims.iter().product();
    match kind {
        ScalarKind::F64 => ScalarBuf::F64((0..n).map(|i| i as f64 * 0.5).collect()),
        ScalarKind::I64 => ScalarBuf::I64((0..n).map(|i| i as i64 - 7).collect()),
        ScalarKind::Bool => ScalarBuf::Bool((0..n).map(|i| (i * i + i / 3) % 3 == 0).collect()),
    }
}

fn arb_kind() -> impl Strategy<Value = ScalarKind> {
    prop_oneof![Just(ScalarKind::F64), Just(ScalarKind::I64), Just(ScalarKind::Bool)]
}

/// A [`MemChunkSource`] that logs the start corner of every chunk read.
struct LoggingSource {
    inner: MemChunkSource,
    reads: Rc<RefCell<Vec<Vec<u64>>>>,
}

impl ChunkSource for LoggingSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        self.reads.borrow_mut().push(start.to_vec());
        self.inner.read_chunk(start, count)
    }
}

/// Chunks of the grid a non-empty slab overlaps (0 for an empty slab).
fn overlapped_chunks(chunk: &[u64], start: &[u64], count: &[u64]) -> u64 {
    if count.contains(&0) {
        return 0;
    }
    (0..chunk.len())
        .map(|j| (start[j] + count[j] - 1) / chunk[j] - start[j] / chunk[j] + 1)
        .product()
}

fn iota(dims: &[u64]) -> Vec<f64> {
    let n: u64 = dims.iter().product();
    (0..n).map(|i| i as f64 * 0.5).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lazy point reads agree with dense indexing at every in-bounds
    /// index, and reject every just-out-of-bounds index.
    #[test]
    fn lazy_get_matches_dense((dims, chunk, _s, _c) in arb_case()) {
        let data = iota(&dims);
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        let src = VecSource { dims: dims.clone(), data: data.clone() };
        let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(src), 1 << 12);

        let n: u64 = dims.iter().product();
        for off in 0..n {
            // Unflatten off into an index.
            let mut idx = vec![0u64; dims.len()];
            let mut rem = off;
            for j in (0..dims.len()).rev() {
                idx[j] = rem % dims[j];
                rem /= dims[j];
            }
            let got = lazy.get(&idx).unwrap();
            prop_assert_eq!(got, Some(Scalar::F64(data[off as usize])));
            prop_assert_eq!(lazy.get_linear(off).unwrap(), got);
        }
        // One step past the end of each dimension is out of bounds.
        for j in 0..dims.len() {
            let mut idx: Vec<u64> = dims.iter().map(|&d| d.saturating_sub(1)).collect();
            idx[j] = dims[j];
            prop_assert_eq!(lazy.get(&idx).unwrap(), None);
        }
        prop_assert_eq!(lazy.get_linear(n).unwrap(), None);
    }

    /// Lazy slab extraction agrees element-for-element with the dense
    /// reference, including edge chunks and zero-extent requests.
    #[test]
    fn lazy_slab_matches_dense((dims, chunk, start, count) in arb_case()) {
        let data = iota(&dims);
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        let src = VecSource { dims: dims.clone(), data: data.clone() };
        let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(src), 1 << 12);

        let got = lazy.read_slab(&start, &count).unwrap();
        let want = dense_slab(&dims, &data, &start, &count);
        prop_assert_eq!(got, ScalarBuf::F64(want));
    }

    /// For every element kind and any chunk shape — innermost-contiguous
    /// or not, clipped edge chunks, zero extents — `read_slab` returns
    /// what per-element `get` returns, and costs one cache lookup per
    /// overlapped chunk, however many elements each contributes.
    #[test]
    fn slab_is_per_element_get_at_one_lookup_per_chunk(
        (dims, chunk, start, count) in arb_case(),
        kind in arb_kind(),
    ) {
        let data = data_of(kind, &dims);
        let layout = ChunkLayout::new(dims.clone(), chunk.clone()).unwrap();
        let src = MemChunkSource::new(dims.clone(), data.clone()).unwrap();
        let mut lazy = LazyArray::new(layout.clone(), kind, Box::new(src.clone()), 1 << 12);
        let mut by_element = LazyArray::new(layout, kind, Box::new(src), 1 << 12);

        let base = stats::global();
        let got = lazy.read_slab(&start, &count).unwrap();
        let first = stats::global().delta_since(&base);
        let mut want = ScalarBuf::empty(kind);
        let n: u64 = count.iter().product();
        for k in 0..n {
            // Unflatten k into the slab, then shift by its start corner.
            let mut idx = vec![0u64; dims.len()];
            let mut rem = k;
            for j in (0..dims.len()).rev() {
                idx[j] = start[j] + rem % count[j];
                rem /= count[j];
            }
            prop_assert!(want.push(by_element.get(&idx).unwrap().expect("inside the slab")));
        }
        prop_assert_eq!(&got, &want);

        let chunks = overlapped_chunks(&chunk, &start, &count);
        prop_assert_eq!(first.hits + first.misses, chunks, "one lookup per overlapped chunk");
        prop_assert_eq!(first.misses, chunks, "a fresh cache misses on each of them");
        // Again, now resident: the same number of lookups, all hits.
        let base = stats::global();
        prop_assert_eq!(&lazy.read_slab(&start, &count).unwrap(), &want);
        let s = stats::global().delta_since(&base);
        prop_assert_eq!((s.hits, s.misses), (chunks, 0));
    }

    /// With room for a single chunk, a slab still loads every chunk it
    /// overlaps exactly once: each chunk is finished before the next
    /// one evicts it.
    #[test]
    fn one_chunk_budget_loads_each_overlapped_chunk_once(
        (dims, chunk, start, count) in arb_case(),
        kind in arb_kind(),
    ) {
        let data = data_of(kind, &dims);
        let layout = ChunkLayout::new(dims.clone(), chunk.clone()).unwrap();
        let reads = Rc::new(RefCell::new(Vec::new()));
        let src = LoggingSource {
            inner: MemChunkSource::new(dims.clone(), data).unwrap(),
            reads: Rc::clone(&reads),
        };
        let one_chunk = chunk.iter().product::<u64>() * 8;
        let (mut lazy, base) = (LazyArray::new(layout, kind, Box::new(src), one_chunk), stats::global());

        lazy.read_slab(&start, &count).unwrap();
        let chunks = overlapped_chunks(&chunk, &start, &count);
        let mut reads = reads.borrow().clone();
        prop_assert_eq!(reads.len() as u64, chunks);
        prop_assert_eq!(stats::global().delta_since(&base).misses, chunks);
        reads.sort();
        reads.dedup();
        prop_assert_eq!(reads.len() as u64, chunks, "no chunk is read twice");
    }
}
