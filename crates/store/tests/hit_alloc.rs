//! The hit path allocates nothing, and a resident `read_slab` allocates
//! a fixed handful of rank-sized scratch vectors plus its output — not
//! per chunk, not per element. Proven by counting allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aql_store::{
    stats, ChunkLayout, LazyArray, MemChunkSource, PrefetchConfig, PrefetchStats, Prefetcher, ScalarBuf,
    ScalarKind,
};

thread_local! {
    /// Allocations made by this thread (const-initialized and without a
    /// destructor, so reading it from the allocator allocates nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const DIMS: [u64; 3] = [24, 20, 18];

fn source() -> MemChunkSource {
    let n: u64 = DIMS.iter().product();
    MemChunkSource::new(DIMS.to_vec(), ScalarBuf::F64((0..n).map(|i| i as f64).collect())).unwrap()
}

/// A rank-3 array with clipped edge chunks on every axis, fully
/// resident.
fn resident_array() -> LazyArray {
    let layout = ChunkLayout::new(DIMS.to_vec(), vec![5, 6, 7]).unwrap();
    let mut a =
        LazyArray::labeled(layout, ScalarKind::F64, Box::new(source()), 1 << 20, "mem:alloc");
    a.read_slab(&[0, 0, 0], &DIMS).unwrap();
    assert_eq!(a.chunks_held() as u64, a.layout().num_chunks());
    // The first hit on a thread registers its metric handle and journal
    // ring; that one-off set-up is not the hit path.
    a.get(&[0, 0, 0]).unwrap();
    a
}

/// Probe `a` at `offset(k)` for 5,000 `k`, twice each (by index and by
/// linear offset): 10,000 hits, no miss, no allocation.
fn ten_thousand_hits(a: &mut LazyArray, mut offset: impl FnMut(u64) -> u64) {
    let before = stats::global();
    let (allocs, sum) = allocs_during(|| {
        let mut sum = 0.0;
        for k in 0..5_000u64 {
            let off = offset(k);
            let idx = [off / (DIMS[1] * DIMS[2]), off / DIMS[2] % DIMS[1], off % DIMS[2]];
            for got in [a.get(&idx), a.get_linear(off)] {
                match got {
                    Ok(Some(aql_store::Scalar::F64(x))) => sum += x - off as f64,
                    other => panic!("offset {off}: {other:?}"),
                }
            }
        }
        sum
    });
    assert_eq!(sum, 0.0, "every read returned its own offset");
    let d = stats::global().delta_since(&before);
    assert_eq!((d.hits, d.misses), (10_000, 0));
    assert_eq!(allocs, 0, "a hit on a resident chunk must not allocate");
}

#[test]
fn ten_thousand_hits_allocate_nothing() {
    let n: u64 = DIMS.iter().product();
    // A stride coprime to every extent: hops chunks, so most hits
    // relink the recency list.
    ten_thousand_hits(&mut resident_array(), |k| (k * 7919) % n);
}

#[test]
fn an_attached_prefetcher_is_idle_and_free_on_probes_without_a_stride() {
    let mut a = resident_array();
    let layout = a.layout().clone();
    a.attach_prefetcher(Prefetcher::spawn(Box::new(source()), layout, PrefetchConfig::default()));
    // Seeded random probes, alternately in the first and the last third
    // of the rows: consecutive chunk deltas alternate in sign, so the
    // predictor never sees one twice. (Unconstrained random probes do
    // repeat a delta now and then — 38 times in 5,000 over these 60
    // chunks — and that speculation is the predictor working.)
    let third = DIMS.iter().product::<u64>() / 3;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    ten_thousand_hits(&mut a, |k| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 16) % third + (k % 2) * 2 * third
    });
    assert_eq!(a.prefetch_stats(), Some(PrefetchStats::default()), "the worker never woke");
}

#[test]
fn resident_slab_allocations_do_not_grow_with_the_slab() {
    let mut a = resident_array();
    // One element of one chunk, then all 6,912 elements of all 60.
    let (small, one) = allocs_during(|| a.read_slab(&[3, 3, 3], &[1, 1, 1]).unwrap());
    let (large, all) = allocs_during(|| a.read_slab(&[0, 0, 0], &DIMS).unwrap());
    assert_eq!(one.len(), 1);
    assert_eq!(all.len() as u64, DIMS.iter().product::<u64>());
    assert_eq!(small, large, "allocations are independent of chunk and element count");
    assert!(large <= 12, "a handful of rank-sized scratch vectors plus the output, got {large}");
}
