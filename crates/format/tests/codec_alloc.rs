//! A chunk is encoded into one allocation (the payload) and decoded
//! into one (the typed buffer), whichever codec applies: no delta
//! vector, no unpacked intermediate. Proven by counting allocations,
//! as `aql-store`'s `hit_alloc` does for the hit path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aql_format::codec::{self, Codec};
use aql_store::ScalarBuf;

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

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
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

#[test]
fn one_allocation_to_encode_a_chunk_and_one_to_decode_it() {
    let n = 4096usize;
    let oktas: Vec<i64> = (0..n as i64).map(|k| (k * k + k / 7) % 9).collect();
    let chunks = [
        (Codec::Raw, ScalarBuf::F64((0..n).map(|k| 60.0 + k as f64 * 0.37).collect())),
        (Codec::BitPack, ScalarBuf::I64(oktas.clone())),
        (Codec::FrameOfRef, ScalarBuf::F64(oktas.iter().map(|&o| 250.0 + o as f64).collect())),
        (Codec::BitPack, ScalarBuf::Bool(oktas.iter().map(|&o| o > 4).collect())),
    ];
    for (want, buf) in &chunks {
        let (allocs, (codec, bytes)) = allocs_during(|| codec::encode(buf, true));
        assert_eq!(codec, *want);
        assert_eq!(allocs, 1, "{want:?} {}: encode allocates the payload only", buf.kind());
        let (allocs, back) = allocs_during(|| codec::decode(codec, buf.kind(), n, &bytes));
        assert_eq!(back.as_ref(), Ok(buf));
        assert_eq!(allocs, 1, "{want:?} {}: decode allocates the typed buffer only", buf.kind());
    }
}
