//! What the always-on telemetry costs the hottest call site, as exact
//! counts: `emit(CacheHit)` allocates nothing and takes no lock — not
//! the label table's, not the ring registry's, not the metrics
//! registry's — with or without an attribution ledger open and whatever
//! source the hit is on. (These counts replace the wall-clock
//! `--metrics-overhead` / `--journal-overhead` gates, whose switches
//! are gone and whose 1–3 % budgets sat below the runner's noise.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aql_journal::{attr, emit, intern, lock_count, Event};

thread_local! {
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

#[test]
fn a_cache_hit_allocates_nothing_and_takes_no_lock() {
    let (a, b) = (intern("t_cost:a"), intern("t_cost:b"));
    // First use on a thread registers its ring, resolves the hit
    // counter's handle and opens the ledger rows: set-up, not the path.
    attr::begin();
    for src in [a, b, a] {
        emit(Event::CacheHit { src });
    }
    let (allocs, locks) = (ALLOCS.with(Cell::get), lock_count());
    for k in 0..10_000u32 {
        // Alternate sources every few hits, so coalesced runs keep
        // being flushed into the ring as well as counted.
        emit(Event::CacheHit { src: if k % 7 < 4 { a } else { b } });
    }
    assert_eq!(ALLOCS.with(Cell::get), allocs, "emit(CacheHit) must not allocate");
    assert_eq!(lock_count(), locks, "emit(CacheHit) must not take a lock");
    let ledger = attr::finish();
    let hits: u64 = ledger.sources.iter().map(|(_, c)| c.hits).sum();
    assert_eq!(hits, 10_003, "and every one of them was counted");

    // The same with no ledger open (a background thread's view).
    let (allocs, locks) = (ALLOCS.with(Cell::get), lock_count());
    for _ in 0..1_000 {
        emit(Event::CacheHit { src: a });
    }
    assert_eq!(ALLOCS.with(Cell::get), allocs);
    assert_eq!(lock_count(), locks);
}
