//! Concurrency and eviction-pressure tests for `ChunkCache` against
//! the process-wide governor ledger.
//!
//! These live in their own integration-test binary (own process) on
//! purpose: the ledger is process state, and a test that reads it
//! exactly must not see another test's caches. Every test here
//! serializes on [`GOV`].

use std::sync::{Mutex, MutexGuard};

use aql_store::{governor, stats, ChunkCache, ScalarBuf, StoreError};

/// Serializes the tests that read the ledger; recovers from a
/// poisoned lock so one failed test does not cascade.
static GOV: Mutex<()> = Mutex::new(());

fn gov_lock() -> MutexGuard<'static, ()> {
    GOV.lock().unwrap_or_else(|e| e.into_inner())
}

/// A chunk of `n` f64 elements, filled with `id` so cross-chunk mixups
/// are detectable.
fn chunk(n: usize, id: u64) -> ScalarBuf {
    ScalarBuf::F64(vec![id as f64; n])
}

const CHUNK_BYTES: u64 = 8 * 8; // chunk(8, _) payload

#[test]
fn failed_load_leaves_no_poisoned_entries_under_pressure() {
    let _g = gov_lock();
    let (mut c, base) = (ChunkCache::new(2 * CHUNK_BYTES), stats::global());
    c.get_or_load(0, || Ok(chunk(8, 0))).unwrap();
    c.get_or_load(1, || Ok(chunk(8, 1))).unwrap();
    // A loader failure mid-pressure: propagates, cached entries stay.
    let err = c
        .get_or_load(2, || Err(StoreError::io("mid-statement failure")))
        .unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }));
    assert_eq!(c.chunks_held(), 2, "failure evicted nothing");
    assert_eq!(*c.get_or_load(0, || panic!("0 still cached")).unwrap(), chunk(8, 0));
    assert_eq!(*c.get_or_load(1, || panic!("1 still cached")).unwrap(), chunk(8, 1));
    // And the failed id is not poisoned either: a later good load
    // caches normally (evicting an LRU victim to fit).
    assert_eq!(*c.get_or_load(2, || Ok(chunk(8, 2))).unwrap(), chunk(8, 2));
    assert_eq!((c.chunks_held(), stats::global().delta_since(&base).evictions), (2, 1));
}

#[test]
fn drop_and_eviction_release_governed_bytes() {
    let _g = gov_lock();
    let base = governor::bytes_in_use();
    {
        let mut c = ChunkCache::new(1 << 20);
        for id in 0..4 {
            c.get_or_load(id, || Ok(chunk(8, id))).unwrap();
        }
        assert_eq!(governor::bytes_in_use(), base + 4 * CHUNK_BYTES);
        // LRU eviction under the cache's own budget releases too.
        let (mut small, counted) = (ChunkCache::new(2 * CHUNK_BYTES), stats::global());
        for id in 0..4 {
            small.get_or_load(id, || Ok(chunk(8, id))).unwrap();
        }
        assert_eq!(stats::global().delta_since(&counted).evictions, 2);
        assert_eq!(governor::bytes_in_use(), base + 6 * CHUNK_BYTES);
        drop(small);
        assert_eq!(governor::bytes_in_use(), base + 4 * CHUNK_BYTES);
    }
    assert_eq!(governor::bytes_in_use(), base, "drop returned everything");
}

#[test]
fn concurrent_caches_balance_the_shared_ledger() {
    let _g = gov_lock();
    let base = governor::bytes_in_use();

    const THREADS: u64 = 4;
    const LOADS: u64 = 300;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                // Tiny per-cache LRU budget: constant eviction, so every
                // thread charges and releases all the time.
                let mut c = ChunkCache::new(2 * CHUNK_BYTES);
                let counted = stats::global();
                for i in 0..LOADS {
                    let id = (t * LOADS + i) % 7; // overlapping id space
                    let buf = c.get_or_load(id, || Ok(chunk(8, id))).unwrap();
                    assert_eq!(*buf, chunk(8, id), "no cross-chunk mixups");
                    // This cache's newest chunk stays charged until this
                    // thread evicts it, so a release by another thread
                    // that ran past its charge shows as too little; a
                    // cache holds its budget plus the chunk it is
                    // inserting, so a charge counted twice shows as too
                    // much.
                    let in_use = governor::bytes_in_use();
                    assert!(in_use >= base + CHUNK_BYTES, "no over-release: {in_use}");
                    let most = base + THREADS * 3 * CHUNK_BYTES;
                    assert!(in_use <= most, "no double charge: {in_use}");
                }
                assert!(stats::global().delta_since(&counted).evictions > 0);
                // The cache drops here, releasing its residency.
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics under eviction pressure");
    }
    assert_eq!(governor::bytes_in_use(), base, "all residency released");
}
