//! One cache event, five ledgers. A mixed hit / miss / evict /
//! `read_slab` sequence through a labeled `LazyArray` must leave the
//! same totals in every view an operator can read them from:
//!
//! 1. the array's own `LazyArray::stats()`,
//! 2. the thread aggregate `stats::global()` (as a delta),
//! 3. the open statement's attribution row (`aql_journal::attr`),
//! 4. the flight recorder's `CacheHit` / `CacheMiss` / `CacheEvict`
//!    records, and
//! 5. the process metrics `aql_store_cache_*_total` (as deltas).
//!
//! A single test in its own binary, so no other thread moves the
//! process-wide counters and every comparison is exact.

use aql_journal::Tag;
use aql_store::{stats, ChunkLayout, LazyArray, MemChunkSource, Scalar, ScalarBuf, ScalarKind};

const LABEL: &str = "mem:five-ledgers";
const CHUNK_BYTES: u64 = 8 * 8;

fn metric(name: &str) -> u64 {
    aql_metrics::counter(name, "").get()
}

#[test]
fn hits_misses_evictions_and_bytes_agree_across_all_five_ledgers() {
    // 8×8 reals in 2×4 chunks: a 4×2 grid of eight 64-byte chunks
    // behind a cache that holds three.
    let data = ScalarBuf::F64((0..64).map(f64::from).collect());
    let src = MemChunkSource::new(vec![8, 8], data).unwrap();
    let layout = ChunkLayout::new(vec![8, 8], vec![2, 4]).unwrap();
    let mut a = LazyArray::labeled(layout, ScalarKind::F64, Box::new(src), 3 * CHUNK_BYTES, LABEL);

    let global0 = stats::global();
    let metrics0 = (
        metric("aql_store_cache_hits_total"),
        metric("aql_store_cache_misses_total"),
        metric("aql_store_cache_evictions_total"),
        metric("aql_store_cache_bytes_read_total"),
    );
    aql_journal::attr::begin();

    // Chunk 0: a miss, then two hits (one without a relink, being MRU).
    assert_eq!(a.get(&[0, 0]).unwrap(), Some(Scalar::F64(0.0)));
    assert_eq!(a.get(&[1, 3]).unwrap(), Some(Scalar::F64(11.0)));
    assert_eq!(a.get_linear(2).unwrap(), Some(Scalar::F64(2.0)));
    // Rows 0..4: chunks 0 (hit), 1, 2 (misses), 3 (miss, evicts 0).
    assert_eq!(a.read_slab(&[0, 0], &[4, 8]).unwrap().len(), 32);
    // Chunk 7: a miss that evicts chunk 1.
    assert_eq!(a.get(&[7, 7]).unwrap(), Some(Scalar::F64(63.0)));
    // Rows 2..4 again, now resident: two hits for sixteen elements.
    assert_eq!(a.read_slab(&[2, 0], &[2, 8]).unwrap().len(), 16);
    // Chunk 0 once more: gone, so a miss and another eviction.
    assert_eq!(a.get_linear(0).unwrap(), Some(Scalar::F64(0.0)));

    let ledger = aql_journal::attr::finish();
    // Any record flushes this thread's coalesced hits into the ring.
    aql_journal::record(Tag::StmtEnd, 0, 0, 0);
    let journal = aql_journal::snapshot();

    // 1. The array's own counters — and what the sequence should cost
    //    at one lookup per chunk.
    let own = a.stats();
    assert_eq!((own.hits, own.misses, own.evictions), (5, 6, 3));
    assert_eq!(own.bytes_read, 6 * CHUNK_BYTES);
    assert_eq!((own.prefetched_bytes, own.load_errors), (0, 0));

    // 2. The thread aggregate.
    assert_eq!(stats::global().delta_since(&global0), own);

    // 3. The attribution row.
    let (_, row) = ledger
        .sources
        .iter()
        .find(|(label, _)| label == LABEL)
        .expect("the statement touched this source");
    assert_eq!(row.hits, own.hits);
    assert_eq!(row.chunks_loaded, own.misses);
    assert_eq!(row.bytes_read, own.bytes_read);
    assert_eq!(row.evictions, own.evictions);
    assert_eq!((row.prefetched_bytes, row.load_errors), (0, 0));

    // 4. The flight recorder: hits coalesce, so sum their counts; each
    //    miss is one record carrying its bytes.
    let id = aql_journal::intern(LABEL);
    let of = |tag: Tag| journal.events.iter().filter(move |e| e.label == id && e.tag == tag);
    assert_eq!(of(Tag::CacheHit).map(|e| e.a).sum::<u64>(), own.hits);
    assert_eq!(of(Tag::CacheMiss).count() as u64, own.misses);
    assert_eq!(of(Tag::CacheMiss).map(|e| e.a).sum::<u64>(), own.bytes_read);
    assert_eq!(of(Tag::CacheEvict).map(|e| e.a).sum::<u64>(), own.evictions);
    assert_eq!(of(Tag::CacheWarm).count() + of(Tag::CacheLoadError).count(), 0);

    // 5. The process metrics.
    assert_eq!(metric("aql_store_cache_hits_total") - metrics0.0, own.hits);
    assert_eq!(metric("aql_store_cache_misses_total") - metrics0.1, own.misses);
    assert_eq!(metric("aql_store_cache_evictions_total") - metrics0.2, own.evictions);
    assert_eq!(metric("aql_store_cache_bytes_read_total") - metrics0.3, own.bytes_read);
    let labeled = aql_metrics::counter_with(
        "aql_store_cache_bytes_read_total",
        &[("source", LABEL)],
        "",
    );
    assert_eq!(labeled.get(), own.bytes_read, "per-source series");
}
