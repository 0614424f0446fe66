//! One cache event, one row. The statement's attribution row
//! (`aql_journal::attr`) is the one recorder of cache quantities; the
//! other views are sums of rows or are kept beside them. For a mixed
//! hit / miss / evict / `read_slab` sequence through a labeled
//! `LazyArray`, and for the rows that sequence leaves at zero — a
//! retry, a load error, a warm-pool handover — over a second, faulty
//! source:
//!
//! 1. the row equals `Ledger::fold` of the flight recorder's records
//!    when the ring dropped nothing;
//! 2. `EvalStats::cache` — `CacheStats::from` the row, the mapping
//!    `Session::exec` reads it through — equals the `stats::global()`
//!    delta, which is the thread's sum of rows;
//! 3. the process metrics `aql_store_cache_*_total`, which count each
//!    event as it is emitted, move by the same amounts.
//!
//! Then: the no-fault path of the default resilience stack costs one
//! source read per missed chunk and nothing per hit, and a read outside
//! any statement is counted by `stats::global()` and by no statement's
//! row.
//!
//! A single test in its own binary, so no other thread moves the
//! process-wide counters and every comparison is exact.

use std::time::Duration;

use aql_journal::attr::{Ledger, SourceCounts};
use aql_journal::{Record, Tag};
use aql_store::{
    stats, CacheStats, ChunkLayout, ChunkSource, Fault, FaultyChunkSource, LazyArray,
    MemChunkSource, PrefetchConfig, Prefetcher, ResiliencePolicy, ResilientSource, RetryPolicy,
    Scalar, ScalarBuf, ScalarKind, StoreError,
};

const LABEL: &str = "mem:five-ledgers";
const CHUNK_BYTES: u64 = 8 * 8;

fn metric(name: &str) -> u64 {
    aql_journal::metrics::counter(name, "").get()
}

/// The process metrics read as cache counters, plus the retries.
fn metrics() -> (CacheStats, u64) {
    let stats = CacheStats {
        hits: metric("aql_store_cache_hits_total"),
        misses: metric("aql_store_cache_misses_total"),
        evictions: metric("aql_store_cache_evictions_total"),
        bytes_read: metric("aql_store_cache_bytes_read_total"),
        prefetched_bytes: metric("aql_store_cache_prefetched_bytes_total"),
        load_errors: metric("aql_store_cache_load_errors_total"),
    };
    (stats, metric("aql_store_resilience_retries_total"))
}

/// Run `body` as a statement does — between `attr::begin` and
/// `attr::finish` — and check every view of it against its row: the
/// ring's records of `label` fold to the row, and the thread's sum and
/// the process metrics move by the row's sum. Returns the row.
fn one_statement(label: &str, body: impl FnOnce()) -> SourceCounts {
    let (dropped0, global0, (metrics0, retries0)) =
        (aql_journal::dropped_total(), stats::global(), metrics());
    let series = |family| aql_journal::metrics::counter_with(family, &[("source", label)], "");
    let per_source = [
        "aql_store_cache_bytes_read_total",
        "aql_store_cache_prefetched_bytes_total",
        "aql_store_cache_load_errors_total",
    ]
    .map(|family| (family, series(family).get()));
    // Any record flushes this thread's coalesced hits into the ring, so
    // the statement's window starts after hits made before it — as
    // the session's `StmtBegin` and `StmtEnd` bound it.
    aql_journal::record(Tag::StmtBegin, 0, 0, 0);
    let begun = aql_journal::snapshot()
        .events
        .into_iter()
        .filter(|e| e.tag == Tag::StmtBegin)
        .max_by_key(|e| e.epoch)
        .expect("just recorded");
    aql_journal::attr::begin();
    body();
    let ledger = aql_journal::attr::finish();
    aql_journal::record(Tag::StmtEnd, 0, 0, 0);
    let id = aql_journal::intern(label);
    let ring: Vec<Record> = aql_journal::snapshot()
        .events
        .into_iter()
        .filter(|e| e.thread == begun.thread && e.epoch > begun.epoch && e.label == id)
        .collect();

    // 1. The row is the fold of the ring.
    assert_eq!(aql_journal::dropped_total(), dropped0, "the ring dropped nothing");
    assert_eq!(Ledger::fold(&ring).sources, ledger.sources, "one fold, live or replayed");
    let [(name, row)] = &ledger.sources[..] else { panic!("one source: {:?}", ledger.sources) };
    assert_eq!(name, label);

    // 2. The statement's `EvalStats::cache` and the thread's sum.
    let cache = CacheStats::from(&ledger);
    assert_eq!(stats::global().delta_since(&global0), cache);

    // 3. The process metrics, plain and per source.
    let (metrics1, retries1) = metrics();
    assert_eq!(metrics1.delta_since(&metrics0), cache);
    assert_eq!(retries1 - retries0, row.retries);
    let moved = per_source.map(|(family, before)| series(family).get() - before);
    assert_eq!(moved, [row.bytes_read, row.prefetched_bytes, row.load_errors], "per source");
    *row
}

#[test]
fn every_view_of_a_cache_event_is_a_sum_of_the_statements_row() {
    // 8×8 reals in 2×4 chunks: a 4×2 grid of eight 64-byte chunks
    // behind a cache that holds three.
    let data = ScalarBuf::F64((0..64).map(f64::from).collect());
    let src = MemChunkSource::new(vec![8, 8], data).unwrap();
    let layout = ChunkLayout::new(vec![8, 8], vec![2, 4]).unwrap();
    let mut a = LazyArray::labeled(layout, ScalarKind::F64, Box::new(src), 3 * CHUNK_BYTES, LABEL);

    let row = one_statement(LABEL, || {
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
    });
    // What the sequence should cost at one lookup per chunk.
    assert_eq!((row.hits, row.chunks_loaded, row.evictions), (5, 6, 3));
    assert_eq!(row.bytes_read, 6 * CHUNK_BYTES);
    assert_eq!((row.prefetched_bytes, row.load_errors, row.retries), (0, 0, 0));

    retries_load_errors_and_warm_handovers_are_sums_of_the_row_too();
    the_default_resilience_stack_is_one_read_per_miss_and_silent();
    a_read_outside_any_statement_is_the_threads_and_no_statements();
}

const FAULTY: &str = "mem:five-ledgers-faulty";

/// A source that says which chunk it is about to read, so the test can
/// wait for the prefetch worker instead of sleeping.
struct Announcing {
    inner: MemChunkSource,
    reading: std::sync::mpsc::Sender<u64>,
}

impl ChunkSource for Announcing {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let _ = self.reading.send(start[0] / 4);
        self.inner.read_chunk(start, count)
    }
}

/// The rows the sequence above leaves at zero: a retry that repairs a
/// read, a load that fails for good, and a miss served from the
/// prefetch warm pool. Called from the one test of this binary, after
/// it, so the process metrics are still ours alone.
fn retries_load_errors_and_warm_handovers_are_sums_of_the_row_too() {
    let data = || ScalarBuf::F64((0..32).map(f64::from).collect());
    let layout = || ChunkLayout::new(vec![32], vec![4]).unwrap();
    // Reads 0, 2 and 3 of the consumer's source fail transiently under
    // a two-attempt retry budget: chunk 0 is repaired by its retry,
    // chunk 1 fails for good, chunk 2 loads cleanly.
    let plan = |op, _: &[u64]| [0, 2, 3].contains(&op).then_some(Fault::Transient);
    let policy = ResiliencePolicy {
        retry: RetryPolicy {
            attempts: 2,
            base: Duration::ZERO,
            max: Duration::ZERO,
            jitter: 0.0,
        },
    };
    let flaky = FaultyChunkSource::new(MemChunkSource::new(vec![32], data()).unwrap(), plan);
    let src = ResilientSource::new(flaky, FAULTY, policy);
    let mut a = LazyArray::labeled(layout(), ScalarKind::F64, Box::new(src), 1 << 10, FAULTY);
    let (reading, worker_reads) = std::sync::mpsc::channel();
    let warm = Announcing { inner: MemChunkSource::new(vec![32], data()).unwrap(), reading };
    a.attach_prefetcher(Prefetcher::spawn(
        Box::new(warm),
        layout(),
        PrefetchConfig { depth: 2, pool_bytes: 1 << 10 },
    ));

    let row = one_statement(FAULTY, || {
        assert_eq!(a.get(&[0]).unwrap(), Some(Scalar::F64(0.0)), "repaired by the retry");
        assert!(a.get(&[4]).is_err(), "both attempts fail: a load error");
        // The third access in stride confirms it: chunks 3 and 4 are
        // queued. The worker announcing chunk 4 has settled chunk 3.
        assert_eq!(a.get(&[8]).unwrap(), Some(Scalar::F64(8.0)));
        while worker_reads.recv().expect("the worker reads what was queued") != 4 {}
        assert_eq!(a.get(&[12]).unwrap(), Some(Scalar::F64(12.0)), "handed over warm");
        assert_eq!(a.get(&[13]).unwrap(), Some(Scalar::F64(13.0)), "and resident since");
    });
    assert_eq!((row.hits, row.chunks_loaded, row.load_errors), (1, 3, 1));
    assert_eq!((row.bytes_read, row.prefetched_bytes, row.retries), (64, 32, 2));
    assert_eq!(a.prefetch_stats().map(|p| p.hits), Some(1));
}

/// The happy path of `ResiliencePolicy::default()` (interrupt check, retry,
/// checksum verification): a scan touching M chunks reads the inner
/// source exactly M times and emits no resilience event, and a second
/// pass — all hits — never reaches the stack at all.
fn the_default_resilience_stack_is_one_read_per_miss_and_silent() {
    const CLEAN: &str = "mem:five-ledgers-clean";
    let (reading, inner_reads) = std::sync::mpsc::channel();
    let data = ScalarBuf::F64((0..32).map(f64::from).collect());
    let counted = Announcing { inner: MemChunkSource::new(vec![32], data).unwrap(), reading };
    let src = ResilientSource::new(counted, CLEAN, ResiliencePolicy::default());
    let layout = ChunkLayout::new(vec![32], vec![4]).unwrap();
    let mut a = LazyArray::labeled(layout, ScalarKind::F64, Box::new(src), 1 << 10, CLEAN);

    let row = one_statement(CLEAN, || {
        // Rows 4..24 overlap chunks 1–5.
        assert_eq!(a.read_slab(&[4], &[20]).unwrap().len(), 20);
        assert_eq!(inner_reads.try_iter().count(), 5, "one inner read per missed chunk");
        assert_eq!(a.read_slab(&[4], &[20]).unwrap().len(), 20);
        assert_eq!(inner_reads.try_iter().count(), 0, "hits bypass the stack");
    });
    assert_eq!((row.hits, row.chunks_loaded, row.retries), (5, 5, 0));

    let id = aql_journal::intern(CLEAN);
    let journal = aql_journal::snapshot();
    let noise: Vec<_> = journal
        .events
        .iter()
        .filter(|e| e.label == id && !matches!(e.tag, Tag::CacheMiss | Tag::CacheHit))
        .collect();
    assert!(noise.is_empty(), "no fault: no retry or checksum record, got {noise:?}");
}

/// A read between statements — as `Session::eval_expr_raw` and the
/// benchmark's staged rounds make — lands in the thread's open row:
/// `stats::global()` counts it, and the next statement's row, opened
/// after it, does not.
fn a_read_outside_any_statement_is_the_threads_and_no_statements() {
    const OUTSIDE: &str = "mem:five-ledgers-outside";
    let data = ScalarBuf::F64((0..8).map(f64::from).collect());
    let src = MemChunkSource::new(vec![8], data).unwrap();
    let layout = ChunkLayout::new(vec![8], vec![4]).unwrap();
    let mut a = LazyArray::labeled(layout, ScalarKind::F64, Box::new(src), 1 << 10, OUTSIDE);

    let global0 = stats::global();
    assert_eq!(a.get(&[0]).unwrap(), Some(Scalar::F64(0.0)));
    assert_eq!(a.get(&[1]).unwrap(), Some(Scalar::F64(1.0)));
    let outside = stats::global().delta_since(&global0);
    assert_eq!((outside.hits, outside.misses, outside.bytes_read), (1, 1, 4 * 8));

    let row = one_statement(OUTSIDE, || {
        assert_eq!(a.get(&[2]).unwrap(), Some(Scalar::F64(2.0)));
    });
    assert_eq!(row, SourceCounts { hits: 1, ..SourceCounts::default() }, "the statement's own hit");
    let all = stats::global().delta_since(&global0);
    assert_eq!((all.hits, all.misses), (2, 1), "the thread's sum has both");
}
