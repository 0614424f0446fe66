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
//! Then the same for the rows that sequence leaves at zero — a retry,
//! a load error, a warm-pool handover — over a second, faulty source;
//! and the no-fault path of the default resilience stack, which must
//! cost one source read per missed chunk and nothing per hit.
//!
//! A single test in its own binary, so no other thread moves the
//! process-wide counters and every comparison is exact.

use std::time::Duration;

use aql_journal::Tag;
use aql_store::{
    stats, ChunkLayout, ChunkSource, Fault, FaultyChunkSource, LazyArray, MemChunkSource,
    PrefetchConfig, Prefetcher, ResiliencePolicy, ResilientSource, RetryPolicy, Scalar, ScalarBuf,
    ScalarKind, StoreError,
};

const LABEL: &str = "mem:five-ledgers";
const CHUNK_BYTES: u64 = 8 * 8;

fn metric(name: &str) -> u64 {
    aql_journal::metrics::counter(name, "").get()
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
    let labeled = aql_journal::metrics::counter_with(
        "aql_store_cache_bytes_read_total",
        &[("source", LABEL)],
        "",
    );
    assert_eq!(labeled.get(), own.bytes_read, "per-source series");

    retries_load_errors_and_warm_handovers_agree_too();
    the_default_resilience_stack_is_one_read_per_miss_and_silent();
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
/// prefetch warm pool — same five ledgers, plus the journal window
/// folded back through `Ledger::fold`. Called from the one test of
/// this binary, after it, so the process metrics are still ours alone.
fn retries_load_errors_and_warm_handovers_agree_too() {
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
            ..RetryPolicy::default()
        },
        breaker: None,
        verify_checksums: true,
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

    let global0 = stats::global();
    let metrics0 = [
        "aql_store_cache_misses_total",
        "aql_store_cache_load_errors_total",
        "aql_store_cache_bytes_read_total",
        "aql_store_cache_prefetched_bytes_total",
        "aql_store_resilience_retries_total",
    ]
    .map(|name| (name, metric(name)));
    aql_journal::attr::begin();

    assert_eq!(a.get(&[0]).unwrap(), Some(Scalar::F64(0.0)), "repaired by the retry");
    assert!(a.get(&[4]).is_err(), "both attempts fail: a load error");
    // The third access in stride confirms it: chunks 3 and 4 are
    // queued. The worker announcing chunk 4 has settled chunk 3.
    assert_eq!(a.get(&[8]).unwrap(), Some(Scalar::F64(8.0)));
    while worker_reads.recv().expect("the worker reads what was queued") != 4 {}
    assert_eq!(a.get(&[12]).unwrap(), Some(Scalar::F64(12.0)), "handed over warm");
    assert_eq!(a.get(&[13]).unwrap(), Some(Scalar::F64(13.0)), "and resident since");

    let ledger = aql_journal::attr::finish();
    aql_journal::record(Tag::StmtEnd, 0, 0, 0);
    let journal = aql_journal::snapshot();

    // 1. The array's own counters.
    let own = a.stats();
    assert_eq!((own.hits, own.misses, own.load_errors), (1, 4, 1));
    assert_eq!((own.bytes_read, own.prefetched_bytes), (64, 32));
    assert_eq!(a.prefetch_stats().map(|p| p.hits), Some(1));

    // 2. The thread aggregate.
    assert_eq!(stats::global().delta_since(&global0), own);

    // 3. The attribution row — which also has the retries.
    let (_, row) = ledger.sources.iter().find(|(l, _)| l == FAULTY).expect("touched");
    assert_eq!((row.hits, row.chunks_loaded, row.load_errors), (1, 3, 1));
    assert_eq!((row.bytes_read, row.prefetched_bytes, row.retries), (64, 32, 2));

    // 4. The flight recorder, record by record and folded.
    let id = aql_journal::intern(FAULTY);
    let mine: Vec<_> = journal.events.iter().filter(|e| e.label == id).copied().collect();
    let of = |tag: Tag| mine.iter().filter(move |e| e.tag == tag);
    assert_eq!(of(Tag::Retry).map(|e| e.a).collect::<Vec<_>>(), vec![2, 2], "attempt numbers");
    assert_eq!(of(Tag::CacheLoadError).count(), 1);
    assert_eq!(of(Tag::CacheWarm).map(|e| e.a).collect::<Vec<_>>(), vec![32]);
    assert_eq!(of(Tag::CacheMiss).map(|e| e.a).sum::<u64>(), own.bytes_read);
    let folded = aql_journal::attr::Ledger::fold(&mine);
    assert_eq!(folded.sources, vec![(FAULTY.to_string(), *row)], "one fold, live or replayed");

    // 5. The process metrics, plain and per source.
    let moved: Vec<u64> = metrics0.iter().map(|(name, before)| metric(name) - before).collect();
    assert_eq!(moved, vec![own.misses, own.load_errors, own.bytes_read, own.prefetched_bytes, 2]);
    for (family, want) in [
        ("aql_store_cache_bytes_read_total", own.bytes_read),
        ("aql_store_cache_prefetched_bytes_total", own.prefetched_bytes),
        ("aql_store_cache_load_errors_total", own.load_errors),
    ] {
        let series = aql_journal::metrics::counter_with(family, &[("source", FAULTY)], "");
        assert_eq!(series.get(), want, "{family}{{source}}");
    }
}

/// The happy path of `ResiliencePolicy::default()` (retry, breaker,
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

    // Rows 4..24 overlap chunks 1–5.
    assert_eq!(a.read_slab(&[4], &[20]).unwrap().len(), 20);
    assert_eq!(inner_reads.try_iter().count(), 5, "one inner read per missed chunk");
    assert_eq!(a.read_slab(&[4], &[20]).unwrap().len(), 20);
    assert_eq!(inner_reads.try_iter().count(), 0, "hits bypass the stack");
    assert_eq!((a.stats().hits, a.stats().misses), (5, 5));

    let id = aql_journal::intern(CLEAN);
    let journal = aql_journal::snapshot();
    let noise: Vec<_> = journal
        .events
        .iter()
        .filter(|e| e.label == id && !matches!(e.tag, Tag::CacheMiss | Tag::CacheHit))
        .collect();
    assert!(noise.is_empty(), "no fault: no retry, breaker or checksum record, got {noise:?}");
}
