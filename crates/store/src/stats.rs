//! Cache instrumentation counters.
//!
//! Every [`ChunkCache`](crate::ChunkCache) keeps its own
//! [`CacheStats`], and mirrors each increment into a **thread-local
//! aggregate** readable via [`global`]. The aggregate lets an
//! evaluator report the I/O cost of one query as a before/after delta
//! ([`CacheStats::delta_since`]) without threading a cache handle
//! through every array value. The runtime is single-threaded (values
//! are `Rc`-based), so a thread-local is exact, not approximate.

use std::cell::Cell;

/// Monotonic counters describing cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to consult the chunk source.
    pub misses: u64,
    /// Chunks evicted to stay under the byte budget.
    pub evictions: u64,
    /// Payload bytes loaded from the source on misses.
    pub bytes_read: u64,
    /// Payload bytes handed over from a prefetcher's warm pool on
    /// misses — the background worker already paid the source read,
    /// so these are *not* part of [`bytes_read`](CacheStats::bytes_read).
    pub prefetched_bytes: u64,
    /// Loader invocations that returned an error (nothing cached).
    pub load_errors: u64,
}

impl CacheStats {
    /// The counter increments since `base` was captured. Saturating:
    /// a stale base larger than `self` clamps to zero rather than
    /// wrapping.
    pub fn delta_since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            bytes_read: self.bytes_read.saturating_sub(base.bytes_read),
            prefetched_bytes: self.prefetched_bytes.saturating_sub(base.prefetched_bytes),
            load_errors: self.load_errors.saturating_sub(base.load_errors),
        }
    }

    /// Hit rate in `[0, 1]`, or `None` when no lookups happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// The thread-local aggregate, one cell per counter so the hit path
/// touches a single word.
struct GlobalCells {
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
    bytes_read: Cell<u64>,
    prefetched_bytes: Cell<u64>,
    load_errors: Cell<u64>,
}

thread_local! {
    static GLOBAL: GlobalCells = const { GlobalCells {
        hits: Cell::new(0),
        misses: Cell::new(0),
        evictions: Cell::new(0),
        bytes_read: Cell::new(0),
        prefetched_bytes: Cell::new(0),
        load_errors: Cell::new(0),
    } };
}

/// Snapshot of the thread-local aggregate across all caches on this
/// thread.
pub fn global() -> CacheStats {
    GLOBAL.with(|g| CacheStats {
        hits: g.hits.get(),
        misses: g.misses.get(),
        evictions: g.evictions.get(),
        bytes_read: g.bytes_read.get(),
        prefetched_bytes: g.prefetched_bytes.get(),
        load_errors: g.load_errors.get(),
    })
}

/// Process-lifetime cache counters, mirrored from every increment:
/// where [`global`] answers "what did *this statement* cost" via
/// deltas, these answer "what has this *process* done" for the
/// `/metrics` endpoint. Cached handles keep the hot path at one flag
/// read per zero field and one sharded `fetch_add` per nonzero one.
static M_HITS: aql_metrics::LazyCounter = aql_metrics::LazyCounter::new(
    "aql_store_cache_hits_total",
    "Chunk-cache lookups served from memory.",
);
static M_MISSES: aql_metrics::LazyCounter = aql_metrics::LazyCounter::new(
    "aql_store_cache_misses_total",
    "Chunk-cache lookups that consulted the chunk source.",
);
static M_EVICTIONS: aql_metrics::LazyCounter = aql_metrics::LazyCounter::new(
    "aql_store_cache_evictions_total",
    "Chunks evicted to stay under the byte budget.",
);
static M_BYTES: aql_metrics::LazyCounter = aql_metrics::LazyCounter::new(
    "aql_store_cache_bytes_read_total",
    "Payload bytes loaded from chunk sources on misses.",
);
static M_LOAD_ERRORS: aql_metrics::LazyCounter = aql_metrics::LazyCounter::new(
    "aql_store_cache_load_errors_total",
    "Chunk-loader invocations that returned an error.",
);
static M_PREFETCHED: aql_metrics::LazyCounter = aql_metrics::LazyCounter::new(
    "aql_store_cache_prefetched_bytes_total",
    "Payload bytes handed over from prefetch warm pools on misses.",
);

/// Fold `delta` into the thread-local aggregate, mirror it into
/// the `aql-trace` subscriber (attached to the innermost open span)
/// when tracing is enabled — so a profiled query's span tree carries
/// the cache activity it caused without any cache handle plumbing —
/// and bump the process-lifetime `aql_store_cache_*` metrics.
pub(crate) fn global_add(delta: CacheStats) {
    GLOBAL.with(|g| {
        let add = |cell: &Cell<u64>, n: u64| cell.set(cell.get() + n);
        add(&g.hits, delta.hits);
        add(&g.misses, delta.misses);
        add(&g.evictions, delta.evictions);
        add(&g.bytes_read, delta.bytes_read);
        add(&g.prefetched_bytes, delta.prefetched_bytes);
        add(&g.load_errors, delta.load_errors);
    });
    if aql_trace::enabled() {
        aql_trace::count("cache.hits", delta.hits);
        aql_trace::count("cache.misses", delta.misses);
        aql_trace::count("cache.evictions", delta.evictions);
        aql_trace::count("cache.bytes_read", delta.bytes_read);
        aql_trace::count("cache.prefetched_bytes", delta.prefetched_bytes);
        aql_trace::count("cache.load_errors", delta.load_errors);
    }
    M_HITS.add(delta.hits);
    M_MISSES.add(delta.misses);
    M_EVICTIONS.add(delta.evictions);
    M_BYTES.add(delta.bytes_read);
    M_PREFETCHED.add(delta.prefetched_bytes);
    M_LOAD_ERRORS.add(delta.load_errors);
}

/// [`global_add`] of exactly one hit: the same three destinations
/// (aggregate, trace subscriber, process metric), one word each.
#[inline]
pub(crate) fn global_hit() {
    GLOBAL.with(|g| g.hits.set(g.hits.get() + 1));
    aql_trace::count("cache.hits", 1);
    M_HITS.inc();
}

/// Attribute miss-path I/O to a *source* label (`netcdf:<var>`,
/// `aqf:<file>`, `mem`, …): per-source series under the same
/// `aql_store_cache_bytes_read_total` / `…_load_errors_total` families
/// the unlabeled process totals live in, so multi-backend I/O is
/// attributable in the Prometheus endpoint. Called only when a counter
/// actually moved — the registry lookup never lands on the hit path.
pub(crate) fn note_labeled(label: &str, bytes_read: u64, prefetched_bytes: u64, load_errors: u64) {
    if !aql_metrics::enabled() {
        return;
    }
    if bytes_read > 0 {
        aql_metrics::counter_with(
            "aql_store_cache_bytes_read_total",
            &[("source", label)],
            "Payload bytes loaded from chunk sources on misses.",
        )
        .add(bytes_read);
    }
    if prefetched_bytes > 0 {
        aql_metrics::counter_with(
            "aql_store_cache_prefetched_bytes_total",
            &[("source", label)],
            "Payload bytes handed over from prefetch warm pools on misses.",
        )
        .add(prefetched_bytes);
    }
    if load_errors > 0 {
        aql_metrics::counter_with(
            "aql_store_cache_load_errors_total",
            &[("source", label)],
            "Chunk-loader invocations that returned an error.",
        )
        .add(load_errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_saturates() {
        let a = CacheStats { hits: 5, misses: 2, ..Default::default() };
        let b = CacheStats { hits: 7, misses: 1, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.hits, 2);
        assert_eq!(d.misses, 0);
    }

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(CacheStats::default().hit_rate(), None);
        let s = CacheStats { hits: 3, misses: 1, ..Default::default() };
        assert_eq!(s.hit_rate(), Some(0.75));
    }

    #[test]
    fn metrics_mirror_cache_counters() {
        let hits = aql_metrics::counter("aql_store_cache_hits_total", "");
        let bytes = aql_metrics::counter("aql_store_cache_bytes_read_total", "");
        let (h0, b0) = (hits.get(), bytes.get());
        global_add(CacheStats { hits: 3, bytes_read: 128, ..Default::default() });
        // `>=`: other tests on other threads may be bumping too.
        assert!(hits.get() >= h0 + 3);
        assert!(bytes.get() >= b0 + 128);
    }

    #[test]
    fn global_accumulates() {
        let base = global();
        global_add(CacheStats { hits: 2, bytes_read: 16, ..Default::default() });
        let d = global().delta_since(&base);
        assert_eq!(d.hits, 2);
        assert_eq!(d.bytes_read, 16);
    }

    #[test]
    fn one_hit_path_matches_a_one_hit_delta() {
        let hits = aql_metrics::counter("aql_store_cache_hits_total", "");
        let (base, h0) = (global(), hits.get());
        global_hit();
        assert_eq!(
            global().delta_since(&base),
            CacheStats { hits: 1, ..Default::default() }
        );
        assert!(hits.get() > h0);
    }
}
