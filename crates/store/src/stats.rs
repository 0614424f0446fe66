//! Cache counters, as sums of attribution rows.
//!
//! A cache keeps no counters of its own: each hit, miss, eviction and
//! load error is emitted once through `aql_journal::emit` and lands in
//! this thread's open attribution row (`aql_journal::attr`). A
//! [`CacheStats`] is a sum of such rows, read through the one mapping
//! below: a statement's is its row (`CacheStats::from`), and [`global`]
//! is every row this thread has closed plus the open one. The runtime
//! is single-threaded (values are `Rc`-based) and every event that
//! lands in a row is emitted on the thread that owns the array, so a
//! thread's sum is exact, not approximate.

use aql_journal::attr::{Ledger, SourceCounts};

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

impl From<SourceCounts> for CacheStats {
    /// An attribution row read as cache counters: a miss either loaded
    /// a chunk or failed to.
    fn from(t: SourceCounts) -> CacheStats {
        CacheStats {
            hits: t.hits,
            misses: t.chunks_loaded + t.load_errors,
            evictions: t.evictions,
            bytes_read: t.bytes_read,
            prefetched_bytes: t.prefetched_bytes,
            load_errors: t.load_errors,
        }
    }
}

impl From<&Ledger> for CacheStats {
    /// A statement's counters: its row, every source added up.
    fn from(row: &Ledger) -> CacheStats {
        CacheStats::from(row.sources.iter().fold(SourceCounts::default(), |sum, (_, c)| sum + *c))
    }
}

/// Every cache event this thread saw, inside a statement or not: the
/// sum of its closed attribution rows plus the open one.
pub fn global() -> CacheStats {
    CacheStats::from(aql_journal::attr::totals())
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
    fn global_is_the_sum_of_this_threads_rows() {
        use aql_journal::{emit, Event};
        let base = global();
        emit(Event::CacheHit { src: 0 });
        emit(Event::CacheMiss { src: 0, bytes: 16 });
        emit(Event::CacheLoadError { src: 0 });
        emit(Event::CacheEvict { src: 0 });
        assert_eq!(
            global().delta_since(&base),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 1,
                bytes_read: 16,
                prefetched_bytes: 0,
                load_errors: 1,
            }
        );
    }
}
