//! A budgeted LRU buffer cache for chunks.

use std::collections::HashMap;
use std::rc::Rc;

use crate::buffer::ScalarBuf;
use crate::error::StoreError;
use crate::governor;
use crate::interrupt;
use crate::stats::CacheStats;
use aql_journal::{emit, Event};

/// "No slot": the end of the recency list in either direction.
const NIL: usize = usize::MAX;

/// One resident chunk, threaded into the recency list by slot index.
struct Slot {
    id: u64,
    buf: Rc<ScalarBuf>,
    /// Neighbour towards the most recently used end.
    newer: usize,
    /// Neighbour towards the least recently used end.
    older: usize,
}

/// How a miss was satisfied — who actually paid the source read.
///
/// Distinguishing the two closes an attribution race: a warm-pool
/// handover's bytes were read by the prefetcher's *background* thread,
/// possibly while a different statement was running. Counting them as
/// the consuming statement's `bytes_read` both inflates that statement
/// and misattributes the I/O; they are accounted separately as
/// [`CacheStats::prefetched_bytes`] against the owning binding's
/// source label.
pub enum Loaded {
    /// The loader read from the chunk source (consumer-paid I/O).
    Source(ScalarBuf),
    /// The loader claimed a buffer the prefetch worker already loaded.
    Warm(ScalarBuf),
}

/// An LRU cache of chunk buffers held under a configurable byte
/// budget.
///
/// Lookups go through [`get_or_load`](ChunkCache::get_or_load): a hit
/// returns the cached buffer and refreshes its recency — one hash
/// lookup, a relink of the recency list unless the chunk is already
/// the most recent, an `Rc` clone, and one emitted event; no
/// allocation and nothing ordered to update. A miss runs
/// the supplied loader, accounts the loaded bytes, inserts the buffer,
/// and then evicts least-recently-used chunks until the payload bytes
/// held fit the budget again (the just-loaded chunk is never evicted,
/// so a single chunk larger than the whole budget still works — the
/// cache simply holds that one chunk). A loader error is propagated
/// to the caller and leaves the cache contents untouched, so a failed
/// load can never poison previously cached chunks.
///
/// Residency is also charged to the process-wide [`governor`] ledger,
/// which counts it across caches. Misses (and only misses) poll
/// [`interrupt::check`] so
/// a statement blocked on I/O honors its deadline and cancellation.
///
/// Recency is exact LRU: the resident chunks form a doubly linked list
/// from `newest` to `oldest`, linked by index into a dense slot vector
/// (an evicted slot is back-filled by the last one), so eviction pops
/// the tail in constant time.
///
/// Every count is kept twice: in this cache's own [`CacheStats`] and,
/// through one `aql_journal::emit` per event, in every telemetry view
/// (the thread aggregate [`stats::global`](crate::stats::global) among
/// them).
pub struct ChunkCache {
    budget: u64,
    /// Chunk id → index into `slots`.
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    newest: usize,
    oldest: usize,
    bytes: u64,
    stats: CacheStats,
    label: Option<Box<str>>,
    /// The label interned for the flight recorder / attribution ledger
    /// (0 = unlabeled).
    jlabel: u16,
}

impl ChunkCache {
    /// A cache that holds at most `budget_bytes` of chunk payload.
    pub fn new(budget_bytes: u64) -> ChunkCache {
        ChunkCache {
            budget: budget_bytes,
            map: HashMap::new(),
            slots: Vec::new(),
            newest: NIL,
            oldest: NIL,
            bytes: 0,
            stats: CacheStats::default(),
            label: None,
            jlabel: 0,
        }
    }

    /// A cache whose miss-path I/O is attributed to a *source* label
    /// (`netcdf:<var>`, `aqf:<file>`, `mem`) in the per-source
    /// `aql_store_cache_bytes_read_total{source=…}` /
    /// `…_load_errors_total{source=…}` metric series, alongside the
    /// unlabeled process totals.
    pub fn labeled(budget_bytes: u64, label: impl Into<String>) -> ChunkCache {
        let mut cache = ChunkCache::new(budget_bytes);
        let label = label.into();
        cache.jlabel = aql_journal::intern(&label);
        cache.label = Some(label.into_boxed_str());
        cache
    }

    /// The source label miss-path I/O is attributed to, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The interned flight-recorder id of this cache's label.
    pub(crate) fn jlabel(&self) -> u16 {
        self.jlabel
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Payload bytes currently held.
    pub fn bytes_held(&self) -> u64 {
        self.bytes
    }

    /// Number of chunks currently held.
    pub fn chunks_held(&self) -> usize {
        self.map.len()
    }

    /// This cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident chunk ids, least recently used first — the order
    /// eviction takes them in. Test hook.
    #[doc(hidden)]
    pub fn lru_order(&self) -> Vec<u64> {
        let mut ids = Vec::with_capacity(self.slots.len());
        let mut slot = self.oldest;
        while slot != NIL {
            ids.push(self.slots[slot].id);
            slot = self.slots[slot].newer;
        }
        ids
    }

    /// Return chunk `id`, consulting `load` on a miss. Loader bytes
    /// are charged as consumer-paid `bytes_read`; use
    /// [`get_or_load_with`](ChunkCache::get_or_load_with) when the
    /// loader can hand over prefetched buffers.
    pub fn get_or_load(
        &mut self,
        id: u64,
        load: impl FnOnce() -> Result<ScalarBuf, StoreError>,
    ) -> Result<Rc<ScalarBuf>, StoreError> {
        self.get_or_load_with(id, || load().map(Loaded::Source))
    }

    /// Return chunk `id`, consulting `load` on a miss; the loader says
    /// whether the buffer came from the source or a warm pool (see
    /// [`Loaded`]), which decides whether its bytes count as
    /// `bytes_read` or `prefetched_bytes`.
    pub fn get_or_load_with(
        &mut self,
        id: u64,
        load: impl FnOnce() -> Result<Loaded, StoreError>,
    ) -> Result<Rc<ScalarBuf>, StoreError> {
        if let Some(&slot) = self.map.get(&id) {
            if slot != self.newest {
                self.unlink(slot);
                self.link_newest(slot);
            }
            self.stats.hits += 1;
            emit(Event::CacheHit { src: self.jlabel });
            return Ok(Rc::clone(&self.slots[slot].buf));
        }
        // Miss path only: a statement blocked on I/O must notice its
        // deadline/cancellation, but a hit costs nothing extra.
        interrupt::check()?;
        self.stats.misses += 1;
        let src = self.jlabel;
        let buf = match load() {
            Ok(Loaded::Source(buf)) => {
                self.stats.bytes_read += buf.byte_len();
                emit(Event::CacheMiss { src, bytes: buf.byte_len() });
                buf
            }
            Ok(Loaded::Warm(buf)) => {
                self.stats.prefetched_bytes += buf.byte_len();
                emit(Event::CacheWarm { src, bytes: buf.byte_len() });
                buf
            }
            Err(e) => {
                self.stats.load_errors += 1;
                emit(Event::CacheLoadError { src });
                return Err(e);
            }
        };
        let (loaded, buf) = (buf.byte_len(), Rc::new(buf));
        governor::charge(loaded);
        self.bytes += loaded;
        let slot = self.slots.len();
        self.slots.push(Slot { id, buf: Rc::clone(&buf), newer: NIL, older: NIL });
        self.map.insert(id, slot);
        self.link_newest(slot);
        self.evict_over_budget(id);
        Ok(buf)
    }

    /// Take `slot` out of the recency list (its own links go stale).
    fn unlink(&mut self, slot: usize) {
        let Slot { newer, older, .. } = self.slots[slot];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Put an unlinked `slot` at the most recently used end.
    fn link_newest(&mut self, slot: usize) {
        self.slots[slot].newer = NIL;
        self.slots[slot].older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slots[n].newer = slot,
        }
        self.newest = slot;
    }

    /// Drop the chunk in `slot`, returning its governed bytes to the
    /// process ledger and counting the eviction. The last slot moves
    /// into the hole so `slots` stays dense.
    fn evict(&mut self, slot: usize) {
        self.unlink(slot);
        let gone = self.slots.swap_remove(slot);
        self.map.remove(&gone.id);
        if let Some(moved) = self.slots.get(slot) {
            let (id, newer, older) = (moved.id, moved.newer, moved.older);
            self.map.insert(id, slot);
            match newer {
                NIL => self.newest = slot,
                n => self.slots[n].older = slot,
            }
            match older {
                NIL => self.oldest = slot,
                o => self.slots[o].newer = slot,
            }
        }
        let freed = gone.buf.byte_len();
        self.bytes -= freed;
        governor::release(freed);
        self.stats.evictions += 1;
        emit(Event::CacheEvict { src: self.jlabel });
    }

    /// Evict LRU-first until within budget, sparing `keep`.
    fn evict_over_budget(&mut self, keep: u64) {
        while self.bytes > self.budget {
            let mut victim = self.oldest;
            if victim != NIL && self.slots[victim].id == keep {
                victim = self.slots[victim].newer;
            }
            if victim == NIL {
                break;
            }
            self.evict(victim);
        }
    }
}

impl Drop for ChunkCache {
    /// Give the governed bytes of everything still resident back to
    /// the process ledger.
    fn drop(&mut self) {
        governor::release(self.bytes);
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCache")
            .field("budget", &self.budget)
            .field("bytes", &self.bytes)
            .field("chunks", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(n: usize, fill: f64) -> ScalarBuf {
        ScalarBuf::F64(vec![fill; n])
    }

    #[test]
    fn hit_after_miss() {
        let mut c = ChunkCache::new(1024);
        c.get_or_load(0, || Ok(buf(4, 1.0))).unwrap();
        let b = c.get_or_load(0, || panic!("should not reload")).unwrap();
        assert_eq!(b.len(), 4);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.bytes_read), (1, 1, 32));
    }

    #[test]
    fn evicts_lru_first_under_budget() {
        // Budget fits two 32-byte chunks.
        let mut c = ChunkCache::new(64);
        c.get_or_load(0, || Ok(buf(4, 0.0))).unwrap();
        c.get_or_load(1, || Ok(buf(4, 1.0))).unwrap();
        c.get_or_load(0, || panic!("0 still cached")).unwrap(); // refresh 0
        c.get_or_load(2, || Ok(buf(4, 2.0))).unwrap(); // evicts 1
        c.get_or_load(0, || panic!("0 survived")).unwrap();
        let reloaded = std::cell::Cell::new(false);
        c.get_or_load(1, || {
            reloaded.set(true);
            Ok(buf(4, 1.0))
        })
        .unwrap();
        assert!(reloaded.get(), "LRU chunk 1 was evicted");
        assert_eq!(c.stats().evictions, 2); // 1 evicted, then 2 or 0 evicted on reload of 1
    }

    #[test]
    fn oversized_chunk_is_kept_alone() {
        let mut c = ChunkCache::new(16);
        c.get_or_load(0, || Ok(buf(2, 0.0))).unwrap();
        c.get_or_load(1, || Ok(buf(100, 1.0))).unwrap(); // 800 bytes > budget
        assert_eq!(c.chunks_held(), 1);
        c.get_or_load(1, || panic!("oversized chunk stays resident")).unwrap();
    }

    #[test]
    fn load_error_does_not_poison() {
        let mut c = ChunkCache::new(1024);
        c.get_or_load(0, || Ok(buf(4, 0.0))).unwrap();
        let err = c.get_or_load(1, || Err(StoreError::io("boom"))).unwrap_err();
        assert_eq!(err.class(), crate::FaultClass::Fatal);
        // Chunk 0 still hits; chunk 1 was never inserted.
        c.get_or_load(0, || panic!("0 still cached")).unwrap();
        let s = c.stats();
        assert_eq!(s.load_errors, 1);
        assert_eq!(c.chunks_held(), 1);
        // A later successful load of 1 caches normally.
        c.get_or_load(1, || Ok(buf(4, 1.0))).unwrap();
        c.get_or_load(1, || panic!("1 cached after recovery")).unwrap();
    }
}
