//! Read-ahead prefetching for lazy arrays.
//!
//! A [`Prefetcher`] owns a worker thread and a clone of the array's
//! [`ChunkSource`]. The consumer side reports every chunk access via
//! [`observe`](Prefetcher::observe); a small stride predictor watches
//! the access sequence and, once it has seen the same non-zero chunk
//! stride twice in a row, enqueues the next `depth` chunks along that
//! stride. The worker loads them into a bounded **warm pool** while the
//! consumer is busy decoding or computing; when the consumer actually
//! misses on a predicted chunk, [`take`](Prefetcher::take) hands the
//! buffer over without touching the source.
//!
//! The design is shaped by two constraints of the surrounding runtime:
//!
//! * **The runtime is single-threaded.** [`ChunkCache`] and the value
//!   model are `Rc`-based, so the worker can never insert into the
//!   cache directly. Instead it fills the warm pool (a `Mutex`-guarded
//!   map owned by the prefetcher) and the *consumer* moves buffers
//!   from pool to cache on its own thread.
//! * **Memory stays governed.** Every pooled buffer is charged against
//!   the process [`governor`] ledger exactly like cache residency; a
//!   denied charge drops the speculative buffer (the consumer just
//!   pays the miss). The pool additionally keeps itself under its own
//!   `pool_bytes` bound by discarding the oldest unconsumed buffer —
//!   counted as *wasted* speculation.
//!
//! The worker installs the prefetcher's stop flag as its thread's
//! [`interrupt`] cancel hook, so a slow source that sleeps through
//! [`interrupt::sleep`] (e.g. [`RemoteChunkSource`]'s simulated round
//! trips) is preempted promptly on shutdown instead of being waited
//! out.
//!
//! Effectiveness is observable: each prefetcher counts issued, hit and
//! wasted loads in its own [`PrefetchStats`], and emits the same three
//! as events (`aql_store_prefetch_{issued,hits,wasted}_total`,
//! `prefetch.*` trace counts — which only a consumer-thread event can
//! reach: the trace subscriber is thread-local and lives with the
//! statement).
//!
//! [`ChunkCache`]: crate::ChunkCache
//! [`RemoteChunkSource`]: crate::RemoteChunkSource

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use aql_journal::{emit, Event};

use crate::buffer::ScalarBuf;
use crate::governor;
use crate::interrupt;
use crate::layout::ChunkLayout;
use crate::source::ChunkSource;

/// Tuning knobs for a [`Prefetcher`].
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// How many chunks ahead of the detected stride to request.
    pub depth: usize,
    /// Byte bound on the warm pool of loaded-but-unconsumed chunks.
    pub pool_bytes: u64,
}

impl Default for PrefetchConfig {
    /// Four chunks of look-ahead under a 4 MiB pool: deep enough to
    /// hide one round trip per chunk at the default 4096-element chunk
    /// size, small enough to be noise under the default cache budget.
    fn default() -> PrefetchConfig {
        PrefetchConfig { depth: 4, pool_bytes: 4 << 20 }
    }
}

/// Monotonic effectiveness counters for one prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Speculative loads requested of the worker.
    pub issued: u64,
    /// Misses served from the warm pool.
    pub hits: u64,
    /// Speculative buffers discarded unconsumed (pool overflow,
    /// governor denial, or shutdown drain).
    pub wasted: u64,
}

/// What the consumer and the worker share.
struct State {
    /// Chunk ids the worker should load, oldest first.
    pending: VecDeque<u64>,
    /// Loaded buffers awaiting consumption.
    ready: HashMap<u64, ScalarBuf>,
    /// Insertion order of `ready`, for oldest-first overflow discard.
    ready_order: VecDeque<u64>,
    /// Payload bytes held in `ready` (each charged to the governor).
    ready_bytes: u64,
    /// The worker popped a chunk it has not finished settling yet.
    in_flight: bool,
    /// Worker has exited (source failure makes it give up).
    worker_done: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    stop: Arc<AtomicBool>,
    pool_bytes: u64,
    issued: AtomicU64,
    hits: AtomicU64,
    wasted: AtomicU64,
    /// Interned flight-recorder label of the owning binding's source,
    /// so worker-thread events are attributable (0 = unlabeled).
    jlabel: AtomicU32,
}

impl Shared {
    fn jlabel(&self) -> u16 {
        self.jlabel.load(Ordering::Relaxed) as u16
    }

    /// Count one speculative load that never paid off.
    fn count_waste(&self) {
        self.wasted.fetch_add(1, Ordering::Relaxed);
        emit(Event::PrefetchWasted { src: self.jlabel() });
    }

    /// Discard a never-consumed buffer: release its governed bytes and
    /// count the waste. `bytes` were part of `ready_bytes` already.
    fn waste(&self, state: &mut State, bytes: u64) {
        state.ready_bytes -= bytes;
        governor::release(bytes);
        self.count_waste();
    }
}

/// The stride predictor: remembers the last observed chunk id and how
/// many consecutive accesses repeated the same non-zero id delta.
#[derive(Debug, Default)]
struct Predictor {
    last: Option<u64>,
    stride: i64,
    run: u32,
}

impl Predictor {
    /// Feed one access; returns the confirmed stride once the same
    /// delta has been seen at least twice in a row.
    fn observe(&mut self, chunk: u64) -> Option<i64> {
        if let Some(last) = self.last {
            if chunk == last {
                // Repeated access to one chunk: no new information.
                return None;
            }
            let delta = (chunk as i128 - last as i128) as i64;
            if delta == self.stride {
                self.run += 1;
            } else {
                self.stride = delta;
                self.run = 1;
            }
        }
        self.last = Some(chunk);
        (self.run >= 2 && self.stride != 0).then_some(self.stride)
    }
}

/// A read-ahead worker warming chunks for one lazy array.
///
/// Created with [`spawn`](Prefetcher::spawn); dropped, it stops the
/// worker, joins it, and returns every unconsumed buffer's bytes to
/// the governor.
pub struct Prefetcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    predictor: Predictor,
    config: PrefetchConfig,
    num_chunks: u64,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Prefetcher {
    /// Start a worker thread that loads chunks of `layout` from
    /// `source` on request. The source must be an independent handle —
    /// the worker owns it outright and reads may race the consumer's
    /// own loads from its copy.
    pub fn spawn(
        source: Box<dyn ChunkSource + Send>,
        layout: ChunkLayout,
        config: PrefetchConfig,
    ) -> Prefetcher {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                ready: HashMap::new(),
                ready_order: VecDeque::new(),
                ready_bytes: 0,
                in_flight: false,
                worker_done: false,
            }),
            work: Condvar::new(),
            stop: Arc::clone(&stop),
            pool_bytes: config.pool_bytes,
            issued: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            wasted: AtomicU64::new(0),
            jlabel: AtomicU32::new(0),
        });
        let num_chunks = layout.num_chunks();
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aql-prefetch".into())
                .spawn(move || worker_loop(shared, source, layout))
                .ok()
        };
        if worker.is_none() {
            // Thread creation failed (resource exhaustion): degrade to
            // a no-op prefetcher rather than surfacing an error on a
            // purely speculative path.
            shared.state.lock().expect("prefetch lock").worker_done = true;
        }
        Prefetcher { shared, worker, predictor: Predictor::default(), config, num_chunks }
    }

    /// Attribute this prefetcher's flight-recorder events to the
    /// interned label of the owning binding's source (see
    /// [`aql_journal::intern`]). Set by the cache the prefetcher is
    /// attached to.
    pub fn set_journal_label(&self, label: u16) {
        self.shared.jlabel.store(label as u32, Ordering::Relaxed);
    }

    /// Report an access to `chunk` (hit or miss). When the predictor
    /// confirms a stride, the next [`depth`](PrefetchConfig::depth)
    /// chunks along it are queued for the worker.
    pub fn observe(&mut self, chunk: u64) {
        let Some(stride) = self.predictor.observe(chunk) else { return };
        let mut state = self.shared.state.lock().expect("prefetch lock");
        if state.worker_done {
            return;
        }
        let mut issued = 0u64;
        for k in 1..=self.config.depth as i128 {
            let target = chunk as i128 + stride as i128 * k;
            if target < 0 || target >= self.num_chunks as i128 {
                break;
            }
            let target = target as u64;
            if state.ready.contains_key(&target) || state.pending.contains(&target) {
                continue;
            }
            state.pending.push_back(target);
            issued += 1;
        }
        if issued > 0 {
            self.shared.issued.fetch_add(issued, Ordering::Relaxed);
            emit(Event::PrefetchIssued { src: self.shared.jlabel(), n: issued });
            self.shared.work.notify_one();
        }
    }

    /// Claim a warm buffer for `chunk`, if speculation already loaded
    /// it. Ownership (and the governed byte charge) passes to the
    /// caller — the cache the buffer lands in re-charges it.
    pub fn take(&mut self, chunk: u64) -> Option<ScalarBuf> {
        let mut state = self.shared.state.lock().expect("prefetch lock");
        let buf = state.ready.remove(&chunk)?;
        state.ready_order.retain(|&c| c != chunk);
        let bytes = buf.byte_len();
        state.ready_bytes -= bytes;
        drop(state);
        // The caller's cache will try_charge these same bytes; release
        // first so a tight budget does not double-count the handoff.
        governor::release(bytes);
        self.shared.hits.fetch_add(1, Ordering::Relaxed);
        emit(Event::PrefetchHit);
        Some(buf)
    }

    /// Effectiveness counters for this prefetcher.
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            issued: self.shared.issued.load(Ordering::Relaxed),
            hits: self.shared.hits.load(Ordering::Relaxed),
            wasted: self.shared.wasted.load(Ordering::Relaxed),
        }
    }

    /// Block until the worker has drained the pending queue — test
    /// hook, not needed for correctness.
    #[cfg(test)]
    pub(crate) fn quiesce(&self) {
        let mut state = self.shared.state.lock().expect("prefetch lock");
        while (!state.pending.is_empty() || state.in_flight) && !state.worker_done {
            let (next, _timeout) = self
                .shared
                .work
                .wait_timeout(state, std::time::Duration::from_millis(5))
                .expect("prefetch lock");
            state = next;
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Raise the flag under the state lock: the worker tests it and
        // goes to sleep under that lock, so it either sees the flag or
        // is already waiting when the notification goes out. Stored
        // unlocked it can land between the two and be slept through,
        // and the join below never returns.
        {
            let _state = self.shared.state.lock().expect("prefetch lock");
            self.shared.stop.store(true, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // Everything still warm was speculation that never paid off.
        let mut state = self.shared.state.lock().expect("prefetch lock");
        let leftover: Vec<u64> = state.ready_order.drain(..).collect();
        for chunk in leftover {
            if let Some(buf) = state.ready.remove(&chunk) {
                let bytes = buf.byte_len();
                self.shared.waste(&mut state, bytes);
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, mut source: Box<dyn ChunkSource + Send>, layout: ChunkLayout) {
    // The stop flag doubles as this thread's cancel hook, so interrupt-
    // aware sources (simulated remote latency, resilient backoff
    // sleeps) wake promptly on shutdown.
    let _guard = interrupt::install(None, Some(Arc::clone(&shared.stop)));
    loop {
        let chunk = {
            let mut state = shared.state.lock().expect("prefetch lock");
            // Whatever happened to the previous chunk — inserted,
            // errored, denied — it is settled now.
            state.in_flight = false;
            shared.work.notify_all();
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    state.worker_done = true;
                    shared.work.notify_all();
                    return;
                }
                if let Some(chunk) = state.pending.pop_front() {
                    if state.ready.contains_key(&chunk) {
                        continue;
                    }
                    state.in_flight = true;
                    break chunk;
                }
                state = shared.work.wait(state).expect("prefetch lock");
            }
        };
        let Some((start, count)) = layout.chunk_bounds(chunk) else { continue };
        let buf = match source.read_chunk(&start, &count) {
            Ok(buf) => buf,
            // Speculative loads never surface errors: the consumer's
            // own (resilient, retrying) load path will hit the real
            // failure if the chunk is ever actually needed.
            Err(_) => continue,
        };
        let bytes = buf.byte_len();
        if !governor::try_charge(bytes) {
            // Denied by the process budget: speculation yields first
            // (DESIGN.md §12 — real work sheds caches; guesses just
            // give up).
            shared.count_waste();
            continue;
        }
        let mut state = shared.state.lock().expect("prefetch lock");
        state.ready.insert(chunk, buf);
        state.ready_order.push_back(chunk);
        state.ready_bytes += bytes;
        // Keep the pool bounded: oldest unconsumed speculation goes
        // first.
        while state.ready_bytes > shared.pool_bytes {
            let Some(oldest) = state.ready_order.pop_front() else { break };
            if let Some(old) = state.ready.remove(&oldest) {
                let old_bytes = old.byte_len();
                shared.waste(&mut state, old_bytes);
            }
        }
        shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemChunkSource;

    fn source_1d(n: u64) -> Box<dyn ChunkSource + Send> {
        Box::new(
            MemChunkSource::new(vec![n], ScalarBuf::F64((0..n).map(|i| i as f64).collect()))
                .unwrap(),
        )
    }

    fn layout_1d(n: u64, chunk: u64) -> ChunkLayout {
        ChunkLayout::new(vec![n], vec![chunk]).unwrap()
    }

    #[test]
    fn predictor_needs_two_confirmations() {
        let mut p = Predictor::default();
        assert_eq!(p.observe(0), None);
        assert_eq!(p.observe(1), None, "one delta is not a pattern");
        assert_eq!(p.observe(2), Some(1));
        assert_eq!(p.observe(3), Some(1));
        assert_eq!(p.observe(3), None, "repeat is ignored");
        assert_eq!(p.observe(10), None, "pattern break resets");
        assert_eq!(p.observe(8), None);
        assert_eq!(p.observe(6), Some(-2), "descending strides work");
    }

    #[test]
    fn sequential_scan_warms_the_pool() {
        let mut pf = Prefetcher::spawn(
            source_1d(64),
            layout_1d(64, 4),
            PrefetchConfig { depth: 3, pool_bytes: 1 << 20 },
        );
        pf.observe(0);
        pf.observe(1);
        pf.observe(2); // stride 1 confirmed: 3, 4, 5 issued
        pf.quiesce();
        let s = pf.stats();
        assert_eq!(s.issued, 3);
        let warm = pf.take(3).expect("chunk 3 was prefetched");
        assert_eq!(warm, ScalarBuf::F64(vec![12.0, 13.0, 14.0, 15.0]));
        assert!(pf.take(3).is_none(), "a taken buffer is gone");
        assert!(pf.take(17).is_none(), "never predicted");
        assert_eq!(pf.stats().hits, 1);
    }

    #[test]
    fn strided_scan_is_predicted() {
        let mut pf = Prefetcher::spawn(
            source_1d(64),
            layout_1d(64, 4),
            PrefetchConfig { depth: 2, pool_bytes: 1 << 20 },
        );
        pf.observe(0);
        pf.observe(4);
        pf.observe(8); // stride 4 confirmed: 12, don't run off the end
        pf.quiesce();
        assert_eq!(pf.stats().issued, 1, "16 chunks total, only 12 fits");
        assert!(pf.take(12).is_some());
    }

    #[test]
    fn random_probes_issue_nothing() {
        let mut pf =
            Prefetcher::spawn(source_1d(64), layout_1d(64, 4), PrefetchConfig::default());
        for chunk in [3, 11, 0, 7, 13, 2, 9] {
            pf.observe(chunk);
        }
        pf.quiesce();
        assert_eq!(pf.stats().issued, 0, "no stride, no speculation");
    }

    #[test]
    fn pool_overflow_discards_oldest_as_wasted() {
        // Chunks are 4 * 8 = 32 bytes; pool holds two.
        let mut pf = Prefetcher::spawn(
            source_1d(64),
            layout_1d(64, 4),
            PrefetchConfig { depth: 4, pool_bytes: 64 },
        );
        pf.observe(0);
        pf.observe(1);
        pf.observe(2); // issues 3, 4, 5, 6
        pf.quiesce();
        let s = pf.stats();
        assert_eq!(s.issued, 4);
        assert_eq!(s.wasted, 2, "pool of two kept the newest, dropped 3 and 4");
        assert!(pf.take(3).is_none());
        assert!(pf.take(5).is_some());
        assert!(pf.take(6).is_some());
    }

    #[test]
    fn drop_drains_and_counts_waste() {
        // Counter-based: the governor ledger is process-global and
        // other tests in this binary race on it.
        let mut pf =
            Prefetcher::spawn(source_1d(64), layout_1d(64, 4), PrefetchConfig::default());
        pf.observe(0);
        pf.observe(1);
        pf.observe(2); // issues 3..=6
        pf.quiesce();
        let issued = pf.stats().issued;
        assert_eq!(issued, 4);
        let hit = u64::from(pf.take(3).is_some());
        let shared = Arc::clone(&pf.shared);
        drop(pf);
        let wasted = shared.wasted.load(Ordering::Relaxed);
        assert_eq!(
            hit + wasted,
            issued,
            "every issued chunk ends up consumed or counted as waste"
        );
        let state = shared.state.lock().unwrap();
        assert_eq!(state.ready_bytes, 0, "drop drained the pool");
        assert!(state.ready.is_empty());
    }
}
