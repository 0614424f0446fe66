//! The process-wide governor: one byte ledger over every consumer of
//! chunk memory.
//!
//! Each [`ChunkCache`](crate::ChunkCache) holds an LRU byte budget of
//! its own, and that budget is what bounds residency. The governor
//! only counts: every cache charges the bytes it holds to one atomic
//! [`Ledger`] and releases them on eviction or drop, so the sum across
//! caches (one per lazily bound array, plus the prefetcher's warm
//! pools) and its high-water mark can be read at any time.
//!
//! The ledger is atomic (not thread-local like
//! [`stats::global`](crate::stats::global)) because residency is a
//! *process* property: the prefetch worker charges from its own
//! thread, and concurrent sessions on different threads share it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A byte ledger: the bytes currently charged and their high-water
/// mark. The process governor is one static `Ledger`; the struct is
/// public so the accounting is testable without touching process
/// state.
#[derive(Debug, Default)]
pub struct Ledger {
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl Ledger {
    /// An empty ledger.
    pub const fn new() -> Ledger {
        Ledger { in_use: AtomicU64::new(0), peak: AtomicU64::new(0) }
    }

    /// Bytes currently charged.
    pub fn bytes_in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of bytes charged since the ledger was created
    /// (or since [`reset_peak`](Ledger::reset_peak)).
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current residency, so a caller
    /// can measure the peak of one bounded operation.
    pub fn reset_peak(&self) {
        self.peak.store(self.in_use.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Charge `bytes`. Saturating, so a charge can never wrap the
    /// ledger.
    pub fn charge(&self, bytes: u64) {
        let (Ok(used) | Err(used)) =
            self.in_use.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_add(bytes))
            });
        self.peak.fetch_max(used.saturating_add(bytes), Ordering::Relaxed);
    }

    /// Release previously charged bytes (eviction, cache drop).
    /// Saturating, so a release can never wrap the ledger.
    pub fn release(&self, bytes: u64) {
        let _ = self.in_use.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
            Some(u.saturating_sub(bytes))
        });
    }
}

/// The process-wide ledger.
static GLOBAL: Ledger = Ledger::new();

/// Governed bytes currently charged across the process.
pub fn bytes_in_use() -> u64 {
    GLOBAL.bytes_in_use()
}

/// High-water mark of governed bytes since process start (or the last
/// [`reset_peak`]: a session resets it as each statement starts) — the
/// figure the acceptance tests assert a cache-budget bound on. The
/// session reports each statement's to the process-wide
/// `aql_store_governor_peak_bytes` gauge, which keeps the largest.
pub fn peak_bytes() -> u64 {
    GLOBAL.peak_bytes()
}

/// Reset the process-wide high-water mark to the current residency.
pub fn reset_peak() {
    GLOBAL.reset_peak();
}

/// Charge `bytes` of residency to the process ledger.
pub(crate) fn charge(bytes: u64) {
    GLOBAL.charge(bytes)
}

/// Release previously charged bytes.
pub(crate) fn release(bytes: u64) {
    GLOBAL.release(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These exercise a *local* ledger: the process-wide one is shared
    // with every other test in this binary (tests/eviction_stress.rs
    // checks it in its own process).

    #[test]
    fn charge_release_roundtrip() {
        let l = Ledger::new();
        l.charge(60);
        l.charge(40);
        assert_eq!(l.bytes_in_use(), 100);
        l.release(60);
        l.charge(10);
        assert_eq!(l.bytes_in_use(), 50);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let l = Ledger::new();
        l.charge(100);
        l.charge(50);
        l.release(120);
        l.charge(10);
        assert_eq!(l.peak_bytes(), 150, "peak survives releases");
        l.reset_peak();
        assert_eq!(l.peak_bytes(), l.bytes_in_use());
        l.charge(5);
        assert_eq!(l.peak_bytes(), 45);
    }

    #[test]
    fn charge_and_release_saturate() {
        let l = Ledger::new();
        l.charge(10);
        l.release(u64::MAX);
        assert_eq!(l.bytes_in_use(), 0);
        l.charge(u64::MAX);
        l.charge(1);
        assert_eq!(l.bytes_in_use(), u64::MAX);
    }
}
