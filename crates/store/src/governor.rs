//! The process-wide resource governor: one byte budget over every
//! consumer of chunk memory.
//!
//! Each [`ChunkCache`](crate::ChunkCache) already holds an LRU byte
//! budget of its own, but nothing bounded the *sum* across caches (one
//! per lazily bound array), nor the transient buffers eager
//! materialization allocates. The governor is that bound: a single
//! atomic [`Ledger`] of governed bytes plus a configurable process
//! budget (default: unlimited, so the governor is invisible until
//! someone opts in via [`set_budget`]).
//!
//! Degradation order (DESIGN.md §12): when a charge would exceed the
//! budget, the charging cache first **sheds its own residency**
//! (LRU-first eviction, releasing governed bytes) and retries; only if
//! the allocation still does not fit — the budget is smaller than the
//! single chunk or a concurrent consumer holds the rest — does the
//! charge fail with [`StoreError::Budget`], which the evaluator
//! surfaces as `EvalError::ResourceExhausted`. That fails the one
//! offending statement; the session, its bindings, and every other
//! cache survive.
//!
//! The ledger is atomic (not thread-local like
//! [`stats::global`](crate::stats::global)) because the budget is a
//! *process* property: concurrent sessions on different threads must
//! see each other's residency.

use std::sync::atomic::{AtomicU64, Ordering};

use aql_journal::{emit, Event};

use crate::error::StoreError;

/// A byte ledger: a budget plus the bytes currently charged against
/// it. The process governor is one static `Ledger`; the struct is
/// public so the accounting is testable without touching process
/// state.
#[derive(Debug)]
pub struct Ledger {
    /// `u64::MAX` encodes "unlimited".
    budget: AtomicU64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl Ledger {
    /// An empty ledger with no budget bound.
    pub const fn unlimited() -> Ledger {
        Ledger {
            budget: AtomicU64::new(u64::MAX),
            in_use: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Set the byte budget; `None` removes the bound. Bytes already
    /// charged are unaffected — an over-budget ledger simply denies
    /// new charges until enough is released.
    pub fn set_budget(&self, budget: Option<u64>) {
        self.budget.store(budget.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The configured budget, or `None` when unlimited.
    pub fn budget(&self) -> Option<u64> {
        match self.budget.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
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

    /// Try to charge `bytes`. `false` when the charge would push the
    /// ledger over budget; the caller is expected to shed and retry
    /// (see [`crate::ChunkCache`]).
    pub fn try_charge(&self, bytes: u64) -> bool {
        let budget = self.budget.load(Ordering::Relaxed);
        loop {
            let used = self.in_use.load(Ordering::Relaxed);
            let Some(next) = used.checked_add(bytes) else { return false };
            if next > budget {
                return false;
            }
            if self
                .in_use
                .compare_exchange_weak(used, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.peak.fetch_max(next, Ordering::Relaxed);
                return true;
            }
        }
    }

    /// Release previously charged bytes (eviction, cache drop).
    /// Saturating, so a release can never wrap the ledger.
    pub fn release(&self, bytes: u64) {
        let mut used = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = used.saturating_sub(bytes);
            match self.in_use.compare_exchange_weak(
                used,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(cur) => used = cur,
            }
        }
    }

    /// Would a one-off allocation of `bytes` ever fit this budget,
    /// regardless of current residency?
    fn admits(&self, bytes: u64) -> bool {
        bytes <= self.budget.load(Ordering::Relaxed)
    }
}

/// The process-wide ledger.
static GLOBAL: Ledger = Ledger::unlimited();

/// Set the process-wide byte budget; `None` removes the bound.
pub fn set_budget(budget: Option<u64>) {
    GLOBAL.set_budget(budget);
    emit(Event::GovernorBudget { bytes: budget.unwrap_or(u64::MAX) });
}

/// The configured process-wide budget, or `None` when unlimited.
pub fn budget() -> Option<u64> {
    GLOBAL.budget()
}

/// Governed bytes currently charged across the process.
pub fn bytes_in_use() -> u64 {
    GLOBAL.bytes_in_use()
}

/// High-water mark of governed bytes since process start (or the last
/// [`reset_peak`]). Reading it refreshes the
/// `aql_store_governor_peak_bytes` gauge, so a scrape taken after a
/// bounded operation (a streaming `writeval`, say) shows the true peak
/// residency the operation reached — the figure the acceptance tests
/// assert a cache-budget bound on.
pub fn peak_bytes() -> u64 {
    let peak = GLOBAL.peak_bytes();
    emit(Event::GovernorPeak { bytes: peak });
    peak
}

/// Reset the process-wide high-water mark to the current residency.
pub fn reset_peak() {
    GLOBAL.reset_peak();
}

/// Charge `bytes` against the process budget (cache residency).
pub(crate) fn try_charge(bytes: u64) -> bool {
    GLOBAL.try_charge(bytes)
}

/// Release previously charged bytes.
pub(crate) fn release(bytes: u64) {
    GLOBAL.release(bytes)
}

/// Build the denial error for a charge that failed even after
/// shedding, and emit the denial.
pub(crate) fn deny(requested: u64) -> StoreError {
    emit(Event::GovernorDeny { requested });
    StoreError::Budget { requested, budget: GLOBAL.budget.load(Ordering::Relaxed) }
}

/// Admission check for a *transient* allocation (eager
/// materialization of `bytes` by `gen` / tabulation / `index`): the
/// bytes are not charged — they live on the evaluator's stack and are
/// freed unpredictably — but a single request larger than the whole
/// process budget is denied up front, since no amount of cache
/// shedding could make it fit.
pub fn admit_materialization(bytes: u64) -> Result<(), StoreError> {
    if !GLOBAL.admits(bytes) {
        return Err(deny(bytes));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // These exercise a *local* ledger: the process-wide one is shared
    // with every other test in this binary, so denial behavior against
    // it is tested in its own process (tests/eviction_stress.rs).

    #[test]
    fn unlimited_by_default() {
        let l = Ledger::unlimited();
        assert_eq!(l.budget(), None);
        assert!(l.try_charge(u64::MAX / 2));
        assert!(l.admits(u64::MAX - 1));
    }

    #[test]
    fn charge_release_roundtrip() {
        let l = Ledger::unlimited();
        l.set_budget(Some(100));
        assert_eq!(l.budget(), Some(100));
        assert!(l.try_charge(60));
        assert!(l.try_charge(40));
        assert!(!l.try_charge(1), "over budget must deny");
        l.release(60);
        assert!(l.try_charge(10));
        assert_eq!(l.bytes_in_use(), 50);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let l = Ledger::unlimited();
        assert!(l.try_charge(100));
        assert!(l.try_charge(50));
        l.release(120);
        assert!(l.try_charge(10));
        assert_eq!(l.peak_bytes(), 150, "peak survives releases");
        l.reset_peak();
        assert_eq!(l.peak_bytes(), l.bytes_in_use());
        assert!(l.try_charge(5));
        assert_eq!(l.peak_bytes(), 45);
    }

    #[test]
    fn release_saturates() {
        let l = Ledger::unlimited();
        assert!(l.try_charge(10));
        l.release(u64::MAX);
        assert_eq!(l.bytes_in_use(), 0);
    }

    #[test]
    fn shrinking_budget_denies_new_charges_only() {
        let l = Ledger::unlimited();
        l.set_budget(Some(1000));
        assert!(l.try_charge(800));
        l.set_budget(Some(100));
        assert!(!l.try_charge(1), "already over the shrunk budget");
        assert_eq!(l.bytes_in_use(), 800, "existing residency untouched");
        l.release(800);
        assert!(l.try_charge(100));
    }

    #[test]
    fn admission_is_budget_not_residency() {
        let l = Ledger::unlimited();
        l.set_budget(Some(1024));
        assert!(l.try_charge(1000));
        // 1024 could fit once residency drains; 1025 never can.
        assert!(l.admits(1024));
        assert!(!l.admits(1025));
    }
}
