//! Retry and checksum verification for chunk sources.
//!
//! [`ResilientSource`] wraps any [`ChunkSource`] with the resilience
//! stack (DESIGN.md §12):
//!
//! 1. **Interrupt check** — the statement's deadline/cancellation
//!    flags (installed by the evaluator via [`crate::interrupt`]) are
//!    polled before touching the source and during every backoff wait,
//!    so a hung source cannot outlive its statement's `Limits`.
//! 2. **Retry with backoff + jitter** — retryable failures (transient
//!    I/O, checksum mismatches) are retried up to `attempts` times
//!    with exponentially growing, jittered, *interruptible* sleeps.
//! 3. **Checksum verification** — when the source advertises a
//!    checksum ([`ChunkSource::chunk_checksum`]), every payload is
//!    verified before it is served; a mismatch is retried (the read
//!    path may be flaky) and only surfaces as [`StoreError::Corrupt`]
//!    once retries exhaust. Corrupted data is never returned.
//!
//! Failures of the *caller or statement* (shape errors, interrupts)
//! pass through unretried. The stack keeps no state between calls but
//! its jitter draws: a source that fails costs each read its own
//! bounded attempts, and the first clean read serves.

use std::time::Duration;

use aql_journal::{emit, Event};

use crate::buffer::ScalarBuf;
use crate::error::{FaultClass, StoreError};
use crate::fault::{checksum, unit};
use crate::interrupt;
use crate::source::ChunkSource;

/// Retry policy: exponential backoff with multiplicative jitter.
///
/// Attempt `k` (1-based) that fails retryably sleeps
/// `min(base · 2^(k−1), max)` scaled by a uniform factor in
/// `[1 − jitter, 1 + jitter]`. `jitter = 0` reproduces the fixed
/// exponential schedule exactly.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts; min 1).
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Cap on any single backoff sleep.
    pub max: Duration,
    /// Jitter fraction in `[0, 1)`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `next_attempt` (2-based). `unit`, a
    /// uniform draw from `[0, 1)`, picks the point in the jitter band
    /// (`0.5` is the un-jittered schedule).
    pub fn backoff(&self, next_attempt: u32, unit: f64) -> Duration {
        let exp = next_attempt.saturating_sub(2).min(20);
        let raw = self.base.saturating_mul(1u32 << exp).min(self.max);
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        raw.mul_f64(factor.max(0.0))
    }
}

/// The full resilience configuration for one wrapped source.
#[derive(Debug, Clone, Default)]
pub struct ResiliencePolicy {
    /// Retry schedule for retryable failures.
    pub retry: RetryPolicy,
}

/// A [`ChunkSource`] wrapped in the resilience stack: interrupt
/// checks, retry with jittered backoff, and checksum verification.
/// See the module docs for the exact order.
pub struct ResilientSource<S> {
    inner: S,
    retry: RetryPolicy,
    /// [`splitmix64`](crate::fault::splitmix64) state of the jitter draws.
    jitter: u64,
    /// Interned flight-recorder id of this source's label, so retry
    /// and checksum events are attributable.
    jlabel: u16,
}

impl<S: ChunkSource> ResilientSource<S> {
    /// Wrap `inner` (labelled `label` for its events) under `policy`.
    pub fn new(inner: S, label: impl Into<String>, policy: ResiliencePolicy) -> ResilientSource<S> {
        let label = label.into();
        // Seed the jitter draws with the label, so two sources with the
        // same policy do not sleep in lockstep.
        let mut seed: u64 = 0x5157_4C2D_5245_5452;
        for b in label.bytes() {
            seed = seed.rotate_left(7) ^ b as u64;
        }
        ResilientSource {
            inner,
            jitter: seed,
            jlabel: aql_journal::intern(&label),
            retry: RetryPolicy { attempts: policy.retry.attempts.max(1), ..policy.retry },
        }
    }

    /// One attempt: read, then verify if a checksum is advertised.
    fn attempt(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let buf = self.inner.read_chunk(start, count)?;
        if let Some(want) = self.inner.chunk_checksum(start, count) {
            let got = checksum(&buf);
            if got != want {
                emit(Event::ChecksumMismatch { src: self.jlabel });
                return Err(StoreError::ChecksumMismatch { got, want });
            }
        }
        Ok(buf)
    }
}

impl<S: ChunkSource> ChunkSource for ResilientSource<S> {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        interrupt::check()?;
        let mut attempt = 1u32;
        loop {
            let e = match self.attempt(start, count) {
                Ok(buf) => return Ok(buf),
                Err(e) => e,
            };
            if e.class() == FaultClass::Fatal || attempt >= self.retry.attempts {
                return Err(surfaced(e, attempt));
            }
            attempt += 1;
            emit(Event::Retry { src: self.jlabel, attempt: attempt as u64 });
            let draw = unit(&mut self.jitter);
            interrupt::sleep(self.retry.backoff(attempt, draw))?;
        }
    }

    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.chunk_checksum(start, count)
    }
}

/// The error the loop gives up with: a checksum mismatch that outlasted
/// its retries is corruption, not a flaky read.
fn surfaced(e: StoreError, attempts: u32) -> StoreError {
    match e {
        StoreError::ChecksumMismatch { .. } => {
            StoreError::Corrupt(format!("{e} (after {attempts} attempts)"))
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::fault::{Fault, FaultyChunkSource};

    /// `read` in an attribution row of its own: its result, and the
    /// retries the row charged to the source.
    fn in_row<T>(read: impl FnOnce() -> T) -> (T, u64) {
        aql_journal::attr::begin();
        let out = read();
        let row = aql_journal::attr::finish();
        (out, row.sources.iter().map(|(_, c)| c.retries).sum())
    }

    struct ConstSource(f64);
    impl ChunkSource for ConstSource {
        fn read_chunk(&mut self, _s: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
            let n: u64 = count.iter().product();
            Ok(ScalarBuf::F64(vec![self.0; n as usize]))
        }
    }

    /// Fails the first `fail` reads transiently, then succeeds.
    struct FlakySource {
        fail: u32,
        calls: Rc<Cell<u32>>,
        transient: bool,
    }
    impl ChunkSource for FlakySource {
        fn read_chunk(&mut self, _s: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() <= self.fail {
                return Err(StoreError::Io {
                    message: format!("flaky call {}", self.calls.get()),
                    transient: self.transient,
                });
            }
            let n: u64 = count.iter().product();
            Ok(ScalarBuf::F64(vec![1.0; n as usize]))
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy { base: Duration::ZERO, max: Duration::ZERO, jitter: 0.0, ..RetryPolicy::default() }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let policy = ResiliencePolicy { retry: fast_retry() };
        let mut s = ResilientSource::new(
            FlakySource { fail: 2, calls: Rc::default(), transient: true },
            "t",
            policy,
        );
        let (buf, retries) = in_row(|| s.read_chunk(&[0], &[4]));
        let buf = buf.expect("third attempt succeeds");
        assert_eq!(buf.len(), 4);
        assert_eq!(retries, 2);
    }

    #[test]
    fn persistent_failure_is_not_retried() {
        let policy = ResiliencePolicy { retry: fast_retry() };
        let calls = Rc::default();
        let mut s = ResilientSource::new(
            FlakySource { fail: 99, calls: Rc::clone(&calls), transient: false },
            "p",
            policy,
        );
        let (err, retries) = in_row(|| s.read_chunk(&[0], &[4]));
        let err = err.expect_err("fatal fails at once");
        assert_eq!(err.class(), FaultClass::Fatal);
        assert_eq!(retries, 0);
        assert_eq!(calls.get(), 1, "exactly one source call");
    }

    #[test]
    fn checksum_mismatch_never_serves_corruption() {
        // Every read is corrupted; the checksum catches each one and
        // retries exhaust into Corrupt.
        let always = |_, _: &[u64]| Some(Fault::Corrupt);
        let policy = ResiliencePolicy { retry: fast_retry() };
        let mut s = ResilientSource::new(
            FaultyChunkSource::new(ConstSource(2.0), always),
            "ck",
            policy,
        );
        let err = s.read_chunk(&[0], &[8]).expect_err("corruption must not be served");
        assert!(matches!(err, StoreError::Corrupt(_)), "classified as corruption: {err}");
    }

    #[test]
    fn checksum_mismatch_clears_on_retry() {
        // Only op 0 corrupts; the retry reads clean data.
        let once = |op, _: &[u64]| (op == 0).then_some(Fault::Corrupt);
        let policy = ResiliencePolicy { retry: fast_retry() };
        let mut s = ResilientSource::new(
            FaultyChunkSource::new(ConstSource(2.0), once),
            "ck2",
            policy,
        );
        let (buf, retries) = in_row(|| s.read_chunk(&[0], &[8]));
        assert_eq!(buf.expect("retry clears the corruption"), ScalarBuf::F64(vec![2.0; 8]));
        assert_eq!(retries, 1);
    }

    #[test]
    fn backoff_jitter_stays_in_band_and_zero_jitter_is_exact() {
        let p = RetryPolicy {
            base: Duration::from_millis(4),
            max: Duration::from_millis(100),
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut state = 9;
        for attempt in 2..6u32 {
            let raw = Duration::from_millis(4 << (attempt - 2)).min(p.max);
            let d = p.backoff(attempt, unit(&mut state));
            assert!(d >= raw.mul_f64(0.5) && d <= raw.mul_f64(1.5), "{d:?} vs {raw:?}");
        }
        assert_eq!(p.backoff(2, 0.5), Duration::from_millis(4), "the band's midpoint");
        let exact = RetryPolicy { jitter: 0.0, ..p };
        assert_eq!(exact.backoff(2, 0.0), Duration::from_millis(4));
        assert_eq!(exact.backoff(3, 0.99), Duration::from_millis(8));
        assert_eq!(exact.backoff(9, 0.5), Duration::from_millis(100), "capped at max");
    }

    #[test]
    fn the_jitter_draws_are_the_pinned_stream() {
        // The first eight jitter units of a source labelled `netcdf:T`
        // under the default policy, as the vendored `rand` stand-in
        // (`StdRng::seed_from_u64` + `gen_range(0.0..1.0)`) drew them.
        let mut s = ResilientSource::new(ConstSource(0.0), "netcdf:T", ResiliencePolicy::default());
        let units: Vec<f64> = (0..8).map(|_| unit(&mut s.jitter)).collect();
        let pinned = [
            0.42432682836857094,
            0.47161436933448986,
            0.35542990177379863,
            0.06717438932355291,
            0.1908387005054305,
            0.3971801574065116,
            0.08108893552290386,
            0.8629142873984218,
        ];
        assert_eq!(units, pinned);
    }

    #[test]
    fn interrupt_preempts_the_whole_stack() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let _g = interrupt::install(None, Some(flag));
        let mut s = ResilientSource::new(ConstSource(1.0), "int", ResiliencePolicy::default());
        let err = s.read_chunk(&[0], &[4]).expect_err("cancelled before the source is touched");
        assert!(matches!(err, StoreError::Interrupted(_)));
    }
}
