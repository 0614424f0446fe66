//! Retry, circuit breaking, and checksum verification for chunk
//! sources.
//!
//! [`ResilientSource`] wraps any [`ChunkSource`] with the full
//! resilience stack (DESIGN.md §12):
//!
//! 1. **Interrupt check** — the statement's deadline/cancellation
//!    flags (installed by the evaluator via [`crate::interrupt`]) are
//!    polled before touching the source and during every backoff wait,
//!    so a hung source cannot outlive its statement's `Limits`.
//! 2. **Circuit breaker** — per-source closed/open/half-open state.
//!    After `threshold` consecutive source failures the breaker trips
//!    open and calls fail fast with the *retryable*
//!    [`StoreError::Unavailable`] without touching the source; after
//!    the cool-down one probe is admitted (half-open) and its outcome
//!    closes or re-trips the breaker.
//! 3. **Retry with backoff + jitter** — retryable failures (transient
//!    I/O, checksum mismatches) are retried up to `attempts` times
//!    with exponentially growing, jittered, *interruptible* sleeps.
//! 4. **Checksum verification** — when the source advertises a
//!    checksum ([`ChunkSource::chunk_checksum`]), every payload is
//!    verified before it is served; a mismatch is retried (the read
//!    path may be flaky) and only surfaces as [`StoreError::Corrupt`]
//!    once retries exhaust. Corrupted data is never returned.
//!
//! Failures *of the source* (I/O errors, corruption) count toward the
//! breaker; failures of the *caller or statement* (shape errors,
//! interrupts, budget denials) pass through uncounted — a breaker must
//! not trip because a query was cancelled.

use std::time::{Duration, Instant};

use aql_journal::{emit, Event};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::buffer::ScalarBuf;
use crate::error::{FaultClass, StoreError};
use crate::fault::checksum;
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
    /// Seed for the jitter draws (deterministic per source).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(50),
            jitter: 0.5,
            seed: 0,
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

/// Circuit-breaker policy: trip after `threshold` consecutive source
/// failures; admit a half-open probe after `cooldown`.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive failures (counted across calls) that trip the
    /// breaker open. Min 1.
    pub threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    /// `Duration::ZERO` admits a probe immediately (useful in tests).
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy { threshold: 5, cooldown: Duration::from_millis(100) }
    }
}

/// The observable state of a circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls pass through.
    Closed,
    /// Tripped: calls fail fast until the cool-down expires.
    Open,
    /// Probing: one call is in flight to test recovery.
    HalfOpen,
}

/// A per-source circuit breaker.
///
/// Owned by a [`ResilientSource`]; exposed for white-box tests and for
/// drivers that want to share one breaker across wrappers.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    label: String,
    jlabel: u16,
    state: BreakerState,
    consecutive: u32,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker for source `label` under `policy`.
    pub fn new(label: impl Into<String>, policy: BreakerPolicy) -> CircuitBreaker {
        let label = label.into();
        CircuitBreaker {
            policy: BreakerPolicy { threshold: policy.threshold.max(1), ..policy },
            jlabel: aql_journal::intern(&label),
            label,
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: None,
        }
    }

    /// Current state (transitions happen in [`admit`](Self::admit) and
    /// the outcome callbacks, never asynchronously).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Gate a call: `Ok` admits it (closed, or half-open probe),
    /// `Err(Unavailable)` fails fast while the cool-down runs.
    pub fn admit(&mut self) -> Result<(), StoreError> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let since = self.opened_at.map_or(Duration::MAX, |t| t.elapsed());
                if since >= self.policy.cooldown {
                    self.state = BreakerState::HalfOpen;
                    emit(Event::BreakerProbe { src: self.jlabel });
                    Ok(())
                } else {
                    emit(Event::BreakerFastFail { src: self.jlabel });
                    Err(StoreError::Unavailable {
                        source: self.label.clone(),
                        retry_after_ms: (self.policy.cooldown - since).as_millis() as u64,
                    })
                }
            }
        }
    }

    /// Report a successful source call: closes the breaker and resets
    /// the failure streak.
    pub fn on_success(&mut self) {
        if self.state != BreakerState::Closed {
            emit(Event::BreakerClose { src: self.jlabel });
        }
        self.state = BreakerState::Closed;
        self.consecutive = 0;
    }

    /// Report a failed source call; says whether it tripped the
    /// breaker. A half-open probe failure re-trips immediately;
    /// otherwise the breaker trips once the consecutive streak reaches
    /// the threshold.
    pub fn on_failure(&mut self) -> bool {
        self.consecutive = self.consecutive.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || (self.state == BreakerState::Closed && self.consecutive >= self.policy.threshold);
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = Some(Instant::now());
            emit(Event::BreakerTrip { src: self.jlabel });
        }
        trip
    }
}

/// The full resilience configuration for one wrapped source.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Retry schedule for retryable failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy; `None` disables breaking.
    pub breaker: Option<BreakerPolicy>,
    /// Verify payload checksums when the source advertises them.
    pub verify_checksums: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            retry: RetryPolicy::default(),
            breaker: Some(BreakerPolicy::default()),
            verify_checksums: true,
        }
    }
}

/// A [`ChunkSource`] wrapped in the resilience stack: interrupt
/// checks, circuit breaking, retry with jittered backoff, and
/// checksum verification. See the module docs for the exact order.
pub struct ResilientSource<S> {
    inner: S,
    retry: RetryPolicy,
    breaker: Option<CircuitBreaker>,
    verify: bool,
    rng: StdRng,
    retries: u64,
    /// Interned flight-recorder id of this source's label, so retry
    /// events are attributable even when no breaker is configured.
    jlabel: u16,
}

impl<S: ChunkSource> ResilientSource<S> {
    /// Wrap `inner` (labelled `label` for breaker metrics and errors)
    /// under `policy`.
    pub fn new(inner: S, label: impl Into<String>, policy: ResiliencePolicy) -> ResilientSource<S> {
        let label = label.into();
        // Fold the label into the jitter seed so two sources with the
        // same policy do not sleep in lockstep.
        let mut seed = policy.retry.seed ^ 0x5157_4C2D_5245_5452;
        for b in label.bytes() {
            seed = seed.rotate_left(7) ^ b as u64;
        }
        ResilientSource {
            inner,
            rng: StdRng::seed_from_u64(seed),
            jlabel: aql_journal::intern(&label),
            breaker: policy.breaker.map(|p| CircuitBreaker::new(label, p)),
            retry: RetryPolicy { attempts: policy.retry.attempts.max(1), ..policy.retry },
            verify: policy.verify_checksums,
            retries: 0,
        }
    }

    /// The wrapped source.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// This source's breaker, when one is configured.
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// Retries performed over this source's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// One admitted attempt: read, then verify if a checksum is
    /// advertised.
    fn attempt(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let buf = self.inner.read_chunk(start, count)?;
        if self.verify {
            if let Some(want) = self.inner.chunk_checksum(start, count) {
                let got = checksum(&buf);
                if got != want {
                    emit(Event::ChecksumMismatch { src: self.jlabel });
                    return Err(StoreError::ChecksumMismatch { got, want });
                }
            }
        }
        Ok(buf)
    }
}

impl<S: ChunkSource> ChunkSource for ResilientSource<S> {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        interrupt::check()?;
        if let Some(b) = self.breaker.as_mut() {
            b.admit()?;
        }
        let mut attempt = 1u32;
        loop {
            match self.attempt(start, count) {
                Ok(buf) => {
                    if let Some(b) = self.breaker.as_mut() {
                        b.on_success();
                    }
                    return Ok(buf);
                }
                // Caller/statement failures: not the source's fault —
                // no breaker accounting, no retry.
                Err(e @ (StoreError::Shape(_)
                | StoreError::Interrupted(_)
                | StoreError::Budget { .. }
                | StoreError::Unavailable { .. })) => return Err(e),
                Err(e) => {
                    // A trip mid-loop surfaces the real error now;
                    // subsequent calls fail fast.
                    let tripped = self.breaker.as_mut().is_some_and(CircuitBreaker::on_failure);
                    if tripped || e.class() == FaultClass::Fatal || attempt >= self.retry.attempts {
                        return Err(surfaced(e, attempt));
                    }
                    attempt += 1;
                    self.retries += 1;
                    emit(Event::Retry { src: self.jlabel, attempt: attempt as u64 });
                    let unit = self.rng.gen_range(0.0..1.0);
                    interrupt::sleep(self.retry.backoff(attempt, unit))?;
                }
            }
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
    use super::*;
    use crate::fault::{ChunkFaultPlan, FaultyChunkSource};

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
        calls: u32,
        transient: bool,
    }
    impl ChunkSource for FlakySource {
        fn read_chunk(&mut self, _s: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
            self.calls += 1;
            if self.calls <= self.fail {
                return Err(StoreError::Io {
                    message: format!("flaky call {}", self.calls),
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
        let policy = ResiliencePolicy { retry: fast_retry(), ..ResiliencePolicy::default() };
        let mut s = ResilientSource::new(
            FlakySource { fail: 2, calls: 0, transient: true },
            "t",
            policy,
        );
        let buf = s.read_chunk(&[0], &[4]).expect("third attempt succeeds");
        assert_eq!(buf.len(), 4);
        assert_eq!(s.retries(), 2);
        assert_eq!(s.breaker().expect("breaker on").state(), BreakerState::Closed);
    }

    #[test]
    fn persistent_failure_is_not_retried() {
        let policy = ResiliencePolicy { retry: fast_retry(), ..ResiliencePolicy::default() };
        let mut s = ResilientSource::new(
            FlakySource { fail: 99, calls: 0, transient: false },
            "p",
            policy,
        );
        let err = s.read_chunk(&[0], &[4]).expect_err("fatal fails at once");
        assert_eq!(err.class(), FaultClass::Fatal);
        assert_eq!(s.retries(), 0);
        assert_eq!(s.inner_mut().calls, 1, "exactly one source call");
    }

    #[test]
    fn breaker_trips_fast_fails_and_recovers() {
        let policy = ResiliencePolicy {
            retry: RetryPolicy { attempts: 1, ..fast_retry() },
            breaker: Some(BreakerPolicy { threshold: 3, cooldown: Duration::ZERO }),
            verify_checksums: true,
        };
        let mut s = ResilientSource::new(
            FlakySource { fail: 3, calls: 0, transient: true },
            "b",
            policy,
        );
        aql_trace::enable();
        for _ in 0..3 {
            assert!(s.read_chunk(&[0], &[4]).is_err());
        }
        assert_eq!(s.breaker().expect("breaker on").state(), BreakerState::Open);
        // Zero cool-down: the next call is the half-open probe and the
        // source is healthy again, so the breaker closes.
        let buf = s.read_chunk(&[0], &[4]).expect("probe succeeds");
        assert_eq!(buf.len(), 4);
        assert_eq!(s.breaker().expect("breaker on").state(), BreakerState::Closed);
        // The spine is the breaker's only tally.
        let trace = aql_trace::disable();
        assert_eq!(trace.total_counter("breaker.trip:b"), 1);
        assert_eq!(trace.total_counter("breaker.probe:b"), 1);
    }

    #[test]
    fn open_breaker_fails_fast_without_touching_source() {
        let policy = ResiliencePolicy {
            retry: RetryPolicy { attempts: 1, ..fast_retry() },
            breaker: Some(BreakerPolicy { threshold: 1, cooldown: Duration::from_secs(3600) }),
            verify_checksums: true,
        };
        let mut s = ResilientSource::new(
            FlakySource { fail: 99, calls: 0, transient: true },
            "ff",
            policy,
        );
        assert!(s.read_chunk(&[0], &[4]).is_err(), "first call trips");
        let calls_after_trip = s.inner_mut().calls;
        aql_trace::enable();
        let err = s.read_chunk(&[0], &[4]).expect_err("fast fail");
        assert_eq!(aql_trace::disable().total_counter("breaker.fast_fail:ff"), 1);
        assert!(matches!(err, StoreError::Unavailable { .. }));
        assert_eq!(err.class(), FaultClass::Retryable, "fast-fail is retry-later");
        assert_eq!(s.inner_mut().calls, calls_after_trip, "source untouched while open");
    }

    #[test]
    fn half_open_probe_failure_retrips() {
        let mut b = CircuitBreaker::new(
            "re",
            BreakerPolicy { threshold: 2, cooldown: Duration::ZERO },
        );
        assert!(!b.on_failure());
        assert!(b.on_failure(), "the second failure reaches the threshold");
        assert_eq!(b.state(), BreakerState::Open);
        b.admit().expect("zero cooldown admits probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.on_failure(), "probe failure re-trips at once");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn checksum_mismatch_never_serves_corruption() {
        // Every read is corrupted; the checksum catches each one and
        // retries exhaust into Corrupt.
        let plan = ChunkFaultPlan {
            corrupt_ops: (0..64u64).collect(),
            ..ChunkFaultPlan::default()
        };
        let policy = ResiliencePolicy { retry: fast_retry(), ..ResiliencePolicy::default() };
        let mut s = ResilientSource::new(
            FaultyChunkSource::new(ConstSource(2.0), plan),
            "ck",
            policy,
        );
        let err = s.read_chunk(&[0], &[8]).expect_err("corruption must not be served");
        assert!(matches!(err, StoreError::Corrupt(_)), "classified as corruption: {err}");
    }

    #[test]
    fn checksum_mismatch_clears_on_retry() {
        // Only op 0 corrupts; the retry reads clean data.
        let plan =
            ChunkFaultPlan { corrupt_ops: [0u64].into_iter().collect(), ..ChunkFaultPlan::default() };
        let policy = ResiliencePolicy { retry: fast_retry(), ..ResiliencePolicy::default() };
        let mut s = ResilientSource::new(
            FaultyChunkSource::new(ConstSource(2.0), plan),
            "ck2",
            policy,
        );
        let buf = s.read_chunk(&[0], &[8]).expect("retry clears the corruption");
        assert_eq!(buf, ScalarBuf::F64(vec![2.0; 8]));
        assert_eq!(s.retries(), 1);
    }

    #[test]
    fn verification_off_serves_raw_payload() {
        let plan =
            ChunkFaultPlan { corrupt_ops: [0u64].into_iter().collect(), ..ChunkFaultPlan::default() };
        let policy = ResiliencePolicy {
            retry: fast_retry(),
            verify_checksums: false,
            ..ResiliencePolicy::default()
        };
        let mut s = ResilientSource::new(
            FaultyChunkSource::new(ConstSource(2.0), plan),
            "raw",
            policy,
        );
        let buf = s.read_chunk(&[0], &[8]).expect("no verification, no error");
        assert_ne!(buf, ScalarBuf::F64(vec![2.0; 8]), "corruption passed through");
    }

    #[test]
    fn backoff_jitter_stays_in_band_and_zero_jitter_is_exact() {
        let p = RetryPolicy {
            base: Duration::from_millis(4),
            max: Duration::from_millis(100),
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        for attempt in 2..6u32 {
            let raw = Duration::from_millis(4 << (attempt - 2)).min(p.max);
            let d = p.backoff(attempt, rng.gen_range(0.0..1.0));
            assert!(d >= raw.mul_f64(0.5) && d <= raw.mul_f64(1.5), "{d:?} vs {raw:?}");
        }
        assert_eq!(p.backoff(2, 0.5), Duration::from_millis(4), "the band's midpoint");
        let exact = RetryPolicy { jitter: 0.0, ..p };
        assert_eq!(exact.backoff(2, 0.0), Duration::from_millis(4));
        assert_eq!(exact.backoff(3, 0.99), Duration::from_millis(8));
        assert_eq!(exact.backoff(9, 0.5), Duration::from_millis(100), "capped at max");
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
