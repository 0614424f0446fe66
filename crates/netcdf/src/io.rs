//! Injectable byte sources for the NetCDF substrate.
//!
//! [`IoSource`] abstracts "a seekable stream of bytes with a known
//! length" so the parser and [`crate::read::SlabReader`] work the same
//! over files, in-memory buffers, and instrumented wrappers. The
//! length is what lets the parser validate every declared count and
//! offset *before* allocating (see `crate::read`).
//!
//! [`FaultyIo`] wraps any source and injects faults on a schedule — a
//! [`FaultPlan`] of short reads, premature EOFs, transient
//! (retryable) errors, persistent errors, and byte corruption. It
//! exists so tests can drive the error paths of the parser and the
//! drivers' retry loop deterministically; production code never
//! constructs one.
//!
//! [`retry`] is the bounded retry-with-backoff loop the drivers use:
//! only errors classified transient ([`NcError::is_transient`]) are
//! retried, everything else propagates immediately.

use std::fs::File;
use std::io::{self, BufReader, Cursor, Read, Seek, SeekFrom};
use std::time::Duration;

use aql_journal::{emit, Event};

use crate::model::NcError;

/// A seekable byte source with a known total length.
///
/// The default `byte_len` measures by seeking to the end and back,
/// which works for any `Read + Seek`; in-memory sources override it
/// with the exact buffer length.
pub trait IoSource: Read + Seek {
    /// Total number of bytes in the source.
    fn byte_len(&mut self) -> io::Result<u64> {
        let pos = self.stream_position()?;
        let end = self.seek(SeekFrom::End(0))?;
        self.seek(SeekFrom::Start(pos))?;
        Ok(end)
    }
}

impl IoSource for File {}

impl IoSource for BufReader<File> {}

impl<T: AsRef<[u8]>> IoSource for Cursor<T> {
    fn byte_len(&mut self) -> io::Result<u64> {
        Ok(self.get_ref().as_ref().len() as u64)
    }
}

/// A schedule of faults for [`FaultyIo`], keyed by *read operation
/// index* (the n-th call to `read`, starting at 0) or by absolute byte
/// offset (for corruption).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Read ops that deliver at most one byte (a benign short read;
    /// exercises callers' read loops, `read_exact` retries through it).
    pub short_reads: Vec<u64>,
    /// Read ops that report end-of-file (`Ok(0)`) regardless of how
    /// much data remains — simulates truncation.
    pub eofs: Vec<u64>,
    /// Read ops that fail with a transient (`TimedOut`) error.
    pub transient_errors: Vec<u64>,
    /// First read op from which *every* read fails persistently
    /// (`NotConnected`), if set.
    pub persistent_from: Option<u64>,
    /// Bytes to corrupt: `(absolute offset, xor mask)` applied to data
    /// passing through `read`.
    pub corrupt_bytes: Vec<(u64, u8)>,
}

impl FaultPlan {
    /// No faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Deliver at most one byte on read op `op`.
    pub fn short_read_at(mut self, op: u64) -> Self {
        self.short_reads.push(op);
        self
    }

    /// Report EOF on read op `op`.
    pub fn eof_at(mut self, op: u64) -> Self {
        self.eofs.push(op);
        self
    }

    /// Fail read op `op` with a transient error.
    pub fn transient_at(mut self, op: u64) -> Self {
        self.transient_errors.push(op);
        self
    }

    /// Fail every read op from `op` onward with a persistent error.
    pub fn persistent_from(mut self, op: u64) -> Self {
        self.persistent_from = Some(op);
        self
    }

    /// XOR the byte at absolute `offset` with `mask` as it is read.
    pub fn corrupt_byte(mut self, offset: u64, mask: u8) -> Self {
        self.corrupt_bytes.push((offset, mask));
        self
    }
}

/// A fault-injecting wrapper around any [`IoSource`]. Intended for
/// tests; see [`FaultPlan`] for the fault vocabulary.
#[derive(Debug)]
pub struct FaultyIo<S> {
    inner: S,
    plan: FaultPlan,
    pos: u64,
    reads: u64,
}

impl<S: Read + Seek> FaultyIo<S> {
    /// Wrap `inner`, injecting the faults in `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyIo<S> {
        FaultyIo { inner, plan, pos: 0, reads: 0 }
    }

    /// How many read operations have been issued so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Unwrap the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read + Seek> Read for FaultyIo<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let op = self.reads;
        self.reads += 1;
        if self.plan.persistent_from.is_some_and(|from| op >= from) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("injected persistent I/O failure (read op {op})"),
            ));
        }
        if self.plan.transient_errors.contains(&op) {
            // TimedOut rather than Interrupted: std's `read_exact`
            // transparently retries Interrupted, which would hide the
            // injection from the code under test.
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("injected transient I/O failure (read op {op})"),
            ));
        }
        if self.plan.eofs.contains(&op) {
            return Ok(0);
        }
        let cap = if self.plan.short_reads.contains(&op) {
            buf.len().min(1)
        } else {
            buf.len()
        };
        let n = self.inner.read(&mut buf[..cap])?;
        for &(off, mask) in &self.plan.corrupt_bytes {
            if off >= self.pos && off < self.pos + n as u64 {
                buf[(off - self.pos) as usize] ^= mask;
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

impl<S: Read + Seek> Seek for FaultyIo<S> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let p = self.inner.seek(pos)?;
        self.pos = p;
        Ok(p)
    }
}

impl<S: IoSource> IoSource for FaultyIo<S> {
    fn byte_len(&mut self) -> io::Result<u64> {
        // Length probes bypass fault injection: they model metadata
        // (fstat), not data-path reads.
        self.inner.byte_len()
    }
}

/// How many attempts [`retry`] makes before giving up on transient
/// errors, under the default [`RetryConfig`].
pub const RETRY_ATTEMPTS: u32 = 3;

/// The retry schedule for the drivers' byte-level I/O loop.
///
/// Attempt `k` (0-based) that fails transiently sleeps
/// `min(base · 2^k, max)`, scaled by a uniform random factor in
/// `[1 − jitter, 1 + jitter]`. `jitter = 0` (the default) reproduces
/// the historical fixed exponential schedule byte-for-byte; a nonzero
/// jitter decorrelates concurrent retry storms against a shared
/// backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Total attempts (the first try counts; min 1).
    pub attempts: u32,
    /// Backoff after the first failed attempt.
    pub base: Duration,
    /// Cap on any single backoff sleep.
    pub max: Duration,
    /// Jitter fraction in `[0, 1)`; `0` disables jitter.
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            attempts: RETRY_ATTEMPTS,
            base: Duration::from_millis(1),
            max: Duration::from_millis(64),
            jitter: 0.0,
        }
    }
}

/// The process-wide config [`retry`] uses. An `RwLock` (not an
/// `AtomicCell`) because reads vastly outnumber writes and the
/// structure has four fields.
static CONFIG: std::sync::RwLock<RetryConfig> = std::sync::RwLock::new(RetryConfig {
    attempts: RETRY_ATTEMPTS,
    base: Duration::from_millis(1),
    max: Duration::from_millis(64),
    jitter: 0.0,
});

/// Sequence for deriving per-call jitter seeds without consulting the
/// clock (deterministic across runs for a fixed call order).
static JITTER_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Replace the process-wide retry configuration used by [`retry`].
/// `attempts` is clamped to at least 1.
pub fn set_retry_config(config: RetryConfig) {
    let mut guard = CONFIG.write().expect("retry config lock");
    *guard = RetryConfig { attempts: config.attempts.max(1), ..config };
}

/// The current process-wide retry configuration.
pub fn retry_config() -> RetryConfig {
    *CONFIG.read().expect("retry config lock")
}

/// Run `op` with bounded retry under the process-wide [`RetryConfig`]
/// (see [`set_retry_config`]): transient errors are retried with
/// exponential, optionally jittered backoff; non-transient errors
/// propagate immediately. The final transient error (if attempts run
/// out) is returned as-is, still carrying its message.
/// Each fault observed bumps `netcdf.faults` and each retried attempt
/// bumps `netcdf.retries` on the active `aql-trace` span, so a
/// profiled query shows how much of its I/O time went to recovery.
pub fn retry<T>(op: impl FnMut() -> Result<T, NcError>) -> Result<T, NcError> {
    retry_with(retry_config(), op)
}

/// [`retry`] under an explicit configuration (callers that need a
/// schedule different from the process-wide one).
pub fn retry_with<T>(
    config: RetryConfig,
    mut op: impl FnMut() -> Result<T, NcError>,
) -> Result<T, NcError> {
    let attempts = config.attempts.max(1);
    let mut rng: Option<rand::rngs::StdRng> = None;
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if e.is_transient() && attempt + 1 < attempts => {
                emit(Event::NetcdfFault);
                emit(Event::NetcdfRetry);
                std::thread::sleep(backoff(config, attempt, &mut rng));
                attempt += 1;
            }
            other => {
                if other.is_err() {
                    emit(Event::NetcdfFault);
                }
                return other;
            }
        }
    }
}

/// The sleep before retrying after failed attempt `attempt` (0-based).
/// The jitter RNG is created lazily on the first jittered sleep so the
/// (far more common) jitter-free path never touches the sequence
/// counter.
fn backoff(
    config: RetryConfig,
    attempt: u32,
    rng: &mut Option<rand::rngs::StdRng>,
) -> Duration {
    let raw = config
        .base
        .saturating_mul(1u32 << attempt.min(20))
        .min(config.max);
    if config.jitter <= 0.0 {
        return raw;
    }
    use rand::{Rng, SeedableRng};
    let rng = rng.get_or_insert_with(|| {
        let n = JITTER_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        rand::rngs::StdRng::seed_from_u64(n ^ 0x6E63_6466_6A74_7221)
    });
    let factor = rng.gen_range(1.0 - config.jitter..1.0 + config.jitter);
    raw.mul_f64(factor.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(bytes: &[u8]) -> Cursor<Vec<u8>> {
        Cursor::new(bytes.to_vec())
    }

    #[test]
    fn byte_len_for_cursor_and_wrapper() {
        let mut c = src(b"hello");
        assert_eq!(c.byte_len().unwrap(), 5);
        let mut f = FaultyIo::new(src(b"hello"), FaultPlan::new());
        assert_eq!(f.byte_len().unwrap(), 5);
    }

    #[test]
    fn clean_plan_is_passthrough() {
        let mut f = FaultyIo::new(src(b"abcdef"), FaultPlan::new());
        let mut buf = [0u8; 6];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn short_reads_truncate_but_read_exact_recovers() {
        let plan = FaultPlan::new().short_read_at(0).short_read_at(1);
        let mut f = FaultyIo::new(src(b"abcdef"), plan);
        let mut buf = [0u8; 6];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
        assert!(f.reads() >= 3, "short reads forced extra ops, got {}", f.reads());
    }

    #[test]
    fn injected_eof_means_unexpected_eof() {
        let plan = FaultPlan::new().eof_at(0);
        let mut f = FaultyIo::new(src(b"abcdef"), plan);
        let mut buf = [0u8; 6];
        let err = f.read_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn transient_error_surfaces_and_classifies() {
        let plan = FaultPlan::new().transient_at(0);
        let mut f = FaultyIo::new(src(b"abcdef"), plan);
        let mut buf = [0u8; 6];
        let err = f.read_exact(&mut buf).unwrap_err();
        let nc: NcError = err.into();
        assert!(nc.is_transient());
        // The next attempt succeeds.
        f.seek(SeekFrom::Start(0)).unwrap();
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn corruption_applies_at_absolute_offsets() {
        let plan = FaultPlan::new().corrupt_byte(2, 0xFF);
        let mut f = FaultyIo::new(src(b"abcdef"), plan);
        let mut buf = [0u8; 6];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(buf[2], b'c' ^ 0xFF);
        assert_eq!(buf[0], b'a');
        // Re-reading after a seek corrupts again (offset-addressed).
        f.seek(SeekFrom::Start(2)).unwrap();
        let mut one = [0u8; 1];
        f.read_exact(&mut one).unwrap();
        assert_eq!(one[0], b'c' ^ 0xFF);
    }

    #[test]
    fn retry_recovers_from_transient_and_respects_bound() {
        // Succeeds on the 3rd attempt: two transient failures allowed.
        let mut calls = 0;
        let out = retry(|| {
            calls += 1;
            if calls < 3 {
                Err(NcError::Io { message: "flaky".into(), transient: true })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));

        // Persistent transient failure: gives up after RETRY_ATTEMPTS.
        let mut calls = 0;
        let out: Result<(), _> = retry(|| {
            calls += 1;
            Err(NcError::Io { message: "always down".into(), transient: true })
        });
        assert_eq!(calls, RETRY_ATTEMPTS);
        assert!(matches!(out, Err(NcError::Io { transient: true, .. })));

        // Non-transient errors are not retried.
        let mut calls = 0;
        let out: Result<(), _> = retry(|| {
            calls += 1;
            Err(NcError::io("disk on fire"))
        });
        assert_eq!(calls, 1);
        assert!(matches!(out, Err(NcError::Io { transient: false, .. })));
    }

    #[test]
    fn retry_with_controls_attempt_count() {
        let cfg = RetryConfig { attempts: 5, base: Duration::ZERO, ..RetryConfig::default() };
        let mut calls = 0;
        let out: Result<(), _> = retry_with(cfg, || {
            calls += 1;
            Err(NcError::Io { message: "always down".into(), transient: true })
        });
        assert_eq!(calls, 5);
        assert!(out.is_err());
        // attempts is clamped to at least one call.
        let cfg = RetryConfig { attempts: 0, ..RetryConfig::default() };
        let mut calls = 0;
        let _ = retry_with(cfg, || -> Result<(), _> {
            calls += 1;
            Err(NcError::io("nope"))
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_jitter_band_and_exact_default() {
        let cfg = RetryConfig {
            base: Duration::from_millis(4),
            max: Duration::from_millis(32),
            jitter: 0.5,
            ..RetryConfig::default()
        };
        let mut rng = None;
        for attempt in 0..4 {
            let raw = Duration::from_millis(4u64 << attempt).min(cfg.max);
            let d = backoff(cfg, attempt, &mut rng);
            assert!(d >= raw.mul_f64(0.5) && d <= raw.mul_f64(1.5), "{d:?} outside band of {raw:?}");
        }
        assert!(rng.is_some(), "jitter draws use the rng");
        // Zero jitter reproduces the historical fixed schedule and
        // never builds an rng.
        let exact = RetryConfig::default();
        let mut none = None;
        assert_eq!(backoff(exact, 0, &mut none), Duration::from_millis(1));
        assert_eq!(backoff(exact, 3, &mut none), Duration::from_millis(8));
        assert!(none.is_none(), "no rng without jitter");
    }

    #[test]
    fn retry_config_roundtrip() {
        // Only mutate jitter: other tests in this binary observe call
        // counts through the process-wide config, and jitter does not
        // change them.
        let orig = retry_config();
        set_retry_config(RetryConfig { jitter: 0.25, ..orig });
        assert_eq!(retry_config().jitter, 0.25);
        set_retry_config(orig);
        assert_eq!(retry_config(), orig);
    }
}
