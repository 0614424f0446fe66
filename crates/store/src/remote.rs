//! A simulated remote / object-store chunk source.
//!
//! Real object stores (S3-style blob services, NFS mounts) differ from
//! local files in two ways the storage stack must be exercised
//! against: every read pays a round-trip latency, and transient
//! failures are routine rather than exceptional. [`RemoteChunkSource`]
//! models both over any inner [`ChunkSource`] by combining a fixed
//! per-read latency (slept through [`interrupt::sleep`], so a
//! statement deadline still preempts a slow "network") with the PR 6
//! [`FaultyChunkSource`] injector for the failure side — a
//! [`ChunkFaultPlan`] gives the simulated remote deterministic
//! transient errors, corruption, or extra latency spikes on top of the
//! base round-trip cost.
//!
//! The read-ahead [`Prefetcher`](crate::Prefetcher) earns its keep
//! against exactly this source: overlapping round-trip latencies is
//! what read-ahead is *for* (how many of a sequential scan's loads it
//! hides is pinned exactly in `lazy.rs`'s prefetcher tests).

use std::time::Duration;

use crate::buffer::ScalarBuf;
use crate::error::StoreError;
use crate::fault::{ChunkFaultPlan, FaultyChunkSource};
use crate::interrupt;
use crate::source::ChunkSource;

/// A [`ChunkSource`] that charges a round-trip latency per read and
/// optionally injects object-store-style faults.
pub struct RemoteChunkSource<S> {
    inner: FaultyChunkSource<S>,
    latency: Duration,
}

impl<S: ChunkSource> RemoteChunkSource<S> {
    /// A simulated remote over `inner` with a fixed per-read
    /// round-trip `latency` and no injected faults.
    pub fn new(inner: S, latency: Duration) -> RemoteChunkSource<S> {
        RemoteChunkSource::with_plan(inner, latency, ChunkFaultPlan::none())
    }

    /// A simulated remote that additionally injects faults per `plan`
    /// (on top of the base latency every read pays).
    pub fn with_plan(inner: S, latency: Duration, plan: ChunkFaultPlan) -> RemoteChunkSource<S> {
        RemoteChunkSource { inner: FaultyChunkSource::new(inner, plan), latency }
    }

    /// The configured per-read round-trip latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Read operations served so far.
    pub fn ops(&self) -> u64 {
        self.inner.ops()
    }
}

impl<S: ChunkSource> ChunkSource for RemoteChunkSource<S> {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        // The round trip: interruptible, so a deadline preempts it.
        interrupt::sleep(self.latency)?;
        self.inner.read_chunk(start, count)
    }

    /// Checksums model cheap metadata (an ETag-style header): no
    /// round-trip latency is charged, and the clean payload's checksum
    /// is reported even when the plan corrupts reads — the situation a
    /// verifying reader exists for.
    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.chunk_checksum(start, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Interrupt;
    use crate::mem::MemChunkSource;
    use std::time::Instant;

    fn mem4() -> MemChunkSource {
        MemChunkSource::new(vec![4], ScalarBuf::F64(vec![1.0, 2.0, 3.0, 4.0])).unwrap()
    }

    #[test]
    fn reads_pay_the_round_trip() {
        let mut r = RemoteChunkSource::new(mem4(), Duration::from_millis(10));
        let t0 = Instant::now();
        let buf = r.read_chunk(&[0], &[4]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(buf, ScalarBuf::F64(vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(r.ops(), 1);
    }

    #[test]
    fn latency_is_interruptible() {
        let mut r = RemoteChunkSource::new(mem4(), Duration::from_millis(500));
        let _g = interrupt::install(
            Some(Instant::now() + Duration::from_millis(5)),
            None,
        );
        let t0 = Instant::now();
        let err = r.read_chunk(&[0], &[4]).unwrap_err();
        assert_eq!(err, StoreError::Interrupted(Interrupt::Deadline));
        assert!(t0.elapsed() < Duration::from_millis(400));
    }

    #[test]
    fn injected_faults_ride_on_top() {
        let plan = ChunkFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            ..ChunkFaultPlan::default()
        };
        let mut r = RemoteChunkSource::with_plan(mem4(), Duration::from_millis(1), plan);
        assert!(matches!(
            r.read_chunk(&[0], &[4]).unwrap_err(),
            StoreError::Io { transient: true, .. }
        ));
        assert!(r.read_chunk(&[0], &[4]).is_ok(), "op 1 is clean");
    }

    #[test]
    fn checksum_skips_the_latency() {
        let mut r = RemoteChunkSource::new(mem4(), Duration::from_millis(200));
        let t0 = Instant::now();
        let sum = r.chunk_checksum(&[0], &[4]).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(150), "metadata read is cheap");
        assert_eq!(sum, crate::fault::checksum(&ScalarBuf::F64(vec![1.0, 2.0, 3.0, 4.0])));
    }
}
