//! A simulated remote / object-store chunk source.
//!
//! Real object stores (S3-style blob services, NFS mounts) differ from
//! local files in that every read pays a round-trip latency.
//! [`RemoteChunkSource`] models that over any inner [`ChunkSource`]: a
//! fixed per-read latency, slept through [`interrupt::sleep`] so a
//! statement deadline still preempts a slow "network". It injects no
//! faults; a remote that also fails is this source under a
//! [`FaultyChunkSource`](crate::FaultyChunkSource), the one injector.
//!
//! The read-ahead [`Prefetcher`](crate::Prefetcher) earns its keep
//! against exactly this source: overlapping round-trip latencies is
//! what read-ahead is *for* (how many of a sequential scan's loads it
//! hides is pinned exactly in `lazy.rs`'s prefetcher tests).

use std::time::Duration;

use crate::buffer::ScalarBuf;
use crate::error::StoreError;
use crate::interrupt;
use crate::source::ChunkSource;

/// A [`ChunkSource`] that charges a round-trip latency per read.
pub struct RemoteChunkSource<S> {
    inner: S,
    latency: Duration,
}

impl<S: ChunkSource> RemoteChunkSource<S> {
    /// A simulated remote over `inner` with a fixed per-read
    /// round-trip `latency`.
    pub fn new(inner: S, latency: Duration) -> RemoteChunkSource<S> {
        RemoteChunkSource { inner, latency }
    }
}

impl<S: ChunkSource> ChunkSource for RemoteChunkSource<S> {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        // The round trip: interruptible, so a deadline preempts it.
        interrupt::sleep(self.latency)?;
        self.inner.read_chunk(start, count)
    }

    /// Checksums model cheap metadata (an ETag-style header): no
    /// round-trip latency is charged.
    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.chunk_checksum(start, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Interrupt;
    use crate::fault::{Fault, FaultyChunkSource};
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
    fn faults_compose_on_top() {
        let remote = RemoteChunkSource::new(mem4(), Duration::from_millis(1));
        let once = |op, _: &[u64]| (op == 0).then_some(Fault::Transient);
        let mut r = FaultyChunkSource::new(remote, once);
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
