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
//! store's retry loop deterministically; production code never
//! constructs one.
//!
//! Nothing here retries: an I/O failure is classified once
//! ([`crate::model::NcError::is_transient`]) and handed up, and the one retry loop
//! over chunk reads is `aql_store::ResilientSource`'s (DESIGN.md §12).

use std::fs::File;
use std::io::{self, BufReader, Cursor, Read, Seek, SeekFrom};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NcError;

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
}
