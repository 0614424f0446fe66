//! Injectable byte sources for the NetCDF substrate.
//!
//! [`IoSource`] abstracts "a seekable stream of bytes with a known
//! length" so the parser and [`crate::read::SlabReader`] work the same
//! over files and in-memory buffers. The length is what lets the
//! parser validate every declared count and offset *before* allocating
//! (see `crate::read`).
//!
//! Nothing here injects faults: a test breaks a NetCDF read through the
//! `open` closure [`crate::chunk::NcChunkSource`] takes (an `io::Error`,
//! or flipped bytes), and a chunk read through
//! `aql_store::FaultyChunkSource`, the one injector.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_len_of_a_cursor_is_its_buffer_and_leaves_the_position() {
        let mut c = Cursor::new(b"hello".to_vec());
        c.seek(SeekFrom::Start(2)).unwrap();
        assert_eq!(c.byte_len().unwrap(), 5);
        assert_eq!(c.stream_position().unwrap(), 2);
    }
}
