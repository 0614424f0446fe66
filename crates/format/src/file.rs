//! The AQF container: header, chunk payloads, chunk table, end marker.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size      field
//! 0       4         magic "AQF1"
//! 4       4         format version (= 2)
//! 8       1         dtype: 0 = f64, 1 = i64, 2 = bool
//! 9       1         flags: bit 0 = compression enabled
//! 10      2         reserved (= 0)
//! 12      4         rank k (1 ≤ k ≤ 64)
//! 16      8         table offset (patched by `finish`)
//! 24      8·k       array extents
//! 24+8k   8·k       nominal chunk extents
//! ────────────────  chunk payloads, in chunk-id order ──────────────
//! table   8         number of chunks n (= the layout's chunk count)
//!         33·n      per chunk: offset u64 · byte_len u64 · elems u64
//!                   · codec u8 · checksum u64 (of the DECODED payload
//!                   — aql_store::fault::checksum, below)
//!         4         end marker "AQFE"
//! ```
//!
//! The checksum covers the *decoded* scalars, so it is the same value
//! [`ResilientSource`](aql_store::ResilientSource) computes when it
//! verifies a loaded chunk — resilience-stack verification works on
//! AQF sources without a re-read. It is what makes this version 2: a
//! word-at-a-time hash ([`aql_store::fault::checksum`] states it
//! exactly — seed `0xcbf29ce484222325`, one `(h <<< 27 ^ w) ·
//! 0x9e3779b97f4a7c15` step per 64-bit element word over four
//! interleaved lanes, kind tag and element count mixed in first,
//! `Bool`s eight to a little-endian word) where version 1 stored a
//! byte-serial FNV-1a. Version 1 files are refused at `open` like any
//! other unknown version; nothing else in the layout changed.
//!
//! [`AqfWriter`] is **streaming**: chunks are appended one at a time
//! and never re-buffered, so `writeval` can spill a lazy query result
//! whose total size far exceeds memory; only the table (33 bytes per
//! chunk) is held until [`finish`](AqfWriter::finish). It writes a
//! sibling temporary file and `finish` renames it over the
//! destination, so the destination is either the previous file or the
//! complete new one — a write that fails, or a writer dropped early,
//! removes the temporary and leaves the destination untouched, and an
//! array may be written over the very file it is lazily read from (the
//! reader's handle keeps the replaced file). The rename is atomic, not
//! durable: nothing is `fsync`ed. [`AqfFile`]
//! validates everything structural up front — magic, version, dtype,
//! rank, extents, table bounds, per-entry offsets and element counts —
//! so a hostile or rotted file fails `open` (or a checksummed chunk
//! read) with a classified [`StoreError::Corrupt`], never a panic.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use aql_store::fault::checksum;
use aql_store::{ChunkLayout, ScalarBuf, ScalarKind, StoreError};

use crate::codec::{self, Codec};

/// Leading magic: "AQF1".
pub const MAGIC: [u8; 4] = *b"AQF1";
/// Trailing end marker: "AQFE". Its absence means truncation.
pub const END_MARKER: [u8; 4] = *b"AQFE";
/// The (only) format version this crate reads and writes.
pub const VERSION: u32 = 2;
/// Largest representable rank.
pub const MAX_RANK: u32 = 64;

const HEADER_FIXED: u64 = 24;
const TABLE_ENTRY_BYTES: u64 = 33;

fn io_err(ctx: &str, e: std::io::Error) -> StoreError {
    StoreError::Io {
        message: format!("aqf: {ctx}: {e}"),
        transient: matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted | std::io::ErrorKind::TimedOut
        ),
    }
}

fn corrupt(offset: u64, msg: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("aqf: at byte {offset}: {msg}"))
}

fn dtype_byte(kind: ScalarKind) -> u8 {
    match kind {
        ScalarKind::F64 => 0,
        ScalarKind::I64 => 1,
        ScalarKind::Bool => 2,
    }
}

fn dtype_kind(b: u8) -> Option<ScalarKind> {
    match b {
        0 => Some(ScalarKind::F64),
        1 => Some(ScalarKind::I64),
        2 => Some(ScalarKind::Bool),
        _ => None,
    }
}

/// One row of the chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the encoded payload.
    pub offset: u64,
    /// Encoded payload length in bytes.
    pub byte_len: u64,
    /// Decoded element count (equals the layout's chunk length).
    pub elems: u64,
    /// Codec the payload was encoded with.
    pub codec: Codec,
    /// [`checksum`] of the decoded payload.
    pub checksum: u64,
}

/// What a finished write produced, for reporting and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AqfSummary {
    /// The file written.
    pub path: PathBuf,
    /// Chunks written (= the layout's chunk count).
    pub chunks: u64,
    /// Decoded payload bytes across all chunks.
    pub raw_bytes: u64,
    /// Encoded payload bytes actually on disk.
    pub encoded_bytes: u64,
    /// Total file size including header and table.
    pub file_bytes: u64,
}

/// A streaming AQF writer: create, append every chunk in id order,
/// finish. Until `finish` everything goes to a temporary file beside
/// the destination; dropping the writer first removes it.
#[derive(Debug)]
pub struct AqfWriter {
    file: BufWriter<File>,
    path: PathBuf,
    /// The temporary being written; `None` once renamed into place.
    tmp: Option<PathBuf>,
    layout: ChunkLayout,
    kind: ScalarKind,
    compress: bool,
    entries: Vec<ChunkEntry>,
    pos: u64,
    raw_bytes: u64,
}

impl AqfWriter {
    /// Start writing an array of `layout` and `kind` destined for
    /// `path` (which is not touched before [`finish`](Self::finish)).
    /// With `compress`, each chunk gets the packing codec when it is
    /// strictly smaller than raw.
    pub fn create(
        path: impl AsRef<Path>,
        layout: ChunkLayout,
        kind: ScalarKind,
        compress: bool,
    ) -> Result<AqfWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        let rank = layout.dims().len();
        if rank as u32 > MAX_RANK {
            return Err(StoreError::Shape(format!(
                "aqf: rank {rank} exceeds the format maximum {MAX_RANK}"
            )));
        }
        // Unique per writer, so concurrent writers to one destination
        // race only at the rename.
        static WRITERS: AtomicU64 = AtomicU64::new(0);
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(
            ".{}-{}.tmp",
            std::process::id(),
            WRITERS.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = path.with_file_name(name);
        let file = File::create(&tmp).map_err(|e| io_err("create", e))?;
        let mut w = AqfWriter {
            file: BufWriter::new(file),
            path,
            tmp: Some(tmp),
            layout,
            kind,
            compress,
            entries: Vec::new(),
            pos: 0,
            raw_bytes: 0,
        };
        let mut header = Vec::with_capacity((HEADER_FIXED as usize) + 16 * rank);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.push(dtype_byte(w.kind));
        header.push(u8::from(w.compress));
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&(rank as u32).to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // table offset, patched in finish
        for &d in w.layout.dims() {
            header.extend_from_slice(&d.to_le_bytes());
        }
        for &c in w.layout.chunk_dims() {
            header.extend_from_slice(&c.to_le_bytes());
        }
        w.file.write_all(&header).map_err(|e| io_err("write header", e))?;
        w.pos = header.len() as u64;
        Ok(w)
    }

    /// The layout chunks are being written against.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// Chunks appended so far (the next expected chunk id).
    pub fn chunks_written(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Append the next chunk (id = number already written). The buffer
    /// must hold exactly the layout's element count for that chunk, in
    /// the writer's kind.
    pub fn write_chunk(&mut self, buf: &ScalarBuf) -> Result<(), StoreError> {
        let id = self.entries.len() as u64;
        let want = self.layout.chunk_len(id).ok_or_else(|| {
            StoreError::Shape(format!(
                "aqf: chunk {id} exceeds the layout's {} chunks",
                self.layout.num_chunks()
            ))
        })?;
        if buf.len() as u64 != want {
            return Err(StoreError::Shape(format!(
                "aqf: chunk {id} holds {} elements, layout expects {want}",
                buf.len()
            )));
        }
        if buf.kind() != self.kind {
            return Err(StoreError::Shape(format!(
                "aqf: chunk {id} is {}, file is {}",
                buf.kind(),
                self.kind
            )));
        }
        let sum = checksum(buf);
        let (codec, bytes) = codec::encode(buf, self.compress);
        self.file.write_all(&bytes).map_err(|e| io_err("write chunk", e))?;
        self.entries.push(ChunkEntry {
            offset: self.pos,
            byte_len: bytes.len() as u64,
            elems: want,
            codec,
            checksum: sum,
        });
        self.pos += bytes.len() as u64;
        self.raw_bytes += buf.byte_len();
        Ok(())
    }

    /// Write the chunk table and end marker, patch the header's table
    /// offset, flush, and rename the finished file over the
    /// destination. Fails unless every chunk of the layout was written.
    pub fn finish(mut self) -> Result<AqfSummary, StoreError> {
        let want = self.layout.num_chunks();
        if self.entries.len() as u64 != want {
            return Err(StoreError::Shape(format!(
                "aqf: finish after {} of {want} chunks",
                self.entries.len()
            )));
        }
        let table_offset = self.pos;
        let mut table =
            Vec::with_capacity(8 + (TABLE_ENTRY_BYTES as usize) * self.entries.len() + 4);
        table.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            table.extend_from_slice(&e.offset.to_le_bytes());
            table.extend_from_slice(&e.byte_len.to_le_bytes());
            table.extend_from_slice(&e.elems.to_le_bytes());
            table.push(e.codec.as_u8());
            table.extend_from_slice(&e.checksum.to_le_bytes());
        }
        table.extend_from_slice(&END_MARKER);
        self.file.write_all(&table).map_err(|e| io_err("write table", e))?;
        self.file
            .seek(SeekFrom::Start(16))
            .map_err(|e| io_err("seek to table-offset field", e))?;
        self.file
            .write_all(&table_offset.to_le_bytes())
            .map_err(|e| io_err("patch table offset", e))?;
        self.file.flush().map_err(|e| io_err("flush", e))?;
        if let Some(tmp) = &self.tmp {
            std::fs::rename(tmp, &self.path).map_err(|e| io_err("rename into place", e))?;
            self.tmp = None;
        }
        let encoded_bytes: u64 = self.entries.iter().map(|e| e.byte_len).sum();
        Ok(AqfSummary {
            path: std::mem::take(&mut self.path),
            chunks: want,
            raw_bytes: self.raw_bytes,
            encoded_bytes,
            file_bytes: table_offset + table.len() as u64,
        })
    }
}

impl Drop for AqfWriter {
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            // Never finished: the destination keeps what it had.
            std::fs::remove_file(tmp).ok();
        }
    }
}

/// An opened, fully validated AQF file.
#[derive(Debug)]
pub struct AqfFile {
    file: File,
    path: PathBuf,
    layout: ChunkLayout,
    kind: ScalarKind,
    compressed: bool,
    entries: Vec<ChunkEntry>,
}

impl AqfFile {
    /// Open and validate `path`: structure, bounds, and table are all
    /// checked here; chunk payloads are checked (against their table
    /// checksums) as they are read.
    pub fn open(path: impl AsRef<Path>) -> Result<AqfFile, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(|e| io_err("open", e))?;
        let file_len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        if file_len < HEADER_FIXED {
            return Err(corrupt(
                file_len,
                format!("file is {file_len} bytes, the fixed header alone needs {HEADER_FIXED}"),
            ));
        }
        let mut fixed = [0u8; HEADER_FIXED as usize];
        file.read_exact(&mut fixed).map_err(|e| io_err("read header", e))?;
        if fixed[0..4] != MAGIC {
            return Err(corrupt(0, format!("bad magic {:02x?}, want \"AQF1\"", &fixed[0..4])));
        }
        let version = u32::from_le_bytes(fixed[4..8].try_into().expect("sliced 4"));
        if version != VERSION {
            return Err(corrupt(4, format!("unsupported format version {version}")));
        }
        let kind = dtype_kind(fixed[8]).ok_or_else(|| {
            corrupt(8, format!("unknown dtype {}", fixed[8]))
        })?;
        let flags = fixed[9];
        if flags & !1 != 0 {
            return Err(corrupt(9, format!("unknown flag bits {flags:#04x}")));
        }
        if fixed[10] != 0 || fixed[11] != 0 {
            return Err(corrupt(10, "reserved bytes are nonzero"));
        }
        let rank = u32::from_le_bytes(fixed[12..16].try_into().expect("sliced 4"));
        if rank == 0 || rank > MAX_RANK {
            return Err(corrupt(12, format!("rank {rank} outside 1..={MAX_RANK}")));
        }
        let table_offset = u64::from_le_bytes(fixed[16..24].try_into().expect("sliced 8"));
        let header_end = HEADER_FIXED + 16 * rank as u64;
        if file_len < header_end {
            return Err(corrupt(
                HEADER_FIXED,
                format!("file is {file_len} bytes, rank {rank} extents need {header_end}"),
            ));
        }
        let mut extents = vec![0u8; 16 * rank as usize];
        file.read_exact(&mut extents).map_err(|e| io_err("read extents", e))?;
        let word = |i: usize| {
            u64::from_le_bytes(extents[i * 8..i * 8 + 8].try_into().expect("sliced 8"))
        };
        let dims: Vec<u64> = (0..rank as usize).map(word).collect();
        let chunk: Vec<u64> = (rank as usize..2 * rank as usize).map(word).collect();
        let layout = ChunkLayout::new(dims, chunk)
            .map_err(|e| corrupt(HEADER_FIXED, format!("invalid extents: {e}")))?;
        let num_chunks = layout.num_chunks();

        // Table bounds. The file must end exactly where the table
        // says it does: count word + n entries + end marker.
        if table_offset < header_end || table_offset > file_len {
            return Err(corrupt(
                16,
                format!("table offset {table_offset} outside [{header_end}, {file_len}]"),
            ));
        }
        let table_len = 8 + TABLE_ENTRY_BYTES
            .checked_mul(num_chunks)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| corrupt(16, "table size overflows"))?;
        let want_len = table_offset
            .checked_add(table_len)
            .ok_or_else(|| corrupt(16, "table end overflows"))?;
        if want_len != file_len {
            return Err(corrupt(
                table_offset,
                format!(
                    "file is {file_len} bytes but {num_chunks}-chunk table ending at \
                     {want_len} (truncated or trailing garbage)"
                ),
            ));
        }
        file.seek(SeekFrom::Start(table_offset)).map_err(|e| io_err("seek to table", e))?;
        let mut table = vec![0u8; table_len as usize];
        file.read_exact(&mut table).map_err(|e| io_err("read table", e))?;
        let counted = u64::from_le_bytes(table[0..8].try_into().expect("sliced 8"));
        if counted != num_chunks {
            return Err(corrupt(
                table_offset,
                format!("table counts {counted} chunks, layout has {num_chunks}"),
            ));
        }
        if table[table.len() - 4..] != END_MARKER {
            return Err(corrupt(file_len - 4, "end marker missing (file truncated?)"));
        }
        let mut entries = Vec::with_capacity(num_chunks as usize);
        for id in 0..num_chunks {
            let at = 8 + (id * TABLE_ENTRY_BYTES) as usize;
            let row = &table[at..at + TABLE_ENTRY_BYTES as usize];
            let entry_pos = table_offset + at as u64;
            let f = |i: usize| u64::from_le_bytes(row[i..i + 8].try_into().expect("sliced 8"));
            let entry = ChunkEntry {
                offset: f(0),
                byte_len: f(8),
                elems: f(16),
                codec: Codec::from_u8(row[24]).ok_or_else(|| {
                    corrupt(entry_pos + 24, format!("chunk {id}: unknown codec {}", row[24]))
                })?,
                checksum: f(25),
            };
            let end = entry.offset.checked_add(entry.byte_len).ok_or_else(|| {
                corrupt(entry_pos, format!("chunk {id}: payload extent overflows"))
            })?;
            if entry.offset < header_end || end > table_offset {
                return Err(corrupt(
                    entry_pos,
                    format!(
                        "chunk {id}: payload [{}, {end}) outside the data region \
                         [{header_end}, {table_offset})",
                        entry.offset
                    ),
                ));
            }
            let want = layout.chunk_len(id).expect("id < num_chunks");
            if entry.elems != want {
                return Err(corrupt(
                    entry_pos,
                    format!("chunk {id}: table says {} elements, layout says {want}", entry.elems),
                ));
            }
            entries.push(entry);
        }
        Ok(AqfFile { file, path, layout, kind, compressed: flags & 1 != 0, entries })
    }

    /// The file's chunk layout.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// The element kind.
    pub fn kind(&self) -> ScalarKind {
        self.kind
    }

    /// Was the file written with compression enabled?
    pub fn compressed(&self) -> bool {
        self.compressed
    }

    /// The path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The table row for chunk `id`.
    pub fn entry(&self, id: u64) -> Option<&ChunkEntry> {
        self.entries.get(id as usize)
    }

    /// Encoded payload bytes across all chunks.
    pub fn encoded_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.byte_len).sum()
    }

    /// Read, decode, and checksum-verify chunk `id`.
    pub fn read_chunk_by_id(&mut self, id: u64) -> Result<ScalarBuf, StoreError> {
        let entry = *self.entry(id).ok_or_else(|| {
            StoreError::Shape(format!(
                "aqf: chunk id {id} out of range (file has {})",
                self.entries.len()
            ))
        })?;
        let len = usize::try_from(entry.byte_len)
            .map_err(|_| corrupt(entry.offset, format!("chunk {id}: payload too large")))?;
        self.file
            .seek(SeekFrom::Start(entry.offset))
            .map_err(|e| io_err("seek to chunk", e))?;
        let mut bytes = vec![0u8; len];
        self.file.read_exact(&mut bytes).map_err(|e| io_err("read chunk", e))?;
        let buf = codec::decode(entry.codec, self.kind, entry.elems as usize, &bytes)
            .map_err(|e| match e {
                StoreError::Corrupt(msg) => {
                    corrupt(entry.offset, format!("chunk {id}: {msg}"))
                }
                other => other,
            })?;
        let sum = checksum(&buf);
        if sum != entry.checksum {
            return Err(corrupt(
                entry.offset,
                format!(
                    "chunk {id}: checksum {sum:#018x} does not match table {:#018x}",
                    entry.checksum
                ),
            ));
        }
        if aql_trace::enabled() {
            aql_trace::count("aqf.chunks_read", 1);
            aql_trace::count("aqf.bytes_read", entry.byte_len);
        }
        Ok(buf)
    }
}
