//! Corrupt-file corpus for the AQF container: every case must yield a
//! classified [`StoreError`] — never a panic.
//!
//! The corpus is built by mutating a valid file: truncation at *every*
//! byte boundary, bad magic/version/dtype/flags/rank, out-of-range
//! table offsets and chunk-payload extents, table rows that disagree
//! with the layout, and single-byte rot everywhere — every byte of an
//! AQF file is covered by a structural check or a chunk checksum, so
//! every single-byte flip must be *detected*, not just survived.

use aql::format::{register_aqf, AqfFile, AqfWriter, END_MARKER, MAGIC, VERSION};
use aql::lang::session::Session;
use aql::store::{ChunkLayout, ScalarBuf, ScalarKind, StoreError};

/// Write a small representative file: rank 2, edge chunks on both
/// axes (7×5 split 4×3), i64 data so the bit-packing codec engages.
fn sample(compress: bool) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "aql-aqfcorrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("sample.aqf");
    let layout = ChunkLayout::new(vec![7, 5], vec![4, 3]).expect("layout");
    let mut w =
        AqfWriter::create(&path, layout.clone(), ScalarKind::I64, compress).expect("create");
    for id in 0..layout.num_chunks() {
        let n = layout.chunk_len(id).expect("chunk len");
        let buf = ScalarBuf::I64((0..n).map(|k| (id * 100 + k) as i64 - 7).collect());
        w.write_chunk(&buf).expect("write chunk");
    }
    w.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Open `bytes` (via a scratch file) and, if the structure passes,
/// read every chunk. Returns the first error, if any.
fn open_and_read_all(bytes: &[u8]) -> Result<(), StoreError> {
    let dir = std::env::temp_dir().join(format!(
        "aql-aqfcorrupt-case-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("case.aqf");
    std::fs::write(&path, bytes).expect("write case");
    let result = (|| {
        let mut f = AqfFile::open(&path)?;
        for id in 0..f.layout().num_chunks() {
            f.read_chunk_by_id(id)?;
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn assert_rejected(bytes: &[u8], what: &str) -> StoreError {
    match open_and_read_all(bytes) {
        Err(e) => e,
        Ok(()) => panic!("{what}: corrupt input was accepted"),
    }
}

#[test]
fn the_sample_itself_is_valid() {
    for compress in [false, true] {
        open_and_read_all(&sample(compress)).expect("pristine sample reads clean");
    }
}

#[test]
fn truncation_at_every_boundary_is_rejected() {
    for compress in [false, true] {
        let good = sample(compress);
        for cut in 0..good.len() {
            match open_and_read_all(&good[..cut]) {
                Err(_) => {}
                Ok(()) => panic!(
                    "compress={compress}: truncation at byte {cut}/{} accepted",
                    good.len()
                ),
            }
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let good = sample(true);
    for magic in [*b"AQF2", *b"FQA1", *b"\x00\x00\x00\x00", *b"CDF\x01"] {
        let mut bytes = good.clone();
        bytes[0..4].copy_from_slice(&magic);
        let e = assert_rejected(&bytes, "bad magic");
        assert!(matches!(e, StoreError::Corrupt(_)), "classified Corrupt, got {e:?}");
    }
    // Sanity: the constant the format module exports is what's on disk.
    assert_eq!(&good[0..4], &MAGIC);
}

#[test]
fn bad_version_dtype_flags_rank_are_rejected() {
    let good = sample(false);
    // Version 1 (its chunk table holds FNV-1a sums; there is no reader
    // for it) and a future version 3 (offset 4).
    for version in [1, 3] {
        let mut bytes = good.clone();
        bytes[4] = version;
        let e = assert_rejected(&bytes, "other version");
        assert!(matches!(e, StoreError::Corrupt(_)), "classified Corrupt, got {e:?}");
        assert!(format!("{e}").contains(&format!("unsupported format version {version}")), "{e}");
    }
    // Unknown dtype (offset 8).
    let mut bytes = good.clone();
    bytes[8] = 9;
    let e = assert_rejected(&bytes, "unknown dtype");
    assert!(format!("{e}").contains("dtype"), "{e}");
    // Unknown flag bits (offset 9).
    let mut bytes = good.clone();
    bytes[9] = 0x82;
    assert_rejected(&bytes, "unknown flags");
    // Nonzero reserved bytes (offset 10).
    let mut bytes = good.clone();
    bytes[10] = 1;
    assert_rejected(&bytes, "reserved bytes");
    // Rank 0 and rank 65 (offset 12, u32 LE).
    for rank in [0u32, 65, u32::MAX] {
        let mut bytes = good.clone();
        bytes[12..16].copy_from_slice(&rank.to_le_bytes());
        let e = assert_rejected(&bytes, "rank out of range");
        assert!(matches!(e, StoreError::Corrupt(_)), "got {e:?}");
    }
}

#[test]
fn out_of_range_table_offset_is_rejected() {
    let good = sample(false);
    for bogus in [0u64, 5, u64::MAX, good.len() as u64 + 1000] {
        let mut bytes = good.clone();
        bytes[16..24].copy_from_slice(&bogus.to_le_bytes());
        let e = assert_rejected(&bytes, "table offset out of range");
        assert!(matches!(e, StoreError::Corrupt(_)), "got {e:?}");
    }
}

#[test]
fn out_of_range_chunk_payload_is_rejected() {
    let good = sample(false);
    let table_offset =
        u64::from_le_bytes(good[16..24].try_into().unwrap()) as usize;
    // First table row starts after the 8-byte count; its first word is
    // the payload offset of chunk 0.
    let row0 = table_offset + 8;
    for bogus in [0u64, good.len() as u64, u64::MAX] {
        let mut bytes = good.clone();
        bytes[row0..row0 + 8].copy_from_slice(&bogus.to_le_bytes());
        let e = assert_rejected(&bytes, "payload offset out of range");
        let shown = format!("{e}");
        assert!(
            shown.contains("chunk 0") || shown.contains("overflow"),
            "error names the chunk: {shown}"
        );
    }
    // An elems word that disagrees with the layout (offset 16 in the
    // row) is caught at open, before any payload is read.
    let mut bytes = good.clone();
    bytes[row0 + 16..row0 + 24].copy_from_slice(&999u64.to_le_bytes());
    let e = assert_rejected(&bytes, "elems mismatch");
    assert!(format!("{e}").contains("element"), "{e}");
    // An unknown codec byte (offset 24 in the row).
    let mut bytes = good.clone();
    bytes[row0 + 24] = 0xEE;
    let e = assert_rejected(&bytes, "unknown codec");
    assert!(format!("{e}").contains("codec"), "{e}");
}

#[test]
fn checksum_rot_is_detected_on_read() {
    let good = sample(false);
    // Flip one payload byte (the data region starts right after the
    // rank-2 header: 24 + 16·2 = 56). `open` still succeeds — payload
    // verification happens on read — and the read reports a checksum
    // mismatch naming the chunk.
    let mut bytes = good.clone();
    bytes[56] ^= 0x01;
    let e = assert_rejected(&bytes, "payload rot");
    let shown = format!("{e}");
    assert!(shown.contains("checksum"), "checksum named: {shown}");
    assert!(shown.contains("chunk 0"), "chunk named: {shown}");
    // Rotting the stored checksum itself (row offset 25) is the same
    // failure from the other side.
    let table_offset = u64::from_le_bytes(good[16..24].try_into().unwrap()) as usize;
    let mut bytes = good.clone();
    bytes[table_offset + 8 + 25] ^= 0xFF;
    let e = assert_rejected(&bytes, "table checksum rot");
    assert!(format!("{e}").contains("checksum"), "{e}");
}

#[test]
fn every_single_byte_flip_is_detected() {
    // AQF leaves no slack bytes: the header and table are structurally
    // validated and every payload byte is covered by a chunk checksum,
    // so XOR-ing any single byte with 0xFF must surface an error at
    // open or at some chunk read. (Reaching the end of the loop also
    // proves no mutation panics.)
    for compress in [false, true] {
        let good = sample(compress);
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0xFF;
            if open_and_read_all(&bytes).is_ok() {
                panic!("compress={compress}: flipping byte {at} went undetected");
            }
        }
    }
}

#[test]
fn errors_carry_byte_offsets() {
    let good = sample(false);
    let mut bytes = good.clone();
    bytes[8] = 7;
    let e = assert_rejected(&bytes, "dtype");
    let shown = format!("{e}");
    assert!(shown.contains("byte 8"), "display names the offset: {shown}");
    assert_eq!(e.class(), aql_store::FaultClass::Fatal, "corruption is never retried");
}

/// A structurally valid rank-1 `I64` file of one chunk whose table row
/// claims `elems` elements under `codec` with the given payload. The
/// stored checksum is never reached.
fn one_chunk_file(elems: u64, codec: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&[1, 1, 0, 0]); // i64, compressed, reserved
    bytes.extend_from_slice(&1u32.to_le_bytes());
    let table_offset = 40 + payload.len() as u64;
    bytes.extend_from_slice(&table_offset.to_le_bytes());
    bytes.extend_from_slice(&elems.to_le_bytes()); // extent
    bytes.extend_from_slice(&elems.to_le_bytes()); // chunk extent
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&40u64.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&elems.to_le_bytes());
    bytes.push(codec);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&END_MARKER);
    bytes
}

/// `readval` the file and subscript it in a session: the statement must
/// fail as a storage failure (binding already probes the chunk, and
/// the subscript reads it again), and the session must go on.
fn assert_session_survives(bytes: &[u8], tag: &str) {
    let dir = std::env::temp_dir().join(format!("aql-aqfhostile-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("hostile.aqf");
    std::fs::write(&path, bytes).expect("write case");
    let mut s = Session::new();
    register_aqf(&mut s);
    let err = s
        .run(&format!("readval \\H using AQF at \"{}\"; H[5];", path.display()))
        .expect_err("a hostile chunk is not served");
    assert!(format!("{err}").contains("array storage failure"), "{err}");
    let (_, v) = s.eval_query("1 + 1").expect("the session still answers");
    assert_eq!(format!("{v}"), "2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_huge_element_count_under_width_zero_is_an_error_not_an_abort() {
    // Before decode reserved its output fallibly this could not be a
    // plain #[test]: `Vec::with_capacity(2^40)` aborted the whole test
    // process (`memory allocation of 8796093022208 bytes failed`).
    if Vec::<u8>::new().try_reserve_exact(8 << 40).is_ok() {
        // This machine hands out 8 TB unbacked: here the chunk is not
        // refusable up front, and filling it would take the host down.
        return;
    }
    // Nine payload bytes — frame minimum 0, bit width 0 — "hold" 2^40
    // integers.
    let bytes = one_chunk_file(1 << 40, 1, &[0u8; 9]);
    let e = assert_rejected(&bytes, "2^40 elements in 9 bytes");
    assert!(matches!(e, StoreError::Corrupt(_)), "classified Corrupt, got {e:?}");
    assert!(format!("{e}").contains("chunk 0"), "{e}");
    assert_session_survives(&bytes, "width0");
}

#[test]
fn an_element_count_whose_byte_size_wraps_is_rejected() {
    // 2^61 raw elements: `elems * 8` wraps to 0, the size of the empty
    // payload. An unoptimized build used to panic on the multiplication;
    // an optimized one decoded "2^61 elements" as none and left the
    // file to a checksum its author also chooses.
    let bytes = one_chunk_file(1 << 61, 0, &[]);
    let e = assert_rejected(&bytes, "2^61 raw elements in 0 bytes");
    assert!(matches!(e, StoreError::Corrupt(_)), "classified Corrupt, got {e:?}");
    assert_session_survives(&bytes, "wrap");
}
