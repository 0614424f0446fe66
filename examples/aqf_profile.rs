//! Where an AQF write and read-back spend their time, stage by stage,
//! beside what the operating system alone charges for the same bytes —
//! the table issue 20 was sized from.
//!
//! ```text
//! cargo run --release --example aqf_profile
//! ```
//!
//! For the two arrays the benchmark's `spill_reopen` writes (a quarter
//! of the synthetic `temp`, 54,750 reals that stay raw, and as many
//! oktas, which bit-pack), median µs per array and MB/s of decoded
//! bytes for: the chunk checksum, `codec::encode` and `codec::decode`
//! over the array's 14 chunks, `AqfWriter` end to end (create, 14
//! `write_chunk`, `finish`), `AqfFile` open + read of every chunk, a
//! reopen through `AqfReader::default().read` plus one probe (MB/s of
//! the probed chunk), the same reopen with a read-ahead worker attached
//! (`prefetch: Some(PrefetchConfig::default())`: the thread's spawn and
//! join are the difference), and the bare-OS floor — create a
//! temporary, write the same payload and table sizes, patch the header
//! word, rename into place — with no AQF code in the loop. What is left
//! of `share.format` once the first rows are small is the last one.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use aql::core::value::Value;
use aql::format::{codec, AqfFile, AqfReader, AqfWriter, Codec, DEFAULT_CHUNK_ELEMS};
use aql::lang::reader::Reader;
use aql::netcdf::model::NcValues;
use aql::netcdf::synth::year_temp_file;
use aql::store::fault::checksum;
use aql::store::{ChunkLayout, ChunkSource, MemChunkSource, PrefetchConfig, ScalarBuf, ScalarKind};

const DIMS: [u64; 3] = [2190, 5, 5];
const CELLS: usize = (DIMS[0] * DIMS[1] * DIMS[2]) as usize;

/// Median seconds of `f` over 41 runs after 10 warm-up runs.
fn median_s<T>(mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..10 {
        std::hint::black_box(f());
    }
    let mut s: Vec<f64> = (0..41)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn row(what: &str, bytes: usize, s: f64) {
    println!("  {what:<34} {:>9.1} µs {:>10.0} MB/s", s * 1e6, bytes as f64 / 1e6 / s);
}

fn write_all(path: &Path, layout: &ChunkLayout, kind: ScalarKind, chunks: &[ScalarBuf]) {
    let mut w = AqfWriter::create(path, layout.clone(), kind, true).expect("create");
    for c in chunks {
        w.write_chunk(c).expect("write chunk");
    }
    w.finish().expect("finish");
}

/// What the kernel charges for a file of this shape, written the way
/// `AqfWriter` writes it.
fn os_floor(path: &Path, header: usize, payloads: &[Vec<u8>], table: usize) {
    let tmp = path.with_extension("floor.tmp");
    let mut f = File::create(&tmp).expect("create");
    f.write_all(&vec![0u8; header]).expect("header");
    for p in payloads {
        f.write_all(p).expect("payload");
    }
    f.write_all(&vec![0u8; table]).expect("table");
    f.seek(SeekFrom::Start(16)).expect("seek");
    f.write_all(&[0u8; 8]).expect("patch");
    std::fs::rename(&tmp, path).expect("rename");
}

fn profile(name: &str, dir: &Path, buf: ScalarBuf) {
    let kind = buf.kind();
    let bytes = buf.byte_len() as usize;
    let layout = ChunkLayout::row_major(DIMS.to_vec(), DEFAULT_CHUNK_ELEMS).expect("layout");
    let mut src = MemChunkSource::new(DIMS.to_vec(), buf).expect("array");
    let chunks: Vec<ScalarBuf> = (0..layout.num_chunks())
        .map(|id| {
            let (start, count) = layout.chunk_bounds(id).expect("chunk bounds");
            src.read_chunk(&start, &count).expect("chunk")
        })
        .collect();
    let encoded: Vec<(Codec, Vec<u8>)> = chunks.iter().map(|c| codec::encode(c, true)).collect();
    let stored: usize = encoded.iter().map(|(_, b)| b.len()).sum();
    println!(
        "{name}: {CELLS} {kind} cells, {} chunks, {bytes} B decoded, {stored} B stored as {:?}",
        chunks.len(),
        encoded[0].0
    );

    row("checksum", bytes, median_s(|| chunks.iter().map(checksum).fold(0, |a, b| a ^ b)));
    row(
        "codec::encode",
        bytes,
        median_s(|| chunks.iter().map(|c| codec::encode(c, true).1.len()).sum::<usize>()),
    );
    row(
        "codec::decode",
        bytes,
        median_s(|| {
            for ((codec, payload), c) in encoded.iter().zip(&chunks) {
                std::hint::black_box(codec::decode(*codec, kind, c.len(), payload).expect("own"));
            }
        }),
    );
    let path = dir.join(format!("{name}.aqf"));
    row("AqfWriter create..finish", bytes, median_s(|| write_all(&path, &layout, kind, &chunks)));
    row(
        "AqfFile open + read every chunk",
        bytes,
        median_s(|| {
            let mut f = AqfFile::open(&path).expect("open");
            for id in 0..f.layout().num_chunks() {
                std::hint::black_box(f.read_chunk_by_id(id).expect("read"));
            }
        }),
    );
    // A bind is what `readval … using AQF` and `spill_aqf` pay: open and
    // validate the file, build the cache, and (when configured) start
    // and, on drop, join the read-ahead worker.
    let probe = [DIMS[0] / 2, 2, 2];
    let probed = chunks[layout.locate(&probe).expect("inside").chunk as usize].byte_len() as usize;
    let arg = Value::str(path.to_str().expect("utf-8 path"));
    let reopen = |reader: &AqfReader| {
        let (v, _) = reader.read(&arg).expect("reopen");
        let off = (probe[0] * DIMS[1] + probe[1]) * DIMS[2] + probe[2];
        v.as_array().expect("array").try_value_at(off as usize).expect("probe")
    };
    row("AqfReader::default + 1 probe", probed, median_s(|| reopen(&AqfReader::default())));
    let ahead = AqfReader { prefetch: Some(PrefetchConfig::default()), ..AqfReader::default() };
    row("same with a read-ahead worker", probed, median_s(|| reopen(&ahead)));
    let payloads: Vec<Vec<u8>> = encoded.into_iter().map(|(_, b)| b).collect();
    let (header, table) = (24 + 16 * 3, 8 + 33 * chunks.len() + 4);
    row(
        "bare OS: create, writes, patch, mv",
        bytes,
        median_s(|| os_floor(&path, header, &payloads, table)),
    );
}

fn main() {
    let dir = std::env::temp_dir().join(format!("aql-aqf-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");

    let f = year_temp_file().expect("synth");
    let (i, _) = f.find_var("temp").expect("temp");
    let NcValues::Double(temp) = &f.data[i] else { panic!("temp is a double variable") };
    profile("temp", &dir, ScalarBuf::F64(temp[..CELLS].to_vec()));

    // Oktas 0..=8 from splitmix64, like the benchmark's `cloud`.
    let okta = |i: u64| {
        let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % 9) as i64
    };
    profile("cloud", &dir, ScalarBuf::I64((0..CELLS as u64).map(okta).collect()));

    std::fs::remove_dir_all(&dir).ok();
}
