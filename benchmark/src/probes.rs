//! Direct probes: each times one public function of one crate on a
//! small generated input, so a traced run reports the layer's own unit
//! (ns per hit, µs per miss, MB/s) on every workload.

use std::path::Path;
use std::time::Instant;

use aql_core::value::ArrayVal;
use aql_core::Value;
use aql_format::{codec, write_array, AqfFile, Codec, DEFAULT_CHUNK_ELEMS};
use aql_lang::reader::Reader;
use aql_lang::Session;
use aql_netcdf::driver::NetcdfSlabReader;
use aql_netcdf::read::SlabReader;
use aql_store::{ChunkLayout, ChunkSource, LazyArray, MemChunkSource, ScalarBuf, ScalarKind};

use crate::gen::{self, Rng};

/// Extents of the probe file's variable: 1 MiB of doubles.
const PROBE_DIMS: [u64; 3] = [128, 32, 32];
const PROBE_ELEMS: u64 = PROBE_DIMS[0] * PROBE_DIMS[1] * PROBE_DIMS[2];
const MB: f64 = 1e6;

/// Seconds of the fastest of `reps` calls of `f`: the other tenants of
/// a shared machine only ever add time.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

fn mem_array(data: ScalarBuf, budget_bytes: u64) -> Result<(LazyArray, ChunkLayout), String> {
    let n = data.len() as u64;
    let layout = ChunkLayout::row_major(vec![n], DEFAULT_CHUNK_ELEMS).map_err(|e| e.to_string())?;
    let source = MemChunkSource::new(vec![n], data).map_err(|e| e.to_string())?;
    let kind = ScalarKind::F64;
    Ok((
        LazyArray::new(layout.clone(), kind, Box::new(source), budget_bytes),
        layout,
    ))
}

/// What the store probes found, for the computed store share.
pub struct StoreCosts {
    pub hit_ns: f64,
    /// A miss's cache work: the probe's miss time less the time the
    /// in-memory source took to produce the chunk.
    pub miss_overhead_ns: f64,
    pub slab_ns_per_cell: f64,
}

pub fn run(
    dir: &Path,
    seed: u64,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<StoreCosts, String> {
    let store = store_probes(seed, out)?;
    netcdf_probes(dir, seed, out)?;
    format_probes(dir, seed, out)?;
    out.push(("session.new_us", time(5, Session::new) * 1e6));
    Ok(store)
}

fn store_probes(seed: u64, out: &mut Vec<(&'static str, f64)>) -> Result<StoreCosts, String> {
    let e = |e: aql_store::StoreError| e.to_string();
    let mut rng = Rng::new(seed ^ 0x57);
    let data: Vec<f64> = (0..PROBE_ELEMS).map(|i| i as f64 + 0.5).collect();

    // Hits: everything resident, random elements.
    let (mut arr, layout) = mem_array(ScalarBuf::F64(data.clone()), 2 * PROBE_ELEMS * 8)?;
    arr.read_slab(&[0], &[PROBE_ELEMS]).map_err(e)?;
    let idx: Vec<u64> = (0..100_000).map(|_| rng.below(PROBE_ELEMS)).collect();
    let hit_s = time(5, || {
        for &i in &idx {
            std::hint::black_box(arr.get(&[i]).expect("resident chunk"));
        }
    });
    let hit_ns = hit_s * 1e9 / idx.len() as f64;
    out.push(("store.hit_ns", hit_ns));

    // The same resident array, as one sequential slab.
    let slab_s = time(5, || {
        arr.read_slab(&[0], &[PROBE_ELEMS]).expect("resident slab")
    });
    out.push((
        "store.read_slab_mb_s",
        PROBE_ELEMS as f64 * 8.0 / MB / slab_s,
    ));

    // Misses: a cache of 4 chunks under a stride that never revisits
    // one before it is evicted, so every `get` loads and evicts.
    let chunks = layout.num_chunks();
    let (mut cold, _) = mem_array(ScalarBuf::F64(data.clone()), 4 * DEFAULT_CHUNK_ELEMS * 8)?;
    let mut next = 0u64;
    let miss_s = time(5, || {
        for _ in 0..chunks {
            next = (next + 7) % chunks;
            std::hint::black_box(cold.get(&[next * DEFAULT_CHUNK_ELEMS]).expect("in range"));
        }
    }) / chunks as f64;
    out.push(("store.miss_us", miss_s * 1e6));
    let mut source = MemChunkSource::new(vec![PROBE_ELEMS], ScalarBuf::F64(data)).map_err(e)?;
    let source_s = time(5, || {
        for c in 0..chunks {
            let chunk = source.read_chunk(&[c * DEFAULT_CHUNK_ELEMS], &[DEFAULT_CHUNK_ELEMS]);
            std::hint::black_box(chunk.expect("in range"));
        }
    }) / chunks as f64;

    Ok(StoreCosts {
        hit_ns,
        miss_overhead_ns: ((miss_s - source_s) * 1e9).max(0.0),
        slab_ns_per_cell: slab_s * 1e9 / PROBE_ELEMS as f64,
    })
}

fn netcdf_probes(dir: &Path, seed: u64, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let path = dir.join("probe.nc");
    gen::write_grid(&path, seed, PROBE_DIMS)?;
    out.push((
        "netcdf.open_us",
        time(50, || SlabReader::open(&path).expect("probe.nc")) * 1e6,
    ));
    let mut reader = SlabReader::open(&path).map_err(|e| e.to_string())?;
    let slab_s = time(10, || {
        reader
            .read_slab("G", &[0, 0, 0], &PROBE_DIMS)
            .expect("probe.nc")
    });
    out.push((
        "netcdf.hyperslab_mb_s",
        PROBE_ELEMS as f64 * 8.0 / MB / slab_s,
    ));
    let hi = Value::tuple(PROBE_DIMS.iter().map(|&d| Value::Nat(d - 1)).collect());
    let lo = Value::tuple(vec![Value::Nat(0); 3]);
    let arg = Value::tuple(vec![
        Value::str(&path.display().to_string()),
        Value::str("G"),
        lo,
        hi,
    ]);
    let stock = NetcdfSlabReader::lazy(3);
    out.push((
        "netcdf.bind_us",
        time(50, || stock.read(&arg).expect("probe.nc")) * 1e6,
    ));
    Ok(())
}

fn format_probes(dir: &Path, seed: u64, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let path = dir.join("probe.aqf");
    let file = path.display().to_string();
    let reals: Vec<f64> = (0..PROBE_ELEMS)
        .map(|i| gen::grid_value(seed, i, 0, 0))
        .collect();
    let arr = ArrayVal::from_f64(vec![PROBE_ELEMS], reals.clone()).map_err(|e| e.to_string())?;
    let write_s = time(5, || {
        write_array(&file, &arr, true, DEFAULT_CHUNK_ELEMS).expect("probe.aqf")
    });
    out.push((
        "format.write_array_mb_s",
        PROBE_ELEMS as f64 * 8.0 / MB / write_s,
    ));
    out.push((
        "format.open_us",
        time(50, || AqfFile::open(&path).expect("probe.aqf")) * 1e6,
    ));
    let mut aqf = AqfFile::open(&path).map_err(|e| e.to_string())?;
    let chunks = aqf.layout().num_chunks();
    let load_s = time(5, || {
        for id in 0..chunks {
            std::hint::black_box(aqf.read_chunk_by_id(id).expect("probe.aqf"));
        }
    });
    out.push(("format.chunk_load_us", load_s * 1e6 / chunks as f64));

    // One chunk per codec: non-integral reals stay raw, oktas bit-pack,
    // integral reals take the frame of reference.
    let n = DEFAULT_CHUNK_ELEMS as usize;
    let oktas: Vec<i64> = gen::cloud(seed)[..n].iter().map(|&o| o as i64).collect();
    let chunks = [
        ("raw", Codec::Raw, ScalarBuf::F64(reals[..n].to_vec())),
        ("bitpack", Codec::BitPack, ScalarBuf::I64(oktas.clone())),
        (
            "for",
            Codec::FrameOfRef,
            ScalarBuf::F64(oktas.iter().map(|&o| o as f64).collect()),
        ),
    ];
    const ENCODE: [&str; 3] = [
        "format.encode_mb_s.raw",
        "format.encode_mb_s.bitpack",
        "format.encode_mb_s.for",
    ];
    const DECODE: [&str; 3] = [
        "format.decode_mb_s.raw",
        "format.decode_mb_s.bitpack",
        "format.decode_mb_s.for",
    ];
    let reps = 50;
    for (k, (name, want, buf)) in chunks.iter().enumerate() {
        let (got, bytes) = codec::encode(buf, true);
        if got != *want {
            return Err(format!("codec probe `{name}`: the encoder chose {got:?}"));
        }
        let mb = reps as f64 * n as f64 * 8.0 / MB;
        let enc_s = time(5, || {
            for _ in 0..reps {
                std::hint::black_box(codec::encode(std::hint::black_box(buf), true));
            }
        });
        let dec_s = time(5, || {
            for _ in 0..reps {
                let back = codec::decode(got, buf.kind(), n, std::hint::black_box(&bytes));
                std::hint::black_box(back.expect("own encoding"));
            }
        });
        out.push((ENCODE[k], mb / enc_s));
        out.push((DECODE[k], mb / dec_s));
    }
    Ok(())
}
