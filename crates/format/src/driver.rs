//! AQL session drivers for AQF: the `AQF` reader/writer pair, and the
//! [`SessionAqfExt`] save/spill API.
//!
//! The writer is the streaming half of the tentpole: `writeval T using
//! AQF at "t.aqf"` walks the output layout chunk by chunk, pulling
//! each chunk's hyperslab out of the source array — for a *lazy*
//! source this is [`LazyArray::read_slab`], which loads only the
//! source chunks that overlap, bounded by the source's own cache
//! budget — and appends it to the [`AqfWriter`]. The full result is
//! never resident; peak governed memory stays near the source cache
//! budget plus one output chunk regardless of array size.
//!
//! The reader binds lazily: an [`AqfChunkSource`] under the usual
//! stack (optional [`ResilientSource`], labeled cache; a read-ahead
//! [`Prefetcher`] on a second file handle only when configured), so an
//! AQF-backed array behaves exactly like a NetCDF-backed one — only
//! the chunks a query touches are ever read.

use std::path::Path;
use std::rc::Rc;

use aql_core::types::Type;
use aql_core::value::array::{ArrayData, Column};
use aql_core::value::{ArrayVal, Value};
use aql_lang::errors::LangError;
use aql_lang::reader::{Reader, Writer};
use aql_lang::session::Session;
use aql_store::layout::for_each_run;
use aql_store::{
    ChunkLayout, ChunkSource, LazyArray, PrefetchConfig, Prefetcher, ResiliencePolicy,
    ResilientSource, Scalar, ScalarBuf, ScalarKind,
};

use crate::file::{AqfSummary, AqfWriter};
use crate::source::AqfChunkSource;

pub use aql_store::{DEFAULT_CACHE_BUDGET, DEFAULT_CHUNK_ELEMS};

static M_SAVES: aql_journal::metrics::LazyCounter = aql_journal::metrics::LazyCounter::new(
    "aql_format_saves_total",
    "Arrays written to AQF files.",
);
static M_OPENS: aql_journal::metrics::LazyCounter = aql_journal::metrics::LazyCounter::new(
    "aql_format_opens_total",
    "AQF files bound as lazy arrays.",
);

/// A request the driver refuses, in words. (A failure *of the storage
/// layer* is not one of these: it passes through `?` with its type, so
/// the statement fails as it would had a subscript met the fault.)
fn store_err(e: impl std::fmt::Display) -> LangError {
    LangError::session(format!("AQF: {e}"))
}

/// The source label for a bound AQF file: `aqf:<file name>` — the
/// name only, not the full path, so reports and goldens are stable
/// across temp directories.
fn label_for(path: &str) -> String {
    let name = Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    format!("aqf:{name}")
}

/// The element kind an array will be persisted as.
fn persisted_kind(arr: &ArrayVal) -> Result<ScalarKind, LangError> {
    match arr.array_data() {
        ArrayData::Flat(Column::F64(_)) => Ok(ScalarKind::F64),
        ArrayData::Flat(Column::Nat(_)) => Ok(ScalarKind::I64),
        ArrayData::Flat(Column::Bool(_)) => Ok(ScalarKind::Bool),
        ArrayData::Lazy(l) => Ok(l.borrow().kind()),
        // Never empty: its first cell is the tuple to name.
        ArrayData::Columns(_) => Err(store_err(format!(
            "arrays of scalars only; found element {}",
            arr.value_at(0)
        ))),
        ArrayData::Materialized(vals) => {
            let mut kind = None;
            for v in vals {
                let k = match v {
                    Value::Real(_) => ScalarKind::F64,
                    Value::Nat(_) => ScalarKind::I64,
                    Value::Bool(_) => ScalarKind::Bool,
                    other => {
                        return Err(store_err(format!(
                            "arrays of scalars only; found element {other}"
                        )))
                    }
                };
                match kind {
                    None => kind = Some(k),
                    Some(prev) if prev != k => {
                        return Err(store_err("array elements must all have one scalar type"))
                    }
                    Some(_) => {}
                }
            }
            // An empty array has no elements to decide by; store reals.
            Ok(kind.unwrap_or(ScalarKind::F64))
        }
    }
}

fn value_to_scalar(v: &Value, kind: ScalarKind) -> Result<Scalar, LangError> {
    match (v, kind) {
        (Value::Real(x), ScalarKind::F64) => Ok(Scalar::F64(*x)),
        (Value::Nat(n), ScalarKind::I64) => {
            let x = i64::try_from(*n).map_err(|_| {
                store_err(format!("natural {n} exceeds the format's integer range"))
            })?;
            Ok(Scalar::I64(x))
        }
        (Value::Bool(b), ScalarKind::Bool) => Ok(Scalar::Bool(*b)),
        (other, kind) => Err(store_err(format!("element {other} in a {kind} array"))),
    }
}

/// Row-major offset of `idx` in an array with extents `dims`.
fn flatten(idx: &[u64], dims: &[u64]) -> u64 {
    let mut off = 0u64;
    for (&i, &d) in idx.iter().zip(dims) {
        off = off * d + i;
    }
    off
}

/// Write every chunk of `layout` from the resident row-major buffer
/// `src`, run by run: `append` converts one contiguous run of source
/// cells onto the chunk under construction, which `wrap` then types.
fn write_gathered<T, U>(
    w: &mut AqfWriter,
    layout: &ChunkLayout,
    src: &[T],
    wrap: fn(Vec<U>) -> ScalarBuf,
    mut append: impl FnMut(&[T], &mut Vec<U>) -> Result<(), LangError>,
) -> Result<(), LangError> {
    let origin = vec![0; layout.dims().len()];
    for id in 0..layout.num_chunks() {
        let (start, count) = layout.chunk_bounds(id).expect("id < num_chunks");
        let mut out = Vec::with_capacity(layout.chunk_len(id).expect("id < num_chunks") as usize);
        // The chunk is the whole destination box, so runs arrive in
        // the order they are appended.
        for_each_run(&count, &start, layout.dims(), &origin, &count, |from, _to, run| {
            let cells = src
                .get(from..from + run)
                .ok_or_else(|| store_err("index outside the array it came from"))?;
            append(cells, &mut out)
        })?;
        w.write_chunk(&wrap(out))?;
    }
    Ok(())
}

/// Write `arr` to `path` as AQF, streaming chunk by chunk. The
/// workhorse behind both the `AQF` writer and [`SessionAqfExt`].
pub fn write_array(
    path: &str,
    arr: &ArrayVal,
    compress: bool,
    chunk_elems: u64,
) -> Result<AqfSummary, LangError> {
    let _span = aql_trace::span("aqf.save");
    let dims = arr.dims().to_vec();
    let kind = persisted_kind(arr)?;
    let layout = ChunkLayout::row_major(dims.clone(), chunk_elems).map_err(store_err)?;
    let mut w = AqfWriter::create(path, layout.clone(), kind, compress)?;
    match arr.array_data() {
        ArrayData::Lazy(l) => {
            // Streaming spill: each output chunk is one hyperslab read
            // against the source — the source cache (not the array
            // size) bounds residency.
            let mut l = l.borrow_mut();
            for id in 0..layout.num_chunks() {
                let (start, count) = layout.chunk_bounds(id).expect("id < num_chunks");
                let buf = l.read_slab(&start, &count)?;
                w.write_chunk(&buf)?;
            }
        }
        // Typed flat buffers: each output chunk is gathered run by run
        // straight from the buffer.
        ArrayData::Flat(col) => match col {
            Column::F64(v) => write_gathered(&mut w, &layout, v, ScalarBuf::F64, |cells, out| {
                out.extend_from_slice(cells);
                Ok(())
            })?,
            Column::Bool(v) => write_gathered(&mut w, &layout, v, ScalarBuf::Bool, |cells, out| {
                out.extend_from_slice(cells);
                Ok(())
            })?,
            Column::Nat(v) => write_gathered(&mut w, &layout, v, ScalarBuf::I64, |cells, out| {
                for &n in cells {
                    out.push(i64::try_from(n).map_err(|_| {
                        store_err(format!("natural {n} exceeds the format's integer range"))
                    })?);
                }
                Ok(())
            })?,
        },
        ArrayData::Materialized(_) | ArrayData::Columns(_) => {
            for id in 0..layout.num_chunks() {
                let (start, count) = layout.chunk_bounds(id).expect("id < num_chunks");
                let n = layout.chunk_len(id).expect("id < num_chunks") as usize;
                let mut buf = ScalarBuf::with_capacity(kind, n);
                let mut idx = start.clone();
                let mut remaining = n;
                while remaining > 0 {
                    let off = flatten(&idx, &dims) as usize;
                    let v = arr
                        .try_value_at(off)?
                        .ok_or_else(|| store_err("index outside the array it came from"))?;
                    if !buf.push(value_to_scalar(&v, kind)?) {
                        return Err(store_err("internal: scalar kind drifted during write"));
                    }
                    remaining -= 1;
                    let mut j = idx.len();
                    while j > 0 {
                        j -= 1;
                        idx[j] += 1;
                        if idx[j] < start[j] + count[j] {
                            break;
                        }
                        idx[j] = start[j];
                    }
                }
                w.write_chunk(&buf)?;
            }
        }
    }
    let summary = w.finish()?;
    M_SAVES.inc();
    Ok(summary)
}

/// The `AQF` writer: `writeval T using AQF at "file.aqf";`.
#[derive(Debug, Clone)]
pub struct AqfArrayWriter {
    /// Try the packing codecs per chunk (raw fallback is automatic).
    pub compress: bool,
    /// Target elements per output chunk.
    pub chunk_elems: u64,
}

impl Default for AqfArrayWriter {
    fn default() -> AqfArrayWriter {
        AqfArrayWriter { compress: true, chunk_elems: DEFAULT_CHUNK_ELEMS }
    }
}

impl Writer for AqfArrayWriter {
    fn write(&self, arg: &Value, data: &Value) -> Result<(), LangError> {
        let path = match arg {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(store_err(format!(
                    "writer expects a file name string, got {other}"
                )))
            }
        };
        let arr = data
            .as_array()
            .map_err(|_| store_err("only arrays can be written to AQF"))?;
        write_array(&path, arr, self.compress, self.chunk_elems)?;
        Ok(())
    }
}

/// The `AQF` reader: `readval \T using AQF at "file.aqf";` binds the
/// file as a lazy array. The default binding (made by [`register_aqf`]
/// and [`SessionAqfExt::spill_aqf`]) is one file handle and a cache and
/// starts no thread: an AQF chunk loads in microseconds from the page
/// cache, so read-ahead has no latency to hide. Set `prefetch` for it.
#[derive(Debug, Clone)]
pub struct AqfReader {
    /// Chunk-cache byte budget for the bound array.
    pub cache_budget: u64,
    /// Resilience stack around the file source; `None` binds raw.
    pub resilience: Option<ResiliencePolicy>,
    /// Read-ahead worker on a second file handle; `None` (the default) starts none.
    pub prefetch: Option<PrefetchConfig>,
}

impl Default for AqfReader {
    fn default() -> AqfReader {
        AqfReader {
            cache_budget: DEFAULT_CACHE_BUDGET,
            resilience: Some(ResiliencePolicy::default()),
            prefetch: None,
        }
    }
}

impl Reader for AqfReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let path = match arg {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(store_err(format!(
                    "reader expects a file name string, got {other}"
                )))
            }
        };
        let src = AqfChunkSource::open(&path)?;
        let layout = src.file().layout().clone();
        let kind = src.file().kind();
        let rank = layout.dims().len();
        let label = label_for(&path);
        let mut source: Box<dyn ChunkSource> = Box::new(src);
        if let Some(policy) = self.resilience.clone() {
            source = Box::new(ResilientSource::new(source, label.clone(), policy));
        }
        let mut lazy = LazyArray::labeled(layout.clone(), kind, source, self.cache_budget, label);
        if let Some(cfg) = self.prefetch {
            // The worker gets its own validated handle on the file; if
            // the second open fails we just bind without read-ahead.
            if let Ok(pf_src) = AqfChunkSource::open(&path) {
                lazy.attach_prefetcher(Prefetcher::spawn(Box::new(pf_src), layout, cfg));
            }
        }
        let arr = ArrayVal::lazy(lazy)?;
        M_OPENS.inc();
        let base = match kind {
            ScalarKind::F64 => Type::Real,
            // I64 chunks come from `nat` arrays (the writer rejects
            // anything else), so they rebind at their original type.
            ScalarKind::I64 => Type::Nat,
            ScalarKind::Bool => Type::Bool,
        };
        Ok((Value::Array(Rc::new(arr)), Some(Type::array(base, rank))))
    }
}

/// Save/spill convenience methods on [`Session`].
pub trait SessionAqfExt {
    /// Write the array bound to `name` to `path` as AQF.
    fn save_aqf(&mut self, name: &str, path: &str) -> Result<AqfSummary, LangError>;

    /// Write the array bound to `name` to `path`, then **rebind**
    /// `name` as a lazy array over the file — releasing whatever the
    /// previous binding held resident. The paper's "arrays as
    /// functions" reading of spilling: the value is unchanged, only
    /// where its elements live moves.
    fn spill_aqf(&mut self, name: &str, path: &str) -> Result<AqfSummary, LangError>;
}

impl SessionAqfExt for Session {
    fn save_aqf(&mut self, name: &str, path: &str) -> Result<AqfSummary, LangError> {
        let v = self
            .val(name)
            .ok_or_else(|| store_err(format!("no value binding `{name}` to save")))?
            .clone();
        let arr = v
            .as_array()
            .map_err(|_| store_err(format!("`{name}` is not an array")))?;
        write_array(path, arr, true, DEFAULT_CHUNK_ELEMS)
    }

    fn spill_aqf(&mut self, name: &str, path: &str) -> Result<AqfSummary, LangError> {
        let summary = self.save_aqf(name, path)?;
        let (value, ty) = AqfReader::default().read(&Value::str(path))?;
        match ty {
            Some(ty) => self.bind_val_typed(name, value, ty),
            None => self.bind_val(name, value)?,
        }
        Ok(summary)
    }
}

/// Register the AQF driver pair on a session: reader `AQF` and writer
/// `AQF`.
pub fn register_aqf(session: &mut Session) {
    session.register_reader("AQF", Rc::new(AqfReader::default()));
    session.register_writer("AQF", Rc::new(AqfArrayWriter::default()));
}
