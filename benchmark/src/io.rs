//! The public hooks the benchmark implements itself so a traced run
//! can see I/O from outside the crates: a timing [`ChunkSource`]
//! decorator, timing [`Reader`]/[`Writer`] wrappers, and readers that
//! bind the same lazy arrays the stock `NETCDFk` and `AQF` readers
//! bind, with the decorator under the cache.

use std::rc::Rc;

use aql_core::types::Type;
use aql_core::value::{ArrayVal, Value};
use aql_format::{AqfChunkSource, AqfReader};
use aql_lang::errors::LangError;
use aql_lang::reader::{Reader, Writer};
use aql_netcdf::chunk::NcChunkSource;
use aql_netcdf::driver::{NetcdfSlabReader, DEFAULT_CHUNK_ELEMS};
use aql_netcdf::model::NcError;
use aql_netcdf::read::SlabReader;
use aql_store::{
    ChunkLayout, ChunkSource, LazyArray, Prefetcher, ResilientSource, ScalarBuf, ScalarKind,
    StoreError,
};

use crate::span::span;

/// Records one span per chunk load, at the boundary the cache calls.
pub struct TimedSource {
    inner: Box<dyn ChunkSource>,
    name: &'static str,
}

impl ChunkSource for TimedSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let _s = span(self.name);
        self.inner.read_chunk(start, count)
    }

    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.chunk_checksum(start, count)
    }
}

/// Records one span per `read`.
pub struct TimedReader {
    pub inner: Rc<dyn Reader>,
    pub name: &'static str,
}

impl Reader for TimedReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let _s = span(self.name);
        self.inner.read(arg)
    }
}

/// Records one span per `write`.
pub struct TimedWriter {
    pub inner: Rc<dyn Writer>,
    pub name: &'static str,
}

impl Writer for TimedWriter {
    fn write(&self, arg: &Value, data: &Value) -> Result<(), LangError> {
        let _s = span(self.name);
        self.inner.write(arg, data)
    }
}

fn err(e: impl std::fmt::Display) -> LangError {
    LangError::session(format!("benchmark reader: {e}"))
}

/// Binds what `NetcdfSlabReader::lazy(k)` binds — same layout, cache
/// budget, resilience stack and label — with a [`TimedSource`] between
/// the cache and the stack.
pub struct TracedNetcdfReader {
    pub k: usize,
}

impl Reader for TracedNetcdfReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let stock = NetcdfSlabReader::lazy(self.k);
        let items = arg.as_tuple().map_err(err)?;
        let [Value::Str(file), Value::Str(var), lo, hi] = items else {
            return Err(err("expected (file, variable, lower, upper)"));
        };
        let (file, var) = (file.to_string(), var.to_string());
        let lo = lo.as_index().map_err(err)?;
        let hi = hi.as_index().map_err(err)?;
        // The header check the stock reader makes at bind time.
        let reader = SlabReader::open(&file).map_err(err)?;
        let shape = reader
            .header
            .shape(&reader.header.find(&var).map_err(err)?.var)
            .map_err(err)?;
        let in_range = lo.len() == self.k
            && hi.len() == self.k
            && shape.len() == self.k
            && (0..self.k).all(|j| lo[j] <= hi[j] && hi[j] < shape[j]);
        if !in_range {
            return Err(err(format!(
                "bounds {lo:?}..{hi:?} do not fit `{var}` {shape:?}"
            )));
        }
        drop(reader);

        let count: Vec<u64> = lo.iter().zip(&hi).map(|(l, h)| h - l + 1).collect();
        let layout = ChunkLayout::row_major(count, DEFAULT_CHUNK_ELEMS).map_err(err)?;
        let label = format!("netcdf:{var}");
        let nc = NcChunkSource::new(
            move || {
                Ok(std::io::BufReader::new(
                    std::fs::File::open(&file).map_err(NcError::from)?,
                ))
            },
            var,
            lo,
        );
        let policy = stock
            .resilience
            .expect("the stock lazy reader is resilient");
        let source = TimedSource {
            inner: Box::new(ResilientSource::new(Box::new(nc), label.clone(), policy)),
            name: "netcdf.read_chunk",
        };
        let lazy = LazyArray::labeled(
            layout,
            ScalarKind::F64,
            Box::new(source),
            stock.cache_budget,
            label,
        );
        let arr = ArrayVal::lazy(lazy).map_err(err)?;
        Ok((
            Value::Array(Rc::new(arr)),
            Some(Type::array(Type::Real, self.k)),
        ))
    }
}

/// Binds what `AqfReader::default()` binds — cache budget, resilience
/// stack, prefetch worker and label — with a [`TimedSource`] between
/// the cache and the stack. Loads the prefetch worker makes on its own
/// thread are not spans of the op and are not recorded.
pub struct TracedAqfReader;

impl Reader for TracedAqfReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let stock = AqfReader::default();
        let Value::Str(path) = arg else {
            return Err(err("expected a file name"));
        };
        let path = path.to_string();
        let src = AqfChunkSource::open(&path).map_err(err)?;
        let layout = src.file().layout().clone();
        let kind = src.file().kind();
        let name = std::path::Path::new(&path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        let label = format!("aqf:{name}");
        let policy = stock.resilience.expect("the stock AQF reader is resilient");
        let source = TimedSource {
            inner: Box::new(ResilientSource::new(Box::new(src), label.clone(), policy)),
            name: "format.read_chunk",
        };
        let mut lazy = LazyArray::labeled(
            layout.clone(),
            kind,
            Box::new(source),
            stock.cache_budget,
            label,
        );
        if let (Some(cfg), Ok(worker_src)) = (stock.prefetch, AqfChunkSource::open(&path)) {
            lazy.attach_prefetcher(Prefetcher::spawn(Box::new(worker_src), layout.clone(), cfg));
        }
        let base = match kind {
            ScalarKind::F64 => Type::Real,
            ScalarKind::I64 => Type::Nat,
            ScalarKind::Bool => Type::Bool,
        };
        let arr = ArrayVal::lazy(lazy).map_err(err)?;
        Ok((
            Value::Array(Rc::new(arr)),
            Some(Type::array(base, layout.dims().len())),
        ))
    }
}
