//! A NetCDF-backed [`ChunkSource`]: cache misses become hyperslab
//! reads.
//!
//! An [`NcChunkSource`] binds one variable of one dataset and serves
//! each `aql-store` chunk request with one open, one header parse and
//! one hyperslab read — a failed request leaves no partial reader
//! state behind, and whether it is tried again is the caller's
//! business ([`aql_store::ResilientSource`] in every bound reader).
//! The typed values are widened to `f64` (the drivers' "numeric
//! external types widen to `real`" policy). The source carries a *base
//! offset* so a lazy array over a subslab `(lo, hi)` addresses its
//! chunks in subslab coordinates while the file is read in absolute
//! coordinates.

use std::marker::PhantomData;
use std::sync::Arc;

use aql_journal::{emit, Event};
use aql_store::{ChunkSource, ScalarBuf, StoreError};

use crate::io::IoSource;
use crate::model::{NcError, NcValues};
use crate::read::SlabReader;

/// Translate a NetCDF substrate error into a storage error, keeping
/// the transient/corrupt classification.
pub fn nc_to_store(e: NcError) -> StoreError {
    match e {
        NcError::Io { message, transient } => StoreError::Io { message, transient },
        NcError::Corrupt { offset, message } => {
            StoreError::Corrupt(format!("at byte {offset}: {message}"))
        }
        // Lookup/bounds/format failures mean the binding and the file
        // disagree — surfaced as shape errors.
        other => StoreError::Shape(other.to_string()),
    }
}

/// Convert a slab of typed external values to a flat `f64` buffer.
fn values_to_buf(vals: &NcValues) -> Result<ScalarBuf, StoreError> {
    let mut out = Vec::with_capacity(vals.len());
    for i in 0..vals.len() {
        let x = vals.get_f64(i).ok_or_else(|| {
            StoreError::Corrupt("NC_CHAR variables cannot be read as real arrays".into())
        })?;
        out.push(x);
    }
    Ok(ScalarBuf::F64(out))
}

/// A chunk source reading one NetCDF variable through an
/// open-per-request factory (so a retried request never sees partial
/// reader state).
pub struct NcChunkSource<S, F> {
    open: F,
    /// The variable's name, shared with each hyperslab span's note.
    var: Arc<str>,
    base: Vec<u64>,
    _source: PhantomData<fn() -> S>,
}

impl<S, F> NcChunkSource<S, F>
where
    S: IoSource,
    F: FnMut() -> Result<S, NcError>,
{
    /// A source for variable `var`, with chunk coordinates offset by
    /// `base` (the lower bound of the bound subslab).
    pub fn new(open: F, var: impl Into<String>, base: Vec<u64>) -> NcChunkSource<S, F> {
        NcChunkSource { open, var: var.into().into(), base, _source: PhantomData }
    }
}

impl<S, F> ChunkSource for NcChunkSource<S, F>
where
    S: IoSource,
    F: FnMut() -> Result<S, NcError>,
{
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        if start.len() != self.base.len() {
            return Err(StoreError::Shape(format!(
                "chunk rank {} does not match variable rank {}",
                start.len(),
                self.base.len()
            )));
        }
        let abs: Vec<u64> = start.iter().zip(&self.base).map(|(&s, &b)| s + b).collect();
        let _span = aql_trace::span("netcdf.hyperslab");
        emit(Event::NetcdfHyperslab);
        aql_trace::note("var", aql_trace::Note::Shared(Arc::clone(&self.var)));
        let vals = (self.open)()
            .and_then(SlabReader::from_source)
            .and_then(|mut reader| reader.read_slab(&self.var, &abs, count))
            .map_err(nc_to_store)?;
        values_to_buf(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    use aql_store::{FaultClass, ResiliencePolicy, ResilientSource};

    use crate::format::{NcType, VERSION_CLASSIC};
    use crate::model::NcFile;
    use crate::write::to_bytes;

    fn sample_bytes() -> Vec<u8> {
        let mut f = NcFile::new();
        let t = f.add_dim("t", 3);
        let x = f.add_dim("x", 4);
        f.add_var(
            "v",
            vec![t, x],
            NcType::Int,
            vec![],
            NcValues::Int((0..12).collect()),
        )
        .unwrap();
        to_bytes(&f, VERSION_CLASSIC).unwrap()
    }

    #[test]
    fn chunks_read_in_base_offset_coordinates() {
        let bytes = sample_bytes();
        // Bind the subslab with lower bound (1, 1): chunk coordinate
        // (0, 0) must read absolute element (1, 1) = 5.
        let mut src = NcChunkSource::new(
            move || Ok(std::io::Cursor::new(bytes.clone())),
            "v",
            vec![1, 1],
        );
        let buf = src.read_chunk(&[0, 0], &[2, 2]).unwrap();
        assert_eq!(buf, ScalarBuf::F64(vec![5.0, 6.0, 9.0, 10.0]));
    }

    /// A source whose first `flaky` opens meet a transient fault,
    /// counting opens.
    fn flaky_source(
        flaky: u32,
        opens: Rc<Cell<u32>>,
    ) -> impl ChunkSource {
        let bytes = sample_bytes();
        NcChunkSource::new(
            move || {
                opens.set(opens.get() + 1);
                if opens.get() <= flaky {
                    let flapped = std::io::Error::new(std::io::ErrorKind::TimedOut, "injected");
                    return Err(flapped.into());
                }
                Ok(std::io::Cursor::new(bytes.clone()))
            },
            "v",
            vec![0, 0],
        )
    }

    #[test]
    fn a_request_is_one_open_and_the_store_is_what_retries() {
        // Bare, the source reads once and hands the fault up …
        let opens = Rc::new(Cell::new(0));
        let mut bare = flaky_source(1, Rc::clone(&opens));
        let fault = bare.read_chunk(&[2, 0], &[1, 4]).unwrap_err();
        assert_eq!(fault.class(), FaultClass::Retryable);
        assert_eq!(opens.get(), 1);
        // … wrapped the way every reader binds it, one fault then a
        // clean source heals inside one `read_chunk`.
        let opens = Rc::new(Cell::new(0));
        let mut src = ResilientSource::new(
            flaky_source(1, Rc::clone(&opens)),
            "netcdf:v",
            ResiliencePolicy::default(),
        );
        aql_journal::attr::begin();
        let buf = src.read_chunk(&[2, 0], &[1, 4]).unwrap();
        let row = aql_journal::attr::finish();
        assert_eq!(buf, ScalarBuf::F64(vec![8.0, 9.0, 10.0, 11.0]));
        assert_eq!((opens.get(), row.sources[0].1.retries), (2, 1));
    }

    #[test]
    fn a_source_that_keeps_failing_is_opened_once_per_attempt() {
        // `attempts: 3` is three opens, and every failed read is one
        // retry event or the final error; a second call spends its own
        // three. (A retry loop in this crate, under the store's, would
        // multiply both.)
        let opens = Rc::new(Cell::new(0));
        let mut src = ResilientSource::new(
            flaky_source(u32::MAX, Rc::clone(&opens)),
            "netcdf:v",
            ResiliencePolicy::default(),
        );
        aql_journal::attr::begin();
        let err = src.read_chunk(&[0, 0], &[1, 4]).unwrap_err();
        let row = aql_journal::attr::finish();
        assert!(matches!(err, StoreError::Io { transient: true, .. }), "{err}");
        assert_eq!(opens.get(), 3);
        assert_eq!(row.sources[0].1.retries, 2);
        assert_eq!(row.hyperslab_requests, 3, "one request an attempt");
        assert!(src.read_chunk(&[0, 0], &[1, 4]).is_err());
        assert_eq!(opens.get(), 6, "each call spends its own attempts");
    }

    #[test]
    fn missing_variable_is_shape_error() {
        let bytes = sample_bytes();
        let mut src = NcChunkSource::new(
            move || Ok(std::io::Cursor::new(bytes.clone())),
            "nope",
            vec![0, 0],
        );
        assert!(matches!(src.read_chunk(&[0, 0], &[1, 1]), Err(StoreError::Shape(_))));
    }
}
