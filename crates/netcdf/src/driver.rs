//! AQL data drivers for NetCDF (§4.1).
//!
//! The paper registers "a series of readers for inputting arrays of
//! various dimensions": `NETCDF3` "takes a file name, a variable name,
//! a triple giving a lower bound index, and a triple giving an upper
//! bound index, and returns the subslab of the given variable bounded
//! by the given indices". [`register_netcdf`] registers `NETCDF1`
//! through `NETCDF4` (k = 1…4) plus a metadata reader `NETCDFINFO`.
//!
//! Following the paper's own future-work note about avoiding the byte
//! stream, these drivers deposit values *directly* as complex objects
//! (no textual exchange step). Numeric external types are widened to
//! `real`.
//!
//! Nothing below the chunk source retries. A bound array's chunk reads
//! go through the `aql-store` resilience stack ([`ResilientSource`]:
//! the one retry loop, interruptible backoff, the breaker); the one
//! header read a bind makes is tried again on the same [`RetryPolicy`].
//! An I/O or corruption failure met while binding is the same typed
//! storage error a subscript would report for it.

use std::rc::Rc;

use aql_core::types::Type;
use aql_core::value::{ArrayVal, Value};
use aql_lang::errors::LangError;
use aql_lang::reader::Reader;
use aql_lang::session::Session;

use aql_store::{
    ChunkFaultPlan, ChunkLayout, ChunkSource, FaultyChunkSource, LazyArray, ResiliencePolicy,
    ResilientSource, RetryPolicy, ScalarKind, StoreError,
};

use crate::chunk::{nc_to_store, NcChunkSource};
use crate::model::NcError;
use crate::read::SlabReader;

/// A substrate failure met while binding, classified as a chunk read
/// classifies it: an I/O or corruption error keeps its storage type (the
/// statement fails as it would had a subscript met it); anything else
/// says the request and the file disagree.
fn bind_err(who: &str, e: NcError) -> LangError {
    match nc_to_store(e) {
        StoreError::Shape(message) => LangError::session(format!("{who}: {message}")),
        storage => storage.into(),
    }
}

/// Open `file` and parse its header for a bind-time check. A transient
/// I/O error is tried again on `retry`'s schedule, sleeping
/// interruptibly (un-jittered: one bind is no herd); `None` — a reader
/// bound raw — makes one attempt.
fn open_header(
    who: &str,
    file: &str,
    retry: Option<&RetryPolicy>,
) -> Result<SlabReader<std::io::BufReader<std::fs::File>>, LangError> {
    let mut attempt = 1;
    loop {
        match (SlabReader::open(file), retry) {
            (Err(e), Some(retry)) if e.is_transient() && attempt < retry.attempts => {
                attempt += 1;
                aql_store::interrupt::sleep(retry.backoff(attempt, 0.5))?;
            }
            (opened, _) => return opened.map_err(|e| bind_err(who, e)),
        }
    }
}

/// Target chunk size for lazily bound variables, in elements: 4096
/// doubles = 32 KiB per chunk, small enough that a point probe reads
/// a tiny fraction of a large variable, large enough to amortize the
/// per-read header parse.
pub const DEFAULT_CHUNK_ELEMS: u64 = 4096;

/// Default per-array chunk-cache budget: 4 MiB.
pub const DEFAULT_CACHE_BUDGET: u64 = 4 << 20;

/// A `NETCDFk` reader: binds a k-dimensional subslab as `[[real]]_k`.
///
/// The reader validates the request against the file header, then
/// binds a chunked [`LazyArray`] whose cache misses re-open the file
/// and read one chunk-sized hyperslab — so only the chunks a query
/// touches ever leave disk. (Materializing the whole subslab is
/// [`SlabReader::read_slab`] over the same box.)
///
/// The chunk source is wrapped in the `aql-store`
/// resilience stack by default ([`ResilientSource`]: retry with
/// jittered backoff, a per-source circuit breaker labelled
/// `netcdf:{variable}`, checksum verification when available); set
/// [`resilience`](NetcdfSlabReader::resilience) to `None` to bind the
/// raw source. The [`chaos`](NetcdfSlabReader::chaos) plan — injected
/// *inside* the resilience wrapper — exists for the chaos harness and
/// fault-tolerance tests; production readers leave it `None`.
pub struct NetcdfSlabReader {
    /// The dimensionality this reader serves.
    pub k: usize,
    /// Chunk-cache byte budget of the bound array.
    pub cache_budget: u64,
    /// Resilience stack around the chunk source; `None` binds raw.
    pub resilience: Option<ResiliencePolicy>,
    /// Chunk-level fault injection between the resilience stack and
    /// the real source (tests only).
    pub chaos: Option<ChunkFaultPlan>,
}

impl NetcdfSlabReader {
    /// A lazily binding reader for dimensionality `k` with the
    /// default cache budget.
    pub fn lazy(k: usize) -> NetcdfSlabReader {
        NetcdfSlabReader {
            k,
            cache_budget: DEFAULT_CACHE_BUDGET,
            resilience: Some(ResiliencePolicy::default()),
            chaos: None,
        }
    }

    fn parse_bound(v: &Value, k: usize, which: &str) -> Result<Vec<u64>, LangError> {
        let idx = v
            .as_index()
            .map_err(|e| LangError::session(format!("NETCDF{k}: bad {which} bound: {e}")))?;
        if idx.len() != k {
            return Err(LangError::session(format!(
                "NETCDF{k}: {which} bound must have {k} component(s), got {}",
                idx.len()
            )));
        }
        Ok(idx)
    }
}

impl Reader for NetcdfSlabReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let k = self.k;
        let items = arg
            .as_tuple()
            .map_err(|_| LangError::session(format!(
                "NETCDF{k} expects (file, variable, lower, upper)"
            )))?;
        if items.len() != 4 {
            return Err(LangError::session(format!(
                "NETCDF{k} expects (file, variable, lower, upper), got a {}-tuple",
                items.len()
            )));
        }
        let file = match &items[0] {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(LangError::session(format!(
                    "NETCDF{k}: file name must be a string, got {other}"
                )))
            }
        };
        let varname = match &items[1] {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(LangError::session(format!(
                    "NETCDF{k}: variable name must be a string, got {other}"
                )))
            }
        };
        let lo = Self::parse_bound(&items[2], k, "lower")?;
        let hi = Self::parse_bound(&items[3], k, "upper")?;
        for j in 0..k {
            if hi[j] < lo[j] {
                return Err(LangError::session(format!(
                    "NETCDF{k}: dimension {j}: upper bound {} below lower bound {}",
                    hi[j], lo[j]
                )));
            }
        }

        // Validate the binding against the header up front, so a bad
        // file / variable / bound fails at `readval` time (a lazy
        // array must not defer *request* errors to first touch).
        let who = format!("NETCDF{k}");
        let sess_err = |e: NcError| bind_err(&who, e);
        let retry = self.resilience.as_ref().map(|policy| &policy.retry);
        let reader = open_header(&who, &file, retry)?;
        let meta = reader.header.find(&varname).map_err(sess_err)?;
        if meta.var.ty == crate::format::NcType::Char {
            return Err(LangError::session(format!(
                "NETCDF{k}: NC_CHAR variables cannot be read as real arrays"
            )));
        }
        let shape = reader.header.shape(&meta.var).map_err(sess_err)?;
        if shape.len() != k {
            return Err(LangError::session(format!(
                "NETCDF{k}: variable `{varname}` has {} dimension(s)",
                shape.len()
            )));
        }
        for j in 0..k {
            if hi[j] >= shape[j] {
                return Err(LangError::session(format!(
                    "NETCDF{k}: dimension {j}: upper bound {} outside extent {}",
                    hi[j], shape[j]
                )));
            }
        }
        drop(reader);

        // Bounds are inclusive, as in the paper's sample session; with
        // `lo ≤ hi < extent` checked above the count cannot overflow.
        let count: Vec<u64> = (0..k).map(|j| hi[j] - lo[j] + 1).collect();
        let layout = ChunkLayout::row_major(count, DEFAULT_CHUNK_ELEMS)
            .map_err(|e| LangError::session(format!("NETCDF{k}: {e}")))?;
        let label = format!("netcdf:{varname}");
        let mut source: Box<dyn ChunkSource> = Box::new(NcChunkSource::new(
            move || {
                Ok(std::io::BufReader::new(std::fs::File::open(&file).map_err(NcError::from)?))
            },
            varname,
            lo,
        ));
        // Chaos injection sits *inside* the resilience stack, so the
        // stack is what the injected faults exercise.
        if let Some(plan) = self.chaos.clone() {
            source = Box::new(FaultyChunkSource::new(source, plan));
        }
        if let Some(policy) = self.resilience.clone() {
            source = Box::new(ResilientSource::new(source, label.clone(), policy));
        }
        let lazy =
            LazyArray::labeled(layout, ScalarKind::F64, source, self.cache_budget, label);
        let arr = ArrayVal::lazy(lazy)?;
        Ok((Value::Array(Rc::new(arr)), Some(Type::array(Type::Real, k))))
    }
}

/// A metadata reader: `readval \info using NETCDFINFO at "file.nc"`
/// yields `{(variable-name, [[dim-lengths]])}`.
pub struct NetcdfInfoReader;

impl Reader for NetcdfInfoReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let file = match arg {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(LangError::session(format!(
                    "NETCDFINFO: file name must be a string, got {other}"
                )))
            }
        };
        let reader = open_header("NETCDFINFO", &file, Some(&RetryPolicy::default()))?;
        let mut rows = Vec::new();
        for m in &reader.header.vars {
            let shape = reader.header.shape(&m.var).map_err(|e| bind_err("NETCDFINFO", e))?;
            let dims = Value::array1(shape.into_iter().map(Value::Nat).collect());
            rows.push(Value::tuple(vec![Value::str(&m.var.name), dims]));
        }
        let ty = Type::set(Type::tuple(vec![Type::Str, Type::array1(Type::Nat)]));
        Ok((Value::set(rows), Some(ty)))
    }
}

/// A writer: `writeval A using NETCDF at ("file.nc", "varname")`
/// serialises a `[[real]]_k` array as a NetCDF classic dataset with
/// one double variable (dimensions `dim0`, `dim1`, …). Together with
/// the `NETCDFk` readers this closes the I/O loop the paper's
/// `writeval` command sketches.
pub struct NetcdfArrayWriter;

impl aql_lang::reader::Writer for NetcdfArrayWriter {
    fn write(&self, arg: &Value, data: &Value) -> Result<(), LangError> {
        let items = arg
            .as_tuple()
            .map_err(|_| LangError::session("NETCDF writer expects (file, variable)"))?;
        if items.len() != 2 {
            return Err(LangError::session(format!(
                "NETCDF writer expects (file, variable), got a {}-tuple",
                items.len()
            )));
        }
        let (file, varname) = match (&items[0], &items[1]) {
            (Value::Str(f), Value::Str(v)) => (f.to_string(), v.to_string()),
            _ => {
                return Err(LangError::session(
                    "NETCDF writer: file and variable names must be strings",
                ))
            }
        };
        let arr = data
            .as_array()
            .map_err(|_| LangError::session("NETCDF writer: the value must be an array"))?;
        let mut doubles = Vec::with_capacity(arr.len());
        for v in arr.data().iter() {
            let x = match v {
                Value::Real(r) => *r,
                Value::Nat(n) => *n as f64,
                other => {
                    return Err(LangError::session(format!(
                        "NETCDF writer: elements must be numeric, got {other}"
                    )))
                }
            };
            doubles.push(x);
        }
        let mut f = crate::model::NcFile::new();
        let dimids: Vec<usize> = arr
            .dims()
            .iter()
            .enumerate()
            .map(|(i, &d)| f.add_dim(&format!("dim{i}"), d as u32))
            .collect();
        f.add_var(
            &varname,
            dimids,
            crate::format::NcType::Double,
            vec![crate::model::NcAttr::text("source", "aql writeval")],
            crate::model::NcValues::Double(doubles),
        )
        .map_err(|e| LangError::session(format!("NETCDF writer: {e}")))?;
        crate::write::write_file(&f, &file, crate::format::VERSION_CLASSIC)
            .map_err(|e| LangError::session(format!("NETCDF writer: {e}")))
    }
}

/// Register the NetCDF drivers on a session: readers `NETCDF1` …
/// `NETCDF4` and `NETCDFINFO`, and the writer `NETCDF`.
pub fn register_netcdf(session: &mut Session) {
    for k in 1..=4usize {
        session.register_reader(&format!("NETCDF{k}"), Rc::new(NetcdfSlabReader::lazy(k)));
    }
    session.register_reader("NETCDFINFO", Rc::new(NetcdfInfoReader));
    session.register_writer("NETCDF", Rc::new(NetcdfArrayWriter));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{NcType, VERSION_CLASSIC};
    use crate::model::{NcFile, NcValues};
    use crate::write::write_file;

    fn write_sample(path: &std::path::Path) {
        let mut f = NcFile::new();
        let t = f.add_dim("time", 4);
        let x = f.add_dim("x", 3);
        f.add_var(
            "temp",
            vec![t, x],
            NcType::Float,
            vec![],
            NcValues::Float((0..12).map(|i| i as f32).collect()),
        )
        .unwrap();
        write_file(&f, path, VERSION_CLASSIC).unwrap();
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "aql-ncdriver-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn netcdf2_reads_inclusive_subslab() {
        let dir = tmpdir();
        let path = dir.join("t.nc");
        write_sample(&path);

        let arg = Value::tuple(vec![
            Value::str(path.to_str().unwrap()),
            Value::str("temp"),
            Value::tuple(vec![Value::Nat(1), Value::Nat(0)]),
            Value::tuple(vec![Value::Nat(2), Value::Nat(1)]),
        ]);
        let (v, ty) = NetcdfSlabReader::lazy(2).read(&arg).unwrap();
        assert_eq!(ty, Some(Type::array(Type::Real, 2)));
        let a = v.as_array().unwrap();
        assert!(a.is_lazy());
        assert_eq!(a.dims(), &[2, 2]);
        // The materialized reference: one `read_slab` of the same box.
        let mut file = SlabReader::open(&path).unwrap();
        let whole = file.read_slab("temp", &[1, 0], &[2, 2]).unwrap();
        assert_eq!(whole, NcValues::Float(vec![3.0, 4.0, 6.0, 7.0]));
        for (off, idx) in [[0, 0], [0, 1], [1, 0], [1, 1]].iter().enumerate() {
            assert_eq!(a.get(idx).unwrap(), Value::Real(whole.get_f64(off).unwrap()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bound_validation() {
        let dir = tmpdir();
        let path = dir.join("t.nc");
        write_sample(&path);
        let r = NetcdfSlabReader::lazy(2);
        // Upper below lower.
        let arg = Value::tuple(vec![
            Value::str(path.to_str().unwrap()),
            Value::str("temp"),
            Value::tuple(vec![Value::Nat(2), Value::Nat(0)]),
            Value::tuple(vec![Value::Nat(1), Value::Nat(1)]),
        ]);
        assert!(r.read(&arg).is_err());
        // Wrong arity bound.
        let arg = Value::tuple(vec![
            Value::str(path.to_str().unwrap()),
            Value::str("temp"),
            Value::Nat(0),
            Value::Nat(1),
        ]);
        assert!(r.read(&arg).is_err());
        // Upper bound u64::MAX: `hi - lo + 1` overflowed before the
        // extent check — a typed error, and the session stays usable.
        let p = path.to_str().unwrap();
        let mut s = Session::new();
        register_netcdf(&mut s);
        let err = s
            .run(&format!(
                "readval \\T using NETCDF2 at (\"{p}\", \"temp\", (0, 0), (18446744073709551615, 2));"
            ))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("NETCDF2: dimension 0: upper bound 18446744073709551615 outside extent 4"),
            "{err}"
        );
        assert_eq!(s.eval_query("1 + 1").unwrap().1, Value::Nat(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reader_lists_variables() {
        let dir = tmpdir();
        let path = dir.join("t.nc");
        write_sample(&path);
        let (v, _) = NetcdfInfoReader
            .read(&Value::str(path.to_str().unwrap()))
            .unwrap();
        let s = v.as_set().unwrap();
        assert_eq!(s.len(), 1);
        let row = s.iter().next().unwrap().as_tuple().unwrap();
        assert_eq!(row[0], Value::str("temp"));
        assert_eq!(
            row[1],
            Value::array1(vec![Value::Nat(4), Value::Nat(3)])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_roundtrips_through_reader() {
        let dir = tmpdir();
        let path = dir.join("w.nc");
        let p = path.to_str().unwrap();
        let mut s = Session::new();
        register_netcdf(&mut s);
        // Write a computed 2-d array, read it back, compare host-side.
        s.run(&format!(
            "val \\M = [[ (i * 10 + j) | \\i < 3, \\j < 4 ]];
             writeval M using NETCDF at (\"{p}\", \"grid\");
             readval \\Back using NETCDF2 at (\"{p}\", \"grid\", (0, 0), (2, 3));"
        ))
        .unwrap();
        let back = s.val("Back").expect("Back bound").clone();
        let arr = back.as_array().unwrap();
        assert_eq!(arr.dims(), &[3, 4]);
        for i in 0..3u64 {
            for j in 0..4u64 {
                assert_eq!(
                    arr.get(&[i, j]).unwrap(),
                    Value::Real((i * 10 + j) as f64),
                    "at ({i}, {j})"
                );
            }
        }
        // Info reflects the written shape.
        s.run(&format!("readval \\info using NETCDFINFO at \"{p}\";"))
            .unwrap();
        let (_, dims) = s.eval_query("get!{d | (\"grid\", \\d) <- info}").unwrap();
        assert_eq!(dims, Value::array1(vec![Value::Nat(3), Value::Nat(4)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_bad_input() {
        let w = NetcdfArrayWriter;
        use aql_lang::reader::Writer as _;
        assert!(w.write(&Value::Nat(1), &Value::Nat(2)).is_err());
        let arg = Value::tuple(vec![Value::str("/tmp/x.nc"), Value::str("v")]);
        assert!(w.write(&arg, &Value::Nat(2)).is_err(), "not an array");
        let strings = Value::array1(vec![Value::str("a")]);
        assert!(w.write(&arg, &strings).is_err(), "non-numeric elements");
    }

    #[test]
    fn a_retry_is_journaled_once_under_the_variables_label() {
        use crate::io::{FaultPlan, FaultyIo};
        use crate::write::to_bytes;
        let mut f = NcFile::new();
        let x = f.add_dim("x", 4);
        f.add_var("v", vec![x], NcType::Int, vec![], NcValues::Int(vec![1, 2, 3, 4])).unwrap();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();

        // The first open hits an injected transient error; the stack
        // the reader binds retries, reopening a clean source.
        let mut opens = 0;
        let nc = NcChunkSource::new(
            move || {
                opens += 1;
                let plan =
                    if opens == 1 { FaultPlan::new().transient_at(0) } else { FaultPlan::new() };
                Ok(FaultyIo::new(std::io::Cursor::new(bytes.clone()), plan))
            },
            "v",
            vec![1],
        );
        let label = "netcdf:t_driver_retry";
        let mut src = ResilientSource::new(nc, label, ResiliencePolicy::default());
        let vals = src.read_chunk(&[0], &[2]).unwrap();
        assert_eq!(vals, aql_store::ScalarBuf::F64(vec![2.0, 3.0]));

        // One retry, one record: `\doctor`'s timeline and the ledger
        // count what happened, once.
        let mine: Vec<_> = aql_journal::snapshot()
            .events
            .into_iter()
            .filter(|e| e.tag == aql_journal::Tag::Retry && e.label_str() == label)
            .collect();
        assert_eq!(mine.iter().map(|e| e.a).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn a_persistent_fault_is_one_read_with_its_context_kept() {
        use crate::io::{FaultPlan, FaultyIo};
        use crate::write::to_bytes;
        let mut f = NcFile::new();
        let x = f.add_dim("x", 2);
        f.add_var("v", vec![x], NcType::Int, vec![], NcValues::Int(vec![7, 8])).unwrap();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();

        let opens = Rc::new(std::cell::Cell::new(0u32));
        let counted = Rc::clone(&opens);
        let nc = NcChunkSource::new(
            move || {
                counted.set(counted.get() + 1);
                let dead = FaultPlan::new().persistent_from(0);
                Ok(FaultyIo::new(std::io::Cursor::new(bytes.clone()), dead))
            },
            "v",
            vec![0],
        );
        let mut src = ResilientSource::new(nc, "netcdf:v", ResiliencePolicy::default());
        let err = src.read_chunk(&[0], &[2]).unwrap_err();
        assert_eq!(opens.get(), 1, "a non-transient failure is not retried at all");
        assert_eq!(err.class(), aql_store::FaultClass::Fatal);
        assert!(err.to_string().contains("injected persistent"), "context kept: {err}");
    }

    #[test]
    fn a_bind_time_io_failure_is_the_typed_storage_error() {
        use aql_core::error::EvalError;
        use aql_store::StoreError;
        let arg = Value::tuple(vec![
            Value::str("/nonexistent/aql-ncdriver.nc"),
            Value::str("temp"),
            Value::tuple(vec![Value::Nat(0), Value::Nat(0)]),
            Value::tuple(vec![Value::Nat(1), Value::Nat(1)]),
        ]);
        for err in [
            NetcdfSlabReader::lazy(2).read(&arg).unwrap_err(),
            NetcdfInfoReader.read(&Value::str("/nonexistent/aql-ncdriver.nc")).unwrap_err(),
        ] {
            assert!(
                matches!(
                    &err,
                    LangError::Eval(EvalError::Storage(e))
                        if matches!(**e, StoreError::Io { transient: false, .. })
                ),
                "{err:?}"
            );
            assert_eq!(err.class(), aql_journal::ErrorClass::Unavailable);
        }
    }

    #[test]
    fn chaos_faults_are_absorbed_by_resilience() {
        let dir = tmpdir();
        let path = dir.join("c.nc");
        write_sample(&path);
        let mut r = NetcdfSlabReader::lazy(2);
        // Op 0 fails transiently, op 1 serves corrupted bytes; the
        // resilience stack retries through both (checksum verification
        // catches the corruption) and op 2 serves clean data.
        r.chaos = Some(ChunkFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            corrupt_ops: [1u64].into_iter().collect(),
            ..ChunkFaultPlan::default()
        });
        let arg = Value::tuple(vec![
            Value::str(path.to_str().unwrap()),
            Value::str("temp"),
            Value::tuple(vec![Value::Nat(0), Value::Nat(0)]),
            Value::tuple(vec![Value::Nat(3), Value::Nat(2)]),
        ]);
        let (v, _) = r.read(&arg).unwrap();
        let a = v.as_array().unwrap();
        assert!(a.is_lazy());
        for i in 0..4u64 {
            for j in 0..3u64 {
                assert_eq!(
                    a.get(&[i, j]).unwrap(),
                    Value::Real((i * 3 + j) as f64),
                    "clean value served at ({i}, {j}) despite injected faults"
                );
            }
        }
        // Same faults with the resilience stack stripped: the first
        // touch surfaces the raw injected error instead.
        let mut raw = NetcdfSlabReader::lazy(2);
        raw.resilience = None;
        raw.chaos = Some(ChunkFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            ..ChunkFaultPlan::default()
        });
        let (v, _) = raw.read(&arg).unwrap();
        let a = v.as_array().unwrap();
        assert!(a.try_get(&[0, 0]).is_err(), "no retry without the stack");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_integration() {
        let dir = tmpdir();
        let path = dir.join("t.nc");
        write_sample(&path);

        let mut s = Session::new();
        register_netcdf(&mut s);
        let p = path.to_str().unwrap();
        s.run(&format!(
            "readval \\T using NETCDF2 at (\"{p}\", \"temp\", (0, 0), (3, 2));"
        ))
        .unwrap();
        let (_, v) = s.eval_query("T[2, 1]").unwrap();
        assert_eq!(v, Value::Real(7.0));
        // Subslabs compose with AQL macros.
        let (_, v) = s.eval_query("len!(proj_col!(T, 0))").unwrap();
        assert_eq!(v, Value::Nat(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
