//! Parser and hyperslab reader for the NetCDF classic format.
//!
//! [`read_header`] parses the header (dimensions, attributes, variable
//! metadata with data offsets). [`SlabReader`] then serves *subslab*
//! (hyperslab) requests — `start`/`count` vectors per dimension —
//! reading only the bytes that contribute to the result, which is
//! exactly what the paper's `NETCDF3` reader does when it extracts a
//! bounded region of a variable (§4.1–4.2).
//!
//! The parser treats its input as untrusted: every declared count,
//! string length, and data offset is validated against the actual
//! source length *before* any allocation, all offset arithmetic is
//! checked, and contradictions surface as [`NcError::Corrupt`] with
//! the byte offset at which they were detected. A corrupt header can
//! therefore never trigger a panic or an allocation larger than the
//! source itself.

use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::Path;

use crate::format::{NcType, MAGIC, NC_ATTRIBUTE, NC_DIMENSION, NC_VARIABLE, VERSION_64BIT, VERSION_CLASSIC};
use crate::io::IoSource;
use crate::model::{NcAttr, NcDim, NcError, NcFile, NcValues, NcVar};

/// Conservative minimum encoded sizes (bytes) of one list entry, used
/// to reject absurd declared counts before reserving memory: a
/// dimension is at least a name length and a length word; an attribute
/// adds a type and value count; a variable adds dimids, an attribute
/// list header, type, vsize, and begin.
const MIN_DIM_BYTES: u64 = 8;
const MIN_ATTR_BYTES: u64 = 12;
const MIN_VAR_BYTES: u64 = 28;

/// Variable metadata with its on-disk layout.
#[derive(Debug, Clone)]
pub struct VarMeta {
    /// The variable.
    pub var: NcVar,
    /// Stored `vsize` (padded byte size of the variable / one record).
    pub vsize: u64,
    /// Byte offset of the variable's data.
    pub begin: u64,
}

/// A parsed header.
#[derive(Debug, Clone)]
pub struct Header {
    /// Format version byte (1 or 2).
    pub version: u8,
    /// Number of records.
    pub numrecs: u32,
    /// Dimensions.
    pub dims: Vec<NcDim>,
    /// Global attributes.
    pub gattrs: Vec<NcAttr>,
    /// Variables with layout info.
    pub vars: Vec<VarMeta>,
}

impl Header {
    /// Resolved shape of a variable (record dim → numrecs).
    pub fn shape(&self, var: &NcVar) -> Result<Vec<u64>, NcError> {
        var.dimids
            .iter()
            .map(|&d| {
                let dim = self
                    .dims
                    .get(d)
                    .ok_or_else(|| NcError::Format(format!("bad dimid {d}")))?;
                Ok(if dim.is_record() { self.numrecs as u64 } else { dim.len as u64 })
            })
            .collect()
    }

    /// Is the variable a record variable?
    pub fn is_record_var(&self, var: &NcVar) -> bool {
        var.dimids
            .first()
            .and_then(|&d| self.dims.get(d))
            .is_some_and(NcDim::is_record)
    }

    /// Find a variable by name.
    pub fn find(&self, name: &str) -> Result<&VarMeta, NcError> {
        self.vars
            .iter()
            .find(|m| m.var.name == name)
            .ok_or_else(|| NcError::NotFound(format!("variable `{name}`")))
    }

    /// Byte distance between consecutive records (per spec: the sum of
    /// the record variables' vsizes, except a *single* record variable
    /// whose records are packed without padding).
    pub fn record_stride(&self) -> u64 {
        let rec: Vec<&VarMeta> = self
            .vars
            .iter()
            .filter(|m| self.is_record_var(&m.var))
            .collect();
        match rec.len() {
            0 => 0,
            1 => {
                let m = rec[0];
                let per: u64 = self
                    .shape(&m.var)
                    .map(|s| s.iter().skip(1).product::<u64>())
                    .unwrap_or(0);
                per * m.var.ty.size()
            }
            _ => rec.iter().map(|m| m.vsize).sum(),
        }
    }
}

struct Cur<'a, R: Read + Seek> {
    r: &'a mut R,
    pos: u64,
    /// Total source length; `pos <= len` is an invariant maintained by
    /// [`Cur::bytes`], which refuses (without allocating) any read the
    /// source cannot satisfy.
    len: u64,
}

impl<'a, R: Read + Seek> Cur<'a, R> {
    fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, NcError> {
        let end = self.pos.checked_add(n as u64).ok_or_else(|| {
            NcError::corrupt(self.pos, format!("read of {n} byte(s) overflows the byte offset"))
        })?;
        if end > self.len {
            return Err(NcError::corrupt(
                self.pos,
                format!(
                    "header declares {n} more byte(s) but only {} remain (source is {} bytes)",
                    self.remaining(),
                    self.len
                ),
            ));
        }
        let mut buf = vec![0u8; n];
        self.r.read_exact(&mut buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                NcError::corrupt(self.pos, format!("unexpected end of data: {e}"))
            } else {
                NcError::from(e)
            }
        })?;
        self.pos = end;
        Ok(buf)
    }

    fn u32(&mut self) -> Result<u32, NcError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, NcError> {
        let b = self.bytes(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a list count and reject it if even minimally-sized entries
    /// could not fit in the remaining bytes — this is what stops a
    /// corrupt header from provoking a multi-gigabyte
    /// `Vec::with_capacity`.
    fn count(&mut self, what: &str, min_entry_bytes: u64) -> Result<usize, NcError> {
        let at = self.pos;
        let n = self.u32()? as u64;
        if n.checked_mul(min_entry_bytes).is_none_or(|need| need > self.remaining()) {
            return Err(NcError::corrupt(
                at,
                format!(
                    "declared {n} {what} entr{} but only {} byte(s) remain",
                    if n == 1 { "y" } else { "ies" },
                    self.remaining()
                ),
            ));
        }
        Ok(n as usize)
    }

    fn name(&mut self) -> Result<String, NcError> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        let padding = (4 - n % 4) % 4;
        self.bytes(padding)?;
        String::from_utf8(raw)
            .map_err(|_| NcError::corrupt(self.pos, "non-UTF-8 name".to_string()))
    }

    fn values(&mut self, ty: NcType, n: usize) -> Result<NcValues, NcError> {
        let at = self.pos;
        let byte_len = (n as u64).checked_mul(ty.size()).ok_or_else(|| {
            NcError::corrupt(at, format!("value count {n} overflows the byte length"))
        })?;
        let byte_len = usize::try_from(byte_len).map_err(|_| {
            NcError::corrupt(at, format!("value byte length {byte_len} exceeds address space"))
        })?;
        let raw = self.bytes(byte_len)?;
        let padding = (4 - byte_len % 4) % 4;
        self.bytes(padding)?;
        Ok(decode(ty, &raw, n))
    }

    fn attr_list(&mut self) -> Result<Vec<NcAttr>, NcError> {
        let tag_at = self.pos;
        let tag = self.u32()?;
        let n = self.count("attribute", MIN_ATTR_BYTES)?;
        if tag == 0 && n == 0 {
            return Ok(Vec::new());
        }
        if tag != NC_ATTRIBUTE {
            return Err(NcError::corrupt(
                tag_at,
                format!("expected attribute tag, got {tag:#x}"),
            ));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.name()?;
            let code_at = self.pos;
            let code = self.u32()?;
            let ty = NcType::from_code(code)
                .ok_or_else(|| NcError::corrupt(code_at, format!("bad nc_type {code}")))?;
            let count = self.count("attribute value", ty.size().max(1))?;
            let values = self.values(ty, count)?;
            out.push(NcAttr { name, values });
        }
        Ok(out)
    }
}

/// Decode `n` big-endian values of type `ty` from `raw`.
pub fn decode(ty: NcType, raw: &[u8], n: usize) -> NcValues {
    match ty {
        NcType::Byte => NcValues::Byte(raw[..n].iter().map(|&b| b as i8).collect()),
        NcType::Char => NcValues::Char(raw[..n].to_vec()),
        NcType::Short => NcValues::Short(
            (0..n)
                .map(|i| i16::from_be_bytes([raw[2 * i], raw[2 * i + 1]]))
                .collect(),
        ),
        NcType::Int => NcValues::Int(
            (0..n)
                .map(|i| {
                    i32::from_be_bytes([raw[4 * i], raw[4 * i + 1], raw[4 * i + 2], raw[4 * i + 3]])
                })
                .collect(),
        ),
        NcType::Float => NcValues::Float(
            (0..n)
                .map(|i| {
                    f32::from_be_bytes([raw[4 * i], raw[4 * i + 1], raw[4 * i + 2], raw[4 * i + 3]])
                })
                .collect(),
        ),
        NcType::Double => NcValues::Double(
            (0..n)
                .map(|i| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&raw[8 * i..8 * i + 8]);
                    f64::from_be_bytes(b)
                })
                .collect(),
        ),
    }
}

/// Parse the header from the start of `r`. The source length (learned
/// by seeking) bounds every declared count and offset; see the module
/// docs for the hardening contract.
pub fn read_header<R: Read + Seek>(r: &mut R) -> Result<Header, NcError> {
    let len = r.seek(SeekFrom::End(0))?;
    r.seek(SeekFrom::Start(0))?;
    let mut c = Cur { r, pos: 0, len };
    let magic = c.bytes(4)?;
    if &magic[0..3] != MAGIC {
        return Err(NcError::Format("not a NetCDF classic file (bad magic)".into()));
    }
    let version = magic[3];
    if version != VERSION_CLASSIC && version != VERSION_64BIT {
        return Err(NcError::Format(format!("unsupported NetCDF version {version}")));
    }
    let numrecs = c.u32()?;

    // dim_list
    let tag_at = c.pos;
    let tag = c.u32()?;
    let ndims = c.count("dimension", MIN_DIM_BYTES)?;
    let mut dims = Vec::with_capacity(ndims);
    if !(tag == 0 && ndims == 0) {
        if tag != NC_DIMENSION {
            return Err(NcError::corrupt(tag_at, format!("expected dimension tag, got {tag:#x}")));
        }
        for _ in 0..ndims {
            let name = c.name()?;
            let len = c.u32()?;
            dims.push(NcDim { name, len });
        }
    }

    let gattrs = c.attr_list()?;

    // var_list
    let tag_at = c.pos;
    let tag = c.u32()?;
    let nvars = c.count("variable", MIN_VAR_BYTES)?;
    let mut vars = Vec::with_capacity(nvars);
    if !(tag == 0 && nvars == 0) {
        if tag != NC_VARIABLE {
            return Err(NcError::corrupt(tag_at, format!("expected variable tag, got {tag:#x}")));
        }
        for _ in 0..nvars {
            let name = c.name()?;
            let nd = c.count("dimension id", 4)?;
            let mut dimids = Vec::with_capacity(nd);
            for _ in 0..nd {
                let id_at = c.pos;
                let id = c.u32()? as usize;
                if id >= dims.len() {
                    return Err(NcError::corrupt(
                        id_at,
                        format!(
                            "variable `{name}` references dimension {id} but only {} are declared",
                            dims.len()
                        ),
                    ));
                }
                dimids.push(id);
            }
            let attrs = c.attr_list()?;
            let code_at = c.pos;
            let code = c.u32()?;
            let ty = NcType::from_code(code)
                .ok_or_else(|| NcError::corrupt(code_at, format!("bad nc_type {code}")))?;
            let vsize = c.u32()? as u64;
            let begin_at = c.pos;
            let begin = if version == VERSION_64BIT { c.u64()? } else { c.u32()? as u64 };
            if begin > len {
                return Err(NcError::corrupt(
                    begin_at,
                    format!(
                        "variable `{name}` data offset {begin} is beyond the end of the \
                         {len}-byte source"
                    ),
                ));
            }
            vars.push(VarMeta { var: NcVar { name, dimids, attrs, ty }, vsize, begin });
        }
    }

    Ok(Header { version, numrecs, dims, gattrs, vars })
}

/// A reader serving hyperslab requests against an open dataset.
pub struct SlabReader<R: Read + Seek> {
    src: R,
    /// Total source length, fixed at open time; every data read is
    /// validated against it before any buffer grows.
    src_len: u64,
    /// The parsed header.
    pub header: Header,
}

impl<R: IoSource> SlabReader<R> {
    /// Open a dataset over any [`IoSource`] (a file or a buffer).
    pub fn from_source(mut src: R) -> Result<Self, NcError> {
        let src_len = src.byte_len()?;
        let header = read_header(&mut src)?;
        Ok(SlabReader { src, src_len, header })
    }
}

impl SlabReader<BufReader<File>> {
    /// Open a dataset file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, NcError> {
        Self::from_source(BufReader::new(File::open(path)?))
    }
}

impl SlabReader<Cursor<Vec<u8>>> {
    /// Read a dataset from bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, NcError> {
        Self::from_source(Cursor::new(bytes))
    }
}

impl<R: Read + Seek> SlabReader<R> {
    /// Read the hyperslab `start[j] .. start[j]+count[j]` of variable
    /// `name`, returning the values in row-major order.
    pub fn read_slab(
        &mut self,
        name: &str,
        start: &[u64],
        count: &[u64],
    ) -> Result<NcValues, NcError> {
        let meta = self.header.find(name)?.clone();
        let shape = self.header.shape(&meta.var)?;
        let k = shape.len();
        if start.len() != k || count.len() != k {
            return Err(NcError::Slab(format!(
                "variable `{name}` has {k} dimension(s); start/count have {}/{}",
                start.len(),
                count.len()
            )));
        }
        for j in 0..k {
            if start[j].checked_add(count[j]).is_none_or(|end| end > shape[j]) {
                return Err(NcError::Slab(format!(
                    "dimension {j}: start {} + count {} exceeds extent {}",
                    start[j], count[j], shape[j]
                )));
            }
        }
        let total = count
            .iter()
            .try_fold(1u64, |acc, &c| acc.checked_mul(c))
            .ok_or_else(|| {
                NcError::Slab(format!("element count of `{name}` slab overflows: {count:?}"))
            })?;
        if total == 0 {
            return Ok(NcValues::empty(meta.var.ty));
        }

        let tsize = meta.var.ty.size();
        let is_rec = self.header.is_record_var(&meta.var);
        let rec_stride = self.header.record_stride();

        // No slab can hold more bytes than the whole source: a header
        // whose shape implies otherwise is corrupt, and rejecting it
        // here bounds the upcoming allocation by the source length.
        let total_bytes = total.checked_mul(tsize).ok_or_else(|| {
            NcError::Slab(format!("byte size of `{name}` slab overflows ({total} elements)"))
        })?;
        if total_bytes > self.src_len {
            return Err(NcError::corrupt(
                meta.begin,
                format!(
                    "variable `{name}` slab needs {total_bytes} byte(s) but the source \
                     holds only {}",
                    self.src_len
                ),
            ));
        }
        let total_bytes = usize::try_from(total_bytes).map_err(|_| {
            NcError::Slab(format!("byte size of `{name}` slab exceeds address space"))
        })?;

        // Row-major element strides within the variable. For record
        // variables the outermost "stride" is the record stride in
        // *bytes*, handled separately.
        let inner_shape = if is_rec { &shape[1..] } else { &shape[..] };
        let mut elem_strides = vec![1u64; inner_shape.len()];
        for j in (0..inner_shape.len().saturating_sub(1)).rev() {
            elem_strides[j] = elem_strides[j + 1].checked_mul(inner_shape[j + 1]).ok_or_else(
                || {
                    NcError::corrupt(
                        meta.begin,
                        format!("variable `{name}` shape {shape:?} overflows its byte layout"),
                    )
                },
            )?;
        }

        // Checked `acc + i * s`, reported as header corruption (the
        // only way it can overflow is an absurd declared layout).
        let layout_err = || {
            NcError::corrupt(
                meta.begin,
                format!("variable `{name}` byte offsets overflow (shape {shape:?})"),
            )
        };
        let acc_mul = |acc: u64, i: u64, s: u64| -> Result<u64, NcError> {
            i.checked_mul(s).and_then(|x| acc.checked_add(x)).ok_or_else(layout_err)
        };

        // Iterate all index combinations except the last dimension,
        // reading a contiguous run of `count[k-1]` values each time.
        let run = count[k - 1];
        let mut raw = Vec::with_capacity(total_bytes);
        let mut idx = start.to_vec();
        loop {
            // Byte offset of the run starting at `idx`.
            let mut off = meta.begin;
            if is_rec {
                off = acc_mul(off, idx[0], rec_stride)?;
                for (j, &i) in idx.iter().enumerate().skip(1) {
                    off = acc_mul(off, i, elem_strides[j - 1].checked_mul(tsize).ok_or_else(layout_err)?)?;
                }
            } else {
                for (j, &i) in idx.iter().enumerate() {
                    off = acc_mul(off, i, elem_strides[j].checked_mul(tsize).ok_or_else(layout_err)?)?;
                }
            }
            // A 1-d record variable reads one value per record.
            let this_run = if is_rec && k == 1 { 1 } else { run };
            let byte_len = (this_run * tsize) as usize;
            let run_end = off.checked_add(byte_len as u64).ok_or_else(layout_err)?;
            if run_end > self.src_len {
                return Err(NcError::corrupt(
                    off,
                    format!(
                        "data for `{name}` extends to byte {run_end} but the source holds \
                         only {} byte(s)",
                        self.src_len
                    ),
                ));
            }
            let at = raw.len();
            raw.resize(at + byte_len, 0);
            self.src.seek(SeekFrom::Start(off))?;
            self.src.read_exact(&mut raw[at..]).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    NcError::corrupt(off, format!("unexpected end of data reading `{name}`: {e}"))
                } else {
                    match NcError::from(e) {
                        NcError::Io { message, transient } => NcError::Io {
                            message: format!("reading `{name}` at byte {off}: {message}"),
                            transient,
                        },
                        other => other,
                    }
                }
            })?;

            // Advance the multi-index (skipping the run dimension,
            // except for 1-d record variables which step per record).
            let step_from = if is_rec && k == 1 { 1 } else { k - 1 };
            let mut j = step_from;
            loop {
                if j == 0 {
                    return Ok(decode(meta.var.ty, &raw, total as usize));
                }
                j -= 1;
                idx[j] += 1;
                if idx[j] < start[j] + count[j] {
                    break;
                }
                idx[j] = start[j];
            }
        }
    }

    /// Read a whole variable, returning values and resolved shape.
    pub fn read_all(&mut self, name: &str) -> Result<(NcValues, Vec<u64>), NcError> {
        let meta = self.header.find(name)?.clone();
        let shape = self.header.shape(&meta.var)?;
        let start = vec![0u64; shape.len()];
        let vals = self.read_slab(name, &start, &shape)?;
        Ok((vals, shape))
    }
}

/// Fully materialise a dataset from bytes (header + all data).
pub fn from_bytes_full(bytes: Vec<u8>) -> Result<NcFile, NcError> {
    let mut r = SlabReader::from_bytes(bytes)?;
    let header = r.header.clone();
    let mut f = NcFile {
        dims: header.dims.clone(),
        gattrs: header.gattrs.clone(),
        vars: Vec::new(),
        data: Vec::new(),
        numrecs: header.numrecs,
    };
    for m in &header.vars {
        let (vals, _) = r.read_all(&m.var.name)?;
        f.vars.push(m.var.clone());
        f.data.push(vals);
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::to_bytes;

    /// A dataset with fixed and record variables, attributes, multiple
    /// types.
    fn sample() -> NcFile {
        let mut f = NcFile::new();
        let t = f.add_dim("time", 0);
        let lat = f.add_dim("lat", 2);
        let lon = f.add_dim("lon", 3);
        f.numrecs = 4;
        f.gattrs.push(NcAttr::text("title", "synthetic weather"));
        f.add_var(
            "temp",
            vec![t, lat, lon],
            NcType::Float,
            vec![NcAttr::text("units", "degF"), NcAttr::double("missing", -999.0)],
            NcValues::Float((0..24).map(|i| i as f32 * 0.5).collect()),
        )
        .unwrap();
        f.add_var(
            "elev",
            vec![lat, lon],
            NcType::Int,
            vec![],
            NcValues::Int((0..6).map(|i| i * 100).collect()),
        )
        .unwrap();
        f.add_var(
            "tick",
            vec![t],
            NcType::Short,
            vec![],
            NcValues::Short(vec![10, 11, 12, 13]),
        )
        .unwrap();
        f
    }

    #[test]
    fn roundtrip_both_versions() {
        for version in [VERSION_CLASSIC, VERSION_64BIT] {
            let f = sample();
            let bytes = to_bytes(&f, version).unwrap();
            let back = from_bytes_full(bytes).unwrap();
            assert_eq!(back.numrecs, 4);
            assert_eq!(back.dims, f.dims);
            assert_eq!(back.gattrs, f.gattrs);
            assert_eq!(back.vars.len(), 3);
            for i in 0..3 {
                assert_eq!(back.vars[i], f.vars[i], "v{version} var {i}");
                assert_eq!(back.data[i], f.data[i], "v{version} data {i}");
            }
        }
    }

    #[test]
    fn hyperslab_matches_full_read() {
        let f = sample();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let mut r = SlabReader::from_bytes(bytes).unwrap();

        // temp[1..3, 0..2, 1..3] against the full data.
        let slab = r.read_slab("temp", &[1, 0, 1], &[2, 2, 2]).unwrap();
        let NcValues::Float(got) = slab else { panic!("type") };
        let full = match &f.data[0] {
            NcValues::Float(v) => v.clone(),
            _ => unreachable!(),
        };
        let mut expect = Vec::new();
        for rec in 1..3 {
            for la in 0..2 {
                for lo in 1..3 {
                    expect.push(full[rec * 6 + la * 3 + lo]);
                }
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn fixed_var_hyperslab() {
        let f = sample();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let mut r = SlabReader::from_bytes(bytes).unwrap();
        let slab = r.read_slab("elev", &[1, 1], &[1, 2]).unwrap();
        assert_eq!(slab, NcValues::Int(vec![400, 500]));
    }

    #[test]
    fn one_dim_record_var() {
        let f = sample();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let mut r = SlabReader::from_bytes(bytes).unwrap();
        let slab = r.read_slab("tick", &[1], &[2]).unwrap();
        assert_eq!(slab, NcValues::Short(vec![11, 12]));
    }

    #[test]
    fn empty_slab() {
        let f = sample();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let mut r = SlabReader::from_bytes(bytes).unwrap();
        let slab = r.read_slab("tick", &[2], &[0]).unwrap();
        assert!(slab.is_empty());
    }

    #[test]
    fn out_of_bounds_slabs_rejected() {
        let f = sample();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let mut r = SlabReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            r.read_slab("tick", &[3], &[2]),
            Err(NcError::Slab(_))
        ));
        assert!(matches!(
            r.read_slab("tick", &[0], &[2, 2]),
            Err(NcError::Slab(_))
        ));
        assert!(matches!(
            r.read_slab("nope", &[0], &[1]),
            Err(NcError::NotFound(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes_full(b"HDF5xxxx".to_vec()).unwrap_err();
        assert!(matches!(err, NcError::Format(_)));
        // A source shorter than the magic is truncation, not format.
        let err = from_bytes_full(b"CD".to_vec()).unwrap_err();
        assert!(matches!(err, NcError::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn single_record_variable_is_unpadded() {
        // One record var of 1 short: records at stride 2, not 4.
        let mut f = NcFile::new();
        let t = f.add_dim("time", 0);
        f.numrecs = 3;
        f.add_var(
            "s",
            vec![t],
            NcType::Short,
            vec![],
            NcValues::Short(vec![7, 8, 9]),
        )
        .unwrap();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let back = from_bytes_full(bytes).unwrap();
        assert_eq!(back.data[0], NcValues::Short(vec![7, 8, 9]));
    }

    #[test]
    fn dataset_without_dims_or_vars() {
        let f = NcFile::new();
        let bytes = to_bytes(&f, VERSION_CLASSIC).unwrap();
        let back = from_bytes_full(bytes).unwrap();
        assert!(back.dims.is_empty());
        assert!(back.vars.is_empty());
    }
}
