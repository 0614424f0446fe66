//! The in-memory model of a NetCDF classic dataset: dimensions,
//! attributes, variables, and their data.

use std::fmt;

use crate::format::{pad4, NcType};

/// An error raised by the NetCDF substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum NcError {
    /// The file is not classic NetCDF or is structurally invalid.
    Format(String),
    /// The byte stream declares counts, lengths, or offsets that
    /// contradict the actual source (truncated or corrupted data).
    /// `offset` is the byte position at which the contradiction was
    /// detected.
    Corrupt {
        /// Byte offset in the source where the corruption was detected.
        offset: u64,
        /// What the parser expected vs. what the source holds.
        message: String,
    },
    /// An I/O failure (message of the underlying error). `transient`
    /// marks failures worth retrying (timeouts, interrupted calls): the
    /// store's retry loop tries those again and gives up on the rest.
    Io {
        /// Message of the underlying I/O error.
        message: String,
        /// Whether a retry may reasonably succeed.
        transient: bool,
    },
    /// A lookup failed (unknown variable or dimension).
    NotFound(String),
    /// A hyperslab request is out of bounds or malformed.
    Slab(String),
    /// The in-memory dataset is inconsistent (e.g. data length does
    /// not match the variable shape).
    Model(String),
}

impl NcError {
    /// A corruption error detected at byte `offset`.
    pub fn corrupt(offset: u64, message: impl Into<String>) -> NcError {
        NcError::Corrupt { offset, message: message.into() }
    }

    /// Would retrying the failed operation plausibly succeed?
    pub fn is_transient(&self) -> bool {
        matches!(self, NcError::Io { transient: true, .. })
    }
}

impl fmt::Display for NcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NcError::Format(m) => write!(f, "netcdf format error: {m}"),
            NcError::Corrupt { offset, message } => {
                write!(f, "netcdf corrupt data at byte {offset}: {message}")
            }
            NcError::Io { message, transient } => {
                let kind = if *transient { "transient " } else { "" };
                write!(f, "netcdf {kind}i/o error: {message}")
            }
            NcError::NotFound(m) => write!(f, "netcdf: not found: {m}"),
            NcError::Slab(m) => write!(f, "netcdf hyperslab error: {m}"),
            NcError::Model(m) => write!(f, "netcdf model error: {m}"),
        }
    }
}

impl std::error::Error for NcError {}

impl From<std::io::Error> for NcError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        let transient = matches!(
            e.kind(),
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock
        );
        NcError::Io { message: e.to_string(), transient }
    }
}

/// Typed external data.
#[derive(Debug, Clone, PartialEq)]
pub enum NcValues {
    /// `NC_BYTE` values.
    Byte(Vec<i8>),
    /// `NC_CHAR` values (raw bytes; attribute text).
    Char(Vec<u8>),
    /// `NC_SHORT` values.
    Short(Vec<i16>),
    /// `NC_INT` values.
    Int(Vec<i32>),
    /// `NC_FLOAT` values.
    Float(Vec<f32>),
    /// `NC_DOUBLE` values.
    Double(Vec<f64>),
}

impl NcValues {
    /// The external type of these values.
    pub fn ty(&self) -> NcType {
        match self {
            NcValues::Byte(_) => NcType::Byte,
            NcValues::Char(_) => NcType::Char,
            NcValues::Short(_) => NcType::Short,
            NcValues::Int(_) => NcType::Int,
            NcValues::Float(_) => NcType::Float,
            NcValues::Double(_) => NcType::Double,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            NcValues::Byte(v) => v.len(),
            NcValues::Char(v) => v.len(),
            NcValues::Short(v) => v.len(),
            NcValues::Int(v) => v.len(),
            NcValues::Float(v) => v.len(),
            NcValues::Double(v) => v.len(),
        }
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty vector of the given type.
    pub fn empty(ty: NcType) -> NcValues {
        match ty {
            NcType::Byte => NcValues::Byte(Vec::new()),
            NcType::Char => NcValues::Char(Vec::new()),
            NcType::Short => NcValues::Short(Vec::new()),
            NcType::Int => NcValues::Int(Vec::new()),
            NcType::Float => NcValues::Float(Vec::new()),
            NcType::Double => NcValues::Double(Vec::new()),
        }
    }

    /// Text content for `NC_CHAR` attribute values.
    pub fn as_text(&self) -> Option<String> {
        match self {
            NcValues::Char(v) => Some(String::from_utf8_lossy(v).into_owned()),
            _ => None,
        }
    }

    /// The value at position `i` widened to `f64` (chars excluded).
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        Some(match self {
            NcValues::Byte(v) => *v.get(i)? as f64,
            NcValues::Char(_) => return None,
            NcValues::Short(v) => *v.get(i)? as f64,
            NcValues::Int(v) => *v.get(i)? as f64,
            NcValues::Float(v) => *v.get(i)? as f64,
            NcValues::Double(v) => *v.get(i)?,
        })
    }
}

/// A dimension: name and length; length 0 marks the record dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NcDim {
    /// Dimension name.
    pub name: String,
    /// Fixed length, or 0 for the (single) record dimension.
    pub len: u32,
}

impl NcDim {
    /// Is this the record (unlimited) dimension?
    pub fn is_record(&self) -> bool {
        self.len == 0
    }
}

/// An attribute: a named, typed vector of values.
#[derive(Debug, Clone, PartialEq)]
pub struct NcAttr {
    /// Attribute name.
    pub name: String,
    /// Attribute values.
    pub values: NcValues,
}

impl NcAttr {
    /// A text attribute.
    pub fn text(name: &str, value: &str) -> NcAttr {
        NcAttr { name: name.to_string(), values: NcValues::Char(value.as_bytes().to_vec()) }
    }

    /// A double attribute.
    pub fn double(name: &str, value: f64) -> NcAttr {
        NcAttr { name: name.to_string(), values: NcValues::Double(vec![value]) }
    }
}

/// A variable: name, dimension ids (indices into the file's dimension
/// list), attributes, and external type.
#[derive(Debug, Clone, PartialEq)]
pub struct NcVar {
    /// Variable name.
    pub name: String,
    /// Dimension ids, outermost first. A variable whose first
    /// dimension is the record dimension is a *record variable*.
    pub dimids: Vec<usize>,
    /// Variable attributes.
    pub attrs: Vec<NcAttr>,
    /// External type.
    pub ty: NcType,
}

/// A complete in-memory dataset.
#[derive(Debug, Clone, Default)]
pub struct NcFile {
    /// Dimensions (at most one with length 0 — the record dimension).
    pub dims: Vec<NcDim>,
    /// Global attributes.
    pub gattrs: Vec<NcAttr>,
    /// Variables.
    pub vars: Vec<NcVar>,
    /// Per-variable data, row-major, indexed like `vars`. Record
    /// variables store `numrecs` full records concatenated.
    pub data: Vec<NcValues>,
    /// Number of records (length of the record dimension).
    pub numrecs: u32,
}

impl NcFile {
    /// A new, empty dataset.
    pub fn new() -> NcFile {
        NcFile::default()
    }

    /// Add a dimension and return its id.
    pub fn add_dim(&mut self, name: &str, len: u32) -> usize {
        self.dims.push(NcDim { name: name.to_string(), len });
        self.dims.len() - 1
    }

    /// Add a variable with its (full) data and return its id.
    pub fn add_var(
        &mut self,
        name: &str,
        dimids: Vec<usize>,
        ty: NcType,
        attrs: Vec<NcAttr>,
        data: NcValues,
    ) -> Result<usize, NcError> {
        if data.ty() != ty {
            return Err(NcError::Model(format!(
                "variable `{name}`: data type {:?} does not match declared {ty:?}",
                data.ty()
            )));
        }
        let var = NcVar { name: name.to_string(), dimids, attrs, ty };
        let expect = self.var_len(&var)?;
        if expect != data.len() as u64 {
            return Err(NcError::Model(format!(
                "variable `{name}`: shape requires {expect} values, got {}",
                data.len()
            )));
        }
        self.vars.push(var);
        self.data.push(data);
        Ok(self.vars.len() - 1)
    }

    /// The resolved shape of a variable (record dimension resolved to
    /// `numrecs`), outermost first.
    pub fn var_shape(&self, var: &NcVar) -> Result<Vec<u64>, NcError> {
        var.dimids
            .iter()
            .map(|&d| {
                let dim = self
                    .dims
                    .get(d)
                    .ok_or_else(|| NcError::Model(format!("bad dimid {d}")))?;
                Ok(if dim.is_record() { self.numrecs as u64 } else { dim.len as u64 })
            })
            .collect()
    }

    /// Total number of values a variable holds.
    pub fn var_len(&self, var: &NcVar) -> Result<u64, NcError> {
        Ok(self.var_shape(var)?.iter().product())
    }

    /// Is the variable a record variable?
    pub fn is_record_var(&self, var: &NcVar) -> bool {
        var.dimids
            .first()
            .and_then(|&d| self.dims.get(d))
            .is_some_and(NcDim::is_record)
    }

    /// Find a variable by name.
    pub fn find_var(&self, name: &str) -> Result<(usize, &NcVar), NcError> {
        self.vars
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .ok_or_else(|| NcError::NotFound(format!("variable `{name}`")))
    }

    /// The per-record byte size of a record variable (one record's
    /// worth of data, unpadded).
    pub fn record_row_bytes(&self, var: &NcVar) -> Result<u64, NcError> {
        let shape = self.var_shape(var)?;
        let per_rec: u64 = shape.iter().skip(1).product();
        Ok(per_rec * var.ty.size())
    }

    /// `vsize` as stored in the header: the (padded) byte size of a
    /// fixed variable, or of one record of a record variable.
    pub fn vsize(&self, var: &NcVar) -> Result<u64, NcError> {
        let bytes = if self.is_record_var(var) {
            self.record_row_bytes(var)?
        } else {
            self.var_len(var)? * var.ty.size()
        };
        Ok(pad4(bytes))
    }

    /// The record stride: the byte distance between consecutive
    /// records. Per the specification, when there is exactly one
    /// record variable its records are *not* padded.
    pub fn record_stride(&self) -> Result<u64, NcError> {
        let rec_vars: Vec<&NcVar> =
            self.vars.iter().filter(|v| self.is_record_var(v)).collect();
        match rec_vars.len() {
            0 => Ok(0),
            1 => self.record_row_bytes(rec_vars[0]),
            _ => rec_vars.iter().map(|v| self.vsize(v)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NcFile {
        let mut f = NcFile::new();
        let t = f.add_dim("time", 0); // record dimension
        let lat = f.add_dim("lat", 3);
        f.numrecs = 2;
        f.add_var(
            "temp",
            vec![t, lat],
            NcType::Float,
            vec![NcAttr::text("units", "degF")],
            NcValues::Float((0..6).map(|i| i as f32).collect()),
        )
        .unwrap();
        f.add_var(
            "elev",
            vec![lat],
            NcType::Int,
            vec![],
            NcValues::Int(vec![10, 20, 30]),
        )
        .unwrap();
        f
    }

    #[test]
    fn shapes_resolve_record_dim() {
        let f = sample();
        let (_, temp) = f.find_var("temp").unwrap();
        assert_eq!(f.var_shape(temp).unwrap(), vec![2, 3]);
        assert!(f.is_record_var(temp));
        let (_, elev) = f.find_var("elev").unwrap();
        assert_eq!(f.var_shape(elev).unwrap(), vec![3]);
        assert!(!f.is_record_var(elev));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut f = NcFile::new();
        let d = f.add_dim("x", 4);
        let err = f
            .add_var("v", vec![d], NcType::Int, vec![], NcValues::Int(vec![1]))
            .unwrap_err();
        assert!(matches!(err, NcError::Model(_)));
        // Type mismatch too.
        let err = f
            .add_var("v", vec![d], NcType::Int, vec![], NcValues::Float(vec![0.0; 4]))
            .unwrap_err();
        assert!(matches!(err, NcError::Model(_)));
    }

    #[test]
    fn vsize_and_stride() {
        let f = sample();
        let (_, temp) = f.find_var("temp").unwrap();
        // One record = 3 floats = 12 bytes (already 4-aligned).
        assert_eq!(f.record_row_bytes(temp).unwrap(), 12);
        assert_eq!(f.vsize(temp).unwrap(), 12);
        // Single record variable → unpadded stride.
        assert_eq!(f.record_stride().unwrap(), 12);
        let (_, elev) = f.find_var("elev").unwrap();
        assert_eq!(f.vsize(elev).unwrap(), 12);
    }

    #[test]
    fn stride_pads_with_multiple_record_vars() {
        let mut f = NcFile::new();
        let t = f.add_dim("time", 0);
        f.numrecs = 1;
        // Two record vars of 1 short each: rows of 2 bytes pad to 4.
        f.add_var("a", vec![t], NcType::Short, vec![], NcValues::Short(vec![1]))
            .unwrap();
        f.add_var("b", vec![t], NcType::Short, vec![], NcValues::Short(vec![2]))
            .unwrap();
        assert_eq!(f.record_stride().unwrap(), 8);
    }

    #[test]
    fn attr_constructors() {
        let a = NcAttr::text("units", "degF");
        assert_eq!(a.values.as_text().unwrap(), "degF");
        let d = NcAttr::double("missing", -999.0);
        assert_eq!(d.values.get_f64(0), Some(-999.0));
    }

    #[test]
    fn find_var_errors() {
        let f = sample();
        assert!(f.find_var("nope").is_err());
    }

    #[test]
    fn io_errors_classify_by_kind() {
        use std::io::ErrorKind::*;
        for (kind, transient) in [
            (Interrupted, true),
            (TimedOut, true),
            (WouldBlock, true),
            (NotConnected, false),
            (NotFound, false),
            (UnexpectedEof, false),
        ] {
            let e = NcError::from(std::io::Error::new(kind, "injected"));
            assert_eq!(e.is_transient(), transient, "{kind:?}");
            assert!(matches!(e, NcError::Io { .. }), "{kind:?}");
        }
    }
}
